# Convenience targets around dune.

.PHONY: all build test bench bench-json bench-diff learn-smoke ilp-smoke perf perfbench-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

# Full paper-table benchmark (long; budget in seconds via ADVBIST_BENCH_BUDGET).
bench:
	dune exec bench/main.exe -- all

# Machine-readable solver perf snapshot for CI trend tracking: per-circuit,
# per-k wall time / node counts / optimality flags under a fixed per-solve
# node budget.
# Writes BENCH_solver.json in the repo root (override: ADVBIST_BENCH_JSON).
bench-json:
	ADVBIST_BENCH_BUDGET=2 ADVBIST_BENCH_JSON=$(CURDIR)/BENCH_solver.json \
		dune exec bench/main.exe -- json

# Bench regression diff: check that tseng k=1 proves optimal inside a 2 s
# budget, run the smoke sweep under the snapshot's fixed per-solve node
# budget (deterministic: the same areas on every run and machine), write
# a fresh schema-v6 snapshot to _build/bench_smoke.json, then diff it
# against the committed BENCH_solver.json.  Exits non-zero when any
# (circuit, k) row's design area regressed or proven optimality was lost;
# node-count (localized to the prune reason whose share moved) / waste /
# gap / time / phase-share drift is reported as warnings.  The full report
# lands in _build/bench_diff.txt; the tseng k=1 smoke run also leaves its
# JSONL search trace (_build/bench_smoke_trace.jsonl) and Ilp.Replay
# post-mortem (_build/bench_smoke_explain.txt) behind for CI upload.
bench-diff:
	ADVBIST_BENCH_BUDGET=2 \
	ADVBIST_BENCH_JSON_OUT=$(CURDIR)/_build/bench_smoke.json \
	ADVBIST_BENCH_TRACE_OUT=$(CURDIR)/_build/bench_smoke_trace.jsonl \
	ADVBIST_BENCH_EXPLAIN_OUT=$(CURDIR)/_build/bench_smoke_explain.txt \
		dune exec bench/main.exe -- smoke
	ADVBIST_BENCH_DIFF_OUT=$(CURDIR)/_build/bench_diff.txt \
		dune exec bench/main.exe -- diff \
			$(CURDIR)/BENCH_solver.json $(CURDIR)/_build/bench_smoke.json

# Conflict-engine smoke: solve tseng k=2 with learning explicitly on (the
# default, but this arm keeps the flag path itself under test) and once
# with it off, and keep both --stats profiles — each includes the
# "conflict engine:" counter line — in _build/learning_stats.txt.  Gates
# only on the solves succeeding; the counters are trend material for CI
# upload next to bench_diff.txt.
learn-smoke:
	@mkdir -p $(CURDIR)/_build
	( echo "== synth tseng k=2 --learn on =="; \
	  dune exec bin/advbist_cli.exe -- synth -c tseng -k 2 -t 10 \
		--learn on --stats 2>&1; \
	  echo; echo "== synth tseng k=2 --learn off =="; \
	  dune exec bin/advbist_cli.exe -- synth -c tseng -k 2 -t 10 \
		--learn off --stats 2>&1 ) \
		| tee $(CURDIR)/_build/learning_stats.txt

# End-to-end check of the standalone ILP solver: export tseng k=1 as a
# CPLEX-LP file, solve it with `ilp_cli solve --stats` (about 3 s) and
# keep the output in _build/ilp_smoke.txt.  Fails unless the solve
# proves the known optimum: "status: optimal" and "objective: 1104".
ilp-smoke:
	@mkdir -p $(CURDIR)/_build
	dune exec bin/advbist_cli.exe -- synth -c tseng -k 1 \
		--lp $(CURDIR)/_build/ilp_smoke.lp > /dev/null
	dune exec bin/ilp_cli.exe -- solve $(CURDIR)/_build/ilp_smoke.lp --stats \
		2>&1 | tee $(CURDIR)/_build/ilp_smoke.txt
	grep -q '^status: optimal$$' $(CURDIR)/_build/ilp_smoke.txt
	grep -q '^objective: 1104$$' $(CURDIR)/_build/ilp_smoke.txt

# Kernel micro-benchmark: propagation fixpoint sweeps/s on a fixed
# instance (tseng k=1).
# Non-gating — the rate is machine-dependent — but the report is kept in
# _build/perf_micro.txt so CI can upload it next to bench_diff.txt for
# trend eyeballing.
perf:
	dune exec bench/main.exe -- perf | tee $(CURDIR)/_build/perf_micro.txt

# Benchmark smoke: one short untraced pass each of the explore and prove
# workloads on the circuits as shipped (seed 0).  Fails unless the JSON
# result on the last line of each output reports "correct": true: every
# explore design is re-audited, and every prove proof is checked against
# its known optimum, so a propagation change that loses a deduction fails
# here instead of only slowing down.
perfbench-smoke:
	@mkdir -p $(CURDIR)/_build
	python3 perfbench/run.py --workload explore --seed 0 --seconds 1 \
		--trace 0 | tee $(CURDIR)/_build/perfbench_smoke.txt
	tail -n 1 $(CURDIR)/_build/perfbench_smoke.txt | grep -q '"correct": true'
	python3 perfbench/run.py --workload prove --seed 0 --seconds 1 \
		--trace 0 | tee $(CURDIR)/_build/perfbench_smoke_prove.txt
	tail -n 1 $(CURDIR)/_build/perfbench_smoke_prove.txt \
		| grep -q '"correct": true'

# Fast gate for every change: build, unit tests, the conflict-engine
# smoke above, the ilp_cli end-to-end solve, then the bench smoke +
# regression diff — the smoke asserts
# the solver still proves tseng k=1 optimal at the 2 s budget and that no
# (circuit, k) row's design area regressed vs the committed
# BENCH_solver.json, and the diff report classifies every other drift
# (a few minutes: it re-runs every committed sweep under the node budget).  The perf
# micro-rate rides along non-gating (`|| true` lives in the CI step, not
# here, so interactive `make perf` still reports failures).  The
# benchmark smoke checks that the explore workload still runs and every
# design it returns passes the audit, and that every prove proof still
# reaches its known optimum.
ci: build test learn-smoke ilp-smoke bench-diff perfbench-smoke

clean:
	dune clean
