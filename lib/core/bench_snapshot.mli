(** Solver bench snapshots: the on-disk JSON schema behind
    [BENCH_solver.json], and regression diffing between two snapshots.

    The file format is schema version 6 ([advbist-solver-bench/6]); the
    parser rejects every other version.  Each row carries its size,
    optimality and throughput, plus optional per-phase timings
    ({!Ilp.Stats.phases}), the search post-mortem from {!Ilp.Replay} (a
    [waste_pct] — share of nodes an oracle incumbent would have skipped —
    and a [prune_shares] object mapping each prune reason to its
    percentage of the closed nodes, an explicit empty object on
    zero-prune rows) and the conflict-engine counters ([conflicts],
    [learned], [deleted] from {!Ilp.Stats}).  Optional fields are exactly
    those the writer omits: absent [phase_s] and [prune_shares] read as
    [[]], absent [waste_pct] as [None], absent counters as 0.  Unknown
    keys are skipped.  An optional top-level [node_limit] records the
    per-solve node budget the sweeps ran under.  Parsing is restricted
    to the subset of JSON these snapshots use — it is a file format, not
    a general JSON library. *)

type row = {
  k : int;
  time_s : float;
  nodes : int;
  optimal : bool;
  area : int;
  overhead_pct : float;
  gap_pct : float;
  nodes_per_sec : float;  (** node throughput *)
  phase_s : (string * float) list;
      (** per-phase seconds, in emission order; [[]] when absent *)
  waste_pct : float option;
      (** {!Ilp.Replay.report.waste_pct} for this row's solve: percent
          of opened nodes whose parent bound already met the final
          incumbent; [None] when the bench ran without explain capture *)
  prune_shares : (string * float) list;
      (** per-reason percentage of all pruned nodes
          ({!Ilp.Replay.prune_shares}); [[]] when absent *)
  conflicts : int;
      (** propagation conflicts analyzed by the conflict engine
          ({!Ilp.Stats.t.conflicts}) *)
  learned : int;  (** 1-UIP nogoods appended to the database *)
  deleted : int;  (** learned rows dropped by DB reduction *)
}

type relabeled = {
  seeds : int list;
  copies : int;  (** relabeled copies per seed, numbered from 0 *)
  seed_totals : int list;
      (** for each of [seeds], the reference area summed over its copies,
          each solved under the snapshot's node budget *)
  measured_at : string;  (** the commit the totals were measured at *)
}
(** A reference row's area over isomorphic relabeled copies of its
    circuit (perfbench's [Relabel.relabel ~seed ~copy]); the JSON object
    [reference_relabeled] with keys [seeds], [copies], [seed_totals] and
    [commit]. *)

val relabeled_total : relabeled -> int
(** The area summed over every copy of every seed. *)

type circuit = {
  circuit : string;
  reference_area : int;
  reference_optimal : bool;
  reference_relabeled : relabeled option;
      (** absent on proved references and in older snapshots *)
  wall_s : float;
  rows : row list;
}

type t = {
  version : int;  (** schema version; always 6 *)
  commit : string;
  budget_s : float;
  node_limit : int option;
      (** per-solve node budget of every sweep in the snapshot; [None]
          when the sweeps ran under the wall budget [budget_s] alone
          (every snapshot before the field existed) *)
  jobs : int;
  circuits : circuit list;
  total_wall_s : float;
}

val of_string : string -> (t, string) result
val of_file : string -> (t, string) result

val to_string : t -> string
(** Rendered as schema version 6; parsing the result back and rendering
    again is a fixpoint. *)

(** {2 Regression diffing} *)

type severity = Fail | Warn

type finding = {
  severity : severity;
  circuit : string;
  k : int option;  (** [None] for circuit-level findings *)
  what : string;
}

val diff : baseline:t -> current:t -> finding list
(** Row-by-row comparison, keyed on (circuit, k).

    [Fail]: a row's design area increased, a row lost proven optimality
    (optimal [true] -> [false]), or a baseline circuit/row is missing
    from [current].  A reference row fails when its area increased,
    except one that both snapshots leave unproved and whose baseline
    carries [reference_relabeled]: that one fails when its relabeled
    total rose by more than the spread between the baseline's highest
    and lowest [seed_totals], or is missing from [current] (or was taken
    over other copies); a smaller rise and its own area increase only
    warn.

    [Warn]: node count moved more than 20% in either direction (only on
    rows both snapshots prove optimal — on a budget-limited row the
    count is machine throughput, not tree size; when both rows carry
    [prune_shares] the finding names the prune reason whose share of
    the closed nodes moved most, localizing the regression to the
    pruning machinery responsible), wasted work ([waste_pct]) grew by
    more than 10 points of the node count, the
    conflict density ([conflicts] per node) grew by more than 20%
    (only when the baseline measured a nonzero rate), the
    optimality gap grew by more than 2 points, a row's solve time grew
    by more than 20% (and at least 0.1 s), node throughput
    ([nodes_per_sec]) dropped by more than 20% (only when both rows ran
    at least 0.05 s and the baseline measured a nonzero rate), a phase's
    share of the solve time shifted by more than 10 points (when both
    snapshots carry phase timings), or [current] has rows the baseline
    lacks.

    Findings are ordered circuit-by-circuit with failures first. *)

val has_failures : finding list -> bool

val render_report : baseline:t -> current:t -> finding list -> string
(** Human-readable report: header with both snapshots' commit/budget,
    one line per finding, and a PASS/FAIL summary line. *)
