(** Branch-and-bound solver for integer linear programs.

    Depth-first search over variable domains with:
    - bound-tightening (pseudo-boolean) propagation at every node,
    - an objective cutoff row updated whenever the incumbent improves,
      which is the only bound: there is no LP relaxation,
    - 1-UIP conflict analysis: when an in-tree propagation fixpoint
      fails, a pseudo-boolean nogood over bound literals of binary
      variables is derived from the reason-annotated trail and appended
      to the row block, where the unchanged propagation kernel enforces
      it everywhere below the root.  A root-asserting nogood aborts the
      dive; the root re-propagation then fixes its variable for good (a
      non-chronological backjump) and the search dives again.  A nogood
      that asserts below its conflict level is re-asserted, once the
      search has backtracked past that level, at each node before its
      next value.  In the
      subtree search ([jobs >= 2]) the databases are subtree-local,
      preserving jobs-invariance,
    - a caller-supplied branching order and warm-start solution,
    - wall-clock time limit with best-found-so-far reporting, mirroring the
      24-hour CPU cap the paper applied to CPLEX.

    Solutions returned are always re-audited against the model with
    {!Model.check}; a violation indicates a solver bug and raises. *)

type status =
  | Optimal  (** search exhausted: the solution is proven optimal *)
  | Feasible  (** a solution was found but limits stopped the proof *)
  | Infeasible  (** proven: no solution exists *)
  | Unknown  (** limits hit before any solution was found *)

type outcome = {
  status : status;
  solution : int array option;
  objective : int option;
  bound : int;  (** proven lower bound on the optimum *)
  nodes : int;
  time_s : float;
      (** wall-clock seconds of the whole call, measured from entry to
          return of {!solve} — it covers search-state construction, the
          root phase and the search itself, so it is the number a
          caller's own stopwatch around the call would read. *)
  stats : Stats.t;
      (** per-phase timers and search counters, always kept.  In the
          subtree search ([jobs >= 2]) this is the merge of the main
          domain's record with every worker's (see {!Stats.merge}), and
          [stats.steals] counts the subtrees run by a worker other than
          their home worker; the deterministic counters are identical for
          any [jobs >= 2]. *)
}

type options = {
  time_limit : float option;  (** seconds *)
  node_limit : int option;
  branch_order : int list option;
      (** variables branched first, highest priority first; remaining
          variables follow in index order.  Branching is dynamic: the
          branched variable is the most-constrained (smallest domain,
          then highest conflict activity) among the first 16 unfixed
          variables of this order, with the order as the final tie-break
          — so it fully decides the first descents, before any conflicts
          are recorded. *)
  warm_start : int array option;
      (** a (claimed) feasible assignment used as initial incumbent; it is
          checked and silently discarded if infeasible.  Also the source
          of the search's value hints: branching tries the hinted value
          first (then the others from low to high) and each probing trial
          tests the hinted endpoint (fixing the other when it fails), so
          the warm start steers the whole trajectory. *)
  incumbent_start : int array option;
      (** a (claimed) feasible assignment installed as the initial
          incumbent when its objective beats [warm_start]'s — bound only:
          it contributes no value hints and never steers branching or
          probing.  Use it for a solution that should tighten the initial
          cutoff without derailing a trajectory tuned to the warm start
          (e.g. a cross-instance seed next to a same-instance heuristic).
          Checked and silently discarded if infeasible. *)
  trace : Trace.sink option;
      (** structured event sink (default [None]).  Receives the full
          typed event stream: nodes, prunes with reasons, incumbents,
          conflicts, subtree spawns and steals. The sink is shared by
          all subtree workers (writes are serialized); the caller owns
          it and should {!Trace.close} it after the solve.  For
          progress lines on stderr, install {!Trace.stderr_human}. *)
}

val default : options
(** No limits, no order, no warm start, no trace.  Branching always tries
    values from low to high after the warm-start hint. *)

val solve : ?options:options -> ?jobs:int -> Model.t -> outcome
(** The solver's one entry point.  Both searches share the root phase
    (search-state construction, root propagation and probing) and the
    outcome assembly; [jobs] (default 1, clamped to 64) picks the search
    below the root.

    With [jobs < 2], the sequential depth-first search.

    With [jobs >= 2], the subtree search on [jobs] domains: the root is
    expanded breadth-first into open subtrees using the sequential
    branching order, and the subtrees are spread over per-worker
    work-stealing deques ({!Pool.Deques}) — idle workers steal the
    oldest pending subtree of a busy one.  Workers do not exchange
    incumbents: each subtree starts from a canonical root-derived state
    seeded with the root incumbent, so every subtree's result —
    including its node count, depth histogram and counters — is a pure
    function of the subtree, independent of the stealing schedule.  The
    returned solution is the minimum over all subtree results under
    (objective, lexicographic solution): any two [jobs >= 2] return
    identical status, objective, solution, node count and deterministic
    stats; only [stats.steals] and the timers depend on the schedule.
    Node counts are summed across workers.

    [options.node_limit] applies to the root phase and then to each open
    subtree separately (not cumulatively per worker), with each
    subtree's node and propagation-tick counters starting from zero, so
    a limit-hit subtree's partial result is a pure function of the
    subtree: node-limited runs, too, return the same status, objective,
    solution and node count for any [jobs >= 2].  Only a time limit
    makes the outcome schedule-dependent. *)

(** {2 Test and micro-benchmark hooks}

    Thin windows into the propagation kernel, for property tests and the
    [bench perf] micro-benchmark.  Each builds a bare search state over
    the model's normalized Le rows: Ge rows negated, Eq rows split into a
    Le pair in model order. *)

val row_min_activities :
  ?lower:int array -> ?upper:int array -> Model.t -> int array
(** Per-row minimal activities (sum of [coef * lb] over positive
    coefficients plus [coef * ub] over negative ones) of the normalized
    rows under the model bounds, optionally tightened by [lower]/[upper]
    — tightenings are applied through the solver's incremental update
    path, so this exercises exactly the machinery the search trusts. *)

val propagate_bounds :
  ?lower:int array ->
  ?upper:int array ->
  ?fix:int * int * int ->
  Model.t ->
  (int array * int array) option
(** The bounds (lower, upper) after the worklist propagation fixpoint
    over every normalized row, starting from the model bounds tightened
    by [lower]/[upper]; [None] when propagation runs into a conflict.
    With [~fix:(v, lo, hi)], that fixpoint is then narrowed to
    [lo <= x_v <= hi] and re-propagated incrementally, as a search
    decision is: only the rows whose min-activity the narrowing moves
    are queued.  No objective cutoff or learning takes part. *)

val propagation_rate : Model.t -> sweeps:int -> float
(** Full propagation-fixpoint sweeps per second over [sweeps] repeats
    (each sweep seeds every row, runs to fixpoint, and unwinds the
    trail). *)

val solve_with_learned :
  ?options:options -> Model.t -> outcome * (int array * int array * int * int) list
(** The sequential {!solve}, additionally returning the learned nogoods
    alive at the end of the search, each as [(coefs, vars, rhs, cutoff_rhs)]: the clause
    row [sum coefs.(i) * x.(vars.(i)) <= rhs] is claimed to be implied by
    the model conjoined with [objective <= cutoff_rhs] (the cutoff row's
    right-hand side when the clause was derived).  The differential
    tests audit exactly this implication by enumeration. *)
