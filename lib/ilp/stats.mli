(** Per-solve search telemetry: phase timers and counters.

    A [t] is a plain mutable record the solver fills in on every solve;
    it is surfaced as {!Solver.outcome.stats}.  The subtree search
    ([jobs >= 2]) gives each worker its own record and {!merge}s them at
    combine time, so the search hot path never touches an atomic and
    jobs-deterministic fields (node counts, per-depth histogram,
    propagation, conflict and probing counters) stay identical for any
    worker count [>= 2].

    The four top-level phase timers ([presolve_s] .. [search_s]) are
    disjoint wall-clock segments of the solve call measured on the
    calling domain: their sum accounts for the outcome's [time_s].
    [probe_s] is a sub-timer summed across workers (CPU time inside
    [search_s], not additional wall clock). *)

type t = {
  mutable presolve_s : float;
      (** caller-side {!Presolve.strengthen} time, stamped by callers
          that presolve before handing the model to the solver *)
  mutable build_s : float;  (** search-state construction + warm start *)
  mutable root_s : float;  (** root propagation + shaving fixpoint *)
  mutable search_s : float;  (** tree search (all nodes, all workers) *)
  mutable probe_s : float;  (** in-tree probing (summed across workers) *)
  mutable prop_fixpoints : int;
  mutable prop_ticks : int;  (** row propagations *)
  mutable prop_scans : int;
      (** row propagations that scanned the row's entries (the objective
          cutoff row's included, which ticks do not count).  The other
          ticks returned in O(1) — a conflict, or a row whose slack
          reaches its span — so [prop_ticks - prop_scans] is a
          deterministic count of the scans the span test saved *)
  mutable prop_conflicts : int;
  mutable conflicts : int;
      (** propagation conflicts analyzed by the conflict engine (depth > 0
          only; root conflicts close the search instead) *)
  mutable learned : int;  (** 1-UIP nogoods appended to the clause database *)
  mutable deleted : int;
      (** learned rows dropped by activity/LBD database reduction *)
  mutable oversize : int;
      (** analyzed nogoods not stored because they exceed the clause
          size cap; [learned + oversize] nogoods completed analysis *)
  mutable nogood_lits : int;
      (** literals summed over the [learned + oversize] analyzed nogoods;
          {!pp} prints it as their mean size *)
  mutable backjumps : int;
      (** root-asserting conflicts that aborted the current dive *)
  mutable backjump_depth : int;
      (** sum over the stored asserting nogoods of (conflict level -
          asserting level); divided by [asserting] in {!pp} as the mean
          jump distance a nogood supports, the same mean {!Replay} reports *)
  mutable asserting : int;
      (** stored nogoods with a single literal at the conflict level: the
          nogoods [backjump_depth] sums over *)
  mutable reasserted : int;
      (** bound changes made by the fixpoints that re-assert learned rows
          left unit by a backtrack, before a node's next value *)
  mutable reassert_closed : int;
      (** nodes whose remaining values a re-assertion conflict closed *)
  mutable probe_calls : int;
  mutable probe_skips : int;  (** nodes skipped by the backoff gate *)
  mutable probe_trials : int;  (** tentative endpoint propagations *)
  mutable probe_hits : int;
  mutable probe_backoffs : int;
  mutable lp_s : float;
      (** always 0, like [lp_resolves] and [lp_pivots]: the solver has no
          LP relaxation.  The three fields remain because the benchmark
          harness reports them as its [simplex.*] per-layer metrics; {!pp}
          does not print them. *)
  mutable lp_resolves : int;  (** always 0; see [lp_s] *)
  mutable lp_pivots : int;  (** always 0; see [lp_s] *)
  mutable prepare_s : float;
      (** always 0, like [orbit_fixings]: the solver has no symmetry
          phase.  Both remain because the benchmark harness reports them
          as its [solver.prepare_s] and [solver.orbit_fixings] per-layer
          metrics; {!pp} does not print them and {!phases} omits
          [prepare_s]. *)
  mutable orbit_fixings : int;  (** always 0; see [prepare_s] *)
  mutable incumbents : (float * int * int) list;
      (** primal-progress curve: (seconds, nodes, objective) per
          incumbent improvement, newest first *)
  mutable depth_hist : int array;
      (** nodes per depth; the sum equals the outcome's node count *)
  mutable subtrees : int;  (** parallel frontier size; 0 sequentially *)
  mutable steals : int;
      (** subtrees run by a worker other than their home worker; the one
          schedule-dependent counter *)
  mutable workers : int;  (** worker domains; 0 sequentially *)
}

val create : unit -> t
(** A zeroed record. *)

val node : t -> depth:int -> unit
(** Count one search node at [depth] (grows the histogram on demand). *)

val incumbent : t -> time_s:float -> nodes:int -> objective:int -> unit
(** Append one point to the primal-progress curve. *)

val merge : t -> t -> t
(** Element-wise sum (histograms element-wise, incumbent histories
    unioned under a canonical sort); commutative and associative up to
    float-addition rounding.  Returns a fresh record. *)

val total_nodes : t -> int
(** Sum of the depth histogram. *)

val max_depth : t -> int
(** Deepest level with at least one node (0 when empty). *)

val primal_progress : t -> (float * int * int) list
(** The incumbent curve sorted oldest first. *)

val phases : t -> (string * float) list
(** The four disjoint top-level phase timers, in pipeline order. *)

val accounted_s : t -> float
(** Sum of {!phases} — the share of the wall clock the telemetry
    attributes to a named phase. *)

val pp : ?time_s:float -> Format.formatter -> t -> unit
(** Human-readable table.  With [time_s] (the outcome's wall clock),
    each phase also shows its percentage of the whole call. *)
