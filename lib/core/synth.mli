(** ADVBIST: the paper's synthesis method, end to end.

    For a problem instance and a session count [k], build the full
    concurrent ILP (register assignment + BIST register assignment +
    interconnection assignment, Section 3), warm-start it from the
    constructive heuristic, solve under an optional time limit (the paper
    capped CPLEX at 24 CPU hours and marked timed-out entries with [*]),
    decode and audit the design.

    The reference (non-BIST, area-optimal) circuit of Section 4.1 comes from
    the same machinery with [k = 0] ({!reference}). *)

type outcome = {
  plan : Bist.Plan.t;
  optimal : bool;  (** proven optimal (no limit hit) *)
  area : int;
  solve_time : float;
  nodes : int;
  gap_pct : float;
      (** incumbent-vs-bound optimality gap, in percent of the incumbent
          design area: [0] when proven optimal.  The dual bound is the
          better of the solver's search bound and the structural bound
          {!Encoding.objective_lower_bound}, lifted to the area scale by
          {!Encoding.base_area} *)
  stolen : int;  (** subtrees stolen across domains ([jobs >= 2] only) *)
  stats : Ilp.Stats.t option;
      (** solver telemetry, present iff the solve ran with [stats];
          [presolve_s] covers the {!Ilp.Presolve} pass this module runs
          before handing the model to the solver *)
  explain : Ilp.Replay.report option;
      (** search post-mortem, present iff the solve ran with [explain]:
          the solve's trace replayed through {!Ilp.Replay.analyze} —
          prune attribution, per-variable branching efficacy, wasted
          work, gap-closure curves *)
}

type reference = {
  ref_netlist : Datapath.Netlist.t;
  ref_area : int;
  ref_optimal : bool;
  ref_time : float;
  ref_stats : Ilp.Stats.t option;  (** as [outcome.stats] *)
}

val reference :
  ?time_limit:float -> ?node_limit:int -> ?symmetry:bool ->
  ?jobs:int -> ?steal:bool ->
  ?stats:bool -> ?trace:Ilp.Trace.sink -> ?learn:bool ->
  Dfg.Problem.t ->
  (reference, string) result
(** Area-optimal non-BIST data path (registers all plain + minimal mux
    area), warm-started from left-edge + greedy binding.  [jobs >= 2]
    with [steal] (default true)
    runs the work-stealing parallel tree search
    ({!Ilp.Solver.solve_parallel}). *)

val synthesize :
  ?time_limit:float -> ?node_limit:int -> ?symmetry:bool ->
  ?jobs:int -> ?steal:bool ->
  ?stats:bool -> ?trace:Ilp.Trace.sink -> ?explain:bool -> ?learn:bool ->
  ?seed:Datapath.Netlist.t -> Dfg.Problem.t -> k:int ->
  (outcome, string) result
(** [Error] when [k < 1]: a BIST design needs at least one test session.

    [stats] (default false) collects solver telemetry into
    [outcome.stats]; [trace] installs a structured event sink
    ({!Ilp.Trace}) for the solve.  [explain] (default false) captures
    the solve's trace internally and replays it into
    [outcome.explain] — a caller-supplied [trace] sink still receives
    every event, replayed after the solve rather than live.

    [jobs] and [steal] as in {!reference}.  [seed] is an
    already-synthesized data path (typically the previous k's design, or
    the reference circuit) whose session assignment is repaired for this
    [k] by {!Session_opt}.  The constructive heuristic's design remains
    the solver's warm start — it carries the value hints the search
    trajectory is tuned to — while the repaired seed is passed as a
    bound-only initial incumbent ({!Ilp.Solver.options.incumbent_start}):
    it tightens the starting cutoff whenever it is the cheaper design
    without steering branching.  Either way the solve starts with a
    finite primal bound whenever a candidate lifts to a feasible
    vector. *)

type sweep_row = {
  k : int;
  outcome : outcome;
  overhead_pct : float;  (** vs the reference area *)
}

val sweep :
  ?time_limit:float -> ?node_limit:int -> ?symmetry:bool -> ?jobs:int ->
  ?steal:bool -> ?stats:bool -> ?trace:Ilp.Trace.sink ->
  ?explain:bool -> ?learn:bool -> Dfg.Problem.t ->
  (reference * sweep_row list, string) result
(** One design per k-test session, k = 1 .. N (N = number of modules) —
    Table 2 of the paper.  [time_limit] and [node_limit] apply per k;
    node-limited runs are deterministic even under parallel load, where
    wall-clock limits are not.

    The rows are solved in k order so each instance is seeded with the
    previous row's data path (k = 1 with the reference circuit), repaired
    for its session count by the exact session optimizer — every row
    starts from a finite incumbent.  [jobs] (default 1) therefore no
    longer farms rows out; it parallelizes each individual solve's tree
    search with work stealing ({!Ilp.Solver.solve_parallel}), which keeps
    the node-limited results deterministic: any [jobs] returns the same
    status, objective and solution.

    [stats] and [trace] apply to every solve of the sweep (reference
    included); [explain] to every BIST row (each row's post-mortem
    lands in its [outcome.explain]).  Aggregate the rows with
    {!sweep_stats}. *)

val sweep_stats : ?reference:reference -> sweep_row list -> Ilp.Stats.t option
(** {!Ilp.Stats.merge} over every row's stats record (plus the reference
    solve's when given); [None] when no solve collected stats. *)
