(** Structured search traces.

    An optional event sink the solver writes typed events to when
    {!Solver.options.trace} is set.  The disabled path costs one branch
    per emission site (the event payload is only allocated when a sink
    is installed).  All sinks are domain-safe: writes are serialized
    with a mutex, so the parallel workers of
    {!Solver.solve_parallel} can share one sink.

    JSONL traces carry enough structure to reconstruct the search tree
    after the fact: {!Replay} parses them back ({!jsonl_line} and
    {!Replay.event_of_line} are inverses) and computes prune/waste
    attribution. *)

type prune_reason =
  | Cutoff  (** objective min-activity reached the incumbent cutoff *)
  | Probed  (** probing refuted the node against the cutoff *)

type event =
  | Node of { depth : int; nodes : int; var : int; value : int; bound : int }
      (** a search node was opened: [var]/[value] are the branching
          decision that created it ([var = -1] at a subtree root), and
          [bound] is the node's objective min-activity on entry — the
          cheapest certificate of its dual bound, recorded so replay can
          charge children against it *)
  | Prune of { depth : int; reason : prune_reason; bound : int; nodes : int }
      (** the node was cut off: [bound] is the dual bound that fired
          ([max_int] when the node was proven empty rather than
          dominated: {!Probed}), [nodes] the node count at emission *)
  | Bound of { bound : int; nodes : int }
      (** the global dual bound: the root-propagated objective
          min-activity, emitted once per solve — together with
          {!Incumbent} this gives replay both gap-closure curves *)
  | Incumbent of { objective : int; nodes : int }
  | Subtree of { id : int; depth : int }
      (** a frontier subtree was spawned ([depth] = path length) *)
  | Steal of { thief : int; victim : int }
  | Conflict of { depth : int; level : int; lbd : int; size : int; nodes : int }
      (** a 1-UIP nogood was learned: the conflict fired at [depth], its
          asserting level is [level] ([-1] when the nogood is not
          asserting), [lbd] is the number of distinct decision levels
          among its literals and [size] its literal count *)
  | Restart of { conflicts : int; learned : int; nodes : int }
      (** a root-asserting nogood abandoned the dive and the search
          re-entered from the root ([conflicts] analyzed and [learned]
          clauses retained so far) *)
  | Message of string  (** free-form progress line *)

type sink

val file : string -> sink
(** JSONL sink writing one [{"t":seconds,"ev":kind,...}] object per
    line to a fresh file; {!close} closes it. *)

val channel : out_channel -> sink
(** JSONL sink on an existing channel; {!close} flushes but does not
    close it. *)

val stderr_human : unit -> sink
(** Human-readable sink reproducing the solver's historical [verbose]
    stderr lines: prints {!Incumbent} and {!Message} events only. *)

val ring : int -> sink
(** In-memory ring keeping the last [capacity] events (for tests). *)

val emit : sink -> time_s:float -> event -> unit
(** Record [event] at [time_s] seconds since the solve started. *)

val events : sink -> (float * event) list
(** Contents of a {!ring} sink, oldest first.

    @raise Invalid_argument on {!file}, {!channel} and {!stderr_human}
    sinks — their events are gone once written; parse a JSONL trace
    back with {!Replay.of_file}. *)

val jsonl_line : time_s:float -> event -> string
(** The one-line JSON object a {!file}/{!channel} sink writes for
    [event] (no trailing newline).  {!Replay.event_of_line} is its
    inverse. *)

val reason_name : prune_reason -> string
(** Stable lower-case wire name ([cutoff], [probed]) — the [reason]
    field of a JSONL prune line and the key of {!Replay}'s per-reason
    attribution. *)

val json_escape : string -> string
(** JSON string-body escaping used by the JSONL renderer (quotes,
    backslashes, control characters); shared with {!Replay}'s Chrome
    trace exporter. *)

val close : sink -> unit
(** Flush (and for {!file} sinks close) the underlying channel. *)
