(** Trace replay and search post-mortems.

    {!Trace} writes what happened; this module explains it.  The parser
    is the exact inverse of {!Trace.jsonl_line} (integers are parsed as
    integers — a pruned-empty node's [bound = max_int] round-trips
    bit-exactly), and {!analyze} turns the event stream into
    attribution: which pruning machinery closed the tree and what it
    cost, which branching variables earned their keep, how much of the
    search an oracle incumbent would have skipped, and how the
    primal/dual gap closed over time.

    The wasted-work metric: a node is {e wasted} when the entry bound of
    its parent was already at or above the {e final} incumbent
    objective — with that incumbent known up front, the cutoff test
    would have pruned the parent and the node would never have been
    opened.  [waste_pct] is wasted nodes over opened nodes; it bounds
    the head-room of a better initial incumbent (the ROADMAP's
    heuristic-incumbent item).  The tree shape is replayed from a
    bound-per-depth stack, exact for sequential traces; parallel
    subtree streams interleave through one sink, so there the metric is
    an approximation. *)

val event_of_line : string -> (float * Trace.event, string) result
(** Parse one JSONL trace line; inverse of {!Trace.jsonl_line}. *)

val of_string : string -> ((float * Trace.event) list, string) result
(** Parse a whole JSONL trace; blank lines are skipped, the first
    malformed line fails the parse with its line number. *)

val of_file : string -> ((float * Trace.event) list, string) result
(** {!of_string} on the contents of [path]. *)

type prune_row = {
  reason : Trace.prune_reason;
  count : int;  (** nodes closed for this reason *)
  time_s : float;
      (** wall time attributed to this reason: the sum of inter-event
          gaps that ended in one of its prune events *)
}

type var_row = {
  var : int;  (** variable index *)
  branched : int;  (** children created by branching on it *)
  immediate : int;
      (** of those, closed childless at the very next event — high
          [immediate/branched] means the variable's children die on
          entry: cheap refutations, little search below *)
}

type depth_row = { depth : int; opened : int; cut : int }

type report = {
  events : int;
  duration_s : float;  (** timestamp of the last event *)
  nodes : int;  (** nodes opened ([Node] events) *)
  prunes : prune_row list;  (** descending count; zero-count reasons omitted *)
  pruned_total : int;
  waste_nodes : int;
  waste_pct : float;  (** 100 · waste_nodes / nodes *)
  final_incumbent : int option;
  final_bound : int option;  (** last [Bound] event's value *)
  primal : (float * int) list;  (** incumbent objective over time *)
  dual : (float * int) list;  (** dual bound over time *)
  vars : var_row list;  (** descending [branched] *)
  depths : depth_row list;  (** per-depth expansion/prune profile *)
  subtrees : int;
  steals : int;
  conflicts : int;  (** [Conflict] events (one per analyzed conflict) *)
  learned : int;  (** conflicts whose 1-UIP nogood entered the database *)
  restarts : int;  (** [Restart] events *)
  avg_backjump : float;
      (** mean (conflict depth - asserting level) over asserting nogoods;
          0 when none *)
}

val analyze : (float * Trace.event) list -> report
(** Replay the event stream and compute the attribution above. *)

val prune_shares : report -> (string * float) list
(** [(reason wire name, percent of all pruned nodes)] per non-zero
    reason, descending — sums to 100 when anything was pruned.  This is
    the [prune_shares] field of bench schema v5 rows, which {!Bench}'s
    diff uses to localize node-count regressions. *)

val render_report : Format.formatter -> report -> unit
(** The [ilp_cli explain] / [advbist_cli --explain] terminal report. *)

val chrome_of_events :
  ?phases:(string * float) list -> (float * Trace.event) list -> string
(** Chrome trace-event JSON (load in [chrome://tracing] or Perfetto):
    [phases] (name, seconds — e.g. {!Stats.phases}) become stacked "X"
    spans; search events become instants and counter tracks (node
    count sampled every 64 nodes, incumbent and dual bound on every
    change; steals on per-thief rows). *)
