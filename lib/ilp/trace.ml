(* Structured search-event sink.  The solver emits typed events behind a
   [Trace.sink option] stored in its options: the disabled path is one
   branch per site, and the event payload is only allocated inside the
   [Some] arm.  Sinks serialize their writes with a mutex so parallel
   workers can share one sink (JSONL lines stay whole, the ring stays
   consistent). *)

type prune_reason = Cutoff | Probed

type event =
  | Node of { depth : int; nodes : int; var : int; value : int; bound : int }
  | Prune of { depth : int; reason : prune_reason; bound : int; nodes : int }
  | Bound of { bound : int; nodes : int }
  | Incumbent of { objective : int; nodes : int }
  | Subtree of { id : int; depth : int }
  | Steal of { thief : int; victim : int }
  | Conflict of {
      depth : int;
      level : int;
      lbd : int;
      size : int;
      stored : bool;
      nodes : int;
    }
  | Restart of { conflicts : int; learned : int; nodes : int }

type impl =
  | Jsonl of out_channel
  | Human of out_channel
  | Ring of (float * event) Queue.t

type sink = { lock : Mutex.t; impl : impl }

let make impl = { lock = Mutex.create (); impl }
let file path = make (Jsonl (open_out path))
let stderr_human () = make (Human stderr)
let ring () = make (Ring (Queue.create ()))

let reason_name = function
  | Cutoff -> "cutoff"
  | Probed -> "probed"

(* One event, one line: {"t":<seconds>,"ev":"<kind>",...}.  Bounds are
   printed as exact integers (a pruned-empty node carries [max_int],
   which no float path could round-trip); {!Replay.event_of_line} is the
   inverse of this renderer. *)
let jsonl_line ~time_s ev =
  match ev with
  | Node { depth; nodes; var; value; bound } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"node\",\"depth\":%d,\"nodes\":%d,\"var\":%d,\"value\":%d,\"bound\":%d}"
        time_s depth nodes var value bound
  | Prune { depth; reason; bound; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"prune\",\"depth\":%d,\"reason\":\"%s\",\"bound\":%d,\"nodes\":%d}"
        time_s depth (reason_name reason) bound nodes
  | Bound { bound; nodes } ->
      Printf.sprintf "{\"t\":%.6f,\"ev\":\"bound\",\"bound\":%d,\"nodes\":%d}"
        time_s bound nodes
  | Incumbent { objective; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"incumbent\",\"objective\":%d,\"nodes\":%d}"
        time_s objective nodes
  | Subtree { id; depth } ->
      Printf.sprintf "{\"t\":%.6f,\"ev\":\"subtree\",\"id\":%d,\"depth\":%d}"
        time_s id depth
  | Steal { thief; victim } ->
      Printf.sprintf "{\"t\":%.6f,\"ev\":\"steal\",\"thief\":%d,\"victim\":%d}"
        time_s thief victim
  | Conflict { depth; level; lbd; size; stored; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"conflict\",\"depth\":%d,\"level\":%d,\"lbd\":%d,\"size\":%d,\"stored\":%b,\"nodes\":%d}"
        time_s depth level lbd size stored nodes
  | Restart { conflicts; learned; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"restart\",\"conflicts\":%d,\"learned\":%d,\"nodes\":%d}"
        time_s conflicts learned nodes

let write_jsonl oc time_s ev =
  output_string oc (jsonl_line ~time_s ev);
  output_char oc '\n'

(* The human sink prints incumbents only — node/prune streams belong in
   a JSONL trace, not on a terminal. *)
let write_human oc time_s ev =
  match ev with
  | Incumbent { objective; nodes } ->
      Printf.fprintf oc "[ilp] incumbent %d after %d nodes (%.2fs)\n%!"
        objective nodes time_s
  | Node _ | Prune _ | Bound _ | Subtree _ | Steal _ | Conflict _
  | Restart _ ->
      ()

let emit sink ~time_s ev =
  Mutex.lock sink.lock;
  (match sink.impl with
  | Jsonl oc -> write_jsonl oc time_s ev
  | Human oc -> write_human oc time_s ev
  | Ring q -> Queue.add (time_s, ev) q);
  Mutex.unlock sink.lock

let events sink =
  Mutex.lock sink.lock;
  let evs =
    match sink.impl with
    | Ring q -> List.of_seq (Queue.to_seq q)
    | Jsonl _ | Human _ ->
        Mutex.unlock sink.lock;
        invalid_arg
          "Trace.events: not a ring sink (replay a JSONL trace with \
           Replay.of_file instead)"
  in
  Mutex.unlock sink.lock;
  evs

let close sink =
  Mutex.lock sink.lock;
  (match sink.impl with
  | Jsonl oc -> close_out oc
  | Human oc -> flush oc
  | Ring _ -> ());
  Mutex.unlock sink.lock
