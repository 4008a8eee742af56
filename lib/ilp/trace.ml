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
  | Conflict of { depth : int; level : int; lbd : int; size : int; nodes : int }
  | Restart of { conflicts : int; learned : int; nodes : int }
  | Message of string

type impl =
  | Jsonl of { oc : out_channel; owned : bool }
  | Human of out_channel
  | Ring of { cap : int; q : (float * event) Queue.t }

type sink = { lock : Mutex.t; impl : impl }

let make impl = { lock = Mutex.create (); impl }
let channel oc = make (Jsonl { oc; owned = false })
let file path = make (Jsonl { oc = open_out path; owned = true })
let stderr_human () = make (Human stderr)
let ring cap = make (Ring { cap = max 1 cap; q = Queue.create () })

let reason_name = function
  | Cutoff -> "cutoff"
  | Probed -> "probed"

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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
  | Conflict { depth; level; lbd; size; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"conflict\",\"depth\":%d,\"level\":%d,\"lbd\":%d,\"size\":%d,\"nodes\":%d}"
        time_s depth level lbd size nodes
  | Restart { conflicts; learned; nodes } ->
      Printf.sprintf
        "{\"t\":%.6f,\"ev\":\"restart\",\"conflicts\":%d,\"learned\":%d,\"nodes\":%d}"
        time_s conflicts learned nodes
  | Message m ->
      Printf.sprintf "{\"t\":%.6f,\"ev\":\"message\",\"text\":\"%s\"}" time_s
        (json_escape m)

let write_jsonl oc time_s ev =
  output_string oc (jsonl_line ~time_s ev);
  output_char oc '\n'

(* The human sink reproduces the solver's historical [verbose] stderr
   lines: incumbents and summary messages only — node/prune streams
   belong in a JSONL trace, not on a terminal. *)
let write_human oc time_s ev =
  match ev with
  | Incumbent { objective; nodes } ->
      Printf.fprintf oc "[ilp] incumbent %d after %d nodes (%.2fs)\n%!"
        objective nodes time_s
  | Message m -> Printf.fprintf oc "[ilp] %s\n%!" m
  | Node _ | Prune _ | Bound _ | Subtree _ | Steal _ | Conflict _
  | Restart _ ->
      ()

let emit sink ~time_s ev =
  Mutex.lock sink.lock;
  (match sink.impl with
  | Jsonl { oc; _ } -> write_jsonl oc time_s ev
  | Human oc -> write_human oc time_s ev
  | Ring { cap; q } ->
      Queue.add (time_s, ev) q;
      while Queue.length q > cap do
        ignore (Queue.take q)
      done);
  Mutex.unlock sink.lock

let events sink =
  Mutex.lock sink.lock;
  let evs =
    match sink.impl with
    | Ring { q; _ } -> List.of_seq (Queue.to_seq q)
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
  | Jsonl { oc; owned } -> if owned then close_out oc else flush oc
  | Human oc -> flush oc
  | Ring _ -> ());
  Mutex.unlock sink.lock
