(* Trace replay and search post-mortems.

   [event_of_line] is the exact inverse of [Trace.jsonl_line]: a scanner
   over the one-object-per-line JSON the file sink writes.  It
   parses integers with [int_of_string] — never through a float — so a
   pruned-empty node's [bound = max_int] round-trips bit-exactly.  On
   top of the parsed stream, [analyze] replays the tree shape (a
   bound-per-depth stack) and computes the attribution the raw trace
   only implies: nodes and wall time per prune reason, per-variable
   branching efficacy, wasted work against the final
   incumbent, gap-closure curves and per-depth profiles. *)

(* --- line parser -------------------------------------------------------- *)

let index_of_sub s sub =
  let n = String.length s and m = String.length sub in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i + m <= n do
    if String.sub s !i m = sub then found := !i else incr i
  done;
  if !found < 0 then None else Some (!found + m)

(* Position just past ["key":] — keys never appear inside other values
   (no event carries a free-form string), so a plain substring search is
   exact on renderer output. *)
let value_pos line key = index_of_sub line ("\"" ^ key ^ "\":")

let scan_number line p =
  let n = String.length line in
  let q = ref p in
  while
    !q < n
    &&
    match line.[!q] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    incr q
  done;
  if !q = p then None else Some (String.sub line p (!q - p))

(* String values are event kinds and prune reasons, plain lower-case
   words: a value runs to the next quote, and no escapes occur. *)
let scan_string line p =
  if p >= String.length line || line.[p] <> '"' then None
  else
    Option.map
      (fun q -> String.sub line (p + 1) (q - p - 1))
      (String.index_from_opt line (p + 1) '"')

let int_field line key =
  match value_pos line key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some p -> (
      match scan_number line p with
      | None -> Error (Printf.sprintf "field %S is not a number" key)
      | Some raw -> (
          match int_of_string_opt raw with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "field %S is not an integer" key)))

let float_field line key =
  match value_pos line key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some p -> (
      match scan_number line p with
      | None -> Error (Printf.sprintf "field %S is not a number" key)
      | Some raw -> (
          match float_of_string_opt raw with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "field %S is not a float" key)))

let string_field line key =
  match value_pos line key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some p -> (
      match scan_string line p with
      | None -> Error (Printf.sprintf "field %S is not a string" key)
      | Some s -> Ok s)

let bool_field line key =
  match value_pos line key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some p ->
      let has w =
        p + String.length w <= String.length line
        && String.sub line p (String.length w) = w
      in
      if has "true" then Ok true
      else if has "false" then Ok false
      else Error (Printf.sprintf "field %S is not a boolean" key)

let reason_of_name = function
  | "cutoff" -> Ok Trace.Cutoff
  | "probed" -> Ok Trace.Probed
  | r -> Error (Printf.sprintf "unknown prune reason %S" r)

let ( let* ) = Result.bind

let event_of_line line =
  let* t = float_field line "t" in
  let* ev = string_field line "ev" in
  let* event =
    match ev with
    | "node" ->
        let* depth = int_field line "depth" in
        let* nodes = int_field line "nodes" in
        let* var = int_field line "var" in
        let* value = int_field line "value" in
        let* bound = int_field line "bound" in
        Ok (Trace.Node { depth; nodes; var; value; bound })
    | "prune" ->
        let* depth = int_field line "depth" in
        let* reason = Result.bind (string_field line "reason") reason_of_name in
        let* bound = int_field line "bound" in
        let* nodes = int_field line "nodes" in
        Ok (Trace.Prune { depth; reason; bound; nodes })
    | "bound" ->
        let* bound = int_field line "bound" in
        let* nodes = int_field line "nodes" in
        Ok (Trace.Bound { bound; nodes })
    | "incumbent" ->
        let* objective = int_field line "objective" in
        let* nodes = int_field line "nodes" in
        Ok (Trace.Incumbent { objective; nodes })
    | "subtree" ->
        let* id = int_field line "id" in
        let* depth = int_field line "depth" in
        Ok (Trace.Subtree { id; depth })
    | "steal" ->
        let* thief = int_field line "thief" in
        let* victim = int_field line "victim" in
        Ok (Trace.Steal { thief; victim })
    | "conflict" ->
        let* depth = int_field line "depth" in
        let* level = int_field line "level" in
        let* lbd = int_field line "lbd" in
        let* size = int_field line "size" in
        let* stored = bool_field line "stored" in
        let* nodes = int_field line "nodes" in
        Ok (Trace.Conflict { depth; level; lbd; size; stored; nodes })
    | "restart" ->
        let* conflicts = int_field line "conflicts" in
        let* learned = int_field line "learned" in
        let* nodes = int_field line "nodes" in
        Ok (Trace.Restart { conflicts; learned; nodes })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok (t, event)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        if String.trim l = "" then go acc (lineno + 1) rest
        else (
          match event_of_line l with
          | Ok te -> go (te :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error e -> Error e

(* --- analytics ---------------------------------------------------------- *)

type prune_row = {
  reason : Trace.prune_reason;
  count : int;
  time_s : float;  (** wall time of the inter-event gaps ending in this
                       reason's prune events *)
}

type var_row = { var : int; branched : int; immediate : int }
type depth_row = { depth : int; opened : int; cut : int }

type report = {
  events : int;
  duration_s : float;
  nodes : int;
  prunes : prune_row list;  (** descending count; reasons with 0 omitted *)
  pruned_total : int;
  waste_nodes : int;
  waste_pct : float;
  final_incumbent : int option;
  final_bound : int option;
  primal : (float * int) list;
  dual : (float * int) list;
  vars : var_row list;  (** descending [branched] *)
  depths : depth_row list;
  subtrees : int;
  steals : int;
  conflicts : int;
  learned : int;  (** conflicts whose 1-UIP nogood entered the database *)
  restarts : int;
  avg_backjump : float;
      (** mean (conflict depth - asserting level) over asserting nogoods *)
}

let grow a n default =
  let len = Array.length !a in
  if n >= len then begin
    let b = Array.make (max (n + 1) (2 * len)) default in
    Array.blit !a 0 b 0 len;
    a := b
  end

let analyze events =
  let n_events = List.length events in
  let duration_s =
    List.fold_left (fun acc (t, _) -> max acc t) 0.0 events
  in
  let final_incumbent =
    List.fold_left
      (fun acc (_, ev) ->
        match ev with
        | Trace.Incumbent { objective; _ } -> Some objective
        | _ -> acc)
      None events
  in
  let nodes = ref 0 and pruned_total = ref 0 in
  let reason_count = Array.make 2 0 and reason_time = Array.make 2 0.0 in
  let reason_ix = function Trace.Cutoff -> 0 | Trace.Probed -> 1 in
  (* Tree replay: [bound_at.(d)] is the entry bound of the most recently
     opened node at depth [d] — under the emission order of one worker's
     depth-first search, the parent of a depth-d node.  Exact for
     sequential traces; parallel subtree streams interleave through one
     sink, so waste is a (slight) approximation there. *)
  let bound_at = ref (Array.make 64 max_int) in
  let var_at = ref (Array.make 64 (-1)) in
  let waste = ref 0 in
  let branched = Hashtbl.create 64 and immediate = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let opened_at = ref (Array.make 64 0) and cut_at = ref (Array.make 64 0) in
  let primal = ref [] and dual = ref [] in
  let last_t = ref 0.0 in
  let last_node_depth = ref (-1) in
  let subtrees = ref 0 and steals = ref 0 in
  let conflicts = ref 0 and learned = ref 0 and restarts = ref 0 in
  let backjump_sum = ref 0 and backjump_n = ref 0 in
  List.iter
    (fun (t, ev) ->
      let dt = max 0.0 (t -. !last_t) in
      last_t := t;
      (match ev with
      | Trace.Node { depth; var; bound; _ } ->
          incr nodes;
          grow opened_at depth 0;
          !opened_at.(depth) <- !opened_at.(depth) + 1;
          grow bound_at depth max_int;
          grow var_at depth (-1);
          !bound_at.(depth) <- bound;
          !var_at.(depth) <- var;
          if var >= 0 then bump branched var;
          (match final_incumbent with
          | Some obj
            when depth > 0
                 && !bound_at.(depth - 1) < max_int
                 && !bound_at.(depth - 1) >= obj ->
              incr waste
          | Some _ | None -> ());
          last_node_depth := depth
      | Trace.Prune { depth; reason; _ } ->
          incr pruned_total;
          let i = reason_ix reason in
          reason_count.(i) <- reason_count.(i) + 1;
          reason_time.(i) <- reason_time.(i) +. dt;
          grow cut_at depth 0;
          !cut_at.(depth) <- !cut_at.(depth) + 1;
          (* a prune at the depth of the last opened node closes that
             node childless: charge its branching variable *)
          if
            depth = !last_node_depth
            && depth < Array.length !var_at
            && !var_at.(depth) >= 0
          then bump immediate !var_at.(depth);
          last_node_depth := -1
      | Trace.Bound { bound; _ } -> dual := (t, bound) :: !dual
      | Trace.Incumbent { objective; _ } -> primal := (t, objective) :: !primal
      | Trace.Subtree _ -> incr subtrees
      | Trace.Steal _ -> incr steals
      | Trace.Conflict { depth; level; stored; _ } ->
          incr conflicts;
          if stored then incr learned;
          if level >= 0 then begin
            backjump_sum := !backjump_sum + (depth - level);
            incr backjump_n
          end
      | Trace.Restart _ -> incr restarts))
    events;
  let prunes =
    List.filter
      (fun r -> r.count > 0)
      (List.map
         (fun reason ->
           let i = reason_ix reason in
           { reason; count = reason_count.(i); time_s = reason_time.(i) })
         [ Trace.Cutoff; Trace.Probed ])
  in
  let prunes =
    List.sort (fun a b -> compare (b.count, a.reason) (a.count, b.reason)) prunes
  in
  let rows_of tbl_b tbl_i =
    Hashtbl.fold
      (fun var branched acc ->
        {
          var;
          branched;
          immediate = Option.value ~default:0 (Hashtbl.find_opt tbl_i var);
        }
        :: acc)
      tbl_b []
  in
  let by_branched a b = compare (b.branched, a.var) (a.branched, b.var) in
  let vars = List.sort by_branched (rows_of branched immediate) in
  let depths =
    let n = max (Array.length !opened_at) (Array.length !cut_at) in
    let get a d = if d < Array.length !a then !a.(d) else 0 in
    List.filter
      (fun r -> r.opened > 0 || r.cut > 0)
      (List.init n (fun depth ->
           { depth; opened = get opened_at depth; cut = get cut_at depth }))
  in
  {
    events = n_events;
    duration_s;
    nodes = !nodes;
    prunes;
    pruned_total = !pruned_total;
    waste_nodes = !waste;
    waste_pct =
      (if !nodes = 0 then 0.0
       else 100.0 *. float_of_int !waste /. float_of_int !nodes);
    final_incumbent;
    final_bound =
      (match !dual with [] -> None | (_, b) :: _ -> Some b);
    primal = List.rev !primal;
    dual = List.rev !dual;
    vars;
    depths;
    subtrees = !subtrees;
    steals = !steals;
    conflicts = !conflicts;
    learned = !learned;
    restarts = !restarts;
    avg_backjump =
      (if !backjump_n = 0 then 0.0
       else float_of_int !backjump_sum /. float_of_int !backjump_n);
  }

let prune_shares r =
  List.map
    (fun row ->
      ( Trace.reason_name row.reason,
        if r.pruned_total = 0 then 0.0
        else 100.0 *. float_of_int row.count /. float_of_int r.pruned_total ))
    r.prunes

(* --- terminal report ---------------------------------------------------- *)

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let render_report ppf r =
  let open Format in
  fprintf ppf "search post-mortem: %d events over %.3f s@." r.events
    r.duration_s;
  fprintf ppf "  nodes opened   %d@." r.nodes;
  fprintf ppf "  nodes pruned   %d (%.1f%% of opened)@." r.pruned_total
    (pct r.pruned_total r.nodes);
  List.iter
    (fun row ->
      fprintf ppf "    %-14s %8d  %5.1f%%  %8.3f s@."
        (Trace.reason_name row.reason)
        row.count
        (pct row.count r.pruned_total)
        row.time_s)
    r.prunes;
  fprintf ppf
    "  wasted work    %d nodes (%.1f%%) opened under a parent bound at or \
     above the final incumbent@."
    r.waste_nodes r.waste_pct;
  (match (r.primal, List.rev r.primal) with
  | (t0, o0) :: _, (t1, o1) :: _ ->
      fprintf ppf
        "  primal curve   %d incumbents: %d @@ %.3f s -> %d @@ %.3f s@."
        (List.length r.primal) o0 t0 o1 t1
  | _ -> fprintf ppf "  primal curve   no incumbent@.");
  (match (r.dual, List.rev r.dual) with
  | (t0, b0) :: _, (t1, b1) :: _ ->
      fprintf ppf
        "  dual curve     %d bound events: %d @@ %.3f s -> %d @@ %.3f s@."
        (List.length r.dual) b0 t0 b1 t1
  | _ -> fprintf ppf "  dual curve     no bound events@.");
  (match (r.final_incumbent, List.rev r.dual) with
  | Some obj, (_, b) :: _ when obj <> 0 ->
      fprintf ppf "  final gap      %.1f%% (incumbent %d vs dual bound %d)@."
        (100.0 *. float_of_int (obj - b) /. float_of_int (abs obj))
        obj b
  | _ -> ());
  if r.depths <> [] then begin
    fprintf ppf "  depth profile  (depth: opened/pruned)@.";
    fprintf ppf "   ";
    List.iter
      (fun d -> fprintf ppf " %d:%d/%d" d.depth d.opened d.cut)
      r.depths;
    fprintf ppf "@."
  end;
  let show_rows label rows =
    if rows <> [] then begin
      fprintf ppf "  %s (branched, childless):@." label;
      List.iteri
        (fun i row ->
          if i < 8 then
            fprintf ppf "    #%-10d %8d %8d@." row.var row.branched
              row.immediate)
        rows
    end
  in
  show_rows "branching efficacy, top variables" r.vars;
  if r.subtrees > 0 || r.steals > 0 then
    fprintf ppf "  parallel       %d subtrees spawned, %d steals@." r.subtrees
      r.steals;
  if r.conflicts > 0 || r.restarts > 0 then
    fprintf ppf
      "  conflicts      %d analyzed, %d learned, %d restarts, avg backjump \
       %.1f@."
      r.conflicts r.learned r.restarts r.avg_backjump

(* --- Chrome trace-event export ------------------------------------------ *)

(* JSON string-body escaping for the caller-supplied phase names. *)
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


(* The chrome://tracing / Perfetto JSON array format: "X" complete spans
   for the solve phases, instants for the discrete search events,
   counter tracks for the primal/dual bounds and the node count.  Times
   are microseconds. *)
let chrome_of_events ?(phases = []) events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let obj fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf s)
      fmt
  in
  let us t = t *. 1e6 in
  (* phase timers as stacked spans on their own track *)
  let t0 = ref 0.0 in
  List.iter
    (fun (name, dur_s) ->
      if dur_s > 0.0 then begin
        obj
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"dur\":%.1f}"
          (json_escape name) (us !t0) (us dur_s);
        t0 := !t0 +. dur_s
      end)
    phases;
  let nodes = ref 0 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Trace.Node _ ->
          incr nodes;
          (* sampled counter: every 64th node keeps big traces loadable *)
          if !nodes land 63 = 0 then
            obj
              "{\"name\":\"nodes\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"nodes\":%d}}"
              (us t) !nodes
      | Trace.Prune { reason; depth; _ } ->
          if !nodes land 63 = 0 then
            obj
              "{\"name\":\"prune %s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"depth\":%d}}"
              (Trace.reason_name reason) (us t) depth
      | Trace.Bound { bound; _ } ->
          obj
            "{\"name\":\"dual bound\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"bound\":%d}}"
            (us t) bound
      | Trace.Incumbent { objective; _ } ->
          obj
            "{\"name\":\"incumbent\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"objective\":%d}}"
            (us t) objective
      | Trace.Subtree { id; depth } ->
          obj
            "{\"name\":\"subtree %d\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"args\":{\"depth\":%d}}"
            id (us t) depth
      | Trace.Steal { thief; victim } ->
          obj
            "{\"name\":\"steal\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"args\":{\"victim\":%d}}"
            (2 + thief) (us t) victim
      | Trace.Conflict { depth; lbd; _ } ->
          if !nodes land 63 = 0 then
            obj
              "{\"name\":\"conflict\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"depth\":%d,\"lbd\":%d}}"
              (us t) depth lbd
      | Trace.Restart { conflicts; learned; _ } ->
          obj
            "{\"name\":\"restart\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":0,\"ts\":%.1f,\"args\":{\"conflicts\":%d,\"learned\":%d}}"
            (us t) conflicts learned)
    events;
  Buffer.add_string buf "]\n";
  Buffer.contents buf
