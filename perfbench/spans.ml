(* In-memory spans of the traced pass, recorded by the benchmark's own
   code around its calls into each layer.  A layer's self time is its
   span's duration minus the durations of its child spans. *)

type span = { id : int; name : string; parent : int option; dur_s : float }
type t = { mutable next : int; mutable spans : span list (* newest first *) }

let create () = { next = 0; spans = [] }

let add t ?parent name dur_s =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; dur_s } :: t.spans;
  id

let time t ?parent name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, add t ?parent name (Unix.gettimeofday () -. t0))

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.dur_s else acc)
    0.0 t.spans

(* [(name, count, total_s, self_s)] per span name, in first-recorded
   order. *)
let summary t =
  let find tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let covered = Hashtbl.create 64 and agg = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.replace covered p (find covered p +. s.dur_s))
        s.parent)
    t.spans;
  let order = ref [] in
  List.iter
    (fun s ->
      let self = s.dur_s -. find covered s.id in
      match Hashtbl.find_opt agg s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace agg s.name (1, s.dur_s, self)
      | Some (n, tot, slf) ->
          Hashtbl.replace agg s.name (n + 1, tot +. s.dur_s, slf +. self))
    (List.rev t.spans);
  List.rev_map
    (fun name ->
      let n, tot, slf = Hashtbl.find agg name in
      (name, n, tot, slf))
    !order
