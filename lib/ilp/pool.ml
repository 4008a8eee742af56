(* Work-stealing deques: one LIFO deque per owner, each guarded by its own
   mutex.  Owners push and pop at the front (newest first — depth-first
   locality); thieves take from the back (oldest first — the largest
   unexplored subtrees, minimizing steal traffic).  Deques here hold a few
   dozen subtree descriptors, so the O(length) back-removal of the list
   representation is irrelevant next to the mutex handshake. *)
module Deques = struct
  type 'a t = {
    locks : Mutex.t array;
    items : 'a list ref array;  (* front = newest *)
    owners : int;
  }

  let create ~owners =
    let owners = max 1 owners in
    {
      locks = Array.init owners (fun _ -> Mutex.create ());
      items = Array.init owners (fun _ -> ref []);
      owners;
    }

  let owners t = t.owners

  let push t ~owner x =
    Mutex.lock t.locks.(owner);
    t.items.(owner) := x :: !(t.items.(owner));
    Mutex.unlock t.locks.(owner)

  let pop t ~owner =
    Mutex.lock t.locks.(owner);
    let r =
      match !(t.items.(owner)) with
      | [] -> None
      | x :: rest ->
          t.items.(owner) := rest;
          Some x
    in
    Mutex.unlock t.locks.(owner);
    r

  (* Remove the back (oldest) element of one victim's deque. *)
  let steal_from t victim =
    Mutex.lock t.locks.(victim);
    let r =
      match !(t.items.(victim)) with
      | [] -> None
      | [ x ] ->
          t.items.(victim) := [];
          Some x
      | items ->
          let rec split acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: rest -> split (x :: acc) rest
            | [] -> assert false
          in
          let front, last = split [] items in
          t.items.(victim) := front;
          Some last
    in
    Mutex.unlock t.locks.(victim);
    r

  let steal t ~thief =
    let rec scan i =
      if i >= t.owners then None
      else
        let victim = (thief + 1 + i) mod t.owners in
        if victim = thief then scan (i + 1)
        else
          match steal_from t victim with
          | Some x -> Some (x, victim)
          | None -> scan (i + 1)
    in
    scan 0
end

let default_jobs () =
  match
    Option.bind (Sys.getenv_opt "ADVBIST_JOBS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some n when n >= 1 -> min n 64
  | Some _ | None -> 1
