(* Fixed-size domain pool.  One mutex/condition pair guards the queue; a
   second condition broadcasts task completions so [await] can sleep.  All
   task state transitions happen under the pool lock, so workers and the
   submitting domain never race on a task record. *)

type 'a state = Pending | Done of 'a | Failed of exn

type packed = Job : 'a task -> packed

and 'a task = {
  pool : t;
  thunk : unit -> 'a;
  mutable state : 'a state;
}

and t = {
  lock : Mutex.t;
  work_cv : Condition.t;  (* queue non-empty, or shutting down *)
  done_cv : Condition.t;  (* some task settled *)
  queue : packed Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  n_jobs : int;
}

let jobs t = t.n_jobs

let run_job (Job task) =
  let result = try Done (task.thunk ()) with e -> Failed e in
  Mutex.lock task.pool.lock;
  task.state <- result;
  Condition.broadcast task.pool.done_cv;
  Mutex.unlock task.pool.lock

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_cv t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping: exit *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    run_job job;
    worker_loop t
  end

let create ~jobs =
  let n_jobs = max 1 (min jobs 64) in
  let t =
    {
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      n_jobs;
    }
  in
  t.workers <- List.init n_jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t thunk =
  let task = { pool = t; thunk; state = Pending } in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Ilp.Pool.submit: pool is shut down"
  end;
  Queue.push (Job task) t.queue;
  Condition.signal t.work_cv;
  Mutex.unlock t.lock;
  task

let await task =
  let t = task.pool in
  Mutex.lock t.lock;
  while (match task.state with Pending -> true | Done _ | Failed _ -> false) do
    Condition.wait t.done_cv t.lock
  done;
  let r = task.state in
  Mutex.unlock t.lock;
  match r with
  | Done v -> Ok v
  | Failed e -> Error e
  | Pending -> assert false

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

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
