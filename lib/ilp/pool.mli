(** Fixed-size domain pool with a work queue.

    The solve farm behind parallel k-sweeps and {!Solver.solve_parallel}:
    a small set of OCaml 5 domains pulls closures off a shared queue.
    Tasks are plain [unit -> 'a] thunks.

    Results are retrieved with {!await}, which re-raises nothing: worker
    exceptions are captured and returned as [Error].  Await only from the
    submitting domain (typically the main one); workers must not await
    tasks of their own pool. *)

type t
(** A pool of worker domains.  Create once, submit many, {!shutdown}. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs] worker domains (clamped to 64). *)

val jobs : t -> int
(** Number of worker domains actually spawned. *)

type 'a task

val submit : t -> (unit -> 'a) -> 'a task
(** Enqueue a thunk.  The pool never kills a running thunk. *)

val await : 'a task -> ('a, exn) result
(** Block until the task's thunk has returned (or raised). *)

val shutdown : t -> unit
(** Wait for queued tasks to drain, then join all workers.  Idempotent. *)

(** Work-stealing deques for splitting one workload across the pool's
    workers: one LIFO deque per owner.  Owners push and pop at the front
    (depth-first locality); {!Deques.steal} removes from the back of
    another owner's deque (the oldest — and for tree search the largest —
    pending item).  Used by {!Solver.solve_parallel} to spread open
    subtrees of a single hard instance across idle domains. *)
module Deques : sig
  type 'a t

  val create : owners:int -> 'a t
  (** [owners] deques (at least 1). *)

  val owners : 'a t -> int

  val push : 'a t -> owner:int -> 'a -> unit

  val pop : 'a t -> owner:int -> 'a option
  (** Newest element of the owner's own deque. *)

  val steal : 'a t -> thief:int -> ('a * int) option
  (** Oldest element of some other owner's non-empty deque (scanned
      round-robin from [thief + 1]), with the victim's index.  [None] when
      every other deque is empty. *)
end

val default_jobs : unit -> int
(** Parallelism from the environment: [ADVBIST_JOBS] when set and positive,
    else 1 (sequential — the conservative default for reproducibility). *)
