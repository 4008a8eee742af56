(** Parallelism helpers for the subtree search of {!Solver.solve}:
    per-worker work-stealing deques and the default worker count. *)

(** Work-stealing deques for splitting one workload across worker
    domains: one LIFO deque per owner.  Owners push and pop at the front
    (depth-first locality); {!Deques.steal} removes from the back of
    another owner's deque (the oldest — and for tree search the largest —
    pending item).  Used by {!Solver.solve} with [jobs >= 2] to spread
    open subtrees of a single hard instance across idle domains. *)
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
