(** Sparse linear expressions with integer coefficients.

    All models produced in this repository are integral (the objective counts
    transistors), so coefficients are [int]; this keeps constraint
    propagation exact. *)

type t

val zero : t
val term : int -> int -> t
(** [term c v] is the single-term expression [c * x_v]. *)

val var : int -> t
(** [var v] = [term 1 v]. *)

val of_list : (int * int) list -> t
(** [(coef, var)] pairs; repeated variables are summed, zero coefficients
    dropped. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val sum : t list -> t

val terms : t -> (int * int) list
(** [(coef, var)] pairs with non-zero coefficients, sorted by variable: a
    fresh list (an expression is stored packed, two words a term); {!iter}
    and {!fold} walk the terms without one. *)

val coef : t -> int -> int
(** Coefficient of a variable (0 if absent). *)

val n_terms : t -> int
val is_zero : t -> bool

val iter : (coef:int -> var:int -> unit) -> t -> unit
val fold : (coef:int -> var:int -> 'a -> 'a) -> t -> 'a -> 'a

val pp : ?name:(int -> string) -> unit -> Format.formatter -> t -> unit
(** e.g. ["3 x1 - 2 x4"]. *)
