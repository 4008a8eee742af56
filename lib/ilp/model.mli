(** Integer linear programming model builder.

    Variables are bounded integers (binaries are the [0,1] special case);
    constraints are linear with integer coefficients; the objective is
    minimized.  The builder is imperative: create, add variables and
    constraints, then hand the model to {!Solver} (or export with
    {!Lp_format}).

    Names are produced only when something asks for one: a model keeps
    each name's source, never its text, so building one formats nothing.
    The text appears in {!var_name}, {!constr_name}, {!check}'s messages
    and {!Lp_format}'s export. *)

type t
type var = int

type sense = Le | Ge | Eq

type name = Format.formatter -> unit
(** A deferred name: the printer runs each time the text is needed. *)

type constr = {
  label : name option;  (** [None] for an unnamed row; see {!constr_name} *)
  expr : Linexpr.t;
  sense : sense;
  rhs : int;
}

val create : ?name:string -> unit -> t
val name : t -> string

val copy : t -> t
(** An independent model: constraints/objective added to either side later
    are not visible from the other.  O(1) — the shared tails are
    persistent. *)

(** {1 Variables} *)

val bool_var : t -> string -> var
val int_var : t -> lb:int -> ub:int -> string -> var
(** Requires [lb <= ub]; raises [Invalid_argument] otherwise. *)

val var : t -> lb:int -> ub:int -> name -> var
(** {!int_var} with a deferred name, e.g.
    [var m ~lb:0 ~ub:1 (fun f -> Format.fprintf f "x_v%d_r%d" v r)]:
    the closure is stored, and the name is formatted only when read. *)

val n_vars : t -> int
val var_name : t -> var -> string
(** Formats a deferred name on every call. *)

val bounds : t -> var -> int * int
val is_binary : t -> var -> bool

val lower_bounds : t -> int array
val upper_bounds : t -> int array
(** The whole bound vectors as fresh arrays (one entry per variable, index
    order).  Callers may mutate them freely — {!Solver} uses them directly
    as its branch-and-bound domain store. *)

val with_bounds : t -> name:string -> lb:int array -> ub:int array -> t
(** A model over the same variables, their names shared unformatted, with
    bounds [lb]/[ub] (one entry per variable), the same objective and no
    constraints.  Raises [Invalid_argument] on a length mismatch; bounds
    with [lb > ub] are kept as given (an infeasible model). *)

(** {1 Constraints} *)

val add : t -> ?name:name -> Linexpr.t -> sense -> int -> unit
val add_le : t -> ?name:name -> Linexpr.t -> int -> unit
val add_ge : t -> ?name:name -> Linexpr.t -> int -> unit
val add_eq : t -> ?name:name -> Linexpr.t -> int -> unit

val n_constraints : t -> int
val constraints : t -> constr array
(** In insertion order. The array is fresh; mutation is harmless. *)

val constr_name : int -> constr -> string
(** [constr_name i c] is the text of the name of [c], the row at index [i]
    of {!constraints}: its own name, or [c<i>] for an unnamed row. *)

(** {1 Objective} *)

val set_objective : t -> Linexpr.t -> unit
(** Minimization objective. Replaces any previous objective. *)

val objective : t -> Linexpr.t

(** {1 Evaluation} *)

val eval_expr : Linexpr.t -> int array -> int
val check : t -> int array -> (unit, string list) result
(** Verifies a full assignment against bounds and all constraints; the error
    list names each violation.  This is the independent audit used by the
    test-suite on every solver result. *)

val objective_value : t -> int array -> int

val stats : t -> string
(** One-line summary: variables (binary/integer), constraints, non-zeros. *)
