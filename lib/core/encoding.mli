(** The paper's ILP formulation (Section 3), built on {!Ilp.Model}.

    One encoding covers a problem instance, a register count and a k-test
    session.  Decision variables:

    - [x_vr], [x_om] — system register assignment and module binding;
    - [swap_o] — the pseudo-input-port permutation of a commutative
      operation (the [s_{l*,l,o}] of Eq. (3), specialized to binary
      operations: [swap = 0] is the identity);
    - [z r m l], [z_out m r], [cz c m l] — interconnections, tied to the
      assignment from below (needed paths) and from above through the
      auxiliary AND variables of Eqs. (1)-(3) (no adverse paths);
    - [s m r p], [t r m l p], [a m p] — SR/TPG/sub-test-session assignment
      (Eqs. (6)-(13), with Eq. (7)/(11)/(12) folded through [a m p]);
    - [tc m l] — dedicated generator of a constant-only port (§3.3.4),
      charged [Datapath.Area.constant_tpg_weight] in the objective;
    - [t_r], [s_r], [b_r], [c_r] and per-session [t_rp], [s_rp], [c_rp] —
      register reconfiguration roles (Eqs. (14)-(23));
    - [u site n] — multiplexer-size thresholds linearizing Table 1(b).

    The objective (§3.4) omits the constant term [208 * R] (plain register
    base cost), exposed as {!base_area}.

    Section 3.5's search-space reduction (pre-assigning a maximum clique of
    incompatible variables to distinct registers, and one max-concurrency
    step's operations to the identical modules of each class) is applied
    when [symmetry] is [true]. *)

type t = private {
  problem : Dfg.Problem.t;
  n_regs : int;
  k : int;
  model : Ilp.Model.t;
  x_vr : int array array;  (** [v].[r] *)
  x_om : int array array;  (** [o].[m]; [-1] when [m] cannot run [o] *)
  swap : int array;  (** [o]; [-1] for non-commutative operations *)
  z : int array array array;  (** [r].[m].[l] *)
  z_out : int array array;  (** [m].[r] *)
  cz : (int * int * int * int) list;  (** (c, m, l, var) *)
  tc : int array array;  (** [m].[l]; [-1] when the port can never see a constant *)
  a : int array array;  (** [m].[p] *)
  s_mrp : int array array array;  (** [m].[r].[p] *)
  t_rmlp : int array array array array;  (** [r].[m].[l].[p] *)
  t_reg : int array;
  s_reg : int array;
  b_reg : int array;
  c_reg : int array;
  t_rp : int array array;
  s_rp : int array array;
  c_rp : int array array;
  mux_thresholds : (Ilp.Linexpr.t * (int * int) list) list;
      (** per mux site: fan-in expression and [(n, u-var)] thresholds *)
  aux : (int * (int * int) list) list;
      (** support (AND) variables with their defining conditions *)
  inp : int array;  (** external-input indicator per register; -1 if none *)
  base_area : int;  (** [208 * n_regs]: add to the model objective value *)
}

val build : ?symmetry:bool -> Dfg.Problem.t -> n_regs:int -> k:int -> t
(** [symmetry] defaults to [true].
    @raise Invalid_argument when [n_regs] is below the minimum register
    count or [k < 1]. *)

val build_reference : ?symmetry:bool -> Dfg.Problem.t -> n_regs:int -> t
(** The non-BIST data-path model ([k = 0]): register assignment, binding and
    interconnect with a multiplexer-area objective.  Solving it yields the
    paper's area-optimal reference circuits (Section 4.1). *)

val branch_order : t -> int list
(** Decision variables in a good branching order: register assignment,
    module binding, swaps, then session structure. *)

val objective_lower_bound : t -> int
(** A structural (combinatorial) lower bound on the model objective, on the
    same scale as {!Ilp.Model.objective_value} (add {!base_area} for the
    design-area scale).  Valid for every feasible solution of the encoding;
    computed from counts the formulation forces outright — SR registers
    (Eqs. 7-8: at least [ceil n_mod/k]), TPG registers (Eqs. 10 and 13: at
    least the maximum port count), BILBO/CBILBO upgrades when those roles
    must share registers (refined per-session: a merge forced inside one
    sub-test session is concurrent and must be a CBILBO, Eq. 21, at every
    k — only the surplus beyond the session-concurrent need may settle
    for the cheaper BILBO, Eq. 17), mux wires forced by
    simultaneously-alive operand/result variables and by distinct constant
    values, and the input wires of primary-input registers — combined with
    an exact DP for the cheapest spread of forced wires over mux sites.
    The LP relaxation of these encodings is near-trivial (it spreads
    thresholds fractionally), so this bound is what makes the reported
    optimality gap meaningful on instances the search cannot close. *)

val decode :
  t -> int array ->
  (Datapath.Netlist.t * Bist.Plan.t option, string) result
(** Rebuilds the data path and BIST plan ([None] for a reference encoding)
    from a solution vector; runs the
    full independent audits ({!Datapath.Netlist.make}, {!Bist.Plan.make})
    and cross-checks that the plan's objective cost equals the model
    objective plus {!base_area} — any mismatch reveals an encoding bug. *)

val vector_of_netlist : t -> Datapath.Netlist.t -> (int array, string) result
(** Solution vector for a reference ([k = 0]) encoding given a concrete data
    path; used to warm-start the reference ILP from a left-edge design. *)

val vector_of_plan : t -> Bist.Plan.t -> (int array, string) result
(** The exact solution vector representing a given plan (used to warm-start
    the solver from a heuristic design).  Sub-test sessions are renumbered
    by first use in module order, so any session labelling of the plan
    satisfies the symmetric encoding's session canonicalization; register
    names are taken as they are.  Fails if the plan does not match the
    encoding's problem, register count or k. *)
