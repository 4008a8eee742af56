(** A complete BIST design: a data path plus a k-test-session plan.

    This is the common output representation of every synthesis method in
    this repository (the ILP engines and the three baselines).  The plan
    fixes, for a k-test session:

    - which sub-test session [0 .. k-1] tests each module (Eq. 7),
    - the signature register of each module (Eqs. 6-8),
    - the TPG register of each module input port (Eqs. 9-13), where [-1]
      denotes the dedicated generator of a constant-only port (§3.3.4).

    From those the register reconfigurations (TPG / SR / BILBO / CBILBO,
    Eqs. 14-23) and the area (§3.4) are derived. *)

type t = private {
  netlist : Datapath.Netlist.t;
  k : int;  (** number of sub-test sessions *)
  session_of_module : int array;
  sr_of_module : int array;
  tpg_of_port : int array array;  (** [m].[l]; [-1] = dedicated constant TPG *)
}

val make :
  Datapath.Netlist.t -> k:int -> session_of_module:int array ->
  sr_of_module:int array -> tpg_of_port:int array array ->
  (t, string) result
(** Validates the full rule set:
    - sessions within [0, k) (empty sub-sessions are legal: a k-session
      plan may effectively use fewer sessions);
    - SR wired from its module (Eq. 6) and not shared within a session
      (Eq. 8);
    - each TPG wired to its port (Eq. 9);
    - no TPG shared between two ports of the same module (Eq. 13);
    - a port gets a dedicated generator iff it is constant-only (§3.3.4 and
      the no-extra-paths constraint). *)

val make_exn :
  Datapath.Netlist.t -> k:int -> session_of_module:int array ->
  sr_of_module:int array -> tpg_of_port:int array array -> t

(** {1 Derived register roles (Eqs. 14-23)} *)

val reg_kind : t -> int -> Datapath.Area.reg_kind
(** Final reconfiguration of a register: CBILBO when it is TPG and SR in the
    same sub-test session; BILBO when both roles occur but never together;
    TPG / SR for a single role; Plain otherwise. *)

val reg_kinds : t -> Datapath.Area.reg_kind array

val kind_counts : t -> int * int * int * int
(** (TPGs, SRs, BILBOs, CBILBOs) — the T, S, B, C columns of Table 3. *)

val n_constant_tpgs : t -> int
(** Dedicated generators for constant-only ports ([N_tc] of §3.4). *)

(** {1 Area (§3.4)} *)

val area : t -> int
(** Reported hardware area: registers at their Table 1(a) reconfiguration
    cost + multiplexers + {!Datapath.Area.constant_tpg} per dedicated
    generator. *)

val objective_cost : t -> int
(** The ILP objective value: same as {!area} but constant-only ports charged
    {!Datapath.Area.constant_tpg_weight} (the steering weight [w_tc]). *)

val overhead_pct : t -> reference:int -> float
(** Percent area overhead with respect to a reference (non-BIST) area:
    [100 * (area t - reference) / max 1 reference].  The one-transistor
    floor keeps the result finite for a zero-area reference (an
    operation-free DFG): 0 when the plan's area is 0 too. *)

val modules_in_session : t -> int -> int list

val pp : Format.formatter -> t -> unit
