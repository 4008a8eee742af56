(* Failure accounting and the independent re-audit of every design.

   An operation is one [Synth.reference] or [Synth.synthesize] call, or
   one row of a [Synth.sweep].  It fails on an [Error] or exception, a
   failed audit, a wrong optimum or a hit on the safety time guard.  A
   failure is counted and the run goes on: it never aborts the
   benchmark. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; messages = [] }

(* Record one operation with the problems found in it. *)
let record t ~label problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.messages <- (label ^ ": " ^ String.concat "; " problems) :: t.messages
  end

(* Every call runs under this wall-clock guard.  No solve of a workload
   comes near it, so a hit is a failure, not a result. *)
let guard_s = 60.0

(* A proved design must hit the known optimum and no design may beat it.
   A solve without a node budget must prove: it can stop short only on
   the time guard. *)
let design_problems ~circuit ~k ~must_prove ~proved ~time_s area =
  let known =
    match Expected.optimum ~circuit ~k with
    | Some opt when proved && area <> opt ->
        [ Printf.sprintf "proved area %d, known optimum %d" area opt ]
    | Some opt when area < opt ->
        [ Printf.sprintf "area %d below the known optimum %d" area opt ]
    | Some _ | None -> []
  in
  let guard =
    if time_s >= guard_s then [ "safety time guard hit" ]
    else if must_prove && not proved then [ "not proved without a node budget" ]
    else []
  in
  known @ guard

let ( let* ) = Result.bind

let model_check model x =
  Result.map_error (String.concat "; ") (Ilp.Model.check model x)

let same_area ~reported audited =
  if audited = reported then Ok ()
  else Error (Printf.sprintf "re-audited area %d, reported %d" audited reported)

(* Both audits rebuild the design's solution vector in a fresh encoding
   without the symmetry reductions, check it against every row of that
   model, and decode it again: [decode] re-runs the Netlist and Plan
   audits and cross-checks the design cost against the model objective. *)
let audit_reference (p : Dfg.Problem.t) (d : Datapath.Netlist.t) ~area =
  let e =
    Advbist.Encoding.build_reference ~symmetry:false p
      ~n_regs:d.Datapath.Netlist.n_registers
  in
  let* x = Advbist.Encoding.vector_of_netlist e d in
  let* () = model_check e.Advbist.Encoding.model x in
  let* d', _ = Advbist.Encoding.decode e x in
  same_area ~reported:area (Datapath.Netlist.reference_area d')

let audit_plan (p : Dfg.Problem.t) (plan : Bist.Plan.t) ~k ~area =
  let d = plan.Bist.Plan.netlist in
  if plan.Bist.Plan.k <> k then
    Error (Printf.sprintf "plan has %d sessions, asked for %d" plan.Bist.Plan.k k)
  else
    let e =
      Advbist.Encoding.build ~symmetry:false p
        ~n_regs:d.Datapath.Netlist.n_registers ~k
    in
    let* x = Advbist.Encoding.vector_of_plan e plan in
    let* () = model_check e.Advbist.Encoding.model x in
    let* _, decoded = Advbist.Encoding.decode e x in
    match decoded with
    | None -> Error "re-audit decoded no plan"
    | Some plan' -> same_area ~reported:area (Bist.Plan.area plan')

(* An exception from a call is an [Error] of that operation. *)
let guarded f = try f () with e -> Error (Printexc.to_string e)
