type outcome = {
  plan : Bist.Plan.t;
  optimal : bool;
  area : int;
  solve_time : float;
  nodes : int;
  gap_pct : float;
  stolen : int;
  stats : Ilp.Stats.t option;
  explain : Ilp.Replay.report option;
}

type reference = {
  ref_netlist : Datapath.Netlist.t;
  ref_area : int;
  ref_optimal : bool;
  ref_time : float;
  ref_stats : Ilp.Stats.t option;
}

let ( let* ) r f = Result.bind r f

(* Incumbent-vs-bound gap in percent of the incumbent design area; 0 for a
   proven optimum, 100 when no usable bound exists.  The dual bound is the
   better of the solver's search bound and the encoding's structural bound
   ({!Encoding.objective_lower_bound}), both lifted to the design-area
   scale by [base_area] — the provably-constant plain-register part of
   every design's area, which belongs in an area-gap on both sides. *)
let gap_pct ~lower_bound ~base_area ~area (r : Ilp.Solver.outcome) =
  match r.Ilp.Solver.status with
  | Ilp.Solver.Optimal -> 0.0
  | _ ->
      let bound =
        if r.Ilp.Solver.bound > min_int then max r.Ilp.Solver.bound lower_bound
        else lower_bound
      in
      let bound_area = bound + base_area in
      if area <= 0 || bound_area <= 0 then 100.0
      else
        Float.min 100.0
          (Float.max 0.0
             (100.0 *. float_of_int (area - bound_area) /. float_of_int area))

(* Permute a netlist's register names so that the encoding's symmetry
   pre-fixing (max clique member i in register i) is satisfied; without
   this, heuristic warm starts would be rejected under symmetry. *)
let align_to_clique (p : Dfg.Problem.t) (d : Datapath.Netlist.t) =
  let lt = Dfg.Lifetime.compute p.Dfg.Problem.dfg in
  let clique = Dfg.Lifetime.max_clique lt in
  let n = d.Datapath.Netlist.n_registers in
  let perm = Array.make n (-1) in
  List.iteri
    (fun slot v ->
      let r = d.Datapath.Netlist.reg_of_var.(v) in
      if r < n then perm.(r) <- slot)
    clique;
  let used = Array.make n false in
  Array.iter (fun slot -> if slot >= 0 then used.(slot) <- true) perm;
  let next = ref 0 in
  for r = 0 to n - 1 do
    if perm.(r) < 0 then begin
      while !next < n && used.(!next) do
        incr next
      done;
      perm.(r) <- !next;
      used.(!next) <- true
    end
  done;
  let reg_of_var = Array.map (fun r -> perm.(r)) d.Datapath.Netlist.reg_of_var in
  Datapath.Netlist.make ~swapped:d.Datapath.Netlist.swapped p ~reg_of_var
    ~module_of_op:d.Datapath.Netlist.module_of_op

let solver_options ?time_limit ?node_limit ?trace encoding warm =
  {
    Ilp.Solver.default with
    Ilp.Solver.time_limit;
    node_limit;
    trace;
    branch_order = Some (Encoding.branch_order encoding);
    warm_start = warm;
  }

(* Post-mortem capture: when [explain] is set the solve's trace is
   collected in memory and analyzed with {!Ilp.Replay}.  A caller-supplied
   sink still sees every event — the captured stream is replayed into it
   after the solve (content-identical, just not live). *)
let with_explain ~explain ?trace run =
  if not explain then (run trace, None)
  else begin
    let sink = Ilp.Trace.ring () in
    let r = run (Some sink) in
    let events = Ilp.Trace.events sink in
    Option.iter
      (fun s -> List.iter (fun (t, ev) -> Ilp.Trace.emit s ~time_s:t ev) events)
      trace;
    (r, Some (Ilp.Replay.analyze events))
  end

(* Presolve runs here, outside the solver, so its wall clock is stamped
   into the solve's stats record after the fact — the phase table then
   accounts for the whole pipeline, not just the search.  [stats] picks
   whether the caller gets the record. *)
let solve ~jobs ~stats ~presolve_s options model =
  let r = Ilp.Solver.solve ~options ~jobs model in
  let st = r.Ilp.Solver.stats in
  st.Ilp.Stats.presolve_s <- st.Ilp.Stats.presolve_s +. presolve_s;
  (r, if stats then Some st else None)

let reference ?time_limit ?node_limit ?symmetry ?(jobs = 1) ?(stats = false)
    ?trace (p : Dfg.Problem.t) =
  let n_regs = Dfg.Problem.min_registers p in
  let e = Encoding.build_reference ?symmetry p ~n_regs in
  let* d0 = Heuristic.netlist p in
  let* d0 = align_to_clique p d0 in
  let warm = Result.to_option (Encoding.vector_of_netlist e d0) in
  let options = solver_options ?time_limit ?node_limit ?trace e warm in
  (* presolve keeps variable indices, so decoding solutions still works *)
  let t_pre = Unix.gettimeofday () in
  let model, _pstats = Ilp.Presolve.strengthen e.Encoding.model in
  let presolve_s = Unix.gettimeofday () -. t_pre in
  let r, ref_stats = solve ~jobs ~stats ~presolve_s options model in
  match r.Ilp.Solver.solution with
  | None -> Error "reference synthesis found no data path"
  | Some x ->
      let* netlist, _plan = Encoding.decode e x in
      Ok
        {
          ref_netlist = netlist;
          ref_area = Datapath.Netlist.reference_area netlist;
          ref_optimal = r.Ilp.Solver.status = Ilp.Solver.Optimal;
          ref_time = r.Ilp.Solver.time_s;
          ref_stats;
        }

let synthesize ?time_limit ?node_limit ?symmetry ?(jobs = 1) ?(stats = false)
    ?trace ?(explain = false) ?seed (p : Dfg.Problem.t) ~k =
  let* () =
    if k >= 1 then Ok ()
    else Error (Printf.sprintf "k must be >= 1 (got %d)" k)
  in
  let n_regs = Dfg.Problem.min_registers p in
  let e = Encoding.build ?symmetry p ~n_regs ~k in
  (* Two warm-start candidates: the constructive heuristic's data path,
     and the cross-k seed (the previous instance's data path, repaired
     for this k by the exact session optimizer).  The heuristic becomes
     the solver's warm start — it carries the value hints that steer
     branching and probing, and the search trajectory is tuned to it —
     while the seed rides along as a bound-only initial incumbent
     ([incumbent_start]): it tightens the starting cutoff whenever it is
     the cheaper design without derailing the trajectory (measured at
     the 2 s bench budget, hinting from the seed costs more area on some
     rows than its tighter bound recovers).  Either way every instance
     starts with a finite primal bound whenever either path succeeds. *)
  let plan_on netlist =
    match align_to_clique p netlist with
    | Error _ -> None
    | Ok d -> (
        match Session_opt.solve d ~k with
        | Error _ -> None
        | Ok { Session_opt.plan; _ } -> Some plan)
  in
  let lift plan =
    Option.bind plan (fun plan ->
        Result.to_option (Encoding.vector_of_plan e plan))
  in
  let heuristic =
    lift
      (match Heuristic.netlist p with
      | Error _ -> None
      | Ok d0 -> plan_on d0)
  in
  let seed = lift (Option.bind seed plan_on) in
  let warm, incumbent =
    match (heuristic, seed) with
    | Some h, s -> (Some h, s)
    | None, s -> (s, None)
  in
  let options = solver_options ?time_limit ?node_limit e warm in
  let options = { options with Ilp.Solver.incumbent_start = incumbent } in
  (* presolve keeps variable indices, so decoding solutions still works *)
  let t_pre = Unix.gettimeofday () in
  let model, _pstats = Ilp.Presolve.strengthen e.Encoding.model in
  let presolve_s = Unix.gettimeofday () -. t_pre in
  let (r, stats), report =
    with_explain ~explain ?trace (fun tr ->
        solve ~jobs ~stats ~presolve_s
          { options with Ilp.Solver.trace = tr }
          model)
  in
  match r.Ilp.Solver.solution with
  | None ->
      Error
        (Printf.sprintf "no feasible BIST design for k = %d (%s)" k
           (match r.Ilp.Solver.status with
           | Ilp.Solver.Infeasible -> "proven infeasible"
           | Ilp.Solver.Unknown | Ilp.Solver.Optimal | Ilp.Solver.Feasible ->
               "search limit reached"))
  | Some x -> (
      let* netlist, plan = Encoding.decode e x in
      match plan with
      | None -> Error "internal: BIST encoding decoded without a plan"
      | Some plan ->
          let optimal = r.Ilp.Solver.status = Ilp.Solver.Optimal in
          (* When the time limit cut the search short, the incumbent's
             session assignment may still be improvable on its own data
             path: run the exact session optimizer as a post-pass. *)
          let plan =
            if optimal then plan
            else
              match Session_opt.solve netlist ~k with
              | Ok { Session_opt.plan = plan'; optimal = true; _ }
                when Bist.Plan.objective_cost plan'
                     < Bist.Plan.objective_cost plan ->
                  plan'
              | Ok _ | Error _ -> plan
          in
          let area = Bist.Plan.area plan in
          Ok
            {
              plan;
              optimal;
              area;
              solve_time = r.Ilp.Solver.time_s;
              nodes = r.Ilp.Solver.nodes;
              gap_pct =
                gap_pct
                  ~lower_bound:(Encoding.objective_lower_bound e)
                  ~base_area:e.Encoding.base_area ~area r;
              stolen = r.Ilp.Solver.stats.Ilp.Stats.steals;
              stats;
              explain = report;
            })

type sweep_row = { k : int; outcome : outcome; overhead_pct : float }

let sweep ?time_limit ?node_limit ?symmetry ?(jobs = 1) ?stats ?trace
    ?explain p =
  let* reference =
    reference ?time_limit ?node_limit ?symmetry ~jobs ?stats ?trace p
  in
  let n = Dfg.Problem.n_modules p in
  (* The sweep is sequential in k so each instance can be seeded with the
     previous row's data path (repaired for k+1 sessions by the exact
     session optimizer inside [synthesize]); the k = 1 row is seeded with
     the area-optimal reference data path.  [jobs] domains instead
     parallelize each individual solve's tree search. *)
  let rec loop k seed acc =
    if k > n then Ok (List.rev acc)
    else
      let* outcome =
        synthesize ?time_limit ?node_limit ?symmetry ~jobs ?stats ?trace
          ?explain ~seed p ~k
      in
      let overhead_pct =
        Bist.Plan.overhead_pct outcome.plan ~reference:reference.ref_area
      in
      loop (k + 1) outcome.plan.Bist.Plan.netlist
        ({ k; outcome; overhead_pct } :: acc)
  in
  let* rows = loop 1 reference.ref_netlist [] in
  Ok (reference, rows)

(* Aggregate telemetry over a whole sweep: the merge of every row's stats
   record, plus the reference solve's when supplied. *)
let sweep_stats ?reference rows =
  let all =
    Option.to_list (Option.bind reference (fun r -> r.ref_stats))
    @ List.filter_map (fun row -> row.outcome.stats) rows
  in
  match all with
  | [] -> None
  | s :: rest -> Some (List.fold_left Ilp.Stats.merge s rest)
