(* Tests for the core ADVBIST library: the ILP encoding of Eqs. (1)-(23),
   the decoder audits, the warm-start vector construction, the session
   optimizer, the enumeration oracle, and engine cross-validation on small
   instances (the repository's strongest end-to-end correctness check). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let fig1 = Dfg.Benchmarks.fig1

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let get = function
  | Ok x -> x
  | Error (msg : string) -> Alcotest.failf "unexpected error: %s" msg

(* -- Encoding structure -------------------------------------------------- *)

let test_encoding_stats () =
  let e = Advbist.Encoding.build fig1 ~n_regs:3 ~k:2 in
  check_int "n_regs" 3 e.Advbist.Encoding.n_regs;
  check_int "k" 2 e.Advbist.Encoding.k;
  check_bool "has variables" true (Ilp.Model.n_vars e.Advbist.Encoding.model > 100);
  check_bool "has constraints" true
    (Ilp.Model.n_constraints e.Advbist.Encoding.model > 100);
  (* fig1 has no constants: no tc variables *)
  Array.iter
    (fun row -> Array.iter (fun tc -> check_int "no tc" (-1) tc) row)
    e.Advbist.Encoding.tc

let test_encoding_rejects_bad_inputs () =
  check_bool "too few registers" true
    (try
       ignore (Advbist.Encoding.build fig1 ~n_regs:2 ~k:1);
       false
     with Invalid_argument _ -> true);
  check_bool "k = 0 rejected" true
    (try
       ignore (Advbist.Encoding.build fig1 ~n_regs:3 ~k:0);
       false
     with Invalid_argument _ -> true)

(* Synthesis reports a session count below 1 as an error, also on a DFG
   with no operations, where the default k (one session per module) is
   0. *)
let test_synthesize_rejects_k_below_1 () =
  let rejects name p ~k =
    check_bool name true
      (match Advbist.Synth.synthesize ~time_limit:1.0 p ~k with
      | Error _ -> true
      | Ok _ -> false)
  in
  rejects "k = 0 is an error" fig1 ~k:0;
  rejects "k = -1 is an error" fig1 ~k:(-1);
  let empty =
    get (Dfg.Parse.of_string "(dfg (name t) (inputs))")
  in
  let p = get (Dfg.Problem.make empty []) in
  rejects "no operations: k = 0 is an error" p ~k:(Dfg.Problem.n_modules p)

(* An operation-free DFG has a zero-area reference; its overhead is the
   plan's area over a one-transistor floor, not 0 / 0. *)
let test_empty_dfg_overhead_finite () =
  let p = get (Dfg.Problem.make (get (Dfg.Parse.of_string "(dfg (name a))")) []) in
  let o = get (Advbist.Synth.synthesize ~time_limit:1.0 p ~k:1) in
  let r = get (Advbist.Synth.reference ~time_limit:1.0 p) in
  check_int "reference area" 0 r.Advbist.Synth.ref_area;
  let pct =
    Bist.Plan.overhead_pct o.Advbist.Synth.plan ~reference:r.Advbist.Synth.ref_area
  in
  check_bool (Printf.sprintf "overhead %f is finite" pct) true
    (Float.is_finite pct);
  Alcotest.(check (float 0.0)) "zero area over zero reference" 0.0 pct

let test_encoding_symmetry_fixes_clique () =
  let e = Advbist.Encoding.build fig1 ~n_regs:3 ~k:1 in
  (* the maximum clique {2,3,4} is pre-assigned: those x variables are
     fixed *)
  List.iteri
    (fun slot v ->
      for r = 0 to 2 do
        let lb, ub = Ilp.Model.bounds e.Advbist.Encoding.model
            e.Advbist.Encoding.x_vr.(v).(r) in
        let expected = if r = slot then 1 else 0 in
        check_int (Printf.sprintf "x_v%d_r%d fixed" v r) expected lb;
        check_int (Printf.sprintf "x_v%d_r%d fixed ub" v r) expected ub
      done)
    [ 2; 3; 4 ];
  let e' = Advbist.Encoding.build ~symmetry:false fig1 ~n_regs:3 ~k:1 in
  let lb, ub =
    Ilp.Model.bounds e'.Advbist.Encoding.model e'.Advbist.Encoding.x_vr.(2).(0)
  in
  check_bool "free without symmetry" true (lb = 0 && ub = 1)

let test_lp_export_of_encoding () =
  let e = Advbist.Encoding.build fig1 ~n_regs:3 ~k:1 in
  let s = Ilp.Lp_format.to_string e.Advbist.Encoding.model in
  check_bool "exports" true (String.length s > 1000)

(* Presolve rebuilds the model over the same variables: each keeps its
   name, read through the name source it was built with. *)
let test_presolve_keeps_names () =
  List.iter
    (fun k ->
      let p = Option.get (Circuits.Suite.find "tseng") in
      let n_regs = Dfg.Problem.min_registers p in
      let e =
        if k = 0 then Advbist.Encoding.build_reference p ~n_regs
        else Advbist.Encoding.build p ~n_regs ~k
      in
      let m = e.Advbist.Encoding.model in
      let m', _ = Ilp.Presolve.strengthen m in
      check_int "same variables" (Ilp.Model.n_vars m) (Ilp.Model.n_vars m');
      for v = 0 to Ilp.Model.n_vars m - 1 do
        Alcotest.(check string)
          (Printf.sprintf "k=%d variable %d" k v)
          (Ilp.Model.var_name m v) (Ilp.Model.var_name m' v)
      done)
    [ 0; 1; 2 ]

(* -- Warm-start vector --------------------------------------------------- *)

let test_vector_of_plan_feasible () =
  List.iter
    (fun k ->
      let e = Advbist.Encoding.build fig1 ~n_regs:3 ~k in
      (* heuristic netlist may differ from the symmetry-fixed register
         naming; use the symmetry-free encoding for this roundtrip *)
      let e_free = Advbist.Encoding.build ~symmetry:false fig1 ~n_regs:3 ~k in
      let plan = (get (Advbist.Heuristic.synthesize fig1 ~k)).Advbist.Session_opt.plan in
      let x = get (Advbist.Encoding.vector_of_plan e_free plan) in
      check_bool "model accepts the vector" true
        (Ilp.Model.check e_free.Advbist.Encoding.model x = Ok ());
      (* decoding the vector reproduces the plan cost *)
      let _netlist, plan' = get (Advbist.Encoding.decode e_free x) in
      (match plan' with
      | Some plan' ->
          check_int "same cost"
            (Bist.Plan.objective_cost plan)
            (Bist.Plan.objective_cost plan')
      | None -> Alcotest.fail "expected a plan");
      ignore e)
    [ 1; 2 ]

(* Sub-test session labels are arbitrary: a synthesized plan with its
   sessions relabelled still lifts into the symmetric encoding, whose
   Section 3.5 rows put module 0 in session 0 and open sessions in
   order, and decodes at the same cost. *)
let test_vector_of_plan_relabels_sessions () =
  let k = 2 in
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k) in
  let plan = o.Advbist.Synth.plan in
  let permuted =
    get
      (Bist.Plan.make plan.Bist.Plan.netlist ~k
         ~session_of_module:
           (Array.map (fun s -> k - 1 - s) plan.Bist.Plan.session_of_module)
         ~sr_of_module:plan.Bist.Plan.sr_of_module
         ~tpg_of_port:plan.Bist.Plan.tpg_of_port)
  in
  check_bool "module 0 leaves session 0" true
    (permuted.Bist.Plan.session_of_module.(0) <> 0);
  let e =
    Advbist.Encoding.build fig1 ~n_regs:(Dfg.Problem.min_registers fig1) ~k
  in
  let x = get (Advbist.Encoding.vector_of_plan e permuted) in
  check_bool "symmetric model accepts the vector" true
    (Ilp.Model.check e.Advbist.Encoding.model x = Ok ());
  match get (Advbist.Encoding.decode e x) with
  | _, Some plan' ->
      check_int "same cost"
        (Bist.Plan.objective_cost plan)
        (Bist.Plan.objective_cost plan')
  | _, None -> Alcotest.fail "expected a plan"

let test_vector_of_netlist_reference () =
  let e = Advbist.Encoding.build_reference ~symmetry:false fig1 ~n_regs:3 in
  let d = get (Advbist.Heuristic.netlist fig1) in
  let x = get (Advbist.Encoding.vector_of_netlist e d) in
  check_bool "feasible" true (Ilp.Model.check e.Advbist.Encoding.model x = Ok ());
  (* the model objective equals the netlist mux area *)
  check_int "objective = mux area"
    (Datapath.Netlist.mux_area d)
    (Ilp.Model.objective_value e.Advbist.Encoding.model x)

(* -- Session optimizer (Figs. 2-3 variable filtering) --------------------- *)

let paper_netlist () =
  Datapath.Netlist.make_exn fig1
    ~reg_of_var:[| 0; 1; 2; 1; 0; 2; 1; 2 |]
    ~module_of_op:[| 0; 0; 1; 1 |]

let test_session_opt_respects_wires () =
  (* On the paper's Fig. 1 data path the multiplier (module 1) writes only
     R1 and R2 — the Eq. (6) filtering of the paper's Fig. 2 example: no
     plan may use R0 as the multiplier's SR. *)
  let d = paper_netlist () in
  List.iter
    (fun k ->
      let o = get (Advbist.Session_opt.solve d ~k) in
      check_bool "optimal" true o.Advbist.Session_opt.optimal;
      let plan = o.Advbist.Session_opt.plan in
      check_bool "mul SR is wired" true
        (List.mem (1, plan.Bist.Plan.sr_of_module.(1))
           d.Datapath.Netlist.module_to_reg);
      (* Eq. 9 analog of Fig. 3: every TPG sits behind a real wire *)
      Array.iteri
        (fun m tpgs ->
          Array.iteri
            (fun l r ->
              if r >= 0 then
                check_bool "tpg wired" true
                  (List.mem (r, m, l) d.Datapath.Netlist.reg_to_port))
            tpgs)
        plan.Bist.Plan.tpg_of_port)
    [ 1; 2 ]

let test_session_opt_k_monotone () =
  (* more sessions can only help (weakly) on a fixed data path *)
  let d = paper_netlist () in
  let cost k =
    Bist.Plan.objective_cost (get (Advbist.Session_opt.solve d ~k)).Advbist.Session_opt.plan
  in
  check_bool "k=2 <= k=1" true (cost 2 <= cost 1)

(* Exhaustive check of the session optimizer on the Fig. 1 data path. *)
let brute_force_sessions d k =
  let p = d.Datapath.Netlist.problem in
  let n_mod = Dfg.Problem.n_modules p in
  let writers m =
    List.filter_map
      (fun (m', r) -> if m' = m then Some r else None)
      d.Datapath.Netlist.module_to_reg
  in
  let feeders m l =
    List.filter_map
      (fun (r, m', l') -> if m' = m && l' = l then Some r else None)
      d.Datapath.Netlist.reg_to_port
  in
  let best = ref None in
  let rec sessions m acc =
    if m >= n_mod then srs 0 [] (List.rev acc)
    else
      for s = 0 to k - 1 do
        sessions (m + 1) (s :: acc)
      done
  and srs m acc sess =
    if m >= n_mod then tpgs 0 0 [] sess (List.rev acc)
    else
      List.iter (fun r -> srs (m + 1) (r :: acc) sess) (writers m)
  and tpgs m l acc sess srl =
    if m >= n_mod then finish sess srl (List.rev acc)
    else begin
      let ports = Dfg.Fu_kind.n_ports p.Dfg.Problem.modules.(m) in
      if l >= ports then tpgs (m + 1) 0 acc sess srl
      else begin
        let srcs = feeders m l in
        if srcs = [] then tpgs m (l + 1) (-1 :: acc) sess srl
        else List.iter (fun r -> tpgs m (l + 1) (r :: acc) sess srl) srcs
      end
    end
  and finish sess srl flat_tpg =
    let session_of_module = Array.of_list sess in
    let sr_of_module = Array.of_list srl in
    let tpg_of_port =
      let rest = ref flat_tpg in
      Array.init n_mod (fun m ->
          Array.init (Dfg.Fu_kind.n_ports p.Dfg.Problem.modules.(m)) (fun _ ->
              match !rest with
              | x :: tl ->
                  rest := tl;
                  x
              | [] -> -1))
    in
    match Bist.Plan.make d ~k ~session_of_module ~sr_of_module ~tpg_of_port with
    | Error _ -> ()
    | Ok plan -> (
        let cost = Bist.Plan.objective_cost plan in
        match !best with
        | Some c when c <= cost -> ()
        | Some _ | None -> best := Some cost)
  in
  sessions 0 [];
  !best

let test_session_opt_matches_brute_force () =
  let d = paper_netlist () in
  List.iter
    (fun k ->
      let o = get (Advbist.Session_opt.solve d ~k) in
      match brute_force_sessions d k with
      | None -> Alcotest.fail "brute force found nothing"
      | Some c ->
          check_int
            (Printf.sprintf "k=%d optimal" k)
            c
            (Bist.Plan.objective_cost o.Advbist.Session_opt.plan))
    [ 1; 2 ]

(* -- Engine cross-validation --------------------------------------------- *)

let test_engines_agree_fig1 () =
  List.iter
    (fun k ->
      let ilp = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k) in
      check_bool "ilp proven optimal" true ilp.Advbist.Synth.optimal;
      let enum = get (Advbist.Enum_engine.synthesize fig1 ~k) in
      check_int
        (Printf.sprintf "k=%d engines agree" k)
        (Bist.Plan.objective_cost enum.Advbist.Enum_engine.plan)
        (Bist.Plan.objective_cost ilp.Advbist.Synth.plan))
    [ 1; 2 ]

let test_reference_engines_agree () =
  let ilp = get (Advbist.Synth.reference ~time_limit:60.0 fig1) in
  check_bool "proven optimal" true ilp.Advbist.Synth.ref_optimal;
  let enum = get (Advbist.Enum_engine.reference fig1) in
  check_int "reference areas agree" enum ilp.Advbist.Synth.ref_area

let test_symmetry_does_not_change_optimum () =
  let with_sym = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k:1) in
  let without =
    get (Advbist.Synth.synthesize ~time_limit:60.0 ~symmetry:false fig1 ~k:1)
  in
  check_bool "both optimal" true
    (with_sym.Advbist.Synth.optimal && without.Advbist.Synth.optimal);
  check_int "same optimum" with_sym.Advbist.Synth.area without.Advbist.Synth.area

(* -- Functional audit of synthesized data paths --------------------------- *)

let test_synthesized_datapath_simulates () =
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k:2) in
  let d = o.Advbist.Synth.plan.Bist.Plan.netlist in
  let g = fig1.Dfg.Problem.dfg in
  let inputs =
    List.map
      (fun v -> ((Dfg.Graph.variable g v).Dfg.Graph.var_name, 13 * (v + 3)))
      (Dfg.Graph.primary_inputs g)
  in
  check_bool "ILP-optimized data path computes the DFG" true
    (Datapath.Sim.agrees d ~inputs)

(* -- k-sweep shape -------------------------------------------------------- *)

let test_sweep_fig1 () =
  let reference, rows = get (Advbist.Synth.sweep ~time_limit:60.0 fig1) in
  check_int "N rows" 2 (List.length rows);
  check_bool "reference optimal" true reference.Advbist.Synth.ref_optimal;
  List.iter
    (fun row ->
      check_bool "positive overhead" true (row.Advbist.Synth.overhead_pct > 0.0))
    rows;
  (* overhead decreases (weakly) with k on fig1 *)
  match rows with
  | [ r1; r2 ] ->
      check_bool "k=2 no worse" true
        (r2.Advbist.Synth.overhead_pct <= r1.Advbist.Synth.overhead_pct +. 1e-9)
  | _ -> Alcotest.fail "expected two rows"

(* -- Constants (§3.3.4) --------------------------------------------------- *)

let const_problem =
  (* one multiplication by a constant: the multiplier's coefficient port can
     only be fed by the constant, forcing a dedicated TPG. *)
  let b = Dfg.Graph.Builder.create ~name:"constport" () in
  let x = Dfg.Graph.Builder.input b "x" in
  let y = Dfg.Graph.Builder.op ~name:"y" b Dfg.Op_kind.Mul ~step:0 x (Dfg.Graph.Const 3) in
  let (_ : Dfg.Graph.operand) =
    Dfg.Graph.Builder.op ~name:"w" b Dfg.Op_kind.Mul ~step:1 y (Dfg.Graph.Const 5)
  in
  Dfg.Problem.make_exn (Dfg.Graph.Builder.build_exn b) [ Dfg.Fu_kind.multiplier ]

let test_constant_port_gets_dedicated_tpg () =
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 const_problem ~k:1) in
  check_bool "optimal" true o.Advbist.Synth.optimal;
  let plan = o.Advbist.Synth.plan in
  check_int "one dedicated generator" 1 (Bist.Plan.n_constant_tpgs plan);
  (* reported area charges the real TPG cost, not the steering weight *)
  check_bool "area includes constant TPG" true
    (Bist.Plan.area plan >= Datapath.Area.constant_tpg);
  check_bool "objective uses the large weight" true
    (Bist.Plan.objective_cost plan - Bist.Plan.area plan
    = Datapath.Area.constant_tpg_weight - Datapath.Area.constant_tpg)

let test_commutativity_avoids_constant_tpg () =
  (* two multiplications where swapping one lets both ports see a register:
     y = x * 3 and z = y * x.  Unswapped, port 1 of the multiplier sees
     {#3, x}; port 0 sees {x, y}: no constant-only port even unswapped.
     Force the interesting case instead: y = x*3, w = y*5 (const_problem)
     has port 1 = {#3, #5} constant-only under identity, but the ILP can
     swap one of them, giving port1 = {#3, y} and port0 = {x, #5}: no
     constant-only port, saving the dedicated TPG.  Verify the optimizer
     found such a design iff it is cheaper. *)
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 const_problem ~k:1) in
  let plan = o.Advbist.Synth.plan in
  (* with the huge w_tc, a swap-based design must win if feasible; whether
     it is depends on register lifetimes.  We only require optimality plus
     audit success, and that the objective accounts match. *)
  check_bool "plan audit passed" true (Bist.Plan.area plan > 0)

let test_vector_roundtrip_whole_suite () =
  (* the heuristic plan of every benchmark circuit must be expressible as a
     feasible vector of its (symmetry-free) encoding — a broad regression
     net over the whole Eq. (1)-(23) generator *)
  List.iter
    (fun (name, p) ->
      let k = Dfg.Problem.n_modules p in
      match Advbist.Heuristic.synthesize p ~k with
      | Error _ -> () (* no decoupled plan exists (see ewf); nothing to check *)
      | Ok o ->
          let e =
            Advbist.Encoding.build ~symmetry:false p
              ~n_regs:(Dfg.Problem.min_registers p) ~k
          in
          let plan = o.Advbist.Session_opt.plan in
          (match Advbist.Encoding.vector_of_plan e plan with
          | Error msg -> Alcotest.failf "%s: %s" name msg
          | Ok x ->
              check_bool (name ^ " vector feasible") true
                (Ilp.Model.check e.Advbist.Encoding.model x = Ok ());
              let _netlist, plan' = get (Advbist.Encoding.decode e x) in
              (match plan' with
              | Some plan' ->
                  check_int (name ^ " cost roundtrip")
                    (Bist.Plan.objective_cost plan)
                    (Bist.Plan.objective_cost plan')
              | None -> Alcotest.failf "%s: no plan decoded" name)))
    (Circuits.Suite.all @ Circuits.Suite.extras)

(* -- Random cross-validation ---------------------------------------------- *)

(* Tiny random scheduled DFGs: the strongest oracle in the repository — the
   concurrent ILP and the exhaustive engine must agree on the optimum for
   every instance. *)
let gen_tiny =
  QCheck2.Gen.(
    let* n_inputs = int_range 2 3 in
    let* ops =
      list_size (int_range 2 4)
        (pair
           (oneofl [ Dfg.Op_kind.Add; Dfg.Op_kind.Mul ])
           (pair (int_range 0 50) (int_range 0 50)))
    in
    return (n_inputs, ops))

let build_tiny (n_inputs, ops) =
  let b = Dfg.Graph.Builder.create ~name:"tiny" () in
  let pool =
    ref
      (List.init n_inputs (fun i ->
           (Dfg.Graph.Builder.input b (Printf.sprintf "i%d" i), 0)))
  in
  List.iteri
    (fun i (kind, (sa, sb)) ->
      let arr = Array.of_list !pool in
      let x, sx = arr.(sa mod Array.length arr) in
      let y, sy = arr.(sb mod Array.length arr) in
      let step = max sx sy in
      let out =
        Dfg.Graph.Builder.op ~name:(Printf.sprintf "t%d" i) b kind ~step x y
      in
      pool := (out, step + 1) :: !pool)
    ops;
  match Dfg.Graph.Builder.build b with
  | Error _ -> None
  | Ok g -> (
      let unit_kinds =
        List.map
          (fun k ->
            if Dfg.Op_kind.equal k Dfg.Op_kind.Mul then Dfg.Fu_kind.multiplier
            else Dfg.Fu_kind.adder)
          (Dfg.Graph.op_kinds g)
      in
      let counts = Dfg.Lifetime.min_modules g unit_kinds in
      let units =
        List.concat_map (fun (fu, n) -> List.init n (fun _ -> fu)) counts
      in
      match Dfg.Problem.make g units with Ok p -> Some p | Error _ -> None)

(* Every session count k = 1..n_modules of every instance: whenever the
   exhaustive engine finds the optimum, the ILP must prove the same one —
   these 2-4 operation encodings are small enough that a limit-hit solve
   is itself a failure, not a pass. *)
let prop_engines_agree_random =
  QCheck2.Test.make ~name:"ILP = exhaustive on random tiny instances"
    ~count:40 gen_tiny (fun spec ->
      match build_tiny spec with
      | None -> true
      | Some p ->
          List.for_all
            (fun k ->
              match
                ( Advbist.Synth.synthesize ~time_limit:60.0 p ~k,
                  Advbist.Enum_engine.synthesize ~max_leaves:60_000 p ~k )
              with
              | Ok ilp, Ok enum ->
                  ilp.Advbist.Synth.optimal
                  && Bist.Plan.objective_cost ilp.Advbist.Synth.plan
                     = Bist.Plan.objective_cost enum.Advbist.Enum_engine.plan
              | Error _, Error _ -> true
              | Ok _, Error msg ->
                  (* enumeration refused (too large) is fine; a feasibility
                     disagreement is not *)
                  msg = "instance too large for exhaustive enumeration"
              | Error msg, Ok _ ->
                  (* ILP must not claim infeasibility when a design exists *)
                  not (String.ends_with ~suffix:"(proven infeasible)" msg))
            (List.init (Dfg.Problem.n_modules p) (fun i -> i + 1)))

let prop_synthesized_simulates_random =
  QCheck2.Test.make ~name:"random instances simulate correctly after synthesis"
    ~count:20 gen_tiny (fun spec ->
      match build_tiny spec with
      | None -> true
      | Some p -> (
          match Advbist.Synth.synthesize ~time_limit:30.0 p ~k:1 with
          | Error _ -> true
          | Ok o ->
              let g = p.Dfg.Problem.dfg in
              let inputs =
                List.map
                  (fun v ->
                    ((Dfg.Graph.variable g v).Dfg.Graph.var_name, 7 * (v + 2)))
                  (Dfg.Graph.primary_inputs g)
              in
              Datapath.Sim.agrees o.Advbist.Synth.plan.Bist.Plan.netlist ~inputs))

(* Work stealing must not change results: the frontier of open subtrees is
   independent of the worker count, each subtree's outcome is a pure
   function of the subtree (canonical reset state, per-subtree node
   budgets), and the combine step is a deterministic (objective, lex
   solution) fold — so a node-limited sweep returns identical designs for
   any worker count.  (A node limit, unlike a wall-clock one, is
   unaffected by machine load.) *)
let test_parallel_sweep_deterministic name () =
  let p = Option.get (Circuits.Suite.find name) in
  let run jobs =
    match Advbist.Synth.sweep ~node_limit:2_000 ~jobs p with
    | Ok (reference, rows) ->
        ( reference.Advbist.Synth.ref_area,
          List.map
            (fun (r : Advbist.Synth.sweep_row) ->
              ( r.Advbist.Synth.k,
                r.Advbist.Synth.outcome.Advbist.Synth.area ))
            rows )
    | Error msg -> Alcotest.failf "%s sweep (jobs=%d): %s" name jobs msg
  in
  let ref_area_2, rows_2 = run 2 in
  let ref_area_4, rows_4 = run 4 in
  check_int "reference area" ref_area_2 ref_area_4;
  Alcotest.(check (list (pair int int)))
    "per-k areas" rows_2 rows_4

(* The work-stealing search on a real circuit model: jobs 2..4 must return
   the same status, objective and solution vector (run to completion — no
   limits — so even the optimality flag is schedule-independent), and the
   sequential search (jobs 1) must prove the same optimum. *)
let test_subtree_search_determinism () =
  let e = Advbist.Encoding.build fig1 ~n_regs:3 ~k:1 in
  let model, _ = Ilp.Presolve.strengthen e.Advbist.Encoding.model in
  let options =
    {
      Ilp.Solver.default with
      Ilp.Solver.branch_order = Some (Advbist.Encoding.branch_order e);
    }
  in
  let runs =
    List.map (fun jobs -> Ilp.Solver.solve ~options ~jobs model) [ 2; 3; 4 ]
  in
  let r0 = List.hd runs in
  check_bool "k=1 proven optimal" true
    (r0.Ilp.Solver.status = Ilp.Solver.Optimal);
  List.iteri
    (fun i (r : Ilp.Solver.outcome) ->
      check_bool (Printf.sprintf "status jobs=%d" (i + 2)) true
        (r.Ilp.Solver.status = r0.Ilp.Solver.status);
      check_bool (Printf.sprintf "objective jobs=%d" (i + 2)) true
        (r.Ilp.Solver.objective = r0.Ilp.Solver.objective);
      check_bool (Printf.sprintf "solution jobs=%d" (i + 2)) true
        (r.Ilp.Solver.solution = r0.Ilp.Solver.solution))
    runs;
  let seq = Ilp.Solver.solve ~options model in
  check_bool "sequential search proves the same optimum" true
    (seq.Ilp.Solver.status = Ilp.Solver.Optimal
    && seq.Ilp.Solver.objective = r0.Ilp.Solver.objective)

(* Node-limited subtree searches must be jobs-invariant too: every subtree
   starts with its node and propagation-tick counters at zero, so where a
   limit-hit subtree stops (the tick counter sets the limit-check cadence)
   cannot depend on which subtrees its worker ran before.  tseng k=1 with
   a 100-node budget per subtree, warm-started from a 200-node solve: the
   limit fires in many subtrees. *)
let test_node_limited_subtree_search_jobs_invariant () =
  let p = Option.get (Circuits.Suite.find "tseng") in
  let e = Advbist.Encoding.build p ~n_regs:(Dfg.Problem.min_registers p) ~k:1 in
  let model, _ = Ilp.Presolve.strengthen e.Advbist.Encoding.model in
  let base =
    {
      Ilp.Solver.default with
      Ilp.Solver.branch_order = Some (Advbist.Encoding.branch_order e);
    }
  in
  let warm =
    (Ilp.Solver.solve ~options:{ base with node_limit = Some 200 } model)
      .Ilp.Solver.solution
  in
  let options = { base with warm_start = warm; node_limit = Some 100 } in
  let runs =
    List.map (fun jobs -> Ilp.Solver.solve ~options ~jobs model) [ 2; 3; 4 ]
  in
  let r0 = List.hd runs in
  check_bool "a subtree limit fired" true
    (r0.Ilp.Solver.status = Ilp.Solver.Feasible);
  List.iteri
    (fun i (r : Ilp.Solver.outcome) ->
      let jobs = i + 2 in
      check_bool (Printf.sprintf "status jobs=%d" jobs) true
        (r.Ilp.Solver.status = r0.Ilp.Solver.status);
      check_bool (Printf.sprintf "objective jobs=%d" jobs) true
        (r.Ilp.Solver.objective = r0.Ilp.Solver.objective);
      check_bool (Printf.sprintf "solution jobs=%d" jobs) true
        (r.Ilp.Solver.solution = r0.Ilp.Solver.solution);
      check_int (Printf.sprintf "nodes jobs=%d" jobs) r0.Ilp.Solver.nodes
        r.Ilp.Solver.nodes;
      check_int (Printf.sprintf "conflicts jobs=%d" jobs)
        r0.Ilp.Solver.stats.Ilp.Stats.conflicts
        r.Ilp.Solver.stats.Ilp.Stats.conflicts)
    runs

(* Cross-k seeding: a seed netlist gives synthesize a finite incumbent, and
   the seeded design can never be worse than the seed's own repaired cost;
   sweeping with seeds must preserve the per-k areas of independent
   solves on an instance small enough to prove optimal everywhere. *)
let test_sweep_cross_k_seeding () =
  let reference, rows = get (Advbist.Synth.sweep ~time_limit:60.0 fig1) in
  List.iter
    (fun (r : Advbist.Synth.sweep_row) ->
      check_bool
        (Printf.sprintf "k=%d optimal" r.Advbist.Synth.k)
        true r.Advbist.Synth.outcome.Advbist.Synth.optimal;
      (* independent solve of the same instance: same optimum *)
      let indep =
        get
          (Advbist.Synth.synthesize ~time_limit:60.0 fig1
             ~k:r.Advbist.Synth.k)
      in
      check_int
        (Printf.sprintf "k=%d area matches independent solve"
           r.Advbist.Synth.k)
        indep.Advbist.Synth.area r.Advbist.Synth.outcome.Advbist.Synth.area)
    rows;
  (* seeding from the reference data path is accepted and feasible *)
  let seeded =
    get
      (Advbist.Synth.synthesize ~time_limit:60.0
         ~seed:reference.Advbist.Synth.ref_netlist fig1 ~k:1)
  in
  let unseeded = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k:1) in
  check_int "seeded optimum unchanged" unseeded.Advbist.Synth.area
    seeded.Advbist.Synth.area

(* The structural dual bound must hold for every feasible design — check it
   against proven optima (fig1 across k, tseng k=1) and against every
   feasible incumbent on limit-hit suite instances.  Also pin down that it
   is non-trivial (strictly above the bare mux-free design floor would be
   circuit-specific; > 0 is the portable claim). *)
let test_objective_lower_bound_sound () =
  List.iter
    (fun k ->
      let n_regs = Dfg.Problem.min_registers fig1 in
      let e = Advbist.Encoding.build fig1 ~n_regs ~k in
      let lb = Advbist.Encoding.objective_lower_bound e in
      check_bool (Printf.sprintf "fig1 k=%d bound positive" k) true (lb > 0);
      let o = get (Advbist.Synth.synthesize ~time_limit:60.0 fig1 ~k) in
      check_bool (Printf.sprintf "fig1 k=%d optimal" k) true
        o.Advbist.Synth.optimal;
      check_bool
        (Printf.sprintf "fig1 k=%d bound below optimum (%d <= %d)" k
           (lb + e.Advbist.Encoding.base_area)
           o.Advbist.Synth.area)
        true
        (lb + e.Advbist.Encoding.base_area <= o.Advbist.Synth.area))
    [ 1; 2 ];
  let tseng = Option.get (Circuits.Suite.find "tseng") in
  let n_regs = Dfg.Problem.min_registers tseng in
  let e = Advbist.Encoding.build tseng ~n_regs ~k:1 in
  let lb = Advbist.Encoding.objective_lower_bound e in
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 tseng ~k:1) in
  check_bool "tseng k=1 optimal" true o.Advbist.Synth.optimal;
  check_bool
    (Printf.sprintf "tseng k=1 bound below optimum (%d <= %d)"
       (lb + e.Advbist.Encoding.base_area)
       o.Advbist.Synth.area)
    true
    (lb + e.Advbist.Encoding.base_area <= o.Advbist.Synth.area)

(* Synthesis solves run without an LP relaxation: the proof of tseng k=1
   spends no simplex resolve or pivot.  The node count pins the size of
   its search tree, which an LP bound on these encodings never pruned;
   the propagation and conflict-engine counters pin the tree itself, so a
   kernel change that loses or reorders a deduction fails here.  The tick
   count pins the kernel's work: a bound change queues only the rows whose
   min-activity it moved and that can still deduce, so a kernel that
   queues dead rows again fails here too. *)
let test_synthesis_runs_lp_free () =
  let tseng = Option.get (Circuits.Suite.find "tseng") in
  let o = get (Advbist.Synth.synthesize ~time_limit:60.0 ~stats:true tseng ~k:1) in
  let st = Option.get o.Advbist.Synth.stats in
  check_bool "tseng k=1 optimal" true o.Advbist.Synth.optimal;
  check_int "no LP resolves" 0 st.Ilp.Stats.lp_resolves;
  check_int "no LP pivots" 0 st.Ilp.Stats.lp_pivots;
  check_int "nodes" 11_706 o.Advbist.Synth.nodes;
  check_int "fixpoints" 93_875 st.Ilp.Stats.prop_fixpoints;
  check_int "propagation conflicts" 15_868 st.Ilp.Stats.prop_conflicts;
  check_int "analysed conflicts" 4_751 st.Ilp.Stats.conflicts;
  check_int "learned" 2_360 st.Ilp.Stats.learned;
  check_int "deleted" 821 st.Ilp.Stats.deleted;
  check_int "oversize" 2_391 st.Ilp.Stats.oversize;
  check_int "propagation ticks" 1_580_055 st.Ilp.Stats.prop_ticks;
  check_int "re-asserted" 31_046 st.Ilp.Stats.reasserted;
  check_int "re-assertion closed" 758 st.Ilp.Stats.reassert_closed

(* The explain post-mortem counts only the nogoods the solver stored:
   oversize nogoods are analyzed, traced and dropped, so on the pinned
   tseng k=1 proof the replayed learned count must equal [Stats.learned],
   not the analyzed conflicts.  Both reports average the backjump over
   the stored asserting nogoods, so `--explain --stats` print one mean.
   A caller's own sink still receives every captured event. *)
let test_explain_learned_matches_stats () =
  let tseng = Option.get (Circuits.Suite.find "tseng") in
  let sink = Ilp.Trace.ring () in
  let o =
    get
      (Advbist.Synth.synthesize ~time_limit:60.0 ~stats:true ~explain:true
         ~trace:sink tseng ~k:1)
  in
  let st = Option.get o.Advbist.Synth.stats in
  let rep = Option.get o.Advbist.Synth.explain in
  check_bool "tseng k=1 optimal" true o.Advbist.Synth.optimal;
  check_int "replayed learned = Stats.learned" st.Ilp.Stats.learned
    rep.Ilp.Replay.learned;
  check_int "learned" 2_360 rep.Ilp.Replay.learned;
  check_int "caller sink sees every event" rep.Ilp.Replay.events
    (List.length (Ilp.Trace.events sink));
  check_bool "asserting nogoods counted" true (st.Ilp.Stats.asserting > 0);
  check_bool "replayed avg backjump = Stats mean" true
    (rep.Ilp.Replay.avg_backjump
    = float_of_int st.Ilp.Stats.backjump_depth
      /. float_of_int st.Ilp.Stats.asserting);
  let printed = Format.asprintf "%a" (Ilp.Stats.pp ?time_s:None) st in
  check_bool "stats line prints the replayed mean" true
    (contains_sub printed
       (Printf.sprintf "avg backjump %.1f" rep.Ilp.Replay.avg_backjump))

(* On a limit-hit solve the reported gap must reflect the structural bound:
   strictly below 100, and consistent with the outcome's own area. *)
let test_gap_uses_structural_bound () =
  let iir3 = Option.get (Circuits.Suite.find "iir3") in
  let o = get (Advbist.Synth.synthesize ~node_limit:5_000 iir3 ~k:1) in
  check_bool "limit hit" true (not o.Advbist.Synth.optimal);
  check_bool
    (Printf.sprintf "gap below 100 (%.1f)" o.Advbist.Synth.gap_pct)
    true
    (o.Advbist.Synth.gap_pct < 100.0);
  let n_regs = Dfg.Problem.min_registers iir3 in
  let e = Advbist.Encoding.build iir3 ~n_regs ~k:1 in
  let lb_area =
    Advbist.Encoding.objective_lower_bound e + e.Advbist.Encoding.base_area
  in
  check_bool "incumbent respects the bound" true
    (o.Advbist.Synth.area >= lb_area)

(* -- Bench snapshots ----------------------------------------------------- *)

(* Tests run from _build/default/test; the committed snapshot is a declared
   dune dep one level up. *)
let committed_snapshot_path = "../BENCH_solver.json"

let load_committed_snapshot () =
  match Advbist.Bench_snapshot.of_file committed_snapshot_path with
  | Ok t -> t
  | Error msg ->
      Alcotest.failf "committed BENCH_solver.json does not parse: %s" msg

let test_bench_snapshot_parse_committed () =
  let t = load_committed_snapshot () in
  check_int "committed snapshot is schema v6" 6
    t.Advbist.Bench_snapshot.version;
  List.iter
    (fun (c : Advbist.Bench_snapshot.circuit) ->
      List.iter
        (fun (r : Advbist.Bench_snapshot.row) ->
          check_bool
            (Printf.sprintf "%s k=%d carries its throughput" c.circuit r.k)
            true
            (r.time_s <= 0.0 || r.nodes_per_sec > 0.0 || r.nodes = 0))
        c.rows)
    t.Advbist.Bench_snapshot.circuits;
  check_bool "snapshot has circuits" true
    (t.Advbist.Bench_snapshot.circuits <> []);
  check_bool "tseng is benched" true
    (List.exists
       (fun (c : Advbist.Bench_snapshot.circuit) -> c.circuit = "tseng")
       t.Advbist.Bench_snapshot.circuits);
  List.iter
    (fun (c : Advbist.Bench_snapshot.circuit) ->
      check_bool
        (Printf.sprintf "%s has rows" c.circuit)
        true (c.rows <> []))
    t.Advbist.Bench_snapshot.circuits

let test_bench_snapshot_roundtrip () =
  let t = load_committed_snapshot () in
  let s1 = Advbist.Bench_snapshot.to_string t in
  match Advbist.Bench_snapshot.of_string s1 with
  | Error msg -> Alcotest.failf "re-rendered snapshot does not parse: %s" msg
  | Ok t' ->
      Alcotest.(check int)
        "writer always emits schema v6" 6 t'.Advbist.Bench_snapshot.version;
      Alcotest.(check string)
        "render/parse/render is a fixpoint" s1
        (Advbist.Bench_snapshot.to_string t')

(* Return [t] with the area of row [k] of [circuit] bumped by [delta]. *)
let bump_area t ~circuit ~k ~delta =
  let open Advbist.Bench_snapshot in
  {
    t with
    circuits =
      List.map
        (fun (c : Advbist.Bench_snapshot.circuit) ->
          if c.circuit <> circuit then c
          else
            {
              c with
              rows =
                List.map
                  (fun (r : row) ->
                    if r.k = k then { r with area = r.area + delta } else r)
                  c.rows;
            })
        t.circuits;
  }

let test_bench_diff_self_clean () =
  let t = load_committed_snapshot () in
  let findings = Advbist.Bench_snapshot.diff ~baseline:t ~current:t in
  check_bool "self-diff has no findings" true (findings = []);
  check_bool "self-diff passes" true
    (not (Advbist.Bench_snapshot.has_failures findings))

let test_bench_diff_flags_area_regression () =
  let baseline = load_committed_snapshot () in
  let current = bump_area baseline ~circuit:"tseng" ~k:1 ~delta:64 in
  let findings = Advbist.Bench_snapshot.diff ~baseline ~current in
  check_bool "regression detected" true
    (Advbist.Bench_snapshot.has_failures findings);
  let fails =
    List.filter
      (fun f -> f.Advbist.Bench_snapshot.severity = Advbist.Bench_snapshot.Fail)
      findings
  in
  Alcotest.(check int) "exactly one failure" 1 (List.length fails);
  (match fails with
  | [ f ] ->
      Alcotest.(check string)
        "failure names the circuit" "tseng" f.Advbist.Bench_snapshot.circuit;
      check_bool "failure names the row" true
        (f.Advbist.Bench_snapshot.k = Some 1)
  | _ -> Alcotest.fail "unreachable");
  let report =
    Advbist.Bench_snapshot.render_report ~baseline ~current findings
  in
  check_bool "report says FAIL" true
    (let rec contains i =
       i + 4 <= String.length report
       && (String.sub report i 4 = "FAIL" || contains (i + 1))
     in
     contains 0)

(* A >20% node-throughput drop on a row that ran long enough to measure
   (both sides >= 0.05 s, baseline rate nonzero) must surface as a Warn —
   and only a Warn: throughput is machine-dependent, so it never gates. *)
let test_bench_diff_flags_throughput_drop () =
  let open Advbist.Bench_snapshot in
  let baseline = load_committed_snapshot () in
  let measurable (r : row) = r.time_s >= 0.05 && r.nodes_per_sec > 0.0 in
  let circuit, k =
    match
      List.find_map
        (fun (c : circuit) ->
          List.find_map
            (fun (r : row) -> if measurable r then Some (c.circuit, r.k) else None)
            c.rows)
        baseline.circuits
    with
    | Some pick -> pick
    | None -> Alcotest.fail "no committed row runs long enough to measure"
  in
  let current =
    {
      baseline with
      circuits =
        List.map
          (fun (c : circuit) ->
            if c.circuit <> circuit then c
            else
              {
                c with
                rows =
                  List.map
                    (fun (r : row) ->
                      if r.k = k then
                        { r with nodes_per_sec = r.nodes_per_sec /. 2.0 }
                      else r)
                    c.rows;
              })
          baseline.circuits;
    }
  in
  let findings = diff ~baseline ~current in
  check_bool "throughput drop is not a failure" true (not (has_failures findings));
  check_bool "throughput drop is warned" true
    (List.exists
       (fun f -> f.severity = Warn && f.circuit = circuit && f.k = Some k)
       findings)

(* Rewrite one (circuit, k) row of [t] through [f]. *)
let map_row t ~circuit ~k f =
  let open Advbist.Bench_snapshot in
  {
    t with
    circuits =
      List.map
        (fun (c : circuit) ->
          if c.circuit <> circuit then c
          else
            {
              c with
              rows = List.map (fun (r : row) -> if r.k = k then f r else r) c.rows;
            })
        t.circuits;
  }

(* A >20% node-count move between two finished searches must be warned,
   and when both rows carry v5 prune attribution the warning must name
   the reason whose share moved most. *)
let test_bench_diff_localizes_node_regression () =
  let open Advbist.Bench_snapshot in
  let committed = load_committed_snapshot () in
  let circuit, k =
    match
      List.find_map
        (fun (c : circuit) ->
          List.find_map
            (fun (r : row) ->
              if r.optimal && r.nodes > 0 then Some (c.circuit, r.k) else None)
            c.rows)
        committed.circuits
    with
    | Some pick -> pick
    | None -> Alcotest.fail "no committed row is optimal with nodes > 0"
  in
  let baseline =
    map_row committed ~circuit ~k (fun r ->
        { r with prune_shares = [ ("probed", 80.0); ("cutoff", 20.0) ] })
  in
  let current =
    map_row committed ~circuit ~k (fun r ->
        {
          r with
          nodes = r.nodes * 2;
          prune_shares = [ ("probed", 40.0); ("cutoff", 60.0) ];
        })
  in
  let findings = diff ~baseline ~current in
  check_bool "node-count move is a warn, not a fail" true
    (not (has_failures findings));
  let warn =
    List.find_opt
      (fun f ->
        f.severity = Warn && f.circuit = circuit && f.k = Some k
        && contains_sub f.what "node count")
      findings
  in
  match warn with
  | None -> Alcotest.fail "no node-count warning emitted"
  | Some f ->
      check_bool "warning names the shifted prune reason" true
        (contains_sub f.what "cutoff share 20% -> 60%")

(* A waste_pct jump of more than 10 points of the tree is its own warn. *)
let test_bench_diff_flags_waste_growth () =
  let open Advbist.Bench_snapshot in
  let committed = load_committed_snapshot () in
  let circuit, k =
    match committed.circuits with
    | c :: _ -> (c.circuit, (List.hd c.rows).k)
    | [] -> Alcotest.fail "committed snapshot has no circuits"
  in
  let baseline =
    map_row committed ~circuit ~k (fun r -> { r with waste_pct = Some 3.0 })
  in
  let current =
    map_row committed ~circuit ~k (fun r -> { r with waste_pct = Some 25.0 })
  in
  let findings = diff ~baseline ~current in
  check_bool "waste growth is a warn, not a fail" true
    (not (has_failures findings));
  check_bool "waste growth is warned" true
    (List.exists
       (fun f ->
         f.severity = Warn && f.circuit = circuit && f.k = Some k
         && contains_sub f.what "wasted work")
       findings)

(* A post-mortem row with zero prunes must still render an explicit
   (empty) prune_shares map — the v5 writer dropped the field, leaving
   readers unable to tell "no prunes" from "no post-mortem" (the shape
   the committed paulin k=3 row had). *)
let test_bench_snapshot_emits_empty_prune_shares () =
  let open Advbist.Bench_snapshot in
  let committed = load_committed_snapshot () in
  let circuit, k =
    match committed.circuits with
    | c :: _ -> (c.circuit, (List.hd c.rows).k)
    | [] -> Alcotest.fail "committed snapshot has no circuits"
  in
  let t =
    map_row committed ~circuit ~k (fun r ->
        { r with waste_pct = Some 7.5; prune_shares = [] })
  in
  let rendered = to_string t in
  check_bool "zero-prune post-mortem row carries an explicit empty map" true
    (contains_sub rendered "\"prune_shares\": {}");
  match of_string rendered with
  | Error msg -> Alcotest.failf "rendered snapshot does not parse: %s" msg
  | Ok t' ->
      check_bool "empty map parses back as the empty share list" true
        (List.for_all
           (fun (c : circuit) ->
             List.for_all
               (fun (r : row) ->
                 c.circuit <> circuit || r.k <> k || r.prune_shares = [])
               c.rows)
           t'.circuits)

(* v6 conflict counters survive a render/parse round trip, and a >20%
   conflicts-per-node increase on a measured baseline is warned (never a
   failure: density shifts explain regressions, they do not gate). *)
let test_bench_diff_flags_conflict_density () =
  let open Advbist.Bench_snapshot in
  let committed = load_committed_snapshot () in
  let circuit, k =
    match
      List.find_map
        (fun (c : circuit) ->
          List.find_map
            (fun (r : row) -> if r.nodes > 0 then Some (c.circuit, r.k) else None)
            c.rows)
        committed.circuits
    with
    | Some pick -> pick
    | None -> Alcotest.fail "no committed row has nodes > 0"
  in
  let with_counters density =
    map_row committed ~circuit ~k (fun r ->
        {
          r with
          conflicts = int_of_float (float_of_int r.nodes *. density);
          learned = 17;
          deleted = 3;
        })
  in
  let baseline = with_counters 0.10 in
  (match of_string (to_string baseline) with
  | Error msg -> Alcotest.failf "v6 snapshot does not parse: %s" msg
  | Ok t' ->
      check_bool "conflict counters round-trip" true
        (List.exists
           (fun (c : circuit) ->
             List.exists
               (fun (r : row) ->
                 c.circuit = circuit && r.k = k && r.learned = 17
                 && r.deleted = 3)
               c.rows)
           t'.circuits));
  let current = with_counters 0.15 in
  let findings = diff ~baseline ~current in
  check_bool "conflict-density growth is a warn, not a fail" true
    (not (has_failures findings));
  check_bool "conflict-density growth is warned" true
    (List.exists
       (fun f ->
         f.severity = Warn && f.circuit = circuit && f.k = Some k
         && contains_sub f.what "conflicts per node")
       findings);
  check_bool "matched density stays quiet" true
    (not
       (List.exists
          (fun f -> contains_sub f.what "conflicts per node")
          (diff ~baseline ~current:baseline)))

(* An unproved reference row is gated on its area summed over relabeled
   copies: a worse area on the shipped labels alone only warns, a total
   that rose by more than the baseline's per-seed spread fails (a
   smaller rise warns), and so does a missing total or one over other
   copies.  A proved reference keeps the exact-area gate, also when only
   the current snapshot proved it. *)
let test_bench_diff_relabeled_reference () =
  let open Advbist.Bench_snapshot in
  let committed = load_committed_snapshot () in
  (* total 50,000, per-seed spread 100 *)
  let totals =
    {
      seeds = [ 1; 2; 3 ];
      copies = 12;
      seed_totals = [ 16_600; 16_700; 16_700 ];
      measured_at = "a";
    }
  in
  let with_tseng t f =
    {
      t with
      circuits =
        List.map
          (fun (c : circuit) -> if c.circuit = "tseng" then f c else c)
          t.circuits;
    }
  in
  let baseline =
    with_tseng committed (fun c ->
        { c with reference_optimal = false; reference_relabeled = Some totals })
  in
  let current ~bump relabeled =
    with_tseng baseline (fun c ->
        {
          c with
          reference_area = c.reference_area + bump;
          reference_relabeled = relabeled;
        })
  in
  let tseng_ref severity findings =
    List.filter
      (fun f -> f.circuit = "tseng" && f.k = None && f.severity = severity)
      findings
  in
  let with_totals ts = Some { totals with seed_totals = ts; measured_at = "b" } in
  let lower = with_totals [ 16_536; 16_700; 16_700 ] in
  let findings = diff ~baseline ~current:(current ~bump:64 lower) in
  check_bool "single-path increase with a lower total passes" false
    (has_failures findings);
  check_int "single-path increase warns" 1
    (List.length (tseng_ref Warn findings));
  let fails ?(baseline = baseline) current =
    List.length (tseng_ref Fail (diff ~baseline ~current))
  in
  let within = current ~bump:0 (with_totals [ 16_664; 16_700; 16_700 ]) in
  check_int "rise within the per-seed spread passes" 0 (fails within);
  check_int "rise within the per-seed spread warns" 1
    (List.length (tseng_ref Warn (diff ~baseline ~current:within)));
  let higher = with_totals [ 16_728; 16_700; 16_700 ] in
  check_int "rise past the per-seed spread fails" 1
    (fails (current ~bump:0 higher));
  check_int "missing total fails" 1 (fails (current ~bump:0 None));
  let other = Some { totals with seeds = [ 4 ] } in
  check_int "total over other copies fails" 1 (fails (current ~bump:0 other));
  let now_proved bump =
    with_tseng (current ~bump None) (fun c -> { c with reference_optimal = true })
  in
  check_int "newly proved reference needs no total" 0 (fails (now_proved 0));
  check_int "newly proved reference gates its area" 1 (fails (now_proved 64));
  let proved =
    with_tseng baseline (fun c -> { c with reference_optimal = true })
  in
  let bumped =
    with_tseng proved (fun c ->
        { c with reference_area = c.reference_area + 64 })
  in
  check_int "proved reference keeps the exact gate" 1
    (fails ~baseline:proved bumped);
  match of_string (to_string (current ~bump:0 lower)) with
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg
  | Ok t ->
      check_bool "relabeled total round-trips" true
        (List.exists
           (fun (c : circuit) ->
             c.circuit = "tseng" && c.reference_relabeled = lower)
           t.circuits)

let () =
  Alcotest.run "advbist"
    [
      ( "parallel",
        [
          Alcotest.test_case "sweep determinism (tseng)" `Slow
            (test_parallel_sweep_deterministic "tseng");
          Alcotest.test_case "sweep determinism (paulin)" `Slow
            (test_parallel_sweep_deterministic "paulin");
          Alcotest.test_case "jobs 2..4 (fig1)" `Quick
            test_subtree_search_determinism;
          Alcotest.test_case "node-limited jobs 2..4 (tseng)" `Quick
            test_node_limited_subtree_search_jobs_invariant;
          Alcotest.test_case "cross-k seeding (fig1)" `Quick
            test_sweep_cross_k_seeding;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "structural bound sound" `Slow
            test_objective_lower_bound_sound;
          Alcotest.test_case "gap uses structural bound" `Quick
            test_gap_uses_structural_bound;
          Alcotest.test_case "synthesis runs LP-free" `Quick
            test_synthesis_runs_lp_free;
          Alcotest.test_case "explain learned = Stats.learned" `Quick
            test_explain_learned_matches_stats;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "stats" `Quick test_encoding_stats;
          Alcotest.test_case "bad inputs" `Quick test_encoding_rejects_bad_inputs;
          Alcotest.test_case "synthesize rejects k < 1" `Quick
            test_synthesize_rejects_k_below_1;
          Alcotest.test_case "empty DFG overhead is finite" `Quick
            test_empty_dfg_overhead_finite;
          Alcotest.test_case "symmetry fixing" `Quick
            test_encoding_symmetry_fixes_clique;
          Alcotest.test_case "lp export" `Quick test_lp_export_of_encoding;
          Alcotest.test_case "presolve keeps names" `Quick
            test_presolve_keeps_names;
        ] );
      ( "warm_start",
        [
          Alcotest.test_case "vector of plan" `Quick test_vector_of_plan_feasible;
          Alcotest.test_case "vector of plan relabels sessions" `Quick
            test_vector_of_plan_relabels_sessions;
          Alcotest.test_case "vector of netlist" `Quick
            test_vector_of_netlist_reference;
          Alcotest.test_case "whole-suite roundtrip" `Quick
            test_vector_roundtrip_whole_suite;
        ] );
      ( "session_opt",
        [
          Alcotest.test_case "respects wires" `Quick test_session_opt_respects_wires;
          Alcotest.test_case "k monotone" `Quick test_session_opt_k_monotone;
          Alcotest.test_case "matches brute force" `Quick
            test_session_opt_matches_brute_force;
        ] );
      ( "engines",
        [
          Alcotest.test_case "BIST optima agree" `Quick test_engines_agree_fig1;
          Alcotest.test_case "reference optima agree" `Quick
            test_reference_engines_agree;
          Alcotest.test_case "symmetry ablation" `Quick
            test_symmetry_does_not_change_optimum;
        ] );
      ( "audits",
        [
          Alcotest.test_case "functional simulation" `Quick
            test_synthesized_datapath_simulates;
          Alcotest.test_case "k sweep" `Quick test_sweep_fig1;
        ] );
      ( "constants",
        [
          Alcotest.test_case "dedicated TPG" `Quick
            test_constant_port_gets_dedicated_tpg;
          Alcotest.test_case "commutativity" `Quick
            test_commutativity_avoids_constant_tpg;
        ] );
      ( "random_cross_validation",
        List.map QCheck_alcotest.to_alcotest
          [ prop_engines_agree_random; prop_synthesized_simulates_random ] );
      ( "bench_snapshot",
        [
          Alcotest.test_case "parse committed snapshot" `Quick
            test_bench_snapshot_parse_committed;
          Alcotest.test_case "v6 round-trip fixpoint" `Quick
            test_bench_snapshot_roundtrip;
          Alcotest.test_case "self-diff is clean" `Quick
            test_bench_diff_self_clean;
          Alcotest.test_case "area regression flagged" `Quick
            test_bench_diff_flags_area_regression;
          Alcotest.test_case "throughput drop warned" `Quick
            test_bench_diff_flags_throughput_drop;
          Alcotest.test_case "node regression localized to prune reason" `Quick
            test_bench_diff_localizes_node_regression;
          Alcotest.test_case "waste growth warned" `Quick
            test_bench_diff_flags_waste_growth;
          Alcotest.test_case "zero-prune rows emit empty prune_shares" `Quick
            test_bench_snapshot_emits_empty_prune_shares;
          Alcotest.test_case "conflict density round-trips and warns" `Quick
            test_bench_diff_flags_conflict_density;
          Alcotest.test_case "unproved reference gated on relabeled total"
            `Quick test_bench_diff_relabeled_reference;
        ] );
    ]
