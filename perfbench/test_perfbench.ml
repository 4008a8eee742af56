(* Tests of the benchmark's own code: the seeded relabeling and the
   failure accounting. *)

open Perfbench

let circuits = Circuits.Suite.all @ Circuits.Suite.extras

let relabeled ?(copy = 0) ~seed name p =
  match Relabel.relabel ~seed ~copy ~name p with
  | Ok p' -> p'
  | Error msg -> Alcotest.failf "%s seed %d: %s" name seed msg

let test_identity () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " seed 0") true (relabeled ~seed:0 name p == p))
    circuits

(* Every relabeling is a valid problem with the same operation kinds,
   sizes and module kinds; the same seed gives the same copy. *)
let test_valid () =
  List.iter
    (fun (name, (p : Dfg.Problem.t)) ->
      for seed = 1 to 5 do
        let p' = relabeled ~seed name p in
        let label = Printf.sprintf "%s seed %d" name seed in
        let g = p.dfg and g' = p'.Dfg.Problem.dfg in
        Alcotest.(check bool) (label ^ " op kinds") true
          (Relabel.op_kinds p' = Relabel.op_kinds p);
        Alcotest.(check int) (label ^ " vars") (Dfg.Graph.n_vars g) (Dfg.Graph.n_vars g');
        Alcotest.(check int) (label ^ " steps") g.n_steps g'.Dfg.Graph.n_steps;
        Alcotest.(check int) (label ^ " min registers")
          (Dfg.Problem.min_registers p) (Dfg.Problem.min_registers p');
        Alcotest.(check (list string)) (label ^ " module kinds")
          (List.sort compare
             (Array.to_list (Array.map (fun f -> f.Dfg.Fu_kind.fu_name) p.modules)))
          (List.sort compare
             (Array.to_list
                (Array.map (fun f -> f.Dfg.Fu_kind.fu_name) p'.Dfg.Problem.modules)));
        Alcotest.(check bool) (label ^ " repeats") true (relabeled ~seed name p = p')
      done)
    circuits

(* Seeds and copies must actually move ids, or the workloads measure one
   path. *)
let test_moves () =
  let p = Dfg.Benchmarks.paulin in
  let copy0 = relabeled ~seed:1 "paulin" p in
  Alcotest.(check bool) "seed 1 differs" true (copy0 <> p);
  Alcotest.(check bool) "copy 1 differs" true
    (relabeled ~copy:1 ~seed:1 "paulin" p <> copy0);
  Alcotest.(check bool) "seed 0 copy 1 is the identity" true
    (relabeled ~copy:1 ~seed:0 "paulin" p == p)

(* A relabeled copy keeps its proved optimum and its designs pass the
   independent audit. *)
let test_optimum_kept () =
  List.iter
    (fun seed ->
      let p = relabeled ~seed "tseng" Dfg.Benchmarks.tseng in
      match Advbist.Synth.reference p with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check bool) "proved" true r.ref_optimal;
          Alcotest.(check (option int)) "tseng reference optimum"
            (Expected.optimum ~circuit:"tseng" ~k:0) (Some r.ref_area);
          Alcotest.(check bool) "audit" true
            (Ledger.audit_reference p r.ref_netlist ~area:r.ref_area = Ok ()))
    [ 0; 1; 2 ]

let test_ledger () =
  let l = Ledger.create () in
  Ledger.record l ~label:"a" [];
  Ledger.record l ~label:"b" [ "x"; "y" ];
  Ledger.record l ~label:"c" [ "z" ];
  Alcotest.(check int) "attempted" 3 l.attempted;
  Alcotest.(check int) "failed" 2 l.failed;
  Alcotest.(check (list string)) "messages" [ "c: z"; "b: x; y" ] l.messages

let problems ?(must_prove = false) ?(proved = false) ?(time_s = 1.0) circuit k
    area =
  List.length
    (Ledger.design_problems ~circuit ~k ~must_prove ~proved ~time_s area)

let test_design_rules () =
  Alcotest.(check int) "proved optimum" 0 (problems ~proved:true "tseng" 2 2016);
  Alcotest.(check int) "wrong proved optimum" 1
    (problems ~proved:true "tseng" 2 2024);
  Alcotest.(check int) "unproved above optimum" 0 (problems "tseng" 2 2100);
  Alcotest.(check int) "below optimum" 1 (problems "tseng" 2 2000);
  Alcotest.(check int) "unknown optimum" 0 (problems ~proved:true "fir6" 1 10);
  Alcotest.(check int) "must prove" 1 (problems ~must_prove:true "tseng" 1 2144);
  Alcotest.(check int) "time guard" 1
    (problems ~time_s:Ledger.guard_s "fir6" 1 3000)

(* The audit catches a design whose reported area is wrong, and a plan
   for the wrong session count. *)
let test_audit_catches () =
  let p = Dfg.Benchmarks.tseng in
  match Advbist.Heuristic.synthesize p ~k:2 with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      let area = Bist.Plan.area o.plan in
      Alcotest.(check bool) "true area" true
        (Ledger.audit_plan p o.plan ~k:2 ~area = Ok ());
      Alcotest.(check bool) "wrong area" true
        (Result.is_error (Ledger.audit_plan p o.plan ~k:2 ~area:(area - 1)));
      Alcotest.(check bool) "wrong k" true
        (Result.is_error (Ledger.audit_plan p o.plan ~k:3 ~area))

(* The design digest of the determinism and jobs-invariance checks sees
   the bindings, not only the area. *)
let test_shape () =
  let p = Dfg.Benchmarks.tseng in
  match (Advbist.Heuristic.synthesize p ~k:1, Advbist.Heuristic.synthesize p ~k:2) with
  | Error msg, _ | _, Error msg -> Alcotest.fail msg
  | Ok a, Ok b ->
      let shape (o : Advbist.Session_opt.outcome) =
        Bench.shape ~plan:o.plan o.plan.Bist.Plan.netlist
      in
      let d = a.plan.Bist.Plan.netlist in
      Alcotest.(check string) "repeats" (shape a) (shape a);
      Alcotest.(check bool) "plan bindings count" true (shape a <> Bench.shape d);
      Alcotest.(check bool) "sessions count" true (shape a <> shape b)

let () =
  Alcotest.run "perfbench"
    [
      ( "relabel",
        [
          Alcotest.test_case "seed 0 is the identity" `Quick test_identity;
          Alcotest.test_case "valid isomorphic copies" `Quick test_valid;
          Alcotest.test_case "ids move" `Quick test_moves;
          Alcotest.test_case "optimum kept" `Quick test_optimum_kept;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "counts" `Quick test_ledger;
          Alcotest.test_case "design rules" `Quick test_design_rules;
          Alcotest.test_case "audit catches" `Quick test_audit_catches;
          Alcotest.test_case "design digest" `Quick test_shape;
        ] );
    ]
