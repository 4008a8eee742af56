(* Tests for the DFG substrate: graph construction, validation, lifetimes,
   compatibility, horizontal crossing, parsing, benchmarks.  The fig1 facts
   come straight from Section 2 of the paper. *)

let fig1 = Dfg.Benchmarks.fig1
let g1 = fig1.Dfg.Problem.dfg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Graph structure ----------------------------------------------------- *)

let test_fig1_sets () =
  check_int "n_vars" 8 (Dfg.Graph.n_vars g1);
  check_int "n_ops" 4 (Dfg.Graph.n_ops g1);
  check_int "n_steps" 3 g1.Dfg.Graph.n_steps;
  check_int "boundaries" 4 (Dfg.Graph.n_boundaries g1);
  (* Ei from the paper, with paper op ids 8..11 = our 0..3. *)
  let ei = Dfg.Graph.e_i g1 in
  let expected =
    [ (0, 0, 0); (1, 0, 1); (3, 1, 0); (4, 1, 1); (4, 2, 0); (2, 2, 1);
      (5, 3, 0); (6, 3, 1) ]
  in
  Alcotest.(check (list (triple int int int)))
    "Ei" (List.sort compare expected)
    (List.sort compare ei);
  let eo = Dfg.Graph.e_o g1 in
  Alcotest.(check (list (pair int int)))
    "Eo" [ (0, 4); (1, 5); (2, 6); (3, 7) ] eo;
  Alcotest.(check (list int)) "constants" [] (Dfg.Graph.constants g1)

let test_fig1_uses () =
  Alcotest.(check (list (pair int int)))
    "uses of v4" [ (1, 1); (2, 0) ] (Dfg.Graph.uses_of g1 4);
  Alcotest.(check (list (pair int int)))
    "uses of v7" [] (Dfg.Graph.uses_of g1 7);
  Alcotest.(check (list int)) "primary inputs" [ 0; 1; 2; 3 ]
    (Dfg.Graph.primary_inputs g1);
  Alcotest.(check (list int)) "primary outputs" [ 7 ]
    (Dfg.Graph.primary_outputs g1)

let test_validation_catches_errors () =
  let bad_step =
    Dfg.Graph.v ~name:"bad" ~n_steps:1
      [| { Dfg.Graph.var_name = "x"; def = Dfg.Graph.Primary_input };
         { Dfg.Graph.var_name = "y"; def = Dfg.Graph.Output_of 0 } |]
      [| { Dfg.Graph.kind = Dfg.Op_kind.Add; step = 3;
           inputs = [| Dfg.Graph.Var 0; Dfg.Graph.Var 0 |]; output = 1 } |]
  in
  check_bool "bad step rejected" true (Result.is_error bad_step);
  let bad_dep =
    (* op 1 at step 0 reads the output of op 0 at step 0: impossible. *)
    Dfg.Graph.v ~name:"bad" ~n_steps:1
      [| { Dfg.Graph.var_name = "x"; def = Dfg.Graph.Primary_input };
         { Dfg.Graph.var_name = "y"; def = Dfg.Graph.Output_of 0 };
         { Dfg.Graph.var_name = "z"; def = Dfg.Graph.Output_of 1 } |]
      [| { Dfg.Graph.kind = Dfg.Op_kind.Add; step = 0;
           inputs = [| Dfg.Graph.Var 0; Dfg.Graph.Var 0 |]; output = 1 };
         { Dfg.Graph.kind = Dfg.Op_kind.Add; step = 0;
           inputs = [| Dfg.Graph.Var 1; Dfg.Graph.Var 0 |]; output = 2 } |]
  in
  check_bool "bad dependence rejected" true (Result.is_error bad_dep);
  let wrong_def =
    Dfg.Graph.v ~name:"bad" ~n_steps:1
      [| { Dfg.Graph.var_name = "x"; def = Dfg.Graph.Primary_input };
         { Dfg.Graph.var_name = "y"; def = Dfg.Graph.Primary_input } |]
      [| { Dfg.Graph.kind = Dfg.Op_kind.Add; step = 0;
           inputs = [| Dfg.Graph.Var 0; Dfg.Graph.Var 0 |]; output = 1 } |]
  in
  check_bool "wrong def rejected" true (Result.is_error wrong_def)

(* -- Lifetimes ----------------------------------------------------------- *)

let lt1 = Dfg.Lifetime.compute g1

let test_fig1_lifetimes () =
  let check_iv v exp =
    Alcotest.(check (pair int int))
      (Printf.sprintf "interval v%d" v)
      exp (Dfg.Lifetime.interval lt1 v)
  in
  check_iv 0 (0, 0);
  check_iv 1 (0, 0);
  check_iv 2 (1, 1);
  (* just-in-time load at its only use step *)
  check_iv 3 (1, 1);
  check_iv 4 (1, 1);
  check_iv 5 (2, 2);
  check_iv 6 (2, 2);
  check_iv 7 (3, 3)

let test_fig1_register_assignment_valid () =
  (* The paper's assignment R0={0,4}, R1={1,3,6}, R2={2,5,7} must be made of
     pairwise-compatible variables. *)
  let regs = [ [ 0; 4 ]; [ 1; 3; 6 ]; [ 2; 5; 7 ] ] in
  List.iter
    (fun vars ->
      List.iter
        (fun v ->
          List.iter
            (fun w ->
              check_bool
                (Printf.sprintf "compatible %d %d" v w)
                true
                (Dfg.Lifetime.compatible lt1 v w))
            vars)
        vars)
    regs

let test_fig1_crossing () =
  check_int "crossing b0" 2 (Dfg.Lifetime.crossing lt1 0);
  check_int "crossing b1" 3 (Dfg.Lifetime.crossing lt1 1);
  check_int "crossing b2" 2 (Dfg.Lifetime.crossing lt1 2);
  check_int "crossing b3" 1 (Dfg.Lifetime.crossing lt1 3);
  check_int "min registers (paper: three)" 3 (Dfg.Lifetime.min_registers lt1)

let test_fig1_min_modules () =
  let mins =
    Dfg.Lifetime.min_modules g1 [ Dfg.Fu_kind.adder; Dfg.Fu_kind.multiplier ]
  in
  Alcotest.(check (list int))
    "one adder, one multiplier (paper: two modules)" [ 1; 1 ]
    (List.map snd mins)

let test_incompatibility () =
  (* v4 and v3 are both alive at boundary 1. *)
  check_bool "v3/v4 incompatible" false (Dfg.Lifetime.compatible lt1 3 4);
  check_bool "v reflexive-compatible" true (Dfg.Lifetime.compatible lt1 4 4)

let test_max_clique () =
  let clique = Dfg.Lifetime.max_clique lt1 in
  check_int "max clique size" 3 (List.length clique);
  Alcotest.(check (list int)) "clique is boundary-1 vars" [ 2; 3; 4 ] clique

(* -- Benchmarks ---------------------------------------------------------- *)

let test_tseng_counts () =
  let p = Dfg.Benchmarks.tseng in
  let lt = Dfg.Lifetime.compute p.Dfg.Problem.dfg in
  check_int "tseng registers (Table 3: 5)" 5 (Dfg.Lifetime.min_registers lt);
  check_int "tseng modules (Table 3: 3)" 3 (Dfg.Problem.n_modules p)

let test_paulin_counts () =
  let p = Dfg.Benchmarks.paulin in
  let lt = Dfg.Lifetime.compute p.Dfg.Problem.dfg in
  check_int "paulin registers (Table 3: 5)" 5 (Dfg.Lifetime.min_registers lt);
  check_int "paulin modules (Table 3: 4)" 4 (Dfg.Problem.n_modules p);
  check_bool "paulin has constants" true
    (Dfg.Graph.constants p.Dfg.Problem.dfg <> [])

let test_problem_candidates () =
  let p = Dfg.Benchmarks.paulin in
  (* op 0 is a multiplication: modules 0 and 1. *)
  Alcotest.(check (list int)) "mul candidates" [ 0; 1 ]
    (Dfg.Problem.candidates p 0);
  (* the comparison op (index 6) only fits the ALUs (modules 2, 3). *)
  Alcotest.(check (list int)) "cmp candidates" [ 2; 3 ]
    (Dfg.Problem.candidates p 6)

let test_problem_rejects_bad_allocation () =
  check_bool "tseng with only an adder is rejected" true
    (Result.is_error
       (Dfg.Problem.make g1 [ Dfg.Fu_kind.adder ]));
  (* fig1 has no concurrent adds, but two concurrent ops at step 1 (one add,
     one mul): one adder + one mul works; a single ALU does not support
     mul. *)
  check_bool "fig1 single alu rejected" true
    (Result.is_error (Dfg.Problem.make g1 [ Dfg.Fu_kind.alu ]))

(* -- Parser round-trip --------------------------------------------------- *)

let test_parse_roundtrip () =
  List.iter
    (fun (p : Dfg.Problem.t) ->
      let g = p.Dfg.Problem.dfg in
      let s = Dfg.Parse.to_string g in
      match Dfg.Parse.of_string s with
      | Error msg -> Alcotest.failf "roundtrip %s: %s" g.Dfg.Graph.name msg
      | Ok g' ->
          check_int "same vars" (Dfg.Graph.n_vars g) (Dfg.Graph.n_vars g');
          check_int "same ops" (Dfg.Graph.n_ops g) (Dfg.Graph.n_ops g');
          check_int "same steps" g.Dfg.Graph.n_steps g'.Dfg.Graph.n_steps;
          Alcotest.(check (list (triple int int int)))
            "same Ei" (Dfg.Graph.e_i g) (Dfg.Graph.e_i g');
          Alcotest.(check (list (triple int int int)))
            "same const edges"
            (Dfg.Graph.const_edges g)
            (Dfg.Graph.const_edges g'))
    [ Dfg.Benchmarks.fig1; Dfg.Benchmarks.tseng; Dfg.Benchmarks.paulin ]

let test_parse_errors () =
  let bad = [ "(dfg)"; "(dfg (name x) (op add (step 0) (in a b) (out c)))";
              "(dfg (name x) (inputs a a))"; "(nope)"; "((";
              (* one op cannot fill 100000001 control steps: every step
                 but the last would be idle *)
              "(dfg (name x) (inputs a b) \
               (op add (step 100000000) (in a b) (out c)))" ] in
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Dfg.Parse.of_string s)))
    bad

let test_dot_export () =
  let dot = Dfg.Dot.to_string g1 in
  check_bool "mentions digraph" true
    (String.length dot > 20 && String.sub dot 0 8 = "digraph ");
  (* every op node appears *)
  List.iter
    (fun o ->
      let needle = Printf.sprintf "o%d [" o in
      let found =
        let rec search i =
          if i + String.length needle > String.length dot then false
          else if String.sub dot i (String.length needle) = needle then true
          else search (i + 1)
        in
        search 0
      in
      check_bool needle true found)
    [ 0; 1; 2; 3 ]

(* -- Op kinds ------------------------------------------------------------ *)

let test_op_kind_eval () =
  check_int "add wraps" 1 (Dfg.Op_kind.eval Dfg.Op_kind.Add ~width:8 255 2);
  check_int "sub wraps" 254 (Dfg.Op_kind.eval Dfg.Op_kind.Sub ~width:8 1 3);
  check_int "mul wraps" ((200 * 3) land 255)
    (Dfg.Op_kind.eval Dfg.Op_kind.Mul ~width:8 200 3);
  check_int "lt true" 1 (Dfg.Op_kind.eval Dfg.Op_kind.Lt ~width:8 3 200);
  check_int "lt false" 0 (Dfg.Op_kind.eval Dfg.Op_kind.Lt ~width:8 200 3)

let test_op_kind_names () =
  List.iter
    (fun k ->
      match Dfg.Op_kind.of_name (Dfg.Op_kind.name k) with
      | Some k' ->
          check_bool ("roundtrip " ^ Dfg.Op_kind.name k) true (Dfg.Op_kind.equal k k')
      | None -> Alcotest.failf "of_name failed for %s" (Dfg.Op_kind.name k))
    Dfg.Op_kind.all

(* -- Property-based ------------------------------------------------------ *)

(* Random scheduled DFGs: a chain/tree of ops over a few steps. *)
let gen_dfg =
  QCheck2.Gen.(
    let* n_inputs = int_range 2 5 in
    let* n_ops = int_range 1 10 in
    let* kinds =
      list_size (return n_ops)
        (oneofl [ Dfg.Op_kind.Add; Dfg.Op_kind.Sub; Dfg.Op_kind.Mul; Dfg.Op_kind.And ])
    in
    let* seeds = list_size (return (2 * n_ops)) (int_range 0 1000) in
    return (n_inputs, kinds, seeds))

let build_random (n_inputs, kinds, seeds) =
  let b = Dfg.Graph.Builder.create ~name:"rand" () in
  let seeds = Array.of_list seeds in
  let operands =
    ref (List.init n_inputs (fun i -> (Dfg.Graph.Builder.input b (Printf.sprintf "i%d" i), 0)))
  in
  let pick i =
    let arr = Array.of_list !operands in
    arr.(seeds.(i mod Array.length seeds) mod Array.length arr)
  in
  List.iteri
    (fun i k ->
      let a, sa = pick (2 * i) and c, sc = pick ((2 * i) + 1) in
      (* schedule after both sources are available *)
      let step = max sa sc in
      let out = Dfg.Graph.Builder.op b k ~step a c in
      operands := (out, step + 1) :: !operands)
    kinds;
  Dfg.Graph.Builder.build_exn b

let prop_crossing_consistent =
  QCheck2.Test.make ~name:"max crossing = max over boundaries" ~count:200
    gen_dfg (fun spec ->
      let g = build_random spec in
      let lt = Dfg.Lifetime.compute g in
      let explicit = ref 0 in
      for t = 0 to Dfg.Graph.n_boundaries g - 1 do
        explicit := max !explicit (List.length (Dfg.Lifetime.alive_on_boundary lt t))
      done;
      !explicit = Dfg.Lifetime.max_crossing lt)

let prop_compatible_symmetric =
  QCheck2.Test.make ~name:"compatibility is symmetric" ~count:200 gen_dfg
    (fun spec ->
      let g = build_random spec in
      let lt = Dfg.Lifetime.compute g in
      let nv = Dfg.Graph.n_vars g in
      let ok = ref true in
      for v = 0 to nv - 1 do
        for w = 0 to nv - 1 do
          if Dfg.Lifetime.compatible lt v w <> Dfg.Lifetime.compatible lt w v
          then ok := false
        done
      done;
      !ok)

let prop_compatible_matches_intervals =
  QCheck2.Test.make ~name:"compatible iff disjoint intervals" ~count:200
    gen_dfg (fun spec ->
      let g = build_random spec in
      let lt = Dfg.Lifetime.compute g in
      let nv = Dfg.Graph.n_vars g in
      let ok = ref true in
      for v = 0 to nv - 1 do
        for w = 0 to nv - 1 do
          if v <> w then begin
            let overlap = ref false in
            for t = 0 to Dfg.Graph.n_boundaries g - 1 do
              if Dfg.Lifetime.alive_at lt v t && Dfg.Lifetime.alive_at lt w t
              then overlap := true
            done;
            if Dfg.Lifetime.compatible lt v w = !overlap then ok := false
          end
        done
      done;
      !ok)

let prop_parse_roundtrip =
  QCheck2.Test.make ~name:"parser roundtrip on random DFGs" ~count:200 gen_dfg
    (fun spec ->
      let g = build_random spec in
      match Dfg.Parse.of_string (Dfg.Parse.to_string g) with
      | Error _ -> false
      | Ok g' ->
          Dfg.Graph.e_i g = Dfg.Graph.e_i g'
          && Dfg.Graph.e_o g = Dfg.Graph.e_o g'
          && g.Dfg.Graph.n_steps = g'.Dfg.Graph.n_steps)

(* Byte-level mutations of the shipped circuits' texts: overwrite, insert
   or delete a byte, the new bytes drawn from the format's own alphabet so
   most mutants stay close to parseable.  The parser must answer every
   mutant with [Ok] or [Error], and what it accepts keeps the step-count
   rule: no more control steps than operations. *)
let shipped_texts =
  Array.of_list
    (List.map
       (fun (_, p) -> Dfg.Parse.to_string p.Dfg.Problem.dfg)
       (Circuits.Suite.all @ Circuits.Suite.extras))

let gen_mutant =
  QCheck2.Gen.(
    let* text = oneofa shipped_texts in
    let byte = oneofa (Array.of_seq (String.to_seq "()#-0123456789 \n;abinoptuxz")) in
    let edit = triple (int_range 0 2) nat byte in
    let* edits = list_size (int_range 1 8) edit in
    return
      (List.fold_left
         (fun s (kind, pos, c) ->
           let n = String.length s in
           let i = if n = 0 then 0 else pos mod n in
           match kind with
           | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
           | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
           | _ when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
           | _ -> s)
         text edits))

let prop_parse_never_raises =
  QCheck2.Test.make ~name:"Parse.of_string never raises" ~count:1000
    ~print:Fun.id gen_mutant (fun text ->
      match Dfg.Parse.of_string text with
      | Error _ -> true
      | Ok g -> g.Dfg.Graph.n_steps <= max 1 (Dfg.Graph.n_ops g))

let prop_builder_validates =
  QCheck2.Test.make ~name:"builder output passes validation" ~count:200
    gen_dfg (fun spec ->
      let g = build_random spec in
      match
        Dfg.Graph.v ~name:"re" ~n_steps:g.Dfg.Graph.n_steps
          g.Dfg.Graph.variables g.Dfg.Graph.operations
      with
      | Ok _ -> true
      | Error _ -> false)

let () =
  Alcotest.run "dfg"
    [
      ( "graph",
        [
          Alcotest.test_case "fig1 sets" `Quick test_fig1_sets;
          Alcotest.test_case "fig1 uses" `Quick test_fig1_uses;
          Alcotest.test_case "validation" `Quick test_validation_catches_errors;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "fig1 intervals" `Quick test_fig1_lifetimes;
          Alcotest.test_case "fig1 paper assignment" `Quick
            test_fig1_register_assignment_valid;
          Alcotest.test_case "fig1 crossing" `Quick test_fig1_crossing;
          Alcotest.test_case "fig1 min modules" `Quick test_fig1_min_modules;
          Alcotest.test_case "incompatibility" `Quick test_incompatibility;
          Alcotest.test_case "max clique" `Quick test_max_clique;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "tseng counts" `Quick test_tseng_counts;
          Alcotest.test_case "paulin counts" `Quick test_paulin_counts;
          Alcotest.test_case "candidates" `Quick test_problem_candidates;
          Alcotest.test_case "bad allocation" `Quick
            test_problem_rejects_bad_allocation;
        ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "dot" `Quick test_dot_export;
        ] );
      ( "op_kind",
        [
          Alcotest.test_case "eval" `Quick test_op_kind_eval;
          Alcotest.test_case "names" `Quick test_op_kind_names;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_crossing_consistent;
            prop_compatible_symmetric;
            prop_compatible_matches_intervals;
            prop_parse_roundtrip;
            prop_parse_never_raises;
            prop_builder_validates;
          ] );
    ]
