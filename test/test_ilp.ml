(* Tests for the ILP substrate: expressions, model audit, branch & bound
   on known ILPs, brute-force cross-checks on random small models,
   LP-format output and parsing, telemetry, traces and replay. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Linexpr ------------------------------------------------------------- *)

let test_linexpr_algebra () =
  let open Ilp.Linexpr in
  let e = of_list [ (2, 1); (3, 0); (-2, 1); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "collapse" [ (3, 0); (1, 2) ] (terms e);
  check_int "coef present" 3 (coef e 0);
  check_int "coef absent" 0 (coef e 5);
  let f = add (var 0) (scale 2 (var 2)) in
  Alcotest.(check (list (pair int int)))
    "sum" [ (4, 0); (3, 2) ] (terms (add e f));
  check_bool "zero" true (is_zero (sub e e));
  check_int "n_terms" 2 (n_terms e)

let test_linexpr_pp () =
  let open Ilp.Linexpr in
  let s = Format.asprintf "%a" (pp ()) (of_list [ (1, 0); (-2, 1); (1, 3) ]) in
  Alcotest.(check string) "render" "x0 - 2 x1 + x3" s

(* [of_list] sorts and merges once; it must equal summing the terms one by
   one.  Few variables and small coefficients make duplicate variables and
   terms that cancel to zero common. *)
let prop_linexpr_of_list_matches_fold =
  QCheck2.Test.make ~name:"of_list = fold of add over the terms" ~count:500
    QCheck2.Gen.(
      list_size (int_range 0 12) (pair (int_range (-3) 3) (int_range 0 5)))
    (fun pairs ->
      let open Ilp.Linexpr in
      terms (of_list pairs)
      = terms
          (List.fold_left (fun acc (c, v) -> add acc (term c v)) zero pairs))

(* -- Model --------------------------------------------------------------- *)

let knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6  ==  min -(...) *)
  let m = Ilp.Model.create ~name:"knap" () in
  let a = Ilp.Model.bool_var m "a" in
  let b = Ilp.Model.bool_var m "b" in
  let c = Ilp.Model.bool_var m "c" in
  Ilp.Model.add_le m
    (Ilp.Linexpr.of_list [ (3, a); (4, b); (2, c) ])
    6;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list [ (-10, a); (-13, b); (-7, c) ]);
  (m, a, b, c)

let test_model_check () =
  let m, _, _, _ = knapsack () in
  check_bool "feasible point" true (Ilp.Model.check m [| 1; 0; 1 |] = Ok ());
  check_bool "infeasible point" true
    (Result.is_error (Ilp.Model.check m [| 1; 1; 1 |]));
  check_bool "bad arity" true (Result.is_error (Ilp.Model.check m [| 1; 1 |]));
  check_bool "out of bounds" true
    (Result.is_error (Ilp.Model.check m [| 2; 0; 0 |]));
  check_int "objective" (-17) (Ilp.Model.objective_value m [| 1; 0; 1 |])

(* Names are kept as printers and formatted only on demand: an unnamed
   row still reads [c<i>] (its insertion index) in a violation message,
   a named one its own name, and variable names read the same from the
   string and the printer API. *)
let test_model_check_names () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.bool_var m "x" in
  let y = Ilp.Model.var m ~lb:0 ~ub:1 (fun f -> Format.fprintf f "y_%d" 7) in
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (1, x); (1, y) ]) 2;
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (1, x); (1, y) ]) 1;
  Ilp.Model.add_ge m
    ~name:(fun f -> Format.fprintf f "cover_%s" "xy")
    (Ilp.Linexpr.of_list [ (1, x); (1, y) ])
    1;
  Ilp.Model.add_eq m (Ilp.Linexpr.var x) 0;
  Alcotest.(check string) "string name" "x" (Ilp.Model.var_name m x);
  Alcotest.(check string) "printer name" "y_7" (Ilp.Model.var_name m y);
  let violations x =
    match Ilp.Model.check m x with Ok () -> [] | Error msgs -> msgs
  in
  (* rows are checked newest first *)
  Alcotest.(check (list string))
    "unnamed rows read c<i>"
    [ "c3 violated: lhs = 1, rhs = 0"; "c1 violated: lhs = 2, rhs = 1" ]
    (violations [| 1; 1 |]);
  Alcotest.(check (list string))
    "named row"
    [ "cover_xy violated: lhs = 0, rhs = 1" ]
    (violations [| 0; 0 |]);
  Alcotest.(check (list string))
    "printer-named variable"
    [ "y_7 = 2 outside [0, 1]"; "c1 violated: lhs = 2, rhs = 1" ]
    (violations [| 0; 2 |]);
  Alcotest.(check (list string))
    "row names"
    [ "c0"; "c1"; "cover_xy"; "c3" ]
    (Array.to_list (Array.mapi Ilp.Model.constr_name (Ilp.Model.constraints m)))

(* -- Branch & bound ------------------------------------------------------ *)

let test_bb_knapsack () =
  let m, _, _, _ = knapsack () in
  let r = Ilp.Solver.solve m in
  check_bool "optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "objective (-20: b+c)" (-20)
    (Option.get r.Ilp.Solver.objective);
  match r.Ilp.Solver.solution with
  | Some x -> check_bool "b and c chosen" true (x.(1) = 1 && x.(2) = 1 && x.(0) = 0)
  | None -> Alcotest.fail "no solution"

let test_bb_assignment () =
  (* 3x3 assignment problem, cost matrix rows: [4 2 8; 4 3 7; 3 1 6].
     Optimum: x01 + x10 + x22? cost 2 + 4 + 6 = 12; alternative x02.. let the
     solver decide, optimal value is 12 (2,4,6) vs (4,3,6)=13, (8,3,3)=14;
     best is col order (1,0,2) -> 2+4+6 = 12. *)
  let cost = [| [| 4; 2; 8 |]; [| 4; 3; 7 |]; [| 3; 1; 6 |] |] in
  let m = Ilp.Model.create ~name:"assign" () in
  let x =
    Array.init 3 (fun i ->
        Array.init 3 (fun j ->
            Ilp.Model.bool_var m (Printf.sprintf "x%d%d" i j)))
  in
  for i = 0 to 2 do
    Ilp.Model.add_eq m
      (Ilp.Linexpr.sum (List.init 3 (fun j -> Ilp.Linexpr.var x.(i).(j))))
      1;
    Ilp.Model.add_eq m
      (Ilp.Linexpr.sum (List.init 3 (fun j -> Ilp.Linexpr.var x.(j).(i))))
      1
  done;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list
       (List.concat
          (List.init 3 (fun i ->
               List.init 3 (fun j -> (cost.(i).(j), x.(i).(j)))))));
  let r = Ilp.Solver.solve m in
  check_bool "optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "objective" 12 (Option.get r.Ilp.Solver.objective)

let test_bb_infeasible () =
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  let b = Ilp.Model.bool_var m "b" in
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, a); (1, b) ]) 2;
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (1, a); (1, b) ]) 1;
  let r = Ilp.Solver.solve m in
  check_bool "infeasible" true (r.Ilp.Solver.status = Ilp.Solver.Infeasible)

let test_bb_integer_vars () =
  (* min 3x + 4y st 2x + y >= 7, x + 3y >= 9, x,y in [0,10] integer.
     LP opt at intersection (2.4, 2.2); integer optimum: try x=3,y=2:
     2*3+2=8>=7, 3+6=9>=9, cost 17. x=2,y=3: 4+3=7, 2+9=11, cost 18.
     x=4,y=2 -> cost 20. x=3,y=2 = 17 wins; x=0,y=7 -> 28. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.int_var m ~lb:0 ~ub:10 "x" in
  let y = Ilp.Model.int_var m ~lb:0 ~ub:10 "y" in
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (2, x); (1, y) ]) 7;
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, x); (3, y) ]) 9;
  Ilp.Model.set_objective m (Ilp.Linexpr.of_list [ (3, x); (4, y) ]);
  let r = Ilp.Solver.solve m in
  check_bool "optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "objective" 17 (Option.get r.Ilp.Solver.objective)

let test_bb_warm_start () =
  let m, _, _, _ = knapsack () in
  let opts =
    { Ilp.Solver.default with Ilp.Solver.warm_start = Some [| 0; 1; 1 |] }
  in
  let r = Ilp.Solver.solve ~options:opts m in
  check_bool "optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "objective" (-20) (Option.get r.Ilp.Solver.objective)

let test_bb_node_limit () =
  let m, _, _, _ = knapsack () in
  let opts = { Ilp.Solver.default with Ilp.Solver.node_limit = Some 1 } in
  let r = Ilp.Solver.solve ~options:opts m in
  check_bool "stopped early" true
    (r.Ilp.Solver.status = Ilp.Solver.Feasible
    || r.Ilp.Solver.status = Ilp.Solver.Unknown
    || r.Ilp.Solver.status = Ilp.Solver.Optimal (* tiny model may finish *))

let test_bb_equality_propagation () =
  (* sum of 5 binaries = 1 with costs; optimal picks cheapest. *)
  let m = Ilp.Model.create () in
  let xs = Array.init 5 (fun i -> Ilp.Model.bool_var m (Printf.sprintf "x%d" i)) in
  Ilp.Model.add_eq m
    (Ilp.Linexpr.sum (Array.to_list (Array.map Ilp.Linexpr.var xs)))
    1;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list (Array.to_list (Array.mapi (fun i x -> (10 - i, x)) xs)));
  let r = Ilp.Solver.solve m in
  check_int "cheapest" 6 (Option.get r.Ilp.Solver.objective)

let test_bb_edge_cases () =
  (* empty model: vacuously optimal at objective 0 *)
  let m = Ilp.Model.create () in
  let r = Ilp.Solver.solve m in
  check_bool "empty model optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "empty objective" 0 (Option.get r.Ilp.Solver.objective);
  (* unconstrained variable: sits at the bound its cost prefers *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.int_var m ~lb:(-3) ~ub:9 "x" in
  Ilp.Model.set_objective m (Ilp.Linexpr.var x);
  let r = Ilp.Solver.solve m in
  check_int "lower bound chosen" (-3) (Option.get r.Ilp.Solver.objective);
  (* constraint with empty expression: 0 <= -1 infeasible, 0 <= 3 redundant *)
  let m = Ilp.Model.create () in
  let _ = Ilp.Model.bool_var m "a" in
  Ilp.Model.add_le m Ilp.Linexpr.zero (-1);
  check_bool "0 <= -1 infeasible" true
    ((Ilp.Solver.solve m).Ilp.Solver.status = Ilp.Solver.Infeasible);
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  Ilp.Model.add_le m Ilp.Linexpr.zero 3;
  Ilp.Model.set_objective m (Ilp.Linexpr.var a);
  check_int "0 <= 3 harmless" 0 (Option.get (Ilp.Solver.solve m).Ilp.Solver.objective)

let test_bb_negative_bounds () =
  (* integers spanning zero: min x + y st x - y >= -2, x,y in [-5,5]:
     optimum x=-5, y=-5 (0 >= -2 holds) -> -10 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.int_var m ~lb:(-5) ~ub:5 "x" in
  let y = Ilp.Model.int_var m ~lb:(-5) ~ub:5 "y" in
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, x); (-1, y) ]) (-2);
  Ilp.Model.set_objective m (Ilp.Linexpr.of_list [ (1, x); (1, y) ]);
  let r = Ilp.Solver.solve m in
  check_bool "optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_int "objective" (-10) (Option.get r.Ilp.Solver.objective);
  (* tighter: x - y >= 2 forces y <= x - 2: optimum x=-3, y=-5 -> -8 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.int_var m ~lb:(-5) ~ub:5 "x" in
  let y = Ilp.Model.int_var m ~lb:(-5) ~ub:5 "y" in
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, x); (-1, y) ]) 2;
  Ilp.Model.set_objective m (Ilp.Linexpr.of_list [ (1, x); (1, y) ]);
  check_int "objective tight" (-8)
    (Option.get (Ilp.Solver.solve m).Ilp.Solver.objective)

(* -- Brute-force cross-check on random models ---------------------------- *)

let gen_small_model =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* n_rows = int_range 1 6 in
    let* obj = list_size (return n) (int_range (-8) 8) in
    let* rows =
      list_size (return n_rows)
        (let* terms = list_size (return n) (int_range (-4) 4) in
         let* sense = oneofl [ Ilp.Model.Le; Ilp.Model.Ge; Ilp.Model.Eq ] in
         let* rhs = int_range (-4) 6 in
         return (terms, sense, rhs))
    in
    return (n, obj, rows))

let build_model (n, obj, rows) =
  let m = Ilp.Model.create ~name:"rand" () in
  let xs = Array.init n (fun i -> Ilp.Model.bool_var m (Printf.sprintf "x%d" i)) in
  List.iter
    (fun (terms, sense, rhs) ->
      let e =
        Ilp.Linexpr.of_list (List.mapi (fun i c -> (c, xs.(i))) terms)
      in
      (* Skip empty-expression equalities that are trivially (in)feasible;
         they are legal but uninteresting. *)
      Ilp.Model.add m e sense rhs)
    rows;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list (List.mapi (fun i c -> (c, xs.(i))) obj));
  m

let brute_force m =
  let n = Ilp.Model.n_vars m in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> (mask lsr i) land 1) in
    if Ilp.Model.check m x = Ok () then begin
      let obj = Ilp.Model.objective_value m x in
      match !best with
      | Some b when b <= obj -> ()
      | Some _ | None -> best := Some obj
    end
  done;
  !best

(* The one solver configuration against exhaustive enumeration: the
   only pruning is the propagation fixpoint, probing, the incumbent
   cutoff and learned nogoods, so each must land on the brute-force
   optimum (or agree the model is infeasible). *)
let prop_bb_matches_brute_force =
  QCheck2.Test.make ~name:"B&B = brute force on random 0-1 models" ~count:600
    gen_small_model (fun spec ->
      let m = build_model spec in
      let r = Ilp.Solver.solve m in
      match (brute_force m, r.Ilp.Solver.status) with
      | None, Ilp.Solver.Infeasible -> true
      | None, _ -> false
      | Some _, Ilp.Solver.Infeasible -> false
      | Some expect, Ilp.Solver.Optimal ->
          Option.get r.Ilp.Solver.objective = expect
      | Some _, (Ilp.Solver.Feasible | Ilp.Solver.Unknown) -> false)

(* -- Conflict learning --------------------------------------------------- *)

(* Soundness of the 1-UIP derivation itself: every nogood alive at the end
   of the search must hold at every 0-1 point that satisfies the model and
   beats the cutoff the nogood was derived under.  A violation here is a
   learned clause that cuts off a feasible improving solution — the one
   bug class that silently corrupts optima. *)
let prop_learned_nogoods_implied =
  QCheck2.Test.make
    ~name:"every learned nogood is implied by model + cutoff" ~count:200
    gen_small_model (fun spec ->
      let m = build_model spec in
      let _, learned = Ilp.Solver.solve_with_learned m in
      let n = Ilp.Model.n_vars m in
      List.for_all
        (fun (coefs, vars, rhs, cutoff_rhs) ->
          let violated = ref false in
          for mask = 0 to (1 lsl n) - 1 do
            let x = Array.init n (fun i -> (mask lsr i) land 1) in
            if
              Ilp.Model.check m x = Ok ()
              && Ilp.Model.objective_value m x <= cutoff_rhs
            then begin
              let lhs = ref 0 in
              Array.iteri (fun i v -> lhs := !lhs + (coefs.(i) * x.(v))) vars;
              if !lhs > rhs then violated := true
            end
          done;
          not !violated)
        learned)

(* Learned rows are clauses over bound literals of binary variables:
   coefficient +1 on an x >= 1 literal, -1 on an x <= 0 literal, and
   rhs = (number of +1 coefficients) - 1, violated exactly when every
   literal holds. *)
let prop_learned_rows_are_clauses =
  QCheck2.Test.make ~name:"every learned row is a +-1 clause on binaries"
    ~count:200 gen_small_model (fun spec ->
      let m = build_model spec in
      let _, learned = Ilp.Solver.solve_with_learned m in
      let lower = Ilp.Model.lower_bounds m
      and upper = Ilp.Model.upper_bounds m in
      List.for_all
        (fun (coefs, vars, rhs, _) ->
          Array.for_all (fun c -> c = 1 || c = -1) coefs
          && Array.for_all (fun v -> lower.(v) = 0 && upper.(v) = 1) vars
          && rhs
             = Array.fold_left (fun n c -> if c = 1 then n + 1 else n) 0 coefs
               - 1)
        learned)

(* A nogood that asserts three levels above its conflict.  Branching
   a, b, c, d low first, a = d = 0 forces y1 = y2 = y3 = 1 against
   y1 + y2 + y3 <= 2, while a = 0 alone propagates nothing: the first
   conflict comes at level 4 (d) and its 1-UIP nogood a + d >= 1 asserts
   d = 1 at level 1.  Undoing level 4 leaves that nogood unit, and it
   stays unit up to level 1, so the nodes in between re-assert d = 1
   before their next values instead of branching into d = 0 again.  The
   optimum must still be the brute-force one. *)
let test_reassert_after_backtrack () =
  let m = Ilp.Model.create ~name:"reassert" () in
  let v name = Ilp.Model.bool_var m name in
  let a = v "a" and b = v "b" and c = v "c" and d = v "d" in
  let ys = List.map v [ "y1"; "y2"; "y3" ] in
  List.iter
    (fun y ->
      Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, a); (1, d); (1, y) ]) 1)
    ys;
  Ilp.Model.add_le m (Ilp.Linexpr.sum (List.map Ilp.Linexpr.var ys)) 2;
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (1, b); (1, c); (1, d) ]) 2;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list
       ([ (3, a); (-1, b); (-1, c); (2, d) ] @ List.map (fun y -> (1, y)) ys));
  let ring = Ilp.Trace.ring () in
  let options =
    {
      Ilp.Solver.default with
      Ilp.Solver.branch_order = Some [ a; b; c; d ];
      trace = Some ring;
    }
  in
  let r = Ilp.Solver.solve ~options m in
  check_bool "a nogood asserts >= 2 levels above its conflict" true
    (List.exists
       (fun (_, e) ->
         match e with
         | Ilp.Trace.Conflict { depth; level; _ } ->
             level >= 0 && depth - level >= 2
         | _ -> false)
       (Ilp.Trace.events ring));
  check_bool "re-asserted literals" true
    (r.Ilp.Solver.stats.Ilp.Stats.reasserted > 0);
  check_bool "proved optimal" true (r.Ilp.Solver.status = Ilp.Solver.Optimal);
  check_bool "optimum = brute force" true
    (r.Ilp.Solver.objective = brute_force m)

(* -- Presolve ------------------------------------------------------------- *)

let test_presolve_detects_infeasible () =
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  Ilp.Model.add_ge m (Ilp.Linexpr.var a) 2;
  let m', stats = Ilp.Presolve.strengthen m in
  check_bool "infeasible" true stats.Ilp.Presolve.infeasible;
  check_bool "solver agrees" true
    ((Ilp.Solver.solve m').Ilp.Solver.status = Ilp.Solver.Infeasible)

let test_presolve_drops_redundant () =
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  let b = Ilp.Model.bool_var m "b" in
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (1, a); (1, b) ]) 5;
  (* always true *)
  let stats = Ilp.Presolve.analyze m in
  check_int "dropped" 1 stats.Ilp.Presolve.dropped_rows

let test_presolve_fixes_variables () =
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  let b = Ilp.Model.bool_var m "b" in
  Ilp.Model.add_ge m (Ilp.Linexpr.of_list [ (1, a); (1, b) ]) 2;
  (* both forced to 1 *)
  let stats = Ilp.Presolve.analyze m in
  check_int "fixed" 2 stats.Ilp.Presolve.fixed_vars

let test_presolve_strengthens () =
  (* 5a + b <= 5: maxact 6, d = 1, a_0 = 5 > 1: coefficient shrinks to d,
     giving a + b <= 1; feasible sets identical: (0,0),(0,1),(1,0). *)
  let m = Ilp.Model.create () in
  let a = Ilp.Model.bool_var m "a" in
  let b = Ilp.Model.bool_var m "b" in
  Ilp.Model.add_le m (Ilp.Linexpr.of_list [ (5, a); (1, b) ]) 5;
  let m', stats = Ilp.Presolve.strengthen m in
  check_int "strengthened" 1 stats.Ilp.Presolve.strengthened_coefs;
  let ok_points = [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |] ] in
  List.iter
    (fun x -> check_bool "still feasible" true (Ilp.Model.check m' x = Ok ()))
    ok_points;
  check_bool "still infeasible" true
    (Result.is_error (Ilp.Model.check m' [| 1; 1 |]))

let prop_presolve_preserves_feasible_set =
  QCheck2.Test.make ~name:"presolve preserves the 0-1 feasible set"
    ~count:300 gen_small_model (fun spec ->
      let m = build_model spec in
      let m', stats = Ilp.Presolve.strengthen m in
      let n = Ilp.Model.n_vars m in
      if stats.Ilp.Presolve.infeasible then brute_force m = None
      else begin
        let same = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          let x = Array.init n (fun i -> (mask lsr i) land 1) in
          let f1 = Ilp.Model.check m x = Ok () in
          let f2 = Ilp.Model.check m' x = Ok () in
          if f1 <> f2 then same := false
        done;
        !same
      end)

let prop_presolve_preserves_optimum =
  QCheck2.Test.make ~name:"presolve preserves the optimum" ~count:200
    gen_small_model (fun spec ->
      let m = build_model spec in
      let m', _ = Ilp.Presolve.strengthen m in
      let r = Ilp.Solver.solve m in
      let r' = Ilp.Solver.solve m' in
      match (r.Ilp.Solver.status, r'.Ilp.Solver.status) with
      | Ilp.Solver.Infeasible, Ilp.Solver.Infeasible -> true
      | Ilp.Solver.Optimal, Ilp.Solver.Optimal ->
          r.Ilp.Solver.objective = r'.Ilp.Solver.objective
      | _, _ -> false)

(* -- LP format ----------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_lp_format () =
  let m, _, _, _ = knapsack () in
  let s = Ilp.Lp_format.to_string m in
  check_bool "minimize" true (contains s "Minimize");
  check_bool "subject to" true (contains s "Subject To");
  check_bool "binary section" true (contains s "Binary");
  check_bool "constraint" true (contains s "3 a + 4 b + 2 c <= 6");
  check_bool "end" true (contains s "End")

let test_lp_parse_knapsack () =
  let src =
    {|\ a comment
Maximize
 obj: 10 a + 13 b + 7 c
Subject To
 cap: 3 a + 4 b + 2 c <= 6
Binary
 a
 b
 c
End
|}
  in
  match Ilp.Lp_parse.of_string src with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok { Ilp.Lp_parse.model; negated } ->
      check_bool "negated" true negated;
      check_int "3 vars" 3 (Ilp.Model.n_vars model);
      let r = Ilp.Solver.solve model in
      check_int "objective (-20, maximize 20)" (-20)
        (Option.get r.Ilp.Solver.objective)

let test_lp_parse_bounds_forms () =
  let src =
    {|Minimize
 obj: x + y + z
Subject To
 c1: x + y + z >= 4
Bounds
 1 <= x <= 5
 y >= 2
 z = 1
General
 x
 y
 z
End
|}
  in
  match Ilp.Lp_parse.of_string src with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok { Ilp.Lp_parse.model; negated } ->
      check_bool "not negated" false negated;
      let r = Ilp.Solver.solve model in
      (* x >= 1, y >= 2, z = 1: already sums to 4 *)
      check_int "objective" 4 (Option.get r.Ilp.Solver.objective)

let test_lp_parse_errors () =
  List.iter
    (fun src ->
      check_bool
        (Printf.sprintf "reject %s" (String.sub src 0 (min 25 (String.length src))))
        true
        (Result.is_error (Ilp.Lp_parse.of_string src)))
    [
      "";
      "Bounds
 x <= 3
End";
      "Minimize obj: 1.5 x
Subject To
 c: x <= 1
End";
      "Minimize obj: x
Subject To
 c: x
End";
      "Minimize obj: x
Subject To
 c: x <= y
End";
      "Minimize obj: 99999999999999999999 x
Subject To
 c: x <= 1
End";
      "Minimize obj: x
Subject To
 c: x >= 1
Bounds
 5 <= x <= 2
End";
    ]

let prop_lp_roundtrip =
  QCheck2.Test.make ~name:"LP write/parse/solve roundtrip" ~count:100
    gen_small_model (fun spec ->
      let m = build_model spec in
      let src = Ilp.Lp_format.to_string m in
      match Ilp.Lp_parse.of_string src with
      | Error _ -> false
      | Ok { Ilp.Lp_parse.model = m'; negated } ->
          (not negated)
          &&
          let r = Ilp.Solver.solve m in
          let r' = Ilp.Solver.solve m' in
          (match (r.Ilp.Solver.status, r'.Ilp.Solver.status) with
          | Ilp.Solver.Infeasible, Ilp.Solver.Infeasible -> true
          | Ilp.Solver.Optimal, Ilp.Solver.Optimal ->
              r.Ilp.Solver.objective = r'.Ilp.Solver.objective
          | _, _ -> false))

(* Structural round-trip: write/parse must reproduce the model itself, not
   only its optimum.  Variable indices may be permuted by the parser (it
   numbers by first appearance), so everything is compared through the
   name-based index mapping; zero coefficients are dropped on both sides
   since Linexpr canonicalizes them away. *)
let models_structurally_equal m m' =
  let n = Ilp.Model.n_vars m in
  let canon perm e =
    List.sort compare
      (List.filter_map
         (fun (c, v) -> if c = 0 then None else Some (c, perm v))
         (Ilp.Linexpr.terms e))
  in
  let id v = v in
  n = Ilp.Model.n_vars m'
  &&
  let by_name = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace by_name (Ilp.Model.var_name m' v) v
  done;
  let perm = Array.make n (-1) in
  let mapped = ref true in
  for v = 0 to n - 1 do
    match Hashtbl.find_opt by_name (Ilp.Model.var_name m v) with
    | Some v' -> perm.(v) <- v'
    | None -> mapped := false
  done;
  !mapped
  && (let ok = ref true in
      for v = 0 to n - 1 do
        if Ilp.Model.bounds m v <> Ilp.Model.bounds m' perm.(v) then
          ok := false
      done;
      !ok)
  && canon (fun v -> perm.(v)) (Ilp.Model.objective m)
     = canon id (Ilp.Model.objective m')
  &&
  let canon_constrs perm model =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun (c : Ilp.Model.constr) ->
              (canon perm c.Ilp.Model.expr, c.Ilp.Model.sense, c.Ilp.Model.rhs))
            (Ilp.Model.constraints model)))
  in
  canon_constrs (fun v -> perm.(v)) m = canon_constrs id m'

let gen_mixed_model =
  (* like gen_small_model but with general integer variables too, so the
     round-trip exercises the Bounds and General sections *)
  QCheck2.Gen.(
    let* spec = gen_small_model in
    let* n_ints = int_range 0 3 in
    let* int_bounds =
      list_size (return n_ints)
        (let* lb = int_range (-5) 2 in
         let* w = int_range 0 6 in
         return (lb, lb + w))
    in
    return (spec, int_bounds))

let build_mixed_model (spec, int_bounds) =
  let m = build_model spec in
  List.iteri
    (fun i (lb, ub) ->
      ignore (Ilp.Model.int_var m ~lb ~ub (Printf.sprintf "y%d" i)))
    int_bounds;
  m

let prop_lp_roundtrip_structural =
  QCheck2.Test.make ~name:"LP write/parse reproduces the model structurally"
    ~count:300 gen_mixed_model (fun spec ->
      let m = build_mixed_model spec in
      match Ilp.Lp_parse.of_string (Ilp.Lp_format.to_string m) with
      | Error _ -> false
      | Ok { Ilp.Lp_parse.model = m'; negated } ->
          (not negated) && models_structurally_equal m m')

(* Malformed input is an [Error], never an exception: random byte edits of
   a valid file (insert, delete, replace) and spliced-in digit runs too
   long for a native int must all come back as a result. *)
let gen_lp_edit =
  QCheck2.Gen.(
    let* kind = int_range 0 3 in
    let* pos = nat in
    let* byte = printable in
    let* digits = int_range 19 40 in
    return (kind, pos, byte, digits))

let apply_lp_edit src (kind, pos, byte, digits) =
  let n = String.length src in
  let i = pos mod (n + 1) in
  let before = String.sub src 0 i and after = String.sub src i (n - i) in
  match kind with
  | 0 -> before ^ String.make 1 byte ^ after
  | 1 when i < n -> before ^ String.sub src (i + 1) (n - i - 1)
  | 2 when i < n ->
      before ^ String.make 1 byte ^ String.sub src (i + 1) (n - i - 1)
  | _ -> before ^ " " ^ String.make digits '9' ^ after

let prop_lp_parse_never_raises =
  QCheck2.Test.make ~name:"LP parse of edited files returns a result"
    ~count:300
    QCheck2.Gen.(pair gen_small_model (list_size (int_range 1 4) gen_lp_edit))
    (fun (spec, edits) ->
      let src =
        List.fold_left apply_lp_edit
          (Ilp.Lp_format.to_string (build_model spec))
          edits
      in
      match Ilp.Lp_parse.of_string src with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "%s raised %s" src (Printexc.to_string e))

let test_lp_format_sanitize () =
  let m = Ilp.Model.create () in
  let _ = Ilp.Model.bool_var m "x[1,2]" in
  let _ = Ilp.Model.int_var m ~lb:(-3) ~ub:5 "0weird name" in
  Ilp.Model.set_objective m (Ilp.Linexpr.var 0);
  let s = Ilp.Lp_format.to_string m in
  check_bool "sanitized name used" true (contains s "x_1_2_");
  check_bool "general section" true (contains s "General")

(* -- Work-stealing parallel search ---------------------------------------- *)

let test_deques () =
  let d = Ilp.Pool.Deques.create ~owners:2 in
  check_int "owners" 2 (Ilp.Pool.Deques.owners d);
  Ilp.Pool.Deques.push d ~owner:0 1;
  Ilp.Pool.Deques.push d ~owner:0 2;
  Ilp.Pool.Deques.push d ~owner:0 3;
  check_bool "pop is LIFO" true (Ilp.Pool.Deques.pop d ~owner:0 = Some 3);
  check_bool "steal takes the oldest" true
    (Ilp.Pool.Deques.steal d ~thief:1 = Some (1, 0));
  check_bool "owner keeps the rest" true
    (Ilp.Pool.Deques.pop d ~owner:0 = Some 2);
  check_bool "empty pop" true (Ilp.Pool.Deques.pop d ~owner:0 = None);
  check_bool "empty steal" true (Ilp.Pool.Deques.steal d ~thief:1 = None);
  check_bool "thief never steals from itself" true
    (Ilp.Pool.Deques.push d ~owner:1 9;
     Ilp.Pool.Deques.steal d ~thief:1 = None);
  check_bool "other thief does" true
    (Ilp.Pool.Deques.steal d ~thief:0 = Some (9, 1))

let prop_parallel_matches_brute_force =
  QCheck2.Test.make
    ~name:"work-stealing solve = brute force, identical across jobs"
    ~count:60 gen_small_model (fun spec ->
      let m = build_model spec in
      let runs =
        List.map (fun jobs -> Ilp.Solver.solve ~jobs m) [ 2; 3; 4 ]
      in
      let r = List.hd runs in
      List.for_all
        (fun (r' : Ilp.Solver.outcome) ->
          r'.Ilp.Solver.status = r.Ilp.Solver.status
          && r'.Ilp.Solver.objective = r.Ilp.Solver.objective
          && r'.Ilp.Solver.solution = r.Ilp.Solver.solution)
        runs
      &&
      match (brute_force m, r.Ilp.Solver.status) with
      | None, Ilp.Solver.Infeasible -> true
      | Some expect, Ilp.Solver.Optimal ->
          Option.get r.Ilp.Solver.objective = expect
      | _ -> false)

(* -- Flat kernel cross-checks --------------------------------------------- *)

(* The model's rows as (terms, rhs) of `terms <= rhs`, normalized exactly
   as the solver does: Le as-is, Ge negated, Eq split positive-then-negated. *)
let normalized_rows m =
  List.concat_map
    (fun (c : Ilp.Model.constr) ->
      let terms = Ilp.Linexpr.terms c.Ilp.Model.expr in
      let neg = List.map (fun (a, v) -> (-a, v)) terms in
      let rhs = c.Ilp.Model.rhs in
      match c.Ilp.Model.sense with
      | Ilp.Model.Le -> [ (terms, rhs) ]
      | Ilp.Model.Ge -> [ (neg, -rhs) ]
      | Ilp.Model.Eq -> [ (terms, rhs); (neg, -rhs) ])
    (Array.to_list (Ilp.Model.constraints m))

(* The flat CSR kernel's incremental minimal activities must equal an
   independent recomputation from the boxed model: fold each normalized
   row's min activity directly from the bounds. *)
let prop_flat_min_activities =
  QCheck2.Test.make
    ~name:"flat min-activities = boxed recomputation under random fixings"
    ~count:300
    QCheck2.Gen.(pair gen_small_model (int_range 0 1_000_000))
    (fun (spec, seed) ->
      let m = build_model spec in
      let n = Ilp.Model.n_vars m in
      let rng = Random.State.make [| seed |] in
      let lower = Array.make n 0 and upper = Array.make n 1 in
      for v = 0 to n - 1 do
        match Random.State.int rng 3 with
        | 0 -> upper.(v) <- 0
        | 1 -> lower.(v) <- 1
        | _ -> ()
      done;
      let min_activity terms =
        List.fold_left
          (fun acc (c, v) ->
            acc + if c > 0 then c * lower.(v) else c * upper.(v))
          0 terms
      in
      let expect =
        Array.of_list
          (List.map (fun (terms, _) -> min_activity terms) (normalized_rows m))
      in
      Ilp.Solver.row_min_activities ~lower ~upper m = expect)

(* Bound propagation on general integers: variables over 0..5, each row
   on a random subset of them with coefficients +-1..+-4 and a random
   sense, plus a random narrowing (or fixing) of every domain.  Each
   right-hand side sits near the row's activity at a random point, most
   often on its feasible side, and most narrowings keep that point, so
   propagation tightens at least as often as it conflicts. *)
let gen_int_propagation_case =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* point = array_size (return n) (int_range 0 5) in
    let coef = map2 (fun m neg -> if neg then -m else m) (int_range 1 4) bool in
    let* rows =
      list_size (int_range 1 6)
        (let* terms = list_size (return n) (opt coef) in
         let* sense = oneofl [ Ilp.Model.Le; Ilp.Model.Ge; Ilp.Model.Eq ] in
         let* off =
           match sense with
           | Ilp.Model.Le -> int_range (-1) 6
           | Ilp.Model.Ge -> int_range (-6) 1
           | Ilp.Model.Eq -> return 0
         in
         let act =
           List.fold_left ( + ) 0
             (List.mapi
                (fun i c -> match c with Some c -> c * point.(i) | None -> 0)
                terms)
         in
         return (terms, sense, act + off))
    in
    let* doms =
      flatten_l
        (List.init n (fun i ->
             let p = point.(i) in
             oneof
               [
                 return (0, 5);
                 return (p, p);
                 map (fun x -> (x, x)) (int_range 0 5);
                 pair (int_range 0 p) (int_range p 5);
               ]))
    in
    return (n, rows, doms))

(* The reference fixpoint: sweep every normalized row, tightening each
   term against the row's slack, until a whole sweep moves no bound. *)
let reference_fixpoint m lower upper =
  let rows = normalized_rows m in
  let lb = Array.copy lower and ub = Array.copy upper in
  let exception Conflict in
  let sweep (terms, rhs) moved =
    let minact =
      List.fold_left
        (fun acc (a, v) -> acc + if a > 0 then a * lb.(v) else a * ub.(v))
        0 terms
    in
    let slack = rhs - minact in
    if slack < 0 then raise Conflict;
    List.fold_left
      (fun moved (a, v) ->
        if a > 0 && lb.(v) + (slack / a) < ub.(v) then begin
          ub.(v) <- lb.(v) + (slack / a);
          true
        end
        else if a < 0 && ub.(v) - (slack / -a) > lb.(v) then begin
          lb.(v) <- ub.(v) - (slack / -a);
          true
        end
        else moved)
      moved terms
  in
  try
    while List.fold_left (fun moved row -> sweep row moved) false rows do
      ()
    done;
    Some (lb, ub)
  with Conflict -> None

let int_propagation_model (n, rows, doms) =
  let m = Ilp.Model.create ~name:"intprop" () in
  let xs =
    Array.init n (fun i ->
        Ilp.Model.int_var m ~lb:0 ~ub:5 (Printf.sprintf "x%d" i))
  in
  List.iter
    (fun (terms, sense, rhs) ->
      let e =
        Ilp.Linexpr.of_list
          (List.filter_map Fun.id
             (List.mapi (fun i c -> Option.map (fun c -> (c, xs.(i))) c) terms))
      in
      Ilp.Model.add m e sense rhs)
    rows;
  (m, Array.of_list (List.map fst doms), Array.of_list (List.map snd doms))

(* The worklist kernel — incremental min-activities, the slack-span
   filter, the queue — must reach the same fixpoint (or the same conflict)
   as the naive re-sweep: bound propagation's fixpoint is unique. *)
let prop_fixpoint_matches_resweep =
  QCheck2.Test.make ~name:"propagation fixpoint = naive re-sweep" ~count:1000
    gen_int_propagation_case (fun case ->
      let m, lower, upper = int_propagation_model case in
      Ilp.Solver.propagate_bounds ~lower ~upper m
      = reference_fixpoint m lower upper)

(* The search never re-propagates every row: after a bound change it
   queues only the rows whose min-activity moved, and only those whose
   slack is still below their span.  Narrow one variable of a propagated
   fixpoint through that incremental path and the result must still be
   the naive re-sweep's fixpoint on the narrowed domains. *)
let prop_incremental_fixpoint_matches_resweep =
  QCheck2.Test.make ~name:"incremental fixpoint = naive re-sweep" ~count:1000
    QCheck2.Gen.(pair gen_int_propagation_case (triple nat nat nat))
    (fun (case, (pick, a, b)) ->
      let m, lower, upper = int_propagation_model case in
      match Ilp.Solver.propagate_bounds ~lower ~upper m with
      | None -> true
      | Some (lb, ub) ->
          let n = Array.length lb in
          (* prefer a variable the fixpoint left open *)
          let open_vars =
            List.filter (fun v -> lb.(v) < ub.(v)) (List.init n Fun.id)
          in
          let v =
            match open_vars with
            | [] -> pick mod n
            | l -> List.nth l (pick mod List.length l)
          in
          let lo = lb.(v) + (a mod (ub.(v) - lb.(v) + 1)) in
          let hi = lo + (b mod (ub.(v) - lo + 1)) in
          let lb' = Array.copy lb and ub' = Array.copy ub in
          lb'.(v) <- lo;
          ub'.(v) <- hi;
          Ilp.Solver.propagate_bounds ~lower ~upper ~fix:(v, lo, hi) m
          = reference_fixpoint m lb' ub')

(* The optimum must be invariant to the worker count: the sequential
   search (jobs 1) and the subtree search (jobs 3) reach the same status
   and objective.  Among equal-objective ties the two may return different
   solutions; the subtree searches' identical solutions are checked by
   the work-stealing property above. *)
let prop_jobs_invariant =
  QCheck2.Test.make ~name:"optimum invariant to worker count" ~count:60
    gen_small_model (fun spec ->
      let m = build_model spec in
      let run jobs = Ilp.Solver.solve ~jobs m in
      let r1 = run 1 in
      let r3 = run 3 in
      r3.Ilp.Solver.status = r1.Ilp.Solver.status
      && r3.Ilp.Solver.objective = r1.Ilp.Solver.objective
      &&
      match (brute_force m, r1.Ilp.Solver.status) with
      | None, Ilp.Solver.Infeasible -> true
      | Some expect, Ilp.Solver.Optimal ->
          Option.get r1.Ilp.Solver.objective = expect
      | _ -> false)

(* -- Stats & trace ------------------------------------------------------- *)

(* The 3x3 assignment model from test_bb_assignment, as a builder. *)
let assignment_model () =
  let cost = [| [| 4; 2; 8 |]; [| 4; 3; 7 |]; [| 3; 1; 6 |] |] in
  let m = Ilp.Model.create ~name:"assign" () in
  let x =
    Array.init 3 (fun i ->
        Array.init 3 (fun j ->
            Ilp.Model.bool_var m (Printf.sprintf "x%d%d" i j)))
  in
  for i = 0 to 2 do
    Ilp.Model.add_eq m
      (Ilp.Linexpr.sum (List.init 3 (fun j -> Ilp.Linexpr.var x.(i).(j))))
      1;
    Ilp.Model.add_eq m
      (Ilp.Linexpr.sum (List.init 3 (fun j -> Ilp.Linexpr.var x.(j).(i))))
      1
  done;
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list
       (List.concat
          (List.init 3 (fun i ->
               List.init 3 (fun j -> (cost.(i).(j), x.(i).(j)))))));
  m

(* Disjoint odd cycles: maximise the stable set.  The LP relaxation is
   half-integral on every cycle, and neither cover nor clique cuts close
   the gap, so the search genuinely branches — enough tree to populate
   the parallel frontier. *)
let odd_cycles_model ~cycles ~len () =
  let m = Ilp.Model.create ~name:"odd-cycles" () in
  let x =
    Array.init cycles (fun c ->
        Array.init len (fun i ->
            Ilp.Model.bool_var m (Printf.sprintf "c%dv%d" c i)))
  in
  for c = 0 to cycles - 1 do
    for i = 0 to len - 1 do
      Ilp.Model.add_le m
        Ilp.Linexpr.(add (var x.(c).(i)) (var x.(c).((i + 1) mod len)))
        1
    done
  done;
  (* minimise the negated size: the solver minimises *)
  Ilp.Model.set_objective m
    (Ilp.Linexpr.of_list
       (List.concat
          (List.init cycles (fun c ->
               List.init len (fun i -> (-1, x.(c).(i)))))));
  m

let test_stats_sequential () =
  let r = Ilp.Solver.solve (assignment_model ()) in
  let st = r.Ilp.Solver.stats in
  check_int "depth histogram sums to the node count" r.Ilp.Solver.nodes
    (Ilp.Stats.total_nodes st);
  check_bool "phases are non-negative" true
    (List.for_all (fun (_, s) -> s >= 0.0) (Ilp.Stats.phases st));
  check_bool "accounted time within wall clock (plus timer noise)" true
    (Ilp.Stats.accounted_s st <= r.Ilp.Solver.time_s +. 0.05);
  check_bool "incumbent curve ends at the optimum" true
    (match Ilp.Stats.primal_progress st with
    | [] -> false
    | curve ->
        let _, _, obj = List.nth curve (List.length curve - 1) in
        Some obj = r.Ilp.Solver.objective)

let test_stats_parallel_jobs_invariant () =
  let run jobs =
    Ilp.Solver.solve ~jobs (odd_cycles_model ~cycles:4 ~len:9 ())
  in
  let r2 = run 2 and r4 = run 4 in
  let s2 = r2.Ilp.Solver.stats and s4 = r4.Ilp.Solver.stats in
  check_bool "status/objective/solution identical" true
    (r2.Ilp.Solver.status = r4.Ilp.Solver.status
    && r2.Ilp.Solver.objective = r4.Ilp.Solver.objective
    && r2.Ilp.Solver.solution = r4.Ilp.Solver.solution);
  check_int "node count identical across jobs" r2.Ilp.Solver.nodes
    r4.Ilp.Solver.nodes;
  check_int "hist sum = nodes (jobs=2)" r2.Ilp.Solver.nodes
    (Ilp.Stats.total_nodes s2);
  check_int "hist sum = nodes (jobs=4)" r4.Ilp.Solver.nodes
    (Ilp.Stats.total_nodes s4);
  check_bool "depth histograms identical" true
    (Ilp.Stats.max_depth s2 = Ilp.Stats.max_depth s4
    &&
    let h2 = s2.Ilp.Stats.depth_hist and h4 = s4.Ilp.Stats.depth_hist in
    let len = max (Array.length h2) (Array.length h4) in
    let get h d = if d < Array.length h then h.(d) else 0 in
    List.for_all
      (fun d -> get h2 d = get h4 d)
      (List.init len (fun d -> d)));
  check_int "subtree count identical" s2.Ilp.Stats.subtrees
    s4.Ilp.Stats.subtrees;
  check_int "conflicts identical" s2.Ilp.Stats.conflicts
    s4.Ilp.Stats.conflicts;
  check_int "oversize nogoods identical" s2.Ilp.Stats.oversize
    s4.Ilp.Stats.oversize;
  check_int "nogood literals identical" s2.Ilp.Stats.nogood_lits
    s4.Ilp.Stats.nogood_lits;
  check_int "asserting nogoods identical" s2.Ilp.Stats.asserting
    s4.Ilp.Stats.asserting;
  check_int "re-asserted bound changes identical" s2.Ilp.Stats.reasserted
    s4.Ilp.Stats.reasserted;
  check_int "re-assertion closures identical" s2.Ilp.Stats.reassert_closed
    s4.Ilp.Stats.reassert_closed;
  (* the root phase is counted once, by the main domain, however many
     workers replay it *)
  check_int "propagation fixpoints identical" s2.Ilp.Stats.prop_fixpoints
    s4.Ilp.Stats.prop_fixpoints;
  check_int "propagation ticks identical" s2.Ilp.Stats.prop_ticks
    s4.Ilp.Stats.prop_ticks;
  check_int "probe trials identical" s2.Ilp.Stats.probe_trials
    s4.Ilp.Stats.probe_trials;
  check_bool "analysis completed nogoods" true
    (s4.Ilp.Stats.nogood_lits > 0);
  check_bool "the frontier actually spawned subtrees" true
    (s4.Ilp.Stats.subtrees > 0);
  check_int "workers recorded" 4 s4.Ilp.Stats.workers

(* The report is what lands in CI artifacts, so pin the conflict-engine
   line down to the numbers: counters verbatim, mean nogood size =
   nogood_lits / (learned + oversize), mean backjump = backjump_depth /
   asserting, and 0.0 when nothing conflicted. *)
let test_stats_pp_conflict_line () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let st = Ilp.Stats.create () in
  st.Ilp.Stats.conflicts <- 40;
  st.Ilp.Stats.learned <- 31;
  st.Ilp.Stats.deleted <- 7;
  st.Ilp.Stats.oversize <- 9;
  st.Ilp.Stats.nogood_lits <- 420;
  st.Ilp.Stats.backjumps <- 5;
  st.Ilp.Stats.backjump_depth <- 100;
  st.Ilp.Stats.asserting <- 25;
  st.Ilp.Stats.reasserted <- 12;
  st.Ilp.Stats.reassert_closed <- 3;
  let out = Format.asprintf "%a" (Ilp.Stats.pp ?time_s:None) st in
  check_bool "conflict-engine line renders the counters" true
    (contains out
       ~needle:
         "conflict engine: 40 conflicts, 31 learned, 7 deleted, 9 oversize, \
          mean size 10.5, avg backjump 4.0, 12 reasserted, 3 reassert-closed");
  let quiet = Format.asprintf "%a" (Ilp.Stats.pp ?time_s:None) (Ilp.Stats.create ()) in
  check_bool "zero conflicts renders the means as 0.0" true
    (contains quiet
       ~needle:
         "conflict engine: 0 conflicts, 0 learned, 0 deleted, 0 oversize, \
          mean size 0.0, avg backjump 0.0, 0 reasserted, 0 reassert-closed")

(* Synthetic stats records with integer-valued floats, so float addition
   is exact and merge associativity can be checked with (=). *)
let mk_stats ints =
  let a = Array.of_list ints in
  let get i =
    if Array.length a = 0 then 0 else abs a.(i mod Array.length a) mod 100
  in
  let st = Ilp.Stats.create () in
  st.Ilp.Stats.presolve_s <- float_of_int (get 0);
  st.Ilp.Stats.build_s <- float_of_int (get 1);
  st.Ilp.Stats.search_s <- float_of_int (get 2);
  st.Ilp.Stats.lp_s <- float_of_int (get 3);
  st.Ilp.Stats.probe_s <- float_of_int (get 4);
  st.Ilp.Stats.prop_conflicts <- get 5;
  st.Ilp.Stats.probe_calls <- get 6;
  st.Ilp.Stats.prop_fixpoints <- get 7;
  st.Ilp.Stats.prop_ticks <- get 8;
  st.Ilp.Stats.probe_trials <- get 9;
  st.Ilp.Stats.probe_hits <- get 10;
  st.Ilp.Stats.lp_resolves <- get 11;
  st.Ilp.Stats.probe_skips <- get 12;
  st.Ilp.Stats.probe_backoffs <- get 13;
  st.Ilp.Stats.orbit_fixings <- get 14;
  st.Ilp.Stats.subtrees <- get 15;
  st.Ilp.Stats.steals <- get 16;
  st.Ilp.Stats.conflicts <- get 21;
  st.Ilp.Stats.learned <- get 22;
  st.Ilp.Stats.deleted <- get 23;
  st.Ilp.Stats.backjumps <- get 25;
  st.Ilp.Stats.backjump_depth <- get 26;
  st.Ilp.Stats.oversize <- get 27;
  st.Ilp.Stats.nogood_lits <- get 28;
  st.Ilp.Stats.prop_scans <- get 29;
  st.Ilp.Stats.asserting <- get 30;
  st.Ilp.Stats.reasserted <- get 31;
  st.Ilp.Stats.reassert_closed <- get 32;
  for d = 0 to get 17 mod 8 do
    Ilp.Stats.node st ~depth:d
  done;
  Ilp.Stats.incumbent st
    ~time_s:(float_of_int (get 18))
    ~nodes:(get 19) ~objective:(get 20);
  st

(* Histogram arrays may carry trailing zeros of different lengths, so
   compare stats records field-wise with a padded histogram. *)
let stats_eq (a : Ilp.Stats.t) (b : Ilp.Stats.t) =
  let hist_eq =
    let la = Array.length a.Ilp.Stats.depth_hist in
    let lb = Array.length b.Ilp.Stats.depth_hist in
    let get (h : int array) d = if d < Array.length h then h.(d) else 0 in
    List.for_all
      (fun d -> get a.Ilp.Stats.depth_hist d = get b.Ilp.Stats.depth_hist d)
      (List.init (max la lb) (fun d -> d))
  in
  hist_eq
  && { a with Ilp.Stats.depth_hist = [||] }
     = { b with Ilp.Stats.depth_hist = [||] }

let gen_stats_ints = QCheck2.Gen.(list_size (int_range 1 24) (int_range 0 99))

let prop_stats_merge_commutative =
  QCheck2.Test.make ~name:"Stats.merge is commutative" ~count:200
    QCheck2.Gen.(pair gen_stats_ints gen_stats_ints)
    (fun (xs, ys) ->
      let a = mk_stats xs and b = mk_stats ys in
      stats_eq (Ilp.Stats.merge a b) (Ilp.Stats.merge b a))

let prop_stats_merge_associative =
  QCheck2.Test.make ~name:"Stats.merge is associative" ~count:200
    QCheck2.Gen.(triple gen_stats_ints gen_stats_ints gen_stats_ints)
    (fun (xs, ys, zs) ->
      let a = mk_stats xs and b = mk_stats ys and c = mk_stats zs in
      stats_eq
        (Ilp.Stats.merge a (Ilp.Stats.merge b c))
        (Ilp.Stats.merge (Ilp.Stats.merge a b) c))

let test_trace_ring () =
  let ring = Ilp.Trace.ring () in
  let options = { Ilp.Solver.default with Ilp.Solver.trace = Some ring } in
  let r = Ilp.Solver.solve ~options (assignment_model ()) in
  let events = List.map snd (Ilp.Trace.events ring) in
  let nodes =
    List.length
      (List.filter (function Ilp.Trace.Node _ -> true | _ -> false) events)
  in
  check_int "one Node event per search node" r.Ilp.Solver.nodes nodes;
  check_bool "an Incumbent event carries the optimum" true
    (List.exists
       (function
         | Ilp.Trace.Incumbent { objective; _ } ->
             Some objective = r.Ilp.Solver.objective
         | _ -> false)
       events);
  check_bool "timestamps are monotone non-decreasing" true
    (let ts = List.map fst (Ilp.Trace.events ring) in
     List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts))

let test_trace_jsonl () =
  let path = Filename.temp_file "ilp_trace" ".jsonl" in
  let sink = Ilp.Trace.file path in
  let options = { Ilp.Solver.default with Ilp.Solver.trace = Some sink } in
  let r = Ilp.Solver.solve ~options (assignment_model ()) in
  Ilp.Trace.close sink;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  check_bool "one JSONL line per event, at least one per node" true
    (List.length lines >= r.Ilp.Solver.nodes);
  check_bool "every line is a {\"t\":...} object" true
    (List.for_all
       (fun l ->
         String.length l > 6
         && String.sub l 0 5 = "{\"t\":"
         && l.[String.length l - 1] = '}')
       lines)

(* -- Replay -------------------------------------------------------------- *)

(* Histograms of different lengths must merge as if zero-padded: the two
   QCheck merge laws above exercise this shape only by accident, so pin
   it explicitly (including the empty [create ()] histogram). *)
let test_stats_merge_unequal_hist () =
  let a = Ilp.Stats.create () and b = Ilp.Stats.create () in
  Ilp.Stats.node a ~depth:0;
  Ilp.Stats.node a ~depth:2;
  Ilp.Stats.node b ~depth:7;
  let m = Ilp.Stats.merge a b in
  check_int "total nodes" 3 (Ilp.Stats.total_nodes m);
  check_int "max depth" 7 (Ilp.Stats.max_depth m);
  check_int "depth 0 kept" 1 m.Ilp.Stats.depth_hist.(0);
  check_int "depth 2 kept" 1 m.Ilp.Stats.depth_hist.(2);
  check_int "short side zero-padded" 0 m.Ilp.Stats.depth_hist.(5);
  check_int "depth 7 kept" 1 m.Ilp.Stats.depth_hist.(7);
  let m' = Ilp.Stats.merge (Ilp.Stats.create ()) m in
  check_int "empty histogram is a unit" 3 (Ilp.Stats.total_nodes m');
  check_int "empty histogram keeps depth" 7 (Ilp.Stats.max_depth m')

(* [Trace.events] only means something on a ring; on a write-through sink
   it must refuse loudly (and leave the sink usable: the mutex is
   released before the raise). *)
let test_trace_events_raises_on_file_sink () =
  let path = Filename.temp_file "ilp_trace" ".jsonl" in
  let sink = Ilp.Trace.file path in
  let raised =
    try
      ignore (Ilp.Trace.events sink);
      false
    with Invalid_argument _ -> true
  in
  check_bool "events on a file sink raises" true raised;
  Ilp.Trace.emit sink ~time_s:0.5
    (Ilp.Trace.Incumbent { objective = 42; nodes = 7 });
  Ilp.Trace.close sink;
  (match Ilp.Replay.of_file path with
  | Ok [ (_, Ilp.Trace.Incumbent { objective = 42; nodes = 7 }) ] -> ()
  | Ok evs -> Alcotest.failf "unexpected events after raise: %d" (List.length evs)
  | Error msg -> Alcotest.failf "sink unusable after raise: %s" msg);
  Sys.remove path

(* Every [Trace.event] constructor, with payloads covering negatives,
   [max_int] (a pruned-empty node's bound — must round-trip bit-exactly,
   which rules out any float path in the parser) and both values of a
   conflict's [stored] flag. *)
let gen_trace_event =
  let open QCheck2.Gen in
  let nat = int_range 0 5_000_000 in
  let bound = oneof [ int_range (-10_000) 10_000; return max_int ] in
  let reason = oneofl [ Ilp.Trace.Cutoff; Ilp.Trace.Probed ] in
  oneof
    [
      map
        (fun ((depth, nodes), (var, value), bound) ->
          Ilp.Trace.Node { depth; nodes; var; value; bound })
        (triple
           (pair (int_range 0 500) nat)
           (pair (int_range (-1) 2000) (int_range (-50) 50))
           bound);
      map
        (fun (depth, reason, (bound, nodes)) ->
          Ilp.Trace.Prune { depth; reason; bound; nodes })
        (triple (int_range 0 500) reason (pair bound nat));
      map (fun (bound, nodes) -> Ilp.Trace.Bound { bound; nodes }) (pair bound nat);
      map
        (fun (objective, nodes) -> Ilp.Trace.Incumbent { objective; nodes })
        (pair (int_range (-10_000) 10_000) nat);
      map
        (fun (id, depth) -> Ilp.Trace.Subtree { id; depth })
        (pair nat (int_range 0 500));
      map
        (fun (thief, victim) -> Ilp.Trace.Steal { thief; victim })
        (pair (int_range 0 63) (int_range 0 63));
      map
        (fun ((depth, level), (lbd, size), (stored, nodes)) ->
          Ilp.Trace.Conflict { depth; level; lbd; size; stored; nodes })
        (triple
           (pair (int_range 0 500) (int_range (-1) 500))
           (pair (int_range 1 64) (int_range 1 2000))
           (pair bool nat));
      map
        (fun (conflicts, (learned, nodes)) ->
          Ilp.Trace.Restart { conflicts; learned; nodes })
        (pair nat (pair nat nat));
    ]

let prop_trace_jsonl_roundtrip =
  QCheck2.Test.make ~name:"Replay.event_of_line inverts Trace.jsonl_line"
    ~count:1000
    (* microsecond ticks: %.6f renders them exactly, so the parse must be
       an identity and render/parse/render a fixpoint *)
    QCheck2.Gen.(pair (int_range 0 1_000_000_000) gen_trace_event)
    (fun (us, ev) ->
      let time_s = float_of_int us /. 1e6 in
      let line = Ilp.Trace.jsonl_line ~time_s ev in
      match Ilp.Replay.event_of_line line with
      | Error msg -> QCheck2.Test.fail_reportf "parse failed on %s: %s" line msg
      | Ok (t, ev') ->
          ev' = ev && Ilp.Trace.jsonl_line ~time_s:t ev' = line)

(* Traces written by older solvers carry prune reasons and events that no
   longer exist: LP prunes, cut rounds, LP resolves and free-form
   messages.  Each such line must fail the parse with an [Error] naming
   the line and the offending value, never raise. *)
let replay_rejects line needle () =
  let node =
    {|{"t":0.000100,"ev":"node","depth":0,"nodes":1,"var":-1,"value":0,"bound":5}|}
  in
  match Ilp.Replay.of_string (node ^ "\n" ^ line ^ "\n") with
  | Ok _ -> Alcotest.failf "parsed: %s" line
  | Error msg ->
      check_bool
        (Printf.sprintf "%S names line 2 and %s" msg needle)
        true
        (contains msg "line 2" && contains msg needle)
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

let test_replay_rejects_lp_bound =
  replay_rejects
    {|{"t":0.000200,"ev":"prune","depth":0,"reason":"lp_bound","bound":7,"nodes":1}|}
    {|prune reason "lp_bound"|}

let test_replay_rejects_cut_round =
  replay_rejects {|{"t":0.000200,"ev":"cut_round","round":1,"cuts":12}|}
    {|event kind "cut_round"|}

let test_replay_rejects_lp_event =
  replay_rejects
    {|{"t":0.000200,"ev":"lp","pivots":40,"iters":52,"refactors":1}|}
    {|event kind "lp"|}

let test_replay_rejects_message =
  replay_rejects {|{"t":0.000200,"ev":"message","text":"root done"}|}
    {|event kind "message"|}

(* End-to-end: solve with a JSONL sink, parse the trace back, and check
   the post-mortem's books balance against the solver's own outcome. *)
let test_replay_analyze_matches_solve () =
  let path = Filename.temp_file "ilp_trace" ".jsonl" in
  let sink = Ilp.Trace.file path in
  let options = { Ilp.Solver.default with Ilp.Solver.trace = Some sink } in
  let r = Ilp.Solver.solve ~options (assignment_model ()) in
  Ilp.Trace.close sink;
  let events =
    match Ilp.Replay.of_file path with
    | Ok evs -> evs
    | Error msg -> Alcotest.failf "trace does not parse: %s" msg
  in
  Sys.remove path;
  let rep = Ilp.Replay.analyze events in
  check_int "replay counts every node" r.Ilp.Solver.nodes rep.Ilp.Replay.nodes;
  check_int "prune rows sum to the total" rep.Ilp.Replay.pruned_total
    (List.fold_left
       (fun acc (p : Ilp.Replay.prune_row) -> acc + p.Ilp.Replay.count)
       0 rep.Ilp.Replay.prunes);
  check_bool "final incumbent is the optimum" true
    (rep.Ilp.Replay.final_incumbent = r.Ilp.Solver.objective);
  check_bool "waste within [0, 100]" true
    (rep.Ilp.Replay.waste_pct >= 0.0 && rep.Ilp.Replay.waste_pct <= 100.0);
  check_int "depth profile covers every node" rep.Ilp.Replay.nodes
    (List.fold_left
       (fun acc (d : Ilp.Replay.depth_row) -> acc + d.Ilp.Replay.opened)
       0 rep.Ilp.Replay.depths);
  (if rep.Ilp.Replay.pruned_total > 0 then
     let total =
       List.fold_left (fun a (_, s) -> a +. s) 0.0 (Ilp.Replay.prune_shares rep)
     in
     check_bool "prune shares sum to 100" true (Float.abs (total -. 100.0) < 1e-6));
  let report = Format.asprintf "%a" Ilp.Replay.render_report rep in
  check_bool "report renders" true (String.length report > 100);
  let chrome =
    String.trim (Ilp.Replay.chrome_of_events ~phases:[ ("search", 0.1) ] events)
  in
  check_bool "chrome export is a JSON array" true
    (String.length chrome > 2
    && chrome.[0] = '['
    && chrome.[String.length chrome - 1] = ']')

let () =
  Alcotest.run "ilp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "algebra" `Quick test_linexpr_algebra;
          Alcotest.test_case "pp" `Quick test_linexpr_pp;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_linexpr_of_list_matches_fold ] );
      ( "model",
        [
          Alcotest.test_case "check" `Quick test_model_check;
          Alcotest.test_case "check names" `Quick test_model_check_names;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
          Alcotest.test_case "assignment" `Quick test_bb_assignment;
          Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
          Alcotest.test_case "integer vars" `Quick test_bb_integer_vars;
          Alcotest.test_case "warm start" `Quick test_bb_warm_start;
          Alcotest.test_case "node limit" `Quick test_bb_node_limit;
          Alcotest.test_case "eq propagation" `Quick test_bb_equality_propagation;
          Alcotest.test_case "edge cases" `Quick test_bb_edge_cases;
          Alcotest.test_case "negative bounds" `Quick test_bb_negative_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bb_matches_brute_force ] );
      ( "lp_format",
        [
          Alcotest.test_case "render" `Quick test_lp_format;
          Alcotest.test_case "sanitize" `Quick test_lp_format_sanitize;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "infeasible" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "redundant" `Quick test_presolve_drops_redundant;
          Alcotest.test_case "fixing" `Quick test_presolve_fixes_variables;
          Alcotest.test_case "strengthening" `Quick test_presolve_strengthens;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_presolve_preserves_feasible_set;
              prop_presolve_preserves_optimum ] );
      ( "lp_parse",
        [
          Alcotest.test_case "knapsack" `Quick test_lp_parse_knapsack;
          Alcotest.test_case "bounds forms" `Quick test_lp_parse_bounds_forms;
          Alcotest.test_case "errors" `Quick test_lp_parse_errors;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_lp_roundtrip;
              prop_lp_roundtrip_structural;
              prop_lp_parse_never_raises;
            ] );
      ( "parallel",
        [ Alcotest.test_case "deques" `Quick test_deques ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_parallel_matches_brute_force ] );
      ( "flat_kernel",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_flat_min_activities;
            prop_fixpoint_matches_resweep;
            prop_incremental_fixpoint_matches_resweep;
            prop_jobs_invariant;
          ] );
      ( "stats",
        [
          Alcotest.test_case "sequential solve" `Quick test_stats_sequential;
          Alcotest.test_case "jobs-invariant counters" `Quick
            test_stats_parallel_jobs_invariant;
          Alcotest.test_case "merge pads unequal histograms" `Quick
            test_stats_merge_unequal_hist;
          Alcotest.test_case "pp conflict-engine line" `Quick
            test_stats_pp_conflict_line;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_stats_merge_commutative; prop_stats_merge_associative ] );
      ( "learning",
        Alcotest.test_case "re-assert after backtrack" `Quick
          test_reassert_after_backtrack
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_learned_nogoods_implied; prop_learned_rows_are_clauses ] );
      ( "trace",
        [
          Alcotest.test_case "ring sink" `Quick test_trace_ring;
          Alcotest.test_case "jsonl sink" `Quick test_trace_jsonl;
          Alcotest.test_case "events raises off-ring" `Quick
            test_trace_events_raises_on_file_sink;
        ] );
      ( "replay",
        [
          Alcotest.test_case "analyze balances the books" `Quick
            test_replay_analyze_matches_solve;
          Alcotest.test_case "rejects lp_bound prunes" `Quick
            test_replay_rejects_lp_bound;
          Alcotest.test_case "rejects cut_round events" `Quick
            test_replay_rejects_cut_round;
          Alcotest.test_case "rejects lp events" `Quick
            test_replay_rejects_lp_event;
          Alcotest.test_case "rejects message events" `Quick
            test_replay_rejects_message;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_trace_jsonl_roundtrip ] );
    ]
