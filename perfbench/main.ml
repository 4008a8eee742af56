(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up runs several times and its median is reported.  Untraced passes
   then repeat for about [S] seconds and their median is reported; with
   [--trace 1] one traced pass follows.  The report names every metric
   with its unit; the last line of standard output is one JSON object
   with [correct], [attempted], [failed] and the end-to-end metrics
   ([--trace 0]) or the per-layer metrics ([--trace 1]). *)

open Perfbench

let setup_repeats = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The largest major heap of the process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (number m.value) m.unit)
          metrics))

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %22s %s\n" m.name (number m.value) m.unit)
    ms

(* [pool] is (subtrees, steals, node inflation) of the parallel path. *)
let per_layer (setups : Bench.setup list) (l : Bench.layers) (tp : Bench.pass)
    ~wall_s ~pool:(subtrees, steals, inflation) =
  let st = Option.value l.stats ~default:(Ilp.Stats.create ()) in
  let total = Spans.total l.spans in
  let count name n = m name "count" (float_of_int n) in
  let synth_s =
    total "synth.reference" +. total "synth.synthesize" +. total "synth.sweep"
  in
  [
    m "dfg.relabel_s" "s" (median (List.map (fun s -> s.Bench.relabel_s) setups));
    m "hls.schedule_s" "s" (median (List.map (fun s -> s.Bench.schedule_s) setups));
    m "encoding.build_s" "s" (total "encoding.build");
    count "encoding.rows" l.rows;
    count "encoding.nnz" l.nnz;
    m "encoding.lower_bound_s" "s" (total "encoding.lower_bound");
    m "heuristic.netlist_s" "s" (total "heuristic.netlist");
    m "session_opt.solve_s" "s" (total "session_opt.solve");
    count "session_opt.calls" l.session_calls;
    count "session_opt.nodes" l.session_nodes;
    m "presolve.strengthen_s" "s" (total "presolve.strengthen");
    count "presolve.dropped_rows" l.dropped_rows;
    m "solver.prepare_s" "s" st.prepare_s;
    count "solver.orbit_fixings" st.orbit_fixings;
    m "solver.build_s" "s" st.build_s;
    m "solver.root_s" "s" st.root_s;
    m "solver.search_s" "s" st.search_s;
    count "solver.prop_fixpoints" st.prop_fixpoints;
    count "solver.prop_ticks" st.prop_ticks;
    m "solver.ticks_per_node" "ticks/node" (ratio st.prop_ticks tp.nodes);
    m "solver.probe_s" "s" st.probe_s;
    count "solver.probe_trials" st.probe_trials;
    count "solver.probe_hits" st.probe_hits;
    m "solver.probe_hit_rate" "ratio" (ratio st.probe_hits st.probe_trials);
    count "solver.conflicts" st.conflicts;
    count "solver.learned" st.learned;
    m "solver.learned_per_conflict" "ratio" (ratio st.learned st.conflicts);
    count "solver.deleted" st.deleted;
    count "solver.backjumps" st.backjumps;
    m "simplex.lp_s" "s" st.lp_s;
    count "simplex.resolves" st.lp_resolves;
    count "simplex.pivots" st.lp_pivots;
    count "pool.subtrees" subtrees;
    count "pool.steals" steals;
    m "pool.node_inflation" "ratio" inflation;
    m "decode.audit_s" "s" (total "decode.audit");
    m "synth.outside_solver_s" "s" (synth_s -. tp.solve_s);
    m "trace.overhead_s" "s" (tp.wall_s -. wall_s);
  ]

let run (w : Bench.workload) ~seed ~seconds ~trace =
  let setups = List.init setup_repeats (fun _ -> Bench.setup w ~seed) in
  let instances = (List.hd setups).Bench.instances in
  let t0 = Bench.now () in
  (* another pass only when it is expected to end inside the window *)
  let rec loop acc =
    let acc = Bench.run_pass w instances :: acc in
    let wall = median (List.map (fun p -> p.Bench.wall_s) acc) in
    if Bench.now () -. t0 +. wall <= seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let heap = peak_heap_mb () in
  let first = List.hd passes in
  let wall_s = median (List.map (fun p -> p.Bench.wall_s) passes) in
  let traced =
    if trace then
      let l = Bench.layers () in
      Some (l, Bench.run_pass ~trace:l w instances)
    else None
  in
  (* the parallel path: the [parallel] calls on the first copy at jobs = 2,
     with stats for the pool metrics; at jobs = 3, which must repeat the
     jobs = 2 search tree and designs exactly; and at jobs = 1, the
     sequential search, for the node inflation *)
  let parallel =
    if trace && w.parallel <> [] then
      let on jobs = { w with jobs; copies = 1; calls = w.parallel } in
      let first_copy = [| instances.(0) |] in
      let l = Bench.layers () in
      let j2 = Bench.run_pass ~trace:l (on 2) first_copy in
      let j3 = Bench.run_pass (on 3) first_copy in
      Some (l, j2, j3, Bench.run_pass (on 1) first_copy)
    else None
  in
  let checked = passes @ Option.to_list (Option.map snd traced) in
  let expect = Bench.fingerprint first in
  let mismatches =
    List.filter_map
      (fun p ->
        let got = Bench.fingerprint p in
        if got = expect then None
        else
          Some
            (Printf.sprintf "determinism: a pass gave %s, the first %s" got
               expect))
      checked
    @
    match parallel with
    | Some (_, j2, j3, _) when Bench.fingerprint j2 <> Bench.fingerprint j3 ->
        [
          Printf.sprintf "jobs-invariance: jobs = 3 gave %s, jobs = 2 %s"
            (Bench.fingerprint j3) (Bench.fingerprint j2);
        ]
    | Some _ | None -> []
  in
  let ledgers =
    List.map
      (fun p -> p.Bench.ledger)
      (checked
      @ Option.fold ~none:[] ~some:(fun (_, j2, j3, j1) -> [ j2; j3; j1 ]) parallel)
  in
  let attempted = List.fold_left (fun a l -> a + l.Ledger.attempted) 0 ledgers in
  let failed =
    List.fold_left
      (fun a l -> a + l.Ledger.failed)
      (List.length mismatches) ledgers
  in
  let end_to_end =
    [
      m "wall_s" "s" wall_s;
      m "setup_s" "s" (median (List.map (fun s -> s.Bench.setup_s) setups));
      m "nodes" "count" (float_of_int first.nodes);
      m "nodes_per_s" "1/s"
        (median
           (List.map
              (fun p ->
                if p.Bench.solve_s > 0.0 then
                  float_of_int p.Bench.nodes /. p.Bench.solve_s
                else 0.0)
              passes));
      m "area_total" "transistors" (float_of_int first.area_total);
      m "peak_heap_mb" "MiB" heap;
    ]
  in
  (* zero on some workloads by design, so reported beside the bounded
     end-to-end metrics rather than among them *)
  let quality =
    [
      m "proved" "count" (float_of_int first.proved);
      m "gap_pct_mean" "%" (Bench.gap_pct_mean first);
      m "failed_share" "ratio" (ratio failed attempted);
    ]
  in
  Printf.printf
    "perfbench workload=%s seed=%d jobs=%d node_limit=%s copies=%d passes=%d\n\
     pass walls (s): %s\n"
    w.name seed w.jobs
    (Option.fold ~none:"none" ~some:string_of_int w.node_limit)
    w.copies (List.length passes)
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.4f" p.Bench.wall_s) passes));
  print_metrics "end to end (median over passes; set-up over repeats):" end_to_end;
  print_metrics "quality:" quality;
  let reported =
    match traced with
    | None -> end_to_end
    | Some (l, tp) ->
        let pool =
          match parallel with
          | Some (l2, j2, _, j1) ->
              let st = Option.value l2.Bench.stats ~default:(Ilp.Stats.create ()) in
              (st.subtrees, st.steals, ratio j2.Bench.nodes j1.Bench.nodes)
          | None -> (0, 0, 1.0)
        in
        let layers = per_layer setups l tp ~wall_s ~pool @ quality in
        print_metrics "per layer (traced pass):" layers;
        Printf.printf "spans (traced pass):\n  %-40s %6s %12s %12s\n" "name"
          "calls" "total_s" "self_s";
        List.iter
          (fun (name, n, tot, self) ->
            Printf.printf "  %-40s %6d %12.6f %12.6f\n" name n tot self)
          (Spans.summary l.spans);
        layers
  in
  List.iter
    (fun msg -> Printf.printf "FAILED %s\n" msg)
    (mismatches
    @ List.concat_map (fun l -> List.rev l.Ledger.messages) ledgers);
  print_endline (json ~correct:(failed = 0) ~attempted ~failed reported)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed; 0 runs the circuits as shipped");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 add a traced pass for per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  match Bench.find !workload with
  | None ->
      fail
        (Printf.sprintf "unknown workload %S; one of %s" !workload
           (String.concat ", " (List.map (fun w -> w.Bench.name) Bench.workloads)))
  | Some _ when !seed < 0 -> fail "--seed must be a whole number >= 0"
  | Some _ when not (!seconds > 0.0) -> fail "--seconds must be positive"
  | Some _ when !trace <> 0 && !trace <> 1 -> fail "--trace must be 0 or 1"
  | Some w -> (
      try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with Failure msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 1)
