(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 4) and times the core kernels with Bechamel.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- tables       -- only the table regeneration
     dune exec bench/main.exe -- micro        -- only the Bechamel benches
     dune exec bench/main.exe -- json         -- solver perf -> BENCH_solver.json
     dune exec bench/main.exe -- smoke        -- CI gate vs the committed snapshot
     dune exec bench/main.exe -- diff A B     -- regression diff of two snapshots
     dune exec bench/main.exe -- perf         -- kernel micro-rate (non-gating)

   The ILP budget per instance defaults to 10 s (the paper allowed 24 CPU
   hours per instance on CPLEX 6.0); override with ADVBIST_BENCH_BUDGET
   (seconds).  ADVBIST_JOBS > 1 runs each solve's tree search on that many
   work-stealing domains (the k-sweep itself is sequential so each row can
   seed the next).  Timed-out entries are marked with '*', exactly like
   the paper's Table 2.

   Snapshot plumbing (see Advbist.Bench_snapshot for the schema):
     ADVBIST_BENCH_JSON      -- json: output path (default BENCH_solver.json)
     ADVBIST_BENCH_JSON_OUT  -- smoke: also write the freshly measured
                                sweep as a snapshot here
     ADVBIST_BENCH_DIFF_OUT  -- diff: also write the report here *)

let budget =
  match Sys.getenv_opt "ADVBIST_BENCH_BUDGET" with
  | Some s -> (try float_of_string s with Failure _ -> 10.0)
  | None -> 10.0

let jobs = Ilp.Pool.default_jobs ()

let line = String.make 78 '-'

(* ---------------------------------------------------------------- Table 1 *)

let table1 () =
  Printf.printf "%s\nTable 1: transistor counts of 8-bit test registers and muxes\n%s\n"
    line line;
  Printf.printf "register kinds (paper = this repo by construction):\n";
  List.iter
    (fun kind ->
      Printf.printf "  %-7s %4d\n"
        (Datapath.Area.reg_kind_name kind)
        (Datapath.Area.register kind))
    Datapath.Area.[ Plain; Tpg; Sr; Bilbo; Cbilbo ];
  Printf.printf "multiplexers (#inputs -> transistors):\n ";
  List.iter (fun n -> Printf.printf " %d:%d" n (Datapath.Area.mux n)) [ 2; 3; 4; 5; 6; 7 ];
  Printf.printf "\n  (>7 inputs: linear extrapolation at 54/input)\n\n"

(* ---------------------------------------------------------------- Table 2 *)

type t2_measured = {
  mutable m_rows : (string * (float * float * bool) option array) list;
}

let table2 () =
  Printf.printf "%s\nTable 2: ADVBIST area overhead (%%) and solve time per k-test session\n" line;
  Printf.printf "budget: %.0fs per ILP (paper: 24 CPU hours on CPLEX 6.0); '*' = limit hit\n%s\n" budget line;
  Printf.printf "%-9s %-4s | %-18s | %-18s\n" "circuit" "k" "paper (OH%, time)" "this repo (OH%, time)";
  let acc = { m_rows = [] } in
  List.iter
    (fun (row : Paper_data.table2_row) ->
      match Circuits.Suite.find row.Paper_data.t2_circuit with
      | None -> ()
      | Some p ->
          let reference =
            match Advbist.Synth.reference ~time_limit:budget p with
            | Ok r -> r
            | Error msg -> failwith msg
          in
          let n = Dfg.Problem.n_modules p in
          let measured = Array.make 4 None in
          for k = 1 to min n 4 do
            match Advbist.Synth.synthesize ~time_limit:budget p ~k with
            | Error msg ->
                Printf.printf "%-9s k=%d  ERROR %s\n" row.Paper_data.t2_circuit
                  k msg
            | Ok o ->
                let oh =
                  Bist.Plan.overhead_pct o.Advbist.Synth.plan
                    ~reference:reference.Advbist.Synth.ref_area
                in
                measured.(k - 1) <-
                  Some (oh, o.Advbist.Synth.solve_time, o.Advbist.Synth.optimal);
                let paper =
                  match row.Paper_data.overheads.(k - 1) with
                  | Some v ->
                      Printf.sprintf "%5.1f%s %8s" v
                        (if row.Paper_data.starred then "*" else " ")
                        row.Paper_data.times.(k - 1)
                  | None -> "      -"
                in
                Printf.printf "%-9s k=%d  | %-18s | %5.1f%s %6.1fs\n"
                  row.Paper_data.t2_circuit k paper oh
                  (if o.Advbist.Synth.optimal then " " else "*")
                  o.Advbist.Synth.solve_time
          done;
          acc.m_rows <- (row.Paper_data.t2_circuit, measured) :: acc.m_rows)
    Paper_data.table2;
  (* shape check: overhead weakly decreasing in k for proven-optimal runs *)
  Printf.printf "\nshape: overhead non-increasing with k (optimal entries)\n";
  List.iter
    (fun (name, measured) ->
      let ok = ref true in
      for k = 1 to 2 do
        match (measured.(k - 1), measured.(k)) with
        | Some (o1, _, true), Some (o2, _, true) ->
            if o2 > o1 +. 1e-9 then ok := false
        | _, _ -> ()
      done;
      Printf.printf "  %-9s %s\n" name (if !ok then "holds" else "VIOLATED"))
    (List.rev acc.m_rows);
  Printf.printf "\n"

(* ---------------------------------------------------------------- Table 3 *)

let table3 () =
  Printf.printf "%s\nTable 3: high-level BIST synthesis systems at maximal k\n%s\n" line line;
  Printf.printf "%-9s %-8s | %-30s | %-34s\n" "circuit" "method"
    "paper R T S B C  M  area  OH%" "this repo R T S B C  M  area  OH%";
  let dominance_ok = ref true in
  List.iter
    (fun (row : Paper_data.table3_row) ->
      match Circuits.Suite.find row.Paper_data.t3_circuit with
      | None -> ()
      | Some p ->
          let k = Dfg.Problem.n_modules p in
          let reference =
            match Advbist.Synth.reference ~time_limit:budget p with
            | Ok r -> r
            | Error msg -> failwith msg
          in
          Printf.printf "%-9s %-8s | %d            %2d  %4d        | %d            %2d  %4d\n"
            row.Paper_data.t3_circuit "Ref." row.Paper_data.ref_r
            row.Paper_data.ref_m row.Paper_data.ref_area
            reference.Advbist.Synth.ref_netlist.Datapath.Netlist.n_registers
            (Datapath.Netlist.total_mux_inputs
               reference.Advbist.Synth.ref_netlist)
            reference.Advbist.Synth.ref_area;
          let advbist_area = ref max_int in
          List.iter
            (fun (pm : Paper_data.table3_method) ->
              let result =
                match pm.Paper_data.m_name with
                | "ADVBIST" ->
                    Result.map
                      (fun (o : Advbist.Synth.outcome) -> o.Advbist.Synth.plan)
                      (Advbist.Synth.synthesize ~time_limit:budget p ~k)
                | "ADVAN" -> Baselines.Advan.synthesize p ~k
                | "RALLOC" -> Baselines.Ralloc.synthesize p ~k
                | "BITS" -> Baselines.Bits.synthesize p ~k
                | other -> Error ("unknown method " ^ other)
              in
              match result with
              | Error msg ->
                  Printf.printf "%-9s %-8s | (paper: area %4d) | ERROR %s\n"
                    "" pm.Paper_data.m_name pm.Paper_data.area msg
              | Ok plan ->
                  let tp, sr, bi, cb = Bist.Plan.kind_counts plan in
                  let area = Bist.Plan.area plan in
                  if pm.Paper_data.m_name = "ADVBIST" then advbist_area := area
                  else if area < !advbist_area then dominance_ok := false;
                  Printf.printf
                    "%-9s %-8s | %d %d %d %d %d %2d  %4d  %4.1f | %d %d %d %d %d %2d  %4d  %4.1f\n"
                    "" pm.Paper_data.m_name pm.Paper_data.r pm.Paper_data.t
                    pm.Paper_data.s pm.Paper_data.b pm.Paper_data.c
                    pm.Paper_data.mux_inputs pm.Paper_data.area pm.Paper_data.oh
                    plan.Bist.Plan.netlist.Datapath.Netlist.n_registers tp sr
                    bi cb
                    (Datapath.Netlist.total_mux_inputs plan.Bist.Plan.netlist)
                    area
                    (Bist.Plan.overhead_pct plan
                       ~reference:reference.Advbist.Synth.ref_area))
            row.Paper_data.rows)
    Paper_data.table3;
  Printf.printf "\nshape: ADVBIST dominates every baseline on every circuit: %s\n\n"
    (if !dominance_ok then "holds" else "VIOLATED")

(* ------------------------------------------------------------- Ablations *)

let ablation_symmetry () =
  Printf.printf "%s\nAblation (Sec. 3.5): search-space reduction by symmetry pre-assignment\n%s\n" line line;
  Printf.printf "%-9s %-4s | %12s %9s | %14s %9s\n" "circuit" "k"
    "with: nodes" "time" "without: nodes" "time";
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> ()
      | Some p ->
          List.iter
            (fun k ->
              let run symmetry =
                match
                  Advbist.Synth.synthesize ~time_limit:budget ~symmetry p ~k
                with
                | Ok o ->
                    ( o.Advbist.Synth.nodes,
                      o.Advbist.Synth.solve_time,
                      o.Advbist.Synth.optimal )
                | Error _ -> (0, nan, false)
              in
              let n1, t1, o1 = run true in
              let n2, t2, o2 = run false in
              Printf.printf "%-9s k=%d  | %12d %7.2fs%s | %14d %7.2fs%s\n" name
                k n1 t1
                (if o1 then "" else "*")
                n2 t2
                (if o2 then "" else "*"))
            [ 1 ])
    [ "tseng"; "paulin" ];
  Printf.printf "\n"

let ablation_breakdown () =
  Printf.printf "%s\nAblation: where ADVBIST's advantage comes from (Sec. 4.2:\n\"largely due to less multiplexer area\")\n%s\n" line line;
  Printf.printf "%-9s %-8s %8s %8s %8s\n" "circuit" "method" "reg-area"
    "mux-area" "total";
  List.iter
    (fun (name, p) ->
      let k = Dfg.Problem.n_modules p in
      let show mname (plan : Bist.Plan.t) =
        let mux = Datapath.Netlist.mux_area plan.Bist.Plan.netlist in
        let area = Bist.Plan.area plan in
        Printf.printf "%-9s %-8s %8d %8d %8d\n" name mname (area - mux) mux
          area
      in
      (match Advbist.Synth.synthesize ~time_limit:budget p ~k with
      | Ok o -> show "ADVBIST" o.Advbist.Synth.plan
      | Error _ -> ());
      List.iter
        (fun (mname, f) ->
          match f p ~k with Ok plan -> show mname plan | Error _ -> ())
        [
          ("ADVAN", Baselines.Advan.synthesize);
          ("RALLOC", Baselines.Ralloc.synthesize);
          ("BITS", Baselines.Bits.synthesize);
        ])
    Circuits.Suite.all;
  Printf.printf "\n"

let ablation_concurrent_vs_sequential () =
  Printf.printf "%s\nAblation: concurrent ILP vs decoupled synthesis (left-edge data path +\noptimal sessions) - the paper's core claim is that concurrency wins\n%s\n" line line;
  Printf.printf "%-9s %-4s %10s %12s %8s\n" "circuit" "k" "decoupled"
    "concurrent" "saved";
  List.iter
    (fun (name, p) ->
      let k = Dfg.Problem.n_modules p in
      match
        ( Advbist.Heuristic.synthesize p ~k,
          Advbist.Synth.synthesize ~time_limit:budget p ~k )
      with
      | Ok h, Ok o ->
          let ha = Bist.Plan.area h.Advbist.Session_opt.plan in
          Printf.printf "%-9s k=%d  %10d %12d %7.1f%%\n" name k ha
            o.Advbist.Synth.area
            (100.0 *. float_of_int (ha - o.Advbist.Synth.area) /. float_of_int ha)
      | Error msg, _ | _, Error msg -> Printf.printf "%-9s %s\n" name msg)
    Circuits.Suite.all;
  Printf.printf "\n"

let scalability () =
  Printf.printf "%s\nScalability: beyond the paper's circuits (5th-order elliptic wave filter)\n%s\n" line line;
  let p = Circuits.Suite.ewf in
  let g = p.Dfg.Problem.dfg in
  Printf.printf "ewf: %d ops, %d steps, %d registers, %d modules\n"
    (Dfg.Graph.n_ops g) g.Dfg.Graph.n_steps
    (Dfg.Problem.min_registers p) (Dfg.Problem.n_modules p);
  (match Advbist.Heuristic.synthesize p ~k:4 with
  | Ok o ->
      Printf.printf "  decoupled heuristic: area %d (%.2fs)\n"
        (Bist.Plan.area o.Advbist.Session_opt.plan) o.Advbist.Session_opt.time_s
  | Error msg -> Printf.printf "  decoupled heuristic: %s\n" msg);
  List.iter
    (fun k ->
      match Advbist.Synth.synthesize ~time_limit:budget p ~k with
      | Ok o ->
          Printf.printf "  concurrent ILP k=%d: area %d%s (%.1fs, %d nodes)\n" k
            o.Advbist.Synth.area
            (if o.Advbist.Synth.optimal then "" else " *")
            o.Advbist.Synth.solve_time o.Advbist.Synth.nodes
      | Error msg -> Printf.printf "  concurrent ILP k=%d: %s\n" k msg)
    [ 1; 4 ];
  Printf.printf "\n"

(* ------------------------------------------------------ Bechamel microbench *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let fig1 = Dfg.Benchmarks.fig1 in
  let tests =
    [
      (* one Test.make per paper table, timing its core computational unit *)
      Test.make ~name:"table1:area-model"
        (Staged.stage (fun () ->
             List.iter
               (fun n -> ignore (Datapath.Area.mux n))
               [ 2; 3; 4; 5; 6; 7; 8 ]));
      Test.make ~name:"table2:advbist-fig1-k2"
        (Staged.stage (fun () ->
             ignore (Advbist.Synth.synthesize ~time_limit:5.0 fig1 ~k:2)));
      Test.make ~name:"table3:baseline-advan-tseng"
        (Staged.stage (fun () ->
             ignore
               (Baselines.Advan.synthesize Dfg.Benchmarks.tseng
                  ~k:3)));
      (* supporting kernels *)
      Test.make ~name:"encoding:build-tseng-k3"
        (Staged.stage (fun () ->
             ignore
               (Advbist.Encoding.build Dfg.Benchmarks.tseng ~n_regs:5 ~k:3)));
      Test.make ~name:"session-opt:tseng-k3"
        (Staged.stage
           (let d =
              match Advbist.Heuristic.netlist Dfg.Benchmarks.tseng with
              | Ok d -> d
              | Error msg -> failwith msg
            in
            fun () -> ignore (Advbist.Session_opt.solve d ~k:3)));
      Test.make ~name:"lfsr:255-patterns"
        (Staged.stage (fun () ->
             let l = Bist.Lfsr.create ~width:8 () in
             for _ = 1 to 255 do
               ignore (Bist.Lfsr.step l)
             done));
      Test.make ~name:"fault-sim:adder-64-patterns"
        (Staged.stage
           (let c = Bist.Gates.build Dfg.Op_kind.Add ~width:8 in
            fun () ->
              ignore (Bist.Fault_sim.random_pattern_coverage c ~n_patterns:64 ())));
      Test.make ~name:"left-edge:wavelet6"
        (Staged.stage (fun () ->
             ignore
               (Hls.Regalloc.allocate
                  (Option.get (Circuits.Suite.find "wavelet6")).Dfg.Problem.dfg)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  Printf.printf "%s\nBechamel micro-benchmarks (monotonic clock per run)\n%s\n" line line;
  List.iter
    (fun test ->
      let results = benchmark test in
      let results_ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "  %-32s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
        results_ols)
    tests;
  Printf.printf "\n"

(* ------------------------------------------------- solver perf tracking *)

(* Machine-readable solver performance: one full k-sweep per circuit
   under a fixed per-solve node budget, recorded as BENCH_solver.json
   (wall time, node count and optimality per circuit per k) so the perf
   trajectory is tracked across PRs.  Hand-rolled JSON — no external
   dependency. *)

(* Every snapshot sweep stops each solve at this many nodes, never at a
   wall-clock limit, so its areas and optimality flags are the same on
   every run and every machine — what lets the smoke gate compare them
   exactly.  60,000 nodes is roughly what a 2 s budget buys on a 2-vCPU
   virtual machine, and enough to prove every tseng row. *)
let snapshot_node_limit = 60_000

(* The commit the numbers were measured at, so a snapshot diff is
   attributable to a change rather than to a stale working tree. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Working-tree entries from `git status --porcelain`, minus the snapshot
   file itself (regenerating it is the whole point of the run). *)
let dirty_entries ~ignore_path =
  try
    let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 ->
        List.rev
          (List.filter
             (fun line ->
               String.length line > 3
               &&
               let path = String.sub line 3 (String.length line - 3) in
               path <> ignore_path)
             !lines)
    | _ -> []
  with Unix.Unix_error _ | Sys_error _ -> []

(* One full k-sweep per circuit, with solver stats on, assembled into a
   schema-v6 snapshot (Advbist.Bench_snapshot) — the shared measurement
   core of the [json] and [smoke] arms.  The v5 post-mortem fields come
   from a second, separately-traced sweep: tracing costs per-node time,
   which would inflate the rows' [time_s] and deflate their throughput —
   the measured pass stays untraced and only the attribution percentages
   are read off the traced twin (joined by k; the node budget makes it
   the same search; roughly doubles the run). *)
let run_snapshot ~tag () =
  let started = Unix.gettimeofday () in
  let circuits =
    List.filter_map
      (fun (name, p) ->
        Printf.printf "%s: sweeping %s (k = 1..%d, %d jobs)...\n%!" tag name
          (Dfg.Problem.n_modules p)
          jobs;
        let t0 = Unix.gettimeofday () in
        match
          Advbist.Synth.sweep ~node_limit:snapshot_node_limit ~jobs ~stats:true
            p
        with
        | Error msg ->
            Printf.printf "%s: %s: %s\n" tag name msg;
            None
        | Ok (reference, rows) ->
            let wall = Unix.gettimeofday () -. t0 in
            let explain_by_k =
              match
                Advbist.Synth.sweep ~node_limit:snapshot_node_limit ~jobs
                  ~explain:true p
              with
              | Ok (_, erows) ->
                  List.filter_map
                    (fun (er : Advbist.Synth.sweep_row) ->
                      Option.map
                        (fun rep -> (er.Advbist.Synth.k, rep))
                        er.Advbist.Synth.outcome.Advbist.Synth.explain)
                    erows
              | Error _ -> []
            in
            Some
              {
                Advbist.Bench_snapshot.circuit = name;
                reference_area = reference.Advbist.Synth.ref_area;
                reference_optimal = reference.Advbist.Synth.ref_optimal;
                wall_s = wall;
                rows =
                  List.map
                    (fun (row : Advbist.Synth.sweep_row) ->
                      let o = row.Advbist.Synth.outcome in
                      {
                        Advbist.Bench_snapshot.k = row.Advbist.Synth.k;
                        time_s = o.Advbist.Synth.solve_time;
                        nodes = o.Advbist.Synth.nodes;
                        optimal = o.Advbist.Synth.optimal;
                        area = o.Advbist.Synth.area;
                        overhead_pct = row.Advbist.Synth.overhead_pct;
                        gap_pct = o.Advbist.Synth.gap_pct;
                        nodes_per_sec =
                          (if o.Advbist.Synth.solve_time > 0.0 then
                             float_of_int o.Advbist.Synth.nodes
                             /. o.Advbist.Synth.solve_time
                           else 0.0);
                        phase_s =
                          (match o.Advbist.Synth.stats with
                          | Some st -> Ilp.Stats.phases st
                          | None -> []);
                        waste_pct =
                          Option.map
                            (fun (r : Ilp.Replay.report) ->
                              r.Ilp.Replay.waste_pct)
                            (List.assoc_opt row.Advbist.Synth.k explain_by_k);
                        prune_shares =
                          (match List.assoc_opt row.Advbist.Synth.k explain_by_k with
                          | Some r -> Ilp.Replay.prune_shares r
                          | None -> []);
                        conflicts =
                          (match o.Advbist.Synth.stats with
                          | Some st -> st.Ilp.Stats.conflicts
                          | None -> 0);
                        learned =
                          (match o.Advbist.Synth.stats with
                          | Some st -> st.Ilp.Stats.learned
                          | None -> 0);
                        deleted =
                          (match o.Advbist.Synth.stats with
                          | Some st -> st.Ilp.Stats.deleted
                          | None -> 0);
                      })
                    rows;
              })
      Circuits.Suite.all
  in
  {
    Advbist.Bench_snapshot.version = 6;
    commit = git_commit ();
    budget_s = budget;
    node_limit = Some snapshot_node_limit;
    jobs;
    (* what Synth.solver_options actually runs the sweep with *)
    config =
      { Advbist.Bench_snapshot.cuts = false; lp = "never" };
    circuits;
    total_wall_s = Unix.gettimeofday () -. started;
  }

let write_snapshot snapshot path =
  let oc = open_out path in
  output_string oc (Advbist.Bench_snapshot.to_string snapshot);
  close_out oc

let bench_json () =
  let path =
    Option.value (Sys.getenv_opt "ADVBIST_BENCH_JSON")
      ~default:"BENCH_solver.json"
  in
  (* The snapshot stamps HEAD as the commit its numbers belong to; on a
     dirty tree that attribution would be a lie, so refuse to run unless
     explicitly overridden. *)
  let snapshot_rel = Filename.basename path in
  (match dirty_entries ~ignore_path:snapshot_rel with
  | [] -> ()
  | entries when Sys.getenv_opt "ADVBIST_BENCH_ALLOW_DIRTY" = Some "1" ->
      Printf.eprintf
        "json: WARNING: dirty tree (%d entries); commit stamp %s is not \
         trustworthy\n%!"
        (List.length entries) (git_commit ())
  | entries ->
      Printf.eprintf
        "json: refusing to run on a dirty tree — the snapshot would stamp \
         commit %s for results it was not produced by.\n\
         Uncommitted changes:\n"
        (git_commit ());
      List.iter (fun l -> Printf.eprintf "  %s\n" l) entries;
      Printf.eprintf
        "Commit (or stash) first, or set ADVBIST_BENCH_ALLOW_DIRTY=1 to \
         override.\n%!";
      exit 1);
  write_snapshot (run_snapshot ~tag:"json" ()) path;
  Printf.printf "json: wrote %s\n" path

(* CI smoke: the canonical provable instance (tseng k=1) must still prove
   optimality inside the wall budget, and no (circuit, k) row may produce
   a worse design area than the committed BENCH_solver.json snapshot
   under the same node budget ([snapshot_node_limit]).  Exit
   status 1 on any regression, so a bounding-strength or warm-start
   regression fails `make ci` fast.  With ADVBIST_BENCH_JSON_OUT set the
   freshly measured sweep is also written as a snapshot — `make
   bench-diff` feeds that to the [diff] arm for the full comparison.
   With ADVBIST_BENCH_TRACE_OUT / ADVBIST_BENCH_EXPLAIN_OUT set, the
   tseng k=1 run additionally leaves its JSONL search trace and the
   Ilp.Replay post-mortem report behind as CI artifacts. *)
let smoke () =
  let failures = ref 0 in
  (match Circuits.Suite.find "tseng" with
  | None ->
      prerr_endline "smoke: tseng circuit missing";
      exit 1
  | Some p -> (
      let trace_out = Sys.getenv_opt "ADVBIST_BENCH_TRACE_OUT" in
      let explain_out = Sys.getenv_opt "ADVBIST_BENCH_EXPLAIN_OUT" in
      let trace = Option.map Ilp.Trace.file trace_out in
      let explain = explain_out <> None in
      match Advbist.Synth.synthesize ~time_limit:budget ?trace ~explain p ~k:1 with
      | Error msg ->
          Printf.eprintf "smoke: tseng k=1 failed: %s\n" msg;
          exit 1
      | Ok o ->
          Option.iter Ilp.Trace.close trace;
          Option.iter
            (fun path -> Printf.printf "smoke: wrote %s\n" path)
            trace_out;
          (match (explain_out, o.Advbist.Synth.explain) with
          | Some path, Some report ->
              let oc = open_out path in
              let ppf = Format.formatter_of_out_channel oc in
              Format.fprintf ppf "%a@?" Ilp.Replay.render_report report;
              close_out oc;
              Printf.printf "smoke: wrote %s\n" path
          | Some path, None ->
              Printf.eprintf "smoke: no explain report captured for %s\n" path
          | None, _ -> ());
          Printf.printf
            "smoke: tseng k=1 area=%d optimal=%b nodes=%d time=%.3fs\n"
            o.Advbist.Synth.area o.Advbist.Synth.optimal o.Advbist.Synth.nodes
            o.Advbist.Synth.solve_time;
          if not o.Advbist.Synth.optimal then begin
            prerr_endline "smoke: FAILED - optimality not proven within budget";
            incr failures
          end));
  (* per-row area regression gate vs the committed snapshot *)
  let snapshot_path = "BENCH_solver.json" in
  let json_out = Sys.getenv_opt "ADVBIST_BENCH_JSON_OUT" in
  let have_baseline = Sys.file_exists snapshot_path in
  if not have_baseline && json_out = None then
    Printf.printf "smoke: no %s; skipping area-regression gate\n" snapshot_path
  else begin
    let current = run_snapshot ~tag:"smoke" () in
    (match json_out with
    | Some path ->
        write_snapshot current path;
        Printf.printf "smoke: wrote %s\n" path
    | None -> ());
    if have_baseline then
      match Advbist.Bench_snapshot.of_file snapshot_path with
      | Error msg ->
          Printf.eprintf "smoke: cannot parse %s: %s\n" snapshot_path msg;
          incr failures
      | Ok baseline ->
          List.iter
            (fun (bc : Advbist.Bench_snapshot.circuit) ->
              match
                List.find_opt
                  (fun (cc : Advbist.Bench_snapshot.circuit) ->
                    cc.Advbist.Bench_snapshot.circuit
                    = bc.Advbist.Bench_snapshot.circuit)
                  current.Advbist.Bench_snapshot.circuits
              with
              | None ->
                  Printf.eprintf "smoke: %s sweep failed or disappeared\n"
                    bc.Advbist.Bench_snapshot.circuit;
                  incr failures
              | Some cc ->
                  List.iter
                    (fun (br : Advbist.Bench_snapshot.row) ->
                      match
                        List.find_opt
                          (fun (cr : Advbist.Bench_snapshot.row) ->
                            cr.Advbist.Bench_snapshot.k
                            = br.Advbist.Bench_snapshot.k)
                          cc.Advbist.Bench_snapshot.rows
                      with
                      | None ->
                          Printf.eprintf "smoke: %s k=%d row disappeared\n"
                            bc.Advbist.Bench_snapshot.circuit
                            br.Advbist.Bench_snapshot.k;
                          incr failures
                      | Some cr ->
                          if
                            cr.Advbist.Bench_snapshot.area
                            > br.Advbist.Bench_snapshot.area
                          then begin
                            Printf.eprintf
                              "smoke: AREA REGRESSION %s k=%d: %d > committed \
                               %d\n"
                              bc.Advbist.Bench_snapshot.circuit
                              br.Advbist.Bench_snapshot.k
                              cr.Advbist.Bench_snapshot.area
                              br.Advbist.Bench_snapshot.area;
                            incr failures
                          end)
                    bc.Advbist.Bench_snapshot.rows;
                  Printf.printf "smoke: %s areas no worse than snapshot\n%!"
                    bc.Advbist.Bench_snapshot.circuit)
            baseline.Advbist.Bench_snapshot.circuits
  end;
  if !failures > 0 then begin
    Printf.eprintf "smoke: FAILED (%d regression(s))\n" !failures;
    exit 1
  end

(* ------------------------------------------------- kernel micro-benchmark *)

(* `perf` arm: the propagation kernel's rate on a fixed instance (tseng
   k=1), for the CI artifact next to bench_diff.txt: full worklist
   fixpoints over the presolved model's rows via
   Ilp.Solver.propagation_rate, in sweeps/s.

   Non-gating by design: the rate is machine-dependent, so the artifact is
   for eyeballing trends across CI runs, not a pass/fail check. *)
let perf () =
  let p =
    match Circuits.Suite.find "tseng" with
    | Some p -> p
    | None ->
        prerr_endline "perf: tseng circuit missing";
        exit 1
  in
  let e = Advbist.Encoding.build p ~n_regs:(Dfg.Problem.min_registers p) ~k:1 in
  let model, _ = Ilp.Presolve.strengthen e.Advbist.Encoding.model in
  Printf.printf "perf: %s\n" (Ilp.Model.stats model);
  let sweeps = 2_000 in
  let rate = Ilp.Solver.propagation_rate model ~sweeps in
  Printf.printf "perf: propagation %d sweeps = %.0f sweeps/s\n" sweeps rate

(* Snapshot regression diff: FAIL on area/optimality/coverage losses,
   warn on node-count, gap, time and phase-share drift. *)
let diff_cmd () =
  if Array.length Sys.argv < 4 then begin
    prerr_endline "usage: main.exe diff BASELINE.json CURRENT.json";
    exit 2
  end;
  let load path =
    match Advbist.Bench_snapshot.of_file path with
    | Ok t -> t
    | Error msg ->
        Printf.eprintf "diff: %s: %s\n" path msg;
        exit 2
  in
  let baseline = load Sys.argv.(2) in
  let current = load Sys.argv.(3) in
  let findings = Advbist.Bench_snapshot.diff ~baseline ~current in
  let report =
    Advbist.Bench_snapshot.render_report ~baseline ~current findings
  in
  print_string report;
  (match Sys.getenv_opt "ADVBIST_BENCH_DIFF_OUT" with
  | Some path ->
      let oc = open_out path in
      output_string oc report;
      close_out oc
  | None -> ());
  if Advbist.Bench_snapshot.has_failures findings then exit 1

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "smoke" then smoke ();
  if what = "json" then bench_json ();
  if what = "diff" then diff_cmd ();
  if what = "perf" then perf ();
  if what = "all" || what = "tables" then begin
    table1 ();
    table2 ();
    table3 ();
    ablation_symmetry ();
    ablation_breakdown ();
    ablation_concurrent_vs_sequential ();
    scalability ()
  end;
  if what = "all" || what = "micro" then micro ()
