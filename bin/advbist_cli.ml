(* advbist — command-line front end.

   Subcommands:
     list                         available built-in circuits
     show    -c NAME | -f FILE    print the DFG, resources, dot export
     ref     -c NAME | -f FILE    optimal non-BIST reference data path
     synth   -c NAME | -f FILE    BIST synthesis (ADVBIST or a baseline)
     sweep   -c NAME | -f FILE    one ADVBIST design per k = 1..N
     compare -c NAME | -f FILE    all four methods at maximal k *)

open Cmdliner

let default_modules g =
  (* a generic allocation for user-supplied DFGs: one unit kind per class
     of operations present, doubled for multipliers when two are needed *)
  let kinds = Dfg.Graph.op_kinds g in
  let wanted =
    List.sort_uniq compare
      (List.map
         (fun k ->
           match k with
           | Dfg.Op_kind.Mul -> Dfg.Fu_kind.multiplier
           | Dfg.Op_kind.Add | Dfg.Op_kind.Sub | Dfg.Op_kind.Lt ->
               Dfg.Fu_kind.alu
           | Dfg.Op_kind.And | Dfg.Op_kind.Or | Dfg.Op_kind.Xor ->
               Dfg.Fu_kind.logic
           | Dfg.Op_kind.Shl | Dfg.Op_kind.Shr -> Dfg.Fu_kind.shifter)
         kinds)
  in
  let counts = Dfg.Lifetime.min_modules g wanted in
  List.concat_map (fun (fu, n) -> List.init n (fun _ -> fu)) counts

let load ~circuit ~file =
  match (circuit, file) with
  | Some name, None -> (
      match Circuits.Suite.find name with
      | Some p -> Ok p
      | None ->
          Error
            (Printf.sprintf "unknown circuit %S; try: %s" name
               (String.concat ", "
                  (List.map fst (Circuits.Suite.all @ Circuits.Suite.extras)))))
  | None, Some path -> (
      match Dfg.Parse.of_file path with
      | Error msg -> Error msg
      | Ok g -> (
          match Dfg.Problem.make g (default_modules g) with
          | Ok p -> Ok p
          | Error msg -> Error msg))
  | Some _, Some _ -> Error "give either --circuit or --file, not both"
  | None, None -> Error "one of --circuit or --file is required"

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Built-in benchmark circuit.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"DFG file (textual format).")

let time_limit_arg =
  Arg.(
    value
    & opt float 30.0
    & info [ "t"; "time-limit" ] ~docv:"SECONDS"
        ~doc:"Solver time limit per ILP (the paper used 24 CPU hours).")

let jobs_arg =
  Arg.(
    value
    & opt int (Ilp.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains: with $(docv) >= 2, split each solve into open \
           subtrees on $(docv) domains with work stealing (deterministic \
           across -j >= 2).  Default: $(b,ADVBIST_JOBS) from the \
           environment, else 1.")

let k_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k" ] ~docv:"K"
        ~doc:"Number of sub-test sessions (default: number of modules).")

let method_arg =
  Arg.(
    value
    & opt (enum [ ("advbist", `Advbist); ("advan", `Advan);
                  ("ralloc", `Ralloc); ("bits", `Bits) ])
        `Advbist
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Synthesis method: advbist (exact ILP), advan, ralloc or bits.")

let verilog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "verilog" ] ~docv:"FILE" ~doc:"Write the data path as Verilog.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the DFG as Graphviz dot.")

let lp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lp" ] ~docv:"FILE"
        ~doc:"Export the ILP model in CPLEX LP format (synth only).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the solver telemetry (per-phase timers, propagation, \
           conflict and probing counters, incumbent curve, depth \
           histogram) to stderr; sweep prints the aggregate over every \
           solve.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured solver search trace (nodes, prunes, \
           incumbents, conflicts, subtree spawns/steals) to $(docv) as \
           JSON lines.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Capture the solve's search trace and print a post-mortem to \
           stderr: prune-reason attribution, wasted work against the \
           final incumbent, primal/dual gap closure, per-depth and \
           per-variable branching profiles.  Composes with --trace (the \
           sink still receives every event).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Advbist.Report.Text); ("md", Advbist.Report.Markdown);
                  ("csv", Advbist.Report.Csv) ])
        Advbist.Report.Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, md or csv.")

let or_die = function
  | Ok x -> x
  | Error msg ->
      Printf.eprintf "advbist: %s\n" msg;
      exit 1

(* [write ()] creates or writes [path]; an unwritable path is reported as
   "cannot write PATH: reason" instead of escaping as an exception (a
   Sys_error message usually starts with the path already). *)
let writing path write =
  try write ()
  with Sys_error msg ->
    let msg =
      if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
    in
    or_die (Error ("cannot write " ^ msg))

let open_trace =
  Option.map (fun path -> writing path (fun () -> Ilp.Trace.file path))

(* -- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, p) ->
        Printf.printf "%-10s %2d vars %2d ops %d steps; %d registers, %d modules\n"
          name
          (Dfg.Graph.n_vars p.Dfg.Problem.dfg)
          (Dfg.Graph.n_ops p.Dfg.Problem.dfg)
          p.Dfg.Problem.dfg.Dfg.Graph.n_steps
          (Dfg.Problem.min_registers p)
          (Dfg.Problem.n_modules p))
      (Circuits.Suite.all @ Circuits.Suite.extras)
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in benchmark circuits.")
    Term.(const run $ const ())

(* -- show ---------------------------------------------------------------- *)

let show_cmd =
  let run circuit file dot =
    let p = or_die (load ~circuit ~file) in
    Format.printf "%a@." Dfg.Problem.pp p;
    Format.printf "minimum registers: %d@." (Dfg.Problem.min_registers p);
    Option.iter
      (fun path ->
        writing path (fun () -> Dfg.Dot.to_file path p.Dfg.Problem.dfg);
        Format.printf "wrote %s@." path)
      dot
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a DFG and its resource bounds.")
    Term.(const run $ circuit_arg $ file_arg $ dot_arg)

(* -- ref ----------------------------------------------------------------- *)

let ref_cmd =
  let run circuit file time_limit verilog =
    let p = or_die (load ~circuit ~file) in
    let r = or_die (Advbist.Synth.reference ~time_limit p) in
    Format.printf "%a@." Datapath.Netlist.pp r.Advbist.Synth.ref_netlist;
    Format.printf "reference area: %d%s@." r.Advbist.Synth.ref_area
      (if r.Advbist.Synth.ref_optimal then " (optimal)" else " *");
    Option.iter
      (fun path ->
        writing path (fun () ->
            Datapath.Rtl.to_file path r.Advbist.Synth.ref_netlist);
        Format.printf "wrote %s@." path)
      verilog
  in
  Cmd.v
    (Cmd.info "ref" ~doc:"Synthesize the area-optimal non-BIST data path.")
    Term.(const run $ circuit_arg $ file_arg $ time_limit_arg $ verilog_arg)

(* -- synth --------------------------------------------------------------- *)

let synth_cmd =
  let run circuit file time_limit k meth verilog lp jobs stats trace_file
      explain =
    let p = or_die (load ~circuit ~file) in
    let k = Option.value k ~default:(Dfg.Problem.n_modules p) in
    Option.iter
      (fun path ->
        if k < 1 then or_die (Error "--lp needs k >= 1 test sessions");
        let e = Advbist.Encoding.build p ~n_regs:(Dfg.Problem.min_registers p) ~k in
        writing path (fun () ->
            Ilp.Lp_format.to_file path e.Advbist.Encoding.model);
        Format.printf "wrote %s@." path)
      lp;
    let trace = open_trace trace_file in
    let plan, tag =
      match meth with
      | `Advbist ->
          let o =
            or_die
              (Advbist.Synth.synthesize ~time_limit ~jobs ~stats ?trace
                 ~explain p ~k)
          in
          (match o.Advbist.Synth.stats with
          | Some st ->
              Format.eprintf "%a@."
                (Ilp.Stats.pp ~time_s:o.Advbist.Synth.solve_time)
                st
          | None -> ());
          (match o.Advbist.Synth.explain with
          | Some report ->
              Format.eprintf "%a@?" Ilp.Replay.render_report report
          | None -> ());
          ( o.Advbist.Synth.plan,
            if o.Advbist.Synth.optimal then "optimal"
            else
              Printf.sprintf "time limit *; gap %.1f%%, %d stolen subtrees"
                o.Advbist.Synth.gap_pct o.Advbist.Synth.stolen )
      | `Advan -> (or_die (Baselines.Advan.synthesize p ~k), "heuristic")
      | `Ralloc -> (or_die (Baselines.Ralloc.synthesize p ~k), "heuristic")
      | `Bits -> (or_die (Baselines.Bits.synthesize p ~k), "heuristic")
    in
    Option.iter Ilp.Trace.close trace;
    Format.printf "%a@.(%s)@." Bist.Plan.pp plan tag;
    (match Advbist.Synth.reference ~time_limit p with
    | Ok r ->
        Format.printf "overhead vs reference (%d): %.1f%%@."
          r.Advbist.Synth.ref_area
          (Bist.Plan.overhead_pct plan ~reference:r.Advbist.Synth.ref_area)
    | Error _ -> ());
    Option.iter
      (fun path ->
        writing path (fun () ->
            Datapath.Rtl.to_file path plan.Bist.Plan.netlist);
        Format.printf "wrote %s@." path)
      verilog
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a built-in self-testable data path.")
    Term.(
      const run $ circuit_arg $ file_arg $ time_limit_arg $ k_arg $ method_arg
      $ verilog_arg $ lp_arg $ jobs_arg $ stats_arg $ trace_arg
      $ explain_arg)

(* -- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let run circuit file time_limit fmt jobs stats trace_file explain =
    let p = or_die (load ~circuit ~file) in
    let trace = open_trace trace_file in
    let reference, rows =
      or_die
        (Advbist.Synth.sweep ~time_limit ~jobs ~stats ?trace ~explain p)
    in
    Option.iter Ilp.Trace.close trace;
    Format.printf "reference area %d%s@." reference.Advbist.Synth.ref_area
      (if reference.Advbist.Synth.ref_optimal then "" else " *");
    List.iter
      (fun { Advbist.Synth.k; outcome = o; _ } ->
        if not o.Advbist.Synth.optimal then
          Format.printf "k=%d: limit hit; gap %.1f%%, %d stolen subtrees@." k
            o.Advbist.Synth.gap_pct o.Advbist.Synth.stolen)
      rows;
    (* the aggregate over every solve of the sweep, reference included *)
    (match Advbist.Synth.sweep_stats ~reference rows with
    | Some st -> Format.eprintf "%a@." (Ilp.Stats.pp ?time_s:None) st
    | None -> ());
    List.iter
      (fun { Advbist.Synth.k; outcome = o; _ } ->
        match o.Advbist.Synth.explain with
        | Some report ->
            Format.eprintf "k=%d %a@?" k Ilp.Replay.render_report report
        | None -> ())
      rows;
    print_string
      (Advbist.Report.render_sweep fmt (Advbist.Report.sweep_points rows))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Synthesize one ADVBIST design per k-test session (Table 2).")
    Term.(
      const run $ circuit_arg $ file_arg $ time_limit_arg $ format_arg
      $ jobs_arg $ stats_arg $ trace_arg $ explain_arg)

(* -- compare ------------------------------------------------------------- *)

let compare_cmd =
  let run circuit file time_limit fmt =
    let p = or_die (load ~circuit ~file) in
    let k = Dfg.Problem.n_modules p in
    let reference = or_die (Advbist.Synth.reference ~time_limit p) in
    Format.printf "k = %d; reference area %d@." k
      reference.Advbist.Synth.ref_area;
    let reference_area = reference.Advbist.Synth.ref_area in
    let rows = ref [] in
    (match Advbist.Synth.synthesize ~time_limit p ~k with
    | Ok o ->
        rows :=
          [ Advbist.Report.row_of_plan ~name:"ADVBIST"
              ~optimal:o.Advbist.Synth.optimal ~reference_area
              o.Advbist.Synth.plan ]
    | Error msg -> Format.printf "ADVBIST: %s@." msg);
    List.iter
      (fun (mname, f) ->
        match f p ~k with
        | Ok plan ->
            rows :=
              !rows
              @ [ Advbist.Report.row_of_plan ~name:mname ~reference_area plan ]
        | Error msg -> Format.printf "%-8s %s@." mname msg)
      [
        ("ADVAN", Baselines.Advan.synthesize);
        ("RALLOC", Baselines.Ralloc.synthesize);
        ("BITS", Baselines.Bits.synthesize);
      ];
    print_string (Advbist.Report.render_methods fmt !rows)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare ADVBIST with ADVAN, RALLOC and BITS (Table 3).")
    Term.(const run $ circuit_arg $ file_arg $ time_limit_arg $ format_arg)

let () =
  let doc = "ILP-based built-in self-testable data path synthesis (DAC'99)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "advbist" ~version:"1.0.0" ~doc)
          [ list_cmd; show_cmd; ref_cmd; synth_cmd; sweep_cmd; compare_cmd ]))
