(* ilp_cli — standalone driver for the ILP substrate: solve CPLEX-LP files
   with the LP-free branch & bound solver, print their dimensions, or
   explain a recorded search trace.

     dune exec bin/ilp_cli.exe -- solve model.lp [-t SECONDS]
     dune exec bin/ilp_cli.exe -- stats model.lp
     dune exec bin/ilp_cli.exe -- explain trace.jsonl *)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Model in CPLEX LP format.")

let time_limit_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "t"; "time-limit" ] ~docv:"SECONDS" ~doc:"Solver time limit.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log incumbents.")

let learn_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "learn" ] ~docv:"on|off"
        ~doc:
          "Conflict learning: analyze every propagation dead end to a \
           1-UIP nogood, append it to a bounded learned-clause database \
           and backjump non-chronologically.  Default: on.")

let steal_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "steal" ] ~docv:"on|off"
        ~doc:
          "With -j >= 2, split the tree into open subtrees and solve them \
           on a work-stealing domain pool (deterministic: any -j returns \
           the same objective and solution).  Default: on.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the parallel tree search (with --steal on).")

let stats_flag_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect solver telemetry (per-phase timers, propagation, \
           conflict and probing counters, incumbent curve, depth \
           histogram) and print the table to stderr after the solve.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured search trace (nodes, prunes, incumbents, \
           conflicts, subtree spawns/steals) to $(docv) as JSON lines.")

let load path =
  match Ilp.Lp_parse.of_file path with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "ilp: %s\n" msg;
      exit 1

let solve_cmd =
  let run path time_limit verbose learn steal jobs stats trace_file =
    let { Ilp.Lp_parse.model; negated } = load path in
    Printf.printf "%s\n" (Ilp.Model.stats model);
    let trace = Option.map Ilp.Trace.file trace_file in
    let options =
      {
        Ilp.Solver.default with
        Ilp.Solver.time_limit;
        verbose;
        learn;
        stats;
        trace;
      }
    in
    let r =
      if jobs >= 2 && steal then
        Ilp.Solver.solve_parallel ~options ~jobs model
      else Ilp.Solver.solve ~options model
    in
    Option.iter Ilp.Trace.close trace;
    (match r.Ilp.Solver.stats with
    | Some st ->
        Format.eprintf "%a@."
          (Ilp.Stats.pp ~time_s:r.Ilp.Solver.time_s)
          st
    | None -> ());
    let sign v = if negated then -v else v in
    let limit_detail () =
      (* On a limit hit, report how the parallel search spread the work. *)
      Printf.printf "stolen: %d\n" r.Ilp.Solver.stolen
    in
    (match r.Ilp.Solver.status with
    | Ilp.Solver.Optimal ->
        Printf.printf "status: optimal\nobjective: %d\n"
          (sign (Option.get r.Ilp.Solver.objective))
    | Ilp.Solver.Feasible ->
        (* On a limit hit the proof state is the interesting part: how far
           the best bound still is from the incumbent. *)
        let obj = Option.get r.Ilp.Solver.objective in
        Printf.printf "status: feasible (limit hit)\nobjective: %d\nbound: %d\n"
          (sign obj) (sign r.Ilp.Solver.bound);
        if r.Ilp.Solver.bound > min_int then
          Printf.printf "gap: %.2f%%\n"
            (100.0
            *. float_of_int (obj - r.Ilp.Solver.bound)
            /. float_of_int (max 1 (abs obj)));
        limit_detail ()
    | Ilp.Solver.Infeasible -> Printf.printf "status: infeasible\n"
    | Ilp.Solver.Unknown ->
        Printf.printf "status: unknown (limit hit)\n";
        if r.Ilp.Solver.bound > min_int then
          Printf.printf "bound: %d\n" (sign r.Ilp.Solver.bound);
        limit_detail ());
    Printf.printf "nodes: %d\ntime: %.3fs\n" r.Ilp.Solver.nodes
      r.Ilp.Solver.time_s;
    match r.Ilp.Solver.solution with
    | None -> ()
    | Some x ->
        for v = 0 to Ilp.Model.n_vars model - 1 do
          if x.(v) <> 0 then
            Printf.printf "  %s = %d\n" (Ilp.Model.var_name model v) x.(v)
        done
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve an integer program to optimality.")
    Term.(
      const run $ file_arg $ time_limit_arg $ verbose_arg $ learn_arg
      $ steal_arg $ jobs_arg $ stats_flag_arg $ trace_arg)

let stats_cmd =
  let run path =
    let { Ilp.Lp_parse.model; _ } = load path in
    Printf.printf "%s\n" (Ilp.Model.stats model)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print model dimensions.")
    Term.(const run $ file_arg)

let explain_cmd =
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"JSONL search trace (from --trace).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Additionally export the trace as Chrome trace-event JSON \
             (load in chrome://tracing or Perfetto).")
  in
  let run trace_file chrome =
    match Ilp.Replay.of_file trace_file with
    | Error msg ->
        Printf.eprintf "ilp: %s: %s\n" trace_file msg;
        exit 1
    | Ok events ->
        let report = Ilp.Replay.analyze events in
        Format.printf "%a@?" Ilp.Replay.render_report report;
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Ilp.Replay.chrome_of_events events));
            Printf.printf "chrome trace written to %s\n" path)
          chrome
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Post-mortem of a recorded search trace: prune-reason \
          attribution, wasted work against the final incumbent, \
          primal/dual gap closure, per-depth and per-variable profiles.")
    Term.(const run $ trace_pos $ chrome_arg)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ilp" ~version:"1.0.0"
             ~doc:"Standalone 0-1/integer linear programming solver")
          [ solve_cmd; stats_cmd; explain_cmd ]))
