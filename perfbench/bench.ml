(* Workloads, set-up and passes of the benchmark.

   A pass calls the public entry points [Advbist.Synth.reference],
   [Advbist.Synth.synthesize] and [Advbist.Synth.sweep] on the workload's
   instances and re-audits every design they return.  The
   traced pass does the same with a span around each call, child spans
   from the returned [Ilp.Stats] phases, and sibling spans from re-driving
   the front-end calls on the same instance. *)

type call =
  | Reference of string  (** [Synth.reference] of a circuit *)
  | Synthesize of string * int  (** [Synth.synthesize] at one k *)
  | Sweep of string  (** [Synth.sweep]: the reference and k = 1 .. N *)

type workload = {
  name : string;
  jobs : int;
  node_limit : int option;  (** per solve; [None] solves to a proof *)
  copies : int;
      (** relabeled copies of each circuit per pass; proof times vary
          between copies, and a sum over several varies less between
          seeds *)
  calls : call list;
  parallel : call list;
      (** calls the traced run repeats on the first copy at jobs = 2, 3
          and 1, for the pool metrics and the jobs-invariance check *)
}

let circuit_of = function
  | Reference c | Synthesize (c, _) | Sweep c -> c

(* wavelet6 without its k = 3 row.  On about one relabeled copy in
   seventy that row starts without an incumbent, and on two of 1,400
   random seeds it found none within 10,000 nodes, which fails the sweep.
   The k = 1 and k = 2 rows, solved one by one, found a design within
   1,000 nodes on each of those 1,400 seeds. *)
let wavelet6 =
  [ Reference "wavelet6"; Synthesize ("wavelet6", 1); Synthesize ("wavelet6", 2) ]

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    {
      name = "prove";
      jobs = 1;
      node_limit = None;
      copies = 12;
      (* Many small proofs rather than a few large ones: proof effort
         differs between relabeled copies, and a sum over many copies
         varies less between seeds.  That leaves out the tseng k = 2 and
         k = 3 rows (their node counts swing by a fifth between seeds even
         summed over three copies) and the dct4 reference (220k to 510k
         nodes per copy). *)
      calls =
        [
          Reference "tseng";
          Synthesize ("tseng", 1);
          Reference "paulin";
          Reference "iir3";
        ];
      (* The parallel path has no workload of its own: at jobs = 2 the
         tseng sweep's node count swings by a fifth between seeds, too
         much for a bounded end-to-end metric. *)
      parallel = [ Sweep "tseng" ];
    };
    {
      name = "effort";
      jobs = 1;
      node_limit = Some 10_000;
      copies = 1;
      calls = List.map (fun c -> Sweep c) [ "paulin"; "fir6"; "iir3"; "dct4" ] @ wavelet6;
      parallel = [];
    };
    {
      name = "explore";
      jobs = 1;
      (* small enough that the search does little of the work *)
      node_limit = Some 1000;
      copies = 1;
      (* ewf runs its reference only: the heuristic's ewf data path admits
         no BIST plan, so on many relabeled copies the k = 1 solve starts
         without an incumbent and found none within 300 nodes.  There are
         no Heuristic.synthesize calls: its data path depends on the
         labels, and on some relabeled copies it admits no BIST plan. *)
      calls =
        List.map (fun c -> Sweep c) [ "tseng"; "paulin"; "fir6"; "iir3"; "dct4" ]
        @ wavelet6 @ [ Reference "ewf" ];
      parallel = [];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let now = Unix.gettimeofday

(* ---- Set-up ------------------------------------------------------------ *)

(* The scheduled circuits with the allocations of [Circuits.Suite]; set-up
   schedules them again so that scheduling is part of its time. *)
let scheduled =
  let open Dfg.Fu_kind in
  [
    ("fir6", Hls.Kernel.fir6, false, [ multiplier; alu; alu ]);
    ("iir3", Hls.Kernel.iir3, false, [ multiplier; multiplier; alu ]);
    ("dct4", Hls.Kernel.dct4, false, [ multiplier; multiplier; alu; alu ]);
    ("wavelet6", Hls.Kernel.wavelet6, true, [ multiplier; alu; alu ]);
    ("ewf", Hls.Kernel.ewf, true, [ multiplier; multiplier; adder; adder ]);
  ]

type setup = {
  instances : (string * Dfg.Problem.t) list array;  (** per copy *)
  setup_s : float;
  schedule_s : float;
  relabel_s : float;
}

let warm_up_nodes = 200

(* Schedules the circuits and checks them against the shipped suite,
   relabels the workload's circuits for [seed], and warms up with a short
   node-limited reference solve of each.  Raises [Failure] on any set-up
   error. *)
let setup w ~seed =
  let t0 = now () in
  let shipped =
    ("tseng", Dfg.Benchmarks.tseng)
    :: ("paulin", Dfg.Benchmarks.paulin)
    :: List.map
         (fun (name, kernel, minimize_pressure, modules) ->
           match
             Hls.Schedule.list_schedule ~minimize_pressure ~inputs_at_start:true
               kernel ~modules
           with
           | Error msg -> failwith (name ^ ": " ^ msg)
           | Ok p ->
               if Circuits.Suite.find name <> Some p then
                 failwith (name ^ ": schedule differs from Circuits.Suite");
               (name, p))
         scheduled
  in
  let t1 = now () in
  let names = List.sort_uniq compare (List.map circuit_of w.calls) in
  let instances =
    Array.init w.copies (fun copy ->
        List.map
          (fun name ->
            let p = List.assoc name shipped in
            match Relabel.relabel ~seed ~copy ~name p with
            | Error msg -> failwith (name ^ ": relabeling: " ^ msg)
            | Ok p' ->
                if Relabel.op_kinds p' <> Relabel.op_kinds p then
                  failwith (name ^ ": relabeling changed the operations");
                (name, p'))
          names)
  in
  let t2 = now () in
  Array.iter
    (List.iter (fun (name, p) ->
         match
           Advbist.Synth.reference ~node_limit:warm_up_nodes
             ~time_limit:Ledger.guard_s p
         with
         | Ok _ -> ()
         | Error msg -> failwith (name ^ ": warm-up: " ^ msg)))
    instances;
  { instances; setup_s = now () -. t0; schedule_s = t1 -. t0; relabel_s = t2 -. t1 }

(* ---- Passes ------------------------------------------------------------ *)

(* Per-layer accumulators of the traced pass. *)
type layers = {
  spans : Spans.t;
  mutable stats : Ilp.Stats.t option;  (** merged over every solve *)
  mutable rows : int;
  mutable nnz : int;
  mutable dropped_rows : int;
  mutable session_calls : int;
  mutable session_nodes : int;
}

let layers () =
  {
    spans = Spans.create ();
    stats = None;
    rows = 0;
    nnz = 0;
    dropped_rows = 0;
    session_calls = 0;
    session_nodes = 0;
  }

type pass = {
  mutable wall_s : float;
  mutable nodes : int;
  mutable solve_s : float;  (** summed solver [time_s] *)
  mutable proved : int;
  mutable area_total : int;
  mutable gaps : float list;  (** [gap_pct] of the unproved BIST rows *)
  mutable designs : (string * int * string) list;
      (** label, area and {!shape}, newest first *)
  ledger : Ledger.t;
}

let gap_pct_mean p =
  match p.gaps with
  | [] -> 0.0
  | g -> List.fold_left ( +. ) 0.0 g /. float_of_int (List.length g)

(* A digest of a design's bindings: equal digests mean the same data
   path and, for a plan, the same sessions and test registers. *)
let shape ?plan (d : Datapath.Netlist.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let netlist =
    Printf.sprintf "r%s m%s s%s" (ints d.reg_of_var) (ints d.module_of_op)
      (ints (Array.map Bool.to_int d.swapped))
  in
  let plan =
    match plan with
    | None -> ""
    | Some (p : Bist.Plan.t) ->
        Printf.sprintf " S%s R%s T%s" (ints p.session_of_module)
          (ints p.sr_of_module)
          (String.concat ";" (Array.to_list (Array.map ints p.tpg_of_port)))
  in
  String.sub (Digest.to_hex (Digest.string (netlist ^ plan))) 0 12

(* What must repeat exactly between passes: the counts, and every
   design's area and bindings. *)
let fingerprint p =
  Printf.sprintf "nodes=%d proved=%d area_total=%d gap_pct_mean=%.17g [%s]"
    p.nodes p.proved p.area_total (gap_pct_mean p)
    (String.concat " "
       (List.rev_map (fun (l, a, s) -> Printf.sprintf "%s:%d:%s" l a s) p.designs))

let timed trace name f =
  match trace with
  | None -> (f (), None)
  | Some l ->
      let r, id = Spans.time l.spans name f in
      (r, Some id)

let span l name f = fst (Spans.time l.spans name f)

(* One solve's node count and solver time; when traced, its stats phases
   become child spans of the call span [parent]. *)
let solved pass trace ~parent ~nodes ~time_s stats =
  pass.nodes <- pass.nodes + nodes;
  pass.solve_s <- pass.solve_s +. time_s;
  match (trace, parent, stats) with
  | Some l, Some parent, Some st ->
      l.stats <-
        Some (match l.stats with None -> st | Some acc -> Ilp.Stats.merge acc st);
      List.iter
        (fun (phase, s) ->
          (* presolve runs in Synth before the solver is entered *)
          let name = if phase = "presolve" then "synth.presolve" else "solver." ^ phase in
          let id = Spans.add l.spans ~parent name s in
          (* the synthesis path solves an LP at the root node only, which
             the search phase processes like any other node *)
          if phase = "search" then begin
            ignore (Spans.add l.spans ~parent:id "simplex.lp" st.Ilp.Stats.lp_s);
            ignore (Spans.add l.spans ~parent:id "solver.probe" st.Ilp.Stats.probe_s)
          end)
        (Ilp.Stats.phases st)
  | _ -> ()

let design pass trace ~label ~circuit ~k ~must_prove ~proved ~time_s ~area ~shape
    audit =
  let audited, _ = timed trace "decode.audit" (fun () -> Ledger.guarded audit) in
  pass.area_total <- pass.area_total + area;
  pass.designs <- (label, area, shape) :: pass.designs;
  if proved then pass.proved <- pass.proved + 1;
  Ledger.record pass.ledger ~label
    ((match audited with Ok () -> [] | Error msg -> [ "audit: " ^ msg ])
    @ Ledger.design_problems ~circuit ~k ~must_prove ~proved ~time_s area)

let session l d ~k =
  l.session_calls <- l.session_calls + 1;
  match
    span l "session_opt.solve" (fun () ->
        Advbist.Session_opt.solve ~time_limit:Ledger.guard_s d ~k)
  with
  | Ok o -> l.session_nodes <- l.session_nodes + o.Advbist.Session_opt.nodes
  | Error _ -> ()

(* The front-end calls a Synth call makes on one instance, driven again
   from outside so that each gets its own span. *)
let redrive l p ~k =
  let n_regs = Dfg.Problem.min_registers p in
  let e =
    span l "encoding.build" (fun () ->
        if k = 0 then Advbist.Encoding.build_reference p ~n_regs
        else Advbist.Encoding.build p ~n_regs ~k)
  in
  let model = e.Advbist.Encoding.model in
  let rows = Ilp.Model.constraints model in
  l.rows <- l.rows + Array.length rows;
  l.nnz <-
    Array.fold_left
      (fun acc c -> acc + Ilp.Linexpr.n_terms c.Ilp.Model.expr)
      l.nnz rows;
  let _, pstats = span l "presolve.strengthen" (fun () -> Ilp.Presolve.strengthen model) in
  l.dropped_rows <- l.dropped_rows + pstats.Ilp.Presolve.dropped_rows;
  let netlist = span l "heuristic.netlist" (fun () -> Advbist.Heuristic.netlist p) in
  if k > 0 then begin
    ignore
      (span l "encoding.lower_bound" (fun () ->
           Advbist.Encoding.objective_lower_bound e));
    Result.iter (fun d -> session l d ~k) netlist
  end

let run_call w trace pass ~copy instances call =
  let circuit = circuit_of call in
  let p = List.assoc circuit instances in
  let must_prove = w.node_limit = None in
  let node_limit = w.node_limit and jobs = w.jobs in
  let time_limit = Ledger.guard_s in
  let copy_name =
    if w.copies > 1 then Printf.sprintf "%s#%d" circuit copy else circuit
  in
  let label k =
    if k = 0 then copy_name ^ " ref" else Printf.sprintf "%s k=%d" copy_name k
  in
  let reference ~parent (r : Advbist.Synth.reference) =
    let nodes = Option.fold ~none:0 ~some:Ilp.Stats.total_nodes r.ref_stats in
    solved pass trace ~parent ~nodes ~time_s:r.ref_time r.ref_stats;
    design pass trace ~label:(label 0) ~circuit ~k:0 ~must_prove
      ~proved:r.ref_optimal ~time_s:r.ref_time ~area:r.ref_area
      ~shape:(shape r.ref_netlist) (fun () ->
        Ledger.audit_reference p r.ref_netlist ~area:r.ref_area);
    Option.iter (fun l -> redrive l p ~k:0) trace
  in
  let row ~parent ~k (o : Advbist.Synth.outcome) =
    solved pass trace ~parent ~nodes:o.nodes ~time_s:o.solve_time o.stats;
    if not o.optimal then pass.gaps <- o.gap_pct :: pass.gaps;
    design pass trace ~label:(label k) ~circuit ~k ~must_prove
      ~proved:o.optimal ~time_s:o.solve_time ~area:o.area
      ~shape:(shape ~plan:o.plan o.plan.Bist.Plan.netlist) (fun () ->
        Ledger.audit_plan p o.plan ~k ~area:o.area);
    Option.iter
      (fun l ->
        redrive l p ~k;
        (* the repair pass Synth runs on every unproved row *)
        if not o.optimal then session l o.plan.Bist.Plan.netlist ~k)
      trace
  in
  match call with
  | Reference _ -> (
      match
        timed trace "synth.reference" (fun () ->
            Ledger.guarded (fun () ->
                Advbist.Synth.reference ?node_limit ~time_limit ~jobs
                  ~stats:true p))
      with
      | Error msg, _ -> Ledger.record pass.ledger ~label:(label 0) [ msg ]
      | Ok r, parent -> reference ~parent r)
  | Synthesize (_, k) -> (
      match
        timed trace "synth.synthesize" (fun () ->
            Ledger.guarded (fun () ->
                Advbist.Synth.synthesize ?node_limit ~time_limit ~jobs
                  ~stats:true p ~k))
      with
      | Error msg, _ -> Ledger.record pass.ledger ~label:(label k) [ msg ]
      | Ok o, parent -> row ~parent ~k o)
  | Sweep _ -> (
      match
        timed trace "synth.sweep" (fun () ->
            Ledger.guarded (fun () ->
                Advbist.Synth.sweep ?node_limit ~time_limit ~jobs ~stats:true p))
      with
      | Error msg, _ ->
          (* a sweep stops at its first error: every design it owed fails *)
          for k = 0 to Dfg.Problem.n_modules p do
            Ledger.record pass.ledger ~label:(label k) [ msg ]
          done
      | Ok (r, rows), parent ->
          reference ~parent r;
          List.iter
            (fun (r : Advbist.Synth.sweep_row) -> row ~parent ~k:r.k r.outcome)
            rows)

let run_pass ?trace w instances =
  let pass =
    {
      wall_s = 0.0;
      nodes = 0;
      solve_s = 0.0;
      proved = 0;
      area_total = 0;
      gaps = [];
      designs = [];
      ledger = Ledger.create ();
    }
  in
  let t0 = now () in
  Array.iteri
    (fun copy instances ->
      List.iter (run_call w trace pass ~copy instances) w.calls)
    instances;
  pass.wall_s <- now () -. t0;
  pass
