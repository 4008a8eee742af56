(* Per-solve counters and phase timers.  One record per search (and per
   parallel worker); merged at combine so the hot path never touches an
   atomic and jobs-deterministic fields stay deterministic.  All fields
   are plain mutables: the solver bumps them behind a single
   [match stats with Some st -> ... | None -> ()] branch, so a disabled
   run costs one word-compare per instrumented site and allocates
   nothing. *)

type t = {
  (* Wall-clock phase timers (seconds).  The top-level phases are disjoint
     segments of the solve call measured on the calling domain, so their
     sum accounts for (almost all of) [outcome.time_s]. *)
  mutable presolve_s : float;  (* caller-side Presolve.strengthen, if any *)
  mutable prepare_s : float;  (* symmetry detection + canonicalization *)
  mutable cuts_s : float;  (* root cut loop (incl. its LP resolves) *)
  mutable build_s : float;  (* search-state construction + warm start *)
  mutable root_s : float;  (* root propagation + shaving fixpoint *)
  mutable search_s : float;  (* tree search (all nodes, all workers) *)
  (* Sub-timers: CPU time summed across workers, attributed inside
     [search_s] / [root_s]; not part of the disjoint phase account. *)
  mutable lp_s : float;  (* root LP bounding *)
  mutable probe_s : float;  (* in-tree probing *)
  (* Symmetry detection inside [prepare_s]. *)
  mutable sym_refine_passes : int;  (* colour-refinement passes run *)
  mutable sym_transpositions : int;  (* transposition checks by detection *)
  (* Root cut loop. *)
  mutable cut_rounds : int;
  mutable cuts_generated : int;  (* separated by Cuts.separate *)
  mutable cuts_kept : int;  (* appended to the model *)
  (* Propagation. *)
  mutable prop_fixpoints : int;  (* worklist fixpoints run *)
  mutable prop_ticks : int;  (* row propagations + orbit passes *)
  mutable prop_scans : int;  (* row propagations that scanned the entries *)
  mutable prop_conflicts : int;  (* fixpoints ending in a conflict *)
  (* Conflict engine (1-UIP nogood learning). *)
  mutable conflicts : int;  (* conflicts analyzed at depth > 0 *)
  mutable learned : int;  (* nogoods appended to the clause database *)
  mutable deleted : int;  (* learned rows dropped by database reduction *)
  mutable backjumps : int;  (* root-asserting conflicts that aborted the dive *)
  mutable backjump_depth : int;  (* sum of (conflict level - asserting level) *)
  (* Probing (in-tree shaving + root shaving trials). *)
  mutable probe_calls : int;  (* probing steps actually run at a node *)
  mutable probe_skips : int;  (* nodes skipped by the backoff gate *)
  mutable probe_trials : int;  (* tentative endpoint propagations *)
  mutable probe_hits : int;  (* probing steps that landed a fixing *)
  mutable probe_backoffs : int;  (* times the skip gap widened *)
  (* Root LP bounding (each re-dive and parallel subtree root). *)
  mutable lp_resolves : int;  (* all root LP calls *)
  mutable lp_warm : int;  (* warm re-solves reaching optimality *)
  mutable lp_fallbacks : int;  (* capped re-solves rescued by weak duality *)
  mutable lp_infeasible : int;  (* LP-infeasible verdicts *)
  mutable lp_cold : int;  (* cold two-phase solves (no warm engine) *)
  mutable lp_pivots : int;  (* cumulative dual pivots of the warm engine *)
  mutable lp_iters : int;  (* cumulative dual-simplex iterations *)
  mutable lp_refactors : int;  (* basis refactorizations of the warm engine *)
  mutable rc_fixings : int;  (* variables fixed by reduced cost *)
  mutable orbit_fixings : int;  (* bound changes by the orbital propagator *)
  (* Primal progress: every incumbent improvement as
     (seconds since solve start, nodes so far, objective), newest first. *)
  mutable incumbents : (float * int * int) list;
  (* Per-depth node histogram; grows on demand.  Its sum equals the
     outcome's node count in both entry points (parallel subtrees count
     depth below their subtree root). *)
  mutable depth_hist : int array;
  (* Parallel search. *)
  mutable subtrees : int;  (* frontier size (0 for sequential solves) *)
  mutable steals : int;  (* subtrees stolen across domains *)
  mutable workers : int;  (* worker domains (0 for sequential solves) *)
}

let create () =
  {
    presolve_s = 0.0;
    prepare_s = 0.0;
    cuts_s = 0.0;
    build_s = 0.0;
    root_s = 0.0;
    search_s = 0.0;
    lp_s = 0.0;
    probe_s = 0.0;
    sym_refine_passes = 0;
    sym_transpositions = 0;
    cut_rounds = 0;
    cuts_generated = 0;
    cuts_kept = 0;
    prop_fixpoints = 0;
    prop_ticks = 0;
    prop_scans = 0;
    prop_conflicts = 0;
    conflicts = 0;
    learned = 0;
    deleted = 0;
    backjumps = 0;
    backjump_depth = 0;
    probe_calls = 0;
    probe_skips = 0;
    probe_trials = 0;
    probe_hits = 0;
    probe_backoffs = 0;
    lp_resolves = 0;
    lp_warm = 0;
    lp_fallbacks = 0;
    lp_infeasible = 0;
    lp_cold = 0;
    lp_pivots = 0;
    lp_iters = 0;
    lp_refactors = 0;
    rc_fixings = 0;
    orbit_fixings = 0;
    incumbents = [];
    depth_hist = [||];
    subtrees = 0;
    steals = 0;
    workers = 0;
  }

let node t ~depth =
  let n = Array.length t.depth_hist in
  if depth >= n then begin
    let h = Array.make (max (depth + 1) ((2 * n) + 8)) 0 in
    Array.blit t.depth_hist 0 h 0 n;
    t.depth_hist <- h
  end;
  t.depth_hist.(depth) <- t.depth_hist.(depth) + 1

let incumbent t ~time_s ~nodes ~objective =
  t.incumbents <- (time_s, nodes, objective) :: t.incumbents

let total_nodes t = Array.fold_left ( + ) 0 t.depth_hist

let max_depth t =
  let d = ref 0 in
  Array.iteri (fun i n -> if n > 0 then d := i) t.depth_hist;
  !d

let primal_progress t =
  (* oldest first; the reverse-chronological push order is not trusted
     because [merge] interleaves several histories *)
  List.sort compare t.incumbents

(* Disjoint top-level phases, in pipeline order; their sum is the share of
   the solve's wall clock the telemetry accounts for. *)
let phases t =
  [
    ("presolve", t.presolve_s);
    ("prepare", t.prepare_s);
    ("cuts", t.cuts_s);
    ("build", t.build_s);
    ("root", t.root_s);
    ("search", t.search_s);
  ]

let accounted_s t = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (phases t)

(* Merge is commutative and associative (up to float-addition rounding):
   counters and timers add, histograms add element-wise, the incumbent
   histories union under a canonical sort. *)
let merge a b =
  let ha = a.depth_hist and hb = b.depth_hist in
  let n = max (Array.length ha) (Array.length hb) in
  let hist =
    Array.init n (fun i ->
        (if i < Array.length ha then ha.(i) else 0)
        + if i < Array.length hb then hb.(i) else 0)
  in
  {
    presolve_s = a.presolve_s +. b.presolve_s;
    prepare_s = a.prepare_s +. b.prepare_s;
    cuts_s = a.cuts_s +. b.cuts_s;
    build_s = a.build_s +. b.build_s;
    root_s = a.root_s +. b.root_s;
    search_s = a.search_s +. b.search_s;
    lp_s = a.lp_s +. b.lp_s;
    probe_s = a.probe_s +. b.probe_s;
    sym_refine_passes = a.sym_refine_passes + b.sym_refine_passes;
    sym_transpositions = a.sym_transpositions + b.sym_transpositions;
    cut_rounds = a.cut_rounds + b.cut_rounds;
    cuts_generated = a.cuts_generated + b.cuts_generated;
    cuts_kept = a.cuts_kept + b.cuts_kept;
    prop_fixpoints = a.prop_fixpoints + b.prop_fixpoints;
    prop_ticks = a.prop_ticks + b.prop_ticks;
    prop_scans = a.prop_scans + b.prop_scans;
    prop_conflicts = a.prop_conflicts + b.prop_conflicts;
    conflicts = a.conflicts + b.conflicts;
    learned = a.learned + b.learned;
    deleted = a.deleted + b.deleted;
    backjumps = a.backjumps + b.backjumps;
    backjump_depth = a.backjump_depth + b.backjump_depth;
    probe_calls = a.probe_calls + b.probe_calls;
    probe_skips = a.probe_skips + b.probe_skips;
    probe_trials = a.probe_trials + b.probe_trials;
    probe_hits = a.probe_hits + b.probe_hits;
    probe_backoffs = a.probe_backoffs + b.probe_backoffs;
    lp_resolves = a.lp_resolves + b.lp_resolves;
    lp_warm = a.lp_warm + b.lp_warm;
    lp_fallbacks = a.lp_fallbacks + b.lp_fallbacks;
    lp_infeasible = a.lp_infeasible + b.lp_infeasible;
    lp_cold = a.lp_cold + b.lp_cold;
    lp_pivots = a.lp_pivots + b.lp_pivots;
    lp_iters = a.lp_iters + b.lp_iters;
    lp_refactors = a.lp_refactors + b.lp_refactors;
    rc_fixings = a.rc_fixings + b.rc_fixings;
    orbit_fixings = a.orbit_fixings + b.orbit_fixings;
    incumbents = List.sort (fun x y -> compare y x) (a.incumbents @ b.incumbents);
    depth_hist = hist;
    subtrees = a.subtrees + b.subtrees;
    steals = a.steals + b.steals;
    workers = a.workers + b.workers;
  }

let pp ?time_s ppf t =
  let open Format in
  let total = accounted_s t in
  let denom =
    match time_s with Some w when w > 0.0 -> w | Some _ | None -> 0.0
  in
  let pct s = if denom > 0.0 then 100.0 *. s /. denom else 0.0 in
  fprintf ppf "@[<v>phase            seconds";
  if denom > 0.0 then fprintf ppf "      %%";
  List.iter
    (fun (name, s) ->
      fprintf ppf "@,  %-12s %9.4f" name s;
      if denom > 0.0 then fprintf ppf "  %5.1f" (pct s);
      if name = "prepare" then
        fprintf ppf "  (%d refine passes, %d transpositions)"
          t.sym_refine_passes t.sym_transpositions)
    (phases t);
  fprintf ppf "@,  %-12s %9.4f" "accounted" total;
  (match time_s with
  | Some w when w > 0.0 -> fprintf ppf "  %5.1f  of %.4fs wall" (pct total) w
  | Some _ | None -> ());
  fprintf ppf "@,  %-12s %9.4f  %-12s %9.4f" "lp" t.lp_s "probe" t.probe_s;
  fprintf ppf "@,cuts: %d kept / %d generated in %d rounds" t.cuts_kept
    t.cuts_generated t.cut_rounds;
  fprintf ppf "@,propagation: %d fixpoints, %d ticks, %d scans, %d conflicts"
    t.prop_fixpoints t.prop_ticks t.prop_scans t.prop_conflicts;
  (* Conflict engine on its own line: the counters are only comparable to
     each other (learned <= conflicts, deleted <= learned), and the mean
     jump distance is the quality of the 1-UIP nogoods. *)
  let avg_backjump =
    if t.conflicts > 0 then
      float_of_int t.backjump_depth /. float_of_int t.conflicts
    else 0.0
  in
  fprintf ppf
    "@,conflict engine: %d conflicts, %d learned, %d deleted, avg backjump \
     %.1f"
    t.conflicts t.learned t.deleted avg_backjump;
  fprintf ppf
    "@,probing: %d calls (%d hits, %d trials), %d skipped, %d backoffs"
    t.probe_calls t.probe_hits t.probe_trials t.probe_skips t.probe_backoffs;
  fprintf ppf
    "@,lp: %d resolves (%d warm-optimal, %d weak-duality, %d infeasible, %d \
     cold), %d pivots"
    t.lp_resolves t.lp_warm t.lp_fallbacks t.lp_infeasible t.lp_cold
    t.lp_pivots;
  (* Iterations only mean something relative to the resolve count:
     iters/resolve is the warm-start quality. *)
  let per_resolve =
    if t.lp_resolves > 0 then
      float_of_int t.lp_iters /. float_of_int t.lp_resolves
    else 0.0
  in
  fprintf ppf "@,lp engine: %d iters (%.1f/resolve), %d refactors" t.lp_iters
    per_resolve t.lp_refactors;
  fprintf ppf "@,fixings: %d reduced-cost, %d orbital" t.rc_fixings
    t.orbit_fixings;
  fprintf ppf "@,nodes: %d (max depth %d)" (total_nodes t) (max_depth t);
  (match primal_progress t with
  | [] -> ()
  | curve ->
      fprintf ppf "@,primal progress:";
      List.iter
        (fun (ts, nodes, obj) ->
          fprintf ppf "@,  %9.4fs %10d nodes  obj %d" ts nodes obj)
        curve);
  if t.workers > 0 then
    fprintf ppf "@,parallel: %d workers, %d subtrees, %d stolen" t.workers
      t.subtrees t.steals;
  fprintf ppf "@]"
