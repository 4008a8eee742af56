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
  mutable build_s : float;  (* search-state construction + warm start *)
  mutable root_s : float;  (* root propagation + shaving fixpoint *)
  mutable search_s : float;  (* tree search (all nodes, all workers) *)
  (* Sub-timers: CPU time summed across workers, attributed inside
     [search_s]; not part of the disjoint phase account. *)
  mutable probe_s : float;  (* in-tree probing *)
  (* Propagation. *)
  mutable prop_fixpoints : int;  (* worklist fixpoints run *)
  mutable prop_ticks : int;  (* row propagations *)
  mutable prop_scans : int;  (* row propagations that scanned the entries *)
  mutable prop_conflicts : int;  (* fixpoints ending in a conflict *)
  (* Conflict engine (1-UIP nogood learning). *)
  mutable conflicts : int;  (* conflicts analyzed at depth > 0 *)
  mutable learned : int;  (* nogoods appended to the clause database *)
  mutable deleted : int;  (* learned rows dropped by database reduction *)
  mutable oversize : int;  (* analyzed nogoods over the clause size cap *)
  mutable nogood_lits : int;  (* literals summed over analyzed nogoods *)
  mutable backjumps : int;  (* root-asserting conflicts that aborted the dive *)
  mutable backjump_depth : int;  (* sum of (conflict level - asserting level) *)
  (* Probing (in-tree shaving + root shaving trials). *)
  mutable probe_calls : int;  (* probing steps actually run at a node *)
  mutable probe_skips : int;  (* nodes skipped by the backoff gate *)
  mutable probe_trials : int;  (* tentative endpoint propagations *)
  mutable probe_hits : int;  (* probing steps that landed a fixing *)
  mutable probe_backoffs : int;  (* times the skip gap widened *)
  (* Always 0: the solver has neither an LP relaxation nor a symmetry
     phase.  Kept because the benchmark harness reports them as its
     simplex.* and solver.prepare_s / orbit_fixings metrics. *)
  mutable lp_s : float;
  mutable lp_resolves : int;
  mutable lp_pivots : int;
  mutable prepare_s : float;
  mutable orbit_fixings : int;
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
    build_s = 0.0;
    root_s = 0.0;
    search_s = 0.0;
    lp_s = 0.0;
    probe_s = 0.0;
    prop_fixpoints = 0;
    prop_ticks = 0;
    prop_scans = 0;
    prop_conflicts = 0;
    conflicts = 0;
    learned = 0;
    deleted = 0;
    oversize = 0;
    nogood_lits = 0;
    backjumps = 0;
    backjump_depth = 0;
    probe_calls = 0;
    probe_skips = 0;
    probe_trials = 0;
    probe_hits = 0;
    probe_backoffs = 0;
    lp_resolves = 0;
    lp_pivots = 0;
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
    build_s = a.build_s +. b.build_s;
    root_s = a.root_s +. b.root_s;
    search_s = a.search_s +. b.search_s;
    lp_s = a.lp_s +. b.lp_s;
    probe_s = a.probe_s +. b.probe_s;
    prop_fixpoints = a.prop_fixpoints + b.prop_fixpoints;
    prop_ticks = a.prop_ticks + b.prop_ticks;
    prop_scans = a.prop_scans + b.prop_scans;
    prop_conflicts = a.prop_conflicts + b.prop_conflicts;
    conflicts = a.conflicts + b.conflicts;
    learned = a.learned + b.learned;
    deleted = a.deleted + b.deleted;
    oversize = a.oversize + b.oversize;
    nogood_lits = a.nogood_lits + b.nogood_lits;
    backjumps = a.backjumps + b.backjumps;
    backjump_depth = a.backjump_depth + b.backjump_depth;
    probe_calls = a.probe_calls + b.probe_calls;
    probe_skips = a.probe_skips + b.probe_skips;
    probe_trials = a.probe_trials + b.probe_trials;
    probe_hits = a.probe_hits + b.probe_hits;
    probe_backoffs = a.probe_backoffs + b.probe_backoffs;
    lp_resolves = a.lp_resolves + b.lp_resolves;
    lp_pivots = a.lp_pivots + b.lp_pivots;
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
      if denom > 0.0 then fprintf ppf "  %5.1f" (pct s))
    (phases t);
  fprintf ppf "@,  %-12s %9.4f" "accounted" total;
  (match time_s with
  | Some w when w > 0.0 -> fprintf ppf "  %5.1f  of %.4fs wall" (pct total) w
  | Some _ | None -> ());
  fprintf ppf "@,  %-12s %9.4f" "probe" t.probe_s;
  fprintf ppf "@,propagation: %d fixpoints, %d ticks, %d scans, %d conflicts"
    t.prop_fixpoints t.prop_ticks t.prop_scans t.prop_conflicts;
  (* Conflict engine on its own line: the counters are only comparable to
     each other (learned + oversize <= conflicts, deleted <= learned), and
     the mean nogood size and jump distance are the quality of the 1-UIP
     nogoods. *)
  let mean num den =
    if den > 0 then float_of_int num /. float_of_int den else 0.0
  in
  fprintf ppf
    "@,conflict engine: %d conflicts, %d learned, %d deleted, %d oversize, \
     mean size %.1f, avg backjump %.1f"
    t.conflicts t.learned t.deleted t.oversize
    (mean t.nogood_lits (t.learned + t.oversize))
    (mean t.backjump_depth t.conflicts);
  fprintf ppf
    "@,probing: %d calls (%d hits, %d trials), %d skipped, %d backoffs"
    t.probe_calls t.probe_hits t.probe_trials t.probe_skips t.probe_backoffs;
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
