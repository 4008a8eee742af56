type status = Optimal | Feasible | Infeasible | Unknown

type outcome = {
  status : status;
  solution : int array option;
  objective : int option;
  bound : int;
  nodes : int;
  time_s : float;
  stolen : int;
  stats : Stats.t option;
}

type options = {
  time_limit : float option;
  node_limit : int option;
  branch_order : int list option;
  prefer_high : bool;
  warm_start : int array option;
  incumbent_start : int array option;
  verbose : bool;
  stats : bool;
  trace : Trace.sink option;
  learn : bool;
}

let default =
  {
    time_limit = None;
    node_limit = None;
    branch_order = None;
    prefer_high = true;
    warm_start = None;
    incumbent_start = None;
    verbose = false;
    stats = false;
    trace = None;
    learn = true;
  }

exception Out_of_time

(* Search state.  The per-node hot structures are flat int arrays:

   - Rows live in one CSR block ([row_start]/[row_coef]/[row_var], with
     [row_rhs]/[row_minact] per row and [row_span]/[row_stamp] per static
     row): `sum coefs * vars <= rhs`, Eq model rows split into two Le
     rows, Ge rows negated.
     Ordinary rows are [0 .. n_rows-1]; the objective cutoff row, when the
     model has an objective, is row [n_rows] in the same block — uniform
     indexing keeps it on the ordinary rows' propagation path.  Learned
     nogoods follow from row [n_rows + 1] on as packed literals
     [(v lsl 1) lor is_lb] in [row_var] alone: their coefficients are
     +-1, so [row_coef] covers the static rows only.  [minact] caches the
     row's minimal activity (sum of a*lb for a > 0, a*ub for a < 0),
     maintained incrementally by every bound change and its undo.
   - Occurrence lists are CSR too: [occ_start]/[occ_row] (deduped row
     indices per variable, driving worklist enqueueing) and the signed
     pairs [occ_pos_*]/[occ_neg_*] driving the incremental min-activity
     updates on lower/upper bound changes.
   - The trail is two parallel int arrays ([(v lsl 1) lor is_lb], old
     bound) grown by doubling — no per-push block allocation.
   - The propagation worklist is a power-of-two ring buffer with
     generation-stamped membership; a row is in the queue at most once,
     so the ring never overflows.

   Everything a node touches is therefore preallocated with the search
   (per worker in [solve_parallel]): the steady-state DFS loop allocates
   nothing. *)
type search = {
  model : Model.t;
  n : int;
  lb : int array;
  ub : int array;
  n_rows : int;  (* ordinary rows; the cutoff row is index [n_rows] *)
  has_obj_row : bool;
  (* The row block is mutable so learned nogoods can be appended in place:
     indices [n_rows + 1 ..] hold learned rows in the same CSR offsets,
     their literals packed into [row_var]. *)
  mutable row_start : int array;  (* n_rows + 2 + learned *)
  row_coef : int array;  (* static rows and the cutoff row only *)
  mutable row_var : int array;  (* variables; packed literals when learned *)
  mutable row_rhs : int array;
  mutable row_minact : int array;
  row_stamp : int array;
      (* static rows and the cutoff row: generation of the last
         (non-probing) min-activity change; lets probing skip variables
         whose rows haven't moved since their last probe *)
  row_span : int array;
      (* static rows and the cutoff row: max |a| * (ub - lb) over the
         build bounds, max_int on overflow (see [propagate_row]) *)
  occ_start : int array;  (* n + 1 *)
  occ_row : int array;  (* deduped row indices, ascending *)
  occ_pos_start : int array;
  occ_pos_ri : int array;  (* row indices with coef > 0 ... *)
  occ_pos_a : int array;  (* ... and the matching coefficients *)
  occ_neg_start : int array;
  occ_neg_ri : int array;
  occ_neg_a : int array;
  obj_terms : (int * int) array;
  objc : int array;  (* var -> objective coefficient (0 when absent) *)
  mutable obj_dirty : bool;
      (* the cutoff row's minact or rhs moved since its last scan; clean
         means a rescan cannot deduce anything new, so [obj_pass] skips
         the O(obj nnz) row walk on the (common) nodes that never touch
         an objective variable's minact side *)
  mutable trail_entry : int array;  (* (var lsl 1) lor is_lb *)
  mutable trail_old : int array;  (* previous bound value *)
  mutable trail_reason : int array;
      (* row index that propagated the entry; [-1] for decisions and for
         bound changes the conflict analysis must treat as opaque
         antecedents (probing fixings) *)
  mutable trail_level : int array;  (* decision level at push time *)
  mutable trail_prev : int array;
      (* previous trail position of the same (var, side), [-1] when the
         entry tightened the root bound — the per-side undo chain that
         lets analysis rewind its shadow positions *)
  mutable trail_len : int;
  opts : options;
  started : float;
  mutable incumbent : int array option;
  mutable incumbent_obj : int;
  mutable nodes : int;
  mutable ticks : int;  (* row propagations, for the limit-check cadence *)
  mutable scans : int;  (* row propagations that scanned the row's entries *)
  mutable prop_queue : int array;  (* ring buffer, power-of-two capacity *)
  mutable queue_mask : int;
  mutable q_head : int;
  mutable q_tail : int;
  mutable prop_queued : int array;  (* row -> generation when last enqueued *)
  mutable prop_gen : int;
  probe_stamp : int array;  (* var -> change generation at last probe *)
  mutable change_gen : int;  (* bound-change generation counter *)
  mutable no_stamp : bool;  (* true inside probing trials: don't stamp *)
  mutable probe_hit : bool;  (* last probe_candidates landed a fixing *)
  mutable probe_miss : int;  (* consecutive probe calls without a fixing *)
  mutable probe_skip : int;  (* nodes left to skip before probing again *)
  probe_depth : int;  (* deepest node level probing may fire at *)
  branch_seq : int array;
  seq_pos : int array;
      (* var -> index in [branch_seq] (a total permutation); lets [undo_to]
         clamp [branch_head] when a restore re-widens an earlier variable *)
  mutable branch_head : int;
      (* first index of [branch_seq] that may still be unfixed; advanced
         lazily by [pick_branch_var], only ever moved back by [undo_to] *)
  act : float array;  (* conflict-driven branching activity (VSIDS-style) *)
  mutable act_inc : float;
  value_hint : int array option;
  stats : Stats.t option;
      (* telemetry; None costs one branch per instrumented site *)
  (* --- conflict engine ---------------------------------------------------
     Learned nogoods are pseudo-boolean clauses over bound literals of
     binary variables, stored as Le rows of packed literals past the
     cutoff row.  Their occurrences live in per-variable vectors (the
     static CSR occurrence block is immutable), walked by the bound-delta
     and touch paths next to the static lists. *)
  is_bin : bool array;  (* root domain within {0,1}: literal-eligible *)
  pos_lb : int array;  (* var -> trail position of its live lb entry, -1 *)
  pos_ub : int array;
  mutable decision_level : int;
  mutable conflict_row : int;  (* row of the last propagation conflict *)
  mutable n_learned : int;  (* learned rows: n_rows+1 .. n_rows+n_learned *)
  mutable learn_act : float array;  (* per learned row: deletion activity *)
  mutable learn_lbd : int array;
  mutable learn_cut : int array;
      (* cutoff-row rhs when the clause was derived: the nogood is implied
         by the model plus [obj <= learn_cut] (test hook / audit) *)
  mutable cla_inc : float;
  lrn_pos : int array array;  (* var -> rows with a +1 coefficient on it *)
  lrn_neg : int array array;  (* (contiguous, grown by half ... ) *)
  lrn_pos_len : int array;  (* ... with explicit used lengths) *)
  lrn_neg_len : int array;
  an_seen : int array;  (* literal (v lsl 1) lor is_lb -> analysis gen *)
  mutable an_gen : int;
  an_pos_lb : int array;  (* shadow of pos_lb rewound during analysis *)
  an_pos_ub : int array;
  an_pos_gen : int array;
      (* var -> analysis generation whose shadow entries are initialized:
         the shadows are filled lazily per conflict, never bulk-copied *)
  mutable cl_lit : int array;  (* clause under construction: literals ... *)
  mutable cl_level : int array;  (* ... and their decision levels *)
  mutable cl_len : int;
  mutable max_learnts : int;  (* clause-database cap; reduction trigger *)
  mutable conflicts_total : int;
  mutable learn_closed : bool;
      (* analysis derived the empty nogood: no solution beats the
         incumbent, the search is complete *)
}

let now () = Unix.gettimeofday ()

(* --- trail + incremental activities ------------------------------------ *)

let trail_push s v old is_lb reason =
  let len = s.trail_len in
  if len = Array.length s.trail_entry then begin
    let cap = 2 * len in
    let e = Array.make cap 0
    and o = Array.make cap 0
    and r = Array.make cap 0
    and l = Array.make cap 0
    and p = Array.make cap 0 in
    Array.blit s.trail_entry 0 e 0 len;
    Array.blit s.trail_old 0 o 0 len;
    Array.blit s.trail_reason 0 r 0 len;
    Array.blit s.trail_level 0 l 0 len;
    Array.blit s.trail_prev 0 p 0 len;
    s.trail_entry <- e;
    s.trail_old <- o;
    s.trail_reason <- r;
    s.trail_level <- l;
    s.trail_prev <- p
  end;
  Array.unsafe_set s.trail_entry len ((v lsl 1) lor Bool.to_int is_lb);
  Array.unsafe_set s.trail_old len old;
  Array.unsafe_set s.trail_reason len reason;
  Array.unsafe_set s.trail_level len s.decision_level;
  if is_lb then begin
    Array.unsafe_set s.trail_prev len (Array.unsafe_get s.pos_lb v);
    Array.unsafe_set s.pos_lb v len
  end
  else begin
    Array.unsafe_set s.trail_prev len (Array.unsafe_get s.pos_ub v);
    Array.unsafe_set s.pos_ub v len
  end;
  s.trail_len <- len + 1

let apply_lb_delta s v delta =
  if not s.no_stamp then s.change_gen <- s.change_gen + 1;
  let gen = s.change_gen and stamping = not s.no_stamp in
  let minact = s.row_minact and stamp = s.row_stamp in
  for i = s.occ_pos_start.(v) to s.occ_pos_start.(v + 1) - 1 do
    let r = Array.unsafe_get s.occ_pos_ri i in
    Array.unsafe_set minact r
      (Array.unsafe_get minact r + (Array.unsafe_get s.occ_pos_a i * delta));
    if stamping then Array.unsafe_set stamp r gen
  done;
  (* Learned rows are invisible inside probing trials (see [touch]):
     the trial's bound moves and their undos are both bracketed by
     [no_stamp], so skipping the walk leaves their min-activities exact
     once the trial unwinds — probing just doesn't pay the clause
     database on every trial bound change.  Learned rows carry no stamp
     ([probe_candidates] reads static rows' only), so the walk is one
     store per cell. *)
  if stamping then begin
    let rows = Array.unsafe_get s.lrn_pos v in
    for i = 0 to Array.unsafe_get s.lrn_pos_len v - 1 do
      let r = Array.unsafe_get rows i in
      Array.unsafe_set minact r (Array.unsafe_get minact r + delta)
    done
  end;
  let c = Array.unsafe_get s.objc v in
  if c > 0 && s.has_obj_row then begin
    minact.(s.n_rows) <- minact.(s.n_rows) + (c * delta);
    s.obj_dirty <- true
  end

let apply_ub_delta s v delta =
  if not s.no_stamp then s.change_gen <- s.change_gen + 1;
  let gen = s.change_gen and stamping = not s.no_stamp in
  let minact = s.row_minact and stamp = s.row_stamp in
  for i = s.occ_neg_start.(v) to s.occ_neg_start.(v + 1) - 1 do
    let r = Array.unsafe_get s.occ_neg_ri i in
    Array.unsafe_set minact r
      (Array.unsafe_get minact r + (Array.unsafe_get s.occ_neg_a i * delta));
    if stamping then Array.unsafe_set stamp r gen
  done;
  if stamping then begin
    let rows = Array.unsafe_get s.lrn_neg v in
    for i = 0 to Array.unsafe_get s.lrn_neg_len v - 1 do
      let r = Array.unsafe_get rows i in
      Array.unsafe_set minact r (Array.unsafe_get minact r - delta)
    done
  end;
  let c = Array.unsafe_get s.objc v in
  if c < 0 && s.has_obj_row then begin
    minact.(s.n_rows) <- minact.(s.n_rows) + (c * delta);
    s.obj_dirty <- true
  end

let set_lb_r s v value reason =
  if value > s.lb.(v) then begin
    trail_push s v s.lb.(v) true reason;
    let delta = value - s.lb.(v) in
    s.lb.(v) <- value;
    apply_lb_delta s v delta
  end

let set_ub_r s v value reason =
  if value < s.ub.(v) then begin
    trail_push s v s.ub.(v) false reason;
    let delta = value - s.ub.(v) in
    s.ub.(v) <- value;
    apply_ub_delta s v delta
  end

(* Reason-less tightening: decisions and the fixings conflict analysis
   keeps as opaque antecedent literals (probing). *)
let set_lb s v value = set_lb_r s v value (-1)
let set_ub s v value = set_ub_r s v value (-1)

let mark s = s.trail_len

let undo_to s m =
  while s.trail_len > m do
    let len = s.trail_len - 1 in
    s.trail_len <- len;
    let e = Array.unsafe_get s.trail_entry len in
    let old = Array.unsafe_get s.trail_old len in
    let v = e lsr 1 in
    let p = Array.unsafe_get s.seq_pos v in
    if p < s.branch_head then s.branch_head <- p;
    if e land 1 = 1 then begin
      Array.unsafe_set s.pos_lb v (Array.unsafe_get s.trail_prev len);
      let delta = old - s.lb.(v) in
      s.lb.(v) <- old;
      apply_lb_delta s v delta
    end
    else begin
      Array.unsafe_set s.pos_ub v (Array.unsafe_get s.trail_prev len);
      let delta = old - s.ub.(v) in
      s.ub.(v) <- old;
      apply_ub_delta s v delta
    end
  done

(* --- limits ------------------------------------------------------------- *)

let check_limits s =
  (match s.opts.time_limit with
  | Some tl when now () -. s.started > tl -> raise Out_of_time
  | Some _ | None -> ());
  match s.opts.node_limit with
  | Some nl when s.nodes >= nl -> raise Out_of_time
  | Some _ | None -> ()

(* --- branching activity ------------------------------------------------- *)

let bump_conflict s ri =
  let inc = s.act_inc in
  for i = s.row_start.(ri) to s.row_start.(ri + 1) - 1 do
    let v = Array.unsafe_get s.row_var i in
    Array.unsafe_set s.act v (Array.unsafe_get s.act v +. inc)
  done;
  s.act_inc <- inc *. 1.02;
  if s.act_inc > 1e100 then begin
    for v = 0 to s.n - 1 do
      s.act.(v) <- s.act.(v) *. 1e-100
    done;
    s.act_inc <- s.act_inc *. 1e-100
  end

(* Deletion activity of a learned row: bumped when the row conflicts or
   serves as a reason in conflict analysis, decayed geometrically like the
   branching activities. *)
let bump_learned s ri =
  if ri > s.n_rows then begin
    let li = ri - s.n_rows - 1 in
    s.learn_act.(li) <- s.learn_act.(li) +. s.cla_inc;
    s.cla_inc <- s.cla_inc *. 1.02;
    if s.cla_inc > 1e100 then begin
      for i = 0 to s.n_learned - 1 do
        s.learn_act.(i) <- s.learn_act.(i) *. 1e-100
      done;
      s.cla_inc <- s.cla_inc *. 1e-100
    end
  end

(* --- propagation ------------------------------------------------------- *)

(* Worklist membership is generation-stamped: a row whose stamp equals the
   current generation is in the ring.  Dequeuing resets the stamp so a row
   can re-enter within the same fixpoint, exactly like the old queue. *)
let enqueue_row s i =
  if Array.unsafe_get s.prop_queued i <> s.prop_gen then begin
    Array.unsafe_set s.prop_queued i s.prop_gen;
    Array.unsafe_set s.prop_queue (s.q_tail land s.queue_mask) i;
    s.q_tail <- s.q_tail + 1
  end

let touch s v =
  for i = Array.unsafe_get s.occ_start v
       to Array.unsafe_get s.occ_start (v + 1) - 1 do
    enqueue_row s (Array.unsafe_get s.occ_row i)
  done;
  (* Learned rows are clauses (+-1 coefficients over binary variables):
     they can deduce or conflict exactly when minact >= rhs, so slack-y
     rows skip the queue — the filter is what keeps dense clause
     databases off the fixpoint's critical path.  Only the list whose
     literal on [v] may hold is walked: once [v] is fixed, every row of
     the other list contains [v]'s false literal, is satisfied, and can
     neither deduce nor conflict until [v] is unfixed.  Probing trials
     skip learned rows entirely: their min-activities are frozen inside
     a trial (see [apply_lb_delta]), and redundant rows a trial ignores
     can only cost a missed fixing, never a wrong one. *)
  if not s.no_stamp then begin
    let minact = s.row_minact and rhs = s.row_rhs in
    if Array.unsafe_get s.ub v > 0 then begin
      let rows = Array.unsafe_get s.lrn_pos v in
      for i = 0 to Array.unsafe_get s.lrn_pos_len v - 1 do
        let r = Array.unsafe_get rows i in
        if Array.unsafe_get minact r >= Array.unsafe_get rhs r then
          enqueue_row s r
      done
    end;
    if Array.unsafe_get s.lb v < 1 then begin
      let rows = Array.unsafe_get s.lrn_neg v in
      for i = 0 to Array.unsafe_get s.lrn_neg_len v - 1 do
        let r = Array.unsafe_get rows i in
        if Array.unsafe_get minact r >= Array.unsafe_get rhs r then
          enqueue_row s r
      done
    end
  end

(* Bound tightening on one Le row; returns false on conflict, enqueues the
   rows of every touched variable.  A row's own tightenings never move its
   cached [minact] (positive-coefficient vars lose upper bound, which the
   min-activity does not read, and symmetrically), so the slack computed
   on entry stays valid throughout the scan.  A static row whose slack
   reaches its [row_span] returns at once: a term tightens only when
   slack < |a| * (ub - lb), and no term's range exceeds the span. *)
let propagate_row s ri =
  let minact = Array.unsafe_get s.row_minact ri in
  let rhs = Array.unsafe_get s.row_rhs ri in
  if minact > rhs then begin
    (* Branching activity comes from the sparse static rows only: a dense
       learned clause names half the model, and bumping all of it wrecks
       the activity ordering (analysis bumps the literals it actually
       resolves instead).  Clause deletion activity is the reverse. *)
    if ri <= s.n_rows then bump_conflict s ri else bump_learned s ri;
    s.conflict_row <- ri;
    false
  end
  else if ri > s.n_rows then begin
    (* Learned clause: packed literals, +1 on lower-bound literals and -1
       on upper-bound ones — the unit-coefficient case of the loop below. *)
    s.scans <- s.scans + 1;
    let slack = rhs - minact in
    for i = s.row_start.(ri) to s.row_start.(ri + 1) - 1 do
      let lit = Array.unsafe_get s.row_var i in
      let v = lit lsr 1 in
      if lit land 1 = 1 then begin
        let max_x = Array.unsafe_get s.lb v + slack in
        if max_x < Array.unsafe_get s.ub v then begin
          set_ub_r s v max_x ri;
          touch s v
        end
      end
      else begin
        let min_x = Array.unsafe_get s.ub v - slack in
        if min_x > Array.unsafe_get s.lb v then begin
          set_lb_r s v min_x ri;
          touch s v
        end
      end
    done;
    true
  end
  else if rhs - minact >= Array.unsafe_get s.row_span ri then true
  else begin
    s.scans <- s.scans + 1;
    let slack = rhs - minact in
    for i = s.row_start.(ri) to s.row_start.(ri + 1) - 1 do
      let a = Array.unsafe_get s.row_coef i
      and v = Array.unsafe_get s.row_var i in
      (* Unit coefficients dominate these models; skipping the integer
         division for them is worth a branch. *)
      if a > 0 then begin
        (* a * (x - lb) <= slack *)
        let max_x =
          Array.unsafe_get s.lb v + (if a = 1 then slack else slack / a)
        in
        if max_x < Array.unsafe_get s.ub v then begin
          set_ub_r s v max_x ri;
          touch s v
        end
      end
      else begin
        (* (-a) * (ub - x) <= slack  =>  x >= ub - slack / (-a) *)
        let min_x =
          Array.unsafe_get s.ub v - (if a = -1 then slack else slack / -a)
        in
        if min_x > Array.unsafe_get s.lb v then begin
          set_lb_r s v min_x ri;
          touch s v
        end
      end
    done;
    true
  end

(* Reset the worklist for a fresh fixpoint: a new generation invalidates
   all membership stamps in O(1) and the ring rewinds. *)
let prop_enter s =
  (match s.stats with
  | Some st -> st.Stats.prop_fixpoints <- st.Stats.prop_fixpoints + 1
  | None -> ());
  s.prop_gen <- s.prop_gen + 1;
  s.q_head <- 0;
  s.q_tail <- 0;
  s.conflict_row <- -1

(* The objective cutoff row participates whenever a cutoff is known.  Its
   tightenings enqueue ordinary rows, so the whole thing must run to a
   joint fixpoint with the drain loop. *)
let obj_pass s =
  if not s.has_obj_row then begin
    s.obj_dirty <- false;
    true
  end
  else begin
    let c = s.incumbent_obj in
    if c = max_int then begin
      (* no cutoff: the row's huge rhs can't deduce anything — stay clean
         so the pending-work check below terminates *)
      s.obj_dirty <- false;
      true
    end
    else begin
      let ri = s.n_rows in
      if c - 1 < s.row_rhs.(ri) then begin
        s.row_rhs.(ri) <- c - 1;
        s.obj_dirty <- true
      end;
      (* A scan can only deduce something new when the row's slack shrank,
         i.e. its minact rose or its rhs dropped — exactly what sets the
         dirty flag.  (Upper-bound cuts on positive-coefficient objective
         variables leave every threshold lb(v) + slack/a unchanged.) *)
      if s.obj_dirty then begin
        s.obj_dirty <- false;
        propagate_row s ri
      end
      else true
    end
  end

(* Run the seeded worklist to fixpoint.  [budget] caps the number of row
   propagations: an exhausted budget stops early and reports [true] —
   sound for probing trials, where a missed deduction only means a missed
   fixing, never a wrong one (callers undo the trial bounds either way). *)
let prop_run ?(budget = max_int) s =
  (* one loop and closure-free, so [ok]/[left]/[again] stay unboxed *)
  let ok = ref true and left = ref budget and again = ref true in
  while !again do
    (* drain the worklist *)
    while !ok && !left > 0 && s.q_head <> s.q_tail do
      (* Deep propagation-heavy subtrees must still honour the limits:
         check on a coarse tick counter rather than only per node. *)
      s.ticks <- s.ticks + 1;
      decr left;
      if s.ticks land 2047 = 0 then check_limits s;
      let i = Array.unsafe_get s.prop_queue (s.q_head land s.queue_mask) in
      s.q_head <- s.q_head + 1;
      Array.unsafe_set s.prop_queued i 0;
      if not (propagate_row s i) then ok := false
    done;
    again := false;
    if !ok && !left > 0 then
      if not (obj_pass s) then ok := false
      else again := s.q_head <> s.q_tail || s.obj_dirty
  done;
  (match s.stats with
  | Some st when not !ok ->
      st.Stats.prop_conflicts <- st.Stats.prop_conflicts + 1
  | Some _ | None -> ());
  !ok

(* Worklist propagation to fixpoint starting from the given variables (or
   all rows when [None]). *)
let propagate ?budget s seeds =
  prop_enter s;
  (match seeds with
  | None ->
      for i = 0 to s.n_rows - 1 do
        enqueue_row s i
      done;
      for j = 0 to s.n_learned - 1 do
        let r = s.n_rows + 1 + j in
        if s.row_minact.(r) >= s.row_rhs.(r) then enqueue_row s r
      done;
      s.obj_dirty <- true
  | Some vars -> List.iter (fun v -> touch s v) vars);
  prop_run ?budget s

(* Single-seed fast path for branching and probing: no list allocation. *)
let propagate1 ?budget s v =
  prop_enter s;
  touch s v;
  prop_run ?budget s

(* --- conflict analysis --------------------------------------------------

   When an in-tree propagation fixpoint fails, walk the reason-annotated
   trail backwards from the conflicting row, resolving propagated bound
   literals of the current decision level through their reason rows until
   a single one remains — the first unique implication point.  The result
   is a pseudo-boolean nogood over bound literals of binary variables
   (x >= 1 / x <= 0), appended to the row block as an ordinary Le row so
   the hot propagation kernel picks it up unchanged.

   Soundness notes:
   - Literals established at level 0 are dropped: root bounds only ever
     tighten (across re-dives too), so they stay facts.  In
     [solve_parallel] the subtree path is applied at level 0, which makes
     every clause subtree-local — [reset_for_subtree] clears the database.
   - Bound changes without a reason row (decisions, probing fixings) are
     kept in the clause as opaque antecedent literals instead of being
     expanded.  Fixings derived against the objective cutoff stay valid
     because the cutoff only tightens.
   - Clauses derived through the cutoff row are implied by the model plus
     [obj <= rhs-at-derivation]; the rhs only drops afterwards, so they
     remain valid for the remainder of the solve ([learn_cut] records the
     rhs for the audit hook).
   - Only binary variables yield linear bound-literal nogoods; a conflict
     whose derivation touches a wider domain aborts the analysis (the
     search just backtracks chronologically). *)

exception Abort_dive
(* Unwinds the current dive to the root without per-level undo (exactly
   like [Out_of_time]); [search_drive] rewinds the trail there. *)

(* Largest nogood worth storing, in literals. *)
let clause_size_cap n = max 8 (min 16 (n / 4))

let cl_push s lit level =
  if s.cl_len = Array.length s.cl_lit then begin
    let cap = 2 * s.cl_len in
    let l = Array.make cap 0 and lv = Array.make cap 0 in
    Array.blit s.cl_lit 0 l 0 s.cl_len;
    Array.blit s.cl_level 0 lv 0 s.cl_len;
    s.cl_lit <- l;
    s.cl_level <- lv
  end;
  s.cl_lit.(s.cl_len) <- lit;
  s.cl_level.(s.cl_len) <- level;
  s.cl_len <- s.cl_len + 1

let grow_int_array a n fill =
  let len = Array.length a in
  if n <= len then a
  else begin
    let cap = ref (max 16 len) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let b = Array.make !cap fill in
    Array.blit a 0 b 0 len;
    b
  end

let grow_float_array a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let cap = ref (max 16 len) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let b = Array.make !cap 0.0 in
    Array.blit a 0 b 0 len;
    b
  end

(* The worklist ring and membership stamps must cover the learned rows
   too.  Growth happens between fixpoints (at clause append time), so
   resetting the ring indices is safe. *)
let ensure_queue_capacity s total =
  if total > Array.length s.prop_queue then begin
    let cap = ref (Array.length s.prop_queue) in
    while !cap < total do
      cap := 2 * !cap
    done;
    s.prop_queue <- Array.make !cap 0;
    s.queue_mask <- !cap - 1;
    s.q_head <- 0;
    s.q_tail <- 0
  end;
  if total > Array.length s.prop_queued then
    s.prop_queued <- grow_int_array s.prop_queued total 0

(* Record row [ri] in [v]'s learned occurrence vector (one direction).
   Vectors grow by half, not by doubling: together they are the largest
   per-solve allocation of the learned store, and reduction empties them
   without returning their capacity. *)
let lrn_push s positive v ri =
  let arr = if positive then s.lrn_pos else s.lrn_neg in
  let lens = if positive then s.lrn_pos_len else s.lrn_neg_len in
  let l = lens.(v) in
  let a = arr.(v) in
  let a =
    if l = Array.length a then begin
      let b = Array.make (max 4 (l + (l lsr 1))) 0 in
      Array.blit a 0 b 0 l;
      arr.(v) <- b;
      b
    end
    else a
  in
  a.(l) <- ri;
  lens.(v) <- l + 1

(* Append the clause buffer as learned row [n_rows + 1 + n_learned]:
   coefficient +1 for each lower-bound literal (x >= 1), -1 for each
   upper-bound literal (x <= 0), rhs = #lb-literals - 1 — violated exactly
   when every literal holds.  The row stores its packed literals
   [(v lsl 1) lor is_lb] in [row_var] and has no [row_coef] entries: the
   literal's low bit is the coefficient's sign.  Min-activity is seeded
   from the current bounds and then maintained by the same incremental
   deltas as the static rows; occurrences go into the per-variable
   learned occurrence vectors. *)
let append_learned s ~lbd =
  let k = s.cl_len in
  let ri = s.n_rows + 1 + s.n_learned in
  s.row_start <- grow_int_array s.row_start (ri + 2) 0;
  s.row_rhs <- grow_int_array s.row_rhs (ri + 1) 0;
  s.row_minact <- grow_int_array s.row_minact (ri + 1) 0;
  let base = s.row_start.(ri) in
  s.row_var <- grow_int_array s.row_var (base + k) 0;
  let n_lb = ref 0 and minact = ref 0 in
  for j = 0 to k - 1 do
    let lit = s.cl_lit.(j) in
    let v = lit lsr 1 in
    s.row_var.(base + j) <- lit;
    if lit land 1 = 1 then begin
      incr n_lb;
      minact := !minact + s.lb.(v)
    end
    else minact := !minact - s.ub.(v)
  done;
  s.row_start.(ri + 1) <- base + k;
  s.row_rhs.(ri) <- !n_lb - 1;
  s.row_minact.(ri) <- !minact;
  s.learn_lbd <- grow_int_array s.learn_lbd (s.n_learned + 1) 0;
  s.learn_cut <- grow_int_array s.learn_cut (s.n_learned + 1) 0;
  s.learn_act <- grow_float_array s.learn_act (s.n_learned + 1);
  s.learn_lbd.(s.n_learned) <- lbd;
  s.learn_cut.(s.n_learned) <- s.row_rhs.(s.n_rows);
  s.learn_act.(s.n_learned) <- s.cla_inc;
  for j = 0 to k - 1 do
    let lit = s.cl_lit.(j) in
    lrn_push s (lit land 1 = 1) (lit lsr 1) ri
  done;
  ensure_queue_capacity s (ri + 1);
  s.n_learned <- s.n_learned + 1

(* Initial clause-database cap.  The cap is what keeps the counter-based
   kernel honest: every bound change on a variable walks the learned
   occurrence list of the side that moved, twice — once in the delta
   walk that keeps min-activities exact, once in [touch] to enqueue the
   rows at their threshold (there are no watched literals) — so
   per-change cost is proportional to the database size: unbounded
   growth turns the O(1) hot path quadratic.  Reduction halves the database on
   overflow and lets the cap creep up MiniSat-style. *)
(* Sized to the instance: 4x the variable count keeps tens of dives'
   worth of nogoods live.  Smaller caps (n/8) measurably lengthen the
   optimality proofs on the bench models — the delta walks get cheaper
   but each dive re-derives refutations its predecessors already
   learned; 16x gives marginally smaller trees at distinctly worse
   wall clock, so 4x is the knee. *)
let max_learnts_init n = max 512 (4 * n)

(* Drop the less active half of the learned database, protecting glue
   clauses (lbd <= 2) and rows locked as live trail reasons — analysis
   may still expand those, so they are kept and their trail indices
   remapped after compaction, which makes reduction safe at any point
   where no propagation fixpoint is in flight (mid-dive included).
   Rebuilds the learned CSR region and occurrence lists in place;
   min-activities move with their rows (learned rows carry no stamps or
   spans). *)
let reduce_db s =
  if s.n_learned > s.max_learnts then begin
    let m = s.n_learned in
    let keep = Array.make m false in
    for p = 0 to s.trail_len - 1 do
      let r = s.trail_reason.(p) in
      if r > s.n_rows then keep.(r - s.n_rows - 1) <- true
    done;
    let order = Array.init m (fun i -> i) in
    (* glue clauses (lbd <= 2) outrank everything, then recent activity —
       but both compete for the same hard quota: an unconditional glue
       pass lets the database grow without bound on instances where most
       nogoods are glue, and a full-database compaction scan per conflict
       is exactly the thrash the cap exists to prevent *)
    Array.sort
      (fun a b ->
        let ga = s.learn_lbd.(a) <= 2 and gb = s.learn_lbd.(b) <= 2 in
        if ga <> gb then compare gb ga
        else compare s.learn_act.(b) s.learn_act.(a))
      order;
    let quota = m / 2 in
    let kept = ref 0 in
    for i = 0 to m - 1 do
      if keep.(i) then incr kept
    done;
    Array.iter
      (fun i ->
        if !kept < quota && not keep.(i) then begin
          keep.(i) <- true;
          incr kept
        end)
      order;
    Array.fill s.lrn_pos_len 0 s.n 0;
    Array.fill s.lrn_neg_len 0 s.n 0;
    let remap = Array.make m (-1) in
    let w = ref 0 in
    for i = 0 to m - 1 do
      if keep.(i) then begin
        let src = s.n_rows + 1 + i and dst = s.n_rows + 1 + !w in
        remap.(i) <- dst;
        let sb = s.row_start.(src) and se = s.row_start.(src + 1) in
        let len = se - sb in
        let db = s.row_start.(dst) in
        if dst <> src then begin
          Array.blit s.row_var sb s.row_var db len;
          s.row_rhs.(dst) <- s.row_rhs.(src);
          s.row_minact.(dst) <- s.row_minact.(src);
          s.learn_act.(!w) <- s.learn_act.(i);
          s.learn_lbd.(!w) <- s.learn_lbd.(i);
          s.learn_cut.(!w) <- s.learn_cut.(i)
        end;
        s.row_start.(dst + 1) <- db + len;
        for p = db to db + len - 1 do
          let lit = s.row_var.(p) in
          lrn_push s (lit land 1 = 1) (lit lsr 1) dst
        done;
        incr w
      end
    done;
    for p = 0 to s.trail_len - 1 do
      let r = s.trail_reason.(p) in
      if r > s.n_rows then s.trail_reason.(p) <- remap.(r - s.n_rows - 1)
    done;
    (match s.stats with
    | Some st -> st.Stats.deleted <- st.Stats.deleted + (m - !w)
    | None -> ());
    s.n_learned <- !w;
    (* Additive creep, not geometric: the delta walk and the [touch]
       walk of a bound change each visit every learned row holding the
       moved side's literal, however few of them are enqueued, so the
       cap must stay near its initial size. *)
    s.max_learnts <- s.max_learnts + 32
  end

(* 1-UIP analysis of the conflict [prop_run] just reported.  Appends the
   learned nogood and raises [Abort_dive] when the clause asserts at the
   root (non-chronological backjump) or when it proves the cutoff
   unreachable outright. *)
let learn_from_conflict s =
  let ri = s.conflict_row in
  if ri >= 0 && s.opts.learn && s.decision_level > 0 && not s.no_stamp then begin
    s.conflicts_total <- s.conflicts_total + 1;
    (match s.stats with
    | Some st -> st.Stats.conflicts <- st.Stats.conflicts + 1
    | None -> ());
    let level = s.decision_level in
    s.an_gen <- s.an_gen + 1;
    let gen = s.an_gen in
    s.cl_len <- 0;
    let path = ref 0 in
    let ok = ref true in
    (* A variable's shadow trail positions are initialized from the live
       positions the first time this conflict looks at it — a bulk copy
       would cost O(n) per conflict, and analysis usually reads a small
       fraction of the variables. *)
    let shadow v =
      if s.an_pos_gen.(v) <> gen then begin
        s.an_pos_gen.(v) <- gen;
        s.an_pos_lb.(v) <- Array.unsafe_get s.pos_lb v;
        s.an_pos_ub.(v) <- Array.unsafe_get s.pos_ub v
      end
    in
    (* Mark one antecedent literal at the shadow state: level-0 bounds
       are root facts and dropped, current-level literals join the
       resolution path, lower levels go straight into the clause. *)
    let add v is_lb =
      shadow v;
      let pos = if is_lb then s.an_pos_lb.(v) else s.an_pos_ub.(v) in
      if pos >= 0 then begin
        let lv = Array.unsafe_get s.trail_level pos in
        if lv > 0 then begin
          if not s.is_bin.(v) then ok := false
          else begin
            let lit = (v lsl 1) lor Bool.to_int is_lb in
            if s.an_seen.(lit) <> gen then begin
              s.an_seen.(lit) <- gen;
              if lv >= level then incr path else cl_push s lit lv
            end
          end
        end
      end
    in
    let expand r skip =
      if r > s.n_rows then
        for i = s.row_start.(r) to s.row_start.(r + 1) - 1 do
          let lit = Array.unsafe_get s.row_var i in
          if lit lsr 1 <> skip && !ok then add (lit lsr 1) (lit land 1 = 1)
        done
      else
        for i = s.row_start.(r) to s.row_start.(r + 1) - 1 do
          let v = Array.unsafe_get s.row_var i in
          if v <> skip && !ok then add v (Array.unsafe_get s.row_coef i > 0)
        done
    in
    expand ri (-1);
    let p = ref (s.trail_len - 1) in
    while !ok && !path > 0 && !p >= 0 do
      let e = Array.unsafe_get s.trail_entry !p in
      if s.an_seen.(e) = gen && Array.unsafe_get s.trail_level !p >= level
      then begin
        if !path = 1 then begin
          (* first unique implication point *)
          cl_push s e level;
          path := 0
        end
        else begin
          let r = Array.unsafe_get s.trail_reason !p in
          decr path;
          if r >= 0 then begin
            bump_learned s r;
            expand r (e lsr 1)
          end
          else
            (* decision or opaque fixing: keep as a clause literal (the
               clause is then not asserting if more such remain) *)
            cl_push s e level
        end
      end;
      (let v = e lsr 1 in
       shadow v;
       if e land 1 = 1 then
         s.an_pos_lb.(v) <- Array.unsafe_get s.trail_prev !p
       else s.an_pos_ub.(v) <- Array.unsafe_get s.trail_prev !p);
      decr p
    done;
    if !ok && !path = 0 then begin
      if s.cl_len = 0 then begin
        (* empty nogood: nothing beats the incumbent — search complete *)
        s.learn_closed <- true;
        raise Abort_dive
      end;
      let n_cur = ref 0 and assert_lv = ref 0 and lbd = ref 0 in
      for i = 0 to s.cl_len - 1 do
        let lv = s.cl_level.(i) in
        if lv >= level then incr n_cur
        else if lv > !assert_lv then assert_lv := lv;
        let fresh = ref true in
        for j = 0 to i - 1 do
          if s.cl_level.(j) = lv then fresh := false
        done;
        if !fresh then incr lbd
      done;
      (* Fat clauses are weak (they exclude one deep subcube) and
         expensive (every literal is an occurrence cell the delta walks
         pay for on each bound change of its variable) — analysis still
         counts the conflict, but only compact nogoods enter the
         database. *)
      let store = s.cl_len <= clause_size_cap s.n in
      let asserting = !n_cur <= 1 && store in
      (match s.stats with
      | Some st ->
          st.Stats.nogood_lits <- st.Stats.nogood_lits + s.cl_len;
          if not store then st.Stats.oversize <- st.Stats.oversize + 1
      | None -> ());
      if store then begin
        append_learned s ~lbd:!lbd;
        match s.stats with
        | Some st ->
            st.Stats.learned <- st.Stats.learned + 1;
            if asserting then
              st.Stats.backjump_depth <-
                st.Stats.backjump_depth + (level - !assert_lv)
        | None -> ()
      end;
      (match s.opts.trace with
      | Some tr ->
          Trace.emit tr ~time_s:(now () -. s.started)
            (Trace.Conflict
               {
                 depth = level;
                 level = (if asserting then !assert_lv else -1);
                 lbd = !lbd;
                 size = s.cl_len;
                 nodes = s.nodes;
               })
      | None -> ());
      if asserting && !assert_lv = 0 then begin
        (* root-asserting: after the driver re-propagates at the root the
           clause fixes at least one variable for good *)
        (match s.stats with
        | Some st -> st.Stats.backjumps <- st.Stats.backjumps + 1
        | None -> ());
        raise Abort_dive
      end
    end
  end

(* Analysis plus database housekeeping: right after a conflict no
   fixpoint is in flight, so this is a safe reduction point — without it
   a long dive would grow the database without bound. *)
let handle_conflict s =
  learn_from_conflict s;
  if s.n_learned > s.max_learnts then reduce_db s

(* --- bounding ---------------------------------------------------------- *)

let objective_min_activity s =
  if s.has_obj_row then s.row_minact.(s.n_rows) else 0

(* Root probing (failed-literal shaving) against the incumbent cutoff:
   tentatively commit each endpoint of every unit-domain variable and run
   the propagation fixpoint; an endpoint that conflicts is removed for
   good.  Because the objective cutoff row joins the fixpoint, this is
   objective-driven — a fixing only ever excludes solutions no better
   than the incumbent, so the optimum survives.  Passes repeat while
   fixings land; [false] means the root itself is exhausted under the
   cutoff, i.e. the incumbent is optimal. *)
let probe_fixpoint s ~max_passes =
  if s.incumbent_obj = max_int then true
  else begin
    let alive = ref true in
    let changed = ref true in
    let passes = ref 0 in
    while !alive && !changed && !passes < max_passes do
      incr passes;
      changed := false;
      let i = ref 0 in
      while !alive && !i < s.n do
        let v = !i in
        if s.ub.(v) - s.lb.(v) = 1 then begin
          let lo = s.lb.(v) and hi = s.ub.(v) in
          (match s.stats with
          | Some st -> st.Stats.probe_trials <- st.Stats.probe_trials + 1
          | None -> ());
          let m = mark s in
          set_ub s v lo;
          let ok_lo = propagate1 s v in
          undo_to s m;
          if not ok_lo then begin
            set_lb s v hi;
            changed := true;
            if not (propagate1 s v) then alive := false
          end
          else begin
            (match s.stats with
            | Some st -> st.Stats.probe_trials <- st.Stats.probe_trials + 1
            | None -> ());
            let m = mark s in
            set_lb s v hi;
            let ok_hi = propagate1 s v in
            undo_to s m;
            if not ok_hi then begin
              set_ub s v lo;
              changed := true;
              if not (propagate1 s v) then alive := false
            end
          end
        end;
        incr i
      done
    done;
    !alive
  end

(* In-tree probing parameters.  [probe_window] candidates are examined per
   probed node; each trial propagation is cut off after [probe_budget] row
   propagations (a truncated trial just means a missed fixing, never a
   wrong one).  [probe_half] probes only the endpoint the warm-start hint
   disfavours — the branching step commits the hinted value first anyway,
   so refuting the opposite endpoint is the deduction that pays. *)
let probe_window = 24
let probe_budget = 300
let probe_half = true

(* Exponential backoff on fruitless probing: after [m] consecutive probe
   calls that fixed nothing, the next [2^m - 1] nodes skip probing
   entirely (capped at 63-node gaps).  A search that is still improving
   its incumbent rarely yields probe fixings, so probing self-throttles
   to a few percent of nodes and the dive keeps its raw throughput; once
   the search turns into an optimality proof the fixings come back, the
   streak resets, and probing runs at full cadence where it pays. *)
let probe_max_backoff = 6

(* Probe only the next [w] unfixed variables in branch order — the node's
   own branching candidates — instead of every unit-domain variable, and
   skip any candidate none of whose rows changed since its last probe
   (the row stamps): a probe can only learn something new when the
   variable's neighbourhood moved.  Trial propagations run un-stamped so
   probing never marks work dirty for itself; only real deductions (the
   permanent fixings, and the search's own bound changes) do. *)
let probe_candidates s ~w =
  s.probe_hit <- false;
  let alive = ref true in
  let seen = ref 0 in
  (* everything before [branch_head] is fixed, so start the scan there *)
  let i = ref s.branch_head in
  let n_seq = Array.length s.branch_seq in
  while !alive && !i < n_seq && !seen < w do
    let v = s.branch_seq.(!i) in
    if s.ub.(v) - s.lb.(v) = 1 then begin
      incr seen;
      let dirty = ref false in
      let occ1 = s.occ_start.(v + 1) in
      let last = s.probe_stamp.(v) in
      let j = ref s.occ_start.(v) in
      while (not !dirty) && !j < occ1 do
        if s.row_stamp.(Array.unsafe_get s.occ_row !j) > last then
          dirty := true;
        incr j
      done;
      if !dirty then begin
        s.probe_stamp.(v) <- s.change_gen;
        let lo = s.lb.(v) and hi = s.ub.(v) in
        (* With a warm-start hint, the hinted value is tried first by the
           branching step anyway; probing just the opposite endpoint buys
           the common deduction (hint forced) at half the cost. *)
        let hint_lo =
          match s.value_hint with Some h -> h.(v) <= lo | None -> true
        in
        let skip_lo = probe_half && not hint_lo in
        let skip_hi = probe_half && hint_lo in
        let ok_lo =
          skip_lo
          ||
          let m = mark s in
          (match s.stats with
          | Some st -> st.Stats.probe_trials <- st.Stats.probe_trials + 1
          | None -> ());
          s.no_stamp <- true;
          set_ub s v lo;
          let ok = propagate1 ~budget:probe_budget s v in
          undo_to s m;
          s.no_stamp <- false;
          ok
        in
        if not ok_lo then begin
          s.probe_hit <- true;
          set_lb s v hi;
          if not (propagate1 s v) then alive := false
        end
        else begin
          let ok_hi =
            skip_hi
            ||
            let m = mark s in
            (match s.stats with
            | Some st -> st.Stats.probe_trials <- st.Stats.probe_trials + 1
            | None -> ());
            s.no_stamp <- true;
            set_lb s v hi;
            let ok = propagate1 ~budget:probe_budget s v in
            undo_to s m;
            s.no_stamp <- false;
            ok
          in
          if not ok_hi then begin
            s.probe_hit <- true;
            set_ub s v lo;
            if not (propagate1 s v) then alive := false
          end
        end
      end
    end
    else if s.ub.(v) > s.lb.(v) then incr seen;
    incr i
  done;
  !alive

(* --- search ------------------------------------------------------------ *)

let record_incumbent s =
  let x = Array.copy s.lb in
  let obj =
    Array.fold_left (fun acc (a, v) -> acc + (a * x.(v))) 0 s.obj_terms
  in
  if s.incumbent = None || obj < s.incumbent_obj then begin
    (match Model.check s.model x with
    | Ok () -> ()
    | Error errs ->
        failwith
          ("Ilp.Solver internal error: incumbent fails audit: "
          ^ String.concat "; " errs));
    s.incumbent <- Some x;
    s.incumbent_obj <- obj;
    if s.has_obj_row && obj - 1 < s.row_rhs.(s.n_rows) then begin
      s.row_rhs.(s.n_rows) <- obj - 1;
      s.obj_dirty <- true
    end;
    (match s.stats with
    | Some st ->
        Stats.incumbent st ~time_s:(now () -. s.started) ~nodes:s.nodes
          ~objective:obj
    | None -> ());
    match s.opts.trace with
    | Some tr ->
        Trace.emit tr ~time_s:(now () -. s.started)
          (Trace.Incumbent { objective = obj; nodes = s.nodes })
    | None -> ()
  end

(* Dynamic most-constrained selection, windowed over the static order:
   among the first [branch_window] unfixed variables of [branch_seq], pick
   the smallest remaining domain, ties broken by conflict activity, then
   by order.  The window keeps the caller's branch order authoritative at
   the large scale — the ADVBIST encoding's variable hierarchy is
   essential to its pruning — while conflicts still reorder locally.
   With no conflicts recorded yet (all activities zero) and uniform
   domains, this is exactly the static first-unfixed scan, including its
   early exit. *)
let branch_window = 16

let pick_branch_var s =
  let seq = s.branch_seq in
  let n_seq = Array.length seq in
  (* Skip the fixed prefix once and remember where it ends: deep subtrees
     would otherwise rescan hundreds of fixed variables at every node.
     [undo_to] moves the cursor back whenever backtracking re-widens an
     earlier variable, so the skip is always sound. *)
  let h = ref s.branch_head in
  while
    !h < n_seq
    &&
    let v = Array.unsafe_get seq !h in
    Array.unsafe_get s.ub v = Array.unsafe_get s.lb v
  do
    incr h
  done;
  s.branch_head <- !h;
  let best = ref (-1) in
  let best_dom = ref max_int in
  let best_act = ref neg_infinity in
  let seen = ref 0 in
  let i = ref !h in
  while !i < n_seq && !seen < branch_window do
    let v = Array.unsafe_get seq !i in
    let dom = Array.unsafe_get s.ub v - Array.unsafe_get s.lb v in
    if dom > 0 then begin
      incr seen;
      let a = Array.unsafe_get s.act v in
      if dom < !best_dom || (dom = !best_dom && a > !best_act) then begin
        best := v;
        best_dom := dom;
        best_act := a
      end
    end;
    incr i
  done;
  if !best < 0 then None else Some !best

(* One backoff-gated probing step at a node: [true] when probing proved
   the node infeasible against the cutoff.  Misses widen the skip gap
   (see [probe_max_backoff]); any landed fixing resets it. *)
let probe_prune s =
  if s.probe_skip > 0 then begin
    s.probe_skip <- s.probe_skip - 1;
    (match s.stats with
    | Some st -> st.Stats.probe_skips <- st.Stats.probe_skips + 1
    | None -> ());
    false
  end
  else begin
    let t0 = match s.stats with Some _ -> now () | None -> 0.0 in
    let alive = probe_candidates s ~w:probe_window in
    (match s.stats with
    | Some st ->
        st.Stats.probe_s <- st.Stats.probe_s +. (now () -. t0);
        st.Stats.probe_calls <- st.Stats.probe_calls + 1;
        if s.probe_hit then st.Stats.probe_hits <- st.Stats.probe_hits + 1
    | None -> ());
    if s.probe_hit then s.probe_miss <- 0
    else begin
      s.probe_miss <- min (s.probe_miss + 1) probe_max_backoff;
      s.probe_skip <- (1 lsl s.probe_miss) - 1;
      (match s.stats with
      | Some st -> st.Stats.probe_backoffs <- st.Stats.probe_backoffs + 1
      | None -> ())
    end;
    not alive
  end

(* Prune-reason telemetry: the reason is a constant constructor, so the
   event record is only allocated once a sink is installed.  [bound] is
   the dual bound that fired ([max_int] when the node was proven empty
   rather than dominated), [nodes] the count at emission — both feed
   {!Replay}'s attribution. *)
let pruned s depth reason bound =
  match s.opts.trace with
  | Some tr ->
      Trace.emit tr ~time_s:(now () -. s.started)
        (Trace.Prune { depth; reason; bound; nodes = s.nodes })
  | None -> ()

(* [var]/[value] are the branching decision that created this node
   ([var = -1] at a subtree root); they only exist for the trace, so the
   disabled path still passes two immediates and allocates nothing. *)
let rec dfs s depth ~var ~value =
  s.nodes <- s.nodes + 1;
  (match s.stats with Some st -> Stats.node st ~depth | None -> ());
  (match s.opts.trace with
  | Some tr ->
      Trace.emit tr ~time_s:(now () -. s.started)
        (Trace.Node
           {
             depth;
             nodes = s.nodes;
             var;
             value;
             bound = objective_min_activity s;
           })
  | None -> ());
  if s.nodes land 63 = 0 then check_limits s;
  let c = s.incumbent_obj in
  if c < max_int && objective_min_activity s >= c then
    pruned s depth Trace.Cutoff (objective_min_activity s)
  else if
    depth > 0 && depth <= s.probe_depth && c < max_int && probe_prune s
  then pruned s depth Trace.Probed max_int
  else branch s depth

and branch s depth =
  match pick_branch_var s with
  | None -> record_incumbent s
  | Some v ->
      let lo = s.lb.(v) and hi = s.ub.(v) in
      let try_value value =
        let m = mark s in
        s.decision_level <- depth + 1;
        set_lb s v value;
        set_ub s v value;
        if propagate1 s v then dfs s (depth + 1) ~var:v ~value
        else handle_conflict s;
        undo_to s m;
        s.decision_level <- depth
      in
      if hi - lo <= 8 then begin
        (* enumerate values, hint (or preferred end) first — same order
           as [child_paths], with no list construction *)
        let hint =
          match s.value_hint with
          | Some h when h.(v) >= lo && h.(v) <= hi -> h.(v)
          | Some _ | None -> min_int
        in
        if hint <> min_int then try_value hint;
        if s.opts.prefer_high then
          for value = hi downto lo do
            if value <> hint then try_value value
          done
        else
          for value = lo to hi do
            if value <> hint then try_value value
          done
      end
      else begin
        (* wide integer domain: bisect *)
        let mid = lo + ((hi - lo) / 2) in
        let m = mark s in
        s.decision_level <- depth + 1;
        set_ub s v mid;
        if propagate1 s v then dfs s (depth + 1) ~var:v ~value:mid
        else handle_conflict s;
        undo_to s m;
        let m = mark s in
        set_lb s v (mid + 1);
        if propagate1 s v then dfs s (depth + 1) ~var:v ~value:(mid + 1)
        else handle_conflict s;
        undo_to s m;
        s.decision_level <- depth
      end

(* Dive from the root, re-diving after every root-asserting nogood.
   [Abort_dive] (root-asserting or empty nogood) unwinds here; the driver
   rewinds the trail, reduces the learned database while no reason can
   dangle, re-propagates the root — newly learned clauses fix their root
   implications permanently, which is the non-chronological backjump —
   and dives again.  Learned clauses and the incumbent survive the
   re-dive, which the trace records as a [Restart] event.  [root_mark]
   tracks the root trail watermark as root fixings accumulate. *)
let search_drive s root_mark =
  let again = ref true in
  while !again do
    again := false;
    try dfs s 0 ~var:(-1) ~value:0
    with Abort_dive ->
      undo_to s !root_mark;
      s.decision_level <- 0;
      if not s.learn_closed then begin
        reduce_db s;
        if propagate s None then begin
          root_mark := mark s;
          (match s.opts.trace with
          | Some tr ->
              Trace.emit tr ~time_s:(now () -. s.started)
                (Trace.Restart
                   {
                     conflicts = s.conflicts_total;
                     learned = s.n_learned;
                     nodes = s.nodes;
                   })
          | None -> ());
          again := true
        end
        (* a root conflict under the cutoff proves the incumbent optimal:
           fall through with the search complete *)
      end
  done

(* The historical [verbose] flag is now a convenience alias for a
   human-readable stderr trace: with no explicit sink installed it
   reroutes through {!Trace.stderr_human}, so an explicit [--trace FILE]
   captures the same events and leaves stderr clean (essential under
   [jobs > 1], where interleaved worker prints were unreadable). *)
let reroute_verbose (options : options) =
  if options.verbose && options.trace = None then
    { options with trace = Some (Trace.stderr_human ()) }
  else options

(* Build the full search state for [model]: normalized rows, occurrence
   lists, incremental activities and the warm-start incumbent. *)
let build_search ?stats ~(options : options) ~started model =
  let n = Model.n_vars model in
  let lb = Model.lower_bounds model and ub = Model.upper_bounds model in
  (* Normalize rows to Le, as (coefs, vars, rhs) triples in model order
     (Eq splits into the positive row then the negated one). *)
  let rev_rows = ref [] and n_rows = ref 0 in
  Array.iter
    (fun (c : Model.constr) ->
      let terms = Array.of_list (Linexpr.terms c.Model.expr) in
      let vars = Array.map snd terms in
      let pos () = (Array.map fst terms, vars, c.Model.rhs) in
      let neg () = (Array.map (fun (a, _) -> -a) terms, vars, -c.Model.rhs) in
      match c.Model.sense with
      | Model.Le ->
          rev_rows := pos () :: !rev_rows;
          incr n_rows
      | Model.Ge ->
          rev_rows := neg () :: !rev_rows;
          incr n_rows
      | Model.Eq ->
          rev_rows := neg () :: pos () :: !rev_rows;
          n_rows := !n_rows + 2)
    (Model.constraints model);
  let row_list = List.rev !rev_rows in
  let n_rows = !n_rows in
  let obj_terms = Array.of_list (Linexpr.terms (Model.objective model)) in
  let has_obj_row = Array.length obj_terms > 0 in
  (* Flatten the rows (objective cutoff row last) into one CSR block. *)
  let nnz =
    List.fold_left (fun acc (c, _, _) -> acc + Array.length c) 0 row_list
    + Array.length obj_terms
  in
  let row_start = Array.make (n_rows + 2) 0 in
  let row_coef = Array.make (max nnz 1) 0 in
  let row_var = Array.make (max nnz 1) 0 in
  let row_rhs = Array.make (n_rows + 1) 0 in
  let k = ref 0 in
  List.iteri
    (fun i (coefs, vars, rhs) ->
      row_start.(i) <- !k;
      row_rhs.(i) <- rhs;
      Array.iteri
        (fun t a ->
          row_coef.(!k) <- a;
          row_var.(!k) <- vars.(t);
          incr k)
        coefs)
    row_list;
  row_start.(n_rows) <- !k;
  row_rhs.(n_rows) <- max_int / 2;
  Array.iter
    (fun (a, v) ->
      row_coef.(!k) <- a;
      row_var.(!k) <- v;
      incr k)
    obj_terms;
  row_start.(n_rows + 1) <- !k;
  (* Occurrence lists over the ordinary rows, deduped and split by
     coefficient sign, flattened to CSR.  [occ_row] drives worklist
     enqueueing; the pos/neg pairs drive the incremental min-activity
     updates on lower/upper bound changes respectively. *)
  let occ_all = Array.make (max n 1) [] in
  for ri = n_rows - 1 downto 0 do
    for t = row_start.(ri + 1) - 1 downto row_start.(ri) do
      let v = row_var.(t) in
      occ_all.(v) <- (ri, row_coef.(t)) :: occ_all.(v)
    done
  done;
  let flatten_rows sel =
    let start = Array.make (n + 1) 0 in
    let total = ref 0 in
    for v = 0 to n - 1 do
      total := !total + List.length (sel occ_all.(v))
    done;
    let ri = Array.make (max !total 1) 0 in
    let aa = Array.make (max !total 1) 0 in
    let k = ref 0 in
    for v = 0 to n - 1 do
      start.(v) <- !k;
      List.iter
        (fun (r, a) ->
          ri.(!k) <- r;
          aa.(!k) <- a;
          incr k)
        (sel occ_all.(v))
    done;
    start.(n) <- !k;
    (start, ri, aa)
  in
  let occ_start, occ_row, _ =
    flatten_rows (fun l ->
        List.map (fun r -> (r, 0)) (List.sort_uniq compare (List.map fst l)))
  in
  let occ_pos_start, occ_pos_ri, occ_pos_a =
    flatten_rows (List.filter (fun (_, a) -> a > 0))
  in
  let occ_neg_start, occ_neg_ri, occ_neg_a =
    flatten_rows (List.filter (fun (_, a) -> a < 0))
  in
  let objc = Array.make (max n 1) 0 in
  Array.iter (fun (a, v) -> objc.(v) <- a) obj_terms;
  (* Initial min-activities from the root bounds; every later bound change
     updates them through the trail.  The spans are fixed here for good:
     the search only ever narrows these bounds.  The loop covers the
     cutoff row too (its range is empty without an objective). *)
  let row_minact = Array.make (n_rows + 1) 0 in
  let row_span = Array.make (n_rows + 1) 0 in
  for ri = 0 to n_rows do
    let acc = ref 0 and span = ref 0 in
    for t = row_start.(ri) to row_start.(ri + 1) - 1 do
      let a = row_coef.(t) and v = row_var.(t) in
      acc := !acc + (if a > 0 then a * lb.(v) else a * ub.(v));
      let a = abs a and d = ub.(v) - lb.(v) in
      (* a < 0 only for min_int, d < 0 only on overflow *)
      let term =
        if a = 0 then 0
        else if a < 0 || d < 0 || d > max_int / a then max_int
        else a * d
      in
      if term > !span then span := term
    done;
    row_minact.(ri) <- !acc;
    row_span.(ri) <- !span
  done;
  let branch_seq =
    match options.branch_order with
    | None -> Array.init n (fun i -> i)
    | Some order ->
        let seen = Array.make n false in
        let pref = List.filter (fun v -> v >= 0 && v < n) order in
        List.iter (fun v -> seen.(v) <- true) pref;
        let rest = List.filter (fun v -> not seen.(v)) (List.init n Fun.id) in
        Array.of_list (pref @ rest)
  in
  let seq_pos = Array.make (max n 1) 0 in
  Array.iteri (fun i v -> seq_pos.(v) <- i) branch_seq;
  let warm =
    match options.warm_start with
    | Some x when Array.length x = n && Model.check model x = Ok () -> Some x
    | Some _ | None -> None
  in
  let queue_cap =
    let c = ref 1 in
    while !c < n_rows + 1 do
      c := !c * 2
    done;
    !c
  in
  let s =
    {
      model;
      n;
      lb;
      ub;
      n_rows;
      has_obj_row;
      row_start;
      row_coef;
      row_var;
      row_rhs;
      row_minact;
      row_stamp = Array.make (n_rows + 1) 1;
      row_span;
      occ_start;
      occ_row;
      occ_pos_start;
      occ_pos_ri;
      occ_pos_a;
      occ_neg_start;
      occ_neg_ri;
      occ_neg_a;
      obj_terms;
      objc;
      obj_dirty = true;
      trail_entry = Array.make 256 0;
      trail_old = Array.make 256 0;
      trail_reason = Array.make 256 0;
      trail_level = Array.make 256 0;
      trail_prev = Array.make 256 0;
      trail_len = 0;
      opts = options;
      started;
      incumbent = None;
      incumbent_obj = max_int;
      nodes = 0;
      ticks = 0;
      scans = 0;
      prop_queue = Array.make queue_cap 0;
      queue_mask = queue_cap - 1;
      q_head = 0;
      q_tail = 0;
      prop_queued = Array.make (n_rows + 1) 0;
      prop_gen = 0;
      probe_stamp = Array.make (max n 1) 0;
      change_gen = 1;
      no_stamp = false;
      probe_hit = false;
      probe_miss = 0;
      probe_skip = 0;
      (* A probing trial's propagation cost grows with the row count while
         the plain node cost barely moves, so the break-even shifts with
         model size: small models can afford shaving at every node, large
         ones only near subtree roots, where a successful prune discards
         the most work. *)
      probe_depth =
        (if Model.n_constraints model <= 4096 then max_int else 8);
      branch_seq;
      seq_pos;
      branch_head = 0;
      act = Array.make (max n 1) 0.0;
      act_inc = 1.0;
      value_hint = options.warm_start;
      stats;
      is_bin = Array.init (max n 1) (fun v -> v < n && lb.(v) >= 0 && ub.(v) <= 1);
      pos_lb = Array.make (max n 1) (-1);
      pos_ub = Array.make (max n 1) (-1);
      decision_level = 0;
      conflict_row = -1;
      n_learned = 0;
      learn_act = Array.make 64 0.0;
      learn_lbd = Array.make 64 0;
      learn_cut = Array.make 64 0;
      cla_inc = 1.0;
      lrn_pos = Array.make (max n 1) [||];
      lrn_neg = Array.make (max n 1) [||];
      lrn_pos_len = Array.make (max n 1) 0;
      lrn_neg_len = Array.make (max n 1) 0;
      an_seen = Array.make (max 1 (2 * n)) 0;
      an_gen = 0;
      an_pos_lb = Array.make (max n 1) (-1);
      an_pos_ub = Array.make (max n 1) (-1);
      an_pos_gen = Array.make (max n 1) (-1);
      cl_lit = Array.make 64 0;
      cl_level = Array.make 64 0;
      cl_len = 0;
      max_learnts = max_learnts_init n;
      conflicts_total = 0;
      learn_closed = false;
    }
  in
  let install x =
    let obj =
      Array.fold_left (fun acc (a, v) -> acc + (a * x.(v))) 0 obj_terms
    in
    if obj < s.incumbent_obj then begin
      s.incumbent <- Some (Array.copy x);
      s.incumbent_obj <- obj;
      if s.has_obj_row then s.row_rhs.(s.n_rows) <- obj - 1
    end
  in
  Option.iter install warm;
  (* The bound-only incumbent: audited against the model like the warm
     start, but installed without
     touching [value_hint] — it tightens the cutoff, never the
     trajectory. *)
  (match options.incumbent_start with
  | Some x when Array.length x = n && Model.check model x = Ok () -> install x
  | Some _ | None -> ());
  s

(* End-of-search stamping of the counters that are kept outside the hot
   path: propagation ticks and scans live in the search record. *)
let finalize_stats s =
  match s.stats with
  | None -> ()
  | Some st ->
      st.Stats.prop_ticks <- st.Stats.prop_ticks + s.ticks;
      st.Stats.prop_scans <- st.Stats.prop_scans + s.scans

(* Phase-boundary timer: [tick stats last set] charges the wall clock
   since [!last] to one stats field and advances the boundary.  Per-solve
   cost only (a handful of calls per solve), never per node. *)
let tick stats last set =
  match stats with
  | Some st ->
      let t = now () in
      set st (t -. !last);
      last := t
  | None -> ()

(* Sequential solve returning the search state too, for the learned-clause
   test hook below; [solve] drops it. *)
let solve_internal ~(options : options) model =
  let started = now () in
  let stats = if options.stats then Some (Stats.create ()) else None in
  let last = ref started in
  let options = reroute_verbose options in
  let s = build_search ?stats ~options ~started model in
  tick stats last (fun st d -> st.Stats.build_s <- d);
  let root_mark = ref 0 in
  let complete =
    try
      let root_ok = propagate s None && probe_fixpoint s ~max_passes:4 in
      tick stats last (fun st d -> st.Stats.root_s <- d);
      root_mark := mark s;
      if root_ok then begin
        (* the dual curve's only point: the root-propagated trivial
           bound *)
        (match s.opts.trace with
        | Some tr ->
            Trace.emit tr ~time_s:(now () -. s.started)
              (Trace.Bound
                 { bound = objective_min_activity s; nodes = s.nodes })
        | None -> ());
        search_drive s root_mark
      end;
      true
    with Out_of_time -> false
  in
  (* On an in-root limit hit the root tick never ran; the search tick then
     absorbs the root phase too, keeping the phase account exhaustive. *)
  tick stats last (fun st d -> st.Stats.search_s <- d);
  finalize_stats s;
  (* A limit can fire mid-branch with the trail partially wound; rewind to
     the root-propagated state so the trivial bound below is a bound on the
     whole problem, not on the interrupted subtree. *)
  undo_to s !root_mark;
  let time_s = now () -. s.started in
  let trivial_bound = objective_min_activity s in
  let outcome =
    match (s.incumbent, complete) with
    | Some x, true ->
      {
        status = Optimal;
        solution = Some x;
        objective = Some s.incumbent_obj;
        bound = s.incumbent_obj;
        nodes = s.nodes;
        time_s;
        stolen = 0;
        stats;
      }
    | Some x, false ->
      {
        status = Feasible;
        solution = Some x;
        objective = Some s.incumbent_obj;
        bound = trivial_bound;
        nodes = s.nodes;
        time_s;
        stolen = 0;
        stats;
      }
    | None, true ->
      {
        status = Infeasible;
        solution = None;
        objective = None;
        bound = max_int;
        nodes = s.nodes;
        time_s;
        stolen = 0;
        stats;
      }
    | None, false ->
      {
        status = Unknown;
        solution = None;
        objective = None;
        bound = trivial_bound;
        nodes = s.nodes;
        time_s;
        stolen = 0;
        stats;
      }
  in
  (outcome, s)

let solve ?(options = default) model = fst (solve_internal ~options model)

(* --- parallel subtree search --------------------------------------------

   One hard instance, several domains: the main domain runs the root phase
   (propagation, probing) once, expands the root breadth-first into a
   frontier of open subtrees — each a list of (var, lo, hi) bound
   restrictions — and distributes them round-robin over per-worker
   work-stealing deques.  Idle workers steal the oldest (largest) pending
   subtree from a victim's deque.

   Determinism is by subtree isolation.  Each subtree is solved from a
   per-subtree reset of the worker's search state (activities, probe
   state, row stamps, incumbent re-seeded from the deterministic root
   phase), so its result depends only on the subtree, never on the
   schedule.  Workers share no incumbent: inside a subtree only the
   deterministic seed prunes, so the node count and depth histogram are
   jobs-invariant too.  The final solution is
   the minimum over all subtree results (and the root-phase incumbent)
   under the (objective, lexicographic solution) order — independent of
   which worker finished first, so [~jobs:1] and [~jobs:4] return
   identical outcomes. *)

(* Per-subtree reset: everything schedule- or history-dependent goes back
   to a canonical state derived from the deterministic root phase.  The
   trail must already be rewound to the worker's root mark. *)
let reset_for_subtree s ~seed =
  Array.fill s.act 0 (Array.length s.act) 0.0;
  s.act_inc <- 1.0;
  s.probe_hit <- false;
  s.probe_miss <- 0;
  s.probe_skip <- 0;
  Array.fill s.probe_stamp 0 (Array.length s.probe_stamp) 0;
  s.change_gen <- 1;
  Array.fill s.row_stamp 0 (Array.length s.row_stamp) 1;
  s.incumbent <- Option.map (fun (_, x) -> Array.copy x) seed;
  s.incumbent_obj <- (match seed with Some (o, _) -> o | None -> max_int);
  if s.has_obj_row then
    s.row_rhs.(s.n_rows) <-
      (match seed with Some (o, _) -> o - 1 | None -> max_int / 2);
  s.obj_dirty <- true;
  s.branch_head <- 0;
  (* Learned clauses are subtree-local: their derivations dropped the
     subtree path's level-0 assumptions, so none may leak into a sibling.
     Dropping the rows also keeps subtree results schedule-independent. *)
  s.n_learned <- 0;
  Array.fill s.lrn_pos_len 0 (Array.length s.lrn_pos_len) 0;
  Array.fill s.lrn_neg_len 0 (Array.length s.lrn_neg_len) 0;
  s.cla_inc <- 1.0;
  s.conflict_row <- -1;
  s.decision_level <- 0;
  s.conflicts_total <- 0;
  s.learn_closed <- false;
  s.max_learnts <- max_learnts_init s.n

(* Child decisions of branching on [v], in exactly the order [branch]
   would explore them (warm-start hint first, then the preferred end). *)
let child_paths s v =
  let lo = s.lb.(v) and hi = s.ub.(v) in
  if hi - lo <= 8 then begin
    let all = List.init (hi - lo + 1) (fun i -> lo + i) in
    let all = if s.opts.prefer_high then List.rev all else all in
    let vals =
      match s.value_hint with
      | Some h when h.(v) >= lo && h.(v) <= hi ->
          h.(v) :: List.filter (fun x -> x <> h.(v)) all
      | Some _ | None -> all
    in
    List.map (fun value -> (v, value, value)) vals
  end
  else
    let mid = lo + ((hi - lo) / 2) in
    [ (v, lo, mid); (v, mid + 1, hi) ]

(* Deterministic breadth-first expansion of the (already propagated) root
   into at least [target] open subtrees, using the same branch-variable
   and value ordering as the sequential search, so the frontier partitions
   exactly the space [dfs] would explore.  Leaves reached during expansion
   become incumbents of [s]; closed nodes vanish.  Returns the frontier
   paths and whether a limit cut the expansion short. *)
let expand_frontier s ~target =
  let q = Queue.create () in
  Queue.add [] q;
  let expansions = ref 0 in
  let aborted = ref false in
  (try
     while
       (not (Queue.is_empty q))
       && Queue.length q < target
       && !expansions < 8 * target
     do
       incr expansions;
       let path = Queue.take q in
       let m = mark s in
       List.iter
         (fun (v, lo, hi) ->
           set_lb s v lo;
           set_ub s v hi)
         path;
       let seeds = List.map (fun (v, _, _) -> v) path in
       if path = [] || propagate s (Some seeds) then begin
         match pick_branch_var s with
         | None -> record_incumbent s
         | Some v ->
             List.iter (fun d -> Queue.add (path @ [ d ]) q) (child_paths s v)
       end;
       undo_to s m
     done
   with Out_of_time -> aborted := true);
  (List.of_seq (Queue.to_seq q), !aborted)

let solve_parallel ?(options = default) ~jobs model =
  let jobs = max 1 (min jobs 64) in
  let started = now () in
  let stats = if options.stats then Some (Stats.create ()) else None in
  let last = ref started in
  let options = reroute_verbose options in
  (* Strip a warm start that fails the audit here, once, so the per-subtree
     reset can trust it unconditionally. *)
  let options =
    match options.warm_start with
    | Some x
      when Array.length x = Model.n_vars model && Model.check model x = Ok ()
      ->
        options
    | Some _ -> { options with warm_start = None }
    | None -> options
  in
  (* Force the model's lazy caches before it crosses domains. *)
  if Model.n_vars model > 0 then ignore (Model.bounds model 0);
  let finish ~complete ~stolen ~nodes ~bound ~stats best =
    let time_s = now () -. started in
    match (best, complete) with
    | Some (obj, x), true ->
        {
          status = Optimal;
          solution = Some x;
          objective = Some obj;
          bound = obj;
          nodes;
          time_s;
          stolen;
          stats;
        }
    | Some (obj, x), false ->
        {
          status = Feasible;
          solution = Some x;
          objective = Some obj;
          bound = min bound obj;
          nodes;
          time_s;
          stolen;
          stats;
        }
    | None, true ->
        {
          status = Infeasible;
          solution = None;
          objective = None;
          bound = max_int;
          nodes;
          time_s;
          stolen;
          stats;
        }
    | None, false ->
        {
          status = Unknown;
          solution = None;
          objective = None;
          bound;
          nodes;
          time_s;
          stolen;
          stats;
        }
  in
  let s0 = build_search ?stats ~options ~started model in
  tick stats last (fun st d -> st.Stats.build_s <- d);
  let root_state =
    try
      if propagate s0 None && probe_fixpoint s0 ~max_passes:4 then `Open
      else `Closed
    with Out_of_time -> `Aborted
  in
  tick stats last (fun st d -> st.Stats.root_s <- d);
  match root_state with
  | `Closed | `Aborted ->
      let complete = root_state = `Closed in
      let best =
        Option.map (fun x -> (s0.incumbent_obj, x)) s0.incumbent
      in
      finalize_stats s0;
      finish ~complete ~stolen:0 ~nodes:s0.nodes
        ~bound:(objective_min_activity s0)
        ~stats best
  | `Open ->
      (* The subtree count must NOT depend on [jobs]: the frontier (and
         with it root_best, every per-subtree result and the final
         combine) is then identical for any worker count, which is what
         makes the returned solution — not just its objective —
         jobs-invariant even among equal-objective ties.  64 subtrees
         keep 16 workers fed with slack for uneven subtree sizes. *)
      let target = 64 in
      let frontier, expansion_aborted = expand_frontier s0 ~target in
      let root_best =
        Option.map (fun x -> (s0.incumbent_obj, x)) s0.incumbent
      in
      let root_bound = objective_min_activity s0 in
      (match options.trace with
      | Some tr ->
          Trace.emit tr
            ~time_s:(now () -. started)
            (Trace.Bound { bound = root_bound; nodes = s0.nodes })
      | None -> ());
      if frontier = [] || expansion_aborted then begin
        (* the whole tree closed during expansion, or a limit fired *)
        finalize_stats s0;
        tick stats last (fun st d -> st.Stats.search_s <- d);
        finish
          ~complete:((not expansion_aborted) && frontier = [])
          ~stolen:0 ~nodes:s0.nodes ~bound:root_bound ~stats root_best
      end
      else begin
        let frontier = Array.of_list frontier in
        let n_sub = Array.length frontier in
        (match options.trace with
        | Some tr ->
            Array.iteri
              (fun i path ->
                Trace.emit tr
                  ~time_s:(now () -. started)
                  (Trace.Subtree { id = i; depth = List.length path }))
              frontier
        | None -> ());
        let deques = Pool.Deques.create ~owners:jobs in
        Array.iteri
          (fun i path -> Pool.Deques.push deques ~owner:(i mod jobs) (i, path))
          frontier;
        let stolen = Atomic.make 0 in
        let incomplete = Atomic.make false in
        let results = Array.make n_sub None in
        let work idx =
          let wstats = if options.stats then Some (Stats.create ()) else None in
          let ws = build_search ?stats:wstats ~options ~started model in
          let total_nodes = ref 0 in
          (* Capture and zero the per-search node counter, so each subtree
             gets the full node budget.  A cumulative budget would make a
             limit-hit subtree's partial result depend on which subtrees
             this worker happened to process first — i.e. on the stealing
             schedule; per-subtree budgets keep every subtree's outcome a
             pure function of the subtree itself. *)
          let flush_nodes () =
            total_nodes := !total_nodes + ws.nodes;
            ws.nodes <- 0
          in
          (* The wall clock, unlike the node budget, does not reset per
             subtree: once it fires, draining the rest of the queue is
             pointless. *)
          let hard_stop () =
            match ws.opts.time_limit with
            | Some tl -> now () -. ws.started > tl
            | None -> false
          in
          (* replicate the deterministic root phase of the main domain *)
          let root_ok =
            try propagate ws None && probe_fixpoint ws ~max_passes:4
            with Out_of_time ->
              Atomic.set incomplete true;
              false
          in
          if not root_ok then Atomic.set incomplete true
          else begin
            let process (i, path) =
              reset_for_subtree ws ~seed:root_best;
              flush_nodes ();
              let m = mark ws in
              (try
                 List.iter
                   (fun (v, lo, hi) ->
                     set_lb ws v lo;
                     set_ub ws v hi)
                   path;
                 let seeds = List.map (fun (v, _, _) -> v) path in
                 let open_ = propagate ws (Some seeds) in
                 if open_ then begin
                   (* the subtree's own root watermark: re-dives inside the
                      subtree rewind here, keeping the path assumptions *)
                   let sub_mark = ref (mark ws) in
                   search_drive ws sub_mark
                 end
               with Out_of_time -> Atomic.set incomplete true);
              undo_to ws m;
              match ws.incumbent with
              | Some x
                when ws.incumbent_obj
                     < (match root_best with Some (o, _) -> o | None -> max_int)
                ->
                  results.(i) <- Some (ws.incumbent_obj, x)
              | Some _ | None -> ()
            in
            let rec loop () =
              if not (hard_stop ()) then
                match Pool.Deques.pop deques ~owner:idx with
                | Some item ->
                    process item;
                    loop ()
                | None -> (
                    match Pool.Deques.steal deques ~thief:idx with
                    | Some (item, victim) ->
                        Atomic.incr stolen;
                        (match ws.opts.trace with
                        | Some tr ->
                            Trace.emit tr
                              ~time_s:(now () -. ws.started)
                              (Trace.Steal { thief = idx; victim })
                        | None -> ());
                        process item;
                        loop ()
                    | None -> ())
              else if
                (* abandoning actual work is what makes the run incomplete;
                   a deadline passing after the queue drained is not *)
                Pool.Deques.pop deques ~owner:idx <> None
                || Pool.Deques.steal deques ~thief:idx <> None
              then Atomic.set incomplete true
            in
            loop ()
          end;
          flush_nodes ();
          finalize_stats ws;
          (!total_nodes, wstats)
        in
        let pool = Pool.create ~jobs in
        let tasks = List.init jobs (fun idx -> Pool.submit pool (fun () -> work idx)) in
        let settled = List.map Pool.await tasks in
        Pool.shutdown pool;
        let worker_nodes =
          List.fold_left
            (fun acc r ->
              match r with Ok (n, _) -> acc + n | Error e -> raise e)
            0 settled
        in
        let best = ref root_best in
        Array.iter
          (function
            | Some (obj, x) -> (
                match !best with
                | Some (bo, bx) when bo < obj || (bo = obj && compare bx x <= 0)
                  ->
                    ()
                | Some _ | None -> best := Some (obj, x))
            | None -> ())
          results;
        let complete = not (Atomic.get incomplete) in
        finalize_stats s0;
        let stats =
          match stats with
          | None -> None
          | Some st ->
              (* Phase timers live on the main record (workers only fill
                 CPU sub-timers like probe_s), so the merged phases
                 still sum to the call's wall clock. *)
              st.Stats.search_s <- now () -. !last;
              let merged =
                List.fold_left
                  (fun acc r ->
                    match r with
                    | Ok (_, Some ws) -> Stats.merge acc ws
                    | Ok (_, None) | Error _ -> acc)
                  st settled
              in
              merged.Stats.subtrees <- n_sub;
              merged.Stats.steals <- Atomic.get stolen;
              merged.Stats.workers <- jobs;
              Some merged
        in
        finish ~complete
          ~stolen:(Atomic.get stolen)
          ~nodes:(s0.nodes + worker_nodes)
          ~bound:root_bound ~stats !best
      end

(* --- test + micro-benchmark hooks --------------------------------------- *)

(* A bare search state over [model] — just the normalized rows and the
   incremental propagation machinery — with its bounds tightened to
   [lower] / [upper] through the incremental update path. *)
let bare_search ?lower ?upper model =
  let s = build_search ~options:default ~started:(now ()) model in
  (match lower with
  | Some lbs -> Array.iteri (fun v b -> if b > s.lb.(v) then set_lb s v b) lbs
  | None -> ());
  (match upper with
  | Some ubs -> Array.iteri (fun v b -> if b < s.ub.(v) then set_ub s v b) ubs
  | None -> ());
  s

let row_min_activities ?lower ?upper model =
  let s = bare_search ?lower ?upper model in
  Array.sub s.row_minact 0 s.n_rows

let propagate_bounds ?lower ?upper model =
  let s = bare_search ?lower ?upper model in
  if propagate s None then Some (s.lb, s.ub) else None

(* Sequential solve that also returns the learned nogoods surviving at the
   end of the search, each as (coefs, vars, rhs, cutoff-rhs-at-derivation):
   the row [coefs . x <= rhs] must be implied by the model together with
   [objective <= cutoff-rhs].  Rows dropped by database reduction are not
   reported. *)
let solve_with_learned ?(options = default) model =
  let outcome, s = solve_internal ~options model in
  let rows = ref [] in
  for i = s.n_learned - 1 downto 0 do
    let ri = s.n_rows + 1 + i in
    let b = s.row_start.(ri) and e = s.row_start.(ri + 1) in
    let lits = Array.sub s.row_var b (e - b) in
    rows :=
      ( Array.map (fun lit -> if lit land 1 = 1 then 1 else -1) lits,
        Array.map (fun lit -> lit lsr 1) lits,
        s.row_rhs.(ri),
        s.learn_cut.(i) )
      :: !rows
  done;
  (outcome, !rows)

let propagation_rate model ~sweeps =
  let s = build_search ~options:default ~started:(now ()) model in
  let t0 = now () in
  for _ = 1 to max 1 sweeps do
    let m = mark s in
    ignore (propagate s None);
    undo_to s m
  done;
  let dt = now () -. t0 in
  if dt > 0.0 then float_of_int (max 1 sweeps) /. dt else infinity
