type stats = {
  infeasible : bool;
  fixed_vars : int;
  tightened_bounds : int;
  dropped_rows : int;
  strengthened_coefs : int;
}

(* Internal rows are one flat CSR block of normalized [sum coef*var <= rhs]
   rows, the same layout as the solver's propagation kernel: row [i]'s
   terms live in [row_coef]/[row_var] between [row_start.(i)] and
   [row_start.(i + 1)], its right-hand side in [row_rhs.(i)].  The
   presolve passes below are plain array sweeps over this block — no
   per-row boxing, no allocation in the fixpoint loop. *)
type rows = {
  row_start : int array;  (* n_rows + 1 entries *)
  row_coef : int array;
  row_var : int array;
  row_rhs : int array;  (* mutated by coefficient strengthening *)
  n_rows : int;
}

let rows_of_model m =
  let cs = Model.constraints m in
  let n_rows = ref 0 and nnz = ref 0 in
  Array.iter
    (fun (c : Model.constr) ->
      let len = Linexpr.n_terms c.Model.expr in
      match c.Model.sense with
      | Model.Le | Model.Ge ->
          incr n_rows;
          nnz := !nnz + len
      | Model.Eq ->
          n_rows := !n_rows + 2;
          nnz := !nnz + (2 * len))
    cs;
  let n_rows = !n_rows in
  let row_start = Array.make (n_rows + 1) 0 in
  let row_coef = Array.make (max 1 !nnz) 0 in
  let row_var = Array.make (max 1 !nnz) 0 in
  let row_rhs = Array.make (max 1 n_rows) 0 in
  let r = ref 0 and p = ref 0 in
  let emit sign terms rhs =
    row_rhs.(!r) <- rhs;
    Linexpr.iter
      (fun ~coef ~var ->
        row_coef.(!p) <- sign * coef;
        row_var.(!p) <- var;
        incr p)
      terms;
    incr r;
    row_start.(!r) <- !p
  in
  Array.iter
    (fun (c : Model.constr) ->
      let terms = c.Model.expr in
      match c.Model.sense with
      | Model.Le -> emit 1 terms c.Model.rhs
      | Model.Ge -> emit (-1) terms (-c.Model.rhs)
      | Model.Eq ->
          emit 1 terms c.Model.rhs;
          emit (-1) terms (-c.Model.rhs))
    cs;
  { row_start; row_coef; row_var; row_rhs; n_rows }

let min_activity lb ub t i =
  let acc = ref 0 in
  for p = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    let a = t.row_coef.(p) and v = t.row_var.(p) in
    acc := !acc + if a > 0 then a * lb.(v) else a * ub.(v)
  done;
  !acc

let max_activity lb ub t i =
  let acc = ref 0 in
  for p = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    let a = t.row_coef.(p) and v = t.row_var.(p) in
    acc := !acc + if a > 0 then a * ub.(v) else a * lb.(v)
  done;
  !acc

(* Bound tightening to fixpoint; returns false on proven infeasibility. *)
let tighten lb ub t =
  let changed = ref true in
  let feasible = ref true in
  while !changed && !feasible do
    changed := false;
    for i = 0 to t.n_rows - 1 do
      let minact = min_activity lb ub t i in
      if minact > t.row_rhs.(i) then feasible := false
      else begin
        let slack = t.row_rhs.(i) - minact in
        for p = t.row_start.(i) to t.row_start.(i + 1) - 1 do
          let a = t.row_coef.(p) and v = t.row_var.(p) in
          if a > 0 then begin
            let max_x = lb.(v) + (slack / a) in
            if max_x < ub.(v) then begin
              ub.(v) <- max_x;
              changed := true;
              if ub.(v) < lb.(v) then feasible := false
            end
          end
          else begin
            let na = -a in
            let min_x = ub.(v) - (slack / na) in
            if min_x > lb.(v) then begin
              lb.(v) <- min_x;
              changed := true;
              if ub.(v) < lb.(v) then feasible := false
            end
          end
        done
      end
    done
  done;
  !feasible

let run m =
  let n = Model.n_vars m in
  let lb = Model.lower_bounds m and ub = Model.upper_bounds m in
  let lb0 = Array.copy lb and ub0 = Array.copy ub in
  let t = rows_of_model m in
  let feasible = tighten lb ub t in
  let fixed = ref 0 and tightened = ref 0 in
  if feasible then
    for v = 0 to n - 1 do
      if lb.(v) = ub.(v) && lb0.(v) <> ub0.(v) then incr fixed
      else if lb.(v) > lb0.(v) || ub.(v) < ub0.(v) then incr tightened
    done;
  (* redundant rows and coefficient strengthening under tightened bounds *)
  let dropped = ref 0 and strengthened = ref 0 in
  let keep = Array.make (max 1 t.n_rows) false in
  if feasible then
    for i = 0 to t.n_rows - 1 do
      let maxact = max_activity lb ub t i in
      if maxact <= t.row_rhs.(i) then incr dropped
      else begin
        keep.(i) <- true;
        (* Coefficient strengthening (one application per row; running
           presolve again applies more).  For a <= row with binary x_j,
           coefficient a_j > 0 and d = maxact - rhs > 0: shifting both
           a_j and rhs down by delta keeps the x_j = 1 points identical,
           and keeps the x_j = 0 points identical as long as
           maxact - a_j <= rhs - delta, i.e. delta <= a_j - d.  The
           maximal valid reduction is therefore delta = a_j - d (needs
           a_j > d), which shrinks the coefficient exactly to d. *)
        let d = maxact - t.row_rhs.(i) in
        let p = ref t.row_start.(i) in
        let stop = t.row_start.(i + 1) in
        let hit = ref false in
        while (not !hit) && !p < stop do
          let a = t.row_coef.(!p) and v = t.row_var.(!p) in
          if lb.(v) = 0 && ub.(v) = 1 && a > d then begin
            t.row_coef.(!p) <- d;
            t.row_rhs.(i) <- t.row_rhs.(i) - (a - d);
            incr strengthened;
            hit := true
          end;
          incr p
        done
      end
    done;
  let stats =
    {
      infeasible = not feasible;
      fixed_vars = !fixed;
      tightened_bounds = !tightened;
      dropped_rows = !dropped;
      strengthened_coefs = !strengthened;
    }
  in
  (stats, lb, ub, t, keep)

let analyze m =
  let stats, _, _, _, _ = run m in
  stats

let strengthen m =
  let stats, lb, ub, t, keep = run m in
  let name = Model.name m ^ "-presolved" in
  let m' =
    if stats.infeasible then
      Model.with_bounds m ~name ~lb:(Model.lower_bounds m)
        ~ub:(Model.upper_bounds m)
    else Model.with_bounds m ~name ~lb ~ub
  in
  if stats.infeasible then
    (* explicit contradiction: 0 <= -1 *)
    Model.add_le m'
      ~name:(fun f -> Format.pp_print_string f "infeasible")
      Linexpr.zero (-1)
  else
    for i = 0 to t.n_rows - 1 do
      if keep.(i) then begin
        let terms = ref [] in
        for p = t.row_start.(i + 1) - 1 downto t.row_start.(i) do
          terms := (t.row_coef.(p), t.row_var.(p)) :: !terms
        done;
        Model.add_le m' (Linexpr.of_list !terms) t.row_rhs.(i)
      end
    done;
  (m', stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "presolve: %s, %d fixed, %d tightened, %d rows dropped, %d coefficients \
     strengthened"
    (if s.infeasible then "INFEASIBLE" else "feasible")
    s.fixed_vars s.tightened_bounds s.dropped_rows s.strengthened_coefs
