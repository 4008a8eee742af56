type result =
  | Optimal of { objective : float; primal : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type problem = {
  n_vars : int;
  lower : float array;
  upper : float array;
  objective : float array;
  rows : (Model.sense * (int * float) list * float) list;
}

type status = Basic | At_lower | At_upper

let eps_cost = 1e-7
let eps_pivot = 1e-9
let eps_feas = 1e-7

(* Flat unboxed storage.  Every float store the inner loops touch lives in
   a [Bigarray.Array1] of float64 (dense matrices row-major), and the
   sparse constraint columns in one CSC triplet (int offsets, int rows,
   float values).  All scratch is preallocated in the state, so a pivot,
   a ratio test, or a bound shift allocates nothing. *)
module A1 = Bigarray.Array1

type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let fa_make n : fa =
  let a = A1.create Bigarray.float64 Bigarray.c_layout (max n 1) in
  A1.fill a 0.0;
  a

let fa_of_array (src : float array) : fa =
  let n = Array.length src in
  let a = fa_make n in
  for i = 0 to n - 1 do
    A1.unsafe_set a i src.(i)
  done;
  a

let[@inline] fget (a : fa) i = A1.unsafe_get a i
let[@inline] fset (a : fa) i v = A1.unsafe_set a i v

(* Blit the first [n] entries (the buffers may be over-allocated). *)
let fa_blit (src : fa) (dst : fa) n =
  if n > 0 then A1.blit (A1.sub src 0 n) (A1.sub dst 0 n)

(* Internal mutable state of the simplex.

   Columns: structurals [0 .. n-1], one slack per row [n .. n+m-1],
   artificials appended as needed.  Ge rows are negated to Le beforehand, so
   slacks have bounds [0, +inf) (Le) or [0, 0] (Eq).  The basis inverse is
   kept dense (flat row-major, [binv.{i*m+k}]) and updated by elementary
   row operations; it is refactorized from scratch periodically to contain
   numerical drift. *)
type state = {
  m : int;
  ncols : int;
  lo : fa;  (* ncols *)
  up : fa;  (* ncols *)
  col_ptr : int array;  (* ncols+1: CSC column offsets *)
  col_row : int array;  (* nnz: row index per entry *)
  col_val : fa;  (* nnz: coefficient per entry *)
  rhs : fa;  (* m *)
  cost : fa;  (* ncols; contents mutated between phases *)
  status : status array;
  basis : int array;  (* row -> column *)
  binv : fa;  (* m*m, row-major *)
  fac : fa;  (* m*m refactorization scratch: working copy of B *)
  finv : fa;  (* m*m refactorization scratch: inverse under construction *)
  xb : fa;  (* values of basic variables by row *)
  work : fa;  (* scratch, length m (pivot column w = Binv A_j) *)
  ywork : fa;  (* scratch, length m (duals y, rhs residuals) *)
  iwork : int array;  (* scratch, length ncols (column -> basis row) *)
}

let[@inline] nonbasic_value st j =
  match st.status.(j) with
  | At_lower -> fget st.lo j
  | At_upper -> fget st.up j
  | Basic -> assert false

(* Build a flat state from per-column sparse entries.  The basis inverse
   starts as the identity; callers refactorize or fill it themselves. *)
let make_state ~m ~ncols ~lo ~up ~cols ~rhs ~cost ~status ~basis =
  let nnz = Array.fold_left (fun acc c -> acc + Array.length c) 0 cols in
  let col_ptr = Array.make (ncols + 1) 0 in
  let col_row = Array.make (max nnz 1) 0 in
  let col_val = fa_make nnz in
  let k = ref 0 in
  for j = 0 to ncols - 1 do
    col_ptr.(j) <- !k;
    Array.iter
      (fun (i, a) ->
        col_row.(!k) <- i;
        fset col_val !k a;
        incr k)
      cols.(j)
  done;
  col_ptr.(ncols) <- !k;
  let binv = fa_make (m * m) in
  for i = 0 to m - 1 do
    fset binv ((i * m) + i) 1.0
  done;
  {
    m;
    ncols;
    lo = fa_of_array lo;
    up = fa_of_array up;
    col_ptr;
    col_row;
    col_val;
    rhs = fa_of_array rhs;
    cost = fa_of_array cost;
    status;
    basis;
    binv;
    fac = fa_make (m * m);
    finv = fa_make (m * m);
    xb = fa_make m;
    work = fa_make m;
    ywork = fa_make m;
    iwork = Array.make (max ncols 1) (-1);
  }

(* x_B = Binv (b - sum over nonbasic columns of A_j x_j). *)
let recompute_xb st =
  let m = st.m in
  let r = st.ywork in
  fa_blit st.rhs r m;
  for j = 0 to st.ncols - 1 do
    if st.status.(j) <> Basic then begin
      let xj = nonbasic_value st j in
      if xj <> 0.0 then
        for t = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
          let i = Array.unsafe_get st.col_row t in
          fset r i (fget r i -. (fget st.col_val t *. xj))
        done
    end
  done;
  for i = 0 to m - 1 do
    let base = i * m in
    let acc = ref 0.0 in
    for k = 0 to m - 1 do
      acc := !acc +. (fget st.binv (base + k) *. fget r k)
    done;
    fset st.xb i !acc
  done

(* Gauss-Jordan inversion of the current basis matrix with partial
   pivoting, built in the [fac]/[finv] scratch pair and committed to
   [binv] only on success, so a singular basis leaves the state intact.
   Returns false when the basis is numerically singular. *)
let refactorize st =
  let m = st.m in
  let a = st.fac and inv = st.finv in
  A1.fill a 0.0;
  A1.fill inv 0.0;
  for i = 0 to m - 1 do
    let j = st.basis.(i) in
    for t = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
      fset a ((Array.unsafe_get st.col_row t * m) + i) (fget st.col_val t)
    done;
    fset inv ((i * m) + i) 1.0
  done;
  let ok = ref true in
  (try
     for col = 0 to m - 1 do
       (* partial pivot *)
       let piv = ref col in
       for i = col + 1 to m - 1 do
         if Float.abs (fget a ((i * m) + col)) > Float.abs (fget a ((!piv * m) + col))
         then piv := i
       done;
       if Float.abs (fget a ((!piv * m) + col)) < eps_pivot then begin
         ok := false;
         raise Exit
       end;
       let bc = col * m in
       if !piv <> col then begin
         let bp = !piv * m in
         for k = 0 to m - 1 do
           let t1 = fget a (bc + k) in
           fset a (bc + k) (fget a (bp + k));
           fset a (bp + k) t1;
           let t2 = fget inv (bc + k) in
           fset inv (bc + k) (fget inv (bp + k));
           fset inv (bp + k) t2
         done
       end;
       let d = fget a (bc + col) in
       for k = 0 to m - 1 do
         fset a (bc + k) (fget a (bc + k) /. d);
         fset inv (bc + k) (fget inv (bc + k) /. d)
       done;
       for i = 0 to m - 1 do
         if i <> col then begin
           let bi = i * m in
           let f = fget a (bi + col) in
           if f <> 0.0 then
             for k = 0 to m - 1 do
               fset a (bi + k) (fget a (bi + k) -. (f *. fget a (bc + k)));
               fset inv (bi + k) (fget inv (bi + k) -. (f *. fget inv (bc + k)))
             done
         end
       done
     done
   with Exit -> ());
  if !ok then begin
    fa_blit inv st.binv (m * m);
    recompute_xb st
  end;
  !ok

(* One simplex phase on the current cost vector.  Returns [`Optimal],
   [`Unbounded] or [`Iters]. *)
let run_phase st ~max_iters =
  let m = st.m in
  let y = st.ywork in
  let iters = ref 0 in
  let since_progress = ref 0 in
  let last_obj = ref infinity in
  let rec loop () =
    if !iters >= max_iters then `Iters
    else begin
      incr iters;
      if !iters mod 128 = 0 then ignore (refactorize st);
      (* y = c_B Binv, accumulated row-wise over the basic costs *)
      A1.fill (A1.sub y 0 m) 0.0;
      for i = 0 to m - 1 do
        let cb = fget st.cost (Array.unsafe_get st.basis i) in
        if cb <> 0.0 then begin
          let base = i * m in
          for k = 0 to m - 1 do
            fset y k (fget y k +. (cb *. fget st.binv (base + k)))
          done
        end
      done;
      (* Pricing: Dantzig normally, Bland when stalled. *)
      let bland = !since_progress > 2 * (m + 10) in
      let enter = ref (-1) and best = ref eps_cost and enter_dir = ref 1.0 in
      (try
         for j = 0 to st.ncols - 1 do
           match st.status.(j) with
           | Basic -> ()
           | At_lower | At_upper ->
               if fget st.up j > fget st.lo j then begin
                 let d = ref (fget st.cost j) in
                 for t = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
                   d :=
                     !d
                     -. (fget y (Array.unsafe_get st.col_row t)
                        *. fget st.col_val t)
                 done;
                 let d = !d in
                 let attractive, dir =
                   match st.status.(j) with
                   | At_lower -> (d < -.eps_cost, 1.0)
                   | At_upper -> (d > eps_cost, -1.0)
                   | Basic -> (false, 0.0)
                 in
                 if attractive then
                   if bland then begin
                     enter := j;
                     enter_dir := dir;
                     raise Exit
                   end
                   else if Float.abs d > !best then begin
                     best := Float.abs d;
                     enter := j;
                     enter_dir := dir
                   end
               end
         done
       with Exit -> ());
      if !enter < 0 then `Optimal
      else begin
        let j = !enter and dir = !enter_dir in
        (* w = Binv A_j, accumulated row-wise over the sparse column *)
        let w = st.work in
        let p0 = st.col_ptr.(j) and p1 = st.col_ptr.(j + 1) in
        for i = 0 to m - 1 do
          let base = i * m in
          let acc = ref 0.0 in
          for t = p0 to p1 - 1 do
            acc :=
              !acc
              +. (fget st.binv (base + Array.unsafe_get st.col_row t)
                 *. fget st.col_val t)
          done;
          fset w i !acc
        done;
        (* ratio test *)
        let t_flip =
          if fget st.up j = infinity then infinity
          else fget st.up j -. fget st.lo j
        in
        let t_min = ref t_flip and leave = ref (-1) and leave_to = ref At_lower in
        for i = 0 to m - 1 do
          let delta = dir *. fget w i in
          let b = Array.unsafe_get st.basis i in
          if delta > eps_pivot then begin
            let t = (fget st.xb i -. fget st.lo b) /. delta in
            let t = if t < 0.0 then 0.0 else t in
            if
              t < !t_min -. 1e-12
              || (t <= !t_min +. 1e-12 && !leave >= 0
                  && Float.abs delta > Float.abs (dir *. fget w !leave))
            then begin
              t_min := t;
              leave := i;
              leave_to := At_lower
            end
          end
          else if delta < -.eps_pivot && fget st.up b < infinity then begin
            let t = (fget st.xb i -. fget st.up b) /. delta in
            let t = if t < 0.0 then 0.0 else t in
            if
              t < !t_min -. 1e-12
              || (t <= !t_min +. 1e-12 && !leave >= 0
                  && Float.abs delta > Float.abs (dir *. fget w !leave))
            then begin
              t_min := t;
              leave := i;
              leave_to := At_upper
            end
          end
        done;
        if !t_min = infinity then `Unbounded
        else begin
          let t = !t_min in
          if !leave < 0 then begin
            (* bound flip *)
            for i = 0 to m - 1 do
              fset st.xb i (fget st.xb i -. (t *. dir *. fget w i))
            done;
            st.status.(j) <-
              (match st.status.(j) with
              | At_lower -> At_upper
              | At_upper -> At_lower
              | Basic -> assert false);
            since_progress := 0;
            loop ()
          end
          else begin
            let r = !leave in
            let entering_value =
              match st.status.(j) with
              | At_lower -> fget st.lo j +. t
              | At_upper -> fget st.up j -. t
              | Basic -> assert false
            in
            for i = 0 to m - 1 do
              if i <> r then fset st.xb i (fget st.xb i -. (t *. dir *. fget w i))
            done;
            let leaving = st.basis.(r) in
            st.status.(leaving) <- !leave_to;
            st.status.(j) <- Basic;
            st.basis.(r) <- j;
            fset st.xb r entering_value;
            (* Binv update: row r scaled by 1/w_r, others eliminated. *)
            let wr = fget w r in
            let br = r * m in
            for k = 0 to m - 1 do
              fset st.binv (br + k) (fget st.binv (br + k) /. wr)
            done;
            for i = 0 to m - 1 do
              let f = fget w i in
              if i <> r && Float.abs f > 0.0 then begin
                let bi = i * m in
                for k = 0 to m - 1 do
                  fset st.binv (bi + k)
                    (fget st.binv (bi + k) -. (f *. fget st.binv (br + k)))
                done
              end
            done;
            (* progress tracking on the phase objective *)
            let obj = ref 0.0 in
            for i = 0 to m - 1 do
              let c = fget st.cost (Array.unsafe_get st.basis i) in
              if c <> 0.0 then obj := !obj +. (c *. fget st.xb i)
            done;
            if !obj < !last_obj -. 1e-9 then begin
              last_obj := !obj;
              since_progress := 0
            end
            else incr since_progress;
            loop ()
          end
        end
      end
    end
  in
  loop ()

let solve ?(max_iters = 20_000) (p : problem) =
  let n = p.n_vars in
  (* Normalize rows: Ge becomes negated Le; collect (terms, rhs, is_eq). *)
  let rows =
    List.map
      (fun (sense, terms, rhs) ->
        match sense with
        | Model.Le -> (terms, rhs, false)
        | Model.Eq -> (terms, rhs, true)
        | Model.Ge ->
            (List.map (fun (v, c) -> (v, -.c)) terms, -.rhs, false))
      p.rows
  in
  let m = List.length rows in
  if m = 0 then begin
    (* Only bounds: each variable sits at the bound favoured by its cost. *)
    let primal =
      Array.init n (fun j ->
          if p.objective.(j) >= 0.0 then p.lower.(j) else p.upper.(j))
    in
    let unb = ref false and obj = ref 0.0 in
    Array.iteri
      (fun j x ->
        if Float.abs x = infinity && p.objective.(j) <> 0.0 then unb := true
        else obj := !obj +. (p.objective.(j) *. x))
      primal;
    if !unb then Unbounded else Optimal { objective = !obj; primal }
  end
  else begin
    let ncols_base = n + m in
    (* residuals with structurals at lower bound determine artificials *)
    let rhs = Array.make m 0.0 in
    let is_eq = Array.make m false in
    List.iteri
      (fun i (_, r, e) ->
        rhs.(i) <- r;
        is_eq.(i) <- e)
      rows;
    let resid = Array.make m 0.0 in
    List.iteri
      (fun i (terms, r, _) ->
        let acc = ref r in
        List.iter (fun (v, c) -> acc := !acc -. (c *. p.lower.(v))) terms;
        resid.(i) <- !acc)
      rows;
    let needs_art = Array.make m false in
    for i = 0 to m - 1 do
      if is_eq.(i) then needs_art.(i) <- Float.abs resid.(i) > eps_feas
      else needs_art.(i) <- resid.(i) < -.eps_feas
    done;
    let n_art = Array.fold_left (fun a b -> if b then a + 1 else a) 0 needs_art in
    let ncols = ncols_base + n_art in
    let lo = Array.make ncols 0.0 and up = Array.make ncols infinity in
    Array.blit p.lower 0 lo 0 n;
    Array.blit p.upper 0 up 0 n;
    for i = 0 to m - 1 do
      (* slack bounds *)
      if is_eq.(i) then up.(n + i) <- 0.0
    done;
    let cols = Array.make ncols [||] in
    let by_col = Array.make n [] in
    List.iteri
      (fun i (terms, _, _) ->
        List.iter (fun (v, c) -> by_col.(v) <- (i, c) :: by_col.(v)) terms)
      rows;
    for j = 0 to n - 1 do
      cols.(j) <- Array.of_list (List.rev by_col.(j))
    done;
    for i = 0 to m - 1 do
      cols.(n + i) <- [| (i, 1.0) |]
    done;
    let status = Array.make ncols At_lower in
    let basis = Array.make m (-1) in
    let next_art = ref ncols_base in
    for i = 0 to m - 1 do
      if needs_art.(i) then begin
        let j = !next_art in
        incr next_art;
        cols.(j) <- [| (i, if resid.(i) >= 0.0 then 1.0 else -1.0) |];
        basis.(i) <- j;
        status.(j) <- Basic
      end
      else begin
        basis.(i) <- n + i;
        status.(n + i) <- Basic
      end
    done;
    let st =
      make_state ~m ~ncols ~lo ~up ~cols ~rhs
        ~cost:(Array.make ncols 0.0) ~status ~basis
    in
    ignore (refactorize st);
    (* Phase I *)
    let phase2_only = n_art = 0 in
    let run_phase2 () =
      A1.fill st.cost 0.0;
      for j = 0 to n - 1 do
        fset st.cost j p.objective.(j)
      done;
      (* artificials pinned to zero *)
      for j = ncols_base to ncols - 1 do
        fset st.up j 0.0
      done;
      match run_phase st ~max_iters with
      | `Optimal ->
          ignore (refactorize st);
          let primal = Array.make n 0.0 in
          for j = 0 to n - 1 do
            match st.status.(j) with
            | At_lower -> primal.(j) <- fget st.lo j
            | At_upper -> primal.(j) <- fget st.up j
            | Basic -> ()
          done;
          for i = 0 to m - 1 do
            if st.basis.(i) < n then primal.(st.basis.(i)) <- fget st.xb i
          done;
          let obj = ref 0.0 in
          for j = 0 to n - 1 do
            obj := !obj +. (p.objective.(j) *. primal.(j))
          done;
          Optimal { objective = !obj; primal }
      | `Unbounded -> Unbounded
      | `Iters -> Iteration_limit
    in
    if phase2_only then run_phase2 ()
    else begin
      A1.fill st.cost 0.0;
      for j = ncols_base to ncols - 1 do
        fset st.cost j 1.0
      done;
      match run_phase st ~max_iters with
      | `Unbounded -> Infeasible (* cannot happen: phase I is bounded below *)
      | `Iters -> Iteration_limit
      | `Optimal ->
          let phase1_obj = ref 0.0 in
          for i = 0 to m - 1 do
            if st.basis.(i) >= ncols_base then
              phase1_obj := !phase1_obj +. fget st.xb i
          done;
          if !phase1_obj > 1e-6 then Infeasible else run_phase2 ()
    end
  end

let problem_of_model ?lower ?upper (model : Model.t) =
  let n = Model.n_vars model in
  let lo = Array.make n 0.0 and up = Array.make n 0.0 in
  for v = 0 to n - 1 do
    let l, u = Model.bounds model v in
    lo.(v) <- float_of_int (match lower with Some a -> a.(v) | None -> l);
    up.(v) <- float_of_int (match upper with Some a -> a.(v) | None -> u)
  done;
  let objective = Array.make n 0.0 in
  Linexpr.iter
    (fun ~coef ~var -> objective.(var) <- float_of_int coef)
    (Model.objective model);
  let rows =
    Array.to_list (Model.constraints model)
    |> List.map (fun (c : Model.constr) ->
           ( c.Model.sense,
             List.map
               (fun (coef, v) -> (v, float_of_int coef))
               (Linexpr.terms c.Model.expr),
             float_of_int c.Model.rhs ))
  in
  { n_vars = n; lower = lo; upper = up; objective; rows }

let relax ?lower ?upper (model : Model.t) =
  solve (problem_of_model ?lower ?upper model)

(* --- persistent instances: warm-started dual simplex -------------------- *)

(* A persistent instance holds the constraint matrix with one slack per
   row (no artificials: with every structural bound finite, the all-slack
   basis with nonbasic structurals parked at their cost-favoured bound is
   always dual feasible, so the dual simplex can start — and restart after
   any bound change — without a phase I).  Reduced costs do not depend on
   variable bounds, so the basis left behind by the previous solve stays
   dual feasible when branch-and-bound tightens bounds; [resolve] then
   re-optimizes in a handful of dual pivots.  Leaving rows are priced by
   devex reference weights [dw]. *)
type instance = {
  inst_n : int;  (* structural variables *)
  mutable st : state;
  mutable pivots : int;  (* dual pivots since the last refactorization *)
  mutable total_pivots : int;  (* dual pivots over the instance's lifetime *)
  mutable total_iters : int;  (* dual simplex iterations (lifetime) *)
  mutable total_refactors : int;  (* basis refactorizations (lifetime) *)
  mutable d : fa;  (* reduced costs by column *)
  mutable alpha : fa;  (* pivot-row scratch by column *)
  mutable dw : fa;  (* devex reference weights by row *)
  (* Stall detection for the devex -> Bland switch.  Kept on the
     instance so the policy is explicit: [resolve] resets both fields on
     entry, so a stalled parent solve can never pin a child's warm
     re-solve to Bland. *)
  mutable stall : int;
  mutable stall_obj : float;
}

let eps_dual = 1e-6
let refactor_period = 512

let devex_reset t = A1.fill t.dw 1.0

(* All refactorizations on behalf of an instance go through here so the
   telemetry counter stays exact; a fresh factorization also invalidates
   the devex reference frame. *)
let inst_refactorize t =
  t.total_refactors <- t.total_refactors + 1;
  let ok = refactorize t.st in
  if ok then devex_reset t;
  ok

let instance_of_problem (p : problem) =
  let n = p.n_vars in
  let finite = ref true in
  for j = 0 to n - 1 do
    if Float.abs p.lower.(j) = infinity || Float.abs p.upper.(j) = infinity
    then finite := false
  done;
  if not !finite then None
  else begin
    let rows =
      List.map
        (fun (sense, terms, rhs) ->
          match sense with
          | Model.Le -> (terms, rhs, false)
          | Model.Eq -> (terms, rhs, true)
          | Model.Ge -> (List.map (fun (v, c) -> (v, -.c)) terms, -.rhs, false))
        p.rows
    in
    let m = List.length rows in
    let ncols = n + m in
    let lo = Array.make ncols 0.0 and up = Array.make ncols infinity in
    Array.blit p.lower 0 lo 0 n;
    Array.blit p.upper 0 up 0 n;
    let rhs = Array.make m 0.0 in
    let cols = Array.make ncols [||] in
    let by_col = Array.make (max n 1) [] in
    List.iteri
      (fun i (terms, r, is_eq) ->
        rhs.(i) <- r;
        if is_eq then up.(n + i) <- 0.0;
        List.iter (fun (v, c) -> by_col.(v) <- (i, c) :: by_col.(v)) terms)
      rows;
    for j = 0 to n - 1 do
      cols.(j) <- Array.of_list (List.rev by_col.(j))
    done;
    for i = 0 to m - 1 do
      cols.(n + i) <- [| (i, 1.0) |]
    done;
    let cost = Array.make ncols 0.0 in
    Array.blit p.objective 0 cost 0 n;
    let status = Array.make ncols At_lower in
    for j = 0 to n - 1 do
      if cost.(j) < 0.0 then status.(j) <- At_upper
    done;
    let basis = Array.init m (fun i -> n + i) in
    for i = 0 to m - 1 do
      status.(n + i) <- Basic
    done;
    let st = make_state ~m ~ncols ~lo ~up ~cols ~rhs ~cost ~status ~basis in
    recompute_xb st;
    (* All-slack basis: y = 0, so the reduced costs are the costs
       themselves; [d] is maintained incrementally from here on. *)
    let dw = fa_make m in
    A1.fill dw 1.0;
    Some
      {
        inst_n = n;
        st;
        pivots = 0;
        total_pivots = 0;
        total_iters = 0;
        total_refactors = 0;
        d = fa_of_array cost;
        alpha = fa_make ncols;
        dw;
        stall = 0;
        stall_obj = neg_infinity;
      }
  end

let instance_of_model ?lower ?upper model =
  instance_of_problem (problem_of_model ?lower ?upper model)

let n_rows t = t.st.m
let pivots t = t.total_pivots
let iters t = t.total_iters
let refactors t = t.total_refactors

(* Bound changes never touch the basis or the reduced costs; only the
   resting value of a nonbasic column moves, which shifts the basic
   solution by -delta * Binv A_v — O(m * nnz_v), so a warm [resolve] pays
   nothing for the bounds that did not change. *)
let set_bounds t v ~lo ~up =
  let st = t.st in
  if fget st.lo v <> lo || fget st.up v <> up then begin
    match st.status.(v) with
    | Basic ->
        fset st.lo v lo;
        fset st.up v up
    | At_lower | At_upper ->
        let old_val = nonbasic_value st v in
        fset st.lo v lo;
        fset st.up v up;
        let delta = nonbasic_value st v -. old_val in
        if delta <> 0.0 then begin
          let m = st.m in
          let p0 = st.col_ptr.(v) and p1 = st.col_ptr.(v + 1) in
          for k = 0 to m - 1 do
            let base = k * m in
            let acc = ref 0.0 in
            for t = p0 to p1 - 1 do
              acc :=
                !acc
                +. (fget st.binv (base + Array.unsafe_get st.col_row t)
                   *. fget st.col_val t)
            done;
            if !acc <> 0.0 then fset st.xb k (fget st.xb k -. (delta *. !acc))
          done
        end
  end

(* Reduced costs of every column from scratch: d = c - c_B Binv A. *)
let compute_duals t =
  let st = t.st in
  let m = st.m in
  let y = st.ywork in
  A1.fill (A1.sub y 0 m) 0.0;
  for i = 0 to m - 1 do
    let cb = fget st.cost (Array.unsafe_get st.basis i) in
    if cb <> 0.0 then begin
      let base = i * m in
      for k = 0 to m - 1 do
        fset y k (fget y k +. (cb *. fget st.binv (base + k)))
      done
    end
  done;
  for j = 0 to st.ncols - 1 do
    if st.status.(j) = Basic then fset t.d j 0.0
    else begin
      let acc = ref (fget st.cost j) in
      for tt = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
        acc :=
          !acc
          -. (fget y (Array.unsafe_get st.col_row tt) *. fget st.col_val tt)
      done;
      fset t.d j !acc
    end
  done

(* Flip mis-signed nonbasics to their other (finite) bound.  Bound changes
   never break dual feasibility, so this only fires after numerical drift
   or a basis restore; returns false when a column with an infinite
   opposite bound blocks it.  Sets [flipped] when any status moved (the
   caller must then recompute x_B). *)
let repair_dual_feasibility ?flipped t =
  let st = t.st in
  let ok = ref true in
  let flip j status =
    st.status.(j) <- status;
    Option.iter (fun r -> r := true) flipped
  in
  for j = 0 to st.ncols - 1 do
    if fget st.lo j < fget st.up j then
      match st.status.(j) with
      | At_lower when fget t.d j < -.eps_dual ->
          if fget st.up j < infinity then flip j At_upper else ok := false
      | At_upper when fget t.d j > eps_dual ->
          if fget st.lo j > neg_infinity then flip j At_lower else ok := false
      | _ -> ()
  done;
  !ok

let dual_objective t =
  let st = t.st in
  let z = ref 0.0 in
  for i = 0 to st.m - 1 do
    let c = fget st.cost (Array.unsafe_get st.basis i) in
    if c <> 0.0 then z := !z +. (c *. fget st.xb i)
  done;
  for j = 0 to st.ncols - 1 do
    if st.status.(j) <> Basic && fget st.cost j <> 0.0 then
      z := !z +. (fget st.cost j *. nonbasic_value st j)
  done;
  !z

(* Residual audit against the original matrix: catches basis-inverse drift
   that the in-basis bookkeeping cannot see.  O(nnz), allocation-free
   ([ywork] holds the residual, [iwork] the column -> row map; stale
   [iwork] entries are never read because only currently-basic columns are
   looked up). *)
let primal_residual_ok t =
  let st = t.st in
  let m = st.m in
  let r = st.ywork in
  fa_blit st.rhs r m;
  for i = 0 to m - 1 do
    st.iwork.(st.basis.(i)) <- i
  done;
  for j = 0 to st.ncols - 1 do
    let x =
      if st.status.(j) = Basic then fget st.xb st.iwork.(j)
      else nonbasic_value st j
    in
    if x <> 0.0 then
      for tt = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
        let i = Array.unsafe_get st.col_row tt in
        fset r i (fget r i -. (fget st.col_val tt *. x))
      done
  done;
  let ok = ref true in
  for i = 0 to m - 1 do
    if Float.abs (fget r i) > 1e-5 *. (1.0 +. Float.abs (fget st.rhs i)) then
      ok := false
  done;
  !ok

let extract_optimal t =
  let st = t.st in
  let primal = Array.make t.inst_n 0.0 in
  for j = 0 to t.inst_n - 1 do
    match st.status.(j) with
    | At_lower -> primal.(j) <- fget st.lo j
    | At_upper -> primal.(j) <- fget st.up j
    | Basic -> ()
  done;
  for i = 0 to st.m - 1 do
    if st.basis.(i) < t.inst_n then primal.(st.basis.(i)) <- fget st.xb i
  done;
  let obj = ref 0.0 in
  for j = 0 to t.inst_n - 1 do
    if fget st.cost j <> 0.0 then obj := !obj +. (fget st.cost j *. primal.(j))
  done;
  Optimal { objective = !obj; primal }

(* Bounded-variable dual simplex from the current (dual-feasible) basis.
   Leaving: devex reference-weight pricing (largest viol^2 / weight),
   smallest row under the Bland anti-cycling fallback — entering: shortest
   dual ratio |d_j / alpha_j| among sign-eligible nonbasics, tie-broken by
   pivot magnitude (Bland: smallest column index). *)
let resolve ?(max_iters = 256) t =
  let st = t.st in
  let m = st.m in
  (* [d] and [xb] are maintained incrementally (across pivots by the loop,
     across bound changes by [set_bounds]), so a warm entry costs one
     O(ncols) dual-feasibility scan, not an O(m^2) rebuild. *)
  t.stall <- 0;
  t.stall_obj <- neg_infinity;
  let flipped = ref false in
  let dual_ok =
    repair_dual_feasibility ~flipped t
    || (inst_refactorize t
        &&
        (compute_duals t;
         flipped := true;
         repair_dual_feasibility t))
  in
  if not dual_ok then Iteration_limit
  else begin
    if !flipped then recompute_xb st;
    let iters = ref 0 in
    let audited = ref false in
    let rec loop () =
      if !iters >= max_iters then Iteration_limit
      else begin
        incr iters;
        t.total_iters <- t.total_iters + 1;
        let bland = t.stall > 2 * (m + 10) in
        (* leaving row *)
        let r = ref (-1) and below = ref true in
        (try
           let best = ref 0.0 in
           for i = 0 to m - 1 do
             let b = Array.unsafe_get st.basis i in
             let xbi = fget st.xb i in
             let v1 = fget st.lo b -. xbi in
             let v2 = xbi -. fget st.up b in
             let viol, bel = if v1 >= v2 then (v1, true) else (v2, false) in
             if viol > eps_feas then
               if bland then begin
                 r := i;
                 below := bel;
                 raise Exit
               end
               else begin
                 let score = viol *. viol /. fget t.dw i in
                 if score > !best then begin
                   best := score;
                   r := i;
                   below := bel
                 end
               end
           done
         with Exit -> ());
        if !r < 0 then
          (* primal feasible: optimal, after a one-shot drift audit *)
          if !audited || primal_residual_ok t then extract_optimal t
          else begin
            audited := true;
            if inst_refactorize t then begin
              compute_duals t;
              if repair_dual_feasibility t then begin
                recompute_xb st;
                loop ()
              end
              else Iteration_limit
            end
            else Iteration_limit
          end
        else begin
          let r = !r in
          let sign = if !below then 1.0 else -1.0 in
          let base_r = r * m in
          for j = 0 to st.ncols - 1 do
            if st.status.(j) = Basic then fset t.alpha j 0.0
            else begin
              let acc = ref 0.0 in
              for tt = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
                acc :=
                  !acc
                  +. (fget st.binv (base_r + Array.unsafe_get st.col_row tt)
                     *. fget st.col_val tt)
              done;
              fset t.alpha j !acc
            end
          done;
          let eligible j =
            st.status.(j) <> Basic
            && fget st.lo j < fget st.up j
            &&
            let a = sign *. fget t.alpha j in
            match st.status.(j) with
            | At_lower -> a < -.eps_pivot
            | At_upper -> a > eps_pivot
            | Basic -> false
          in
          let minr = ref infinity in
          for j = 0 to st.ncols - 1 do
            if eligible j then begin
              let ratio = Float.abs (fget t.d j) /. Float.abs (fget t.alpha j) in
              if ratio < !minr then minr := ratio
            end
          done;
          if !minr = infinity then Infeasible (* dual unbounded *)
          else begin
            let enter = ref (-1) and ba = ref 0.0 in
            (try
               for j = 0 to st.ncols - 1 do
                 if eligible j then begin
                   let ratio =
                     Float.abs (fget t.d j) /. Float.abs (fget t.alpha j)
                   in
                   if ratio <= !minr +. 1e-9 then
                     if bland then begin
                       enter := j;
                       raise Exit
                     end
                     else if Float.abs (fget t.alpha j) > Float.abs !ba then begin
                       enter := j;
                       ba := fget t.alpha j
                     end
                 end
               done
             with Exit -> ());
            let j = !enter in
            let arj = fget t.alpha j in
            let b = st.basis.(r) in
            let target = if !below then fget st.lo b else fget st.up b in
            let tj = (fget st.xb r -. target) /. arj in
            (* w = Binv A_j, accumulated row-wise over the sparse column *)
            let w = st.work in
            let p0 = st.col_ptr.(j) and p1 = st.col_ptr.(j + 1) in
            for i = 0 to m - 1 do
              let base = i * m in
              let acc = ref 0.0 in
              for tt = p0 to p1 - 1 do
                acc :=
                  !acc
                  +. (fget st.binv (base + Array.unsafe_get st.col_row tt)
                     *. fget st.col_val tt)
              done;
              fset w i !acc
            done;
            let entering_value = nonbasic_value st j +. tj in
            for i = 0 to m - 1 do
              if i <> r then fset st.xb i (fget st.xb i -. (tj *. fget w i))
            done;
            st.status.(b) <- (if !below then At_lower else At_upper);
            st.status.(j) <- Basic;
            st.basis.(r) <- j;
            fset st.xb r entering_value;
            let wr = fget w r in
            let br = r * m in
            for k = 0 to m - 1 do
              fset st.binv (br + k) (fget st.binv (br + k) /. wr)
            done;
            for i = 0 to m - 1 do
              let f = fget w i in
              if i <> r && Float.abs f > 0.0 then begin
                let bi = i * m in
                for k = 0 to m - 1 do
                  fset st.binv (bi + k)
                    (fget st.binv (bi + k) -. (f *. fget st.binv (br + k)))
                done
              end
            done;
            (* devex reference-weight update from the pivot column *)
            let wr2 = wr *. wr in
            if wr2 > 0.0 then begin
              let dr = fget t.dw r in
              for i = 0 to m - 1 do
                if i <> r then begin
                  let wi = fget w i in
                  if wi <> 0.0 then begin
                    let cand = wi *. wi *. dr /. wr2 in
                    if cand > fget t.dw i then fset t.dw i cand
                  end
                end
              done;
              let nr = dr /. wr2 in
              fset t.dw r (if nr > 1.0 then nr else 1.0)
            end;
            (* incremental reduced costs: d_k -= theta alpha_k *)
            let theta = fget t.d j /. arj in
            if theta <> 0.0 then
              for k = 0 to st.ncols - 1 do
                if st.status.(k) <> Basic && fget t.alpha k <> 0.0 then
                  fset t.d k (fget t.d k -. (theta *. fget t.alpha k))
              done;
            fset t.d j 0.0;
            fset t.d b (-.theta);
            t.pivots <- t.pivots + 1;
            t.total_pivots <- t.total_pivots + 1;
            (* periodic refresh of the incrementally-updated state; any
               drift-induced status flip invalidates x_B *)
            if t.pivots mod refactor_period = 0 || !iters mod 64 = 0 then begin
              if t.pivots mod refactor_period = 0 && not (inst_refactorize t)
              then raise Exit;
              compute_duals t;
              let fl = ref false in
              ignore (repair_dual_feasibility ~flipped:fl t);
              if !fl then recompute_xb st;
              devex_reset t
            end;
            let z = dual_objective t in
            if z > t.stall_obj +. 1e-9 then begin
              t.stall_obj <- z;
              t.stall <- 0
            end
            else t.stall <- t.stall + 1;
            loop ()
          end
        end
      end
    in
    try loop () with Exit -> Iteration_limit
  end

(* Per-column sparse entries reconstructed from the CSC triplet — cold
   path, used only when a cut row forces a full state rebuild. *)
let cols_of_state st =
  Array.init st.ncols (fun j ->
      Array.init
        (st.col_ptr.(j + 1) - st.col_ptr.(j))
        (fun k ->
          let t = st.col_ptr.(j) + k in
          (st.col_row.(t), fget st.col_val t)))

let add_row t terms rhs =
  let st = t.st in
  let n = t.inst_n and m = st.m in
  let m' = m + 1 and ncols' = st.ncols + 1 in
  let coef = Array.make (max n 1) 0.0 in
  List.iter (fun (v, c) -> coef.(v) <- coef.(v) +. c) terms;
  let old_cols = cols_of_state st in
  let cols = Array.make ncols' [||] in
  for j = 0 to st.ncols - 1 do
    cols.(j) <-
      (if j < n && coef.(j) <> 0.0 then begin
         let c = old_cols.(j) in
         let c' = Array.make (Array.length c + 1) (m, coef.(j)) in
         Array.blit c 0 c' 0 (Array.length c);
         c'
       end
       else old_cols.(j))
  done;
  cols.(ncols' - 1) <- [| (m, 1.0) |];
  let arr_of fa_src len extra =
    Array.init (len + 1) (fun i -> if i < len then fget fa_src i else extra)
  in
  let lo = arr_of st.lo st.ncols 0.0 in
  let up = arr_of st.up st.ncols infinity in
  let cost = arr_of st.cost st.ncols 0.0 in
  let rhs_arr = arr_of st.rhs st.m rhs in
  let status = Array.make ncols' Basic in
  Array.blit st.status 0 status 0 st.ncols;
  let basis = Array.make m' (ncols' - 1) in
  Array.blit st.basis 0 basis 0 m;
  let st' =
    make_state ~m:m' ~ncols:ncols' ~lo ~up ~cols ~rhs:rhs_arr ~cost ~status
      ~basis
  in
  (* Binv of the bordered basis [[B 0] [a_B 1]]: old inverse extended with
     a zero column, plus a last row  -a_B Binv | 1. *)
  A1.fill st'.binv 0.0;
  for i = 0 to m - 1 do
    for k = 0 to m - 1 do
      fset st'.binv ((i * m') + k) (fget st.binv ((i * m) + k))
    done
  done;
  let lb = m * m' in
  fset st'.binv (lb + m) 1.0;
  for i = 0 to m - 1 do
    let b = st.basis.(i) in
    let a = if b < n then coef.(b) else 0.0 in
    if a <> 0.0 then
      for k = 0 to m - 1 do
        fset st'.binv (lb + k)
          (fget st'.binv (lb + k) -. (a *. fget st.binv ((i * m) + k)))
      done
  done;
  t.st <- st';
  (* the appended basic slack has reduced cost 0 and leaves y unchanged
     (its cost is 0), so the existing reduced costs stay valid *)
  let d' = fa_make ncols' in
  fa_blit t.d d' (ncols' - 1);
  t.d <- d';
  t.alpha <- fa_make ncols';
  t.dw <- fa_make m';
  A1.fill t.dw 1.0;
  recompute_xb t.st

(* Reads the incrementally-maintained reduced costs — O(n), no fresh
   O(m^2) dual computation.  Meaningful right after an [Optimal] resolve. *)
let nonbasic_reduced_costs t =
  let st = t.st in
  let acc = ref [] in
  for j = t.inst_n - 1 downto 0 do
    if fget st.lo j < fget st.up j then
      match st.status.(j) with
      | Basic -> ()
      | At_lower ->
          if fget t.d j > eps_dual then acc := (j, false, fget t.d j) :: !acc
      | At_upper ->
          if fget t.d j < -.eps_dual then acc := (j, true, fget t.d j) :: !acc
  done;
  !acc

(* Weak duality: for the prices behind the current reduced costs, the
   Lagrangian bound L(y) = y b + sum_j min(d_j lo_j, d_j up_j) lower-bounds
   the LP optimum at ANY basis — primal feasible or not.  With every
   nonbasic resting at its reduced-cost-favoured bound L(y) is exactly the
   basic solution's objective; a mis-signed nonbasic (post-drift) costs a
   |d| * width correction.  This turns an iteration-capped [resolve] into
   a usable bound instead of a wasted solve.  [None] when a mis-signed
   column has infinite width (the correction would be -inf). *)
let dual_bound t =
  let st = t.st in
  let corr = ref 0.0 in
  let usable = ref true in
  for j = 0 to st.ncols - 1 do
    match st.status.(j) with
    | Basic -> ()
    | At_lower ->
        if fget t.d j < 0.0 then begin
          let w = fget st.up j -. fget st.lo j in
          if w = infinity then usable := false
          else corr := !corr -. (fget t.d j *. w)
        end
    | At_upper ->
        if fget t.d j > 0.0 then begin
          let w = fget st.up j -. fget st.lo j in
          if w = infinity then usable := false
          else corr := !corr +. (fget t.d j *. w)
        end
  done;
  if !usable then Some (dual_objective t -. !corr) else None

type snapshot = {
  snap_status : status array;
  snap_basis : int array;
  snap_ncols : int;
}

let save t =
  {
    snap_status = Array.copy t.st.status;
    snap_basis = Array.copy t.st.basis;
    snap_ncols = t.st.ncols;
  }

let restore t snap =
  if snap.snap_ncols <> t.st.ncols then false
  else begin
    Array.blit snap.snap_status 0 t.st.status 0 t.st.ncols;
    Array.blit snap.snap_basis 0 t.st.basis 0 t.st.m;
    t.pivots <- 0;
    let ok = inst_refactorize t in
    if ok then compute_duals t;
    ok
  end
