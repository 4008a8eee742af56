type var = int
type sense = Le | Ge | Eq
type name = Format.formatter -> unit

type constr = {
  label : name option;
  expr : Linexpr.t;
  sense : sense;
  rhs : int;
}

type t = {
  mname : string;
  mutable vnames : name list;  (* reversed *)
  mutable lbs : int list;  (* reversed *)
  mutable ubs : int list;  (* reversed *)
  mutable count : int;
  mutable constrs : constr list;  (* reversed *)
  mutable n_constrs : int;
  mutable obj : Linexpr.t;
  (* Caches rebuilt on demand. *)
  mutable frozen : (name array * int array * int array) option;
}

let create ?(name = "model") () =
  {
    mname = name;
    vnames = [];
    lbs = [];
    ubs = [];
    count = 0;
    constrs = [];
    n_constrs = 0;
    obj = Linexpr.zero;
    frozen = None;
  }

let name m = m.mname

let var m ~lb ~ub pp =
  if lb > ub then
    invalid_arg
      (Format.asprintf "Model.int_var %t: lb %d > ub %d" pp lb ub);
  let v = m.count in
  m.vnames <- pp :: m.vnames;
  m.lbs <- lb :: m.lbs;
  m.ubs <- ub :: m.ubs;
  m.count <- v + 1;
  m.frozen <- None;
  v

let int_var m ~lb ~ub s = var m ~lb ~ub (fun f -> Format.pp_print_string f s)
let bool_var m s = int_var m ~lb:0 ~ub:1 s
let n_vars m = m.count

let freeze m =
  match m.frozen with
  | Some f -> f
  | None ->
      let f =
        ( Array.of_list (List.rev m.vnames),
          Array.of_list (List.rev m.lbs),
          Array.of_list (List.rev m.ubs) )
      in
      m.frozen <- Some f;
      f

let var_name m v =
  let names, _, _ = freeze m in
  Format.asprintf "%t" names.(v)

let bounds m v =
  let _, lbs, ubs = freeze m in
  (lbs.(v), ubs.(v))

let is_binary m v = bounds m v = (0, 1)

(* Whole-bound vectors as fresh arrays: callers (the solver's search
   state) mutate them as the branch-and-bound domain store. *)
let lower_bounds m =
  let _, lbs, _ = freeze m in
  Array.copy lbs

let upper_bounds m =
  let _, _, ubs = freeze m in
  Array.copy ubs

(* The variables keep their name sources: the new model shares the list
   and formats nothing. *)
let with_bounds m ~name ~lb ~ub =
  if Array.length lb <> m.count || Array.length ub <> m.count then
    invalid_arg "Model.with_bounds: bound vectors do not match the variables";
  {
    (create ~name ()) with
    vnames = m.vnames;
    lbs = Array.fold_left (fun acc b -> b :: acc) [] lb;
    ubs = Array.fold_left (fun acc b -> b :: acc) [] ub;
    count = m.count;
    obj = m.obj;
    frozen =
      Option.map
        (fun (names, _, _) -> (names, Array.copy lb, Array.copy ub))
        m.frozen;
  }

let add m ?name expr sense rhs =
  m.constrs <- { label = name; expr; sense; rhs } :: m.constrs;
  m.n_constrs <- m.n_constrs + 1

let add_le m ?name expr rhs = add m ?name expr Le rhs
let add_ge m ?name expr rhs = add m ?name expr Ge rhs
let add_eq m ?name expr rhs = add m ?name expr Eq rhs
let n_constraints m = m.n_constrs
let constraints m = Array.of_list (List.rev m.constrs)

let constr_name i c =
  match c.label with
  | Some pp -> Format.asprintf "%t" pp
  | None -> "c" ^ string_of_int i

let set_objective m e = m.obj <- e
let objective m = m.obj

let copy m =
  {
    mname = m.mname;
    vnames = m.vnames;
    lbs = m.lbs;
    ubs = m.ubs;
    count = m.count;
    constrs = m.constrs;
    n_constrs = m.n_constrs;
    obj = m.obj;
    frozen = m.frozen;
  }

let eval_expr e x =
  Linexpr.fold (fun ~coef ~var acc -> acc + (coef * x.(var))) e 0

let check m x =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  if Array.length x <> m.count then
    err "assignment has %d values for %d variables" (Array.length x) m.count
  else begin
    let _, lbs, ubs = freeze m in
    for v = 0 to m.count - 1 do
      if x.(v) < lbs.(v) || x.(v) > ubs.(v) then
        err "%s = %d outside [%d, %d]" (var_name m v) x.(v) lbs.(v) ubs.(v)
    done;
    (* newest row first, as the rows are stored *)
    List.iteri
      (fun j c ->
        let lhs = eval_expr c.expr x in
        let ok =
          match c.sense with
          | Le -> lhs <= c.rhs
          | Ge -> lhs >= c.rhs
          | Eq -> lhs = c.rhs
        in
        if not ok then
          err "%s violated: lhs = %d, rhs = %d"
            (constr_name (m.n_constrs - 1 - j) c)
            lhs c.rhs)
      m.constrs
  end;
  match !errs with [] -> Ok () | e -> Error (List.rev e)

let objective_value m x = eval_expr m.obj x

let stats m =
  let bin = ref 0 in
  for v = 0 to m.count - 1 do
    if is_binary m v then incr bin
  done;
  let nz =
    List.fold_left (fun acc c -> acc + Linexpr.n_terms c.expr) 0 m.constrs
  in
  Printf.sprintf "%s: %d vars (%d binary), %d constraints, %d non-zeros"
    m.mname m.count !bin m.n_constrs nz
