type t = {
  netlist : Datapath.Netlist.t;
  k : int;
  session_of_module : int array;
  sr_of_module : int array;
  tpg_of_port : int array array;
}

let make netlist ~k ~session_of_module ~sr_of_module ~tpg_of_port =
  let p = netlist.Datapath.Netlist.problem in
  let n_mod = Dfg.Problem.n_modules p in
  let err = ref None in
  let fail fmt =
    Format.kasprintf (fun s -> if !err = None then err := Some s) fmt
  in
  if k < 1 then fail "k must be >= 1 (got %d)" k;
  if Array.length session_of_module <> n_mod then
    fail "session_of_module has wrong length";
  if Array.length sr_of_module <> n_mod then
    fail "sr_of_module has wrong length";
  if Array.length tpg_of_port <> n_mod then
    fail "tpg_of_port has wrong length";
  if !err = None then begin
    (* A k-test session may effectively use fewer than k sub-sessions (the
       paper's paulin k=4 design equals its k=3 design); empty sub-sessions
       are therefore legal. *)
    Array.iteri
      (fun m s ->
        if s < 0 || s >= k then fail "module %d in session %d outside [0,%d)" m s k)
      session_of_module;
    (* Eq. 6: SR must be wired from its module. *)
    Array.iteri
      (fun m r ->
        if not (List.mem (m, r) netlist.Datapath.Netlist.module_to_reg) then
          fail "module %d has no wire to its signature register R%d" m r)
      sr_of_module;
    (* Eq. 8: an SR serves at most one module per sub-test session. *)
    let sr_seen = Hashtbl.create 7 in
    Array.iteri
      (fun m r ->
        let key = (session_of_module.(m), r) in
        match Hashtbl.find_opt sr_seen key with
        | Some m' ->
            fail "register R%d is the SR of modules %d and %d in session %d" r
              m' m session_of_module.(m)
        | None -> Hashtbl.add sr_seen key m)
      sr_of_module;
    (* TPGs. *)
    Array.iteri
      (fun m tpgs ->
        let fu = p.Dfg.Problem.modules.(m) in
        if Array.length tpgs <> Dfg.Fu_kind.n_ports fu then
          fail "module %d has %d ports but %d TPG entries" m
            (Dfg.Fu_kind.n_ports fu) (Array.length tpgs)
        else begin
          let const_only =
            Datapath.Netlist.constant_only_ports netlist
          in
          Array.iteri
            (fun l r ->
              let is_const_only = List.mem (m, l) const_only in
              if r < 0 then begin
                if not is_const_only then
                  fail
                    "port %d of module %d has register sources but a \
                     dedicated TPG (extra path)"
                    l m
              end
              else begin
                if is_const_only then
                  fail
                    "port %d of module %d is constant-only yet claims \
                     register TPG R%d (no such wire)"
                    l m r;
                (* Eq. 9: wire must exist. *)
                if
                  not
                    (List.exists
                       (fun (r', m', l') -> r' = r && m' = m && l' = l)
                       netlist.Datapath.Netlist.reg_to_port)
                then fail "no wire R%d -> M%d.%d for the TPG assignment" r m l
              end)
            tpgs;
          (* Eq. 13: distinct TPGs on the two ports of one module. *)
          if
            Array.length tpgs = 2
            && tpgs.(0) >= 0
            && tpgs.(0) = tpgs.(1)
          then fail "module %d uses register R%d as TPG on both ports" m tpgs.(0)
        end)
      tpg_of_port
  end;
  match !err with
  | Some msg -> Error msg
  | None ->
      Ok { netlist; k; session_of_module; sr_of_module; tpg_of_port }

let make_exn netlist ~k ~session_of_module ~sr_of_module ~tpg_of_port =
  match make netlist ~k ~session_of_module ~sr_of_module ~tpg_of_port with
  | Ok t -> t
  | Error msg -> invalid_arg ("Bist.Plan.make_exn: " ^ msg)

(* Roles per (register, session). *)
let roles t =
  let n_regs = t.netlist.Datapath.Netlist.n_registers in
  let tpg_in = Array.make_matrix n_regs t.k false in
  let sr_in = Array.make_matrix n_regs t.k false in
  Array.iteri
    (fun m tpgs ->
      let s = t.session_of_module.(m) in
      Array.iter (fun r -> if r >= 0 then tpg_in.(r).(s) <- true) tpgs)
    t.tpg_of_port;
  Array.iteri
    (fun m r -> sr_in.(r).(t.session_of_module.(m)) <- true)
    t.sr_of_module;
  (tpg_in, sr_in)

let reg_kinds t =
  let tpg_in, sr_in = roles t in
  Array.init t.netlist.Datapath.Netlist.n_registers (fun r ->
      let any a = Array.exists Fun.id a in
      let both_same_session =
        let res = ref false in
        for s = 0 to t.k - 1 do
          if tpg_in.(r).(s) && sr_in.(r).(s) then res := true
        done;
        !res
      in
      let is_tpg = any tpg_in.(r) and is_sr = any sr_in.(r) in
      if both_same_session then Datapath.Area.Cbilbo
      else if is_tpg && is_sr then Datapath.Area.Bilbo
      else if is_tpg then Datapath.Area.Tpg
      else if is_sr then Datapath.Area.Sr
      else Datapath.Area.Plain)

let reg_kind t r = (reg_kinds t).(r)

let kind_counts t =
  Array.fold_left
    (fun (tp, sr, bi, cb) kind ->
      match kind with
      | Datapath.Area.Tpg -> (tp + 1, sr, bi, cb)
      | Datapath.Area.Sr -> (tp, sr + 1, bi, cb)
      | Datapath.Area.Bilbo -> (tp, sr, bi + 1, cb)
      | Datapath.Area.Cbilbo -> (tp, sr, bi, cb + 1)
      | Datapath.Area.Plain -> (tp, sr, bi, cb))
    (0, 0, 0, 0) (reg_kinds t)

let n_constant_tpgs t =
  (* one dedicated generator per constant-only port that appears on a tested
     module; ports sharing... each port needs its own (no sharing, Eq. 13
     spirit). *)
  Array.fold_left
    (fun acc tpgs ->
      acc + Array.fold_left (fun a r -> if r < 0 then a + 1 else a) 0 tpgs)
    0 t.tpg_of_port

let area_with ~const_port_cost t =
  let regs =
    Array.fold_left
      (fun acc kind -> acc + Datapath.Area.register kind)
      0 (reg_kinds t)
  in
  regs
  + Datapath.Netlist.mux_area t.netlist
  + (const_port_cost * n_constant_tpgs t)

let area t = area_with ~const_port_cost:Datapath.Area.constant_tpg t

let objective_cost t =
  area_with ~const_port_cost:Datapath.Area.constant_tpg_weight t

let overhead_pct t ~reference =
  100.0 *. float_of_int (area t - reference) /. float_of_int (max 1 reference)

let modules_in_session t s =
  List.filter
    (fun m -> t.session_of_module.(m) = s)
    (List.init (Array.length t.session_of_module) Fun.id)

let pp ppf t =
  let tp, sr, bi, cb = kind_counts t in
  Format.fprintf ppf "@[<v>BIST plan (k = %d): T=%d S=%d B=%d C=%d area=%d"
    t.k tp sr bi cb (area t);
  for s = 0 to t.k - 1 do
    Format.fprintf ppf "@,  session %d:" s;
    List.iter
      (fun m ->
        Format.fprintf ppf " M%d(SR=R%d; TPG=%s)" m t.sr_of_module.(m)
          (String.concat ","
             (Array.to_list
                (Array.map
                   (fun r -> if r < 0 then "const" else Printf.sprintf "R%d" r)
                   t.tpg_of_port.(m)))))
      (modules_in_session t s)
  done;
  let kinds = reg_kinds t in
  Format.fprintf ppf "@,  registers:";
  Array.iteri
    (fun r kind ->
      Format.fprintf ppf " R%d=%s" r (Datapath.Area.reg_kind_name kind))
    kinds;
  Format.fprintf ppf "@]"
