type t = {
  problem : Dfg.Problem.t;
  n_regs : int;
  k : int;
  model : Ilp.Model.t;
  x_vr : int array array;
  x_om : int array array;
  swap : int array;
  z : int array array array;
  z_out : int array array;
  cz : (int * int * int * int) list;
  tc : int array array;
  a : int array array;
  s_mrp : int array array array;
  t_rmlp : int array array array array;
  t_reg : int array;
  s_reg : int array;
  b_reg : int array;
  c_reg : int array;
  t_rp : int array array;
  s_rp : int array array;
  c_rp : int array array;
  mux_thresholds : (Ilp.Linexpr.t * (int * int) list) list;
  aux : (int * (int * int) list) list;
      (** support variables: var, and the (variable, required value) pairs
          under which it must be 1 in a canonical solution vector *)
  inp : int array;  (** external-input indicator per register; -1 if none *)
  base_area : int;
}

let lx = Ilp.Linexpr.of_list

(* A named binary variable. *)
let bin m fmt = Format.kasprintf (fun s -> Ilp.Model.bool_var m s) fmt

let fixed m value fmt =
  Format.kasprintf (fun s -> Ilp.Model.int_var m ~lb:value ~ub:value s) fmt

let n_ports (p : Dfg.Problem.t) m = Dfg.Fu_kind.n_ports p.Dfg.Problem.modules.(m)

(* Operations pre-assignable to identical modules for symmetry reduction:
   for each group of identical modules, find a step at which that group is
   saturated and pin its operations in order. *)
let module_symmetry_fixing (p : Dfg.Problem.t) =
  let g = p.Dfg.Problem.dfg in
  let groups = Hashtbl.create 7 in
  Array.iteri
    (fun m fu ->
      let key = fu.Dfg.Fu_kind.fu_name in
      Hashtbl.replace groups key
        (match Hashtbl.find_opt groups key with
        | Some ms -> ms @ [ m ]
        | None -> [ m ]))
    p.Dfg.Problem.modules;
  let fixing = ref [] in
  Hashtbl.iter
    (fun _key ms ->
      match ms with
      | [] | [ _ ] -> ()
      | _ ->
          let size = List.length ms in
          (* ops whose candidate set is exactly this group *)
          let of_step s =
            List.filter
              (fun o -> Dfg.Problem.candidates p o = ms)
              (Dfg.Graph.ops_at_step g s)
          in
          let rec find s =
            if s >= g.Dfg.Graph.n_steps then None
            else begin
              let ops = of_step s in
              if List.length ops = size then Some ops else find (s + 1)
            end
          in
          (match find 0 with
          | Some ops -> List.iteri (fun i o -> fixing := (o, List.nth ms i) :: !fixing) ops
          | None -> ()))
    groups;
  !fixing

let build_internal ?(symmetry = true) (p : Dfg.Problem.t) ~n_regs ~k =
  let g = p.Dfg.Problem.dfg in
  let lt = Dfg.Lifetime.compute g in
  let min_regs = Dfg.Lifetime.min_registers lt in
  if n_regs < min_regs then
    invalid_arg
      (Printf.sprintf "Encoding.build: %d registers < minimum %d" n_regs
         min_regs);
  let nv = Dfg.Graph.n_vars g and no = Dfg.Graph.n_ops g in
  let n_mod = Dfg.Problem.n_modules p in
  let m = Ilp.Model.create ~name:(Printf.sprintf "%s-k%d" g.Dfg.Graph.name k) () in

  (* ---- system register assignment --------------------------------- *)
  let clique = if symmetry then Dfg.Lifetime.max_clique lt else [] in
  let clique_slot = Hashtbl.create 7 in
  List.iteri (fun i v -> Hashtbl.replace clique_slot v i) clique;
  let x_vr =
    Array.init nv (fun v ->
        Array.init n_regs (fun r ->
            match Hashtbl.find_opt clique_slot v with
            | Some slot ->
                fixed m (if slot = r then 1 else 0) "x_v%d_r%d" v r
            | None -> bin m "x_v%d_r%d" v r))
  in
  for v = 0 to nv - 1 do
    Ilp.Model.add_eq m
      ~name:(Printf.sprintf "assign_v%d" v)
      (lx (List.init n_regs (fun r -> (1, x_vr.(v).(r)))))
      1
  done;
  List.iter
    (fun clique_vars ->
      for r = 0 to n_regs - 1 do
        Ilp.Model.add_le m
          (lx (List.map (fun v -> (1, x_vr.(v).(r))) clique_vars))
          1
      done)
    (Dfg.Lifetime.conflict_cliques lt);

  (* ---- module binding ---------------------------------------------- *)
  let mod_fix = if symmetry then module_symmetry_fixing p else [] in
  let x_om =
    Array.init no (fun o ->
        let cands = Dfg.Problem.candidates p o in
        Array.init n_mod (fun md ->
            if not (List.mem md cands) then -1
            else
              match List.assoc_opt o mod_fix with
              | Some md' -> fixed m (if md = md' then 1 else 0) "x_o%d_m%d" o md
              | None -> bin m "x_o%d_m%d" o md))
  in
  for o = 0 to no - 1 do
    Ilp.Model.add_eq m
      ~name:(Printf.sprintf "bind_o%d" o)
      (lx
         (List.filter_map
            (fun md -> if x_om.(o).(md) >= 0 then Some (1, x_om.(o).(md)) else None)
            (List.init n_mod Fun.id)))
      1
  done;
  for s = 0 to g.Dfg.Graph.n_steps - 1 do
    let ops = Dfg.Graph.ops_at_step g s in
    for md = 0 to n_mod - 1 do
      let terms =
        List.filter_map
          (fun o -> if x_om.(o).(md) >= 0 then Some (1, x_om.(o).(md)) else None)
          ops
      in
      if List.length terms > 1 then Ilp.Model.add_le m (lx terms) 1
    done
  done;

  (* ---- commutative port swaps -------------------------------------- *)
  let swap =
    Array.init no (fun o ->
        if Dfg.Op_kind.commutative (Dfg.Graph.operation g o).Dfg.Graph.kind
        then bin m "swap_o%d" o
        else -1)
  in

  (* ---- interconnections -------------------------------------------- *)
  let z =
    Array.init n_regs (fun r ->
        Array.init n_mod (fun md ->
            Array.init (n_ports p md) (fun l -> bin m "z_r%d_m%d_l%d" r md l)))
  in
  let z_out =
    Array.init n_mod (fun md ->
        Array.init n_regs (fun r -> bin m "zo_m%d_r%d" md r))
  in
  (* support lists for the no-adverse-path upper bounds *)
  let aux = ref [] in
  let def_aux var requires = aux := (var, requires) :: !aux in
  let support = Hashtbl.create 97 in
  let add_support key var =
    Hashtbl.replace support key
      (var :: (match Hashtbl.find_opt support key with Some l -> l | None -> []))
  in
  (* variable input edges *)
  List.iter
    (fun (v, o, l_star) ->
      List.iter
        (fun md ->
          let xm = x_om.(o).(md) in
          for r = 0 to n_regs - 1 do
            let xv = x_vr.(v).(r) in
            if swap.(o) < 0 then begin
              (* needed path: z >= x_vr + x_om - 1 *)
              Ilp.Model.add_ge m
                (lx [ (1, z.(r).(md).(l_star)); (-1, xv); (-1, xm) ])
                (-1);
              (* support: y <= x_vr, y <= x_om *)
              let y = bin m "y_e%d_%d_%d_r%d_m%d" v o l_star r md in
              Ilp.Model.add_le m (lx [ (1, y); (-1, xv) ]) 0;
              Ilp.Model.add_le m (lx [ (1, y); (-1, xm) ]) 0;
              def_aux y [ (xv, 1); (xm, 1) ];
              add_support (`Port (r, md, l_star)) y
            end
            else begin
              let sw = swap.(o) in
              (* identity case feeds port l_star: z >= x + x - swap - 1 *)
              Ilp.Model.add_ge m
                (lx [ (1, z.(r).(md).(l_star)); (-1, xv); (-1, xm); (1, sw) ])
                (-1);
              (* swapped case feeds port 1 - l_star *)
              Ilp.Model.add_ge m
                (lx
                   [ (1, z.(r).(md).(1 - l_star)); (-1, xv); (-1, xm); (-1, sw) ])
                (-2);
              let y0 = bin m "y0_e%d_%d_%d_r%d_m%d" v o l_star r md in
              Ilp.Model.add_le m (lx [ (1, y0); (-1, xv) ]) 0;
              Ilp.Model.add_le m (lx [ (1, y0); (-1, xm) ]) 0;
              Ilp.Model.add_le m (lx [ (1, y0); (1, sw) ]) 1;
              def_aux y0 [ (xv, 1); (xm, 1); (sw, 0) ];
              add_support (`Port (r, md, l_star)) y0;
              let y1 = bin m "y1_e%d_%d_%d_r%d_m%d" v o l_star r md in
              Ilp.Model.add_le m (lx [ (1, y1); (-1, xv) ]) 0;
              Ilp.Model.add_le m (lx [ (1, y1); (-1, xm) ]) 0;
              Ilp.Model.add_le m (lx [ (1, y1); (-1, sw) ]) 0;
              def_aux y1 [ (xv, 1); (xm, 1); (sw, 1) ];
              add_support (`Port (r, md, 1 - l_star)) y1
            end
          done)
        (Dfg.Problem.candidates p o))
    (Dfg.Graph.e_i g);
  (* output edges *)
  List.iter
    (fun (o, v) ->
      List.iter
        (fun md ->
          let xm = x_om.(o).(md) in
          for r = 0 to n_regs - 1 do
            let xv = x_vr.(v).(r) in
            Ilp.Model.add_ge m
              (lx [ (1, z_out.(md).(r)); (-1, xv); (-1, xm) ])
              (-1);
            let w = bin m "w_o%d_v%d_m%d_r%d" o v md r in
            Ilp.Model.add_le m (lx [ (1, w); (-1, xv) ]) 0;
            Ilp.Model.add_le m (lx [ (1, w); (-1, xm) ]) 0;
            def_aux w [ (xv, 1); (xm, 1) ];
            add_support (`Out (md, r)) w
          done)
        (Dfg.Problem.candidates p o))
    (Dfg.Graph.e_o g);
  (* constant edges *)
  let cz_tbl = Hashtbl.create 17 in
  let cz_var c md l =
    match Hashtbl.find_opt cz_tbl (c, md, l) with
    | Some var -> var
    | None ->
        let var = bin m "cz_%d_m%d_l%d" c md l in
        Hashtbl.replace cz_tbl (c, md, l) var;
        var
  in
  List.iter
    (fun (c, o, l_star) ->
      List.iter
        (fun md ->
          let xm = x_om.(o).(md) in
          if swap.(o) < 0 then begin
            let czv = cz_var c md l_star in
            Ilp.Model.add_ge m (lx [ (1, czv); (-1, xm) ]) 0;
            add_support (`Const (c, md, l_star)) xm
          end
          else begin
            let sw = swap.(o) in
            let cz0 = cz_var c md l_star in
            Ilp.Model.add_ge m (lx [ (1, cz0); (-1, xm); (1, sw) ]) 0;
            let cz1 = cz_var c md (1 - l_star) in
            Ilp.Model.add_ge m (lx [ (1, cz1); (-1, xm); (-1, sw) ]) (-1);
            let y0 = bin m "yc0_%d_o%d_m%d" c o md in
            Ilp.Model.add_le m (lx [ (1, y0); (-1, xm) ]) 0;
            Ilp.Model.add_le m (lx [ (1, y0); (1, sw) ]) 1;
            def_aux y0 [ (xm, 1); (sw, 0) ];
            add_support (`Const (c, md, l_star)) y0;
            let y1 = bin m "yc1_%d_o%d_m%d" c o md in
            Ilp.Model.add_le m (lx [ (1, y1); (-1, xm) ]) 0;
            Ilp.Model.add_le m (lx [ (1, y1); (-1, sw) ]) 0;
            def_aux y1 [ (xm, 1); (sw, 1) ];
            add_support (`Const (c, md, 1 - l_star)) y1
          end)
        (Dfg.Problem.candidates p o))
    (Dfg.Graph.const_edges g);
  (* upper bounds from support (Eqs. (1)-(3)): a wire may exist only if some
     assigned edge realizes it. *)
  for r = 0 to n_regs - 1 do
    for md = 0 to n_mod - 1 do
      for l = 0 to n_ports p md - 1 do
        let sup =
          match Hashtbl.find_opt support (`Port (r, md, l)) with
          | Some vars -> vars
          | None -> []
        in
        Ilp.Model.add_le m
          ~name:(Printf.sprintf "adverse_r%d_m%d_l%d" r md l)
          (lx ((1, z.(r).(md).(l)) :: List.map (fun y -> (-1, y)) sup))
          0
      done
    done
  done;
  for md = 0 to n_mod - 1 do
    for r = 0 to n_regs - 1 do
      let sup =
        match Hashtbl.find_opt support (`Out (md, r)) with
        | Some vars -> vars
        | None -> []
      in
      Ilp.Model.add_le m
        (lx ((1, z_out.(md).(r)) :: List.map (fun y -> (-1, y)) sup))
        0
    done
  done;
  Hashtbl.iter
    (fun (c, md, l) czv ->
      let sup =
        match Hashtbl.find_opt support (`Const (c, md, l)) with
        | Some vars -> vars
        | None -> []
      in
      Ilp.Model.add_le m
        (lx ((1, czv) :: List.map (fun y -> (-1, y)) sup))
        0)
    cz_tbl;

  (* ---- external input wires and multiplexer thresholds -------------- *)
  let primary = Dfg.Graph.primary_inputs g in
  let inp =
    Array.init n_regs (fun r ->
        if primary = [] then -1 else bin m "inp_r%d" r)
  in
  if primary <> [] then
    for r = 0 to n_regs - 1 do
      List.iter
        (fun v ->
          Ilp.Model.add_ge m (lx [ (1, inp.(r)); (-1, x_vr.(v).(r)) ]) 0)
        primary;
      Ilp.Model.add_le m
        (lx ((1, inp.(r)) :: List.map (fun v -> (-1, x_vr.(v).(r))) primary))
        0
    done;
  let objective = ref Ilp.Linexpr.zero in
  let mux_thresholds = ref [] in
  let add_mux_site fanin_terms max_fanin site_name =
    let f = lx fanin_terms in
    let thresholds = ref [] in
    for n = 2 to max_fanin do
      let u = bin m "u_%s_%d" site_name n in
      (* F - (n - 1) <= (max - (n - 1)) * u *)
      Ilp.Model.add_le m
        (Ilp.Linexpr.sub f (Ilp.Linexpr.term (max_fanin - (n - 1)) u))
        (n - 1);
      let increment = Datapath.Area.mux n - Datapath.Area.mux (n - 1) in
      objective := Ilp.Linexpr.add !objective (Ilp.Linexpr.term increment u);
      thresholds := (n, u) :: !thresholds
    done;
    mux_thresholds := (f, List.rev !thresholds) :: !mux_thresholds
  in
  for md = 0 to n_mod - 1 do
    for l = 0 to n_ports p md - 1 do
      let consts_here =
        Hashtbl.fold
          (fun (c, md', l') var acc ->
            if md' = md && l' = l then (c, var) :: acc else acc)
          cz_tbl []
      in
      let terms =
        List.init n_regs (fun r -> (1, z.(r).(md).(l)))
        @ List.map (fun (_, var) -> (1, var)) consts_here
      in
      add_mux_site terms
        (n_regs + List.length consts_here)
        (Printf.sprintf "m%dl%d" md l)
    done
  done;
  for r = 0 to n_regs - 1 do
    let terms =
      List.init n_mod (fun md -> (1, z_out.(md).(r)))
      @ (if inp.(r) >= 0 then [ (1, inp.(r)) ] else [])
    in
    add_mux_site terms
      (n_mod + if inp.(r) >= 0 then 1 else 0)
      (Printf.sprintf "r%d" r)
  done;

  (* ---- BIST register assignment (k = 0 builds the reference model) -- *)
  let a = Array.init n_mod (fun md -> Array.init k (fun s -> bin m "a_m%d_p%d" md s)) in
  let s_mrp =
    Array.init n_mod (fun md ->
        Array.init n_regs (fun r ->
            Array.init k (fun s -> bin m "s_m%d_r%d_p%d" md r s)))
  in
  let t_rmlp =
    Array.init n_regs (fun r ->
        Array.init n_mod (fun md ->
            Array.init (n_ports p md) (fun l ->
                Array.init k (fun s -> bin m "t_r%d_m%d_l%d_p%d" r md l s))))
  in
  (* ports that can ever receive a constant get a tc variable *)
  let tc =
    Array.init n_mod (fun md ->
        Array.init (n_ports p md) (fun l ->
            if k > 0 && Hashtbl.fold
                 (fun (_, md', l') _ acc -> acc || (md' = md && l' = l))
                 cz_tbl false
            then bin m "tc_m%d_l%d" md l
            else -1))
  in
  let t_reg = Array.init n_regs (fun r -> if k > 0 then bin m "T_r%d" r else -1) in
  let s_reg = Array.init n_regs (fun r -> if k > 0 then bin m "S_r%d" r else -1) in
  let b_reg = Array.init n_regs (fun r -> if k > 0 then bin m "B_r%d" r else -1) in
  let c_reg = Array.init n_regs (fun r -> if k > 0 then bin m "C_r%d" r else -1) in
  let t_rp = Array.init n_regs (fun r -> Array.init k (fun s -> bin m "Tp_r%d_p%d" r s)) in
  let s_rp = Array.init n_regs (fun r -> Array.init k (fun s -> bin m "Sp_r%d_p%d" r s)) in
  let c_rp = Array.init n_regs (fun r -> Array.init k (fun s -> bin m "Cp_r%d_p%d" r s)) in
  if k > 0 then begin
    (* Sub-test sessions are interchangeable labels; canonicalize (module 0
       in session 0, a session opens only after its predecessor) as part of
       the Section 3.5 search-space reduction. *)
    if symmetry then
      for md = 0 to n_mod - 1 do
        for s = md + 1 to k - 1 do
          Ilp.Model.add_eq m (lx [ (1, a.(md).(s)) ]) 0
        done;
        for s = 1 to min md (k - 1) do
          Ilp.Model.add_le m
            (lx
               ((1, a.(md).(s))
               :: List.filter_map
                    (fun md' ->
                      if md' < md && s - 1 <= md' then
                        Some (-1, a.(md').(s - 1))
                      else None)
                    (List.init n_mod Fun.id)))
            0
        done
      done;
    for md = 0 to n_mod - 1 do
      (* each module tested in exactly one sub-test session (Eq. 7) *)
      Ilp.Model.add_eq m
        ~name:(Printf.sprintf "session_m%d" md)
        (lx (List.init k (fun s -> (1, a.(md).(s)))))
        1;
      for s = 0 to k - 1 do
        (* the SR is active exactly in the module's session (Eqs. 7, 12) *)
        Ilp.Model.add_eq m
          (lx
             ((-1, a.(md).(s))
             :: List.init n_regs (fun r -> (1, s_mrp.(md).(r).(s)))))
          0
      done;
      for r = 0 to n_regs - 1 do
        (* Eq. 6: SR only behind an existing module-to-register wire *)
        Ilp.Model.add_le m
          (lx
             ((-1, z_out.(md).(r))
             :: List.init k (fun s -> (1, s_mrp.(md).(r).(s)))))
          0
      done;
      for l = 0 to n_ports p md - 1 do
        (* Eq. 10 (+ §3.3.4): exactly one TPG across the k-test session,
           possibly the dedicated constant generator *)
        let tc_term = if tc.(md).(l) >= 0 then [ (1, tc.(md).(l)) ] else [] in
        Ilp.Model.add_eq m
          ~name:(Printf.sprintf "tpg_m%d_l%d" md l)
          (lx
             (tc_term
             @ List.concat
                 (List.init n_regs (fun r ->
                      List.init k (fun s -> (1, t_rmlp.(r).(md).(l).(s)))))))
          1;
        for s = 0 to k - 1 do
          (* Eqs. 11-12: TPGs only in the module's own session *)
          Ilp.Model.add_le m
            (lx
               ((-1, a.(md).(s))
               :: List.init n_regs (fun r -> (1, t_rmlp.(r).(md).(l).(s)))))
            0
        done;
        for r = 0 to n_regs - 1 do
          (* Eq. 9: TPG only behind an existing wire *)
          Ilp.Model.add_le m
            (lx
               ((-1, z.(r).(md).(l))
               :: List.init k (fun s -> (1, t_rmlp.(r).(md).(l).(s)))))
            0;
          (* a dedicated generator is only for constant-only ports *)
          if tc.(md).(l) >= 0 then
            Ilp.Model.add_le m
              (lx [ (1, tc.(md).(l)); (1, z.(r).(md).(l)) ])
              1
        done
      done;
      (* Eq. 13: one register cannot drive both ports of a module *)
      if n_ports p md = 2 then
        for r = 0 to n_regs - 1 do
          for s = 0 to k - 1 do
            Ilp.Model.add_le m
              (lx [ (1, t_rmlp.(r).(md).(0).(s)); (1, t_rmlp.(r).(md).(1).(s)) ])
              1
          done
        done
    done;
    (* Eq. 8: an SR serves one module per session *)
    for r = 0 to n_regs - 1 do
      for s = 0 to k - 1 do
        Ilp.Model.add_le m
          (lx (List.init n_mod (fun md -> (1, s_mrp.(md).(r).(s)))))
          1
      done
    done;
    (* Eqs. 14-23: register reconfiguration roles, as per-element bounds *)
    for r = 0 to n_regs - 1 do
      for md = 0 to n_mod - 1 do
        for l = 0 to n_ports p md - 1 do
          for s = 0 to k - 1 do
            Ilp.Model.add_ge m
              (lx [ (1, t_reg.(r)); (-1, t_rmlp.(r).(md).(l).(s)) ])
              0;
            Ilp.Model.add_ge m
              (lx [ (1, t_rp.(r).(s)); (-1, t_rmlp.(r).(md).(l).(s)) ])
              0
          done
        done;
        for s = 0 to k - 1 do
          Ilp.Model.add_ge m
            (lx [ (1, s_reg.(r)); (-1, s_mrp.(md).(r).(s)) ])
            0;
          Ilp.Model.add_ge m
            (lx [ (1, s_rp.(r).(s)); (-1, s_mrp.(md).(r).(s)) ])
            0
        done
      done;
      (* Eq. 17: BILBO (or CBILBO) when both roles occur *)
      Ilp.Model.add_ge m
        (lx [ (1, b_reg.(r)); (-1, t_reg.(r)); (-1, s_reg.(r)) ])
        (-1);
      for s = 0 to k - 1 do
        (* Eq. 21: CBILBO when both roles occur in the same session *)
        Ilp.Model.add_ge m
          (lx [ (1, c_rp.(r).(s)); (-1, t_rp.(r).(s)); (-1, s_rp.(r).(s)) ])
          (-1);
        (* Eq. 23 *)
        Ilp.Model.add_ge m (lx [ (1, c_reg.(r)); (-1, c_rp.(r).(s)) ]) 0
      done
    done;
    (* objective: register reconfiguration costs (208 base per register is
       the constant base_area) + dedicated constant generators *)
    for r = 0 to n_regs - 1 do
      objective :=
        Ilp.Linexpr.add !objective
          (lx
             [
               (Datapath.Area.register Datapath.Area.Tpg
                - Datapath.Area.register Datapath.Area.Plain, t_reg.(r));
               (Datapath.Area.register Datapath.Area.Sr
                - Datapath.Area.register Datapath.Area.Plain, s_reg.(r));
               ( Datapath.Area.register Datapath.Area.Bilbo
                 - Datapath.Area.register Datapath.Area.Tpg
                 - Datapath.Area.register Datapath.Area.Sr
                 + Datapath.Area.register Datapath.Area.Plain, b_reg.(r) );
               ( Datapath.Area.register Datapath.Area.Cbilbo
                 - Datapath.Area.register Datapath.Area.Bilbo, c_reg.(r) );
             ])
    done;
    Array.iter
      (Array.iter (fun tcv ->
           if tcv >= 0 then
             objective :=
               Ilp.Linexpr.add !objective
                 (Ilp.Linexpr.term Datapath.Area.constant_tpg_weight tcv)))
      tc
  end;
  Ilp.Model.set_objective m !objective;
  {
    problem = p;
    n_regs;
    k;
    model = m;
    x_vr;
    x_om;
    swap;
    z;
    z_out;
    cz = Hashtbl.fold (fun (c, md, l) var acc -> (c, md, l, var) :: acc) cz_tbl [];
    tc;
    a;
    s_mrp;
    t_rmlp;
    t_reg;
    s_reg;
    b_reg;
    c_reg;
    t_rp;
    s_rp;
    c_rp;
    mux_thresholds = List.rev !mux_thresholds;
    aux = !aux;
    inp;
    base_area = n_regs * Datapath.Area.register Datapath.Area.Plain;
  }

let build ?symmetry p ~n_regs ~k =
  if k < 1 then invalid_arg "Encoding.build: k must be >= 1";
  build_internal ?symmetry p ~n_regs ~k

let build_reference ?symmetry p ~n_regs =
  build_internal ?symmetry p ~n_regs ~k:0

let branch_order e =
  let order = ref [] in
  let push v = if v >= 0 then order := v :: !order in
  Array.iter (fun row -> Array.iter push row) e.x_vr;
  Array.iter (fun row -> Array.iter push row) e.x_om;
  Array.iter push e.swap;
  Array.iter (fun row -> Array.iter push row) e.a;
  Array.iter
    (fun rows -> Array.iter (fun row -> Array.iter push row) rows)
    e.s_mrp;
  Array.iter
    (fun a3 ->
      Array.iter (fun a2 -> Array.iter (fun row -> Array.iter push row) a2) a3)
    e.t_rmlp;
  List.rev !order

(* --- structural dual bound -----------------------------------------------

   A combinatorial lower bound on the ILP objective, independent of the
   LP relaxation (which is near-trivial on these encodings: the fractional
   optimum spreads mux thresholds and register upgrades to almost zero).
   Three additive components, each over disjoint objective terms:

   1. Register upgrades.  Every module is tested in exactly one of the k
      sub-test sessions (Eq. 7) and an SR serves one module per session
      (Eq. 8), so at least ceil(n_mod / k) registers carry the SR upgrade.
      Every input port needs a TPG (Eq. 10) and one register cannot drive
      both ports of a module (Eq. 13), so at least max-port-count
      registers carry the TPG upgrade; a register holding both roles
      needs the CBILBO upgrade when the roles meet in one session (Eq. 21
      — forced at k = 1) or at least the BILBO upgrade otherwise
      (Eq. 17), both of which cost more than the two roles separately.

   2. Module-port muxes.  Operand variables of the operations bound to a
      module cluster that are simultaneously alive must sit in distinct
      registers, each a distinct wire into the cluster's input ports
      (Eq. 13 keeps the two ports of one module register-disjoint, so
      counting over both ports jointly stays valid under commutative
      operand swapping); every distinct constant value adds a dedicated
      generator wire (cz).  Each port also needs at least one wire for
      its TPG (Eq. 9) — a port with no register wire pays the dedicated
      constant generator instead, which costs more than any mux step.
      The cheapest spread of those forced wires over the cluster's port
      sites is an exact small DP over the concave-ish mux cost table.

   3. Register-input muxes.  Each module needs at least one result wire
      into a register (Eq. 6: its SR sits behind such a wire), results of
      one cluster that are simultaneously alive need distinct registers,
      and registers holding primary inputs carry the input wire.  The
      cheapest spread of those wires over the n_regs register-input sites
      bounds the z_out/inp mux cost.

   Sound by construction: every count is forced in any feasible solution,
   and the DP picks the cheapest arrangement consistent with the counts. *)

(* Cheapest total mux cost of [slots] mux sites absorbing at least [total]
   wires, each site taking at least [lo]. *)
let mux_spread_min ?(lo = 1) ~slots total =
  if slots <= 0 then 0
  else begin
    let total = max total (lo * slots) in
    let dp = Array.make_matrix (slots + 1) (total + 1) max_int in
    dp.(0).(0) <- 0;
    for i = 1 to slots do
      for n = 0 to total do
        for take = lo to n do
          if dp.(i - 1).(n - take) < max_int then
            dp.(i).(n) <-
              min dp.(i).(n) (dp.(i - 1).(n - take) + Datapath.Area.mux take)
        done
      done
    done;
    dp.(slots).(total)
  end

let objective_lower_bound e =
  let p = e.problem in
  let g = p.Dfg.Problem.dfg in
  let lt = Dfg.Lifetime.compute g in
  let n_mod = Dfg.Problem.n_modules p in
  let n_regs = e.n_regs in
  let nb = Dfg.Graph.n_boundaries g in
  (* exact max clique of the (closed-interval) lifetime conflict graph
     restricted to [vs]: the peak number simultaneously alive *)
  let clique vs =
    let best = ref 0 in
    for t = 0 to nb - 1 do
      let c =
        List.fold_left
          (fun acc v -> if Dfg.Lifetime.alive_at lt v t then acc + 1 else acc)
          0 vs
      in
      if c > !best then best := c
    done;
    !best
  in
  (* modules sharing any operation candidate merge into one cluster, so no
     port site is ever counted for two operation groups *)
  let parent = Array.init n_mod Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let n_ops = Dfg.Graph.n_ops g in
  for o = 0 to n_ops - 1 do
    match Dfg.Problem.candidates p o with
    | [] -> ()
    | m0 :: rest -> List.iter (fun md -> union m0 md) rest
  done;
  let cluster_mods = Hashtbl.create 7 in
  for md = 0 to n_mod - 1 do
    let r = find md in
    Hashtbl.replace cluster_mods r
      (md
      :: (match Hashtbl.find_opt cluster_mods r with Some l -> l | None -> []))
  done;
  let cluster_ops = Hashtbl.create 7 in
  for o = 0 to n_ops - 1 do
    match Dfg.Problem.candidates p o with
    | [] -> ()
    | m0 :: _ ->
        let r = find m0 in
        Hashtbl.replace cluster_ops r
          (o
          :: (match Hashtbl.find_opt cluster_ops r with
             | Some l -> l
             | None -> []))
  done;
  let max_ports = ref 1 in
  let port_mux = ref 0 and result_wires = ref 0 in
  Hashtbl.iter
    (fun root mods ->
      let ops =
        match Hashtbl.find_opt cluster_ops root with Some l -> l | None -> []
      in
      let operand_vars = ref [] and consts = ref [] and results = ref [] in
      let ports = ref 1 in
      List.iter
        (fun o ->
          let op = Dfg.Graph.operation g o in
          let ar = Array.length op.Dfg.Graph.inputs in
          if ar > !ports then ports := ar;
          results := op.Dfg.Graph.output :: !results;
          Array.iter
            (function
              | Dfg.Graph.Var v ->
                  if not (List.mem v !operand_vars) then
                    operand_vars := v :: !operand_vars
              | Dfg.Graph.Const c ->
                  if not (List.mem c !consts) then consts := c :: !consts)
            op.Dfg.Graph.inputs)
        ops;
      if !ports > !max_ports then max_ports := !ports;
      let c = List.length mods in
      let forced = clique !operand_vars + List.length !consts in
      port_mux := !port_mux + mux_spread_min ~slots:(!ports * c) forced;
      result_wires := !result_wires + max c (clique !results))
    cluster_mods;
  (* register-input sites: module result wires plus primary-input loads *)
  let pi_regs = clique (Dfg.Graph.primary_inputs g) in
  let reg_mux = mux_spread_min ~lo:0 ~slots:n_regs (!result_wires + pi_regs) in
  (* BIST register upgrades *)
  let plain = Datapath.Area.register Datapath.Area.Plain in
  let d_tpg = Datapath.Area.register Datapath.Area.Tpg - plain in
  let d_sr = Datapath.Area.register Datapath.Area.Sr - plain in
  let d_bilbo = Datapath.Area.register Datapath.Area.Bilbo - plain in
  let d_cbilbo = Datapath.Area.register Datapath.Area.Cbilbo - plain in
  let srs = (n_mod + e.k - 1) / e.k in
  let tpgs = !max_ports in
  (* Role merges, refined per-session: the busiest sub-test session tests
     at least ceil(n_mod / k) modules at once, so their SRs are that many
     distinct registers (Eq. 8) active simultaneously with the session's
     TPGs — at least the port count of its narrowest module, [p_min].  A
     merge forced *within one session* is a CBILBO (Eq. 21) for every k,
     not just k = 1 (at k = 1 there is only one session, so every merge
     is concurrent and the session TPG need is the full [tpgs]).  Only
     the globally-forced surplus beyond those may settle for the cheaper
     BILBO (Eq. 17: roles in different sessions). *)
  let p_min =
    let m = ref max_int in
    for md = 0 to n_mod - 1 do
      m := min !m (n_ports p md)
    done;
    if !m = max_int then 1 else max 1 !m
  in
  let sess_tpgs = if e.k = 1 then tpgs else p_min in
  let cbilbos =
    max 0 (min (min srs sess_tpgs) (srs + sess_tpgs - n_regs))
  in
  let bilbos =
    max 0 (min (min srs tpgs) (srs + tpgs - n_regs) - cbilbos)
  in
  let upgrades =
    (srs * d_sr) + (tpgs * d_tpg)
    + (cbilbos * (d_cbilbo - d_sr - d_tpg))
    + (bilbos * (d_bilbo - d_sr - d_tpg))
  in
  upgrades + !port_mux + reg_mux

let decode e x =
  let p = e.problem in
  let g = p.Dfg.Problem.dfg in
  let nv = Dfg.Graph.n_vars g and no = Dfg.Graph.n_ops g in
  let n_mod = Dfg.Problem.n_modules p in
  let ( let* ) r f = Result.bind r f in
  let reg_of_var = Array.make nv (-1) in
  for v = 0 to nv - 1 do
    for r = 0 to e.n_regs - 1 do
      if x.(e.x_vr.(v).(r)) = 1 then reg_of_var.(v) <- r
    done
  done;
  let module_of_op = Array.make no (-1) in
  for o = 0 to no - 1 do
    for md = 0 to n_mod - 1 do
      if e.x_om.(o).(md) >= 0 && x.(e.x_om.(o).(md)) = 1 then
        module_of_op.(o) <- md
    done
  done;
  let swapped =
    Array.init no (fun o -> e.swap.(o) >= 0 && x.(e.swap.(o)) = 1)
  in
  let* netlist =
    Datapath.Netlist.make ~swapped p ~reg_of_var ~module_of_op
  in
  if e.k = 0 then Ok (netlist, None)
  else begin
    let session_of_module = Array.make n_mod (-1) in
    let sr_of_module = Array.make n_mod (-1) in
    for md = 0 to n_mod - 1 do
      for s = 0 to e.k - 1 do
        if x.(e.a.(md).(s)) = 1 then session_of_module.(md) <- s;
        for r = 0 to e.n_regs - 1 do
          if x.(e.s_mrp.(md).(r).(s)) = 1 then sr_of_module.(md) <- r
        done
      done
    done;
    let tpg_of_port =
      Array.init n_mod (fun md ->
          Array.init (n_ports p md) (fun l ->
              let found = ref (-1) in
              for r = 0 to e.n_regs - 1 do
                for s = 0 to e.k - 1 do
                  if x.(e.t_rmlp.(r).(md).(l).(s)) = 1 then found := r
                done
              done;
              !found))
    in
    let* plan =
      Bist.Plan.make netlist ~k:e.k ~session_of_module ~sr_of_module
        ~tpg_of_port
    in
    (* The model must never undercount the real design cost. *)
    let model_cost = Ilp.Model.objective_value e.model x + e.base_area in
    let plan_cost = Bist.Plan.objective_cost plan in
    if plan_cost > model_cost then
      Error
        (Printf.sprintf
           "encoding bug: plan costs %d but the model claims %d" plan_cost
           model_cost)
    else Ok (netlist, Some plan)
  end

(* Fill the data-path part of a solution vector (x, z, cz, support aux,
   input wires, mux thresholds) from a netlist. *)
let fill_datapath e (netlist : Datapath.Netlist.t) x =
  let p = e.problem in
  let g = p.Dfg.Problem.dfg in
  let nv = Dfg.Graph.n_vars g and no = Dfg.Graph.n_ops g in
    for v = 0 to nv - 1 do
      x.(e.x_vr.(v).(netlist.Datapath.Netlist.reg_of_var.(v))) <- 1
    done;
    for o = 0 to no - 1 do
      let md = netlist.Datapath.Netlist.module_of_op.(o) in
      x.(e.x_om.(o).(md)) <- 1;
      if e.swap.(o) >= 0 && netlist.Datapath.Netlist.swapped.(o) then
        x.(e.swap.(o)) <- 1
    done;
    List.iter
      (fun (r, md, l) -> x.(e.z.(r).(md).(l)) <- 1)
      netlist.Datapath.Netlist.reg_to_port;
    List.iter
      (fun (md, r) -> x.(e.z_out.(md).(r)) <- 1)
      netlist.Datapath.Netlist.module_to_reg;
    List.iter
      (fun (c, md, l, var) ->
        if List.mem (c, md, l) netlist.Datapath.Netlist.const_to_port then
          x.(var) <- 1)
      e.cz;
    (* auxiliary support variables: 1 exactly when all defining variables
       hold their required values *)
    List.iter
      (fun (var, requires) ->
        if List.for_all (fun (dep, value) -> x.(dep) = value) requires then
          x.(var) <- 1)
      e.aux;
    (* external input wires *)
    Array.iteri
      (fun r loads -> if loads && e.inp.(r) >= 0 then x.(e.inp.(r)) <- 1)
      netlist.Datapath.Netlist.reg_loads_input;
    (* mux thresholds: u = 1 iff fan-in >= n *)
    List.iter
      (fun (fanin_expr, thresholds) ->
        let f = Ilp.Model.eval_expr fanin_expr x in
        List.iter (fun (n, u) -> if f >= n then x.(u) <- 1) thresholds)
      e.mux_thresholds;
    ()

let vector_of_netlist e (netlist : Datapath.Netlist.t) =
  if netlist.Datapath.Netlist.problem != e.problem then
    Error "vector_of_netlist: netlist belongs to a different problem"
  else if netlist.Datapath.Netlist.n_registers > e.n_regs then
    Error "vector_of_netlist: more registers than the encoding"
  else begin
    let x = Array.make (Ilp.Model.n_vars e.model) 0 in
    fill_datapath e netlist x;
    if e.k = 0 then
      match Ilp.Model.check e.model x with
      | Ok () -> Ok x
      | Error errs ->
          Error
            ("vector_of_netlist produced an infeasible vector: "
            ^ String.concat "; " errs)
    else Error "vector_of_netlist: encoding has BIST variables; use vector_of_plan"
  end

let vector_of_plan e (plan : Bist.Plan.t) =
  let netlist = plan.Bist.Plan.netlist in
  let p = e.problem in
  if netlist.Datapath.Netlist.problem != p then
    Error "vector_of_plan: plan belongs to a different problem"
  else if plan.Bist.Plan.k <> e.k then Error "vector_of_plan: k mismatch"
  else if netlist.Datapath.Netlist.n_registers > e.n_regs then
    Error "vector_of_plan: plan uses more registers than the encoding"
  else begin
    let x = Array.make (Ilp.Model.n_vars e.model) 0 in
    let n_mod = Dfg.Problem.n_modules p in
    fill_datapath e netlist x;
    (* sessions and test registers *)
    for md = 0 to n_mod - 1 do
      let s = plan.Bist.Plan.session_of_module.(md) in
      x.(e.a.(md).(s)) <- 1;
      x.(e.s_mrp.(md).(plan.Bist.Plan.sr_of_module.(md)).(s)) <- 1;
      Array.iteri
        (fun l r ->
          if r >= 0 then x.(e.t_rmlp.(r).(md).(l).(s)) <- 1
          else if e.tc.(md).(l) >= 0 then x.(e.tc.(md).(l)) <- 1)
        plan.Bist.Plan.tpg_of_port.(md)
    done;
    (* roles *)
    for r = 0 to e.n_regs - 1 do
      for s = 0 to e.k - 1 do
        let tpg_here = ref false and sr_here = ref false in
        for md = 0 to n_mod - 1 do
          for l = 0 to n_ports p md - 1 do
            if x.(e.t_rmlp.(r).(md).(l).(s)) = 1 then tpg_here := true
          done;
          if x.(e.s_mrp.(md).(r).(s)) = 1 then sr_here := true
        done;
        if !tpg_here then x.(e.t_rp.(r).(s)) <- 1;
        if !sr_here then x.(e.s_rp.(r).(s)) <- 1;
        if !tpg_here && !sr_here then x.(e.c_rp.(r).(s)) <- 1
      done;
      let any arr = Array.exists (fun v -> x.(v) = 1) arr in
      if any e.t_rp.(r) then x.(e.t_reg.(r)) <- 1;
      if any e.s_rp.(r) then x.(e.s_reg.(r)) <- 1;
      if x.(e.t_reg.(r)) = 1 && x.(e.s_reg.(r)) = 1 then x.(e.b_reg.(r)) <- 1;
      if any e.c_rp.(r) then x.(e.c_reg.(r)) <- 1
    done;
    match Ilp.Model.check e.model x with
    | Ok () -> Ok x
    | Error errs ->
        Error
          ("vector_of_plan produced an infeasible vector: "
          ^ String.concat "; " errs)
  end
