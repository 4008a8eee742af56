type outcome = {
  plan : Bist.Plan.t;
  optimal : bool;
  nodes : int;
  time_s : float;
}

let lx = Ilp.Linexpr.of_list
(* Deferred names, as in [Encoding]: formatted only when printed. *)
let pf = Format.fprintf
let bin m name = Ilp.Model.var m ~lb:0 ~ub:1 name

let solve ?time_limit (d : Datapath.Netlist.t) ~k =
  let p = d.Datapath.Netlist.problem in
  let n_mod = Dfg.Problem.n_modules p in
  let n_regs = d.Datapath.Netlist.n_registers in
  let m = Ilp.Model.create ~name:"session" () in
  let const_only = Datapath.Netlist.constant_only_ports d in
  let writers md =
    List.filter_map
      (fun (md', r) -> if md' = md then Some r else None)
      d.Datapath.Netlist.module_to_reg
  in
  let feeders md l =
    List.filter_map
      (fun (r, md', l') -> if md' = md && l' = l then Some r else None)
      d.Datapath.Netlist.reg_to_port
  in
  let a =
    Array.init n_mod (fun md ->
        Array.init k (fun s -> bin m (fun f -> pf f "a_%d_%d" md s)))
  in
  (* s and t variables exist only where wires exist (Eqs. 6, 9 by
     construction). *)
  let s_var = Hashtbl.create 64 and t_var = Hashtbl.create 64 in
  for md = 0 to n_mod - 1 do
    Ilp.Model.add_eq m (lx (List.init k (fun s -> (1, a.(md).(s))))) 1;
    List.iter
      (fun r ->
        for s = 0 to k - 1 do
          Hashtbl.replace s_var (md, r, s)
            (bin m (fun f -> pf f "s_%d_%d_%d" md r s))
        done)
      (writers md);
    for s = 0 to k - 1 do
      let terms =
        List.map (fun r -> (1, Hashtbl.find s_var (md, r, s))) (writers md)
      in
      Ilp.Model.add_eq m (lx ((-1, a.(md).(s)) :: terms)) 0
    done;
    let fu = p.Dfg.Problem.modules.(md) in
    for l = 0 to Dfg.Fu_kind.n_ports fu - 1 do
      let srcs = feeders md l in
      if srcs = [] && not (List.mem (md, l) const_only) then
        (* untested port without sources: cannot happen on a valid netlist *)
        Ilp.Model.add_ge m Ilp.Linexpr.zero 1;
      List.iter
        (fun r ->
          for s = 0 to k - 1 do
            Hashtbl.replace t_var (r, md, l, s)
              (bin m (fun f -> pf f "t_%d_%d_%d_%d" r md l s))
          done)
        srcs;
      if not (List.mem (md, l) const_only) then begin
        (* exactly one TPG, in the module's session *)
        Ilp.Model.add_eq m
          (lx
             (List.concat_map
                (fun r ->
                  List.init k (fun s -> (1, Hashtbl.find t_var (r, md, l, s))))
                srcs))
          1;
        for s = 0 to k - 1 do
          Ilp.Model.add_le m
            (lx
               ((-1, a.(md).(s))
               :: List.map (fun r -> (1, Hashtbl.find t_var (r, md, l, s))) srcs))
            0
        done
      end
      else
        (* constant-only port: dedicated generator, no t variables used *)
        List.iter
          (fun r ->
            for s = 0 to k - 1 do
              Ilp.Model.add_eq m (lx [ (1, Hashtbl.find t_var (r, md, l, s)) ]) 0
            done)
          srcs
    done;
    (* Eq. 13 *)
    let fu_ports = Dfg.Fu_kind.n_ports fu in
    if fu_ports = 2 then
      for r = 0 to n_regs - 1 do
        for s = 0 to k - 1 do
          match
            ( Hashtbl.find_opt t_var (r, md, 0, s),
              Hashtbl.find_opt t_var (r, md, 1, s) )
          with
          | Some t0, Some t1 -> Ilp.Model.add_le m (lx [ (1, t0); (1, t1) ]) 1
          | _, _ -> ()
        done
      done
  done;
  (* Eq. 8 *)
  for r = 0 to n_regs - 1 do
    for s = 0 to k - 1 do
      let terms =
        List.filter_map
          (fun md -> Option.map (fun v -> (1, v)) (Hashtbl.find_opt s_var (md, r, s)))
          (List.init n_mod Fun.id)
      in
      if List.length terms > 1 then Ilp.Model.add_le m (lx terms) 1
    done
  done;
  (* roles and objective *)
  let objective = ref Ilp.Linexpr.zero in
  let plain = Datapath.Area.register Datapath.Area.Plain in
  for r = 0 to n_regs - 1 do
    let t_reg = bin m (fun f -> pf f "T_%d" r)
    and s_reg = bin m (fun f -> pf f "S_%d" r) in
    let b_reg = bin m (fun f -> pf f "B_%d" r)
    and c_reg = bin m (fun f -> pf f "C_%d" r) in
    for s = 0 to k - 1 do
      let t_rp = bin m (fun f -> pf f "Tp_%d_%d" r s)
      and s_rp = bin m (fun f -> pf f "Sp_%d_%d" r s) in
      let c_rp = bin m (fun f -> pf f "Cp_%d_%d" r s) in
      Hashtbl.iter
        (fun (r', _, _, s') v ->
          if r' = r && s' = s then begin
            Ilp.Model.add_ge m (lx [ (1, t_rp); (-1, v) ]) 0;
            Ilp.Model.add_ge m (lx [ (1, t_reg); (-1, v) ]) 0
          end)
        t_var;
      Hashtbl.iter
        (fun (_, r', s') v ->
          if r' = r && s' = s then begin
            Ilp.Model.add_ge m (lx [ (1, s_rp); (-1, v) ]) 0;
            Ilp.Model.add_ge m (lx [ (1, s_reg); (-1, v) ]) 0
          end)
        s_var;
      Ilp.Model.add_ge m (lx [ (1, c_rp); (-1, t_rp); (-1, s_rp) ]) (-1);
      Ilp.Model.add_ge m (lx [ (1, c_reg); (-1, c_rp) ]) 0
    done;
    Ilp.Model.add_ge m (lx [ (1, b_reg); (-1, t_reg); (-1, s_reg) ]) (-1);
    objective :=
      Ilp.Linexpr.add !objective
        (lx
           [
             (Datapath.Area.register Datapath.Area.Tpg - plain, t_reg);
             (Datapath.Area.register Datapath.Area.Sr - plain, s_reg);
             ( Datapath.Area.register Datapath.Area.Bilbo
               - Datapath.Area.register Datapath.Area.Tpg
               - Datapath.Area.register Datapath.Area.Sr + plain, b_reg );
             ( Datapath.Area.register Datapath.Area.Cbilbo
               - Datapath.Area.register Datapath.Area.Bilbo, c_reg );
           ])
  done;
  Ilp.Model.set_objective m !objective;
  let options = { Ilp.Solver.default with Ilp.Solver.time_limit } in
  let r = Ilp.Solver.solve ~options m in
  match (r.Ilp.Solver.status, r.Ilp.Solver.solution) with
  | Ilp.Solver.Infeasible, _ ->
      Error
        (Printf.sprintf "no feasible %d-session BIST plan for this data path" k)
  | Ilp.Solver.Unknown, _ | _, None -> Error "session optimization timed out"
  | (Ilp.Solver.Optimal | Ilp.Solver.Feasible), Some x ->
      let session_of_module = Array.make n_mod 0 in
      let sr_of_module = Array.make n_mod (-1) in
      for md = 0 to n_mod - 1 do
        for s = 0 to k - 1 do
          if x.(a.(md).(s)) = 1 then session_of_module.(md) <- s
        done;
        List.iter
          (fun r' ->
            for s = 0 to k - 1 do
              if x.(Hashtbl.find s_var (md, r', s)) = 1 then
                sr_of_module.(md) <- r'
            done)
          (writers md)
      done;
      let tpg_of_port =
        Array.init n_mod (fun md ->
            let fu = p.Dfg.Problem.modules.(md) in
            Array.init (Dfg.Fu_kind.n_ports fu) (fun l ->
                let found = ref (-1) in
                List.iter
                  (fun r' ->
                    for s = 0 to k - 1 do
                      if x.(Hashtbl.find t_var (r', md, l, s)) = 1 then
                        found := r'
                    done)
                  (feeders md l);
                !found))
      in
      Result.map
        (fun plan ->
          {
            plan;
            optimal = r.Ilp.Solver.status = Ilp.Solver.Optimal;
            nodes = r.Ilp.Solver.nodes;
            time_s = r.Ilp.Solver.time_s;
          })
        (Bist.Plan.make d ~k ~session_of_module ~sr_of_module ~tpg_of_port)
