let lx = Ilp.Linexpr.of_list

(* Distinct unit kinds with capacities, and the class of each node. *)
let classify (k : Kernel.t) modules =
  let kinds =
    List.fold_left
      (fun acc fu ->
        if List.exists (fun (g, _) -> Dfg.Fu_kind.equal g fu) acc then
          List.map
            (fun (g, c) ->
              if Dfg.Fu_kind.equal g fu then (g, c + 1) else (g, c))
            acc
        else acc @ [ (fu, 1) ])
      [] modules
  in
  let cls =
    Array.map
      (fun node ->
        let rec find i = function
          | [] -> None
          | (fu, _) :: rest ->
              if Dfg.Fu_kind.supports fu node.Kernel.kind then Some i
              else find (i + 1) rest
        in
        find 0 kinds)
      k.Kernel.nodes
  in
  (kinds, cls)

let preds (k : Kernel.t) i =
  let n = k.Kernel.nodes.(i) in
  List.filter_map
    (function Kernel.Ref j -> Some j | Kernel.Input _ | Kernel.Const _ -> None)
    [ n.Kernel.a; n.Kernel.b ]

let feasible ?time_limit ?inputs_at_start (k : Kernel.t) ~modules ~latency =
  let n = Kernel.n_ops k in
  let kinds, cls = classify k modules in
  if Array.exists Option.is_none cls then
    Error "an operation kind has no supporting module"
  else if latency < Schedule.critical_path k then Ok None
  else begin
    let asap = Schedule.asap k in
    let alap = Schedule.alap k ~latency in
    let m = Ilp.Model.create ~name:"schedule" () in
    let x =
      Array.init n (fun o ->
          Array.init latency (fun t ->
              if t >= asap.(o) && t <= alap.(o) then
                Ilp.Model.var m ~lb:0 ~ub:1 (fun f ->
                    Format.fprintf f "x_%d_%d" o t)
              else -1))
    in
    let window o = List.filter (fun t -> x.(o).(t) >= 0) (List.init latency Fun.id) in
    let start_expr o = lx (List.map (fun t -> (t, x.(o).(t))) (window o)) in
    for o = 0 to n - 1 do
      Ilp.Model.add_eq m (lx (List.map (fun t -> (1, x.(o).(t))) (window o))) 1;
      List.iter
        (fun o' ->
          Ilp.Model.add_ge m
            (Ilp.Linexpr.sub (start_expr o) (start_expr o'))
            1)
        (preds k o)
    done;
    List.iteri
      (fun c (_, cap) ->
        for t = 0 to latency - 1 do
          let users =
            List.filter_map
              (fun o ->
                if cls.(o) = Some c && x.(o).(t) >= 0 then Some (1, x.(o).(t))
                else None)
              (List.init n Fun.id)
          in
          if List.length users > cap then Ilp.Model.add_le m (lx users) cap
        done)
      kinds;
    let options = { Ilp.Solver.default with Ilp.Solver.time_limit } in
    let r = Ilp.Solver.solve ~options m in
    match (r.Ilp.Solver.status, r.Ilp.Solver.solution) with
    | Ilp.Solver.Infeasible, _ -> Ok None
    | (Ilp.Solver.Optimal | Ilp.Solver.Feasible), Some sol ->
        let steps =
          Array.init n (fun o ->
              let found = ref (-1) in
              List.iter (fun t -> if sol.(x.(o).(t)) = 1 then found := t) (window o);
              !found)
        in
        Result.map Option.some
          (Schedule.of_steps ?inputs_at_start k ~steps ~modules)
    | (Ilp.Solver.Unknown | Ilp.Solver.Optimal | Ilp.Solver.Feasible), _ ->
        Error "scheduling ILP hit its limit before a proof"
  end

let min_latency ?(time_limit = 10.0) ?inputs_at_start (k : Kernel.t) ~modules =
  let cp = Schedule.critical_path k in
  let cap = cp + Kernel.n_ops k in
  let rec go latency =
    if latency > cap then Error "no feasible schedule within the latency cap"
    else
      match feasible ~time_limit ?inputs_at_start k ~modules ~latency with
      | Ok (Some p) -> Ok p
      | Ok None -> go (latency + 1)
      | Error msg -> Error msg
  in
  go cp
