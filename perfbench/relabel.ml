(* Seeded isomorphic relabeling of a problem instance.

   A relabeled copy permutes the operation ids, the variable ids and the
   module order of a circuit.  The copy is the same circuit, so every
   optimum is unchanged, but the solver's search path is not: a change
   cannot be tuned to one path when each seed gives another.  Seed 0 is
   the identity, so it measures the circuits exactly as they ship. *)

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let inverse perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) perm;
  inv

(* [ops.(o)], [vars.(v)] and [modules.(m)] are the new ids of the old
   operation [o], variable [v] and module [m]. *)
let apply ~ops ~vars ~modules (p : Dfg.Problem.t) =
  let g = p.Dfg.Problem.dfg in
  let operand = function
    | Dfg.Graph.Var v -> Dfg.Graph.Var vars.(v)
    | Dfg.Graph.Const _ as c -> c
  in
  let operations =
    Array.map
      (fun o ->
        let op = Dfg.Graph.operation g o in
        {
          op with
          Dfg.Graph.inputs = Array.map operand op.Dfg.Graph.inputs;
          output = vars.(op.Dfg.Graph.output);
        })
      (inverse ops)
  in
  let variables =
    Array.map
      (fun v ->
        let var = Dfg.Graph.variable g v in
        match var.Dfg.Graph.def with
        | Dfg.Graph.Primary_input -> var
        | Dfg.Graph.Output_of o -> { var with def = Dfg.Graph.Output_of ops.(o) })
      (inverse vars)
  in
  match
    Dfg.Graph.v ~inputs_at_start:g.Dfg.Graph.inputs_at_start
      ~name:g.Dfg.Graph.name ~n_steps:g.Dfg.Graph.n_steps variables operations
  with
  | Error errs -> Error (String.concat "; " errs)
  | Ok g' ->
      Dfg.Problem.make g'
        (Array.to_list
           (Array.map (fun m -> p.Dfg.Problem.modules.(m)) (inverse modules)))

(* [copy] numbers the copies of one circuit that one seed makes. *)
let relabel ~seed ~copy ~name (p : Dfg.Problem.t) =
  if seed = 0 then Ok p
  else
    (* the circuit name joins the seed, so the circuits of one workload
       get independent permutations *)
    let rng = Random.State.make [| seed; copy; Hashtbl.hash name |] in
    let g = p.Dfg.Problem.dfg in
    let ops = permutation rng (Dfg.Graph.n_ops g) in
    let vars = permutation rng (Dfg.Graph.n_vars g) in
    let modules = permutation rng (Dfg.Problem.n_modules p) in
    apply ~ops ~vars ~modules p

(* The sorted operation kinds of a circuit: a relabeling keeps them. *)
let op_kinds (p : Dfg.Problem.t) =
  let g = p.Dfg.Problem.dfg in
  List.sort Dfg.Op_kind.compare
    (List.init (Dfg.Graph.n_ops g) (fun o ->
         (Dfg.Graph.operation g o).Dfg.Graph.kind))
