let ( let* ) r f = Result.bind r f

(* Decoding context: variable names to ids, in declaration order. *)
type ctx = {
  mutable names : (string * int) list;
  mutable vars : Graph.variable list;  (* reversed *)
  mutable count : int;
}

let declare ctx name def =
  if List.mem_assoc name ctx.names then
    Error (Printf.sprintf "variable %S declared twice" name)
  else begin
    let id = ctx.count in
    ctx.names <- (name, id) :: ctx.names;
    ctx.vars <- { Graph.var_name = name; def } :: ctx.vars;
    ctx.count <- id + 1;
    Ok id
  end

let operand ctx sexp =
  let* a = Sexpr.atom sexp in
  if String.length a > 1 && a.[0] = '#' then
    match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
    | Some c -> Ok (Graph.Const c)
    | None -> Error (Printf.sprintf "bad constant %S" a)
  else
    match List.assoc_opt a ctx.names with
    | Some id -> Ok (Graph.Var id)
    | None -> Error (Printf.sprintf "unknown variable %S" a)

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect f rest in
      Ok (y :: ys)

let decode_op ctx ~op_index items =
  let* kind_sexp =
    match items with
    | k :: _ -> Ok k
    | [] -> Error "empty (op ...) entry"
  in
  let* kind_name = Sexpr.atom kind_sexp in
  let* kind =
    match Op_kind.of_name kind_name with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown op kind %S" kind_name)
  in
  let fields = List.tl items in
  let* step_items = Sexpr.assoc "step" fields in
  let* step =
    match step_items with
    | [ s ] -> Sexpr.int_atom s
    | _ -> Error "(step ...) takes one integer"
  in
  let* in_items = Sexpr.assoc "in" fields in
  let* inputs = collect (operand ctx) in_items in
  let* out_items = Sexpr.assoc "out" fields in
  let* out_name =
    match out_items with
    | [ s ] -> Sexpr.atom s
    | _ -> Error "(out ...) takes one variable name"
  in
  let* out_id = declare ctx out_name (Graph.Output_of op_index) in
  Ok { Graph.kind; step; inputs = Array.of_list inputs; output = out_id }

let of_string s =
  let* sexps = Sexpr.parse_string s in
  let* body =
    match sexps with
    | [ Sexpr.List (Sexpr.Atom "dfg" :: body) ] -> Ok body
    | _ -> Error "expected a single (dfg ...) form"
  in
  let* name_items = Sexpr.assoc "name" body in
  let* name =
    match name_items with
    | [ s ] -> Sexpr.atom s
    | _ -> Error "(name ...) takes one atom"
  in
  let ctx = { names = []; vars = []; count = 0 } in
  let* input_items =
    match Sexpr.assoc_opt "inputs" body with Some l -> Ok l | None -> Ok []
  in
  let* (_ : int list) =
    collect
      (fun s ->
        let* n = Sexpr.atom s in
        declare ctx n Graph.Primary_input)
      input_items
  in
  let op_forms =
    List.filter_map
      (function
        | Sexpr.List (Sexpr.Atom "op" :: tail) -> Some tail
        | Sexpr.Atom _ | Sexpr.List _ -> None)
      body
  in
  let rec decode_ops i = function
    | [] -> Ok []
    | items :: rest ->
        let* op = decode_op ctx ~op_index:i items in
        let* ops = decode_ops (i + 1) rest in
        Ok (op :: ops)
  in
  let inputs_at_start = Sexpr.assoc_opt "inputs-at-start" body <> None in
  let* ops = decode_ops 0 op_forms in
  let n_steps =
    1 + List.fold_left (fun acc (op : Graph.operation) -> max acc op.step) 0 ops
  in
  let n_ops = List.length ops in
  let* () =
    if n_steps <= max 1 n_ops then Ok ()
    else
      Error
        (Printf.sprintf
           "op at step %d leaves a control step idle (%d steps for %d ops)"
           (n_steps - 1) n_steps n_ops)
  in
  let variables = Array.of_list (List.rev ctx.vars) in
  match Graph.v ~inputs_at_start ~name ~n_steps variables (Array.of_list ops) with
  | Ok g -> Ok g
  | Error errs -> Error (String.concat "; " errs)

let to_string g =
  let buf = Buffer.create 256 in
  let name_of = function
    | Graph.Var v -> (Graph.variable g v).Graph.var_name
    | Graph.Const c -> Printf.sprintf "#%d" c
  in
  Buffer.add_string buf (Printf.sprintf "(dfg\n (name %s)\n" g.Graph.name);
  if g.Graph.inputs_at_start then Buffer.add_string buf " (inputs-at-start)\n";
  let inputs = Graph.primary_inputs g in
  if inputs <> [] then begin
    Buffer.add_string buf " (inputs";
    List.iter
      (fun v ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Graph.variable g v).Graph.var_name)
      inputs;
    Buffer.add_string buf ")\n"
  end;
  Array.iter
    (fun (op : Graph.operation) ->
      Buffer.add_string buf
        (Printf.sprintf " (op %s (step %d) (in %s %s) (out %s))\n"
           (Op_kind.name op.kind) op.step
           (name_of op.inputs.(0))
           (name_of op.inputs.(1))
           (Graph.variable g op.output).Graph.var_name))
    g.Graph.operations;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let to_file path g = Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc (to_string g))
