let sanitize name =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
    | _ -> false
  in
  let b = Bytes.of_string name in
  let changed = ref false in
  Bytes.iteri
    (fun i c ->
      if not (ok c) then begin
        Bytes.set b i '_';
        changed := true
      end)
    b;
  let s = Bytes.to_string b in
  let s = if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "v_" ^ s else s in
  (s, !changed || s <> name)

let to_string m =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = Model.n_vars m in
  (* Unique sanitized names. *)
  let used = Hashtbl.create 97 in
  let names = Array.make n "" in
  let renamed = ref [] in
  for v = 0 to n - 1 do
    let base, changed = sanitize (Model.var_name m v) in
    let name =
      if Hashtbl.mem used base then Printf.sprintf "%s__%d" base v else base
    in
    Hashtbl.replace used name ();
    names.(v) <- name;
    if changed || name <> base then
      renamed := (Model.var_name m v, name) :: !renamed
  done;
  add "\\ %s\n" (Model.stats m);
  List.iter (fun (o, s) -> add "\\ renamed: %s -> %s\n" o s) (List.rev !renamed);
  let pp_expr e =
    let first = ref true in
    Linexpr.iter
      (fun ~coef ~var ->
        if !first then begin
          first := false;
          if coef = 1 then add "%s" names.(var)
          else if coef = -1 then add "- %s" names.(var)
          else add "%d %s" coef names.(var)
        end
        else if coef > 0 then
          if coef = 1 then add " + %s" names.(var)
          else add " + %d %s" coef names.(var)
        else if coef = -1 then add " - %s" names.(var)
        else add " - %d %s" (-coef) names.(var))
      e;
    if !first then add "0"
  in
  add "Minimize\n obj: ";
  pp_expr (Model.objective m);
  add "\nSubject To\n";
  Array.iteri
    (fun i (c : Model.constr) ->
      let cname, _ = sanitize (Model.constr_name i c) in
      add " %s: " cname;
      pp_expr c.Model.expr;
      let op =
        match c.Model.sense with
        | Model.Le -> "<="
        | Model.Ge -> ">="
        | Model.Eq -> "="
      in
      add " %s %d\n" op c.Model.rhs)
    (Model.constraints m);
  add "Bounds\n";
  for v = 0 to n - 1 do
    let lb, ub = Model.bounds m v in
    if not (Model.is_binary m v) then add " %d <= %s <= %d\n" lb names.(v) ub
  done;
  let binaries =
    List.filter (fun v -> Model.is_binary m v) (List.init n Fun.id)
  in
  if binaries <> [] then begin
    add "Binary\n";
    List.iter (fun v -> add " %s\n" names.(v)) binaries
  end;
  let generals =
    List.filter (fun v -> not (Model.is_binary m v)) (List.init n Fun.id)
  in
  if generals <> [] then begin
    add "General\n";
    List.iter (fun v -> add " %s\n" names.(v)) generals
  end;
  add "End\n";
  Buffer.contents buf

let to_file path m =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string m))
