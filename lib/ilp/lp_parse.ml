type parsed = { model : Model.t; negated : bool }

type token =
  | Ident of string
  | Int of int
  | Plus
  | Minus
  | Le
  | Ge
  | EqT
  | Colon

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let err msg = Error (Printf.sprintf "lp: %s (at offset %d)" msg !i) in
  let is_ident_start c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '.' -> true
    | _ -> false
  in
  let is_ident_char c =
    is_ident_start c || (c >= '0' && c <= '9') || c = '[' || c = ']' || c = ','
  in
  let rec loop () =
    if !i >= n then Ok (List.rev !toks)
    else
      match s.[!i] with
      | ' ' | '\t' | '\r' | '\n' ->
          incr i;
          loop ()
      | '\\' ->
          (* comment to end of line *)
          while !i < n && s.[!i] <> '\n' do
            incr i
          done;
          loop ()
      | '+' ->
          incr i;
          toks := Plus :: !toks;
          loop ()
      | '-' ->
          incr i;
          toks := Minus :: !toks;
          loop ()
      | ':' ->
          incr i;
          toks := Colon :: !toks;
          loop ()
      | '<' ->
          incr i;
          if !i < n && s.[!i] = '=' then incr i;
          toks := Le :: !toks;
          loop ()
      | '>' ->
          incr i;
          if !i < n && s.[!i] = '=' then incr i;
          toks := Ge :: !toks;
          loop ()
      | '=' ->
          incr i;
          (* '=<' and '=>' are legal LP synonyms *)
          if !i < n && s.[!i] = '<' then begin
            incr i;
            toks := Le :: !toks
          end
          else if !i < n && s.[!i] = '>' then begin
            incr i;
            toks := Ge :: !toks
          end
          else toks := EqT :: !toks;
          loop ()
      | '0' .. '9' ->
          let start = !i in
          while !i < n && (match s.[!i] with '0' .. '9' -> true | _ -> false) do
            incr i
          done;
          if !i < n && (s.[!i] = '.' || s.[!i] = 'e' || s.[!i] = 'E') then
            err "fractional coefficients are not supported"
          else begin
            match int_of_string_opt (String.sub s start (!i - start)) with
            | Some v ->
                toks := Int v :: !toks;
                loop ()
            | None -> err "integer literal out of range"
          end
      | c when is_ident_start c ->
          let start = !i in
          while !i < n && is_ident_char s.[!i] do
            incr i
          done;
          toks := Ident (String.sub s start (!i - start)) :: !toks;
          loop ()
      | c -> err (Printf.sprintf "unexpected character %C" c)
  in
  loop ()

let lower = String.lowercase_ascii

let keywords =
  [ "minimize"; "min"; "minimise"; "maximize"; "max"; "maximise"; "subject";
    "st"; "s.t."; "such"; "to"; "bounds"; "bound"; "binary"; "binaries";
    "bin"; "general"; "generals"; "gen"; "integer"; "integers"; "end" ]

let is_keyword name = List.mem (lower name) keywords

(* Split the token stream into sections keyed by the LP keywords. *)
type section = Objective of bool (* negated *) | Rows | Bnds | Bins | Gens

let of_string s =
  let ( let* ) r f = Result.bind r f in
  let* toks = tokenize s in
  (* walk tokens, tracking section *)
  let vars : (string, unit) Hashtbl.t = Hashtbl.create 97 in
  let bounds : (string, int option * int option) Hashtbl.t = Hashtbl.create 97 in
  let binaries : (string, unit) Hashtbl.t = Hashtbl.create 97 in
  let obj_terms = ref [] in
  let rows = ref [] in
  let negated = ref false in
  let err msg = Error ("lp: " ^ msg) in
  (* expression parser: returns (terms, rest); stops at section keywords *)
  let rec parse_expr acc sign coef toks =
    match toks with
    | Plus :: rest -> parse_expr acc 1 None rest
    | Minus :: rest -> parse_expr acc (-1) None rest
    | Int c :: rest -> (
        match coef with
        | None -> parse_expr acc sign (Some c) rest
        | Some _ -> (List.rev acc, toks))
    | Ident name :: _ when is_keyword name -> (List.rev acc, toks)
    | Ident name :: rest ->
        Hashtbl.replace vars name ();
        let c = sign * Option.value coef ~default:1 in
        parse_expr ((c, name) :: acc) 1 None rest
    | (Le | Ge | EqT | Colon) :: _ | [] -> (List.rev acc, toks)
  in
  let rec go section toks =
    match toks with
    | [] -> Ok ()
    | Ident kw :: rest when lower kw = "end" && rest = [] -> Ok ()
    | Ident kw :: rest -> (
        match lower kw with
        | "minimize" | "min" | "minimise" -> go (Objective false) rest
        | "maximize" | "max" | "maximise" ->
            negated := true;
            go (Objective true) rest
        | "subject" -> (
            match rest with
            | Ident to_kw :: rest' when lower to_kw = "to" -> go Rows rest'
            | _ -> err "expected 'to' after 'subject'")
        | "st" | "s.t." | "such" -> go Rows rest
        | "bounds" | "bound" -> go Bnds rest
        | "binary" | "binaries" | "bin" -> go Bins rest
        | "general" | "generals" | "gen" | "integer" | "integers" ->
            go Gens rest
        | "end" -> Ok ()
        | _ -> parse_item section toks)
    | _ -> parse_item section toks
  and parse_item section toks =
    match section with
    | Objective neg -> (
        (* optional label *)
        let toks =
          match toks with
          | Ident _ :: Colon :: rest -> rest
          | _ -> toks
        in
        let terms, rest = parse_expr [] 1 None toks in
        let terms =
          if neg then List.map (fun (c, v) -> (-c, v)) terms else terms
        in
        obj_terms := !obj_terms @ terms;
        match rest with
        | (Le | Ge | EqT) :: _ -> err "relation in the objective"
        | Colon :: _ -> err "unexpected ':' in the objective"
        | Int _ :: _ -> err "dangling number in the objective"
        | (Plus | Minus | Ident _) :: _ | [] ->
            if rest == toks then err "empty objective item" else go section rest)
    | Rows -> (
        let toks =
          match toks with
          | Ident _ :: Colon :: rest -> rest
          | _ -> toks
        in
        let terms, rest = parse_expr [] 1 None toks in
        match rest with
        | Le :: more | Ge :: more | EqT :: more -> (
            let sense =
              match rest with
              | Le :: _ -> Model.Le
              | Ge :: _ -> Model.Ge
              | _ -> Model.Eq
            in
            match more with
            | Int rhs :: rest' ->
                rows := (terms, sense, rhs) :: !rows;
                go section rest'
            | Minus :: Int rhs :: rest' ->
                rows := (terms, sense, -rhs) :: !rows;
                go section rest'
            | _ -> err "expected integer right-hand side")
        | _ ->
            if terms = [] then err "empty constraint"
            else err "constraint without relation")
    | Bnds -> (
        (* forms: l <= x <= u | x <= u | x >= l | x = v, with signs *)
        let int_tok toks =
          match toks with
          | Int v :: rest -> Some (v, rest)
          | Minus :: Int v :: rest -> Some (-v, rest)
          | Plus :: Int v :: rest -> Some (v, rest)
          | _ -> None
        in
        match int_tok toks with
        | Some (l, Le :: Ident x :: Le :: rest) -> (
            Hashtbl.replace vars x ();
            match int_tok rest with
            | Some (u, rest') ->
                Hashtbl.replace bounds x (Some l, Some u);
                go section rest'
            | None -> err "bad bounds line")
        | Some _ -> err "bad bounds line"
        | None -> (
            match toks with
            | Ident x :: Le :: rest -> (
                Hashtbl.replace vars x ();
                match int_tok rest with
                | Some (u, rest') ->
                    let l, _ =
                      Option.value (Hashtbl.find_opt bounds x)
                        ~default:(None, None)
                    in
                    Hashtbl.replace bounds x (l, Some u);
                    go section rest'
                | None -> err "bad bounds line")
            | Ident x :: Ge :: rest -> (
                Hashtbl.replace vars x ();
                match int_tok rest with
                | Some (l, rest') ->
                    let _, u =
                      Option.value (Hashtbl.find_opt bounds x)
                        ~default:(None, None)
                    in
                    Hashtbl.replace bounds x (Some l, u);
                    go section rest'
                | None -> err "bad bounds line")
            | Ident x :: EqT :: rest -> (
                Hashtbl.replace vars x ();
                match int_tok rest with
                | Some (v, rest') ->
                    Hashtbl.replace bounds x (Some v, Some v);
                    go section rest'
                | None -> err "bad bounds line")
            | _ -> err "bad bounds line"))
    | Bins -> (
        match toks with
        | Ident x :: rest when not (is_keyword x) ->
            Hashtbl.replace vars x ();
            Hashtbl.replace binaries x ();
            go section rest
        | _ -> err "expected variable name in Binary section")
    | Gens -> (
        match toks with
        | Ident x :: rest when not (is_keyword x) ->
            Hashtbl.replace vars x ();
            go section rest
        | _ -> err "expected variable name in General section")
  in
  let* () =
    match toks with
    | Ident kw :: _ when List.mem (lower kw)
        [ "minimize"; "min"; "minimise"; "maximize"; "max"; "maximise" ] ->
        go Rows toks (* go will re-dispatch on the keyword *)
    | _ -> err "LP file must start with Minimize or Maximize"
  in
  (* build the model: stable variable order = first appearance order is lost
     in the hashtable; sort names for determinism *)
  let names = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) vars []) in
  let default_ub = 1_000_000 in
  let domain name =
    if Hashtbl.mem binaries name then (0, 1)
    else
      match Hashtbl.find_opt bounds name with
      | Some (l, u) ->
          (Option.value l ~default:0, Option.value u ~default:default_ub)
      | None -> (0, default_ub)
  in
  let* () =
    match
      List.find_map
        (fun name ->
          let lb, ub = domain name in
          if lb <= ub then None
          else Some (Printf.sprintf "empty bounds %d <= %s <= %d" lb name ub))
        names
    with
    | Some msg -> err msg
    | None -> Ok ()
  in
  let model = Model.create ~name:"lp" () in
  let index = Hashtbl.create 97 in
  List.iter
    (fun name ->
      let lb, ub = domain name in
      Hashtbl.replace index name (Model.int_var model ~lb ~ub name))
    names;
  let to_expr terms =
    Linexpr.of_list
      (List.map (fun (c, name) -> (c, Hashtbl.find index name)) terms)
  in
  Model.set_objective model (to_expr !obj_terms);
  List.iter
    (fun (terms, sense, rhs) -> Model.add model (to_expr terms) sense rhs)
    (List.rev !rows);
  Ok { model; negated = !negated }

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
