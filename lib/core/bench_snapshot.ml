(* Bench snapshot file format (schema v6) and regression
   diffing.  The JSON parser below covers exactly the subset the
   snapshots use (objects, arrays, strings, numbers, booleans, null) —
   enough to round-trip our own files without a JSON dependency. *)

type row = {
  k : int;
  time_s : float;
  nodes : int;
  optimal : bool;
  area : int;
  overhead_pct : float;
  gap_pct : float;
  nodes_per_sec : float;
  phase_s : (string * float) list;
  waste_pct : float option;
  prune_shares : (string * float) list;
  conflicts : int;
  learned : int;
  deleted : int;
}

type circuit = {
  circuit : string;
  reference_area : int;
  reference_optimal : bool;
  wall_s : float;
  rows : row list;
}

type config = { cuts : bool; lp : string }

type t = {
  version : int;
  commit : string;
  budget_s : float;
  node_limit : int option;
  jobs : int;
  config : config;
  circuits : circuit list;
  total_wall_s : float;
}

(* ---------- JSON ---------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" lit)
  in
  let pstring () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape"
                   else begin
                     let code =
                       int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                     in
                     (* snapshots are ASCII; clamp the rest *)
                     Buffer.add_char buf
                       (if code < 128 then Char.chr code else '?');
                     pos := !pos + 4
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let pnumber () =
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec pvalue () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | '{' -> pobj ()
      | '[' -> parr ()
      | '"' -> Str (pstring ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> pnumber ()
      | c -> fail (Printf.sprintf "unexpected '%c'" c)
  and pobj () =
    expect '{';
    skip_ws ();
    if !pos < n && s.[!pos] = '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let key = pstring () in
        expect ':';
        let v = pvalue () in
        fields := (key, v) :: !fields;
        skip_ws ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go ()
        end
        else expect '}'
      in
      go ();
      Obj (List.rev !fields)
    end
  and parr () =
    expect '[';
    skip_ws ();
    if !pos < n && s.[!pos] = ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = pvalue () in
        items := v :: !items;
        skip_ws ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go ()
        end
        else expect ']'
      in
      go ();
      Arr (List.rev !items)
    end
  in
  let v = pvalue () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ---------- extraction ---------- *)

let field name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error (Printf.sprintf "expected object for %S" name))

let field_opt name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let as_num name = function
  | Num f -> f
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected number" name))

let as_int name v = int_of_float (as_num name v)

let as_str name = function
  | Str s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" name))

let as_bool name = function
  | Bool b -> b
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected bool" name))

let as_arr name = function
  | Arr l -> l
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected array" name))

let schema_version = function
  | "advbist-solver-bench/6" -> 6
  | s -> raise (Parse_error (Printf.sprintf "unknown schema %S" s))

(* Optional fields are exactly the ones the writer omits: [phase_s] when
   the row has no phase timings, [waste_pct] and [prune_shares] when it
   has no post-mortem, the conflict counters when all are zero. *)
let row_of_json j =
  {
    k = as_int "k" (field "k" j);
    time_s = as_num "time_s" (field "time_s" j);
    nodes = as_int "nodes" (field "nodes" j);
    optimal = as_bool "optimal" (field "optimal" j);
    area = as_int "area" (field "area" j);
    overhead_pct = as_num "overhead_pct" (field "overhead_pct" j);
    gap_pct = as_num "gap_pct" (field "gap_pct" j);
    nodes_per_sec = as_num "nodes_per_sec" (field "nodes_per_sec" j);
    phase_s =
      (match field_opt "phase_s" j with
      | Some (Obj fields) ->
          List.map (fun (name, v) -> (name, as_num name v)) fields
      | Some _ -> raise (Parse_error "phase_s: expected object")
      | None -> []);
    waste_pct =
      (match field_opt "waste_pct" j with
      | Some v -> Some (as_num "waste_pct" v)
      | None -> None);
    prune_shares =
      (match field_opt "prune_shares" j with
      | Some (Obj fields) ->
          List.map (fun (name, v) -> (name, as_num name v)) fields
      | Some _ -> raise (Parse_error "prune_shares: expected object")
      | None -> []);
    conflicts =
      (match field_opt "conflicts" j with
      | Some v -> as_int "conflicts" v
      | None -> 0);
    learned =
      (match field_opt "learned" j with
      | Some v -> as_int "learned" v
      | None -> 0);
    deleted =
      (match field_opt "deleted" j with
      | Some v -> as_int "deleted" v
      | None -> 0);
  }

let circuit_of_json j =
  {
    circuit = as_str "circuit" (field "circuit" j);
    reference_area = as_int "reference_area" (field "reference_area" j);
    reference_optimal = as_bool "reference_optimal" (field "reference_optimal" j);
    wall_s = as_num "wall_s" (field "wall_s" j);
    rows = List.map row_of_json (as_arr "rows" (field "rows" j));
  }

let config_of_json j =
  {
    cuts = as_bool "cuts" (field "cuts" j);
    lp = as_str "lp" (field "lp" j);
  }

let of_string s =
  try
    let j = parse_json s in
    Ok
      {
        version = schema_version (as_str "schema" (field "schema" j));
        commit = as_str "commit" (field "commit" j);
        budget_s = as_num "budget_s" (field "budget_s" j);
        node_limit = Option.map (as_int "node_limit") (field_opt "node_limit" j);
        jobs = as_int "jobs" (field "jobs" j);
        config = config_of_json (field "config" j);
        circuits = List.map circuit_of_json (as_arr "circuits" (field "circuits" j));
        total_wall_s = as_num "total_wall_s" (field "total_wall_s" j);
      }
  with
  | Parse_error msg -> Error msg
  | Failure msg -> Error msg

let of_file path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

(* ---------- rendering (always v6) ---------- *)

let to_string t =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"schema\": \"advbist-solver-bench/6\",\n";
  bpf "  \"commit\": %S,\n" t.commit;
  bpf "  \"budget_s\": %g,\n" t.budget_s;
  Option.iter (bpf "  \"node_limit\": %d,\n") t.node_limit;
  bpf "  \"jobs\": %d,\n" t.jobs;
  bpf "  \"config\": { \"cuts\": %b, \"lp\": %S },\n" t.config.cuts
    t.config.lp;
  bpf "  \"circuits\": [\n";
  List.iteri
    (fun ci c ->
      bpf
        "    { \"circuit\": %S, \"reference_area\": %d, \
         \"reference_optimal\": %b, \"wall_s\": %.3f,\n"
        c.circuit c.reference_area c.reference_optimal c.wall_s;
      bpf "      \"rows\": [\n";
      List.iteri
        (fun ri r ->
          bpf
            "        { \"k\": %d, \"time_s\": %.3f, \"nodes\": %d, \
             \"optimal\": %b, \"area\": %d, \"overhead_pct\": %.2f, \
             \"gap_pct\": %.2f, \"nodes_per_sec\": %.1f"
            r.k r.time_s r.nodes r.optimal r.area r.overhead_pct r.gap_pct
            r.nodes_per_sec;
          (match r.phase_s with
          | [] -> ()
          | phases ->
              bpf ",\n          \"phase_s\": { %s }"
                (String.concat ", "
                   (List.map
                      (fun (name, v) -> Printf.sprintf "%S: %.3f" name v)
                      phases)));
          (match r.waste_pct with
          | Some w -> bpf ",\n          \"waste_pct\": %.2f" w
          | None -> ());
          (* Post-mortem rows always carry the map — an explicit empty
             object on zero-prune rows, so readers never have to guess
             whether absence means "no prunes" or "no post-mortem". *)
          (if r.waste_pct <> None || r.prune_shares <> [] then
             bpf ",\n          \"prune_shares\": {%s}"
               (match r.prune_shares with
               | [] -> ""
               | shares ->
                   Printf.sprintf " %s "
                     (String.concat ", "
                        (List.map
                           (fun (name, v) -> Printf.sprintf "%S: %.2f" name v)
                           shares))));
          (if r.conflicts <> 0 || r.learned <> 0 || r.deleted <> 0 then
             bpf
               ",\n          \"conflicts\": %d, \"learned\": %d, \
                \"deleted\": %d"
               r.conflicts r.learned r.deleted);
          bpf " }%s\n" (if ri < List.length c.rows - 1 then "," else " ]"))
        c.rows;
      bpf "    }%s\n" (if ci < List.length t.circuits - 1 then "," else ""))
    t.circuits;
  bpf "  ],\n";
  bpf "  \"total_wall_s\": %.3f\n" t.total_wall_s;
  bpf "}\n";
  Buffer.contents buf

(* ---------- diffing ---------- *)

type severity = Fail | Warn

type finding = {
  severity : severity;
  circuit : string;
  k : int option;
  what : string;
}

let pct_change ~from ~to_ =
  if from = 0.0 then if to_ = 0.0 then 0.0 else infinity
  else 100.0 *. (to_ -. from) /. from

(* Phase timings as shares of their own sum, so the comparison is about
   where the time went, not how much there was (absolute time already
   has its own check). *)
let phase_shares phases =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 phases in
  if total <= 0.0 then []
  else List.map (fun (name, v) -> (name, 100.0 *. v /. total)) phases

let diff_row ~circuit (b : row) (c : row) =
  let findings = ref [] in
  let add severity what = findings := { severity; circuit; k = Some b.k; what } :: !findings in
  if c.area > b.area then
    add Fail (Printf.sprintf "area regression: %d -> %d" b.area c.area);
  if b.optimal && not c.optimal then
    add Fail
      (Printf.sprintf "lost optimality (was proven optimal at area %d)" b.area);
  (* Node counts are only comparable between finished searches: on a
     budget-limited row the count is machine throughput, not tree size. *)
  let node_pct = pct_change ~from:(float_of_int b.nodes) ~to_:(float_of_int c.nodes) in
  if b.optimal && c.optimal && Float.abs node_pct > 20.0 then begin
    (* Localize the tree-size move to the pruning machinery whose share
       of the closed nodes shifted most (rows with a post-mortem): a smaller
       probed share with a bigger cutoff share says probing refuted fewer
       nodes, not that propagation broke. *)
    let attribution =
      match (b.prune_shares, c.prune_shares) with
      | [], _ | _, [] -> ""
      | bs, cs ->
          let reasons =
            List.sort_uniq compare (List.map fst bs @ List.map fst cs)
          in
          let share l r = Option.value ~default:0.0 (List.assoc_opt r l) in
          let best =
            List.fold_left
              (fun acc r ->
                let d = share cs r -. share bs r in
                match acc with
                | Some (_, d') when Float.abs d' >= Float.abs d -> acc
                | _ -> Some (r, d))
              None reasons
          in
          (match best with
          | Some (r, d) when Float.abs d > 1.0 ->
              Printf.sprintf "; %s share %.0f%% -> %.0f%%" r (share bs r)
                (share cs r)
          | Some _ | None -> "")
    in
    add Warn
      (Printf.sprintf "node count moved %+.0f%% (%d -> %d)%s" node_pct b.nodes
         c.nodes attribution)
  end;
  (* Wasted work: more of the tree opened above the final incumbent
     means the warm start / early incumbents got worse. *)
  (match (b.waste_pct, c.waste_pct) with
  | Some bw, Some cw when cw -. bw > 10.0 ->
      add Warn
        (Printf.sprintf "wasted work grew %.1f%% -> %.1f%% of nodes" bw cw)
  | _ -> ());
  if c.gap_pct -. b.gap_pct > 2.0 then
    add Warn
      (Printf.sprintf "gap grew %.2f -> %.2f points" b.gap_pct c.gap_pct);
  (* Conflict density: conflicts per node is how often propagation
     runs into a dead end.  A jump says branching or the learned-clause
     database got worse at steering the dive — only comparable when the
     baseline measured a nonzero rate (rows without counters read 0). *)
  (let cpn (r : row) =
     if r.nodes > 0 then float_of_int r.conflicts /. float_of_int r.nodes
     else 0.0
   in
   let bcpn = cpn b and ccpn = cpn c in
   if bcpn > 0.0 && pct_change ~from:bcpn ~to_:ccpn > 20.0 then
     add Warn
       (Printf.sprintf
          "conflicts per node grew %.3f -> %.3f (%+.0f%%; %d -> %d conflicts)"
          bcpn ccpn
          (pct_change ~from:bcpn ~to_:ccpn)
          b.conflicts c.conflicts));
  if
    c.time_s -. b.time_s > 0.1
    && pct_change ~from:b.time_s ~to_:c.time_s > 20.0
  then
    add Warn (Printf.sprintf "solve time %.3fs -> %.3fs" b.time_s c.time_s);
  (* Node throughput: the machine-speed check that complements the
     tree-size check above.  Only meaningful when both rows ran long
     enough for the rate to be a rate, and the baseline measured one. *)
  if
    b.time_s >= 0.05 && c.time_s >= 0.05 && b.nodes_per_sec > 0.0
    && pct_change ~from:b.nodes_per_sec ~to_:c.nodes_per_sec < -20.0
  then
    add Warn
      (Printf.sprintf "node throughput %.0f -> %.0f nodes/s (%+.0f%%)"
         b.nodes_per_sec c.nodes_per_sec
         (pct_change ~from:b.nodes_per_sec ~to_:c.nodes_per_sec));
  (match (phase_shares b.phase_s, phase_shares c.phase_s) with
  | [], _ | _, [] -> ()
  | bs, cs ->
      List.iter
        (fun (name, bshare) ->
          match List.assoc_opt name cs with
          | Some cshare when Float.abs (cshare -. bshare) > 10.0 ->
              add Warn
                (Printf.sprintf "phase %s share %.0f%% -> %.0f%%" name bshare
                   cshare)
          | Some _ | None -> ())
        bs);
  List.rev !findings

let diff_circuit (b : circuit) (c : circuit) =
  let findings = ref [] in
  let add severity k what =
    findings := { severity; circuit = b.circuit; k; what } :: !findings
  in
  if c.reference_area > b.reference_area then
    add Fail None
      (Printf.sprintf "reference area regression: %d -> %d" b.reference_area
         c.reference_area);
  if b.reference_optimal && not c.reference_optimal then
    add Fail None "reference lost optimality";
  List.iter
    (fun (br : row) ->
      match List.find_opt (fun (cr : row) -> cr.k = br.k) c.rows with
      | None -> add Fail (Some br.k) "row missing from current snapshot"
      | Some cr -> findings := List.rev_append (diff_row ~circuit:b.circuit br cr) !findings)
    b.rows;
  List.iter
    (fun (cr : row) ->
      if not (List.exists (fun (br : row) -> br.k = cr.k) b.rows) then
        add Warn (Some cr.k) "row not present in baseline")
    c.rows;
  List.rev !findings

let diff ~baseline ~current =
  let findings = ref [] in
  List.iter
    (fun (b : circuit) ->
      match
        List.find_opt
          (fun (c : circuit) -> c.circuit = b.circuit)
          current.circuits
      with
      | None ->
          findings :=
            {
              severity = Fail;
              circuit = b.circuit;
              k = None;
              what = "circuit missing from current snapshot";
            }
            :: !findings
      | Some c -> findings := List.rev_append (diff_circuit b c) !findings)
    baseline.circuits;
  List.iter
    (fun (c : circuit) ->
      if
        not
          (List.exists
             (fun (b : circuit) -> b.circuit = c.circuit)
             baseline.circuits)
      then
        findings :=
          {
            severity = Warn;
            circuit = c.circuit;
            k = None;
            what = "circuit not present in baseline";
          }
          :: !findings)
    current.circuits;
  let ordered = List.rev !findings in
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Fail -> 0 | Warn -> 1)
        (match b.severity with Fail -> 0 | Warn -> 1))
    ordered

let has_failures findings =
  List.exists (fun f -> f.severity = Fail) findings

let render_report ~baseline ~current findings =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "bench diff: baseline %s (budget %gs) vs current %s (budget %gs)\n"
    baseline.commit baseline.budget_s current.commit current.budget_s;
  if
    baseline.budget_s <> current.budget_s
    || baseline.node_limit <> current.node_limit
  then
    bpf "  note: budgets differ; time and node comparisons are not meaningful\n";
  let fails = List.filter (fun f -> f.severity = Fail) findings in
  let warns = List.filter (fun f -> f.severity = Warn) findings in
  List.iter
    (fun f ->
      bpf "  %s %s%s: %s\n"
        (match f.severity with Fail -> "FAIL" | Warn -> "warn")
        f.circuit
        (match f.k with Some k -> Printf.sprintf " k=%d" k | None -> "")
        f.what)
    findings;
  bpf "%s: %d failure%s, %d warning%s\n"
    (if fails = [] then "PASS" else "FAIL")
    (List.length fails)
    (if List.length fails = 1 then "" else "s")
    (List.length warns)
    (if List.length warns = 1 then "" else "s");
  Buffer.contents buf
