type orbit =
  | Scalar of int array
  | Blocks of int array array

let size = function
  | Scalar vs -> Array.length vs
  | Blocks cols -> Array.length cols

let vars = function
  | Scalar vs -> Array.to_list vs
  | Blocks cols -> Array.to_list (Array.concat (Array.to_list cols))

(* Preprocessed view in flat int arrays: every constraint's terms sorted
   by variable (CSR over rows, with per-row sense code and rhs), and each
   variable's occurrences with its coefficient there (CSR over variables,
   rows ascending). *)
type ctx = {
  n : int;
  objc : int array;
  lbs : int array;
  ubs : int array;
  sense : int array;
  rhs : int array;
  row_start : int array;  (* row i's terms: [row_start.(i), row_start.(i+1)) *)
  row_var : int array;
  row_coef : int array;
  occ_start : int array;  (* var v's occurrences: [occ_start.(v), occ_start.(v+1)) *)
  occ_row : int array;
  occ_coef : int array;
}

let sense_code = function Model.Le -> 0 | Model.Ge -> 1 | Model.Eq -> 2

(* Sort terms by variable and merge duplicates (a Linexpr may in principle
   carry a variable twice; the canonical form must not). *)
let canon_terms terms =
  let a = Array.of_list terms in
  Array.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) a;
  let out = ref [] in
  Array.iter
    (fun (v, c) ->
      match !out with
      | (v', c') :: rest when v' = v -> out := (v, c + c') :: rest
      | _ -> out := (v, c) :: !out)
    a;
  Array.of_list (List.rev (List.filter (fun (_, c) -> c <> 0) !out))

let make_ctx model =
  let n = Model.n_vars model in
  let objc = Array.make (max n 1) 0 in
  List.iter (fun (a, v) -> objc.(v) <- a) (Linexpr.terms (Model.objective model));
  let lbs = Array.make (max n 1) 0 and ubs = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    let l, u = Model.bounds model v in
    lbs.(v) <- l;
    ubs.(v) <- u
  done;
  let cons = Model.constraints model in
  let m = Array.length cons in
  let terms =
    Array.map
      (fun (c : Model.constr) ->
        canon_terms
          (List.map (fun (a, v) -> (v, a)) (Linexpr.terms c.Model.expr)))
      cons
  in
  let row_start = Array.make (m + 1) 0 in
  Array.iteri (fun i t -> row_start.(i + 1) <- row_start.(i) + Array.length t) terms;
  let nnz = row_start.(m) in
  let row_var = Array.make nnz 0 and row_coef = Array.make nnz 0 in
  let occ_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j (v, c) ->
          row_var.(row_start.(i) + j) <- v;
          row_coef.(row_start.(i) + j) <- c;
          occ_start.(v + 1) <- occ_start.(v + 1) + 1)
        t)
    terms;
  for v = 0 to n - 1 do
    occ_start.(v + 1) <- occ_start.(v + 1) + occ_start.(v)
  done;
  let fill = Array.sub occ_start 0 (max n 1) in
  let occ_row = Array.make nnz 0 and occ_coef = Array.make nnz 0 in
  for i = 0 to m - 1 do
    for t = row_start.(i) to row_start.(i + 1) - 1 do
      let v = row_var.(t) in
      occ_row.(fill.(v)) <- i;
      occ_coef.(fill.(v)) <- row_coef.(t);
      fill.(v) <- fill.(v) + 1
    done
  done;
  {
    n;
    objc;
    lbs;
    ubs;
    sense = Array.map (fun (c : Model.constr) -> sense_code c.Model.sense) cons;
    rhs = Array.map (fun (c : Model.constr) -> c.Model.rhs) cons;
    row_start;
    row_var;
    row_coef;
    occ_start;
    occ_row;
    occ_coef;
  }

(* Sort the [len] (first, second) int pairs stored flat at [a.(off)],
   [a.(off+1)], ... lexicographically.  Insertion sort: rows and
   occurrence lists are short; long ones go through [Array.sort]. *)
let sort_pairs a off len =
  if len <= 32 then
    for i = 1 to len - 1 do
      let x = a.(off + (2 * i)) and y = a.(off + (2 * i) + 1) in
      let j = ref (i - 1) in
      while
        !j >= 0
        &&
        let p = a.(off + (2 * !j)) in
        p > x || (p = x && a.(off + (2 * !j) + 1) > y)
      do
        a.(off + (2 * !j) + 2) <- a.(off + (2 * !j));
        a.(off + (2 * !j) + 3) <- a.(off + (2 * !j) + 1);
        decr j
      done;
      a.(off + (2 * !j) + 2) <- x;
      a.(off + (2 * !j) + 3) <- y
    done
  else begin
    let ps = Array.init len (fun i -> (a.(off + (2 * i)), a.(off + (2 * i) + 1))) in
    Array.sort
      (fun (x1, y1) (x2, y2) ->
        let c = Int.compare x1 x2 in
        if c <> 0 then c else Int.compare y1 y2)
      ps;
    Array.iteri
      (fun i (x, y) ->
        a.(off + (2 * i)) <- x;
        a.(off + (2 * i) + 1) <- y)
      ps
  end

(* A total order on int arrays: by length, then lexicographically. *)
let compare_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* [a] sorted ascending, duplicates removed (sorts [a] in place). *)
let sort_uniq_ints a =
  Array.sort Int.compare a;
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> a.(!k - 1) then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  Array.sub a 0 !k

(* Row [i] as the tuple [sense; rhs; v1; c1; v2; c2; ...] after renaming
   its variables by [image], terms re-sorted by variable. *)
let row_tuple ctx image i =
  let s = ctx.row_start.(i) and len = ctx.row_start.(i + 1) - ctx.row_start.(i) in
  let a = Array.make (2 + (2 * len)) 0 in
  a.(0) <- ctx.sense.(i);
  a.(1) <- ctx.rhs.(i);
  for t = 0 to len - 1 do
    a.(2 + (2 * t)) <- image ctx.row_var.(s + t);
    a.(3 + (2 * t)) <- ctx.row_coef.(s + t)
  done;
  sort_pairs a 2 len;
  a

let transposition_ok ctx pairs =
  let pairs = List.filter (fun (u, v) -> u <> v) pairs in
  let valid =
    List.for_all
      (fun (u, v) ->
        u >= 0 && v >= 0 && u < ctx.n && v < ctx.n
        && ctx.objc.(u) = ctx.objc.(v)
        && ctx.lbs.(u) = ctx.lbs.(v)
        && ctx.ubs.(u) = ctx.ubs.(v))
      pairs
  in
  if not valid then false
  else begin
    let map = Hashtbl.create (2 * List.length pairs) in
    (* The swaps must form an involution on distinct variables. *)
    let clash = ref false in
    List.iter
      (fun (u, v) ->
        if Hashtbl.mem map u || Hashtbl.mem map v then clash := true
        else begin
          Hashtbl.replace map u v;
          Hashtbl.replace map v u
        end)
      pairs;
    if !clash then false
    else begin
      let image v = Option.value (Hashtbl.find_opt map v) ~default:v in
      let affected =
        Hashtbl.fold
          (fun v _ acc ->
            Array.sub ctx.occ_row ctx.occ_start.(v)
              (ctx.occ_start.(v + 1) - ctx.occ_start.(v))
            :: acc)
          map []
        |> Array.concat |> sort_uniq_ints
      in
      (* The permutation fixes every unaffected row, so invariance of the
         whole constraint multiset reduces to: the multiset of affected
         rows equals the multiset of their images. *)
      let originals = Array.map (row_tuple ctx Fun.id) affected in
      let images = Array.map (row_tuple ctx image) affected in
      Array.sort compare_ints originals;
      Array.sort compare_ints images;
      Array.for_all2 (fun a b -> compare_ints a b = 0) originals images
    end
  end

let verify ctx = function
  | Scalar vs ->
      Array.length vs >= 2
      && (let ok = ref true in
          for i = 0 to Array.length vs - 2 do
            if !ok then ok := transposition_ok ctx [ (vs.(i), vs.(i + 1)) ]
          done;
          !ok)
  | Blocks cols ->
      Array.length cols >= 2
      && Array.for_all
           (fun col -> Array.length col = Array.length cols.(0))
           cols
      && (let ok = ref true in
          for j = 0 to Array.length cols - 2 do
            if !ok then
              ok :=
                transposition_ok ctx
                  (Array.to_list
                     (Array.map2
                        (fun u v -> (u, v))
                        cols.(j)
                        cols.(j + 1)))
          done;
          !ok)

let filter_verified model orbits =
  match List.filter (fun o -> size o >= 2) orbits with
  | [] -> []
  | candidates ->
      let ctx = make_ctx model in
      List.filter (verify ctx) candidates

(* --- automatic scalar-orbit detection ---------------------------------- *)

(* Signatures are int arrays interned to dense colours; a table lives for
   one refinement pass only, so dead keys never accumulate. *)
module Sig = Hashtbl.Make (struct
  type t = int array

  let equal a b = compare_ints a b = 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i)
    done;
    !h land max_int
end)

let intern table key =
  match Sig.find_opt table key with
  | Some c -> c
  | None ->
      let c = Sig.length table in
      Sig.add table key c;
      c

let max_passes = 8

let detect ?stats ?(max_vars = 4000) ?(max_nnz = 100_000) model =
  let n = Model.n_vars model in
  if n < 2 || n > max_vars then []
  else begin
    let ctx = make_ctx model in
    let m = Array.length ctx.sense in
    if ctx.row_start.(m) > max_nnz then []
    else begin
      (* Iterative colour refinement: a variable's colour is refined by the
         multiset of (coefficient, row colour) over its occurrences; a
         row's colour by its sense/rhs and the multiset of (coefficient,
         variable colour).  Each pass refines the previous partition (the
         old colour is part of the new signature), so a pass that leaves
         the class count unchanged has reached the fixpoint.  This only
         ever proposes candidates — exactness comes from the transposition
         verification below. *)
      let rtable = Sig.create (max 16 m) and vtable = Sig.create (max 16 n) in
      let vcolor =
        Array.init n (fun v ->
            intern vtable [| ctx.lbs.(v); ctx.ubs.(v); ctx.objc.(v) |])
      in
      let classes = ref (Sig.length vtable) in
      let rcolor = Array.make m 0 in
      let widest = ref 0 in
      for i = 0 to m - 1 do
        widest := max !widest (ctx.row_start.(i + 1) - ctx.row_start.(i))
      done;
      for v = 0 to n - 1 do
        widest := max !widest (ctx.occ_start.(v + 1) - ctx.occ_start.(v))
      done;
      let buf = Array.make (2 + (2 * !widest)) 0 in
      let passes = ref 0 and stable = ref false in
      while (not !stable) && !passes < max_passes do
        incr passes;
        Sig.clear rtable;
        for i = 0 to m - 1 do
          let s = ctx.row_start.(i) in
          let len = ctx.row_start.(i + 1) - s in
          buf.(0) <- ctx.sense.(i);
          buf.(1) <- ctx.rhs.(i);
          for t = 0 to len - 1 do
            buf.(2 + (2 * t)) <- ctx.row_coef.(s + t);
            buf.(3 + (2 * t)) <- vcolor.(ctx.row_var.(s + t))
          done;
          sort_pairs buf 2 len;
          rcolor.(i) <- intern rtable (Array.sub buf 0 (2 + (2 * len)))
        done;
        Sig.clear vtable;
        for v = 0 to n - 1 do
          let s = ctx.occ_start.(v) in
          let len = ctx.occ_start.(v + 1) - s in
          buf.(0) <- vcolor.(v);
          for t = 0 to len - 1 do
            buf.(1 + (2 * t)) <- ctx.occ_coef.(s + t);
            buf.(2 + (2 * t)) <- rcolor.(ctx.occ_row.(s + t))
          done;
          sort_pairs buf 1 len;
          vcolor.(v) <- intern vtable (Array.sub buf 0 (1 + (2 * len)))
        done;
        let count = Sig.length vtable in
        stable := count = !classes;
        classes := count
      done;
      (* Group by final colour, then split each class into maximal runs of
         verified adjacent transpositions (adjacent transpositions generate
         the full symmetric group on the run). *)
      let members = Array.make !classes [] in
      for v = n - 1 downto 0 do
        members.(vcolor.(v)) <- v :: members.(vcolor.(v))
      done;
      let checks = ref 0 in
      let orbits = ref [] in
      Array.iter
        (function
          | [] | [ _ ] -> ()
          | first :: rest ->
              let flush run =
                if List.length run >= 2 then
                  orbits := Array.of_list (List.rev run) :: !orbits
              in
              let run = ref [ first ] in
              List.iter
                (fun v ->
                  incr checks;
                  match !run with
                  | last :: _ when transposition_ok ctx [ (last, v) ] ->
                      run := v :: !run
                  | _ ->
                      flush !run;
                      run := [ v ])
                rest;
              flush !run)
        members;
      (match stats with
      | Some st ->
          st.Stats.sym_refine_passes <- st.Stats.sym_refine_passes + !passes;
          st.Stats.sym_transpositions <- st.Stats.sym_transpositions + !checks
      | None -> ());
      (* Deterministic output order: by smallest member. *)
      List.map
        (fun vs -> Scalar vs)
        (List.sort (fun a b -> Int.compare a.(0) b.(0)) !orbits)
    end
  end

(* --- lexicographic ordering rows ---------------------------------------- *)

let add_lex_rows model orbits =
  if orbits = [] then (model, 0)
  else begin
    let m = Model.copy model in
    let count = ref 0 in
    let add name terms rhs =
      Model.add_le m ~name (Linexpr.of_list terms) rhs;
      incr count
    in
    List.iteri
      (fun oi orbit ->
        match orbit with
        | Scalar vs ->
            for i = 0 to Array.length vs - 2 do
              add
                (Printf.sprintf "sym%d_s%d" oi i)
                [ (1, vs.(i + 1)); (-1, vs.(i)) ]
                0
            done
        | Blocks cols ->
            let len = if Array.length cols = 0 then 0 else Array.length cols.(0) in
            let binary =
              Array.for_all
                (fun col ->
                  Array.for_all
                    (fun v ->
                      let l, u = Model.bounds model v in
                      l >= 0 && u <= 1)
                    col)
                cols
            in
            for j = 0 to Array.length cols - 2 do
              let a = cols.(j) and b = cols.(j + 1) in
              if binary && len >= 1 && len <= 30 then
                (* exact lex as one weighted row: value(b) <= value(a) when
                   columns are read as big-endian binary numbers *)
                add
                  (Printf.sprintf "sym%d_b%d" oi j)
                  (List.concat
                     (List.init len (fun i ->
                          let w = 1 lsl (len - 1 - i) in
                          [ (w, b.(i)); (-w, a.(i)) ])))
                  0
              else if len >= 1 then
                (* implied first-component ordering only *)
                add
                  (Printf.sprintf "sym%d_b%d" oi j)
                  [ (1, b.(0)); (-1, a.(0)) ]
                  0
            done)
      orbits;
    (m, !count)
  end

(* --- canonical representative ------------------------------------------ *)

let canonicalize orbits x =
  let x = Array.copy x in
  List.iter
    (fun orbit ->
      match orbit with
      | Scalar vs ->
          let values = Array.map (fun v -> x.(v)) vs in
          Array.sort (fun a b -> compare b a) values;
          Array.iteri (fun i v -> x.(v) <- values.(i)) vs
      | Blocks cols ->
          let values = Array.map (Array.map (fun v -> x.(v))) cols in
          let idx = Array.init (Array.length cols) Fun.id in
          (* lexicographically non-increasing columns; stable on ties *)
          let idx = Array.to_list idx in
          let idx =
            List.stable_sort (fun i j -> compare values.(j) values.(i)) idx
          in
          List.iteri
            (fun j orig ->
              Array.iteri (fun i v -> x.(v) <- values.(orig).(i)) cols.(j))
            idx)
    orbits;
  x
