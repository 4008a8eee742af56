(* Packed as [| c0; v0; c1; v1; ... |]: one block of two words a term.  A
   model keeps one expression per row, so this is most of what a row costs
   to build and to keep (a list of pairs takes six words a term).
   Invariant: sorted by variable id, no zero coefficients, no
   duplicates. *)
type t = int array

let zero = [||]
let term c v = if c = 0 then zero else [| c; v |]
let var v = term 1 v
let n_terms e = Array.length e / 2
let is_zero e = Array.length e = 0

(* The [k] words of [out] that were filled, without a copy when that is
   all of it. *)
let trim out k = if k = Array.length out then out else Array.sub out 0 k

let add a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push c v =
      if c <> 0 then begin
        out.(!k) <- c;
        out.(!k + 1) <- v;
        k := !k + 2
      end
    in
    while !i < na && !j < nb do
      let va = a.(!i + 1) and vb = b.(!j + 1) in
      if va < vb then begin
        push a.(!i) va;
        i := !i + 2
      end
      else if vb < va then begin
        push b.(!j) vb;
        j := !j + 2
      end
      else begin
        push (a.(!i) + b.(!j)) va;
        i := !i + 2;
        j := !j + 2
      end
    done;
    while !i < na do
      push a.(!i) a.(!i + 1);
      i := !i + 2
    done;
    while !j < nb do
      push b.(!j) b.(!j + 1);
      j := !j + 2
    done;
    trim out !k
  end

let scale k e =
  if k = 0 then zero
  else Array.mapi (fun i x -> if i land 1 = 0 then k * x else x) e

let sub a b = add a (scale (-1) b)

let rec canonical = function
  | [] -> true
  | [ (c, _) ] -> c <> 0
  | (c, v) :: ((_, v') :: _ as rest) -> c <> 0 && v < v' && canonical rest

(* One sort and one packing pass that sums repeated variables and drops
   zero sums: folding [add] over the terms re-merges the accumulator per
   term, O(k^2) on a k-term row.  Input already in canonical form (rows
   written in variable order, a presolved row rebuilt from its sorted
   terms) skips the sort. *)
let of_list pairs =
  let sorted =
    if canonical pairs then pairs
    else List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) pairs
  in
  let out = Array.make (2 * List.length sorted) 0 in
  let k = ref 0 in
  List.iter
    (fun (c, v) ->
      if !k > 0 && out.(!k - 1) = v then out.(!k - 2) <- out.(!k - 2) + c
      else begin
        (* the previous variable is complete: drop it if it summed to 0 *)
        if !k > 0 && out.(!k - 2) = 0 then k := !k - 2;
        out.(!k) <- c;
        out.(!k + 1) <- v;
        k := !k + 2
      end)
    sorted;
  if !k > 0 && out.(!k - 2) = 0 then k := !k - 2;
  trim out !k

let sum es = List.fold_left add zero es

let terms e =
  let acc = ref [] in
  for i = n_terms e - 1 downto 0 do
    acc := (e.(2 * i), e.((2 * i) + 1)) :: !acc
  done;
  !acc

let coef e v =
  let rec find i =
    if i >= Array.length e then 0
    else if e.(i + 1) = v then e.(i)
    else find (i + 2)
  in
  find 0

let iter f e =
  for i = 0 to n_terms e - 1 do
    f ~coef:e.(2 * i) ~var:e.((2 * i) + 1)
  done

let fold f e init =
  let acc = ref init in
  for i = 0 to n_terms e - 1 do
    acc := f ~coef:e.(2 * i) ~var:e.((2 * i) + 1) !acc
  done;
  !acc

let pp ?(name = fun v -> Printf.sprintf "x%d" v) () ppf e =
  if is_zero e then Format.pp_print_string ppf "0"
  else
    iter
      (fun ~coef:c ~var:v ->
        if v = e.(1) then
          if c = 1 then Format.pp_print_string ppf (name v)
          else if c = -1 then Format.fprintf ppf "- %s" (name v)
          else Format.fprintf ppf "%d %s" c (name v)
        else if c > 0 then
          if c = 1 then Format.fprintf ppf " + %s" (name v)
          else Format.fprintf ppf " + %d %s" c (name v)
        else if c = -1 then Format.fprintf ppf " - %s" (name v)
        else Format.fprintf ppf " - %d %s" (-c) (name v))
      e
