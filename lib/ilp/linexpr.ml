(* Invariant: sorted by variable id, no zero coefficients, no duplicates. *)
type t = (int * int) list (* (coef, var) *)

let zero = []
let term c v = if c = 0 then [] else [ (c, v) ]
let var v = term 1 v

let rec add a b =
  match (a, b) with
  | [], e | e, [] -> e
  | (ca, va) :: ra, (cb, vb) :: rb ->
      if va < vb then (ca, va) :: add ra b
      else if vb < va then (cb, vb) :: add a rb
      else begin
        let c = ca + cb in
        if c = 0 then add ra rb else (c, va) :: add ra rb
      end

let scale k e = if k = 0 then [] else List.map (fun (c, v) -> (k * c, v)) e
let sub a b = add a (scale (-1) b)
(* One sort and one merge pass: folding [add] over the terms re-merges the
   accumulator per term, O(k^2) on a k-term row. *)
let of_list pairs =
  let rec merge = function
    | (c1, v1) :: (c2, v2) :: rest when v1 = v2 -> merge ((c1 + c2, v1) :: rest)
    | (0, _) :: rest -> merge rest
    | t :: rest -> t :: merge rest
    | [] -> []
  in
  merge (List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) pairs)

let sum es = List.fold_left add zero es
let terms e = e

let coef e v =
  match List.find_opt (fun (_, v') -> v' = v) e with
  | Some (c, _) -> c
  | None -> 0

let n_terms = List.length
let is_zero e = e = []
let iter f e = List.iter (fun (coef, var) -> f ~coef ~var) e
let fold f e init = List.fold_left (fun acc (coef, var) -> f ~coef ~var acc) init e

let pp ?(name = fun v -> Printf.sprintf "x%d" v) () ppf e =
  match e with
  | [] -> Format.pp_print_string ppf "0"
  | (c0, v0) :: rest ->
      let pp_first ppf (c, v) =
        if c = 1 then Format.pp_print_string ppf (name v)
        else if c = -1 then Format.fprintf ppf "- %s" (name v)
        else Format.fprintf ppf "%d %s" c (name v)
      in
      pp_first ppf (c0, v0);
      List.iter
        (fun (c, v) ->
          if c > 0 then
            if c = 1 then Format.fprintf ppf " + %s" (name v)
            else Format.fprintf ppf " + %d %s" c (name v)
          else if c = -1 then Format.fprintf ppf " - %s" (name v)
          else Format.fprintf ppf " - %d %s" (-c) (name v))
        rest
