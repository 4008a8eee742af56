(* Known optimal design areas in transistors, written by hand from proofs
   run to completion on the circuits as they ship.  [k = 0] is the
   non-BIST reference circuit.  A relabeled copy is the same circuit, so
   every seed must reproduce these numbers. *)

let table =
  [
    (("tseng", 0), 1440);
    (("tseng", 1), 2144);
    (("tseng", 2), 2016);
    (("tseng", 3), 1936);
    (("paulin", 0), 1680);
    (("iir3", 0), 2240);
    (("dct4", 0), 2400);
  ]

let optimum ~circuit ~k = List.assoc_opt (circuit, k) table
