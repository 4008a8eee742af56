(** Textual exchange format for scheduled DFGs.

    Example (the Fig. 1 DFG of the paper):

    {v
    (dfg
     (name fig1)
     (inputs v0 v1 v2 v3)
     (op add (step 0) (in v0 v1) (out v4))
     (op add (step 1) (in v3 v4) (out v5))
     (op mul (step 1) (in v4 v2) (out v6))
     (op mul (step 2) (in v5 v6) (out v7)))
    v}

    Constants are written [#<int>], e.g. [(in v0 #3)].  The step count is
    inferred as 1 + the maximum operation step; {!of_string} rejects a
    step count above [max 1 n_ops], because such a schedule leaves some
    control step without an operation. *)

val of_string : string -> (Graph.t, string) result
(** Never raises: malformed text yields [Error] with a message. *)

val to_string : Graph.t -> string

val of_file : string -> (Graph.t, string) result
(** Reads and parses a file; I/O errors are reported as [Error]. *)

val to_file : string -> Graph.t -> unit
