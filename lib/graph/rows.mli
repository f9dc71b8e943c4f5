(** Sets stored as rows of words in flat [int array]s.

    A row of [w] words at offset [o] of [a] is the set whose element [i]
    is bit [i mod bits] of [a.(o + i / bits)], with [bits] =
    [Sys.int_size] (63): {!Bitset}'s layout, without a record per set.
    A caller keeps many rows of one width in one array and combines
    them word by word; the functions here test and set single bits and
    walk the set bits of a row that a caller computes one word at a
    time. *)

(** Bits per word. *)
val bits : int

(** [words n] is the number of words of a row over [n] elements,
    ⌈n / bits⌉. *)
val words : int -> int

(** [mem a o i] iff element [i] is in the row at offset [o] of [a]. *)
val mem : int array -> int -> int -> bool

(** [set a o i] adds element [i] to the row at offset [o] of [a]. *)
val set : int array -> int -> int -> unit

(** [lowest x] is the index of the lowest set bit of the word [x] ≠ 0. *)
val lowest : int -> int

(** [find w word f] is the first [f i] that is not [None], [i]
    ascending over the elements of the row of [w] words whose word [k]
    is [word k]; [f] is not called after that. *)
val find : int -> (int -> int) -> (int -> 'a option) -> 'a option

(** [iter w word f] applies [f] to the elements of the row as in
    {!find}, in ascending order. *)
val iter : int -> (int -> int) -> (int -> unit) -> unit
