(** Flat state tables: a hash set of fixed-width int rows with dense ids.

    Every packed search ({!Explore}) keeps its states here.  Row [id]
    lives in one flat [int array] at offset [id * words], so a state
    costs [words] machine words in the table and no block of its own;
    the {!Packed} kernel reads rows in place.  A row is passed in as a
    caller's buffer (its first [words] ints) and copied into the table
    only when it is new.

    Storage is open addressing with linear probing: a power-of-two
    array of ids, doubled when more than half full, beside the flat row
    array, doubled when full (it holds 64 rows before its first
    doubling).  A probe compares rows word by word; a resize re-slots
    ids by rehashing the stored rows.  Not thread-safe. *)

type t

(** [create ~words] — an empty table of rows of [words] ints. *)
val create : words:int -> t

(** Number of rows held (also the next fresh id). *)
val count : t -> int

(** [add t ~limit row] is the id of the held row equal to [row]'s
    first [words] ints, copying [row] in with the next dense id when
    absent: it is fresh exactly when the result equals [count t] before
    the call.  An absent row is refused when the table already holds
    [limit] rows: the result is [-1] and the table is unchanged (no row
    copied, no array grown).  One probe either way. *)
val add : t -> limit:int -> int array -> int

(** [find t row] — id of the held row equal to [row], or [-1]. *)
val find : t -> int array -> int

(** The row array: row [id] is at offset [id * words].  [add] may
    replace it with a larger copy, so take it again after an [add]
    (an array taken before stays a valid snapshot of the rows it
    held). *)
val data : t -> int array

(** [hash a o words] — the hash of the [words] ints of [a] at offset
    [o].  Each word passes through a splitmix-style finalizer, so high
    bits reach the low bits a slot is taken from. *)
val hash : int array -> int -> int -> int
