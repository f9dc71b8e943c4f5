open Ddlock_model

(** One step of a schedule: node [node] of transaction [txn]. *)
type t = { txn : int; node : int }

val v : int -> int -> t
val equal : t -> t -> bool
val compare : t -> t -> int

(** [add buf sys s] writes the ["L2.x"]-style rendering of [s] into
    [buf]: op, transaction number, entity. *)
val add : Buffer.t -> System.t -> t -> unit

(** [add_schedule buf sys steps] writes the steps separated by spaces. *)
val add_schedule : Buffer.t -> System.t -> t list -> unit

val to_string : System.t -> t -> string
val pp : System.t -> Format.formatter -> t -> unit

(** The schedule of {!add_schedule} in an hov box. *)
val pp_schedule : System.t -> Format.formatter -> t list -> unit

(** [pp_lines ppf text] prints the newline-separated lines of [text] as
    a vertical box, a single line as it is: the Format layout of a
    printer whose text a buffer writer produces, continuation lines
    indented to the column the printer starts at. *)
val pp_lines : Format.formatter -> string -> unit
