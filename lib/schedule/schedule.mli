open Ddlock_model

(** Schedules and partial schedules (§2, §3).

    A (partial) schedule is a sequence of steps that merges prefixes of
    the transactions while respecting both each transaction's precedence
    and the locks (at most one holder of an entity at any moment — the
    "between every two Lx there is a Ux" condition). *)

type violation =
  | Node_repeated of Step.t
  | Not_minimal of Step.t  (** executed before one of its predecessors *)
  | Lock_held of Step.t * int  (** Lock while transaction [i] holds it *)
  | Bad_txn_index of Step.t

val pp_violation : System.t -> Format.formatter -> violation -> unit

(** [violation sys st s] is why step [s] cannot run in state [st], if
    it cannot. *)
val violation : System.t -> State.t -> Step.t -> violation option

(** [check sys steps] replays the sequence; [Ok st] is the reached state. *)
val check : System.t -> Step.t list -> (State.t, violation) result

val is_legal : System.t -> Step.t list -> bool

(** [is_complete sys steps] iff legal and every transaction finished. *)
val is_complete : System.t -> Step.t list -> bool

(** Final state of a legal schedule.  Raises [Invalid_argument] if illegal. *)
val to_state : System.t -> Step.t list -> State.t

(** [serial sys order] is the serial schedule running whole transactions
    in the given order, each by a deterministic linear extension.
    Raises if [order] is not a permutation of the transaction indices. *)
val serial : System.t -> int list -> Step.t list

(** [of_extensions sys exts order] runs the given linear extensions
    serially in the given transaction order (used for S* witnesses);
    checks nothing. *)
val of_extensions : System.t -> int list array -> int list -> Step.t list

(** The prefix of each transaction executed by a schedule (no legality
    check). *)
val prefix_vector : System.t -> Step.t list -> State.t

(** Steps of one transaction, in schedule order. *)
val project : Step.t list -> int -> int list
