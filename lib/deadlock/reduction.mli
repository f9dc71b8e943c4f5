open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

(** The reduction graph R(A′) of a prefix of a transaction system (§3).

    Nodes are the {e remaining} nodes of the transactions.  Arcs are the
    remaining precedence arcs, plus, for every entity [x]
    locked-but-not-unlocked in A′ by [Tᵢ], an arc from [Uⁱx] to the
    remaining [Lʲx] node of every other transaction.  A cycle means the
    partial schedule can never be completed. *)

type t

(** [make sys prefix] — [prefix] is a prefix vector (one downward-closed
    node set per transaction); no schedule-existence check is made. *)
val make : System.t -> State.t -> t

(** The underlying digraph over {e global} node ids. *)
val graph : t -> Digraph.t

(** Translate a global node id back to a schedule step. *)
val step_of_id : t -> int -> Step.t

val has_cycle : t -> bool

(** A cycle as steps, if any. *)
val find_cycle : t -> Step.t list option

(** [is_deadlock_prefix sys prefix] — Definition §3: the prefix has a
    (legal partial) schedule and its reduction graph is cyclic.  The
    schedule check is the exponential {!Explore.has_schedule}. *)
val is_deadlock_prefix : System.t -> State.t -> bool

(** Like {!is_deadlock_prefix} but returning the witnesses: a schedule of
    the prefix and a reduction-graph cycle. *)
val deadlock_prefix_witness :
  System.t -> State.t -> (Step.t list * Step.t list) option

val pp : System.t -> Format.formatter -> t -> unit
