open Ddlock_graph
open Ddlock_model

(** Distributed transactions with shared/exclusive lock modes — the
    [EGLT]-style generalization of the paper's exclusive-only model.

    Per accessed entity a transaction has exactly one Lock (of a fixed
    mode, Read or Write), one Unlock, Lock ≺ Unlock; same-site nodes are
    totally ordered.  Two Read locks on the same entity may be held
    simultaneously by different transactions; a Write lock excludes
    everyone.

    A transaction is its exclusive abstraction ({!to_exclusive}, a
    {!Ddlock_model.Transaction.t} built once by {!make}) plus a mode per
    entity: validation, the closure, prefixes and the lock/unlock
    lookups are {!Ddlock_model.Transaction}'s. *)

type mode = Read | Write

type op = Lock of mode | Unlock

type node = { entity : Db.entity; op : op }

val node_to_string : Db.t -> node -> string

(** {!Ddlock_model.Transaction.error}s in this module's terms: a
    duplicated or missing Lock or Unlock is [Bad_entity_ops] (at most
    one per entity, standing also for its [Unlock_before_lock]).
    Entity errors come in entity order, then the site errors. *)
type error =
  | Cyclic
  | Bad_entity_ops of Db.entity  (** not exactly one Lock and one Unlock *)
  | Unlock_before_lock of Db.entity
  | Site_unordered of int * int

val pp_error : Db.t -> Format.formatter -> error -> unit

type t

val make : Db.t -> node array -> (int * int) list -> (t, error list) result
val make_exn : Db.t -> node array -> (int * int) list -> t

(** Total order from an explicit step list. *)
val of_total_order : Db.t -> node list -> (t, error list) result

val db : t -> Db.t
val node_count : t -> int
val node : t -> int -> node
val precedes : t -> int -> int -> bool
val arcs : t -> Digraph.t
val entities : t -> Db.entity list
val entity_set : t -> Bitset.t
val accesses : t -> Db.entity -> bool

(** Mode of the transaction's access to an entity it touches. *)
val mode_of : t -> Db.entity -> mode

val lock_node_exn : t -> Db.entity -> int
val unlock_node_exn : t -> Db.entity -> int

(** Candidates for execution next given a prefix (downward-closed set). *)
val minimal_remaining : t -> Bitset.t -> int list

val empty_prefix : t -> Bitset.t

(** [to_exclusive t] — forget modes: the same partial order in the
    paper's exclusive model.  The conservative abstraction compared in
    the E17 experiment; built once, by {!make}. *)
val to_exclusive : t -> Transaction.t

(** [is_two_phase t] — no Lock after an Unlock. *)
val is_two_phase : t -> bool

val pp : Format.formatter -> t -> unit
