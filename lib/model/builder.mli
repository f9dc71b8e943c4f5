(** Convenience DSL for constructing transactions in code and tests.

    Steps are written [L "x"] / [U "x"] with entity names resolved against
    the schema.  For every entity mentioned at all, both its Lock and its
    Unlock node are created and the implicit arc [Lx < Ux] is added, so a
    chain like [[L "x"; L "y"; U "x"]] is enough to describe a
    transaction touching x and y. *)

type step = L of string | U of string

(** A transaction's steps as node keys, [2·entity] for a Lock and
    [2·entity + 1] for an Unlock, each chain of steps ended by a
    negative key.  One buffer serves one transaction after another: the
    {!Parser} keeps one per source. *)
type chains

(** An empty buffer. *)
val buffer : unit -> chains

(** [add b k] appends the key [k] to [b]. *)
val add : chains -> int -> unit

(** [compile db b] numbers the nodes of [b]'s chains, builds the
    transaction with {!Transaction.of_arcs} and empties [b].  Node ids
    follow first mention; then every mentioned entity gets its missing
    node, in ascending entity order.  The arcs are [Lx < Ux] for each
    mentioned entity and one for each pair of consecutive keys of a
    chain, handed over in [b]'s own int buffer, which the next
    transaction reuses.  {!transaction} and {!Parser} both number nodes
    this way. *)
val compile : Db.t -> chains -> (Transaction.t, Transaction.error list) result

(** [transaction db ~chains ~arcs ()] — [chains] contribute arcs between
    consecutive steps; [arcs] are extra individual arcs.  Validation as in
    {!Transaction.make}.  Raises [Not_found] for unknown entity names. *)
val transaction :
  Db.t ->
  ?chains:step list list ->
  ?arcs:(step * step) list ->
  unit ->
  (Transaction.t, Transaction.error list) result

(** Like {!transaction} but raising on validation errors. *)
val transaction_exn :
  Db.t ->
  ?chains:step list list ->
  ?arcs:(step * step) list ->
  unit ->
  Transaction.t

(** [total db steps] builds a centralized-style total order from explicit
    steps (no implicit nodes or arcs added beyond the chain). *)
val total : Db.t -> step list -> (Transaction.t, Transaction.error list) result

val total_exn : Db.t -> step list -> Transaction.t

(** [two_phase_chain db names] is the 2PL total order
    [Lx1 < ... < Lxk < Ux1 < ... < Uxk]. *)
val two_phase_chain : Db.t -> string list -> Transaction.t
