(** Thread-safe LRU verdict cache.

    Keys are {!system_key} digests (salted with the analysis
    parameters), so the daemon answers repeated submissions — and those
    that only rename or reorder identical transactions — without
    re-running the analysis.  All operations take one mutex; the
    critical sections are O(1) (hash table + intrusive doubly-linked
    recency list), so the lock is uncontended even under the chaos
    battery. *)

(** Structural digest of a whole system.  Two systems get equal keys
    iff they have the same named schema (site and entity names,
    placement) and, position by position, transactions with the same
    node labels under the same numbering and the same closed
    precedence.  Transaction names are not part of it, so permuting
    identical transactions — the K-copies systems that many identical
    clients generate — keeps the key, while any difference that can
    change a rendered verdict (entity or site names, placement, the
    order of distinct transactions) changes it. *)
val system_key : Ddlock.Model.System.t -> string

type 'a t

val create : capacity:int -> 'a t
(** [capacity <= 0] degenerates to a cache that stores nothing (every
    lookup misses) — useful for measuring the uncached path. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit promotes the entry to most-recently-used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or overwrite) an entry, evicting the least-recently-used
    entry when over capacity. *)

val length : 'a t -> int

val hits : 'a t -> int

val misses : 'a t -> int
