open Ddlock_model

(** Random and parametric transaction generators.

    All generators produce validated {!Ddlock_model.Transaction.t} values;
    randomness comes from an explicit [Random.State.t] so tests and
    benches are reproducible. *)

(** [random_db rng ~sites ~entities] — a schema with [entities] entities
    spread round-robin over [sites] sites, named [e0, e1, …] /
    [s0, s1, …]. *)
val random_db : sites:int -> entities:int -> Db.t

(** [random_transaction rng db ~entities ~density] — a random distributed
    transaction accessing exactly the given entities.

    Construction: pick a uniformly random global order of the 2·k nodes
    with each Lock before its Unlock; orient per-site chains along it
    (giving the required site-total orders); add each remaining
    order-compatible pair as a cross arc with probability [density].
    Every valid transaction shape on those entities arises with positive
    probability at density 0–1 extremes. *)
val random_transaction :
  Random.State.t ->
  Db.t ->
  entities:Db.entity list ->
  density:float ->
  Transaction.t

(** [random_entity_subset rng db ~k] — [k] distinct entities. *)
val random_entity_subset : Random.State.t -> Db.t -> k:int -> Db.entity list

(** [zipf_system rng ~sites ~entities ~txns ~theta] — a hotspot
    workload: each of the [txns] transactions accesses
    [entities_per_txn] (default 2) {e distinct} entities drawn
    zipfian(θ) — entity [e{i}] has weight [(i+1)^-θ], so [theta = 0.] is
    uniform and larger [theta] concentrates contention on the first few
    entities (the serve bench and chaos sweep use it to model the
    realistic many-clients-few-hot-rows regime).  Transaction shape over
    the chosen entities is {!random_transaction} with [density]
    (default 0.3).  Raises [Invalid_argument] on [theta < 0.],
    [txns < 1] or [entities_per_txn > entities]. *)
val zipf_system :
  ?entities_per_txn:int ->
  ?density:float ->
  Random.State.t ->
  sites:int ->
  entities:int ->
  txns:int ->
  theta:float ->
  System.t

(** [random_system rng db ~txns ~entities_per_txn ~density] — each
    transaction accesses a random subset of entities. *)
val random_system :
  Random.State.t ->
  Db.t ->
  txns:int ->
  entities_per_txn:int ->
  density:float ->
  System.t

(** [small_random_pair rng] — a 2-transaction system over a small random
    schema, sized for exhaustive ground-truth comparison.  Unspecified
    parameters are drawn from the rng: sites ∈ [1,3], entities ∈ [2,4],
    density ∈ [0,0.5); each transaction accesses a random non-empty
    entity subset.  The one audited generator behind the differential
    test batteries, the fuzzer and the benches. *)
val small_random_pair :
  ?sites:int -> ?entities:int -> ?density:float -> Random.State.t -> System.t

(** [small_random_system rng ~txns] — like {!small_random_pair} with
    [txns] transactions over a smaller default schema (sites ∈ [1,2],
    entities ∈ [2,3]). *)
val small_random_system :
  ?sites:int ->
  ?entities:int ->
  ?density:float ->
  Random.State.t ->
  txns:int ->
  System.t

(** [random_copies_system rng ~copies] — [copies] physically identical
    copies of one small random transaction (a non-trivial automorphism
    group for [copies >= 2], cf. {!Ddlock_schedule.Canon}); with
    [~extra:true] one additional independent random transaction over the
    same schema is appended. *)
val random_copies_system :
  ?extra:bool -> Random.State.t -> copies:int -> System.t

(** [widen ~pad sys] is [sys] printed with {!Parser.to_source} and
    parsed back with a site of [pad] unused entities, [_pad0] …,
    declared first: the same transactions, each entity's id [pad]
    higher, so entity rows span more words
    ({!Transaction.row_words}).  [widen ~pad:0] only prints and parses
    back.  Deciders that read entity rows must give the same answer,
    and the same text, on [widen ~pad sys] as on [widen ~pad:0 sys]. *)
val widen : pad:int -> System.t -> System.t

(** [two_phase_pair db names] — both transactions lock [names] in the
    given order, 2PL-style; safe ∧ deadlock-free by Theorem 3. *)
val two_phase_pair : Db.t -> string list -> Transaction.t * Transaction.t

(** [opposed_pair db names] — T₁ locks in the given order, T₂ in reverse;
    the classic unsafe/deadlocking shape for [length >= 2]. *)
val opposed_pair : Db.t -> string list -> Transaction.t * Transaction.t

(** [dining_philosophers k] — [k] entities [f0 … f(k-1)] on [k] sites;
    transaction [i] 2PL-locks [fᵢ] then [f((i+1) mod k)].  Every pair is
    safe ∧ deadlock-free, but the length-[k] interaction cycle deadlocks
    (for k >= 3; [k >= 2] required). *)
val dining_philosophers : int -> System.t

(** [guard_ring k] — one transaction over [k] entities [g0 … g(k-1)] on
    [k] sites whose only non-trivial arcs are the rotational guards
    [Lgᵢ ≺ Ug(i+1 mod k)].  Copies of guard rings reproduce the paper's
    counterexample figures: the 4-ring is Fig. 2's shape (two copies
    deadlock although Tirri's premise finds nothing), and the 3-ring is
    Fig. 6's (two copies are deadlock-free, three deadlock).
    Requires [k >= 2]. *)
val guard_ring : int -> Transaction.t

(** [chain_pair n] — the safe ∧ DF pair of {!two_phase_pair} over [n]
    entities on [n] sites; used by scaling benches. *)
val chain_pair : int -> Transaction.t * Transaction.t

(** [opposed_chain_pair n] — the failing variant. *)
val opposed_chain_pair : int -> Transaction.t * Transaction.t

(** {1 TPC-C-style workloads}

    A warehouse-sharded schema in the TPC-C mould: site [wh{w}] hosts
    the warehouse row [w{w}], its districts [w{w}.d{j}], stock rows
    [w{w}.s{k}] and customers [w{w}.c{m}].  Transactions are 2PL chains
    ({!Builder.two_phase_chain}), so every generated transaction is
    two-phase and site-total-ordered by construction; contention comes
    from the zipf-skewed warehouse/district/item choices and the
    cross-warehouse ("remote") accesses. *)

type tpcc = {
  tpcc_db : Db.t;
  warehouses : int;
  districts : int;  (** per warehouse *)
  items : int;  (** stock rows per warehouse *)
  customers : int;  (** per warehouse *)
}

(** [tpcc_db ~warehouses ~districts ~items ~customers] — the sharded
    schema above.  Raises [Invalid_argument] when any count is [< 1]. *)
val tpcc_db :
  warehouses:int -> districts:int -> items:int -> customers:int -> tpcc

(** [tpcc_new_order rng t ~theta] — a new-order shape: read the home
    warehouse row, touch [items_per_order] (default 2) {e distinct}
    zipf(θ)-hot stock rows (each resolved to a remote warehouse with
    probability [remote_prob], default 0.1 — the cross-site case), then
    write the hot district row last.  Warehouse and district are also
    zipf(θ)-skewed, so rank-1 rows are the hotspots. *)
val tpcc_new_order :
  ?items_per_order:int ->
  ?remote_prob:float ->
  Random.State.t ->
  tpcc ->
  theta:float ->
  Transaction.t

(** [tpcc_payment rng t ~theta] — a payment shape: warehouse row,
    district row, then a customer row (remote with probability
    [remote_prob], default 0.15, per the TPC-C spec). *)
val tpcc_payment :
  ?remote_prob:float -> Random.State.t -> tpcc -> theta:float -> Transaction.t

(** [tpcc_system rng ~warehouses ~txns ~theta] — a mixed workload of
    [txns] transactions, each a new-order with probability
    [new_order_frac] (default 0.5) and a payment otherwise, over a fresh
    {!tpcc_db} (defaults: 2 districts, 4 stock rows, 2 customers per
    warehouse).  Raises [Invalid_argument] on [txns < 1], [theta < 0.],
    or probabilities outside [0, 1]. *)
val tpcc_system :
  ?districts:int ->
  ?items:int ->
  ?customers:int ->
  ?items_per_order:int ->
  ?new_order_frac:float ->
  ?remote_prob:float ->
  Random.State.t ->
  warehouses:int ->
  txns:int ->
  theta:float ->
  System.t

(** {1 Partial replication (Sutra & Shapiro, arXiv:0802.0137)}

    The model layer places each entity on exactly one site, so partial
    replication is expressed one level up: each {e logical} entity [i]
    is materialized as [replication] physical replica entities
    [x{i}.s{j}], one per hosting site, with hosting sets that overlap
    between neighbouring sites.  Transactions follow the
    read-one/write-all (ROWA) discipline over the replica sets. *)

type replicated = {
  rep_db : Db.t;
  logical : int;  (** number of logical entities *)
  replication : int;  (** replicas per logical entity *)
  replicas : Db.entity list array;
      (** physical replicas of logical entity [i], ascending site order *)
}

(** [replicated_db ~sites ~entities ~replication] — logical entity [i]
    is replicated on the [replication] consecutive sites starting at
    [i mod sites], so adjacent sites hold overlapping entity subsets.
    Raises [Invalid_argument] unless [1 <= replication <= sites] and
    [sites, entities >= 1]. *)
val replicated_db : sites:int -> entities:int -> replication:int -> replicated

(** [logical_of rep e] — the logical entity a physical replica belongs
    to, or [None] for an unknown entity. *)
val logical_of : replicated -> Db.entity -> int option

(** [replicated_transaction rng rep ~entities_per_txn] — a 2PL chain
    over [entities_per_txn] distinct logical entities: each is a write
    with probability [write_prob] (default 0.6, locking {e all} its
    replicas — ROWA) and otherwise a read (locking one random replica).
    Cross-site by construction whenever a write's replica set spans
    sites. *)
val replicated_transaction :
  ?write_prob:float ->
  Random.State.t ->
  replicated ->
  entities_per_txn:int ->
  Transaction.t

(** [replicated_system rng rep ~txns ~entities_per_txn] — [txns]
    independent {!replicated_transaction}s. *)
val replicated_system :
  ?write_prob:float ->
  Random.State.t ->
  replicated ->
  txns:int ->
  entities_per_txn:int ->
  System.t
