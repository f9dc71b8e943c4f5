open Ddlock_model

(** A polynomial, sound but incomplete certificate of deadlock-freedom.

    Deadlock-freedom is coNP-hard even for two transactions (§4,
    Theorem 2), so no polynomial test decides it; this one only ever
    answers "deadlock-free" or "don't know".

    {b The hold-and-wait graph.}  Its nodes are the pairs (Tᵢ, x), one
    for each entity x that Tᵢ accesses.  There is an arc
    (Tᵢ, x) → (Tⱼ, y) when

    - j ≠ i, y ≠ x, and both Tᵢ and Tⱼ access y;
    - Lᵢy ≺ Uᵢx and ¬(Lᵢy ≺ Lᵢx), in Tᵢ's partial order.

    That is: Tᵢ can hold x while it waits at Lᵢy, which it must pass
    before it may unlock x, and Tⱼ may hold y meanwhile.

    {b Claim.}  If the graph is acyclic, the system is deadlock-free.

    {b Proof.}  Take a deadlock state: some transaction is unfinished
    and no step is enabled.  An Unlock whose predecessors have all run
    is enabled, so every minimal unexecuted node of an unfinished
    transaction is a Lock on an entity that another transaction holds,
    and that holder is unfinished.  Now let Tⱼ hold y (Lⱼy executed,
    Uⱼy not).  Among the unexecuted nodes at or below Uⱼy take a
    minimal one, u: its predecessors lie below Uⱼy too, so they have
    all run, and u is a minimal unexecuted node of Tⱼ.  It is not Uⱼy,
    which would be enabled; so u = Lⱼz ≺ Uⱼy for some z held by an
    unfinished Tₖ, k ≠ j.  Then z ≠ y (Tⱼ holds y but has not locked
    z), and ¬(Lⱼz ≺ Lⱼy), since Lⱼy has run and the executed nodes
    form a prefix.  So (Tⱼ, y) → (Tₖ, z) is an arc, and Tₖ holds z.
    Starting at the holder of any blocked Lock, this gives an infinite
    walk along arcs of a finite graph, so the graph has a cycle.
    Contrapositively, an acyclic graph admits no deadlock state. ∎

    Only entities accessed by two or more transactions can carry an arc
    in, so the search skips the rest.

    {b Against Tirri.}  The arc is the wait that {!Tirri}'s premise
    asks of each transaction: [Ly ≺ Ux] and [¬(Ly ≺ Lx)].  Tirri looks
    for it only between two entities of two transactions, a cycle of
    length two, and claims deadlock-freedom when there is none; the
    paper's Fig. 2 refutes that (§3) with a deadlock whose waits cycle
    through four entities.  The certificate claims deadlock-freedom
    only when there is no cycle of any length, through any number of
    transactions, and the proof above covers every deadlock.  It is not
    complete: two copies of Fig. 6, which are deadlock-free, have a
    six-arc cycle that uses each entity twice, once per copy, and no
    single state holds all of it. *)

(** [certifies sys] iff the hold-and-wait graph of [sys] is acyclic,
    which implies that [sys] is deadlock-free.  [false] decides
    nothing.

    The arcs out of (Tᵢ, x) are read from Tᵢ's entity rows
    ({!Ddlock_model.Transaction.locks_before_unlock} and
    {!Ddlock_model.Transaction.locks_before}): the entities
    [locks_before_unlockᵢ(x) ∖ locks_beforeᵢ(x) ∖ {x}], kept to those
    that two or more transactions access, one word of ⌈|E|/63⌉ at a
    time.  So each of the n·|E| nodes costs O(|E|/63 + n·d) for its d
    arcs, and the graph O(n²·|E|²) at most.  It allocates the colour
    row of the n·|E| nodes and the row of shared entities. *)
val certifies : System.t -> bool
