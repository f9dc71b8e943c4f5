open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

(** Theorem 4: safety ∧ deadlock-freedom of a whole transaction system in
    time polynomial in the number of cycles of its interaction graph.

    The algorithm (§5):
    + check every interacting pair with Theorem 3;
    + for every directed cycle [T₁ → … → Tₖ → T₁] of the interaction
      graph and every choice of last transaction, build the canonical
      maximal prefixes

      - T*₁ = maximal prefix of T₁ locking nothing of
        [⋃_{j ∉ {1,2}} R(Tⱼ)],
      - T*ᵢ = maximal prefix of Tᵢ locking nothing of
        [Y(T*ᵢ₋₁) ∪ ⋃_{j ∉ {i,i+1}} R(Tⱼ)]  (indices mod k),

      and report a violation when every T*ᵢ contains [Lxᵢ], where [xᵢ]
      is the common-first entity of the pair (Tᵢ, Tᵢ₊₁).

    A violation yields the witness partial schedule S* that runs linear
    extensions of T*₁ … T*ₖ serially: S* is legal and its serialization digraph D is cyclic.

    Each step is decided on the transactions' entity rows
    ({!Transaction.locks_before} and the rest): the sets avoided and
    Y(T*ᵢ) are rows of ⌈|E|/63⌉ words, [Lxᵢ ∈ T*ᵢ] iff
    [avoidᵢ ∩ ({xᵢ} ∪ locks_beforeᵢ(xᵢ)) = ∅], and
    [Y(T*ᵢ) = ⋃ unlocks_afterᵢ(y)] over [y ∈ avoidᵢ ∩ R(Tᵢ)] (the
    derivation is in [many.ml]).  Node prefixes and S* are built only
    for the rotation that fails. *)

type verdict =
  | Safe_and_deadlock_free
  | Pair_fails of { i : int; j : int; failure : Pair.failure }
  | Cycle_fails of cycle_witness

and cycle_witness = {
  cycle : int list;  (** transaction indices T₁ … Tₖ in traversal order *)
  prefixes : Bitset.t array;  (** T*ᵢ for each position on the cycle *)
  schedule : Step.t list;  (** the witness partial schedule S* *)
}

(** [add_verdict buf ~indent sys v] writes the text of [v] into [buf]:
    one line, or for [Cycle_fails] the cycle and then S* on a second
    line indented by [indent] spaces. *)
val add_verdict : Buffer.t -> indent:int -> System.t -> verdict -> unit

(** The text of {!add_verdict}, a second line as a vertical box. *)
val pp_verdict : System.t -> Format.formatter -> verdict -> unit

val check : System.t -> verdict

(** [check_graph sys g] is [check sys], given [g], the interaction
    graph of [sys] ({!System.interaction_graph}), built once by a caller
    that needs it too. *)
val check_graph : System.t -> Ungraph.t -> verdict

(** [check_counting sys g] is [check_graph sys g] and a function that
    returns the number of undirected cycles of [g] (the length of
    {!Ungraph.cycles}[ g]) from the same walk of
    {!Ungraph.directed_cycles}: the verdict counts the cycles it walks,
    and the function finishes the count from where Theorem 4 stopped,
    polling {!Ddlock_obs.Cancel} on each cycle.  When a pair fails,
    Theorem 4 walks no cycle and the function counts them all.  Call
    the function at most once. *)
val check_counting : System.t -> Ungraph.t -> verdict * (unit -> int)

val safe_and_deadlock_free : System.t -> bool

(** Number of (cycle, last-transaction) candidates the search would
    examine — the complexity parameter of Theorem 4 / Corollary 4. *)
val candidate_count : System.t -> int
