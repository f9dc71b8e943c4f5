open Ddlock_model

(** Theorem 3: the O(n²) safety ∧ deadlock-freedom test for a pair of
    distributed transactions.

    {T₁, T₂} is safe ∧ deadlock-free iff
    + there is a common entity [x] such that [Lx] precedes [Ly] in both
      transactions for every other common entity [y], and
    + for every other common entity [y],
      [L_T₁(Ly) ∩ R_T₂(Ly) ≠ ∅] and [L_T₂(Ly) ∩ R_T₁(Ly) ≠ ∅].

    {b On words.}  Corollary 2 makes the test O(n²) given the
    transitive closure; here the closure is compiled once per
    transaction into entity rows ({!Transaction.locks_after} and the
    rest), and each condition is a few word operations per entity.
    With R = R(T₁) ∩ R(T₂):

    - [x] is the common first entity iff
      [R ∖ {x} ⊆ locks_after₁(x) ∩ locks_after₂(x)];
    - [y] is minimal in Tᵢ (lockable first among R) iff
      [locks_beforeᵢ(y) ∩ R = ∅];
    - [y] is guarded in Tᵢ against Tⱼ iff
      [(unlocks_afterᵢ(y) ∖ locks_afterᵢ(y) ∖ {y}) ∩ locks_beforeⱼ(y) ≠ ∅]:
      the first set is [L_Tᵢ(Ly)], the entities Tᵢ still holds when it
      reaches [Ly], and the second is [R_Tⱼ(Ly)].

    Condition 2 is tried at each [y] in ascending order, in T₁ before
    T₂, and the first failure is reported. *)

type failure =
  | No_common_first of { first1 : Db.entity; first2 : Db.entity }
      (** condition 1 fails: extensions can lock [first1] / [first2]
          (distinct minimal common entities) first *)
  | Unguarded of { y : Db.entity; in_txn : int }
      (** condition 2 fails at [y]: [L_Tᵢ(Ly) ∩ R_Tⱼ(Ly) = ∅] where
          [i = in_txn] (0 or 1) and [j] is the other *)

(** [add_failure buf db (name1, name2) f] writes the one-line text of a
    failure of the pair whose first and second transactions are called
    [name1] and [name2]. *)
val add_failure :
  Buffer.t -> Db.t -> string * string -> failure -> unit

(** The text of {!add_failure}. *)
val pp_failure : Db.t -> string * string -> Format.formatter -> failure -> unit

(** [common_first t1 t2] is the entity [x] of condition 1 if it exists
    (unique when it does).  [None] when there is no common entity, or no
    such [x].  Use {!has_common} to distinguish. *)
val common_first : Transaction.t -> Transaction.t -> Db.entity option

val has_common : Transaction.t -> Transaction.t -> bool

(** The full Theorem 3 test. *)
val check : Transaction.t -> Transaction.t -> (unit, failure) result

val safe_and_deadlock_free : Transaction.t -> Transaction.t -> bool
