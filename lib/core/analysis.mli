open Ddlock_model
open Ddlock_schedule

(** One-call analyses over a transaction system, choosing the paper's
    polynomial algorithms where they exist and falling back to bounded
    exhaustive search where the problem is coNP-hard. *)

(** {1 Safety ∧ deadlock-freedom (polynomial — Theorems 3 & 4)} *)

type safety_verdict =
  | Safe_and_deadlock_free
  | Pair_violation of {
      i : int;
      j : int;
      failure : Ddlock_safety.Pair.failure;
    }
  | Cycle_violation of Ddlock_safety.Many.cycle_witness

(** The verdict's line as {!render_full} prints it; a cycle's witness
    S* on a second line, as a vertical box. *)
val pp_safety_verdict : System.t -> Format.formatter -> safety_verdict -> unit

(** Decide safety ∧ deadlock-freedom with Theorem 4 (which degenerates to
    Theorem 3 for two transactions and Corollary 3 for copies). *)
val safe_and_deadlock_free : System.t -> safety_verdict

(** {1 Deadlock-freedom alone (coNP-hard — bounded search)} *)

type deadlock_verdict =
  | Deadlock_free
  | Deadlocks of {
      schedule : Step.t list;  (** a partial schedule that deadlocks *)
      state : State.t;
    }
  | Gave_up of { states_explored : int }
      (** the bounded exhaustive search exceeded its budget *)

(** [deadlock_free ?max_states sys] — first tries the
    polynomial sufficient condition of Theorem 4 (safe ∧ DF ⇒ DF), then
    the polynomial hold-and-wait certificate
    ({!Ddlock_deadlock.Hold_wait.certifies}, counted by the
    [analysis.deadlock_certified] counter); a system that passes either
    is deadlock-free.  Otherwise it runs the bounded exhaustive
    Theorem-1 search ({!Ddlock_schedule.Explore.find_deadlock}).
    Default budget: 500_000 states, for each of its two stages: the
    plain search decides and supplies the witness, and when it gives
    up a reduced search (orbit quotient, persistent sets) may still
    prove the system deadlock-free.  [Gave_up] carries the plain
    search's state count. *)
val deadlock_free : ?max_states:int -> System.t -> deadlock_verdict

(** {1 Reports} *)

type report = {
  txn_count : int;
  entity_count : int;
  site_count : int;
  total_nodes : int;
  all_two_phase : bool;
  interaction_edges : int;
  interaction_cycles : int;
  safety : safety_verdict;
  deadlock : deadlock_verdict;
}

(** Full analysis: structural statistics plus both verdicts (the
    deadlock verdict as {!deadlock_free} decides it). *)
val report : ?max_states:int -> System.t -> report

(** The report's lines as {!render_full} prints them, as a vertical
    box. *)
val pp_report : System.t -> Format.formatter -> report -> unit

(** [render_full ?max_states sys] is
    [(text, status, report)]: the exact bytes [ddlock analyze] prints
    on stdout for [sys] (report plus, for a [Deadlocks] verdict, the
    narrated schedule and explanation), together with the process exit
    status the CLI uses ([0] iff safe ∧ deadlock-free, else [1]).  The
    CLI and the serve daemon both call this, which is what makes served
    verdicts byte-equivalent to local analysis. *)
val render_full : ?max_states:int -> System.t -> string * int * report

(** {1 Pair counterexamples}

    A failing Theorem 3 verdict is backed by a replayable witness: a
    partial schedule of the pair whose serialization digraph D is cyclic
    (the Lemma 1 characterization of "not safe ∧ deadlock-free"). *)

type pair_counterexample = {
  steps : Step.t list;
  d_cycle : int list;  (** a cycle of D(steps) over {0, 1} *)
}

(** [pair_counterexample ?max_states t1 t2] — [None] when the pair is
    safe ∧ deadlock-free or the bounded search gives up.  For
    [No_common_first] failures the witness is built directly (both
    first-lock prefixes); otherwise a bounded Lemma-1 search runs. *)
val pair_counterexample :
  ?max_states:int ->
  Transaction.t ->
  Transaction.t ->
  pair_counterexample option

(** {1 Repair}

    When a system of total-order transactions fails the Theorem 4 test,
    the classic fix is a global lock order: rewrite every transaction to
    lock its entities in one fixed order (ascending entity id) and
    unlock two-phase afterwards.  The rewrite preserves each
    transaction's access set; the result always passes Theorem 4 (2PL
    chains over a common order have common-first entities and guards). *)

(** [repair_with_global_order sys] — [None] if some transaction is not a
    total order; otherwise the rewritten, certified system. *)
val repair_with_global_order : System.t -> System.t option
