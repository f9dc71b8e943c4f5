open Ddlock_graph
open Ddlock_model

(** The serialization digraph D(S′) of a (partial) schedule (§2, §5).

    Nodes are transactions.  There is an arc [Tᵢ → Tⱼ] labelled [x] iff
    both access [x] and [Tᵢ] locks [x] in S′ before [Tⱼ] does — including
    the case where [Tⱼ] has not yet locked [x] in S′ (§5). *)

type labelled_arc = { src : int; dst : int; entity : Db.entity }

(** All labelled arcs of D(S′). *)
val arcs : System.t -> Step.t list -> labelled_arc list

(** D(S′) as a digraph over transaction indices. *)
val graph : System.t -> Step.t list -> Digraph.t

(** [is_serializable sys s] iff D(s) is acyclic.  For complete schedules
    this is the serializability criterion of §2; for partial schedules
    acyclicity of D is the safety ∧ deadlock-freedom criterion of
    Lemma 1. *)
val is_serializable : System.t -> Step.t list -> bool

(** A cycle of D(S′) (transaction indices), if any. *)
val find_cycle : System.t -> Step.t list -> int list option
