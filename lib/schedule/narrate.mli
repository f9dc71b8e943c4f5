open Ddlock_model

(** Human-readable narration of schedules — used by the CLI and examples
    to explain witnesses: which locks are acquired, who waits for whom,
    which serialization arcs appear, and where the schedule gets stuck or
    goes wrong. *)

(** One narration line per executed step, plus a final status line. *)
val narrate : System.t -> Step.t list -> string list

(** The same as a formatted block. *)
val pp : System.t -> Format.formatter -> Step.t list -> unit

(** [explain_deadlock sys steps] — narration for a partial schedule that
    ends in a deadlock state: the step lines followed by per-transaction
    "blocked on" lines: {!narrate}'s lines, status included, are its
    prefix.  Raises [Invalid_argument] if the schedule is illegal. *)
val explain_deadlock : System.t -> Step.t list -> string list

(** [add_explanation buf sys steps] writes the lines of
    {!explain_deadlock}[ sys steps] into [buf], each ended by a
    newline. *)
val add_explanation : Buffer.t -> System.t -> Step.t list -> unit
