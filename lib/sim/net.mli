open Ddlock_model

(** The send path of the discrete-event lock-manager simulator (the one
    loop in {!Recovery}, which also runs {!Runtime} and [Rw_runtime]):
    the service-time model and the messages that pass through a
    {!Faults} injector.  Each call draws from the simulator's RNG in a
    fixed order, so a run replays byte for byte from its seed. *)

type config = {
  min_duration : float;  (** lower bound of a step's service time *)
  max_duration : float;  (** upper bound (uniform) *)
  site_latency : float;  (** added once per cross-site transition *)
  request_jitter : float;
      (** a Lock request reaches its entity's lock manager after a
          uniform [0, request_jitter) transit delay, so concurrent
          requests race in different orders on different seeds *)
}

val default_config : config

type t
(** Per-run sender: the configuration, the simulator's RNG, the fault
    injector and the site of each transaction's previous step. *)

val create : config -> Random.State.t -> Faults.t -> Db.t -> txns:int -> t

(** [execute t q ~now txn e ev] pushes [ev] at the time a step of [txn]
    on [e], begun at [now], completes: a uniform service time, plus
    [site_latency] when [txn]'s previous step ran at another site, plus
    the fault delays of [e]'s site.  Grants and unlocks go this way. *)
val execute : t -> 'a Pqueue.t -> now:float -> int -> Db.entity -> 'a -> unit

(** [request t q ~now e ev] sends a lock request to [e]'s manager: [ev]
    arrives after a uniform transit jitter plus fault delays, and a
    second copy follows when the injector duplicates the request. *)
val request : t -> 'a Pqueue.t -> now:float -> Db.entity -> 'a -> unit
