(** Request-scoped trace context.

    The analysis daemon ({!Ddlock_serve}) assigns each accepted request
    an id and installs it here for the duration of the work done on its
    behalf, so every {!Trace} event recorded along the way — cache
    lookup, admission wait, the search phases inside the exploration,
    cancellation — carries the id and the whole request can be
    reassembled into one span tree afterwards.

    The slot is {e domain}-local (one request at a time per serve worker
    domain, which runs the whole analysis).  Threads multiplexed on one
    domain — the daemon's connection threads — must not use the ambient
    slot and instead tag their spans explicitly via [Trace.span ?req]. *)

val none : int
(** The null id ([0]): no request context. *)

val current : unit -> int
(** The current domain's request id, {!none} when outside a request. *)

val with_id : int -> (unit -> 'a) -> 'a
(** [with_id id f] installs [id] as the current domain's request id for
    the duration of [f] (restored on exit, normal or exceptional). *)
