(** Monotonic-clock span tracing with Chrome trace-event output.

    A span is a named interval measured on the {!Clock} monotonic clock
    and tagged with the recording domain's id, so spans from the
    analysis daemon's worker domains land on separate tracks when the
    JSON is loaded in Perfetto / [chrome://tracing].

    Every event also carries a {e request id} — the ambient
    {!Request.current} context unless overridden with [?req] — so the
    analysis daemon can pull one request's complete span tree out of the
    shared buffer ({!take_request}) after the request finishes.

    Recording is a no-op while {!Control.is_on} is false ([span] then
    just runs its body).  Span completion grabs one global lock; spans
    are per analysis phase or per daemon request stage, never per
    state, so the lock is cold. *)

type event = {
  name : string;
  cat : string;
  ts_ns : int;  (** start, monotonic ns *)
  dur_ns : int;  (** [-1] for instant events *)
  tid : int;  (** recording domain id *)
  req : int;  (** request id, {!Request.none} outside a request *)
  args : (string * string) list;
}

val span :
  ?cat:string -> ?req:int -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recording a completed-duration event
    around it.  The event is recorded even when [f] raises (the
    exploration engines escape via [Too_large] and [Exit]).  [?req]
    overrides the ambient request context — required on threads that
    share a domain (the daemon's connection threads), where the ambient
    domain-local slot is not trustworthy. *)

val instant :
  ?cat:string -> ?req:int -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val events : unit -> event list
(** Recorded events in chronological (start-time) order. *)

val take_request : int -> event list
(** [take_request id] removes and returns (chronologically) every
    buffered event recorded under request [id].  The daemon calls this
    once per completed request, which also keeps the shared buffer from
    accumulating per-request events over a long-lived process. *)

val clear : unit -> unit

(** {1 Output} *)

val chrome_json : event list -> string
(** The events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}], complete ["ph":"X"] events with
    microsecond timestamps, request ids as an ["req"] arg) — loadable
    in Perfetto and [chrome://tracing]. *)

val write_chrome_json : out_channel -> unit
(** [chrome_json] of all recorded events, written to a channel. *)

val summary : unit -> (string * int * float) list
(** Per-span-name totals: (name, occurrences, total milliseconds),
    sorted by name.  Instant events count with zero duration. *)

val pp_summary : Format.formatter -> (string * int * float) list -> unit
