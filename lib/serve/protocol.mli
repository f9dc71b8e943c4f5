(** Wire protocol of the analysis daemon.

    Requests and responses are a single header line (LF-terminated,
    at most {!max_line} bytes) optionally followed by a length-prefixed
    body whose byte count appears on the header line — no quoting, no
    escaping, trivially parseable from any language:

    {v
    client:  ddlock/1 analyze <len> [max-states=N] [deadline-ms=N]
             <len bytes of system source>
    client:  ddlock/1 ping
    client:  ddlock/1 stats
    client:  ddlock/1 metrics
    client:  ddlock/1 flight
    client:  ddlock/1 trace <request-id>

    server:  ok <status> <len> [k=v]...   followed by <len> bytes of body
    server:  error <one-line message>
    server:  busy <retry-after-ms> [k=v]...
    server:  timeout [k=v]...
    server:  pong
    v}

    [ok]'s [<status>] is the exit status [ddlock analyze] would have
    used (0 = safe ∧ deadlock-free, 1 otherwise) and the body is the
    exact bytes it would have printed ({!Ddlock.Analysis.render_full}).
    A server answers requests on one connection sequentially until the
    client closes; after any [error] reply the server closes the
    connection (the stream position is no longer trustworthy).

    [metrics] answers [ok 0 <len>] with a Prometheus text-exposition
    body; [flight] answers [ok 0 <len>] with the flight-recorder ring as
    a JSON document; [trace <id>] answers [ok 0 <len>] with the retained
    span tree of request [id] as Chrome trace-event JSON (or [error] if
    that request is unknown or has aged out).  Servers may append
    [k=v] extras to [ok]/[busy]/[timeout] header lines — e.g.
    [req=<id> cache=hit|miss] — which old clients skip by construction
    ({!parse_response_header} ignores trailing tokens). *)

val max_line : int
(** Cap on the header line length (bytes, excluding the LF).  Longer
    lines are a protocol error: the peer is malformed or malicious. *)

val default_max_request : int
(** Default cap on an [analyze] body (1 MiB). *)

type request =
  | Ping
  | Stats
  | Metrics
  | Flight
  | Trace_of of int  (** [trace <request-id>] *)
  | Analyze of {
      body_len : int;
      max_states : int option;  (** [None] = server default *)
      deadline_ms : int option;  (** [None] = server default *)
    }

type response =
  | Verdict of { status : int; body : string }  (** [ok] *)
  | Error_line of string
  | Busy of { retry_after_ms : int }
  | Timeout
  | Pong

val parse_request : string -> (request, string) result
(** Parse a request header line (without the LF).  Errors are one-line,
    human-readable, and safe to echo back in an [error] reply. *)

val render_request_header :
  ?max_states:int -> ?deadline_ms:int -> body_len:int -> unit -> string
(** The [analyze] header line (LF included) for a [body_len]-byte body. *)

val ping_header : string

val stats_header : string

val metrics_header : string

val flight_header : string

val trace_header : int -> string
(** The [trace <id>] header line (LF included). *)

type response_header =
  | Head_ok of { status : int; body_len : int }
  | Head_error of string
  | Head_busy of { retry_after_ms : int }
  | Head_timeout
  | Head_pong

val parse_response_header : string -> (response_header, string) result
(** Parse a response header line (without the LF); [Head_ok] tells the
    caller how many body bytes follow.  Trailing extras are ignored —
    retrieve them from the raw line with {!header_extras}. *)

val header_extras : string -> (string * string) list
(** The trailing [k=v] tokens of a raw ok/busy/timeout response header
    line, in order ([[]] for [error] lines, whose free-form message may
    itself contain ['=']). *)

val render_response_header : ?extras:(string * string) list -> response ->
  string
(** The header line (LF included) of [response]; for {!Verdict} the body
    must be written separately.  [extras] are appended as [k=v] tokens
    (values sanitized with {!one_line}) on ok/busy/timeout lines and
    ignored on the others. *)

val one_line : string -> string
(** Sanitize an arbitrary message for embedding in an [error] reply:
    newlines become spaces, the result is truncated to fit the header
    line. *)
