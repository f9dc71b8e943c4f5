(** Blocking client for the analysis daemon (used by [ddlock request],
    the chaos battery and the serve benchmark). *)

type reply =
  | Verdict of { status : int; body : string }
  | Busy of { retry_after_ms : int }
  | Timeout
  | Server_error of string
  | Pong

(** Errors raised before a well-formed reply arrives. *)
type error =
  | Connect of string  (** socket missing / refused / not a socket *)
  | Io of string  (** connection died or stalled mid-reply *)
  | Malformed of string  (** the peer is not speaking the protocol *)
  | Refused of string
      (** well-formed [error] reply to a {!metrics} / {!flight} /
          {!trace} call (e.g. an unknown trace id) *)

val pp_error : Format.formatter -> error -> unit

type meta = {
  req_id : int option;  (** the server's [req=<id>] header extra *)
  cached : bool option;  (** [cache=hit|miss], analyze replies only *)
}

val no_meta : meta

val analyze :
  socket:string ->
  ?max_states:int ->
  ?deadline_ms:int ->
  string ->
  (reply, error) result
(** [analyze ~socket source] submits the system source (the
    [ddlock analyze] input format) and waits for the reply.  One
    connection per call. *)

val analyze_ex :
  socket:string ->
  ?max_states:int ->
  ?deadline_ms:int ->
  string ->
  (reply * meta, error) result
(** {!analyze}, additionally returning the reply-header extras: the
    server-assigned request id (the handle for a follow-up [trace]
    call) and whether the verdict came from the cache. *)

val ping : socket:string -> (reply, error) result

val stats : socket:string -> (reply, error) result
(** The daemon's {!Server.stats_json} counters as a {!Verdict} body. *)

val metrics : socket:string -> (string, error) result
(** The daemon's Prometheus text exposition
    ({!Server.metrics_text}). *)

val flight : socket:string -> (string, error) result
(** The daemon's flight-recorder JSON ({!Server.flight_json}). *)

val trace : socket:string -> int -> (string, error) result
(** [trace ~socket id] fetches request [id]'s span tree as Chrome
    trace-event JSON; {!Refused} when the id is unknown, was not
    traced, or has aged out of the daemon's rings. *)

val raw : socket:string -> string -> (string, error) result
(** Send [bytes] verbatim and return everything the server sends back
    until it closes the connection — the chaos battery's hammer for
    malformed frames.  A read timeout (server kept the connection open)
    also returns the bytes received so far. *)
