type reply =
  | Verdict of { status : int; body : string }
  | Busy of { retry_after_ms : int }
  | Timeout
  | Server_error of string
  | Pong

type error =
  | Connect of string
  | Io of string
  | Malformed of string
  | Refused of string

let pp_error ppf = function
  | Connect msg -> Format.fprintf ppf "connect: %s" msg
  | Io msg -> Format.fprintf ppf "i/o: %s" msg
  | Malformed msg -> Format.fprintf ppf "malformed reply: %s" msg
  | Refused msg -> Format.fprintf ppf "server: %s" msg

let connect path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      Error (Connect (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let with_conn path f =
  match connect path with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () ->
          (* Generous safety net so a wedged daemon cannot hang the
             client forever; the server's own deadlines fire first. *)
          Wire.set_read_timeout fd 120.;
          f fd)

type meta = { req_id : int option; cached : bool option }

let meta_of_extras extras =
  {
    req_id = Option.bind (List.assoc_opt "req" extras) int_of_string_opt;
    cached =
      (match List.assoc_opt "cache" extras with
      | Some "hit" -> Some true
      | Some "miss" -> Some false
      | _ -> None);
  }

let no_meta = { req_id = None; cached = None }

let read_reply_ex fd =
  match Wire.read_line fd with
  | Error e ->
      Error
        (Io
           (match e with
           | `Eof | `Eof_mid -> "server closed the connection"
           | `Idle | `Slow -> "server reply timed out"
           | `Too_long -> "reply header too long"
           | `Closed -> "connection reset"))
  | Ok line -> (
      let meta = meta_of_extras (Protocol.header_extras line) in
      match Protocol.parse_response_header line with
      | Error msg -> Error (Malformed msg)
      | Ok (Protocol.Head_ok { status; body_len }) -> (
          match Wire.read_exact fd body_len with
          | Error _ -> Error (Io "connection died mid-body")
          | Ok body -> Ok (Verdict { status; body }, meta))
      | Ok (Protocol.Head_error msg) -> Ok (Server_error msg, meta)
      | Ok (Protocol.Head_busy { retry_after_ms }) ->
          Ok (Busy { retry_after_ms }, meta)
      | Ok Protocol.Head_timeout -> Ok (Timeout, meta)
      | Ok Protocol.Head_pong -> Ok (Pong, meta))

let roundtrip_ex ~socket payload =
  with_conn socket @@ fun fd ->
  match Wire.write_all fd payload with
  | Error `Closed -> Error (Io "connection reset while sending")
  | Ok () -> read_reply_ex fd

let roundtrip ~socket payload = Result.map fst (roundtrip_ex ~socket payload)

let analyze_payload ?max_states ?deadline_ms source =
  Protocol.render_request_header ?max_states ?deadline_ms
    ~body_len:(String.length source) ()
  ^ source

let analyze ~socket ?max_states ?deadline_ms source =
  roundtrip ~socket (analyze_payload ?max_states ?deadline_ms source)

let analyze_ex ~socket ?max_states ?deadline_ms source =
  roundtrip_ex ~socket (analyze_payload ?max_states ?deadline_ms source)

let ping ~socket = roundtrip ~socket Protocol.ping_header
let stats ~socket = roundtrip ~socket Protocol.stats_header

let body_verb ~what ~socket payload =
  match roundtrip ~socket payload with
  | Error e -> Error e
  | Ok (Verdict { body; _ }) -> Ok body
  | Ok (Server_error msg) -> Error (Refused (what ^ ": " ^ msg))
  | Ok _ -> Error (Malformed (what ^ ": unexpected reply kind"))

let metrics ~socket = body_verb ~what:"metrics" ~socket Protocol.metrics_header
let flight ~socket = body_verb ~what:"flight" ~socket Protocol.flight_header

let trace ~socket id =
  body_verb ~what:"trace" ~socket (Protocol.trace_header id)

let raw ~socket bytes =
  with_conn socket @@ fun fd ->
  Wire.set_read_timeout fd 10.;
  match Wire.write_all fd bytes with
  | Error `Closed -> Error (Io "connection reset while sending")
  | Ok () ->
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> Ok (Buffer.contents buf)
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            Ok (Buffer.contents buf)
        | exception Unix.Unix_error (EINTR, _, _) -> drain ()
        | exception Unix.Unix_error (_, _, _) -> Ok (Buffer.contents buf)
      in
      drain ()
