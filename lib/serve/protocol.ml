let max_line = 4096
let default_max_request = 1_048_576

type request =
  | Ping
  | Stats
  | Metrics
  | Flight
  | Trace_of of int
  | Analyze of {
      body_len : int;
      max_states : int option;
      deadline_ms : int option;
    }

type response =
  | Verdict of { status : int; body : string }
  | Error_line of string
  | Busy of { retry_after_ms : int }
  | Timeout
  | Pong

let one_line s =
  let s = String.map (function '\n' | '\r' -> ' ' | c -> c) s in
  let cap = max_line - 16 in
  if String.length s <= cap then s else String.sub s 0 cap

let int_of_token ~what tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected a non-negative integer, got %S" what (one_line tok))

let parse_request line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] -> Error "empty request line"
  | magic :: rest when magic <> "ddlock/1" ->
      ignore rest;
      Error (Printf.sprintf "bad magic %S (expected ddlock/1)" (one_line magic))
  | _ :: [] ->
      Error "missing verb (expected analyze | ping | stats | metrics | flight | trace)"
  | _ :: "ping" :: [] -> Ok Ping
  | _ :: "stats" :: [] -> Ok Stats
  | _ :: "metrics" :: [] -> Ok Metrics
  | _ :: "flight" :: [] -> Ok Flight
  | _ :: "ping" :: _ | _ :: "stats" :: _ | _ :: "metrics" :: _
  | _ :: "flight" :: _ ->
      Error "ping/stats/metrics/flight take no arguments"
  | _ :: "trace" :: [ id ] -> (
      match int_of_token ~what:"trace request id" id with
      | Error _ as e -> e
      | Ok id -> Ok (Trace_of id))
  | _ :: "trace" :: _ -> Error "trace takes exactly one request id"
  | _ :: "analyze" :: [] -> Error "analyze: missing body length"
  | _ :: "analyze" :: len :: opts -> (
      match int_of_token ~what:"analyze length" len with
      | Error _ as e -> e
      | Ok body_len ->
          let rec go acc = function
            | [] -> Ok acc
            | opt :: rest -> (
                match String.index_opt opt '=' with
                | Some i -> (
                    let k = String.sub opt 0 i in
                    let v = String.sub opt (i + 1) (String.length opt - i - 1) in
                    match k with
                    | "max-states" -> (
                        match int_of_token ~what:"max-states" v with
                        | Error _ as e -> e
                        | Ok n ->
                            let _, deadline_ms = acc in
                            go (Some n, deadline_ms) rest)
                    | "deadline-ms" -> (
                        match int_of_token ~what:"deadline-ms" v with
                        | Error _ as e -> e
                        | Ok n ->
                            let max_states, _ = acc in
                            go (max_states, Some n) rest)
                    | _ ->
                        Error
                          (Printf.sprintf "unknown option %S" (one_line k)))
                | None ->
                    Error (Printf.sprintf "unknown option %S" (one_line opt)))
          in
          (match go (None, None) opts with
          | Error _ as e -> e
          | Ok (max_states, deadline_ms) ->
              Ok (Analyze { body_len; max_states; deadline_ms })))
  | _ :: verb :: _ ->
      Error
        (Printf.sprintf
           "unknown verb %S (expected analyze | ping | stats | metrics | flight | trace)"
           (one_line verb))

let render_request_header ?max_states ?deadline_ms ~body_len () =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "ddlock/1 analyze %d" body_len);
  (match max_states with
  | Some n -> Buffer.add_string b (Printf.sprintf " max-states=%d" n)
  | None -> ());
  (match deadline_ms with
  | Some n -> Buffer.add_string b (Printf.sprintf " deadline-ms=%d" n)
  | None -> ());
  Buffer.add_char b '\n';
  Buffer.contents b

let ping_header = "ddlock/1 ping\n"
let stats_header = "ddlock/1 stats\n"
let metrics_header = "ddlock/1 metrics\n"
let flight_header = "ddlock/1 flight\n"
let trace_header id = Printf.sprintf "ddlock/1 trace %d\n" id

type response_header =
  | Head_ok of { status : int; body_len : int }
  | Head_error of string
  | Head_busy of { retry_after_ms : int }
  | Head_timeout
  | Head_pong

let parse_response_header line =
  match String.split_on_char ' ' line with
  | "pong" :: _ -> Ok Head_pong
  | "timeout" :: _ -> Ok Head_timeout
  | "ok" :: status :: len :: _ -> (
      match (int_of_string_opt status, int_of_string_opt len) with
      | Some status, Some body_len when body_len >= 0 ->
          Ok (Head_ok { status; body_len })
      | _ -> Error (Printf.sprintf "malformed ok header %S" (one_line line)))
  | "busy" :: ms :: _ -> (
      match int_of_string_opt ms with
      | Some retry_after_ms when retry_after_ms >= 0 ->
          Ok (Head_busy { retry_after_ms })
      | _ -> Error (Printf.sprintf "malformed busy header %S" (one_line line)))
  | "error" :: _ ->
      let msg =
        if String.length line > 6 then String.sub line 6 (String.length line - 6)
        else ""
      in
      Ok (Head_error msg)
  | _ -> Error (Printf.sprintf "malformed response header %S" (one_line line))

(* Trailing [k=v] tokens appended to ok/busy/timeout header lines
   (e.g. [req=17 cache=hit]).  Older parsers — including pre-extras
   builds of this client — ignore the extra tokens, so the extras are
   backward- and forward-compatible.  [error] lines carry a free-form
   message that may itself contain '=', so they never have extras. *)
let header_extras line =
  match String.split_on_char ' ' line with
  | "error" :: _ -> []
  | toks ->
      List.filter_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i when i > 0 ->
              Some
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) )
          | _ -> None)
        toks

let render_extras = function
  | [] -> ""
  | kvs ->
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (one_line v)) kvs)

let render_response_header ?(extras = []) = function
  | Verdict { status; body } ->
      Printf.sprintf "ok %d %d%s\n" status (String.length body)
        (render_extras extras)
  | Error_line msg -> Printf.sprintf "error %s\n" (one_line msg)
  | Busy { retry_after_ms } ->
      Printf.sprintf "busy %d%s\n" retry_after_ms (render_extras extras)
  | Timeout -> Printf.sprintf "timeout%s\n" (render_extras extras)
  | Pong -> "pong\n"
