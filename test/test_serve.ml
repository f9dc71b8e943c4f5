(* The analysis daemon: protocol/cache/pool units, an end-to-end
   equivalence check against Analysis.render_full, the robustness
   contract (busy backpressure, deadlines, malformed/oversized/slowloris
   frames, graceful drain), and a concurrent self-chaos battery. *)

open Ddlock
open Ddlock_serve

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  (match Protocol.parse_request "ddlock/1 ping" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match Protocol.parse_request "ddlock/1 stats" with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match
     Protocol.parse_request
       "ddlock/1 analyze 42 max-states=1000 deadline-ms=250"
   with
  | Ok
      (Protocol.Analyze
        { body_len = 42; max_states = Some 1000; deadline_ms = Some 250 }) ->
      ()
  | _ -> Alcotest.fail "analyze with options");
  (match Protocol.parse_request "ddlock/1 analyze 7" with
  | Ok
      (Protocol.Analyze
        { body_len = 7; max_states = None; deadline_ms = None })
    ->
      ()
  | _ -> Alcotest.fail "bare analyze");
  let bad l =
    match Protocol.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should reject: " ^ l)
  in
  bad "";
  bad "http/1.1 GET /";
  bad "ddlock/1";
  bad "ddlock/1 analyze";
  bad "ddlock/1 analyze -3";
  bad "ddlock/1 analyze five";
  bad "ddlock/1 analyze 7 max-states=many";
  bad "ddlock/1 analyze 7 frobnicate=1";
  bad "ddlock/1 analyze 7 symmetry";
  bad "ddlock/1 shutdown";
  bad "ddlock/1 ping extra"

let test_protocol_roundtrip () =
  let hdr =
    Protocol.render_request_header ~max_states:9 ~deadline_ms:5 ~body_len:3 ()
  in
  (match
     Protocol.parse_request (String.sub hdr 0 (String.length hdr - 1))
   with
  | Ok
      (Protocol.Analyze { body_len = 3; max_states = Some 9; deadline_ms = Some 5 })
    ->
      ()
  | _ -> Alcotest.fail "request round-trip");
  let resp r =
    let line = Protocol.render_response_header r in
    Protocol.parse_response_header (String.sub line 0 (String.length line - 1))
  in
  (match resp (Protocol.Verdict { status = 1; body = "xyz" }) with
  | Ok (Protocol.Head_ok { status = 1; body_len = 3 }) -> ()
  | _ -> Alcotest.fail "ok round-trip");
  (match resp (Protocol.Busy { retry_after_ms = 50 }) with
  | Ok (Protocol.Head_busy { retry_after_ms = 50 }) -> ()
  | _ -> Alcotest.fail "busy round-trip");
  (match resp Protocol.Timeout with
  | Ok Protocol.Head_timeout -> ()
  | _ -> Alcotest.fail "timeout round-trip");
  (match resp (Protocol.Error_line "multi\nline\rmess") with
  | Ok (Protocol.Head_error msg) ->
      check bool_t "sanitized" false (String.contains msg '\n')
  | _ -> Alcotest.fail "error round-trip")

let test_protocol_observability_verbs () =
  (match Protocol.parse_request "ddlock/1 metrics" with
  | Ok Protocol.Metrics -> ()
  | _ -> Alcotest.fail "metrics");
  (match Protocol.parse_request "ddlock/1 flight" with
  | Ok Protocol.Flight -> ()
  | _ -> Alcotest.fail "flight");
  (match Protocol.parse_request "ddlock/1 trace 42" with
  | Ok (Protocol.Trace_of 42) -> ()
  | _ -> Alcotest.fail "trace");
  let bad l =
    match Protocol.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should reject: " ^ l)
  in
  bad "ddlock/1 trace";
  bad "ddlock/1 trace -1";
  bad "ddlock/1 trace 1 2";
  bad "ddlock/1 metrics now";
  bad "ddlock/1 flight x"

let test_header_extras () =
  let line r extras =
    let l = Protocol.render_response_header ~extras r in
    String.sub l 0 (String.length l - 1)
  in
  let ok =
    line (Protocol.Verdict { status = 1; body = "xyz" })
      [ ("req", "17"); ("cache", "hit") ]
  in
  (* Extras ride behind the standard tokens, so a parser that predates
     them still reads the header. *)
  (match Protocol.parse_response_header ok with
  | Ok (Protocol.Head_ok { status = 1; body_len = 3 }) -> ()
  | _ -> Alcotest.fail "ok header with extras still parses");
  check
    Alcotest.(list (pair string_t string_t))
    "extras round-trip"
    [ ("req", "17"); ("cache", "hit") ]
    (Protocol.header_extras ok);
  (match
     Protocol.parse_response_header
       (line (Protocol.Busy { retry_after_ms = 9 }) [ ("req", "3") ])
   with
  | Ok (Protocol.Head_busy { retry_after_ms = 9 }) -> ()
  | _ -> Alcotest.fail "busy with extras");
  (match
     Protocol.parse_response_header (line Protocol.Timeout [ ("req", "4") ])
   with
  | Ok Protocol.Head_timeout -> ()
  | _ -> Alcotest.fail "timeout with extras");
  (* An error message containing '=' must not leak fake extras. *)
  check
    Alcotest.(list (pair string_t string_t))
    "error lines carry no extras" []
    (Protocol.header_extras "error bad option max-states=no")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check (Alcotest.option int_t) "hit a" (Some 1) (Cache.find c "a");
  (* a is now most recent; inserting c evicts b. *)
  Cache.add c "c" 3;
  check (Alcotest.option int_t) "b evicted" None (Cache.find c "b");
  check (Alcotest.option int_t) "a kept" (Some 1) (Cache.find c "a");
  check (Alcotest.option int_t) "c kept" (Some 3) (Cache.find c "c");
  check int_t "length" 2 (Cache.length c);
  check int_t "hits" 3 (Cache.hits c);
  check int_t "misses" 1 (Cache.misses c);
  (* Overwrite keeps one entry. *)
  Cache.add c "c" 33;
  check (Alcotest.option int_t) "overwritten" (Some 33) (Cache.find c "c");
  check int_t "length stable" 2 (Cache.length c);
  (* Capacity 0 stores nothing. *)
  let z = Cache.create ~capacity:0 in
  Cache.add z "k" 1;
  check (Alcotest.option int_t) "disabled" None (Cache.find z "k")

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_and_refuses () =
  let p = Pool.create ~workers:2 ~queue_cap:64 in
  let cells = List.init 20 (fun _ -> Pool.Cell.create ()) in
  List.iteri
    (fun i cell ->
      check bool_t "accepted" true
        (Pool.submit p (fun () -> Pool.Cell.fill cell (i * i))))
    cells;
  List.iteri
    (fun i cell -> check int_t "result" (i * i) (Pool.Cell.wait cell))
    cells;
  Pool.shutdown p;
  check bool_t "refused after shutdown" false (Pool.submit p (fun () -> ()));
  (* A zero-capacity queue refuses immediately. *)
  let p0 = Pool.create ~workers:1 ~queue_cap:0 in
  check bool_t "refused at cap" false (Pool.submit p0 (fun () -> ()));
  Pool.shutdown p0

let test_pool_exception_isolation () =
  let p = Pool.create ~workers:1 ~queue_cap:8 in
  check bool_t "crasher accepted" true (Pool.submit p (fun () -> failwith "boom"));
  let cell = Pool.Cell.create () in
  check bool_t "accepted after crash" true
    (Pool.submit p (fun () -> Pool.Cell.fill cell 7));
  check int_t "worker survived the raising job" 7 (Pool.Cell.wait cell);
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Cancellation hook                                                   *)
(* ------------------------------------------------------------------ *)

let test_cancel_bounds_exploration () =
  let sys = Ddlock_workload.Gentx.dining_philosophers 6 in
  let calls = ref 0 in
  (* A poll that trips after a few budget checks must abort the search
     with Cancelled (not Too_large, not a verdict). *)
  match
    Obs.Cancel.with_poll
      (fun () ->
        incr calls;
        !calls > 5)
      (fun () -> Sched.Explore.deadlock_free sys)
  with
  | (_ : bool) -> Alcotest.fail "expected cancellation"
  | exception Obs.Cancel.Cancelled ->
      check bool_t "poll consulted" true (!calls > 5);
      (* The slot is restored: the same search now completes. *)
      check bool_t "uncancelled search completes" false
        (Sched.Explore.deadlock_free sys)

(* ------------------------------------------------------------------ *)
(* System cache key                                                    *)
(* ------------------------------------------------------------------ *)

let test_system_key_symmetry () =
  let t = Ddlock_workload.Gentx.guard_ring 4 in
  let k2 = Sched.Canon.system_key (Model.System.copies t 2) in
  let k2' = Sched.Canon.system_key (Model.System.copies t 2) in
  check string_t "copies key is deterministic" k2 k2';
  let k3 = Sched.Canon.system_key (Model.System.copies t 3) in
  check bool_t "copy count changes the key" true (k2 <> k3);
  check bool_t "different system, different key" true
    (Sched.Canon.system_key (Ddlock_workload.Gentx.dining_philosophers 4) <> k2)

(* ------------------------------------------------------------------ *)
(* End-to-end server battery                                           *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddlock-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let source_of sys =
  Model.Parser.to_source (Model.System.db sys)
    (List.mapi
       (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
       (Array.to_list (Model.System.txns sys)))

let with_server ?(tweak = fun c -> c) f =
  let socket = fresh_socket () in
  let cfg = tweak (Server.default_config ~socket_path:socket) in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Server.wait t)
    (fun () -> f ~socket t)

let expect_verdict = function
  | Ok (Client.Verdict { status; body }) -> (status, body)
  | Ok _ -> Alcotest.fail "expected a verdict reply"
  | Error e -> Alcotest.fail (Format.asprintf "client error: %a" Client.pp_error e)

let test_served_verdicts_equal_local () =
  let systems =
    [
      Model.System.copies (Ddlock_workload.Gentx.guard_ring 4) 2;
      Ddlock_workload.Gentx.dining_philosophers 4;
      Ddlock_workload.Gentx.zipf_system (Fixtures.rng 7) ~sites:2 ~entities:4
        ~txns:3 ~theta:1.0;
    ]
  in
  with_server @@ fun ~socket _t ->
  List.iter
    (fun sys ->
      let source = source_of sys in
      let local_text, local_status, _ = Analysis.render_full sys in
      let status, body = expect_verdict (Client.analyze ~socket source) in
      check int_t "status equals analyze exit" local_status status;
      check string_t "verdict bytes equal local analysis" local_text body;
      (* Again — the hit must serve the identical bytes. *)
      let status', body' = expect_verdict (Client.analyze ~socket source) in
      check int_t "cached status" local_status status';
      check string_t "cached bytes" local_text body')
    systems

let test_daemon_symmetric_bytes () =
  (* Copies systems render the same bytes with or without a deadline,
     equal to local [render_full] at the same budget; on ring 9×2 the
     plain search gives up and the reduced one proves the system
     deadlock-free.  The cache is off so both requests are really
     analysed. *)
  with_server
    ~tweak:(fun c -> { c with Server.cache_cap = 0 })
  @@ fun ~socket _t ->
  let max_states = 20_000 in
  List.iter
    (fun sys ->
      let source = source_of sys in
      let local_text, local_status, _ = Analysis.render_full ~max_states sys in
      let status, body =
        expect_verdict (Client.analyze ~socket ~max_states source)
      in
      let status', body' =
        expect_verdict
          (Client.analyze ~socket ~max_states ~deadline_ms:60_000 source)
      in
      check int_t "status equals analyze exit" local_status status;
      check string_t "bytes equal local analysis" local_text body;
      check int_t "deadlined status" local_status status';
      check string_t "deadlined bytes equal undeadlined" body body')
    [
      Model.System.copies (Ddlock_workload.Gentx.guard_ring 4) 2;
      Model.System.copies (Ddlock_workload.Gentx.guard_ring 3) 3;
      Model.System.copies (Ddlock_workload.Gentx.guard_ring 9) 2;
    ];
  let _, _, r =
    Analysis.render_full ~max_states
      (Model.System.copies (Ddlock_workload.Gentx.guard_ring 9) 2)
  in
  check bool_t "ring 9×2 deadlock-free" true
    (r.Analysis.deadlock = Analysis.Deadlock_free)

let test_cache_collapses_symmetric_copies () =
  with_server @@ fun ~socket _t ->
  let t = Ddlock_workload.Gentx.guard_ring 3 in
  let sys = Model.System.copies t 2 in
  let _ = expect_verdict (Client.analyze ~socket (source_of sys)) in
  (* The same system re-submitted twice more: both must be hits (the
     K-copies workload collapses onto one Canon.system_key). *)
  let _ = expect_verdict (Client.analyze ~socket (source_of sys)) in
  let _ = expect_verdict (Client.analyze ~socket (source_of sys)) in
  match Client.stats ~socket with
  | Ok (Client.Verdict { body; _ }) ->
      (match Obs.Json.validate body with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("stats json invalid: " ^ e));
      let has needle =
        let len = String.length needle in
        let n = String.length body in
        let rec go i =
          i + len <= n && (String.sub body i len = needle || go (i + 1))
        in
        go 0
      in
      check bool_t "two cache hits recorded" true (has {|"cache_hits": 2|});
      check bool_t "one miss recorded" true (has {|"cache_misses": 1|})
  | _ -> Alcotest.fail "stats failed"

let test_busy_backpressure () =
  (* queue_cap = 0: every analysis that misses the cache is refused with
     a busy reply carrying the retry hint — deterministically. *)
  with_server
    ~tweak:(fun c -> { c with Server.queue_cap = 0; busy_retry_ms = 123 })
  @@ fun ~socket _t ->
  match
    Client.analyze ~socket (source_of (Ddlock_workload.Gentx.dining_philosophers 3))
  with
  | Ok (Client.Busy { retry_after_ms }) ->
      check int_t "retry hint" 123 retry_after_ms
  | _ -> Alcotest.fail "expected busy"

let test_deadline_times_out () =
  with_server @@ fun ~socket _t ->
  let source = source_of (Ddlock_workload.Gentx.dining_philosophers 5) in
  (match Client.analyze ~socket ~deadline_ms:0 source with
  | Ok Client.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected timeout"
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (* The timeout was not cached: a follow-up without a deadline gets the
     real verdict. *)
  let status, _ = expect_verdict (Client.analyze ~socket source) in
  check int_t "verdict after timeout" 1 status

let test_malformed_and_oversized () =
  with_server ~tweak:(fun c -> { c with Server.max_request_bytes = 64 })
  @@ fun ~socket t ->
  (match Client.raw ~socket "gibberish\n" with
  | Ok reply ->
      check bool_t "error reply" true
        (String.length reply >= 5 && String.sub reply 0 5 = "error")
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (match Client.raw ~socket "ddlock/1 analyze 9999\n" with
  | Ok reply ->
      check bool_t "oversized rejected" true
        (String.length reply >= 5 && String.sub reply 0 5 = "error")
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (* A header longer than the cap is cut off with an error. *)
  (match Client.raw ~socket (String.make 8000 'x' ^ "\n") with
  | Ok reply ->
      check bool_t "long header rejected" true
        (String.length reply >= 5 && String.sub reply 0 5 = "error")
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (* The deleted [symmetry] token is an unknown option: one error
     line, and the connection closes. *)
  (match Client.raw ~socket "ddlock/1 analyze 5 symmetry\n" with
  | Ok reply ->
      check string_t "one unknown-option reply"
        "error unknown option \"symmetry\"\n" reply
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (match Client.ping ~socket with
  | Ok Client.Pong -> ()
  | _ -> Alcotest.fail "no pong after the symmetry token");
  (* Unparseable body: a well-framed request whose payload is junk. *)
  (match Client.analyze ~socket "this is not a system" with
  | Ok (Client.Server_error msg) ->
      check bool_t "parse error surfaced" true
        (String.length msg >= 6 && String.sub msg 0 6 = "parse:")
  | _ -> Alcotest.fail "expected parse error");
  (* The daemon survived all of it. *)
  (match Client.ping ~socket with
  | Ok Client.Pong -> ()
  | _ -> Alcotest.fail "daemon died");
  check bool_t "no verdicts from garbage" true
    (String.length (Server.stats_json t) > 0)

let test_slowloris () =
  with_server ~tweak:(fun c -> { c with Server.idle_timeout_ms = 150 })
  @@ fun ~socket _t ->
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX socket);
  (* Half a header, then stall past the idle timeout. *)
  ignore (Unix.write_substring fd "ddlock/1 ana" 0 12);
  Thread.delay 0.5;
  Wire.set_read_timeout fd 5.;
  (match Wire.read_line fd with
  | Ok line ->
      check bool_t "one-line slow-client error" true
        (String.length line >= 5 && String.sub line 0 5 = "error")
  | Error e ->
      Alcotest.fail
        ("expected error line, got "
        ^
        match e with
        | `Eof -> "eof"
        | `Eof_mid -> "eof-mid"
        | `Idle -> "idle"
        | `Slow -> "slow"
        | `Too_long -> "too-long"
        | `Closed -> "closed"));
  (* Daemon alive and still serving. *)
  match Client.ping ~socket with
  | Ok Client.Pong -> ()
  | _ -> Alcotest.fail "daemon died after slowloris"

let test_graceful_drain () =
  let socket = fresh_socket () in
  let t = Server.start (Server.default_config ~socket_path:socket) in
  (match Client.ping ~socket with
  | Ok Client.Pong -> ()
  | _ -> Alcotest.fail "not serving");
  Server.request_stop t;
  Server.wait t;
  check bool_t "socket unlinked" false (Sys.file_exists socket);
  match Client.ping ~socket with
  | Error (Client.Connect _) -> ()
  | _ -> Alcotest.fail "still accepting after drain"

let test_double_bind_refused () =
  with_server @@ fun ~socket _t ->
  match Server.start (Server.default_config ~socket_path:socket) with
  | (_ : Server.t) -> Alcotest.fail "second daemon bound the same socket"
  | exception Failure msg ->
      check bool_t "one-line reason" true (not (String.contains msg '\n'))

(* The battery: concurrent well-formed, malformed, burst and slow
   clients against one daemon.  Every request must be answered, verdicts
   must match the local analysis, and the daemon must stay alive with
   bounded cache state throughout. *)
let test_chaos_battery () =
  with_server
    ~tweak:(fun c ->
      { c with Server.workers = 2; queue_cap = 4; cache_cap = 8;
               idle_timeout_ms = 300 })
  @@ fun ~socket t ->
  let expected =
    List.map
      (fun sys ->
        let text, status, _ = Analysis.render_full sys in
        (source_of sys, (status, text)))
      [
        Model.System.copies (Ddlock_workload.Gentx.guard_ring 3) 2;
        Ddlock_workload.Gentx.dining_philosophers 3;
        Ddlock_workload.Gentx.zipf_system (Fixtures.rng 11) ~sites:2
          ~entities:3 ~txns:2 ~theta:0.8;
      ]
  in
  let n_sources = List.length expected in
  let failures = Mutex.create () in
  let failed = ref [] in
  let fail_with msg =
    Mutex.lock failures;
    failed := msg :: !failed;
    Mutex.unlock failures
  in
  let answered = Atomic.make 0 in
  let busy_seen = Atomic.make 0 in
  let client tid =
    for i = 0 to 11 do
      match (tid + i) mod 4 with
      | 0 | 1 -> (
          (* Well-formed analysis: the reply must be the exact local
             verdict (or an honest busy under load). *)
          let source, (status, text) = List.nth expected (i mod n_sources) in
          match Client.analyze ~socket source with
          | Ok (Client.Verdict { status = s; body }) ->
              Atomic.incr answered;
              if s <> status || body <> text then
                fail_with
                  (Printf.sprintf "thread %d: verdict mismatch (i=%d)" tid i)
          | Ok (Client.Busy _) ->
              Atomic.incr answered;
              Atomic.incr busy_seen
          | Ok _ -> fail_with (Printf.sprintf "thread %d: bad reply kind" tid)
          | Error e ->
              fail_with
                (Format.asprintf "thread %d: client error: %a" tid
                   Client.pp_error e))
      | 2 -> (
          (* Malformed frame: one-line error, never a hang. *)
          match Client.raw ~socket "total nonsense\n" with
          | Ok reply ->
              Atomic.incr answered;
              if not (String.length reply >= 5 && String.sub reply 0 5 = "error")
              then fail_with (Printf.sprintf "thread %d: no error line" tid)
          | Error e ->
              fail_with
                (Format.asprintf "thread %d: raw error: %a" tid Client.pp_error
                   e))
      | _ -> (
          (* Burst liveness probes. *)
          match Client.ping ~socket with
          | Ok Client.Pong -> Atomic.incr answered
          | _ -> fail_with (Printf.sprintf "thread %d: ping failed" tid))
    done
  in
  let slowloris () =
    (* Two stalled half-frames riding along the battery. *)
    for _ = 1 to 2 do
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      (try
         Unix.connect fd (ADDR_UNIX socket);
         ignore (Unix.write_substring fd "ddlock/1 anal" 0 13);
         Thread.delay 0.6
       with _ -> ());
      (try Unix.close fd with _ -> ())
    done
  in
  let threads =
    List.init 6 (fun tid -> Thread.create client tid)
    @ [ Thread.create slowloris () ]
  in
  List.iter Thread.join threads;
  (match !failed with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "; " msgs));
  check int_t "every request answered" 72 (Atomic.get answered);
  (* The daemon is still alive and its cache stayed bounded. *)
  (match Client.ping ~socket with
  | Ok Client.Pong -> ()
  | _ -> Alcotest.fail "daemon died during the battery");
  (match Obs.Json.validate (Server.stats_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("stats json invalid: " ^ e));
  ignore (Atomic.get busy_seen)

(* ------------------------------------------------------------------ *)
(* Request-scoped observability                                        *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let len = String.length needle in
  let n = String.length hay in
  let rec go i = i + len <= n && (String.sub hay i len = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let len = String.length needle in
  let n = String.length hay in
  let rec go i acc =
    if i + len > n then acc
    else if String.sub hay i len = needle then go (i + len) (acc + 1)
    else go (i + 1) acc
  in
  if len = 0 then 0 else go 0 0

(* The recorder is written after the reply (latency must cover the whole
   request), so a client that reacts instantly can out-race it: re-fetch
   until the predicate holds. *)
let rec eventually ?(tries = 40) fetch pred =
  let v = fetch () in
  if pred v || tries = 0 then v
  else begin
    Thread.delay 0.025;
    eventually ~tries:(tries - 1) fetch pred
  end

(* The servers under test live in-process, so tracing rides the global
   obs switch.  Leave it exactly as found (DDLOCK_OBS=1 runs arrive
   with it already on). *)
let with_tracing f =
  let was_on = Obs.Control.is_on () in
  Obs.Metrics.reset ();
  Obs.Trace.clear ();
  Obs.Control.on ();
  Fun.protect
    ~finally:(fun () ->
      if not was_on then Obs.Control.off ();
      Obs.Metrics.reset ();
      Obs.Trace.clear ())
    f

(* Well-formedness of one request's span tree: exactly one
   [serve.request] root, every event tagged with the request id, and —
   unless [relaxed] (a timed-out request's abandoned worker span can
   outlive the root) — every child interval nested inside the root's. *)
let assert_span_tree ?(relaxed = false) ~req evs =
  (match List.filter (fun e -> e.Obs.Trace.name = "serve.request") evs with
  | [ root ] ->
      let lo = root.Obs.Trace.ts_ns in
      let hi = root.Obs.Trace.ts_ns + root.Obs.Trace.dur_ns in
      List.iter
        (fun e ->
          check int_t "event tagged with its request id" req e.Obs.Trace.req;
          if e.Obs.Trace.name <> "serve.request" then begin
            check bool_t "child starts inside the root" true
              (e.Obs.Trace.ts_ns >= lo);
            if not relaxed then
              check bool_t
                (Printf.sprintf "%s ends inside the root" e.Obs.Trace.name)
                true
                (e.Obs.Trace.ts_ns + max 0 e.Obs.Trace.dur_ns <= hi)
          end)
        evs
  | roots ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one serve.request root, got %d"
           (List.length roots)));
  match Obs.Json.validate (Obs.Trace.chrome_json evs) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome trace json invalid: " ^ e)

let test_request_meta () =
  with_server @@ fun ~socket _t ->
  let source = source_of (Ddlock_workload.Gentx.dining_philosophers 3) in
  let first_id =
    match Client.analyze_ex ~socket source with
    | Ok (Client.Verdict _, meta) ->
        check (Alcotest.option bool_t) "first request is a miss" (Some false)
          meta.Client.cached;
        (match meta.Client.req_id with
        | Some id ->
            check bool_t "request ids start positive" true (id > 0);
            id
        | None -> Alcotest.fail "verdict carried no request id")
    | Ok _ -> Alcotest.fail "expected a verdict"
    | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e)
  in
  match Client.analyze_ex ~socket source with
  | Ok (Client.Verdict _, meta) ->
      check (Alcotest.option bool_t) "second request is a hit" (Some true)
        meta.Client.cached;
      (match meta.Client.req_id with
      | Some id -> check bool_t "request ids increase" true (id > first_id)
      | None -> Alcotest.fail "cached verdict carried no request id")
  | _ -> Alcotest.fail "expected a cached verdict"

let test_metrics_exposition () =
  (* The latency histogram lives in the process-global registry; zero it
     so the counts below are this test's alone. *)
  Obs.Metrics.reset ();
  with_server @@ fun ~socket _t ->
  let source = source_of (Ddlock_workload.Gentx.dining_philosophers 3) in
  let _ = expect_verdict (Client.analyze ~socket source) in
  let _ = expect_verdict (Client.analyze ~socket source) in
  (match Client.ping ~socket with Ok Client.Pong -> () | _ -> Alcotest.fail "ping");
  match
    eventually
      (fun () -> Client.metrics ~socket)
      (function
        | Ok text -> contains text "daemon_request_ns_count 3"
        | Error _ -> true)
  with
  | Ok text ->
      List.iter
        (fun needle ->
          check bool_t ("exposition has " ^ needle) true (contains text needle))
        [
          "# TYPE daemon_requests_total counter";
          "# TYPE daemon_request_ns histogram";
          "# TYPE daemon_workers gauge";
          "daemon_verdicts_total 2";
          "daemon_cache_hits_total 1";
          "daemon_cache_misses_total 1";
          "daemon_request_ns_bucket{le=\"+Inf\"}";
          "daemon_request_ns_sum";
          "daemon_request_ns_count";
        ];
      (* Ops metrics are always on: the obs switch is off here, yet the
         latency histogram still counted every request. *)
      check bool_t "latency histogram populated while obs is off" true
        (contains text "daemon_request_ns_count 3")
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e)

let test_flight_recorder_bounded () =
  with_server ~tweak:(fun c -> { c with Server.flight_cap = 4 })
  @@ fun ~socket _t ->
  let source = source_of (Ddlock_workload.Gentx.dining_philosophers 3) in
  for _ = 1 to 10 do
    ignore (expect_verdict (Client.analyze ~socket source))
  done;
  (* Each flight fetch is itself a request and joins the ring after its
     reply, so [pushed] can only be read as a lower bound. *)
  let pushed_of body =
    try Scanf.sscanf body "{\"pushed\": %d" (fun n -> n) with _ -> -1
  in
  match
    eventually
      (fun () -> Client.flight ~socket)
      (function Ok body -> pushed_of body >= 10 | Error _ -> true)
  with
  | Ok body ->
      (match Obs.Json.validate body with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("flight json invalid: " ^ e));
      check bool_t "pushed counts every request" true (pushed_of body >= 10);
      check bool_t "capacity reported" true (contains body {|"capacity": 4|});
      (* Boundedness is the contract; entry order is completion order,
         which concurrency may permute. *)
      check int_t "ring keeps at most flight_cap entries" 4
        (count_occurrences body {|"id":|})
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e)

let test_trace_span_tree () =
  with_tracing @@ fun () ->
  with_server @@ fun ~socket t ->
  let source = source_of (Ddlock_workload.Gentx.dining_philosophers 4) in
  match Client.analyze_ex ~socket source with
  | Ok (Client.Verdict _, { Client.req_id = Some id; _ }) ->
      (match eventually (fun () -> Server.trace_events t id) Option.is_some with
      | Some evs ->
          assert_span_tree ~req:id evs;
          let names = List.map (fun e -> e.Obs.Trace.name) evs in
          List.iter
            (fun phase ->
              check bool_t (phase ^ " span present") true (List.mem phase names))
            [
              "serve.request"; "serve.parse"; "serve.cache"; "serve.wait";
              "serve.analysis";
            ]
      | None -> Alcotest.fail "trace_events lost the request");
      (* The same tree over the wire. *)
      (match Client.trace ~socket id with
      | Ok json ->
          (match Obs.Json.validate json with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("trace json invalid: " ^ e));
          check bool_t "chrome trace envelope" true
            (contains json {|"traceEvents"|});
          check bool_t "events tagged with the request id" true
            (contains json (Printf.sprintf {|"req":"%d"|} id))
      | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
      (* Unknown ids are refused without killing the daemon. *)
      (match Client.trace ~socket 424242 with
      | Error (Client.Refused _) -> ()
      | _ -> Alcotest.fail "unknown trace id should be refused");
      (match Client.ping ~socket with
      | Ok Client.Pong -> ()
      | _ -> Alcotest.fail "daemon died after trace requests")
  | _ -> Alcotest.fail "expected a verdict with a request id"

(* The acceptance battery: >= 100 concurrent mixed requests against a
   live traced daemon, then retrieve one chosen slow request's complete
   span tree through the flight and trace verbs. *)
let test_traced_battery () =
  with_tracing @@ fun () ->
  with_server ~tweak:(fun c -> { c with Server.workers = 2; cache_cap = 16 })
  @@ fun ~socket t ->
  let sources =
    List.map source_of
      [
        Model.System.copies (Ddlock_workload.Gentx.guard_ring 3) 2;
        Ddlock_workload.Gentx.dining_philosophers 3;
        Ddlock_workload.Gentx.zipf_system (Fixtures.rng 23) ~sites:2
          ~entities:3 ~txns:2 ~theta:0.8;
      ]
  in
  let n_sources = List.length sources in
  let answered = Atomic.make 0 in
  let failures = Mutex.create () in
  let failed = ref [] in
  let fail_with msg =
    Mutex.lock failures;
    failed := msg :: !failed;
    Mutex.unlock failures
  in
  let client tid =
    for i = 0 to 12 do
      match (tid + i) mod 3 with
      | 0 | 1 -> (
          match
            Client.analyze_ex ~socket (List.nth sources (i mod n_sources))
          with
          | Ok ((Client.Verdict _ | Client.Busy _ | Client.Timeout), meta) ->
              Atomic.incr answered;
              if meta.Client.req_id = None then
                fail_with (Printf.sprintf "thread %d: reply without id" tid)
          | Ok _ -> fail_with (Printf.sprintf "thread %d: bad reply kind" tid)
          | Error e ->
              fail_with
                (Format.asprintf "thread %d: client error: %a" tid
                   Client.pp_error e))
      | _ -> (
          match Client.ping ~socket with
          | Ok Client.Pong -> Atomic.incr answered
          | _ -> fail_with (Printf.sprintf "thread %d: ping failed" tid))
    done
  in
  let threads = List.init 8 (fun tid -> Thread.create client tid) in
  List.iter Thread.join threads;
  (match !failed with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "; " msgs));
  check int_t "every concurrent request answered" 104 (Atomic.get answered);
  (* The chosen slow request: a deliberate zero-deadline timeout — slow
     requests are pinned, so the burst above cannot evict its tree. *)
  let slow_id =
    match
      Client.analyze_ex ~socket ~deadline_ms:0
        (source_of (Ddlock_workload.Gentx.dining_philosophers 6))
    with
    | Ok (Client.Timeout, { Client.req_id = Some id; _ }) -> id
    | Ok _ -> Alcotest.fail "expected a timeout"
    | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e)
  in
  check bool_t "the slow request came after the battery" true (slow_id > 104);
  (* Flight verb: the dump validates and still holds the slow request. *)
  (match
     eventually
       (fun () -> Client.flight ~socket)
       (function
         | Ok body -> contains body (Printf.sprintf {|"id": %d|} slow_id)
         | Error _ -> true)
   with
  | Ok body ->
      (match Obs.Json.validate body with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("flight json invalid: " ^ e));
      check bool_t "slow request in the flight ring" true
        (contains body (Printf.sprintf {|"id": %d|} slow_id));
      check bool_t "timeout outcome recorded" true
        (contains body {|"outcome": "timeout"|})
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (* Trace verb: the complete span tree, well-formed and tagged. *)
  (match
     eventually (fun () -> Server.trace_events t slow_id) Option.is_some
   with
  | Some evs ->
      assert_span_tree ~relaxed:true ~req:slow_id evs;
      let names = List.map (fun e -> e.Obs.Trace.name) evs in
      List.iter
        (fun phase ->
          check bool_t (phase ^ " span retained") true (List.mem phase names))
        [ "serve.request"; "serve.parse"; "serve.cache"; "serve.wait" ]
  | None -> Alcotest.fail "slow request's span tree was evicted");
  (match Client.trace ~socket slow_id with
  | Ok json ->
      (match Obs.Json.validate json with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("trace json invalid: " ^ e));
      check bool_t "slow trace tagged" true
        (contains json (Printf.sprintf {|"req":"%d"|} slow_id))
  | Error e -> Alcotest.fail (Format.asprintf "%a" Client.pp_error e));
  (* No cross-request leakage: fresh sequential requests own disjoint,
     individually well-formed trees. *)
  List.iter
    (fun source ->
      match Client.analyze_ex ~socket source with
      | Ok (Client.Verdict _, { Client.req_id = Some id; _ }) -> (
          match
            eventually (fun () -> Server.trace_events t id) Option.is_some
          with
          | Some evs -> assert_span_tree ~req:id evs
          | None -> Alcotest.fail "fresh request's tree missing")
      | _ -> Alcotest.fail "expected a verdict with a request id")
    sources

let suite =
  [
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "pool runs and refuses" `Quick
      test_pool_runs_and_refuses;
    Alcotest.test_case "pool exception isolation" `Quick
      test_pool_exception_isolation;
    Alcotest.test_case "cancel bounds exploration" `Quick
      test_cancel_bounds_exploration;
    Alcotest.test_case "system key symmetry" `Quick test_system_key_symmetry;
    Alcotest.test_case "served = local verdicts" `Quick
      test_served_verdicts_equal_local;
    Alcotest.test_case "symmetric bytes ignore the deadline" `Quick
      test_daemon_symmetric_bytes;
    Alcotest.test_case "cache collapses symmetric copies" `Quick
      test_cache_collapses_symmetric_copies;
    Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
    Alcotest.test_case "deadline times out" `Quick test_deadline_times_out;
    Alcotest.test_case "malformed and oversized" `Quick
      test_malformed_and_oversized;
    Alcotest.test_case "slowloris" `Quick test_slowloris;
    Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
    Alcotest.test_case "double bind refused" `Quick test_double_bind_refused;
    Alcotest.test_case "chaos battery" `Quick test_chaos_battery;
    Alcotest.test_case "observability verbs parse" `Quick
      test_protocol_observability_verbs;
    Alcotest.test_case "header extras" `Quick test_header_extras;
    Alcotest.test_case "request meta" `Quick test_request_meta;
    Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
    Alcotest.test_case "flight recorder bounded" `Quick
      test_flight_recorder_bounded;
    Alcotest.test_case "trace span tree" `Quick test_trace_span_tree;
    Alcotest.test_case "traced battery" `Quick test_traced_battery;
  ]
