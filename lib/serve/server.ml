open Ddlock

type config = {
  socket_path : string;
  workers : int;
  queue_cap : int;
  cache_cap : int;
  max_request_bytes : int;
  default_max_states : int option;
  default_deadline_ms : int option;
  idle_timeout_ms : int;
  busy_retry_ms : int;
  flight_cap : int;
  trace_cap : int;
  slow_ms : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_cap = 16;
    cache_cap = 128;
    max_request_bytes = Protocol.default_max_request;
    default_max_states = None;
    default_deadline_ms = None;
    idle_timeout_ms = 5_000;
    busy_retry_ms = 100;
    flight_cap = 256;
    trace_cap = 64;
    slow_ms = 250;
  }

type counters = {
  received : int Atomic.t;
  verdicts : int Atomic.t;
  errors : int Atomic.t;
  busy : int Atomic.t;
  timeouts : int Atomic.t;
  connections : int Atomic.t;
}

(* One completed request, as retained by the flight recorder. *)
type flight_entry = {
  f_id : int;
  f_verb : string;
  f_key : string;  (* verdict-cache key digest, "" for non-analyze *)
  f_params : string;  (* rendered analyze options, "" when none *)
  f_lat_ns : int;
  f_status : int;  (* [ok] status, -1 when the reply carried none *)
  f_outcome : string;  (* verdict | error | busy | timeout | ok | pong *)
  f_cached : bool;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  cache : (int * string) Cache.t;  (* key -> (status, rendered verdict) *)
  stop : bool Atomic.t;
  c : counters;
  rid : int Atomic.t;  (* request-id source (ids start at 1) *)
  inflight : int Atomic.t;
  flight : flight_entry Obs.Ring.t;
  traces : (int * Obs.Trace.event list) Obs.Ring.t;
      (* span trees of the last [trace_cap] traced requests *)
  slow : (flight_entry * Obs.Trace.event list) Obs.Ring.t;
      (* requests over [slow_ms] or timed out, with their span trees *)
  conn_lock : Mutex.t;
  conn_done : Condition.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;  (* live connections *)
  mutable accept_thread : Thread.t option;
}

(* Obs-side mirrors of the counters, so `ddlock serve --stats` folds the
   daemon into the standard telemetry summary. *)
let m_requests = Obs.Metrics.Counter.make "serve.requests"
let m_verdicts = Obs.Metrics.Counter.make "serve.verdicts"
let m_errors = Obs.Metrics.Counter.make "serve.errors"
let m_busy = Obs.Metrics.Counter.make "serve.busy"
let m_timeouts = Obs.Metrics.Counter.make "serve.timeouts"
let m_cache_hits = Obs.Metrics.Counter.make "serve.cache_hits"
let m_cache_misses = Obs.Metrics.Counter.make "serve.cache_misses"
let m_request_ns = Obs.Metrics.Histogram.make "serve.request_ns"

let stats_json t =
  Printf.sprintf
    {|{"received": %d, "verdicts": %d, "errors": %d, "busy": %d, "timeouts": %d, "cache_hits": %d, "cache_misses": %d, "cache_entries": %d, "queue_length": %d, "connections": %d, "workers": %d}|}
    (Atomic.get t.c.received) (Atomic.get t.c.verdicts)
    (Atomic.get t.c.errors) (Atomic.get t.c.busy)
    (Atomic.get t.c.timeouts) (Cache.hits t.cache) (Cache.misses t.cache)
    (Cache.length t.cache)
    (Pool.queue_length t.pool)
    (Atomic.get t.c.connections) t.cfg.workers

(* ------------------------- metrics exposition ---------------------- *)

(* The [daemon_*] section is synthesized from the server's own atomics
   at render time, so it is populated (and correct) whether or not the
   {!Obs.Control} switch is on — [ddlock top] must work against a
   production daemon that is not tracing.  The request-latency
   histogram is recorded through the gate-independent
   [Histogram.record] for the same reason.  The obs registry is
   rendered after it under a [ddlock_] prefix (distinct names, so the
   two sections cannot collide even though [serve.*] mirrors overlap
   semantically). *)
let metrics_text t =
  let snap = Obs.Metrics.snapshot () in
  let latency =
    match List.assoc_opt "serve.request_ns" snap with
    | Some (Obs.Metrics.Hist h) -> h
    | _ -> { Obs.Metrics.count = 0; sum = 0; buckets = [] }
  in
  let c n = Obs.Metrics.Counter n and g n = Obs.Metrics.Gauge n in
  let daemon =
    [
      ("daemon_requests_total", c (Atomic.get t.c.received));
      ("daemon_verdicts_total", c (Atomic.get t.c.verdicts));
      ("daemon_errors_total", c (Atomic.get t.c.errors));
      ("daemon_busy_total", c (Atomic.get t.c.busy));
      ("daemon_timeouts_total", c (Atomic.get t.c.timeouts));
      ("daemon_connections_total", c (Atomic.get t.c.connections));
      ("daemon_cache_hits_total", c (Cache.hits t.cache));
      ("daemon_cache_misses_total", c (Cache.misses t.cache));
      ("daemon_cache_entries", g (Cache.length t.cache));
      ("daemon_queue_depth", g (Pool.queue_length t.pool));
      ("daemon_inflight", g (Atomic.get t.inflight));
      ("daemon_workers", g t.cfg.workers);
      ("daemon_flight_pushed_total", c (Obs.Ring.pushed t.flight));
      ("daemon_request_ns", Obs.Metrics.Hist latency);
    ]
  in
  Obs.Metrics.render_prometheus daemon
  ^ Obs.Metrics.render_prometheus
      (List.map (fun (name, v) -> ("ddlock_" ^ name, v)) snap)

(* --------------------------- flight recorder ----------------------- *)

let flight_entry_json e =
  Printf.sprintf
    {|{"id": %d, "verb": "%s", "key": "%s", "params": "%s", "lat_ns": %d, "status": %d, "outcome": "%s", "cached": %b}|}
    e.f_id (Obs.Json.escape e.f_verb) (Obs.Json.escape e.f_key)
    (Obs.Json.escape e.f_params) e.f_lat_ns e.f_status
    (Obs.Json.escape e.f_outcome) e.f_cached

let flight_json t =
  let entries = Obs.Ring.to_list t.flight in
  let slow = Obs.Ring.to_list t.slow in
  Printf.sprintf
    {|{"pushed": %d, "capacity": %d, "entries": [%s], "slow": [%s]}|}
    (Obs.Ring.pushed t.flight)
    (Obs.Ring.capacity t.flight)
    (String.concat ", " (List.map flight_entry_json entries))
    (String.concat ", "
       (List.map
          (fun (e, evs) ->
            Printf.sprintf {|{"entry": %s, "events": %d}|}
              (flight_entry_json e) (List.length evs))
          slow))

let trace_events t id =
  match Obs.Ring.find t.traces (fun (i, _) -> i = id) with
  | Some (_, evs) -> Some evs
  | None -> (
      match Obs.Ring.find t.slow (fun (e, _) -> e.f_id = id) with
      | Some (_, evs) -> Some evs
      | None -> None)

(* Retire a completed request into the recorder: flight entry always;
   span tree pulled out of the shared trace buffer (keeping it bounded)
   whenever tracing produced one, retained twice for slow/timed-out
   requests so a burst of fast requests cannot evict the interesting
   tree before anyone asks for it. *)
let retire t entry =
  Obs.Ring.push t.flight entry;
  let evs = Obs.Trace.take_request entry.f_id in
  if evs <> [] then begin
    Obs.Ring.push t.traces (entry.f_id, evs);
    if
      entry.f_outcome = "timeout"
      || entry.f_lat_ns > t.cfg.slow_ms * 1_000_000
    then Obs.Ring.push t.slow (entry, evs)
  end

let flight_dump t oc =
  output_string oc (flight_json t);
  output_char oc '\n';
  flush oc

(* ------------------------- request handling ------------------------ *)

let cache_key ~max_states sys =
  let salt =
    String.concat "\x00"
      [
        Cache.system_key sys;
        (match max_states with None -> "-" | Some n -> string_of_int n);
      ]
  in
  Digest.to_hex (Digest.string salt)

type job_result =
  | Done of int * string  (* status, rendered verdict *)
  | Timed_out
  | Crashed of string

let run_analysis ~max_states ~deadline_ns sys =
  try
    let run () =
      let text, status, _report = Analysis.render_full ?max_states sys in
      Done (status, text)
    in
    match deadline_ns with
    | Some d when Obs.Clock.now_ns () > d ->
        Timed_out (* expired while queued: don't even start *)
    | Some d -> (
        try Obs.Cancel.with_poll (fun () -> Obs.Clock.now_ns () > d) run
        with Obs.Cancel.Cancelled -> Timed_out)
    | None -> run ()
  with exn -> Crashed (Printexc.to_string exn)

(* Mutable per-request scratch: the verb handlers fill it in as they
   learn things, and the completed record becomes the flight entry. *)
type req_info = {
  mutable i_verb : string;
  mutable i_key : string;
  mutable i_params : string;
  mutable i_status : int;
  mutable i_outcome : string;
  mutable i_cached : bool;
}

(* Per-request outcome: [`Continue] keeps the connection open for the
   next request, [`Close] ends it (error replies and dead peers). *)
let handle_analyze t fd ~req ~info ~max_states ~deadline_ms body =
  let reply ?(extras = []) r =
    let head =
      Protocol.render_response_header
        ~extras:(("req", string_of_int req) :: extras)
        r
    in
    let payload =
      match r with Protocol.Verdict { body; _ } -> head ^ body | _ -> head
    in
    match Wire.write_all fd payload with Ok () -> `Continue | Error `Closed -> `Close
  in
  let error msg =
    Atomic.incr t.c.errors;
    Obs.Metrics.Counter.incr m_errors;
    info.i_outcome <- "error";
    ignore (reply (Protocol.Error_line msg));
    `Close
  in
  match
    Obs.Trace.span "serve.parse" ~req @@ fun () -> Model.Parser.parse body
  with
  | Error e ->
      error
        ("parse: "
        ^ Protocol.one_line (Format.asprintf "%a" Model.Parser.pp_error e))
  | Ok r -> (
      let sys = Model.Parser.system_of_result r in
      let max_states =
        match max_states with Some _ as s -> s | None -> t.cfg.default_max_states
      in
      let deadline_ms =
        match deadline_ms with
        | Some _ as d -> d
        | None -> t.cfg.default_deadline_ms
      in
      let key = cache_key ~max_states sys in
      info.i_key <- key;
      info.i_params <-
        String.concat " "
          (List.concat
             [
               (match max_states with
               | Some n -> [ Printf.sprintf "max-states=%d" n ]
               | None -> []);
               (match deadline_ms with
               | Some n -> [ Printf.sprintf "deadline-ms=%d" n ]
               | None -> []);
             ]);
      match
        Obs.Trace.span "serve.cache" ~req @@ fun () -> Cache.find t.cache key
      with
      | Some (status, text) ->
          Obs.Metrics.Counter.incr m_cache_hits;
          Atomic.incr t.c.verdicts;
          Obs.Metrics.Counter.incr m_verdicts;
          info.i_status <- status;
          info.i_outcome <- "verdict";
          info.i_cached <- true;
          reply ~extras:[ ("cache", "hit") ]
            (Protocol.Verdict { status; body = text })
      | None -> (
          Obs.Metrics.Counter.incr m_cache_misses;
          let deadline_ns =
            Option.map
              (fun ms -> Obs.Clock.now_ns () + (ms * 1_000_000))
              deadline_ms
          in
          let cell = Pool.Cell.create () in
          let job () =
            (* The worker domain serves one request at a time and runs
               the whole analysis, so the ambient slot is trustworthy
               there (see {!Obs.Request}). *)
            Obs.Request.with_id req @@ fun () ->
            Pool.Cell.fill cell
              (Obs.Trace.span "serve.analysis" (fun () ->
                   run_analysis ~max_states ~deadline_ns sys))
          in
          if not (Pool.submit t.pool job) then begin
            Atomic.incr t.c.busy;
            Obs.Metrics.Counter.incr m_busy;
            info.i_outcome <- "busy";
            reply ~extras:[ ("cache", "miss") ]
              (Protocol.Busy { retry_after_ms = t.cfg.busy_retry_ms })
          end
          else
            match
              Obs.Trace.span "serve.wait" ~req @@ fun () -> Pool.Cell.wait cell
            with
            | Done (status, text) ->
                Cache.add t.cache key (status, text);
                Atomic.incr t.c.verdicts;
                Obs.Metrics.Counter.incr m_verdicts;
                info.i_status <- status;
                info.i_outcome <- "verdict";
                reply ~extras:[ ("cache", "miss") ]
                  (Protocol.Verdict { status; body = text })
            | Timed_out ->
                Atomic.incr t.c.timeouts;
                Obs.Metrics.Counter.incr m_timeouts;
                info.i_outcome <- "timeout";
                reply ~extras:[ ("cache", "miss") ] Protocol.Timeout
            | Crashed msg ->
                error ("analysis failed: " ^ Protocol.one_line msg)))

let handle_request t fd line =
  Atomic.incr t.c.received;
  Obs.Metrics.Counter.incr m_requests;
  let req = 1 + Atomic.fetch_and_add t.rid 1 in
  Atomic.incr t.inflight;
  let info =
    {
      i_verb = "?";
      i_key = "";
      i_params = "";
      i_status = -1;
      i_outcome = "error";
      i_cached = false;
    }
  in
  let t0 = Obs.Clock.now_ns () in
  let reply r =
    let head =
      Protocol.render_response_header
        ~extras:[ ("req", string_of_int req) ]
        r
    in
    let payload =
      match r with Protocol.Verdict { body; _ } -> head ^ body | _ -> head
    in
    match Wire.write_all fd payload with Ok () -> `Continue | Error `Closed -> `Close
  in
  let error msg =
    Atomic.incr t.c.errors;
    Obs.Metrics.Counter.incr m_errors;
    info.i_outcome <- "error";
    ignore (reply (Protocol.Error_line msg));
    `Close
  in
  let ok_body verb body =
    info.i_verb <- verb;
    info.i_status <- 0;
    info.i_outcome <- "ok";
    reply (Protocol.Verdict { status = 0; body })
  in
  let outcome =
    Fun.protect ~finally:(fun () -> Atomic.decr t.inflight) @@ fun () ->
    (* Connection threads are systhreads multiplexed on domain 0, so the
       domain-local ambient slot is not trustworthy here: every span on
       this thread names its request explicitly. *)
    Obs.Trace.span "serve.request" ~req @@ fun () ->
    match Protocol.parse_request line with
    | Error msg -> error msg
    | Ok Protocol.Ping ->
        info.i_verb <- "ping";
        info.i_outcome <- "pong";
        reply Protocol.Pong
    | Ok Protocol.Stats -> ok_body "stats" (stats_json t ^ "\n")
    | Ok Protocol.Metrics -> ok_body "metrics" (metrics_text t)
    | Ok Protocol.Flight -> ok_body "flight" (flight_json t ^ "\n")
    | Ok (Protocol.Trace_of id) -> (
        info.i_verb <- "trace";
        match trace_events t id with
        | Some evs -> ok_body "trace" (Obs.Trace.chrome_json evs)
        | None ->
            error
              (Printf.sprintf
                 "trace: request %d unknown (not traced, or aged out)" id))
    | Ok (Protocol.Analyze { body_len; max_states; deadline_ms }) -> (
        info.i_verb <- "analyze";
        if body_len > t.cfg.max_request_bytes then
          error
            (Printf.sprintf "request too large (%d > %d bytes)" body_len
               t.cfg.max_request_bytes)
        else
          match Wire.read_exact fd body_len with
          | Error `Slow -> error "slow client: body read timed out"
          | Error _ -> `Close (* peer vanished mid-body *)
          | Ok body ->
              handle_analyze t fd ~req ~info ~max_states ~deadline_ms body)
  in
  let lat_ns = Obs.Clock.now_ns () - t0 in
  Obs.Metrics.Histogram.record m_request_ns lat_ns;
  retire t
    {
      f_id = req;
      f_verb = info.i_verb;
      f_key = info.i_key;
      f_params = info.i_params;
      f_lat_ns = lat_ns;
      f_status = info.i_status;
      f_outcome = info.i_outcome;
      f_cached = info.i_cached;
    };
  outcome

let handle_connection t fd =
  Wire.set_read_timeout fd (float_of_int t.cfg.idle_timeout_ms /. 1000.);
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Wire.read_line fd with
      | Error (`Eof | `Idle | `Eof_mid | `Closed) -> ()
      | Error `Slow ->
          Atomic.incr t.c.errors;
          Obs.Metrics.Counter.incr m_errors;
          ignore
            (Wire.write_all fd
               (Protocol.render_response_header
                  (Protocol.Error_line "slow client: header read timed out")))
      | Error `Too_long ->
          Atomic.incr t.c.errors;
          Obs.Metrics.Counter.incr m_errors;
          ignore
            (Wire.write_all fd
               (Protocol.render_response_header
                  (Protocol.Error_line
                     (Printf.sprintf "header line exceeds %d bytes"
                        Protocol.max_line))))
      | Ok line -> ( match handle_request t fd line with
          | `Continue -> loop ()
          | `Close -> ())
  in
  loop ()

(* ------------------------------ lifecycle -------------------------- *)

let claim_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = S_SOCK; _ } ->
      (* Probe: a connectable socket means a live daemon — refuse; a
         refused connection means a stale file — reclaim it. *)
      let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
      let alive =
        Fun.protect
          ~finally:(fun () -> try Unix.close probe with _ -> ())
          (fun () ->
            try
              Unix.connect probe (ADDR_UNIX path);
              true
            with Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false)
      in
      if alive then
        failwith (path ^ ": a daemon is already serving on this socket")
      else Unix.unlink path
  | _ -> failwith (path ^ ": exists and is not a socket")

let register_conn t fd =
  Mutex.lock t.conn_lock;
  Hashtbl.replace t.conns fd ();
  Mutex.unlock t.conn_lock

let unregister_conn t fd =
  Mutex.lock t.conn_lock;
  Hashtbl.remove t.conns fd;
  Condition.broadcast t.conn_done;
  Mutex.unlock t.conn_lock

let accept_loop t =
  let rec go () =
    if Atomic.get t.stop then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | exception
              Unix.Unix_error
                ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
              go ()
          | fd, _ ->
              Atomic.incr t.c.connections;
              register_conn t fd;
              ignore
                (Thread.create
                   (fun () ->
                     Fun.protect
                       ~finally:(fun () ->
                         (try Unix.close fd with Unix.Unix_error _ -> ());
                         unregister_conn t fd)
                       (fun () ->
                         try handle_connection t fd with _ -> ()))
                   ());
              go ())
  in
  go ()

let start cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  claim_socket cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let t =
    {
      cfg;
      listen_fd;
      pool = Pool.create ~workers:cfg.workers ~queue_cap:cfg.queue_cap;
      cache = Cache.create ~capacity:cfg.cache_cap;
      stop = Atomic.make false;
      c =
        {
          received = Atomic.make 0;
          verdicts = Atomic.make 0;
          errors = Atomic.make 0;
          busy = Atomic.make 0;
          timeouts = Atomic.make 0;
          connections = Atomic.make 0;
        };
      rid = Atomic.make 0;
      inflight = Atomic.make 0;
      flight = Obs.Ring.create cfg.flight_cap;
      traces = Obs.Ring.create cfg.trace_cap;
      slow = Obs.Ring.create cfg.trace_cap;
      conn_lock = Mutex.create ();
      conn_done = Condition.create ();
      conns = Hashtbl.create 16;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let request_stop t = Atomic.set t.stop true

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  (* Nudge idle keep-alive connections: shutting down the read side
     makes their blocked header read return EOF, while in-flight
     requests keep their write side and still deliver their reply. *)
  Mutex.lock t.conn_lock;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  while Hashtbl.length t.conns > 0 do
    Condition.wait t.conn_done t.conn_lock
  done;
  Mutex.unlock t.conn_lock;
  Pool.shutdown t.pool
