(* Telemetry layer: histogram bucket arithmetic, shard merging under
   real domain parallelism, snapshot determinism, trace well-formedness,
   and the search counter totals. *)

open Ddlock_schedule
module Obs = Ddlock_obs
module Metrics = Obs.Metrics
module Trace = Obs.Trace

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Each test runs with a clean registry state and leaves the switch
   off, so suites running after this one see the default-off world. *)
let with_obs f =
  Metrics.reset ();
  Trace.clear ();
  Obs.Control.on ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.off ();
      Metrics.reset ();
      Trace.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                   *)
(* ------------------------------------------------------------------ *)

let test_bucket_boundaries () =
  let b = Metrics.Histogram.bucket_of in
  List.iter
    (fun (v, expect) ->
      check int_t (Printf.sprintf "bucket_of %d" v) expect (b v))
    [
      (Int.min_int, 0);
      (-1, 0);
      (0, 0);
      (1, 0);
      (2, 1);
      (3, 1);
      (4, 2);
      (7, 2);
      (8, 3);
      (1023, 9);
      (1024, 10);
      (1025, 10);
      (* max_int = 2^62 - 1 on 64-bit, hence floor(log2) = 61 *)
      (Int.max_int, 61);
    ];
  (* Bucket i >= 1 covers [2^i, 2^(i+1)): both endpoints land right. *)
  for i = 1 to 20 do
    let lo = Metrics.Histogram.bucket_lower i in
    check int_t "lower endpoint in bucket" i (b lo);
    check int_t "below lower endpoint in previous" (i - 1) (b (lo - 1))
  done

let test_histogram_observe () =
  with_obs @@ fun () ->
  let h = Metrics.Histogram.make "test.hist" in
  List.iter (Metrics.Histogram.observe h) [ 0; 1; 2; 3; 900; 1024 ];
  match List.assoc "test.hist" (Metrics.snapshot ()) with
  | Metrics.Hist { count; sum; buckets } ->
      check int_t "count" 6 count;
      check int_t "sum" (0 + 1 + 2 + 3 + 900 + 1024) sum;
      check
        Alcotest.(list (pair int_t int_t))
        "buckets" [ (0, 2); (1, 2); (9, 1); (10, 1) ] buckets
  | _ -> Alcotest.fail "test.hist must be a histogram"

(* ------------------------------------------------------------------ *)
(* Sharded counters under real domains                                 *)
(* ------------------------------------------------------------------ *)

let test_counter_shard_merge () =
  with_obs @@ fun () ->
  let c = Metrics.Counter.make "test.sharded" in
  let per_domain = 10_000 and domains = 4 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.Counter.incr c
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  (* The merge is a plain sum over shards, so the total is exact and
     independent of which domain landed on which shard. *)
  check int_t "merged total" ((domains + 1) * per_domain)
    (Metrics.Counter.value c);
  check int_t "by name" ((domains + 1) * per_domain)
    (Metrics.counter_value "test.sharded")

let test_gauge_set_max () =
  with_obs @@ fun () ->
  let g = Metrics.Gauge.make "test.gauge" in
  Metrics.Gauge.set g 5;
  Metrics.Gauge.set_max g 3;
  check int_t "set_max keeps larger" 5 (Metrics.Gauge.value g);
  Metrics.Gauge.set_max g 9;
  check int_t "set_max raises" 9 (Metrics.Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Snapshots, gating, reset                                            *)
(* ------------------------------------------------------------------ *)

let test_snapshot_deterministic () =
  with_obs @@ fun () ->
  let c = Metrics.Counter.make "test.snap.c" in
  let h = Metrics.Histogram.make "test.snap.h" in
  Metrics.Counter.add c 7;
  Metrics.Histogram.observe h 42;
  let s1 = Metrics.snapshot () and s2 = Metrics.snapshot () in
  check bool_t "snapshots equal" true (s1 = s2);
  let names = List.map fst s1 in
  check bool_t "sorted by name" true (names = List.sort compare names)

let test_off_is_noop () =
  Metrics.reset ();
  Obs.Control.off ();
  let c = Metrics.Counter.make "test.off" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 10;
  check int_t "no recording while off" 0 (Metrics.Counter.value c);
  Trace.clear ();
  Trace.span "test.off.span" (fun () -> ());
  check int_t "no spans while off" 0 (List.length (Trace.events ()))

let test_reset () =
  with_obs @@ fun () ->
  let c = Metrics.Counter.make "test.reset" in
  Metrics.Counter.add c 3;
  Metrics.reset ();
  check int_t "reset zeroes" 0 (Metrics.Counter.value c);
  Metrics.Counter.add c 2;
  check int_t "still usable after reset" 2 (Metrics.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Quantiles, deltas, exposition                                       *)
(* ------------------------------------------------------------------ *)

let test_histogram_record_ungated () =
  Metrics.reset ();
  Obs.Control.off ();
  let h = Metrics.Histogram.make "test.record" in
  Metrics.Histogram.observe h 5;
  Metrics.Histogram.record h 5;
  (match List.assoc "test.record" (Metrics.snapshot ()) with
  | Metrics.Hist { count; _ } ->
      check int_t "only record lands while off" 1 count
  | _ -> Alcotest.fail "test.record must be a histogram");
  Metrics.reset ()

let test_quantile () =
  with_obs @@ fun () ->
  let h = Metrics.Histogram.make "test.quant" in
  (* 100 samples of 1000 (bucket 9, [512, 1024)). *)
  for _ = 1 to 100 do
    Metrics.Histogram.observe h 1000
  done;
  match List.assoc "test.quant" (Metrics.snapshot ()) with
  | Metrics.Hist h ->
      check bool_t "empty hist quantile is 0" true
        (Metrics.quantile { Metrics.count = 0; sum = 0; buckets = [] } 0.5
         = 0.0);
      (* Log2 buckets: the estimate must land inside the sample's
         bucket, i.e. within a factor of 2. *)
      List.iter
        (fun q ->
          let v = Metrics.quantile h q in
          check bool_t
            (Printf.sprintf "q=%.2f in bucket" q)
            true
            (v >= 512.0 && v <= 1024.0))
        [ 0.01; 0.5; 0.9; 0.99; 1.0 ]
  | _ -> Alcotest.fail "test.quant must be a histogram"

let test_delta () =
  with_obs @@ fun () ->
  let c = Metrics.Counter.make "test.delta.c" in
  let g = Metrics.Gauge.make "test.delta.g" in
  let h = Metrics.Histogram.make "test.delta.h" in
  Metrics.Counter.add c 5;
  Metrics.Gauge.set g 10;
  Metrics.Histogram.observe h 3;
  let before = Metrics.snapshot () in
  Metrics.Counter.add c 7;
  Metrics.Gauge.set g 4;
  Metrics.Histogram.observe h 900;
  let after = Metrics.snapshot () in
  let d = Metrics.delta ~before ~after in
  (match List.assoc "test.delta.c" d with
  | Metrics.Counter n -> check int_t "counter delta" 7 n
  | _ -> Alcotest.fail "counter expected");
  (match List.assoc "test.delta.g" d with
  | Metrics.Gauge n -> check int_t "gauge keeps after value" 4 n
  | _ -> Alcotest.fail "gauge expected");
  match List.assoc "test.delta.h" d with
  | Metrics.Hist { count; sum; buckets } ->
      check int_t "hist count delta" 1 count;
      check int_t "hist sum delta" 900 sum;
      check
        Alcotest.(list (pair int_t int_t))
        "only the new bucket" [ (9, 1) ] buckets
  | _ -> Alcotest.fail "histogram expected"

let test_render_prometheus () =
  with_obs @@ fun () ->
  let c = Metrics.Counter.make "test.prom.total" in
  let h = Metrics.Histogram.make "test.prom.ns" in
  Metrics.Counter.add c 3;
  Metrics.Histogram.observe h 1;
  Metrics.Histogram.observe h 700;
  let text = Metrics.render_prometheus (Metrics.snapshot ()) in
  List.iter
    (fun needle ->
      check bool_t needle true (contains text needle))
    [
      (* '.' sanitized to '_' *)
      "# TYPE test_prom_total counter";
      "test_prom_total 3";
      "# TYPE test_prom_ns histogram";
      "test_prom_ns_bucket{le=\"1\"} 1";
      (* bucket 9 = [512, 1024), inclusive upper bound 1023, cumulative *)
      "test_prom_ns_bucket{le=\"1023\"} 2";
      "test_prom_ns_bucket{le=\"+Inf\"} 2";
      "test_prom_ns_sum 701";
      "test_prom_ns_count 2";
    ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_basics () =
  let r = Obs.Ring.create 4 in
  check int_t "capacity" 4 (Obs.Ring.capacity r);
  check bool_t "empty" true (Obs.Ring.to_list r = []);
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  check Alcotest.(list int_t) "newest first" [ 3; 2; 1 ] (Obs.Ring.to_list r);
  List.iter (Obs.Ring.push r) [ 4; 5; 6 ];
  check int_t "pushed counts everything" 6 (Obs.Ring.pushed r);
  check
    Alcotest.(list int_t)
    "only the last capacity retained" [ 6; 5; 4; 3 ] (Obs.Ring.to_list r);
  check bool_t "find newest match" true (Obs.Ring.find r (fun v -> v > 4) = Some 6);
  check bool_t "find miss" true (Obs.Ring.find r (fun v -> v > 9) = None)

let test_ring_concurrent () =
  let r = Obs.Ring.create 64 in
  let per_domain = 5_000 and domains = 4 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Ring.push r ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join ds;
  check int_t "every push counted" (domains * per_domain) (Obs.Ring.pushed r);
  (* Reads are best-effort, but quiescent reads see a full ring. *)
  check int_t "full after quiescence" 64 (List.length (Obs.Ring.to_list r))

(* ------------------------------------------------------------------ *)
(* Request context and request-tagged tracing                          *)
(* ------------------------------------------------------------------ *)

let test_request_context () =
  check int_t "no ambient request" Obs.Request.none (Obs.Request.current ());
  let inner =
    Obs.Request.with_id 7 (fun () ->
        let mid = Obs.Request.current () in
        (try Obs.Request.with_id 9 (fun () -> raise Exit) with Exit -> ());
        (mid, Obs.Request.current ()))
  in
  check (Alcotest.pair int_t int_t) "nested install and restore" (7, 7) inner;
  check int_t "restored after exit" Obs.Request.none (Obs.Request.current ())

let test_take_request () =
  with_obs @@ fun () ->
  Obs.Request.with_id 3 (fun () ->
      Trace.span "test.req.a" (fun () ->
          Trace.span "test.req.b" (fun () -> ())));
  Trace.span "test.unrelated" (fun () -> ());
  let mine = Trace.take_request 3 in
  check int_t "both tagged events taken" 2 (List.length mine);
  check bool_t "chronological (outer first)" true
    (match mine with
    | [ a; b ] -> a.Trace.name = "test.req.a" && b.Trace.name = "test.req.b"
    | _ -> false);
  check bool_t "ids carried" true
    (List.for_all (fun ev -> ev.Trace.req = 3) mine);
  (match Trace.events () with
  | [ ev ] -> check Alcotest.string "untagged event stays" "test.unrelated" ev.Trace.name
  | evs -> Alcotest.failf "expected 1 remaining event, got %d" (List.length evs));
  check int_t "second take is empty" 0 (List.length (Trace.take_request 3));
  (* The request id round-trips into the chrome args. *)
  Obs.Request.with_id 5 (fun () -> Trace.span "test.req.c" (fun () -> ()));
  let json = Trace.chrome_json (Trace.take_request 5) in
  (match Obs.Json.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid chrome json: %s" e);
  check bool_t "req arg emitted" true (contains json {|"req":"5"|})

let test_request_reaches_search_spans () =
  with_obs @@ fun () ->
  let sys =
    Ddlock_model.System.copies (Ddlock_workload.Gentx.guard_ring 4) 2
  in
  Obs.Request.with_id 11 (fun () -> ignore (Explore.find_deadlock sys));
  let evs = Trace.events () in
  check bool_t "spans recorded" true (evs <> []);
  check bool_t "every span carries the request id" true
    (List.for_all (fun ev -> ev.Trace.req = 11) evs)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let test_span_records () =
  with_obs @@ fun () ->
  let r = Trace.span "test.span" (fun () -> 41 + 1) in
  check int_t "span returns body result" 42 r;
  (match Trace.events () with
  | [ ev ] ->
      check Alcotest.string "name" "test.span" ev.Trace.name;
      check bool_t "duration recorded" true (ev.Trace.dur_ns >= 0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* Spans survive the exceptions the engines escape with. *)
  (try Trace.span "test.raises" (fun () -> raise Exit) with Exit -> ());
  check int_t "event recorded on raise" 2 (List.length (Trace.events ()))

let test_chrome_json_valid () =
  with_obs @@ fun () ->
  Trace.span "test.outer" (fun () ->
      Trace.span "test.inner" (fun () -> ());
      Trace.instant "test.mark");
  let path = Filename.temp_file "ddlock_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_chrome_json oc;
      close_out oc;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Obs.Json.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid trace JSON: %s" e);
      check bool_t "has traceEvents" true (contains s "\"traceEvents\""))

let test_json_validate () =
  let ok s = check bool_t s true (Result.is_ok (Obs.Json.validate s)) in
  let bad s = check bool_t s true (Result.is_error (Obs.Json.validate s)) in
  ok {|{"a": [1, 2.5, -3e4], "b": "x\nA", "c": [true, false, null]}|};
  ok {|[]|};
  ok {|"lone string"|};
  bad {|{"a": 1,}|};
  bad {|{"a" 1}|};
  bad {|[1, 2|};
  bad {|{"a": 1} trailing|};
  bad {|{'a': 1}|};
  bad ""

(* ------------------------------------------------------------------ *)
(* Search counters: totals that follow from the answer                 *)
(* ------------------------------------------------------------------ *)

(* Two totals are fixed by what the search returns: a full exploration
   without partial-order reduction counts exactly the reachable set in
   [explore.states_visited], and [explore.deadlock_witnesses] counts one
   per positive verdict. *)
let search_counts sys =
  let counter f name =
    Metrics.reset ();
    let r = f () in
    (r, Metrics.counter_value name)
  in
  let space, visited =
    counter (fun () -> Explore.explore sys) "explore.states_visited"
  in
  let witness, witnesses =
    counter (fun () -> Explore.find_deadlock sys) "explore.deadlock_witnesses"
  in
  ( (visited, witnesses),
    (Explore.state_count space, if witness = None then 0 else 1) )

let test_search_counters_fig2 () =
  with_obs @@ fun () ->
  let sys =
    Ddlock_model.System.copies (Ddlock_workload.Gentx.guard_ring 4) 2
  in
  let counted, expected = search_counts sys in
  check bool_t "a witness was found" true (snd counted = 1);
  check bool_t "totals match the space and the verdict" true
    (counted = expected)

let counters_match_prop =
  QCheck.Test.make ~name:"counter totals match the answer" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Metrics.reset ();
      Trace.clear ();
      Obs.Control.on ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Control.off ();
          Metrics.reset ();
          Trace.clear ())
        (fun () ->
          let counted, expected = search_counts sys in
          counted = expected))

let qtests = List.map Fixtures.to_alcotest [ counters_match_prop ]

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "counter shard merge" `Quick test_counter_shard_merge;
    Alcotest.test_case "gauge set_max" `Quick test_gauge_set_max;
    Alcotest.test_case "snapshot deterministic" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "off is a no-op" `Quick test_off_is_noop;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "histogram record is ungated" `Quick
      test_histogram_record_ungated;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "snapshot delta" `Quick test_delta;
    Alcotest.test_case "prometheus exposition" `Quick test_render_prometheus;
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    Alcotest.test_case "ring concurrent pushes" `Quick test_ring_concurrent;
    Alcotest.test_case "request context" `Quick test_request_context;
    Alcotest.test_case "take_request" `Quick test_take_request;
    Alcotest.test_case "request id reaches search spans" `Quick
      test_request_reaches_search_spans;
    Alcotest.test_case "span records" `Quick test_span_records;
    Alcotest.test_case "chrome trace JSON valid" `Quick test_chrome_json_valid;
    Alcotest.test_case "json validator" `Quick test_json_validate;
    Alcotest.test_case "search counters on fig2" `Quick
      test_search_counters_fig2;
  ]
  @ qtests
