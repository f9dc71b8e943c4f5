(* perfbench: the repository's benchmark.

   bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH
             --tmp DIR [--rev REV]

   Each run times a fixed, seeded list of operations whose length is
   [S] times the workload's nominal rate, so a run always times the same
   work and takes about [S] seconds on the reference host.  Set-up is
   repeated five times and its median reported.  The last line of
   stdout is one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  The exit status is 1 when any output check fails. *)

open Ddlock
open Perfbench_stats
open Model
module Client = Ddlock_serve.Client
module Protocol = Ddlock_serve.Protocol
module Wire = Ddlock_serve.Wire

let now () = float_of_int (Obs.Clock.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let ms s = s *. 1000.0

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let checks_failed = ref []

let fail_check fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length !checks_failed < 20 then
        Printf.printf "CHECK FAILED: %s\n%!" msg;
      checks_failed := msg :: !checks_failed)
    fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e300" (* a latency of a request that never succeeded *)

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!checks_failed = []) attempted failed body

(* ------------------------------------------------------------------ *)
(* Host stamp                                                          *)
(* ------------------------------------------------------------------ *)

(* The reference kernel: a fixed loop of dependent pseudo-random reads
   and writes over a 256 KB off-heap table, read through once untimed
   so that it sits in cache whatever ran before.  [kernel_loop] does
   not know the table's kind, so every access is a call into the
   runtime's generic bigarray primitives: calls and branches, as in the
   workloads, rather than a tight loop of loads.  It allocates nothing,
   so neither the program's heap and GC settings nor its memory
   footprint can change the kernel's time; only the host's speed can.
   On the reference host the slow phases slow a core as a whole, and
   this kernel follows the workloads through them.  Over 15-second
   windows of one process in three sessions, ops/s times kernel ms
   spread 0.026-0.057 (analyze) and 0.018-0.062 (sim-matrix) where
   ops/s alone spread 0.13-0.17.  Candidates that followed less well:
   the same loop with inlined loads (0.055-0.091), 200k [Map.mem]
   lookups (0.057-0.070), the loop over a 2 MB table (0.048-0.114) and
   a 200k [Hashtbl.replace] loop, which allocates (0.025-0.073). *)
let kernel_loop (table : (int, _, Bigarray.c_layout) Bigarray.Array1.t) iters =
  let mask = Bigarray.Array1.dim table - 1 in
  let s = ref 0 in
  for i = 0 to mask do
    s := !s + Bigarray.Array1.unsafe_get table i
  done;
  let t0 = now () in
  let x = ref (0x2545F491 + Sys.opaque_identity (!s land 0)) and p = ref 0 in
  for _ = 1 to iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let k = (v lxor !p) land mask in
    let y = Bigarray.Array1.unsafe_get table k in
    Bigarray.Array1.unsafe_set table k (y + 1);
    p := y
  done;
  ignore (Sys.opaque_identity !p);
  ms (now () -. t0)

let kernel_table =
  let n = 1 lsl 15 in
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout n (fun i -> i * 2654435761 land (n - 1))

let kernel_ms () = kernel_loop kernel_table 300_000

(* The kernel's time on the reference host (Intel Xeon, 2 vCPUs,
   OCaml 5.1.1) in a fast phase.  Every end-to-end time is reported as
   it would read on a host where the kernel takes this long; the raw
   wall-clock figures are printed beside it. *)
let reference_ms = 5.0

(* Host stamp: the kernel timed before and after the run, so a slow
   host phase shows next to the numbers. *)
let calib_ms () = Stats.median (Array.init 3 (fun _ -> kernel_ms ()))

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let stamp ~rev ~calib =
  Printf.printf
    "stamp: {\"nproc\": %d, \"rev\": \"%s\", \"ocaml\": \"%s\", \
     \"host.calib_ms\": [%s]}\n%!"
    (Domain.recommended_domain_count ())
    rev Sys.ocaml_version
    (String.concat ", " (List.map (Printf.sprintf "%.3f") calib))

(* ------------------------------------------------------------------ *)
(* Shared measurement                                                  *)
(* ------------------------------------------------------------------ *)

(* Run [setup] five times and report the median set-up time, each
   scaled by the reference kernel timed before and after it. *)
let repeated_setup setup =
  Stats.median
    (Array.init 5 (fun _ ->
         let k0 = kernel_ms () in
         let dt, _ = time setup in
         dt *. (Stats.chunk_factors ~reference:reference_ms [| k0; kernel_ms () |]).(0)))

let percentile_ms lat p =
  match Stats.percentile lat p with
  | Ok v -> ms v
  | Error msg ->
      fail_check "%s" msg;
      0.0

(* The six end-to-end metrics; [p50] and [p99] in ms. *)
let end_to_end ~setup_s ~throughput ~p50 ~p99 ~attempted ~failed ~rss =
  let failed_share = Stats.ratio (float_of_int failed) (float_of_int attempted) in
  Printf.printf "failed_share: %s\n" (Stats.ratio_to_string failed_share);
  [
    m "setup_s" "s" setup_s;
    m "throughput_per_s" "1/s" throughput;
    m "p50_ms" "ms" p50;
    m "p99_ms" "ms" p99;
    m "peak_rss_mb" "MB" rss;
    m "ok_share" "share" (1.0 -. Stats.share failed_share);
  ]

(* The latencies of a closed-loop run: [raw] as timed, [lat] scaled by
   the host-speed factor of the chunk each was timed in, [kernel] the
   reference kernel's samples. *)
type timed = { raw : float array; lat : float array; kernel : float array }

(* Timed work between two runs of the reference kernel.  Host phases
   last seconds, so a chunk sees one phase. *)
let chunk_s = 0.25

(* Closed loop over the given rounds (walks of the pool), each in its
   own seeded order; latencies are indexed by round and input.  The
   reference kernel runs before the first operation, after every
   [chunk_s] of timed work and after the last, outside the timed
   intervals.  [after round k result] sees each result outside them
   too. *)
let rounds_loop ~rounds ~seed ?(after = fun _ _ _ -> ()) pool f =
  let p = Array.length pool in
  let raw = Array.make (List.length rounds * p) 0.0 in
  let chunk = Array.make (Array.length raw) 0 in
  let samples = ref [ kernel_ms () ] and chunks = ref 0 and busy = ref 0.0 in
  let close_chunk () =
    samples := kernel_ms () :: !samples;
    incr chunks;
    busy := 0.0
  in
  List.iteri
    (fun i round ->
      let order = Array.init p Fun.id in
      Inputs.shuffle (Inputs.rng seed (1000 + round)) order;
      Array.iter
        (fun k ->
          let a = now () in
          let r = try Ok (f pool.(k)) with e -> Error (Printexc.to_string e) in
          let b = now () in
          raw.((i * p) + k) <- b -. a;
          chunk.((i * p) + k) <- !chunks;
          busy := !busy +. (b -. a);
          after round k r;
          if !busy >= chunk_s then close_chunk ())
        order)
    rounds;
  if !busy > 0.0 || !chunks = 0 then close_chunk ();
  let kernel = Array.of_list (List.rev !samples) in
  let factors = Stats.chunk_factors ~reference:reference_ms kernel in
  { raw; lat = Array.mapi (fun i v -> v *. factors.(chunk.(i))) raw; kernel }

let sum = Array.fold_left ( +. ) 0.0

(* Rounds of a closed-loop run: [seconds * rate] operations over a pool
   of [pool] inputs, at least three rounds. *)
let rounds_for ~rate ~seconds ~pool =
  max 3 (int_of_float (rate *. float_of_int seconds) / pool)

(* A closed-loop run is split across [parts] processes run one after
   another, each timing every [parts]-th round, and the metrics pool
   all of them.  On the reference host a process keeps a speed of its
   own (memory placement, presumably): windows of one long process
   varied about half as much as separate runs did, and the five parts
   of one run ranged from 1,175 to 1,548 ops/s.  Pooling averages that,
   and the host's fast and slow phases, where a median over parts would
   pick one phase and make runs bimodal. *)
let parts = 5

(* What a part process hands back to the run. *)
type part = {
  timed : timed;
  failed : int;
  checks : string list;
  notes : int;  (** a workload-specific count, e.g. runs that hit max_time *)
  rss : float;
}

(* Set in a part process: (part index, result file). *)
let part_of : (int * string) option ref = ref None

(* The arguments this run was started with, to start its parts. *)
let self_args : string list ref = ref []

(* In a part process: time this part's rounds, write the result, exit. *)
let run_part ~rounds ~seed ~after ~failed ~notes pool f =
  let k, out = Option.get !part_of in
  let mine = List.filter (fun r -> r mod parts = k) (List.init rounds Fun.id) in
  let nfailed = ref 0 in
  let after round i r =
    if failed r then incr nfailed;
    after round i r
  in
  let timed = rounds_loop ~rounds:mine ~seed ~after pool f in
  let oc = open_out_bin out in
  Marshal.to_channel oc
    { timed; failed = !nfailed; checks = List.rev !checks_failed; notes = notes ();
      rss = vm_hwm_mb "self" }
    [];
  close_out oc;
  exit 0

(* In the run: start the parts one after another and merge them.
   Throughput is completed operations over the summed scaled latencies,
   and p50/p99 are percentiles of every scaled latency.  The raw
   wall-clock figures are printed beside them. *)
let closed_end_to_end ~tmp ~setup_s ~rounds =
  let results =
    List.init parts (fun k ->
        let out = Filename.concat tmp (Printf.sprintf "part%d.%d" k (Unix.getpid ())) in
        let args =
          Array.of_list
            ((Sys.executable_name :: !self_args)
            @ [ "--part"; string_of_int k; "--part-out"; out ])
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> fail_check "part %d of the run failed" k);
        match open_in_bin out with
        | exception Sys_error msg -> fail_check "part %d: %s" k msg; None
        | ic ->
            let (r : part) = Marshal.from_channel ic in
            close_in ic;
            Sys.remove out;
            Some r)
    |> List.filter_map Fun.id
  in
  List.iter (fun r -> List.iter (fail_check "%s") r.checks) results;
  let lat = Array.concat (List.map (fun r -> r.timed.lat) results) in
  let raw = Array.concat (List.map (fun r -> r.timed.raw) results) in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let attempted = max 1 (Array.length lat) in
  let ok = float_of_int (attempted - failed) in
  Printf.printf "timed %d ops in %d rounds over %d processes: %.3f s wall, %.3f s scaled\n"
    attempted rounds parts (sum raw) (sum lat);
  Printf.printf "per process: ops/s %s; kernel median ms %s\n"
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%.1f" (float_of_int (Array.length r.timed.raw) /. sum r.timed.raw))
          results))
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.2f" (Stats.median r.timed.kernel)) results));
  Printf.printf "raw wall clock: %.1f ops/s, p50 %.6f ms, p99 %.6f ms\n" (ok /. sum raw)
    (percentile_ms raw 0.5) (percentile_ms raw 0.99);
  let notes = List.fold_left (fun a r -> a + r.notes) 0 results in
  ( notes,
    ( attempted,
      failed,
      end_to_end ~setup_s ~throughput:(ok /. sum lat) ~p50:(percentile_ms lat 0.5)
        ~p99:(percentile_ms lat 0.99) ~attempted ~failed
        ~rss:(List.fold_left (fun a r -> Float.max a r.rss) 0.0 results) ) )

(* Obs overhead: three pairs, each on its own slice of the pool, timing
   the slice best-of-3 with Obs off and on (alternating which goes
   first).  Returns the median of the pairs' p50 overheads and their
   max - min, in percent. *)
let obs_overhead ~seed pool f =
  let p = Array.length pool in
  let slice j = Array.sub pool (j * p / 3) (max 20 (p / 12)) in
  let pcts =
    Array.init 3 (fun j ->
        let xs = slice j in
        let best_off = Array.make (Array.length xs) infinity in
        let best_on = Array.make (Array.length xs) infinity in
        for round = 0 to 2 do
          let pass on =
            if on then Obs.Control.on ();
            let b = (rounds_loop ~rounds:[ round ] ~seed xs f).lat in
            Obs.Control.off ();
            Obs.Trace.clear ();
            let into = if on then best_on else best_off in
            Array.iteri (fun i v -> into.(i) <- Float.min into.(i) v) b
          in
          let on_first = (round + j) mod 2 = 1 in
          pass on_first;
          pass (not on_first)
        done;
        100.0 *. ((Stats.median best_on /. Stats.median best_off) -. 1.0))
  in
  let lo = Array.fold_left Float.min infinity pcts
  and hi = Array.fold_left Float.max neg_infinity pcts in
  Printf.printf "obs overhead per pair (%%): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") pcts)));
  [ m "obs.overhead_pct" "%" (Stats.median pcts); m "obs.overhead_spread_pct" "%" (hi -. lo) ]

(* Every per-layer metric, zero where a workload does not touch the
   layer, so each traced run prints the whole table. *)
let per_layer_names =
  [
    ("host.calib_ms", "ms"); ("parse.ms", "ms"); ("safety.ms", "ms");
    ("safety.candidates", "count"); ("safety.alloc_mb", "MB");
    ("cycles.ms", "ms"); ("cycles.count", "count"); ("search.ms", "ms");
    ("search.states", "count"); ("search.states_per_s", "1/s");
    ("search.alloc_mb", "MB"); ("render.ms", "ms"); ("analysis.ms", "ms");
    ("analysis.unattributed_ms", "ms"); ("client.connect_ms", "ms");
    ("client.send_lag_ms", "ms"); ("serve.parse_ms", "ms");
    ("serve.cache_ms", "ms"); ("serve.wait_ms", "ms");
    ("serve.analysis_ms", "ms"); ("serve.io_ms", "ms");
    ("serve.cache_hit_ratio", "share"); ("serve.busy_share", "share");
    ("obs.overhead_pct", "%"); ("obs.overhead_spread_pct", "%");
  ]
  @ List.map (fun (s, _) -> ("recovery." ^ s ^ ".ms", "ms")) Sim.Chaos.default_schemes
  @ [ ("sim.aborts_per_run", "count"); ("sim.retries_per_run", "count");
      ("chaos.check_ms", "ms") ]

let complete_layers measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer_names

let mean_of f xs =
  if xs = [||] then 0.0
  else Array.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (Array.length xs)

let alloc_mb f =
  let a = Gc.allocated_bytes () in
  let r = f () in
  ((Gc.allocated_bytes () -. a) /. 1048576.0, r)

(* ------------------------------------------------------------------ *)
(* analyze-search                                                      *)
(* ------------------------------------------------------------------ *)

type analyzed = { sys : System.t; status : int; report : Analysis.report }

let analyze (inp : Inputs.analyze_input) =
  let sys = Parser.system_of_result (Parser.parse_exn inp.src) in
  let _text, status, report = Analysis.render_full sys in
  { sys; status; report }

let failed_analysis = function
  | Ok { report = { Analysis.deadlock = Analysis.Gave_up _; _ }; _ } | Error _ -> true
  | Ok _ -> false

(* Every verdict is checked against the benchmark's own semantics: a
   witness is replayed step by step, and a deadlock-free verdict is held
   against an exhaustive search of the reachable states (when
   [exhaustive]). *)
let check_analysis ?(exhaustive = true) i (inp : Inputs.analyze_input) = function
  | Error msg -> fail_check "op %d raised %s" i msg
  | Ok a -> (
      let r = a.report in
      (match r.Analysis.deadlock with
      | Analysis.Deadlocks { schedule; _ } -> (
          match Replay.check a.sys schedule with
          | Ok () -> ()
          | Error msg -> fail_check "op %d: witness replay: %s" i msg)
      | Analysis.Deadlock_free ->
          if exhaustive && Replay.reachable_blocked a.sys then
            fail_check "op %d: deadlock-free verdict, but a blocked state is reachable" i
      | Analysis.Gave_up _ -> ());
      match inp.expect with
      | Inputs.Certified ->
          if a.status <> 0 || r.Analysis.safety <> Analysis.Safe_and_deadlock_free
          then fail_check "op %d: repaired system not certified (status %d)" i a.status
      | Inputs.Fails_theorem4 ->
          if a.status <> 1 || r.Analysis.safety = Analysis.Safe_and_deadlock_free
          then fail_check "op %d: input expected to fail Theorem 4" i
      | Inputs.Known { name; deadlocks } -> (
          match (r.Analysis.deadlock, deadlocks) with
          | Analysis.Deadlocks _, true | Analysis.Deadlock_free, false -> ()
          | _ ->
              fail_check "op %d: %s should %s" i name
                (if deadlocks then "deadlock" else "be deadlock-free")))

(* Per-layer split of one input, the layers called one by one from
   here as [Analysis.render_full] calls them. *)
type layers = {
  parse : float; safety : float; candidates : int; safety_alloc : float;
  cycles : float; cycle_count : int; search : float; states : int;
  search_alloc : float; render : float; whole : float;
}

let layer_split (inp : Inputs.analyze_input) =
  let parse, sys =
    time (fun () -> Parser.system_of_result (Parser.parse_exn inp.src))
  in
  let whole, _ = time (fun () -> Analysis.render_full sys) in
  let safety, (safety_alloc, verdict) =
    time (fun () -> alloc_mb (fun () -> Safety.Many.check sys))
  in
  let candidates = Safety.Many.candidate_count sys in
  let cycles, cycle_count =
    time (fun () ->
        Seq.fold_left (fun n _ -> n + 1) 0
          (Graph.Ungraph.cycles (System.interaction_graph sys)))
  in
  let states0 = Obs.Metrics.counter_value "explore.states_visited" in
  let search, (search_alloc, found) =
    match verdict with
    | Safety.Many.Safe_and_deadlock_free -> (0.0, (0.0, None))
    | _ ->
        time (fun () ->
            alloc_mb (fun () ->
                try Sched.Explore.find_deadlock ~max_states:500_000 sys
                with Sched.Explore.Too_large _ -> None))
  in
  let states = Obs.Metrics.counter_value "explore.states_visited" - states0 in
  let render, () =
    time (fun () ->
        match found with
        | None -> ()
        | Some (schedule, _) ->
            ignore (Format.asprintf "%a" (Sched.Narrate.pp sys) schedule);
            ignore (Sched.Narrate.explain_deadlock sys schedule))
  in
  { parse; safety; candidates; safety_alloc; cycles; cycle_count; search;
    states; search_alloc; render; whole }

let analyze_layers inputs =
  Obs.Control.on ();
  Obs.Metrics.reset ();
  let xs = Array.map (fun inp -> let l = layer_split inp in Obs.Trace.clear (); l) inputs in
  Obs.Control.off ();
  let avg f = mean_of f xs in
  let msf f = ms (avg f) in
  let total_search = Array.fold_left (fun a x -> a +. x.search) 0.0 xs in
  let total_states = Array.fold_left (fun a x -> a + x.states) 0 xs in
  [
    m "parse.ms" "ms" (msf (fun x -> x.parse));
    m "safety.ms" "ms" (msf (fun x -> x.safety));
    m "safety.candidates" "count" (avg (fun x -> float_of_int x.candidates));
    m "safety.alloc_mb" "MB" (avg (fun x -> x.safety_alloc));
    m "cycles.ms" "ms" (msf (fun x -> x.cycles));
    m "cycles.count" "count" (avg (fun x -> float_of_int x.cycle_count));
    m "search.ms" "ms" (msf (fun x -> x.search));
    m "search.states" "count" (avg (fun x -> float_of_int x.states));
    m "search.states_per_s" "1/s"
      (if total_search > 0.0 then float_of_int total_states /. total_search else 0.0);
    m "search.alloc_mb" "MB" (avg (fun x -> x.search_alloc));
    m "render.ms" "ms" (msf (fun x -> x.render));
    m "analysis.ms" "ms" (msf (fun x -> x.whole));
    m "analysis.unattributed_ms" "ms"
      (msf (fun x -> x.whole -. x.safety -. x.cycles -. x.search -. x.render));
  ]

(* Systems rewritten by [Analysis.repair_with_global_order] must certify:
   checked after the timed phase on a seeded sample.  Their state spaces
   run to tens of thousands of states, so the exhaustive search confirms
   only the first ten. *)
let check_repaired ~seed =
  Array.iteri
    (fun i inp ->
      check_analysis ~exhaustive:(i < 10) i inp
        (try Ok (analyze inp) with e -> Error (Printexc.to_string e)))
    (Inputs.certified_pool ~seed ~pool:100)

(* Results are deterministic, so the first round's are checked and the
   others only counted. *)
let run_search ~tmp ~pool ~rate ~seed ~seconds ~trace =
  let setup () =
    let inputs = Inputs.search_pool ~seed ~pool in
    (* warm-up: one untimed pass over a slice of the pool *)
    Array.iter (fun inp -> ignore (analyze inp)) (Array.sub inputs 0 100);
    inputs
  in
  let rounds = rounds_for ~rate ~seconds ~pool in
  if !part_of <> None then begin
    let inputs = setup () in
    let after round k r = if round = 0 then check_analysis k inputs.(k) r in
    run_part ~rounds ~seed ~after ~failed:failed_analysis ~notes:(fun () -> 0) inputs analyze
  end
  else if not trace then begin
    let setup_s = repeated_setup setup in
    let _, r = closed_end_to_end ~tmp ~setup_s ~rounds in
    check_repaired ~seed;
    r
  end
  else begin
    let inputs = setup () in
    (* Obs overhead comes from the serve segments in this run. *)
    (pool / 4, 0, analyze_layers (Array.sub inputs 0 (pool / 4)))
  end

(* ------------------------------------------------------------------ *)
(* sim-matrix                                                          *)
(* ------------------------------------------------------------------ *)

(* One op is one [Sim.Recovery.run]: one cell of the 5 schemes x 4
   families x 3 fault intensities on one draw, its simulator seeded by
   (seed, input), so every round of an input repeats the same run. *)
let cell_input (x : Inputs.sim_input) =
  ( x.draw.Inputs.systems.(x.cell.family),
    x.draw.Inputs.plans.(x.cell.family).(x.cell.intensity_ix) )

let sim_run ~seed (x : Inputs.sim_input) =
  let sys, plan = cell_input x in
  Sim.Recovery.run ~scheme:x.cell.scheme ~config:Inputs.sim_config ~faults:plan
    (Random.State.make [| seed; x.key |]) sys

let check_sim_run (x : Inputs.sim_input) run =
  if not run.Sim.Recovery.stats.Sim.Recovery.timed_out then
    let sys, _ = cell_input x in
    match Sim.Chaos.check_run sys run with
    | [] -> ()
    | v :: _ ->
        fail_check "sim input %d (%s/%s/%.1f): %s" x.key Inputs.families.(x.cell.family)
          x.cell.scheme_name Inputs.intensities.(x.cell.intensity_ix)
          (Format.asprintf "%a" (Sim.Chaos.pp_violation (System.db sys)) v)

(* Runs are deterministic given their seed, so the first round's runs
   are checked.  Runs that hit the commit budget are counted and, as in
   the scenario matrix, not held to the invariants. *)
let run_sim ~tmp ~draws ~rate ~seed ~seconds ~trace =
  let setup () =
    let inputs = Inputs.sim_pool ~seed ~draws in
    Array.iter (fun x -> ignore (sim_run ~seed:(seed + 1) x)) inputs;
    inputs
  in
  let pool = draws * Array.length Inputs.sim_cells in
  let rounds = rounds_for ~rate ~seconds ~pool in
  if !part_of <> None then begin
    let inputs = setup () in
    let timed_out = ref 0 in
    let after round k = function
      | Ok run when round = 0 ->
          if run.Sim.Recovery.stats.Sim.Recovery.timed_out then incr timed_out;
          check_sim_run inputs.(k) run
      | Ok _ -> ()
      | Error msg -> fail_check "sim input %d raised %s" k msg
    in
    run_part ~rounds ~seed ~after ~failed:Result.is_error
      ~notes:(fun () -> !timed_out) inputs (sim_run ~seed)
  end
  else if not trace then begin
    let setup_s = repeated_setup setup in
    let timed_out, r = closed_end_to_end ~tmp ~setup_s ~rounds in
    Printf.printf "%d of %d distinct runs hit max_time\n" timed_out pool;
    r
  end
  else begin
    let inputs = setup () in
    Obs.Control.on ();
    Obs.Metrics.reset ();
    let per_scheme = Hashtbl.create 8 in
    let aborts = ref 0 and check_s = ref 0.0 in
    Array.iter
      (fun (x : Inputs.sim_input) ->
        let dt, run = time (fun () -> sim_run ~seed x) in
        let n, t = try Hashtbl.find per_scheme x.cell.scheme_name with Not_found -> (0, 0.0) in
        Hashtbl.replace per_scheme x.cell.scheme_name (n + 1, t +. dt);
        aborts := !aborts + run.Sim.Recovery.stats.Sim.Recovery.aborts;
        let dc, () = time (fun () -> check_sim_run x run) in
        check_s := !check_s +. dc;
        Obs.Trace.clear ())
      inputs;
    let retries = Obs.Metrics.counter_value "sim.retries" in
    Obs.Control.off ();
    let runs = float_of_int (Array.length inputs) in
    let layers =
      List.map
        (fun (s, _) ->
          let n, t = try Hashtbl.find per_scheme s with Not_found -> (0, 0.0) in
          m ("recovery." ^ s ^ ".ms") "ms" (if n = 0 then 0.0 else ms t /. float_of_int n))
        Sim.Chaos.default_schemes
      @ [
          m "sim.aborts_per_run" "count" (float_of_int !aborts /. runs);
          m "sim.retries_per_run" "count" (float_of_int retries /. runs);
          m "chaos.check_ms" "ms" (ms !check_s /. runs);
        ]
    in
    let overhead = obs_overhead ~seed inputs (sim_run ~seed) in
    (Array.length inputs, 0, layers @ overhead)
  end

(* ------------------------------------------------------------------ *)
(* serve (traced run of analyze-search)                                *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string }

let start_daemon ~cli ~tmp ~traced =
  let sock = Filename.concat tmp (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat tmp "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    Array.of_list
      ([ cli; "serve"; "--socket"; sock ]
      @ if traced then [ "--stats"; "--slow-ms"; "1" ] else [])
  in
  let pid = Unix.create_process cli args Unix.stdin log log in
  Unix.close log;
  let d = { pid; sock } in
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Client.ping ~socket:sock with
    | Ok Client.Pong -> d
    | _ when now () < deadline -> Unix.sleepf 0.002; wait ()
    | _ -> failwith "daemon did not answer ping within 20 s"
  in
  wait ()

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* One reply read off a connection the reader found readable. *)
let read_reply fd =
  match Wire.read_line fd with
  | Error _ -> Error "io"
  | Ok line -> (
      match Protocol.parse_response_header line with
      | Ok (Protocol.Head_ok { status; body_len }) -> (
          match Wire.read_exact fd body_len with
          | Ok body -> Ok (status, body, Protocol.header_extras line)
          | Error _ -> Error "io")
      | Ok (Protocol.Head_busy _) -> Error "busy"
      | Ok Protocol.Head_timeout -> Error "timeout"
      | Ok (Protocol.Head_error msg) -> Error ("error " ^ msg)
      | Ok Protocol.Head_pong -> Error "unexpected pong"
      | Error msg -> Error msg)

type sent = { timing : Stats.timing; connect : float }

(* Open loop: this thread sends request [i] at [t0 + i / rate] on a
   fresh connection whatever the state of earlier ones; one reader
   thread collects replies with select. *)
let open_loop ~sock ~rate srcs =
  let n = Array.length srcs in
  let sent = Array.make n { timing = { Stats.due = 0.0; sent = 0.0; done_ = 0.0 }; connect = 0.0 } in
  let replies = Array.make n (Error "no reply") in
  let lock = Mutex.create () in
  let handoff = Queue.create () in
  let wake_r, wake_w = Unix.pipe () in
  let reader () =
    let live = Hashtbl.create 64 in
    let remaining = ref n in
    let scratch = Bytes.create 64 in
    while !remaining > 0 do
      let fds = wake_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) live [] in
      let ready, _, _ =
        try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = wake_r then begin
            ignore (Unix.read wake_r scratch 0 64);
            Mutex.lock lock;
            Queue.iter
              (fun (i, fdo) ->
                match fdo with
                | Some fd -> Hashtbl.replace live fd i
                | None -> decr remaining)
              handoff;
            Queue.clear handoff;
            Mutex.unlock lock
          end
          else begin
            let i = Hashtbl.find live fd in
            replies.(i) <- read_reply fd;
            let s = sent.(i) in
            sent.(i) <- { s with timing = { s.timing with Stats.done_ = now () } };
            Hashtbl.remove live fd;
            Unix.close fd;
            decr remaining
          end)
        ready
    done
  in
  let th = Thread.create reader () in
  let t0 = now () +. 0.005 in
  Array.iteri
    (fun i src ->
      let due = t0 +. (float_of_int i /. rate) in
      let d = due -. now () in
      if d > 0.0 then Unix.sleepf d;
      let c0 = now () in
      let fdo =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX sock) with
        | () -> Some fd
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            replies.(i) <- Error ("connect " ^ Unix.error_message e);
            None
      in
      let connect = now () -. c0 in
      let fdo =
        match fdo with
        | None -> None
        | Some fd -> (
            Wire.set_read_timeout fd 60.0;
            let head = Protocol.render_request_header ~body_len:(String.length src) () in
            match Wire.write_all fd (head ^ src) with
            | Ok () -> Some fd
            | Error `Closed ->
                Unix.close fd;
                replies.(i) <- Error "write";
                None)
      in
      let s = now () in
      sent.(i) <- { timing = { Stats.due; sent = s; done_ = s }; connect };
      Mutex.lock lock;
      Queue.push (i, fdo) handoff;
      Mutex.unlock lock;
      ignore (Unix.write_substring wake_w "x" 0 1))
    srcs;
  Thread.join th;
  Unix.close wake_r;
  Unix.close wake_w;
  (now () -. t0, sent, replies)

(* Offered load of the serve segments: well below what the daemon
   sustains on the reference host (an earlier mix with 30% cheap misses
   held up to about 2,700 req/s), so that queueing stays rare. *)
let serve_rate = 400.0

let stats_field body key =
  let pat = "\"" ^ key ^ "\": " in
  let rec find i =
    if i + String.length pat > String.length body then 0
    else if String.sub body i (String.length pat) = pat then
      Scanf.sscanf (String.sub body (i + String.length pat) (String.length body - i - String.length pat)) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let daemon_stats d =
  match Client.stats ~socket:d.sock with
  | Ok (Client.Verdict { body; _ }) -> body
  | _ -> fail_check "stats verb failed"; ""

(* Serve-side layer times from a request's Chrome trace: the span
   durations by name, in ms. *)
let span_durations json =
  let spans = ref [] in
  let name_pat = "\"name\":\"" and dur_pat = ",\"dur\":" in
  let len = String.length json in
  let rec scan i =
    match String.index_from_opt json i '{' with
    | None -> ()
    | Some j ->
        let stop = match String.index_from_opt json j '}' with Some k -> k | None -> len - 1 in
        let ev = String.sub json j (stop - j + 1) in
        let find pat =
          let pl = String.length pat in
          let rec go k =
            if k + pl > String.length ev then None
            else if String.sub ev k pl = pat then Some (k + pl)
            else go (k + 1)
          in
          go 0
        in
        (match (find name_pat, find dur_pat) with
        | Some a, Some b ->
            let name = String.sub ev a (String.index_from ev a '"' - a) in
            let dur = Scanf.sscanf (String.sub ev b (String.length ev - b)) "%f" Fun.id in
            spans := (name, dur /. 1000.0) :: !spans
        | _ -> ());
        scan (stop + 1)
  in
  scan 0;
  !spans

let check_served srcs replies =
  let local = Hashtbl.create 256 in
  Array.iteri
    (fun i r ->
      match r with
      | Error _ -> ()
      | Ok (status, body, _) ->
          let src = srcs.(i) in
          let text, st =
            match Hashtbl.find_opt local src with
            | Some v -> v
            | None ->
                let sys = Parser.system_of_result (Parser.parse_exn src) in
                let text, st, _ = Analysis.render_full sys in
                Hashtbl.replace local src (text, st);
                (text, st)
          in
          if st <> status || text <> body then
            fail_check "request %d: served body differs from in-process render_full" i)
    replies

(* Warm-up: throwaway systems, then one sighting of each popular shape
   so that the timed phase measures its hits, not a cold-start stampede
   of duplicate analyses. *)
let warm_up d =
  Array.iter
    (fun src ->
      match Client.analyze ~socket:d.sock src with
      | Ok (Client.Verdict _) -> ()
      | _ -> fail_check "warm-up request failed")
    (Array.append (Inputs.serve_warmup ~n:200) (Array.map Inputs.source (Inputs.serve_shapes ())))

(* The daemon path, measured per layer in analyze-search's traced run.
   Its end-to-end timings are not part of the benchmark: on the
   reference host their tail could not be made steady (see README). *)
let serve_layers ~cli ~tmp ~seed =
  (* Three pairs of segments, one untraced and one traced, each on a
     fresh daemon sent the same seeded list of requests; after each
     traced segment span trees of its misses and hits are fetched, and
     after all of them every served body is checked. *)
  let srcs = Inputs.serve_requests ~seed ~round:0 ~ops:1100 in
  let missed = ref 0 and failed = ref 0 and served = ref [] in
  let hit_spans = ref [] and miss_spans = ref [] in
  let hits = ref 0 and misses = ref 0 and busy = ref 0 and received = ref 0 in
  let sends = ref [] in
  let segment ~traced =
    let d = start_daemon ~cli ~tmp ~traced in
    warm_up d;
    let before = if traced then daemon_stats d else "" in
    let _, sent, replies = open_loop ~sock:d.sock ~rate:serve_rate srcs in
    sends := Array.to_list sent @ !sends;
    served := replies :: !served;
    Array.iteri
      (fun i r ->
        match r with
        | Error e ->
            incr failed;
            Printf.printf "request %d failed: %s\n" i e
        | Ok _ -> ())
      replies;
    if traced then begin
      (* counts of this segment alone; the second [stats] call counts
         itself as received *)
      let st = daemon_stats d in
      let delta key = stats_field st key - stats_field before key in
      hits := !hits + delta "cache_hits";
      misses := !misses + delta "cache_misses";
      busy := !busy + delta "busy";
      received := !received + delta "received" - 1;
      (* The newest [n] request ids with the given cache outcome. *)
      let newest cache n =
        Array.to_list replies
        |> List.filter_map (function
             | Ok (_, _, extras) when List.assoc_opt "cache" extras = Some cache ->
                 Option.bind (List.assoc_opt "req" extras) int_of_string_opt
             | _ -> None)
        |> List.rev
        |> List.filteri (fun i _ -> i < n)
      in
      let fetch into id =
        match Client.trace ~socket:d.sock id with
        | Ok json -> into := span_durations json :: !into
        | Error _ -> incr missed
      in
      (* Misses first: with --slow-ms 1 their trees are pinned in the
         daemon's 64-entry slow ring.  Then the newest hits, from the
         64-entry ring of recent trees, which every [trace] call
         itself enters, evicting the oldest. *)
      List.iter (fetch miss_spans) (newest "miss" 32);
      List.iter (fetch hit_spans) (newest "hit" 16)
    end;
    stop_daemon d;
    let lat = Array.map (fun s -> Stats.latency s.timing) sent in
    Stats.median lat
  in
  let pcts =
    Array.init 3 (fun pair ->
        let traced_first = pair mod 2 = 1 in
        let a = segment ~traced:traced_first in
        let b = segment ~traced:(not traced_first) in
        let off, on = if traced_first then (b, a) else (a, b) in
        100.0 *. ((on /. off) -. 1.0))
  in
  Printf.printf "obs overhead per pair (%%): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") pcts)));
  Printf.printf "span trees fetched: %d hits, %d misses (%d not found)\n"
    (List.length !hit_spans) (List.length !miss_spans) !missed;
  let total name tree =
    List.fold_left (fun a (n, d) -> if n = name then a +. d else a) 0.0 tree
  in
  let hit = Stats.ratio (float_of_int !hits) (float_of_int (!hits + !misses)) in
  (* Per-request means: hits and misses averaged apart and weighted by
     the segments' hit ratio, since the fetched trees over-sample
     misses. *)
  let per_request f =
    let h = Stats.share hit in
    (h *. mean_of f (Array.of_list !hit_spans))
    +. ((1.0 -. h) *. mean_of f (Array.of_list !miss_spans))
  in
  let layer name = per_request (total name) in
  let io =
    per_request (fun t ->
        total "serve.request" t -. total "serve.parse" t -. total "serve.cache" t
        -. total "serve.wait" t)
  in
  List.iter (check_served srcs) !served;
  let sends = Array.of_list !sends in
  let lo = Array.fold_left Float.min infinity pcts
  and hi = Array.fold_left Float.max neg_infinity pcts in
  let busy_r = Stats.ratio (float_of_int !busy) (float_of_int !received) in
  Printf.printf "cache hit ratio %s, busy share %s\n" (Stats.ratio_to_string hit)
    (Stats.ratio_to_string busy_r);
  ( 6 * Array.length srcs, !failed,
    [
      m "client.connect_ms" "ms" (ms (mean_of (fun s -> s.connect) sends));
      m "client.send_lag_ms" "ms" (ms (mean_of (fun s -> Stats.lateness s.timing) sends));
      m "serve.parse_ms" "ms" (layer "serve.parse");
      m "serve.cache_ms" "ms" (layer "serve.cache");
      m "serve.wait_ms" "ms" (layer "serve.wait");
      m "serve.analysis_ms" "ms" (layer "serve.analysis");
      m "serve.io_ms" "ms" io;
      m "serve.cache_hit_ratio" "share" (Stats.share hit);
      m "serve.busy_share" "share" (Stats.share busy_r);
      m "obs.overhead_pct" "%" (Stats.median pcts);
      m "obs.overhead_spread_pct" "%" (hi -. lo);
    ] )

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let workloads = [ "analyze-search"; "sim-matrix" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let cli = ref "" and tmp = ref "" and rev = ref "unknown" in
  let part = ref (-1) and part_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--cli", Arg.Set_string cli, " path of the ddlock executable (analyze-search traced run)");
      ("--tmp", Arg.Set_string tmp, " scratch directory for sockets and logs");
      ("--rev", Arg.Set_string rev, " source revision to stamp on the result");
      ("--part", Arg.Set_int part, " (internal) time one part of a closed-loop run");
      ("--part-out", Arg.Set_string part_out, " (internal) where that part writes its result");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --tmp DIR" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if not (List.mem !workload workloads) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1) || !tmp = ""
  then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !part >= 0 then part_of := Some (!part, !part_out);
  self_args :=
    [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
      string_of_int !seconds; "--trace"; string_of_int !trace; "--cli"; !cli;
      "--tmp"; !tmp; "--rev"; !rev ];
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let c0 = calib_ms () in
  let attempted, failed, metrics =
    match !workload with
    | "analyze-search" ->
        let attempted, failed, metrics =
          run_search ~tmp:!tmp ~pool:1100 ~rate:1100.0 ~seed ~seconds ~trace
        in
        if trace then
          let a, f, serve = serve_layers ~cli:!cli ~tmp:!tmp ~seed in
          (attempted + a, failed + f, metrics @ serve)
        else (attempted, failed, metrics)
    | _ -> run_sim ~tmp:!tmp ~draws:40 ~rate:30000.0 ~seed ~seconds ~trace
  in
  let c1 = calib_ms () in
  stamp ~rev:!rev ~calib:[ c0; c1 ];
  let metrics =
    if trace then complete_layers (m "host.calib_ms" "ms" ((c0 +. c1) /. 2.0) :: metrics)
    else metrics
  in
  print_result ~attempted ~failed metrics;
  exit (if !checks_failed = [] then 0 else 1)
