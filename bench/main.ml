(* Benchmark & experiment harness.

   The paper (PODS'85/JCSS'86) is a theory paper with no measured tables;
   EXPERIMENTS.md defines experiments E1-E28 that operationalize its
   theorems and complexity claims.  Agreement with the exhaustive oracle
   is checked by qcheck properties in [dune runtest]; this executable
   regenerates the measured series: Bechamel micro-benchmarks for the
   polynomial kernels, macro series timed by [measure], and the
   scenario matrix.  Sections with a table worth keeping write it as
   BENCH_<section>.json through [write_json].

   Run with:  dune exec bench/main.exe                 (everything)
              dune exec bench/main.exe -- SECTION...   (a subset)
   Sections: micro theorem4 exhaustive crossover sim recovery faults sm
             rw obs sym por serve matrix
*)

open Bechamel
open Toolkit
open Ddlock
module System = Model.System
module Transaction = Model.Transaction

let rng seed = Random.State.make [| seed; 0xbe7c4 |]
let header title = Format.printf "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* Timing and percentiles                                              *)
(* ------------------------------------------------------------------ *)

(* Timed trials per measurement.  Odd, so the median is a sample. *)
let trials = 7

(* Nearest-rank percentile, [q] in [0, 1]: with fewer than 100 samples
   p99 is the maximum.  0.0 when there are no samples. *)
let percentile q samples =
  match List.sort Float.compare samples with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* Milliseconds; [mad] is the median absolute deviation from [median]. *)
type timing = { median : float; min : float; mad : float }

let summarize samples =
  let median = percentile 0.5 samples in
  {
    median;
    min = List.fold_left Float.min infinity samples;
    mad = percentile 0.5 (List.map (fun x -> Float.abs (x -. median)) samples);
  }

(* Monotonic wall clock: CPU time would sum over the daemon's worker
   domains in the serve sweep and make a run look slower the better it
   scales. *)
let time_ms f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Clock.now_ns () - t0) /. 1e6)

(* One untimed warm-up run (caches, lazy set-up, first major GC), whose
   result is returned, then [trials] timed runs. *)
let measure f =
  let r = f () in
  (r, summarize (List.init trials (fun _ -> snd (time_ms f))))

let pp_timing t = Printf.sprintf "%.3f ±%.3f" t.median t.mad

(* States stored and time taken by a timed exploration of [sys]. *)
let explore_timed ?symmetry ?por sys =
  let space, t = measure (fun () -> Sched.Explore.explore ?symmetry ?por sys) in
  (Sched.Explore.state_count space, t)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* A timed value: the median under [key], its MAD under [key_mad]. *)
let timed key t = [ (key, Num t.median); (key ^ "_mad", Num t.mad) ]

(* Floats keep a '.' even when integral, so a reader sees the same type
   in every row; nan and inf print as themselves and fail validation. *)
let number x =
  let s = Printf.sprintf "%.4g" x in
  if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
    s ^ ".0"
  else s

let quote s = "\"" ^ Obs.Json.escape s ^ "\""

(* Telemetry cost on [body], run [repeat] times per timed trial: [trials]
   rounds, each a [measure] with collection off and then on, so drift on
   the host hits both sides alike.  Off and on are per-run times over the
   round medians; the overhead is the median of the per-round overheads,
   its spread their MAD.  Returns the JSON fields and a printable line. *)
let overhead ~repeat body =
  let switch on =
    Obs.Metrics.reset ();
    Obs.Trace.clear ();
    if on then Obs.Control.on () else Obs.Control.off ()
  in
  let runs () = for _ = 1 to repeat do body () done in
  let per_run t = t.median /. float_of_int repeat in
  let rounds =
    List.init trials (fun _ ->
        switch false;
        let _, off = measure runs in
        switch true;
        let _, on = measure runs in
        switch false;
        (per_run off, per_run on))
  in
  let off = summarize (List.map fst rounds)
  and on = summarize (List.map snd rounds)
  and pct =
    summarize (List.map (fun (off, on) -> 100.0 *. (on -. off) /. off) rounds)
  in
  ( timed "off_ms" off @ timed "on_ms" on
    @ [
        ("overhead_pct", Num pct.median); ("overhead_spread_pct", Num pct.mad);
      ],
    Printf.sprintf "off %s (min %.3f), on %s (min %.3f): %+.1f%% ±%.1f"
      (pp_timing off) off.min (pp_timing on) on.min pct.median pct.mad )

(* A container holding another non-empty container puts each member on
   its own line; a flat one stays on one line. *)
let rec render indent v =
  let inner = indent ^ "  " in
  let block opening closing members =
    let nested (_, v) =
      match v with Arr (_ :: _) | Obj (_ :: _) -> true | _ -> false
    in
    let first, sep, last =
      if List.exists nested members then
        ("\n" ^ inner, ",\n" ^ inner, "\n" ^ indent)
      else ("", ", ", "")
    in
    opening ^ first
    ^ String.concat sep
        (List.map (fun (prefix, v) -> prefix ^ render inner v) members)
    ^ last ^ closing
  in
  match v with
  | Int n -> string_of_int n
  | Num x -> number x
  | Str s -> quote s
  | Arr vs -> block "[" "]" (List.map (fun v -> ("", v)) vs)
  | Obj kvs -> block "{" "}" (List.map (fun (k, v) -> (quote k ^ ": ", v)) kvs)

(* The short git revision of the working directory's checkout, or
   "unknown" outside one. *)
let source_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, rev when rev <> "" -> rev
      | _ -> "unknown")

(* Writes BENCH_<name>.json, stamped with the section, the host's core
   count, the source revision and the OCaml version (numbers are only
   comparable between equal hosts and builds), after checking it with
   [Obs.Json.validate]: a malformed file exits 1 and is never written. *)
let write_json ?(detail = "") name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let doc =
    render ""
      (Obj
         (("bench", Str name)
         :: ("cores", Int (Domain.recommended_domain_count ()))
         :: ("rev", Str (source_rev ()))
         :: ("ocaml", Str Sys.ocaml_version)
         :: fields))
    ^ "\n"
  in
  (match Obs.Json.validate doc with
  | Ok () -> ()
  | Error msg ->
      Format.eprintf "bench: %s invalid: %s@." file msg;
      exit 1);
  let oc = open_out file in
  output_string oc doc;
  close_out oc;
  Format.printf "  wrote %s (validated%s)@." file detail

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

(* One Bechamel group of (name, thunk) cases. *)
let bechamel title group cases =
  header title;
  let tests =
    Test.make_grouped ~name:group
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      let est =
        match Analyze.OLS.estimates v with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let unit, scale =
        if est > 1e9 then ("s ", 1e9)
        else if est > 1e6 then ("ms", 1e6)
        else if est > 1e3 then ("us", 1e3)
        else ("ns", 1.0)
      in
      Format.printf "  %-42s %10.2f %s/run%s@." name (est /. scale) unit
        (match Analyze.OLS.r_square v with
        | Some r when r < 0.9 -> Printf.sprintf "   (r²=%.2f)" r
        | _ -> ""))
    (List.sort compare rows)

let micro () =
  bechamel "E7 Theorem 3 pair test — O(n²) scaling (n = entities)" "theorem3"
    (List.map
       (fun n ->
         let t1, t2 = Workload.Gentx.chain_pair n in
         ( Printf.sprintf "pair/theorem3/n=%d" n,
           fun () -> ignore (Safety.Pair.safe_and_deadlock_free t1 t2) ))
       [ 32; 64; 128; 256 ]);
  bechamel "E8 ablation: O(n³) minimal-prefix algorithm on the same inputs"
    "minimal-prefix"
    (List.map
       (fun n ->
         let t1, t2 = Workload.Gentx.chain_pair n in
         ( Printf.sprintf "pair/minimal-prefix/n=%d" n,
           fun () ->
             ignore (Safety.Minimal_prefix.safe_and_deadlock_free t1 t2) ))
       [ 32; 64; 128 ]);
  bechamel "E9 Corollary 3 copies test" "copies"
    (List.map
       (fun n ->
         let t = Workload.Gentx.guard_ring n in
         ( Printf.sprintf "copies/corollary3/k=%d" n,
           fun () -> ignore (Safety.Copies.safe_and_deadlock_free t) ))
       [ 32; 128; 512 ]);
  bechamel "E1 reduction-graph construction + cycle check (k-ring, 3 copies)"
    "reduction"
    (List.map
       (fun k ->
         let t = Workload.Gentx.guard_ring k in
         let sys = System.copies t 3 in
         (* Prefix: copy i holds entity i. *)
         let p = Sched.State.initial sys in
         for i = 0 to 2 do
           Ddlock_graph.Bitset.set p.(i) (Transaction.lock_node_exn t i)
         done;
         ( Printf.sprintf "reduction-graph/k=%d" k,
           fun () ->
             ignore
               (Deadlock.Reduction.has_cycle (Deadlock.Reduction.make sys p)) ))
       [ 8; 32; 128 ]);
  let st = rng 5 in
  let formula n = Conp.Gen3sat.generate st ~n_vars:n in
  let dpll =
    List.map
      (fun n ->
        let f = formula n in
        (Printf.sprintf "dpll/n=%d" n, fun () -> ignore (Conp.Dpll.satisfiable f)))
      [ 10; 20; 40 ]
  in
  let build =
    List.map
      (fun n ->
        let f = formula n in
        ( Printf.sprintf "reduction-build/n=%d" n,
          fun () -> ignore (Conp.Reduction_sat.build f) ))
      [ 5; 10; 20 ]
  in
  bechamel "E4 DPLL and Theorem-2 gadget construction (random 3SAT', n vars)"
    "conp" (dpll @ build);
  let st = rng 6 in
  bechamel "substrate: transitive closure (random DAG, n nodes)" "closure"
    (List.map
       (fun n ->
         let edges = ref [] in
         for u = 0 to n - 1 do
           for v = u + 1 to n - 1 do
             if Random.State.float st 1.0 < 0.05 then edges := (u, v) :: !edges
           done
         done;
         let g = Ddlock_graph.Digraph.create n !edges in
         ( Printf.sprintf "closure/n=%d" n,
           fun () -> ignore (Ddlock_graph.Closure.closure g) ))
       [ 64; 256; 1024 ]);
  bechamel "E16 geometric deciders for centralized pairs ([LP]/[SW])" "geometry"
    (List.concat_map
       (fun n ->
         let names = List.init n (fun i -> "e" ^ string_of_int i) in
         let db = Model.Db.single_site names in
         let t1 = Model.Builder.two_phase_chain db names
         and t2 = Model.Builder.two_phase_chain db (List.rev names) in
         [
           ( Printf.sprintf "geometry/deadlock/n=%d" n,
             fun () -> ignore (Safety.Geometry.deadlock_free t1 t2) );
           ( Printf.sprintf "geometry/safe/n=%d" n,
             fun () -> ignore (Safety.Geometry.safe t1 t2) );
         ])
       [ 16; 32; 64 ])

(* ------------------------------------------------------------------ *)
(* Theorem 4 macro series                                              *)
(* ------------------------------------------------------------------ *)

let theorem4 () =
  header "E10 Theorem 4 vs interaction-graph cycles (philosopher rings)";
  Format.printf "  %-10s %-12s %-12s %-18s@." "k" "candidates" "verdict"
    "time (ms)";
  List.iter
    (fun k ->
      let sys = Workload.Gentx.dining_philosophers k in
      let candidates = Safety.Many.candidate_count sys in
      let verdict, t =
        measure (fun () -> Safety.Many.safe_and_deadlock_free sys)
      in
      Format.printf "  %-10d %-12d %-12s %-18s@." k candidates
        (if verdict then "safe&DF" else "violation")
        (pp_timing t))
    [ 3; 4; 5; 6; 8; 10; 12 ];

  Format.printf
    "@.  dense interaction graphs (philosophers + one hot transaction):@.";
  Format.printf "  %-10s %-12s %-18s@." "k" "cycles" "time (ms)";
  List.iter
    (fun k ->
      let base = Workload.Gentx.dining_philosophers k in
      let db = System.db base in
      let all_forks = List.init k (fun i -> "f" ^ string_of_int i) in
      let hot = Model.Builder.two_phase_chain db all_forks in
      let sys = System.create (Array.to_list (System.txns base) @ [ hot ]) in
      let cycles =
        Seq.length (Ddlock_graph.Ungraph.cycles (System.interaction_graph sys))
      in
      let _, t = measure (fun () -> Safety.Many.safe_and_deadlock_free sys) in
      Format.printf "  %-10d %-12d %-18s@." k cycles (pp_timing t))
    [ 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Exhaustive-search scaling (the coNP-hardness shape)                 *)
(* ------------------------------------------------------------------ *)

let exhaustive () =
  header "E2/E4 exhaustive search blow-up (reachable states)";
  Format.printf "  %-26s %-12s %-18s@." "system" "states" "time (ms)";
  let row name sys =
    let states, t = explore_timed sys in
    Format.printf "  %-26s %-12d %-18s@." name states (pp_timing t)
  in
  List.iter
    (fun k ->
      row
        (Printf.sprintf "philosophers k=%d" k)
        (Workload.Gentx.dining_philosophers k))
    [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun k ->
      row
        (Printf.sprintf "2 copies of %d-ring" k)
        (System.copies (Workload.Gentx.guard_ring k) 2))
    [ 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Crossover: polynomial vs exhaustive on the same instances           *)
(* ------------------------------------------------------------------ *)

let crossover () =
  header "E7 crossover: Theorem 3 vs exhaustive on growing chain pairs";
  Format.printf "  %-8s %-18s %-18s@." "n" "theorem3 (ms)" "exhaustive (ms)";
  List.iter
    (fun n ->
      let t1, t2 = Workload.Gentx.chain_pair n in
      let sys = System.create [ t1; t2 ] in
      let _, fast =
        measure (fun () -> Safety.Pair.safe_and_deadlock_free t1 t2)
      in
      let _, slow =
        measure (fun () -> Sched.Explore.safe_and_deadlock_free sys)
      in
      Format.printf "  %-8d %-18s %-18s@." n (pp_timing fast) (pp_timing slow))
    [ 2; 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let sim () =
  header "E11 simulator: certified vs deadlocking workloads (200 runs each)";
  Format.printf "  %-26s %-12s %-16s %-18s@." "workload" "deadlocks"
    "non-serializable" "time (ms)";
  let bench name sys =
    (* A fresh generator per trial: every trial simulates the same runs. *)
    let stats, t =
      measure (fun () -> Sim.Runtime.batch (rng 7) sys ~runs:200)
    in
    Format.printf "  %-26s %-12d %-16d %-18s@." name
      stats.Sim.Runtime.deadlocks stats.Sim.Runtime.non_serializable
      (pp_timing t)
  in
  let db = Model.Db.one_site_per_entity [ "a"; "b"; "c"; "d" ] in
  let ordered =
    System.create
      (List.init 4 (fun _ ->
           Model.Builder.two_phase_chain db [ "a"; "b"; "c"; "d" ]))
  in
  bench "ordered 2PL x4 (safe&DF)" ordered;
  bench "philosophers k=5" (Workload.Gentx.dining_philosophers 5);
  bench "3 copies of 3-ring" (System.copies (Workload.Gentx.guard_ring 3) 3);
  bench "2 copies of 4-ring (Fig2)" (System.copies (Workload.Gentx.guard_ring 4) 2)

(* ------------------------------------------------------------------ *)
(* [SM] fixed transactions + fixed sites: polynomial exhaustive method *)
(* ------------------------------------------------------------------ *)

let sm_fixed () =
  header
    "E15 [SM]: exhaustive deadlock test is polynomial for fixed (txns, sites)";
  Format.printf
    "  2 transactions over s sites, n entities each (states ~ n^(2s)):@.";
  Format.printf "  %-8s %-8s %-12s %-18s %-10s@." "s" "n" "states" "time (ms)"
    "growth";
  let prev = ref 0.0 in
  List.iter
    (fun (s, n) ->
      let db = Workload.Gentx.random_db ~sites:s ~entities:n in
      let st = rng 9 in
      let all = List.init n Fun.id in
      let mk () =
        Workload.Gentx.random_transaction st db ~entities:all ~density:0.0
      in
      let sys = System.create [ mk (); mk () ] in
      let states, t = explore_timed sys in
      let states = float_of_int states in
      Format.printf "  %-8d %-8d %-12.0f %-18s %-10s@." s n states
        (pp_timing t)
        (if !prev > 0.0 then Printf.sprintf "%.1fx" (states /. !prev) else "-");
      prev := states)
    [ (1, 4); (1, 8); (1, 16); (2, 4); (2, 8); (2, 16); (3, 6); (3, 12) ]

(* ------------------------------------------------------------------ *)
(* Recovery schemes                                                    *)
(* ------------------------------------------------------------------ *)

let recovery () =
  header
    "E12 runtime deadlock handling: wound-wait / wait-die / detect (RSL'78)";
  Format.printf "  %-26s %-12s %-10s %-10s %-12s@." "workload" "scheme"
    "aborts" "timeouts" "makespan";
  let schemes =
    [
      ("wait-die", Sim.Recovery.Wait_die);
      ("wound-wait", Sim.Recovery.Wound_wait);
      ("detect(5)", Sim.Recovery.Detect { period = 5.0 });
    ]
  in
  let bench name sys =
    List.iter
      (fun (sname, scheme) ->
        let st = rng 8 in
        let stats = Sim.Recovery.batch ~scheme st sys ~runs:100 in
        Format.printf "  %-26s %-12s %-10d %-10d %-12.2f@." name sname
          stats.Sim.Recovery.total_aborts stats.Sim.Recovery.timeouts
          stats.Sim.Recovery.mean_makespan)
      schemes
  in
  bench "philosophers k=5" (Workload.Gentx.dining_philosophers 5);
  bench "3 copies of 3-ring" (System.copies (Workload.Gentx.guard_ring 3) 3);
  let db = Model.Db.one_site_per_entity [ "a"; "b"; "c"; "d" ] in
  bench "ordered 2PL x4 (safe&DF)"
    (System.create
       (List.init 4 (fun _ ->
            Model.Builder.two_phase_chain db [ "a"; "b"; "c"; "d" ])))

(* ------------------------------------------------------------------ *)
(* Fault injection: recovery schemes under increasing fault rates      *)
(* ------------------------------------------------------------------ *)

let faults () =
  header
    "E19 fault injection: scheme robustness vs fault-plan severity \
     (philosophers k=5, 100 runs per cell)";
  Format.printf "  %-10s %-12s %-10s %-8s %-10s %-12s@." "intensity" "scheme"
    "commit%" "aborts" "max/txn" "makespan";
  let sys = Workload.Gentx.dining_philosophers 5 in
  let schemes =
    [
      ("wait-die", Sim.Recovery.Wait_die);
      ("wound-wait", Sim.Recovery.Wound_wait);
      ("detect(5)", Sim.Recovery.Detect { period = 5.0 });
      ("timeout", Sim.Recovery.default_timeout);
    ]
  in
  List.iter
    (fun intensity ->
      let plan =
        Sim.Faults.random (rng 11) (System.db sys) ~intensity ~horizon:40.0
      in
      List.iter
        (fun (sname, scheme) ->
          let st = rng 12 in
          let stats = Sim.Recovery.batch ~scheme ~faults:plan st sys ~runs:100 in
          let commits =
            100.0
            *. float_of_int (stats.Sim.Recovery.runs - stats.Sim.Recovery.timeouts)
            /. float_of_int stats.Sim.Recovery.runs
          in
          Format.printf "  %-10.2f %-12s %-10.0f %-8d %-10d %-12.2f@." intensity
            sname commits stats.Sim.Recovery.total_aborts
            stats.Sim.Recovery.max_aborts_single_txn
            stats.Sim.Recovery.mean_makespan)
        schemes)
    [ 0.0; 0.2; 0.4; 0.6; 0.8 ]

(* ------------------------------------------------------------------ *)
(* Read/write modes: readers-share speedup                             *)
(* ------------------------------------------------------------------ *)

let rw_modes () =
  header "E17 read/write modes: catalog-reader workload, rw vs exclusive";
  Format.printf "  %-6s %-18s %-18s %-10s@." "k" "exclusive makespan"
    "rw makespan" "speedup";
  List.iter
    (fun k ->
      let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
      let db = Model.Db.one_site_per_entity names in
      let catalog = Model.Db.find_entity_exn db "catalog" in
      let mk i =
        let row = Model.Db.find_entity_exn db ("row" ^ string_of_int i) in
        match
          Rw.Rw_txn.of_total_order db
            [
              { Rw.Rw_txn.entity = catalog; op = Rw.Rw_txn.Lock Rw.Rw_txn.Read };
              { Rw.Rw_txn.entity = row; op = Rw.Rw_txn.Lock Rw.Rw_txn.Write };
              { Rw.Rw_txn.entity = catalog; op = Rw.Rw_txn.Unlock };
              { Rw.Rw_txn.entity = row; op = Rw.Rw_txn.Unlock };
            ]
        with
        | Ok t -> t
        | Error _ -> assert false
      in
      let rw_sys = Rw.Rw_system.create (List.init k mk) in
      let excl_sys = Rw.Rw_system.to_exclusive rw_sys in
      let st = rng 10 in
      let excl = Sim.Runtime.batch st excl_sys ~runs:100 in
      let st = rng 10 in
      let rwb = Rw.Rw_runtime.batch st rw_sys ~runs:100 in
      Format.printf "  %-6d %-18.2f %-18.2f %-10.2fx@." k
        excl.Sim.Runtime.mean_makespan rwb.Rw.Rw_runtime.mean_makespan
        (excl.Sim.Runtime.mean_makespan /. rwb.Rw.Rw_runtime.mean_makespan))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Observability overhead: telemetry on vs off on the same search      *)
(* ------------------------------------------------------------------ *)

let obs () =
  header "E21 observability overhead: telemetry on vs off";
  let workloads =
    [
      ("philosophers k=5", Workload.Gentx.dining_philosophers 5);
      ("philosophers k=6", Workload.Gentx.dining_philosophers 6);
      ("2 copies of 5-ring", System.copies (Workload.Gentx.guard_ring 5) 2);
    ]
  in
  let series =
    List.map
      (fun (name, sys) ->
        let fields, line =
          overhead ~repeat:1 (fun () -> ignore (Sched.Explore.explore sys))
        in
        Format.printf "  %-22s ms %s@." name line;
        Obj (("workload", Str name) :: fields))
      workloads
  in
  write_json "obs" [ ("series", Arr series) ]

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: orbit-quotient state counts vs copies           *)
(* ------------------------------------------------------------------ *)

let sym () =
  header "E22 symmetry reduction: states visited, plain vs orbit quotient";
  (* Copies of a guard ring are the worst case the paper's counterexample
     figures are built from, and the best case for symmetry: the whole
     automorphism group is the symmetric group on the copies, so the
     quotient approaches raw/c! as the copies stop interacting. *)
  let workloads =
    List.map
      (fun c -> (Printf.sprintf "%d copies of 3-ring" c, System.copies (Workload.Gentx.guard_ring 3) c, c))
      [ 2; 3; 4 ]
    @ List.map
        (fun c -> (Printf.sprintf "%d copies of 2-ring" c, System.copies (Workload.Gentx.guard_ring 2) c, c))
        [ 2; 3; 4; 5; 6 ]
    (* Philosophers have pairwise-distinct transactions: the group is
       trivial and --symmetry must degrade to a no-op (factor 1.0). *)
    @ [ ("philosophers k=4 (no-op)", Workload.Gentx.dining_philosophers 4, 1) ]
  in
  Format.printf "  %-26s %-8s %-10s %-10s %-8s %-18s %-18s@." "workload"
    "copies" "raw" "reduced" "factor" "raw (ms)" "sym (ms)";
  let series =
    List.map
      (fun (name, sys, copies) ->
        let raw, raw_t = explore_timed sys in
        let reduced, sym_t = explore_timed ~symmetry:true sys in
        let orbit = Sched.Canon.orbit_size (Sched.Canon.detect sys) in
        assert (reduced <= raw && raw <= reduced * orbit);
        let factor = float_of_int raw /. float_of_int reduced in
        Format.printf "  %-26s %-8d %-10d %-10d %-8.2f %-18s %-18s@." name
          copies raw reduced factor (pp_timing raw_t) (pp_timing sym_t);
        Obj
          ([
             ("workload", Str name);
             ("copies", Int copies);
             ("orbit", Int orbit);
             ("raw_states", Int raw);
             ("sym_states", Int reduced);
             ("factor", Num factor);
           ]
          @ timed "raw_ms" raw_t @ timed "sym_ms" sym_t))
      workloads
  in
  write_json "sym" [ ("series", Arr series) ]

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: persistent-set state counts               *)
(* ------------------------------------------------------------------ *)

let por () =
  header
    "E24 partial-order reduction: states visited, plain vs persistent sets";
  (* Asymmetric workloads are where POR earns its keep: philosophers are
     pairwise distinct (trivial automorphism group, so --symmetry is a
     no-op, factor 1.0 in BENCH_sym.json) yet almost all interleavings
     of far-apart philosophers commute.  Single guard-ring transactions
     have wide diamonds and no copies at all.  The copies workload shows
     the reduction composing with a nontrivial group. *)
  let workloads =
    List.map
      (fun k ->
        ( Printf.sprintf "philosophers k=%d" k,
          Workload.Gentx.dining_philosophers k ))
      [ 4; 5; 6 ]
    @ [
        ("single 6-ring txn", System.create [ Workload.Gentx.guard_ring 6 ]);
        ("single 8-ring txn", System.create [ Workload.Gentx.guard_ring 8 ]);
        ("2 copies of 4-ring", System.copies (Workload.Gentx.guard_ring 4) 2);
      ]
  in
  Format.printf "  %-22s %-10s %-10s %-8s %-10s %-18s %-18s@." "workload"
    "plain" "reduced" "factor" "sym-fact" "plain (ms)" "por (ms)";
  let series =
    List.map
      (fun (name, sys) ->
        let plain, plain_t = explore_timed sys in
        let reduced, por_t = explore_timed ~por:true sys in
        let sym_states =
          Sched.Explore.state_count (Sched.Explore.explore ~symmetry:true sys)
        in
        assert (reduced <= plain);
        assert (
          Sched.Explore.deadlock_free ~por:true sys
          = Sched.Explore.deadlock_free sys);
        let factor = float_of_int plain /. float_of_int reduced in
        let sym_factor = float_of_int plain /. float_of_int sym_states in
        Format.printf "  %-22s %-10d %-10d %-8.2f %-10.2f %-18s %-18s@." name
          plain reduced factor sym_factor (pp_timing plain_t) (pp_timing por_t);
        Obj
          ([
             ("workload", Str name);
             ("plain_states", Int plain);
             ("por_states", Int reduced);
             ("factor", Num factor);
             ("sym_factor", Num sym_factor);
           ]
          @ timed "plain_ms" plain_t @ timed "por_ms" por_t))
      workloads
  in
  write_json "por" [ ("series", Arr series) ]

(* ------------------------------------------------------------------ *)
(* Analysis daemon: served latency and verdict-cache collapse          *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  header "E23 analysis daemon: served latency, cache collapse, zipf workload";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddlock-bench-%d.sock" (Unix.getpid ()))
  in
  let t =
    Ddlock_serve.Server.start
      { (Ddlock_serve.Server.default_config ~socket_path:socket) with
        Ddlock_serve.Server.cache_cap = 256 }
  in
  Fun.protect
    ~finally:(fun () ->
      Ddlock_serve.Server.request_stop t;
      Ddlock_serve.Server.wait t)
  @@ fun () ->
  (* The reply's cache=hit|miss header token and the served latency. *)
  let analyze source =
    match time_ms (fun () -> Ddlock_serve.Client.analyze_ex ~socket source) with
    | Ok (Ddlock_serve.Client.Verdict _, { cached = Some c; _ }), ms -> (c, ms)
    | _ -> failwith "bench serve: daemon did not return a verdict"
  in
  let source_of db txns =
    Model.Parser.to_source db
      (List.mapi (fun i txn -> (Printf.sprintf "T%d" (i + 1), txn)) txns)
  in
  let system_source sys =
    source_of (System.db sys) (Array.to_list (System.txns sys))
  in
  (* K-copies workload: many clients submitting permuted renderings of
     the same few copies-of-a-ring systems.  Canon.system_key collapses
     the permutations, so everything after the first sighting of each
     shape must be a cache hit (the floor is a 90% hit rate). *)
  let st = rng 23 in
  let bases =
    [
      System.copies (Workload.Gentx.guard_ring 3) 2;
      System.copies (Workload.Gentx.guard_ring 3) 3;
      System.copies (Workload.Gentx.guard_ring 4) 2;
    ]
  in
  let shapes = List.length bases in
  (* Shuffle which copy gets which name: a different source text with
     the same structural key. *)
  let permuted_source sys =
    let txns = Array.copy (System.txns sys) in
    for i = Array.length txns - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = txns.(i) in
      txns.(i) <- txns.(j);
      txns.(j) <- tmp
    done;
    source_of (System.db sys) (Array.to_list txns)
  in
  let requests = 48 in
  let stream =
    List.init requests (fun i ->
        analyze (permuted_source (List.nth bases (i mod shapes))))
  in
  let latencies hit =
    List.filter_map (fun (c, ms) -> if c = hit then Some ms else None) stream
  in
  let cached = summarize (latencies true)
  and cold = summarize (latencies false) in
  let hits = List.length (latencies true) in
  let misses = requests - hits in
  let hit_rate = float_of_int hits /. float_of_int requests in
  Format.printf
    "  k-copies stream: %d requests over %d shapes: %d hits / %d misses \
     (%.0f%% hit rate)@."
    requests shapes hits misses (100.0 *. hit_rate);
  Format.printf "  served latency (ms): %s cold, %s cached@." (pp_timing cold)
    (pp_timing cached);
  assert (hit_rate >= 0.9);
  (* Zipf hotspot workload: fresh systems (all cache misses) across the
     contention spectrum, uniform to heavily skewed.  One request each:
     a repeat would be a cache hit. *)
  let zipf_rows =
    List.map
      (fun theta ->
        let sys =
          Workload.Gentx.zipf_system st ~sites:2 ~entities:5 ~txns:4 ~theta
        in
        let _, ms = analyze (system_source sys) in
        Format.printf "  zipf theta=%-4.1f served in %.2f ms@." theta ms;
        Obj [ ("theta", Num theta); ("ms", Num ms) ])
      [ 0.0; 0.8; 1.5 ]
  in
  (* Tracing overhead on the served path: the same cached request with
     the Obs switch off vs on.  With tracing on every request records a
     span tree and retires it into the rings, so this measures the whole
     per-request observability cost (budget: <= 5%).  Ten requests per
     timed trial keep each sample well above the clock's jitter. *)
  let overhead_src = system_source (List.hd bases) in
  let overhead_fields, line =
    overhead ~repeat:10 (fun () -> ignore (analyze overhead_src))
  in
  Format.printf "  tracing overhead (cached request), ms %s@." line;
  (* Saturation sweep: fresh systems (all cache misses) offered at an
     increasing open-loop rate until the bounded admission queue starts
     rejecting.  Sources are pre-generated so the submitter threads only
     pace and send. *)
  let saturation_point rate =
    let window = 0.6 in
    let n = max 1 (int_of_float (float_of_int rate *. window)) in
    let sources =
      Array.init n (fun _ ->
          system_source
            (Workload.Gentx.zipf_system st ~sites:2 ~entities:6 ~txns:5
               ~theta:0.8))
    in
    let results = Array.make n `Failed in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun () ->
              Thread.delay (float_of_int i /. float_of_int rate);
              results.(i) <-
                (match
                   time_ms (fun () ->
                       Ddlock_serve.Client.analyze ~socket sources.(i))
                 with
                | Ok (Ddlock_serve.Client.Verdict _), ms -> `Ok ms
                | Ok (Ddlock_serve.Client.Busy _), _ -> `Busy
                | _ -> `Failed))
            ())
    in
    let (), elapsed_ms = time_ms (fun () -> List.iter Thread.join threads) in
    let oks =
      Array.to_list results
      |> List.filter_map (function `Ok ms -> Some ms | _ -> None)
    in
    let busy =
      Array.fold_left (fun acc r -> if r = `Busy then acc + 1 else acc) 0 results
    in
    let served_rps = float_of_int (List.length oks) /. (elapsed_ms /. 1000.0)
    and busy_rate = float_of_int busy /. float_of_int n
    and p50 = percentile 0.5 oks and p99 = percentile 0.99 oks in
    Format.printf "  %-14d %-14.1f %-10.2f %-10.2f %-10.2f@." rate served_rps
      busy_rate p50 p99;
    ( busy_rate,
      Obj
        [
          ("offered_rps", Int rate);
          ("requests", Int n);
          ("served_rps", Num served_rps);
          ("busy_rate", Num busy_rate);
          ("p50_ms", Num p50);
          ("p99_ms", Num p99);
        ] )
  in
  Format.printf "  %-14s %-14s %-10s %-10s %-10s@." "offered req/s"
    "served req/s" "busy" "p50 ms" "p99 ms";
  let saturation_rows =
    let rec sweep acc = function
      | [] -> List.rev acc
      | rate :: rest ->
          let busy_rate, row = saturation_point rate in
          (* Past busy onset the queue is already the bottleneck; higher
             offered rates only add rejected requests. *)
          if busy_rate > 0.2 then List.rev (row :: acc)
          else sweep (row :: acc) rest
    in
    sweep [] [ 25; 50; 100; 200; 400 ]
  in
  write_json "serve"
    [
      ( "kcopies",
        Obj
          ([
             ("requests", Int requests);
             ("shapes", Int shapes);
             ("hits", Int hits);
             ("misses", Int misses);
             ("hit_rate", Num hit_rate);
           ]
          @ timed "cold_ms" cold @ timed "cached_ms" cached) );
      ("zipf", Arr zipf_rows);
      ("tracing_overhead", Obj overhead_fields);
      ("saturation", Arr saturation_rows);
    ]

(* ------------------------------------------------------------------ *)
(* Scenario matrix: schemes x workload families x fault intensity      *)
(* ------------------------------------------------------------------ *)

let matrix () =
  header "E27 scenario matrix: 5 schemes x 4 families x fault intensity";
  (* Runs per (family, scheme, intensity) cell; DDLOCK_MATRIX_RUNS
     shrinks it for the cram/CI smoke sweeps. *)
  let runs =
    match Sys.getenv_opt "DDLOCK_MATRIX_RUNS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ ->
            Format.eprintf "bench: bad DDLOCK_MATRIX_RUNS %S@." s;
            exit 2)
    | None -> 30
  in
  let horizon = 40.0 in
  let intensities = [ 0.0; 0.4; 0.8 ] in
  (* A finite commit budget (vs the near-unbounded chaos default) so a
     scheme that thrashes under faults shows up as commit-rate loss
     rather than an ever-longer run. *)
  let config =
    { Sim.Recovery.default_config with Sim.Recovery.max_time = 240.0 }
  in
  let families =
    [
      ("ring", System.copies (Workload.Gentx.guard_ring 3) 2);
      ("tpcc", Workload.Gentx.tpcc_system (rng 271) ~warehouses:2 ~txns:4 ~theta:1.2);
      ( "partial-replication",
        let rep =
          Workload.Gentx.replicated_db ~sites:3 ~entities:4 ~replication:2
        in
        Workload.Gentx.replicated_system (rng 272) rep ~txns:3
          ~entities_per_txn:2 );
      ( "zipf-hotspot",
        Workload.Gentx.zipf_system (rng 273) ~sites:2 ~entities:4 ~txns:4
          ~theta:1.2 );
    ]
  in
  let schemes = Sim.Chaos.default_schemes in
  let violations_total = ref 0 in
  Format.printf "  %-20s %-14s %-10s %-8s %-8s %-8s %-8s@." "family" "scheme"
    "intensity" "commit" "aborts" "p50" "p99";
  let cell fi (fname, sys) si (sname, scheme) ii intensity =
    let commits = ref 0 and aborts = ref 0 and timeouts = ref 0 in
    let makespans = ref [] in
    for seed = 0 to runs - 1 do
      (* The fault plan is keyed by (family, intensity, seed) only, so
         all five schemes face the same plans head-to-head; the
         simulator rng is per-scheme. *)
      let plan_rng = Random.State.make [| 0x3a7c; fi; ii; seed |] in
      let plan =
        Sim.Faults.random plan_rng (System.db sys) ~intensity ~horizon
      in
      let sim_rng = Random.State.make [| 0x3a7d; fi; si; ii; seed |] in
      let r = Sim.Recovery.run ~scheme ~config ~faults:plan sim_rng sys in
      let stats = r.Sim.Recovery.stats in
      commits := !commits + stats.Sim.Recovery.commits;
      aborts := !aborts + stats.Sim.Recovery.aborts;
      if stats.Sim.Recovery.timed_out then incr timeouts
      else begin
        makespans := stats.Sim.Recovery.makespan :: !makespans;
        (* Legality/mutex/serializability on every committed trace;
           timeouts are commit-rate data, not violations, under the
           finite budget. *)
        violations_total :=
          !violations_total + List.length (Sim.Chaos.check_run sys r)
      end
    done;
    let offered = float_of_int (runs * System.size sys) in
    let commit_rate = float_of_int !commits /. offered in
    let abort_rate = float_of_int !aborts /. offered in
    let samples = List.length !makespans in
    let mean_makespan =
      if samples = 0 then 0.0
      else List.fold_left ( +. ) 0.0 !makespans /. float_of_int samples
    in
    let p50 = percentile 0.5 !makespans and p99 = percentile 0.99 !makespans in
    Format.printf "  %-20s %-14s %-10.1f %-8.2f %-8.2f %-8.1f %-8.1f@." fname
      sname intensity commit_rate abort_rate p50 p99;
    Obj
      [
        ("scheme", Str sname);
        ("intensity", Num intensity);
        ("runs", Int runs);
        ("commit_rate", Num commit_rate);
        ("abort_rate", Num abort_rate);
        ("timeout_rate", Num (float_of_int !timeouts /. float_of_int runs));
        ("mean_makespan", Num mean_makespan);
        ("samples", Int samples);
        ("p50_makespan", Num p50);
        ("p99_makespan", Num p99);
      ]
  in
  let family_rows =
    List.mapi
      (fun fi ((fname, sys) as family) ->
        let cells =
          List.concat
            (List.mapi
               (fun si scheme ->
                 List.mapi (cell fi family si scheme) intensities)
               schemes)
        in
        Obj
          [
            ("family", Str fname);
            ("txns", Int (System.size sys));
            ("cells", Arr cells);
          ])
      families
  in
  if !violations_total > 0 then begin
    Format.eprintf "bench: %d invariant violations in the matrix sweep@."
      !violations_total;
    exit 1
  end;
  write_json "matrix"
    ~detail:
      (Printf.sprintf ", %d cells, 0 violations"
         (List.length families * List.length schemes * List.length intensities))
    [
      ("runs_per_cell", Int runs);
      ("horizon", Num horizon);
      ("max_time", Num config.Sim.Recovery.max_time);
      ("schemes", Arr (List.map (fun (n, _) -> Str n) schemes));
      ("intensities", Arr (List.map (fun i -> Num i) intensities));
      ("families", Arr family_rows);
      ("violations", Int !violations_total);
    ]

let () =
  let sections =
    [
      ("micro", micro);
      ("theorem4", theorem4);
      ("exhaustive", exhaustive);
      ("crossover", crossover);
      ("sim", sim);
      ("recovery", recovery);
      ("faults", faults);
      ("sm", sm_fixed);
      ("rw", rw_modes);
      ("obs", obs);
      ("sym", sym);
      ("por", por);
      ("serve", serve_bench);
      ("matrix", matrix);
    ]
  in
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown section %S (have: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested;
  Format.printf "@.done.@."
