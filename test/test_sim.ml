open Ddlock_model
open Ddlock_schedule
open Ddlock_sim

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

(* Pops the least entry as [pop] did: its key, then its value. *)
let pqueue_pop q =
  if Pqueue.is_empty q then None
  else
    let k = Pqueue.min_key q in
    Some (k, Pqueue.take q)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check int_t "size" 3 (Pqueue.size q);
  check (Alcotest.float 0.0) "peek" 1.0 (Pqueue.min_key q);
  let order = List.init 3 (fun _ -> snd (Option.get (pqueue_pop q))) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c" ] order;
  check bool_t "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (pqueue_pop q))) in
  check (Alcotest.list Alcotest.string) "fifo" [ "first"; "second"; "third" ] order

let pqueue_sorted_prop =
  QCheck.Test.make ~name:"pqueue pops in key order" ~count:200
    QCheck.(small_list (pair (float_bound_inclusive 100.0) small_nat))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.push q k v) items;
      let rec drain acc =
        match pqueue_pop q with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let keys = drain [] in
      keys = List.sort compare keys)

(* Interleaved pushes and takes, keys from a small domain so that ties
   are common: every take must return the entry a stable sort of the
   current contents puts first (least key, earliest push among equal
   keys), which is the FIFO tie rule the golden digests rely on.  [None]
   is a take, [Some k] a push of key [k]. *)
let pqueue_stable_prop =
  QCheck.Test.make ~name:"pqueue = stable sort under interleaved push and take"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 120) (option (int_bound 4)))
    (fun ops ->
      let q = Pqueue.create () in
      (* The queue's contents as (key, push number), in push order. *)
      let contents = ref [] and pushed = ref 0 in
      let take_matches () =
        match List.stable_sort (fun (a, _) (b, _) -> compare a b) !contents with
        | [] -> Pqueue.is_empty q
        | (k, v) :: _ ->
            contents := List.filter (fun (_, v') -> v' <> v) !contents;
            let k' = Pqueue.min_key q in
            k' = float_of_int k && Pqueue.take q = v
      in
      let rec drain () = !contents = [] || (take_matches () && drain ()) in
      List.for_all
        (function
          | Some k ->
              Pqueue.push q (float_of_int k) !pushed;
              contents := !contents @ [ (k, !pushed) ];
              incr pushed;
              Pqueue.size q = List.length !contents
          | None -> take_matches ())
        ops
      && drain ()
      && Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* The event loop's shortcuts against the scans they replace           *)
(* ------------------------------------------------------------------ *)

module Bitset = Ddlock_graph.Bitset

(* Random walks of one random transaction as the loop drives it: start
   the minimal nodes, complete a random started node, and now and then
   abort (forget everything) and restart.  After each completion the
   nodes [iter_ready_after] starts must be the reference scan's
   [minimal_remaining ∖ started], in the same order. *)
let readiness_prop =
  QCheck.Test.make
    ~name:"iter_ready_after = minimal_remaining ∖ started after each completion"
    ~count:300
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:3 ~entities:6 in
      let k = 1 + Random.State.int st 6 in
      let tx =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:(Ddlock_workload.Gentx.random_entity_subset st db ~k)
          ~density:(Random.State.float st 1.0)
      in
      let nodes = Transaction.node_count tx in
      let executed = ref (Transaction.empty_prefix tx)
      and started = ref (Transaction.empty_prefix tx) in
      let restart () =
        executed := Transaction.empty_prefix tx;
        started := Transaction.empty_prefix tx;
        List.iter (Bitset.set !started)
          (Transaction.minimal_remaining tx !executed)
      in
      restart ();
      let ok = ref true in
      for _ = 1 to 80 do
        let in_flight =
          List.filter
            (fun v -> not (Bitset.mem !executed v))
            (Bitset.to_list !started)
        in
        if in_flight = [] || Random.State.int st 10 = 0 then restart ()
        else begin
          let v =
            List.nth in_flight (Random.State.int st (List.length in_flight))
          in
          Bitset.set !executed v;
          let expected =
            List.filter
              (fun u -> not (Bitset.mem !started u))
              (Transaction.minimal_remaining tx !executed)
          in
          let got = ref [] in
          Recovery.iter_ready_after tx ~executed:!executed ~started:!started v
            (fun u ->
              got := u :: !got;
              Bitset.set !started u);
          if List.rev !got <> expected then ok := false;
          if Bitset.cardinal !executed = nodes then restart ()
        end
      done;
      !ok)

(* Detect's victim on random wait-for relations (repeated arcs and self
   loops included), against the construction it replaced: the largest
   node on [Topo.find_cycle] of the relation's [Digraph].  [n] runs past
   62, one machine word of transactions.  Each matrix is filled twice,
   with a [clear] between, as successive ticks do. *)
let detect_victim_prop =
  QCheck.Test.make ~name:"Detect victim = max of Topo.find_cycle" ~count:400
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let n = 1 + Random.State.int st 70 in
      let waits = Recovery.Wait_for.create n in
      let relation () =
        let m = Random.State.int st (2 * n) in
        List.init m (fun _ -> (Random.State.int st n, Random.State.int st n))
      in
      let reference arcs =
        match Ddlock_graph.Topo.find_cycle (Ddlock_graph.Digraph.create n arcs) with
        | None -> None
        | Some cycle -> Some (List.fold_left max (List.hd cycle) cycle)
      in
      List.for_all
        (fun arcs ->
          Recovery.Wait_for.clear waits;
          List.iter (fun (w, h) -> Recovery.Wait_for.add waits w h) arcs;
          Recovery.Wait_for.victim waits = reference arcs)
        [ relation (); relation () ])

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let safe_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "a"; "b" ];
    ]

let test_run_completes () =
  let sys = safe_pair () in
  let rng = Fixtures.rng 1 in
  for _ = 1 to 50 do
    let r = Runtime.run rng sys in
    (match r.Runtime.outcome with
    | Runtime.Finished { makespan } ->
        check bool_t "positive makespan" true (makespan > 0.0)
    | Runtime.Deadlock _ -> Alcotest.fail "safe pair cannot deadlock");
    let s = Runtime.schedule_of_run r in
    check bool_t "trace legal" true (Schedule.is_legal sys s);
    check bool_t "trace complete" true (Schedule.is_complete sys s);
    check bool_t "trace serializable" true (Dgraph.is_serializable sys s)
  done

let test_philosophers_deadlock_observed () =
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let rng = Fixtures.rng 2 in
  let saw = ref false in
  for _ = 1 to 300 do
    if not !saw then
      match (Runtime.run rng sys).Runtime.outcome with
      | Runtime.Deadlock { waits_for; cycle; _ } ->
          saw := true;
          check bool_t "wait-for arcs present" true (waits_for <> []);
          check bool_t "cycle present" true (cycle <> []);
          (* Every wait-for arc must point at a real holder. *)
          List.iter
            (fun (w, _, h) ->
              check bool_t "w != h" true (w <> h))
            waits_for
      | Runtime.Finished _ -> ()
  done;
  check bool_t "deadlock observed" true !saw

let test_batch () =
  let rng = Fixtures.rng 3 in
  let stats = Runtime.batch rng (safe_pair ()) ~runs:40 in
  check int_t "runs" 40 stats.Runtime.runs;
  check int_t "no deadlocks" 0 stats.Runtime.deadlocks;
  check int_t "all serializable" 0 stats.Runtime.non_serializable;
  check bool_t "makespan finite" true (Float.is_finite stats.Runtime.mean_makespan);
  let stats = Runtime.batch rng (Ddlock_workload.Gentx.dining_philosophers 4) ~runs:200 in
  check bool_t "philosophers deadlock sometimes" true (stats.Runtime.deadlocks > 0)

(* E11 validation: a system certified safe∧DF by Theorem 4 never
   deadlocks nor produces a non-serializable trace under the simulator. *)
let certified_systems_clean_prop =
  QCheck.Test.make
    ~name:"simulator never refutes a Theorem-4 safe∧DF certificate"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      QCheck.assume (Ddlock_safety.Many.safe_and_deadlock_free sys);
      let stats = Runtime.batch st sys ~runs:20 in
      stats.Runtime.deadlocks = 0 && stats.Runtime.non_serializable = 0)

(* Conversely the simulator's traces are always legal schedules. *)
let trace_legal_prop =
  QCheck.Test.make ~name:"simulator traces are legal schedules" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let r = Runtime.run st sys in
      let s = Runtime.schedule_of_run r in
      Schedule.is_legal sys s
      &&
      match r.Runtime.outcome with
      | Runtime.Finished _ -> Schedule.is_complete sys s
      | Runtime.Deadlock { cycle; _ } ->
          (* Runtime deadlock states are deadlock states of the model. *)
          cycle <> []
          && State.is_deadlock sys (Schedule.to_state sys s))

(* ------------------------------------------------------------------ *)
(* Recovery schemes (wound-wait / wait-die / detect-and-abort)          *)
(* ------------------------------------------------------------------ *)

let schemes =
  [
    ("wait-die", Recovery.Wait_die);
    ("wound-wait", Recovery.Wound_wait);
    ("detect", Recovery.Detect { period = 5.0 });
    ("probabilistic", Recovery.Probabilistic);
  ]

let test_recovery_resolves_philosophers () =
  (* Under the plain runtime the philosophers deadlock; every recovery
     scheme must always drive them to completion, with legal serializable
     committed traces. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 4 in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 21 in
      let stats = Recovery.batch ~scheme rng sys ~runs:60 in
      check int_t (name ^ ": no timeouts") 0 stats.Recovery.timeouts;
      check int_t (name ^ ": traces legal") 0 stats.Recovery.illegal_traces;
      check int_t
        (name ^ ": traces serializable")
        0 stats.Recovery.non_serializable_traces)
    schemes

let test_recovery_aborts_happen () =
  (* On a contended deadlocking workload the schemes must actually abort
     sometimes (otherwise they are not being exercised). *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 4 in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 22 in
      let stats = Recovery.batch ~scheme rng sys ~runs:60 in
      check bool_t (name ^ ": some aborts") true (stats.Recovery.total_aborts > 0))
    schemes

let test_recovery_no_aborts_when_safe () =
  (* Wait-die may die spuriously on plain contention; wound-wait wounds
     only on conflict, detect aborts only on real cycles.  On a
     conflict-free system (disjoint entities) no scheme should abort. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let sys =
    System.create
      [
        Builder.two_phase_chain db [ "a" ];
        Builder.two_phase_chain db [ "b" ];
        Builder.two_phase_chain db [ "c" ];
      ]
  in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 23 in
      let stats = Recovery.batch ~scheme rng sys ~runs:30 in
      check int_t (name ^ ": zero aborts") 0 stats.Recovery.total_aborts;
      check int_t (name ^ ": zero timeouts") 0 stats.Recovery.timeouts)
    schemes

let test_detect_only_aborts_on_cycles () =
  (* Ordered 2PL chains contend heavily but never deadlock: the detector
     must never fire. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let sys =
    System.create
      (List.init 4 (fun _ -> Builder.two_phase_chain db [ "a"; "b"; "c" ]))
  in
  let rng = Fixtures.rng 24 in
  let stats =
    Recovery.batch ~scheme:(Recovery.Detect { period = 2.0 }) rng sys ~runs:40
  in
  check int_t "no aborts" 0 stats.Recovery.total_aborts;
  check int_t "no timeouts" 0 stats.Recovery.timeouts

(* ------------------------------------------------------------------ *)
(* Probabilistic scheme (random priorities, O&B arXiv:1010.4411)        *)
(* ------------------------------------------------------------------ *)

let test_probabilistic_no_deadlock () =
  (* Wait arcs ascend the random-priority order, so no run may ever get
     stuck — even on workloads that reliably deadlock without a scheme
     and under heavy ring contention. *)
  List.iter
    (fun sys ->
      let rng = Fixtures.rng 31 in
      let stats = Recovery.batch ~scheme:Recovery.Probabilistic rng sys ~runs:80 in
      check int_t "no timeouts" 0 stats.Recovery.timeouts;
      check int_t "traces legal" 0 stats.Recovery.illegal_traces;
      check int_t "traces serializable" 0 stats.Recovery.non_serializable_traces)
    [
      Ddlock_workload.Gentx.dining_philosophers 5;
      System.copies (Ddlock_workload.Gentx.guard_ring 4) 2;
    ]

let test_probabilistic_bounded_starvation () =
  (* Redraw-on-abort: no single transaction may be wounded unboundedly
     often.  80 contended runs with a generous per-transaction ceiling —
     a starving scheme blows through it (wound-wait's fixed-priority
     analogue with inverted priorities would). *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 5 in
  let rng = Fixtures.rng 32 in
  let stats = Recovery.batch ~scheme:Recovery.Probabilistic rng sys ~runs:80 in
  check bool_t "some aborts (scheme exercised)" true
    (stats.Recovery.total_aborts > 0);
  check bool_t
    (Printf.sprintf "per-txn aborts bounded (max %d)"
       stats.Recovery.max_aborts_single_txn)
    true
    (stats.Recovery.max_aborts_single_txn <= 12)

(* ------------------------------------------------------------------ *)
(* Zipfian hotspot generator                                           *)
(* ------------------------------------------------------------------ *)

let zipf_well_formed_prop =
  QCheck.Test.make ~name:"zipf_system generates valid hotspot systems"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sites = 1 + Random.State.int st 3 in
      let entities = 2 + Random.State.int st 4 in
      let txns = 1 + Random.State.int st 4 in
      let theta = Random.State.float st 2.0 in
      let sys =
        Ddlock_workload.Gentx.zipf_system st ~sites ~entities ~txns ~theta
      in
      (* Construction already validates via Transaction.make_exn; check
         the advertised shape on top. *)
      System.size sys = txns
      && Db.entity_count (System.db sys) = entities
      && Db.site_count (System.db sys) = sites
      && Array.for_all
           (fun t -> List.length (Transaction.entities t) = 2)
           (System.txns sys))

let test_zipf_skews_hot_entities () =
  (* At theta = 1.5 entity e0 must be touched far more often than the
     tail entity; at theta = 0 the draw is uniform.  Count over many
     systems with a fixed seed. *)
  let count_uses ~theta =
    let st = Fixtures.rng 33 in
    let uses = Array.make 8 0 in
    for _ = 1 to 60 do
      let sys =
        Ddlock_workload.Gentx.zipf_system st ~sites:2 ~entities:8 ~txns:3
          ~theta
      in
      Array.iter
        (fun t ->
          List.iter (fun e -> uses.(e) <- uses.(e) + 1) (Transaction.entities t))
        (System.txns sys)
    done;
    uses
  in
  let hot = count_uses ~theta:1.5 in
  check bool_t
    (Printf.sprintf "theta=1.5 skews to e0 (%d vs %d)" hot.(0) hot.(7))
    true
    (hot.(0) > 3 * hot.(7))

let recovery_always_commits_prop =
  QCheck.Test.make
    ~name:"recovery schemes always commit random deadlocking systems"
    ~count:30
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      List.for_all
        (fun (_, scheme) ->
          let r = Recovery.run ~scheme st sys in
          (not r.Recovery.stats.Recovery.timed_out)
          && r.Recovery.stats.Recovery.commits = System.size sys
          && Schedule.is_complete sys r.Recovery.committed_trace)
        schemes)

(* ------------------------------------------------------------------ *)
(* Scenario-matrix chaos: seeded metamorphic sweep over the TPC-C and  *)
(* partial-replication scenarios across all five schemes               *)
(* ------------------------------------------------------------------ *)

let matrix_scenarios () =
  [
    {
      Chaos.label = "tpcc";
      system =
        Ddlock_workload.Gentx.tpcc_system
          (Fixtures.rng 0x7cc1)
          ~warehouses:2 ~txns:4 ~theta:1.2;
    };
    {
      Chaos.label = "partial-replication";
      system =
        (let rep =
           Ddlock_workload.Gentx.replicated_db ~sites:3 ~entities:4
             ~replication:2
         in
         Ddlock_workload.Gentx.replicated_system
           (Fixtures.rng 0x9e9c)
           rep ~txns:3 ~entities_per_txn:2);
    };
  ]

let test_matrix_scenarios_chaos_clean () =
  (* 2 scenarios x (5 schemes + 1 runtime probe) x 40 seeds, full fault
     intensity envelope: liveness, legality, mutual exclusion and
     serializability must survive every plan. *)
  let r =
    Chaos.sweep ~seeds:40 ~schemes:Chaos.default_schemes
      ~cases:(matrix_scenarios ()) 0x3a70
  in
  check int_t "runs" (2 * 6 * 40) r.Chaos.runs;
  List.iter
    (fun (seed, where, _) ->
      Alcotest.failf "matrix chaos violation in %s at seed %d" where seed)
    r.Chaos.violations;
  check int_t "all clean" r.Chaos.runs r.Chaos.clean_runs;
  (* Metamorphic: the sweep is a pure function of the base seed. *)
  let r' =
    Chaos.sweep ~seeds:40 ~schemes:Chaos.default_schemes
      ~cases:(matrix_scenarios ()) 0x3a70
  in
  check int_t "reproducible aborts" r.Chaos.total_aborts r'.Chaos.total_aborts;
  check (Alcotest.float 1e-9) "reproducible makespan" r.Chaos.mean_makespan
    r'.Chaos.mean_makespan

let matrix_zero_intensity_prop =
  (* Metamorphic: a random fault plan at intensity 0 is the empty plan —
     every scheme's run on the new scenarios is bit-identical to the
     fault-free run from the same simulator seed. *)
  QCheck.Test.make
    ~name:"matrix scenarios: intensity-0 plans behave like no faults"
    ~count:30
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      List.for_all
        (fun { Chaos.system = sys; _ } ->
          let plan =
            Faults.random (Fixtures.rng seed) (System.db sys) ~intensity:0.0
              ~horizon:40.0
          in
          List.for_all
            (fun (_, scheme) ->
              let faulted =
                Recovery.run ~scheme ~faults:plan (Fixtures.rng (seed + 1)) sys
              in
              let plain =
                Recovery.run ~scheme ~faults:Faults.none
                  (Fixtures.rng (seed + 1))
                  sys
              in
              faulted.Recovery.stats = plain.Recovery.stats
              && faulted.Recovery.committed_trace
                 = plain.Recovery.committed_trace)
            Chaos.default_schemes)
        (matrix_scenarios ()))

(* ------------------------------------------------------------------ *)
(* Golden digest                                                       *)
(* ------------------------------------------------------------------ *)

(* One digest over everything the simulator decides: Runtime traces and
   deadlock reports, and Recovery stats, per-transaction aborts and
   committed traces under all five schemes.  Inputs are philosophers,
   guard-ring copies and seeded random systems, each run fault-free and
   under a random plan that always holds at least one early crash window.
   Floats are hashed exactly ([%h]).  Runtime's [Finished.makespan] and
   Recovery's [stuck_waits] are left out: both were redefined after the
   digest was recorded. *)
let golden_digest = "8665e3668336a6a8c45f43d20bb40cfd"

let golden_systems () =
  let module G = Ddlock_workload.Gentx in
  [
    G.dining_philosophers 3;
    G.dining_philosophers 5;
    System.copies (G.guard_ring 3) 2;
    System.copies (G.guard_ring 4) 2;
  ]
  @ List.init 4 (fun i ->
        Fixtures.small_random_system (Fixtures.rng (100 + i)) ~txns:3)

let simulator_digest () =
  let b = Buffer.create (1 lsl 16) in
  let crashy si seed sys =
    let st = Fixtures.rng ((1000 * si) + seed) in
    let db = System.db sys in
    let p = Faults.random st db ~intensity:0.8 ~horizon:40.0 in
    let from_t = Random.State.float st 10.0 in
    let site = Random.State.int st (Db.site_count db) in
    let w = { Faults.site; from_t; until_t = from_t +. 3.0 } in
    { p with Faults.crashes = w :: p.Faults.crashes }
  in
  List.iteri
    (fun si sys ->
      for seed = 0 to 149 do
        List.iter
          (fun plan ->
            let r = Runtime.run ~faults:plan (Fixtures.rng seed) sys in
            List.iter
              (fun { Runtime.time; step } ->
                Printf.bprintf b "%h:%d.%d " time step.Step.txn step.Step.node)
              r.Runtime.trace;
            (match r.Runtime.outcome with
            | Runtime.Finished _ -> Buffer.add_string b "F\n"
            | Runtime.Deadlock { time; waits_for; cycle } ->
                Printf.bprintf b "D %h" time;
                List.iter
                  (fun (w, e, h) -> Printf.bprintf b " %d>%d>%d" w e h)
                  waits_for;
                List.iter (Printf.bprintf b " c%d") cycle;
                Buffer.add_char b '\n');
            List.iter
              (fun (_, scheme) ->
                let r =
                  Recovery.run ~scheme ~faults:plan (Fixtures.rng seed) sys
                in
                let s = r.Recovery.stats in
                Printf.bprintf b "%d %d %h %b |" s.Recovery.commits
                  s.Recovery.aborts s.Recovery.makespan s.Recovery.timed_out;
                Array.iter (Printf.bprintf b " %d") r.Recovery.aborts_by_txn;
                List.iter
                  (fun (s : Step.t) -> Printf.bprintf b " %d.%d" s.txn s.node)
                  r.Recovery.committed_trace;
                Buffer.add_char b '\n')
              Chaos.default_schemes)
          [ Faults.none; crashy si seed sys ]
      done)
    (golden_systems ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_digest () =
  check Alcotest.string "simulator digest" golden_digest (simulator_digest ())

(* A duplicated lock request may reach its manager after the last
   completion; the makespan must still be the last completion's time. *)
let test_makespan_is_last_completion () =
  let finished = ref 0 in
  List.iteri
    (fun si sys ->
      for seed = 0 to 99 do
        let faults =
          {
            Faults.none with
            Faults.dup = 0.9;
            loss = 0.3;
            horizon = 1000.0;
            seed = (1000 * si) + seed;
          }
        in
        let r = Runtime.run ~faults (Fixtures.rng seed) sys in
        match r.Runtime.outcome with
        | Runtime.Deadlock _ -> ()
        | Runtime.Finished { makespan } ->
            incr finished;
            let last = List.hd (List.rev r.Runtime.trace) in
            check (Alcotest.float 0.0) "makespan = last trace entry"
              last.Runtime.time makespan
      done)
    (golden_systems ());
  check bool_t "some runs finished" true (!finished > 100)

(* Runs cut off by [max_time] leave waiters behind; every reported arc
   names an entity that both the waiter and the holder lock. *)
let test_stuck_waits_name_entities () =
  let config = { Recovery.default_config with Recovery.max_time = 6.0 } in
  let arcs = ref 0 in
  List.iter
    (fun sys ->
      let locks i e = List.mem e (Transaction.entities (System.txn sys i)) in
      for seed = 0 to 39 do
        List.iter
          (fun (name, scheme) ->
            let r = Recovery.run ~scheme ~config (Fixtures.rng seed) sys in
            List.iter
              (fun (w, e, h) ->
                incr arcs;
                check bool_t (name ^ ": waiter locks it") true (locks w e);
                check bool_t (name ^ ": holder locks it") true (locks h e))
              r.Recovery.stuck_waits)
          Chaos.default_schemes
      done)
    (golden_systems ());
  check bool_t "stuck arcs exercised" true (!arcs > 100)

let qtests =
  List.map Fixtures.to_alcotest
    [
      pqueue_sorted_prop;
      pqueue_stable_prop;
      readiness_prop;
      detect_victim_prop;
      certified_systems_clean_prop;
      trace_legal_prop;
      recovery_always_commits_prop;
      zipf_well_formed_prop;
      matrix_zero_intensity_prop;
    ]

let suite =
  [
    Alcotest.test_case "pqueue order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "runs complete" `Quick test_run_completes;
    Alcotest.test_case "philosophers deadlock observed" `Quick
      test_philosophers_deadlock_observed;
    Alcotest.test_case "batch stats" `Quick test_batch;
    Alcotest.test_case "recovery resolves philosophers" `Quick
      test_recovery_resolves_philosophers;
    Alcotest.test_case "recovery aborts happen" `Quick
      test_recovery_aborts_happen;
    Alcotest.test_case "recovery quiet when conflict-free" `Quick
      test_recovery_no_aborts_when_safe;
    Alcotest.test_case "detect fires only on cycles" `Quick
      test_detect_only_aborts_on_cycles;
    Alcotest.test_case "probabilistic never deadlocks" `Quick
      test_probabilistic_no_deadlock;
    Alcotest.test_case "probabilistic bounded starvation" `Quick
      test_probabilistic_bounded_starvation;
    Alcotest.test_case "zipf skews hot entities" `Quick
      test_zipf_skews_hot_entities;
    Alcotest.test_case "matrix scenarios survive chaos sweep" `Quick
      test_matrix_scenarios_chaos_clean;
    Alcotest.test_case "golden simulator digest" `Quick test_golden_digest;
    Alcotest.test_case "makespan is the last completion" `Quick
      test_makespan_is_last_completion;
    Alcotest.test_case "stuck waits name their entity" `Quick
      test_stuck_waits_name_entities;
  ]
  @ qtests
