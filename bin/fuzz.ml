(* Differential soak tester: run the polynomial deciders against the
   exhaustive ground truth on endless random systems, printing any
   disagreement with its seed (none are known).

     dune exec bin/fuzz.exe -- [--rounds N] [--seed S] [--txns K]

   Checks per round:
   - Theorem 3 and the O(n³) minimal-prefix decider vs the exhaustive
     Lemma-1 search (pairs);
   - the [LP]/[SW] geometric deciders vs the exhaustive safety and
     deadlock searches (centralized pairs);
   - Theorem 4 vs exhaustive (k-transaction systems);
   - Theorem 1: deadlock-schedule search vs deadlock-prefix search;
   - Corollary 3 vs the pair test on two copies;
   - recovery-scheme invariants: wound-wait always commits with a legal
     committed trace, which is serializable whenever the system is safe
     (on unsafe systems non-serializable committed traces are expected);
   - chaos invariants: a random fault plan (site crashes, message
     loss/duplication, manager stalls) over wound-wait and the timeout
     scheme never breaks the committed-trace invariants of Sim.Chaos;
   - scenario-matrix shapes: small TPC-C-style and partial-replication
     systems (Workload.Gentx.tpcc_system / replicated_system) get the
     Theorem-4-vs-exhaustive cross-check and the chaos invariants under
     wound-wait and the probabilistic scheme every round;
   - rw invariants: exclusive-abstraction deadlock-freedom implies rw
     deadlock-freedom (2 transactions);
   - with [--jobs n], n > 1: the work-stealing engine
     (Par.Par_explore on 2..n domains) vs the sequential explorer —
     identical find_deadlock results (the witness of a positive verdict
     comes from the sequential engine), identical state counts and
     explore.states_visited totals on full explorations, identical
     Lemma-1 counterexamples, Theorem-1 prefix verdicts, and legality /
     endpoint / deadlock of the raw bfs witness via Schedule replay;
   - with [--symmetry]: the orbit-canonicalized engines (Sched.Canon)
     vs the plain ones — identical deadlock verdicts on both generic
     and identical-copy systems, witness legality, canonical state
     counts within [raw/orbit_size, raw], Theorem-1 prefix verdicts,
     and (under --jobs) par-vs-seq symmetric find_deadlock and state
     count equality;
   - with [--por]: the persistent/sleep-set reduced engines
     (Sched.Indep) vs the plain ones — byte-identical deadlock
     witnesses, reduced state counts never above plain, Theorem-1
     prefix verdicts, composition with --symmetry on copies systems,
     and (under --jobs) par-vs-plain witness equality and the
     reduced-count bound.  Counters of reduced searches depend on the
     engine and are not cross-checked.

   The every-100-rounds summary line also reports cumulative per-engine
   wall-clock, so long soaks double as a coarse perf regression check.
*)

open Ddlock
module System = Model.System

let () =
  let rounds = ref 500 and seed = ref 1 and txns = ref 3 and jobs = ref 1 in
  let symmetry = ref false in
  let por = ref false in
  let args =
    [
      ("--rounds", Arg.Set_int rounds, "number of rounds (default 500)");
      ("--seed", Arg.Set_int seed, "base seed (default 1)");
      ("--txns", Arg.Set_int txns, "transactions per system (default 3)");
      ( "--jobs",
        Arg.Set_int jobs,
        "also cross-check the work-stealing engine with 2..jobs domains \
         (default 1 = off)" );
      ( "--symmetry",
        Arg.Set symmetry,
        "also cross-check the symmetry-reduced engines against the plain \
         ones every round" );
      ( "--por",
        Arg.Set por,
        "also cross-check the persistent/sleep-set reduced engines against \
         the plain ones every round" );
    ]
  in
  Arg.parse args (fun _ -> ()) "fuzz [options]";
  if !jobs < 1 then begin
    prerr_endline "fuzz: --jobs must be >= 1";
    exit 2
  end;
  (* Cumulative wall-clock per engine family, reported every 100 rounds. *)
  let timers = Hashtbl.create 8 in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    Hashtbl.replace timers name
      ((try Hashtbl.find timers name with Not_found -> 0.) +. dt);
    r
  in
  let timer_summary () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) timers []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s %.2fs" k v)
    |> String.concat " "
  in
  let failures = ref 0 in
  let report name round =
    incr failures;
    Format.printf "DISAGREEMENT in %s at round %d (seed %d)@." name round !seed
  in
  for round = 1 to !rounds do
    let st = Random.State.make [| !seed; round |] in
    (* --- pairs --- *)
    let pair_sys = Workload.Gentx.small_random_pair st in
    let t1 = System.txn pair_sys 0 and t2 = System.txn pair_sys 1 in
    let exh =
      timed "seq" (fun () ->
          Result.is_ok (Sched.Explore.safe_and_deadlock_free pair_sys))
    in
    if Safety.Pair.safe_and_deadlock_free t1 t2 <> exh then
      report "Theorem 3" round;
    if Safety.Minimal_prefix.safe_and_deadlock_free t1 t2 <> exh then
      report "minimal-prefix" round;
    let df1, df2 = Deadlock.Theorem1.verdicts pair_sys in
    if df1 <> df2 then report "Theorem 1" round;
    if
      Safety.Copies.safe_and_deadlock_free t1
      <> Safety.Pair.safe_and_deadlock_free t1 t1
    then report "Corollary 3" round;
    (* --- centralized geometry --- *)
    let csys =
      Workload.Gentx.small_random_pair ~sites:1 ~entities:4 ~density:0.2 st
    in
    let c1 = System.txn csys 0 and c2 = System.txn csys 1 in
    if Safety.Geometry.deadlock_free c1 c2 <> Sched.Explore.deadlock_free csys
    then report "geometry deadlock" round;
    if Safety.Geometry.safe c1 c2 <> Result.is_ok (Sched.Explore.safe csys)
    then report "geometry safety" round;
    (* --- k transactions --- *)
    let sys = Workload.Gentx.small_random_system ~sites:2 ~entities:3 st ~txns:!txns in
    let sys_safe_df =
      timed "seq" (fun () ->
          Result.is_ok (Sched.Explore.safe_and_deadlock_free sys))
    in
    if Safety.Many.safe_and_deadlock_free sys <> sys_safe_df then
      report "Theorem 4" round;
    (* --- recovery invariants --- *)
    let r =
      timed "sim" (fun () ->
          Sim.Recovery.run ~scheme:Sim.Recovery.Wound_wait st sys)
    in
    if r.Sim.Recovery.stats.Sim.Recovery.timed_out then
      report "wound-wait timeout" round
    else if
      not (Sched.Schedule.is_complete sys r.Sim.Recovery.committed_trace)
    then report "wound-wait trace legality" round
    else if
      sys_safe_df
      && not (Sched.Dgraph.is_serializable sys r.Sim.Recovery.committed_trace)
    then report "wound-wait serializability" round;
    (* --- chaos invariants under a random fault plan --- *)
    let plan =
      Sim.Faults.random st (System.db sys)
        ~intensity:(Random.State.float st 0.8)
        ~horizon:30.0
    in
    List.iter
      (fun (sname, scheme) ->
        match Sim.Chaos.run_case ~scheme ~faults:plan st sys with
        | [], _ -> ()
        | vs, _ ->
            List.iter
              (fun v ->
                Format.printf "  %s: %a@." sname
                  (Sim.Chaos.pp_violation (System.db sys))
                  v)
              vs;
            report ("chaos/" ^ sname) round)
      [
        ("wound-wait", Sim.Recovery.Wound_wait);
        ("timeout", Sim.Recovery.default_timeout);
      ];
    (* --- scenario-matrix shapes: TPC-C and partial replication --- *)
    let tpcc_sys =
      Workload.Gentx.tpcc_system st
        ~warehouses:(1 + Random.State.int st 2)
        ~districts:2 ~items:3 ~customers:2
        ~items_per_order:(1 + Random.State.int st 2)
        ~txns:(2 + Random.State.int st 2)
        ~theta:(Random.State.float st 1.5)
    in
    let rep =
      Workload.Gentx.replicated_db
        ~sites:(2 + Random.State.int st 2)
        ~entities:(2 + Random.State.int st 2)
        ~replication:2
    in
    let rep_sys =
      Workload.Gentx.replicated_system st rep
        ~txns:(2 + Random.State.int st 2)
        ~entities_per_txn:(1 + Random.State.int st 2)
    in
    List.iter
      (fun (shape, ssys) ->
        (* 2PL chains keep the state spaces tiny, so the Theorem-4
           polynomial verdict is cross-checked exhaustively too. *)
        if
          Safety.Many.safe_and_deadlock_free ssys
          <> timed "seq" (fun () ->
                 Result.is_ok (Sched.Explore.safe_and_deadlock_free ssys))
        then report ("Theorem 4 (" ^ shape ^ ")") round;
        let splan =
          Sim.Faults.random st (System.db ssys)
            ~intensity:(Random.State.float st 0.8)
            ~horizon:30.0
        in
        List.iter
          (fun (sname, scheme) ->
            match Sim.Chaos.run_case ~scheme ~faults:splan st ssys with
            | [], _ -> ()
            | vs, r ->
                List.iter
                  (fun v ->
                    Format.printf "  %s: %a@." sname
                      (Sim.Chaos.pp_violation (System.db ssys))
                      v)
                  vs;
                List.iter
                  (fun (w, _, h) ->
                    Format.printf "  stuck: T%d waits on T%d@." (w + 1) (h + 1))
                  r.Sim.Recovery.stuck_waits;
                print_string
                  (Model.Parser.to_source (System.db ssys)
                     (List.mapi
                        (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
                        (Array.to_list (System.txns ssys))));
                report (Printf.sprintf "chaos/%s/%s" shape sname) round)
          [
            ("wound-wait", Sim.Recovery.Wound_wait);
            ("probabilistic", Sim.Recovery.Probabilistic);
          ])
      [ ("tpcc", tpcc_sys); ("replicated", rep_sys) ];
    (* --- work-stealing engine vs sequential ground truth --- *)
    if !jobs > 1 then begin
      timed "par" @@ fun () ->
      let j = 2 + (round mod (!jobs - 1)) in
      let plain = Sched.Explore.find_deadlock sys in
      if Par.Par_explore.find_deadlock ~jobs:j sys <> plain then
        report "par find_deadlock" round;
      if
        Par.Par_explore.state_count (Par.Par_explore.explore ~jobs:j sys)
        <> Sched.Explore.state_count (Sched.Explore.explore sys)
      then report "par state count" round;
      if
        Par.Par_explore.safe_and_deadlock_free ~jobs:j pair_sys
        <> Sched.Explore.safe_and_deadlock_free pair_sys
      then report "par lemma1" round;
      if
        Deadlock.Prefix_search.find ~jobs:j sys = None
        <> (Deadlock.Prefix_search.find sys = None)
      then report "par prefix search" round;
      (* The raw witness is whichever deadlock a worker reached first:
         not deterministic, but always a legal schedule whose replay
         ends in its deadlocked endpoint. *)
      (match
         Par.Par_explore.bfs ~jobs:j sys ~found:(Sched.State.is_deadlock sys)
       with
      | None -> if plain <> None then report "par bfs verdict" round
      | Some (sched, stf) ->
          if plain = None then report "par bfs verdict" round
          else if not (Sched.Schedule.is_legal sys sched) then
            report "par witness legality" round
          else if
            not (Sched.State.equal (Sched.Schedule.prefix_vector sys sched) stf)
          then report "par witness endpoint" round
          else if not (Sched.State.is_deadlock sys stf) then
            report "par witness deadlock" round);
      (* A full exploration without POR inserts exactly the reachable
         set, so its explore.states_visited total is the same on both
         engines; every other counter depends on the engine. *)
      let states_visited f =
        Obs.Control.on ();
        Obs.Metrics.reset ();
        ignore (f ());
        let n = Obs.Metrics.counter_value "explore.states_visited" in
        Obs.Control.off ();
        Obs.Metrics.reset ();
        n
      in
      if
        states_visited (fun () -> Sched.Explore.explore sys)
        <> states_visited (fun () -> Par.Par_explore.explore ~jobs:j sys)
      then report "obs states_visited" round
    end;
    (* --- symmetry-reduced engines vs plain ground truth --- *)
    if !symmetry then begin
      timed "sym" @@ fun () ->
      (* Generic k-transaction system: same verdict, legal witness. *)
      (match
         ( Sched.Explore.find_deadlock sys,
           Sched.Explore.find_deadlock ~symmetry:true sys )
       with
      | None, None -> ()
      | None, Some _ | Some _, None -> report "sym verdict" round
      | Some _, Some (sched, stf) ->
          if not (Sched.Schedule.is_legal sys sched) then
            report "sym witness legality" round
          else if not (Sched.State.equal (Sched.Schedule.prefix_vector sys sched) stf)
          then report "sym witness endpoint" round
          else if not (Sched.State.is_deadlock sys stf) then
            report "sym witness deadlock" round);
      if
        Deadlock.Prefix_search.deadlock_free ~symmetry:true sys
        <> Deadlock.Prefix_search.deadlock_free sys
      then report "sym prefix verdict" round;
      (* Identical copies: counts bounded by the orbit size, same verdict. *)
      let copies = 2 + (round mod 2) in
      let ksys = Workload.Gentx.random_copies_system st ~copies in
      let canon = Sched.Canon.detect ksys in
      let raw = Sched.Explore.state_count (Sched.Explore.explore ksys) in
      let reduced =
        Sched.Explore.state_count (Sched.Explore.explore ~symmetry:true ksys)
      in
      if reduced > raw || raw > reduced * Sched.Canon.orbit_size canon then
        report "sym state-count bound" round;
      if
        (Sched.Explore.find_deadlock ksys = None)
        <> (Sched.Explore.find_deadlock ~symmetry:true ksys = None)
      then report "sym copies verdict" round;
      if !jobs > 1 then begin
        let j = 2 + (round mod (!jobs - 1)) in
        if
          Par.Par_explore.find_deadlock ~symmetry:true ~jobs:j ksys
          <> Sched.Explore.find_deadlock ~symmetry:true ksys
        then report "sym par witness" round;
        if
          Par.Par_explore.state_count
            (Par.Par_explore.explore ~symmetry:true ~jobs:j ksys)
          <> reduced
        then report "sym par state count" round
      end
    end;
    (* --- partial-order-reduced engines vs plain ground truth --- *)
    if !por then begin
      timed "por" @@ fun () ->
      (* Verdict AND witness are byte-identical: the reduced search
         decides, a plain re-search canonicalizes the witness. *)
      let plain = Sched.Explore.find_deadlock sys in
      if Sched.Explore.find_deadlock ~por:true sys <> plain then
        report "por find_deadlock" round;
      if
        Sched.Explore.state_count (Sched.Explore.explore ~por:true sys)
        > Sched.Explore.state_count (Sched.Explore.explore sys)
      then report "por state-count bound" round;
      if
        Deadlock.Prefix_search.deadlock_free ~por:true sys
        <> Deadlock.Prefix_search.deadlock_free sys
      then report "por prefix verdict" round;
      (* Composition with the orbit quotient on an identical-copies
         system: the canonicalized witness is still the plain one. *)
      let copies = 2 + (round mod 2) in
      let ksys = Workload.Gentx.random_copies_system st ~copies in
      if
        Sched.Explore.find_deadlock ~por:true ~symmetry:true ksys
        <> Sched.Explore.find_deadlock ksys
      then report "por+sym verdict" round;
      if !jobs > 1 then begin
        let j = 2 + (round mod (!jobs - 1)) in
        if Par.Par_explore.find_deadlock ~por:true ~jobs:j sys <> plain then
          report "por par witness" round;
        if
          Par.Par_explore.state_count
            (Par.Par_explore.explore ~por:true ~jobs:j sys)
          > Sched.Explore.state_count (Sched.Explore.explore sys)
        then report "por par state-count bound" round
      end
    end;
    (* --- rw invariants --- *)
    let rwdb = Workload.Gentx.random_db ~sites:1 ~entities:3 in
    let rwmk () =
      let k = 1 + Random.State.int st 3 in
      let ents = Workload.Gentx.random_entity_subset st rwdb ~k in
      let nodes =
        List.map
          (fun e ->
            let m = if Random.State.bool st then Rw.Rw_txn.Read else Rw.Rw_txn.Write in
            { Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Lock m })
          ents
        @ List.map (fun e -> { Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Unlock }) ents
      in
      match Rw.Rw_txn.of_total_order rwdb nodes with
      | Ok t -> t
      | Error _ -> assert false
    in
    let rwsys = Rw.Rw_system.create [ rwmk (); rwmk () ] in
    if
      Sched.Explore.deadlock_free (Rw.Rw_system.to_exclusive rwsys)
      && not (Rw.Rw_system.deadlock_free rwsys)
    then report "rw abstraction soundness" round;
    if round mod 100 = 0 then
      Format.printf "round %d/%d: %d disagreements [%s]@." round !rounds
        !failures (timer_summary ())
  done;
  Format.printf "done: %d rounds, %d disagreements@." !rounds !failures;
  exit (if !failures = 0 then 0 else 1)
