(* Differential soak tester: run the polynomial deciders against the
   exhaustive ground truth on endless random systems, printing any
   disagreement with its seed (none are known).

     dune exec bin/fuzz.exe -- [--rounds N] [--seed S] [--txns K]

   Checks per round:
   - Theorem 3 and the O(n³) minimal-prefix decider vs the exhaustive
     Lemma-1 search (pairs);
   - certificates: every Lemma-1 counterexample (pairs and k-transaction
     systems) is a legal partial schedule whose D(S′) has the reported
     cycle, and every unsafe schedule of a (non-two-phase) rw system is
     complete and not conflict-serializable;
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
   - the textual format: [Parser.parse (Parser.to_source sys)] gives
     back every transaction of the round's systems ([Transaction.equal]),
     through [Builder]'s node numbering and the printed Hasse diagram;
     eight mutants of those sources (truncated, bytes flipped, a piece
     of one spliced into another) each parse or are refused without an
     exception, and one that parses prints back to source that parses
     to the same transactions;
   - rw invariants: exclusive-abstraction deadlock-freedom implies rw
     deadlock-freedom (2 transactions), and the all-Write version of
     the rw system runs exactly like its exclusive abstraction (trace,
     outcome, deadlock time and arcs, makespan; with and without a
     random fault plan);
   - with [--symmetry]: the orbit-canonicalized engines (Sched.Canon)
     vs the plain ones — identical deadlock verdicts and witnesses on
     both generic and identical-copy systems, canonical state counts
     within [raw/orbit_size, raw], and Theorem-1 prefix verdicts;
   - with [--por]: the persistent-set reduced engines vs the plain
     ones — byte-identical deadlock witnesses, reduced state counts
     never above plain, Theorem-1 prefix verdicts, and composition
     with --symmetry on copies systems.

   The every-100-rounds summary line also reports cumulative per-engine
   wall-clock, so long soaks double as a coarse perf regression check.
*)

open Ddlock
module System = Model.System

let () =
  let rounds = ref 500 and seed = ref 1 and txns = ref 3 in
  let symmetry = ref false in
  let por = ref false in
  let args =
    [
      ("--rounds", Arg.Set_int rounds, "number of rounds (default 500)");
      ("--seed", Arg.Set_int seed, "base seed (default 1)");
      ("--txns", Arg.Set_int txns, "transactions per system (default 3)");
      ( "--symmetry",
        Arg.Set symmetry,
        "also cross-check the symmetry-reduced engines against the plain \
         ones every round" );
      ( "--por",
        Arg.Set por,
        "also cross-check the persistent-set reduced engines against \
         the plain ones every round" );
    ]
  in
  Arg.parse args (fun _ -> ()) "fuzz [options]";
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
  (* [cycle] is a cycle of [g]: each node has an arc to the next, the
     last to the first. *)
  let is_cycle g cycle =
    let rec arcs = function
      | x :: (y :: _ as rest) -> Graph.Digraph.mem_edge g x y && arcs rest
      | _ -> true
    in
    match (cycle, List.rev cycle) with
    | first :: _, last :: _ -> arcs cycle && Graph.Digraph.mem_edge g last first
    | _ -> false
  in
  let lemma1_certified sys = function
    | Ok () -> true
    | Error { Sched.Explore.steps; cycle } ->
        Sched.Schedule.is_legal sys steps
        && is_cycle (Sched.Dgraph.graph sys steps) cycle
  in
  (* [steps] runs every transaction of the rw system to the end, each
     step enabled with Read locks shared. *)
  let rw_complete rsys steps =
    let rec go st = function
      | [] -> Rw.Rw_system.all_finished rsys st
      | s :: rest ->
          List.mem s (Rw.Rw_system.enabled rsys st)
          && go (Rw.Rw_system.apply st s) rest
    in
    go (Rw.Rw_system.initial rsys) steps
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
    let pair_cex =
      timed "seq" (fun () -> Sched.Explore.safe_and_deadlock_free pair_sys)
    in
    if not (lemma1_certified pair_sys pair_cex) then
      report "Lemma-1 certificate (pairs)" round;
    let exh = Result.is_ok pair_cex in
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
    let sys_cex =
      timed "seq" (fun () -> Sched.Explore.safe_and_deadlock_free sys)
    in
    if not (lemma1_certified sys sys_cex) then
      report "Lemma-1 certificate (k transactions)" round;
    let sys_safe_df = Result.is_ok sys_cex in
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
                  (Format.printf "  stuck: %a@."
                     (Sim.Recovery.pp_wait (System.db ssys)))
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
    (* --- the textual format round-trips --- *)
    let same_txns named named' =
      List.compare_lengths named named' = 0
      && List.for_all2
           (fun (n, t) (n', t') -> n = n' && Model.Transaction.equal t t')
           named named'
    in
    let sources =
      List.map
        (fun (shape, ssys) ->
          let named =
            List.mapi
              (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
              (Array.to_list (System.txns ssys))
          in
          let src = Model.Parser.to_source (System.db ssys) named in
          (match Model.Parser.parse src with
          | Ok r when same_txns named r.Model.Parser.named -> ()
          | Ok _ | Error _ ->
              report ("source round-trip (" ^ shape ^ ")") round);
          src)
        [
          ("pair", pair_sys);
          ("centralized", csys);
          ("system", sys);
          ("tpcc", tpcc_sys);
          ("replicated", rep_sys);
        ]
    in
    (* --- the parser on mutated sources: the daemon parses untrusted
       bodies, so a mutant parses or is refused, never raises, and what
       parses prints back to the same transactions.  It draws from a
       generator of its own, so the checks after it keep their draws
       for a given seed and round --- *)
    let mst = Random.State.make [| !seed; round; 1 |] in
    let pick l = List.nth l (Random.State.int mst (List.length l)) in
    for _ = 1 to 8 do
      let src = pick sources and other = pick sources in
      let cut s = Random.State.int mst (String.length s + 1) in
      let mutant =
        match Random.State.int mst 3 with
        | 0 -> String.sub src 0 (cut src)
        | 1 ->
            let b = Bytes.of_string src in
            for _ = 0 to Random.State.int mst 3 do
              if Bytes.length b > 0 then
                Bytes.set b
                  (Random.State.int mst (Bytes.length b))
                  (if Random.State.bool mst then
                     Char.chr (Random.State.int mst 256)
                   else String.get "{}<;# \nLUxyz" (Random.State.int mst 12))
            done;
            Bytes.to_string b
        | _ ->
            let i = cut src and j = cut other in
            let k = j + Random.State.int mst (String.length other - j + 1) in
            String.sub src 0 i ^ String.sub other j (k - j)
            ^ String.sub src i (String.length src - i)
      in
      match Model.Parser.parse mutant with
      | exception e ->
          Format.printf "  parser raised %s on %S@." (Printexc.to_string e)
            mutant;
          report "parser mutant" round
      | Error _ -> ()
      | Ok r -> (
          let named = r.Model.Parser.named in
          match
            Model.Parser.parse (Model.Parser.to_source r.Model.Parser.db named)
          with
          | Ok r' when same_txns named r'.Model.Parser.named -> ()
          | Ok _ | Error _ | (exception _) ->
              Format.printf "  mutant %S does not round-trip@." mutant;
              report "parser mutant round-trip" round)
    done;
    (* --- symmetry-reduced engines vs plain ground truth --- *)
    if !symmetry then begin
      timed "sym" @@ fun () ->
      (* Verdict AND witness are the plain ones: the orbit quotient
         decides, the plain search supplies the witness. *)
      if
        Sched.Explore.find_deadlock ~symmetry:true sys
        <> Sched.Explore.find_deadlock sys
      then report "sym find_deadlock" round;
      if
        Deadlock.Prefix_search.deadlock_free ~symmetry:true sys
        <> Deadlock.Prefix_search.deadlock_free sys
      then report "sym prefix verdict" round;
      (* Identical copies: counts bounded by the orbit size, same result. *)
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
        Sched.Explore.find_deadlock ~symmetry:true ksys
        <> Sched.Explore.find_deadlock ksys
      then report "sym copies find_deadlock" round;
    end;
    (* --- partial-order-reduced engines vs plain ground truth --- *)
    if !por then begin
      timed "por" @@ fun () ->
      (* Verdict AND witness are the plain ones: the reduced search
         decides, the plain search supplies the witness. *)
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
         system: the witness is still the plain one. *)
      let copies = 2 + (round mod 2) in
      let ksys = Workload.Gentx.random_copies_system st ~copies in
      if
        Sched.Explore.find_deadlock ~por:true ~symmetry:true ksys
        <> Sched.Explore.find_deadlock ksys
      then report "por+sym verdict" round;
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
    (* Locks in the subset's order, each Unlock anywhere after its Lock
       (last locked first): not two-phase in general, so the system may
       be unsafe. *)
    let rw_unordered () =
      let ents =
        Workload.Gentx.random_entity_subset st rwdb
          ~k:(2 + Random.State.int st 2)
      in
      let rec go pending held acc =
        match (pending, held) with
        | e :: rest, _ when held = [] || Random.State.bool st ->
            let m =
              if Random.State.bool st then Rw.Rw_txn.Read else Rw.Rw_txn.Write
            in
            go rest (e :: held)
              ({ Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Lock m } :: acc)
        | _, e :: hs ->
            go pending hs
              ({ Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Unlock } :: acc)
        | _ -> List.rev acc
      in
      match Rw.Rw_txn.of_total_order rwdb (go ents [] []) with
      | Ok t -> t
      | Error _ -> assert false
    in
    let usys =
      Rw.Rw_system.create
        (List.init (2 + Random.State.int st 2) (fun _ -> rw_unordered ()))
    in
    (match Rw.Rw_system.safe usys with
    | Ok () -> ()
    | Error steps ->
        if
          (not (rw_complete usys steps))
          || Rw.Rw_system.is_conflict_serializable usys steps
        then report "rw safety certificate" round);
    (* The all-Write version of [rwsys] runs exactly like its exclusive
       abstraction, with and without faults: one event loop serves both,
       with shared locks and without. *)
    let all_write t =
      Rw.Rw_txn.make_exn rwdb
        (Array.init (Rw.Rw_txn.node_count t) (fun i ->
             match Rw.Rw_txn.node t i with
             | { Rw.Rw_txn.op = Rw.Rw_txn.Lock _; entity } ->
                 { Rw.Rw_txn.entity; op = Rw.Rw_txn.Lock Rw.Rw_txn.Write }
             | nd -> nd))
        (Graph.Digraph.edges (Rw.Rw_txn.arcs t))
    in
    let wsys =
      Rw.Rw_system.create
        (List.map all_write (Array.to_list (Rw.Rw_system.txns rwsys)))
    in
    let faulty = Sim.Faults.random st rwdb ~intensity:0.8 ~horizon:40.0 in
    List.iter
      (fun faults ->
        let a = Rw.Rw_runtime.run ~faults (Random.State.copy st) wsys
        and x =
          Sim.Runtime.run ~faults (Random.State.copy st)
            (Rw.Rw_system.to_exclusive wsys)
        in
        let same_outcome =
          match (a.Rw.Rw_runtime.outcome, x.Sim.Runtime.outcome) with
          | ( Rw.Rw_runtime.Finished { makespan = m },
              Sim.Runtime.Finished { makespan } ) ->
              m = makespan
          | ( Rw.Rw_runtime.Deadlock { time = t; waits_for = w },
              Sim.Runtime.Deadlock { time; waits_for; _ } ) ->
              t = time && w = waits_for
          | _ -> false
        in
        if
          a.Rw.Rw_runtime.trace <> Sim.Runtime.schedule_of_run x
          || not same_outcome
        then report "rw all-Write runtime = exclusive runtime" round)
      [ Sim.Faults.none; faulty ];
    if round mod 100 = 0 then
      Format.printf "round %d/%d: %d disagreements [%s]@." round !rounds
        !failures (timer_summary ())
  done;
  Format.printf "done: %d rounds, %d disagreements@." !rounds !failures;
  exit (if !failures = 0 then 0 else 1)
