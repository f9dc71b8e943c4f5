(* Differential conformance battery for partial-order reduction: the
   static independence predicate of Sched.Indep must be sound w.r.t.
   the dynamic commutation oracle on every enabled pair of every
   reachable state, and every observable of the persistent/sleep-set
   reduced engines (?por threaded through Explore / Par_explore /
   Prefix_search / Analysis / Minimize) must agree with the plain
   ground truth — verdicts, canonicalized witnesses, state-count upper
   bounds, sound cap accounting — across jobs ∈ {1,4} and symmetry ∈
   {on,off}. *)

open Ddlock_model
open Ddlock_schedule
module Par = Ddlock_par.Par_explore
module Prefix_search = Ddlock_deadlock.Prefix_search
module Reduction = Ddlock_deadlock.Reduction
module Gentx = Ddlock_workload.Gentx

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let fig2ish () = System.copies (Gentx.guard_ring 4) 2
let phil3 () = Gentx.dining_philosophers 3

let opposed_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "b"; "a" ];
    ]

let eight_state_sys () =
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  System.create [ t; Builder.two_phase_chain db [ "a" ] ]

let fixtures () = [ fig2ish (); phil3 (); opposed_pair (); eight_state_sys () ]

let witness_valid sys (sched, stf) =
  Schedule.is_legal sys sched
  && State.equal (Schedule.prefix_vector sys sched) stf
  && State.is_deadlock sys stf

(* Distinct reachable states sampled along one random run. *)
let states_of_run st sys =
  let steps =
    match Explore.random_run st sys with
    | Explore.Completed s | Explore.Deadlocked (s, _) -> s
  in
  let sts, _ =
    List.fold_left
      (fun (acc, cur) step ->
        let nxt = State.apply cur step in
        (nxt :: acc, nxt))
      ([ State.initial sys ], State.initial sys)
      steps
  in
  sts

(* ------------------------------------------------------------------ *)
(* Unit: Indep static predicate, exhaustively on the fixtures          *)
(* ------------------------------------------------------------------ *)

(* Satellite contract: over EVERY reachable state and EVERY enabled
   pair, the static predicate must never claim "independent" for a
   pair the dynamic oracle rejects (no false positives), and must be
   irreflexive and symmetric. *)
let test_indep_sound_exhaustive () =
  List.iter
    (fun sys ->
      Seq.iter
        (fun st ->
          let en = State.enabled sys st in
          List.iter
            (fun s ->
              List.iter
                (fun t ->
                  check bool_t "symmetric" (Indep.independent sys s t)
                    (Indep.independent sys t s);
                  if Step.equal s t then
                    check bool_t "irreflexive" false (Indep.independent sys s t)
                  else if Indep.independent sys s t then
                    check bool_t "static independent ⇒ dynamic commutes" true
                      (Indep.commutes sys st s t))
                en)
            en)
        (Explore.states (Explore.explore sys)))
    (fixtures ())

let test_persistent_props () =
  List.iter
    (fun sys ->
      Seq.iter
        (fun st ->
          let en = State.enabled sys st in
          let p = Indep.persistent sys st in
          check bool_t "persistent ⊆ enabled" true
            (List.for_all (fun s -> List.mem s en) p);
          check bool_t "persistent nonempty iff enabled nonempty"
            (en <> []) (p <> []);
          check bool_t "persistent has no duplicates" true
            (List.length (List.sort_uniq Step.compare p) = List.length p))
        (Explore.states (Explore.explore sys)))
    (fixtures ())

let test_has_independent_pair () =
  check bool_t "philosophers have independent steps" true
    (Indep.has_independent_pair (phil3 ()));
  check bool_t "opposed chains have independent steps" true
    (Indep.has_independent_pair (opposed_pair ()));
  (* Two copies of [L a < U a]: every cross-transaction pair shares the
     one entity, every same-transaction pair is order-comparable. *)
  check bool_t "single-entity copies have none" false
    (Indep.has_independent_pair (eight_state_sys ()))

let test_sleep_covered () =
  let sys = phil3 () in
  let en =
    List.sort Step.compare (State.enabled sys (State.initial sys))
  in
  let s0, s1 =
    match en with a :: b :: _ -> (a, b) | _ -> assert false
  in
  check bool_t "empty stored is covered" true
    (Indep.sleep_covered ~stored:[] ~incoming:[ s0 ] = `Covered);
  check bool_t "subset stored is covered" true
    (Indep.sleep_covered ~stored:[ s0 ] ~incoming:[ s0; s1 ] = `Covered);
  check bool_t "non-subset shrinks to the intersection" true
    (Indep.sleep_covered ~stored:[ s0; s1 ] ~incoming:[ s1 ]
    = `Shrink [ s1 ]);
  check bool_t "disjoint shrinks to empty" true
    (Indep.sleep_covered ~stored:[ s0 ] ~incoming:[ s1 ] = `Shrink [])

(* Reduced counts on the fixtures: never more states than plain, same
   deadlock verdict, and a genuine cut where independence exists. *)
let test_fixture_counts () =
  List.iter
    (fun sys ->
      let plain = Explore.state_count (Explore.explore sys) in
      let reduced = Explore.state_count (Explore.explore ~por:true sys) in
      check bool_t "reduced ≤ plain" true (reduced <= plain);
      check bool_t "verdict preserved"
        (Explore.deadlock_free sys)
        (Explore.deadlock_free ~por:true sys))
    (fixtures ());
  let sys = phil3 () in
  check bool_t "philosophers: strictly fewer states" true
    (Explore.state_count (Explore.explore ~por:true sys)
    < Explore.state_count (Explore.explore sys))

let test_fixture_witnesses_canonical () =
  List.iter
    (fun sys ->
      let plain = Explore.find_deadlock sys in
      check bool_t "find_deadlock ~por byte-identical" true
        (Explore.find_deadlock ~por:true sys = plain);
      check bool_t "find_deadlock ~por ~symmetry byte-identical" true
        (Explore.find_deadlock ~por:true ~symmetry:true sys = plain);
      check bool_t "par find_deadlock ~por jobs=4 byte-identical" true
        (Par.find_deadlock ~por:true ~jobs:4 sys = plain))
    (fixtures ())

(* ------------------------------------------------------------------ *)
(* QCheck: the differential battery on random systems                  *)
(* ------------------------------------------------------------------ *)

let copies_arg = QCheck.(triple (int_bound 1_000_000) (int_range 2 3) bool)

let indep_sound_prop =
  QCheck.Test.make
    ~name:"Indep.independent sound w.r.t. Indep.commutes (random)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      List.for_all
        (fun cur ->
          let en = State.enabled sys cur in
          List.for_all
            (fun s ->
              List.for_all
                (fun t ->
                  Indep.independent sys s t = Indep.independent sys t s
                  && (not (Step.equal s t) || not (Indep.independent sys s t))
                  && ((not (Indep.independent sys s t))
                     || Indep.commutes sys cur s t))
                en)
            en)
        (states_of_run st sys))

let por_verdict_witness_prop =
  QCheck.Test.make
    ~name:"por verdict+witness ≡ plain across jobs × symmetry" ~count:40
    copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let plain = Explore.find_deadlock sys in
      (match plain with None -> true | Some w -> witness_valid sys w)
      && Explore.find_deadlock ~por:true sys = plain
      && Explore.find_deadlock ~por:true ~symmetry:true sys = plain
      && Par.find_deadlock ~por:true ~jobs:1 sys = plain
      && Par.find_deadlock ~por:true ~jobs:4 sys = plain
      && Par.find_deadlock ~por:true ~symmetry:true ~jobs:4 sys = plain
      && Explore.deadlock_free ~por:true sys = (plain = None)
      && Par.deadlock_free ~por:true ~jobs:4 sys = (plain = None))

let por_state_bound_prop =
  QCheck.Test.make
    ~name:"reduced state count ≤ plain (with and without symmetry)"
    ~count:40 copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let plain = Explore.state_count (Explore.explore sys) in
      let reduced = Explore.state_count (Explore.explore ~por:true sys) in
      let plain_sym =
        Explore.state_count (Explore.explore ~symmetry:true sys)
      in
      let reduced_sym =
        Explore.state_count (Explore.explore ~symmetry:true ~por:true sys)
      in
      reduced <= plain && reduced_sym <= plain_sym && reduced_sym <= reduced)

let por_par_seq_prop =
  (* jobs = 1 is the sequential reduced search itself (same states in
     the same order).  The work-stealing engine's reduced set depends on
     arrival order, but it is always a sound reduction: reachable
     states only, no more than plain, every reachable deadlock kept. *)
  QCheck.Test.make
    ~name:"par por: exact at jobs=1, sound reduction keeping every deadlock at any jobs"
    ~count:30
    QCheck.(pair copies_arg (int_range 1 4))
    (fun ((seed, copies, extra), jobs) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let keys sts = List.of_seq (Seq.map Fixtures.state_key sts) in
      let agree symmetry =
        let plain = Explore.explore ~symmetry sys in
        let seq = Explore.explore ~symmetry ~por:true sys in
        let par = Par.explore ~symmetry ~por:true ~jobs sys in
        if jobs = 1 then keys (Par.states par) = keys (Explore.states seq)
        else
          Par.state_count par <= Explore.state_count plain
          && Seq.for_all (Explore.is_reachable plain) (Par.states par)
          && Seq.for_all
               (fun st -> (not (State.is_deadlock sys st)) || Par.is_reachable par st)
               (Explore.states plain)
      in
      agree false && agree true
      && Par.find_deadlock ~por:true ~jobs sys
         = Explore.find_deadlock ~por:true sys)

let por_cap_outcome_prop =
  (* Under a small cap the engines may split between a witness and a
     give-up (their reduced orders differ), but they never contradict
     each other, a witness is always the canonical one or a valid raw
     one, and a give-up always reports the budget. *)
  QCheck.Test.make
    ~name:"por cap outcome sound across jobs (verdicts agree, Too_large = cap)"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 in
      let probe f =
        match f () with
        | Some w -> `Witness w
        | None -> `Deadlock_free
        | exception Explore.Too_large n -> `Too_large n
      in
      let consistent symmetry =
        let seq =
          probe (fun () -> Explore.find_deadlock ~max_states ~symmetry ~por:true sys)
        and par =
          probe (fun () ->
              Par.find_deadlock ~max_states ~symmetry ~por:true ~jobs sys)
        in
        let sound = function
          | `Witness w -> witness_valid sys w
          | `Deadlock_free -> true
          | `Too_large n -> n = max_states
        in
        sound seq && sound par
        &&
        match (seq, par) with
        | `Witness a, `Witness b -> a = b
        | `Deadlock_free, `Witness _ | `Witness _, `Deadlock_free -> false
        | _ -> true
      in
      consistent false && consistent true)

let por_obs_counters_prop =
  (* The reduced searches' counters depend on the engine: jobs = 1 runs
     the sequential search itself, so its totals are identical; at any
     jobs a reduced exploration stores no more states than plain. *)
  QCheck.Test.make
    ~name:"por counters: jobs=1 ≡ sequential, states_visited ≤ plain at any jobs"
    ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let counters_after f =
        Ddlock_obs.Metrics.reset ();
        ignore (f ());
        ( Ddlock_obs.Metrics.counter_value "explore.states_visited",
          Ddlock_obs.Metrics.counter_value "por.pruned",
          Ddlock_obs.Metrics.counter_value "por.persistent_size" )
      in
      Ddlock_obs.Control.on ();
      let seq =
        counters_after (fun () -> ignore (Explore.explore ~por:true sys))
      in
      let par =
        counters_after (fun () -> ignore (Par.explore ~por:true ~jobs sys))
      in
      let plain, _, _ =
        counters_after (fun () -> ignore (Explore.explore sys))
      in
      Ddlock_obs.Control.off ();
      Ddlock_obs.Metrics.reset ();
      let visited, _, _ = par in
      (jobs > 1 || seq = par) && visited <= plain)

let por_prefix_search_prop =
  QCheck.Test.make
    ~name:"prefix search: por verdict ≡ plain, witness valid, all ⊆ plain"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let plain = Prefix_search.find sys in
      let reduced = Prefix_search.find ~por:true sys in
      Option.is_none plain = Option.is_none reduced
      && (match reduced with
         | None -> true
         | Some w ->
             Schedule.is_legal sys w.Prefix_search.schedule
             && State.equal
                  (Schedule.prefix_vector sys w.Prefix_search.schedule)
                  w.Prefix_search.prefix
             && Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix))
      && Prefix_search.find ~por:true ~jobs:4 sys = reduced
      && Prefix_search.deadlock_free ~por:true sys
         = Prefix_search.deadlock_free sys
      &&
      let keys f =
        List.sort_uniq compare (List.map Fixtures.state_key (List.of_seq (f ())))
      in
      let plain_all = keys (fun () -> Prefix_search.all sys) in
      let por_all = keys (fun () -> Prefix_search.all ~por:true sys) in
      List.for_all (fun k -> List.mem k plain_all) por_all
      && (plain_all = []) = (por_all = []))

let por_analysis_minimize_prop =
  QCheck.Test.make
    ~name:"Analysis bytes and Minimize core ≡ under por" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let plain = Ddlock.Analysis.render_full sys in
      Ddlock.Analysis.render_full ~por:true sys = plain
      && Ddlock.Analysis.render_full ~por:true ~symmetry:true ~jobs:4 sys
         = plain
      &&
      match
        ( Ddlock.Minimize.deadlock_core sys,
          Ddlock.Minimize.deadlock_core ~por:true sys )
      with
      | None, None -> true
      | Some a, Some b ->
          a.Ddlock.Minimize.kept_txns = b.Ddlock.Minimize.kept_txns
          && a.Ddlock.Minimize.dropped_entities
             = b.Ddlock.Minimize.dropped_entities
      | _ -> false)

let qtests =
  List.map Fixtures.to_alcotest
    [
      indep_sound_prop;
      por_verdict_witness_prop;
      por_state_bound_prop;
      por_par_seq_prop;
      por_cap_outcome_prop;
      por_obs_counters_prop;
      por_prefix_search_prop;
      por_analysis_minimize_prop;
    ]

let suite =
  [
    Alcotest.test_case "Indep sound on all reachable enabled pairs" `Quick
      test_indep_sound_exhaustive;
    Alcotest.test_case "persistent sets well-formed" `Quick
      test_persistent_props;
    Alcotest.test_case "independent-pair detector" `Quick
      test_has_independent_pair;
    Alcotest.test_case "sleep-set covering rule" `Quick test_sleep_covered;
    Alcotest.test_case "reduced counts on fixtures" `Quick test_fixture_counts;
    Alcotest.test_case "canonicalized witnesses on fixtures" `Quick
      test_fixture_witnesses_canonical;
  ]
  @ qtests
