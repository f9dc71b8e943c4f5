(* Differential conformance battery for partial-order reduction: the
   static independence predicate of Sched.Indep must be sound w.r.t.
   the dynamic commutation oracle on every enabled pair of every
   reachable state, so must the packed persistent sets, and every
   observable of the persistent-set reduced searches ([Explore.explore
   ~por], [Prefix_search.all ~por] and the reduced search that decides
   when the plain budget runs out) must agree with the plain ground
   truth — verdicts, state-count upper bounds, sound cap accounting —
   with symmetry on and off. *)

open Ddlock_model
open Ddlock_schedule
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

(* The persistent set {!Packed.persistent} cuts a state's enabled
   steps to, as steps in enabled order. *)
let persistent sys =
  let lay = Packed.layout sys in
  let r = Packed.por lay and en = Array.make (Packed.nodes lay) 0 in
  fun st ->
    let p = Packed.encode lay st and n = ref 0 in
    Packed.iter_enabled lay p 0 (fun g ->
        en.(!n) <- g;
        incr n);
    List.init (Packed.persistent r p 0 en !n) (fun i -> Packed.step lay en.(i))

(* The persistent sets of the decoded search the packed filter
   replaced: a stubborn closure over (txn, node) pairs in a hash table,
   seeded with each enabled step in turn, the first smallest kept. *)
let reference_persistent sys st =
  let closure_from (seed : Step.t) =
    let w = Hashtbl.create 16 and q = Queue.create () in
    let add i u =
      if not (Hashtbl.mem w (i, u)) then begin
        Hashtbl.replace w (i, u) ();
        Queue.push (i, u) q
      end
    in
    add seed.Step.txn seed.Step.node;
    while not (Queue.is_empty q) do
      let i, u = Queue.pop q in
      let tx = System.txn sys i in
      let nd = Transaction.node tx u in
      if not (Transaction.is_minimal_remaining tx st.(i) u) then begin
        let preds =
          List.filter
            (fun v ->
              Transaction.precedes tx v u
              && not (Ddlock_graph.Bitset.mem st.(i) v))
            (List.init (Transaction.node_count tx) Fun.id)
        in
        if not (List.exists (fun v -> Hashtbl.mem w (i, v)) preds) then
          add i (List.hd preds)
      end
      else
        match (nd.Node.op, State.holder sys st nd.Node.entity) with
        | Node.Lock, Some k when k <> i ->
            add k (Transaction.unlock_node_exn (System.txn sys k) nd.Node.entity)
        | _ ->
            for j = 0 to System.size sys - 1 do
              let txj = System.txn sys j in
              for v = 0 to Transaction.node_count txj - 1 do
                let ndj = Transaction.node txj v in
                if
                  j <> i
                  && (not (Ddlock_graph.Bitset.mem st.(j) v))
                  && ndj.Node.entity = nd.Node.entity
                  && not (nd.Node.op = Node.Unlock && ndj.Node.op = Node.Unlock)
                then add j v
              done
            done
    done;
    List.filter
      (fun (s : Step.t) -> Hashtbl.mem w (s.Step.txn, s.Step.node))
      (State.enabled sys st)
  in
  match State.enabled sys st with
  | ([] | [ _ ]) as en -> en
  | en ->
      List.fold_left
        (fun best seed ->
          let p = closure_from seed in
          if List.length p < List.length best then p else best)
        (closure_from (List.hd en))
        (List.tl en)

(* ------------------------------------------------------------------ *)
(* Unit: Indep static predicate and packed persistent sets,            *)
(* exhaustively on the fixtures                                        *)
(* ------------------------------------------------------------------ *)

(* Over EVERY reachable state and EVERY enabled pair, the static
   predicate must never claim "independent" for a pair the dynamic
   oracle rejects (no false positives), and must be irreflexive and
   symmetric; and every enabled step outside the state's persistent
   set must commute with every member. *)
let test_indep_sound_exhaustive () =
  List.iter
    (fun sys ->
      let persistent = persistent sys in
      Seq.iter
        (fun st ->
          let en = State.enabled sys st and p = persistent st in
          List.iter
            (fun s ->
              List.iter
                (fun t ->
                  check bool_t "symmetric" (Indep.independent sys s t)
                    (Indep.independent sys t s);
                  if Step.equal s t then
                    check bool_t "irreflexive" false (Indep.independent sys s t)
                  else begin
                    if Indep.independent sys s t then
                      check bool_t "static independent ⇒ dynamic commutes"
                        true (Indep.commutes sys st s t);
                    if List.mem s p && not (List.mem t p) then
                      check bool_t "outside the persistent set ⇒ commutes"
                        true (Indep.commutes sys st s t)
                  end)
                en)
            en)
        (Explore.states (Explore.explore sys)))
    (fixtures ())

let test_persistent_props () =
  List.iter
    (fun sys ->
      let persistent = persistent sys in
      Seq.iter
        (fun st ->
          let en = State.enabled sys st and p = persistent st in
          check bool_t "persistent keeps enabled order" true
            (List.filter (fun s -> List.mem s p) en = p);
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
        (Explore.reduced_deadlock_free sys))
    (fixtures ());
  let sys = phil3 () in
  check bool_t "philosophers: strictly fewer states" true
    (Explore.state_count (Explore.explore ~por:true sys)
    < Explore.state_count (Explore.explore sys))

let test_fixture_witnesses_canonical () =
  List.iter
    (fun sys ->
      let plain = Explore.find_deadlock sys in
      (match plain with
      | None -> ()
      | Some w -> check bool_t "witness valid" true (witness_valid sys w));
      check bool_t "reduced verdict" (plain = None)
        (Explore.reduced_deadlock_free sys);
      check bool_t "reduced prefix verdict" (plain = None)
        (Explore.reduced_deadlock_free ~goal:Deadlock_prefix sys))
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

let persistent_reference_prop =
  QCheck.Test.make ~name:"packed persistent set = decoded reference"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 0 3))
    (fun (seed, kind) ->
      let st = Fixtures.rng seed in
      let sys =
        match kind with
        | 0 -> Gentx.random_copies_system ~extra:true st ~copies:2
        | 1 -> Gentx.dining_philosophers (3 + (seed mod 4))
        | 2 ->
            Gentx.zipf_system ~entities_per_txn:4 st ~sites:2 ~entities:6
              ~txns:4 ~theta:0.8
        | _ -> Fixtures.small_random_system st ~txns:3
      in
      let persistent = persistent sys in
      List.for_all
        (fun cur -> persistent cur = reference_persistent sys cur)
        (states_of_run st sys))

let por_verdict_witness_prop =
  QCheck.Test.make
    ~name:"por verdict+witness ≡ plain" ~count:40
    copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let plain = Explore.find_deadlock sys in
      (match plain with None -> true | Some w -> witness_valid sys w)
      && Explore.reduced_deadlock_free sys = (plain = None))

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

let por_sound_reduction_prop =
  (* The reduced space is a sound reduction: reachable states only and
     every reachable deadlock kept, over plain states and over orbit
     representatives alike. *)
  QCheck.Test.make
    ~name:"por reduction keeps every deadlock"
    ~count:30 copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let sound symmetry =
        let plain = Explore.explore ~symmetry sys in
        let reduced = Explore.explore ~symmetry ~por:true sys in
        Seq.for_all (Explore.is_reachable plain) (Explore.states reduced)
        && Seq.for_all
             (fun st ->
               (not (State.is_deadlock sys st)) || Explore.is_reachable reduced st)
             (Explore.states plain)
      in
      sound false && sound true)

let por_cap_outcome_prop =
  (* Under a small cap the reduced search may give up where the
     uncapped one decides, but it never contradicts the uncapped
     verdict, and a give-up always reports the budget. *)
  QCheck.Test.make
    ~name:"por cap outcome sound"
    ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (seed, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 in
      let deadlocks = Explore.find_deadlock sys <> None in
      match Explore.reduced_deadlock_free ~max_states sys with
      | free -> free = not deadlocks
      | exception Explore.Too_large n -> n = max_states)

let por_obs_counters_prop =
  (* A reduced exploration counts no more states than plain, and its
     [explore.states_visited] total is the reduced space's size. *)
  QCheck.Test.make
    ~name:"por states_visited = reduced count"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let visited f =
        Ddlock_obs.Metrics.reset ();
        let n = Explore.state_count (f ()) in
        (Ddlock_obs.Metrics.counter_value "explore.states_visited", n)
      in
      Ddlock_obs.Control.on ();
      let reduced, reduced_count =
        visited (fun () -> Explore.explore ~por:true sys)
      in
      let plain, _ = visited (fun () -> Explore.explore sys) in
      Ddlock_obs.Control.off ();
      Ddlock_obs.Metrics.reset ();
      reduced = reduced_count && reduced <= plain)

let por_prefix_search_prop =
  QCheck.Test.make
    ~name:"prefix search: por verdict ≡ plain, witness valid, all ⊆ plain"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let plain = Prefix_search.find sys in
      Explore.reduced_deadlock_free ~goal:Deadlock_prefix sys
      = Option.is_none plain
      && (match plain with
         | None -> true
         | Some w ->
             Schedule.is_legal sys w.Prefix_search.schedule
             && State.equal
                  (Schedule.prefix_vector sys w.Prefix_search.schedule)
                  w.Prefix_search.prefix
             && Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix))
      && Prefix_search.deadlock_free sys = Option.is_none plain
      &&
      let keys f =
        List.sort_uniq compare (List.map Fixtures.state_key (List.of_seq (f ())))
      in
      let plain_all = keys (fun () -> Prefix_search.all sys) in
      let por_all = keys (fun () -> Prefix_search.all ~por:true sys) in
      List.for_all (fun k -> List.mem k plain_all) por_all
      && (plain_all = []) = (por_all = []))

(* Analysis and Minimize read the plain search; the reduced search
   agrees with the verdict and finds the minimized core deadlocking. *)
let por_analysis_minimize_prop =
  QCheck.Test.make
    ~name:"Analysis bytes and Minimize core ≡ under por" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let _, _, r = Ddlock.Analysis.render_full sys in
      let reduced_free = Explore.reduced_deadlock_free sys in
      (match r.Ddlock.Analysis.deadlock with
      | Ddlock.Analysis.Deadlock_free -> reduced_free
      | Ddlock.Analysis.Deadlocks _ -> not reduced_free
      | Ddlock.Analysis.Gave_up _ -> false)
      &&
      match Ddlock.Minimize.deadlock_core sys with
      | None -> reduced_free
      | Some m -> not (Explore.reduced_deadlock_free m.Ddlock.Minimize.core))

let qtests =
  List.map Fixtures.to_alcotest
    [
      indep_sound_prop;
      persistent_reference_prop;
      por_verdict_witness_prop;
      por_state_bound_prop;
      por_sound_reduction_prop;
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
    Alcotest.test_case "reduced counts on fixtures" `Quick test_fixture_counts;
    Alcotest.test_case "canonicalized witnesses on fixtures" `Quick
      test_fixture_witnesses_canonical;
  ]
  @ qtests
