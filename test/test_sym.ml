(* Differential conformance battery for symmetry reduction: every
   observable of the orbit-canonicalized searches (Sched.Canon in
   [Explore.explore ~symmetry], [Prefix_search.all ~symmetry] and the
   reduced search that decides when the plain budget runs out) must
   agree with the plain ground truth — verdicts, state-count bounds,
   cap accounting, the counter totals — plus the permutation-soundness
   contracts of Canon itself. *)

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

let eight_state_sys () =
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  System.create [ t; Builder.two_phase_chain db [ "a" ] ]

(* Orbit identity as plain data: equal iff the states share an orbit. *)
let canon_key c s = Fixtures.state_key (Canon.normalize c s)

(* A witness must be a genuine schedule of the system deadlocking at
   exactly the returned state. *)
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
(* Unit: Canon group detection                                         *)
(* ------------------------------------------------------------------ *)

let test_detect () =
  let c = Canon.detect (fig2ish ()) in
  check bool_t "copies are interchangeable" true (Canon.nontrivial c);
  check int_t "orbit 2!" 2 (Canon.orbit_size c);
  check bool_t "one class {0,1}" true (Canon.groups c = [ [ 0; 1 ] ]);
  let c3 = Canon.detect (System.copies (Gentx.guard_ring 3) 3) in
  check int_t "orbit 3!" 6 (Canon.orbit_size c3);
  (* Philosophers lock DIFFERENT forks: pairwise distinct, trivial group. *)
  let cp = Canon.detect (phil3 ()) in
  check bool_t "philosophers asymmetric" false (Canon.nontrivial cp);
  check int_t "trivial orbit" 1 (Canon.orbit_size cp);
  check bool_t "all classes singletons" true
    (List.for_all (fun g -> List.length g = 1) (Canon.groups cp));
  (* Mixed: 2 copies + 1 distinct transaction → one pair, one singleton. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t = Builder.two_phase_chain db [ "a"; "b" ] in
  let lone = Builder.two_phase_chain db [ "b"; "a" ] in
  let c = Canon.detect (System.create [ t; Builder.two_phase_chain db [ "a"; "b" ]; lone ]) in
  check bool_t "mixed classes" true (Canon.groups c = [ [ 0; 1 ]; [ 2 ] ]);
  check int_t "mixed orbit" 2 (Canon.orbit_size c)

let test_trivial_fallback () =
  (* With a trivial group the symmetric engines must be BIT-identical to
     the plain ones (they fall back, no canonicalization overhead). *)
  let sys = phil3 () in
  let keys sp = List.of_seq (Seq.map Fixtures.state_key (Explore.states sp)) in
  check bool_t "states identical" true
    (keys (Explore.explore ~symmetry:true sys) = keys (Explore.explore sys));
  check int_t "count identical"
    (Explore.state_count (Explore.explore sys))
    (Explore.state_count (Explore.explore ~symmetry:true sys))

(* ------------------------------------------------------------------ *)
(* Unit: exact cap accounting under symmetry (satellite regression)    *)
(* ------------------------------------------------------------------ *)

let test_sym_exact_cap () =
  (* 2 copies of Lock a; Unlock a: 8 raw states in 5 orbits.  A pruned
     orbit member is deduped BEFORE the budget check, so it never counts
     against max_states: the symmetric budget boundary sits at 5/4, the
     plain one at 8/7. *)
  let sys = eight_state_sys () in
  check int_t "plain fits at 8" 8
    (Explore.state_count (Explore.explore ~max_states:8 sys));
  (match Explore.explore ~max_states:7 sys with
  | exception Explore.Too_large n -> check int_t "plain held at raise" 7 n
  | _ -> Alcotest.fail "expected Too_large");
  check int_t "sym fits at 5" 5
    (Explore.state_count (Explore.explore ~max_states:5 ~symmetry:true sys));
  match Explore.explore ~max_states:4 ~symmetry:true sys with
  | exception Explore.Too_large n -> check int_t "sym held at raise" 4 n
  | _ -> Alcotest.fail "expected Too_large"

(* ------------------------------------------------------------------ *)
(* Unit: guard-ring edge cases (generator satellite)                   *)
(* ------------------------------------------------------------------ *)

let test_guard_ring_edges () =
  (match Gentx.guard_ring 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "guard_ring 1 must be rejected");
  (* k=2, the smallest ring: 2 entities, 4 nodes, 7 order ideals; two
     copies deadlock (even ring) and symmetry halves nothing at the
     verdict level. *)
  let t = Gentx.guard_ring 2 in
  check int_t "2 entities" 2 (List.length (Transaction.entities t));
  check int_t "4 nodes" 4 (Transaction.node_count t);
  check int_t "7 ideals" 7
    (Explore.state_count (Explore.explore (System.create [ t ])));
  let sys = System.copies t 2 in
  check bool_t "2 copies of 2-ring deadlock" false (Explore.deadlock_free sys);
  check bool_t "reduced verdict agrees" false
    (Explore.reduced_deadlock_free sys);
  match Explore.find_deadlock sys with
  | None -> Alcotest.fail "expected witness"
  | Some w -> check bool_t "witness valid" true (witness_valid sys w)

(* ------------------------------------------------------------------ *)
(* Properties: Canon's own contracts                                   *)
(* ------------------------------------------------------------------ *)

let copies_arg =
  QCheck.(triple (int_bound 1_000_000) (int_range 2 3) bool)

let canon_perm_soundness_prop =
  QCheck.Test.make
    ~name:"canon (σ·s) = canon s for every group element σ" ~count:60
    copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let c = Canon.detect sys in
      List.for_all
        (fun s ->
          let sigma = Canon.random_group_perm st c in
          let rep = Canon.normalize c s in
          canon_key c (Canon.apply_perm sigma s) = Fixtures.state_key rep
          (* A representative is its own representative. *)
          && State.equal (Canon.normalize c rep) rep)
        (states_of_run st sys))

(* ------------------------------------------------------------------ *)
(* Properties: reduced engine ≡ plain engine                           *)
(* ------------------------------------------------------------------ *)

(* The reduced search's verdict is the plain one, and a plain witness
   is a genuine deadlock. *)
let reduced_agrees sys =
  match Explore.find_deadlock sys with
  | None -> Explore.reduced_deadlock_free sys
  | Some w -> witness_valid sys w && not (Explore.reduced_deadlock_free sys)

let sym_verdict_copies_prop =
  QCheck.Test.make
    ~name:"sym verdict ≡ plain on identical-copy systems" ~count:50 copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      reduced_agrees (Gentx.random_copies_system ~extra st ~copies))

let sym_verdict_generic_prop =
  QCheck.Test.make
    ~name:"sym verdict ≡ plain on generic random systems" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      reduced_agrees (Fixtures.small_random_system st ~txns:3))

let sym_state_bounds_prop =
  QCheck.Test.make
    ~name:"orbit quotient: sym ≤ raw ≤ sym·|G| and exact orbit partition"
    ~count:40 copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let c = Canon.detect sys in
      let raw_space = Explore.explore sys in
      let sym_space = Explore.explore ~symmetry:true sys in
      let raw = Explore.state_count raw_space in
      let reduced = Explore.state_count sym_space in
      (* The stored canonical states are exactly the orbit
         representatives of the raw reachable set: same canonical key
         set, no more, no fewer. *)
      let raw_orbits =
        List.sort_uniq compare
          (List.of_seq (Seq.map (canon_key c) (Explore.states raw_space)))
      in
      let sym_keys =
        List.sort compare
          (List.of_seq (Seq.map Fixtures.state_key (Explore.states sym_space)))
      in
      reduced <= raw
      && raw <= reduced * Canon.orbit_size c
      && raw_orbits = sym_keys
      (* Every raw state is held through its orbit. *)
      && Seq.for_all (Explore.is_reachable sym_space) (Explore.states raw_space))

let sym_prefix_search_prop =
  QCheck.Test.make
    ~name:"prefix search: sym verdict ≡ plain, witness valid"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let plain = Prefix_search.find sys in
      Explore.reduced_deadlock_free ~goal:Deadlock_prefix sys = (plain = None)
      && (match plain with
         | None -> true
         | Some w ->
             Schedule.is_legal sys w.Prefix_search.schedule
             && State.equal
                  (Schedule.prefix_vector sys w.Prefix_search.schedule)
                  w.Prefix_search.prefix
             && Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix))
      && Prefix_search.deadlock_free sys = (plain = None))

let sym_prefix_all_prop =
  QCheck.Test.make
    ~name:"prefix search `all`: one representative per deadlock-prefix orbit"
    ~count:30 copies_arg
    (fun (seed, copies, extra) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system ~extra st ~copies in
      let c = Canon.detect sys in
      let plain_orbits =
        List.sort_uniq compare
          (List.map (canon_key c) (List.of_seq (Prefix_search.all sys)))
      in
      let sym_keys =
        List.sort compare
          (List.map Fixtures.state_key
             (List.of_seq (Prefix_search.all ~symmetry:true sys)))
      in
      plain_orbits = sym_keys)

let sym_cap_outcome_prop =
  (* A full symmetric exploration has an exact budget: the quotient fits
     with its orbit count, or [Too_large] carries the budget. *)
  QCheck.Test.make
    ~name:"sym cap outcome exact" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (seed, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 in
      let orbits =
        Explore.state_count (Explore.explore ~symmetry:true sys)
      in
      match Explore.explore ~max_states ~symmetry:true sys with
      | sp -> orbits <= max_states && Explore.state_count sp = orbits
      | exception Explore.Too_large n -> orbits > max_states && n = max_states)

let sym_obs_counters_prop =
  (* The counter totals of a symmetric search: a full exploration counts
     each stored representative once, the reduced search no more than
     its full space holds, and a deadlock is reported once, by the
     plain search alone. *)
  QCheck.Test.make
    ~name:"states_visited / deadlock_witnesses totals under symmetry"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Gentx.random_copies_system st ~copies:2 ~extra:true in
      let counter_after name f =
        Ddlock_obs.Metrics.reset ();
        ignore (f ());
        Ddlock_obs.Metrics.counter_value name
      in
      let visited f = counter_after "explore.states_visited" f in
      let witnesses f = counter_after "explore.deadlock_witnesses" f in
      Ddlock_obs.Control.on ();
      let ok =
        visited (fun () -> Explore.explore ~symmetry:true sys)
        = Explore.state_count (Explore.explore ~symmetry:true sys)
        && visited (fun () -> Explore.reduced_deadlock_free sys)
           <= Explore.state_count (Explore.explore ~symmetry:true ~por:true sys)
        && witnesses (fun () -> Explore.reduced_deadlock_free sys) = 0
        && witnesses (fun () -> Explore.find_deadlock sys)
           = if Explore.find_deadlock sys = None then 0 else 1
      in
      Ddlock_obs.Control.off ();
      Ddlock_obs.Metrics.reset ();
      ok)

(* Analysis and Minimize read the plain search; the reduced search
   agrees with the verdict shape and finds the minimized core
   deadlocking. *)
let reduced_analysis_minimize sys =
  let reduced_free = Explore.reduced_deadlock_free sys in
  (match Ddlock.Analysis.deadlock_free sys with
  | Ddlock.Analysis.Deadlock_free -> reduced_free
  | Ddlock.Analysis.Deadlocks _ -> not reduced_free
  | Ddlock.Analysis.Gave_up _ -> false)
  &&
  match Ddlock.Minimize.deadlock_core sys with
  | None -> reduced_free
  | Some m -> not (Explore.reduced_deadlock_free m.Ddlock.Minimize.core)

let sym_analysis_minimize_prop =
  QCheck.Test.make
    ~name:"Analysis verdict shape and Minimize core ≡ under symmetry"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      reduced_analysis_minimize
        (Gentx.random_copies_system st ~copies:2 ~extra:true))

let qtests =
  List.map Fixtures.to_alcotest
    [
      canon_perm_soundness_prop;
      sym_verdict_copies_prop;
      sym_verdict_generic_prop;
      sym_state_bounds_prop;
      sym_prefix_search_prop;
      sym_prefix_all_prop;
      sym_cap_outcome_prop;
      sym_obs_counters_prop;
      sym_analysis_minimize_prop;
    ]

let suite =
  [
    Alcotest.test_case "group detection" `Quick test_detect;
    Alcotest.test_case "trivial-symmetry fallback" `Quick test_trivial_fallback;
    Alcotest.test_case "exact cap under symmetry" `Quick test_sym_exact_cap;
    Alcotest.test_case "guard ring edge cases" `Quick test_guard_ring_edges;
  ]
  @ qtests
