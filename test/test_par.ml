(* Differential battery for Ddlock_par.Par_explore, in two suites.

   [suite] ("par") pins what callers rely on for every jobs: verdicts
   and full-exploration state counts equal the sequential ground truth,
   and the answers that carry a witness (find_deadlock, find, safe,
   safe_and_deadlock_free, Prefix_search.find) are identical to the
   sequential ones, because a positive verdict's witness comes from the
   sequential engine.

   [stealing_suite] ("fast") pins the work-stealing engine's own
   contract at jobs >= 2 and its Intern substrate:
   - raw [bfs] witnesses are valid: a legal schedule whose replay ends
     in its goal-satisfying endpoint;
   - symmetric counts equal the sequential ones, reduced (POR) counts
     never exceed plain;
   - the cap is sound: [Too_large n] is raised iff the space exceeds
     [max_states], and carries [n = max_states];
   - the intern table is injective and idempotent. *)

open Ddlock_model
open Ddlock_schedule
module Par = Ddlock_par.Par_explore
module Prefix_search = Ddlock_deadlock.Prefix_search
module Reduction = Ddlock_deadlock.Reduction
module Gentx = Ddlock_workload.Gentx

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let jobs_sweep = [ 1; 2; 3; 4; 8 ]
let stealing_jobs = [ 2; 4 ]

let fig2ish () = System.copies (Gentx.guard_ring 4) 2
let phil3 () = Gentx.dining_philosophers 3

let opposed_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "b"; "a" ];
    ]

let safe_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "a"; "b" ];
    ]

let eight_state_sys () =
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  System.create [ t; Builder.two_phase_chain db [ "a" ] ]

let sorted_keys sts = List.sort compare (List.map Fixtures.state_key sts)

let valid_deadlock_witness sys (sched, stf) =
  Schedule.is_legal sys sched
  && State.equal (Schedule.prefix_vector sys sched) stf
  && State.is_deadlock sys stf

(* ------------------------------------------------------------------ *)
(* Unit: counts, witnesses, spaces                                     *)
(* ------------------------------------------------------------------ *)

let test_counts_match () =
  List.iter
    (fun sys ->
      let seq = Explore.state_count (Explore.explore sys) in
      List.iter
        (fun jobs ->
          check int_t
            (Printf.sprintf "state_count jobs=%d" jobs)
            seq
            (Par.state_count (Par.explore ~jobs sys)))
        jobs_sweep)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_witness_identical () =
  List.iter
    (fun sys ->
      let seq = Explore.find_deadlock sys in
      List.iter
        (fun jobs ->
          let par = Par.find_deadlock ~jobs sys in
          check bool_t
            (Printf.sprintf "find_deadlock jobs=%d identical" jobs)
            true (par = seq))
        jobs_sweep)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_states_in_rank_order () =
  (* The sequential space enumerates states in BFS insertion order: they
     must line up position by position with a goal-directed search that
     records the order in which it discovers states. *)
  let sys = phil3 () in
  let order = ref [] in
  (match
     Explore.bfs sys ~found:(fun st ->
         order := Fixtures.state_key st :: !order;
         false)
   with
  | Some _ -> Alcotest.fail "predicate never holds"
  | None -> ());
  let bfs_keys = List.rev !order in
  let space_keys sts = List.of_seq (Seq.map Fixtures.state_key sts) in
  (* Explore.bfs applies [found] to every discovered state including the
     initial one, in insertion order. *)
  let seq_keys = space_keys (Explore.states (Explore.explore sys)) in
  check int_t "same length" (List.length bfs_keys) (List.length seq_keys);
  check bool_t "same order" true (bfs_keys = seq_keys);
  check bool_t "jobs=1 delegates" true
    (space_keys (Par.states (Par.explore ~jobs:1 sys)) = seq_keys);
  check bool_t "jobs=3 holds the same set" true
    (sorted_keys (List.of_seq (Par.states (Par.explore ~jobs:3 sys)))
    = List.sort compare seq_keys)

let test_schedules_reach_states () =
  let sys = fig2ish () in
  let seq = Explore.explore sys in
  let par = Par.explore ~jobs:4 sys in
  let one = Par.explore ~jobs:1 sys in
  check int_t "jobs recorded" 4 (Par.jobs par);
  check int_t "jobs=1 recorded" 1 (Par.jobs one);
  Seq.iter
    (fun st ->
      check bool_t "reachable in par" true (Par.is_reachable par st);
      (match Par.schedule_to par st with
      | None -> Alcotest.fail "schedule_to must succeed"
      | Some sched ->
          check bool_t "legal" true (Schedule.is_legal sys sched);
          check bool_t "reaches the state" true
            (State.equal (Schedule.prefix_vector sys sched) st);
          check bool_t "no shorter than the BFS path" true
            (List.length sched
            >= List.length (Option.get (Explore.schedule_to seq st))));
      check bool_t "jobs=1 is the sequential schedule" true
        (Par.schedule_to one st = Explore.schedule_to seq st))
    (Explore.states seq);
  let unreachable = State.final (opposed_pair ()) in
  check bool_t "foreign state unreachable" false
    (Par.is_reachable par unreachable)

let test_lemma1_identical () =
  List.iter
    (fun sys ->
      List.iter
        (fun jobs ->
          check bool_t
            (Printf.sprintf "safe_and_deadlock_free jobs=%d" jobs)
            true
            (Par.safe_and_deadlock_free ~jobs sys
            = Explore.safe_and_deadlock_free sys);
          check bool_t
            (Printf.sprintf "safe jobs=%d" jobs)
            true
            (Par.safe ~jobs sys = Explore.safe sys))
        [ 1; 2; 3; 4 ])
    [ opposed_pair (); fig2ish () ]

let test_invalid_jobs () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let sys = opposed_pair () in
  List.iter
    (fun jobs ->
      expect_invalid "explore" (fun () -> Par.explore ~jobs sys);
      expect_invalid "find_deadlock" (fun () -> Par.find_deadlock ~jobs sys);
      expect_invalid "prefix_search" (fun () ->
          Prefix_search.find ~jobs sys);
      expect_invalid "analysis" (fun () ->
          Ddlock.Analysis.deadlock_free ~jobs sys))
    [ 0; -1 ]

let test_par_exact_cap () =
  (* A full exploration has the sequential engine's exact budget: a
     space that fits never raises, one that does not raises with the
     budget as the count. *)
  let sys = eight_state_sys () in
  List.iter
    (fun jobs ->
      check int_t "exact budget fits" 8
        (Par.state_count (Par.explore ~max_states:8 ~jobs sys));
      (match Par.explore ~max_states:7 ~jobs sys with
      | exception Explore.Too_large n -> check int_t "held at raise" 7 n
      | _ -> Alcotest.fail "expected Too_large");
      match Par.explore ~max_states:0 ~jobs sys with
      | exception Explore.Too_large n -> check int_t "no room for init" 0 n
      | _ -> Alcotest.fail "expected Too_large 0")
    [ 1; 2; 3; 4 ];
  (* A goal-directed search at the cap: the work-stealing order may reach
     the deadlock within a budget the BFS order cannot (then the raw
     witness stands), but any witness is valid and any give-up reports
     the budget. *)
  let opp = opposed_pair () in
  List.iter
    (fun jobs ->
      check bool_t "witness at the cap" true
        (Par.find_deadlock ~max_states:5 ~jobs opp
        = Explore.find_deadlock ~max_states:5 opp);
      match Par.find_deadlock ~max_states:4 ~jobs opp with
      | exception Explore.Too_large n -> check int_t "held at raise" 4 n
      | Some w -> check bool_t "valid witness" true (valid_deadlock_witness opp w)
      | None -> Alcotest.fail "opposed pair deadlocks")
    [ 2; 3; 4 ]

let test_prefix_search_jobs () =
  let sys = fig2ish () in
  check bool_t "deadlock_free agrees" true
    (Prefix_search.deadlock_free ~jobs:3 sys = Prefix_search.deadlock_free sys);
  (match Prefix_search.find ~jobs:3 sys with
  | None -> Alcotest.fail "fig2ish must have a deadlock prefix"
  | Some w ->
      check bool_t "schedule legal" true (Schedule.is_legal sys w.Prefix_search.schedule);
      check bool_t "prefix realized" true
        (State.equal
           (Schedule.prefix_vector sys w.Prefix_search.schedule)
           w.Prefix_search.prefix);
      check bool_t "reduction graph cyclic" true
        (Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix));
      check bool_t "identical to the sequential witness" true
        (Prefix_search.find sys = Some w));
  check bool_t "safe system has no prefix" true
    (Prefix_search.find ~jobs:4 (safe_pair ()) = None);
  check bool_t "all ~jobs finds the same set" true
    (sorted_keys (List.of_seq (Prefix_search.all ~jobs:3 sys))
    = sorted_keys (List.of_seq (Prefix_search.all sys)))

let test_minimize_jobs () =
  let sys = fig2ish () in
  match
    (Ddlock.Minimize.deadlock_core sys, Ddlock.Minimize.deadlock_core ~jobs:2 sys)
  with
  | Some a, Some b ->
      check bool_t "same core" true
        (a.Ddlock.Minimize.kept_txns = b.Ddlock.Minimize.kept_txns
        && a.Ddlock.Minimize.dropped_entities = b.Ddlock.Minimize.dropped_entities)
  | _ -> Alcotest.fail "fig2ish must minimize"

(* ------------------------------------------------------------------ *)
(* Properties: differential vs the sequential engine                   *)
(* ------------------------------------------------------------------ *)

let seed_and_jobs = QCheck.(pair (int_bound 1_000_000) (int_range 2 4))

let par_explore_prop =
  QCheck.Test.make ~name:"par explore ≡ sequential (count + witness)" ~count:40
    seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Par.state_count (Par.explore ~jobs sys)
      = Explore.state_count (Explore.explore sys)
      && Par.find_deadlock ~jobs sys = Explore.find_deadlock sys)

let par_lemma1_prop =
  QCheck.Test.make ~name:"par Lemma-1 ≡ sequential (exact counterexample)"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      Par.safe_and_deadlock_free ~jobs sys = Explore.safe_and_deadlock_free sys
      && Par.safe ~jobs sys = Explore.safe sys)

let par_prefix_prop =
  QCheck.Test.make ~name:"par prefix search ≡ sequential (Theorem 1)" ~count:30
    seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let seq = Prefix_search.find sys in
      (match seq with
      | Some ws ->
          Reduction.has_cycle (Reduction.make sys ws.Prefix_search.prefix)
      | None -> true)
      && Prefix_search.find ~jobs sys = seq
      && Prefix_search.deadlock_free ~jobs sys = Prefix_search.deadlock_free sys)

let par_cap_prop =
  (* Budget exhaustion is part of the observable behaviour: for any small
     cap, a full exploration fits with the same count or raises with the
     same exact count the exception carries, plain and symmetric. *)
  QCheck.Test.make ~name:"par cap outcome ≡ sequential (exact Too_large)"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let probe f =
        match f () with
        | n -> `Fits n
        | exception Explore.Too_large n -> `Too_large n
      in
      List.for_all
        (fun symmetry ->
          probe (fun () ->
              Explore.state_count (Explore.explore ~max_states ~symmetry sys))
          = probe (fun () ->
                Par.state_count (Par.explore ~max_states ~symmetry ~jobs sys)))
        [ false; true ])

let par_cap_search_prop =
  (* A goal-directed search under a small cap: the engines decide the
     same way whenever both decide, a witness is always valid (and the
     sequential one when both find one), and a give-up always reports the
     budget.  Which of witness / give-up comes out at the boundary
     depends on the search order. *)
  QCheck.Test.make ~name:"par find_deadlock under a cap: sound, never contradicts"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let probe f =
        match f () with
        | Some w -> `Witness w
        | None -> `Deadlock_free
        | exception Explore.Too_large n -> `Too_large n
      in
      let seq = probe (fun () -> Explore.find_deadlock ~max_states sys) in
      let par = probe (fun () -> Par.find_deadlock ~max_states ~jobs sys) in
      let sound = function
        | `Witness w -> valid_deadlock_witness sys w
        | `Deadlock_free -> true
        | `Too_large n -> n = max_states
      in
      sound seq && sound par
      &&
      match (seq, par) with
      | `Witness a, `Witness b -> a = b
      | `Deadlock_free, (`Witness _ | `Too_large _)
      | (`Witness _ | `Too_large _), `Deadlock_free ->
          false
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties: the purity contracts the engines rely on                *)
(* ------------------------------------------------------------------ *)

let states_of_run st sys =
  (* A bag of distinct reachable states sampled along one random run. *)
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

(* Lemma-1 nodes reached by every path of up to [depth] steps, each
   node once per path: equal nodes built along different paths
   accumulate their D-arcs in different orders. *)
let lemma1_nodes sys ~depth =
  let rec go d frontier acc =
    if d = 0 then acc
    else
      let next =
        List.concat_map
          (fun n -> List.map snd (Explore.Lemma1.next sys n))
          frontier
      in
      go (d - 1) next (next @ acc)
  in
  let init = Explore.Lemma1.initial sys in
  go depth [ init ] [ init ]

let hash_agrees ~equal ~hash xs =
  List.for_all
    (fun a -> List.for_all (fun b -> (not (equal a b)) || hash a = hash b) xs)
    xs

let hash_compatible_prop =
  (* Dedup in both engines rests on [hash] being compatible with
     [equal]: equal nodes must land in the same bucket. *)
  QCheck.Test.make
    ~name:"State.hash and Lemma1.hash agree with equal on reachable nodes"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let pair = Fixtures.small_random_pair st in
      hash_agrees ~equal:State.equal ~hash:State.hash (states_of_run st sys)
      && hash_agrees ~equal:Explore.Lemma1.equal ~hash:Explore.Lemma1.hash
           (lemma1_nodes pair ~depth:4))

let commutation_prop =
  (* Independent enabled steps commute: both orders survive and land in
     the same state, or neither order survives.  The oracle lives in
     Sched.Indep, shared with the partial-order reduction. *)
  QCheck.Test.make ~name:"enabled/apply commute on independent steps"
    ~count:50
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
                (fun t -> Step.equal s t || Indep.commutes sys cur s t)
                en)
            en)
        (states_of_run st sys))

let test_lemma1_hash_orders () =
  (* The property above is only meaningful if some equal nodes really
     were built along different paths. *)
  let nodes = lemma1_nodes (opposed_pair ()) ~depth:4 in
  let dup =
    List.exists
      (fun a ->
        List.length (List.filter (Explore.Lemma1.equal a) nodes) > 1)
      nodes
  in
  check bool_t "some node reached along two paths" true dup

let qtests =
  List.map Fixtures.to_alcotest
    [
      par_explore_prop;
      par_lemma1_prop;
      par_prefix_prop;
      par_cap_prop;
      par_cap_search_prop;
      hash_compatible_prop;
      commutation_prop;
    ]

let suite =
  [
    Alcotest.test_case "counts match across jobs" `Quick test_counts_match;
    Alcotest.test_case "witness identical" `Quick test_witness_identical;
    Alcotest.test_case "states in rank order" `Quick test_states_in_rank_order;
    Alcotest.test_case "schedules reach their states" `Quick
      test_schedules_reach_states;
    Alcotest.test_case "lemma1 identical" `Quick test_lemma1_identical;
    Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
    Alcotest.test_case "exact cap" `Quick test_par_exact_cap;
    Alcotest.test_case "prefix search with jobs" `Quick test_prefix_search_jobs;
    Alcotest.test_case "minimize with jobs" `Quick test_minimize_jobs;
    Alcotest.test_case "lemma1 nodes reached along two paths" `Quick
      test_lemma1_hash_orders;
  ]
  @ qtests

(* ------------------------------------------------------------------ *)
(* The work-stealing engine (jobs >= 2) and its intern tables          *)
(* ------------------------------------------------------------------ *)

let test_intern_basics () =
  let t = Intern.create ~equal:String.equal ~hash:Hashtbl.hash () in
  let a, new_a = Intern.intern t "a" in
  check bool_t "first intern is new" true new_a;
  let a', again = Intern.intern t "a" in
  check int_t "idempotent id" a a';
  check bool_t "re-intern not new" false again;
  let b, new_b = Intern.intern t "b" in
  check bool_t "distinct value is new" true new_b;
  check bool_t "distinct ids" true (a <> b);
  check int_t "count" 2 (Intern.count t);
  check int_t "hits" 1 (Intern.hits t);
  check bool_t "find hit" true (Intern.find t "a" = Some a);
  check bool_t "find miss" true (Intern.find t "zzz" = None);
  check bool_t "get roundtrip" true (String.equal (Intern.get t b) "b");
  match Intern.get t 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get out of range must raise"

let test_intern_growth () =
  (* Push the arena through several doublings; ids stay dense and
     stable, every value reads back, re-interning is pure hit. *)
  let t = Intern.create ~capacity:4 ~equal:Int.equal ~hash:Hashtbl.hash () in
  let n = 1000 in
  for i = 0 to n - 1 do
    let id, was_new = Intern.intern t (i * 7) in
    check int_t "dense id" i id;
    check bool_t "new" true was_new
  done;
  check int_t "count after growth" n (Intern.count t);
  for i = 0 to n - 1 do
    check int_t "readback" (i * 7) (Intern.get t i);
    let id, was_new = Intern.intern t (i * 7) in
    check int_t "stable id" i id;
    check bool_t "hit" false was_new
  done;
  check int_t "hits counted" n (Intern.hits t);
  let seen = ref 0 in
  Intern.iter
    (fun v ->
      check int_t "iter in id order" (!seen * 7) v;
      incr seen)
    t;
  check int_t "iter covers all" n !seen

let test_intern_collisions () =
  (* A constant hash sends every key down one probe chain, and 300 keys
     force several resizes of the slot array: ids stay dense in
     insertion order, [find] agrees with [intern], and only repeats
     count as hits. *)
  let t =
    Intern.create ~capacity:2 ~equal:String.equal ~hash:(fun _ -> 42) ()
  in
  let key i = "k" ^ string_of_int i in
  let n = 300 in
  for i = 0 to n - 1 do
    check bool_t "absent before insert" true (Intern.find t (key i) = None);
    check bool_t "dense, new" true (Intern.intern t (key i) = (i, true));
    if i mod 3 = 0 then
      check bool_t "repeat is a hit" true
        (Intern.intern t (key (i / 2)) = (i / 2, false))
  done;
  check int_t "count" n (Intern.count t);
  check int_t "hits count only repeats" ((n + 2) / 3) (Intern.hits t);
  for i = 0 to n - 1 do
    check bool_t "find = intern" true
      (Intern.find t (key i) = Some (fst (Intern.intern t (key i))));
    check Alcotest.string "get" (key i) (Intern.get t i)
  done;
  check int_t "hits after re-interning all" (((n + 2) / 3) + n) (Intern.hits t);
  check bool_t "miss" true (Intern.find t "absent" = None);
  List.iter
    (fun id ->
      match Intern.get t id with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "get %d must raise" id)
    [ -1; n; n + 1 ]

let test_stealing_counts () =
  List.iter
    (fun sys ->
      let seq = Explore.state_count (Explore.explore sys) in
      let seq_sym =
        Explore.state_count (Explore.explore ~symmetry:true sys)
      in
      List.iter
        (fun jobs ->
          (* Canonical dedup keeps the representative set fixed, so the
             relaxed order lands on the same orbit count. *)
          check int_t
            (Printf.sprintf "sym count jobs=%d" jobs)
            seq_sym
            (Par.state_count (Par.explore ~symmetry:true ~jobs sys));
          (* The reduced set depends on arrival order, but it is always
             a sound reduction: never above plain. *)
          check bool_t
            (Printf.sprintf "por count bound jobs=%d" jobs)
            true
            (Par.state_count (Par.explore ~por:true ~jobs sys) <= seq))
        stealing_jobs)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_find_deadlock_identical () =
  (* The witness of a positive verdict comes from the sequential engine
     run with the same flags, so the output is byte-identical to it
     whatever the relaxed search found first. *)
  List.iter
    (fun sys ->
      List.iter
        (fun (symmetry, por) ->
          let seq = Explore.find_deadlock ~symmetry ~por sys in
          List.iter
            (fun jobs ->
              check bool_t
                (Printf.sprintf "find_deadlock jobs=%d sym=%b por=%b" jobs
                   symmetry por)
                true
                (Par.find_deadlock ~symmetry ~por ~jobs sys = seq))
            stealing_jobs)
        [ (false, false); (true, false); (false, true); (true, true) ])
    [ fig2ish (); phil3 (); opposed_pair (); safe_pair () ]

let test_stealing_lemma1_identical () =
  List.iter
    (fun sys ->
      List.iter
        (fun jobs ->
          check bool_t
            (Printf.sprintf "safe_and_deadlock_free jobs=%d" jobs)
            true
            (Par.safe_and_deadlock_free ~jobs sys
            = Explore.safe_and_deadlock_free sys);
          check bool_t
            (Printf.sprintf "safe jobs=%d" jobs)
            true
            (Par.safe ~jobs sys = Explore.safe sys))
        stealing_jobs)
    [ opposed_pair (); safe_pair (); fig2ish () ]

let test_raw_witness_valid () =
  (* The raw witness is whichever deadlock a worker reached first: any
     such schedule must be legal and replay to its deadlocked endpoint. *)
  let sys = fig2ish () in
  (match Par.bfs ~jobs:4 sys ~found:(State.is_deadlock sys) with
  | None -> Alcotest.fail "fig2ish deadlocks"
  | Some w -> check bool_t "legal deadlock replay" true (valid_deadlock_witness sys w));
  let safe = safe_pair () in
  check bool_t "safe system: no witness" true
    (Par.bfs ~jobs:4 safe ~found:(State.is_deadlock safe) = None)

let test_cap_never_undercounts () =
  (* Exact-fit budgets succeed (the cap can never fire on a space that
     fits); a cap below the space always raises, carrying the cap. *)
  let sys = eight_state_sys () in
  List.iter
    (fun (jobs, por) ->
      check int_t "exact budget fits" 8
        (Par.state_count (Par.explore ~max_states:8 ~jobs sys));
      (match Par.explore ~max_states:7 ~jobs sys with
      | exception Explore.Too_large n -> check int_t "reports the cap" 7 n
      | _ -> Alcotest.fail "expected Too_large");
      match Par.explore ~por ~max_states:0 ~jobs sys with
      | exception Explore.Too_large 0 -> ()
      | _ -> Alcotest.fail "expected Too_large 0")
    [ (2, false); (4, true) ]

let test_prefix_and_minimize () =
  let sys = fig2ish () in
  check bool_t "prefix verdict" true
    (Prefix_search.deadlock_free ~jobs:2 sys = Prefix_search.deadlock_free sys);
  check bool_t "prefix witness identical" true
    (Prefix_search.find ~jobs:2 ~por:true sys = Prefix_search.find ~por:true sys);
  check bool_t "all ~jobs:2 finds the same set" true
    (sorted_keys (List.of_seq (Prefix_search.all ~jobs:2 ~symmetry:true sys))
    = sorted_keys (List.of_seq (Prefix_search.all ~symmetry:true sys)));
  match
    ( Ddlock.Minimize.deadlock_core ~por:true sys,
      Ddlock.Minimize.deadlock_core ~por:true ~jobs:2 sys )
  with
  | Some a, Some b ->
      check bool_t "same minimized core" true
        (a.Ddlock.Minimize.kept_txns = b.Ddlock.Minimize.kept_txns
        && a.Ddlock.Minimize.dropped_entities
           = b.Ddlock.Minimize.dropped_entities)
  | _ -> Alcotest.fail "fig2ish must minimize"

let stealing_verdict_prop =
  QCheck.Test.make
    ~name:"fast find_deadlock ≡ sequential (any sym/por combination)"
    ~count:30
    QCheck.(
      triple (int_bound 1_000_000) (int_range 2 4) (pair bool bool))
    (fun (seed, jobs, (symmetry, por)) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Par.find_deadlock ~symmetry ~por ~jobs sys
      = Explore.find_deadlock ~symmetry ~por sys)

let stealing_count_prop =
  QCheck.Test.make ~name:"fast explore ≡ sequential (state set size)"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let seq = Explore.explore sys in
      let par = Par.explore ~jobs sys in
      Par.state_count par = Explore.state_count seq
      && Seq.for_all (Par.is_reachable par) (Explore.states seq))

let stealing_lemma1_prop =
  QCheck.Test.make ~name:"fast Lemma-1 ≡ sequential (exact counterexample)"
    ~count:25 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      Par.safe_and_deadlock_free ~jobs sys = Explore.safe_and_deadlock_free sys
      && Par.safe ~jobs sys = Explore.safe sys)

let stealing_witness_valid_prop =
  QCheck.Test.make ~name:"fast raw witness is a legal deadlock replay"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let seq_deadlocks = Explore.find_deadlock sys <> None in
      match Par.bfs ~jobs sys ~found:(State.is_deadlock sys) with
      | None -> not seq_deadlocks
      | Some w -> seq_deadlocks && valid_deadlock_witness sys w)

let stealing_cap_prop =
  (* The relaxed search may run past the cap by the work in flight, but
     it raises iff the space exceeds the budget, reporting the budget. *)
  QCheck.Test.make ~name:"fast cap raises iff space exceeds it, n >= cap"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let true_count = Explore.state_count (Explore.explore sys) in
      match Par.explore ~max_states ~jobs sys with
      | sp -> true_count <= max_states && Par.state_count sp = true_count
      | exception Explore.Too_large n ->
          true_count > max_states && n = max_states)

let intern_prop =
  QCheck.Test.make ~name:"intern injective + idempotent on random keys"
    ~count:50
    QCheck.(small_list small_int)
    (fun xs ->
      let t = Intern.create ~capacity:2 ~equal:Int.equal ~hash:Hashtbl.hash () in
      let ids = List.map (fun x -> fst (Intern.intern t x)) xs in
      List.for_all2
        (fun x id ->
          (* idempotent: re-interning returns the same id, no growth *)
          fst (Intern.intern t x) = id && Int.equal (Intern.get t id) x)
        xs ids
      && List.for_all2
           (fun x id ->
             List.for_all2
               (fun y id' -> Int.equal x y = (id = id'))
               xs ids)
           xs ids
      && Intern.count t = List.length (List.sort_uniq compare xs))

let stealing_suite =
  [
    Alcotest.test_case "intern basics" `Quick test_intern_basics;
    Alcotest.test_case "intern growth" `Quick test_intern_growth;
    Alcotest.test_case "intern collisions" `Quick test_intern_collisions;
    Alcotest.test_case "counts match" `Quick test_stealing_counts;
    Alcotest.test_case "find_deadlock byte-identical" `Quick
      test_find_deadlock_identical;
    Alcotest.test_case "lemma1 identical" `Quick test_stealing_lemma1_identical;
    Alcotest.test_case "raw witness valid" `Quick test_raw_witness_valid;
    Alcotest.test_case "cap never undercounts" `Quick
      test_cap_never_undercounts;
    Alcotest.test_case "prefix search and minimize" `Quick
      test_prefix_and_minimize;
  ]
  @ List.map Fixtures.to_alcotest
      [
        stealing_verdict_prop;
        stealing_count_prop;
        stealing_lemma1_prop;
        stealing_witness_valid_prop;
        stealing_cap_prop;
        intern_prop;
      ]
