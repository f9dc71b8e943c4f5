open Ddlock_model
open Ddlock_schedule
open Ddlock_deadlock

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Fig. 1: the worked example of §3                                    *)
(* ------------------------------------------------------------------ *)

let test_fig1_prefix_is_deadlock_prefix () =
  let sys = Fixtures.fig1 () in
  let p = Fixtures.fig1_deadlock_prefix sys in
  check bool_t "valid prefix vector" true (State.is_valid sys p);
  let r = Reduction.make sys p in
  check bool_t "reduction graph cyclic" true (Reduction.has_cycle r);
  check bool_t "is deadlock prefix" true (Reduction.is_deadlock_prefix sys p);
  match Reduction.deadlock_prefix_witness sys p with
  | None -> Alcotest.fail "expected witness"
  | Some (sched, cycle) ->
      check bool_t "schedule legal" true (Schedule.is_legal sys sched);
      check bool_t "schedule realizes prefix" true
        (State.equal (Schedule.prefix_vector sys sched) p);
      (* The cycle must pass through all three transactions. *)
      let txs = List.sort_uniq compare (List.map (fun s -> s.Step.txn) cycle) in
      check (Alcotest.list int_t) "cycle spans T1 T2 T3" [ 0; 1; 2 ] txs

let test_fig1_deadlocks () =
  let sys = Fixtures.fig1 () in
  check bool_t "not deadlock free (schedules)" false (Explore.deadlock_free sys);
  check bool_t "not deadlock free (prefixes)" false
    (Prefix_search.deadlock_free sys)

let test_fig1_reduction_arcs () =
  (* In the empty prefix the reduction graph is exactly the union of the
     transactions' own arcs: no lock arcs, hence acyclic. *)
  let sys = Fixtures.fig1 () in
  let r = Reduction.make sys (State.initial sys) in
  check bool_t "acyclic at start" false (Reduction.has_cycle r);
  (* The full prefix has an empty reduction graph. *)
  let r = Reduction.make sys (State.final sys) in
  check bool_t "empty at end" false (Reduction.has_cycle r)

(* ------------------------------------------------------------------ *)
(* Theorem 1                                                           *)
(* ------------------------------------------------------------------ *)

let theorem1_prop =
  QCheck.Test.make
    ~name:"Theorem 1: deadlock partial schedule ⇔ deadlock prefix" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      let by_schedules, by_prefixes = Theorem1.verdicts sys in
      by_schedules = by_prefixes)

let theorem1_three_txn_prop =
  QCheck.Test.make ~name:"Theorem 1 on 3-transaction systems" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let by_schedules, by_prefixes = Theorem1.verdicts sys in
      by_schedules = by_prefixes)

let test_centralized_witness () =
  (* §3 remark: from a deadlock partial schedule, the projected total
     orders form a centralized system that also deadlocks. *)
  let sys = Fixtures.fig1 () in
  match Explore.find_deadlock sys with
  | None -> Alcotest.fail "fig1 deadlocks"
  | Some (steps, _) ->
      let centr = Theorem1.centralized_witness sys steps in
      check int_t "same size" 3 (System.size centr);
      check bool_t "projection deadlocks too" false
        (Explore.deadlock_free centr);
      (* The same step sequence must replay legally on the total orders
         once node ids are rebuilt; at minimum the witness system must be
         made of total orders. *)
      Array.iter
        (fun t ->
          check bool_t "total order" true (Ddlock_safety.Lemma2.is_total t))
        (System.txns centr)

(* ------------------------------------------------------------------ *)
(* Fig. 2 and Tirri                                                    *)
(* ------------------------------------------------------------------ *)

let test_fig2_tirri_misses_deadlock () =
  let _, t = Fixtures.fig2_txn () in
  let sys = Fixtures.fig2 () in
  check bool_t "Tirri claims deadlock-free" true
    (Tirri.claims_deadlock_free t t);
  check bool_t "but the system deadlocks" false (Explore.deadlock_free sys);
  check bool_t "prefix search agrees" false (Prefix_search.deadlock_free sys)

let test_fig2_four_entity_cycle () =
  (* The witness reduction-graph cycle involves more than two entities. *)
  let sys = Fixtures.fig2 () in
  match Prefix_search.find sys with
  | None -> Alcotest.fail "expected deadlock prefix"
  | Some w ->
      check bool_t "schedule legal" true
        (Schedule.is_legal sys w.Prefix_search.schedule);
      let entities_on_cycle =
        List.sort_uniq compare
          (List.map
             (fun (s : Step.t) ->
               (Transaction.node (System.txn sys s.txn) s.node).Node.entity)
             w.Prefix_search.cycle)
      in
      check bool_t "cycle uses > 2 entities" true
        (List.length entities_on_cycle > 2)

let test_tirri_finds_classic_pair () =
  (* On the classic opposed pair Tirri's premise does hold. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t1 = Builder.two_phase_chain db [ "a"; "b" ] in
  let t2 = Builder.two_phase_chain db [ "b"; "a" ] in
  check bool_t "pair found" false (Tirri.claims_deadlock_free t1 t2)

(* Tirri soundness direction that DOES hold: whenever Tirri finds no pair
   on two centralized (total order) transactions, the pair really is
   deadlock free.  (The error is specific to partial orders.) *)
let tirri_centralized_prop =
  QCheck.Test.make
    ~name:"on total orders, no-Tirri-pair implies deadlock-free" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys =
        Ddlock_workload.Gentx.small_random_pair ~sites:1 ~entities:4
          ~density:0.3 st
      in
      let t1 = System.txn sys 0 and t2 = System.txn sys 1 in
      QCheck.assume (Tirri.claims_deadlock_free t1 t2);
      Explore.deadlock_free sys)

(* ------------------------------------------------------------------ *)
(* Fig. 3                                                              *)
(* ------------------------------------------------------------------ *)

let test_fig3 () =
  let sys = Fixtures.fig3 () in
  check bool_t "distributed pair deadlock-free" true (Explore.deadlock_free sys);
  check bool_t "some extension pair deadlocks" true
    (Theorem1.extension_pair_deadlocks sys)

(* The converse reduction (§3): if the distributed system deadlocks, some
   extension tuple deadlocks. *)
let extension_reduction_prop =
  QCheck.Test.make
    ~name:"deadlock implies some extension pair deadlocks (§3)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      (* Keep transactions tiny: extension enumeration is factorial. *)
      let sys =
        Ddlock_workload.Gentx.small_random_system ~sites:2 ~entities:2
          ~density:0.3 st ~txns:2
      in
      QCheck.assume (not (Explore.deadlock_free sys));
      Theorem1.extension_pair_deadlocks sys)

(* ------------------------------------------------------------------ *)
(* Fig. 6 and guard rings                                              *)
(* ------------------------------------------------------------------ *)

let test_fig6 () =
  let t = Fixtures.fig6_txn () in
  check bool_t "2 copies deadlock-free" true
    (Explore.deadlock_free (System.copies t 2));
  check bool_t "3 copies deadlock" false
    (Explore.deadlock_free (System.copies t 3));
  (* Consistency with Theorem 5: the copies are NOT safe∧DF, so the
     theorem (about safe∧DF) is not contradicted. *)
  check bool_t "not safe&df" false (Ddlock_safety.Copies.safe_and_deadlock_free t)

let test_guard_ring_parity () =
  (* Two copies of a k-ring deadlock iff k is even: a reduction-graph
     cycle alternates the two transactions along the ring, which needs an
     even number of hops.  (Fig. 2 is the 4-ring, Fig. 6 the 3-ring.) *)
  List.iter
    (fun k ->
      let t = Ddlock_workload.Gentx.guard_ring k in
      let df = Explore.deadlock_free (System.copies t 2) in
      check bool_t
        (Printf.sprintf "2 copies of %d-ring: df=%b" k (k mod 2 = 1))
        (k mod 2 = 1) df)
    [ 2; 3; 4; 5; 6 ];
  (* Three copies of any ring deadlock. *)
  List.iter
    (fun k ->
      let t = Ddlock_workload.Gentx.guard_ring k in
      check bool_t
        (Printf.sprintf "3 copies of %d-ring deadlock" k)
        false
        (Explore.deadlock_free (System.copies t 3)))
    [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* The hold-and-wait certificate                                       *)
(* ------------------------------------------------------------------ *)

(* Two copies of La < Ua < Lb < Ub: not two-phase, so Theorem 4 fails,
   but neither copy holds one entity while it waits for the other. *)
let same_order_pair () =
  let open Builder in
  let db = Db.create [ ("s0", [ "a" ]); ("s1", [ "b" ]) ] in
  System.copies
    (transaction_exn db ~chains:[ [ L "a"; U "a"; L "b"; U "b" ] ] ())
    2

let test_hold_wait_fixtures () =
  let certified name expect sys =
    check bool_t name expect (Hold_wait.certifies sys)
  in
  let fig6 n = System.copies (Fixtures.fig6_txn ()) n in
  certified "fig2 deadlocks" false (Fixtures.fig2 ());
  certified "fig6 x3 deadlocks" false (fig6 3);
  List.iter
    (fun k ->
      certified
        (Printf.sprintf "philosophers %d deadlock" k)
        false
        (Ddlock_workload.Gentx.dining_philosophers k))
    [ 3; 4; 5 ];
  (* Deadlock-free, but its waits close a cycle through all six
     (copy, entity) nodes: the certificate cannot decide it. *)
  certified "fig6 x2 is beyond the certificate" false (fig6 2);
  let pair = same_order_pair () in
  check bool_t "same-order pair fails Theorem 4" false
    (Ddlock_safety.Many.safe_and_deadlock_free pair);
  certified "same-order pair certified" true pair

(* The certificate is sound: whatever it certifies has no deadlock. *)
let hold_wait_sound_prop =
  QCheck.Test.make ~name:"Hold_wait.certifies ⇒ Explore.deadlock_free"
    ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let sys = Fixtures.decider_system seed in
      (not (Hold_wait.certifies sys)) || Explore.deadlock_free sys)

(* The certificate as first written, each arc asked of the stored
   closure node by node: the reference for [Hold_wait.certifies] on
   entity rows. *)
module Ref_hold_wait = struct
  open Ddlock_graph

  let shared_entities txns e =
    let seen = Bitset.create e and shared = Bitset.create e in
    Array.iter
      (fun t ->
        Bitset.iter
          (fun y ->
            if Bitset.mem seen y then Bitset.set shared y
            else Bitset.set seen y)
          (Transaction.entity_set t))
      txns;
    shared

  (* Lᵢy ≺ Uᵢx and ¬(Lᵢy ≺ Lᵢx). *)
  let waits t x y =
    y <> x
    && Transaction.accesses t y
    &&
    let ly = Transaction.lock_node_exn t y in
    Transaction.precedes t ly (Transaction.unlock_node_exn t x)
    && not (Transaction.precedes t ly (Transaction.lock_node_exn t x))

  (* A colour DFS over the nodes (i, x): 1 on the stack, 2 done. *)
  let certifies sys =
    let txns = System.txns sys and e = Db.entity_count (System.db sys) in
    let n = Array.length txns in
    let shared = shared_entities txns e in
    let col = Array.make (n * e) 0 in
    let rec visit i x =
      col.((i * e) + x) <- 1;
      let cyclic =
        List.exists
          (fun y ->
            Bitset.mem shared y
            && waits txns.(i) x y
            && List.exists
                 (fun j ->
                   j <> i
                   && Transaction.accesses txns.(j) y
                   && (col.((j * e) + y) = 1
                      || (col.((j * e) + y) = 0 && visit j y)))
                 (List.init n Fun.id))
          (List.init e Fun.id)
      in
      col.((i * e) + x) <- 2;
      cyclic
    in
    not
      (List.exists
         (fun k ->
           let i = k / e and x = k mod e in
           Bitset.mem shared x
           && Transaction.accesses txns.(i) x
           && col.(k) = 0 && visit i x)
         (List.init (n * e) Fun.id))
end

let hold_wait_rows_prop =
  QCheck.Test.make
    ~name:"Hold_wait.certifies on entity rows = node-by-node reference"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let sys = Fixtures.decider_system seed in
      Hold_wait.certifies sys = Ref_hold_wait.certifies sys)

(* §3 / [KP2]: safety (unlike DF) DOES reduce to extension pairs. *)
let kp2_safety_reduction_prop =
  QCheck.Test.make
    ~name:"[KP2] pair safety = all extension pairs safe" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys =
        Ddlock_workload.Gentx.small_random_system ~sites:2 ~entities:2
          ~density:0.3 st ~txns:2
      in
      Result.is_ok (Explore.safe sys) = Theorem1.extension_pairs_all_safe sys)

let qtests =
  List.map Fixtures.to_alcotest
    [
      theorem1_prop;
      kp2_safety_reduction_prop;
      theorem1_three_txn_prop;
      tirri_centralized_prop;
      extension_reduction_prop;
    ]

let suite =
  [
    Alcotest.test_case "fig1 deadlock prefix" `Quick
      test_fig1_prefix_is_deadlock_prefix;
    Alcotest.test_case "fig1 deadlocks" `Quick test_fig1_deadlocks;
    Alcotest.test_case "fig1 reduction arcs" `Quick test_fig1_reduction_arcs;
    Alcotest.test_case "centralized witness (§3)" `Quick
      test_centralized_witness;
    Alcotest.test_case "fig2: Tirri misses the deadlock" `Quick
      test_fig2_tirri_misses_deadlock;
    Alcotest.test_case "fig2: >2-entity cycle" `Quick
      test_fig2_four_entity_cycle;
    Alcotest.test_case "tirri finds classic pair" `Quick
      test_tirri_finds_classic_pair;
    Alcotest.test_case "fig3" `Quick test_fig3;
    Alcotest.test_case "fig6" `Quick test_fig6;
    Alcotest.test_case "guard ring parity" `Quick test_guard_ring_parity;
  ]
  @ qtests
  @ [
      Alcotest.test_case "hold-and-wait certificate on the figures" `Quick
        test_hold_wait_fixtures;
      Fixtures.to_alcotest hold_wait_sound_prop;
      Fixtures.to_alcotest hold_wait_rows_prop;
    ]
