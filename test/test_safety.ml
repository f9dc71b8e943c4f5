open Ddlock_model
open Ddlock_schedule
open Ddlock_safety

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Theorem 3 (pair test)                                               *)
(* ------------------------------------------------------------------ *)

let test_pair_chain () =
  let t1, t2 = Ddlock_workload.Gentx.chain_pair 5 in
  check bool_t "same-order 2PL chains are safe&DF" true
    (Pair.safe_and_deadlock_free t1 t2)

let test_pair_opposed () =
  let t1, t2 = Ddlock_workload.Gentx.opposed_chain_pair 3 in
  (match Pair.check t1 t2 with
  | Error (Pair.No_common_first _) -> ()
  | Error (Pair.Unguarded _) -> Alcotest.fail "expected No_common_first"
  | Ok () -> Alcotest.fail "opposed chains must fail");
  check bool_t "exhaustive agrees" false
    (Result.is_ok (Explore.safe_and_deadlock_free (System.create [ t1; t2 ])))

let test_pair_unguarded () =
  (* Same first entity but an early unlock leaves y unguarded:
     T1 = La Ua Lb Ub (not 2PL), T2 = La Lb Ua Ub. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t1 = Builder.total_exn db Builder.[ L "a"; U "a"; L "b"; U "b" ] in
  let t2 = Builder.two_phase_chain db [ "a"; "b" ] in
  (match Pair.check t1 t2 with
  | Error (Pair.Unguarded { y; _ }) ->
      check Alcotest.string "y is b" "b" (Db.entity_name db y)
  | Error (Pair.No_common_first _) -> Alcotest.fail "expected Unguarded"
  | Ok () -> Alcotest.fail "must fail");
  check bool_t "exhaustive agrees" false
    (Result.is_ok (Explore.safe_and_deadlock_free (System.create [ t1; t2 ])))

(* A failure names the pair's own transactions, in the pair's order. *)
let test_pair_failure_names () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let show f = Format.asprintf "%a" (Pair.pp_failure db ("T3", "T5")) f in
  let a = Db.find_entity_exn db "a" and b = Db.find_entity_exn db "b" in
  check Alcotest.string "no common first"
    "no common first lock: T3 can lock a first while T5 locks b first"
    (show (Pair.No_common_first { first1 = a; first2 = b }));
  check Alcotest.string "unguarded in the second"
    "entity b is unguarded: L_T5(Lb) ∩ R_T3(Lb) = ∅"
    (show (Pair.Unguarded { y = b; in_txn = 1 }))

let test_pair_disjoint () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t1 = Builder.two_phase_chain db [ "a" ] in
  let t2 = Builder.two_phase_chain db [ "b" ] in
  check bool_t "disjoint pairs trivially pass" true
    (Pair.safe_and_deadlock_free t1 t2)

let test_common_first () =
  let t1, t2 = Ddlock_workload.Gentx.chain_pair 3 in
  let db = Transaction.db t1 in
  (match Pair.common_first t1 t2 with
  | Some x -> check Alcotest.string "e0 first" "e0" (Db.entity_name db x)
  | None -> Alcotest.fail "expected common first");
  let o1, o2 = Ddlock_workload.Gentx.opposed_chain_pair 3 in
  check bool_t "opposed: none" true (Pair.common_first o1 o2 = None)

(* ------------------------------------------------------------------ *)
(* Theorem 3 and Theorem 4's prefix step on entity rows vs node sets   *)
(* ------------------------------------------------------------------ *)

(* Theorem 3 as first written, node by node on the stored closure with
   [Transaction.l_set] and [r_set]: the reference for [Pair.check] on
   entity rows. *)
module Ref_pair = struct
  open Ddlock_graph

  let common t1 t2 =
    Bitset.inter (Transaction.entity_set t1) (Transaction.entity_set t2)

  let has_common t1 t2 = not (Bitset.is_empty (common t1 t2))

  let minimal_common t r =
    Bitset.fold
      (fun y acc ->
        let ly = Transaction.lock_node_exn t y in
        let dominated =
          Bitset.exists
            (fun z ->
              z <> y
              && Transaction.precedes t (Transaction.lock_node_exn t z) ly)
            r
        in
        if dominated then acc else y :: acc)
      r []

  let common_first t1 t2 =
    let r = common t1 t2 in
    if Bitset.is_empty r then None
    else
      let is_first t x =
        let lx = Transaction.lock_node_exn t x in
        Bitset.for_all
          (fun y ->
            y = x || Transaction.precedes t lx (Transaction.lock_node_exn t y))
          r
      in
      Bitset.fold
        (fun x acc ->
          match acc with
          | Some _ -> acc
          | None -> if is_first t1 x && is_first t2 x then Some x else None)
        r None

  let guard t other y =
    let ly_t = Transaction.lock_node_exn t y in
    let ly_o = Transaction.lock_node_exn other y in
    Bitset.inter (Transaction.l_set t ly_t) (Transaction.r_set other ly_o)

  let check t1 t2 =
    let r = common t1 t2 in
    if Bitset.is_empty r then Ok ()
    else
      match common_first t1 t2 with
      | None ->
          let m1 = minimal_common t1 r and m2 = minimal_common t2 r in
          let first1, first2 =
            match (m1, m2) with
            | y :: _, z :: _ when y <> z -> (y, z)
            | y :: rest1, z :: rest2 -> (
                match (rest1, rest2) with
                | w :: _, _ -> (w, z)
                | _, w :: _ -> (y, w)
                | [], [] -> (y, z))
            | _ -> assert false
          in
          Error (Pair.No_common_first { first1; first2 })
      | Some x -> (
          let bad =
            Bitset.fold
              (fun y acc ->
                match acc with
                | Some _ -> acc
                | None ->
                    if y = x then None
                    else if Bitset.is_empty (guard t1 t2 y) then
                      Some (Pair.Unguarded { y; in_txn = 0 })
                    else if Bitset.is_empty (guard t2 t1 y) then
                      Some (Pair.Unguarded { y; in_txn = 1 })
                    else None)
              r None
          in
          match bad with None -> Ok () | Some f -> Error f)
end

(* Theorem 4 as first written: every pair by [Ref_pair.check], then for
   each rotation of each directed cycle the prefixes T*ᵢ built as node
   sets with [Transaction.max_prefix_avoiding] and [y_set], every avoid
   set afresh.  The reference for [Many.check] on entity rows. *)
module Ref_many = struct
  open Ddlock_graph

  let rotate l r =
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | [] -> List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
    in
    split r [] l

  let try_cycle sys order =
    let txs = Array.of_list order in
    let k = Array.length txs in
    let tx i = System.txn sys txs.(i) in
    let ne = Db.entity_count (System.db sys) in
    let x i = Option.get (Ref_pair.common_first (tx i) (tx ((i + 1) mod k))) in
    (* Positions i+2 round to i-2, to i-1 for i = 0. *)
    let avoided i j =
      j <> i
      && j <> (i + 1) mod k
      && (i = 0 || j <> i - 1)
      && not (i = k - 1 && j = 0)
    in
    let prefixes = Array.make k (Bitset.create 0) in
    let rec from i =
      i >= k
      ||
      let avoid = Bitset.create ne in
      for j = 0 to k - 1 do
        if avoided i j then
          Bitset.union_into ~into:avoid (Transaction.entity_set (tx j))
      done;
      if i > 0 then
        Bitset.union_into ~into:avoid
          (Transaction.y_set (tx (i - 1)) prefixes.(i - 1));
      let p = Transaction.max_prefix_avoiding (tx i) avoid in
      prefixes.(i) <- p;
      Bitset.mem p (Transaction.lock_node_exn (tx i) (x i)) && from (i + 1)
    in
    if not (from 0) then None
    else
      let extension i =
        List.filter (Bitset.mem prefixes.(i))
          (Array.to_list (Transaction.order (tx i)))
      in
      let schedule =
        List.concat
          (List.init k (fun i -> List.map (Step.v txs.(i)) (extension i)))
      in
      Some { Many.cycle = order; prefixes; schedule }

  let check sys =
    let n = System.size sys in
    let pairs =
      List.concat
        (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + 1 + d))))
    in
    let failing =
      List.find_map
        (fun (i, j) ->
          let ti = System.txn sys i and tj = System.txn sys j in
          if not (Ref_pair.has_common ti tj) then None
          else
            match Ref_pair.check ti tj with
            | Ok () -> None
            | Error failure -> Some (Many.Pair_fails { i; j; failure }))
        pairs
    in
    match failing with
    | Some v -> v
    | None -> (
        let rotations cycle =
          List.init (List.length cycle) (rotate cycle)
          |> List.find_map (try_cycle sys)
        in
        match
          Seq.find_map rotations
            (Ddlock_graph.Ungraph.directed_cycles
               (System.interaction_graph sys))
        with
        | Some w -> Many.Cycle_fails w
        | None -> Many.Safe_and_deadlock_free)
end

(* Each entity row holds exactly the entities its definition names,
   read off the stored closure. *)
let entity_rows_prop =
  QCheck.Test.make ~name:"entity rows = closure definitions" ~count:300
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let sys = Fixtures.decider_system seed in
      let ne = Db.entity_count (System.db sys) in
      Array.for_all
        (fun t ->
          let a = Transaction.rows t and acc = Transaction.accesses t in
          let l = Transaction.lock_node_exn t and u = Transaction.unlock_node_exn t in
          let prec = Transaction.precedes t in
          let row o y = Ddlock_graph.Rows.mem a o y in
          List.for_all
            (fun y ->
              row (Transaction.entity_row t) y = acc y
              && List.for_all
                   (fun x ->
                     (not (acc x))
                     || row (Transaction.locks_after t x) y = (acc y && prec (l x) (l y))
                        && row (Transaction.unlocks_after t x) y
                           = (acc y && prec (l x) (u y))
                        && row (Transaction.locks_before t x) y
                           = (acc y && prec (l y) (l x))
                        && row (Transaction.locks_before_unlock t x) y
                           = (acc y && prec (l y) (u x)))
                   (List.init ne Fun.id))
            (List.init ne Fun.id))
        (System.txns sys))

let pair_rows_prop =
  QCheck.Test.make
    ~name:"Theorem 3 on entity rows = node-set reference, failures included"
    ~count:500
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let sys = Fixtures.decider_system seed in
      let n = System.size sys in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let ti = System.txn sys i and tj = System.txn sys j in
          if
            Pair.check ti tj <> Ref_pair.check ti tj
            || Pair.common_first ti tj <> Ref_pair.common_first ti tj
            || Pair.has_common ti tj <> Ref_pair.has_common ti tj
          then ok := false
        done
      done;
      !ok)

let many_rows_prop =
  QCheck.Test.make
    ~name:"Theorem 4 on entity rows = node-set reference, witnesses included"
    ~count:500
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let sys = Fixtures.decider_system seed in
      Many.check sys = Ref_many.check sys)

(* Rows of three words: the same verdict text as without the padding. *)
let test_wide_rows () =
  let module G = Ddlock_workload.Gentx in
  let text sys = Format.asprintf "%a" (Many.pp_verdict sys) (Many.check sys) in
  List.iter
    (fun (name, sys) ->
      let narrow = G.widen ~pad:0 sys and wide = G.widen ~pad:130 sys in
      check int_t (name ^ ": three words") 3
        (Transaction.row_words (System.txn wide 0));
      check Alcotest.string (name ^ ": verdict") (text narrow) (text wide);
      check bool_t (name ^ ": reference") true
        (Many.check wide = Ref_many.check wide))
    [
      ("philosophers", G.dining_philosophers 5);
      ("fig6 x3", System.copies (Fixtures.fig6_txn ()) 3);
      ("opposed", System.create (let a, b = G.opposed_chain_pair 3 in [ a; b ]));
      ("chains", System.create (let a, b = G.chain_pair 4 in [ a; b ]));
    ]

(* The headline agreement property: Theorem 3 ≡ exhaustive Lemma-1 search
   on random distributed pairs. *)
let theorem3_agreement_prop =
  QCheck.Test.make
    ~name:"Theorem 3 = exhaustive safe∧DF (random distributed pairs)"
    ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      let fast =
        Pair.safe_and_deadlock_free (System.txn sys 0) (System.txn sys 1)
      in
      let slow = Result.is_ok (Explore.safe_and_deadlock_free sys) in
      fast = slow)

let minimal_prefix_agreement_prop =
  QCheck.Test.make ~name:"O(n³) minimal-prefix decider = Theorem 3" ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      let t1 = System.txn sys 0 and t2 = System.txn sys 1 in
      Minimal_prefix.safe_and_deadlock_free t1 t2
      = Pair.safe_and_deadlock_free t1 t2)

(* ------------------------------------------------------------------ *)
(* Lemma 2 (centralized pairs)                                         *)
(* ------------------------------------------------------------------ *)

let centralized_pair st =
  let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:4 in
  let mk () =
    Ddlock_workload.Gentx.random_transaction st db
      ~entities:
        (Ddlock_workload.Gentx.random_entity_subset st db
           ~k:(1 + Random.State.int st 4))
      ~density:0.2
  in
  (db, mk (), mk ())

let lemma2_agreement_prop =
  QCheck.Test.make ~name:"Lemma 2 = exhaustive (centralized pairs)" ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let _, t1, t2 = centralized_pair st in
      let fast = Lemma2.safe_and_deadlock_free t1 t2 in
      let slow =
        Result.is_ok (Explore.safe_and_deadlock_free (System.create [ t1; t2 ]))
      in
      fast = slow)

let lemma2_vs_theorem3_prop =
  QCheck.Test.make ~name:"Theorem 3 restricted to total orders = Lemma 2"
    ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let _, t1, t2 = centralized_pair st in
      Lemma2.safe_and_deadlock_free t1 t2 = Pair.safe_and_deadlock_free t1 t2)

(* The pairwise definition of a total order, which [Lemma2.is_total]
   replaced by one pass over the stored topological order. *)
let ref_is_total t =
  let n = Transaction.node_count t in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (Transaction.precedes t u v)) && not (Transaction.precedes t v u)
      then ok := false
    done
  done;
  !ok

let is_total_prop =
  QCheck.Test.make ~name:"Lemma2.is_total = pairwise reference" ~count:300
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db =
        Ddlock_workload.Gentx.random_db ~sites:(1 + (seed mod 3)) ~entities:4
      in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:
            (Ddlock_workload.Gentx.random_entity_subset st db
               ~k:(1 + Random.State.int st 4))
          ~density:(Random.State.float st 1.0)
      in
      Lemma2.is_total t = ref_is_total t)

let test_lemma2_requires_total () =
  let _, t = Fixtures.fig3_txn () in
  check bool_t "fig3 txn is partial" false (Lemma2.is_total t);
  Alcotest.check_raises "raises"
    (Invalid_argument "Lemma2.check: transactions must be total orders")
    (fun () -> ignore (Lemma2.check t t))

(* ------------------------------------------------------------------ *)
(* Corollary 3 / Theorem 5 (copies)                                    *)
(* ------------------------------------------------------------------ *)

let test_copies_chain () =
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let t = Builder.two_phase_chain db [ "a"; "b"; "c" ] in
  check bool_t "2PL chain copies ok" true (Copies.safe_and_deadlock_free t)

let test_copies_failures () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  (* Early unlock: a no longer guards b at Lb?  La Ua Lb Ub: no guard. *)
  let t = Builder.total_exn db Builder.[ L "a"; U "a"; L "b"; U "b" ] in
  (match Copies.check t with
  | Error (Copies.Unguarded y) ->
      check Alcotest.string "b unguarded" "b" (Db.entity_name db y)
  | _ -> Alcotest.fail "expected Unguarded");
  (* Fig 3 transaction: Lx and Ly incomparable: no first lock. *)
  let _, t3 = Fixtures.fig3_txn () in
  match Copies.check t3 with
  | Error Copies.No_first_lock -> ()
  | _ -> Alcotest.fail "expected No_first_lock"

let copies_vs_pair_prop =
  QCheck.Test.make ~name:"Corollary 3 = Theorem 3 on two copies" ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:2 ~entities:4 in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:
            (Ddlock_workload.Gentx.random_entity_subset st db
               ~k:(1 + Random.State.int st 4))
          ~density:0.3
      in
      Copies.safe_and_deadlock_free t = Pair.safe_and_deadlock_free t t)

let theorem5_prop =
  QCheck.Test.make
    ~name:"Theorem 5: 3 copies safe∧DF ⇔ 2 copies safe∧DF (exhaustive)"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:2 ~entities:3 in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:
            (Ddlock_workload.Gentx.random_entity_subset st db
               ~k:(1 + Random.State.int st 2))
          ~density:0.3
      in
      let two = Result.is_ok (Explore.safe_and_deadlock_free (System.copies t 2)) in
      let three =
        Result.is_ok (Explore.safe_and_deadlock_free (System.copies t 3))
      in
      (two = three) && Copies.safe_and_deadlock_free t = two)

(* ------------------------------------------------------------------ *)
(* Theorem 4 (many transactions)                                       *)
(* ------------------------------------------------------------------ *)

let test_philosophers () =
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  (* Pairwise: every pair shares exactly one entity, hence safe&DF. *)
  for i = 0 to 2 do
    for j = i + 1 to 2 do
      check bool_t
        (Printf.sprintf "pair %d %d" i j)
        true
        (Pair.safe_and_deadlock_free (System.txn sys i) (System.txn sys j))
    done
  done;
  match Many.check sys with
  | Many.Cycle_fails w ->
      check int_t "cycle length 3" 3 (List.length w.Many.cycle);
      (* The witness S* must be a legal partial schedule with cyclic D. *)
      check bool_t "S* legal" true (Schedule.is_legal sys w.Many.schedule);
      check bool_t "D(S*) cyclic" false
        (Dgraph.is_serializable sys w.Many.schedule);
      (* And the system really does deadlock. *)
      check bool_t "deadlocks" false (Explore.deadlock_free sys)
  | v ->
      Alcotest.failf "expected Cycle_fails, got %s"
        (Format.asprintf "%a" (Many.pp_verdict sys) v)

let test_philosophers_sizes () =
  List.iter
    (fun k ->
      let sys = Ddlock_workload.Gentx.dining_philosophers k in
      check bool_t
        (Printf.sprintf "philosophers %d not safe&DF" k)
        false (Many.safe_and_deadlock_free sys))
    [ 3; 4; 5; 6 ]

let test_many_pair_failure_detected () =
  let t1, t2 = Ddlock_workload.Gentx.opposed_chain_pair 3 in
  let db = Transaction.db t1 in
  let t3 = Builder.two_phase_chain db [ "e0" ] in
  match Many.check (System.create [ t1; t2; t3 ]) with
  | Many.Pair_fails { i = 0; j = 1; _ } -> ()
  | v ->
      Alcotest.failf "expected Pair_fails(0,1), got %s"
        (Format.asprintf "%a"
           (Many.pp_verdict (System.create [ t1; t2; t3 ]))
           v)

let test_many_safe_system () =
  (* k transactions all locking in the same global order: safe&DF. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let sys =
    System.create
      [
        Builder.two_phase_chain db [ "a"; "b"; "c" ];
        Builder.two_phase_chain db [ "a"; "b" ];
        Builder.two_phase_chain db [ "a"; "c" ];
      ]
  in
  check bool_t "verdict" true (Many.safe_and_deadlock_free sys);
  check bool_t "exhaustive agrees" true
    (Result.is_ok (Explore.safe_and_deadlock_free sys))

let theorem4_agreement_prop =
  QCheck.Test.make ~name:"Theorem 4 = exhaustive (random 3-txn systems)"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Many.safe_and_deadlock_free sys
      = Result.is_ok (Explore.safe_and_deadlock_free sys))

let theorem4_agreement_4txn_prop =
  QCheck.Test.make ~name:"Theorem 4 = exhaustive (random 4-txn systems)"
    ~count:25
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:4 in
      Many.safe_and_deadlock_free sys
      = Result.is_ok (Explore.safe_and_deadlock_free sys))

let theorem4_witness_prop =
  QCheck.Test.make
    ~name:"Theorem 4 cycle witness: S* legal with cyclic D" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      match Many.check sys with
      | Many.Cycle_fails w ->
          Schedule.is_legal sys w.Many.schedule
          && not (Dgraph.is_serializable sys w.Many.schedule)
      | _ -> true)

let test_theorem4_predecessor_relock_regression () =
  (* Found by bin/fuzz.exe (seed 1, round 89): the canonical prefix of a
     cycle transaction may relock entities its predecessor's prefix has
     already unlocked; an avoid-set that includes the predecessor's full
     entity set misses this witness.  T2 must be allowed to lock e2
     (released by T3's prefix) and then e0. *)
  let db = Db.one_site_per_entity [ "e0"; "e1"; "e2" ] in
  let t1 =
    Builder.transaction_exn db
      ~chains:Builder.[ [ L "e0"; U "e0" ]; [ L "e1"; U "e1" ] ]
      ()
  in
  let t2 =
    Builder.transaction_exn db
      ~chains:Builder.[ [ L "e2"; L "e0"; U "e0"; U "e2" ] ]
      ()
  in
  let t3 =
    Builder.transaction_exn db
      ~chains:Builder.[ [ L "e2"; L "e1"; U "e1" ] ]
      ()
  in
  let sys = System.create [ t1; t2; t3 ] in
  check bool_t "exhaustive: not safe&df" false
    (Result.is_ok (Explore.safe_and_deadlock_free sys));
  match Many.check sys with
  | Many.Cycle_fails w ->
      check bool_t "witness legal" true (Schedule.is_legal sys w.Many.schedule);
      check bool_t "witness cyclic D" false
        (Dgraph.is_serializable sys w.Many.schedule)
  | v ->
      Alcotest.failf "expected Cycle_fails, got %s"
        (Format.asprintf "%a" (Many.pp_verdict sys) v)

let test_candidate_count () =
  (* Philosophers ring of k: exactly one undirected cycle, 2 directions,
     k last-choices each. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 5 in
  check int_t "ring candidates" 10 (Many.candidate_count sys)

(* ------------------------------------------------------------------ *)
(* Geometry ([LP]/[SW] technique, centralized pairs)                   *)
(* ------------------------------------------------------------------ *)

let test_geometry_known () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let chain = Builder.two_phase_chain db [ "a"; "b" ] in
  let opposed = Builder.two_phase_chain db [ "b"; "a" ] in
  check bool_t "chains df" true (Geometry.deadlock_free chain chain);
  check bool_t "chains safe" true (Geometry.safe chain chain);
  check bool_t "opposed deadlocks" false (Geometry.deadlock_free chain opposed);
  (* 2PL pairs are always safe even when they deadlock. *)
  check bool_t "opposed safe (2PL)" true (Geometry.safe chain opposed);
  (* The early-unlock shape: deadlock-free but unsafe. *)
  let t1 = Builder.total_exn db Builder.[ L "a"; U "a"; L "b"; U "b" ] in
  check bool_t "early-unlock pair df" true (Geometry.deadlock_free t1 chain);
  check bool_t "early-unlock pair unsafe" false (Geometry.safe t1 chain)

let test_geometry_deadlock_point () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let chain = Builder.two_phase_chain db [ "a"; "b" ] in
  let opposed = Builder.two_phase_chain db [ "b"; "a" ] in
  match Geometry.find_deadlock_point chain opposed with
  | Some (i, j) ->
      (* Trapped exactly after each grabbed its first lock. *)
      check (Alcotest.pair int_t int_t) "trap point" (1, 1) (i, j)
  | None -> Alcotest.fail "expected a deadlock point"

let geometry_df_agreement_prop =
  QCheck.Test.make
    ~name:"geometric deadlock test = exhaustive (centralized pairs)"
    ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let _, t1, t2 = centralized_pair st in
      Geometry.deadlock_free t1 t2
      = Explore.deadlock_free (System.create [ t1; t2 ]))

let geometry_safe_agreement_prop =
  QCheck.Test.make
    ~name:"geometric safety test = exhaustive (centralized pairs)" ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let _, t1, t2 = centralized_pair st in
      Geometry.safe t1 t2
      = Result.is_ok (Explore.safe (System.create [ t1; t2 ])))

let geometry_vs_lemma2_prop =
  QCheck.Test.make ~name:"geometric conjunction = Lemma 2" ~count:150
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let _, t1, t2 = centralized_pair st in
      Geometry.safe_and_deadlock_free t1 t2
      = Lemma2.safe_and_deadlock_free t1 t2)

let qtests =
  List.map Fixtures.to_alcotest
    [
      theorem3_agreement_prop;
      minimal_prefix_agreement_prop;
      lemma2_agreement_prop;
      lemma2_vs_theorem3_prop;
      copies_vs_pair_prop;
      theorem5_prop;
      theorem4_agreement_prop;
      theorem4_agreement_4txn_prop;
      theorem4_witness_prop;
      geometry_df_agreement_prop;
      geometry_safe_agreement_prop;
      geometry_vs_lemma2_prop;
    ]

let suite =
  [
    Alcotest.test_case "pair: chains" `Quick test_pair_chain;
    Alcotest.test_case "pair: opposed" `Quick test_pair_opposed;
    Alcotest.test_case "pair: unguarded" `Quick test_pair_unguarded;
    Alcotest.test_case "pair: disjoint" `Quick test_pair_disjoint;
    Alcotest.test_case "common first" `Quick test_common_first;
    Alcotest.test_case "lemma2 requires total" `Quick
      test_lemma2_requires_total;
    Alcotest.test_case "copies: chain" `Quick test_copies_chain;
    Alcotest.test_case "copies: failures" `Quick test_copies_failures;
    Alcotest.test_case "theorem4: philosophers" `Quick test_philosophers;
    Alcotest.test_case "theorem4: philosopher sizes" `Quick
      test_philosophers_sizes;
    Alcotest.test_case "theorem4: pair failure" `Quick
      test_many_pair_failure_detected;
    Alcotest.test_case "theorem4: safe system" `Quick test_many_safe_system;
    Alcotest.test_case "theorem4: candidate count" `Quick test_candidate_count;
    Alcotest.test_case "theorem4: predecessor relock regression" `Quick
      test_theorem4_predecessor_relock_regression;
    Alcotest.test_case "geometry: known pairs" `Quick test_geometry_known;
    Alcotest.test_case "geometry: deadlock point" `Quick
      test_geometry_deadlock_point;
  ]
  @ qtests
  @ [
      Alcotest.test_case "pair: failure names" `Quick test_pair_failure_names;
      Fixtures.to_alcotest is_total_prop;
      Fixtures.to_alcotest entity_rows_prop;
      Fixtures.to_alcotest pair_rows_prop;
      Fixtures.to_alcotest many_rows_prop;
      Alcotest.test_case "entity rows of three words" `Quick test_wide_rows;
    ]
