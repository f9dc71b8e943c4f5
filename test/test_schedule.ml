open Ddlock_graph
open Ddlock_model
open Ddlock_schedule
module Reduction = Ddlock_deadlock.Reduction

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let simple_pair () =
  (* Two 2PL chains over the same two entities, same order: safe & DF. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t = Builder.two_phase_chain db [ "a"; "b" ] in
  System.create [ t; Builder.two_phase_chain db [ "a"; "b" ] ]

let opposed_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "b"; "a" ];
    ]

let steps_of sys spec =
  (* spec: (txn, op, entity-name) list *)
  List.map
    (fun (i, op, name) ->
      let tx = System.txn sys i in
      let e = Db.find_entity_exn (System.db sys) name in
      let node =
        match op with
        | `L -> Transaction.lock_node_exn tx e
        | `U -> Transaction.unlock_node_exn tx e
      in
      Step.v i node)
    spec

(* ------------------------------------------------------------------ *)
(* Legality                                                            *)
(* ------------------------------------------------------------------ *)

let test_serial_legal () =
  let sys = simple_pair () in
  let s = Schedule.serial sys [ 0; 1 ] in
  check bool_t "legal" true (Schedule.is_legal sys s);
  check bool_t "complete" true (Schedule.is_complete sys s);
  check bool_t "serializable" true (Dgraph.is_serializable sys s)

let test_lock_respected () =
  let sys = simple_pair () in
  (* T1 locks a; T2 tries to lock a while held. *)
  let s = steps_of sys [ (0, `L, "a"); (1, `L, "a") ] in
  (match Schedule.check sys s with
  | Error (Schedule.Lock_held (st, holder)) ->
      check int_t "holder" 0 holder;
      check int_t "txn" 1 st.Step.txn
  | _ -> Alcotest.fail "expected Lock_held");
  (* After unlock it is fine. *)
  let s =
    steps_of sys
      [ (0, `L, "a"); (0, `L, "b"); (0, `U, "a"); (1, `L, "a") ]
  in
  check bool_t "relock after unlock" true (Schedule.is_legal sys s)

let test_precedence_respected () =
  let sys = simple_pair () in
  let s = steps_of sys [ (0, `L, "b") ] in
  (* In the 2PL chain La < Lb, so Lb first is Not_minimal. *)
  (match Schedule.check sys s with
  | Error (Schedule.Not_minimal _) -> ()
  | _ -> Alcotest.fail "expected Not_minimal");
  let s = steps_of sys [ (0, `L, "a"); (0, `L, "a") ] in
  (match Schedule.check sys s with
  | Error (Schedule.Node_repeated _) -> ()
  | _ -> Alcotest.fail "expected Node_repeated")

(* ------------------------------------------------------------------ *)
(* D(S)                                                                *)
(* ------------------------------------------------------------------ *)

let test_dgraph_serial () =
  let sys = simple_pair () in
  let s = Schedule.serial sys [ 0; 1 ] in
  let g = Dgraph.graph sys s in
  check bool_t "0 -> 1" true (Digraph.mem_edge g 0 1);
  check bool_t "no 1 -> 0" false (Digraph.mem_edge g 1 0)

let test_dgraph_partial_includes_unlocked_accessors () =
  let sys = simple_pair () in
  (* Only T1's La executed: D must already have T1 -> T2 labelled a. *)
  let s = steps_of sys [ (0, `L, "a") ] in
  let arcs = Dgraph.arcs sys s in
  check int_t "arcs" 1 (List.length arcs);
  let a = List.hd arcs in
  check int_t "src" 0 a.Dgraph.src;
  check int_t "dst" 1 a.Dgraph.dst

let test_dgraph_interleaved_cycle () =
  let sys = opposed_pair () in
  (* T1: La Lb Ua Ub ; T2: Lb La Ub Ua.  Interleave the first locks:
     T1.La, T2.Lb -> arcs T1->T2 (a) and T2->T1 (b): cyclic. *)
  let s = steps_of sys [ (0, `L, "a"); (1, `L, "b") ] in
  check bool_t "cyclic D" false (Dgraph.is_serializable sys s);
  match Dgraph.find_cycle sys s with
  | Some c -> check bool_t "cycle len 2" true (List.length c = 2)
  | None -> Alcotest.fail "expected cycle"

(* ------------------------------------------------------------------ *)
(* Explore                                                             *)
(* ------------------------------------------------------------------ *)

let test_explore_counts () =
  (* Single transaction La Ua: states = 3 (ε, {La}, {La,Ua}). *)
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  let sp = Explore.explore (System.create [ t ]) in
  check int_t "3 states" 3 (Explore.state_count sp);
  (* Two such transactions on the same entity: lock exclusion prunes the
     product: states where both hold a are unreachable. *)
  let sys = System.create [ t; Builder.two_phase_chain db [ "a" ] ] in
  let sp = Explore.explore sys in
  check int_t "8 states" 8 (Explore.state_count sp)

let test_explore_exact_cap () =
  (* The 8-state system of test_explore_counts: a budget of exactly 8
     succeeds, 7 raises Too_large 7 (held states, not an overshoot), and
     0 raises Too_large 0 before the initial state is inserted. *)
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  let sys = System.create [ t; Builder.two_phase_chain db [ "a" ] ] in
  check int_t "exact budget fits" 8
    (Explore.state_count (Explore.explore ~max_states:8 sys));
  (match Explore.explore ~max_states:7 sys with
  | exception Explore.Too_large n -> check int_t "held at raise" 7 n
  | _ -> Alcotest.fail "expected Too_large");
  (match Explore.explore ~max_states:0 sys with
  | exception Explore.Too_large n -> check int_t "no room for init" 0 n
  | _ -> Alcotest.fail "expected Too_large 0")

let test_find_deadlock_exact_cap () =
  (* opposed_pair BFS ranks: init=0, {T1:La}=1, {T2:Lb}=2, deadlock
     {T1:La | T2:Lb}=3 — {T1:La Lb} is not stored, since T1 has run its
     last contended Lock and no deadlock can follow — so 4 states
     suffice, 3 do not. *)
  let sys = opposed_pair () in
  (match Explore.find_deadlock ~max_states:4 sys with
  | Some (_, st) -> check bool_t "deadlock at the cap" true
        (State.is_deadlock sys st)
  | None -> Alcotest.fail "expected a deadlock within 4 states");
  match Explore.find_deadlock ~max_states:3 sys with
  | exception Explore.Too_large n -> check int_t "held at raise" 3 n
  | _ -> Alcotest.fail "expected Too_large"

let test_explore_bfs_target () =
  let sys = simple_pair () in
  let target = State.final sys in
  (match Explore.has_schedule sys target with
  | None -> Alcotest.fail "final state unreachable"
  | Some steps ->
      check bool_t "legal" true (Schedule.is_legal sys steps);
      check bool_t "complete" true (Schedule.is_complete sys steps);
      check bool_t "reaches the target" true
        (State.equal (Schedule.prefix_vector sys steps) target));
  check bool_t "reachable" true
    (Explore.is_reachable (Explore.explore sys) target)

let test_deadlock_found () =
  let sys = opposed_pair () in
  match Explore.find_deadlock sys with
  | None -> Alcotest.fail "opposed pair must deadlock"
  | Some (steps, st) ->
      check bool_t "schedule legal" true (Schedule.is_legal sys steps);
      check bool_t "state is deadlock" true (State.is_deadlock sys st);
      check bool_t "prefix vector matches" true
        (State.equal (Schedule.prefix_vector sys steps) st)

let test_deadlock_free_simple () =
  check bool_t "same-order 2PL is deadlock free" true
    (Explore.deadlock_free (simple_pair ()))

let test_safe_and_df () =
  (match Explore.safe_and_deadlock_free (simple_pair ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "simple pair must be safe&DF");
  match Explore.safe_and_deadlock_free (opposed_pair ()) with
  | Ok () -> Alcotest.fail "opposed pair must fail"
  | Error cex ->
      check bool_t "cex schedule legal" true
        (Schedule.is_legal (opposed_pair ()) cex.Explore.steps);
      check bool_t "cex cycle nonempty" true (cex.Explore.cycle <> [])

let test_safety_alone () =
  (* Non-2PL pair that is unsafe: T1 = La Ua Lb Ub, T2 = La Lb Ua Ub...
     classic: T1 unlocks a before locking b; T2 can sneak in between. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t1 = Builder.total_exn db Builder.[ L "a"; U "a"; L "b"; U "b" ] in
  let t2 = Builder.two_phase_chain db [ "a"; "b" ] in
  let sys = System.create [ t1; t2 ] in
  (match Explore.safe sys with
  | Ok () -> Alcotest.fail "expected unsafe"
  | Error cex ->
      check bool_t "complete" true (Schedule.is_complete sys cex.Explore.steps);
      check bool_t "not serializable" false
        (Dgraph.is_serializable sys cex.Explore.steps));
  (* 2PL systems are always safe (Eswaran et al.): *)
  check bool_t "2PL safe" true (Result.is_ok (Explore.safe (opposed_pair ())))

let test_has_schedule () =
  let sys = opposed_pair () in
  (* Target: both transactions executed their first Lock. *)
  let target = State.initial sys in
  let la0 =
    Transaction.lock_node_exn (System.txn sys 0)
      (Db.find_entity_exn (System.db sys) "a")
  in
  let lb1 =
    Transaction.lock_node_exn (System.txn sys 1)
      (Db.find_entity_exn (System.db sys) "b")
  in
  Bitset.set target.(0) la0;
  Bitset.set target.(1) lb1;
  (match Explore.has_schedule sys target with
  | None -> Alcotest.fail "prefix must have a schedule"
  | Some steps ->
      check bool_t "legal" true (Schedule.is_legal sys steps);
      check bool_t "reaches target" true
        (State.equal (Schedule.prefix_vector sys steps) target));
  (* An illegal target: both hold a simultaneously. *)
  let bad = State.initial sys in
  Bitset.set bad.(0) la0;
  let la1 =
    Transaction.lock_node_exn (System.txn sys 1)
      (Db.find_entity_exn (System.db sys) "a")
  in
  Bitset.set bad.(1)
    (Transaction.lock_node_exn (System.txn sys 1)
       (Db.find_entity_exn (System.db sys) "b"));
  Bitset.set bad.(1) la1;
  check bool_t "unschedulable prefix" true (Explore.has_schedule sys bad = None)

let test_complete_schedules_count () =
  (* Two independent transactions La Ua / Lb Ub: interleavings of 2+2 =
     C(4,2) = 6. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let sys =
    System.create
      [ Builder.two_phase_chain db [ "a" ]; Builder.two_phase_chain db [ "b" ] ]
  in
  check int_t "6 interleavings" 6 (Explore.count_complete_schedules sys)

let test_random_run () =
  let st = Fixtures.rng 42 in
  let sys = simple_pair () in
  for _ = 1 to 20 do
    match Explore.random_run st sys with
    | Explore.Completed steps ->
        check bool_t "complete" true (Schedule.is_complete sys steps)
    | Explore.Deadlocked _ -> Alcotest.fail "simple pair cannot deadlock"
  done;
  (* The opposed pair must deadlock for SOME seed over many runs. *)
  let sys = opposed_pair () in
  let saw_deadlock = ref false in
  for _ = 1 to 200 do
    match Explore.random_run st sys with
    | Explore.Deadlocked (steps, dstate) ->
        saw_deadlock := true;
        check bool_t "deadlock state" true (State.is_deadlock sys dstate);
        check bool_t "steps legal" true (Schedule.is_legal sys steps)
    | Explore.Completed _ -> ()
  done;
  check bool_t "saw deadlock" true !saw_deadlock

(* Lemma 1 sanity on random systems: the Lemma-1 decider must equal
   (safe alone) ∧ (deadlock-free alone). *)
let lemma1_decomposition_prop =
  QCheck.Test.make ~name:"Lemma 1: safe∧DF = safe × deadlock-free" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      let both = Result.is_ok (Explore.safe_and_deadlock_free sys) in
      let safe = Result.is_ok (Explore.safe sys) in
      let df = Explore.deadlock_free sys in
      both = (safe && df))

(* ------------------------------------------------------------------ *)
(* Narration                                                           *)
(* ------------------------------------------------------------------ *)

let test_narrate () =
  let sys = opposed_pair () in
  let steps = steps_of sys [ (0, `L, "a"); (1, `L, "b") ] in
  let lines = Narrate.narrate sys steps in
  check int_t "3 lines" 3 (List.length lines);
  check bool_t "deadlock status" true (List.mem "DEADLOCK" lines);
  check bool_t "ordering note" true
    (List.exists
       (fun l ->
         l = "T1 locks a  (orders T1 before T2 on a)")
       lines);
  let full = Narrate.explain_deadlock sys steps in
  check bool_t "blocked lines" true
    (List.mem "T1 is blocked: needs b, held by T2" full
    && List.mem "T2 is blocked: needs a, held by T1" full);
  check bool_t "narration is the explanation's prefix" true
    (List.filteri (fun i _ -> i < List.length lines) full = lines);
  check bool_t "illegal schedule rejected" true
    (match Narrate.explain_deadlock sys (steps @ [ List.hd steps ]) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_narrate_complete () =
  let sys = simple_pair () in
  let s = Schedule.serial sys [ 0; 1 ] in
  let lines = Narrate.narrate sys s in
  check bool_t "finished status" true
    (List.mem "all transactions finished" lines);
  check int_t "one line per step + status" (List.length s + 1)
    (List.length lines)

let narrate_linewise_prop =
  QCheck.Test.make ~name:"narration length & status match the run" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      match Explore.random_run st sys with
      | Explore.Completed steps ->
          let lines = Narrate.narrate sys steps in
          List.length lines = List.length steps + 1
          && List.mem "all transactions finished" lines
      | Explore.Deadlocked (steps, _) ->
          List.mem "DEADLOCK" (Narrate.narrate sys steps))

let sched_text_roundtrip_prop =
  QCheck.Test.make ~name:"schedule text round-trips" ~count:80
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let steps =
        match Explore.random_run st sys with
        | Explore.Completed s | Explore.Deadlocked (s, _) -> s
      in
      match Sched_text.parse sys (Sched_text.to_text sys steps) with
      | Ok steps' -> steps = steps'
      | Error _ -> false)

let test_sched_text_errors () =
  let sys = simple_pair () in
  let bad = [ "T9 L a"; "T1 X a"; "T1 L nope"; "garbage" ] in
  List.iter
    (fun line ->
      match Sched_text.parse sys line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" line)
    bad;
  (* Comments and blanks are fine. *)
  match Sched_text.parse sys "# c

T1 L a
" with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "expected one step"

(* ------------------------------------------------------------------ *)
(* Search kernel against reference definitions                         *)
(* ------------------------------------------------------------------ *)

(* The definitions the allocation-free kernel replaced, written
   directly from §3: minimal nodes by filtering over the given arcs,
   enabled steps through [State.holder], deadlock by checking every
   minimal node of every unfinished transaction. *)
let ref_minimal_remaining tx p =
  List.filter
    (fun u ->
      (not (Bitset.mem p u))
      && Array.for_all (Bitset.mem p)
           (Digraph.pred (Transaction.given_arcs tx) u))
    (List.init (Transaction.node_count tx) Fun.id)

let ref_enabled sys st =
  let steps = ref [] in
  for i = System.size sys - 1 downto 0 do
    let tx = System.txn sys i in
    List.iter
      (fun v ->
        let nd = Transaction.node tx v in
        let ok =
          match nd.Node.op with
          | Node.Unlock -> true
          | Node.Lock -> (
              match State.holder sys st nd.Node.entity with
              | None -> true
              | Some j -> j = i)
        in
        if ok then steps := Step.v i v :: !steps)
      (ref_minimal_remaining tx st.(i))
  done;
  !steps

let ref_is_deadlock sys st =
  let unfinished =
    List.filter
      (fun i -> not (State.finished sys st i))
      (List.init (System.size sys) Fun.id)
  in
  unfinished <> []
  && List.for_all
       (fun i ->
         let tx = System.txn sys i in
         List.for_all
           (fun v ->
             let nd = Transaction.node tx v in
             nd.Node.op = Node.Lock
             &&
             match State.holder sys st nd.Node.entity with
             | Some j -> j <> i
             | None -> false)
           (ref_minimal_remaining tx st.(i)))
       unfinished

(* A random system of 2–4 transactions and a state reached from the
   initial one by a random walk of random length (it may end early in a
   deadlock or at the final state). *)
let random_reachable seed =
  let rng = Fixtures.rng seed in
  let sys =
    Fixtures.small_random_system rng ~txns:(2 + Random.State.int rng 3)
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec walk st k =
    match State.enabled sys st with
    | [] -> st
    | _ when k = 0 -> st
    | en -> walk (State.apply st (pick en)) (k - 1)
  in
  let len = Random.State.int rng (System.total_nodes sys + 1) in
  (sys, walk (State.initial sys) len)

let kernel_prop name f =
  QCheck.Test.make ~name ~count:300 QCheck.(int_bound 10_000_000) (fun seed ->
      let sys, st = random_reachable seed in
      f sys st)

let deadlock_iff_stuck_prop =
  kernel_prop "is_deadlock = nothing enabled ∧ unfinished" (fun sys st ->
      let d = State.is_deadlock sys st in
      d = (State.enabled sys st = [] && not (State.all_finished sys st))
      && d = ref_is_deadlock sys st)

let minimal_remaining_prop =
  kernel_prop "minimal_remaining = reference filter" (fun sys st ->
      Array.for_all2
        (fun tx p ->
          let m = Transaction.minimal_remaining tx p in
          m = ref_minimal_remaining tx p
          && List.for_all
               (fun u -> Transaction.is_minimal_remaining tx p u = List.mem u m)
               (List.init (Transaction.node_count tx) Fun.id))
        (System.txns sys) st)

let apply_pure_prop =
  kernel_prop "apply leaves its input unchanged" (fun sys st ->
      let before = State.copy st in
      List.for_all
        (fun (s : Step.t) ->
          let st' = State.apply st s in
          let expect = State.copy before in
          Bitset.set expect.(s.txn) s.node;
          State.equal st before && State.equal st' expect)
        (State.enabled sys st))

let enabled_order_prop =
  kernel_prop "enabled = reference order" (fun sys st ->
      State.enabled sys st = ref_enabled sys st)

(* ------------------------------------------------------------------ *)
(* Packed kernel against the State reference                           *)
(* ------------------------------------------------------------------ *)

(* Systems of one to three words per packed state: the small random
   systems, eight copies of the 4-guard ring and 16 philosophers (64
   nodes, two words each), and zipf systems of 64–80 nodes whose
   transactions straddle word boundaries. *)
let packed_system rng =
  let module G = Ddlock_workload.Gentx in
  match Random.State.int rng 5 with
  | 0 -> System.copies (G.guard_ring 4) 8
  | 1 -> G.dining_philosophers 16
  | 2 ->
      G.zipf_system ~entities_per_txn:8 rng ~sites:4 ~entities:12
        ~txns:(4 + Random.State.int rng 2) ~theta:0.8
  | 3 -> G.dining_philosophers 32
  | _ -> Fixtures.small_random_system rng ~txns:(2 + Random.State.int rng 3)

(* A random walk of random length from the initial state, through the
   State reference. *)
let walk rng sys =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let rec go st k =
    match State.enabled sys st with
    | [] -> st
    | _ when k = 0 -> st
    | en -> go (State.apply st (pick en)) (k - 1)
  in
  go (State.initial sys) (Random.State.int rng (System.total_nodes sys + 1))

let packed_prop name f =
  QCheck.Test.make ~name ~count:200 QCheck.(int_bound 10_000_000) (fun seed ->
      let rng = Fixtures.rng seed in
      let sys = packed_system rng in
      let lay = Packed.layout sys in
      f rng sys lay (walk rng sys))

let packed_roundtrip_prop =
  packed_prop "packed: decode (encode st) = st" (fun _ sys lay st ->
      Packed.words lay = (System.total_nodes sys + 61) / 62
      && State.equal (Packed.decode lay (Packed.encode lay st)) st
      && Packed.equal
           (Packed.encode lay (State.initial sys))
           (Packed.initial lay))

let packed_enabled_prop =
  packed_prop "packed: enabled and is_deadlock = State's" (fun _ sys lay st ->
      let p = Packed.encode lay st in
      Packed.enabled lay p = State.enabled sys st
      && Packed.is_deadlock lay p = State.is_deadlock sys st)

let packed_apply_prop =
  packed_prop "packed: decode (apply p s) = State.apply st s" (fun _ sys lay st ->
      let p = Packed.encode lay st in
      let before = Array.copy p in
      List.for_all
        (fun s ->
          State.equal
            (Packed.decode lay (Packed.apply lay p s))
            (State.apply st s)
          && Packed.equal p before)
        (State.enabled sys st))

let packed_equal_hash_prop =
  packed_prop "packed: equal ⇔ State.equal, and equal ⇒ same hash"
    (fun rng sys lay st ->
      let st' = walk rng sys in
      let p = Packed.encode lay st and q = Packed.encode lay st' in
      let p' = Packed.encode lay (State.copy st) in
      Packed.equal p p'
      && Packed.hash p = Packed.hash p'
      && Packed.equal p q = State.equal st st'
      && ((not (Packed.equal p q)) || Packed.hash p = Packed.hash q))

(* The enabled set a search carries from parent to child
   ([Packed.carry_enabled]) equals the one [iter_enabled] recomputes,
   and [enabled_bits] lists it in [iter_enabled] order: checked at
   every step of a random run, on plain layouts, layouts with random
   shared Locks and layouts with D-arc words, of one to three words. *)
let carried_enabled_prop =
  QCheck.Test.make ~name:"packed: carried enabled set = iter_enabled"
    ~count:200 QCheck.(int_bound 10_000_000) (fun seed ->
      let rng = Fixtures.rng seed in
      let sys = packed_system rng in
      let lay =
        match Random.State.int rng 3 with
        | 0 -> Packed.layout sys
        | 1 ->
            let salt = Random.State.bits rng in
            Packed.layout
              ~read:(fun s -> Hashtbl.hash (salt, s.Step.txn, s.Step.node) land 1 = 0)
              sys
        | _ -> Packed.layout ~arcs:true sys
      in
      let ew = Packed.enabled_words lay in
      let e = Array.make (2 * ew) 0 and fresh = Array.make ew 0 in
      let en = Array.make (Packed.nodes lay) 0 in
      let listed p =
        let l = ref [] in
        Packed.iter_enabled lay p 0 (fun g -> l := g :: !l);
        List.rev !l
      in
      (* [e] holds the set carried to [p] at offset 0. *)
      let rec go p =
        Packed.enabled_into lay p 0 fresh 0;
        let n = Packed.enabled_bits lay e 0 en in
        Array.sub e 0 ew = fresh
        && Array.to_list (Array.sub en 0 n) = listed p
        && Packed.live_at lay p 0 = (n > 0)
        && (n = 0
           ||
           let g = en.(Random.State.int rng n) in
           let p' = Packed.initial lay in
           Packed.apply_into lay p 0 g p';
           Packed.carry_enabled lay p' 0 g e 0 e ew;
           Array.blit e ew e 0 ew;
           go p')
      in
      let p0 = Packed.initial lay in
      Packed.enabled_into lay p0 0 e 0;
      go p0)

(* Systems with interchangeable transactions, of rows up to 62 nodes (one
   [Bitset] word, sign bit clear) and of 64 and 66 (node 62 is the sign
   bit of the first word; transactions have an even node count, so 63 is
   not drawn). *)
let packed_canon_prop =
  QCheck.Test.make
    ~name:"packed: normalize_packed = encode ∘ normalize ∘ decode"
    ~count:200 QCheck.(int_bound 10_000_000) (fun seed ->
      let module G = Ddlock_workload.Gentx in
      let rng = Fixtures.rng seed in
      let sys =
        match Random.State.int rng 6 with
        | 0 -> System.copies (G.guard_ring 4) 8
        | 1 -> System.copies (G.guard_ring 31) 3
        | 2 -> System.copies (G.guard_ring 32) 2
        | 3 -> System.copies (G.guard_ring 33) 3
        | 4 -> System.copies (G.guard_ring (2 + Random.State.int rng 12)) 5
        | _ ->
            G.random_copies_system rng
              ~copies:(2 + Random.State.int rng 3)
              ~extra:true
      in
      let lay = Packed.layout sys and c = Canon.detect sys in
      let st = walk rng sys in
      State.equal
        (Packed.decode lay (Canon.normalize_packed c lay (Packed.encode lay st)))
        (Canon.normalize c st))

(* [Arena] takes its slot from the low bits of the hash, so states that
   differ only in high bits must still spread over the buckets.  1,024
   such states thrown uniformly at 1,024 buckets fill about 647. *)
let test_packed_hash_spread () =
  let buckets states =
    let seen = Hashtbl.create 1024 in
    List.iter (fun p -> Hashtbl.replace seen (Packed.hash p land 1023) ()) states;
    Hashtbl.length seen
  in
  let family name f =
    let n = buckets (List.init 1024 (fun k -> f (k + 1))) in
    if n < 550 then Alcotest.failf "%s: only %d of 1024 buckets" name n
  in
  family "one word, bits 21+" (fun k -> [| k lsl 21 |]);
  family "two words, bits 40+" (fun k -> [| k lsl 40; 0 |]);
  family "two words, second word" (fun k -> [| 0; k |]);
  family "three words, third word" (fun k -> [| 1 lsl 21; 0; k lsl 30 |])

(* Recorded before the searches moved to packed states: for each system,
   [explore.states_visited] after [explore] (plain, ~symmetry, ~por) and
   the deadlock searches, all capped at 4,000 states (a search that
   exceeds the cap counts the 4,000 it held).  The ~por column was
   recorded again when the reduced search dropped sleep sets: it is
   what the same persistent sets give alone.  The last three columns
   are [find_deadlock], [deadlock_free] and [reduced_deadlock_free],
   recorded again when the deadlock searches began to drop the
   successors that cannot reach a deadlock ({!Packed.may_deadlock}),
   and again when the reduced search became the second stage of one
   search rule: a plain search that gives up now also counts the
   reduced one (systems 8, 10 and 14, which deadlock, so the give-up
   stands). *)
let visited_pool () =
  let module G = Ddlock_workload.Gentx in
  let ring k c = System.copies (G.guard_ring k) c in
  [ Fixtures.fig2 (); ring 3 2; ring 3 3; ring 4 8; ring 5 4 ]
  @ List.map G.dining_philosophers [ 3; 4; 5; 8 ]
  @ List.init 12 (fun i ->
        let rng = Fixtures.rng (700 + i) in
        if i mod 2 = 0 then G.small_random_system rng ~txns:4
        else
          G.zipf_system ~entities_per_txn:8 rng ~sites:4 ~entities:12 ~txns:4
            ~theta:0.8)

let visited_expected =
  [
    (826, 414, 108, 87, 87, 9); (158, 80, 66, 55, 55, 16);
    (854, 161, 412, 46, 46, 5); (4000, 4000, 4000, 2596, 2596, 9);
    (4000, 4000, 4000, 2645, 2645, 19); (75, 75, 63, 14, 14, 14);
    (321, 321, 198, 40, 40, 36); (1363, 1363, 521, 121, 121, 85);
    (4000, 4000, 4000, 4923, 4923, 923); (468, 468, 155, 350, 350, 112);
    (4000, 4000, 4000, 5504, 5504, 1504); (305, 305, 180, 225, 225, 141);
    (4000, 4000, 4000, 3690, 3690, 172); (400, 400, 47, 273, 273, 28);
    (4000, 4000, 4000, 6150, 6150, 2150); (108, 108, 88, 10, 10, 10);
    (4000, 4000, 2388, 906, 906, 39); (218, 218, 180, 160, 160, 140);
    (4000, 4000, 2281, 461, 461, 94); (1024, 1024, 70, 815, 815, 57);
    (4000, 4000, 4000, 1277, 1277, 340);
  ]

(* [explore.states_visited] after [f ()]; a search that gives up counts
   the states it held. *)
let visited f =
  Ddlock_obs.Metrics.reset ();
  (try ignore (f ()) with Explore.Too_large _ -> ());
  Ddlock_obs.Metrics.counter_value "explore.states_visited"

let with_counters f =
  Ddlock_obs.Control.on ();
  Fun.protect
    ~finally:(fun () ->
      Ddlock_obs.Control.off ();
      Ddlock_obs.Metrics.reset ())
    f

let test_states_visited_unchanged () =
  let max_states = 4_000 in
  let got =
    with_counters @@ fun () ->
    List.map
      (fun sys ->
        ( visited (fun () -> Explore.explore ~max_states sys),
          visited (fun () -> Explore.explore ~max_states ~symmetry:true sys),
          visited (fun () -> Explore.explore ~max_states ~por:true sys),
          visited (fun () -> Explore.find_deadlock ~max_states sys),
          visited (fun () -> Explore.deadlock_free ~max_states sys),
          visited (fun () -> Explore.reduced_deadlock_free ~max_states sys) ))
      (visited_pool ())
  in
  List.iteri
    (fun i (e, g) ->
      if e <> g then Alcotest.failf "system %d: states_visited changed" i)
    (List.combine visited_expected got)

(* Recorded before the Lemma-1 and shared/exclusive deciders moved onto
   packed arena rows, with the same 4,000-state cap:
   [explore.states_visited] after [Explore.safe_and_deadlock_free] and
   [Explore.safe] on [visited_pool], and after [Rw_system.find_deadlock]
   and [Rw_system.safe] on the 80 systems of the Rw golden pool.  The
   [Rw_system.find_deadlock] column was recorded again when the deadlock
   searches began to drop the successors that cannot reach a deadlock. *)
let lemma1_visited_expected =
  [
    (13, 943); (10, 183); (13, 1461); (37, 4000); (26, 4000);
    (14, 98); (40, 490); (121, 2372); (4000, 4000); (21, 1081);
    (12, 4000); (22, 866); (26, 4000); (67, 814); (17, 4000);
    (10, 209); (13, 4000); (7, 793); (10, 4000); (19, 2638);
    (11, 4000);
  ]

let rw_visited_expected =
  [
    (114, 369); (5, 39); (106, 245); (72, 297); (19, 59); (112, 325);
    (52, 232); (1, 35); (57, 260); (2, 30); (25, 301); (10, 35); (6, 37);
    (22, 264); (2, 24); (3, 35); (102, 318); (35, 482); (12, 47); (15, 35);
    (66, 140); (10, 39); (202, 666); (3, 27); (2, 27); (118, 366); (1, 25);
    (50, 532); (4, 36); (1, 35); (18, 51); (6, 25); (13, 51); (61, 129);
    (58, 202); (14, 47); (110, 246); (4, 26); (1, 25); (15, 60); (106, 353);
    (9, 49); (8, 37); (10, 65); (46, 128); (152, 632); (7, 55); (62, 192);
    (22, 56); (5, 30); (10, 32); (32, 180); (15, 35); (21, 159); (46, 273);
    (9, 28); (15, 40); (157, 594); (77, 216); (25, 54); (1, 25); (10, 37);
    (72, 191); (57, 222); (3, 22); (61, 154); (48, 129); (5, 25); (131, 339);
    (18, 264); (30, 300); (46, 120); (2, 38); (2, 38); (9, 25); (5, 53);
    (54, 131); (7, 39); (14, 47); (74, 180);
  ]

let rw_pool () =
  List.init 80 (fun si ->
      Fixtures.random_rw_system (Fixtures.rng (7000 + si)) ~write_only:false)

let test_decider_states_visited_unchanged () =
  let module Rw = Ddlock_rw.Rw_system in
  let max_states = 4_000 in
  let lemma1, rw =
    with_counters @@ fun () ->
    ( List.map
        (fun sys ->
          ( visited (fun () -> Explore.safe_and_deadlock_free ~max_states sys),
            visited (fun () -> Explore.safe ~max_states sys) ))
        (visited_pool ()),
      List.map
        (fun sys ->
          ( visited (fun () -> Rw.find_deadlock ~max_states sys),
            visited (fun () -> Rw.safe ~max_states sys) ))
        (rw_pool ()) )
  in
  let same what expected got =
    List.iteri
      (fun i (e, g) ->
        if e <> g then
          Alcotest.failf "%s, system %d: states_visited changed" what i)
      (List.combine expected got)
  in
  same "Lemma 1" lemma1_visited_expected lemma1;
  same "Rw" rw_visited_expected rw

(* Recorded before the Lemma-1 searches moved onto packed arena rows: the
   verdict of [Explore.safe_and_deadlock_free] and [Explore.safe] on
   [visited_pool] (capped at 4,000 states) and on 300 small random
   systems, with each counterexample's steps and cycle. *)
let lemma1_golden_digest = "924f27d3744b4896528ea0fcc9a995e1"

let test_lemma1_golden_digest () =
  let b = Buffer.create (1 lsl 16) and unsafe = ref 0 in
  let record decide =
    match decide () with
    | Ok () -> Buffer.add_string b "ok\n"
    | Error { Explore.steps; cycle } ->
        incr unsafe;
        List.iter
          (fun (s : Step.t) -> Printf.bprintf b " %d.%d" s.txn s.node)
          steps;
        Buffer.add_string b " |";
        List.iter (Printf.bprintf b " %d") cycle;
        Buffer.add_char b '\n'
    | exception Explore.Too_large n -> Printf.bprintf b "too large %d\n" n
  in
  let pool =
    visited_pool ()
    @ List.init 300 (fun i ->
          let rng = Fixtures.rng (9100 + i) in
          if i mod 3 = 0 then Fixtures.small_random_pair rng
          else Fixtures.small_random_system rng ~txns:(2 + (i mod 3)))
  in
  List.iter
    (fun sys ->
      record (fun () -> Explore.safe_and_deadlock_free ~max_states:4_000 sys);
      record (fun () -> Explore.safe ~max_states:4_000 sys))
    pool;
  let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
  check bool_t "counterexamples exercised" true (!unsafe > 100);
  check Alcotest.string "Lemma-1 digest" lemma1_golden_digest digest

(* A give-up on a multi-word system raises [Too_large] with the plain
   search's budget, whatever the reduced search that follows finds. *)
let test_too_large_multiword () =
  let module G = Ddlock_workload.Gentx in
  let raises sys cap f =
    match f ~max_states:cap sys with
    | exception Explore.Too_large n -> check int_t "held at raise" cap n
    | _ -> Alcotest.fail "expected Too_large"
  in
  List.iter
    (fun (sys, cap) ->
      raises sys cap (fun ~max_states sys ->
          ignore (Explore.find_deadlock ~max_states sys));
      raises sys cap (fun ~max_states sys ->
          ignore (Explore.deadlock_free ~max_states sys)))
    [
      (G.dining_philosophers 16, 2_500);
      (G.dining_philosophers 32, 700);
      (G.dining_philosophers 16, 1);
      (G.dining_philosophers 16, 0);
    ]

(* The arena's row array doubles from 64 rows: a budget at a power of
   two, or one past it, stops the search right at a doubling (or just
   after it), and the raise still reports exactly the budget. *)
let test_too_large_at_doublings () =
  let module G = Ddlock_workload.Gentx in
  let phil = G.dining_philosophers 16 in
  let ring = System.copies (G.guard_ring 4) 8 in
  let raises name f cap =
    match f cap with
    | exception Explore.Too_large n ->
        if n <> cap then Alcotest.failf "%s, budget %d: raised %d" name cap n
    | _ -> Alcotest.failf "%s, budget %d: expected Too_large" name cap
  in
  List.iter
    (fun k ->
      List.iter
        (fun cap ->
          raises "explore"
            (fun max_states -> Explore.explore ~max_states phil)
            cap;
          raises "explore ~symmetry"
            (fun max_states -> Explore.explore ~max_states ~symmetry:true ring)
            cap;
          raises "explore ~por"
            (fun max_states -> Explore.explore ~max_states ~por:true phil)
            cap;
          raises "find_deadlock"
            (fun max_states -> Explore.find_deadlock ~max_states phil)
            cap)
        [ 1 lsl k; (1 lsl k) + 1 ])
    (List.init 13 Fun.id)

(* Searches on one domain share its workspace.  A mix of searches on
   systems of one to three words — plain and reduced deadlock
   searches, Lemma 1, the Rw decider, [has_schedule], a give-up, a
   cancelled search and a search whose polls run other searches —
   gives, run back to back in both orders on one domain, the result
   and [states_visited] each gives when it runs first on a fresh
   domain. *)
let test_workspace_reuse () =
  let module G = Ddlock_workload.Gentx in
  let module Rw = Ddlock_rw.Rw_system in
  let steps l =
    String.concat " "
      (List.map (fun (s : Step.t) -> Printf.sprintf "%d.%d" s.txn s.node) l)
  in
  let state st =
    String.concat "|"
      (Array.to_list
         (Array.map
            (fun r -> String.concat "," (List.map string_of_int r))
            (Fixtures.state_key st)))
  in
  let witness = function
    | None -> "none"
    | Some (l, st) -> steps l ^ " @ " ^ state st
  in
  let lemma1 = function
    | Ok () -> "ok"
    | Error { Explore.steps = l; cycle } ->
        steps l ^ " | " ^ String.concat " " (List.map string_of_int cycle)
  in
  let phil5 = G.dining_philosophers 5
  and phil16 = G.dining_philosophers 16
  and phil32 = G.dining_philosophers 32
  and ring = System.copies (G.guard_ring 4) 8
  and small = Fixtures.small_random_system (Fixtures.rng 4242) ~txns:3
  and rw = List.init 3 (fun i -> Fixtures.random_rw_system (Fixtures.rng (7100 + i)) ~write_only:false) in
  (* A prefix vector of [phil16] twelve random steps in. *)
  let target =
    let rng = Fixtures.rng 99 in
    let rec go st k =
      match State.enabled phil16 st with
      | [] -> st
      | _ when k = 0 -> st
      | en ->
          go (State.apply st (List.nth en (Random.State.int rng (List.length en)))) (k - 1)
    in
    go (State.initial phil16) 12
  in
  let jobs =
    [
      ("find_deadlock fig2", fun () -> witness (Explore.find_deadlock (Fixtures.fig2 ())));
      ("find_deadlock ring", fun () -> witness (Explore.find_deadlock ~max_states:4_000 ring));
      ( "reduced_deadlock_free ring",
        fun () -> string_of_bool (Explore.reduced_deadlock_free ring) );
      ( "find_deadlock philosophers 32 (gives up)",
        fun () -> witness (Explore.find_deadlock ~max_states:700 phil32) );
      ("safe small", fun () -> lemma1 (Explore.safe small));
      ("safe philosophers 5", fun () -> lemma1 (Explore.safe phil5));
      ( "Rw find_deadlock",
        fun () ->
          String.concat "; "
            (List.map
               (fun sys ->
                 match Rw.find_deadlock sys with
                 | None -> "none"
                 | Some (l, _) -> string_of_int (List.length l))
               rw) );
      ( "has_schedule philosophers 16",
        fun () ->
          match Explore.has_schedule phil16 target with
          | None -> "none"
          | Some l -> steps l );
      ( "cancelled find_deadlock ring",
        fun () ->
          let polls = ref 0 in
          Ddlock_obs.Cancel.with_poll
            (fun () ->
              incr polls;
              !polls > 300)
            (fun () -> witness (Explore.find_deadlock ring)) );
      ( "find_deadlock with nested find_deadlock",
        fun () ->
          (* The inner searches run in the outer one's poll, and poll
             themselves: only the outer search's polls nest one. *)
          let polls = ref 0 and inside = ref false in
          let inner = Buffer.create 256 in
          let poll () =
            if not !inside then begin
              incr polls;
              if !polls mod 40 = 0 then begin
                inside := true;
                Fun.protect
                  ~finally:(fun () -> inside := false)
                  (fun () ->
                    Buffer.add_string inner
                      (if !polls mod 80 = 0 then
                         string_of_bool (Explore.reduced_deadlock_free ring)
                       else witness (Explore.find_deadlock ring)))
              end
            end;
            false
          in
          let outer =
            match
              Ddlock_obs.Cancel.with_poll poll (fun () ->
                  Explore.find_deadlock ~max_states:400 phil16)
            with
            | r -> witness r
            | exception Explore.Too_large n -> Printf.sprintf "too large %d" n
          in
          outer ^ " / " ^ Buffer.contents inner );
    ]
  in
  let outcome f =
    let visited () = Ddlock_obs.Metrics.counter_value "explore.states_visited" in
    let before = visited () in
    let r =
      try f () with
      | Explore.Too_large n -> Printf.sprintf "too large %d" n
      | Ddlock_obs.Cancel.Cancelled -> "cancelled"
    in
    Printf.sprintf "%s, %d visited" r (visited () - before)
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  with_counters @@ fun () ->
  let alone =
    List.map (fun (name, f) -> (name, on_fresh_domain (fun () -> outcome f))) jobs
  in
  let mixed =
    on_fresh_domain (fun () ->
        let run l = List.map (fun (name, f) -> (name, outcome f)) l in
        let forward = run jobs in
        let backward = List.rev (run (List.rev jobs)) in
        (forward, backward))
  in
  List.iter
    (fun got ->
      List.iter2
        (fun (name, e) (_, g) -> check Alcotest.string name e g)
        alone got)
    [ fst mixed; snd mixed ];
  check bool_t "one search gave up" true
    (List.exists (fun (_, r) -> String.starts_with ~prefix:"too large" r) alone);
  check bool_t "one search was cancelled" true
    (List.exists (fun (_, r) -> String.starts_with ~prefix:"cancelled" r) alone)

(* Plain BFS over {!State}, written from the definition: the first [cap]
   states in discovery order (successors in [State.enabled] order), the
   first state among them satisfying [goal] with the schedule that
   discovered it, and whether the reachable set has more than [cap]
   states. *)
let reference_bfs sys ~cap ~goal =
  let seen = Hashtbl.create 1024 and q = Queue.create () in
  let order = ref [] and count = ref 0 in
  let deadlock = ref None and overflow = ref false in
  let visit st rev_steps =
    let key = Fixtures.state_key st in
    if not (Hashtbl.mem seen key) then
      if !count >= cap then overflow := true
      else begin
        Hashtbl.add seen key ();
        incr count;
        order := st :: !order;
        if !deadlock = None && goal st then
          deadlock := Some (List.rev rev_steps, st);
        Queue.push (st, rev_steps) q
      end
  in
  visit (State.initial sys) [];
  while (not !overflow) && not (Queue.is_empty q) do
    let st, rev_steps = Queue.pop q in
    List.iter
      (fun s -> if not !overflow then visit (State.apply st s) (s :: rev_steps))
      (State.enabled sys st)
  done;
  (List.rev !order, !deadlock, !overflow)

let arena_reference_prop =
  QCheck.Test.make ~name:"arena: explore order and witness = State BFS"
    ~count:40 QCheck.(int_bound 10_000_000) (fun seed ->
      let sys = packed_system (Fixtures.rng seed) in
      let cap = 1_500 in
      let order, deadlock, overflow =
        reference_bfs sys ~cap ~goal:(State.is_deadlock sys)
      in
      let same = List.for_all2 State.equal in
      let explored =
        match Explore.explore ~max_states:cap sys with
        | sp ->
            let got = List.of_seq (Explore.states sp) in
            (not overflow) && List.length got = List.length order
            && same got order
        | exception Explore.Too_large n -> overflow && n = cap
      in
      (* A deadlock among the reference's first [cap] states is found
         within the cap, since the filter only drops states.  With none
         there and the space too large, the filter may also fit: a
         deadlock beyond those states, or none at all, which the
         Theorem-1 search under the same cap must agree with. *)
      let witness =
        match (Explore.find_deadlock ~max_states:cap sys, deadlock) with
        | Some (steps, st), Some (steps', st') ->
            steps = steps' && State.equal st st'
        | None, None when overflow ->
            Ddlock_deadlock.Prefix_search.deadlock_free ~max_states:cap sys
        | None, None -> true
        | Some (steps, st), None ->
            overflow
            && Schedule.is_legal sys steps
            && State.equal (Schedule.prefix_vector sys steps) st
            && State.is_deadlock sys st
            && not (List.exists (State.equal st) order)
        | exception Explore.Too_large n -> overflow && deadlock = None && n = cap
        | _ -> false
      in
      explored && witness)

(* ------------------------------------------------------------------ *)
(* The search substrate: the arena, Lemma-1 rows, commutation          *)
(* ------------------------------------------------------------------ *)

let add t row = Arena.add t ~limit:max_int row

let test_arena_basics () =
  let t = Arena.create ~words:2 in
  check int_t "first add is fresh" 0 (add t [| 1; 2 |]);
  check int_t "idempotent id" 0 (add t [| 1; 2 |]);
  check int_t "distinct row is fresh" 1 (add t [| 2; 1 |]);
  check int_t "count" 2 (Arena.count t);
  check int_t "find hit" 1 (Arena.find t [| 2; 1 |]);
  check int_t "find miss" (-1) (Arena.find t [| 0; 0 |]);
  check int_t "only the first words count" 0 (add t [| 1; 2; 99 |]);
  check bool_t "row at id * words" true
    (Array.sub (Arena.data t) 2 2 = [| 2; 1 |])

let test_arena_growth () =
  (* Push the rows and the slots through several doublings: ids stay
     dense and stable, every row reads back, re-adding finds it. *)
  let t = Arena.create ~words:3 in
  let row i = [| i; i * 7; -i |] in
  let n = 1000 in
  for i = 0 to n - 1 do
    check int_t "dense id" i (add t (row i))
  done;
  check int_t "count after growth" n (Arena.count t);
  for i = 0 to n - 1 do
    check bool_t "readback" true (Array.sub (Arena.data t) (i * 3) 3 = row i);
    check int_t "stable id" i (add t (row i));
    check int_t "find" i (Arena.find t (row i))
  done

let test_arena_limit () =
  (* A fresh row is refused at the limit, also when taking it would
     double the row array (64 rows): count and rows stay as they were,
     and a held row is still found. *)
  List.iter
    (fun limit ->
      let t = Arena.create ~words:1 in
      for i = 0 to limit - 1 do
        ignore (Arena.add t ~limit [| i |])
      done;
      let rows = Array.length (Arena.data t) in
      check int_t "refused" (-1) (Arena.add t ~limit [| limit |]);
      check int_t "count unchanged" limit (Arena.count t);
      check int_t "rows not grown" rows (Array.length (Arena.data t));
      check int_t "not held" (-1) (Arena.find t [| limit |]);
      if limit > 0 then
        check int_t "held row found" 0 (Arena.add t ~limit [| 0 |]))
    [ 0; 1; 63; 64; 65; 128; 1024 ]

let arena_prop =
  QCheck.Test.make ~name:"arena add injective + idempotent on random rows"
    ~count:50
    QCheck.(small_list (pair small_int small_int))
    (fun xs ->
      let t = Arena.create ~words:2 in
      let row (a, b) = [| a; b |] in
      let ids = List.map (fun x -> add t (row x)) xs in
      List.for_all2
        (fun x id ->
          add t (row x) = id
          && Arena.find t (row x) = id
          && Array.sub (Arena.data t) (2 * id) 2 = row x)
        xs ids
      && List.for_all2
           (fun x id ->
             List.for_all2 (fun y id' -> (x = y) = (id = id')) xs ids)
           xs ids
      && Arena.count t = List.length (List.sort_uniq compare xs))

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

(* The arcs of D(S′), as Lemma-1 rows hold them. *)
let d_arcs sys steps =
  List.sort_uniq compare
    (List.map (fun a -> (a.Dgraph.src, a.Dgraph.dst)) (Dgraph.arcs sys steps))

let lemma1_rows_prop =
  (* A Lemma-1 row is the prefix vector and D(S′) of the schedule that
     reached it: checked after every step of a random run. *)
  QCheck.Test.make ~name:"Lemma-1 rows = prefix vector + Dgraph arcs"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      List.for_all
        (fun sys ->
          let lay = Packed.layout ~arcs:true sys in
          let steps =
            match Explore.random_run st sys with
            | Explore.Completed s | Explore.Deadlocked (s, _) -> s
          in
          let rec go p rev = function
            | [] -> true
            | s :: rest ->
                let p = Packed.apply lay p s and rev = s :: rev in
                let sched = List.rev rev in
                State.equal (Packed.decode lay p)
                  (Schedule.prefix_vector sys sched)
                && Packed.arcs_at lay p 0 = d_arcs sys sched
                && Packed.cyclic_at lay p 0
                   = not (Dgraph.is_serializable sys sched)
                && go p rev rest
          in
          go (Packed.initial lay) [] steps)
        [
          Fixtures.small_random_pair st;
          Fixtures.small_random_system st ~txns:3;
        ])

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

let test_lemma1_rows_two_paths () =
  (* D-arcs accumulated in different orders make one row: some row
     with arcs is reached along two schedules of up to four steps, and
     every row holds D(S′) of its schedule. *)
  let sys = opposed_pair () in
  let lay = Packed.layout ~arcs:true sys in
  let rec paths d (p, rev) =
    (p, rev)
    ::
    (if d = 0 then []
     else
       List.concat_map
         (fun s -> paths (d - 1) (Packed.apply lay p s, s :: rev))
         (Packed.enabled lay p))
  in
  let rows = paths 4 (Packed.initial lay, []) in
  check bool_t "rows hold D(S')" true
    (List.for_all
       (fun (p, rev) -> Packed.arcs_at lay p 0 = d_arcs sys (List.rev rev))
       rows);
  check bool_t "some node reached along two paths" true
    (List.exists
       (fun (p, rev) ->
         Packed.arcs_at lay p 0 <> []
         && List.exists
              (fun (q, rev') -> rev <> rev' && Packed.equal p q)
              rows)
       rows)

(* ------------------------------------------------------------------ *)
(* Spaces: insertion order, schedules, the cap on random systems       *)
(* ------------------------------------------------------------------ *)

let fig2ish () = System.copies (Ddlock_workload.Gentx.guard_ring 4) 2

let test_states_in_rank_order () =
  (* The space enumerates states in BFS insertion order: they must line
     up position by position with the discovery order of a BFS over
     {!State}. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let order, _, _ = reference_bfs sys ~cap:max_int ~goal:(fun _ -> false) in
  let bfs_keys = List.map Fixtures.state_key order in
  let space_keys =
    List.of_seq
      (Seq.map Fixtures.state_key (Explore.states (Explore.explore sys)))
  in
  check int_t "same length" (List.length bfs_keys) (List.length space_keys);
  check bool_t "same order" true (bfs_keys = space_keys)

let test_bfs_every_state () =
  let sys = fig2ish () in
  let sp = Explore.explore sys in
  Seq.iter
    (fun st ->
      check bool_t "reachable" true (Explore.is_reachable sp st);
      match Explore.has_schedule sys st with
      | None -> Alcotest.fail "bfs must reach every stored state"
      | Some sched ->
          check bool_t "legal" true (Schedule.is_legal sys sched);
          check bool_t "reaches the state" true
            (State.equal (Schedule.prefix_vector sys sched) st))
    (Explore.states sp);
  check bool_t "foreign state unreachable" false
    (Explore.is_reachable sp (State.final (opposed_pair ())))

let cap_arg = QCheck.(pair (int_bound 1_000_000) (int_range 1 40))

let explore_cap_prop =
  (* For any small cap a full exploration, plain or symmetric, fits with
     its uncapped count or raises [Too_large] carrying the cap. *)
  QCheck.Test.make ~name:"explore cap outcome exact"
    ~count:40 cap_arg
    (fun (seed, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      List.for_all
        (fun symmetry ->
          let full = Explore.state_count (Explore.explore ~symmetry sys) in
          match Explore.explore ~max_states ~symmetry sys with
          | sp -> full <= max_states && Explore.state_count sp = full
          | exception Explore.Too_large n -> full > max_states && n = max_states)
        [ false; true ])

let find_deadlock_cap_prop =
  (* Under a small cap the search stops early or gives up, but never
     contradicts the uncapped search: a witness is the uncapped one, a
     deadlock-free verdict is the uncapped verdict, and a give-up
     reports the cap. *)
  QCheck.Test.make ~name:"find_deadlock under a cap is sound"
    ~count:40 cap_arg
    (fun (seed, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let uncapped = Explore.find_deadlock sys in
      match Explore.find_deadlock ~max_states sys with
      | Some _ as w -> w = uncapped
      | None -> uncapped = None
      | exception Explore.Too_large n -> n = max_states)

(* ------------------------------------------------------------------ *)
(* The may-deadlock filter                                             *)
(* ------------------------------------------------------------------ *)

(* Random generic, copies and zipf systems, small enough to search in
   full. *)
let filter_system rng =
  let module G = Ddlock_workload.Gentx in
  let int n = Random.State.int rng n in
  match int 3 with
  | 0 -> Fixtures.small_random_system rng ~txns:(2 + int 3)
  | 1 ->
      G.random_copies_system ~extra:(Random.State.bool rng) rng
        ~copies:(2 + int 2)
  | _ ->
      G.zipf_system rng ~sites:2 ~entities:(4 + int 3) ~txns:(3 + int 2)
        ~theta:0.8

(* [search ~max_states sys] gives the schedule and state of the first
   [goal] state of the decoded BFS, which keeps every state, and
   [reduced ~max_states sys] says whether there is none. *)
let same_as_reference ~name ~goal search reduced =
  QCheck.Test.make ~name ~count:150 QCheck.(int_bound 10_000_000)
    (fun seed ->
      let sys = filter_system (Fixtures.rng seed) in
      let max_states = 20_000 in
      match reference_bfs sys ~cap:max_states ~goal:(goal sys) with
      | _, _, true -> QCheck.assume_fail ()
      | _, reference, false -> (
          reduced ~max_states sys = (reference = None)
          &&
          match (search ~max_states sys, reference) with
          | Some (steps, st), Some (steps', st') ->
              steps = steps' && State.equal st st'
          | None, None -> true
          | _ -> false))

(* The deadlock searches drop the successors that cannot deadlock. *)
let filter_witness_prop =
  same_as_reference
    ~name:"find_deadlock = unfiltered bfs, every system under the cap"
    ~goal:State.is_deadlock
    (fun ~max_states sys -> Explore.find_deadlock ~max_states sys)
    (fun ~max_states sys -> Explore.reduced_deadlock_free ~max_states sys)

(* The Theorem-1 search decides R(A′) on packed rows, with the same
   filter. *)
let prefix_witness_prop =
  let module P = Ddlock_deadlock.Prefix_search in
  same_as_reference
    ~name:"Prefix_search.find = decoded cyclic-R BFS, and the reduced verdict"
    ~goal:(fun sys st -> Reduction.has_cycle (Reduction.make sys st))
    (fun ~max_states sys ->
      Option.map
        (fun w -> (w.P.schedule, w.P.prefix))
        (P.find ~max_states sys))
    (fun ~max_states sys ->
      Explore.reduced_deadlock_free ~max_states ~goal:Deadlock_prefix sys)

(* The one search rule.  When the plain search fits, [find_deadlock]
   is the decoded BFS's first deadlock with its tree schedule.  Under a
   budget below the states the plain search holds, it raises
   [Too_large] with that budget, or agrees with the verdict at the
   default budget: a deadlock-free answer the reduced search proves. *)
let search_rule_prop =
  QCheck.Test.make ~name:"one search rule: plain witness, reduced take-over"
    ~count:150 QCheck.(int_bound 10_000_000)
    (fun seed ->
      let rng = Fixtures.rng seed in
      let sys = filter_system rng in
      match reference_bfs sys ~cap:20_000 ~goal:(State.is_deadlock sys) with
      | _, _, true -> QCheck.assume_fail ()
      | _, reference, false -> (
          let held =
            with_counters @@ fun () ->
            visited (fun () -> Explore.find_deadlock sys)
          in
          Explore.find_deadlock sys = reference
          &&
          let below = Random.State.int rng held in
          match Explore.find_deadlock ~max_states:below sys with
          | r -> r = None && reference = None
          | exception Explore.Too_large n -> n = below))

(* Every state reachable on [lay], up to [cap], by the packed kernel. *)
let reachable lay ~cap =
  let seen = Hashtbl.create 1024 and q = Queue.create () in
  let visit p =
    if Hashtbl.length seen < cap && not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      Queue.push p q
    end
  in
  visit (Packed.initial lay);
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    Packed.iter_enabled lay p 0 (fun g ->
        let p' = Packed.initial lay in
        Packed.apply_into lay p 0 g p';
        visit p')
  done;
  Hashtbl.to_seq_keys seen

(* On every reachable state, exclusive and with shared Read locks: a
   deadlock passes the filter, the O(1) edge test [keeps] is the
   filter on the successor, and a state that fails it has only
   successors that fail it. *)
let filter_sound_prop =
  QCheck.Test.make ~name:"may-deadlock filter: sound and closed under steps"
    ~count:150 QCheck.(int_bound 10_000_000) (fun seed ->
      let module Rw = Ddlock_rw.Rw_system in
      let rng = Fixtures.rng seed in
      let lay =
        if Random.State.bool rng then Packed.layout (filter_system rng)
        else
          let sys = Fixtures.random_rw_system rng ~write_only:false in
          Packed.layout ~read:(Rw.read sys) (Rw.to_exclusive sys)
      in
      let last = [| -1; -1 |] in
      Seq.for_all
        (fun p ->
          let may = Packed.may_deadlock lay p in
          let c = Packed.contenders lay p 0 last in
          let ok = ref ((not (Packed.is_deadlock lay p)) || may) in
          Packed.iter_enabled lay p 0 (fun g ->
              let p' = Packed.initial lay in
              Packed.apply_into lay p 0 g p';
              let may' = Packed.may_deadlock lay p' in
              ok := !ok && Packed.keeps c last g = may' && (may || not may'));
          !ok)
        (reachable lay ~cap:5_000))

(* On each of [states], [Packed.cyclic_reduction] against R(A′) built
   from the decoded state: how many disagree, and how many are
   cyclic. *)
let reduction_agrees sys states =
  let lay = Packed.layout sys in
  let packed = Packed.cyclic_reduction lay in
  Seq.fold_left
    (fun (wrong, cyclic) p ->
      let r = Reduction.has_cycle (Reduction.make sys (Packed.decode lay p)) in
      ( (if packed p 0 <> r then wrong + 1 else wrong),
        if r then cyclic + 1 else cyclic ))
    (0, 0) states

let packed_reduction_prop =
  QCheck.Test.make ~name:"packed reduction cycle = Reduction.has_cycle"
    ~count:150 QCheck.(int_bound 10_000_000) (fun seed ->
      let sys = filter_system (Fixtures.rng seed) in
      fst (reduction_agrees sys (reachable (Packed.layout sys) ~cap:5_000))
      = 0)

(* Rows of three words: the states along random runs, each ending in a
   deadlock or done, of two copies of [guard_ring 32] (deadlock-free)
   and of sixteen of [guard_ring 4] (128 nodes each). *)
let test_packed_reduction_wide () =
  let module G = Ddlock_workload.Gentx in
  let sys = System.copies (G.guard_ring 32) 2
  and sys' = System.copies (G.guard_ring 4) 16 in
  let runs sys =
    let lay = Packed.layout sys and rng = Fixtures.rng 32 in
    Seq.concat_map
      (fun _ ->
        let steps =
          match Explore.random_run rng sys with
          | Explore.Completed l | Explore.Deadlocked (l, _) -> l
        in
        Seq.scan (Packed.apply lay) (Packed.initial lay) (List.to_seq steps))
      (Seq.init 40 Fun.id)
  in
  let wrong, cyclic = reduction_agrees sys (runs sys) in
  let wrong', cyclic' = reduction_agrees sys' (runs sys') in
  check int_t "agree" 0 (wrong + wrong');
  check int_t "guard_ring 32 x2: none cyclic" 0 cyclic;
  check bool_t "guard_ring 4 x16: some cyclic" true (cyclic' > 0)

let qtests =
  List.map Fixtures.to_alcotest
    [
      lemma1_decomposition_prop;
      narrate_linewise_prop;
      sched_text_roundtrip_prop;
      deadlock_iff_stuck_prop;
      minimal_remaining_prop;
      apply_pure_prop;
      enabled_order_prop;
      packed_roundtrip_prop;
      packed_enabled_prop;
      packed_apply_prop;
      packed_equal_hash_prop;
      packed_canon_prop;
      carried_enabled_prop;
      arena_reference_prop;
      explore_cap_prop;
      find_deadlock_cap_prop;
      filter_witness_prop;
      prefix_witness_prop;
      filter_sound_prop;
      packed_reduction_prop;
      search_rule_prop;
    ]

let suite =
  [
    Alcotest.test_case "serial legal" `Quick test_serial_legal;
    Alcotest.test_case "lock respected" `Quick test_lock_respected;
    Alcotest.test_case "precedence respected" `Quick test_precedence_respected;
    Alcotest.test_case "dgraph serial" `Quick test_dgraph_serial;
    Alcotest.test_case "dgraph partial arcs" `Quick
      test_dgraph_partial_includes_unlocked_accessors;
    Alcotest.test_case "dgraph interleaved cycle" `Quick
      test_dgraph_interleaved_cycle;
    Alcotest.test_case "explore counts" `Quick test_explore_counts;
    Alcotest.test_case "explore exact cap" `Quick test_explore_exact_cap;
    Alcotest.test_case "find_deadlock exact cap" `Quick
      test_find_deadlock_exact_cap;
    Alcotest.test_case "explore bfs to a target" `Quick test_explore_bfs_target;
    Alcotest.test_case "deadlock found" `Quick test_deadlock_found;
    Alcotest.test_case "deadlock free simple" `Quick test_deadlock_free_simple;
    Alcotest.test_case "safe and df" `Quick test_safe_and_df;
    Alcotest.test_case "safety alone" `Quick test_safety_alone;
    Alcotest.test_case "has_schedule" `Quick test_has_schedule;
    Alcotest.test_case "complete schedules count" `Quick
      test_complete_schedules_count;
    Alcotest.test_case "random runs" `Quick test_random_run;
    Alcotest.test_case "narrate deadlock" `Quick test_narrate;
    Alcotest.test_case "narrate complete" `Quick test_narrate_complete;
    Alcotest.test_case "sched text errors" `Quick test_sched_text_errors;
    Alcotest.test_case "packed hash spread" `Quick test_packed_hash_spread;
    Alcotest.test_case "Lemma-1 and Rw states_visited unchanged" `Quick
      test_decider_states_visited_unchanged;
    Alcotest.test_case "Lemma-1 golden digest" `Quick test_lemma1_golden_digest;
    Alcotest.test_case "states_visited unchanged" `Quick
      test_states_visited_unchanged;
    Alcotest.test_case "Too_large on multi-word systems" `Quick
      test_too_large_multiword;
    Alcotest.test_case "Too_large at arena doublings" `Quick
      test_too_large_at_doublings;
    Alcotest.test_case "searches on one domain share its workspace" `Quick
      test_workspace_reuse;
    Alcotest.test_case "states in rank order" `Quick test_states_in_rank_order;
    Alcotest.test_case "bfs reaches every stored state" `Quick
      test_bfs_every_state;
    Alcotest.test_case "packed reduction cycle = Reduction.has_cycle, 128 nodes"
      `Quick test_packed_reduction_wide;
  ]
  @ qtests

(* The intern tables under the searches over unpacked nodes. *)
let arena_suite =
  [
    Alcotest.test_case "arena basics" `Quick test_arena_basics;
    Alcotest.test_case "arena growth" `Quick test_arena_growth;
    Alcotest.test_case "arena refuses at the limit" `Quick test_arena_limit;
    Fixtures.to_alcotest arena_prop;
  ]

(* The purity contracts dedup and the partial-order reduction rest on. *)
let hash_suite =
  [
    Alcotest.test_case "lemma1 nodes reached along two paths" `Quick
      test_lemma1_rows_two_paths;
  ]
  @ List.map Fixtures.to_alcotest [ lemma1_rows_prop; commutation_prop ]
