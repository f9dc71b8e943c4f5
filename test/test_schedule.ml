open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

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
  (* opposed_pair BFS ranks: init=0, {T1:La}=1, {T2:Lb}=2, {T1:La Lb}=3,
     deadlock {T1:La | T2:Lb}=4 — so 5 states suffice, 4 do not. *)
  let sys = opposed_pair () in
  (match Explore.find_deadlock ~max_states:5 sys with
  | Some (_, st) -> check bool_t "deadlock at the cap" true
        (State.is_deadlock sys st)
  | None -> Alcotest.fail "expected a deadlock within 5 states");
  match Explore.find_deadlock ~max_states:4 sys with
  | exception Explore.Too_large n -> check int_t "held at raise" 4 n
  | _ -> Alcotest.fail "expected Too_large"

let test_explore_bfs_target () =
  let sys = simple_pair () in
  let target = State.final sys in
  (match Explore.bfs sys ~found:(State.equal target) with
  | None -> Alcotest.fail "final state unreachable"
  | Some (steps, st) ->
      check bool_t "legal" true (Schedule.is_legal sys steps);
      check bool_t "complete" true (Schedule.is_complete sys steps);
      check bool_t "reaches the target" true (State.equal st target));
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
   [find_deadlock] (plain, ~symmetry, ~por), all capped at 4,000 states
   (a search that exceeds the cap counts the 4,000 it held).  The ~por
   columns were recorded again when the reduced search dropped sleep
   sets: they are what the same persistent sets give alone.  The
   [find_deadlock ~symmetry] column was recorded again when it began to
   take its witness from the plain search: on a deadlocking copies
   system it counts the reduced search and the plain one. *)
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
    (826, 414, 108, 88, 129, 104); (158, 80, 66, 158, 80, 66);
    (854, 161, 412, 46, 57, 63); (4000, 4000, 4000, 2596, 2638, 3134);
    (4000, 4000, 4000, 2645, 2838, 2902); (75, 75, 63, 14, 14, 28);
    (321, 321, 198, 40, 40, 76); (1363, 1363, 521, 121, 121, 206);
    (4000, 4000, 4000, 4000, 4000, 4923); (468, 468, 155, 468, 468, 155);
    (4000, 4000, 4000, 4000, 4000, 5504); (305, 305, 180, 305, 305, 180);
    (4000, 4000, 4000, 3690, 3690, 3862); (400, 400, 47, 400, 400, 47);
    (4000, 4000, 4000, 4000, 4000, 6150); (108, 108, 88, 10, 10, 20);
    (4000, 4000, 2388, 906, 906, 945); (218, 218, 180, 218, 218, 180);
    (4000, 4000, 2281, 461, 461, 555); (1024, 1024, 70, 1024, 1024, 70);
    (4000, 4000, 4000, 1277, 1277, 1617);
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
          visited (fun () ->
              Explore.find_deadlock ~max_states ~symmetry:true sys),
          visited (fun () -> Explore.find_deadlock ~max_states ~por:true sys) ))
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
   and [Rw_system.safe] on the 80 systems of the Rw golden pool. *)
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
    (167, 369); (31, 39); (159, 245); (127, 297); (46, 59); (149, 325);
    (117, 232); (35, 35); (144, 260); (24, 30); (150, 301); (34, 35);
    (29, 37); (22, 264); (23, 24); (31, 35); (168, 318); (35, 482);
    (40, 47); (34, 35); (110, 140); (31, 39); (270, 666); (24, 27);
    (23, 27); (192, 366); (22, 25); (50, 532); (33, 36); (35, 35);
    (41, 51); (21, 25); (43, 51); (116, 129); (121, 202); (33, 47);
    (154, 246); (5, 26); (25, 25); (47, 60); (163, 353); (43, 49);
    (31, 37); (45, 65); (85, 128); (215, 632); (43, 55); (123, 192);
    (45, 56); (28, 30); (31, 32); (104, 180); (34, 35); (108, 159);
    (46, 273); (23, 28); (33, 40); (242, 594); (129, 216); (47, 54);
    (22, 25); (31, 37); (107, 191); (120, 222); (21, 22); (99, 154);
    (51, 129); (21, 25); (180, 339); (18, 264); (240, 300); (85, 120);
    (33, 38); (32, 38); (24, 25); (48, 53); (106, 131); (31, 39);
    (33, 47); (121, 180);
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

(* A give-up on a multi-word system raises [Too_large] with the budget,
   under every flag. *)
let test_too_large_multiword () =
  let module G = Ddlock_workload.Gentx in
  List.iter
    (fun (sys, cap) ->
      List.iter
        (fun (symmetry, por) ->
          match Explore.find_deadlock ~max_states:cap ~symmetry ~por sys with
          | exception Explore.Too_large n -> check int_t "held at raise" cap n
          | _ -> Alcotest.fail "expected Too_large")
        [ (false, false); (true, false); (false, true) ])
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
   systems of one to three words — plain and symmetric deadlock
   searches, Lemma 1, the Rw decider, [has_schedule], a give-up, a
   cancelled search and a [bfs] whose [found] runs another search —
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
      ( "find_deadlock ~symmetry ring",
        fun () -> witness (Explore.find_deadlock ~symmetry:true ring) );
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
      ( "bfs with nested find_deadlock",
        fun () ->
          let seen = ref 0 and inner = Buffer.create 256 in
          let found _ =
            incr seen;
            if !seen mod 40 = 0 then
              Buffer.add_string inner
                (witness (Explore.find_deadlock ~symmetry:(!seen mod 80 = 0) ring));
            !seen = 400
          in
          let outer = witness (Explore.bfs phil16 ~found) in
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
   first deadlock among them with the schedule that discovered it, and
   whether the reachable set has more than [cap] states. *)
let reference_bfs sys ~cap =
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
        if !deadlock = None && State.is_deadlock sys st then
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
      let order, deadlock, overflow = reference_bfs sys ~cap in
      let same = List.for_all2 State.equal in
      let explored =
        if overflow then begin
          (* The space does not fit: the explore gives up at the cap, and
             the states it inserted are the reference's first [cap]. *)
          let seen = ref [] in
          (match
             Explore.bfs ~max_states:cap sys ~found:(fun st ->
                 seen := st :: !seen;
                 false)
           with
          | exception Explore.Too_large n -> n = cap
          | _ -> false)
          && (match Explore.explore ~max_states:cap sys with
             | exception Explore.Too_large n -> n = cap
             | _ -> false)
          && same (List.rev !seen) order
        end
        else
          let sp = Explore.explore ~max_states:cap sys in
          let got = List.of_seq (Explore.states sp) in
          List.length got = List.length order && same got order
      in
      let witness =
        match (Explore.find_deadlock ~max_states:cap sys, deadlock) with
        | Some (steps, st), Some (steps', st') ->
            steps = steps' && State.equal st st'
        | None, None -> not overflow
        | exception Explore.Too_large n ->
            overflow && deadlock = None && n = cap
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
     up position by position with a goal-directed search that records
     the order in which it discovers states. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let order = ref [] in
  (match
     Explore.bfs sys ~found:(fun st ->
         order := Fixtures.state_key st :: !order;
         false)
   with
  | Some _ -> Alcotest.fail "predicate never holds"
  | None -> ());
  let bfs_keys = List.rev !order in
  (* Explore.bfs applies [found] to every discovered state including the
     initial one, in insertion order. *)
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
      match Explore.bfs sys ~found:(State.equal st) with
      | None -> Alcotest.fail "bfs must reach every stored state"
      | Some (sched, hit) ->
          check bool_t "legal" true (Schedule.is_legal sys sched);
          check bool_t "stops at the state" true (State.equal hit st);
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
