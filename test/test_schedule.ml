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

let test_explore_schedule_to () =
  let sys = simple_pair () in
  let sp = Explore.explore sys in
  let target = State.final sys in
  (match Explore.schedule_to sp target with
  | None -> Alcotest.fail "final state unreachable"
  | Some steps ->
      check bool_t "legal" true (Schedule.is_legal sys steps);
      check bool_t "complete" true (Schedule.is_complete sys steps));
  check bool_t "reachable" true (Explore.is_reachable sp target)

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

(* Systems with interchangeable transactions, up to 62 nodes per row
   (sorted on the words) and beyond (through the decoded state). *)
let packed_canon_prop =
  QCheck.Test.make
    ~name:"packed: normalize_packed = encode ∘ normalize ∘ decode"
    ~count:200 QCheck.(int_bound 10_000_000) (fun seed ->
      let module G = Ddlock_workload.Gentx in
      let rng = Fixtures.rng seed in
      let sys =
        match Random.State.int rng 5 with
        | 0 -> System.copies (G.guard_ring 4) 8
        | 1 -> System.copies (G.guard_ring 31) 3
        | 2 -> System.copies (G.guard_ring 32) 2
        | 3 -> System.copies (G.guard_ring (2 + Random.State.int rng 12)) 5
        | _ ->
            G.random_copies_system rng
              ~copies:(2 + Random.State.int rng 3)
              ~extra:true
      in
      let lay = Packed.layout sys and c = Canon.detect sys in
      let st = walk rng sys in
      State.equal
        (Packed.decode lay (Canon.normalize_packed c lay (Packed.encode lay st)))
        (fst (Canon.normalize c st)))

(* [Intern] takes its slot from the low bits of the hash, so states that
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
   (a search that exceeds the cap counts the 4,000 it held). *)
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
    (826, 414, 108, 88, 41, 104); (158, 80, 66, 158, 80, 66);
    (854, 161, 412, 46, 11, 63); (4000, 4000, 4000, 2596, 42, 3134);
    (4000, 4000, 4000, 2645, 193, 2902); (75, 75, 58, 14, 14, 27);
    (321, 321, 148, 40, 40, 70); (1363, 1363, 326, 121, 121, 186);
    (4000, 4000, 2323, 4000, 4000, 4508); (468, 468, 155, 468, 468, 155);
    (4000, 4000, 4000, 4000, 4000, 4922); (305, 305, 180, 305, 305, 180);
    (4000, 4000, 4000, 3690, 3690, 3849); (400, 400, 47, 400, 400, 47);
    (4000, 4000, 4000, 4000, 4000, 5149); (108, 108, 88, 10, 10, 20);
    (4000, 4000, 2193, 906, 906, 945); (218, 218, 180, 218, 218, 180);
    (4000, 4000, 2121, 461, 461, 550); (1024, 1024, 70, 1024, 1024, 70);
    (4000, 4000, 4000, 1277, 1277, 1481);
  ]

let test_states_visited_unchanged () =
  let visited f =
    Ddlock_obs.Metrics.reset ();
    (try ignore (f ()) with Explore.Too_large _ -> ());
    Ddlock_obs.Metrics.counter_value "explore.states_visited"
  in
  let max_states = 4_000 in
  Ddlock_obs.Control.on ();
  let got =
    Fun.protect ~finally:Ddlock_obs.Control.off @@ fun () ->
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
  Ddlock_obs.Metrics.reset ();
  List.iteri
    (fun i (e, g) ->
      if e <> g then Alcotest.failf "system %d: states_visited changed" i)
    (List.combine visited_expected got)

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

(* ------------------------------------------------------------------ *)
(* The search substrate: intern tables, hash/equal, commutation        *)
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
  (* Dedup in the search table rests on [hash] being compatible with
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

let test_schedule_to_every_state () =
  let sys = fig2ish () in
  let sp = Explore.explore sys in
  Seq.iter
    (fun st ->
      check bool_t "reachable" true (Explore.is_reachable sp st);
      match Explore.schedule_to sp st with
      | None -> Alcotest.fail "schedule_to must succeed"
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
    Alcotest.test_case "explore schedule_to" `Quick test_explore_schedule_to;
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
    Alcotest.test_case "states_visited unchanged" `Quick
      test_states_visited_unchanged;
    Alcotest.test_case "Too_large on multi-word systems" `Quick
      test_too_large_multiword;
    Alcotest.test_case "states in rank order" `Quick test_states_in_rank_order;
    Alcotest.test_case "schedule_to reaches every stored state" `Quick
      test_schedule_to_every_state;
  ]
  @ qtests

(* The intern tables under every search's state set. *)
let intern_suite =
  [
    Alcotest.test_case "intern basics" `Quick test_intern_basics;
    Alcotest.test_case "intern growth" `Quick test_intern_growth;
    Alcotest.test_case "intern collisions" `Quick test_intern_collisions;
    Fixtures.to_alcotest intern_prop;
  ]

(* The purity contracts dedup and the partial-order reduction rest on. *)
let hash_suite =
  [
    Alcotest.test_case "lemma1 nodes reached along two paths" `Quick
      test_lemma1_hash_orders;
  ]
  @ List.map Fixtures.to_alcotest [ hash_compatible_prop; commutation_prop ]
