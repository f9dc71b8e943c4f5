open Ddlock_model
open Ddlock_rw

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Small helper: build a total-order rw transaction from a spec. *)
let rw db spec =
  match
    Rw_txn.of_total_order db
      (List.map
         (fun (op, name) ->
           let e = Db.find_entity_exn db name in
           match op with
           | `R -> { Rw_txn.entity = e; op = Rw_txn.Lock Rw_txn.Read }
           | `W -> { Rw_txn.entity = e; op = Rw_txn.Lock Rw_txn.Write }
           | `U -> { Rw_txn.entity = e; op = Rw_txn.Unlock })
         spec)
  with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "invalid rw txn: %s"
        (String.concat "; "
           (List.map (fun e -> Format.asprintf "%a" (Rw_txn.pp_error db) e) es))

let db2 () = Db.one_site_per_entity [ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Validation and basics                                               *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let db = db2 () in
  let t = rw db [ (`R, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  check int_t "nodes" 4 (Rw_txn.node_count t);
  let a = Db.find_entity_exn db "a" and b = Db.find_entity_exn db "b" in
  check bool_t "mode a" true (Rw_txn.mode_of t a = Rw_txn.Read);
  check bool_t "mode b" true (Rw_txn.mode_of t b = Rw_txn.Write);
  check bool_t "2PL" true (Rw_txn.is_two_phase t);
  (* Double lock rejected. *)
  (match
     Rw_txn.of_total_order db
       [
         { Rw_txn.entity = a; op = Rw_txn.Lock Rw_txn.Read };
         { Rw_txn.entity = a; op = Rw_txn.Lock Rw_txn.Write };
         { Rw_txn.entity = a; op = Rw_txn.Unlock };
       ]
   with
  | Error es ->
      check bool_t "bad ops" true
        (List.exists (function Rw_txn.Bad_entity_ops _ -> true | _ -> false) es)
  | Ok _ -> Alcotest.fail "expected error")

let test_to_exclusive () =
  let db = db2 () in
  let t = rw db [ (`R, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let x = Rw_txn.to_exclusive t in
  check int_t "same node count" 4 (Transaction.node_count x);
  check bool_t "same entities" true
    (Transaction.entities x = Rw_txn.entities t)

(* ------------------------------------------------------------------ *)
(* Shared-lock semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_readers_share () =
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`U, "a") ] in
  let t2 = rw db [ (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  (* Both can hold a simultaneously. *)
  let st = Rw_system.initial sys in
  let st = Rw_system.apply st { Rw_system.txn = 0; node = 0 } in
  let st = Rw_system.apply st { Rw_system.txn = 1; node = 0 } in
  let a = Db.find_entity_exn db "a" in
  let hs, mode = Rw_system.holders sys st a in
  check (Alcotest.list int_t) "two holders" [ 0; 1 ] hs;
  check bool_t "read mode" true (mode = Some Rw_txn.Read);
  (* Under the exclusive abstraction this state is unreachable. *)
  check bool_t "rw df" true (Rw_system.deadlock_free sys);
  check bool_t "exclusive df too" true
    (Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys))

let test_writer_excludes () =
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`U, "a") ] in
  let t2 = rw db [ (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  let st = Rw_system.initial sys in
  let st = Rw_system.apply st { Rw_system.txn = 0; node = 0 } in
  (* T2's read lock is not enabled while the writer holds. *)
  let en = Rw_system.enabled sys st in
  check bool_t "reader blocked" false
    (List.exists (fun (s : Rw_system.step) -> s.txn = 1 && s.node = 0) en)

let test_rw_deadlock () =
  (* Classic upgrade-free write-write cycle. *)
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`W, "b"); (`W, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "deadlocks" false (Rw_system.deadlock_free sys);
  match Rw_system.find_deadlock sys with
  | Some (steps, st) ->
      check bool_t "deadlock state" true (Rw_system.is_deadlock sys st);
      check int_t "two steps in" 2 (List.length steps)
  | None -> Alcotest.fail "expected deadlock"

let test_readers_never_deadlock () =
  (* Read-read on the same entities in opposite orders: compatible, no
     deadlock — unlike the exclusive abstraction. *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`R, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`R, "b"); (`R, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "rw deadlock-free" true (Rw_system.deadlock_free sys);
  check bool_t "exclusive abstraction deadlocks" false
    (Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys));
  check bool_t "rw safe" true (Result.is_ok (Rw_system.safe sys))

(* ------------------------------------------------------------------ *)
(* Conflict-serializability                                            *)
(* ------------------------------------------------------------------ *)

let test_unsafe_rw () =
  (* T1 reads a, then writes b after releasing a; T2 writes a and b 2PL:
     non-2PL T1 lets T2 slip in between: r1(a) w2(a) w2(b) w1(b) has
     conflicts T1->T2 (a) and T2->T1 (b). *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`U, "a"); (`W, "b"); (`U, "b") ] in
  let t2 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  match Rw_system.safe sys with
  | Error steps ->
      check bool_t "witness complete & non-serializable" false
        (Rw_system.is_conflict_serializable sys steps)
  | Ok () -> Alcotest.fail "expected unsafe"

let test_read_only_conflictless () =
  (* Read-only transactions never conflict: conflict graph empty. *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`R, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`R, "b"); (`U, "b"); (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "safe" true (Result.is_ok (Rw_system.safe sys));
  check bool_t "deadlock-free" true (Rw_system.deadlock_free sys)

(* Random RW generator for properties. *)
let random_rw_txn st db ~k =
  let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
  (* random 2-phase or not, random modes, random positions: build a random
     total order with L before U per entity. *)
  let nodes =
    List.concat_map
      (fun e ->
        let m = if Random.State.bool st then Rw_txn.Read else Rw_txn.Write in
        [ { Rw_txn.entity = e; op = Rw_txn.Lock m };
          { Rw_txn.entity = e; op = Rw_txn.Unlock } ])
      ents
  in
  (* Random shuffle then stable fix: move each Unlock after its Lock. *)
  let arr = Array.of_list nodes in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let seen = Hashtbl.create 7 in
  let ordered =
    Array.to_list arr
    |> List.concat_map (fun (nd : Rw_txn.node) ->
           match nd.op with
           | Rw_txn.Lock _ ->
               Hashtbl.replace seen nd.entity ();
               [ nd ]
           | Rw_txn.Unlock ->
               if Hashtbl.mem seen nd.entity then [ nd ] else [])
  in
  (* Append missing unlocks. *)
  let have_unlock = Hashtbl.create 7 in
  List.iter
    (fun (nd : Rw_txn.node) ->
      if nd.op = Rw_txn.Unlock then Hashtbl.replace have_unlock nd.entity ())
    ordered;
  let missing =
    List.filter_map
      (fun e ->
        if Hashtbl.mem have_unlock e then None
        else Some { Rw_txn.entity = e; op = Rw_txn.Unlock })
      ents
  in
  match Rw_txn.of_total_order db (ordered @ missing) with
  | Ok t -> t
  | Error _ -> assert false

let rw_2pl_safe_prop =
  QCheck.Test.make ~name:"2PL rw-systems are conflict-serializable" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      (* Force 2PL: locks then unlocks. *)
      let mk () =
        let k = 1 + Random.State.int st 3 in
        let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
        let locks =
          List.map
            (fun e ->
              let m = if Random.State.bool st then Rw_txn.Read else Rw_txn.Write in
              { Rw_txn.entity = e; op = Rw_txn.Lock m })
            ents
        in
        let unlocks =
          List.map (fun e -> { Rw_txn.entity = e; op = Rw_txn.Unlock }) ents
        in
        match Rw_txn.of_total_order db (locks @ unlocks) with
        | Ok t -> t
        | Error _ -> assert false
      in
      let sys = Rw_system.create [ mk (); mk () ] in
      Result.is_ok (Rw_system.safe sys))

(* E17: how conservative is the exclusive abstraction?  Sound directions
   validated as hard properties; the interesting gap (exclusive-unsafe
   but rw-safe, e.g. read-read "conflicts") is shown by example above. *)
let exclusive_df_implies_rw_df_prop =
  QCheck.Test.make
    ~name:"exclusive-abstraction deadlock-freedom ⇒ rw deadlock-freedom"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () = random_rw_txn st db ~k:(1 + Random.State.int st 3) in
      let sys = Rw_system.create [ mk (); mk () ] in
      let excl_df =
        Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys)
      in
      QCheck.assume excl_df;
      (* Every rw deadlock state embeds an exclusive one?  Not in general
         — readers reorder differently — but on 2-txn systems a rw
         deadlock needs two incompatible (write-involving) locks, which
         deadlock the exclusive system too. *)
      Rw_system.deadlock_free sys)

(* ------------------------------------------------------------------ *)
(* RW runtime                                                          *)
(* ------------------------------------------------------------------ *)

let catalog_system k =
  let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
  let db = Db.one_site_per_entity names in
  let catalog = Db.find_entity_exn db "catalog" in
  let mk i =
    let row = Db.find_entity_exn db ("row" ^ string_of_int i) in
    match
      Rw_txn.of_total_order db
        [
          { Rw_txn.entity = catalog; op = Rw_txn.Lock Rw_txn.Read };
          { Rw_txn.entity = row; op = Rw_txn.Lock Rw_txn.Write };
          { Rw_txn.entity = catalog; op = Rw_txn.Unlock };
          { Rw_txn.entity = row; op = Rw_txn.Unlock };
        ]
    with
    | Ok t -> t
    | Error _ -> assert false
  in
  Rw_system.create (List.init k mk)

let test_runtime_completes () =
  let sys = catalog_system 4 in
  let rng = Fixtures.rng 31 in
  let stats = Rw_runtime.batch rng sys ~runs:50 in
  check int_t "no deadlocks" 0 stats.Rw_runtime.deadlocks;
  check int_t "all serializable" 0 stats.Rw_runtime.non_serializable;
  check bool_t "makespan finite" true (Float.is_finite stats.Rw_runtime.mean_makespan)

let test_runtime_readers_overlap () =
  (* Readers-share speedup must be visible: rw makespan < exclusive. *)
  let sys = catalog_system 8 in
  let rng = Fixtures.rng 32 in
  let rw = Rw_runtime.batch rng sys ~runs:50 in
  let rng = Fixtures.rng 32 in
  let excl =
    Ddlock_sim.Runtime.batch rng (Rw_system.to_exclusive sys) ~runs:50
  in
  check bool_t "rw faster" true
    (rw.Rw_runtime.mean_makespan
    < excl.Ddlock_sim.Runtime.mean_makespan)

let test_runtime_write_deadlock_detected () =
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`W, "b"); (`W, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  let rng = Fixtures.rng 33 in
  let saw = ref false in
  for _ = 1 to 200 do
    match (Rw_runtime.run rng sys).Rw_runtime.outcome with
    | Rw_runtime.Deadlock { waits_for; _ } ->
        saw := true;
        check bool_t "waits recorded" true (waits_for <> [])
    | Rw_runtime.Finished _ -> ()
  done;
  check bool_t "runtime deadlock observed" true !saw

let runtime_trace_serializable_prop =
  QCheck.Test.make
    ~name:"rw runtime completed traces are conflict-serializable (2PL)"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () =
        let k = 1 + Random.State.int st 3 in
        let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
        let locks =
          List.map
            (fun e ->
              let m = if Random.State.bool st then Rw_txn.Read else Rw_txn.Write in
              { Rw_txn.entity = e; op = Rw_txn.Lock m })
            ents
        in
        let unlocks =
          List.map (fun e -> { Rw_txn.entity = e; op = Rw_txn.Unlock }) ents
        in
        match Rw_txn.of_total_order db (locks @ unlocks) with
        | Ok t -> t
        | Error _ -> assert false
      in
      let sys = Rw_system.create [ mk (); mk (); mk () ] in
      let r = Rw_runtime.run st sys in
      match r.Rw_runtime.outcome with
      | Rw_runtime.Finished _ -> Rw_system.is_conflict_serializable sys r.Rw_runtime.trace
      | Rw_runtime.Deadlock _ -> true)

(* ------------------------------------------------------------------ *)
(* Mixed-mode pool: goldens and the exclusive equivalence             *)
(* ------------------------------------------------------------------ *)

let faulty_plan seed sys =
  Ddlock_sim.Faults.random (Fixtures.rng seed) (Rw_system.db sys) ~intensity:0.8
    ~horizon:40.0

(* Recorded before the Rw deciders and runtime moved onto the shared
   search and event loop: decider witnesses and verdicts, runtime traces,
   deadlock times and wait-for arcs, and fault-free makespans (a faulty
   run's makespan is left out: the old runtime counted late duplicate
   deliveries into it). *)
let rw_golden_digest = "8e87b134a78a8c1dc9e84a475d0e7325"

let rw_digest () =
  let b = Buffer.create (1 lsl 16) in
  let step (s : Rw_system.step) =
    Printf.bprintf b " %d.%d" s.Rw_system.txn s.Rw_system.node
  in
  let deadlocks = ref 0 in
  for si = 0 to 79 do
    let sys =
      Fixtures.random_rw_system (Fixtures.rng (7000 + si)) ~write_only:false
    in
    (match Rw_system.find_deadlock sys with
    | None -> Buffer.add_string b "df\n"
    | Some (steps, state) ->
        Buffer.add_string b "dl";
        List.iter step steps;
        Array.iter
          (fun p ->
            Buffer.add_string b " |";
            List.iter (Printf.bprintf b " %d") (Ddlock_graph.Bitset.to_list p))
          state;
        Buffer.add_char b '\n');
    (match Rw_system.safe sys with
    | Ok () -> Buffer.add_string b "safe\n"
    | Error steps ->
        Buffer.add_string b "unsafe";
        List.iter step steps;
        Buffer.add_char b '\n');
    for seed = 0 to 14 do
      List.iter
        (fun faulty ->
          let faults =
            if faulty then faulty_plan ((1000 * si) + seed) sys
            else Ddlock_sim.Faults.none
          in
          let r = Rw_runtime.run ~faults (Fixtures.rng seed) sys in
          List.iter step r.Rw_runtime.trace;
          match r.Rw_runtime.outcome with
          | Rw_runtime.Finished { makespan } ->
              if faulty then Buffer.add_string b " F\n"
              else Printf.bprintf b " F %h\n" makespan
          | Rw_runtime.Deadlock { time; waits_for } ->
              incr deadlocks;
              Printf.bprintf b " D %h" time;
              List.iter
                (fun (w, e, h) -> Printf.bprintf b " %d>%d>%d" w e h)
                waits_for;
              Buffer.add_char b '\n')
        [ false; true ]
    done
  done;
  (Digest.to_hex (Digest.string (Buffer.contents b)), !deadlocks)

let test_rw_golden_digest () =
  let digest, deadlocks = rw_digest () in
  check bool_t "deadlocks exercised" true (deadlocks > 100);
  check Alcotest.string "rw digest" rw_golden_digest digest

(* A faulty run of the pool in which a duplicated or retransmitted lock
   request reaches its manager after the last completion.  The makespan
   is that completion's time (about 21.87, measured as the last
   completion before the runtime moved onto the shared loop), not the
   time of the late delivery (about 26.52). *)
let test_rw_makespan_is_last_completion () =
  let si = 104 and seed = 2 in
  let sys =
    Fixtures.random_rw_system (Fixtures.rng (7000 + si)) ~write_only:false
  in
  let faults = faulty_plan ((1000 * si) + seed) sys in
  match (Rw_runtime.run ~faults (Fixtures.rng seed) sys).Rw_runtime.outcome with
  | Rw_runtime.Finished { makespan } ->
      check (Alcotest.float 0.0) "makespan = last completion"
        0x1.5de3cb7512a69p+4 makespan
  | Rw_runtime.Deadlock _ -> Alcotest.fail "expected the run to finish"

(* A transaction with no steps commits at once, in both runtimes. *)
let test_empty_txn_commits () =
  let db = db2 () in
  let empty = rw db [] and t = rw db [ (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ empty; t ] in
  (match (Rw_runtime.run (Fixtures.rng 1) sys).Rw_runtime.outcome with
  | Rw_runtime.Finished _ -> ()
  | Rw_runtime.Deadlock _ -> Alcotest.fail "rw: expected the run to finish");
  match
    (Ddlock_sim.Runtime.run (Fixtures.rng 1) (Rw_system.to_exclusive sys))
      .Ddlock_sim.Runtime.outcome
  with
  | Ddlock_sim.Runtime.Finished _ -> ()
  | Ddlock_sim.Runtime.Deadlock _ ->
      Alcotest.fail "exclusive: expected the run to finish"

(* Shared locks under the recovery schemes (the loop's [?read] with a
   scheme): every run of the mixed-mode pool, with and without faults
   (crashes included), commits every transaction, and the committed
   trace is a complete schedule. *)
let test_schemes_with_shared_locks () =
  let module R = Ddlock_sim.Recovery in
  for si = 0 to 39 do
    let sys =
      Fixtures.random_rw_system (Fixtures.rng (7000 + si)) ~write_only:false
    in
    let read (s : Rw_system.step) =
      (Rw_txn.node (Rw_system.txn sys s.txn) s.node).Rw_txn.op
      = Rw_txn.Lock Rw_txn.Read
    in
    let total =
      Array.fold_left (fun acc t -> acc + Rw_txn.node_count t) 0
        (Rw_system.txns sys)
    in
    List.iter
      (fun (name, scheme) ->
        for seed = 0 to 4 do
          List.iter
            (fun faults ->
              let r, _, _ =
                R.simulate ~read (Some scheme) R.default_config faults
                  (Fixtures.rng seed) (Rw_system.to_exclusive sys)
              in
              check bool_t (name ^ " commits") false r.R.stats.R.timed_out;
              check int_t (name ^ " complete trace") total
                (List.length r.R.committed_trace))
            [ Ddlock_sim.Faults.none; faulty_plan ((1000 * si) + seed) sys ]
        done)
      Ddlock_sim.Chaos.default_schemes
  done

(* An all-Write system behaves exactly like its exclusive abstraction:
   the same deadlock witness (steps and state), the same unsafe
   schedule (the Lemma-1 counterexample's steps), and the same runtime
   runs (trace, outcome, deadlock time and arcs, makespan), with and
   without faults. *)
let all_write_is_exclusive_prop =
  QCheck.Test.make ~name:"all-Write rw system = its exclusive abstraction"
    ~count:300
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let module E = Ddlock_schedule.Explore in
      let module R = Ddlock_sim.Runtime in
      let sys =
        Fixtures.random_rw_system (Fixtures.rng seed) ~write_only:true
      in
      let xsys = Rw_system.to_exclusive sys in
      let same_run faults =
        let a = Rw_runtime.run ~faults (Fixtures.rng seed) sys
        and x = R.run ~faults (Fixtures.rng seed) xsys in
        List.map
          (fun (s : Rw_system.step) -> (s.Rw_system.txn, s.Rw_system.node))
          a.Rw_runtime.trace
        = List.map
            (fun (e : R.trace_entry) -> (e.R.step.txn, e.R.step.node))
            x.R.trace
        &&
        match (a.Rw_runtime.outcome, x.R.outcome) with
        | Rw_runtime.Finished { makespan = m }, R.Finished { makespan } ->
            m = makespan
        | ( Rw_runtime.Deadlock { time = t; waits_for = w },
            R.Deadlock { time; waits_for; _ } ) ->
            t = time && w = waits_for
        | _ -> false
      in
      (match (Rw_system.find_deadlock sys, E.find_deadlock xsys) with
      | None, None -> true
      | Some (steps, st), Some (steps', st') ->
          steps = steps' && Ddlock_schedule.State.equal st st'
      | _ -> false)
      && (match (Rw_system.safe sys, E.safe xsys) with
         | Ok (), Ok () -> true
         | Error steps, Error cex -> steps = cex.E.steps
         | _ -> false)
      && same_run Ddlock_sim.Faults.none
      && same_run (faulty_plan seed sys))

(* The deciders run on the shared search: its exact cap (which covers
   the initial state) and its cancellation poll. *)
let test_rw_search_budget () =
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`W, "b"); (`W, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  let raises_too_large f =
    match f () with
    | _ -> false
    | exception Rw_system.Too_large 0 -> true
  in
  check bool_t "find_deadlock cap 0" true
    (raises_too_large (fun () ->
         ignore (Rw_system.find_deadlock ~max_states:0 sys)));
  check bool_t "safe cap 0" true
    (raises_too_large (fun () -> ignore (Rw_system.safe ~max_states:0 sys)));
  let cancelled f =
    match Ddlock_obs.Cancel.with_poll (fun () -> true) f with
    | _ -> false
    | exception Ddlock_obs.Cancel.Cancelled -> true
  in
  check bool_t "find_deadlock cancelled" true
    (cancelled (fun () -> ignore (Rw_system.find_deadlock sys)));
  check bool_t "safe cancelled" true
    (cancelled (fun () -> ignore (Rw_system.safe sys)))

(* The deciders' kernel: on the exclusive abstraction's layout with the
   Read locks shared, the packed enabled steps and deadlock test are
   [Rw_system.enabled] and [is_deadlock], along random runs. *)
let packed_read_layout_prop =
  QCheck.Test.make ~name:"packed read layout = Rw_system.enabled"
    ~count:200
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let module P = Ddlock_schedule.Packed in
      let st = Fixtures.rng seed in
      let sys = Fixtures.random_rw_system st ~write_only:false in
      let lay =
        P.layout ~read:(Rw_system.read sys) (Rw_system.to_exclusive sys)
      in
      let agrees s =
        let p = P.encode lay s in
        P.enabled lay p = Rw_system.enabled sys s
        && P.is_deadlock lay p = Rw_system.is_deadlock sys s
      in
      let rec walk s =
        agrees s
        &&
        match Rw_system.enabled sys s with
        | [] -> true
        | steps ->
            let n = List.length steps in
            walk (Rw_system.apply s (List.nth steps (Random.State.int st n)))
      in
      walk (Rw_system.initial sys))

(* Breadth-first search over decoded states with {!Rw_system.enabled}:
   the first deadlock discovered, with the schedule that discovered it.
   It stores every reachable state. *)
let reference_deadlock sys =
  let seen = Hashtbl.create 256 and q = Queue.create () in
  let hit = ref None in
  let visit st rev_steps =
    let key = Fixtures.state_key st in
    if !hit = None && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      if Rw_system.is_deadlock sys st then hit := Some (List.rev rev_steps, st)
      else Queue.push (st, rev_steps) q
    end
  in
  visit (Rw_system.initial sys) [];
  while !hit = None && not (Queue.is_empty q) do
    let st, rev_steps = Queue.pop q in
    List.iter
      (fun s -> visit (Rw_system.apply st s) (s :: rev_steps))
      (Rw_system.enabled sys st)
  done;
  !hit

(* The packed decider drops the successors that cannot deadlock, yet
   finds the reference's deadlock and schedule. *)
let rw_find_deadlock_reference_prop =
  QCheck.Test.make ~name:"Rw find_deadlock = decoded shared/exclusive BFS"
    ~count:300 QCheck.(int_bound 10_000_000) (fun seed ->
      let sys = Fixtures.random_rw_system (Fixtures.rng seed) ~write_only:false in
      match (Rw_system.find_deadlock sys, reference_deadlock sys) with
      | Some (steps, st), Some (steps', st') ->
          steps = steps' && Ddlock_schedule.State.equal st st'
      | None, None -> true
      | _ -> false)

let qtests =
  List.map Fixtures.to_alcotest
    [
      packed_read_layout_prop;
      rw_2pl_safe_prop;
      exclusive_df_implies_rw_df_prop;
      runtime_trace_serializable_prop;
      all_write_is_exclusive_prop;
      rw_find_deadlock_reference_prop;
    ]

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "to_exclusive" `Quick test_to_exclusive;
    Alcotest.test_case "readers share" `Quick test_readers_share;
    Alcotest.test_case "writer excludes" `Quick test_writer_excludes;
    Alcotest.test_case "write-write deadlock" `Quick test_rw_deadlock;
    Alcotest.test_case "readers never deadlock" `Quick
      test_readers_never_deadlock;
    Alcotest.test_case "unsafe rw pair" `Quick test_unsafe_rw;
    Alcotest.test_case "read-only conflictless" `Quick
      test_read_only_conflictless;
    Alcotest.test_case "runtime completes" `Quick test_runtime_completes;
    Alcotest.test_case "runtime readers overlap" `Quick
      test_runtime_readers_overlap;
    Alcotest.test_case "runtime write deadlock" `Quick
      test_runtime_write_deadlock_detected;
    Alcotest.test_case "rw golden digest" `Quick test_rw_golden_digest;
    Alcotest.test_case "rw search budget" `Quick test_rw_search_budget;
    Alcotest.test_case "rw makespan is last completion" `Quick
      test_rw_makespan_is_last_completion;
    Alcotest.test_case "empty transaction commits" `Quick
      test_empty_txn_commits;
    Alcotest.test_case "schemes with shared locks" `Quick
      test_schemes_with_shared_locks;
  ]
  @ qtests
