(* A mini-warehouse spanning three database sites, exercising the whole
   toolkit in one realistic flow:

   1. write the workload's transactions naively (each locks in its own
      "natural" order);
   2. Theorem 4 rejects the system and its witness is replayed;
   3. the minimizer isolates the deadlocking core;
   4. the simulator quantifies how often it actually deadlocks, and
      wound-wait shows the runtime cost of not fixing it statically;
   5. the global-lock-order repair produces a certified system;
   6. the early-unlock optimizer then shortens lock spans without
      losing the certificate;
   7. the repaired system runs clean.

     dune exec examples/warehouse.exe
*)

open Ddlock
module Db = Model.Db
module Builder = Model.Builder
module System = Model.System
module Transaction = Model.Transaction

let db =
  Db.create
    [
      ("warehouse", [ "stock"; "orders" ]);
      ("accounting", [ "ledger" ]);
      ("customers", [ "profiles" ]);
    ]

(* Naive lock orders: each transaction locks "what it touches first". *)
let new_order = Builder.two_phase_chain db [ "orders"; "stock"; "ledger" ]
let payment = Builder.two_phase_chain db [ "profiles"; "ledger"; "orders" ]
let restock = Builder.two_phase_chain db [ "stock"; "orders" ]
let audit = Builder.two_phase_chain db [ "ledger"; "profiles" ]
let naive = System.create [ new_order; payment; restock; audit ]

let () =
  Format.printf "== naive warehouse workload ==@.";
  let report = Analysis.report naive in
  Format.printf "%a@.@." (Analysis.pp_report naive) report;

  (* 2. The witness, replayed and narrated.  Here the failure is already
     pairwise: payment and audit lock ledger/profiles in opposite orders. *)
  (match report.Analysis.safety with
  | Analysis.Pair_violation { i; j; _ } ->
      (match
         Analysis.pair_counterexample (System.txn naive i) (System.txn naive j)
       with
      | Some cex ->
          let pair = System.create [ System.txn naive i; System.txn naive j ] in
          Format.printf "counterexample for (T%d, T%d):@.%a@.@." (i + 1)
            (j + 1) (Sched.Narrate.pp pair) cex.Analysis.steps;
          assert (not (Sched.Dgraph.is_serializable pair cex.Analysis.steps))
      | None -> assert false)
  | Analysis.Cycle_violation w ->
      Format.printf "Theorem 4 witness S*:@.%a@.@." (Sched.Narrate.pp naive)
        w.Safety.Many.schedule;
      assert (Sched.Schedule.is_legal naive w.Safety.Many.schedule);
      assert (not (Sched.Dgraph.is_serializable naive w.Safety.Many.schedule))
  | Analysis.Safe_and_deadlock_free -> assert false);

  (* 3. The deadlocking core. *)
  (match Minimize.deadlock_core naive with
  | Minimize.Core core ->
      Format.printf "minimal deadlocking core: %s@."
        (String.concat ", "
           (List.map
              (fun i -> "T" ^ string_of_int (i + 1))
              core.Minimize.kept_txns));
      List.iter
        (fun (i, e) ->
          Format.printf "  (T%d's access to %s is irrelevant)@." (i + 1)
            (Db.entity_name db e))
        core.Minimize.dropped_entities
  | Minimize.Deadlock_free | Minimize.Gave_up _ -> assert false);

  (* 4. Dynamic cost of shipping it anyway. *)
  let rng = Random.State.make [| 42 |] in
  let plain = Sim.Runtime.batch rng naive ~runs:300 in
  Format.printf "@.simulated untreated:  %a@." Sim.Runtime.pp_batch plain;
  let rng = Random.State.make [| 42 |] in
  let ww = Sim.Recovery.batch ~scheme:Sim.Recovery.Wound_wait rng naive ~runs:300 in
  Format.printf "simulated wound-wait: %a@.@." Sim.Recovery.pp_batch ww;

  (* 5. Repair with a global lock order. *)
  let repaired = Option.get (Analysis.repair_with_global_order naive) in
  Format.printf "== repaired (global lock order) ==@.";
  (match Analysis.safe_and_deadlock_free repaired with
  | Analysis.Safe_and_deadlock_free ->
      Format.printf "Theorem 4: safe and deadlock-free@."
  | _ -> assert false);

  (* 6. Early unlock: shrink spans while keeping the certificate. *)
  let optimized, stats = Safety.Early_unlock.minimize_spans repaired in
  Format.printf "early unlock: span %d -> %d (%d moves), still certified: %b@."
    stats.Safety.Early_unlock.span_before stats.Safety.Early_unlock.span_after
    stats.Safety.Early_unlock.swaps
    (Safety.Many.safe_and_deadlock_free optimized);

  (* 7. Clean runs. *)
  let rng = Random.State.make [| 42 |] in
  let fixed = Sim.Runtime.batch rng optimized ~runs:300 in
  Format.printf "simulated repaired:   %a@." Sim.Runtime.pp_batch fixed;
  assert (fixed.Sim.Runtime.deadlocks = 0);
  assert (fixed.Sim.Runtime.non_serializable = 0)
