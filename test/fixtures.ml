(* Shared fixtures: machine-checked reconstructions of the paper's figures
   and common helpers.  The 1986 scan's figures are OCR-garbled, so each
   reconstruction is built to satisfy exactly the properties the paper
   uses it for; the test suites verify those properties. *)

open Ddlock_model

(* Paper figures now live in the library (Ddlock_workload.Figures); the
   fixtures simply re-export them for the test suites. *)
let fig1 = Ddlock_workload.Figures.fig1
let fig1_deadlock_prefix = Ddlock_workload.Figures.fig1_deadlock_prefix
let fig2_txn () =
  let t = Ddlock_workload.Figures.fig2_txn () in
  (Transaction.db t, t)
let fig2 = Ddlock_workload.Figures.fig2
let fig3_txn () =
  let t = Ddlock_workload.Figures.fig3_txn () in
  (Transaction.db t, t)
let fig3 = Ddlock_workload.Figures.fig3
let fig6_txn = Ddlock_workload.Figures.fig6_txn

(* Deterministic RNG for reproducible tests. *)
let rng seed = Random.State.make [| seed; 0xddf0c |]

(* Deterministic qcheck wrapper: a fixed seed per property, so the suite
   is reproducible run-to-run (QCHECK_SEED still overrides via env). *)
let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed2026 |]) test

(* Small random systems for ground-truth comparisons — the shared
   generators live in Workload.Gentx (also used by fuzz and bench). *)
let small_random_pair st = Ddlock_workload.Gentx.small_random_pair st
let small_random_system st ~txns = Ddlock_workload.Gentx.small_random_system st ~txns

(* A state as plain data (the executed nodes of each transaction), for
   sorting and comparing state sets. *)
let state_key (st : Ddlock_schedule.State.t) =
  Array.map Ddlock_graph.Bitset.to_list st
