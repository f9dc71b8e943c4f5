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

(* The shapes the polynomial deciders are checked on, by [seed]: pairs,
   3-4-transaction systems, copies with an extra transaction, zipf
   systems and guard-ring copies; every other shape is re-parsed over
   130 more entities, so that its entity rows span three words. *)
let decider_system seed =
  let st = rng seed in
  let module G = Ddlock_workload.Gentx in
  let bit = seed / 5 mod 2 in
  let sys =
    match seed mod 5 with
    | 0 -> small_random_pair st
    | 1 -> small_random_system st ~txns:(3 + bit)
    | 2 -> G.random_copies_system ~extra:true st ~copies:(2 + bit)
    | 3 -> G.zipf_system st ~sites:2 ~entities:(4 + (2 * bit)) ~txns:3 ~theta:0.8
    | _ ->
        System.copies (G.guard_ring (2 + (seed / 5 mod 4))) (2 + (seed / 20 mod 2))
  in
  if seed / 10 mod 2 = 0 then sys else G.widen ~pad:130 sys

(* A state as plain data (the executed nodes of each transaction), for
   sorting and comparing state sets. *)
let state_key (st : Ddlock_schedule.State.t) =
  Array.map Ddlock_graph.Bitset.to_list st

module Rw_txn = Ddlock_rw.Rw_txn

(* A random total-order transaction over [k] entities taken in random
   order, with random modes (Write only when [write_only]); each Unlock
   lands anywhere after its Lock, so transactions lock in opposite
   orders and need not be two-phase. *)
let random_order_txn st db ~k ~write_only =
  let ents =
    Array.of_list (Ddlock_workload.Gentx.random_entity_subset st db ~k)
  in
  for i = Array.length ents - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = ents.(i) in
    ents.(i) <- ents.(j);
    ents.(j) <- t
  done;
  let nodes = ref [] and held = ref [] and next = ref 0 in
  let emit entity op = nodes := { Rw_txn.entity; op } :: !nodes in
  while !next < k || !held <> [] do
    let lockable = if !next < k then 1 else 0 in
    let c = Random.State.int st (List.length !held + lockable) in
    if c = List.length !held then begin
      let e = ents.(!next) in
      incr next;
      let m =
        if write_only || Random.State.bool st then Rw_txn.Write
        else Rw_txn.Read
      in
      emit e (Rw_txn.Lock m);
      held := e :: !held
    end
    else begin
      let e = List.nth !held c in
      emit e Rw_txn.Unlock;
      held := List.filter (fun x -> x <> e) !held
    end
  done;
  match Rw_txn.of_total_order db (List.rev !nodes) with
  | Ok t -> t
  | Error _ -> assert false

(* Two or three transactions of two or three accesses each, over three
   entities on one to three sites: the Rw test pool. *)
let random_rw_system st ~write_only =
  let sites = 1 + Random.State.int st 3 in
  let db = Ddlock_workload.Gentx.random_db ~sites ~entities:3 in
  let mk () =
    random_order_txn st db ~k:(2 + Random.State.int st 2) ~write_only
  in
  Ddlock_rw.Rw_system.create
    (List.init (2 + Random.State.int st 2) (fun _ -> mk ()))
