(* Quickstart: build two distributed transactions with the DSL, run the
   paper's O(n²) pair test (Theorem 3), inspect the verdict, and
   cross-check with the exhaustive decider.

     dune exec examples/quickstart.exe
*)

open Ddlock
module Db = Model.Db
module Builder = Model.Builder
module System = Model.System

let () =
  (* A two-site database: account table on site 1, audit log on site 2. *)
  let db = Db.create [ ("db1", [ "accounts" ]); ("db2", [ "audit" ]) ] in

  (* Both transactions lock the accounts first, then the audit log,
     two-phase style: Laccounts < Laudit < Uaccounts < Uaudit. *)
  let t1 = Builder.two_phase_chain db [ "accounts"; "audit" ] in
  let t2 = Builder.two_phase_chain db [ "accounts"; "audit" ] in

  Format.printf "T1 = %a@.@." Model.Transaction.pp t1;

  (* Theorem 3: the polynomial pair test. *)
  (match Safety.Pair.check t1 t2 with
  | Ok () -> Format.printf "Theorem 3: safe and deadlock-free@."
  | Error f ->
      Format.printf "Theorem 3 fails: %a@."
        (Safety.Pair.pp_failure db ("T1", "T2"))
        f);

  (* Cross-check with the exponential ground truth (Lemma 1 search). *)
  let sys = System.create [ t1; t2 ] in
  Format.printf "exhaustive:  %s@.@."
    (match Sched.Explore.safe_and_deadlock_free sys with
    | Ok () -> "safe and deadlock-free"
    | Error _ -> "NOT safe and deadlock-free");

  (* Now break it: reverse the lock order in T2. *)
  let t2' = Builder.two_phase_chain db [ "audit"; "accounts" ] in
  (match Safety.Pair.check t1 t2' with
  | Ok () -> assert false
  | Error f ->
      Format.printf "opposed variant fails as expected: %a@."
        (Safety.Pair.pp_failure db ("T1", "T2")) f);

  (* The one-call API produces a full report. *)
  let sys' = System.create [ t1; t2' ] in
  Format.printf "@.%a@." (Analysis.pp_report sys') (Analysis.report sys')
