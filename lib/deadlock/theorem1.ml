open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

let verdicts ?max_states sys =
  ( Explore.deadlock_free ?max_states sys,
    Prefix_search.deadlock_free ?max_states sys )

let centralized_witness sys steps =
  let n = System.size sys in
  let db = System.db sys in
  let totals =
    List.init n (fun i ->
        let tx = System.txn sys i in
        let executed = Schedule.project steps i in
        let prefix = Transaction.down_closure tx executed in
        (* The projection is already consistent; append a linear extension
           of the remaining induced subgraph. *)
        let remaining_order =
          List.filter
            (fun v -> not (Bitset.mem prefix v))
            (Array.to_list (Transaction.order tx))
        in
        let order = executed @ remaining_order in
        let nodes = List.map (Transaction.node tx) order in
        match Transaction.of_total_order db nodes with
        | Ok t -> t
        | Error _ ->
            invalid_arg "Theorem1.centralized_witness: projection not total")
  in
  System.create totals

let extension_pairs sys =
  if System.size sys <> 2 then
    invalid_arg "Theorem1: needs exactly 2 transactions";
  let db = System.db sys in
  let tx i = System.txn sys i in
  let exts i =
    Seq.map
      (fun order ->
        match
          Transaction.of_total_order db
            (List.map (Transaction.node (tx i)) order)
        with
        | Ok t -> t
        | Error _ -> assert false)
      (Transaction.linear_extensions (tx i))
  in
  Seq.concat_map (fun t1 -> Seq.map (fun t2 -> (t1, t2)) (exts 1)) (exts 0)

let extension_pair_deadlocks sys =
  Seq.exists
    (fun (t1, t2) -> not (Explore.deadlock_free (System.create [ t1; t2 ])))
    (extension_pairs sys)

let extension_pairs_all_safe sys =
  Seq.for_all
    (fun (t1, t2) -> Result.is_ok (Explore.safe (System.create [ t1; t2 ])))
    (extension_pairs sys)
