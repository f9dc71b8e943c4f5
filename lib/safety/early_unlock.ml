open Ddlock_model

let sequence t =
  if not (Lemma2.is_total t) then
    invalid_arg "Early_unlock: transactions must be total orders";
  Transaction.order t

let position seq v =
  let rec go i = if seq.(i) = v then i else go (i + 1) in
  go 0

let span t x =
  let seq = sequence t in
  position seq (Transaction.unlock_node_exn t x)
  - position seq (Transaction.lock_node_exn t x)

let total_span sys =
  Array.fold_left
    (fun acc t ->
      List.fold_left (fun acc x -> acc + span t x) acc (Transaction.entities t))
    0 (System.txns sys)

type stats = { swaps : int; span_before : int; span_after : int }

let of_sequence db t seq =
  Transaction.of_total_order db
    (List.map (Transaction.node t) (Array.to_list seq))

(* Remove the element at [from] and reinsert it so that it lands at
   position [to_] in the resulting array. *)
let reinsert seq ~from ~to_ =
  let v = seq.(from) in
  let rest = Array.of_list (List.filteri (fun i _ -> i <> from) (Array.to_list seq)) in
  Array.concat
    [ Array.sub rest 0 to_; [| v |]; Array.sub rest to_ (Array.length rest - to_) ]

(* One improvement pass: for every transaction and entity, move its
   Unlock to the earliest certified position and its Lock to the latest.
   Returns the improved system and the number of accepted moves. *)
let improve_once sys accept =
  let db = System.db sys in
  let txns = Array.copy (System.txns sys) in
  let moves = ref 0 in
  let attempt i seq =
    match of_sequence db txns.(i) seq with
    | Error _ -> false
    | Ok t' ->
        let txns' = Array.copy txns in
        txns'.(i) <- t';
        let sys' = System.create (Array.to_list txns') in
        (* Accept only certified moves that strictly shrink the global
           span — guarantees both soundness and termination. *)
        if
          total_span sys' < total_span (System.create (Array.to_list txns))
          && accept sys'
        then begin
          txns.(i) <- t';
          incr moves;
          true
        end
        else false
  in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun x ->
          (* Earliest position for Ux: scan upward from just after Lx. *)
          let t = txns.(i) in
          let seq = sequence t in
          let ux = Transaction.unlock_node_exn t x in
          let lx = Transaction.lock_node_exn t x in
          let pu = position seq ux and pl = position seq lx in
          let rec try_unlock p =
            if p < pu then
              if attempt i (reinsert seq ~from:pu ~to_:p) then ()
              else try_unlock (p + 1)
          in
          try_unlock (pl + 1);
          (* Latest position for Lx: scan downward from just before Ux. *)
          let t = txns.(i) in
          let seq = sequence t in
          let ux = position seq (Transaction.unlock_node_exn t x) in
          let pl = position seq (Transaction.lock_node_exn t x) in
          let rec try_lock p =
            if p > pl then
              if attempt i (reinsert seq ~from:pl ~to_:p) then ()
              else try_lock (p - 1)
          in
          try_lock (ux - 1))
        (Transaction.entities txns.(i)))
    txns;
  (System.create (Array.to_list txns), !moves)

let minimize_spans sys =
  let before = total_span sys in
  if not (Many.safe_and_deadlock_free sys) then
    (sys, { swaps = 0; span_before = before; span_after = before })
  else begin
    let accept sys' = Many.safe_and_deadlock_free sys' in
    let rec fixpoint sys total =
      let sys', moves = improve_once sys accept in
      (* Every accepted move strictly decreases the global span, which is
         bounded below, so this terminates. *)
      if moves > 0 then fixpoint sys' (total + moves)
      else (sys', total)
    in
    let sys', swaps = fixpoint sys 0 in
    (sys', { swaps; span_before = before; span_after = total_span sys' })
  end
