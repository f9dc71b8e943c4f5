open Ddlock_model

let entity_of sys (s : Step.t) =
  (Transaction.node (System.txn sys s.Step.txn) s.Step.node).Node.entity

let independent sys (s : Step.t) (t : Step.t) =
  s.Step.txn <> t.Step.txn && entity_of sys s <> entity_of sys t

let commutes sys st (s : Step.t) (t : Step.t) =
  let after_s = State.apply st s in
  let after_t = State.apply st t in
  let t_alive = List.mem t (State.enabled sys after_s) in
  let s_alive = List.mem s (State.enabled sys after_t) in
  match (t_alive, s_alive) with
  | false, false -> true (* conflict both ways: no diamond to check *)
  | true, true ->
      State.equal (State.apply after_s t) (State.apply after_t s)
  | _ -> false

let has_independent_pair sys =
  let n = System.size sys in
  let cross = ref false in
  for i = 0 to n - 1 do
    let ti = System.txn sys i in
    for j = i + 1 to n - 1 do
      let tj = System.txn sys j in
      for u = 0 to Transaction.node_count ti - 1 do
        for v = 0 to Transaction.node_count tj - 1 do
          if
            (Transaction.node ti u).Node.entity
            <> (Transaction.node tj v).Node.entity
          then cross := true
        done
      done
    done
  done;
  let diamond = ref false in
  for i = 0 to n - 1 do
    let ti = System.txn sys i in
    let m = Transaction.node_count ti in
    for u = 0 to m - 1 do
      for v = u + 1 to m - 1 do
        if (not (Transaction.precedes ti u v)) && not (Transaction.precedes ti v u)
        then diamond := true
      done
    done
  done;
  !cross || !diamond
