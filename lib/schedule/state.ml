open Ddlock_graph
open Ddlock_model

type t = Bitset.t array

let initial sys =
  Array.init (System.size sys) (fun i ->
      Transaction.empty_prefix (System.txn sys i))

let final sys =
  Array.init (System.size sys) (fun i ->
      Transaction.full_prefix (System.txn sys i))

let copy st = Array.map Bitset.copy st
let equal a b = Array.length a = Array.length b && Array.for_all2 Bitset.equal a b

let is_valid sys st =
  Array.length st = System.size sys
  && Array.for_all2
       (fun tx p -> Transaction.is_prefix tx p)
       (System.txns sys) st

(* [j] holds [x]: it has locked but not unlocked it. *)
let holds sys st j x =
  let tx = System.txn sys j in
  Transaction.accesses tx x
  && Bitset.mem st.(j) (Transaction.lock_node_exn tx x)
  && not (Bitset.mem st.(j) (Transaction.unlock_node_exn tx x))

let holder sys st x =
  let n = System.size sys in
  let rec go j =
    if j >= n then None else if holds sys st j x then Some j else go (j + 1)
  in
  go 0

let held sys st i = Transaction.held_in_prefix (System.txn sys i) st.(i)

let finished sys st i =
  Bitset.cardinal st.(i) = Transaction.node_count (System.txn sys i)

let all_finished sys st =
  let n = System.size sys in
  let rec go i = i >= n || (finished sys st i && go (i + 1)) in
  go 0

let rec held_by_other sys st i x j =
  j < System.size sys
  && ((j <> i && holds sys st j x) || held_by_other sys st i x (j + 1))

(* Node [v] of [Tᵢ], minimal among its remaining nodes, can run: an
   Unlock always can, a Lock when no other transaction holds its
   entity.  Loops and top-level recursion only, so deciding it
   allocates nothing. *)
let can_run sys st i v =
  let nd = Transaction.node (System.txn sys i) v in
  match nd.Node.op with
  | Node.Unlock -> true
  | Node.Lock -> not (held_by_other sys st i nd.Node.entity 0)

(* Transactions ascending and, within each, node ids descending. *)
let enabled sys st =
  let steps = ref [] in
  for i = System.size sys - 1 downto 0 do
    let tx = System.txn sys i in
    for v = 0 to Transaction.node_count tx - 1 do
      if Transaction.is_minimal_remaining tx st.(i) v && can_run sys st i v
      then steps := Step.v i v :: !steps
    done
  done;
  !steps

(* Only the changed row is copied; the others are shared with [st], so
   no code may mutate a state it did not build. *)
let apply st (step : Step.t) =
  let st' = Array.copy st in
  let row = Bitset.copy st.(step.Step.txn) in
  Bitset.set row step.Step.node;
  st'.(step.Step.txn) <- row;
  st'

(* A Lock still minimal in [Tᵢ]'s prefix is not held by [Tᵢ], so a
   minimal node is blocked exactly when it cannot run, and a state is a
   deadlock exactly when nothing can run and some transaction is
   unfinished (each unfinished one has a minimal remaining node).  The
   scan stops at the first step that can run. *)
let rec some_runs sys st i v =
  i < System.size sys
  &&
  let tx = System.txn sys i in
  if v >= Transaction.node_count tx then some_runs sys st (i + 1) 0
  else
    (Transaction.is_minimal_remaining tx st.(i) v && can_run sys st i v)
    || some_runs sys st i (v + 1)

let is_deadlock sys st =
  (not (some_runs sys st 0 0)) && not (all_finished sys st)

let size st = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 st

let pp sys ppf st =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i p ->
      let tx = System.txn sys i in
      Format.fprintf ppf "T%d: {" (i + 1);
      Bitset.iter
        (fun v ->
          Format.fprintf ppf " %s"
            (Node.to_string (System.db sys) (Transaction.node tx v)))
        p;
      Format.fprintf ppf " }@,")
    st;
  Format.fprintf ppf "@]"
