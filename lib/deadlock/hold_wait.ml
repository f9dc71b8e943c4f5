open Ddlock_graph
open Ddlock_model

(* Entities accessed by two or more transactions. *)
let shared_entities txns e =
  let seen = Bitset.create e and shared = Bitset.create e in
  Array.iter
    (fun t ->
      let r = Transaction.entity_set t in
      for y = 0 to e - 1 do
        if Bitset.mem r y then
          if Bitset.mem seen y then Bitset.set shared y else Bitset.set seen y
      done)
    txns;
  shared

(* The hold-and-wait graph of [txns] over [e] entities, with the
   colours of a DFS over its nodes (Tᵢ, x) at [i * e + x] of [col]:
   '\000' unseen, '\001' on the stack, '\002' done.  [visit] returns
   [true] when it closes a cycle. *)
type graph = {
  txns : Transaction.t array;
  e : int;
  shared : Bitset.t;
  col : Bytes.t;
}

(* Lᵢy ≺ Uᵢx and ¬(Lᵢy ≺ Lᵢx): Tᵢ can hold x while it waits at Lᵢy,
   which it must pass before it unlocks x. *)
let waits t x y =
  y <> x
  && Transaction.accesses t y
  &&
  let ly = Transaction.lock_node_exn t y in
  Transaction.precedes t ly (Transaction.unlock_node_exn t x)
  && not (Transaction.precedes t ly (Transaction.lock_node_exn t x))

let rec visit g i x =
  Bytes.set g.col ((i * g.e) + x) '\001';
  let cyclic = wait_from g i x 0 in
  Bytes.set g.col ((i * g.e) + x) '\002';
  cyclic

(* Some y ≥ [y] that Tᵢ can wait for while holding x leads to a cycle. *)
and wait_from g i x y =
  y < g.e
  && ((Bitset.mem g.shared y && waits g.txns.(i) x y && held_by g i y 0)
     || wait_from g i x (y + 1))

(* Some Tⱼ, j ≥ [j], j ≠ i, that can hold y leads to a cycle. *)
and held_by g i y j =
  j < Array.length g.txns
  && ((j <> i && Transaction.accesses g.txns.(j) y && enter g j y)
     || held_by g i y (j + 1))

(* The arc into (Tⱼ, y) closes a cycle, or (Tⱼ, y) is unseen and leads
   to one. *)
and enter g j y =
  match Bytes.get g.col ((j * g.e) + y) with
  | '\001' -> true
  | '\000' -> visit g j y
  | _ -> false

let certifies sys =
  let txns = System.txns sys and e = Db.entity_count (System.db sys) in
  let n = Array.length txns in
  let g =
    { txns; e; shared = shared_entities txns e; col = Bytes.make (n * e) '\000' }
  in
  (* Only a shared entity has arcs in, so only its nodes can lie on a
     cycle. *)
  let rec acyclic_from k =
    k >= n * e
    || (let i = k / e and x = k mod e in
        not
          (Bitset.mem g.shared x
          && Transaction.accesses txns.(i) x
          && Bytes.get g.col k = '\000'
          && visit g i x))
       && acyclic_from (k + 1)
  in
  acyclic_from 0
