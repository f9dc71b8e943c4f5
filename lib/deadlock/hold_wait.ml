open Ddlock_graph
open Ddlock_model

(* Entities accessed by two or more transactions: a row of [w] words. *)
let shared_entities txns w =
  let seen = Array.make w 0 and shared = Array.make w 0 in
  Array.iter
    (fun t ->
      let a = Transaction.rows t and o = Transaction.entity_row t in
      for k = 0 to w - 1 do
        shared.(k) <- shared.(k) lor (seen.(k) land a.(o + k));
        seen.(k) <- seen.(k) lor a.(o + k)
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
  w : int;
  shared : int array;
  col : Bytes.t;
}

let rec visit g i x =
  Bytes.set g.col ((i * g.e) + x) '\001';
  let t = g.txns.(i) in
  let a = Transaction.rows t in
  let lbu = Transaction.locks_before_unlock t x
  and lb = Transaction.locks_before t x in
  let xk = x / Rows.bits and xb = 1 lsl (x mod Rows.bits) in
  let cyclic = ref false and k = ref 0 in
  while (not !cyclic) && !k < g.w do
    (* Lᵢy ≺ Uᵢx and ¬(Lᵢy ≺ Lᵢx), y ≠ x shared: Tᵢ can hold x while
       it waits at Lᵢy, which it must pass before it unlocks x. *)
    let m =
      ref
        (a.(lbu + !k)
        land lnot a.(lb + !k)
        land g.shared.(!k)
        land lnot (if !k = xk then xb else 0))
    in
    while (not !cyclic) && !m <> 0 do
      let b = !m land - !m in
      cyclic := held_by g i ((!k * Rows.bits) + Rows.lowest b) 0;
      m := !m lxor b
    done;
    incr k
  done;
  Bytes.set g.col ((i * g.e) + x) '\002';
  !cyclic

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
  let n = Array.length txns and w = Rows.words e in
  let g =
    {
      txns;
      e;
      w;
      shared = shared_entities txns w;
      col = Bytes.make (n * e) '\000';
    }
  in
  (* Only a shared entity has arcs in, so only its nodes can lie on a
     cycle. *)
  let cyclic = ref false and i = ref 0 in
  while (not !cyclic) && !i < n do
    let a = Transaction.rows txns.(!i) and o = Transaction.entity_row txns.(!i) in
    for k = 0 to w - 1 do
      let m = ref (g.shared.(k) land a.(o + k)) in
      while (not !cyclic) && !m <> 0 do
        let b = !m land - !m in
        let x = (k * Rows.bits) + Rows.lowest b in
        cyclic := Bytes.get g.col ((!i * e) + x) = '\000' && visit g !i x;
        m := !m lxor b
      done
    done;
    incr i
  done;
  not !cyclic
