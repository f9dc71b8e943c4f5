open Ddlock_graph
open Ddlock_model

(* The partial order is total iff each element of its topological
   order precedes the next. *)
let is_total t =
  let o = Transaction.order t in
  let rec go k =
    k + 1 >= Array.length o
    || (Transaction.precedes t o.(k) o.(k + 1) && go (k + 1))
  in
  go 0

type failure =
  | Different_first of { first1 : Db.entity; first2 : Db.entity }
  | Unguarded of { y : Db.entity; in_txn : int }

let pp_failure db ppf = function
  | Different_first { first1; first2 } ->
      Format.fprintf ppf "first common entities differ: %s vs %s"
        (Db.entity_name db first1) (Db.entity_name db first2)
  | Unguarded { y; in_txn } ->
      Format.fprintf ppf "Q%d(%s) is empty" (in_txn + 1)
        (Db.entity_name db y)

(* The node sequence of a total order. *)
let sequence t = Array.to_list (Transaction.order t)

let first_common t r =
  List.find_map
    (fun u ->
      let nd = Transaction.node t u in
      match nd.Node.op with
      | Node.Lock when Bitset.mem r nd.entity -> Some nd.entity
      | _ -> None)
    (sequence t)

(* Scan the sequence up to (excluding) the Ly step, tracking locked and
   held entities. *)
let scan_before t y =
  let ne = Db.entity_count (Transaction.db t) in
  let locked = Bitset.create ne and held = Bitset.create ne in
  let rec go = function
    | [] -> invalid_arg "Lemma2: entity not accessed"
    | u :: rest ->
        let nd = Transaction.node t u in
        if nd.Node.op = Node.Lock && nd.entity = y then (locked, held)
        else begin
          (match nd.Node.op with
          | Node.Lock ->
              Bitset.set locked nd.entity;
              Bitset.set held nd.entity
          | Node.Unlock -> Bitset.clear held nd.entity);
          go rest
        end
  in
  go (sequence t)

let check t1 t2 =
  if not (is_total t1 && is_total t2) then
    invalid_arg "Lemma2.check: transactions must be total orders";
  let r =
    Bitset.inter (Transaction.entity_set t1) (Transaction.entity_set t2)
  in
  if Bitset.is_empty r then Ok ()
  else
    let x1 = Option.get (first_common t1 r) in
    let x2 = Option.get (first_common t2 r) in
    if x1 <> x2 then Error (Different_first { first1 = x1; first2 = x2 })
    else
      let x = x1 in
      let bad =
        Bitset.fold
          (fun y acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if y = x then None
                else
                  let _, held1 = scan_before t1 y in
                  let locked2, _ = scan_before t2 y in
                  let _, held2 = scan_before t2 y in
                  let locked1, _ = scan_before t1 y in
                  if Bitset.disjoint held1 locked2 then
                    Some (Unguarded { y; in_txn = 0 })
                  else if Bitset.disjoint held2 locked1 then
                    Some (Unguarded { y; in_txn = 1 })
                  else None)
          r None
      in
      (match bad with None -> Ok () | Some f -> Error f)

let safe_and_deadlock_free t1 t2 = Result.is_ok (check t1 t2)
