open Ddlock_graph
open Ddlock_model

type failure =
  | No_common_first of { first1 : Db.entity; first2 : Db.entity }
  | Unguarded of { y : Db.entity; in_txn : int }

let add_failure buf db (name1, name2) failure =
  let name = Db.entity_name db in
  List.iter (Buffer.add_string buf)
    (match failure with
    | No_common_first { first1; first2 } ->
        [ "no common first lock: "; name1; " can lock "; name first1;
          " first while "; name2; " locks "; name first2; " first" ]
    | Unguarded { y; in_txn } ->
        let this, other =
          if in_txn = 0 then (name1, name2) else (name2, name1)
        in
        let y = name y in
        [ "entity "; y; " is unguarded: L_"; this; "(L"; y; ") ∩ R_"; other;
          "(L"; y; ") = ∅" ])

let pp_failure db names ppf failure =
  let buf = Buffer.create 64 in
  add_failure buf db names failure;
  Format.pp_print_string ppf (Buffer.contents buf)

let common t1 t2 = Bitset.inter (Transaction.entity_set t1) (Transaction.entity_set t2)
let has_common t1 t2 = not (Bitset.is_empty (common t1 t2))

(* Minimal common entities of [t]: y in R such that no other Lz (z in R)
   strictly precedes Ly. *)
let minimal_common t r =
  Bitset.fold
    (fun y acc ->
      let ly = Transaction.lock_node_exn t y in
      let dominated =
        Bitset.exists
          (fun z ->
            z <> y && Transaction.precedes t (Transaction.lock_node_exn t z) ly)
          r
      in
      if dominated then acc else y :: acc)
    r []

let common_first t1 t2 =
  let r = common t1 t2 in
  if Bitset.is_empty r then None
  else
    let is_first t x =
      let lx = Transaction.lock_node_exn t x in
      Bitset.for_all
        (fun y ->
          y = x || Transaction.precedes t lx (Transaction.lock_node_exn t y))
        r
    in
    Bitset.fold
      (fun x acc ->
        match acc with
        | Some _ -> acc
        | None -> if is_first t1 x && is_first t2 x then Some x else None)
      r None

let guard t other y =
  let ly_t = Transaction.lock_node_exn t y in
  let ly_o = Transaction.lock_node_exn other y in
  Bitset.inter (Transaction.l_set t ly_t) (Transaction.r_set other ly_o)

let check t1 t2 =
  let r = common t1 t2 in
  if Bitset.is_empty r then Ok ()
  else
    match common_first t1 t2 with
    | None ->
        (* For the failure report, exhibit distinct first-lockable common
           entities, following the paper's argument. *)
        let m1 = minimal_common t1 r and m2 = minimal_common t2 r in
        let first1, first2 =
          match (m1, m2) with
          | y :: _, z :: _ when y <> z -> (y, z)
          | y :: rest1, z :: rest2 ->
              (* Same single minimal in both would imply a common first,
                 so one list has another element. *)
              (match (rest1, rest2) with
              | w :: _, _ -> (w, z)
              | _, w :: _ -> (y, w)
              | [], [] -> (y, z))
          | _ -> assert false
        in
        Error (No_common_first { first1; first2 })
    | Some x ->
        let bad =
          Bitset.fold
            (fun y acc ->
              match acc with
              | Some _ -> acc
              | None ->
                  if y = x then None
                  else if Bitset.is_empty (guard t1 t2 y) then
                    Some (Unguarded { y; in_txn = 0 })
                  else if Bitset.is_empty (guard t2 t1 y) then
                    Some (Unguarded { y; in_txn = 1 })
                  else None)
            r None
        in
        (match bad with None -> Ok () | Some f -> Error f)

let safe_and_deadlock_free t1 t2 = Result.is_ok (check t1 t2)
