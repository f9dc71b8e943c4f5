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

(* Word [k] of R = R(T₁) ∩ R(T₂). *)
let common t1 t2 k =
  (Transaction.rows t1).(Transaction.entity_row t1 + k)
  land (Transaction.rows t2).(Transaction.entity_row t2 + k)

let has_common t1 t2 =
  let w = Transaction.row_words t1 and k = ref 0 in
  while !k < w && common t1 t2 !k = 0 do
    incr k
  done;
  !k < w

(* [x] ∈ R is first in both iff R ∖ {x} ⊆ locks_after₁(x) ∩
   locks_after₂(x). *)
let first_in_both t1 t2 x =
  let a1 = Transaction.rows t1 and f1 = Transaction.locks_after t1 x in
  let a2 = Transaction.rows t2 and f2 = Transaction.locks_after t2 x in
  let w = Transaction.row_words t1 and xk = x / Rows.bits in
  let xb = 1 lsl (x mod Rows.bits) and k = ref 0 in
  while
    !k < w
    && common t1 t2 !k
       land lnot (a1.(f1 + !k) land a2.(f2 + !k))
       land lnot (if !k = xk then xb else 0)
       = 0
  do
    incr k
  done;
  !k = w

let common_first t1 t2 =
  Rows.find (Transaction.row_words t1) (common t1 t2) (fun x ->
      if first_in_both t1 t2 x then Some x else None)

(* The minimal entities of R in [t], descending: y ∈ R such that no Lz,
   z ∈ R, precedes Ly, that is locks_before(y) ∩ R = ∅. *)
let minimal_common t1 t2 t =
  let w = Transaction.row_words t and a = Transaction.rows t in
  let acc = ref [] in
  Rows.iter w (common t1 t2) (fun y ->
      let lb = Transaction.locks_before t y and k = ref 0 in
      while !k < w && common t1 t2 !k land a.(lb + !k) = 0 do
        incr k
      done;
      if !k = w then acc := y :: !acc);
  !acc

(* L_t(Ly) ∩ R_other(Ly) = ∅, where L_t(Ly) = unlocks_after(y) ∖
   locks_after(y) ∖ {y} and R_other(Ly) = locks_before_other(y). *)
let unguarded t other y =
  let a = Transaction.rows t and b = Transaction.rows other in
  let ua = Transaction.unlocks_after t y and la = Transaction.locks_after t y in
  let lb = Transaction.locks_before other y in
  let w = Transaction.row_words t and yk = y / Rows.bits in
  let yb = 1 lsl (y mod Rows.bits) and k = ref 0 in
  while
    !k < w
    && a.(ua + !k)
       land lnot a.(la + !k)
       land lnot (if !k = yk then yb else 0)
       land b.(lb + !k)
       = 0
  do
    incr k
  done;
  !k = w

let check t1 t2 =
  if not (has_common t1 t2) then Ok ()
  else
    match common_first t1 t2 with
    | None ->
        (* For the failure report, exhibit distinct first-lockable common
           entities, following the paper's argument. *)
        let m1 = minimal_common t1 t2 t1 and m2 = minimal_common t1 t2 t2 in
        let first1, first2 =
          match (m1, m2) with
          | y :: _, z :: _ when y <> z -> (y, z)
          | y :: rest1, z :: rest2 ->
              (* Same single minimal in both would imply a common first,
                 so one list has another element. *)
              (match (rest1, rest2) with
              | v :: _, _ -> (v, z)
              | _, v :: _ -> (y, v)
              | [], [] -> (y, z))
          | _ -> assert false
        in
        Error (No_common_first { first1; first2 })
    | Some x -> (
        let bad =
          Rows.find (Transaction.row_words t1) (common t1 t2) (fun y ->
              if y = x then None
              else if unguarded t1 t2 y then Some (Unguarded { y; in_txn = 0 })
              else if unguarded t2 t1 y then Some (Unguarded { y; in_txn = 1 })
              else None)
        in
        match bad with None -> Ok () | Some f -> Error f)

let safe_and_deadlock_free t1 t2 = Result.is_ok (check t1 t2)
