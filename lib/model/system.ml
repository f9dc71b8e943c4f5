open Ddlock_graph

type t = { db : Db.t; txns : Transaction.t array }

let create = function
  | [] -> invalid_arg "System.create: empty system"
  | t0 :: _ as l ->
      let db = Transaction.db t0 in
      List.iter
        (fun t ->
          if Transaction.db t != db then
            invalid_arg "System.create: transactions over different schemas")
        l;
      { db; txns = Array.of_list l }

let copies t k =
  if k < 1 then invalid_arg "System.copies: k < 1";
  { db = Transaction.db t; txns = Array.make k t }

let db t = t.db
let size t = Array.length t.txns
let txn t i = t.txns.(i)
let txns t = t.txns

let common_entities t i j =
  Bitset.inter
    (Transaction.entity_set t.txns.(i))
    (Transaction.entity_set t.txns.(j))

(* Whether [a] and [b] access a common entity: their R(T) rows meet. *)
let share a b =
  let ra = Transaction.rows a and oa = Transaction.entity_row a in
  let rb = Transaction.rows b and ob = Transaction.entity_row b in
  let k = ref 0 and w = Transaction.row_words a in
  while !k < w && ra.(oa + !k) land rb.(ob + !k) = 0 do
    incr k
  done;
  !k < w

let interaction_graph t =
  let n = size t in
  let es = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if share t.txns.(i) t.txns.(j) then es := (i, j) :: !es
    done
  done;
  Ungraph.create n !es

let accessed_entities t =
  let r = Bitset.create (Db.entity_count t.db) in
  Array.iter
    (fun tx -> Bitset.union_into ~into:r (Transaction.entity_set tx))
    t.txns;
  r

let total_nodes t =
  Array.fold_left (fun acc tx -> acc + Transaction.node_count tx) 0 t.txns

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i tx -> Format.fprintf ppf "T%d = %a@," (i + 1) Transaction.pp tx)
    t.txns;
  Format.fprintf ppf "@]"
