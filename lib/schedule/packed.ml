open Ddlock_graph
open Ddlock_model

type t = int array

(* 62 bits per word keeps every mask [1 lsl b] positive. *)
let bits = 62

type layout = {
  sys : System.t;
  words : int;
  base : int array;  (* txn -> global bit of its node 0; [base.(n)]: total *)
  preds : int array;
      (* [words] mask words per global bit: its immediate predecessors *)
  conf_start : int array;  (* global bit -> start of its range in [conf] *)
  conf : int array;
      (* per Lock node, one (lock word, lock mask, unlock word, unlock mask)
         quadruple per other transaction accessing the same entity *)
  full : t;
  steps : Step.t array;  (* global bit -> its step, shared by [enabled] lists *)
}

let word g = g / bits
let mask g = 1 lsl (g mod bits)
let set_at p o g = p.(o + word g) <- p.(o + word g) lor mask g
let set p g = set_at p 0 g
let mem p g = p.(word g) land mask g <> 0

let layout sys =
  let n = System.size sys in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i) + Transaction.node_count (System.txn sys i)
  done;
  let total = base.(n) in
  let words = (total + bits - 1) / bits in
  let preds = Array.make (total * words) 0 in
  let conf_start = Array.make (total + 1) 0 in
  let conf = ref [] in
  let steps = Array.make total (Step.v 0 0) in
  for i = 0 to n - 1 do
    let tx = System.txn sys i in
    for v = 0 to Transaction.node_count tx - 1 do
      let g = base.(i) + v in
      steps.(g) <- Step.v i v;
      Array.iter
        (fun u -> set_at preds (g * words) (base.(i) + u))
        (Digraph.pred (Transaction.given_arcs tx) v);
      let nd = Transaction.node tx v in
      let quads = ref 0 in
      if nd.Node.op = Node.Lock then
        for j = 0 to n - 1 do
          let txj = System.txn sys j in
          if j <> i && Transaction.accesses txj nd.Node.entity then begin
            let l = base.(j) + Transaction.lock_node_exn txj nd.Node.entity in
            let u = base.(j) + Transaction.unlock_node_exn txj nd.Node.entity in
            conf := mask u :: word u :: mask l :: word l :: !conf;
            incr quads
          end
        done;
      conf_start.(g + 1) <- conf_start.(g) + (4 * !quads)
    done
  done;
  let full = Array.make words 0 in
  for g = 0 to total - 1 do
    set full g
  done;
  {
    sys;
    words;
    base;
    preds;
    conf_start;
    conf = Array.of_list (List.rev !conf);
    full;
    steps;
  }

let system l = l.sys
let words l = l.words
let initial l = Array.make l.words 0

let encode l (st : State.t) =
  let n = System.size l.sys in
  if Array.length st <> n then
    invalid_arg "Packed.encode: wrong transaction count";
  let p = initial l in
  Array.iteri
    (fun i row ->
      if Bitset.capacity row <> l.base.(i + 1) - l.base.(i) then
        invalid_arg "Packed.encode: wrong row size";
      for v = 0 to Bitset.capacity row - 1 do
        if Bitset.mem row v then set p (l.base.(i) + v)
      done)
    st;
  p

let decode l p =
  Array.init (System.size l.sys) (fun i ->
      let row = Bitset.create (l.base.(i + 1) - l.base.(i)) in
      for v = 0 to Bitset.capacity row - 1 do
        if mem p (l.base.(i) + v) then Bitset.set row v
      done;
      row)

(* The hot functions below use loops and top-level recursion only, so
   deciding enabledness allocates nothing. *)

let rec preds_done l p o k =
  k >= l.words
  || (l.preds.(o + k) land lnot p.(k) = 0 && preds_done l p o (k + 1))

(* Node [g] is not executed and all its predecessors are. *)
let minimal l p g = (not (mem p g)) && preds_done l p (g * l.words) 0

(* Some quadruple in [k, stop) of [conf] is a holder: it has executed the
   Lock but not the Unlock. *)
let rec held l p k stop =
  k < stop
  && (let c = l.conf in
      (p.(c.(k)) land c.(k + 1) <> 0 && p.(c.(k + 2)) land c.(k + 3) = 0)
      || held l p (k + 4) stop)

(* Node [g], minimal, can run: an Unlock always (its range is empty), a
   Lock when no other transaction holds its entity. *)
let runs l p g =
  minimal l p g && not (held l p l.conf_start.(g) l.conf_start.(g + 1))

(* Transactions ascending and, within each, node ids descending. *)
let iter_enabled l p f =
  for i = 0 to Array.length l.base - 2 do
    for g = l.base.(i + 1) - 1 downto l.base.(i) do
      if runs l p g then f l.steps.(g)
    done
  done

let enabled l p =
  let steps = ref [] in
  iter_enabled l p (fun s -> steps := s :: !steps);
  List.rev !steps

let apply l p (s : Step.t) =
  let p' = Array.copy p in
  set p' (l.base.(s.Step.txn) + s.Step.node);
  p'

let rec equal_from (a : t) (b : t) k =
  k >= Array.length a || (a.(k) = b.(k) && equal_from a b (k + 1))

let equal (a : t) (b : t) = Array.length a = Array.length b && equal_from a b 0

let rec some_runs l p g = g >= 0 && (runs l p g || some_runs l p (g - 1))

(* Nothing can run and some transaction is unfinished (see
   [State.is_deadlock]). *)
let is_deadlock l p =
  (not (some_runs l p (Array.length l.steps - 1))) && not (equal p l.full)

(* Transaction [i]'s row as an int (at most 62 nodes): its bits may
   straddle two words. *)
let row l p i =
  let b = l.base.(i) and n = l.base.(i + 1) - l.base.(i) in
  let w = word b and o = b mod bits in
  let v = p.(w) lsr o in
  let v = if o + n > bits then v lor (p.(w + 1) lsl (bits - o)) else v in
  v land ((1 lsl n) - 1)

let write_row l p i v =
  let b = l.base.(i) in
  for k = 0 to l.base.(i + 1) - b - 1 do
    let g = b + k in
    if v land (1 lsl k) <> 0 then set p g
    else p.(word g) <- p.(word g) land lnot (mask g)
  done

let rec ascending l p g k =
  k >= Array.length g
  || (row l p g.(k - 1) <= row l p g.(k) && ascending l p g (k + 1))

let rec all_ascending l p classes c =
  c >= Array.length classes
  || (ascending l p classes.(c) 1 && all_ascending l p classes (c + 1))

let sort_rows l classes p =
  if all_ascending l p classes 0 then p
  else begin
    let p' = Array.copy p in
    Array.iter
      (fun g ->
        let rows = Array.map (row l p) g in
        Array.sort Int.compare rows;
        Array.iteri (fun slot v -> write_row l p' g.(slot) v) rows)
      classes;
    p'
  end

(* The splitmix64 finalizer with multipliers cut to 62 bits. *)
let mix h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let hash (p : t) =
  let h = ref 0 in
  for k = 0 to Array.length p - 1 do
    h := mix (!h + p.(k))
  done;
  !h land max_int
