open Ddlock_graph
open Ddlock_model

type t = int array

(* 62 bits per word keeps every mask [1 lsl b] positive. *)
let bits = 62

type layout = {
  sys : System.t;
  pwords : int;  (* words of the prefix vector *)
  words : int;  (* row width: [pwords], then the D-arc words if any *)
  base : int array;  (* txn -> global bit of its node 0; [base.(n)]: total *)
  wi : int array;  (* global bit -> its word *)
  wm : int array;  (* global bit -> its mask within that word *)
  txn : int array;  (* global bit -> its transaction *)
  preds : int array;
      (* [pwords] mask words per global bit: its immediate predecessors *)
  conf_start : int array;  (* global bit -> start of its range in [conf] *)
  conf : int array;
      (* per Lock node, one (lock word, lock mask, unlock word, unlock mask)
         quadruple per other transaction whose Lock on the same entity
         conflicts with it (not both shared) *)
  darcs : int array;
      (* with D-arc words, two ints per quadruple of [conf], at half its
         index: the word and mask of arc (i, k), [i] the Lock's
         transaction and [k] the quadruple's; empty without them *)
  blocks : int array;
      (* [pwords] mask words per global bit [g]: the other transactions'
         Locks that [g]'s Lock disables (those with a quadruple whose
         lock bit is [g]); zero unless [g] is a conflicting Lock *)
  wake_start : int array;  (* global bit -> start of its range in [wake] *)
  wake : int array;
      (* per global bit [g], the bits that executing [g] may enable: its
         immediate successors and, for an Unlock, the Locks with a
         quadruple whose unlock bit is [g] *)
  full : t;  (* every prefix bit *)
  steps : Step.t array;  (* global bit -> its step, shared by [enabled] lists *)
}

let word g = g / bits
let mask g = 1 lsl (g mod bits)
let set_at p o g = p.(o + word g) <- p.(o + word g) lor mask g

let layout ?(read = fun _ -> false) ?(arcs = false) sys =
  let n = System.size sys in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i) + Transaction.node_count (System.txn sys i)
  done;
  let total = base.(n) in
  let pwords = (total + bits - 1) / bits in
  let words = if arcs then pwords + (((n * n) + bits - 1) / bits) else pwords in
  let txn = Array.make total 0 in
  let preds = Array.make (total * pwords) 0 in
  let blocks = Array.make (total * pwords) 0 in
  let wakes = Array.make total [] in
  let conf_start = Array.make (total + 1) 0 in
  let conf = ref [] and darcs = ref [] in
  let steps = Array.make total (Step.v 0 0) in
  for i = 0 to n - 1 do
    let tx = System.txn sys i in
    for v = 0 to Transaction.node_count tx - 1 do
      let g = base.(i) + v in
      txn.(g) <- i;
      steps.(g) <- Step.v i v;
      Array.iter
        (fun u -> set_at preds (g * pwords) (base.(i) + u))
        (Digraph.pred (Transaction.given_arcs tx) v);
      Array.iter
        (fun w -> wakes.(g) <- (base.(i) + w) :: wakes.(g))
        (Digraph.succ (Transaction.given_arcs tx) v);
      let nd = Transaction.node tx v in
      let quads = ref 0 in
      if nd.Node.op = Node.Lock then begin
        let shared = read steps.(g) in
        for j = 0 to n - 1 do
          let txj = System.txn sys j in
          if j <> i && Transaction.accesses txj nd.Node.entity then begin
            let x = nd.Node.entity in
            let lj = Transaction.lock_node_exn txj x in
            if not (shared && read (Step.v j lj)) then begin
              let l = base.(j) + lj in
              let u = base.(j) + Transaction.unlock_node_exn txj x in
              conf := mask u :: word u :: mask l :: word l :: !conf;
              set_at blocks (l * pwords) g;
              wakes.(u) <- g :: wakes.(u);
              let d = (pwords * bits) + (i * n) + j in
              if arcs then darcs := mask d :: word d :: !darcs;
              incr quads
            end
          end
        done
      end;
      conf_start.(g + 1) <- conf_start.(g) + (4 * !quads)
    done
  done;
  let wake_start = Array.make (total + 1) 0 in
  for g = 0 to total - 1 do
    wake_start.(g + 1) <- wake_start.(g) + List.length wakes.(g)
  done;
  let full = Array.make pwords 0 in
  for g = 0 to total - 1 do
    set_at full 0 g
  done;
  {
    sys;
    pwords;
    words;
    base;
    wi = Array.init total word;
    wm = Array.init total mask;
    txn;
    preds;
    conf_start;
    conf = Array.of_list (List.rev !conf);
    darcs = Array.of_list (List.rev !darcs);
    blocks;
    wake_start;
    wake = Array.concat (Array.to_list (Array.map Array.of_list wakes));
    full;
    steps;
  }

let system l = l.sys
let words l = l.words
let nodes l = Array.length l.steps
let initial l = Array.make l.words 0
let step l g = l.steps.(g)
let bit l (s : Step.t) = l.base.(s.Step.txn) + s.Step.node

(* Functions taking [a] and [o] read a state in place: the [words] ints
   of [a] at offset [o]. *)
let mem l a o g = a.(o + l.wi.(g)) land l.wm.(g) <> 0

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
        if Bitset.mem row v then set_at p 0 (l.base.(i) + v)
      done)
    st;
  p

let decode_at l a o =
  Array.init (System.size l.sys) (fun i ->
      let row = Bitset.create (l.base.(i + 1) - l.base.(i)) in
      for v = 0 to Bitset.capacity row - 1 do
        if mem l a o (l.base.(i) + v) then Bitset.set row v
      done;
      row)

let decode l p = decode_at l p 0

(* The hot functions below use loops and top-level recursion only, so
   deciding enabledness allocates nothing. *)

let rec preds_done l a o po k =
  k >= l.pwords
  || (l.preds.(po + k) land lnot a.(o + k) = 0 && preds_done l a o po (k + 1))

(* Some quadruple in [k, stop) of [conf] is a holder: it has executed the
   Lock but not the Unlock. *)
let rec held l a o k stop =
  k < stop
  && (let c = l.conf in
      (a.(o + c.(k)) land c.(k + 1) <> 0
      && a.(o + c.(k + 2)) land c.(k + 3) = 0)
      || held l a o (k + 4) stop)

(* An unexecuted bit [g] can run: all its predecessors are executed
   and — a Lock — no other transaction holds its entity (an Unlock's
   [conf] range is empty). *)
let can_run l a o g =
  preds_done l a o (g * l.pwords) 0
  && not (held l a o l.conf_start.(g) l.conf_start.(g + 1))

(* Applies [f] to each bit from [g] down to [stop] that can run and is
   not executed.
   Bit [g] is the mask [m] of word [k], whose value is [x]: stepping
   down a bit shifts the mask, and only crossing into the word below
   reads the state again. *)
let rec walk l a o f g stop k m x =
  if x land m = 0 && can_run l a o g then f g;
  if g > stop then
    if m = 1 then
      walk l a o f (g - 1) stop (k - 1) (1 lsl (bits - 1)) a.(o + k - 1)
    else walk l a o f (g - 1) stop k (m lsr 1) x

(* Transactions ascending and, within each, node ids descending. *)
let iter_enabled l a o f =
  for i = 0 to Array.length l.base - 2 do
    let top = l.base.(i + 1) - 1 in
    if top >= l.base.(i) then
      let k = l.wi.(top) in
      walk l a o f top l.base.(i) k l.wm.(top) a.(o + k)
  done

(* Enabled sets: [pwords] words, bit [g] set when step [g] can run. *)

let enabled_words l = l.pwords

let enabled_into l a o e eo =
  Array.fill e eo l.pwords 0;
  iter_enabled l a o (fun g ->
      e.(eo + l.wi.(g)) <- e.(eo + l.wi.(g)) lor l.wm.(g))

(* Executing [g] clears [g] and, a Lock, the Locks it blocks; only the
   bits of [wake g] can turn on.  A bit of the parent's set other than
   these stays as it was: its predecessors stay executed and no holder
   of its entity appears or leaves. *)
let carry_enabled l a o g e po eo =
  for k = 0 to l.pwords - 1 do
    e.(eo + k) <- e.(po + k)
  done;
  e.(eo + l.wi.(g)) <- e.(eo + l.wi.(g)) land lnot l.wm.(g);
  if l.conf_start.(g) < l.conf_start.(g + 1) then begin
    let bo = g * l.pwords in
    for k = 0 to l.pwords - 1 do
      e.(eo + k) <- e.(eo + k) land lnot l.blocks.(bo + k)
    done
  end;
  for j = l.wake_start.(g) to l.wake_start.(g + 1) - 1 do
    let h = l.wake.(j) in
    if (not (mem l a o h)) && can_run l a o h then
      e.(eo + l.wi.(h)) <- e.(eo + l.wi.(h)) lor l.wm.(h)
  done

(* [log2.(p mod 67)] is the exponent of the power of two [p] < 2^62: 2
   generates the units modulo the prime 67, so the residues of 2^0 ..
   2^65 are distinct. *)
let log2 =
  let t = Array.make 67 0 in
  for b = 0 to bits - 1 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let rec reverse en i j =
  if i < j then begin
    let x = en.(i) in
    en.(i) <- en.(j);
    en.(j) <- x;
    reverse en (i + 1) (j - 1)
  end

(* Reverses each run of [en.(i) .. en.(n - 1)] that one transaction owns. *)
let rec by_txn l en i n =
  if i < n then begin
    let t = l.txn.(en.(i)) in
    let j = ref i in
    while !j + 1 < n && l.txn.(en.(!j + 1)) = t do
      incr j
    done;
    reverse en i !j;
    by_txn l en (!j + 1) n
  end

(* The set bits in ascending order (lowest bit first), then each
   transaction's run reversed: {!iter_enabled}'s order. *)
let enabled_bits l e eo en =
  let n = ref 0 in
  for k = 0 to l.pwords - 1 do
    let x = ref e.(eo + k) in
    while !x <> 0 do
      let b = !x land (- !x) in
      en.(!n) <- (k * bits) + log2.(b mod 67);
      incr n;
      x := !x lxor b
    done
  done;
  by_txn l en 0 !n;
  !n

let enabled l p =
  let steps = ref [] in
  iter_enabled l p 0 (fun g -> steps := l.steps.(g) :: !steps);
  List.rev !steps

(* Sets arc (i, k) for each conflicting Lock of [conf] in [q, stop)
   (transaction [k]'s) that the state at offset [o] of [a] has not
   executed. *)
let rec add_arcs l a o dst q stop =
  if q < stop then begin
    let c = l.conf and d = q / 2 in
    if a.(o + c.(q)) land c.(q + 1) = 0 then
      dst.(l.darcs.(d)) <- dst.(l.darcs.(d)) lor l.darcs.(d + 1);
    add_arcs l a o dst (q + 4) stop
  end

let apply_into l a o g dst =
  for k = 0 to l.words - 1 do
    dst.(k) <- a.(o + k)
  done;
  dst.(l.wi.(g)) <- dst.(l.wi.(g)) lor l.wm.(g);
  if l.words > l.pwords then
    add_arcs l a o dst l.conf_start.(g) l.conf_start.(g + 1)

let apply l p s =
  let p' = initial l in
  apply_into l p 0 (bit l s) p';
  p'

let rec equal_from (p : t) a o k =
  k >= Array.length p || (p.(k) = a.(o + k) && equal_from p a o (k + 1))

let equal_at p a o = equal_from p a o 0
let equal (a : t) (b : t) = Array.length a = Array.length b && equal_at a b 0

let all_finished_at l a o = equal_at l.full a o

exception Runs

let live_at l a o =
  match iter_enabled l a o (fun _ -> raise_notrace Runs) with
  | () -> false
  | exception Runs -> true

(* Nothing can run and some transaction is unfinished (see
   [State.is_deadlock]). *)
let is_deadlock l p = (not (live_at l p 0)) && not (all_finished_at l p 0)

(* D-arcs.  Arc (i, k) is bit [i * n + k] after the prefix words. *)

let txns l = Array.length l.base - 1

let arc_at l a o i k =
  let d = (l.pwords * bits) + (i * txns l) + k in
  a.(o + word d) land mask d <> 0

let arcs_at l a o =
  let n = txns l and arcs = ref [] in
  if l.words > l.pwords then
    for i = n - 1 downto 0 do
      for k = n - 1 downto 0 do
        if arc_at l a o i k then arcs := (i, k) :: !arcs
      done
    done;
  !arcs

(* Depth-first search from [i]: [colour] is 0 unseen, 1 on the stack,
   2 done.  An arc into the stack closes a cycle. *)
let rec visit l a o colour i =
  colour.(i) <- 1;
  let cyclic = scan l a o colour i 0 in
  colour.(i) <- 2;
  cyclic

and scan l a o colour i k =
  k < Array.length colour
  && ((arc_at l a o i k
      && (colour.(k) = 1 || (colour.(k) = 0 && visit l a o colour k)))
     || scan l a o colour i (k + 1))

let rec any_arc l a o k =
  k < l.words && (a.(o + k) <> 0 || any_arc l a o (k + 1))

let cyclic_at l a o =
  any_arc l a o l.pwords
  &&
  let colour = Array.make (txns l) 0 in
  let rec from i =
    i < Array.length colour
    && ((colour.(i) = 0 && visit l a o colour i) || from (i + 1))
  in
  from 0

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
    if v land (1 lsl k) <> 0 then p.(l.wi.(g)) <- p.(l.wi.(g)) lor l.wm.(g)
    else p.(l.wi.(g)) <- p.(l.wi.(g)) land lnot l.wm.(g)
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

let hash (p : t) = Arena.hash p 0 (Array.length p)
