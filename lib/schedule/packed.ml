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
  contended : int array;
      (* [pwords] mask words: the contended Locks, those with a
         non-empty [conf] range *)
  unlock : int array;  (* a Lock's global bit -> its Unlock's *)
  full : t;  (* every prefix bit *)
  steps : Step.t array;  (* global bit -> its step, shared by [enabled] lists *)
}

let word g = g / bits
let mask g = 1 lsl (g mod bits)
let set_at p o g = p.(o + word g) <- p.(o + word g) lor mask g

(* Turns counts [c.(0 .. k-1)] into the ends of consecutive ranges and
   sets [c.(k)] to the total; filling a range counts its end down, so
   once all are filled [c.(x)] is the start of range [x]. *)
let ends c k =
  for x = 1 to k - 1 do
    c.(x) <- c.(x) + c.(x - 1)
  done;
  if k > 0 then c.(k) <- c.(k - 1)

let put c a x v =
  c.(x) <- c.(x) - 1;
  a.(c.(x)) <- v

(* Counted passes over the nodes.  The first counts each entity's Locks
   and each bit's successors; the second lists each entity's Locks with
   their Unlocks; the third counts each Lock's quadruples and each bit's
   wake entries; the last fills the flat arrays those counts size. *)
let layout ?(read = fun _ -> false) ?(arcs = false) sys =
  let n = System.size sys and ne = Db.entity_count (System.db sys) in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i) + Transaction.node_count (System.txn sys i)
  done;
  let total = base.(n) in
  let pwords = (total + bits - 1) / bits in
  let words = if arcs then pwords + (((n * n) + bits - 1) / bits) else pwords in
  let txn = Array.make total 0 in
  let entity = Array.make total (-1) (* a Lock's entity, else -1 *) in
  let wi = Array.make total 0 and wm = Array.make total 0 in
  let steps = Array.make total (Step.v 0 0) in
  let lockers = Array.make (ne + 1) 0 in
  let wake_start = Array.make (total + 1) 0 in
  for i = 0 to n - 1 do
    let tx = System.txn sys i in
    for v = 0 to base.(i + 1) - base.(i) - 1 do
      let g = base.(i) + v and nd = Transaction.node tx v in
      txn.(g) <- i;
      wi.(g) <- word g;
      wm.(g) <- mask g;
      steps.(g) <- Step.v i v;
      wake_start.(g) <- Digraph.out_degree (Transaction.given_arcs tx) v;
      if nd.Node.op = Node.Lock then begin
        entity.(g) <- nd.Node.entity;
        lockers.(nd.Node.entity) <- lockers.(nd.Node.entity) + 1
      end
    done
  done;
  (* Entity [x]'s Locks, ascending, at [lockers.(x) .. lockers.(x+1)-1]
     of [lk], and each Lock's Unlock in [unlock]. *)
  ends lockers ne;
  let lk = Array.make lockers.(ne) 0 and unlock = Array.make total (-1) in
  for g = total - 1 downto 0 do
    let x = entity.(g) in
    if x >= 0 then begin
      let i = txn.(g) in
      put lockers lk x g;
      unlock.(g) <- base.(i) + Transaction.unlock_node_exn (System.txn sys i) x
    end
  done;
  (* A quadruple for each other transaction's Lock on the same entity,
     unless both Locks are shared. *)
  let quad g k =
    txn.(lk.(k)) <> txn.(g) && not (read steps.(g) && read steps.(lk.(k)))
  in
  let conf_start = Array.make (total + 1) 0 in
  for g = 0 to total - 1 do
    let quads = ref 0 and x = entity.(g) in
    if x >= 0 then
      for k = lockers.(x) to lockers.(x + 1) - 1 do
        if quad g k then begin
          wake_start.(unlock.(lk.(k))) <- wake_start.(unlock.(lk.(k))) + 1;
          incr quads
        end
      done;
    conf_start.(g + 1) <- conf_start.(g) + (4 * !quads)
  done;
  ends wake_start total;
  let preds = Array.make (total * pwords) 0 in
  let blocks = Array.make (total * pwords) 0 in
  let conf = Array.make conf_start.(total) 0 in
  let darcs = Array.make (if arcs then conf_start.(total) / 2 else 0) 0 in
  let wake = Array.make wake_start.(total) 0 in
  for g = 0 to total - 1 do
    let i = txn.(g) in
    let arcs_i = Transaction.given_arcs (System.txn sys i) in
    let adj = Digraph.adj arcs_i and v = g - base.(i) in
    for k = Digraph.pred_start arcs_i v to Digraph.pred_stop arcs_i v - 1 do
      set_at preds (g * pwords) (base.(i) + adj.(k))
    done;
    for k = Digraph.succ_start arcs_i v to Digraph.succ_stop arcs_i v - 1 do
      put wake_start wake g (base.(i) + adj.(k))
    done;
    let q = ref conf_start.(g) and x = entity.(g) in
    if x >= 0 then
      for k = lockers.(x) to lockers.(x + 1) - 1 do
        if quad g k then begin
          let l = lk.(k) and u = unlock.(lk.(k)) in
          conf.(!q) <- word l;
          conf.(!q + 1) <- mask l;
          conf.(!q + 2) <- word u;
          conf.(!q + 3) <- mask u;
          set_at blocks (l * pwords) g;
          put wake_start wake u g;
          if arcs then begin
            let d = (pwords * bits) + (i * n) + txn.(l) in
            darcs.(!q / 2) <- word d;
            darcs.((!q / 2) + 1) <- mask d
          end;
          q := !q + 4
        end
      done
  done;
  let full = Array.make pwords 0 and contended = Array.make pwords 0 in
  for g = 0 to total - 1 do
    set_at full 0 g;
    if conf_start.(g) < conf_start.(g + 1) then set_at contended 0 g
  done;
  {
    sys;
    pwords;
    words;
    base;
    wi;
    wm;
    txn;
    preds;
    conf_start;
    conf;
    darcs;
    blocks;
    wake_start;
    wake;
    contended;
    unlock;
    full;
    steps;
  }

let txns l = Array.length l.base - 1
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
let carry_enabled l a o g pe po e eo =
  for k = 0 to l.pwords - 1 do
    e.(eo + k) <- pe.(po + k)
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

(* Persistent sets.  A stubborn closure over unexecuted bits, seeded
   with one enabled bit, grows by three rules: a bit with an unexecuted
   predecessor pulls in one unexecuted ancestor (none when one is
   already in), a Lock held by another transaction pulls in that
   holder's Unlock, and any other bit pulls in the other transactions'
   unexecuted nodes on its entity ([touch]: the Locks that its own Lock
   blocks and, for a Lock, their Unlocks).  Its members are pulled in
   first in, first out, each rule's in ascending bit order.  The rest
   is scratch: the closure [cl] with its queue, its length [tail] and
   enabled members [hits], the enabled set [ens], the smallest closure
   so far [best], and each transaction's [adj_of] in this state. *)
type por = {
  lay : layout;
  anc : int array;  (* [pwords] mask words per bit: its ancestors *)
  desc : int array;  (* its descendants *)
  touch : int array;
  own : int array;  (* [pwords] mask words per transaction: its bits *)
  adj : int array;
  seen : int array;  (* [adj.(i)] holds in this state when [seen.(i) = now] *)
  mutable now : int;
  cl : int array;
  queue : int array;
  mutable tail : int;
  mutable hits : int;
  ens : int array;
  best : int array;
}

let por l =
  let pw = l.pwords and total = nodes l and n = txns l in
  let anc = Array.make (total * pw) 0 and desc = Array.make (total * pw) 0 in
  let touch = Array.make (total * pw) 0 and own = Array.make (n * pw) 0 in
  (* Row [g] of [rows] gets each neighbour [b + h] and its row. *)
  let close rows g b adj lo hi =
    for j = lo to hi - 1 do
      let h = adj.(j) in
      let go = g * pw and ho = (b + h) * pw in
      for k = 0 to pw - 1 do
        rows.(go + k) <- rows.(go + k) lor rows.(ho + k)
      done;
      set_at rows go (b + h)
    done
  in
  for i = 0 to n - 1 do
    let tx = System.txn l.sys i and b = l.base.(i) in
    let order = Transaction.order tx and arcs = Transaction.given_arcs tx in
    let adj = Digraph.adj arcs and m = Array.length order in
    for k = 0 to m - 1 do
      let u = order.(k) and v = order.(m - 1 - k) in
      close anc (b + u) b adj (Digraph.pred_start arcs u)
        (Digraph.pred_stop arcs u);
      close desc (b + v) b adj (Digraph.succ_start arcs v)
        (Digraph.succ_stop arcs v);
      set_at own (i * pw) (b + k)
    done
  done;
  for g = 0 to total - 1 do
    let i = l.txn.(g) in
    let tx = System.txn l.sys i in
    let nd = Transaction.node tx (g - l.base.(i)) in
    let lock = l.base.(i) + Transaction.lock_node_exn tx nd.Node.entity in
    Array.blit l.blocks (lock * pw) touch (g * pw) pw;
    if lock = g then
      for q = l.conf_start.(g) / 4 to (l.conf_start.(g + 1) / 4) - 1 do
        let k = (g * pw) + l.conf.((4 * q) + 2) in
        touch.(k) <- touch.(k) lor l.conf.((4 * q) + 3)
      done
  done;
  {
    lay = l;
    anc;
    desc;
    touch;
    own;
    adj = Array.make n 0;
    seen = Array.make n 0;
    now = 0;
    cl = Array.make pw 0;
    queue = Array.make total 0;
    tail = 0;
    hits = 0;
    ens = Array.make pw 0;
    best = Array.make pw 0;
  }

let push r h =
  let k = r.lay.wi.(h) and m = r.lay.wm.(h) in
  r.cl.(k) <- r.cl.(k) lor m;
  r.queue.(r.tail) <- h;
  r.tail <- r.tail + 1;
  if r.ens.(k) land m <> 0 then r.hits <- r.hits + 1

(* Pushes, ascending, the bits of [touch] at [go] that the state has
   not executed and the closure does not hold. *)
let push_new r a o go =
  for k = 0 to r.lay.pwords - 1 do
    let x = ref (r.touch.(go + k) land lnot a.(o + k) land lnot r.cl.(k)) in
    while !x <> 0 do
      let b = !x land - !x in
      push r ((k * bits) + log2.(b mod 67));
      x := !x lxor b
    done
  done

(* Some unexecuted ancestor (at [ao] of [anc]) is in the closure. *)
let rec anc_in r a o ao k =
  k < r.lay.pwords
  && (r.anc.(ao + k) land lnot a.(o + k) land r.cl.(k) <> 0
     || anc_in r a o ao (k + 1))

let rec lowest_anc r a o ao k =
  let x = r.anc.(ao + k) land lnot a.(o + k) in
  if x <> 0 then (k * bits) + log2.((x land -x) mod 67)
  else lowest_anc r a o ao (k + 1)

(* The Unlock bit of a quadruple in [k, stop) of [conf] whose Lock is
   held, or -1. *)
let rec holder_unlock l a o k stop =
  if k >= stop then -1
  else
    let c = l.conf in
    if a.(o + c.(k)) land c.(k + 1) <> 0 && a.(o + c.(k + 2)) land c.(k + 3) = 0
    then (c.(k + 2) * bits) + log2.(c.(k + 3) mod 67)
    else holder_unlock l a o (k + 4) stop

(* The closure of [seed] in [r.cl]; stops early once it holds [limit]
   enabled bits.  Returns how many it holds. *)
let closure r a o seed limit =
  let l = r.lay and pw = r.lay.pwords in
  Array.fill r.cl 0 pw 0;
  r.tail <- 0;
  r.hits <- 0;
  push r seed;
  let head = ref 0 in
  while !head < r.tail && r.hits < limit do
    let g = r.queue.(!head) in
    incr head;
    let go = g * pw in
    if not (preds_done l a o go 0) then begin
      if not (anc_in r a o go 0) then push r (lowest_anc r a o go 0)
    end
    else
      let u = holder_unlock l a o l.conf_start.(g) l.conf_start.(g + 1) in
      if u < 0 then push_new r a o go
      else if r.cl.(l.wi.(u)) land l.wm.(u) = 0 then push r u
  done;
  r.hits

(* Seeds in enabled order; a closure replaces the best only when it
   holds strictly fewer enabled bits, and one bit ends the search.
   Leaves the best in [r.best]. *)
let by_nodes r a o en n =
  let pw = r.lay.pwords in
  Array.fill r.ens 0 pw 0;
  for i = 0 to n - 1 do
    set_at r.ens 0 en.(i)
  done;
  let best = ref max_int and i = ref 0 in
  while !i < n && !best > 1 do
    let h = closure r a o en.(!i) !best in
    if h < !best then begin
      best := h;
      Array.blit r.cl 0 r.best 0 pw
    end;
    incr i
  done

exception Tangled

(* When every unexecuted node of a transaction lies above its lowest
   unexecuted one [m], the ancestor rule pulls in [m] or finds an
   ancestor that does, and [m] is its only minimal node.  A closure
   that pulls in a node of such a transaction then holds its [m], and
   [m]'s rule leads on to the transactions of the nodes it pulls in:
   [adj_of r a o i], a mask of transactions, which raises [Tangled]
   when transaction [i] breaks the premise. *)
let adj_of r a o i =
  if r.seen.(i) = r.now then r.adj.(i)
  else begin
    let l = r.lay and pw = r.lay.pwords and io = i * r.lay.pwords in
    (* The words that hold transaction [i]'s bits. *)
    let lo = l.wi.(l.base.(i)) and hi = l.wi.(l.base.(i + 1) - 1) in
    let m = ref (-1) and k = ref lo and adj = ref 0 in
    while !m < 0 && !k <= hi do
      let x = r.own.(io + !k) land lnot a.(o + !k) in
      if x <> 0 then m := (!k * bits) + log2.((x land -x) mod 67);
      incr k
    done;
    let m = !m and mo = !m * pw in
    for k = lo to hi do
      let above = r.desc.(mo + k) lor if k = l.wi.(m) then l.wm.(m) else 0 in
      if r.own.(io + k) land lnot a.(o + k) land lnot above <> 0 then
        raise_notrace Tangled
    done;
    let u = holder_unlock l a o l.conf_start.(m) l.conf_start.(m + 1) in
    if u >= 0 then adj := 1 lsl l.txn.(u)
    else
      for k = 0 to pw - 1 do
        let x = ref (r.touch.(mo + k) land lnot a.(o + k)) in
        while !x <> 0 do
          let b = !x land - !x in
          adj := !adj lor (1 lsl l.txn.((k * bits) + log2.(b mod 67)));
          x := !x lxor b
        done
      done;
    r.seen.(i) <- r.now;
    r.adj.(i) <- !adj;
    !adj
  end

(* [by_nodes] over transactions: a seed's closure is the transactions
   it reaches over [adj_of], and its enabled members are theirs in
   [en].  A transaction counts once [adj_of] has vouched for it, so a
   closure given up at [best] holds that many under [by_nodes] too. *)
let by_txns r a o en n =
  let l = r.lay and on = ref 0 in
  r.now <- r.now + 1;
  for s = 0 to n - 1 do
    on := !on lor (1 lsl l.txn.(en.(s)))
  done;
  let best = ref max_int and kept = ref 0 and s = ref 0 in
  while !s < n && !best > 1 do
    let i = l.txn.(en.(!s)) in
    let reach = ref (1 lsl i) and todo = ref (1 lsl i) and hits = ref 0 in
    while !todo <> 0 && !hits < !best do
      let b = !todo land - !todo in
      let fresh = adj_of r a o log2.(b mod 67) land lnot !reach in
      if !on land b <> 0 then incr hits;
      todo := !todo lxor b lor fresh;
      reach := !reach lor fresh
    done;
    if !hits < !best then begin
      best := !hits;
      kept := !reach
    end;
    incr s
  done;
  Array.fill r.best 0 l.pwords 0;
  for s = 0 to n - 1 do
    if !kept land (1 lsl l.txn.(en.(s))) <> 0 then set_at r.best 0 en.(s)
  done

(* Transactions are counted in one word's bits. *)
let persistent r a o en n =
  if n <= 1 then n
  else begin
    if Array.length r.adj > bits then by_nodes r a o en n
    else (try by_txns r a o en n with Tangled -> by_nodes r a o en n);
    let l = r.lay and k = ref 0 in
    for i = 0 to n - 1 do
      let g = en.(i) in
      if r.best.(l.wi.(g)) land l.wm.(g) <> 0 then begin
        en.(!k) <- g;
        incr k
      end
    done;
    !k
  end

(* The may-deadlock filter.  The unexecuted contended Locks, ascending,
   come transaction by transaction, so counting the changes of
   transaction counts the transactions; the walk stops at the third. *)
let contenders l a o last =
  last.(0) <- -1;
  last.(1) <- -1;
  let count = ref 0 and cur = ref (-1) and k = ref 0 in
  while !count < 3 && !k < l.pwords do
    let x = ref (l.contended.(!k) land lnot a.(o + !k)) in
    while !x <> 0 && !count < 3 do
      let b = !x land - !x in
      let g = (!k * bits) + log2.(b mod 67) in
      if l.txn.(g) <> !cur then begin
        cur := l.txn.(g);
        incr count;
        if !count < 3 then last.(!count - 1) <- g
      end
      else last.(!count - 1) <- -1;
      x := !x lxor b
    done;
    incr k
  done;
  !count

let keeps c last g = c >= 3 || (c = 2 && g <> last.(0) && g <> last.(1))
let may_deadlock l p = contenders l p 0 [| -1; -1 |] >= 2

(* Depth-first search over nodes [0 .. m - 1] from a root [-1] with an
   arc to each: [next i k] is the first successor of [i] from [k] on,
   or [m], and [col] at [c] holds the colours, 0 unseen, 1 on the
   stack, 2 done.  An arc into the stack closes a cycle. *)
let rec visit next m col c i =
  col.(c + i) <- 1;
  let cyclic = scan next m col c i (next i 0) in
  col.(c + i) <- 2;
  cyclic

and scan next m col c i k =
  k < m
  && (col.(c + k) = 1
     || (col.(c + k) = 0 && visit next m col c k)
     || scan next m col c i (next i (k + 1)))

(* Node [g] precedes node [u] in [g]'s transaction. *)
let precedes l g u =
  let i = l.txn.(g) in
  l.txn.(u) = i
  && Transaction.precedes (System.txn l.sys i) (g - l.base.(i)) (u - l.base.(i))

(* The blocked Locks, at [0 ..] of [b]: the unexecuted ones in the
   [conf] range of a held Lock, whose Unlock is at [n ..]; colours at
   [2n ..].  Lock [k] has an arc to Lock [j] when it precedes [j]'s
   blocking Unlock.  A cycle passes two transactions that are blocked
   and block ([bt], [ht]: a bit each, up to 62 transactions). *)
let cyclic_reduction l =
  let n = nodes l and nb = ref 0 in
  let b = Array.make (3 * n) 0 in
  let rec next k j =
    if k < 0 || j >= !nb || precedes l b.(k) b.(n + j) then j
    else next k (j + 1)
  in
  fun a o ->
    nb := 0;
    let bt = ref 0 and ht = ref 0 in
    for w = 0 to l.pwords - 1 do
      let x = ref (l.contended.(w) land a.(o + w)) in
      while !x <> 0 do
        let m = !x land - !x in
        let h = (w * bits) + log2.(m mod 67) in
        if not (mem l a o l.unlock.(h)) then
          for q = l.conf_start.(h) / 4 to (l.conf_start.(h + 1) / 4) - 1 do
            let c = l.conf and q = 4 * q in
            if a.(o + c.(q)) land c.(q + 1) = 0 then begin
              b.(!nb) <- (c.(q) * bits) + log2.(c.(q + 1) mod 67);
              bt := !bt lor (1 lsl l.txn.(b.(!nb)));
              ht := !ht lor (1 lsl l.txn.(h));
              b.(n + !nb) <- l.unlock.(h);
              b.((2 * n) + !nb) <- 0;
              incr nb
            end
          done;
        x := !x lxor m
      done
    done;
    let both = !bt land !ht in
    (txns l > 62 || both land (both - 1) <> 0) && scan next !nb b (2 * n) (-1) 0

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

let rec any_arc l a o k =
  k < l.words && (a.(o + k) <> 0 || any_arc l a o (k + 1))

let cyclic_at l a o =
  any_arc l a o l.pwords
  &&
  let n = txns l in
  let rec next i k =
    if i < 0 || k >= n || arc_at l a o i k then k else next i (k + 1)
  in
  scan next n (Array.make n 0) 0 (-1) 0

let hash (p : t) = Arena.hash p 0 (Array.length p)
