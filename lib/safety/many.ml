open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type verdict =
  | Safe_and_deadlock_free
  | Pair_fails of { i : int; j : int; failure : Pair.failure }
  | Cycle_fails of cycle_witness

and cycle_witness = {
  cycle : int list;
  prefixes : Bitset.t array;
  schedule : Step.t list;
}

let add_verdict buf ~indent sys v =
  let add = Buffer.add_string buf in
  match v with
  | Safe_and_deadlock_free -> add "safe and deadlock-free"
  | Pair_fails { i; j; failure } ->
      let ti = "T" ^ string_of_int (i + 1)
      and tj = "T" ^ string_of_int (j + 1) in
      List.iter add [ "pair ("; ti; ", "; tj; ") fails: " ];
      Pair.add_failure buf (System.db sys) (ti, tj) failure
  | Cycle_fails { cycle; schedule; _ } ->
      add "cycle ";
      List.iteri
        (fun k i ->
          if k > 0 then add " -> ";
          add "T";
          add (string_of_int (i + 1)))
        cycle;
      add " admits a partial schedule with cyclic D:\n";
      add (String.make indent ' ');
      Step.add_schedule buf sys schedule

let pp_verdict sys ppf v =
  let buf = Buffer.create 128 in
  add_verdict buf ~indent:0 sys v;
  Step.pp_lines ppf (Buffer.contents buf)

let rotate l r =
  let rec split i acc = function
    | rest when i = 0 -> rest @ List.rev acc
    | [] -> List.rev acc
    | x :: rest -> split (i - 1) (x :: acc) rest
  in
  split r [] l

(* Linear extension of a prefix: a full topological order filtered to the
   prefix (any topological order restricted to a downward-closed set is a
   linear extension of that set). *)
let extension_of_prefix tx prefix =
  List.filter (Bitset.mem prefix) (Array.to_list (Transaction.order tx))

(* Theorem 4's prefix step on entity rows.  [Transaction.max_prefix_avoiding
   t avoid] drops, for each y ∈ avoid ∩ R(T), the node Ly and every
   successor of it.  So Lx survives iff no such y is x or has Ly ≺ Lx:

     Lx ∈ T*  iff  avoid ∩ ({x} ∪ locks_before(x)) = ∅,

   and Ux survives iff no such y has Ly ≺ Ux (x itself among them):

     Ux ∈ T*  iff  avoid ∩ locks_before_unlock(x) = ∅.

   Y, the set [Transaction.y_set t T*], holds the accessed z whose Uz
   was dropped, that is Ly ≺ Uz for some y ∈ avoid ∩ R(T):

     Y = ⋃ { unlocks_after(y) : y ∈ avoid ∩ R(T) }.

   So a position needs a few word operations, and node prefixes are
   built only for the rotation that fails. *)

(* The rows below are [w] words wide: [union_into s d a o w] ors the
   row at [o] of [a] into the row at [d] of [s]. *)
let union_into s d a o w =
  for j = 0 to w - 1 do
    s.(d + j) <- s.(d + j) lor a.(o + j)
  done

let union_entities s d t w =
  union_into s d (Transaction.rows t) (Transaction.entity_row t) w

let disjoint s d a o w =
  let j = ref 0 in
  while !j < w && s.(d + !j) land a.(o + !j) = 0 do
    incr j
  done;
  !j = w

(* T*ᵢ as a node set, given the row at [av] of [s] that it avoids. *)
let prefix_of t s av w =
  let a = Transaction.rows t in
  let p = Bitset.create (Transaction.node_count t) in
  Array.iteri
    (fun v { Node.entity = z; op } ->
      let keep =
        match op with
        | Node.Lock ->
            (not (Rows.mem s av z))
            && disjoint s av a (Transaction.locks_before t z) w
        | Node.Unlock -> disjoint s av a (Transaction.locks_before_unlock t z) w
      in
      if keep then Bitset.set p v)
    (Transaction.nodes t);
  p

(* [try_cycle sys s firsts r order] decides one choice of last
   transaction, [order] the cycle rotated left by [r] and [firsts.(j)]
   the common first entity of the cycle's arc from its position j, [s]
   a scratch array of 2k + 3 rows for a cycle of k.  Row i < k is the set
   T*ᵢ avoids; row k + m is ⋃_{j ≥ m} R(Tⱼ), for 3 ≤ m ≤ k; then [run]
   and [ys], Y(T*ᵢ₋₁).

   [avoid] is ⋃ R(Tj) over the cycle positions j that must be avoided
   wholesale.  The successor (i+1) is exempt (the cycle arc i -> i+1
   runs through x_i, which both access).  The predecessor (i-1) is
   exempt for i >= 1 because it is constrained through Y(T*_{i-1})
   instead — T_i may relock what the predecessor's prefix already
   unlocked.  For i = 0 there is no earlier prefix: the predecessor
   T_{k-1} (the "last" transaction) must be avoided entirely, otherwise
   T_1 would create a reverse arc T_1 -> T_k.  So the positions run from
   i+2 round to i-2 (to i-1 for i = 0).  For 0 < i < k-1 they are the
   prefix [run] of positions up to i-2, grown by one union per
   position, and the suffix of positions from i+2, built once position
   1 is reached: O(k) unions in all, where building each set afresh
   took O(k²). *)
let try_cycle sys s firsts r order =
  let txs = Array.of_list order in
  let k = Array.length txs in
  let w = Rows.words (Db.entity_count (System.db sys)) in
  let run = ((2 * k) + 1) * w in
  let ys = run + w in
  Array.fill s run w 0;
  let i = ref 0 in
  while !i < k do
    let i' = !i and av = !i * w in
    let t = System.txn sys txs.(i') in
    Array.fill s av w 0;
    if i' = 1 then begin
      Array.fill s ((2 * k) * w) w 0;
      for m = k - 1 downto 3 do
        Array.blit s ((k + m + 1) * w) s ((k + m) * w) w;
        union_entities s ((k + m) * w) (System.txn sys txs.(m)) w
      done
    end;
    if i' >= 2 then union_entities s run (System.txn sys txs.(i' - 2)) w;
    if i' = 0 then
      for j = 2 to k - 1 do
        union_entities s av (System.txn sys txs.(j)) w
      done
    else if i' = k - 1 then
      for j = 1 to k - 3 do
        union_entities s av (System.txn sys txs.(j)) w
      done
    else begin
      union_into s av s run w;
      union_into s av s ((k + i' + 2) * w) w
    end;
    if i' > 0 then union_into s av s ys w;
    let a = Transaction.rows t in
    let x = firsts.((i' + r) mod k) in
    if Rows.mem s av x || not (disjoint s av a (Transaction.locks_before t x) w)
    then i := k + 1
    else begin
      if i' < k - 1 then begin
        let e = Transaction.entity_row t in
        Array.fill s ys w 0;
        for j = 0 to w - 1 do
          let m = ref (s.(av + j) land a.(e + j)) in
          while !m <> 0 do
            let b = !m land - !m in
            let y = (j * Rows.bits) + Rows.lowest b in
            union_into s ys a (Transaction.unlocks_after t y) w;
            m := !m lxor b
          done
        done
      end;
      incr i
    end
  done;
  if !i > k then None
  else
    let tx i = System.txn sys txs.(i) in
    let prefixes = Array.init k (fun i -> prefix_of (tx i) s (i * w) w) in
    let schedule =
      List.concat
        (List.init k (fun i ->
             List.map (Step.v txs.(i)) (extension_of_prefix (tx i) prefixes.(i))))
    in
    Some { cycle = order; prefixes; schedule }

let failing_pair sys =
  let n = System.size sys in
  let rec go i j =
    if i >= n then None
    else if j >= n then go (i + 1) (i + 2)
    else
      let ti = System.txn sys i and tj = System.txn sys j in
      Ddlock_obs.Cancel.poll ();
      if Pair.has_common ti tj then
        match Pair.check ti tj with
        | Ok () -> go i (j + 1)
        | Error failure -> Some (i, j, failure)
      else go i (j + 1)
  in
  go 0 1

(* The first rotation of [cycle] (as a choice of last transaction)
   that admits a witness.  The rotations read the common first entity
   of each of the cycle's k arcs — every failing one reads its first
   arc's, and the witness all k — so each is found once, up front. *)
let failing_rotation sys cycle =
  let k = List.length cycle in
  let s =
    Array.make (((2 * k) + 3) * Rows.words (Db.entity_count (System.db sys))) 0
  in
  let txs = Array.of_list cycle in
  let firsts =
    Array.init k (fun j ->
        match
          Pair.common_first (System.txn sys txs.(j))
            (System.txn sys txs.((j + 1) mod k))
        with
        | Some e -> e
        | None -> assert false (* cycle edges share entities; pairs passed *))
  in
  let rec go r =
    if r >= k then None
    else
      match try_cycle sys s firsts r (rotate cycle r) with
      | Some _ as w -> w
      | None -> go (r + 1)
  in
  go 0

(* Theorem 4's walk over the directed cycles [cycles]: the verdict, the
   number [n] plus the cycles walked that {!Ungraph.cycles} keeps, and
   the rest of the sequence where the walk stopped.  Candidate
   enumeration can be exponential in the cycle count; the poll lets a
   deadline bound it like the exhaustive searches. *)
let rec walk sys n cycles =
  match cycles () with
  | Seq.Nil -> (Safe_and_deadlock_free, n, Seq.empty)
  | Seq.Cons (cycle, rest) -> (
      Ddlock_obs.Cancel.poll ();
      let n = if Ungraph.canonical_direction cycle then n + 1 else n in
      match failing_rotation sys cycle with
      | Some w -> (Cycle_fails w, n, rest)
      | None -> walk sys n rest)

let count_from n cycles =
  Seq.fold_left
    (fun n cycle ->
      Ddlock_obs.Cancel.poll ();
      if Ungraph.canonical_direction cycle then n + 1 else n)
    n cycles

(* [graph ()] is the interaction graph, asked for only when every pair
   passes. *)
let check_with sys graph =
  match failing_pair sys with
  | Some (i, j, failure) -> Pair_fails { i; j; failure }
  | None ->
      let verdict, _, _ = walk sys 0 (Ungraph.directed_cycles (graph ())) in
      verdict

let check sys = check_with sys (fun () -> System.interaction_graph sys)
let check_graph sys g = check_with sys (fun () -> g)

let check_counting sys g =
  match failing_pair sys with
  | Some (i, j, failure) ->
      ( Pair_fails { i; j; failure },
        fun () -> count_from 0 (Ungraph.directed_cycles g) )
  | None ->
      let verdict, n, rest = walk sys 0 (Ungraph.directed_cycles g) in
      (verdict, fun () -> count_from n rest)

let safe_and_deadlock_free sys = check sys = Safe_and_deadlock_free

let candidate_count sys =
  let g = System.interaction_graph sys in
  Seq.fold_left
    (fun acc c -> acc + List.length c)
    0
    (Ungraph.directed_cycles g)
