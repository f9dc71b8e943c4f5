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

let try_cycle sys order =
  let txs = Array.of_list order in
  let k = Array.length txs in
  let tx i = System.txn sys txs.(i) in
  let ents i = Transaction.entity_set (tx i) in
  let ne = Db.entity_count (System.db sys) in
  let x =
    Array.init k (fun i ->
        match Pair.common_first (tx i) (tx ((i + 1) mod k)) with
        | Some e -> e
        | None -> assert false (* cycle edges share entities; pairs passed *))
  in
  let prefixes = Array.make k (Bitset.create 0) in
  (* [avoid] starts as ⋃ R(Tj) over the cycle positions j that must be
     avoided wholesale.  The successor (i+1) is exempt (the cycle arc
     i -> i+1 runs through x_i, which both access).  The predecessor
     (i-1) is exempt for i >= 1 because it is constrained through
     Y(T*_{i-1}) instead — T_i may relock what the predecessor's prefix
     already unlocked.  For i = 0 there is no earlier prefix: the
     predecessor T_{k-1} (the "last" transaction) must be avoided
     entirely, otherwise T_1 would create a reverse arc T_1 -> T_k.  So
     the positions run from i+2 round to i-2 (to i-1 for i = 0).  For
     0 < i < k-1 they are the prefix [run] of positions up to i-2,
     grown by one union per position, and the suffix [suf.(i+2)] of
     positions from i+2, built once position 1 is reached: O(k) unions
     in all, where building each set afresh took O(k²). *)
  let range lo hi =
    let acc = Bitset.create ne in
    for j = lo to hi do
      Bitset.union_into ~into:acc (ents j)
    done;
    acc
  in
  let suf = Array.make (k + 1) (Bitset.create ne) and run = Bitset.create ne in
  let ok = ref true in
  for i = 0 to k - 1 do
    if !ok then begin
      if i = 1 then
        for m = k - 1 downto 3 do
          suf.(m) <- Bitset.union suf.(m + 1) (ents m)
        done;
      if i >= 2 then Bitset.union_into ~into:run (ents (i - 2));
      let avoid =
        if i = 0 then range 2 (k - 1)
        else if i = k - 1 then range 1 (k - 3)
        else Bitset.union run suf.(i + 2)
      in
      if i > 0 then
        Bitset.union_into ~into:avoid
          (Transaction.y_set (tx (i - 1)) prefixes.(i - 1));
      let p = Transaction.max_prefix_avoiding (tx i) avoid in
      prefixes.(i) <- p;
      if not (Bitset.mem p (Transaction.lock_node_exn (tx i) x.(i))) then
        ok := false
    end
  done;
  if not !ok then None
  else
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
   that admits a witness. *)
let failing_rotation sys cycle =
  let k = List.length cycle in
  let rec go r =
    if r >= k then None
    else
      match try_cycle sys (rotate cycle r) with
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
