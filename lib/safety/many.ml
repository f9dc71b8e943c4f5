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

let pp_verdict sys ppf = function
  | Safe_and_deadlock_free ->
      Format.fprintf ppf "safe and deadlock-free"
  | Pair_fails { i; j; failure } ->
      Format.fprintf ppf "pair (T%d, T%d) fails: %a" (i + 1) (j + 1)
        (Pair.pp_failure (System.db sys))
        failure
  | Cycle_fails { cycle; schedule; _ } ->
      Format.fprintf ppf
        "@[<v>cycle %a admits a partial schedule with cyclic D:@,%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
           (fun ppf i -> Format.fprintf ppf "T%d" (i + 1)))
        cycle
        (Step.pp_schedule sys) schedule

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
  match Topo.sort (Transaction.given_arcs tx) with
  | Some o -> List.filter (Bitset.mem prefix) o
  | None -> assert false

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
  let others i =
    (* ⋃ R(Tj) over cycle positions j that must be avoided wholesale.
       The successor (i+1) is exempt (the cycle arc i -> i+1 runs through
       x_i, which both access).  The predecessor (i-1) is exempt for
       i >= 1 because it is constrained through Y(T*_{i-1}) instead — T_i
       may relock what the predecessor's prefix already unlocked.  For
       i = 0 there is no earlier prefix: the predecessor T_{k-1} (the
       "last" transaction) must be avoided entirely, otherwise T_1 would
       create a reverse arc T_1 -> T_k. *)
    let acc = Bitset.create ne in
    for j = 0 to k - 1 do
      let exempt =
        j = i || j = (i + 1) mod k || (i > 0 && j = i - 1)
      in
      if not exempt then Bitset.union_into ~into:acc (ents j)
    done;
    acc
  in
  let ok = ref true in
  for i = 0 to k - 1 do
    if !ok then begin
      let avoid = others i in
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
