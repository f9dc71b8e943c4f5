open Ddlock_graph
open Ddlock_model

type t = {
  sys : System.t;
  classes : int array array;  (* class id -> members, ascending *)
  nontrivial : bool;
  orbit : int;
}

(* Transactions are interchangeable iff they carry the same node labels
   under the same numbering and the same (closed) precedence between
   them.  Node labels determine entities and hence sites, so the
   permutations are site-respecting by construction.  Comparing over the
   concrete numbering (rather than up to label isomorphism, as
   [Transaction.equal] does) is what lets [apply_perm] swap prefix
   bitsets verbatim. *)
let structural_key tx =
  ( Array.to_list (Transaction.nodes tx),
    List.sort compare
      (Digraph.edges (Closure.closure_graph (Transaction.given_arcs tx))) )

(* Semantic cache key: schema (with names — verdict texts print them)
   plus the in-order transaction structural keys.  Interchangeable
   transactions have {e equal} structural keys, so the key is invariant
   under permuting them — the K-copies systems identical clients submit
   all collapse onto one digest — while systems differing in any way
   that can change a rendered verdict (names, placement, the order of
   {e distinct} transactions) get distinct digests. *)
let system_key sys =
  let db = System.db sys in
  let schema =
    List.init (Db.site_count db) (fun s ->
        ( Db.site_name db s,
          List.map (Db.entity_name db) (Db.entities_of_site db s) ))
  in
  let txns =
    List.map structural_key (Array.to_list (System.txns sys))
  in
  Digest.to_hex (Digest.string (Marshal.to_string (schema, txns) []))

let detect sys =
  let n = System.size sys in
  let tbl = Hashtbl.create 7 in
  let next = ref 0 in
  let class_of =
    Array.init n (fun i ->
        let k = structural_key (System.txn sys i) in
        match Hashtbl.find_opt tbl k with
        | Some c -> c
        | None ->
            let c = !next in
            incr next;
            Hashtbl.add tbl k c;
            c)
  in
  let members = Array.make !next [] in
  for i = n - 1 downto 0 do
    members.(class_of.(i)) <- i :: members.(class_of.(i))
  done;
  let classes = Array.map Array.of_list members in
  let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
  {
    sys;
    classes;
    nontrivial = Array.exists (fun g -> Array.length g > 1) classes;
    orbit = Array.fold_left (fun acc g -> acc * fact (Array.length g)) 1 classes;
  }

let system c = c.sys
let nontrivial c = c.nontrivial
let groups c = Array.to_list (Array.map Array.to_list c.classes)
let orbit_size c = c.orbit
let identity n = Array.init n Fun.id

let normalize c (st : State.t) =
  let n = Array.length st in
  let rep = Array.copy st in
  let perm = identity n in
  Array.iter
    (fun g ->
      let k = Array.length g in
      if k > 1 then begin
        let order = Array.map (fun i -> (st.(i), i)) g in
        Array.sort
          (fun (a, i) (b, j) ->
            match Bitset.compare a b with 0 -> Int.compare i j | cmp -> cmp)
          order;
        Array.iteri
          (fun slot (p, orig) ->
            rep.(g.(slot)) <- p;
            perm.(orig) <- g.(slot))
          order
      end)
    c.classes;
  (rep, perm)

(* A row of at most 62 nodes is one word of its bitset, so
   [Bitset.compare] orders such rows as [Packed.sort_rows] orders their
   integers. *)
let normalize_packed c lay =
  let classes =
    List.filter (fun g -> Array.length g > 1) (Array.to_list c.classes)
  in
  let fits g = Transaction.node_count (System.txn c.sys g.(0)) <= 62 in
  if List.for_all fits classes then
    Packed.sort_rows lay (Array.of_list classes)
  else fun p -> Packed.encode lay (fst (normalize c (Packed.decode lay p)))

let apply_perm perm (st : State.t) : State.t =
  let n = Array.length st in
  let out = Array.make n st.(0) in
  Array.iteri (fun i p -> out.(perm.(i)) <- p) st;
  out

let rename_schedule perm steps =
  List.map (fun (s : Step.t) -> Step.v perm.(s.Step.txn) s.Step.node) steps

let invert perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) perm;
  inv

let compose d t = Array.init (Array.length t) (fun i -> d.(t.(i)))

let random_group_perm rng c =
  let perm = identity (System.size c.sys) in
  Array.iter
    (fun g ->
      let k = Array.length g in
      if k > 1 then begin
        let img = Array.copy g in
        for i = k - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = img.(i) in
          img.(i) <- img.(j);
          img.(j) <- tmp
        done;
        Array.iteri (fun slot orig -> perm.(orig) <- img.(slot)) g
      end)
    c.classes;
  perm

(* Replay the quotient-space path while tracking the renaming τ that maps
   the current representative onto the actual state of the original
   system: actual = apply_perm τ rep.  A quotient edge (rep, s) leads to
   rep' with rep' = σ·(apply rep s); the matching real step is s renamed
   by τ, and the new tracking permutation is τ ∘ σ⁻¹. *)
let realize_perm c steps =
  let n = System.size c.sys in
  let tau = ref (identity n) in
  let rep = ref (fst (normalize c (State.initial c.sys))) in
  let real =
    List.map
      (fun (s : Step.t) ->
        let real_step = Step.v !tau.(s.Step.txn) s.Step.node in
        let rep', sigma = normalize c (State.apply !rep s) in
        tau := compose !tau (invert sigma);
        rep := rep';
        real_step)
      steps
  in
  (real, apply_perm !tau !rep, !tau)

let realize c steps =
  let real, final, _ = realize_perm c steps in
  (real, final)

let realize_to c steps target =
  let real, _, tau = realize_perm c steps in
  let _, pi = normalize c target in
  (* real reaches τ·rep; renaming it by δ = π⁻¹ ∘ τ⁻¹ yields a schedule
     reaching δ·τ·rep = π⁻¹·rep = target. *)
  rename_schedule (compose (invert pi) (invert tau)) real
