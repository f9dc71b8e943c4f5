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
  (Array.to_list (Transaction.nodes tx), Transaction.closure_arcs tx)

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

let normalize c (st : State.t) =
  let rep = Array.copy st in
  Array.iter
    (fun g ->
      if Array.length g > 1 then begin
        let rows = Array.map (fun i -> st.(i)) g in
        Array.sort Bitset.compare rows;
        Array.iteri (fun slot p -> rep.(g.(slot)) <- p) rows
      end)
    c.classes;
  rep

let normalize_packed c lay =
  Packed.sort_rows lay
    (Array.of_list
       (List.filter (fun g -> Array.length g > 1) (Array.to_list c.classes)))

let apply_perm perm (st : State.t) : State.t =
  let n = Array.length st in
  let out = Array.make n st.(0) in
  Array.iteri (fun i p -> out.(perm.(i)) <- p) st;
  out

let random_group_perm rng c =
  let perm = Array.init (System.size c.sys) Fun.id in
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
