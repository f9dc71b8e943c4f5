type t = Bitset.t array

(* In reverse topological order, row u = the successors of u and their
   rows. *)
let of_order g order =
  let n = Digraph.node_count g in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  for k = Array.length order - 1 downto 0 do
    let u = order.(k) in
    let s = Digraph.succ g u in
    for j = 0 to Array.length s - 1 do
      Bitset.set rows.(u) s.(j);
      Bitset.union_into ~into:rows.(u) rows.(s.(j))
    done
  done;
  rows

let closure g =
  match Topo.order g with
  | Some order -> of_order g order
  | None ->
      (* General digraph: BFS from each node. *)
      let n = Digraph.node_count g in
      Array.init n (fun u ->
          Digraph.reachable_from_set g (Array.to_list (Digraph.succ g u)))

let reaches c u v = Bitset.mem c.(u) v

let reduction ?closure:c g =
  let c =
    match c with
    | Some c -> c
    | None ->
        if not (Topo.is_acyclic g) then invalid_arg "Closure.reduction: cyclic";
        closure g
  in
  (* Keep edge u->v iff no intermediate successor w of u reaches v. *)
  let keep (u, v) =
    not
      (Array.exists
         (fun w -> w <> v && Bitset.mem c.(w) v)
         (Digraph.succ g u))
  in
  Digraph.create (Digraph.node_count g) (List.filter keep (Digraph.edges g))

let descendants c u = c.(u)

let ancestors c n u =
  let r = Bitset.create n in
  for v = 0 to n - 1 do
    if Bitset.mem c.(v) u then Bitset.set r v
  done;
  r
