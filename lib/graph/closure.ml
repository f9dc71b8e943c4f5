type t = { n : int; w : int; a : int array; o : int }

let words n = n * Rows.words n
let view a o n = { n; w = Rows.words n; a; o }
let[@inline] row c u = c.o + (u * c.w)
let row_words c = c.w

(* In reverse topological order, row u = the successors of u and their
   rows. *)
let fill c g order at =
  let a = c.a and w = c.w and adj = Digraph.adj g in
  for k = c.n - 1 downto 0 do
    let u = order.(at + k) in
    let ru = row c u in
    for j = Digraph.succ_start g u to Digraph.succ_stop g u - 1 do
      let v = adj.(j) in
      let rv = row c v in
      Rows.set a ru v;
      for i = 0 to w - 1 do
        a.(ru + i) <- a.(ru + i) lor a.(rv + i)
      done
    done
  done

let create n = view (Array.make (words n) 0) 0 n

let of_order g order =
  let c = create (Digraph.node_count g) in
  fill c g order 0;
  c

let closure g =
  match Topo.order g with
  | Some order -> of_order g order
  | None ->
      (* General digraph: BFS from each node. *)
      let n = Digraph.node_count g in
      let c = create n in
      for u = 0 to n - 1 do
        Bitset.iter
          (Rows.set c.a (row c u))
          (Digraph.reachable_from_set g (Array.to_list (Digraph.succ g u)))
      done;
      c

let[@inline] reaches c u v = Rows.mem c.a (row c u) v

let reduction ?closure:c g =
  let c =
    match c with
    | Some c -> c
    | None ->
        if not (Topo.is_acyclic g) then invalid_arg "Closure.reduction: cyclic";
        closure g
  in
  (* Keep edge u->v iff no intermediate successor w of u reaches v. *)
  let adj = Digraph.adj g in
  let keep (u, v) =
    let rec go j =
      j < Digraph.succ_stop g u
      && ((adj.(j) <> v && reaches c adj.(j) v) || go (j + 1))
    in
    not (go (Digraph.succ_start g u))
  in
  Digraph.create (Digraph.node_count g) (List.filter keep (Digraph.edges g))

let ancestors c n u =
  let r = Bitset.create n in
  for v = 0 to n - 1 do
    if reaches c v u then Bitset.set r v
  done;
  r
