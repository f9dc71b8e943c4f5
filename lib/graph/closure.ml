type t = Bitset.t array

let closure g =
  let n = Digraph.node_count g in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  match Topo.sort g with
  | Some order ->
      (* DAG: in reverse topological order, row u = union of successor rows
         plus the successors themselves. *)
      List.iter
        (fun u ->
          Array.iter
            (fun v ->
              Bitset.set rows.(u) v;
              Bitset.union_into ~into:rows.(u) rows.(v))
            (Digraph.succ g u))
        (List.rev order);
      rows
  | None ->
      (* General digraph: BFS from each node. *)
      for u = 0 to n - 1 do
        let r = Digraph.reachable_from_set g (Array.to_list (Digraph.succ g u)) in
        Bitset.union_into ~into:rows.(u) r
      done;
      rows

let reaches c u v = Bitset.mem c.(u) v

let closure_graph g =
  let c = closure g in
  let n = Digraph.node_count g in
  let es = ref [] in
  for u = 0 to n - 1 do
    Bitset.iter (fun v -> es := (u, v) :: !es) c.(u)
  done;
  Digraph.create n !es

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
