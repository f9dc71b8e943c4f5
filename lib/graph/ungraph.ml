type t = { g : Digraph.t }

let create n es =
  List.iter
    (fun (u, v) ->
      if u = v then invalid_arg "Ungraph.create: self loop")
    es;
  let sym = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) es in
  { g = Digraph.create n sym }

let node_count t = Digraph.node_count t.g
let edge_count t = Digraph.edge_count t.g / 2
let mem_edge t u v = Digraph.mem_edge t.g u v

let edges t =
  List.filter (fun (u, v) -> u < v) (Digraph.edges t.g)

let components t =
  let n = node_count t in
  let seen = Bitset.create n in
  let comps = ref [] in
  for u = 0 to n - 1 do
    if not (Bitset.mem seen u) then begin
      let r = Digraph.reachable t.g u in
      Bitset.union_into ~into:seen r;
      comps := Bitset.to_list r :: !comps
    end
  done;
  List.rev !comps

let directed_cycles t =
  (* Directed simple cycles of the symmetric digraph of length >= 3.
     Length-2 cycles (u, v, u) are artifacts of symmetrization. *)
  Seq.filter (fun c -> List.length c >= 3) (Cycles.simple_cycles t.g)

(* Keep the direction in which the node after the root is smaller than
   the node before the root. *)
let canonical_direction c =
  match c with
  | _root :: second :: _ ->
      let last = List.nth c (List.length c - 1) in
      second < last
  | _ -> true

let cycles t = Seq.filter canonical_direction (directed_cycles t)

let pp ppf t =
  Format.fprintf ppf "@[<v>graph(%d nodes, %d edges)" (node_count t)
    (edge_count t);
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d -- %d" u v) (edges t);
  Format.fprintf ppf "@]"
