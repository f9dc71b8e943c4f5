open Ddlock_graph

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check bool_t "empty" true (Bitset.is_empty s);
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 64;
  Bitset.set s 99;
  check int_t "cardinal" 4 (Bitset.cardinal s);
  check bool_t "mem 63" true (Bitset.mem s 63);
  check bool_t "mem 64" true (Bitset.mem s 64);
  check bool_t "not mem 1" false (Bitset.mem s 1);
  Bitset.clear s 63;
  check bool_t "cleared" false (Bitset.mem s 63);
  check (Alcotest.list int_t) "to_list" [ 0; 64; 99 ] (Bitset.to_list s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set s 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

let test_bitset_algebra () =
  let a = Bitset.of_list 20 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 20 [ 3; 4; 5; 18 ] in
  check (Alcotest.list int_t) "union" [ 1; 3; 4; 5; 7; 18 ]
    (Bitset.to_list (Bitset.union a b));
  check (Alcotest.list int_t) "inter" [ 3; 5 ] (Bitset.to_list (Bitset.inter a b));
  check (Alcotest.list int_t) "diff" [ 1; 7 ] (Bitset.to_list (Bitset.diff a b));
  check bool_t "disjoint no" false (Bitset.disjoint a b);
  check bool_t "disjoint yes" true
    (Bitset.disjoint a (Bitset.of_list 20 [ 0; 2 ]));
  check bool_t "subset" true (Bitset.subset (Bitset.of_list 20 [ 3; 5 ]) a);
  check bool_t "not subset" false (Bitset.subset b a)

let bitset_ops_prop =
  QCheck.Test.make ~name:"bitset algebra matches list model" ~count:200
    QCheck.(pair (small_list (int_bound 63)) (small_list (int_bound 63)))
    (fun (l1, l2) ->
      let a = Bitset.of_list 64 l1 and b = Bitset.of_list 64 l2 in
      let s1 = List.sort_uniq compare l1 and s2 = List.sort_uniq compare l2 in
      let model_union = List.sort_uniq compare (s1 @ s2) in
      let model_inter = List.filter (fun x -> List.mem x s2) s1 in
      let model_diff = List.filter (fun x -> not (List.mem x s2)) s1 in
      Bitset.to_list (Bitset.union a b) = model_union
      && Bitset.to_list (Bitset.inter a b) = model_inter
      && Bitset.to_list (Bitset.diff a b) = model_diff
      && Bitset.disjoint a b = (model_inter = [])
      && Bitset.subset a b = List.for_all (fun x -> List.mem x s2) s1
      && Bitset.cardinal a = List.length s1)

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_digraph_basic () =
  let g = Digraph.create 4 [ (0, 1); (1, 2); (0, 2); (0, 1) ] in
  check int_t "nodes" 4 (Digraph.node_count g);
  check int_t "edges deduped" 3 (Digraph.edge_count g);
  check bool_t "mem" true (Digraph.mem_edge g 0 1);
  check bool_t "not mem" false (Digraph.mem_edge g 2 0);
  check (Alcotest.list (Alcotest.pair int_t int_t)) "edges"
    [ (0, 1); (0, 2); (1, 2) ] (Digraph.edges g);
  let tr = Digraph.transpose g in
  check bool_t "transpose" true (Digraph.mem_edge tr 1 0)

let test_digraph_reachable () =
  let g = Digraph.create 5 [ (0, 1); (1, 2); (3, 4) ] in
  check (Alcotest.list int_t) "reach 0" [ 0; 1; 2 ]
    (Bitset.to_list (Digraph.reachable g 0));
  check (Alcotest.list int_t) "reach 3" [ 3; 4 ]
    (Bitset.to_list (Digraph.reachable g 3))

let test_digraph_induced () =
  let g = Digraph.create 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sub, renum = Digraph.induced g (fun v -> v <> 1) in
  check int_t "sub nodes" 3 (Digraph.node_count sub);
  check int_t "sub edges" 1 (Digraph.edge_count sub);
  check int_t "renum dropped" (-1) renum.(1);
  check bool_t "kept edge" true (Digraph.mem_edge sub renum.(2) renum.(3))

(* Random DAG: arcs only forward along a random permutation. *)
let random_dag_gen =
  QCheck.Gen.(
    sized_size (int_range 1 8) (fun n st ->
        let edges = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Random.State.float st 1.0 < 0.4 then edges := (u, v) :: !edges
          done
        done;
        (n, !edges)))

let random_dag_arb =
  QCheck.make random_dag_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))

let topo_sort_prop =
  QCheck.Test.make ~name:"topo sort is a linear extension" ~count:200
    random_dag_arb (fun (n, es) ->
      let g = Digraph.create n es in
      match Topo.order g with
      | None -> false
      | Some o -> Topo.is_linear_extension g (Array.to_list o))

let count_extensions_prop =
  QCheck.Test.make ~name:"count_linear_extensions = |enumeration|" ~count:50
    random_dag_arb (fun (n, es) ->
      let g = Digraph.create n es in
      Topo.count_linear_extensions g = Seq.length (Topo.linear_extensions g))

let extensions_all_valid_prop =
  QCheck.Test.make ~name:"every enumerated extension is valid & distinct"
    ~count:50 random_dag_arb (fun (n, es) ->
      let g = Digraph.create n es in
      let exts = List.of_seq (Topo.linear_extensions g) in
      List.for_all (Topo.is_linear_extension g) exts
      && List.length (List.sort_uniq compare exts) = List.length exts)

let test_cycle_detection () =
  let g = Digraph.create 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  check bool_t "cyclic" false (Topo.is_acyclic g);
  (match Topo.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some c ->
      check bool_t "cycle arcs exist" true
        (let arr = Array.of_list c in
         let k = Array.length arr in
         let ok = ref (k > 0) in
         for i = 0 to k - 1 do
           if not (Digraph.mem_edge g arr.(i) arr.((i + 1) mod k)) then
             ok := false
         done;
         !ok));
  check bool_t "acyclic" true (Topo.is_acyclic (Digraph.create 3 [ (0, 1); (1, 2) ]))

let find_cycle_valid_prop =
  QCheck.Test.make ~name:"find_cycle returns a real cycle or None on DAGs"
    ~count:200
    QCheck.(pair small_nat (small_list (pair (int_bound 7) (int_bound 7))))
    (fun (n0, es) ->
      let n = 8 + (n0 mod 2) in
      let g = Digraph.create n es in
      match Topo.find_cycle g with
      | None -> Topo.is_acyclic g
      | Some c ->
          let arr = Array.of_list c in
          let k = Array.length arr in
          k > 0
          && Array.for_all Fun.id
               (Array.init k (fun i -> Digraph.mem_edge g arr.(i) arr.((i + 1) mod k))))

(* ------------------------------------------------------------------ *)
(* Closure                                                             *)
(* ------------------------------------------------------------------ *)

let brute_closure n es =
  (* Floyd–Warshall on a boolean matrix. *)
  let m = Array.make_matrix n n false in
  List.iter (fun (u, v) -> m.(u).(v) <- true) es;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
      done
    done
  done;
  m

let closure_matches_brute_prop =
  QCheck.Test.make ~name:"closure = Floyd-Warshall (incl. cyclic)" ~count:200
    QCheck.(small_list (pair (int_bound 6) (int_bound 6)))
    (fun es ->
      let n = 7 in
      let g = Digraph.create n es in
      let c = Closure.closure g in
      let m = brute_closure n es in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Closure.reaches c i j <> m.(i).(j) then ok := false
        done
      done;
      !ok)

let reduction_preserves_closure_prop =
  QCheck.Test.make ~name:"transitive reduction preserves reachability"
    ~count:100 random_dag_arb (fun (n, es) ->
      let g = Digraph.create n es in
      let r = Closure.reduction g in
      let cg = Closure.closure g and cr = Closure.closure r in
      let ok =
        ref
          (Digraph.edge_count r <= Digraph.edge_count g
          && Digraph.edges (Closure.reduction ~closure:cg g) = Digraph.edges r)
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Closure.reaches cg i j <> Closure.reaches cr i j then ok := false
        done
      done;
      !ok)

let test_reduction_hasse () =
  (* Chain with a redundant shortcut: reduction drops it. *)
  let g = Digraph.create 3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = Closure.reduction g in
  check (Alcotest.list (Alcotest.pair int_t int_t)) "hasse"
    [ (0, 1); (1, 2) ] (Digraph.edges r)

let test_ancestors () =
  let g = Digraph.create 4 [ (0, 1); (1, 2); (3, 2) ] in
  let c = Closure.closure g in
  check (Alcotest.list int_t) "ancestors of 2" [ 0; 1; 3 ]
    (Bitset.to_list (Closure.ancestors c 4 2))

(* ------------------------------------------------------------------ *)
(* SCC and cycles                                                      *)
(* ------------------------------------------------------------------ *)

let test_scc () =
  let g = Digraph.create 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3); (2, 3) ] in
  let comps = List.sort compare (Cycles.scc g) in
  check
    (Alcotest.list (Alcotest.list int_t))
    "sccs" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] comps

let test_johnson_known () =
  (* Two triangles sharing node 0 plus a self loop. *)
  let g =
    Digraph.create 5
      [ (0, 1); (1, 2); (2, 0); (0, 3); (3, 4); (4, 0); (1, 1) ]
  in
  check int_t "count" 3 (Cycles.count_simple_cycles g);
  let cycles = List.of_seq (Cycles.simple_cycles g) in
  check bool_t "self loop found" true (List.mem [ 1 ] cycles);
  check bool_t "triangle 1" true (List.mem [ 0; 1; 2 ] cycles);
  check bool_t "triangle 2" true (List.mem [ 0; 3; 4 ] cycles)

let brute_cycle_count n es =
  (* Count simple directed cycles by DFS from each root, visiting only
     nodes >= root. *)
  let g = Digraph.create n es in
  let count = ref 0 in
  let rec dfs root visited u =
    Array.iter
      (fun v ->
        if v = root then incr count
        else if v > root && not (List.mem v visited) then
          dfs root (v :: visited) v)
      (Digraph.succ g u)
  in
  for root = 0 to n - 1 do
    dfs root [ root ] root
  done;
  !count

let johnson_count_prop =
  QCheck.Test.make ~name:"Johnson count = brute-force count" ~count:100
    QCheck.(small_list (pair (int_bound 5) (int_bound 5)))
    (fun es ->
      let n = 6 in
      let g = Digraph.create n es in
      Cycles.count_simple_cycles g = brute_cycle_count n (Digraph.edges g))

(* Johnson's algorithm as it stood before [simple_cycles] read each
   root's component on the graph itself: per root, the subgraph induced
   on nodes >= s, Tarjan over it, and the component found by search.
   Kept as the reference for the order of the enumerated cycles. *)
let reference_simple_cycles g =
  let n = Digraph.node_count g in
  let results = ref [] in
  let blocked = Array.make n false in
  let b = Array.make n [] in
  let path = ref [] in
  let rec unblock u =
    if blocked.(u) then begin
      blocked.(u) <- false;
      let bs = b.(u) in
      b.(u) <- [];
      List.iter unblock bs
    end
  in
  for s = 0 to n - 1 do
    let sub, renum = Digraph.induced g (fun v -> v >= s) in
    let comps = Cycles.scc sub in
    let inv = Array.make (Digraph.node_count sub) (-1) in
    Array.iteri (fun old nw -> if nw >= 0 then inv.(nw) <- old) renum;
    match
      List.find_opt (fun comp -> List.exists (fun v -> inv.(v) = s) comp) comps
    with
    | None -> ()
    | Some comp ->
        let comp_orig = List.map (fun v -> inv.(v)) comp in
        let in_comp = Bitset.of_list n comp_orig in
        if Digraph.mem_edge g s s then results := [ s ] :: !results;
        if List.length comp_orig > 1 then begin
          List.iter
            (fun v ->
              blocked.(v) <- false;
              b.(v) <- [])
            comp_orig;
          let rec circuit v =
            let found = ref false in
            blocked.(v) <- true;
            path := v :: !path;
            Array.iter
              (fun w ->
                if Bitset.mem in_comp w then
                  if w = s then begin
                    if v <> s then results := List.rev !path :: !results;
                    found := true
                  end
                  else if not blocked.(w) then if circuit w then found := true)
              (Digraph.succ g v);
            if !found then unblock v
            else
              Array.iter
                (fun w ->
                  if Bitset.mem in_comp w && not (List.mem v b.(w)) then
                    b.(w) <- v :: b.(w))
                (Digraph.succ g v);
            path := List.tl !path;
            !found
          in
          ignore (circuit s)
        end
  done;
  List.rev !results

(* Digraphs of 0-9 nodes, self-loops allowed: random density, complete
   (every ordered pair, loops included), or two random node classes
   with no arc between them. *)
let random_digraph seed =
  let st = Fixtures.rng seed in
  let n = Random.State.int st 10 in
  let p = Random.State.float st 0.6 in
  let part = Array.init n (fun _ -> Random.State.bool st) in
  let keep =
    match Random.State.int st 3 with
    | 0 -> fun _ _ -> Random.State.float st 1.0 < p
    | 1 -> fun _ _ -> true
    | _ -> fun u v -> part.(u) = part.(v) && Random.State.float st 1.0 < p
  in
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if keep u v then es := (u, v) :: !es
    done
  done;
  Digraph.create n !es

let johnson_reference_prop =
  QCheck.Test.make ~name:"simple_cycles = per-root-subgraph reference"
    ~count:300
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let g = random_digraph seed in
      List.of_seq (Cycles.simple_cycles g) = reference_simple_cycles g)

let test_ungraph_cycles () =
  (* K4 has 4 triangles and 3 quadrilaterals = 7 undirected cycles. *)
  let k4 =
    Ungraph.create 4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  check int_t "K4 undirected cycles" 7 (Seq.length (Ungraph.cycles k4));
  check int_t "K4 directed cycles" 14 (Seq.length (Ungraph.directed_cycles k4));
  let tri = Ungraph.create 3 [ (0, 1); (1, 2); (0, 2) ] in
  check int_t "triangle" 1 (Seq.length (Ungraph.cycles tri));
  let path = Ungraph.create 3 [ (0, 1); (1, 2) ] in
  check int_t "path has none" 0 (Seq.length (Ungraph.cycles path))

let test_ungraph_components () =
  let g = Ungraph.create 5 [ (0, 1); (2, 3) ] in
  check
    (Alcotest.list (Alcotest.list int_t))
    "components" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] (Ungraph.components g)

let test_digraph_add_edges () =
  let g = Digraph.create 3 [ (0, 1) ] in
  let g' = Digraph.add_edges g [ (1, 2); (0, 1) ] in
  check int_t "2 edges" 2 (Digraph.edge_count g');
  check bool_t "old kept" true (Digraph.mem_edge g' 0 1);
  check bool_t "new added" true (Digraph.mem_edge g' 1 2);
  (* original untouched *)
  check int_t "orig" 1 (Digraph.edge_count g)

let test_reachable_from_set () =
  let g = Digraph.create 6 [ (0, 1); (2, 3); (4, 5) ] in
  let r = Digraph.reachable_from_set g [ 0; 2 ] in
  check (Alcotest.list int_t) "union" [ 0; 1; 2; 3 ] (Bitset.to_list r)

let test_minimal_maximal () =
  let g = Digraph.create 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  check (Alcotest.list int_t) "minimal" [ 0 ] (Topo.minimal g);
  check (Alcotest.list int_t) "maximal" [ 3 ] (Topo.maximal g)

(* Undirected cycles vs brute force: count directed simple cycles of
   length >= 3 in the symmetric digraph, halve. *)
let ungraph_cycles_brute_prop =
  QCheck.Test.make ~name:"undirected cycle count = brute force" ~count:80
    QCheck.(small_list (pair (int_bound 5) (int_bound 5)))
    (fun raw ->
      let es =
        List.sort_uniq compare
          (List.filter_map
             (fun (u, v) -> if u <> v then Some (min u v, max u v) else None)
             raw)
      in
      let g = Ungraph.create 6 es in
      let sym = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) es in
      let brute =
        (* DFS rooted at smallest node of each cycle, nodes >= root, length >= 3. *)
        let dg = Digraph.create 6 sym in
        let count = ref 0 in
        let rec dfs root visited u len =
          Array.iter
            (fun v ->
              if v = root && len >= 3 then incr count
              else if v > root && not (List.mem v visited) then
                dfs root (v :: visited) v (len + 1))
            (Digraph.succ dg u)
        in
        for root = 0 to 5 do
          dfs root [ root ] root 1
        done;
        !count / 2
      in
      Seq.length (Ungraph.cycles g) = brute
      && Seq.length (Ungraph.directed_cycles g) = 2 * brute)

(* ------------------------------------------------------------------ *)
(* Substrate properties on raw edge lists                              *)
(* ------------------------------------------------------------------ *)

(* Edge lists with repeats and, in every other case, cycles: half the
   lists only run forward (a DAG), half run both ways.  Up to 24 nodes
   and 90 edges, so some rows are long. *)
let edge_list_gen =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    bool >>= fun dag ->
    list_size (int_bound 90) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun es ->
    ( n,
      if dag then
        List.filter_map
          (fun (u, v) ->
            if u < v then Some (u, v) else if v < u then Some (v, u) else None)
          es
      else es ))

let edge_list_arb =
  QCheck.make edge_list_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))

let digraph_rows_prop =
  QCheck.Test.make ~name:"digraph rows sorted, deduplicated; edge_count"
    ~count:300 edge_list_arb (fun (n, es) ->
      let g = Digraph.create n es in
      let distinct = List.sort_uniq compare es in
      let row f keep =
        List.sort_uniq compare (List.filter_map keep distinct) = Array.to_list f
      in
      Digraph.edge_count g = List.length distinct
      && List.for_all
           (fun u ->
             row (Digraph.succ g u) (fun (a, b) ->
                 if a = u then Some b else None)
             && row (Digraph.pred g u) (fun (a, b) ->
                    if b = u then Some a else None))
           (List.init n Fun.id))

(* Kahn's algorithm with the ready nodes in a [Set]: the smallest ready
   id goes first. *)
module IntSet = Set.Make (Int)

let reference_topo g =
  let n = Digraph.node_count g in
  let deg = Array.init n (Digraph.in_degree g) in
  let ready = ref IntSet.empty in
  for u = 0 to n - 1 do
    if deg.(u) = 0 then ready := IntSet.add u !ready
  done;
  let rec go acc k =
    match IntSet.min_elt_opt !ready with
    | None -> if k = n then Some (List.rev acc) else None
    | Some u ->
        ready := IntSet.remove u !ready;
        Array.iter
          (fun v ->
            deg.(v) <- deg.(v) - 1;
            if deg.(v) = 0 then ready := IntSet.add v !ready)
          (Digraph.succ g u);
        go (u :: acc) (k + 1)
  in
  go [] 0

let topo_reference_prop =
  QCheck.Test.make ~name:"Topo.order = Set-based Kahn reference" ~count:300
    edge_list_arb (fun (n, es) ->
      let g = Digraph.create n es in
      Option.map Array.to_list (Topo.order g) = reference_topo g)

let bfs_reaches n es u =
  let seen = Array.make n false in
  let rec go = function
    | [] -> ()
    | v :: rest ->
        let next =
          List.filter_map
            (fun (a, b) ->
              if a = v && not seen.(b) then begin
                seen.(b) <- true;
                Some b
              end
              else None)
            es
        in
        go (next @ rest)
  in
  go [ u ];
  seen

let closure_bfs_prop =
  QCheck.Test.make ~name:"closure = BFS reachability" ~count:300 edge_list_arb
    (fun (n, es) ->
      let c = Closure.closure (Digraph.create n es) in
      List.for_all
        (fun u ->
          let r = bfs_reaches n es u in
          List.for_all
            (fun v -> Closure.reaches c u v = r.(v))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Nodes [2e] and [2e + 1] are Lock and Unlock of entity [e], one site
   each, so the arcs alone decide acyclicity. *)
let make_cycle_prop =
  QCheck.Test.make ~name:"Transaction.make's Cyclic = Topo.find_cycle"
    ~count:300 edge_list_arb (fun (n, es) ->
      let module M = Ddlock_model in
      let k = (n + 1) / 2 in
      let db =
        M.Db.one_site_per_entity (List.init k (fun e -> "e" ^ string_of_int e))
      in
      let labels =
        Array.init (2 * k) (fun v ->
            if v land 1 = 0 then M.Node.lock (v / 2) else M.Node.unlock (v / 2))
      in
      let arcs = List.init k (fun e -> (2 * e, (2 * e) + 1)) @ es in
      let cycle = Topo.find_cycle (Digraph.create (2 * k) arcs) in
      match M.Transaction.make db labels arcs with
      | Error [ M.Transaction.Cyclic c ] -> cycle = Some c
      | Error es ->
          cycle = None
          && not
               (List.exists
                  (function M.Transaction.Cyclic _ -> true | _ -> false)
                  es)
      | Ok _ -> cycle = None)

(* The compressed sparse rows against the edge list itself: each range
   of [adj] is the node's successors (predecessors) as a sorted list
   without repeats, [mem_edge] answers every pair, [edges] is the
   sorted distinct list.  The same graph is also written at an offset
   of a store whose other ints are garbage, as a transaction writes
   it, and read through the same functions; [transpose] swaps the
   rows. *)
let csr_reference_prop =
  QCheck.Test.make ~name:"CSR digraph = edge-list reference" ~count:300
    QCheck.(pair edge_list_arb (int_bound 5))
    (fun ((n, es), o) ->
      let distinct = List.sort_uniq compare es in
      let m = List.length es in
      let arcs = Array.make (2 * m) 0 in
      List.iteri
        (fun k (u, v) ->
          arcs.(2 * k) <- u;
          arcs.((2 * k) + 1) <- v)
        es;
      let store = Array.make (o + Digraph.words n m + 3) (-7) in
      let written = Digraph.write ~into:store ~at:o n arcs m in
      let range g lo hi =
        List.init (hi - lo) (fun i -> (Digraph.adj g).(lo + i))
      in
      let succs u = List.filter_map (fun (a, b) -> if a = u then Some b else None) distinct
      and preds u = List.filter_map (fun (a, b) -> if b = u then Some a else None) distinct in
      let agrees g =
        Digraph.node_count g = n
        && Digraph.edge_count g = List.length distinct
        && Digraph.edges g = distinct
        && List.for_all
             (fun u ->
               range g (Digraph.succ_start g u) (Digraph.succ_stop g u) = succs u
               && range g (Digraph.pred_start g u) (Digraph.pred_stop g u)
                  = preds u
               && Array.to_list (Digraph.succ g u) = succs u
               && Array.to_list (Digraph.pred g u) = preds u
               && Digraph.out_degree g u = List.length (succs u)
               && Digraph.in_degree g u = List.length (preds u)
               && (let seen = ref [] in
                   Digraph.iter_succ g u (fun v -> seen := v :: !seen);
                   List.rev !seen = succs u)
               && (let seen = ref [] in
                   Digraph.iter_pred g u (fun v -> seen := v :: !seen);
                   List.rev !seen = preds u)
               && List.for_all
                    (fun v -> Digraph.mem_edge g u v = List.mem (u, v) distinct)
                    (List.init n Fun.id))
             (List.init n Fun.id)
      in
      let t = Digraph.transpose written in
      agrees (Digraph.create n es)
      && agrees written
      && store.(o + Digraph.words n m) = -7
      && Digraph.edges t
         = List.sort compare (List.map (fun (u, v) -> (v, u)) distinct)
      && List.for_all
           (fun u -> Array.to_list (Digraph.succ t u) = preds u)
           (List.init n Fun.id))

(* A well-formed transaction of [k] entities, one site each, with up to
   140 nodes so that closure rows span up to three words: node [2e] is
   [Le] and [2e + 1] is [Ue], and every arc, [Le < Ue] included, runs
   up a random ranking of the nodes, with repeats. *)
let store_txn_gen =
  QCheck.Gen.(
    oneof [ int_range 1 8; int_range 28 70 ] >>= fun k ->
    let n = 2 * k in
    shuffle_l (List.init n Fun.id) >|= Array.of_list >>= fun rank ->
    list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun pairs ->
    for e = 0 to k - 1 do
      if rank.(2 * e) > rank.((2 * e) + 1) then begin
        let r = rank.(2 * e) in
        rank.(2 * e) <- rank.((2 * e) + 1);
        rank.((2 * e) + 1) <- r
      end
    done;
    let up (u, v) = if rank.(u) < rank.(v) then (u, v) else (v, u) in
    ( k,
      List.init k (fun e -> (2 * e, (2 * e) + 1))
      @ List.filter_map (fun (u, v) -> if u = v then None else Some (up (u, v))) pairs ))

(* Reachability by BFS over the edge list's own adjacency lists. *)
let bfs_closure n es =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) es;
  Array.init n (fun u ->
      let seen = Array.make n false in
      let rec go = function
        | [] -> ()
        | v :: rest ->
            go
              (List.fold_left
                 (fun acc w ->
                   if seen.(w) then acc
                   else begin
                     seen.(w) <- true;
                     w :: acc
                   end)
                 rest adj.(v))
      in
      go [ u ];
      seen)

(* The transaction's store against the references: its order is the
   Set-based Kahn order, [precedes] is BFS reachability, and each
   entity row holds exactly the entities its definition names. *)
let store_reference_prop =
  QCheck.Test.make ~name:"transaction store = Kahn and BFS-closure references"
    ~count:120
    (QCheck.make store_txn_gen ~print:(fun (k, es) ->
         Printf.sprintf "k=%d arcs=[%s]" k
           (String.concat ";"
              (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es))))
    (fun (k, es) ->
      let module M = Ddlock_model in
      let n = 2 * k in
      let db =
        M.Db.one_site_per_entity (List.init k (fun e -> "e" ^ string_of_int e))
      in
      let labels =
        Array.init n (fun v ->
            if v land 1 = 0 then M.Node.lock (v / 2) else M.Node.unlock (v / 2))
      in
      let reach = bfs_closure n es in
      match M.Transaction.make db labels es with
      | Error _ -> false
      | Ok t ->
          let a = M.Transaction.rows t in
          let row o y = Rows.mem a o y in
          let all = List.init n Fun.id and ents = List.init k Fun.id in
          Some (Array.to_list (M.Transaction.order t))
          = reference_topo (Digraph.create n es)
          && List.for_all
               (fun u ->
                 List.for_all
                   (fun v -> M.Transaction.precedes t u v = reach.(u).(v))
                   all)
               all
          && List.for_all (row (M.Transaction.entity_row t)) ents
          && List.for_all
               (fun x ->
                 let lx = 2 * x and ux = (2 * x) + 1 in
                 List.for_all
                   (fun y ->
                     let ly = 2 * y and uy = (2 * y) + 1 in
                     row (M.Transaction.locks_after t x) y = reach.(lx).(ly)
                     && row (M.Transaction.unlocks_after t x) y = reach.(lx).(uy)
                     && row (M.Transaction.locks_before t x) y = reach.(ly).(lx)
                     && row (M.Transaction.locks_before_unlock t x) y
                        = reach.(ly).(ux))
                   ents)
               ents)

(* Rows of words at an offset: membership, ascending iteration and
   [find] agree with the list of elements set, every bit of a word
   (the top one, [min_int], too) included. *)
let rows_prop =
  QCheck.Test.make ~name:"Rows mem/iter/find = element list" ~count:300
    QCheck.(pair (small_list (int_bound 199)) (int_bound 3))
    (fun (elts, o) ->
      let w = Rows.words 200 in
      let a = Array.make (o + w) 0 in
      List.iter (Rows.set a o) elts;
      let sorted = List.sort_uniq compare elts in
      let seen = ref [] in
      Rows.iter w (fun k -> a.(o + k)) (fun i -> seen := i :: !seen);
      List.for_all (fun i -> Rows.mem a o i = List.mem i elts) (List.init 200 Fun.id)
      && List.rev !seen = sorted
      && List.for_all
           (fun t ->
             Rows.find w (fun k -> a.(o + k)) (fun i ->
                 if i >= t then Some i else None)
             = List.find_opt (fun i -> i >= t) sorted)
           [ 0; 62; 63; 126; 199 ]
      && List.for_all
           (fun b -> Rows.lowest ((1 lsl b) lor (1 lsl 62)) = b)
           (List.init Rows.bits Fun.id))

let qtests =
  List.map Fixtures.to_alcotest
    [
      bitset_ops_prop;
      topo_sort_prop;
      count_extensions_prop;
      extensions_all_valid_prop;
      find_cycle_valid_prop;
      closure_matches_brute_prop;
      reduction_preserves_closure_prop;
      johnson_count_prop;
      johnson_reference_prop;
      ungraph_cycles_brute_prop;
      digraph_rows_prop;
      topo_reference_prop;
      closure_bfs_prop;
      make_cycle_prop;
      csr_reference_prop;
      store_reference_prop;
    ]

let suite =
  [
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset algebra" `Quick test_bitset_algebra;
    Alcotest.test_case "digraph basic" `Quick test_digraph_basic;
    Alcotest.test_case "digraph reachable" `Quick test_digraph_reachable;
    Alcotest.test_case "digraph induced" `Quick test_digraph_induced;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "reduction hasse" `Quick test_reduction_hasse;
    Alcotest.test_case "ancestors" `Quick test_ancestors;
    Alcotest.test_case "scc" `Quick test_scc;
    Alcotest.test_case "johnson known" `Quick test_johnson_known;
    Alcotest.test_case "ungraph cycles" `Quick test_ungraph_cycles;
    Alcotest.test_case "ungraph components" `Quick test_ungraph_components;
    Alcotest.test_case "digraph add_edges" `Quick test_digraph_add_edges;
    Alcotest.test_case "reachable from set" `Quick test_reachable_from_set;
    Alcotest.test_case "minimal/maximal" `Quick test_minimal_maximal;
  ]
  @ qtests
  @ [ Fixtures.to_alcotest rows_prop ]
