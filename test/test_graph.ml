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
      match Topo.sort g with
      | None -> false
      | Some o -> Topo.is_linear_extension g o)

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

let closure_graph_prop =
  QCheck.Test.make ~name:"closure_graph edges = reachability pairs" ~count:100
    random_dag_arb (fun (n, es) ->
      let g = Digraph.create n es in
      let cg = Closure.closure_graph g in
      let c = Closure.closure g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Digraph.mem_edge cg u v <> Closure.reaches c u v then ok := false
        done
      done;
      !ok)

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
      ungraph_cycles_brute_prop;
      closure_graph_prop;
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
