open Ddlock_graph
open Ddlock_model

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let db2 () = Db.create [ ("s1", [ "x"; "y" ]); ("s2", [ "z" ]) ]

(* ------------------------------------------------------------------ *)
(* Db                                                                  *)
(* ------------------------------------------------------------------ *)

let test_db_basic () =
  let db = db2 () in
  check int_t "entities" 3 (Db.entity_count db);
  check int_t "sites" 2 (Db.site_count db);
  let x = Db.find_entity_exn db "x" and z = Db.find_entity_exn db "z" in
  check bool_t "same site" true (Db.same_site db x (Db.find_entity_exn db "y"));
  check bool_t "diff site" false (Db.same_site db x z);
  check Alcotest.string "name" "z" (Db.entity_name db z);
  check (Alcotest.option int_t) "missing" None (Db.find_entity db "nope")

let test_db_dup () =
  Alcotest.check_raises "dup entity"
    (Invalid_argument "Db.create: duplicate entity \"x\"") (fun () ->
      ignore (Db.create [ ("a", [ "x" ]); ("b", [ "x" ]) ]));
  Alcotest.check_raises "dup site"
    (Invalid_argument "Db.create: duplicate site \"a\"") (fun () ->
      ignore (Db.create [ ("a", [ "x" ]); ("a", [ "y" ]) ]))

let test_db_one_site_per_entity () =
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  check int_t "sites" 3 (Db.site_count db);
  check bool_t "all different" false
    (Db.same_site db (Db.find_entity_exn db "a") (Db.find_entity_exn db "b"))

(* ------------------------------------------------------------------ *)
(* Transaction validation                                              *)
(* ------------------------------------------------------------------ *)

let mk_nodes db l =
  Array.of_list
    (List.map
       (fun (op, name) ->
         let e = Db.find_entity_exn db name in
         match op with `L -> Node.lock e | `U -> Node.unlock e)
       l)

let test_validation_ok () =
  let db = db2 () in
  let nodes = mk_nodes db [ (`L, "x"); (`U, "x") ] in
  match Transaction.make db nodes [ (0, 1) ] with
  | Ok t ->
      check int_t "nodes" 2 (Transaction.node_count t);
      check bool_t "precedes" true (Transaction.precedes t 0 1);
      check bool_t "not precedes" false (Transaction.precedes t 1 0)
  | Error _ -> Alcotest.fail "expected valid"

let expect_error name db nodes arcs pred =
  match Transaction.make db nodes arcs with
  | Ok _ -> Alcotest.fail (name ^ ": expected error")
  | Error es -> check bool_t name true (List.exists pred es)

let test_validation_errors () =
  let db = db2 () in
  expect_error "missing unlock" db
    (mk_nodes db [ (`L, "x") ])
    []
    (function Transaction.Missing_unlock _ -> true | _ -> false);
  expect_error "missing lock" db
    (mk_nodes db [ (`U, "x") ])
    []
    (function Transaction.Missing_lock _ -> true | _ -> false);
  expect_error "unlock before lock" db
    (mk_nodes db [ (`L, "x"); (`U, "x") ])
    [ (1, 0) ]
    (function Transaction.Unlock_before_lock _ -> true | _ -> false);
  expect_error "duplicate op" db
    (mk_nodes db [ (`L, "x"); (`L, "x"); (`U, "x") ])
    [ (0, 2); (1, 2) ]
    (function Transaction.Duplicate_op _ -> true | _ -> false);
  expect_error "cyclic" db
    (mk_nodes db [ (`L, "x"); (`U, "x") ])
    [ (0, 1); (1, 0) ]
    (function Transaction.Cyclic _ -> true | _ -> false);
  (* x and y live on the same site: all four nodes must be comparable. *)
  expect_error "site unordered" db
    (mk_nodes db [ (`L, "x"); (`U, "x"); (`L, "y"); (`U, "y") ])
    [ (0, 1); (2, 3) ]
    (function Transaction.Site_unordered _ -> true | _ -> false)

let test_site_order_ok_when_chained () =
  let db = db2 () in
  let nodes = mk_nodes db [ (`L, "x"); (`U, "x"); (`L, "y"); (`U, "y") ] in
  match Transaction.make db nodes [ (0, 1); (1, 2); (2, 3) ] with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Transaction.error_to_string db) es))

let test_cross_site_may_be_unordered () =
  let db = db2 () in
  let nodes = mk_nodes db [ (`L, "x"); (`U, "x"); (`L, "z"); (`U, "z") ] in
  match Transaction.make db nodes [ (0, 1); (2, 3) ] with
  | Ok t ->
      check bool_t "incomparable" false (Transaction.precedes t 0 2);
      check bool_t "incomparable'" false (Transaction.precedes t 2 0)
  | Error _ -> Alcotest.fail "expected valid"

(* ------------------------------------------------------------------ *)
(* R/L sets                                                            *)
(* ------------------------------------------------------------------ *)

let names db s = List.map (Db.entity_name db) (Bitset.to_list s)

let test_r_l_sets () =
  (* Total order on one-site-per-entity db: La Lb Ua Lc Ub Uc.
     At Lc: R = {a, b} (locked before), L = {b} (held across). *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let t =
    Builder.total_exn db
      Builder.[ L "a"; L "b"; U "a"; L "c"; U "b"; U "c" ]
  in
  let lc = Transaction.lock_node_exn t (Db.find_entity_exn db "c") in
  check (Alcotest.list Alcotest.string) "R(Lc)" [ "a"; "b" ]
    (names db (Transaction.r_set t lc));
  check (Alcotest.list Alcotest.string) "L(Lc)" [ "b" ]
    (names db (Transaction.l_set t lc))

let test_l_set_partial_order () =
  (* Fig 3 shape: Lx < Ux < Uy, Ly < Uy, x/y incomparable locks.
     L(Ly) must be empty: Ly ≺ Ux fails. *)
  let _, t = Fixtures.fig3_txn () in
  let db = Transaction.db t in
  let ly = Transaction.lock_node_exn t (Db.find_entity_exn db "y") in
  check (Alcotest.list Alcotest.string) "L(Ly)" []
    (names db (Transaction.l_set t ly));
  (* But L(Lx): Lx ≺ Uy and not Lx ≺ Ly, so y is held-like across Lx. *)
  let lx = Transaction.lock_node_exn t (Db.find_entity_exn db "x") in
  check (Alcotest.list Alcotest.string) "L(Lx)" [ "y" ]
    (names db (Transaction.l_set t lx))

(* ------------------------------------------------------------------ *)
(* Prefixes                                                            *)
(* ------------------------------------------------------------------ *)

let test_prefix_ops () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t =
    Builder.transaction_exn db
      ~chains:Builder.[ [ L "a"; U "a" ]; [ L "b"; U "b" ] ]
      ()
  in
  (* 2 independent chains of 2: ideals = 3 * 3 = 9. *)
  check int_t "prefix count" 9 (Seq.length (Transaction.prefixes t));
  check bool_t "all are prefixes" true
    (Seq.for_all (Transaction.is_prefix t) (Transaction.prefixes t));
  check int_t "extensions" 6 (Transaction.count_linear_extensions t);
  let ua = Transaction.unlock_node_exn t (Db.find_entity_exn db "a") in
  let p = Transaction.down_closure t [ ua ] in
  check int_t "down closure size" 2 (Bitset.cardinal p);
  check bool_t "is prefix" true (Transaction.is_prefix t p)

let test_minimal_remaining () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t = Builder.two_phase_chain db [ "a"; "b" ] in
  let p = Transaction.empty_prefix t in
  let la = Transaction.lock_node_exn t (Db.find_entity_exn db "a") in
  check (Alcotest.list int_t) "initial minimal" [ la ]
    (Transaction.minimal_remaining t p);
  let p = Transaction.down_closure t [ la ] in
  let lb = Transaction.lock_node_exn t (Db.find_entity_exn db "b") in
  check (Alcotest.list int_t) "after La" [ lb ]
    (Transaction.minimal_remaining t p)

let test_max_prefix_avoiding () =
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let t = Builder.two_phase_chain db [ "a"; "b"; "c" ] in
  let b = Db.find_entity_exn db "b" in
  let avoid = Bitset.create (Db.entity_count db) in
  Bitset.set avoid b;
  let p = Transaction.max_prefix_avoiding t avoid in
  (* La Lb Lc Ua Ub Uc: dropping Lb and successors leaves just {La}. *)
  check int_t "size" 1 (Bitset.cardinal p);
  check bool_t "is prefix" true (Transaction.is_prefix t p);
  check (Alcotest.list Alcotest.string) "locked" [ "a" ]
    (names db (Transaction.locked_in_prefix t p));
  check (Alcotest.list Alcotest.string) "y_set = all" [ "a"; "b"; "c" ]
    (names db (Transaction.y_set t p))

let prefix_ideal_prop =
  QCheck.Test.make ~name:"prefix enumeration: all downward closed, distinct"
    ~count:60
    QCheck.(int_bound 1000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:2 ~entities:3 in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:(Ddlock_workload.Gentx.random_entity_subset st db ~k:3)
          ~density:0.3
      in
      let ps = List.of_seq (Transaction.prefixes t) in
      List.for_all (Transaction.is_prefix t) ps
      && List.length (List.sort_uniq compare (List.map Bitset.to_list ps))
         = List.length ps)

let random_txn_valid_prop =
  QCheck.Test.make ~name:"generator output is always well-formed" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:3 ~entities:5 in
      let k = 1 + Random.State.int st 5 in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:(Ddlock_workload.Gentx.random_entity_subset st db ~k)
          ~density:(Random.State.float st 1.0)
      in
      (* make_exn already validated; double-check invariants here. *)
      Transaction.node_count t = 2 * k
      && List.length (Transaction.entities t) = k
      && Bitset.for_all
           (fun e ->
             Transaction.precedes t
               (Transaction.lock_node_exn t e)
               (Transaction.unlock_node_exn t e))
           (Transaction.entity_set t))

(* ------------------------------------------------------------------ *)
(* Two-phase                                                           *)
(* ------------------------------------------------------------------ *)

let test_two_phase () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  check bool_t "2PL chain" true
    (Transaction.is_two_phase (Builder.two_phase_chain db [ "a"; "b" ]));
  let t =
    Builder.total_exn db Builder.[ L "a"; U "a"; L "b"; U "b" ]
  in
  check bool_t "lock after unlock" false (Transaction.is_two_phase t)

(* ------------------------------------------------------------------ *)
(* Builder and parser                                                  *)
(* ------------------------------------------------------------------ *)

let test_builder_implicit_arcs () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t =
    Builder.transaction_exn db ~chains:Builder.[ [ L "a"; L "b" ] ] ()
  in
  (* Both unlock nodes are materialized with implicit L < U arcs. *)
  check int_t "4 nodes" 4 (Transaction.node_count t);
  let a = Db.find_entity_exn db "a" in
  check bool_t "implicit La<Ua" true
    (Transaction.precedes t
       (Transaction.lock_node_exn t a)
       (Transaction.unlock_node_exn t a))

let sample_source =
  {|
# a sample system
site s1 { x y }
site s2 { z }

txn T1 {
  L x < L y < U y < U x < L z;
}
txn T2 {
  L z < U z;
}
|}

let test_parser_basic () =
  let r = Parser.parse_exn sample_source in
  check int_t "txns" 2 (List.length r.Parser.named);
  let t1 = List.assoc "T1" r.Parser.named in
  let db = r.Parser.db in
  check int_t "t1 nodes" 6 (Transaction.node_count t1);
  let x = Db.find_entity_exn db "x" and z = Db.find_entity_exn db "z" in
  check bool_t "Ux < Lz" true
    (Transaction.precedes t1
       (Transaction.unlock_node_exn t1 x)
       (Transaction.lock_node_exn t1 z))

let test_parser_roundtrip () =
  let r = Parser.parse_exn sample_source in
  let src = Parser.to_source r.Parser.db r.Parser.named in
  let r2 = Parser.parse_exn src in
  check int_t "same txn count" (List.length r.Parser.named)
    (List.length r2.Parser.named);
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      check Alcotest.string "name" n1 n2;
      check bool_t ("equal " ^ n1) true (Transaction.equal t1 t2))
    r.Parser.named r2.Parser.named

(* [Parser.to_source] over the systems [ddlock gen] writes and over
   [Builder] transactions that leave Lock and Unlock nodes implicit,
   then over the same text parsed back, plus [Transaction.pp] of every
   parsed transaction.  Parsing numbers nodes as [Builder] does, and
   every rendering prints a Hasse diagram in node order, so the digest
   pins the numbering, implicit nodes included, and the arc order.
   Recorded before the Hasse diagram was computed on demand and
   [Builder] keyed its nodes by entity. *)
let golden_source_digest = "1a8bf482ee8373e7dc33a7ad88fbde0d"

let gen_sources () =
  let module G = Ddlock_workload.Gentx in
  let named sys =
    List.mapi
      (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
      (Array.to_list (System.txns sys))
  in
  let of_sys sys = (System.db sys, named sys) in
  let rng seed = Random.State.make [| seed |] in
  let ring n copies =
    let t = G.guard_ring n in
    ( Transaction.db t,
      List.init copies (fun c -> (Printf.sprintf "T_%d" (c + 1), t)) )
  in
  let implicit =
    let db = Db.one_site_per_entity [ "a"; "b"; "c"; "d" ] in
    let txn ?arcs chains = Builder.transaction_exn db ~chains ?arcs () in
    let open Builder in
    ( db,
      [
        ("A", txn [ [ L "c"; L "a"; L "b" ] ]);
        ("B", txn [ [ L "d"; U "b" ]; [ L "a"; L "b"; U "a" ] ]);
        ("C", txn ~arcs:[ (L "b", U "c"); (L "d", U "a") ] [ [ L "a"; L "b" ] ]);
        ("D", txn [ [ U "d"; L "c" ]; [ L "b"; U "d" ] ]);
        ("E", txn [ [ U "a"; U "c"; U "b" ] ]);
      ] )
  in
  implicit
  :: List.map (fun n -> of_sys (G.dining_philosophers n)) [ 3; 5; 8 ]
  @ [ ring 3 1; ring 4 2; ring 5 3 ]
  @ List.concat_map
      (fun seed ->
        let n = 3 + (seed mod 4) and txns = 2 + (seed mod 3) in
        let db = G.random_db ~sites:(max 1 (n / 2)) ~entities:n in
        [
          ( db,
            named
              (G.random_system (rng seed) db ~txns
                 ~entities_per_txn:(max 1 (n / 2)) ~density:0.3) );
          of_sys
            (G.zipf_system (rng seed) ~sites:(max 1 (n / 2)) ~entities:n ~txns
               ~theta:1.2);
          of_sys (G.tpcc_system (rng seed) ~warehouses:2 ~txns ~theta:1.2);
          of_sys
            (G.replicated_system (rng seed)
               (G.replicated_db ~sites:3 ~entities:n ~replication:2)
               ~txns ~entities_per_txn:(min 2 n));
        ])
      (List.init 6 (fun i -> 40 + i))

let test_source_digest () =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (db, named) ->
      let src = Parser.to_source db named in
      Buffer.add_string b src;
      let r = Parser.parse_exn src in
      Buffer.add_string b (Parser.to_source r.Parser.db r.Parser.named);
      List.iter
        (fun (_, t) -> Printf.bprintf b "%s\n" (Format.asprintf "%a" Transaction.pp t))
        r.Parser.named)
    (gen_sources ());
  check Alcotest.string "source digest" golden_source_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Node ids, which the source digest does not see (it prints names):
   per transaction its node labels, its given arcs and its topological
   order, over the [gen_sources] transactions as built and as parsed
   back, plus [~arcs]-built rings and the paper's figures.  Recorded
   before a transaction stored its order. *)
let golden_node_id_digest = "72856aa08050388d326ed03b562439d2"

let test_node_id_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add t =
    Array.iter
      (fun (nd : Node.t) ->
        Printf.bprintf b "%c%d "
          (match nd.op with Node.Lock -> 'L' | Node.Unlock -> 'U')
          nd.entity)
      (Transaction.nodes t);
    List.iter
      (fun (u, v) -> Printf.bprintf b "%d<%d " u v)
      (Digraph.edges (Transaction.given_arcs t));
    Array.iter (Printf.bprintf b "%d ") (Transaction.order t);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (db, named) ->
      List.iter (fun (_, t) -> add t) named;
      let r = Parser.parse_exn (Parser.to_source db named) in
      List.iter (fun (_, t) -> add t) r.Parser.named)
    (gen_sources ());
  List.iter add
    (List.map Ddlock_workload.Gentx.guard_ring [ 2; 3; 4; 6 ]
    @ Ddlock_workload.Figures.[ fig2_txn (); fig3_txn (); fig6_txn () ]);
  check Alcotest.string "node-id digest" golden_node_id_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* One source per error branch of [Parser.parse], with the exact text
   it reports; recorded before the parser read its source with a
   cursor.  A lexical error anywhere wins over every other error, and a
   transaction is validated when its block closes, before later text is
   read.  The parser always adds both nodes of a mentioned entity and
   the arc [Lx < Ux], so [U x < L x] is a cycle, not [Missing_lock]. *)
let parser_error_table =
  [
    ("site s { x }\ntxn T { L x @ U x; }", "line 2: unexpected character '@'");
    ("", "line 0: no site declarations");
    ("# just a comment\n  # another\n", "line 0: no site declarations");
    ("txn T { L x < U x; }", "line 1: no site declarations");
    ( "site s { x }\nsite s { y }\ntxn T { L x < U x; }",
      "line 0: Db.create: duplicate site \"s\"" );
    ( "site a { x }\nsite b { x }\ntxn T { L x < U x; }",
      "line 0: Db.create: duplicate entity \"x\"" );
    ("site s x }\ntxn T { L x < U x; }", "line 1: expected '{'");
    ( "site s { x }\ntxn T {\n  L x <\n  L q < U x; }",
      "line 4: unknown entity \"q\"" );
    ("site s { x }\ntxn T { W x; }", "line 2: expected L or U, got \"W\"");
    ("site s { x }\ntxn T { L x < U x", "line 0: unexpected end of input");
    ( "site s { x }\ntxn T { L x < U x;",
      "line 0: unexpected end of input in txn block" );
    ("site s { x }\nfoo", "line 2: expected 'txn'");
    ( "site s { x y }\ntxn T { L x < L y; L y < U x; U x < L x; }",
      "line 0: invalid transaction T: precedence arcs contain a cycle \
       through nodes 0, 1, 2" );
    ( "site s { x }\nsite t { y }\ntxn T { U x < L x; }",
      "line 0: invalid transaction T: precedence arcs contain a cycle \
       through nodes 0, 1" );
    ( "site s { x y }\ntxn T { L x < U x; L y < U y; }",
      "line 0: invalid transaction T: nodes 0 and 2 act on entities of the \
       same site but are incomparable; nodes 0 and 3 act on entities of the \
       same site but are incomparable; nodes 1 and 2 act on entities of the \
       same site but are incomparable; nodes 1 and 3 act on entities of the \
       same site but are incomparable" );
    ("site { x }", "line 1: expected site name");
    ("site s { x ; }", "line 1: expected entity name or '}'");
    ("site s { txn }", "line 1: expected entity name or '}'");
    ("site s { x }\ntxn { L x; }", "line 2: expected transaction name");
    ("site s { x }", "line 0: no transactions declared");
    ("site s { x }\ntxn T { < }", "line 2: expected step (L or U)");
    ("site s { x }\ntxn T { L ; }", "line 2: expected entity name");
    ("site s { x }\ntxn T { L x U x; }", "line 2: expected ';'");
    ("site { x }\n@", "line 2: unexpected character '@'");
    ( "site s { x }\ntxn T { L x; }\ntxn U { L x < U x; }\nsite t { y }",
      "line 4: expected 'txn'" );
    ( "site s { x y }\ntxn T { L x < U x; L y < U y; }\ntxn U { @ }",
      "line 3: unexpected character '@'" );
  ]

let test_parser_errors () =
  List.iter
    (fun (src, want) ->
      match Parser.parse src with
      | Ok _ -> Alcotest.failf "%S: expected a parse error" src
      | Error e ->
          check Alcotest.string src want (Format.asprintf "%a" Parser.pp_error e))
    parser_error_table

let test_system_basic () =
  let sys = Fixtures.fig1 () in
  check int_t "size" 3 (System.size sys);
  check int_t "total nodes" 14 (System.total_nodes sys);
  let g = System.interaction_graph sys in
  (* T1-T2 share x,y; T1-T3 share x,z; T2-T3 share x: complete graph. *)
  check int_t "interaction edges" 3 (Ungraph.edge_count g);
  let db = System.db sys in
  let x = Db.find_entity_exn db "x" in
  check bool_t "common T2 T3 = {x}" true
    (Bitset.to_list (System.common_entities sys 1 2) = [ x ])

(* Round-trip any generated system through the textual format. *)
let parser_roundtrip_prop =
  QCheck.Test.make ~name:"to_source/parse round-trips random systems"
    ~count:80
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sites = 1 + Random.State.int st 3 in
      let entities = 1 + Random.State.int st 5 in
      let db = Ddlock_workload.Gentx.random_db ~sites ~entities in
      let named =
        List.init
          (1 + Random.State.int st 3)
          (fun i ->
            let k = 1 + Random.State.int st entities in
            ( "T" ^ string_of_int i,
              Ddlock_workload.Gentx.random_transaction st db
                ~entities:(Ddlock_workload.Gentx.random_entity_subset st db ~k)
                ~density:(Random.State.float st 0.6) ))
      in
      let src = Parser.to_source db named in
      match Parser.parse src with
      | Error _ -> false
      | Ok r ->
          List.length r.Parser.named = List.length named
          && List.for_all2
               (fun (n1, t1) (n2, t2) -> n1 = n2 && Transaction.equal t1 t2)
               named r.Parser.named)

let random_extension_valid_prop =
  QCheck.Test.make ~name:"random_linear_extension yields valid extensions"
    ~count:100
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:2 ~entities:4 in
      let t =
        Ddlock_workload.Gentx.random_transaction st db
          ~entities:(Ddlock_workload.Gentx.random_entity_subset st db ~k:3)
          ~density:0.4
      in
      let ext = Transaction.random_linear_extension st t in
      Ddlock_graph.Topo.is_linear_extension (Transaction.given_arcs t) ext)

(* Random transactions over one to three sites, sparse to dense. *)
let random_txn seed =
  let st = Fixtures.rng seed in
  let db = Ddlock_workload.Gentx.random_db ~sites:(1 + (seed mod 3)) ~entities:5 in
  Ddlock_workload.Gentx.random_transaction st db
    ~entities:
      (Ddlock_workload.Gentx.random_entity_subset st db
         ~k:(1 + Random.State.int st 5))
    ~density:(Random.State.float st 1.0)

let order_prop =
  QCheck.Test.make ~name:"order = Topo.order of the given arcs" ~count:200
    QCheck.(int_bound 100000)
    (fun seed ->
      let t = random_txn seed in
      let o = Transaction.order t in
      Topo.order (Transaction.given_arcs t) = Some o
      && Topo.is_linear_extension (Transaction.given_arcs t) (Array.to_list o))

let closure_arcs_prop =
  QCheck.Test.make ~name:"closure_arcs = precedes pairs" ~count:200
    QCheck.(int_bound 100000)
    (fun seed ->
      let t = random_txn seed in
      let n = Transaction.node_count t in
      let pairs = ref [] in
      for u = n - 1 downto 0 do
        for v = n - 1 downto 0 do
          if Transaction.precedes t u v then pairs := (u, v) :: !pairs
        done
      done;
      Transaction.closure_arcs t = !pairs)

(* [Transaction.is_two_phase] as it was before it scanned closure rows:
   no entity's Unlock precedes any entity's Lock, over all pairs. *)
let reference_is_two_phase t =
  let es = Transaction.entity_set t in
  not
    (Bitset.exists
       (fun x ->
         Bitset.exists
           (fun y ->
             Transaction.precedes t
               (Transaction.unlock_node_exn t x)
               (Transaction.lock_node_exn t y))
           es)
       es)

(* Random partial orders, and total orders that unlock anywhere after
   the lock, so both answers occur. *)
let is_two_phase_prop =
  QCheck.Test.make ~name:"is_two_phase = pairwise Ux < Ly reference"
    ~count:300
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:2 ~entities:5 in
      let total =
        Ddlock_rw.Rw_txn.to_exclusive
          (Fixtures.random_order_txn st db
             ~k:(1 + Random.State.int st 5)
             ~write_only:true)
      in
      List.for_all
        (fun t -> Transaction.is_two_phase t = reference_is_two_phase t)
        [ random_txn seed; total ])

let qtests =
  List.map Fixtures.to_alcotest
    [
      prefix_ideal_prop;
      random_txn_valid_prop;
      parser_roundtrip_prop;
      random_extension_valid_prop;
      order_prop;
      closure_arcs_prop;
      is_two_phase_prop;
    ]

let suite =
  [
    Alcotest.test_case "db basic" `Quick test_db_basic;
    Alcotest.test_case "db duplicates" `Quick test_db_dup;
    Alcotest.test_case "db one site per entity" `Quick
      test_db_one_site_per_entity;
    Alcotest.test_case "validation ok" `Quick test_validation_ok;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "site order chained" `Quick
      test_site_order_ok_when_chained;
    Alcotest.test_case "cross-site unordered" `Quick
      test_cross_site_may_be_unordered;
    Alcotest.test_case "r/l sets (total order)" `Quick test_r_l_sets;
    Alcotest.test_case "l_set (partial order)" `Quick test_l_set_partial_order;
    Alcotest.test_case "prefix ops" `Quick test_prefix_ops;
    Alcotest.test_case "minimal remaining" `Quick test_minimal_remaining;
    Alcotest.test_case "max prefix avoiding" `Quick test_max_prefix_avoiding;
    Alcotest.test_case "two phase" `Quick test_two_phase;
    Alcotest.test_case "builder implicit arcs" `Quick
      test_builder_implicit_arcs;
    Alcotest.test_case "parser basic" `Quick test_parser_basic;
    Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "golden source digest" `Quick test_source_digest;
    Alcotest.test_case "golden node-id digest" `Quick test_node_id_digest;
    Alcotest.test_case "system basic" `Quick test_system_basic;
  ]
  @ qtests
