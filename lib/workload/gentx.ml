open Ddlock_model

let random_db ~sites ~entities =
  if sites < 1 || entities < 0 then invalid_arg "Gentx.random_db";
  let specs =
    List.init sites (fun s ->
        let names =
          List.filter_map
            (fun e -> if e mod sites = s then Some ("e" ^ string_of_int e) else None)
            (List.init entities Fun.id)
        in
        ("s" ^ string_of_int s, names))
  in
  Db.create specs

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let random_transaction rng db ~entities ~density =
  let ents = Array.of_list entities in
  let k = Array.length ents in
  (* Nodes: 2i = L(ents.(i)), 2i+1 = U(ents.(i)). *)
  let labels =
    Array.init (2 * k) (fun i ->
        if i mod 2 = 0 then Node.lock ents.(i / 2) else Node.unlock ents.(i / 2))
  in
  (* A random global order with each L before its U: shuffle, then swap
     out-of-order L/U pairs. *)
  let order = Array.init (2 * k) Fun.id in
  shuffle rng order;
  let pos = Array.make (2 * k) 0 in
  Array.iteri (fun p v -> pos.(v) <- p) order;
  for i = 0 to k - 1 do
    let l = 2 * i and u = (2 * i) + 1 in
    if pos.(l) > pos.(u) then begin
      let pl = pos.(l) and pu = pos.(u) in
      order.(pl) <- u;
      order.(pu) <- l;
      pos.(l) <- pu;
      pos.(u) <- pl
    end
  done;
  let arcs = ref [] in
  (* L before U. *)
  for i = 0 to k - 1 do
    arcs := (2 * i, (2 * i) + 1) :: !arcs
  done;
  (* Per-site chains along the global order. *)
  let by_site = Hashtbl.create 7 in
  Array.iter
    (fun v ->
      let site = Db.site_of db labels.(v).Node.entity in
      let prev = Hashtbl.find_opt by_site site in
      (match prev with Some p -> arcs := (p, v) :: !arcs | None -> ());
      Hashtbl.replace by_site site v)
    order;
  (* Random cross arcs along the global order. *)
  for a = 0 to (2 * k) - 1 do
    for b = a + 1 to (2 * k) - 1 do
      if Random.State.float rng 1.0 < density then
        arcs := (order.(a), order.(b)) :: !arcs
    done
  done;
  Transaction.make_exn db labels !arcs

let random_entity_subset rng db ~k =
  let n = Db.entity_count db in
  if k > n then invalid_arg "Gentx.random_entity_subset: k > entities";
  let a = Array.init n Fun.id in
  shuffle rng a;
  List.sort compare (Array.to_list (Array.sub a 0 k))

(* Zipf(theta) over ranks 1..n by inverse-CDF on the exact normalized
   weights w_r = r^-theta.  n is small (a schema, not a key space), so
   building the cumulative table per call is fine. *)
let zipf_pick rng cumulative =
  let u = Random.State.float rng 1.0 in
  let n = Array.length cumulative in
  let rec bisect lo hi =
    (* invariant: cumulative.(hi) > u, lo-1 has cumulative <= u *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > u then bisect lo mid else bisect (mid + 1) hi
  in
  bisect 0 (n - 1)

let zipf_entity_subset rng ~cumulative ~k =
  let n = Array.length cumulative in
  if k > n then invalid_arg "Gentx.zipf_entity_subset: k > entities";
  let chosen = Hashtbl.create k in
  let rec draw () =
    let e = zipf_pick rng cumulative in
    if Hashtbl.mem chosen e then draw ()
    else Hashtbl.replace chosen e ()
  in
  for _ = 1 to k do
    draw ()
  done;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) chosen [])

let zipf_cumulative ~n ~theta =
  let weights =
    Array.init n (fun r -> (1.0 /. float_of_int (r + 1)) ** theta)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cumulative.(i) <- !acc)
    weights;
  cumulative.(n - 1) <- 1.0;
  cumulative

let zipf_system ?(entities_per_txn = 2) ?(density = 0.3) rng ~sites ~entities
    ~txns ~theta =
  if theta < 0.0 then invalid_arg "Gentx.zipf_system: theta < 0";
  if txns < 1 then invalid_arg "Gentx.zipf_system: txns < 1";
  if entities < 1 then invalid_arg "Gentx.zipf_system: entities < 1";
  if entities_per_txn > entities then
    invalid_arg "Gentx.zipf_system: entities_per_txn > entities";
  let db = random_db ~sites ~entities in
  let cumulative = zipf_cumulative ~n:entities ~theta in
  System.create
    (List.init txns (fun _ ->
         random_transaction rng db
           ~entities:(zipf_entity_subset rng ~cumulative ~k:entities_per_txn)
           ~density))

let random_system rng db ~txns ~entities_per_txn ~density =
  System.create
    (List.init txns (fun _ ->
         random_transaction rng db
           ~entities:(random_entity_subset rng db ~k:entities_per_txn)
           ~density))

(* Shared small-system generators for the differential test batteries,
   the fuzzer and the benches (one audited generator instead of a
   hand-rolled copy per consumer).  Unspecified parameters are drawn
   from the rng, so the default call covers a spread of shapes. *)
let small_random_pair ?sites ?entities ?density rng =
  let draw v f = match v with Some v -> v | None -> f () in
  let sites = draw sites (fun () -> 1 + Random.State.int rng 3) in
  let entities = draw entities (fun () -> 2 + Random.State.int rng 3) in
  let db = random_db ~sites ~entities in
  let density = draw density (fun () -> Random.State.float rng 0.5) in
  let k1 = 1 + Random.State.int rng entities in
  let k2 = 1 + Random.State.int rng entities in
  let e1 = random_entity_subset rng db ~k:k1 in
  let e2 = random_entity_subset rng db ~k:k2 in
  let t1 = random_transaction rng db ~entities:e1 ~density in
  let t2 = random_transaction rng db ~entities:e2 ~density in
  System.create [ t1; t2 ]

let small_random_system ?sites ?entities ?density rng ~txns =
  let draw v f = match v with Some v -> v | None -> f () in
  let sites = draw sites (fun () -> 1 + Random.State.int rng 2) in
  let entities = draw entities (fun () -> 2 + Random.State.int rng 2) in
  let db = random_db ~sites ~entities in
  let density = draw density (fun () -> Random.State.float rng 0.5) in
  System.create
    (List.init txns (fun _ ->
         let k = 1 + Random.State.int rng entities in
         random_transaction rng db ~entities:(random_entity_subset rng db ~k)
           ~density))

let random_copies_system ?(extra = false) rng ~copies =
  if copies < 1 then invalid_arg "Gentx.random_copies_system: copies < 1";
  let sites = 1 + Random.State.int rng 2 in
  let entities = 2 + Random.State.int rng 2 in
  let db = random_db ~sites ~entities in
  let density = Random.State.float rng 0.5 in
  let mk () =
    random_transaction rng db
      ~entities:(random_entity_subset rng db ~k:(1 + Random.State.int rng entities))
      ~density
  in
  let base = mk () in
  let txns = List.init copies (fun _ -> base) in
  System.create (if extra then txns @ [ mk () ] else txns)

let widen ~pad sys =
  let named =
    List.mapi
      (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
      (Array.to_list (System.txns sys))
  in
  let site =
    if pad = 0 then ""
    else
      "site _pad {"
      ^ String.concat "" (List.init pad (Printf.sprintf " _pad%d"))
      ^ " }\n"
  in
  Parser.system_of_result
    (Parser.parse_exn (site ^ Parser.to_source (System.db sys) named))

let two_phase_pair db names =
  (Builder.two_phase_chain db names, Builder.two_phase_chain db names)

let opposed_pair db names =
  (Builder.two_phase_chain db names, Builder.two_phase_chain db (List.rev names))

let dining_philosophers k =
  if k < 2 then invalid_arg "Gentx.dining_philosophers: k < 2";
  let names = List.init k (fun i -> "f" ^ string_of_int i) in
  let db = Db.one_site_per_entity names in
  let fork i = "f" ^ string_of_int (i mod k) in
  System.create
    (List.init k (fun i ->
         Builder.two_phase_chain db [ fork i; fork (i + 1) ]))

let guard_ring k =
  if k < 2 then invalid_arg "Gentx.guard_ring: k < 2";
  let names = List.init k (fun i -> "g" ^ string_of_int i) in
  let db = Db.one_site_per_entity names in
  let g i = "g" ^ string_of_int (i mod k) in
  Builder.transaction_exn db
    ~arcs:(List.init k (fun i -> (Builder.L (g i), Builder.U (g (i + 1)))))
    ()

let chain_db n = Db.one_site_per_entity (List.init n (fun i -> "e" ^ string_of_int i))

let chain_pair n =
  let db = chain_db n in
  two_phase_pair db (List.init n (fun i -> "e" ^ string_of_int i))

let opposed_chain_pair n =
  let db = chain_db n in
  opposed_pair db (List.init n (fun i -> "e" ^ string_of_int i))

(* ------------------------------------------------------------------ *)
(* TPC-C-style workloads *)

type tpcc = {
  tpcc_db : Db.t;
  warehouses : int;
  districts : int;
  items : int;
  customers : int;
}

let tpcc_db ~warehouses ~districts ~items ~customers =
  if warehouses < 1 then invalid_arg "Gentx.tpcc_db: warehouses < 1";
  if districts < 1 then invalid_arg "Gentx.tpcc_db: districts < 1";
  if items < 1 then invalid_arg "Gentx.tpcc_db: items < 1";
  if customers < 1 then invalid_arg "Gentx.tpcc_db: customers < 1";
  let specs =
    List.init warehouses (fun w ->
        let w = w + 1 in
        let wh = Printf.sprintf "w%d" w in
        let names =
          (wh
          :: List.init districts (fun d -> Printf.sprintf "%s.d%d" wh (d + 1)))
          @ List.init items (fun i -> Printf.sprintf "%s.s%d" wh (i + 1))
          @ List.init customers (fun c -> Printf.sprintf "%s.c%d" wh (c + 1))
        in
        (Printf.sprintf "wh%d" w, names))
  in
  { tpcc_db = Db.create specs; warehouses; districts; items; customers }

(* Rank 1 is the hottest warehouse/district/item throughout: all three
   draw spaces share the zipf exponent, so theta = 0. is uniform TPC-C
   and larger theta concentrates the load on w1/w1.d1 — the hot-row
   regime the recovery schemes must survive. *)
let tpcc_remote rng t ~remote_prob w =
  if t.warehouses > 1 && Random.State.float rng 1.0 < remote_prob then begin
    let r = 1 + Random.State.int rng (t.warehouses - 1) in
    if r >= w then r + 1 else r
  end
  else w

let tpcc_new_order ?(items_per_order = 2) ?(remote_prob = 0.1) rng t ~theta =
  if items_per_order < 1 || items_per_order > t.items then
    invalid_arg "Gentx.tpcc_new_order: items_per_order not in [1, items]";
  if theta < 0.0 then invalid_arg "Gentx.tpcc_new_order: theta < 0";
  let w = 1 + zipf_pick rng (zipf_cumulative ~n:t.warehouses ~theta) in
  let d = 1 + zipf_pick rng (zipf_cumulative ~n:t.districts ~theta) in
  let icum = zipf_cumulative ~n:t.items ~theta in
  let item_ids = zipf_entity_subset rng ~cumulative:icum ~k:items_per_order in
  (* Distinct item ids keep the stock names distinct even when some rows
     resolve to a remote warehouse (TPC-C's ~1% remote stock). *)
  let stock =
    List.map
      (fun i ->
        Printf.sprintf "w%d.s%d" (tpcc_remote rng t ~remote_prob w) (i + 1))
      item_ids
  in
  Builder.two_phase_chain t.tpcc_db
    ((Printf.sprintf "w%d" w) :: stock @ [ Printf.sprintf "w%d.d%d" w d ])

let tpcc_payment ?(remote_prob = 0.15) rng t ~theta =
  if theta < 0.0 then invalid_arg "Gentx.tpcc_payment: theta < 0";
  let w = 1 + zipf_pick rng (zipf_cumulative ~n:t.warehouses ~theta) in
  let d = 1 + zipf_pick rng (zipf_cumulative ~n:t.districts ~theta) in
  let c = 1 + zipf_pick rng (zipf_cumulative ~n:t.customers ~theta) in
  let cw = tpcc_remote rng t ~remote_prob w in
  Builder.two_phase_chain t.tpcc_db
    [
      Printf.sprintf "w%d" w;
      Printf.sprintf "w%d.d%d" w d;
      Printf.sprintf "w%d.c%d" cw c;
    ]

let tpcc_system ?(districts = 2) ?(items = 4) ?(customers = 2)
    ?(items_per_order = 2) ?(new_order_frac = 0.5) ?(remote_prob = 0.1) rng
    ~warehouses ~txns ~theta =
  if txns < 1 then invalid_arg "Gentx.tpcc_system: txns < 1";
  if theta < 0.0 then invalid_arg "Gentx.tpcc_system: theta < 0";
  if new_order_frac < 0.0 || new_order_frac > 1.0 then
    invalid_arg "Gentx.tpcc_system: new_order_frac not in [0, 1]";
  if remote_prob < 0.0 || remote_prob > 1.0 then
    invalid_arg "Gentx.tpcc_system: remote_prob not in [0, 1]";
  let t = tpcc_db ~warehouses ~districts ~items ~customers in
  System.create
    (List.init txns (fun _ ->
         if Random.State.float rng 1.0 < new_order_frac then
           tpcc_new_order ~items_per_order ~remote_prob rng t ~theta
         else tpcc_payment ~remote_prob rng t ~theta))

(* ------------------------------------------------------------------ *)
(* Partial replication (Sutra & Shapiro, arXiv:0802.0137) *)

type replicated = {
  rep_db : Db.t;
  logical : int;
  replication : int;
  replicas : Db.entity list array;
}

let replica_name i s = Printf.sprintf "x%d.s%d" i s

let replicated_db ~sites ~entities ~replication =
  if sites < 1 then invalid_arg "Gentx.replicated_db: sites < 1";
  if entities < 1 then invalid_arg "Gentx.replicated_db: entities < 1";
  if replication < 1 || replication > sites then
    invalid_arg "Gentx.replicated_db: replication not in [1, sites]";
  (* Logical entity i is hosted on the [replication] consecutive sites
     starting at i mod sites — deterministic overlapping subsets, every
     adjacent site pair shares entities, so cross-site transactions are
     the norm rather than the exception. *)
  let hosts i = List.init replication (fun j -> (i + j) mod sites) in
  let specs =
    List.init sites (fun s ->
        ( "s" ^ string_of_int s,
          List.filter_map
            (fun i -> if List.mem s (hosts i) then Some (replica_name i s) else None)
            (List.init entities Fun.id) ))
  in
  let db = Db.create specs in
  let replicas =
    Array.init entities (fun i ->
        List.map (fun s -> Db.find_entity_exn db (replica_name i s)) (hosts i))
  in
  { rep_db = db; logical = entities; replication; replicas }

let logical_of rep e =
  let rec find i =
    if i >= rep.logical then None
    else if List.mem e rep.replicas.(i) then Some i
    else find (i + 1)
  in
  find 0

let replicated_transaction ?(write_prob = 0.6) rng rep ~entities_per_txn =
  if entities_per_txn < 1 || entities_per_txn > rep.logical then
    invalid_arg
      "Gentx.replicated_transaction: entities_per_txn not in [1, entities]";
  if write_prob < 0.0 || write_prob > 1.0 then
    invalid_arg "Gentx.replicated_transaction: write_prob not in [0, 1]";
  let order = Array.init rep.logical Fun.id in
  shuffle rng order;
  let chosen = Array.to_list (Array.sub order 0 entities_per_txn) in
  (* ROWA: a write locks every replica of the logical entity (in the
     canonical ascending-site order); a read locks one random replica. *)
  let physical =
    List.concat_map
      (fun l ->
        let reps = rep.replicas.(l) in
        if Random.State.float rng 1.0 < write_prob then reps
        else [ List.nth reps (Random.State.int rng (List.length reps)) ])
      chosen
  in
  Builder.two_phase_chain rep.rep_db
    (List.map (Db.entity_name rep.rep_db) physical)

let replicated_system ?write_prob rng rep ~txns ~entities_per_txn =
  if txns < 1 then invalid_arg "Gentx.replicated_system: txns < 1";
  System.create
    (List.init txns (fun _ ->
         replicated_transaction ?write_prob rng rep ~entities_per_txn))
