open Ddlock_graph

type error =
  | Cyclic of int list
  | Duplicate_op of Db.entity * Node.op
  | Missing_lock of Db.entity
  | Missing_unlock of Db.entity
  | Unlock_before_lock of Db.entity
  | Site_unordered of int * int

let pp_error db ppf = function
  | Cyclic c ->
      Format.fprintf ppf "precedence arcs contain a cycle through nodes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        c
  | Duplicate_op (e, op) ->
      Format.fprintf ppf "entity %s has more than one %s node"
        (Db.entity_name db e)
        (match op with Node.Lock -> "Lock" | Node.Unlock -> "Unlock")
  | Missing_lock e ->
      Format.fprintf ppf "entity %s is unlocked but never locked"
        (Db.entity_name db e)
  | Missing_unlock e ->
      Format.fprintf ppf "entity %s is locked but never unlocked"
        (Db.entity_name db e)
  | Unlock_before_lock e ->
      Format.fprintf ppf "entity %s: L%s does not precede U%s"
        (Db.entity_name db e) (Db.entity_name db e) (Db.entity_name db e)
  | Site_unordered (u, v) ->
      Format.fprintf ppf
        "nodes %d and %d act on entities of the same site but are incomparable"
        u v

let error_to_string db e = Format.asprintf "%a" (pp_error db) e

type t = {
  db : Db.t;
  node_labels : Node.t array;
  arcs : Digraph.t;
  preds : Bitset.t array; (* node -> its immediate predecessors *)
  closure : Closure.t;
  hasse : Digraph.t;
  lock_of : int array; (* entity -> node id or -1 *)
  unlock_of : int array;
  entity_set : Bitset.t;
}

let db t = t.db
let node_count t = Array.length t.node_labels
let nodes t = t.node_labels
let node t i = t.node_labels.(i)
let given_arcs t = t.arcs
let hasse t = t.hasse
let precedes t u v = Bitset.mem t.closure.(u) v

let make db node_labels arc_list =
  let n = Array.length node_labels in
  let ne = Db.entity_count db in
  let errors = ref [] in
  let arcs = Digraph.create n arc_list in
  (match Topo.find_cycle arcs with
  | Some c -> errors := [ Cyclic c ]
  | None -> ());
  if !errors <> [] then Error !errors
  else begin
    let closure = Closure.closure arcs in
    let lock_of = Array.make ne (-1) and unlock_of = Array.make ne (-1) in
    Array.iteri
      (fun i (nd : Node.t) ->
        let tbl = match nd.op with Node.Lock -> lock_of | Node.Unlock -> unlock_of in
        if tbl.(nd.entity) >= 0 then
          errors := Duplicate_op (nd.entity, nd.op) :: !errors
        else tbl.(nd.entity) <- i)
      node_labels;
    let entity_set = Bitset.create ne in
    for e = 0 to ne - 1 do
      match (lock_of.(e) >= 0, unlock_of.(e) >= 0) with
      | false, false -> ()
      | true, false -> errors := Missing_unlock e :: !errors
      | false, true -> errors := Missing_lock e :: !errors
      | true, true ->
          Bitset.set entity_set e;
          if not (Bitset.mem closure.(lock_of.(e)) unlock_of.(e)) then
            errors := Unlock_before_lock e :: !errors
    done;
    (* Same-site nodes must be totally ordered. *)
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if
          Db.same_site db node_labels.(u).Node.entity
            node_labels.(v).Node.entity
          && (not (Bitset.mem closure.(u) v))
          && not (Bitset.mem closure.(v) u)
        then errors := Site_unordered (u, v) :: !errors
      done
    done;
    match !errors with
    | [] ->
        Ok
          {
            db;
            node_labels;
            arcs;
            preds =
              Array.init n (fun u ->
                  Bitset.of_list n (Array.to_list (Digraph.pred arcs u)));
            closure;
            hasse = Closure.reduction ~closure arcs;
            lock_of;
            unlock_of;
            entity_set;
          }
    | es -> Error (List.rev es)
  end

let make_exn db node_labels arc_list =
  match make db node_labels arc_list with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Transaction.make_exn: "
        ^ String.concat "; " (List.map (error_to_string db) es))

let lock_node t e = if t.lock_of.(e) >= 0 then Some t.lock_of.(e) else None
let unlock_node t e = if t.unlock_of.(e) >= 0 then Some t.unlock_of.(e) else None

let lock_node_exn t e =
  if t.lock_of.(e) >= 0 then t.lock_of.(e) else raise Not_found

let unlock_node_exn t e =
  if t.unlock_of.(e) >= 0 then t.unlock_of.(e) else raise Not_found

let accesses t e = Bitset.mem t.entity_set e
let entity_set t = t.entity_set
let entities t = Bitset.to_list t.entity_set

let r_set t s =
  let r = Bitset.create (Db.entity_count t.db) in
  Bitset.iter
    (fun e -> if Bitset.mem t.closure.(t.lock_of.(e)) s then Bitset.set r e)
    t.entity_set;
  r

let l_set t s =
  let r = Bitset.create (Db.entity_count t.db) in
  let se = t.node_labels.(s).Node.entity in
  Bitset.iter
    (fun e ->
      if
        e <> se
        && Bitset.mem t.closure.(s) t.unlock_of.(e)
        && not (Bitset.mem t.closure.(s) t.lock_of.(e))
      then Bitset.set r e)
    t.entity_set;
  r

let empty_prefix t = Bitset.create (node_count t)

let full_prefix t =
  let p = Bitset.create (node_count t) in
  for i = 0 to node_count t - 1 do
    Bitset.set p i
  done;
  p

let is_prefix t p =
  (* Downward closed: every predecessor (in the given arcs) of a member is
     a member. *)
  Bitset.for_all
    (fun u -> Array.for_all (Bitset.mem p) (Digraph.pred t.arcs u))
    p

let down_closure t ns =
  let p = Bitset.create (node_count t) in
  let rec add u =
    if not (Bitset.mem p u) then begin
      Bitset.set p u;
      Array.iter add (Digraph.pred t.arcs u)
    end
  in
  List.iter add ns;
  p

let is_minimal_remaining t p u =
  (not (Bitset.mem p u)) && Bitset.subset t.preds.(u) p

let minimal_remaining t p =
  let r = ref [] in
  for u = node_count t - 1 downto 0 do
    if is_minimal_remaining t p u then r := u :: !r
  done;
  !r

let prefixes t =
  (* Enumerate order ideals by deciding nodes in topological order: a node
     may join the ideal only if all its predecessors did. *)
  let order =
    match Topo.sort t.arcs with Some o -> o | None -> assert false
  in
  let n = node_count t in
  let rec go acc = function
    | [] -> Seq.return (Bitset.copy acc)
    | u :: rest ->
        fun () ->
          let without = go acc rest in
          let with_ =
            if Bitset.subset t.preds.(u) acc then begin
              let acc' = Bitset.copy acc in
              Bitset.set acc' u;
              go acc' rest
            end
            else Seq.empty
          in
          Seq.append without with_ ()
  in
  go (Bitset.create n) order

let locked_in_prefix t p =
  let r = Bitset.create (Db.entity_count t.db) in
  Bitset.iter
    (fun e -> if Bitset.mem p t.lock_of.(e) then Bitset.set r e)
    t.entity_set;
  r

let held_in_prefix t p =
  let r = Bitset.create (Db.entity_count t.db) in
  Bitset.iter
    (fun e ->
      if Bitset.mem p t.lock_of.(e) && not (Bitset.mem p t.unlock_of.(e)) then
        Bitset.set r e)
    t.entity_set;
  r

let y_set t p =
  let r = Bitset.create (Db.entity_count t.db) in
  Bitset.iter
    (fun e -> if not (Bitset.mem p t.unlock_of.(e)) then Bitset.set r e)
    t.entity_set;
  r

let max_prefix_avoiding t ys =
  let drop = Bitset.create (node_count t) in
  Bitset.iter
    (fun y ->
      if accesses t y then begin
        let l = t.lock_of.(y) in
        Bitset.set drop l;
        Bitset.union_into ~into:drop t.closure.(l)
      end)
    ys;
  let p = full_prefix t in
  Bitset.diff_into ~into:p drop;
  p

let linear_extensions t = Topo.linear_extensions t.arcs
let count_linear_extensions t = Topo.count_linear_extensions t.arcs
let random_linear_extension rng t = Topo.random_linear_extension rng t.arcs

let of_total_order db steps =
  let node_labels = Array.of_list steps in
  let arcs =
    List.init
      (max 0 (Array.length node_labels - 1))
      (fun i -> (i, i + 1))
  in
  make db node_labels arcs

let restrict_to_prefix t p =
  Digraph.create (node_count t)
    (List.filter
       (fun (u, v) -> Bitset.mem p u && Bitset.mem p v)
       (Digraph.edges t.hasse))

let is_two_phase t =
  not
    (Bitset.exists
       (fun x ->
         Bitset.exists
           (fun y -> precedes t t.unlock_of.(x) t.lock_of.(y))
           t.entity_set)
       t.entity_set)

let drop_entity t x =
  if not (accesses t x) then t
  else begin
    let keep v = t.node_labels.(v).Node.entity <> x in
    let closure_arcs = Digraph.edges (Closure.closure_graph t.arcs) in
    let renum = Array.make (node_count t) (-1) in
    let k = ref 0 in
    Array.iteri
      (fun v _ ->
        if keep v then begin
          renum.(v) <- !k;
          incr k
        end)
      t.node_labels;
    let labels =
      Array.of_list
        (List.filteri (fun v _ -> keep v) (Array.to_list t.node_labels))
    in
    let arcs =
      List.filter_map
        (fun (u, v) ->
          if keep u && keep v then Some (renum.(u), renum.(v)) else None)
        closure_arcs
    in
    make_exn t.db labels arcs
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>txn (%d nodes)" (node_count t);
  List.iter
    (fun (u, v) ->
      Format.fprintf ppf "@,%s < %s"
        (Node.to_string t.db t.node_labels.(u))
        (Node.to_string t.db t.node_labels.(v)))
    (Digraph.edges t.hasse);
  Format.fprintf ppf "@]"

let equal a b =
  (* Nodes are identified by their (entity, op) label — unique within a
     well-formed transaction — so equality is label-set plus closure
     arcs under that naming, independent of node numbering. *)
  let labels t = List.sort compare (Array.to_list t.node_labels) in
  let arcs t =
    List.sort compare
      (List.map
         (fun (u, v) -> (t.node_labels.(u), t.node_labels.(v)))
         (Digraph.edges (Closure.closure_graph t.arcs)))
  in
  labels a = labels b && arcs a = arcs b
