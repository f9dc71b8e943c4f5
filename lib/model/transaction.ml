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
  order : int array; (* [Topo.order arcs] *)
  closure : Closure.t;
  lock_of : int array; (* entity -> node id or -1 *)
  unlock_of : int array;
  entity_set : Bitset.t;
  words : int; (* [Rows.words] of the entity count *)
  rows : int array; (* [entity_rows] *)
}

let db t = t.db
let node_count t = Array.length t.node_labels
let nodes t = t.node_labels
let node t i = t.node_labels.(i)
let given_arcs t = t.arcs
let order t = t.order
(* Only printers read the Hasse diagram, so it is derived per call
   rather than stored in every transaction. *)
let hasse t = Closure.reduction ~closure:t.closure t.arcs
let precedes t u v = Bitset.mem t.closure.(u) v

let closure_arcs t =
  let acc = ref [] in
  for u = node_count t - 1 downto 0 do
    acc :=
      List.rev_append (Bitset.fold (fun v l -> (u, v) :: l) t.closure.(u) []) !acc
  done;
  !acc

(* The entity rows in one array of [w·(1 + 2n)] ints for [n] nodes,
   [w] = [Rows.words ne]: R(T) first, then two rows per node, locks
   after and unlocks after [Lx] at node [Lx], locks before [Lx] and
   locks before [Ux] at node [Ux].  One pass over the closure rows of
   the Lock nodes fills them: [Ly ≺ Lx] puts [x] in locks after [Ly]
   and [y] in locks before [Lx], and [Ly ≺ Ux] puts [x] in unlocks
   after [Ly] and [y] in locks before [Ux]. *)
let entity_rows node_labels closure unlock_of w =
  let n = Array.length node_labels in
  let rows = Array.make (w * (1 + (2 * n))) 0 in
  let at v = w * (1 + (2 * v)) in
  for ly = 0 to n - 1 do
    let { Node.entity = y; op } = node_labels.(ly) in
    if op = Node.Lock then begin
      Rows.set rows 0 y;
      for v = 0 to n - 1 do
        if Bitset.mem closure.(ly) v then begin
          let { Node.entity = x; op } = node_labels.(v) in
          let ux = at unlock_of.(x) in
          match op with
          | Node.Lock ->
              Rows.set rows (at ly) x;
              Rows.set rows ux y
          | Node.Unlock ->
              Rows.set rows (at ly + w) x;
              Rows.set rows (ux + w) y
        end
      done
    end
  done;
  rows

(* One topological sort gives the order for the closure or shows a
   cycle; only a cyclic input pays for [Topo.find_cycle]'s report. *)
let make db node_labels arc_list =
  let n = Array.length node_labels in
  let ne = Db.entity_count db in
  let arcs = Digraph.create n arc_list in
  match Topo.order arcs with
  | None -> Error [ Cyclic (Option.get (Topo.find_cycle arcs)) ]
  | Some order ->
      let errors = ref [] in
      let closure = Closure.of_order arcs order in
      let lock_of = Array.make ne (-1) and unlock_of = Array.make ne (-1) in
      Array.iteri
        (fun i (nd : Node.t) ->
          let tbl =
            match nd.op with Node.Lock -> lock_of | Node.Unlock -> unlock_of
          in
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
          let words = Rows.words ne in
          Ok
            {
              db;
              node_labels;
              arcs;
              order;
              closure;
              lock_of;
              unlock_of;
              entity_set;
              words;
              rows = entity_rows node_labels closure unlock_of words;
            }
      | es -> Error (List.rev es)

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

let row_words t = t.words
let rows t = t.rows
let entity_row _ = 0
let locks_after t x = t.words * (1 + (2 * t.lock_of.(x)))
let unlocks_after t x = locks_after t x + t.words
let locks_before t x = t.words * (1 + (2 * t.unlock_of.(x)))
let locks_before_unlock t x = locks_before t x + t.words

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

(* Whether every immediate predecessor of [u] is in [p]. *)
let preds_in t p u =
  let ps = Digraph.pred t.arcs u in
  let k = ref 0 in
  while !k < Array.length ps && Bitset.mem p ps.(!k) do
    incr k
  done;
  !k = Array.length ps

let is_minimal_remaining t p u = (not (Bitset.mem p u)) && preds_in t p u

let minimal_remaining t p =
  let r = ref [] in
  for u = node_count t - 1 downto 0 do
    if is_minimal_remaining t p u then r := u :: !r
  done;
  !r

let prefixes t =
  (* Enumerate order ideals by deciding nodes in topological order: a node
     may join the ideal only if all its predecessors did. *)
  let n = node_count t in
  let rec go acc k =
    if k = n then Seq.return (Bitset.copy acc)
    else
      let u = t.order.(k) in
      fun () ->
        let without = go acc (k + 1) in
        let with_ =
          if preds_in t acc u then begin
            let acc' = Bitset.copy acc in
            Bitset.set acc' u;
            go acc' (k + 1)
          end
          else Seq.empty
        in
        Seq.append without with_ ()
  in
  go (Bitset.create n) 0

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
       (Digraph.edges (hasse t)))

(* Two-phase iff no Unlock node's closure row holds a Lock node. *)
let is_two_phase t =
  let is_lock v = t.node_labels.(v).Node.op = Node.Lock in
  not
    (Array.exists
       (fun u -> u >= 0 && Bitset.exists is_lock t.closure.(u))
       t.unlock_of)

let drop_entity t x =
  if not (accesses t x) then t
  else begin
    let keep v = t.node_labels.(v).Node.entity <> x in
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
        (closure_arcs t)
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
    (Digraph.edges (hasse t));
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
         (closure_arcs t))
  in
  labels a = labels b && arcs a = arcs b
