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

(* Everything but the labels lives in [store] (layout in the .mli):
   the given arcs ([arcs] is a view on it), the order, the closure rows
   ([closure], a view too), the [lock_of]/[unlock_of] tables (node id
   or -1 per entity) and the entity rows. *)
type t = {
  db : Db.t;
  node_labels : Node.t array;
  store : int array;
  arcs : Digraph.t;
  closure : Closure.t;
  order_at : int;
  lock_at : int;
  unlock_at : int;
  rows_at : int;
  words : int; (* [Rows.words] of the entity count *)
}

let db t = t.db
let node_count t = Array.length t.node_labels
let nodes t = t.node_labels
let node t i = t.node_labels.(i)
let given_arcs t = t.arcs
let order t = Array.sub t.store t.order_at (node_count t)
(* Only printers read the Hasse diagram, so it is derived per call
   rather than stored in every transaction. *)
let hasse t = Closure.reduction ~closure:t.closure t.arcs
let[@inline] precedes t u v = Closure.reaches t.closure u v
let[@inline] lock_of t e = t.store.(t.lock_at + e)
let[@inline] unlock_of t e = t.store.(t.unlock_at + e)

let closure_arcs t =
  let acc = ref [] in
  for u = node_count t - 1 downto 0 do
    for v = node_count t - 1 downto 0 do
      if precedes t u v then acc := (u, v) :: !acc
    done
  done;
  !acc

(* The entity rows, [w] words each from [rows_at] on: R(T) first, then
   two rows per node, locks after and unlocks after [Lx] at node [Lx],
   locks before [Lx] and locks before [Ux] at node [Ux].  One pass over
   the closure rows of the Lock nodes fills them: [Ly ≺ Lx] puts [x] in
   locks after [Ly] and [y] in locks before [Lx], and [Ly ≺ Ux] puts
   [x] in unlocks after [Ly] and [y] in locks before [Ux]. *)
let fill_entity_rows t =
  let s = t.store and w = t.words and r = t.rows_at in
  let cw = Closure.row_words t.closure in
  for ly = 0 to node_count t - 1 do
    let { Node.entity = y; op } = t.node_labels.(ly) in
    if op = Node.Lock then begin
      Rows.set s r y;
      let c = Closure.row t.closure ly and lx = r + (w * (1 + (2 * ly))) in
      for k = 0 to cw - 1 do
        let bits = ref s.(c + k) in
        while !bits <> 0 do
          let b = !bits land - !bits in
          bits := !bits lxor b;
          let v = (k * Rows.bits) + Rows.lowest b in
          let { Node.entity = x; op } = t.node_labels.(v) in
          let ux = r + (w * (1 + (2 * unlock_of t x))) in
          match op with
          | Node.Lock ->
              Rows.set s lx x;
              Rows.set s ux y
          | Node.Unlock ->
              Rows.set s (lx + w) x;
              Rows.set s (ux + w) y
        done
      done
    end
  done

(* One store per transaction, laid out as the .mli says.  The
   topological sort works in the entity rows' space before they are
   filled, and only a cyclic input pays for [Topo.find_cycle]'s
   report. *)
let of_arcs db node_labels arcs m =
  let n = Array.length node_labels and ne = Db.entity_count db in
  let words = Rows.words ne in
  let order_at = Digraph.words n m in
  let closure_at = order_at + n in
  let lock_at = closure_at + Closure.words n in
  let unlock_at = lock_at + ne in
  let rows_at = unlock_at + ne in
  let store = Array.make (rows_at + (words * (1 + (2 * n)))) 0 in
  let g = Digraph.write ~into:store ~at:0 n arcs m in
  if not (Topo.order_into g store ~scratch:rows_at ~out:order_at) then
    Error [ Cyclic (Option.get (Topo.find_cycle g)) ]
  else begin
    for i = rows_at to rows_at + (2 * n) - 1 do
      store.(i) <- 0
    done;
    for i = lock_at to rows_at - 1 do
      store.(i) <- -1
    done;
    let closure = Closure.view store closure_at n in
    Closure.fill closure g store order_at;
    let t =
      {
        db;
        node_labels;
        store;
        arcs = g;
        closure;
        order_at;
        lock_at;
        unlock_at;
        rows_at;
        words;
      }
    in
    let errors = ref [] in
    for i = 0 to n - 1 do
      let { Node.entity = e; op } = node_labels.(i) in
      let at = match op with Node.Lock -> lock_at | Node.Unlock -> unlock_at in
      if store.(at + e) >= 0 then errors := Duplicate_op (e, op) :: !errors
      else store.(at + e) <- i
    done;
    for e = 0 to ne - 1 do
      match (lock_of t e >= 0, unlock_of t e >= 0) with
      | false, false -> ()
      | true, false -> errors := Missing_unlock e :: !errors
      | false, true -> errors := Missing_lock e :: !errors
      | true, true ->
          if not (precedes t (lock_of t e) (unlock_of t e)) then
            errors := Unlock_before_lock e :: !errors
    done;
    (* Same-site nodes must be totally ordered. *)
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if
          Db.same_site db node_labels.(u).Node.entity
            node_labels.(v).Node.entity
          && (not (precedes t u v))
          && not (precedes t v u)
        then errors := Site_unordered (u, v) :: !errors
      done
    done;
    match !errors with
    | [] ->
        fill_entity_rows t;
        Ok t
    | es -> Error (List.rev es)
  end

let make db node_labels arcs =
  of_arcs db node_labels (Digraph.buffer arcs) (List.length arcs)

let make_exn db node_labels arc_list =
  match make db node_labels arc_list with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Transaction.make_exn: "
        ^ String.concat "; " (List.map (error_to_string db) es))

let lock_node t e = if lock_of t e >= 0 then Some (lock_of t e) else None

let unlock_node t e =
  if unlock_of t e >= 0 then Some (unlock_of t e) else None

let lock_node_exn t e = if lock_of t e >= 0 then lock_of t e else raise Not_found

let unlock_node_exn t e =
  if unlock_of t e >= 0 then unlock_of t e else raise Not_found

let accesses t e = Rows.mem t.store t.rows_at e
let entity_set t = Bitset.of_row (Db.entity_count t.db) t.store t.rows_at

let entities t =
  List.filter (accesses t) (List.init (Db.entity_count t.db) Fun.id)

let row_words t = t.words
let rows t = t.store
let entity_row t = t.rows_at
let locks_after t x = t.rows_at + (t.words * (1 + (2 * lock_of t x)))
let unlocks_after t x = locks_after t x + t.words
let locks_before t x = t.rows_at + (t.words * (1 + (2 * unlock_of t x)))
let locks_before_unlock t x = locks_before t x + t.words

(* The accessed entities [e] for which [p e] holds. *)
let entities_where t p =
  let r = Bitset.create (Db.entity_count t.db) in
  for e = 0 to Db.entity_count t.db - 1 do
    if accesses t e && p e then Bitset.set r e
  done;
  r

let r_set t s = entities_where t (fun e -> precedes t (lock_of t e) s)

let l_set t s =
  let se = t.node_labels.(s).Node.entity in
  entities_where t (fun e ->
      e <> se
      && precedes t s (unlock_of t e)
      && not (precedes t s (lock_of t e)))

let empty_prefix t = Bitset.create (node_count t)

let full_prefix t =
  let p = Bitset.create (node_count t) in
  for i = 0 to node_count t - 1 do
    Bitset.set p i
  done;
  p

(* Whether every immediate predecessor of [u] is in [p]. *)
let preds_in t p u =
  let k = ref (Digraph.pred_start t.arcs u)
  and stop = Digraph.pred_stop t.arcs u in
  while !k < stop && Bitset.mem p t.store.(!k) do
    incr k
  done;
  !k = stop

(* Downward closed: every predecessor (in the given arcs) of a member is
   a member. *)
let is_prefix t p = Bitset.for_all (preds_in t p) p

let down_closure t ns =
  let p = Bitset.create (node_count t) in
  let rec add u =
    if not (Bitset.mem p u) then begin
      Bitset.set p u;
      Digraph.iter_pred t.arcs u add
    end
  in
  List.iter add ns;
  p

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
      let u = t.store.(t.order_at + k) in
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

let locked_in_prefix t p = entities_where t (fun e -> Bitset.mem p (lock_of t e))

let held_in_prefix t p =
  entities_where t (fun e ->
      Bitset.mem p (lock_of t e) && not (Bitset.mem p (unlock_of t e)))

let y_set t p = entities_where t (fun e -> not (Bitset.mem p (unlock_of t e)))

let max_prefix_avoiding t ys =
  let p = full_prefix t in
  Bitset.iter
    (fun y ->
      if accesses t y then begin
        let l = lock_of t y in
        for v = 0 to node_count t - 1 do
          if v = l || precedes t l v then Bitset.clear p v
        done
      end)
    ys;
  p

let linear_extensions t = Topo.linear_extensions t.arcs
let count_linear_extensions t = Topo.count_linear_extensions t.arcs
let random_linear_extension rng t = Topo.random_linear_extension rng t.arcs

let of_total_order db steps =
  let node_labels = Array.of_list steps in
  let m = max 0 (Array.length node_labels - 1) in
  of_arcs db node_labels (Array.init (2 * m) (fun k -> (k / 2) + (k mod 2))) m

let restrict_to_prefix t p =
  Digraph.create (node_count t)
    (List.filter
       (fun (u, v) -> Bitset.mem p u && Bitset.mem p v)
       (Digraph.edges (hasse t)))

(* Two-phase iff no Unlock node precedes a Lock node. *)
let is_two_phase t =
  let n = node_count t and two_phase = ref true in
  for u = 0 to n - 1 do
    if t.node_labels.(u).Node.op = Node.Unlock then
      for v = 0 to n - 1 do
        if t.node_labels.(v).Node.op = Node.Lock && precedes t u v then
          two_phase := false
      done
  done;
  !two_phase

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
