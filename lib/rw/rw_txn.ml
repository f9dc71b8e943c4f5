open Ddlock_model

type mode = Read | Write
type op = Lock of mode | Unlock
type node = { entity : Db.entity; op : op }

let node_to_string db n =
  (match n.op with
  | Lock Read -> "R"
  | Lock Write -> "W"
  | Unlock -> "U")
  ^ Db.entity_name db n.entity

type error =
  | Cyclic
  | Bad_entity_ops of Db.entity
  | Unlock_before_lock of Db.entity
  | Site_unordered of int * int

let pp_error db ppf = function
  | Cyclic -> Format.fprintf ppf "precedence arcs are cyclic"
  | Bad_entity_ops e ->
      Format.fprintf ppf "entity %s must have exactly one Lock and one Unlock"
        (Db.entity_name db e)
  | Unlock_before_lock e ->
      Format.fprintf ppf "entity %s unlocked before locked" (Db.entity_name db e)
  | Site_unordered (u, v) ->
      Format.fprintf ppf "same-site nodes %d and %d are incomparable" u v

(* The exclusive transaction carries the partial order, its closure and
   the lock/unlock lookups; the modes are all this module adds. *)
type t = {
  exclusive : Transaction.t;
  labels : node array;
  mode_of : mode array; (* per entity; meaningful when accessed *)
}

(* [Transaction.make]'s errors, in this module's terms: entity errors in
   entity order, then the rest.  A duplicated or missing Lock or Unlock
   is one [Bad_entity_ops]; [Transaction.make] reports it before the
   entity's [Unlock_before_lock], which it then stands for. *)
let of_errors ne es =
  let entity_error = Array.make ne None in
  let rest =
    List.filter_map
      (function
        | Transaction.Cyclic _ -> Some Cyclic
        | Duplicate_op (e, _) | Missing_lock e | Missing_unlock e ->
            entity_error.(e) <- Some (Bad_entity_ops e);
            None
        | Unlock_before_lock e ->
            if entity_error.(e) = None then
              entity_error.(e) <- Some (Unlock_before_lock e);
            None
        | Site_unordered (u, v) -> Some (Site_unordered (u, v)))
      es
  in
  List.filter_map Fun.id (Array.to_list entity_error) @ rest

let make db labels arc_list =
  let ne = Db.entity_count db in
  let exclusive =
    Array.map
      (fun nd ->
        match nd.op with
        | Lock _ -> Node.lock nd.entity
        | Unlock -> Node.unlock nd.entity)
      labels
  in
  match Transaction.make db exclusive arc_list with
  | Error es -> Error (of_errors ne es)
  | Ok exclusive ->
      let mode_of = Array.make ne Read in
      Array.iter
        (fun nd ->
          match nd.op with Lock m -> mode_of.(nd.entity) <- m | Unlock -> ())
        labels;
      Ok { exclusive; labels; mode_of }

let make_exn db labels arc_list =
  match make db labels arc_list with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Rw_txn.make_exn: "
        ^ String.concat "; "
            (List.map (fun e -> Format.asprintf "%a" (pp_error db) e) es))

let of_total_order db steps =
  let labels = Array.of_list steps in
  make db labels
    (List.init (max 0 (Array.length labels - 1)) (fun i -> (i, i + 1)))

let to_exclusive t = t.exclusive
let db t = Transaction.db t.exclusive
let node_count t = Array.length t.labels
let node t i = t.labels.(i)
let precedes t = Transaction.precedes t.exclusive
let arcs t = Transaction.given_arcs t.exclusive
let entity_set t = Transaction.entity_set t.exclusive
let entities t = Transaction.entities t.exclusive
let accesses t = Transaction.accesses t.exclusive
let mode_of t e = t.mode_of.(e)
let lock_node_exn t = Transaction.lock_node_exn t.exclusive
let unlock_node_exn t = Transaction.unlock_node_exn t.exclusive
let minimal_remaining t = Transaction.minimal_remaining t.exclusive
let empty_prefix t = Transaction.empty_prefix t.exclusive
let is_two_phase t = Transaction.is_two_phase t.exclusive

let pp ppf t =
  Format.fprintf ppf "@[<v>rw-txn (%d nodes)" (node_count t);
  List.iter
    (fun (u, v) ->
      Format.fprintf ppf "@,%s < %s"
        (node_to_string (db t) t.labels.(u))
        (node_to_string (db t) t.labels.(v)))
    (Ddlock_graph.Digraph.edges (Transaction.hasse t.exclusive));
  Format.fprintf ppf "@]"
