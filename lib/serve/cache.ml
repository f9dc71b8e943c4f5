open Ddlock.Model

(* A transaction's node labels under its concrete numbering and its
   closed precedence.  Identical copies (those of [System.copies] or
   [gen --copies]) have equal keys. *)
let structural_key tx =
  (Array.to_list (Transaction.nodes tx), Transaction.closure_arcs tx)

(* The schema with its names (verdict texts print them), then the
   transactions' structural keys in order. *)
let system_key sys =
  let db = System.db sys in
  let schema =
    List.init (Db.site_count db) (fun s ->
        ( Db.site_name db s,
          List.map (Db.entity_name db) (Db.entities_of_site db s) ))
  in
  let txns = List.map structural_key (Array.to_list (System.txns sys)) in
  Digest.to_hex (Digest.string (Marshal.to_string (schema, txns) []))

(* LRU: hash table to intrusive doubly-linked nodes; [first] is the
   most-recently-used end, eviction pops [last]. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards first (more recent) *)
  mutable next : 'a node option;  (* towards last (less recent) *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable hits : int;
  mutable misses : int;
  lock : Mutex.t;
}

let create ~capacity =
  {
    capacity;
    tbl = Hashtbl.create 64;
    first = None;
    last = None;
    hits = 0;
    misses = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.first <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  n.prev <- None;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.value

let add t key value =
  if t.capacity > 0 then
    locked t @@ fun () ->
    (match Hashtbl.find_opt t.tbl key with
    | Some n ->
        n.value <- value;
        unlink t n;
        push_front t n
    | None ->
        let n = { key; value; prev = None; next = None } in
        Hashtbl.replace t.tbl key n;
        push_front t n);
    if Hashtbl.length t.tbl > t.capacity then
      match t.last with
      | Some n ->
          unlink t n;
          Hashtbl.remove t.tbl n.key
      | None -> assert false

let length t = locked t @@ fun () -> Hashtbl.length t.tbl
let hits t = locked t @@ fun () -> t.hits
let misses t = locked t @@ fun () -> t.misses
