open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type t = { db : Db.t; txns : Rw_txn.t array }

let create = function
  | [] -> invalid_arg "Rw_system.create: empty"
  | t0 :: _ as l ->
      let db = Rw_txn.db t0 in
      List.iter
        (fun t ->
          if Rw_txn.db t != db then
            invalid_arg "Rw_system.create: different schemas")
        l;
      { db; txns = Array.of_list l }

let size t = Array.length t.txns
let txn t i = t.txns.(i)
let txns t = t.txns
let db t = t.db

let to_exclusive t =
  System.create (List.map Rw_txn.to_exclusive (Array.to_list t.txns))

type step = Step.t = { txn : int; node : int }

let step_to_string sys s =
  Printf.sprintf "%s^%d"
    (Rw_txn.node_to_string sys.db (Rw_txn.node sys.txns.(s.txn) s.node))
    (s.txn + 1)

type state = State.t

let initial sys = Array.map Rw_txn.empty_prefix sys.txns
let apply = State.apply

let holders sys st e =
  let hs = ref [] and mode = ref None in
  Array.iteri
    (fun i tx ->
      if Rw_txn.accesses tx e then begin
        let l = Rw_txn.lock_node_exn tx e and u = Rw_txn.unlock_node_exn tx e in
        if Bitset.mem st.(i) l && not (Bitset.mem st.(i) u) then begin
          hs := i :: !hs;
          mode := Some (Rw_txn.mode_of tx e)
        end
      end)
    sys.txns;
  (List.rev !hs, !mode)

(* [i] may lock [e] when no one else holds it, or when [i] and the
   others all read it. *)
let lock_compatible sys st i e =
  let reads j = Rw_txn.mode_of sys.txns.(j) e = Rw_txn.Read in
  List.for_all (fun j -> j = i || (reads i && reads j)) (fst (holders sys st e))

let enabled sys st =
  let steps = ref [] in
  for i = size sys - 1 downto 0 do
    let tx = sys.txns.(i) in
    List.iter
      (fun v ->
        let nd = Rw_txn.node tx v in
        if
          nd.Rw_txn.op = Rw_txn.Unlock
          || lock_compatible sys st i nd.Rw_txn.entity
        then steps := { txn = i; node = v } :: !steps)
      (Rw_txn.minimal_remaining tx st.(i))
  done;
  !steps

let all_finished sys st =
  Array.for_all2
    (fun p tx -> Bitset.cardinal p = Rw_txn.node_count tx)
    st sys.txns

(* Finished transactions have no minimal remaining node, so a state is a
   deadlock exactly when someone is unfinished and nothing can run. *)
let is_deadlock sys st = (not (all_finished sys st)) && enabled sys st = []

exception Too_large = Explore.Too_large

let read sys (s : step) =
  (Rw_txn.node sys.txns.(s.txn) s.node).Rw_txn.op = Rw_txn.Lock Rw_txn.Read

(* The exclusive abstraction with the Read locks shared. *)
let layout ?arcs sys = Packed.layout ~read:(read sys) ?arcs (to_exclusive sys)

let find_deadlock ?max_states sys =
  Explore.deadlock_on ?max_states ~name:"rw.find_deadlock" (layout sys)

let deadlock_free ?max_states sys = find_deadlock ?max_states sys = None

let conflicting sys i k e =
  Rw_txn.mode_of sys.txns.(i) e = Rw_txn.Write
  || Rw_txn.mode_of sys.txns.(k) e = Rw_txn.Write

let conflict_graph sys steps =
  let ne = Db.entity_count sys.db in
  let lock_order = Array.make ne [] in
  List.iter
    (fun (s : step) ->
      let nd = Rw_txn.node sys.txns.(s.txn) s.node in
      match nd.Rw_txn.op with
      | Rw_txn.Lock _ ->
          lock_order.(nd.Rw_txn.entity) <-
            s.txn :: lock_order.(nd.Rw_txn.entity)
      | Rw_txn.Unlock -> ())
    steps;
  let es = ref [] in
  for e = 0 to ne - 1 do
    let rec pairs = function
      | [] -> ()
      | i :: rest ->
          List.iter
            (fun j -> if j <> i && conflicting sys i j e then es := (i, j) :: !es)
            rest;
          pairs rest
    in
    pairs (List.rev lock_order.(e))
  done;
  Digraph.create (size sys) !es

let is_conflict_serializable sys steps =
  Topo.is_acyclic (conflict_graph sys steps)

(* Exhaustive safety: Lemma 1's search over states with their conflict
   arcs — an arc i -> k when a Lock of [i] runs before the conflicting
   Lock of [k], which on complete schedules is exactly the conflict
   graph — judged at complete states. *)
let safe ?max_states sys =
  match
    Explore.lemma1_on ?max_states ~name:"rw.safe" ~complete:true
      (layout ~arcs:true sys)
  with
  | Ok () -> Ok ()
  | Error { Explore.steps; _ } -> Error steps

type run = Completed of step list | Deadlocked of step list

let random_run rng sys =
  let rec go st rev =
    if all_finished sys st then Completed (List.rev rev)
    else
      match enabled sys st with
      | [] -> Deadlocked (List.rev rev)
      | steps ->
          let s = List.nth steps (Random.State.int rng (List.length steps)) in
          go (apply st s) (s :: rev)
  in
  go (initial sys) []
