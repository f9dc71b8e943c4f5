open Ddlock_graph
open Ddlock_model

type labelled_arc = { src : int; dst : int; entity : Db.entity }

let arcs sys steps =
  let n = System.size sys in
  let db = System.db sys in
  let ne = Db.entity_count db in
  (* For each entity, the transactions that lock it in the schedule, in
     order of their Lock step. *)
  let lockers = Array.make ne [] in
  List.iter
    (fun (s : Step.t) ->
      let tx = System.txn sys s.txn in
      let nd = Transaction.node tx s.node in
      match nd.Node.op with
      | Node.Lock -> lockers.(nd.entity) <- s.txn :: lockers.(nd.entity)
      | Node.Unlock -> ())
    steps;
  let result = ref [] in
  for x = 0 to ne - 1 do
    let locked = List.rev lockers.(x) in
    let locked_set = List.sort_uniq compare locked in
    let accessors =
      List.filter
        (fun i -> Transaction.accesses (System.txn sys i) x)
        (List.init n Fun.id)
    in
    (* Arcs between successive lockers... in fact from each locker to every
       later locker, and to every accessor that never locked in S'. *)
    let rec pairs = function
      | [] -> ()
      | i :: rest ->
          List.iter
            (fun j -> if j <> i then result := { src = i; dst = j; entity = x } :: !result)
            rest;
          pairs rest
    in
    pairs locked;
    List.iter
      (fun i ->
        List.iter
          (fun k ->
            if k <> i && not (List.mem k locked_set) then
              result := { src = i; dst = k; entity = x } :: !result)
          accessors)
      locked_set
  done;
  List.rev !result

let graph sys steps =
  Digraph.create (System.size sys)
    (List.map (fun a -> (a.src, a.dst)) (arcs sys steps))

let is_serializable sys steps = Topo.is_acyclic (graph sys steps)
let find_cycle sys steps = Topo.find_cycle (graph sys steps)
