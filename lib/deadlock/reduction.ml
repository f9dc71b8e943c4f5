open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type t = {
  sys : System.t;
  offsets : int array; (* txn -> first global id *)
  graph : Digraph.t;
}

let make sys prefix =
  let n = System.size sys in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !total;
    total := !total + Transaction.node_count (System.txn sys i)
  done;
  let remaining =
    Array.init n (fun i ->
        let tx = System.txn sys i in
        let r = Transaction.full_prefix tx in
        Bitset.diff_into ~into:r prefix.(i);
        r)
  in
  let es = ref [] in
  (* Remaining precedence arcs. *)
  for i = 0 to n - 1 do
    let tx = System.txn sys i in
    List.iter
      (fun (u, v) ->
        if Bitset.mem remaining.(i) u && Bitset.mem remaining.(i) v then
          es := (offsets.(i) + u, offsets.(i) + v) :: !es)
      (Digraph.edges (Transaction.given_arcs tx))
  done;
  (* Lock arcs: for every held entity x of Ti, Uix -> remaining Ljx. *)
  for i = 0 to n - 1 do
    let tx = System.txn sys i in
    Bitset.iter
      (fun x ->
        let ui = Transaction.unlock_node_exn tx x in
        for j = 0 to n - 1 do
          if j <> i then
            let tj = System.txn sys j in
            match Transaction.lock_node tj x with
            | Some lj when Bitset.mem remaining.(j) lj ->
                es := (offsets.(i) + ui, offsets.(j) + lj) :: !es
            | _ -> ()
        done)
      (Transaction.held_in_prefix tx prefix.(i))
  done;
  { sys; offsets; graph = Digraph.create !total !es }

let graph t = t.graph

let step_of_id t id =
  let n = System.size t.sys in
  let rec find i =
    if i = n - 1 || id < t.offsets.(i + 1) then Step.v i (id - t.offsets.(i))
    else find (i + 1)
  in
  find 0

let has_cycle t = not (Topo.is_acyclic t.graph)

let find_cycle t =
  Option.map (List.map (step_of_id t)) (Topo.find_cycle t.graph)

let deadlock_prefix_witness sys prefix =
  match find_cycle (make sys prefix) with
  | None -> None
  | Some cycle ->
      Option.map (fun sched -> (sched, cycle)) (Explore.has_schedule sys prefix)

let is_deadlock_prefix sys prefix = deadlock_prefix_witness sys prefix <> None

let pp sys ppf t =
  Format.fprintf ppf "@[<v>reduction graph:";
  List.iter
    (fun (u, v) ->
      Format.fprintf ppf "@,%s -> %s"
        (Step.to_string sys (step_of_id t u))
        (Step.to_string sys (step_of_id t v)))
    (Digraph.edges t.graph);
  Format.fprintf ppf "@]"
