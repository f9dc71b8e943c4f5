open Ddlock_graph
open Ddlock_model
open Ddlock_schedule
open Ddlock_deadlock

type t = {
  formula : Formula.t;
  db : Db.t;
  t1 : Transaction.t;
  t2 : Transaction.t;
  sys : System.t;
}

let c_name i = Printf.sprintf "c%d" i
let c'_name i = Printf.sprintf "c%d'" i
let x_name j = Printf.sprintf "x%d" j
let x'_name j = Printf.sprintf "x%d'" j
let x''_name j = Printf.sprintf "x%d''" j

let build formula =
  (match Formula.check_3sat' formula with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Format.asprintf "Reduction_sat.build: not 3SAT': %a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space
              Formula.pp_shape_error)
           es));
  let r = List.length formula.Formula.clauses in
  let n = formula.Formula.n_vars in
  let names =
    List.init r c_name @ List.init r c'_name @ List.init n x_name
    @ List.init n x'_name @ List.init n x''_name
  in
  let db = Db.one_site_per_entity names in
  let e name = Db.find_entity_exn db name in
  let ne = Db.entity_count db in
  (* Node 2e is L(e), node 2e+1 is U(e), for every entity. *)
  let labels =
    Array.init (2 * ne) (fun i ->
        if i mod 2 = 0 then Node.lock (i / 2) else Node.unlock (i / 2))
  in
  let lock en = 2 * e en and unlock en = (2 * e en) + 1 in
  let base = List.init ne (fun x -> (2 * x, (2 * x) + 1)) in
  let succ i = (i + 1) mod r in
  let arcs1 = ref base and arcs2 = ref base in
  (* Lc'_i < Uc_i in both transactions. *)
  for i = 0 to r - 1 do
    arcs1 := (lock (c'_name i), unlock (c_name i)) :: !arcs1;
    arcs2 := (lock (c'_name i), unlock (c_name i)) :: !arcs2
  done;
  for j = 0 to n - 1 do
    let h, k, l = Formula.occurrences formula j in
    (* T1. *)
    arcs1 :=
      (lock (x_name j), unlock (x''_name j))
      :: (lock (c_name h), unlock (x_name j))
      :: (lock (c_name k), unlock (x'_name j))
      :: (lock (x'_name j), unlock (c_name (succ l)))
      :: (lock (x'_name j), unlock (c'_name (succ l)))
      :: !arcs1;
    (* T2. *)
    arcs2 :=
      (lock (x''_name j), unlock (x'_name j))
      :: (lock (c_name l), unlock (x_name j))
      :: (lock (x_name j), unlock (c_name (succ h)))
      :: (lock (x_name j), unlock (c'_name (succ h)))
      :: (lock (x'_name j), unlock (c_name (succ k)))
      :: (lock (x'_name j), unlock (c'_name (succ k)))
      :: !arcs2
  done;
  let t1 = Transaction.make_exn db labels !arcs1 in
  let t2 = Transaction.make_exn db labels !arcs2 in
  { formula; db; t1; t2; sys = System.create [ t1; t2 ] }

let c_entity t i = Db.find_entity_exn t.db (c_name i)
let c'_entity t i = Db.find_entity_exn t.db (c'_name i)
let x_entity t j = Db.find_entity_exn t.db (x_name j)
let x'_entity t j = Db.find_entity_exn t.db (x'_name j)
let x''_entity t j = Db.find_entity_exn t.db (x''_name j)

let prefix_of_assignment t a =
  if not (Formula.satisfies a t.formula) then
    invalid_arg "Reduction_sat.prefix_of_assignment: not a model";
  let st = State.initial t.sys in
  let add txn entity =
    let tx = System.txn t.sys txn in
    Bitset.set st.(txn) (Transaction.lock_node_exn tx entity)
  in
  List.iteri
    (fun i clause ->
      (* Pick the first literal of the clause satisfied by [a]. *)
      match List.find_opt (Formula.lit_holds a) clause with
      | None -> assert false
      | Some (Formula.Pos j) ->
          add 0 (x_entity t j);
          add 0 (x'_entity t j);
          add 0 (c'_entity t i);
          add 1 (c_entity t i)
      | Some (Formula.Neg j) ->
          add 1 (x_entity t j);
          add 1 (x'_entity t j);
          add 0 (x''_entity t j);
          add 0 (c_entity t i);
          add 1 (c'_entity t i))
    t.formula.Formula.clauses;
  st

let assignment_of_cycle t cycle =
  let a = Array.make t.formula.Formula.n_vars false in
  List.iter
    (fun (s : Step.t) ->
      let tx = System.txn t.sys s.txn in
      let nd = Transaction.node tx s.node in
      if nd.Node.op = Node.Unlock then
        for j = 0 to t.formula.Formula.n_vars - 1 do
          if
            s.txn = 0
            && (nd.Node.entity = x_entity t j || nd.Node.entity = x'_entity t j)
          then a.(j) <- true
        done)
    cycle;
  (* U²xⱼ forces false, which is the default; check for conflicts. *)
  List.iter
    (fun (s : Step.t) ->
      let tx = System.txn t.sys s.txn in
      let nd = Transaction.node tx s.node in
      if nd.Node.op = Node.Unlock && s.txn = 1 then
        for j = 0 to t.formula.Formula.n_vars - 1 do
          if nd.Node.entity = x_entity t j then
            if a.(j) then
              invalid_arg
                "Reduction_sat.assignment_of_cycle: inconsistent cycle"
        done)
    cycle;
  a

let deadlock_witness t a =
  let prefix = prefix_of_assignment t a in
  (* The prefix consists of Lock nodes only on disjoint entity sets, so
     executing T1's nodes then T2's in any order is a legal schedule. *)
  let steps =
    List.concat_map
      (fun i -> List.map (Step.v i) (Bitset.to_list prefix.(i)))
      [ 0; 1 ]
  in
  match Schedule.check t.sys steps with
  | Error _ -> None
  | Ok _ -> (
      match Reduction.find_cycle (Reduction.make t.sys prefix) with
      | None -> None
      | Some cycle -> Some (steps, cycle))
