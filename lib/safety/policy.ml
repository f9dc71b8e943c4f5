open Ddlock_graph
open Ddlock_model

let two_phase_violations t =
  let ents = Transaction.entity_set t in
  Bitset.fold
    (fun x acc ->
      Bitset.fold
        (fun y acc ->
          if
            Transaction.precedes t
              (Transaction.unlock_node_exn t x)
              (Transaction.lock_node_exn t y)
          then (x, y) :: acc
          else acc)
        ents acc)
    ents []
  |> List.rev

let is_two_phase = Transaction.is_two_phase

let make_two_phase t =
  if not (Lemma2.is_total t) then
    invalid_arg "Policy.make_two_phase: total order required";
  let nodes =
    List.map (Transaction.node t) (Array.to_list (Transaction.order t))
  in
  let locks = List.filter (fun (n : Node.t) -> n.op = Node.Lock) nodes in
  let unlocks = List.filter (fun (n : Node.t) -> n.op = Node.Unlock) nodes in
  match Transaction.of_total_order (Transaction.db t) (locks @ unlocks) with
  | Ok t' -> t'
  | Error _ -> assert false

module Tree = struct
  type t = { db : Db.t; root : Db.entity; parent : int array }

  let create db ~root ~edges =
    let ne = Db.entity_count db in
    let parent = Array.make ne (-1) in
    let root_e = Db.find_entity_exn db root in
    List.iter
      (fun (p, c) ->
        let pe = Db.find_entity_exn db p and ce = Db.find_entity_exn db c in
        if ce = root_e then invalid_arg "Policy.Tree.create: root has a parent";
        if parent.(ce) >= 0 then
          invalid_arg "Policy.Tree.create: duplicate child";
        parent.(ce) <- pe)
      edges;
    (* Every non-root entity needs a parent, and paths must reach root. *)
    for e = 0 to ne - 1 do
      if e <> root_e && parent.(e) < 0 then
        invalid_arg "Policy.Tree.create: entity without parent"
    done;
    for e = 0 to ne - 1 do
      let steps = ref 0 and cur = ref e in
      while !cur <> root_e do
        incr steps;
        if !steps > ne then invalid_arg "Policy.Tree.create: cycle";
        cur := parent.(!cur)
      done
    done;
    { db; root = root_e; parent }

  let root t = t.root
  let parent t e = if e = t.root then None else Some t.parent.(e)

  type violation = Parent_not_held of { child : Db.entity } | Not_total_order

  let pp_violation db ppf = function
    | Parent_not_held { child } ->
        Format.fprintf ppf "L%s while its tree parent is not held"
          (Db.entity_name db child)
    | Not_total_order ->
        Format.fprintf ppf "tree protocol requires a total order"

  let obeys tree t =
    if not (Lemma2.is_total t) then Error Not_total_order
    else begin
      let held = Hashtbl.create 7 in
      let first = ref true in
      let result = ref (Ok ()) in
      Array.iter
        (fun v ->
          if !result = Ok () then
            let nd = Transaction.node t v in
            match nd.Node.op with
            | Node.Unlock -> Hashtbl.remove held nd.entity
            | Node.Lock ->
                if !first then first := false
                else begin
                  match parent tree nd.entity with
                  | Some p when Hashtbl.mem held p -> ()
                  | _ -> result := Error (Parent_not_held { child = nd.entity })
                end;
                Hashtbl.replace held nd.entity ())
        (Transaction.order t);
      !result
    end

  let random_transaction rng tree ~steps =
    let ne = Db.entity_count tree.db in
    let children e =
      List.filter (fun c -> c <> tree.root && tree.parent.(c) = e)
        (List.init ne Fun.id)
    in
    let held = ref [] and locked_ever = ref [] in
    let ops = ref [] in
    let lock e =
      ops := Node.lock e :: !ops;
      held := e :: !held;
      locked_ever := e :: !locked_ever
    in
    let unlock e =
      ops := Node.unlock e :: !ops;
      held := List.filter (fun x -> x <> e) !held
    in
    (* First lock: random entity. *)
    lock (Random.State.int rng ne);
    let lock_count = ref 1 in
    let continue = ref true in
    while !continue do
      let lockable =
        List.sort_uniq compare
          (List.concat_map
             (fun e ->
               List.filter (fun c -> not (List.mem c !locked_ever)) (children e))
             !held)
      in
      let can_lock = lockable <> [] && !lock_count < steps in
      let can_unlock = !held <> [] in
      if can_lock && (not can_unlock || Random.State.bool rng) then begin
        lock (List.nth lockable (Random.State.int rng (List.length lockable)));
        incr lock_count
      end
      else if can_unlock then
        (* Unlock a random held entity. *)
        unlock (List.nth !held (Random.State.int rng (List.length !held)))
      else continue := false;
      if !held = [] && (!lock_count >= steps || lockable = []) then
        continue := false
    done;
    (* Unlock leftovers. *)
    List.iter unlock !held;
    match Transaction.of_total_order tree.db (List.rev !ops) with
    | Ok t -> t
    | Error _ -> assert false

  let to_digraph t =
    let ne = Db.entity_count t.db in
    Digraph.create ne
      (List.filter_map
         (fun c -> if c = t.root then None else Some (t.parent.(c), c))
         (List.init ne Fun.id))
end
