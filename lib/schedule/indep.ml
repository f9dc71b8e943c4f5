open Ddlock_graph
open Ddlock_model

let entity_of sys (s : Step.t) =
  (Transaction.node (System.txn sys s.Step.txn) s.Step.node).Node.entity

let independent sys (s : Step.t) (t : Step.t) =
  s.Step.txn <> t.Step.txn && entity_of sys s <> entity_of sys t

let commutes sys st (s : Step.t) (t : Step.t) =
  let after_s = State.apply st s in
  let after_t = State.apply st t in
  let t_alive = List.mem t (State.enabled sys after_s) in
  let s_alive = List.mem s (State.enabled sys after_t) in
  match (t_alive, s_alive) with
  | false, false -> true (* conflict both ways: no diamond to check *)
  | true, true ->
      State.equal (State.apply after_s t) (State.apply after_t s)
  | _ -> false

let has_independent_pair sys =
  let n = System.size sys in
  let cross = ref false in
  for i = 0 to n - 1 do
    let ti = System.txn sys i in
    for j = i + 1 to n - 1 do
      let tj = System.txn sys j in
      for u = 0 to Transaction.node_count ti - 1 do
        for v = 0 to Transaction.node_count tj - 1 do
          if
            (Transaction.node ti u).Node.entity
            <> (Transaction.node tj v).Node.entity
          then cross := true
        done
      done
    done
  done;
  let diamond = ref false in
  for i = 0 to n - 1 do
    let ti = System.txn sys i in
    let m = Transaction.node_count ti in
    for u = 0 to m - 1 do
      for v = u + 1 to m - 1 do
        if (not (Transaction.precedes ti u v)) && not (Transaction.precedes ti v u)
        then diamond := true
      done
    done
  done;
  !cross || !diamond

(* Stubborn closure over unexecuted (txn, node) transitions, seeded
   with one enabled step.  The closure invariant: any transition
   outside the closure is independent (in every reachable future) of
   every enabled member, and every disabled member has a
   necessary-enabling transition inside.  Same-transaction pairs need
   no treatment: two unexecuted nodes of one transaction either are
   order-comparable (only one can fire first) or are both minimal,
   in which case firing one neither disables the other nor changes
   the resulting state's dependence on order. *)
let closure_from sys st (seed : Step.t) =
  let w : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  let add i u =
    if not (Hashtbl.mem w (i, u)) then begin
      Hashtbl.replace w (i, u) ();
      Queue.push (i, u) q
    end
  in
  add seed.Step.txn seed.Step.node;
  let n = System.size sys in
  while not (Queue.is_empty q) do
    let i, u = Queue.pop q in
    let tx = System.txn sys i in
    let nd = Transaction.node tx u in
    if not (List.mem u (Transaction.minimal_remaining tx st.(i))) then begin
      (* Disabled by its own partial order: any path enabling it first
         executes every predecessor, so one unexecuted predecessor is a
         necessary-enabling set.  Prefer one already in the closure (no
         growth); else the smallest id, for determinism. *)
      let preds = ref [] in
      for v = Transaction.node_count tx - 1 downto 0 do
        if Transaction.precedes tx v u && not (Bitset.mem st.(i) v) then
          preds := v :: !preds
      done;
      match List.find_opt (fun v -> Hashtbl.mem w (i, v)) !preds with
      | Some _ -> ()
      | None -> (
          match !preds with v :: _ -> add i v | [] -> assert false)
    end
    else
      match (nd.Node.op, State.holder sys st nd.Node.entity) with
      | Node.Lock, Some k when k <> i ->
          (* Blocked on the holder: the holder's Unlock is the unique
             necessary-enabling transition. *)
          add k (Transaction.unlock_node_exn (System.txn sys k) nd.Node.entity)
      | _ ->
          (* Enabled: pull in every unexecuted same-entity node of the
             other transactions.  Unlock/Unlock pairs are skipped —
             two transactions never hold the same entity, so those are
             never co-enabled and never affect each other. *)
          for j = 0 to n - 1 do
            if j <> i then begin
              let txj = System.txn sys j in
              for v = 0 to Transaction.node_count txj - 1 do
                if not (Bitset.mem st.(j) v) then begin
                  let ndj = Transaction.node txj v in
                  if
                    ndj.Node.entity = nd.Node.entity
                    && not (nd.Node.op = Node.Unlock && ndj.Node.op = Node.Unlock)
                  then add j v
                end
              done
            end
          done
  done;
  w

let persistent sys st =
  match State.enabled sys st with
  | ([] | [ _ ]) as enabled -> enabled
  | enabled ->
      let filter w =
        List.filter (fun s -> Hashtbl.mem w (s.Step.txn, s.Step.node)) enabled
      in
      let best = ref None in
      List.iter
        (fun seed ->
          match !best with
          | Some b when List.length b = 1 -> ()
          | _ -> (
              let p = filter (closure_from sys st seed) in
              match !best with
              | Some b when List.length b <= List.length p -> ()
              | _ -> best := Some p))
        enabled;
      Option.get !best

type succ = {
  step : Step.t;
  succ : State.t;
  moved : bool;
  sleep : Step.t list;
}

type expansion = {
  enabled_count : int;
  persistent_count : int;
  succs : succ list;
}

let expand ?canon sys st ~sleep =
  let enabled = State.enabled sys st in
  let pers = persistent sys st in
  let selected = List.filter (fun s -> not (List.mem s sleep)) pers in
  (* The sleep set inherited by the successor of the i-th selected step
     keeps the members of [sleep] and the earlier-selected steps that
     are independent of it — those were enabled here, stay enabled in
     the successor, and exploring them there would only duplicate an
     interleaving explored from a sibling. *)
  let rec go acc = function
    | [] -> []
    | s :: rest ->
        let raw = State.apply st s in
        let child0 = List.filter (fun t -> independent sys t s) acc in
        let succ, moved, child =
          match canon with
          | None -> (raw, false, child0)
          | Some c ->
              let rep, pi = Canon.normalize c raw in
              (rep, not (State.equal raw rep), Canon.rename_schedule pi child0)
        in
        { step = s; succ; moved; sleep = List.sort Step.compare child }
        :: go (s :: acc) rest
  in
  {
    enabled_count = List.length enabled;
    persistent_count = List.length pers;
    succs = go sleep selected;
  }

(* [stored ⊆ incoming], both sorted by Step.compare. *)
let rec subset stored incoming =
  match (stored, incoming) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: srest, t :: trest ->
      let c = Step.compare s t in
      if c = 0 then subset srest trest
      else if c > 0 then subset stored trest
      else false

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | s :: srest, t :: trest ->
      let c = Step.compare s t in
      if c = 0 then s :: inter srest trest
      else if c < 0 then inter srest b
      else inter a trest

let sleep_covered ~stored ~incoming =
  if subset stored incoming then `Covered else `Shrink (inter stored incoming)
