open Ddlock_graph
open Ddlock_model

type violation =
  | Node_repeated of Step.t
  | Not_minimal of Step.t
  | Lock_held of Step.t * int
  | Bad_txn_index of Step.t

let pp_violation sys ppf = function
  | Node_repeated s ->
      Format.fprintf ppf "step %s executed twice" (Step.to_string sys s)
  | Not_minimal s ->
      Format.fprintf ppf "step %s executed before one of its predecessors"
        (Step.to_string sys s)
  | Lock_held (s, i) ->
      Format.fprintf ppf "step %s while T%d holds the lock"
        (Step.to_string sys s) (i + 1)
  | Bad_txn_index s ->
      Format.fprintf ppf "step references unknown transaction %d"
        (s.Step.txn + 1)

let violation sys st (s : Step.t) =
  if s.txn < 0 || s.txn >= System.size sys then Some (Bad_txn_index s)
  else
    let tx = System.txn sys s.txn in
    if Bitset.mem st.(s.txn) s.node then Some (Node_repeated s)
    else if not (Transaction.is_minimal_remaining tx st.(s.txn) s.node) then
      Some (Not_minimal s)
    else
      let nd = Transaction.node tx s.node in
      match nd.Node.op with
      | Node.Unlock -> None
      | Node.Lock -> (
          match State.holder sys st nd.Node.entity with
          | Some j when j <> s.txn -> Some (Lock_held (s, j))
          | _ -> None)

let check sys steps =
  let rec go st = function
    | [] -> Ok st
    | s :: rest -> (
        match violation sys st s with
        | Some v -> Error v
        | None -> go (State.apply st s) rest)
  in
  go (State.initial sys) steps

let is_legal sys steps = Result.is_ok (check sys steps)

let is_complete sys steps =
  match check sys steps with
  | Error _ -> false
  | Ok st -> State.all_finished sys st

let to_state sys steps =
  match check sys steps with
  | Ok st -> st
  | Error v ->
      invalid_arg
        (Format.asprintf "Schedule.to_state: illegal schedule: %a"
           (pp_violation sys) v)

let serial sys order =
  let n = System.size sys in
  let sorted = List.sort compare order in
  if sorted <> List.init n Fun.id then
    invalid_arg "Schedule.serial: not a permutation";
  List.concat_map
    (fun i ->
      List.map (Step.v i)
        (Array.to_list (Transaction.order (System.txn sys i))))
    order

let of_extensions _sys exts order =
  List.concat_map (fun i -> List.map (Step.v i) exts.(i)) order

let prefix_vector sys steps =
  let st = State.initial sys in
  List.iter (fun (s : Step.t) -> Bitset.set st.(s.txn) s.node) steps;
  st

let project steps i =
  List.filter_map
    (fun (s : Step.t) -> if s.txn = i then Some s.node else None)
    steps
