open Ddlock_graph
open Ddlock_model

let entity_name sys e = Db.entity_name (System.db sys) e

(* One walk over [steps]: the narration lines, status last, and the
   final state.  With [~strict], an illegal step raises
   [Invalid_argument] before it is narrated. *)
let walk ~strict sys steps =
  let st = ref (State.initial sys) in
  let lines = ref [] in
  let emit fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  List.iter
    (fun (s : Step.t) ->
      (if strict then
         match Schedule.violation sys !st s with
         | Some v ->
             invalid_arg
               (Format.asprintf "Narrate.explain_deadlock: illegal schedule: %a"
                  (Schedule.pp_violation sys) v)
         | None -> ());
      let tx = System.txn sys s.txn in
      let nd = Transaction.node tx s.node in
      let e = nd.Node.entity in
      (match nd.Node.op with
      | Node.Lock ->
          (* Serialization arcs this lock creates. *)
          let accessors =
            List.filter
              (fun k ->
                k <> s.txn
                && Transaction.accesses (System.txn sys k) e
                && not
                     (Bitset.mem !st.(k)
                        (Transaction.lock_node_exn (System.txn sys k) e)))
              (List.init (System.size sys) Fun.id)
          in
          emit "T%d locks %s%s" (s.txn + 1) (entity_name sys e)
            (if accessors = [] then ""
             else
               Printf.sprintf "  (orders T%d before %s on %s)" (s.txn + 1)
                 (String.concat ", "
                    (List.map (fun k -> "T" ^ string_of_int (k + 1)) accessors))
                 (entity_name sys e))
      | Node.Unlock -> emit "T%d unlocks %s" (s.txn + 1) (entity_name sys e));
      st := State.apply !st s)
    steps;
  let status =
    if State.all_finished sys !st then "all transactions finished"
    else if State.is_deadlock sys !st then "DEADLOCK"
    else "(partial)"
  in
  (List.rev (status :: !lines), !st)

let narrate sys steps = fst (walk ~strict:false sys steps)

let pp sys ppf steps =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (narrate sys steps)

let explain_deadlock sys steps =
  let lines, st = walk ~strict:true sys steps in
  let blocked =
    List.concat_map
      (fun i ->
        if
          Bitset.cardinal st.(i)
          = Transaction.node_count (System.txn sys i)
        then []
        else
          List.filter_map
            (fun v ->
              let nd = Transaction.node (System.txn sys i) v in
              match nd.Node.op with
              | Node.Lock -> (
                  match State.holder sys st nd.Node.entity with
                  | Some j when j <> i ->
                      Some
                        (Printf.sprintf "T%d is blocked: needs %s, held by T%d"
                           (i + 1)
                           (entity_name sys nd.Node.entity)
                           (j + 1))
                  | _ -> None)
              | Node.Unlock -> None)
            (Transaction.minimal_remaining (System.txn sys i) st.(i)))
      (List.init (System.size sys) Fun.id)
  in
  lines @ blocked
