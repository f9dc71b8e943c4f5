open Ddlock_graph
open Ddlock_model

let add_txn buf i =
  Buffer.add_char buf 'T';
  Buffer.add_string buf (string_of_int (i + 1))

(* One walk over [steps]: writes the narration lines into [buf], each
   ended by a newline and the status last, and returns the final state.
   With [~strict], an illegal step raises [Invalid_argument] before it
   is narrated.  The walk owns its state and sets each step's bit in
   place. *)
let walk ~strict buf sys steps =
  let add = Buffer.add_string buf in
  let st = State.initial sys in
  List.iter
    (fun (s : Step.t) ->
      (if strict then
         match Schedule.violation sys st s with
         | Some v ->
             invalid_arg
               (Format.asprintf "Narrate.explain_deadlock: illegal schedule: %a"
                  (Schedule.pp_violation sys) v)
         | None -> ());
      let nd = Transaction.node (System.txn sys s.txn) s.node in
      let e = nd.Node.entity in
      let name = Db.entity_name (System.db sys) e in
      add_txn buf s.txn;
      (match nd.Node.op with
      | Node.Lock ->
          add " locks ";
          add name;
          (* Serialization arcs this lock creates. *)
          let ordered = ref false in
          for k = 0 to System.size sys - 1 do
            let tk = System.txn sys k in
            if
              k <> s.txn
              && Transaction.accesses tk e
              && not (Bitset.mem st.(k) (Transaction.lock_node_exn tk e))
            then begin
              if !ordered then add ", "
              else begin
                add "  (orders ";
                add_txn buf s.txn;
                add " before ";
                ordered := true
              end;
              add_txn buf k
            end
          done;
          if !ordered then begin
            add " on ";
            add name;
            Buffer.add_char buf ')'
          end
      | Node.Unlock ->
          add " unlocks ";
          add name);
      Buffer.add_char buf '\n';
      Bitset.set st.(s.txn) s.node)
    steps;
  add
    (if State.all_finished sys st then "all transactions finished"
     else if State.is_deadlock sys st then "DEADLOCK"
     else "(partial)");
  Buffer.add_char buf '\n';
  st

let lines buf =
  String.split_on_char '\n' (Buffer.sub buf 0 (Buffer.length buf - 1))

let narrate sys steps =
  let buf = Buffer.create 256 in
  ignore (walk ~strict:false buf sys steps);
  lines buf

let pp sys ppf steps =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (narrate sys steps)

let add_explanation buf sys steps =
  let st = walk ~strict:true buf sys steps in
  for i = 0 to System.size sys - 1 do
    let tx = System.txn sys i in
    if Bitset.cardinal st.(i) <> Transaction.node_count tx then
      List.iter
        (fun v ->
          let nd = Transaction.node tx v in
          match nd.Node.op with
          | Node.Lock -> (
              match State.holder sys st nd.Node.entity with
              | Some j when j <> i ->
                  add_txn buf i;
                  Buffer.add_string buf " is blocked: needs ";
                  Buffer.add_string buf
                    (Db.entity_name (System.db sys) nd.Node.entity);
                  Buffer.add_string buf ", held by ";
                  add_txn buf j;
                  Buffer.add_char buf '\n'
              | _ -> ())
          | Node.Unlock -> ())
        (Transaction.minimal_remaining tx st.(i))
  done

let explain_deadlock sys steps =
  let buf = Buffer.create 256 in
  add_explanation buf sys steps;
  lines buf
