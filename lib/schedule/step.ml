open Ddlock_model

type t = { txn : int; node : int }

let v txn node = { txn; node }
let equal a b = a = b
let compare = compare

let add buf sys s =
  let nd = Transaction.node (System.txn sys s.txn) s.node in
  Buffer.add_char buf
    (match nd.Node.op with Node.Lock -> 'L' | Node.Unlock -> 'U');
  Buffer.add_string buf (string_of_int (s.txn + 1));
  Buffer.add_char buf '.';
  Buffer.add_string buf (Db.entity_name (System.db sys) nd.Node.entity)

let add_schedule buf sys steps =
  List.iteri
    (fun k s ->
      if k > 0 then Buffer.add_char buf ' ';
      add buf sys s)
    steps

let to_string sys s =
  let buf = Buffer.create 16 in
  add buf sys s;
  Buffer.contents buf

let pp sys ppf s = Format.pp_print_string ppf (to_string sys s)

(* A schedule has no break hints, so it prints as one token; the hov
   box keeps Format's rule for a box opened past the maximum indent. *)
let pp_schedule sys ppf steps =
  let buf = Buffer.create 64 in
  add_schedule buf sys steps;
  Format.fprintf ppf "@[<hov>%s@]" (Buffer.contents buf)

let pp_lines ppf text =
  match String.split_on_char '\n' text with
  | [ line ] -> Format.pp_print_string ppf line
  | lines ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut
           Format.pp_print_string)
        lines
