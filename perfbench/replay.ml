(* The benchmark's own deadlock-witness checker.  It re-derives the
   lock semantics from the transactions' partial orders instead of
   calling the library's [State.enabled]/[State.is_deadlock], so a bug
   there cannot vouch for itself. *)

open Ddlock
open Model

type state = { sys : System.t; done_ : bool array array }

let initial sys =
  {
    sys;
    done_ =
      Array.map
        (fun t -> Array.make (Transaction.node_count t) false)
        (System.txns sys);
  }

(* Transaction [i] holds [e] once it has locked [e] and not unlocked it. *)
let holds st i e =
  let t = System.txn st.sys i in
  match (Transaction.lock_node t e, Transaction.unlock_node t e) with
  | Some l, Some u -> st.done_.(i).(l) && not st.done_.(i).(u)
  | Some l, None -> st.done_.(i).(l)
  | None, _ -> false

let enabled st i n =
  let t = System.txn st.sys i in
  let d = st.done_.(i) in
  (not d.(n))
  && (let ok = ref true in
      for p = 0 to Transaction.node_count t - 1 do
        if p <> n && Transaction.precedes t p n && not d.(p) then ok := false
      done;
      !ok)
  &&
  let node = Transaction.node t n in
  match node.Node.op with
  | Node.Unlock -> true
  | Node.Lock ->
      let free = ref true in
      for j = 0 to System.size st.sys - 1 do
        if j <> i && holds st j node.Node.entity then free := false
      done;
      !free

let finished st = Array.for_all (Array.for_all Fun.id) st.done_

let blocked st =
  let any = ref false in
  Array.iteri
    (fun i d -> Array.iteri (fun n _ -> if enabled st i n then any := true) d)
    st.done_;
  (not (finished st)) && not !any

(* [check sys steps] is [Ok ()] when every step is enabled where it is
   taken and the state it ends in is blocked. *)
let check sys steps =
  let st = initial sys in
  let rec go k = function
    | [] ->
        if blocked st then Ok ()
        else Error (Printf.sprintf "end state after %d steps is not blocked" k)
    | { Sched.Step.txn; node } :: rest ->
        if txn < 0 || txn >= System.size sys then
          Error (Printf.sprintf "step %d names transaction %d" (k + 1) txn)
        else if node < 0 || node >= Array.length st.done_.(txn) then
          Error (Printf.sprintf "step %d names node %d" (k + 1) node)
        else if not (enabled st txn node) then
          Error (Printf.sprintf "step %d is not enabled" (k + 1))
        else begin
          st.done_.(txn).(node) <- true;
          go (k + 1) rest
        end
  in
  go 0 steps

(* [reachable_blocked sys] searches every state reachable from the
   initial one, by this module's own [enabled], and tells whether any of
   them is blocked: the independent answer to "does [sys] deadlock?". *)
let reachable_blocked sys =
  let st = initial sys in
  let seen = Hashtbl.create 1024 in
  let key () =
    let b = Buffer.create 32 in
    Array.iter (fun d -> Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) d) st.done_;
    Buffer.contents b
  in
  (* depth-first, taking each enabled step in place and undoing it *)
  let rec visit () =
    let k = key () in
    (not (Hashtbl.mem seen k))
    && begin
         Hashtbl.add seen k ();
         blocked st
         || Array.exists Fun.id
              (Array.mapi
                 (fun i d ->
                   let found = ref false in
                   for n = 0 to Array.length d - 1 do
                     if (not !found) && enabled st i n then begin
                       d.(n) <- true;
                       found := visit ();
                       d.(n) <- false
                     end
                   done;
                   !found)
                 st.done_)
       end
  in
  visit ()
