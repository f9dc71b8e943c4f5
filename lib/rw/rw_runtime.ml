open Ddlock_graph
open Ddlock_model
module Pqueue = Ddlock_sim.Pqueue
module Net = Ddlock_sim.Net
module Faults = Ddlock_sim.Faults

type outcome =
  | Finished of { makespan : float }
  | Deadlock of { time : float; waits_for : (int * Db.entity * int) list }

type run = { outcome : outcome; trace : Rw_system.step list }

type event = Arrive of Rw_system.step | Complete of Rw_system.step

type lock_state = {
  mutable holders : int list; (* readers, or a single writer *)
  mutable write_mode : bool;
  waiters : Rw_system.step Queue.t;
}

let run ?(config = Net.default_config) ?(faults = Faults.none) rng sys =
  let n = Rw_system.size sys in
  let db = Rw_system.db sys in
  let ne = Db.entity_count db in
  let net = Net.create config rng (Faults.injector faults) db ~txns:n in
  let locks =
    Array.init ne (fun _ ->
        { holders = []; write_mode = false; waiters = Queue.create () })
  in
  let executed = Array.init n (fun i -> Rw_txn.empty_prefix (Rw_system.txn sys i)) in
  let started = Array.init n (fun i -> Rw_txn.empty_prefix (Rw_system.txn sys i)) in
  (* Requests already processed by a lock manager, for dedup of
     duplicated deliveries. *)
  let arrived = Array.init n (fun i -> Rw_txn.empty_prefix (Rw_system.txn sys i)) in
  let events : event Pqueue.t = Pqueue.create () in
  let trace = ref [] in
  let now = ref 0.0 in
  let node_of (s : Rw_system.step) = Rw_txn.node (Rw_system.txn sys s.txn) s.node in
  let mode_of_step s =
    match (node_of s).Rw_txn.op with
    | Rw_txn.Lock m -> m
    | Rw_txn.Unlock -> assert false
  in
  let rec start (s : Rw_system.step) =
    let nd = node_of s in
    Bitset.set started.(s.txn) s.node;
    match nd.Rw_txn.op with
    | Rw_txn.Unlock ->
        Net.execute net events ~now:!now s.txn nd.Rw_txn.entity (Complete s)
    | Rw_txn.Lock _ ->
        Net.request net events ~now:!now nd.Rw_txn.entity (Arrive s)
  and start_ready i =
    List.iter
      (fun v ->
        if not (Bitset.mem started.(i) v) then start { Rw_system.txn = i; node = v })
      (Rw_txn.minimal_remaining (Rw_system.txn sys i) executed.(i))
  in
  let grant_now (s : Rw_system.step) =
    let nd = node_of s in
    let l = locks.(nd.Rw_txn.entity) in
    l.holders <- s.txn :: l.holders;
    l.write_mode <- mode_of_step s = Rw_txn.Write;
    Net.execute net events ~now:!now s.txn nd.Rw_txn.entity (Complete s)
  in
  (* Grant from the queue: the head, plus — if the head is a Read — every
     consecutive Read behind it. *)
  let rec drain_queue e =
    let l = locks.(e) in
    match Queue.peek_opt l.waiters with
    | None -> ()
    | Some w -> (
        match mode_of_step w with
        | Rw_txn.Write ->
            if l.holders = [] then begin
              ignore (Queue.pop l.waiters);
              grant_now w
            end
        | Rw_txn.Read ->
            if (not l.write_mode) || l.holders = [] then begin
              ignore (Queue.pop l.waiters);
              grant_now w;
              drain_queue e
            end)
  in
  for i = 0 to n - 1 do
    start_ready i
  done;
  let finished () =
    let rec go i =
      i >= n
      || (Bitset.cardinal executed.(i) = Rw_txn.node_count (Rw_system.txn sys i)
         && go (i + 1))
    in
    go 0
  in
  let rec loop () =
    match Pqueue.pop events with
    | None -> ()
    | Some (t, Arrive s) ->
        now := t;
        (* Duplicated deliveries of the same request are ignored. *)
        if not (Bitset.mem arrived.(s.txn) s.node) then begin
          Bitset.set arrived.(s.txn) s.node;
          let nd = node_of s in
          let l = locks.(nd.Rw_txn.entity) in
          let compatible =
            l.holders = []
            || ((not l.write_mode)
               && mode_of_step s = Rw_txn.Read
               && Queue.is_empty l.waiters)
          in
          if compatible then grant_now s else Queue.push s l.waiters
        end;
        loop ()
    | Some (t, Complete s) ->
        now := t;
        trace := s :: !trace;
        Bitset.set executed.(s.txn) s.node;
        let nd = node_of s in
        (match nd.Rw_txn.op with
        | Rw_txn.Unlock ->
            let l = locks.(nd.Rw_txn.entity) in
            l.holders <- List.filter (fun j -> j <> s.txn) l.holders;
            if l.holders = [] then l.write_mode <- false;
            drain_queue nd.Rw_txn.entity
        | Rw_txn.Lock _ -> ());
        start_ready s.txn;
        loop ()
  in
  loop ();
  let trace = List.rev !trace in
  let outcome =
    if finished () then Finished { makespan = !now }
    else begin
      let waits_for = ref [] in
      Array.iteri
        (fun e l ->
          Queue.iter
            (fun (w : Rw_system.step) ->
              List.iter (fun h -> waits_for := (w.txn, e, h) :: !waits_for) l.holders)
            l.waiters)
        locks;
      Deadlock { time = !now; waits_for = List.rev !waits_for }
    end
  in
  { outcome; trace }

type batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
  mean_makespan : float;
}

let batch ?config ?faults rng sys ~runs =
  let deadlocks = ref 0 and bad = ref 0 in
  let total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ?config ?faults rng sys in
    match r.outcome with
    | Deadlock _ -> incr deadlocks
    | Finished { makespan } ->
        incr completed;
        total := !total +. makespan;
        if not (Rw_system.is_conflict_serializable sys r.trace) then incr bad
  done;
  {
    runs;
    deadlocks = !deadlocks;
    non_serializable = !bad;
    mean_makespan =
      (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_batch ppf s =
  Format.fprintf ppf
    "%d runs: %d deadlocked, %d non-serializable, mean makespan %.2f" s.runs
    s.deadlocks s.non_serializable s.mean_makespan
