open Ddlock_model
open Ddlock_sim

type outcome =
  | Finished of { makespan : float }
  | Deadlock of { time : float; waits_for : (int * Db.entity * int) list }

type run = { outcome : outcome; trace : Rw_system.step list }

(* The no-scheme run of the one event loop on the exclusive
   abstraction, with the Read locks shared, projected as [Runtime.run]
   projects it. *)
let run ?(config = Net.default_config) ?(faults = Faults.none) rng sys =
  let config =
    { Recovery.base = config; restart_delay = 0.0; max_time = Float.infinity }
  in
  let r, completions, last =
    Recovery.simulate ~read:(Rw_system.read sys) None config faults rng
      (Rw_system.to_exclusive sys)
  in
  let trace = List.rev_map (fun (_, step, _) -> step) completions in
  let outcome =
    if r.Recovery.stats.Recovery.commits = Rw_system.size sys then
      Finished { makespan = r.Recovery.stats.Recovery.makespan }
    else Deadlock { time = last; waits_for = r.Recovery.stuck_waits }
  in
  { outcome; trace }

type batch_stats = Runtime.batch_stats = {
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

let pp_batch = Runtime.pp_batch
