open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type config = Net.config = {
  min_duration : float;
  max_duration : float;
  site_latency : float;
  request_jitter : float;
}

let default_config = Net.default_config

type trace_entry = { time : float; step : Step.t }

type outcome =
  | Finished of { makespan : float }
  | Deadlock of {
      time : float;
      waits_for : (int * Db.entity * int) list;
      cycle : int list;
    }

type run = { outcome : outcome; trace : trace_entry list }

let obs_runs = Ddlock_obs.Metrics.Counter.make "sim.runs"
let obs_deadlocks = Ddlock_obs.Metrics.Counter.make "sim.deadlock_runs"

let run ?(config = default_config) ?(faults = Faults.none) rng sys =
  let config =
    { Recovery.base = config; restart_delay = 0.0; max_time = Float.infinity }
  in
  let r, completions, last = Recovery.simulate None config faults rng sys in
  Ddlock_obs.Metrics.Counter.incr obs_runs;
  let trace =
    List.rev_map (fun (time, step, _) -> { time; step }) completions
  in
  let outcome =
    if r.Recovery.stats.Recovery.commits = System.size sys then
      Finished { makespan = r.Recovery.stats.Recovery.makespan }
    else begin
      Ddlock_obs.Metrics.Counter.incr obs_deadlocks;
      let waits_for = r.Recovery.stuck_waits in
      let g =
        Digraph.create (System.size sys)
          (List.map (fun (w, _, h) -> (w, h)) waits_for)
      in
      let cycle = Option.value ~default:[] (Topo.find_cycle g) in
      Deadlock { time = last; waits_for; cycle }
    end
  in
  { outcome; trace }

let schedule_of_run r = List.map (fun e -> e.step) r.trace

type batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
  mean_makespan : float;
}

let batch ?config ?faults rng sys ~runs =
  let deadlocks = ref 0 and bad = ref 0 and total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ?config ?faults rng sys in
    match r.outcome with
    | Deadlock _ -> incr deadlocks
    | Finished { makespan } ->
        incr completed;
        total := !total +. makespan;
        if not (Dgraph.is_serializable sys (schedule_of_run r)) then incr bad
  done;
  {
    runs;
    deadlocks = !deadlocks;
    non_serializable = !bad;
    mean_makespan = (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_outcome sys ppf = function
  | Finished { makespan } -> Format.fprintf ppf "finished at t=%.2f" makespan
  | Deadlock { time; waits_for; cycle } ->
      Format.fprintf ppf "@[<v>deadlock at t=%.2f" time;
      List.iter
        (Format.fprintf ppf "@,%a" (Recovery.pp_wait (System.db sys)))
        waits_for;
      if cycle <> [] then
        Format.fprintf ppf "@,wait-for cycle: %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
             (fun ppf i -> Format.fprintf ppf "T%d" (i + 1)))
          cycle;
      Format.fprintf ppf "@]"

let pp_batch ppf s =
  Format.fprintf ppf
    "%d runs: %d deadlocked, %d non-serializable, mean makespan %.2f" s.runs
    s.deadlocks s.non_serializable s.mean_makespan
