open Ddlock_schedule

type witness = {
  prefix : State.t;
  schedule : Step.t list;
  cycle : Step.t list;
}

let obs_prefix_witnesses =
  Ddlock_obs.Metrics.Counter.make "prefix_search.witnesses"

let find ?max_states sys =
  Ddlock_obs.Trace.span "prefix_search.find" @@ fun () ->
  Explore.find_deadlock ?max_states ~goal:Deadlock_prefix sys
  |> Option.map (fun (schedule, prefix) ->
         Ddlock_obs.Metrics.Counter.incr obs_prefix_witnesses;
         let cycle = Reduction.find_cycle (Reduction.make sys prefix) in
         { prefix; schedule; cycle = Option.get cycle })

let deadlock_free ?max_states sys =
  Explore.deadlock_free ?max_states ~goal:Deadlock_prefix sys

let all ?max_states ?por sys =
  Seq.filter
    (fun st -> Reduction.has_cycle (Reduction.make sys st))
    (Explore.states (Explore.explore ?max_states ?por sys))
