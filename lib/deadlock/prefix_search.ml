open Ddlock_schedule

type witness = {
  prefix : State.t;
  schedule : Step.t list;
  cycle : Step.t list;
}

module Obs_t = Ddlock_obs.Trace

let obs_prefix_witnesses =
  Ddlock_obs.Metrics.Counter.make "prefix_search.witnesses"

let cyclic sys st = Reduction.has_cycle (Reduction.make sys st)

(* By Theorem 1 a cyclic reduction graph is reachable iff a deadlock
   state is, so the goal-directed search may stop at the first cyclic
   prefix; that also makes [~por:true] sound, since the persistent-set
   reduction preserves every reachable deadlock state.  The predicate is
   invariant under identical-transaction permutations (the graph is
   renamed node-for-node), so with [~symmetry:true] it may be evaluated
   on orbit representatives.  Under either reduction the witness comes
   from the plain search ({!Explore.bfs}). *)
let find ?max_states ?symmetry ?por sys =
  Obs_t.span "prefix_search.find" @@ fun () ->
  let r =
    Option.map
      (fun (schedule, prefix) ->
        let cycle = Option.get (Reduction.find_cycle (Reduction.make sys prefix)) in
        { prefix; schedule; cycle })
      (Explore.bfs ?max_states ?symmetry ?por sys ~found:(cyclic sys))
  in
  if r <> None then Ddlock_obs.Metrics.Counter.incr obs_prefix_witnesses;
  r

let deadlock_free ?max_states ?symmetry ?por sys =
  find ?max_states ?symmetry ?por sys = None

let all ?max_states ?symmetry ?por sys =
  Seq.filter (cyclic sys)
    (Explore.states (Explore.explore ?max_states ?symmetry ?por sys))
