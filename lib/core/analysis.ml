open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type safety_verdict =
  | Safe_and_deadlock_free
  | Pair_violation of { i : int; j : int; failure : Ddlock_safety.Pair.failure }
  | Cycle_violation of Ddlock_safety.Many.cycle_witness

let add_safety_verdict buf ~indent sys = function
  | Safe_and_deadlock_free ->
      Ddlock_safety.Many.(add_verdict buf ~indent sys Safe_and_deadlock_free)
  | Pair_violation { i; j; failure } ->
      let ti = "T" ^ string_of_int (i + 1)
      and tj = "T" ^ string_of_int (j + 1) in
      List.iter (Buffer.add_string buf)
        [ "pair ("; ti; ", "; tj; ") violates Theorem 3: " ];
      Ddlock_safety.Pair.add_failure buf (System.db sys) (ti, tj) failure
  | Cycle_violation w ->
      Ddlock_safety.Many.(add_verdict buf ~indent sys (Cycle_fails w))

let pp_safety_verdict sys ppf v =
  let buf = Buffer.create 128 in
  add_safety_verdict buf ~indent:0 sys v;
  Step.pp_lines ppf (Buffer.contents buf)

let of_many = function
  | Ddlock_safety.Many.Safe_and_deadlock_free -> Safe_and_deadlock_free
  | Ddlock_safety.Many.Pair_fails { i; j; failure } ->
      Pair_violation { i; j; failure }
  | Ddlock_safety.Many.Cycle_fails w -> Cycle_violation w

let safe_and_deadlock_free sys =
  let g = System.interaction_graph sys in
  Ddlock_obs.Trace.span "analysis.safety" @@ fun () ->
  of_many (Ddlock_safety.Many.check_graph sys g)

type deadlock_verdict =
  | Deadlock_free
  | Deadlocks of { schedule : Step.t list; state : State.t }
  | Gave_up of { states_explored : int }

let add_deadlock_verdict buf ~indent sys = function
  | Deadlock_free -> Buffer.add_string buf "deadlock-free"
  | Deadlocks { schedule; _ } ->
      Buffer.add_string buf "deadlocks after:\n";
      Buffer.add_string buf (String.make indent ' ');
      Step.add_schedule buf sys schedule
  | Gave_up { states_explored } ->
      List.iter (Buffer.add_string buf)
        [
          "unknown (search budget exhausted after ";
          string_of_int states_explored;
          " states; the problem is coNP-hard)";
        ]

let obs_certified = Ddlock_obs.Metrics.Counter.make "analysis.deadlock_certified"

let certified sys =
  let ok =
    Ddlock_obs.Trace.span "analysis.deadlock_certificate" @@ fun () ->
    Ddlock_deadlock.Hold_wait.certifies sys
  in
  if ok then Ddlock_obs.Metrics.Counter.incr obs_certified;
  ok

(* The deadlock decision given the Theorem 4 verdict [safety]: a system
   that Theorem 4 or the hold-and-wait certificate passes is
   deadlock-free, anything else is searched. *)
let decide_deadlock ?(max_states = 500_000) sys safety =
  match safety with
  | Safe_and_deadlock_free -> Deadlock_free
  | _ when certified sys -> Deadlock_free
  | _ -> (
      Ddlock_obs.Trace.span "analysis.deadlock_search" @@ fun () ->
      match Explore.find_deadlock ~max_states sys with
      | Some (schedule, state) -> Deadlocks { schedule; state }
      | None -> Deadlock_free
      | exception Explore.Too_large n -> Gave_up { states_explored = n })

let deadlock_free ?max_states sys =
  decide_deadlock ?max_states sys (safe_and_deadlock_free sys)

type report = {
  txn_count : int;
  entity_count : int;
  site_count : int;
  total_nodes : int;
  all_two_phase : bool;
  interaction_edges : int;
  interaction_cycles : int;
  safety : safety_verdict;
  deadlock : deadlock_verdict;
}

let report ?max_states sys =
  Ddlock_obs.Trace.span "analysis.report" @@ fun () ->
  let g =
    Ddlock_obs.Trace.span "analysis.interaction_graph" @@ fun () ->
    System.interaction_graph sys
  in
  (* Theorem 4 counts the interaction cycles it walks; the report's
     count finishes the walk. *)
  let safety, count_cycles =
    Ddlock_obs.Trace.span "analysis.safety" @@ fun () ->
    let verdict, count = Ddlock_safety.Many.check_counting sys g in
    (of_many verdict, count)
  in
  let deadlock = decide_deadlock ?max_states sys safety in
  let db = System.db sys in
  {
    txn_count = System.size sys;
    entity_count = Db.entity_count db;
    site_count = Db.site_count db;
    total_nodes = System.total_nodes sys;
    all_two_phase =
      Ddlock_obs.Trace.span "analysis.two_phase" (fun () ->
          Array.for_all Transaction.is_two_phase (System.txns sys));
    interaction_edges = Ungraph.edge_count g;
    interaction_cycles =
      (* Cycle enumeration can be exponential in dense graphs; the count
         polls per cycle, so a serve-side deadline bounds the report. *)
      Ddlock_obs.Trace.span "analysis.cycles" count_cycles;
    safety;
    deadlock;
  }

type pair_counterexample = { steps : Step.t list; d_cycle : int list }

let pair_counterexample ?(max_states = 200_000) t1 t2 =
  match Ddlock_safety.Pair.check t1 t2 with
  | Ok () -> None
  | Error failure -> (
      let sys = System.create [ t1; t2 ] in
      let of_steps steps =
        match Dgraph.find_cycle sys steps with
        | Some d_cycle -> Some { steps; d_cycle }
        | None -> None
      in
      let direct =
        match failure with
        | Ddlock_safety.Pair.No_common_first { first1; first2 } -> (
            (* Both transactions lock their own first common entity: the
               D-graph then has arcs both ways. *)
            let target = State.initial sys in
            Bitset.union_into ~into:target.(0)
              (Transaction.down_closure t1
                 [ Transaction.lock_node_exn t1 first1 ]);
            Bitset.union_into ~into:target.(1)
              (Transaction.down_closure t2
                 [ Transaction.lock_node_exn t2 first2 ]);
            match Explore.has_schedule sys target with
            | Some steps -> of_steps steps
            | None -> None)
        | Ddlock_safety.Pair.Unguarded _ -> None
      in
      match direct with
      | Some _ as r -> r
      | None -> (
          (* Bounded Lemma-1 search always finds a witness when the pair
             fails, if the budget allows. *)
          match Explore.safe_and_deadlock_free ~max_states sys with
          | Error cex ->
              Some { steps = cex.Explore.steps; d_cycle = cex.Explore.cycle }
          | Ok () -> None
          | exception Explore.Too_large _ -> None))

let repair_with_global_order sys =
  let db = System.db sys in
  if
    not
      (Array.for_all Ddlock_safety.Lemma2.is_total (System.txns sys))
  then None
  else
    let rewrite t =
      let names =
        List.map (Db.entity_name db) (Transaction.entities t)
      in
      Builder.two_phase_chain db names
    in
    let sys' =
      System.create (List.map rewrite (Array.to_list (System.txns sys)))
    in
    assert (Ddlock_safety.Many.safe_and_deadlock_free sys');
    Some sys'

(* The report's lines, the last one without its newline.  A verdict's
   continuation line is indented to the column its first line starts
   at, the byte length of its label ([∧] is three bytes): where a
   vertical box opened after the label puts it. *)
let add_report buf sys r =
  let line label n =
    Buffer.add_string buf label;
    Buffer.add_string buf n;
    Buffer.add_char buf '\n'
  in
  line "transactions:        " (string_of_int r.txn_count);
  line "entities:            " (string_of_int r.entity_count);
  line "sites:               " (string_of_int r.site_count);
  line "lock/unlock nodes:   " (string_of_int r.total_nodes);
  line "all two-phase:       " (string_of_bool r.all_two_phase);
  line "interaction edges:   " (string_of_int r.interaction_edges);
  line "interaction cycles:  " (string_of_int r.interaction_cycles);
  let safety = "safety ∧ DF:         " and deadlock = "deadlock-freedom:    " in
  Buffer.add_string buf safety;
  add_safety_verdict buf ~indent:(String.length safety) sys r.safety;
  Buffer.add_char buf '\n';
  Buffer.add_string buf deadlock;
  add_deadlock_verdict buf ~indent:(String.length deadlock) sys r.deadlock

let pp_report sys ppf r =
  let buf = Buffer.create 512 in
  add_report buf sys r;
  Step.pp_lines ppf (Buffer.contents buf)

(* The canonical rendering of a full analysis: exactly what [ddlock
   analyze] prints on stdout, byte for byte — the CLI prints this
   string verbatim, and the serve daemon caches it, so served verdicts
   stay diffable against the CLI by construction. *)
let render_full ?max_states sys =
  let r = report ?max_states sys in
  let buf = Buffer.create 1024 in
  Ddlock_obs.Trace.span "analysis.render" (fun () ->
      add_report buf sys r;
      Buffer.add_char buf '\n';
      match r.deadlock with
      | Deadlocks { schedule; _ } ->
          (* The explanation begins with the narration and its status
             line, so the schedule is walked once. *)
          Buffer.add_string buf "\nhow the deadlock happens:\n";
          Narrate.add_explanation buf sys schedule
      | _ -> ());
  let status = match r.safety with Safe_and_deadlock_free -> 0 | _ -> 1 in
  (Buffer.contents buf, status, r)
