open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type safety_verdict =
  | Safe_and_deadlock_free
  | Pair_violation of { i : int; j : int; failure : Ddlock_safety.Pair.failure }
  | Cycle_violation of Ddlock_safety.Many.cycle_witness

let pp_safety_verdict sys ppf = function
  | Safe_and_deadlock_free -> Format.fprintf ppf "safe and deadlock-free"
  | Pair_violation { i; j; failure } ->
      Format.fprintf ppf "pair (T%d, T%d) violates Theorem 3: %a" (i + 1)
        (j + 1)
        (Ddlock_safety.Pair.pp_failure (System.db sys))
        failure
  | Cycle_violation w ->
      Format.fprintf ppf "%a"
        (Ddlock_safety.Many.pp_verdict sys)
        (Ddlock_safety.Many.Cycle_fails w)

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

let pp_deadlock_verdict sys ppf = function
  | Deadlock_free -> Format.fprintf ppf "deadlock-free"
  | Deadlocks { schedule; _ } ->
      Format.fprintf ppf "@[<v>deadlocks after:@,%a@]"
        (Step.pp_schedule sys) schedule
  | Gave_up { states_explored } ->
      Format.fprintf ppf
        "unknown (search budget exhausted after %d states; the problem is coNP-hard)"
        states_explored

(* The deadlock decision given the Theorem 4 verdict [safety]: a
   certified system is deadlock-free, anything else is searched. *)
let decide_deadlock ?(max_states = 500_000) ?(symmetry = false) ?(por = false)
    sys safety =
  match safety with
  | Safe_and_deadlock_free -> Deadlock_free
  | _ -> (
      Ddlock_obs.Trace.span "analysis.deadlock_search" @@ fun () ->
      match Explore.find_deadlock ~max_states ~symmetry ~por sys with
      | Some (schedule, state) -> Deadlocks { schedule; state }
      | None -> Deadlock_free
      | exception Explore.Too_large n -> Gave_up { states_explored = n })

let deadlock_free ?max_states ?symmetry ?por sys =
  decide_deadlock ?max_states ?symmetry ?por sys (safe_and_deadlock_free sys)

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

let report ?max_states ?symmetry ?por sys =
  Ddlock_obs.Trace.span "analysis.report" @@ fun () ->
  let g = System.interaction_graph sys in
  (* Theorem 4 counts the interaction cycles it walks; the report's
     count finishes the walk. *)
  let safety, count_cycles =
    Ddlock_obs.Trace.span "analysis.safety" @@ fun () ->
    let verdict, count = Ddlock_safety.Many.check_counting sys g in
    (of_many verdict, count)
  in
  let deadlock = decide_deadlock ?max_states ?symmetry ?por sys safety in
  let db = System.db sys in
  {
    txn_count = System.size sys;
    entity_count = Db.entity_count db;
    site_count = Db.site_count db;
    total_nodes = System.total_nodes sys;
    all_two_phase =
      Array.for_all Transaction.is_two_phase (System.txns sys);
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

let pp_report sys ppf r =
  Format.fprintf ppf
    "@[<v>transactions:        %d@,entities:            %d@,\
     sites:               %d@,lock/unlock nodes:   %d@,\
     all two-phase:       %b@,interaction edges:   %d@,\
     interaction cycles:  %d@,safety ∧ DF:         %a@,\
     deadlock-freedom:    %a@]"
    r.txn_count r.entity_count r.site_count r.total_nodes r.all_two_phase
    r.interaction_edges r.interaction_cycles
    (pp_safety_verdict sys) r.safety
    (pp_deadlock_verdict sys) r.deadlock

(* The canonical rendering of a full analysis: exactly what [ddlock
   analyze] prints on stdout, byte for byte — the CLI prints this
   string verbatim, and the serve daemon caches it, so served verdicts
   stay diffable against the CLI by construction. *)
let render_full ?max_states ?symmetry ?por sys =
  let r = report ?max_states ?symmetry ?por sys in
  let buf = Buffer.create 1024 in
  Ddlock_obs.Trace.span "analysis.render" (fun () ->
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%a@." (pp_report sys) r;
      (match r.deadlock with
      | Deadlocks { schedule; _ } ->
          (* The explanation begins with the narration and its status
             line, so the schedule is walked once. *)
          Format.fprintf ppf "@.how the deadlock happens:@.";
          List.iter
            (fun line -> Format.fprintf ppf "%s@." line)
            (Narrate.explain_deadlock sys schedule)
      | _ -> ());
      Format.pp_print_flush ppf ());
  let status =
    match (r.safety, r.deadlock) with
    | Safe_and_deadlock_free, _ -> 0
    | _, Deadlocks _ -> 1
    | _ -> 1
  in
  (Buffer.contents buf, status, r)
