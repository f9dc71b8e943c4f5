open Ddlock
module Db = Model.Db
module Builder = Model.Builder
module System = Model.System
module Transaction = Model.Transaction

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Analysis facade                                                     *)
(* ------------------------------------------------------------------ *)

let test_analysis_safe () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let sys =
    System.create
      [
        Builder.two_phase_chain db [ "a"; "b" ];
        Builder.two_phase_chain db [ "a"; "b" ];
      ]
  in
  let r = Analysis.report sys in
  check bool_t "safe verdict" true
    (r.Analysis.safety = Analysis.Safe_and_deadlock_free);
  check bool_t "df verdict" true (r.Analysis.deadlock = Analysis.Deadlock_free);
  check bool_t "two phase" true r.Analysis.all_two_phase;
  check int_t "txns" 2 r.Analysis.txn_count

let test_analysis_philosophers () =
  let sys = Workload.Gentx.dining_philosophers 3 in
  let r = Analysis.report sys in
  (match r.Analysis.safety with
  | Analysis.Cycle_violation _ -> ()
  | _ -> Alcotest.fail "expected cycle violation");
  match r.Analysis.deadlock with
  | Analysis.Deadlocks { schedule; state } ->
      check bool_t "witness legal" true (Sched.Schedule.is_legal sys schedule);
      check bool_t "state deadlocked" true (Sched.State.is_deadlock sys state)
  | _ -> Alcotest.fail "expected Deadlocks"

let test_analysis_gave_up () =
  (* A pairwise-failing but huge system forces the bounded search to give
     up when the budget is tiny. *)
  let sys = Workload.Gentx.dining_philosophers 8 in
  match Analysis.deadlock_free ~max_states:10 sys with
  | Analysis.Gave_up { states_explored } ->
      check bool_t "budget reported" true (states_explored >= 10)
  | Analysis.Deadlocks _ ->
      (* BFS may find the deadlock before the cap: also acceptable. *)
      ()
  | Analysis.Deadlock_free -> Alcotest.fail "cannot be deadlock free"

let test_analysis_polynomial_shortcut () =
  (* A certified-safe system never enters the exponential search, so a
     tiny budget must still answer Deadlock_free. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let sys =
    System.create
      (List.init 4 (fun _ -> Builder.two_phase_chain db [ "a"; "b" ]))
  in
  check bool_t "polynomial path" true
    (Analysis.deadlock_free ~max_states:1 sys = Analysis.Deadlock_free)

(* ------------------------------------------------------------------ *)
(* Dot output                                                          *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dot_outputs () =
  let sys = Workload.Gentx.dining_philosophers 3 in
  let t = System.txn sys 0 in
  let dt = Dot.transaction ~name:"T1" t in
  check bool_t "txn digraph" true (contains dt "digraph \"T1\"");
  check bool_t "txn node label" true (contains dt "Lf0");
  let ds = Dot.system sys in
  check bool_t "system clusters" true (contains ds "cluster_T3");
  let di = Dot.interaction sys in
  check bool_t "interaction edge label" true (contains di "f1");
  check bool_t "undirected" true (contains di "--");
  (* Reduction graph of the classic stuck prefix. *)
  let p = Sched.State.initial sys in
  for i = 0 to 2 do
    Ddlock_graph.Bitset.set p.(i)
      (Transaction.lock_node_exn (System.txn sys i)
         (Db.find_entity_exn (System.db sys) ("f" ^ string_of_int i)))
  done;
  let dr = Dot.reduction sys p in
  check bool_t "lock arcs dashed" true (contains dr "style=dashed");
  let steps =
    List.init 3 (fun i ->
        Sched.Step.v i
          (Transaction.lock_node_exn (System.txn sys i)
             (Db.find_entity_exn (System.db sys) ("f" ^ string_of_int i))))
  in
  let dd = Dot.dgraph sys steps in
  check bool_t "dgraph arcs labelled" true (contains dd "label=\"f");
  (* All outputs are balanced dot documents. *)
  List.iter
    (fun s ->
      check bool_t "ends with brace" true
        (String.length s > 0 && contains s "}\n"))
    [ dt; ds; di; dr; dd ]

(* ------------------------------------------------------------------ *)
(* Early unlock                                                        *)
(* ------------------------------------------------------------------ *)

let test_span () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let t = Builder.two_phase_chain db [ "a"; "b" ] in
  (* La Lb Ua Ub: span a = 2, span b = 2. *)
  let a = Db.find_entity_exn db "a" and b = Db.find_entity_exn db "b" in
  check int_t "span a" 2 (Safety.Early_unlock.span t a);
  check int_t "span b" 2 (Safety.Early_unlock.span t b)

let test_early_unlock_private_entities () =
  (* Entity p is private to T1: its span must shrink to 1 without losing
     the certificate.  Shared entities a,b keep their guards. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "p" ] in
  let t1 = Builder.two_phase_chain db [ "a"; "p"; "b" ] in
  let t2 = Builder.two_phase_chain db [ "a"; "b" ] in
  let sys = System.create [ t1; t2 ] in
  assert (Safety.Many.safe_and_deadlock_free sys);
  let sys', stats = Safety.Early_unlock.minimize_spans sys in
  check bool_t "still safe&DF (Theorem 4)" true
    (Safety.Many.safe_and_deadlock_free sys');
  check bool_t "still safe&DF (exhaustive)" true
    (Result.is_ok (Sched.Explore.safe_and_deadlock_free sys'));
  check bool_t "span decreased" true
    (stats.Safety.Early_unlock.span_after
    < stats.Safety.Early_unlock.span_before);
  check bool_t "swaps happened" true (stats.Safety.Early_unlock.swaps > 0);
  let p = Db.find_entity_exn db "p" in
  check int_t "private span is 1" 1
    (Safety.Early_unlock.span (System.txn sys' 0) p)

let test_early_unlock_guards_kept () =
  (* Two identical 2PL chains over shared entities: no unlock can move
     without breaking the guard condition, so nothing changes. *)
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  let sys =
    System.create
      [
        Builder.two_phase_chain db [ "a"; "b" ];
        Builder.two_phase_chain db [ "a"; "b" ];
      ]
  in
  let _, stats = Safety.Early_unlock.minimize_spans sys in
  check int_t "no swaps" 0 stats.Safety.Early_unlock.swaps

let test_early_unlock_uncertified_input () =
  let sys =
    System.create
      (let t1, t2 = Workload.Gentx.opposed_chain_pair 2 in
       [ t1; t2 ])
  in
  let sys', stats = Safety.Early_unlock.minimize_spans sys in
  check int_t "unchanged" 0 stats.Safety.Early_unlock.swaps;
  check bool_t "same system" true (sys == sys')

let early_unlock_preserves_prop =
  QCheck.Test.make
    ~name:"early unlock preserves safe∧DF and never increases spans"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Workload.Gentx.random_db ~sites:1 ~entities:4 in
      let mk () =
        let k = 1 + Random.State.int st 4 in
        let names =
          List.map (Db.entity_name db)
            (Workload.Gentx.random_entity_subset st db ~k)
        in
        Builder.two_phase_chain db names
      in
      let sys = System.create [ mk (); mk (); mk () ] in
      let sys', stats = Safety.Early_unlock.minimize_spans sys in
      stats.Safety.Early_unlock.span_after
      <= stats.Safety.Early_unlock.span_before
      &&
      if Safety.Many.safe_and_deadlock_free sys then
        Safety.Many.safe_and_deadlock_free sys'
        && Result.is_ok (Sched.Explore.safe_and_deadlock_free sys')
      else true)

let test_repair () =
  let sys = Workload.Gentx.dining_philosophers 4 in
  (match Analysis.safe_and_deadlock_free sys with
  | Analysis.Safe_and_deadlock_free -> Alcotest.fail "philosophers must fail"
  | _ -> ());
  match Analysis.repair_with_global_order sys with
  | None -> Alcotest.fail "total orders are repairable"
  | Some sys' ->
      check bool_t "repaired certified" true
        (Analysis.safe_and_deadlock_free sys' = Analysis.Safe_and_deadlock_free);
      check bool_t "repaired exhaustively clean" true
        (Result.is_ok (Sched.Explore.safe_and_deadlock_free sys'));
      (* Access sets are preserved. *)
      Array.iteri
        (fun i t ->
          check bool_t
            (Printf.sprintf "T%d entities kept" (i + 1))
            true
            (Transaction.entities t
            = Transaction.entities (System.txn sys' i)))
        (System.txns sys)

let test_repair_rejects_partial_orders () =
  let sys = Fixtures.fig3 () in
  check bool_t "partial orders not repairable this way" true
    (Analysis.repair_with_global_order sys = None)

let repair_always_certifies_prop =
  QCheck.Test.make
    ~name:"global-order repair always yields a certified system" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Workload.Gentx.random_db ~sites:1 ~entities:4 in
      let mk () =
        let k = 1 + Random.State.int st 4 in
        let names =
          List.map (Db.entity_name db)
            (Workload.Gentx.random_entity_subset st db ~k)
        in
        (* A random (possibly bad) lock order. *)
        Model.Builder.two_phase_chain db names
      in
      let sys = System.create [ mk (); mk (); mk () ] in
      match Analysis.repair_with_global_order sys with
      | None -> false
      | Some sys' ->
          Analysis.safe_and_deadlock_free sys' = Analysis.Safe_and_deadlock_free)

(* ------------------------------------------------------------------ *)
(* Pair counterexamples                                                *)
(* ------------------------------------------------------------------ *)

let test_pair_counterexample_opposed () =
  let t1, t2 = Workload.Gentx.opposed_chain_pair 3 in
  match Analysis.pair_counterexample t1 t2 with
  | None -> Alcotest.fail "failing pair must have a witness"
  | Some cex ->
      let sys = System.create [ t1; t2 ] in
      check bool_t "legal" true (Sched.Schedule.is_legal sys cex.Analysis.steps);
      check bool_t "D cyclic" false
        (Sched.Dgraph.is_serializable sys cex.Analysis.steps);
      check bool_t "cycle spans both" true
        (List.sort compare cex.Analysis.d_cycle = [ 0; 1 ])

let test_pair_counterexample_none_when_safe () =
  let t1, t2 = Workload.Gentx.chain_pair 3 in
  check bool_t "no witness" true (Analysis.pair_counterexample t1 t2 = None)

let pair_counterexample_prop =
  QCheck.Test.make
    ~name:"failing pairs always yield replayable cyclic-D witnesses"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      let t1 = System.txn sys 0 and t2 = System.txn sys 1 in
      match Analysis.pair_counterexample t1 t2 with
      | None -> Safety.Pair.safe_and_deadlock_free t1 t2
      | Some cex ->
          Sched.Schedule.is_legal sys cex.Analysis.steps
          && not (Sched.Dgraph.is_serializable sys cex.Analysis.steps))

(* ------------------------------------------------------------------ *)
(* Witness minimization                                                *)
(* ------------------------------------------------------------------ *)

let test_minimize_philosophers () =
  (* 5 philosophers + 2 irrelevant transactions: the core should keep the
     ring and drop the bystanders. *)
  let ring = Workload.Gentx.dining_philosophers 5 in
  let db = System.db ring in
  let bystander = Model.Builder.two_phase_chain db [ "f0" ] in
  let sys =
    System.create (Array.to_list (System.txns ring) @ [ bystander; bystander ])
  in
  match Minimize.deadlock_core sys with
  | Minimize.Deadlock_free | Minimize.Gave_up _ ->
      Alcotest.fail "system deadlocks; expected a core"
  | Minimize.Core r ->
      check bool_t "core still deadlocks" false
        (Sched.Explore.deadlock_free r.Minimize.core);
      check bool_t "no bystanders" true
        (List.for_all (fun i -> i < 5) r.Minimize.kept_txns);
      (* The philosophers ring is already minimal: all 5 stay. *)
      check int_t "ring kept" 5 (System.size r.Minimize.core)

let test_minimize_drops_entities () =
  (* An opposed pair plus a private entity each: the private accesses get
     stripped from the core. *)
  let db = Model.Db.one_site_per_entity [ "a"; "b"; "p"; "q" ] in
  let t1 = Model.Builder.two_phase_chain db [ "a"; "p"; "b" ] in
  let t2 = Model.Builder.two_phase_chain db [ "b"; "q"; "a" ] in
  let sys = System.create [ t1; t2 ] in
  match Minimize.deadlock_core sys with
  | Minimize.Deadlock_free | Minimize.Gave_up _ ->
      Alcotest.fail "expected a core"
  | Minimize.Core r ->
      check int_t "2 txns" 2 (System.size r.Minimize.core);
      check bool_t "entities dropped" true
        (List.length r.Minimize.dropped_entities >= 2);
      Array.iter
        (fun t -> check int_t "core accesses only a,b" 2
            (List.length (Transaction.entities t)))
        (System.txns r.Minimize.core)

let test_minimize_none_for_deadlock_free () =
  let db = Model.Db.one_site_per_entity [ "a"; "b" ] in
  let sys =
    System.create
      [
        Model.Builder.two_phase_chain db [ "a"; "b" ];
        Model.Builder.two_phase_chain db [ "a"; "b" ];
      ]
  in
  check bool_t "no core for DF systems" true
    (Minimize.deadlock_core sys = Minimize.Deadlock_free)

let minimize_core_minimal_prop =
  QCheck.Test.make
    ~name:"minimized cores deadlock and are txn-minimal" ~count:30
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      match Minimize.deadlock_core sys with
      | Minimize.Deadlock_free -> Sched.Explore.deadlock_free sys
      | Minimize.Gave_up _ -> false
      | Minimize.Core r ->
          (not (Sched.Explore.deadlock_free r.Minimize.core))
          && (* dropping any single whole transaction breaks the deadlock *)
          (System.size r.Minimize.core < 2
          || List.for_all
               (fun drop ->
                 let rest =
                   List.filteri (fun i _ -> i <> drop)
                     (Array.to_list (System.txns r.Minimize.core))
                 in
                 List.length rest < 2
                 || Sched.Explore.deadlock_free (System.create rest))
               (List.init (System.size r.Minimize.core) Fun.id)))

(* ------------------------------------------------------------------ *)
(* Golden analysis digest                                              *)
(* ------------------------------------------------------------------ *)

(* MD5 of [Analysis.render_full]'s text and exit status over a seeded
   pool, one render per system, plus one capped run that gives up.
   Recorded before the search kernel's allocation rewrite, and again
   when a Theorem-3 failure began to name the pair's own transactions
   instead of T1 and T2 (only those lines moved), and again when the
   search flags were deleted (the same bytes as the renders without
   flags before); if it fails, rendered analysis bytes changed. *)
let golden_analysis_digest = "902846bb37b23152dcd8cadb1ebb822a"

let golden_analysis_pool () =
  let module G = Workload.Gentx in
  let fig6 n = System.copies (Workload.Figures.fig6_txn ()) n in
  [ Workload.Figures.fig2 (); fig6 2; fig6 3 ]
  @ List.map G.dining_philosophers [ 3; 4; 5 ]
  @ List.init 40 (fun i ->
        let rng = Fixtures.rng (500 + i) in
        match i mod 4 with
        | 0 -> G.zipf_system rng ~sites:2 ~entities:4 ~txns:3 ~theta:0.8
        | 1 -> G.zipf_system rng ~sites:2 ~entities:6 ~txns:3 ~theta:0.8
        | 2 -> G.small_random_system rng ~txns:3
        | _ -> G.small_random_system rng ~txns:4)

let analysis_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add (text, status, _) = Printf.bprintf b "%s%d\n" text status in
  let pool = golden_analysis_pool () in
  List.iter (fun sys -> add (Analysis.render_full sys)) pool;
  add
    (Analysis.render_full ~max_states:50
       (Workload.Gentx.dining_philosophers 5));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_analysis_digest () =
  check Alcotest.string "analysis digest" golden_analysis_digest
    (analysis_digest ())

(* The same digest over systems of two and three words per packed
   search state ({!Ddlock_schedule.Packed}): guard-ring copies,
   philosophers 16 and 32, and zipf systems of 64–80 nodes, every search
   capped at 3,000 states so that give-ups are covered too.  Recorded
   before the searches moved to packed states, and again when the
   search flags were deleted (one render per system). *)
let golden_wide_digest = "ec5e1918676b8e75510904644d0aaac6"

let golden_wide_pool () =
  let module G = Workload.Gentx in
  let ring k c = System.copies (G.guard_ring k) c in
  [ ring 4 8; ring 5 7; G.dining_philosophers 16; G.dining_philosophers 32 ]
  @ List.init 8 (fun i ->
        let rng = Fixtures.rng (900 + i) in
        G.zipf_system ~entities_per_txn:8 rng ~sites:4 ~entities:12
          ~txns:(4 + (i mod 2)) ~theta:0.8)

let test_golden_wide_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add (text, status, _) = Printf.bprintf b "%s%d\n" text status in
  let pool = golden_wide_pool () and max_states = 3_000 in
  List.iter (fun sys -> add (Analysis.render_full ~max_states sys)) pool;
  check Alcotest.string "wide analysis digest" golden_wide_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* One search rule: under a budget the plain search may not fit, the
   report is the full-budget one (the plain search decided), or its
   deadlock verdict turns to [Gave_up], or to [Deadlock_free] when the
   reduced search proves what the full budget finds; a render with the
   same verdict has the same bytes. *)
let test_capped_render () =
  let check_capped pool ~max_states ~cap i sys =
    let full, status, r = Analysis.render_full ~max_states sys in
    let capped, status', r' = Analysis.render_full ~max_states:cap sys in
    let ok =
      status = status'
      && { r' with deadlock = r.deadlock } = r
      &&
      match r'.deadlock with
      | Gave_up _ -> true
      | Deadlock_free -> r.deadlock = Deadlock_free && capped = full
      | Deadlocks _ -> capped = full
    in
    if not ok then
      Alcotest.failf "%s pool, system %d: capped render differs" pool i
  in
  List.iteri
    (check_capped "analysis" ~max_states:500_000 ~cap:20)
    (golden_analysis_pool ());
  List.iteri
    (check_capped "wide" ~max_states:3_000 ~cap:200)
    (golden_wide_pool ())

(* ------------------------------------------------------------------ *)
(* Buffer rendering = the Format renderer it replaced                  *)
(* ------------------------------------------------------------------ *)

(* The report's printers as they were when they rendered through a
   Format formatter, kasprintf and per-step sprintf, kept verbatim (up
   to module paths) as the reference for the buffer writers. *)
module Format_reference = struct
  open Model
  module Step = Sched.Step
  module State = Sched.State
  module Bitset = Graph.Bitset

  let step_to_string sys (s : Step.t) =
    let tx = System.txn sys s.txn in
    let nd = Transaction.node tx s.node in
    let op = match nd.Node.op with Node.Lock -> "L" | Node.Unlock -> "U" in
    Printf.sprintf "%s%d.%s" op (s.txn + 1)
      (Db.entity_name (System.db sys) nd.Node.entity)

  let pp_schedule sys ppf steps =
    Format.fprintf ppf "@[<hov>%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf s -> Format.pp_print_string ppf (step_to_string sys s)))
      steps

  let pp_failure db (name1, name2) ppf = function
    | Safety.Pair.No_common_first { first1; first2 } ->
        Format.fprintf ppf
          "no common first lock: %s can lock %s first while %s locks %s first"
          name1 (Db.entity_name db first1) name2 (Db.entity_name db first2)
    | Safety.Pair.Unguarded { y; in_txn } ->
        let this, other =
          if in_txn = 0 then (name1, name2) else (name2, name1)
        in
        Format.fprintf ppf "entity %s is unguarded: L_%s(L%s) ∩ R_%s(L%s) = ∅"
          (Db.entity_name db y) this (Db.entity_name db y) other
          (Db.entity_name db y)

  let pp_many_verdict sys ppf = function
    | Safety.Many.Safe_and_deadlock_free ->
        Format.fprintf ppf "safe and deadlock-free"
    | Safety.Many.Pair_fails { i; j; failure } ->
        let ti = Printf.sprintf "T%d" (i + 1)
        and tj = Printf.sprintf "T%d" (j + 1) in
        Format.fprintf ppf "pair (%s, %s) fails: %a" ti tj
          (pp_failure (System.db sys) (ti, tj))
          failure
    | Safety.Many.Cycle_fails { cycle; schedule; _ } ->
        Format.fprintf ppf
          "@[<v>cycle %a admits a partial schedule with cyclic D:@,%a@]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
             (fun ppf i -> Format.fprintf ppf "T%d" (i + 1)))
          cycle (pp_schedule sys) schedule

  let pp_safety_verdict sys ppf = function
    | Analysis.Safe_and_deadlock_free ->
        Format.fprintf ppf "safe and deadlock-free"
    | Analysis.Pair_violation { i; j; failure } ->
        let ti = Printf.sprintf "T%d" (i + 1)
        and tj = Printf.sprintf "T%d" (j + 1) in
        Format.fprintf ppf "pair (%s, %s) violates Theorem 3: %a" ti tj
          (pp_failure (System.db sys) (ti, tj))
          failure
    | Analysis.Cycle_violation w ->
        Format.fprintf ppf "%a" (pp_many_verdict sys)
          (Safety.Many.Cycle_fails w)

  let pp_deadlock_verdict sys ppf = function
    | Analysis.Deadlock_free -> Format.fprintf ppf "deadlock-free"
    | Analysis.Deadlocks { schedule; _ } ->
        Format.fprintf ppf "@[<v>deadlocks after:@,%a@]" (pp_schedule sys)
          schedule
    | Analysis.Gave_up { states_explored } ->
        Format.fprintf ppf
          "unknown (search budget exhausted after %d states; the problem is \
           coNP-hard)"
          states_explored

  let pp_report sys ppf (r : Analysis.report) =
    Format.fprintf ppf
      "@[<v>transactions:        %d@,entities:            %d@,\
       sites:               %d@,lock/unlock nodes:   %d@,\
       all two-phase:       %b@,interaction edges:   %d@,\
       interaction cycles:  %d@,safety ∧ DF:         %a@,\
       deadlock-freedom:    %a@]"
      r.txn_count r.entity_count r.site_count r.total_nodes r.all_two_phase
      r.interaction_edges r.interaction_cycles (pp_safety_verdict sys)
      r.safety (pp_deadlock_verdict sys) r.deadlock

  let entity_name sys e = Db.entity_name (System.db sys) e

  let walk sys steps =
    let st = ref (State.initial sys) in
    let lines = ref [] in
    let emit fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
    List.iter
      (fun (s : Step.t) ->
        let tx = System.txn sys s.txn in
        let nd = Transaction.node tx s.node in
        let e = nd.Node.entity in
        (match nd.Node.op with
        | Node.Lock ->
            let accessors =
              List.filter
                (fun k ->
                  k <> s.txn
                  && Transaction.accesses (System.txn sys k) e
                  && not
                       (Bitset.mem !st.(k)
                          (Transaction.lock_node_exn (System.txn sys k) e)))
                (List.init (System.size sys) Fun.id)
            in
            emit "T%d locks %s%s" (s.txn + 1) (entity_name sys e)
              (if accessors = [] then ""
               else
                 Printf.sprintf "  (orders T%d before %s on %s)" (s.txn + 1)
                   (String.concat ", "
                      (List.map
                         (fun k -> "T" ^ string_of_int (k + 1))
                         accessors))
                   (entity_name sys e))
        | Node.Unlock -> emit "T%d unlocks %s" (s.txn + 1) (entity_name sys e));
        st := State.apply !st s)
      steps;
    let status =
      if State.all_finished sys !st then "all transactions finished"
      else if State.is_deadlock sys !st then "DEADLOCK"
      else "(partial)"
    in
    (List.rev (status :: !lines), !st)

  let explain_deadlock sys steps =
    let lines, st = walk sys steps in
    let blocked =
      List.concat_map
        (fun i ->
          if
            Bitset.cardinal st.(i) = Transaction.node_count (System.txn sys i)
          then []
          else
            List.filter_map
              (fun v ->
                let nd = Transaction.node (System.txn sys i) v in
                match nd.Node.op with
                | Node.Lock -> (
                    match State.holder sys st nd.Node.entity with
                    | Some j when j <> i ->
                        Some
                          (Printf.sprintf
                             "T%d is blocked: needs %s, held by T%d" (i + 1)
                             (entity_name sys nd.Node.entity)
                             (j + 1))
                    | _ -> None)
                | Node.Unlock -> None)
              (Transaction.minimal_remaining (System.txn sys i) st.(i)))
        (List.init (System.size sys) Fun.id)
    in
    lines @ blocked

  let render sys (r : Analysis.report) =
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "%a@." (pp_report sys) r;
    (match r.deadlock with
    | Deadlocks { schedule; _ } ->
        Format.fprintf ppf "@.how the deadlock happens:@.";
        List.iter
          (fun line -> Format.fprintf ppf "%s@." line)
          (explain_deadlock sys schedule)
    | _ -> ());
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

(* [render_full]'s text equals the reference's, and each Format
   wrapper prints what the reference printer printed, under a prefix
   that moves the box off column 0. *)
let rendering_matches ?max_states sys =
  let module R = Format_reference in
  let text, _, r = Analysis.render_full ?max_states sys in
  let show pp x = Format.asprintf "# %a@." pp x in
  text = R.render sys r
  && show (Analysis.pp_report sys) r = show (R.pp_report sys) r
  && show (Analysis.pp_safety_verdict sys) r.safety
     = show (R.pp_safety_verdict sys) r.safety
  && (match r.deadlock with
     | Deadlocks { schedule; _ } ->
         show (Sched.Step.pp_schedule sys) schedule
         = show (R.pp_schedule sys) schedule
         && Sched.Narrate.narrate sys schedule = fst (R.walk sys schedule)
     | _ -> true)
  &&
  let v = Safety.Many.check sys in
  show (Safety.Many.pp_verdict sys) v = show (R.pp_many_verdict sys) v

(* Systems like the benchmark's [analyze-search] pool (zipf hotspots
   and small random systems), systems that repair certifies, and the
   paper's fixtures; each rendered with the default budget and with
   one small enough to give up. *)
let render_differential_prop =
  QCheck.Test.make ~name:"render_full = Format renderer reference" ~count:120
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let module G = Workload.Gentx in
      let rng = Fixtures.rng seed in
      let sys =
        match seed mod 6 with
        | 0 -> G.zipf_system rng ~sites:2 ~entities:4 ~txns:3 ~theta:0.8
        | 1 -> G.zipf_system rng ~sites:2 ~entities:6 ~txns:3 ~theta:0.8
        | 2 -> G.small_random_system rng ~txns:3
        | 3 -> G.small_random_system rng ~txns:4
        | 4 -> (
            let sys = G.small_random_system rng ~txns:4 in
            match Analysis.repair_with_global_order sys with
            | Some s -> s
            | None -> sys)
        | _ -> (
            let fig6 n = System.copies (Workload.Figures.fig6_txn ()) n in
            match seed / 6 mod 4 with
            | 0 -> Workload.Figures.fig2 ()
            | 1 -> fig6 3
            | 2 -> G.dining_philosophers 4
            | _ -> System.copies (G.guard_ring 3) 2)
      in
      rendering_matches sys && rendering_matches ~max_states:20 sys)

(* Systems of two and three words per packed state, whose schedule
   lines run past Format's margin, searches capped so that some give
   up. *)
let test_render_differential_wide () =
  List.iter
    (fun sys ->
      check bool_t "wide rendering" true
        (rendering_matches ~max_states:3_000 sys))
    (golden_wide_pool ())

let qtests =
  List.map Fixtures.to_alcotest
    [
      early_unlock_preserves_prop;
      repair_always_certifies_prop;
      minimize_core_minimal_prop;
      pair_counterexample_prop;
      render_differential_prop;
    ]

let suite =
  [
    Alcotest.test_case "analysis safe" `Quick test_analysis_safe;
    Alcotest.test_case "analysis philosophers" `Quick
      test_analysis_philosophers;
    Alcotest.test_case "analysis gave up" `Quick test_analysis_gave_up;
    Alcotest.test_case "golden analysis digest" `Quick
      test_golden_analysis_digest;
    Alcotest.test_case "golden wide analysis digest" `Quick
      test_golden_wide_digest;
    Alcotest.test_case "capped render changes only its verdict" `Quick
      test_capped_render;
    Alcotest.test_case "render_full = Format renderer on wide systems"
      `Quick test_render_differential_wide;
    Alcotest.test_case "analysis polynomial shortcut" `Quick
      test_analysis_polynomial_shortcut;
    Alcotest.test_case "dot outputs" `Quick test_dot_outputs;
    Alcotest.test_case "lock span" `Quick test_span;
    Alcotest.test_case "early unlock: private entities" `Quick
      test_early_unlock_private_entities;
    Alcotest.test_case "early unlock: guards kept" `Quick
      test_early_unlock_guards_kept;
    Alcotest.test_case "early unlock: uncertified input" `Quick
      test_early_unlock_uncertified_input;
    Alcotest.test_case "repair: philosophers" `Quick test_repair;
    Alcotest.test_case "repair: partial orders" `Quick
      test_repair_rejects_partial_orders;
    Alcotest.test_case "minimize: philosophers" `Quick
      test_minimize_philosophers;
    Alcotest.test_case "minimize: drops entities" `Quick
      test_minimize_drops_entities;
    Alcotest.test_case "minimize: none when DF" `Quick
      test_minimize_none_for_deadlock_free;
    Alcotest.test_case "pair cex: opposed" `Quick
      test_pair_counterexample_opposed;
    Alcotest.test_case "pair cex: none when safe" `Quick
      test_pair_counterexample_none_when_safe;
  ]
  @ qtests
