(* ddlock — static safety/deadlock analysis of distributed locked
   transactions (Wolfson & Yannakakis, PODS'85), plus a runtime
   simulator and the Theorem-2 SAT reduction. *)

open Cmdliner
open Ddlock
module Db = Model.Db
module Transaction = Model.Transaction
module System = Model.System
module Parser = Model.Parser

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
      prerr_endline msg;
      exit 2
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try really_input_string ic (in_channel_length ic)
          with Sys_error msg ->
            prerr_endline msg;
            exit 2)

let load path =
  match Parser.parse (read_file path) with
  | Ok r -> r
  | Error e ->
      Format.eprintf "%s: %a@." path Parser.pp_error e;
      exit 2

let find_txn r name =
  match List.assoc_opt name r.Parser.named with
  | Some t -> t
  | None ->
      Format.eprintf "unknown transaction %S (have: %s)@." name
        (String.concat ", " (List.map fst r.Parser.named));
      exit 2

(* ----------------------------- arguments --------------------------- *)

(* Plain strings, not [Arg.file]: existence is checked by [read_file],
   which reports a one-line error and exits 2 — same path for missing
   files and unreadable ones. *)
let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"Transaction-system source file (see ddlock gen for the format).")

let max_states_arg =
  Arg.(value & opt int 500_000 & info [ "max-states" ]
       ~doc:"State budget for the exhaustive deadlock search, for each of \
             its two stages: the plain search decides and gives the \
             witness, and when it runs out of budget a search reduced by \
             partial-order reduction may still prove the system \
             deadlock-free.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

(* --------------------------- observability ------------------------- *)

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
       ~doc:"Collect telemetry during the run and print a metrics and \
             span summary on stderr when the command finishes.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"With --stats: also write the recorded spans as Chrome \
             trace-event JSON to $(docv) (loadable in Perfetto or \
             chrome://tracing).")

(* Validate the flag combination and open the trace sink before any work
   happens, so file errors surface as the usual one-line message with
   exit 2.  The summary (and the trace file) are emitted from an
   [at_exit] hook: the analysis commands exit with meaningful codes from
   several places, and the hook covers them all. *)
let obs_start ~stats ~trace =
  (match (trace, stats) with
  | Some _, false ->
      prerr_endline "ddlock: --trace requires --stats";
      exit 2
  | _ -> ());
  if stats then begin
    let sink =
      match trace with
      | None -> None
      | Some path -> (
          match open_out_bin path with
          | exception Sys_error msg ->
              prerr_endline msg;
              exit 2
          | oc -> Some oc)
    in
    Obs.Metrics.reset ();
    Obs.Trace.clear ();
    Obs.Control.on ();
    at_exit (fun () ->
        Obs.Control.off ();
        Format.eprintf "@[<v>-- stats --@,%a-- spans --@,%a@]@?"
          Obs.Metrics.pp_summary (Obs.Metrics.snapshot ())
          Obs.Trace.pp_summary (Obs.Trace.summary ());
        match sink with
        | None -> ()
        | Some oc ->
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> Obs.Trace.write_chrome_json oc))
  end

(* ----------------------------- validate ---------------------------- *)

let validate_cmd =
  let run file =
    let r = load file in
    Format.printf "%s: OK (%d sites, %d entities, %d transactions)@." file
      (Db.site_count r.Parser.db)
      (Db.entity_count r.Parser.db)
      (List.length r.Parser.named)
  in
  Cmd.v (Cmd.info "validate" ~doc:"Parse and validate a system file.")
    Term.(const run $ file_arg)

(* ----------------------------- analyze ----------------------------- *)

let analyze_cmd =
  let run file max_states stats trace =
    obs_start ~stats ~trace;
    let sys =
      Obs.Trace.span "analysis.parse" (fun () ->
          Parser.system_of_result (load file))
    in
    let text, status, _report = Analysis.render_full ~max_states sys in
    print_string text;
    exit status
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Full analysis: Theorem 3/4 safety∧deadlock-freedom plus bounded \
          exhaustive deadlock search.")
    Term.(const run $ file_arg $ max_states_arg $ stats_arg $ trace_arg)

(* ------------------------------- pair ------------------------------ *)

let pair_cmd =
  let t1_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"T1") in
  let t2_arg = Arg.(required & pos 2 (some string) None & info [] ~docv:"T2") in
  let run file n1 n2 =
    let r = load file in
    let t1 = find_txn r n1 and t2 = find_txn r n2 in
    match Safety.Pair.check t1 t2 with
    | Ok () ->
        Format.printf "{%s, %s}: safe and deadlock-free (Theorem 3)@." n1 n2
    | Error f ->
        Format.printf "{%s, %s}: NOT safe∧deadlock-free: %a@." n1 n2
          (Safety.Pair.pp_failure r.Parser.db (n1, n2))
          f;
        exit 1
  in
  Cmd.v
    (Cmd.info "pair" ~doc:"Theorem 3 O(n²) test on two named transactions.")
    Term.(const run $ file_arg $ t1_arg $ t2_arg)

(* ------------------------------ copies ----------------------------- *)

let copies_cmd =
  let t_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"T") in
  let run file name =
    let r = load file in
    let t = find_txn r name in
    match Safety.Copies.check t with
    | Ok () ->
        Format.printf
          "any number of copies of %s is safe and deadlock-free (Cor. 3 + Thm 5)@."
          name
    | Error f ->
        Format.printf "copies of %s are NOT safe∧deadlock-free: %a@." name
          (Safety.Copies.pp_failure r.Parser.db)
          f;
        exit 1
  in
  Cmd.v
    (Cmd.info "copies"
       ~doc:"Corollary 3 test: are copies of a transaction safe∧DF?")
    Term.(const run $ file_arg $ t_arg)

(* ----------------------------- simulate ---------------------------- *)

let simulate_cmd =
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of executions.")
  in
  let run file runs seed =
    let r = load file in
    let sys = Parser.system_of_result r in
    let rng = Random.State.make [| seed |] in
    let stats = Sim.Runtime.batch rng sys ~runs in
    Format.printf "%a@." Sim.Runtime.pp_batch stats;
    (* Show one deadlocked trace if any occurred. *)
    if stats.Sim.Runtime.deadlocks > 0 then begin
      let rng = Random.State.make [| seed |] in
      let rec find k =
        if k = 0 then ()
        else
          let one = Sim.Runtime.run rng sys in
          match one.Sim.Runtime.outcome with
          | Sim.Runtime.Deadlock _ as o ->
              Format.printf "example: %a@." (Sim.Runtime.pp_outcome sys) o
          | _ -> find (k - 1)
      in
      find (10 * runs)
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the system repeatedly on the discrete-event runtime.")
    Term.(const run $ file_arg $ runs_arg $ seed_arg)

(* ------------------------------- gen ------------------------------- *)

let gen_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum
           [ ("philosophers", `Phil); ("ring", `Ring); ("random", `Random);
             ("zipf", `Zipf); ("tpcc", `Tpcc); ("replicated", `Replicated) ]))
          None
      & info [] ~docv:"KIND"
          ~doc:"philosophers | ring | random | zipf | tpcc | replicated")
  in
  let size_arg =
    Arg.(value & opt int 3
         & info [ "n" ] ~doc:"Size parameter (k / entities).")
  in
  let txns_arg =
    Arg.(value & opt int 3
         & info [ "txns" ] ~doc:"Transactions (random/zipf/tpcc/replicated).")
  in
  let copies_arg =
    Arg.(value & opt int 1 & info [ "copies" ]
         ~doc:"Emit this many copies of every generated transaction \
               (e.g. ring -n 4 --copies 2 is the paper's Fig. 2 shape).")
  in
  let theta_arg =
    Arg.(value & opt float 1.2 & info [ "theta" ]
         ~doc:"Zipf skew exponent (zipf/tpcc kinds); must be > 0.")
  in
  let warehouses_arg =
    Arg.(value & opt int 2 & info [ "warehouses" ]
         ~doc:"Warehouses (tpcc kind).")
  in
  let sites_arg =
    Arg.(value & opt int 3 & info [ "sites" ] ~doc:"Sites (replicated kind).")
  in
  let replication_arg =
    Arg.(value & opt int 2 & info [ "replication" ]
         ~doc:"Replicas per logical entity (replicated kind); must be in \
               [1, --sites].")
  in
  let run kind n txns copies seed theta warehouses sites replication =
    if copies < 1 then begin
      Format.eprintf "ddlock: --copies must be >= 1 (got %d)@." copies;
      exit 2
    end;
    if txns < 1 then begin
      Format.eprintf "ddlock: --txns must be >= 1 (got %d)@." txns;
      exit 2
    end;
    if n < 1 then begin
      Format.eprintf "ddlock: -n must be >= 1 (got %d)@." n;
      exit 2
    end;
    (match kind with
    | `Zipf | `Tpcc when theta <= 0.0 ->
        Format.eprintf "ddlock: --theta must be > 0 (got %g)@." theta;
        exit 2
    | `Tpcc when warehouses < 1 ->
        Format.eprintf "ddlock: --warehouses must be >= 1 (got %d)@." warehouses;
        exit 2
    | `Replicated when sites < 1 ->
        Format.eprintf "ddlock: --sites must be >= 1 (got %d)@." sites;
        exit 2
    | `Replicated when replication < 1 || replication > sites ->
        Format.eprintf
          "ddlock: --replication must be in [1, --sites] (got %d with %d \
           sites)@."
          replication sites;
        exit 2
    | _ -> ());
    let named sys =
      List.mapi
        (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
        (Array.to_list (System.txns sys))
    in
    let db, pairs =
      match kind with
      | `Phil ->
          let sys = Workload.Gentx.dining_philosophers n in
          (System.db sys, named sys)
      | `Ring ->
          let t = Workload.Gentx.guard_ring n in
          (Transaction.db t, [ ("T", t) ])
      | `Random ->
          let st = Random.State.make [| seed |] in
          let db = Workload.Gentx.random_db ~sites:(max 1 (n / 2)) ~entities:n in
          let sys =
            Workload.Gentx.random_system st db ~txns ~entities_per_txn:(max 1 (n / 2))
              ~density:0.3
          in
          (db, named sys)
      | `Zipf ->
          let st = Random.State.make [| seed |] in
          let sys =
            Workload.Gentx.zipf_system st ~sites:(max 1 (n / 2)) ~entities:n
              ~txns ~theta
          in
          (System.db sys, named sys)
      | `Tpcc ->
          let st = Random.State.make [| seed |] in
          let sys = Workload.Gentx.tpcc_system st ~warehouses ~txns ~theta in
          (System.db sys, named sys)
      | `Replicated ->
          let st = Random.State.make [| seed |] in
          let rep =
            Workload.Gentx.replicated_db ~sites ~entities:n ~replication
          in
          let sys =
            Workload.Gentx.replicated_system st rep ~txns
              ~entities_per_txn:(min 2 n)
          in
          (System.db sys, named sys)
    in
    let pairs =
      if copies = 1 then pairs
      else
        List.concat_map
          (fun c ->
            List.map
              (fun (name, t) -> (Printf.sprintf "%s_%d" name (c + 1), t))
              pairs)
          (List.init copies Fun.id)
    in
    print_string (Parser.to_source db pairs)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a system file on stdout.")
    Term.(
      const run $ kind_arg $ size_arg $ txns_arg $ copies_arg $ seed_arg
      $ theta_arg $ warehouses_arg $ sites_arg $ replication_arg)

(* ----------------------------- sat-reduce -------------------------- *)

let sat_reduce_cmd =
  let vars_arg =
    Arg.(value & opt int 3 & info [ "vars" ] ~doc:"Variables in the random 3SAT' formula.")
  in
  let file_opt_arg =
    Arg.(value & opt (some string) None & info [ "file" ]
         ~doc:"DIMACS CNF file; normalized to 3SAT' before the reduction.")
  in
  let run vars seed file =
    let st = Random.State.make [| seed |] in
    let f =
      match file with
      | None -> Conp.Gen3sat.generate st ~n_vars:vars
      | Some path -> (
          match Conp.Normalize.parse_dimacs (read_file path) with
          | Error e ->
              Format.eprintf "%s: %s@." path e;
              exit 2
          | Ok general ->
              let nz = Conp.Normalize.normalize general in
              Format.printf
                "normalized %d vars / %d clauses to 3SAT' with %d vars / %d clauses@."
                general.Conp.Formula.n_vars
                (List.length general.Conp.Formula.clauses)
                nz.Conp.Normalize.formula.Conp.Formula.n_vars
                (List.length nz.Conp.Normalize.formula.Conp.Formula.clauses);
              nz.Conp.Normalize.formula)
    in
    let vars = f.Conp.Formula.n_vars in
    Format.printf "formula: %a@." Conp.Formula.pp f;
    let r = Conp.Reduction_sat.build f in
    Format.printf "reduction: %d entities, %d+%d nodes, %d sites@."
      (Db.entity_count r.Conp.Reduction_sat.db)
      (Transaction.node_count r.Conp.Reduction_sat.t1)
      (Transaction.node_count r.Conp.Reduction_sat.t2)
      (Db.site_count r.Conp.Reduction_sat.db);
    match Conp.Dpll.solve f with
    | None ->
        Format.printf
          "DPLL: unsatisfiable — {T1,T2} has no deadlock prefix (Theorem 2)@."
    | Some model -> (
        Format.printf "DPLL: satisfiable@.";
        match Conp.Reduction_sat.deadlock_witness r model with
        | None -> Format.eprintf "internal error: witness construction failed@."
        | Some (steps, cycle) ->
            Format.printf "deadlock prefix schedule: %a@."
              (Sched.Step.pp_schedule r.Conp.Reduction_sat.sys)
              steps;
            Format.printf "reduction-graph cycle:    %a@."
              (Sched.Step.pp_schedule r.Conp.Reduction_sat.sys)
              cycle;
            let a = Conp.Reduction_sat.assignment_of_cycle r cycle in
            Format.printf "assignment extracted back from the cycle: %s@."
              (String.concat ", "
                 (List.init vars (fun j ->
                      Printf.sprintf "x%d=%b" j a.(j)))))
  in
  Cmd.v
    (Cmd.info "sat-reduce"
       ~doc:"Demonstrate the Theorem 2 reduction on a random 3SAT' formula.")
    Term.(const run $ vars_arg $ seed_arg $ file_opt_arg)

(* ------------------------------ repair ----------------------------- *)

let repair_cmd =
  let run file =
    let r = load file in
    let sys = Parser.system_of_result r in
    match Analysis.safe_and_deadlock_free sys with
    | Analysis.Safe_and_deadlock_free ->
        Format.printf "# already safe and deadlock-free; nothing to repair@."
    | v -> (
        Format.eprintf "# %a@." (Analysis.pp_safety_verdict sys) v;
        match Analysis.repair_with_global_order sys with
        | None ->
            Format.eprintf
              "cannot repair: transactions are not total orders@.";
            exit 1
        | Some sys' ->
            let named =
              List.mapi
                (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
                (Array.to_list (System.txns sys'))
            in
            print_string (Parser.to_source (System.db sys') named))
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Rewrite a failing system of total orders with a global lock           order (2PL, ascending entities); emits the certified system.")
    Term.(const run $ file_arg)

(* ----------------------------- minimize ---------------------------- *)

let minimize_cmd =
  let run file max_states stats trace =
    obs_start ~stats ~trace;
    let r = load file in
    let sys = Parser.system_of_result r in
    match Minimize.deadlock_core ~max_states sys with
    | Minimize.Deadlock_free ->
        Format.printf "# deadlock-free@.";
        exit 1
    | Minimize.Gave_up n ->
        Format.printf "# unknown (search budget exhausted after %d states)@." n;
        exit 1
    | Minimize.Core core ->
        Format.eprintf "# kept transactions: %s@."
          (String.concat ", "
             (List.map
                (fun i -> "T" ^ string_of_int (i + 1))
                core.Minimize.kept_txns));
        List.iter
          (fun (i, e) ->
            Format.eprintf "# dropped %s from T%d@."
              (Db.entity_name (System.db sys) e)
              (i + 1))
          core.Minimize.dropped_entities;
        let named =
          List.mapi
            (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
            (Array.to_list (System.txns core.Minimize.core))
        in
        print_string (Parser.to_source (System.db core.Minimize.core) named)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
         "Shrink a deadlocking system to a minimal core that still           deadlocks (drops transactions and entity accesses).")
    Term.(const run $ file_arg $ max_states_arg $ stats_arg $ trace_arg)

(* ------------------------------- dot ------------------------------- *)

let dot_cmd =
  let what_arg =
    Arg.(
      value
      & opt (enum [ ("system", `System); ("interaction", `Interaction) ]) `System
      & info [ "what" ] ~doc:"system | interaction")
  in
  let run file what =
    let r = load file in
    let sys = Parser.system_of_result r in
    print_string
      (match what with
      | `System -> Dot.system sys
      | `Interaction -> Dot.interaction sys)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a system or its interaction graph.")
    Term.(const run $ file_arg $ what_arg)

(* ------------------------------ recover ---------------------------- *)

let recover_cmd =
  let scheme_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("wait-die", Sim.Recovery.Wait_die);
               ("wound-wait", Sim.Recovery.Wound_wait);
               ("detect", Sim.Recovery.Detect { period = 5.0 });
               ("timeout", Sim.Recovery.default_timeout);
               ("probabilistic", Sim.Recovery.Probabilistic);
             ])
          Sim.Recovery.Wound_wait
      & info [ "scheme" ]
          ~doc:"wait-die | wound-wait | detect | timeout | probabilistic")
  in
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of executions.")
  in
  let run file scheme runs seed =
    let r = load file in
    let sys = Parser.system_of_result r in
    let rng = Random.State.make [| seed |] in
    let stats = Sim.Recovery.batch ~scheme rng sys ~runs in
    Format.printf "%a@." Sim.Recovery.pp_batch stats
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Execute under a deadlock-handling scheme (wound-wait, wait-die, \
          periodic detection or lock-wait timeout) and report aborts/commits.")
    Term.(const run $ file_arg $ scheme_arg $ runs_arg $ seed_arg)

(* ------------------------------- chaos ----------------------------- *)

let chaos_cmd =
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ]
         ~doc:"Seeds to sweep (each seed derives one fault plan per scheme).")
  in
  let intensity_arg =
    Arg.(value & opt float 0.8 & info [ "intensity" ]
         ~doc:"Fault-plan severity ceiling in [0,1].")
  in
  let horizon_arg =
    Arg.(value & opt float 40.0 & info [ "horizon" ]
         ~doc:"Sim time after which no new fault fires (keeps plans finite).")
  in
  let scheme_arg =
    Arg.(
      value
      & opt
          (enum
             (("all", None)
             :: List.map
                  (fun (n, s) -> (n, Some (n, s)))
                  Sim.Chaos.default_schemes))
          None
      & info [ "scheme" ]
          ~doc:"all | wait-die | wound-wait | detect | timeout | probabilistic")
  in
  let run file runs seed intensity horizon scheme stats trace =
    obs_start ~stats ~trace;
    let r = load file in
    let sys = Parser.system_of_result r in
    let schemes =
      match scheme with None -> Sim.Chaos.default_schemes | Some s -> [ s ]
    in
    let cases = [ { Sim.Chaos.label = Filename.basename file; system = sys } ] in
    let report =
      Sim.Chaos.sweep ~seeds:runs ~schemes ~cases ~intensity ~horizon seed
    in
    Format.printf "%a@." Sim.Chaos.pp_report report;
    if report.Sim.Chaos.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep seeded fault plans (site crashes, message loss/duplication, \
          lock-manager stalls) over the recovery schemes and check the \
          safety/liveness invariants on every committed trace.")
    Term.(
      const run $ file_arg $ runs_arg $ seed_arg $ intensity_arg $ horizon_arg
      $ scheme_arg $ stats_arg $ trace_arg)

(* ------------------------------- serve ----------------------------- *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Unix-domain socket path of the analysis daemon.")

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ]
         ~doc:"Worker domains running analyses, one request each at a \
               time: the daemon's parallelism.")
  in
  let queue_cap_arg =
    Arg.(value & opt int 16 & info [ "queue-cap" ]
         ~doc:"Admission-queue bound; a full queue answers 'busy'.")
  in
  let cache_cap_arg =
    Arg.(value & opt int 128 & info [ "cache-cap" ]
         ~doc:"LRU verdict-cache entries (0 disables the cache).")
  in
  let max_request_arg =
    Arg.(value & opt int Ddlock_serve.Protocol.default_max_request
         & info [ "max-request-bytes" ]
           ~doc:"Reject analyze bodies larger than this.")
  in
  let serve_max_states_arg =
    Arg.(value & opt (some int) None & info [ "max-states" ]
         ~doc:"Default state budget for requests that name none.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ]
         ~doc:"Default per-request deadline for requests that name none.")
  in
  let idle_timeout_arg =
    Arg.(value & opt int 5_000 & info [ "idle-timeout-ms" ]
         ~doc:"Per-read deadline on client sockets (slowloris guard).")
  in
  let flight_cap_arg =
    Arg.(value & opt int 256 & info [ "flight-cap" ]
         ~doc:"Flight-recorder ring: retain the last $(docv) completed \
               request summaries." ~docv:"N")
  in
  let slow_ms_arg =
    Arg.(value & opt int 250 & info [ "slow-ms" ]
         ~doc:"Pin the span trees of requests slower than $(docv) ms (and \
               of every timeout) in the slow ring for later 'trace' \
               retrieval." ~docv:"MS")
  in
  let run socket workers queue_cap cache_cap max_request_bytes
      default_max_states default_deadline_ms idle_timeout_ms flight_cap
      slow_ms stats trace =
    if workers < 1 then begin
      Format.eprintf "ddlock: --workers must be >= 1 (got %d)@." workers;
      exit 2
    end;
    obs_start ~stats ~trace;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let cfg =
      {
        (Ddlock_serve.Server.default_config ~socket_path:socket) with
        Ddlock_serve.Server.workers;
        queue_cap;
        cache_cap;
        max_request_bytes;
        default_max_states;
        default_deadline_ms;
        idle_timeout_ms;
        flight_cap;
        slow_ms;
      }
    in
    let t =
      match Ddlock_serve.Server.start cfg with
      | t -> t
      | exception Failure msg ->
          Format.eprintf "ddlock: %s@." msg;
          exit 2
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "ddlock: %s: %s@." socket (Unix.error_message e);
          exit 2
    in
    let stop _ = Ddlock_serve.Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Ddlock_serve.Server.flight_dump t stderr));
    Format.eprintf "ddlock: serving on %s (workers=%d queue=%d cache=%d)@."
      socket workers queue_cap cache_cap;
    Ddlock_serve.Server.wait t;
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon on a Unix-domain socket: cached verdicts, \
          bounded admission with busy backpressure, per-request deadlines, \
          graceful drain on SIGTERM/SIGINT.  SIGUSR1 dumps the flight \
          recorder to stderr.")
    Term.(
      const run $ socket_arg $ workers_arg $ queue_cap_arg $ cache_cap_arg
      $ max_request_arg $ serve_max_states_arg $ deadline_arg
      $ idle_timeout_arg $ flight_cap_arg $ slow_ms_arg $ stats_arg
      $ trace_arg)

(* ------------------------------ request ---------------------------- *)

let request_cmd =
  let file_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Transaction-system source file to analyze.")
  in
  let req_max_states_arg =
    Arg.(value & opt (some int) None & info [ "max-states" ]
         ~doc:"State budget for this request's deadlock search (each \
               of its two stages; see analyze --max-states).")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ]
         ~doc:"Deadline for this request; exceeding it exits 4.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check only.")
  in
  let req_stats_arg =
    Arg.(value & flag & info [ "stats" ]
         ~doc:"Without FILE: print the daemon's counters.  With FILE: \
               print this request's wall-clock latency and cache-hit \
               status on stderr.")
  in
  let raw_arg =
    Arg.(value & opt (some string) None & info [ "raw" ] ~docv:"LINE"
         ~doc:"Debugging: send $(docv) verbatim (newline appended) and \
               print whatever comes back; exits 2 on an error reply.")
  in
  let req_trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT"
         ~doc:"With FILE: after the reply, fetch this request's span tree \
               from the daemon and write it to $(docv) as Chrome \
               trace-event JSON (the daemon must be tracing: --stats or \
               DDLOCK_OBS=1).")
  in
  let metrics_flag =
    Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the daemon's Prometheus text exposition.")
  in
  let flight_flag =
    Arg.(value & flag & info [ "flight" ]
         ~doc:"Print the daemon's flight-recorder JSON.")
  in
  let run socket file max_states deadline_ms ping stats raw
      trace_out metrics flight =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fail err =
      Format.eprintf "ddlock: %a@." Ddlock_serve.Client.pp_error err;
      exit 2
    in
    let print_body = function
      | Error err -> fail err
      | Ok body ->
          print_string body;
          exit 0
    in
    let finish = function
      | Ddlock_serve.Client.Verdict { status; body } ->
          print_string body;
          exit status
      | Ddlock_serve.Client.Busy { retry_after_ms } ->
          Format.eprintf "ddlock: server busy (retry after %dms)@."
            retry_after_ms;
          exit 3
      | Ddlock_serve.Client.Timeout ->
          Format.eprintf "ddlock: request deadline exceeded@.";
          exit 4
      | Ddlock_serve.Client.Server_error msg ->
          Format.eprintf "ddlock: server error: %s@." msg;
          exit 2
      | Ddlock_serve.Client.Pong ->
          print_endline "pong";
          exit 0
    in
    match (raw, ping, metrics, flight, file) with
    | Some line, _, _, _, _ -> (
        match Ddlock_serve.Client.raw ~socket (line ^ "\n") with
        | Error err -> fail err
        | Ok reply ->
            print_string reply;
            exit (if String.length reply >= 5 && String.sub reply 0 5 = "error"
                  then 2 else 0))
    | None, true, _, _, _ -> (
        match Ddlock_serve.Client.ping ~socket with
        | Error err -> fail err
        | Ok reply -> finish reply)
    | None, false, true, _, _ -> print_body (Ddlock_serve.Client.metrics ~socket)
    | None, false, false, true, _ ->
        print_body (Ddlock_serve.Client.flight ~socket)
    | None, false, false, false, Some file -> (
        let source = read_file file in
        let t0 = Obs.Clock.now_ns () in
        match
          Ddlock_serve.Client.analyze_ex ~socket ?max_states ?deadline_ms
            source
        with
        | Error err -> fail err
        | Ok (reply, meta) ->
            let ms = float_of_int (Obs.Clock.now_ns () - t0) /. 1e6 in
            if stats then
              Format.eprintf "ddlock: %.1f ms%s%s@." ms
                (match meta.Ddlock_serve.Client.cached with
                | Some true -> ", cache hit"
                | Some false -> ", cache miss"
                | None -> "")
                (match meta.Ddlock_serve.Client.req_id with
                | Some id -> Printf.sprintf ", req %d" id
                | None -> "");
            (match (trace_out, meta.Ddlock_serve.Client.req_id) with
            | None, _ -> ()
            | Some _, None ->
                Format.eprintf "ddlock: trace: server sent no request id@."
            | Some path, Some id -> (
                match Ddlock_serve.Client.trace ~socket id with
                | Error err ->
                    (* The verdict already arrived; a missing trace only
                       warns, it does not change the exit status. *)
                    Format.eprintf "ddlock: trace: %a@."
                      Ddlock_serve.Client.pp_error err
                | Ok json -> (
                    match open_out_bin path with
                    | exception Sys_error msg ->
                        prerr_endline msg;
                        exit 2
                    | oc ->
                        Fun.protect
                          ~finally:(fun () -> close_out_noerr oc)
                          (fun () -> output_string oc json))));
            finish reply)
    | None, false, false, false, None ->
        if stats then
          match Ddlock_serve.Client.stats ~socket with
          | Error err -> fail err
          | Ok reply -> finish reply
        else begin
          Format.eprintf
            "ddlock: request needs a FILE (or --ping, --stats, --raw, \
             --metrics, --flight)@.";
          exit 2
        end
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Submit a system to a running analysis daemon and print its verdict \
          (exit status: 0 safe, 1 unsafe/deadlocks, 2 errors, 3 busy, \
          4 deadline exceeded).")
    Term.(
      const run $ socket_arg $ file_opt_arg $ req_max_states_arg
      $ deadline_arg $ ping_arg $ req_stats_arg $ raw_arg
      $ req_trace_arg $ metrics_flag $ flight_flag)

(* -------------------------------- top ------------------------------ *)

(* Parse the daemon's Prometheus exposition back into a metrics
   snapshot, so the interval arithmetic reuses [Obs.Metrics.delta] and
   [Obs.Metrics.quantile].  Only the shapes the daemon emits are
   understood: "name value" scalars and 'name_bucket{le="N"} cum'
   histogram lines (which are exact re-encodings of the log2 buckets,
   so the bucket index round-trips through [bucket_of]). *)
let snapshot_of_exposition text =
  let scalars : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let buckets : (string, (float * float) list) Hashtbl.t = Hashtbl.create 8 in
  let bucket_suffix = "_bucket" in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | None -> ()
        | Some sp -> (
            let lhs = String.sub line 0 sp in
            let rhs = String.sub line (sp + 1) (String.length line - sp - 1) in
            let v =
              if rhs = "+Inf" then Some infinity else float_of_string_opt rhs
            in
            match (v, String.index_opt lhs '{') with
            | None, _ -> ()
            | Some v, None -> Hashtbl.replace scalars lhs v
            | Some v, Some br ->
                let head = String.sub lhs 0 br in
                let labels =
                  String.sub lhs br (String.length lhs - br)
                in
                let is_bucket =
                  String.length head > String.length bucket_suffix
                  && String.sub head
                       (String.length head - String.length bucket_suffix)
                       (String.length bucket_suffix)
                     = bucket_suffix
                in
                let le =
                  let prefix = {|{le="|} in
                  let plen = String.length prefix in
                  if
                    String.length labels > plen + 1
                    && String.sub labels 0 plen = prefix
                  then
                    let inner =
                      String.sub labels plen (String.length labels - plen - 2)
                    in
                    if inner = "+Inf" then Some infinity
                    else float_of_string_opt inner
                  else None
                in
                (match (is_bucket, le) with
                | true, Some le ->
                    let base =
                      String.sub head 0
                        (String.length head - String.length bucket_suffix)
                    in
                    let prev =
                      Option.value ~default:[] (Hashtbl.find_opt buckets base)
                    in
                    Hashtbl.replace buckets base ((le, v) :: prev)
                | _ -> ())))
    (String.split_on_char '\n' text);
  let scalar name =
    int_of_float (Option.value ~default:0.0 (Hashtbl.find_opt scalars name))
  in
  let hists =
    Hashtbl.fold
      (fun base les acc ->
        let les =
          List.sort (fun (a, _) (b, _) -> compare a b) les
        in
        let _, rev_buckets =
          List.fold_left
            (fun (prev_cum, acc) (le, cum) ->
              let n = int_of_float cum - prev_cum in
              let idx =
                if le = infinity then Obs.Metrics.Histogram.max_bucket
                else Obs.Metrics.Histogram.bucket_of (int_of_float le)
              in
              (int_of_float cum, if n > 0 then (idx, n) :: acc else acc))
            (0, []) les
        in
        ( base,
          Obs.Metrics.Hist
            {
              Obs.Metrics.count = scalar (base ^ "_count");
              sum = scalar (base ^ "_sum");
              buckets = List.rev rev_buckets;
            } )
        :: acc)
      buckets []
  in
  let is_hist_aux name =
    Hashtbl.fold
      (fun base _ acc ->
        acc || name = base ^ "_sum" || name = base ^ "_count")
      buckets false
  in
  let ends_with suffix s =
    String.length s >= String.length suffix
    && String.sub s (String.length s - String.length suffix)
         (String.length suffix)
       = suffix
  in
  let others =
    Hashtbl.fold
      (fun name v acc ->
        if is_hist_aux name then acc
        else
          let n = int_of_float v in
          ( name,
            if ends_with "_total" name then Obs.Metrics.Counter n
            else Obs.Metrics.Gauge n )
          :: acc)
      scalars []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (hists @ others)

let top_cmd =
  let interval_arg =
    Arg.(value & opt int 1_000 & info [ "interval-ms" ]
         ~doc:"Refresh interval.")
  in
  let count_arg =
    Arg.(value & opt int 0 & info [ "count" ]
         ~doc:"Stop after $(docv) refreshes (0 = run until interrupted)."
         ~docv:"N")
  in
  let run socket interval_ms count =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fetch () =
      match Ddlock_serve.Client.metrics ~socket with
      | Ok text -> snapshot_of_exposition text
      | Error err ->
          Format.eprintf "ddlock: %a@." Ddlock_serve.Client.pp_error err;
          exit 2
    in
    let num name snap =
      match List.assoc_opt name snap with
      | Some (Obs.Metrics.Counter n) | Some (Obs.Metrics.Gauge n) ->
          float_of_int n
      | _ -> 0.0
    in
    let hist name snap =
      match List.assoc_opt name snap with
      | Some (Obs.Metrics.Hist h) -> h
      | _ -> { Obs.Metrics.count = 0; sum = 0; buckets = [] }
    in
    let clear = Unix.isatty Unix.stdout in
    let interval_s = float_of_int (max 1 interval_ms) /. 1000. in
    let render now d =
      if clear then print_string "\027[2J\027[H";
      let requests = num "daemon_requests_total" d in
      let hits = num "daemon_cache_hits_total" d in
      let misses = num "daemon_cache_misses_total" d in
      let lookups = hits +. misses in
      (* Quantiles prefer this interval's histogram; a quiet interval
         falls back to the cumulative distribution. *)
      let interval_h = hist "daemon_request_ns" d in
      let h, h_scope =
        if interval_h.Obs.Metrics.count > 0 then (interval_h, "interval")
        else (hist "daemon_request_ns" now, "cumulative")
      in
      let q p = Obs.Metrics.quantile h p /. 1e6 in
      let pct part = 100. *. part /. Float.max 1.0 requests in
      Format.printf "ddlock top — %s (every %.1fs)@." socket interval_s;
      Format.printf
        "  req/s    %8.1f    inflight %3.0f   queue %3.0f   workers %.0f@."
        (requests /. interval_s)
        (num "daemon_inflight" now)
        (num "daemon_queue_depth" now)
        (num "daemon_workers" now);
      Format.printf
        "  latency  p50 %.2f ms   p90 %.2f ms   p99 %.2f ms   (%s, n=%d)@."
        (q 0.50) (q 0.90) (q 0.99) h_scope h.Obs.Metrics.count;
      Format.printf "  cache    hit %5.1f%%  (hits %.0f, misses %.0f)@."
        (if lookups > 0. then 100. *. hits /. lookups else 0.0)
        hits misses;
      Format.printf
        "  busy     %5.1f%%   timeouts %5.1f%%   errors %5.1f%%@."
        (pct (num "daemon_busy_total" d))
        (pct (num "daemon_timeouts_total" d))
        (pct (num "daemon_errors_total" d));
      Format.print_flush ()
    in
    let prev = ref (fetch ()) in
    let n = ref 0 in
    while count = 0 || !n < count do
      incr n;
      Unix.sleepf interval_s;
      let now = fetch () in
      let d = Obs.Metrics.delta ~before:!prev ~after:now in
      prev := now;
      render now d
    done;
    exit 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live daemon dashboard: poll the 'metrics' verb and display \
          request rate, latency quantiles, cache hit rate and \
          busy/timeout/error rates per refresh interval.")
    Term.(const run $ socket_arg $ interval_arg $ count_arg)

(* ------------------------------ replay ----------------------------- *)

let replay_cmd =
  let sched_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCHEDULE"
         ~doc:"Schedule file: one 'T<i> L|U <entity>' step per line.")
  in
  let run file sched =
    let r = load file in
    let sys = Parser.system_of_result r in
    match Sched.Sched_text.parse sys (read_file sched) with
    | Error e ->
        Format.eprintf "%s: %a@." sched Sched.Sched_text.pp_error e;
        exit 2
    | Ok steps -> (
        match Sched.Schedule.check sys steps with
        | Error v ->
            Format.printf "ILLEGAL: %a@."
              (Sched.Schedule.pp_violation sys) v;
            exit 1
        | Ok st ->
            (* A deadlock's explanation begins with the narration. *)
            List.iter
              (fun line -> Format.printf "%s@." line)
              (if Sched.State.is_deadlock sys st then
                 Sched.Narrate.explain_deadlock sys steps
               else Sched.Narrate.narrate sys steps);
            Format.printf "serialization digraph: %s@."
              (match Sched.Dgraph.find_cycle sys steps with
              | None -> "acyclic"
              | Some cycle ->
                  Format.asprintf "CYCLIC (%a)"
                    (Format.pp_print_list
                       ~pp_sep:(fun ppf () ->
                         Format.pp_print_string ppf " -> ")
                       (fun ppf i -> Format.fprintf ppf "T%d" (i + 1)))
                    cycle);
            let red = Deadlock.Reduction.make sys st in
            Format.printf "reduction graph:       %s@."
              (if Deadlock.Reduction.has_cycle red then
                 "CYCLIC (no continuation can complete)"
               else "acyclic"))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a schedule file against a system: legality, narration,           D-graph and reduction-graph verdicts.")
    Term.(const run $ file_arg $ sched_arg)

(* ------------------------------- main ------------------------------ *)

let () =
  let doc =
    "Deadlock-freedom and safety of distributed locked transactions \
     (Wolfson & Yannakakis, PODS'85/JCSS'86)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ddlock" ~version:"1.0.0" ~doc)
          [
            validate_cmd;
            analyze_cmd;
            pair_cmd;
            copies_cmd;
            simulate_cmd;
            gen_cmd;
            sat_reduce_cmd;
            dot_cmd;
            recover_cmd;
            chaos_cmd;
            repair_cmd;
            minimize_cmd;
            replay_cmd;
            serve_cmd;
            request_cmd;
            top_cmd;
          ]))
