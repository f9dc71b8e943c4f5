(** Umbrella module: the full public API of the library.

    - {!Analysis} — one-call verdicts (start here);
    - {!Model} — schemas, transactions, systems, parser and builder DSL;
    - {!Sched} — schedules, serialization digraphs, exhaustive exploration;
    - {!Deadlock} — reduction graphs, deadlock prefixes, Tirri baseline;
    - {!Safety} — Lemma 2, Theorem 3, minimal-prefix, copies, Theorem 4;
    - {!Conp} — 3SAT′, DPLL, CNF normalization, the Theorem 2 reduction;
    - {!Semantics} — action nodes and Herbrand-term schedule semantics;
    - {!Sim} — the discrete-event multi-site runtime and recovery schemes;
    - {!Rw} — shared/exclusive lock modes and their runtime;
    - {!Obs} — telemetry: metrics registry, span tracing, trace export;
    - {!Workload} — generators and the paper's figures;
    - {!Dot} — Graphviz export;
    - {!Minimize} — deadlock-witness minimization;
    - {!Graph} — the graph substrate. *)

module Graph = Ddlock_graph
module Model = Ddlock_model
module Sched = Ddlock_schedule
module Deadlock = Ddlock_deadlock
module Safety = Ddlock_safety
module Conp = Ddlock_conp
module Sim = Ddlock_sim
module Workload = Ddlock_workload
module Rw = Ddlock_rw
module Semantics = Ddlock_semantics
module Obs = Ddlock_obs
module Analysis = Analysis
module Dot = Dot
module Minimize = Minimize
