let () =
  Alcotest.run "ddlock"
    [
      ("graph", Test_graph.suite);
      ("model", Test_model.suite);
      ("schedule", Test_schedule.suite);
      ("deadlock", Test_deadlock.suite);
      (* These two suite names are the ids the tests have always run
         under; the tests themselves live in test_schedule.ml. *)
      ("par", Test_schedule.hash_suite);
      ("fast", Test_schedule.arena_suite);
      ("sym", Test_sym.suite);
      ("por", Test_por.suite);
      ("safety", Test_safety.suite);
      ("conp", Test_conp.suite);
      ("sim", Test_sim.suite);
      ("workload", Test_workload.suite);
      ("faults", Test_faults.suite);
      ("core", Test_core.suite);
      ("policy", Test_policy.suite);
      ("rw", Test_rw.suite);
      ("semantics", Test_semantics.suite);
      ("edge", Test_edge.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
    ]
