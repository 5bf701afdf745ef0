let () =
  Alcotest.run "mdd"
    (Test_rng.suite @ Test_bitvec.suite @ Test_stats.suite @ Test_table.suite
   @ Test_logic.suite @ Test_gate.suite @ Test_netlist.suite @ Test_builder.suite
   @ Test_bench_io.suite @ Test_generators.suite @ Test_pattern.suite
   @ Test_logic_sim.suite @ Test_ternary_sim.suite @ Test_fault_sim.suite
   @ Test_fault_list.suite @ Test_defect.suite @ Test_injection.suite
   @ Test_podem.suite @ Test_tpg.suite @ Test_datalog.suite
   @ Test_explain.suite @ Test_slat.suite @ Test_scoring.suite @ Test_noassume.suite
   @ Test_single_diag.suite @ Test_slat_diag.suite @ Test_metrics.suite
   @ Test_campaign.suite @ Test_tables.suite @ Test_dict_diag.suite @ Test_layout.suite
   @ Test_verilog_io.suite @ Test_exact_cover.suite @ Test_hitting_set.suite
   @ Test_invariants.suite @ Test_report.suite
   @ Test_parallel.suite @ Test_kernel_oracle.suite @ Test_prune_oracle.suite
   @ Test_session.suite @ Test_sig_store.suite @ Test_design.suite
   @ Test_store_file.suite
   @ Test_obs.suite)
