//! # qcpa-bench
//!
//! The experiment harness: one binary per table and figure of the
//! paper's evaluation (Section 4 and 5). Each binary prints the same
//! rows/series the paper reports and writes a CSV under `results/`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig4a_tpch_throughput` | Fig. 4(a) TPC-H throughput & speedup |
//! | `fig4b_tpch_deviation` | Fig. 4(b) TPC-H throughput deviation |
//! | `fig4c_tpch_replication` | Fig. 4(c) degree of replication (incl. optimal) |
//! | `fig4d_tpch_alloc_time` | Fig. 4(d) allocation duration |
//! | `fig4e_tpch_scaling` | Fig. 4(e) TPC-H scaling SF1/SF10 |
//! | `fig4f_tpcapp_speedup` | Fig. 4(f) TPC-App speedup (+ Eq. 29/30) |
//! | `fig4g_tpcapp_throughput` | Fig. 4(g) TPC-App throughput |
//! | `fig4h_tpcapp_deviation` | Fig. 4(h) TPC-App deviation |
//! | `fig4i_tpcapp_large` | Fig. 4(i) TPC-App large scale |
//! | `fig4j_load_balance` | Fig. 4(j) load balance TPC-H vs TPC-App |
//! | `fig4k_replication_hist_table` | Fig. 4(k) replication histogram (tables) |
//! | `fig4l_replication_hist_column` | Fig. 4(l) replication histogram (columns) |
//! | `fig5_autoscale_nodes` | §5 active servers vs workload |
//! | `fig5_autoscale_response` | §5 response time with/without scaling |
//! | `fig6_class_distribution` | §5 Fig. 6 class mix over a day |
//! | `fig_fault_availability` | failure timeline: nodes available & response under faults |
//! | `tab_readonly_example` | §3 read-only example load tables |
//! | `tab_appendix_example` | Appendix A worked example |
//! | `bench_allocator` | allocator-engine wall-clock speedup + phase profile (BENCH_allocator.json) |
//! | `bench_sim` | simulator open-loop events/sec at 16–256 backends (BENCH_sim.json) |
//! | `bench_trend` | bench-trajectory gate: fails on >20% throughput regression |
//! | `trace_smoke` | trace/profile exporter smoke: byte-stable, parseable output |
//! | `run_all` | everything above in sequence |

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod harness;
pub mod history;

pub use harness::{Csv, SeedStats, Strategy};
