//! # qcpa-bench
//!
//! The experiment harness: one command per table and figure of the
//! paper's evaluation (Section 4 and 5), the ablation studies, and the
//! bench trajectories. Each paper experiment prints the same
//! rows/series the paper reports and writes a CSV under `results/`.
//!
//! Run one with `cargo run --release -p qcpa-bench -- <name>`; with no
//! name, or an unknown one, the binary prints [`COMMANDS`] and exits
//! nonzero.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod harness;
pub mod history;

pub use harness::{Csv, SeedStats, Strategy};

use experiments::{
    ablations, allocbench, autoscale, balance, chaos, faults, resilience, simbench, tables, tpcapp,
    tpch,
};

/// One row of [`COMMANDS`]: name (also the CSV id and `results/` file
/// stem), one-line description, entry point.
pub type Command = (&'static str, &'static str, fn() -> std::io::Result<()>);

/// Every command. The rows before `run_all` are the paper's tables,
/// figures and ablations in the order `run_all` runs them; the rows
/// after it are the bench trajectories.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    ("tab_readonly_example", "§3 read-only example load tables", tables::tab_readonly),
    ("tab_appendix_example", "Appendix A worked example", tables::tab_appendix),
    ("fig4a_tpch_throughput", "Fig. 4(a) TPC-H throughput and speedup", tpch::fig4a),
    ("fig4b_tpch_deviation", "Fig. 4(b) TPC-H throughput deviation", tpch::fig4b),
    ("fig4c_tpch_replication", "Fig. 4(c) TPC-H degree of replication (incl. optimal)", tpch::fig4c),
    ("fig4d_tpch_alloc_time", "Fig. 4(d) TPC-H allocation duration", tpch::fig4d),
    ("fig4e_tpch_scaling", "Fig. 4(e) TPC-H scaling at SF 1 and SF 10", tpch::fig4e),
    ("fig4f_tpcapp_speedup", "Fig. 4(f) TPC-App speedup (+ Eq. 29/30)", tpcapp::fig4f),
    ("fig4g_tpcapp_throughput", "Fig. 4(g) TPC-App throughput", tpcapp::fig4g),
    ("fig4h_tpcapp_deviation", "Fig. 4(h) TPC-App throughput deviation", tpcapp::fig4h),
    ("fig4i_tpcapp_large", "Fig. 4(i) TPC-App large scale", tpcapp::fig4i),
    ("fig4j_load_balance", "Fig. 4(j) load balance TPC-H vs TPC-App", balance::fig4j),
    ("fig4k_replication_hist_table", "Fig. 4(k) replication histogram (tables)", balance::fig4k),
    ("fig4l_replication_hist_column", "Fig. 4(l) replication histogram (columns)", balance::fig4l),
    ("fig5_autoscale_nodes", "§5 active servers vs workload", autoscale::fig5_nodes),
    ("fig5_autoscale_response", "§5 response time with vs without scaling", autoscale::fig5_response),
    ("fig6_class_distribution", "§5 Fig. 6 query-class mix over a day", autoscale::fig6),
    ("ablation_partitioning", "ablation: table vs predicate granularity, hot/cold ranges", ablations::partitioning),
    ("ablation_memetic_gain", "ablation: memetic refinement vs plain greedy", ablations::memetic_gain),
    ("ablation_propagation", "ablation: ROWA vs primary-copy vs lazy propagation", ablations::propagation),
    ("ablation_robustness", "ablation: speedup under weight drift, plain vs robustified", ablations::robustness),
    ("ablation_ksafety_cost", "ablation: the cost of k-safety", ablations::ksafety_cost),
    ("ablation_heterogeneous", "ablation: equal vs uneven backends, same total capacity", ablations::heterogeneous),
    ("fig_fault_availability", "availability and response time under faults", faults::fig_fault_availability),
    ("fig_resilience", "goodput per overload policy under faults; fails on a lost request", resilience::fig_resilience),
    ("fig_chaos", "chaos soak of layered fault schedules; fails on a violation", chaos::fig_chaos),
    ("run_all", "every row above, in order", run_all),
    ("bench_allocator", "allocator speedup and phase profile (BENCH_allocator.json)", allocbench::run),
    ("bench_sim", "simulator events/s at 16-256 backends (BENCH_sim.json)", simbench::run),
    ("bench_trend", "bench-trajectory gate: fails on a regression past tolerance", history::trend),
];

/// The row named `name`.
#[must_use]
pub fn command(name: &str) -> Option<Command> {
    COMMANDS.iter().copied().find(|c| c.0 == name)
}

/// The command table as `name  description` lines.
#[must_use]
pub fn listing() -> String {
    let width = COMMANDS.iter().map(|c| c.0.len()).max().unwrap_or(0);
    COMMANDS
        .iter()
        .map(|(name, about, _)| format!("  {name:width$}  {about}\n"))
        .collect()
}

/// Runs every paper experiment in table order (the full evaluation).
///
/// # Errors
/// The first experiment's failure.
pub fn run_all() -> std::io::Result<()> {
    for (_, _, run) in COMMANDS.iter().take_while(|c| c.0 != "run_all") {
        run()?;
    }
    println!("All experiments done; CSVs in results/.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_run_all_is_a_row() {
        let names: std::collections::BTreeSet<&str> = COMMANDS.iter().map(|c| c.0).collect();
        assert_eq!(names.len(), COMMANDS.len());
        assert!(command("run_all").is_some());
    }
}
