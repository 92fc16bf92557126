//! Chaos/soak sweep: randomized layered fault schedules (crashes,
//! zone failures, gray windows, partitions) driven through both fault
//! engines, asserting on every schedule the invariants the simulator
//! promises — conservation (`lost ≡ 0`), post-repair k-safety,
//! trace-fingerprint stability. The run *fails* (nonzero exit) on any
//! violation.
//!
//! `QCPA_CHAOS_RUNS` overrides the schedule count (default 64);
//! `scripts/check.sh --fast` smokes 8 schedules, the full tier sweeps
//! the default.

use qcpa_sim::chaos::{run_chaos, ChaosConfig};

use crate::harness::{self, Csv};

/// Sweeps randomized layered fault schedules and gates the invariants.
pub fn fig_chaos() -> std::io::Result<()> {
    println!("== Chaos: layered fault schedules vs. simulator invariants ==");
    let mut cfg = ChaosConfig::default();
    cfg.runs = harness::chaos_runs().unwrap_or(cfg.runs);
    let report = run_chaos(&cfg);

    let mut csv = Csv::create(
        "fig_chaos",
        &["runs", "schedules_with_faults", "violations"],
    )?;
    csv.meta("seed", cfg.seed);
    csv.meta("invariants", "conservation | k-safety | trace-stability");
    csv.row(&[
        report.runs.to_string(),
        report.schedules_with_faults.to_string(),
        report.violation_count.to_string(),
    ])?;

    println!(
        "{} schedules ({} with faults): {} violation(s)",
        report.runs, report.schedules_with_faults, report.violation_count
    );
    for v in &report.violations {
        eprintln!("VIOLATION: {v}");
    }
    println!("-> {}\n", csv.path().display());
    if !report.ok() {
        return Err(std::io::Error::other(format!(
            "{} chaos invariant violation(s)",
            report.violation_count
        )));
    }
    Ok(())
}
