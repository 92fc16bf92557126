//! Shared experiment plumbing: allocation strategies, multi-seed
//! statistics, journal jitter, CSV output.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Granularity;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::Journal;
use qcpa_core::memetic::{self, MemeticConfig};
use qcpa_core::random;
use qcpa_workloads::common::{classify_and_stream, ClassifiedWorkload};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// True when `QCPA_BENCH_QUICK` is set: the trajectory benches run their
/// small corner and append nothing.
#[expect(
    clippy::disallowed_methods,
    reason = "QCPA_BENCH_QUICK is the documented quick-corner knob"
)]
pub fn quick() -> bool {
    std::env::var_os("QCPA_BENCH_QUICK").is_some()
}

/// `QCPA_CHAOS_RUNS`, clamped to at least one schedule: how many
/// schedules `fig_chaos` sweeps. `None` when unset or unparsable.
#[expect(
    clippy::disallowed_methods,
    reason = "QCPA_CHAOS_RUNS is the documented chaos-sweep knob"
)]
pub fn chaos_runs() -> Option<usize> {
    std::env::var("QCPA_CHAOS_RUNS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|runs| runs.max(1))
}

/// Seconds for the fastest of `repeats` runs of `f` (min, the standard
/// wall-clock benchmark estimator: least noise-inflated), and the last
/// run's result.
#[expect(
    clippy::disallowed_methods,
    reason = "benchmarks measure host time by design"
)]
pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let start = std::time::Instant::now();
    let mut out = f();
    best = best.min(start.elapsed().as_secs_f64());
    for _ in 1..repeats {
        let start = std::time::Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// The allocation strategies compared throughout Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full replication: every backend stores everything.
    FullReplication,
    /// Table-based allocation (classification by tables, Algorithm 1 +
    /// memetic refinement).
    TableBased,
    /// Column-based allocation (classification by columns).
    ColumnBased,
    /// Random placement of column-based classes (Section 4.1 baseline).
    RandomColumn,
}

impl Strategy {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::FullReplication => "Full Replication",
            Strategy::TableBased => "Table Based Allocation",
            Strategy::ColumnBased => "Column Based Allocation",
            Strategy::RandomColumn => "Random Allocation",
        }
    }

    /// The classification granularity this strategy uses.
    pub fn granularity(&self) -> Granularity {
        match self {
            Strategy::FullReplication => Granularity::FullReplication,
            Strategy::TableBased => Granularity::Table,
            Strategy::ColumnBased | Strategy::RandomColumn => Granularity::Fragment,
        }
    }

    /// Classifies the journal per this strategy.
    pub fn classify(
        &self,
        journal: &Journal,
        catalog: &Catalog,
        cost_unit_secs: f64,
    ) -> ClassifiedWorkload {
        classify_and_stream(journal, catalog, self.granularity(), cost_unit_secs)
    }

    /// Computes the allocation for this strategy.
    pub fn allocate(
        &self,
        cw: &ClassifiedWorkload,
        catalog: &Catalog,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> Allocation {
        match self {
            Strategy::FullReplication => Allocation::full_replication(&cw.classification, cluster),
            Strategy::TableBased | Strategy::ColumnBased => {
                let cfg = MemeticConfig {
                    population: 9,
                    iterations: 30,
                    mutations_per_offspring: 2,
                    seed,
                    ..MemeticConfig::default()
                };
                memetic::allocate(&cw.classification, catalog, cluster, &cfg)
            }
            Strategy::RandomColumn => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                random::allocate(&cw.classification, cluster, &mut rng)
            }
        }
    }
}

/// Min/avg/max over seeds (the paper's 10-run deviation plots).
#[derive(Debug, Clone, Copy)]
pub struct SeedStats {
    /// Minimum over the runs.
    pub min: f64,
    /// Mean over the runs.
    pub avg: f64,
    /// Maximum over the runs.
    pub max: f64,
}

impl SeedStats {
    /// Computes stats over non-empty samples.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty());
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        Self { min, avg, max }
    }
}

/// Clones the journal with every query cost perturbed by
/// `exp(U(-amount, amount))` — models run-to-run variance in the
/// measured execution times the classification weights come from.
pub fn jitter_journal(journal: &Journal, amount: f64, rng: &mut ChaCha8Rng) -> Journal {
    let mut out = Journal::new();
    for e in journal.entries() {
        let mut q = e.query.clone();
        q.cost *= rng.gen_range(-amount..amount).exp();
        out.record_many(q, e.count);
    }
    out
}

/// Tiny CSV writer: creates `results/<name>.csv`, writes the header and
/// rows, and echoes nothing (experiments print their own tables).
///
/// On drop it also writes a `results/<name>.metrics.json` sidecar: the
/// experiment name, wall time, git SHA and any [`Csv::meta`] entries,
/// plus a snapshot of the global [`qcpa_obs`] registry and the captured
/// event stream. [`Csv::create`] resets the registry so each sidecar
/// covers exactly its own experiment, and enables `info`-level event
/// capture unless the user set `QCPA_LOG` themselves.
pub struct Csv {
    path: PathBuf,
    file: fs::File,
    started: std::time::Instant,
    meta: Vec<(String, String)>,
}

impl Csv {
    /// Creates `results/<name>.csv` (directories included) with the
    /// given header columns, and starts a fresh metrics capture for the
    /// sidecar.
    #[expect(
        clippy::disallowed_methods,
        reason = "QCPA_LOG is the documented event-filter knob; the run's host time goes in the \
                  sidecar"
    )]
    pub fn create(name: &str, header: &[&str]) -> std::io::Result<Self> {
        if std::env::var_os("QCPA_LOG").is_none() {
            qcpa_obs::set_filter("info");
        }
        qcpa_obs::global().reset();
        let _ = qcpa_obs::trace::drain_events();
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", header.join(","))?;
        Ok(Self {
            path,
            file,
            started: std::time::Instant::now(),
            meta: Vec::new(),
        })
    }

    /// Writes one row.
    pub fn row(&mut self, cells: &[String]) -> std::io::Result<()> {
        writeln!(self.file, "{}", cells.join(","))
    }

    /// Attaches a key/value pair (seed list, strategy, scale factor,
    /// ...) to the sidecar's `meta` section.
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// The file path (for the experiments' closing message).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for Csv {
    fn drop(&mut self) {
        let snapshot = qcpa_obs::global().snapshot();
        let events = qcpa_obs::trace::drain_events();
        let experiment = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut meta: Vec<(&str, String)> = vec![
            ("experiment", experiment),
            (
                "wall_time_secs",
                format!("{:.3}", self.started.elapsed().as_secs_f64()),
            ),
        ];
        if let Some(sha) = qcpa_obs::export::git_sha(std::path::Path::new(".")) {
            meta.push(("git_sha", sha));
        }
        for (k, v) in &self.meta {
            meta.push((k.as_str(), v.clone()));
        }
        let sidecar = self.path.with_extension("metrics.json");
        // Best effort: a failing sidecar must not fail the experiment.
        let _ = qcpa_obs::export::write_metrics_json(&sidecar, &meta, &snapshot, &events);
    }
}

/// Formats a float with 2 decimals for CSV cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 4 decimals for CSV cells.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_workloads::tpch::tpch;

    #[test]
    fn strategies_produce_valid_allocations() {
        let w = tpch(1.0);
        let journal = w.journal(100);
        let cluster = ClusterSpec::homogeneous(4);
        for s in [
            Strategy::FullReplication,
            Strategy::TableBased,
            Strategy::ColumnBased,
            Strategy::RandomColumn,
        ] {
            let cw = s.classify(&journal, &w.catalog, 0.2);
            let alloc = s.allocate(&cw, &w.catalog, &cluster, 1);
            alloc
                .validate(&cw.classification, &cluster)
                .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
        }
    }

    #[test]
    fn seed_stats() {
        let s = SeedStats::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn jitter_preserves_structure() {
        let w = tpch(1.0);
        let j = w.journal(10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let jj = jitter_journal(&j, 0.1, &mut rng);
        assert_eq!(jj.distinct(), j.distinct());
        assert_eq!(jj.total(), j.total());
        assert!((jj.total_work() / j.total_work() - 1.0).abs() < 0.2);
    }
}
