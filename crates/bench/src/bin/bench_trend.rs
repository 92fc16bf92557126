//! Bench-trajectory gate: diffs the last two comparable entries of each
//! `BENCH_*.json` history (see `qcpa_bench::history`) and exits nonzero
//! when a tracked metric regressed past its trend's tolerance.
//!
//! Tracked trajectories:
//!
//! * `BENCH_allocator.json` — `timings_secs.delta` (wall seconds,
//!   lower is better, 20% tolerance), plus the speedup ratio
//!   `speedups.delta_vs_baseline` (higher is better, 15% tolerance).
//!   Comparable when population / iterations / quick mode / `series`
//!   all match; entries without a `series` predate the serial engine
//!   and compare with nothing new.
//! * `BENCH_sim.json` — `events_per_sec` (higher is better, 20%
//!   tolerance), comparable when duration / rate / quick mode match.
//!
//! Fewer than two comparable entries (fresh clone, first run after a
//! config change) passes with a note — the gate only ever compares
//! like with like. `scripts/check.sh` runs this in the fast tier.

use std::path::Path;

use qcpa_bench::history::{get, get_f64, last_two, load_history};
use serde::Value;

/// Applies a trend's producer filter to the loaded history.
fn select(history: &[Value], filter: Option<&Filter>) -> Vec<Value> {
    let Some(f) = filter else {
        return history.to_vec();
    };
    history
        .iter()
        .filter(|e| {
            let mut cur = Some(*e);
            for key in f.path {
                cur = cur.and_then(|v| get(v, key));
            }
            match cur {
                Some(Value::Str(s)) => s == f.value,
                Some(_) => false,
                None => f.missing_matches,
            }
        })
        .cloned()
        .collect()
}

/// Comparability keys of the allocator trajectory.
const ALLOCATOR_KEYS: &[&[&str]] = &[
    &["config", "quick"],
    &["config", "population"],
    &["config", "iterations"],
    &["config", "series"],
];

/// Restricts a trend to the history entries of one producer when
/// several benches append into the same file (`BENCH_sim.json` holds
/// both `bench_sim` and `fig_resilience` rows).
struct Filter {
    path: &'static [&'static str],
    value: &'static str,
    /// Whether entries without the field count as matching — `true`
    /// keeps pre-tag entries comparable for the bench that historically
    /// owned the file.
    missing_matches: bool,
}

struct Trend {
    file: &'static str,
    metric: &'static [&'static str],
    /// `true` when larger metric values are better (throughput,
    /// speedup ratios); `false` for wall-clock seconds.
    higher_is_better: bool,
    /// Allowed relative loss between consecutive comparable runs.
    tolerance: f64,
    keys: &'static [&'static [&'static str]],
    filter: Option<Filter>,
}

const TRENDS: &[Trend] = &[
    Trend {
        file: "BENCH_allocator.json",
        metric: &["timings_secs", "delta"],
        higher_is_better: false,
        tolerance: 0.20,
        keys: ALLOCATOR_KEYS,
        filter: None,
    },
    Trend {
        file: "BENCH_allocator.json",
        metric: &["speedups", "delta_vs_baseline"],
        higher_is_better: true,
        tolerance: 0.15,
        keys: ALLOCATOR_KEYS,
        filter: None,
    },
    Trend {
        file: "BENCH_sim.json",
        metric: &["events_per_sec"],
        higher_is_better: true,
        tolerance: 0.20,
        keys: &[
            &["config", "quick"],
            &["config", "target_events"],
            &["config", "rate_per_backend"],
        ],
        // Entries predating the producer tag are bench_sim rows.
        filter: Some(Filter {
            path: &["config", "bench"],
            value: "bench_sim",
            missing_matches: true,
        }),
    },
    // Resilience-path goodput: the fig_resilience canonical cell
    // (highest rate × Reject). Gates retry/breaker/admission overhead.
    Trend {
        file: "BENCH_sim.json",
        metric: &["goodput_rps"],
        higher_is_better: true,
        tolerance: 0.20,
        keys: &[
            &["config", "quick"],
            &["config", "seed"],
            &["config", "rate_mult"],
            &["config", "policy"],
        ],
        filter: Some(Filter {
            path: &["config", "bench"],
            value: "fig_resilience",
            missing_matches: false,
        }),
    },
];

/// Checks one trajectory; returns `Err(reason)` on regression.
fn check(trend: &Trend, history: &[Value]) -> Result<String, String> {
    let metric_name = trend.metric.join(".");
    let Some((prev, newest)) = last_two(history, trend.keys) else {
        return Ok(format!(
            "{}: {} entr{}, <2 comparable — nothing to diff",
            trend.file,
            history.len(),
            if history.len() == 1 { "y" } else { "ies" }
        ));
    };
    let (Some(a), Some(b)) = (get_f64(prev, trend.metric), get_f64(newest, trend.metric)) else {
        return Ok(format!(
            "{}: {metric_name} missing in an entry — skipping",
            trend.file
        ));
    };
    if a <= 0.0 || b <= 0.0 {
        return Ok(format!(
            "{}: non-positive {metric_name} ({a} -> {b}) — skipping",
            trend.file
        ));
    }
    // Express both directions as a ratio ≥/≤ 1 (bigger = better).
    let ratio = if trend.higher_is_better { b / a } else { a / b };
    let verdict = format!(
        "{}: {metric_name} {a:.4} -> {b:.4} (x{ratio:.3}, tolerance {:.0}%)",
        trend.file,
        trend.tolerance * 100.0
    );
    if ratio < 1.0 - trend.tolerance {
        Err(format!(
            "{verdict} — REGRESSION beyond {:.0}% tolerance",
            trend.tolerance * 100.0
        ))
    } else {
        Ok(verdict)
    }
}

fn main() -> std::io::Result<()> {
    println!("== Bench trajectory gate ==");
    let mut failures = 0usize;
    for trend in TRENDS {
        let path = Path::new(trend.file);
        if !path.exists() {
            println!("{}: absent — skipping", trend.file);
            continue;
        }
        let history = select(&load_history(path)?, trend.filter.as_ref());
        match check(trend, &history) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(std::io::Error::other(format!(
            "{failures} bench trajector{} regressed",
            if failures == 1 { "y" } else { "ies" }
        )));
    }
    println!("trajectories healthy");
    Ok(())
}
