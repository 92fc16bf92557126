//! Bench-trajectory history files (`BENCH_*.json` at the repo root).
//!
//! Schema v2 turns each summary file into an append-only trajectory:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "bench": "bench_allocator",
//!   "history": [ { ...run summary... }, { ... } ]
//! }
//! ```
//!
//! Each entry is one run's summary object (the bench defines its own
//! fields); entries append in run order, so the file is the per-PR
//! trajectory of the bench and [`trend`] can diff the last two
//! *comparable* entries (same key fields — quick mode, series, cluster
//! size) and fail on a throughput regression.
//!
//! A v1 file — the single flat run object `bench_allocator` used to
//! write — is migrated transparently on load: the old object becomes
//! `history[0]`, so no trajectory data is lost at the schema bump.

use std::io;
use std::path::Path;

use serde::Value;

/// Current schema version of the history envelope.
pub const SCHEMA_VERSION: u64 = 2;

/// Looks up `key` in an object `Value`; `None` for non-objects.
#[must_use]
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, val)| val)
}

/// Follows a path of object keys and coerces the leaf to `f64`
/// (`U64`/`I64`/`F64` all count).
#[must_use]
pub fn get_f64(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = get(cur, key)?;
    }
    match cur {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Whether two entries are comparable for trend purposes: every `keys`
/// path present in either must be equal in both.
#[must_use]
pub fn comparable(a: &Value, b: &Value, keys: &[&[&str]]) -> bool {
    keys.iter().all(|path| {
        let mut va = Some(a);
        let mut vb = Some(b);
        for key in *path {
            va = va.and_then(|v| get(v, key));
            vb = vb.and_then(|v| get(v, key));
        }
        va == vb
    })
}

/// Loads the history entries of a `BENCH_*.json` file: `[]` when the
/// file is missing, `history` when it is a v2 envelope, and a
/// single-entry vector when it is a v1 flat run object (the migration
/// path).
///
/// # Errors
/// I/O failures reading the file, or a parse failure on its contents.
pub fn load_history(path: &Path) -> io::Result<Vec<Value>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path)?;
    let v = serde_json::parse_value_str(&text)
        .map_err(|e| io::Error::other(format!("{}: {e:?}", path.display())))?;
    let version = get_f64(&v, &["schema_version"]).unwrap_or(1.0);
    if version >= 2.0 {
        let hist = get(&v, "history")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                io::Error::other(format!("{}: v2 envelope without history", path.display()))
            })?;
        Ok(hist.to_vec())
    } else {
        // v1: the whole file is one run summary.
        Ok(vec![v])
    }
}

/// Appends `entry` to `path`'s history (migrating v1 files) and writes
/// the v2 envelope back. Returns the new history length.
///
/// # Errors
/// I/O failures, or a parse failure on an existing corrupt file.
pub fn append_entry(path: &Path, bench: &str, entry: Value) -> io::Result<usize> {
    let mut history = load_history(path)?;
    history.push(entry);
    let n = history.len();
    let envelope = Value::Object(vec![
        ("schema_version".to_string(), Value::U64(SCHEMA_VERSION)),
        ("bench".to_string(), Value::Str(bench.to_string())),
        ("history".to_string(), Value::Array(history)),
    ]);
    let json =
        serde_json::to_string_pretty(&envelope).map_err(|e| io::Error::other(format!("{e:?}")))?;
    std::fs::write(path, json + "\n")?;
    Ok(n)
}

/// The last two comparable entries of a history, newest last: the pair
/// `bench_trend` diffs. `None` when fewer than two comparable entries
/// exist.
#[must_use]
pub fn last_two<'v>(history: &'v [Value], keys: &[&[&str]]) -> Option<(&'v Value, &'v Value)> {
    let newest = history.last()?;
    let prev = history[..history.len() - 1]
        .iter()
        .rev()
        .find(|e| comparable(e, newest, keys))?;
    Some((prev, newest))
}

/// The entries of `history` that `producer` appended, by their
/// `config.bench` tag; all of them for `None`. Untagged entries predate
/// the tag and belong to `bench_sim`, the file's first producer.
fn select(history: &[Value], producer: Option<&str>) -> Vec<Value> {
    let Some(producer) = producer else {
        return history.to_vec();
    };
    history
        .iter()
        .filter(|e| match get(e, "config").and_then(|c| get(c, "bench")) {
            Some(Value::Str(s)) => s == producer,
            Some(_) => false,
            None => producer == "bench_sim",
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

struct Trend {
    file: &'static str,
    metric: &'static [&'static str],
    /// `true` when larger metric values are better (throughput,
    /// speedup ratios); `false` for wall-clock seconds.
    higher_is_better: bool,
    /// Allowed relative loss between consecutive comparable runs.
    tolerance: f64,
    keys: &'static [&'static [&'static str]],
    /// The producer whose entries the trend compares, when several
    /// append into one file (`BENCH_sim.json` holds both `bench_sim`
    /// and `fig_resilience` rows).
    producer: Option<&'static str>,
}

const TRENDS: &[Trend] = &[
    Trend {
        file: "BENCH_allocator.json",
        metric: &["timings_secs", "delta"],
        higher_is_better: false,
        tolerance: 0.20,
        keys: ALLOCATOR_KEYS,
        producer: None,
    },
    Trend {
        file: "BENCH_allocator.json",
        metric: &["speedups", "delta_vs_baseline"],
        higher_is_better: true,
        tolerance: 0.15,
        keys: ALLOCATOR_KEYS,
        producer: None,
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
        producer: Some("bench_sim"),
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
        producer: Some("fig_resilience"),
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

/// The bench-trajectory gate: diffs the last two comparable entries of
/// each tracked `BENCH_*.json` trajectory and fails when a metric
/// regressed past its tolerance. Fewer than two comparable entries
/// (fresh clone, first run after a config change) passes with a note,
/// so the gate only ever compares like with like.
///
/// Tracked trajectories:
///
/// * `BENCH_allocator.json`: `timings_secs.delta` (wall seconds, lower
///   is better, 20% tolerance), plus the speedup ratio
///   `speedups.delta_vs_baseline` (higher is better, 15% tolerance).
///   Comparable when population / iterations / quick mode / `series`
///   all match; entries without a `series` predate the serial engine
///   and compare with nothing new.
/// * `BENCH_sim.json`: `events_per_sec` (higher is better, 20%
///   tolerance), comparable when duration / rate / quick mode match,
///   and `fig_resilience`'s canonical-cell `goodput_rps`.
///
/// # Errors
/// I/O or parse failures, or a regressed trajectory.
pub fn trend() -> io::Result<()> {
    println!("== Bench trajectory gate ==");
    let mut failures = 0usize;
    for trend in TRENDS {
        let path = Path::new(trend.file);
        if !path.exists() {
            println!("{}: absent — skipping", trend.file);
            continue;
        }
        let history = select(&load_history(path)?, trend.producer);
        match check(trend, &history) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(io::Error::other(format!(
            "{failures} bench trajector{} regressed",
            if failures == 1 { "y" } else { "ies" }
        )));
    }
    println!("trajectories healthy");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(quick: bool, eps: f64) -> Value {
        Value::Object(vec![
            (
                "config".to_string(),
                Value::Object(vec![("quick".to_string(), Value::Bool(quick))]),
            ),
            ("events_per_sec".to_string(), Value::F64(eps)),
        ])
    }

    #[test]
    fn v1_files_migrate_to_history_zero() {
        let dir = std::env::temp_dir().join("qcpa_history_test_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        std::fs::write(&path, "{\"speedup\": 2.0}\n").unwrap();
        let hist = load_history(&path).unwrap();
        assert_eq!(hist.len(), 1);
        assert_eq!(get_f64(&hist[0], &["speedup"]), Some(2.0));

        let n = append_entry(&path, "bench_x", entry(false, 10.0)).unwrap();
        assert_eq!(n, 2);
        let reread = load_history(&path).unwrap();
        assert_eq!(reread.len(), 2);
        assert_eq!(get_f64(&reread[0], &["speedup"]), Some(2.0));
        assert_eq!(get_f64(&reread[1], &["events_per_sec"]), Some(10.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn last_two_skips_incomparable_entries() {
        let hist = vec![entry(false, 10.0), entry(true, 3.0), entry(false, 9.0)];
        let keys: &[&[&str]] = &[&["config", "quick"]];
        let (prev, newest) = last_two(&hist, keys).unwrap();
        assert_eq!(get_f64(prev, &["events_per_sec"]), Some(10.0));
        assert_eq!(get_f64(newest, &["events_per_sec"]), Some(9.0));
        assert!(last_two(&hist[..1], keys).is_none());
        let mixed = vec![entry(true, 3.0), entry(false, 9.0)];
        assert!(last_two(&mixed, keys).is_none());
    }
}
