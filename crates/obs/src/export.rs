//! Exporters: render a [`Snapshot`] (plus
//! optional run metadata and captured events) as JSON or CSV.
//!
//! `qcpa-obs` is dependency-free, so the JSON emission here is a small
//! hand-rolled writer (escaped strings, shortest-round-trip floats) —
//! enough for the `metrics.json` sidecars the bench harness drops next
//! to its CSVs.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::metrics::{HistogramSummary, Snapshot};
use crate::trace::Event;

// ---- JSON primitives -------------------------------------------------

pub(crate) fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = v.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no non-finite numbers; null keeps the document valid.
        out.push_str("null");
    }
}

fn json_histogram(s: &HistogramSummary, out: &mut String) {
    let _ = write!(out, "{{\"count\":{},\"mean\":", s.count);
    json_f64(s.mean, out);
    out.push_str(",\"min\":");
    json_f64(s.min, out);
    out.push_str(",\"max\":");
    json_f64(s.max, out);
    out.push_str(",\"p50\":");
    json_f64(s.p50, out);
    out.push_str(",\"p95\":");
    json_f64(s.p95, out);
    out.push_str(",\"p99\":");
    json_f64(s.p99, out);
    out.push_str(",\"p999\":");
    json_f64(s.p999, out);
    out.push('}');
}

// ---- snapshot -> JSON ------------------------------------------------

/// Renders a snapshot as a JSON object with `counters`, `gauges`,
/// `histograms` (summary objects), and `series` sections.
pub fn snapshot_to_json(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    write_snapshot_json(snapshot, &mut out);
    out
}

fn write_snapshot_json(snapshot: &Snapshot, out: &mut String) {
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        out.push(':');
        json_f64(*v, out);
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, v)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        out.push(':');
        json_histogram(v, out);
    }
    out.push_str("},\"series\":{");
    for (i, (k, vs)) in snapshot.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        out.push_str(":[");
        for (j, v) in vs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_f64(*v, out);
        }
        out.push(']');
    }
    out.push_str("}}");
}

// ---- snapshot -> CSV -------------------------------------------------

fn csv_field(s: &str, out: &mut String) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Renders a snapshot as long-form CSV with header
/// `kind,name,field,value` — one row per counter/gauge, one row per
/// histogram statistic, one row per series point (`field` = index).
pub fn snapshot_to_csv(snapshot: &Snapshot) -> String {
    let mut out = String::from("kind,name,field,value\n");
    for (k, v) in &snapshot.counters {
        out.push_str("counter,");
        csv_field(k, &mut out);
        let _ = writeln!(out, ",value,{v}");
    }
    for (k, v) in &snapshot.gauges {
        out.push_str("gauge,");
        csv_field(k, &mut out);
        let _ = writeln!(out, ",value,{v}");
    }
    for (k, s) in &snapshot.histograms {
        for (field, value) in [
            ("count", s.count as f64),
            ("mean", s.mean),
            ("min", s.min),
            ("max", s.max),
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
            ("p999", s.p999),
        ] {
            out.push_str("histogram,");
            csv_field(k, &mut out);
            let _ = writeln!(out, ",{field},{value}");
        }
    }
    for (k, vs) in &snapshot.series {
        for (i, v) in vs.iter().enumerate() {
            out.push_str("series,");
            csv_field(k, &mut out);
            let _ = writeln!(out, ",{i},{v}");
        }
    }
    out
}

// ---- events -> JSON --------------------------------------------------

/// Renders captured events as a JSON array (ts in seconds).
pub fn events_to_json(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ts\":");
        json_f64(e.ts.as_secs_f64(), &mut out);
        let _ = write!(out, ",\"level\":\"{}\",\"target\":", e.level.as_str());
        json_escape(e.target, &mut out);
        out.push_str(",\"name\":");
        json_escape(e.name, &mut out);
        out.push_str(",\"fields\":{");
        for (j, (k, v)) in e.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_escape(k, &mut out);
            out.push(':');
            match v {
                crate::trace::FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                crate::trace::FieldValue::I64(n) => {
                    let _ = write!(out, "{n}");
                }
                crate::trace::FieldValue::F64(x) => json_f64(*x, &mut out),
                crate::trace::FieldValue::Str(s) => json_escape(s, &mut out),
            }
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

// ---- metrics.json sidecar --------------------------------------------

/// Writes the `metrics.json` sidecar: a JSON object with a `meta`
/// section (string key/value pairs: seed, strategy, wall-time, git
/// SHA, ...), the registry `snapshot`, and any captured `events`.
///
/// # Errors
/// Propagates I/O errors from creating or writing the file.
pub fn write_metrics_json(
    path: &Path,
    meta: &[(&str, String)],
    snapshot: &Snapshot,
    events: &[Event],
) -> io::Result<()> {
    let mut out = String::from("{\"meta\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, &mut out);
        out.push(':');
        json_escape(v, &mut out);
    }
    out.push_str("},\"snapshot\":");
    write_snapshot_json(snapshot, &mut out);
    out.push_str(",\"events\":");
    out.push_str(&events_to_json(events));
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Best-effort current git commit SHA, read from `.git` metadata at or
/// above `start_dir` (no subprocess, works offline). `None` when not in
/// a git checkout.
pub fn git_sha(start_dir: &Path) -> Option<String> {
    let mut dir = Some(start_dir);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            if let Some(reference) = head.strip_prefix("ref: ") {
                if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
                    return Some(sha.trim().to_string());
                }
                // Packed refs fallback.
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                return packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string);
            }
            return Some(head.to_string());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::{FieldValue, Level};
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("etl.bytes_moved").add(1024);
        reg.gauge("backend.0.utilization").set(0.5);
        for i in 1..=100 {
            reg.observe("response_time", i as f64 * 0.01);
        }
        reg.push_series("memetic.best_fitness", 3.0);
        reg.push_series("memetic.best_fitness", 2.5);
        reg.snapshot()
    }

    #[test]
    fn json_contains_all_sections() {
        let json = snapshot_to_json(&sample_snapshot());
        assert!(json.contains("\"etl.bytes_moved\":1024"));
        assert!(json.contains("\"backend.0.utilization\":0.5"));
        assert!(json.contains("\"response_time\":{\"count\":100"));
        assert!(json.contains("\"memetic.best_fitness\":[3.0,2.5]"));
        // Structure sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_and_nonfinite() {
        let reg = Registry::new();
        reg.counter("weird\"name\n").inc();
        reg.gauge("inf").set(f64::INFINITY);
        let json = snapshot_to_json(&reg.snapshot());
        assert!(json.contains("\"weird\\\"name\\n\":1"));
        assert!(json.contains("\"inf\":null"));
    }

    #[test]
    fn csv_has_rows_for_every_metric() {
        let csv = snapshot_to_csv(&sample_snapshot());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,field,value");
        assert!(lines.contains(&"counter,etl.bytes_moved,value,1024"));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("histogram,response_time,p95,")));
        assert!(lines.contains(&"series,memetic.best_fitness,0,3"));
        // counter 1 + gauge 1 + histogram 8 + series 2 + header.
        assert_eq!(lines.len(), 1 + 1 + 1 + 8 + 2);
    }

    #[test]
    fn events_render_fields() {
        let events = vec![Event {
            ts: Duration::from_millis(1500),
            level: Level::Info,
            target: "autoscale",
            name: "scale_up",
            fields: vec![
                ("from", FieldValue::U64(2)),
                ("to", FieldValue::U64(4)),
                ("mean_response", FieldValue::F64(0.35)),
                ("why", FieldValue::Str("overload".into())),
            ],
        }];
        let json = events_to_json(&events);
        assert!(json.contains("\"target\":\"autoscale\""));
        assert!(json.contains("\"from\":2"));
        assert!(json.contains("\"mean_response\":0.35"));
        assert!(json.contains("\"why\":\"overload\""));
    }

    #[test]
    fn sidecar_writes_meta_snapshot_events() {
        let dir = std::env::temp_dir().join("qcpa_obs_test_sidecar");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_metrics_json(
            &path,
            &[
                ("seed", "42".to_string()),
                ("strategy", "memetic".to_string()),
            ],
            &sample_snapshot(),
            &[],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"seed\":\"42\""));
        assert!(text.contains("\"strategy\":\"memetic\""));
        assert!(text.contains("\"snapshot\":{\"counters\""));
        assert!(text.contains("\"events\":[]"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn git_sha_resolves_in_this_repo() {
        let cwd = std::env::current_dir().unwrap();
        if let Some(sha) = git_sha(&cwd) {
            assert!(sha.len() >= 7, "suspicious sha: {sha}");
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha}");
        }
    }
}
