//! Turning a run into its outputs: derived metrics (percentiles, span
//! self times), provenance, the metric table on stderr, the files under
//! `benchmark/out/`, and the one-line JSON result on stdout.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::pipeline::{Config, Ctx};
use crate::stats::{median, percentile};
use crate::{Args, Outcome};

/// Pooled closed-loop latencies of every untraced iteration.
pub fn latency_metrics(ctx: &mut Ctx, latencies: &[(bool, f64)]) {
    let of = |write: bool| -> Vec<f64> {
        latencies
            .iter()
            .filter(|(w, _)| *w == write)
            .map(|&(_, us)| us)
            .collect()
    };
    let all: Vec<f64> = latencies.iter().map(|&(_, us)| us).collect();
    let m = &mut ctx.metrics;
    m.push("serve.samples", "count", all.len() as f64);
    m.push("serve_p50_us", "us", percentile(&all, 0.50));
    m.push("serve_p99_us", "us", percentile(&all, 0.99));
    m.push("controller.execute.p999_us", "us", percentile(&all, 0.999));
    for (kind, write) in [("read", false), ("write", true)] {
        let v = of(write);
        if v.is_empty() {
            continue;
        }
        m.push(
            &format!("controller.execute.{kind}.p50_us"),
            "us",
            percentile(&v, 0.50),
        );
        m.push(
            &format!("controller.execute.{kind}.p99_us"),
            "us",
            percentile(&v, 0.99),
        );
    }
}

/// Per-layer busy time (span self time) and call counts of every traced
/// iteration, the share of `pipeline_s` the layer spans account for, and
/// what recording them cost.
pub fn layer_metrics(ctx: &mut Ctx, plain_pipeline_s: &[f64], traced_pipeline_s: &[f64]) {
    let totals = ctx.rec.totals();
    let m = &mut ctx.metrics;
    for layers in totals.values() {
        let pipeline = layers["bench.pipeline"];
        let mut glue = 0.0;
        let mut spans = 0u64;
        for (name, t) in layers {
            spans += t.calls;
            if name.starts_with("bench.") {
                if *name != "bench.setup" {
                    glue += t.self_s;
                }
                continue;
            }
            m.push(&format!("{name}.busy_s"), "s", t.self_s);
            m.push(&format!("{name}.calls"), "count", t.calls as f64);
            if matches!(*name, "core.memetic" | "core.coarsen" | "core.ksafety") {
                m.push("core.allocate.busy_s", "s", t.self_s);
            }
        }
        m.push(
            "bench.attributed_frac",
            "ratio",
            1.0 - glue / pipeline.total_s,
        );
        m.push("obs.trace.spans", "count", spans as f64);
    }
    if !plain_pipeline_s.is_empty() && !traced_pipeline_s.is_empty() {
        m.push(
            "bench.trace_overhead_pct",
            "%",
            (median(traced_pipeline_s) / median(plain_pipeline_s) - 1.0) * 100.0,
        );
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn provenance(cfg: &Config, info: &Args, outcome: &Outcome) -> Value {
    obj(vec![
        ("workload", Value::Str(cfg.name.into())),
        ("seed", Value::U64(info.seed)),
        ("seconds", Value::F64(info.seconds)),
        ("trace", Value::Bool(info.trace)),
        ("smoke", Value::Bool(info.smoke)),
        ("iterations", Value::U64(outcome.iterations as u64)),
        (
            "traced_iterations",
            Value::U64(outcome.traced_iterations as u64),
        ),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu", Value::Str(cpu_model())),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_sha",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("sizes", Value::Str(format!("{cfg:?}"))),
    ])
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Result<Vec<String>, String> {
    let beside_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&beside_manifest))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let root = serde_json::parse_value_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.as_array())
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|entry| {
            entry
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "name"))
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .ok_or(format!("`{key}` entry without a name"))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Final metrics, the table, the files and the result line. `Err` when
/// any check failed or a declared metric was not measured.
pub fn finish(ctx: &mut Ctx, cfg: &Config, info: &Args, outcome: Outcome) -> Result<(), String> {
    let m = &mut ctx.metrics;
    m.push("cluster_speedup", "ratio", outcome.simulated.speedup);
    m.push(
        "cluster_sustained_rps",
        "1/s",
        outcome.simulated.sustained_rps,
    );
    m.push("cluster_p95_ms", "ms", outcome.simulated.p95_ms);
    m.push(
        "replication_degree",
        "ratio",
        outcome.simulated.replication_degree,
    );
    m.push(
        "cluster_goodput_frac",
        "ratio",
        outcome.simulated.goodput_frac,
    );
    if let Some(mb) = peak_rss_mb() {
        m.push("peak_rss_mb", "MB", mb);
    }

    // The table: every metric by name with unit and sample count.
    eprintln!("# {}", cfg.name);
    eprintln!(
        "# seed {} · {} iterations ({} traced) · {} s measured{}",
        info.seed,
        outcome.iterations,
        outcome.traced_iterations,
        info.seconds,
        if info.smoke {
            " · SMOKE sizes, not comparable"
        } else {
            ""
        }
    );
    eprintln!(
        "{:<44} {:>16} {:<8} {:>4} {:>14} {:>14}",
        "metric", "median", "unit", "n", "q1", "q3"
    );
    for (name, metric) in &ctx.metrics.by_name {
        let (q1, q3) = metric.quartiles();
        eprintln!(
            "{name:<44} {:>16.6} {:<8} {:>4} {q1:>14.6} {q3:>14.6}",
            metric.value(),
            metric.unit,
            metric.samples.len()
        );
    }
    for f in &ctx.failures {
        eprintln!("CHECK FAILED: {f}");
    }

    let metric_value = |name: &str| -> Option<Value> {
        let metric = ctx.metrics.by_name.get(name)?;
        Some(obj(vec![
            ("value", Value::F64(metric.value())),
            ("unit", Value::Str(metric.unit.into())),
        ]))
    };

    // Files: the full table with provenance and, for a traced run, the
    // spans of the last traced iteration.
    let dir = out_dir();
    let write = |file: String, text: String| -> Result<(), String> {
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(&file), text))
            .map_err(|e| format!("{}: {e}", dir.join(file).display()))
    };
    let prov = provenance(cfg, info, &outcome);
    let all: Vec<(String, Value)> = ctx
        .metrics
        .by_name
        .iter()
        .map(|(name, metric)| {
            let (q1, q3) = metric.quartiles();
            (
                name.clone(),
                obj(vec![
                    ("value", Value::F64(metric.value())),
                    ("unit", Value::Str(metric.unit.into())),
                    ("n", Value::U64(metric.samples.len() as u64)),
                    ("q1", Value::F64(q1)),
                    ("q3", Value::F64(q3)),
                ]),
            )
        })
        .collect();
    let suffix = if info.trace { "traced" } else { "untraced" };
    let doc = obj(vec![
        ("provenance", prov.clone()),
        ("attempted", Value::U64(ctx.attempted)),
        ("failed", Value::U64(ctx.failed)),
        ("metrics", Value::Object(all)),
    ]);
    write(
        format!("{}.{suffix}.metrics.json", cfg.name),
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?,
    )?;
    if let Some(run) = outcome.last_traced_run {
        write(
            format!("{}.trace.json", cfg.name),
            format!(
                "{{\"provenance\":{},\n\"time_unit\":\"ns\",\n\"spans\":[\n{}\n]}}\n",
                serde_json::to_string(&prov).map_err(|e| e.to_string())?,
                ctx.rec.run_json(run)
            ),
        )?;
    }

    // The result line: exactly the declared metrics of this mode.
    let names = declared(if info.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let mut missing = Vec::new();
    let mut selected = Vec::new();
    for name in names {
        match metric_value(&name) {
            Some(v) => selected.push((name, v)),
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        return Err(format!("declared metrics not measured: {missing:?}"));
    }
    let correct = ctx.failed == 0;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(ctx.attempted)),
        ("failed".into(), Value::U64(ctx.failed)),
        ("metrics".into(), Value::Object(selected)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{} of {} checked operations failed",
            ctx.failed, ctx.attempted
        ))
    }
}
