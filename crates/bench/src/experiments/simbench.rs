//! Simulator throughput trajectory bench (`bench_sim`): wall-clock
//! events/sec of the open-loop driver [`qcpa_sim::run_open`] at 16, 64
//! and 256 backends, plus the measured cost of compiled-in-but-disabled
//! tracing (`QCPA_TRACE_SAMPLE=0`, the always-on production setting).
//!
//! The workload is the TPC-App mix column-classified (as in
//! `bench_allocator`); arrivals are Poisson at a fixed per-backend
//! rate, so the simulated work grows linearly with the cluster and the
//! events/sec figure isolates the *simulator's* processing rate, not
//! the cluster's.
//!
//! Outputs:
//! * `results/bench_sim.csv` + metrics sidecar (the sidecar carries
//!   `bench.sim.trace_off_overhead_pct` — the budget is ≤ 1%);
//! * `results/bench_sim.trace.json` — a fully sampled
//!   (`rate = 1.0`) Perfetto trace of the 16-backend run;
//! * an entry appended to `BENCH_sim.json` (schema v2 history, see
//!   [`crate::history`]), keyed by quick mode / duration / rate so
//!   `bench_trend` only diffs comparable runs.
//!
//! `QCPA_BENCH_QUICK=1` shrinks the observation window; quick entries
//! still append (the full check tier builds the trajectory this way)
//! but never compare against full-size ones.

use std::path::Path;

use qcpa_core::cluster::ClusterSpec;
use qcpa_core::greedy;
use qcpa_sim::engine::{run_open, run_open_traced, SimConfig};
use qcpa_workloads::tpcapp::tpcapp;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

use crate::harness::{best_of, f2, quick, Csv};
use crate::{history, Strategy};

/// Journal cost unit → seconds (matches `bench_allocator`).
const UNIT: f64 = 0.2;
/// Poisson arrivals per backend per second: light enough that queues
/// stay bounded, heavy enough that every backend sees steady work.
const RATE_PER_BACKEND: f64 = 2.0;
/// Target simulated requests per cluster size (full mode). The window
/// duration is derived as `target / (rate · backends)`, so every size
/// processes a comparable event count and the wall-clock measurement —
/// in particular the sample=0 tracing overhead — is not noise-bound.
const TARGET_EVENTS: f64 = 200_000.0;
/// RNG / tracer seed.
const SEED: u64 = 42;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Runs the sweep, writes the CSV + trace, appends to `BENCH_sim.json`.
pub fn run() -> std::io::Result<()> {
    let quick = quick();
    println!("== Simulator throughput (open-loop events/sec) ==");

    // Quick mode is the check.sh --fast corner: one 16-backend run over
    // 20k events — big enough that events/sec is signal, small enough
    // for the inner loop. Quick entries key on `target_events`, so they
    // only ever trend against other quick corners of the same shape.
    let (target, repeats) = if quick {
        (20_000.0, 1)
    } else {
        (TARGET_EVENTS, 5)
    };
    let sizes: &[usize] = if quick { &[16] } else { &[16, 64, 256] };

    let w = tpcapp(100);
    let journal = w.journal(100);
    let cw = Strategy::ColumnBased.classify(&journal, &w.catalog, UNIT);
    let sim_cfg = SimConfig::default();

    let mut csv = Csv::create(
        "bench_sim",
        &[
            "backends",
            "requests",
            "secs",
            "events_per_sec",
            "trace_off_secs",
            "trace_off_overhead_pct",
        ],
    )?;
    csv.meta("workload", "tpcapp column-based (bench_allocator family)");
    csv.meta("target_events", target);
    csv.meta("rate_per_backend", RATE_PER_BACKEND);
    csv.meta("seed", SEED);
    csv.meta("repeats", repeats);
    csv.meta("quick", quick);

    println!(
        "{:>8} {:>9} {:>9} {:>14} {:>13} {:>9}",
        "backends", "requests", "secs", "events/sec", "trace-off", "ovh %"
    );
    let mut scale_rows: Vec<Value> = Vec::new();
    let mut total_events = 0usize;
    let mut total_secs = 0.0f64;
    let mut total_off_secs = 0.0f64;
    for &n in sizes {
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let duration = target / (RATE_PER_BACKEND * n as f64);
        let reqs = cw
            .stream
            .sample_poisson(RATE_PER_BACKEND * n as f64, duration, 0.0, &mut rng);

        let plain = || {
            run_open(
                &alloc,
                &cw.classification,
                &cluster,
                &w.catalog,
                &reqs,
                0.0,
                &sim_cfg,
            )
        };
        // Same run with a tracer attached but sampling off: the cost of
        // carrying the tracing hooks in production configuration.
        let traced_off = || {
            let mut tracer = qcpa_obs::Tracer::new(SEED, 0.0);
            let rep = run_open_traced(
                &alloc,
                &cw.classification,
                &cluster,
                &w.catalog,
                &reqs,
                0.0,
                &sim_cfg,
                Some(&mut tracer),
            );
            assert!(tracer.tree.is_empty(), "sample=0 must record nothing");
            rep
        };
        // Warm up (allocator, page cache), then interleave the timed
        // pairs so neither variant systematically runs colder.
        let _ = plain();
        let (mut t_plain, rep) = best_of(1, &plain);
        let (mut t_off, rep_off) = best_of(1, &traced_off);
        for _ in 1..repeats {
            let (t, _) = best_of(1, &plain);
            t_plain = t_plain.min(t);
            let (t, _) = best_of(1, &traced_off);
            t_off = t_off.min(t);
        }
        assert_eq!(
            rep.responses, rep_off.responses,
            "tracing must not perturb simulated results"
        );

        let events = rep.responses.len();
        let eps = events as f64 / t_plain;
        let ovh = (t_off / t_plain - 1.0) * 100.0;
        total_events += events;
        total_secs += t_plain;
        total_off_secs += t_off;
        println!(
            "{:>8} {:>9} {:>9.4} {:>14.0} {:>13.4} {:>9.2}",
            n, events, t_plain, eps, t_off, ovh
        );
        csv.row(&[
            n.to_string(),
            events.to_string(),
            format!("{t_plain:.5}"),
            f2(eps),
            format!("{t_off:.5}"),
            f2(ovh),
        ])?;
        scale_rows.push(obj(vec![
            ("backends", Value::U64(n as u64)),
            ("requests", Value::U64(events as u64)),
            ("secs", Value::F64(t_plain)),
            ("events_per_sec", Value::F64(eps)),
            ("trace_off_overhead_pct", Value::F64(ovh)),
        ]));

        let reg = qcpa_obs::global();
        reg.gauge(&format!("bench.sim.events_per_sec.{n}")).set(eps);
        reg.gauge(&format!("bench.sim.trace_off_overhead_pct.{n}"))
            .set(ovh);
    }
    let agg_eps = total_events as f64 / total_secs;
    // The headline overhead figure: time-weighted across sizes, so the
    // longest (least noisy) runs dominate. Budget: <= 1%.
    let agg_ovh = (total_off_secs / total_secs - 1.0) * 100.0;
    let reg = qcpa_obs::global();
    reg.gauge("bench.sim.events_per_sec").set(agg_eps);
    reg.gauge("bench.sim.trace_off_overhead_pct").set(agg_ovh);
    println!("time-weighted sample=0 overhead: {agg_ovh:.2}% (budget 1%)");

    // A fully sampled small run exports the demonstration trace: every
    // request of the 16-backend cluster as a span tree.
    let cluster = ClusterSpec::homogeneous(sizes[0]);
    let alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let reqs = cw
        .stream
        .sample_poisson(RATE_PER_BACKEND * sizes[0] as f64, 30.0, 0.0, &mut rng);
    let mut tracer = qcpa_obs::Tracer::new(SEED, 1.0);
    run_open_traced(
        &alloc,
        &cw.classification,
        &cluster,
        &w.catalog,
        &reqs,
        0.0,
        &sim_cfg,
        Some(&mut tracer),
    );
    let tree = tracer.into_tree();
    let trace_path = Path::new("results/bench_sim.trace.json");
    qcpa_obs::perfetto::write_trace_json(trace_path, &tree, "qcpa-sim open loop")?;
    println!(
        "trace: {} spans over {} backends -> {}",
        tree.len(),
        sizes[0],
        trace_path.display()
    );

    let entry = obj(vec![
        (
            "workload",
            Value::Str("tpcapp column-based, open-loop poisson".into()),
        ),
        (
            "config",
            obj(vec![
                ("bench", Value::Str("bench_sim".into())),
                ("target_events", Value::F64(target)),
                ("rate_per_backend", Value::F64(RATE_PER_BACKEND)),
                ("seed", Value::U64(SEED)),
                ("repeats", Value::U64(repeats as u64)),
                ("quick", Value::Bool(quick)),
            ]),
        ),
        ("events_per_sec", Value::F64(agg_eps)),
        ("trace_off_overhead_pct", Value::F64(agg_ovh)),
        ("scales", Value::Array(scale_rows)),
    ]);
    let n = history::append_entry(Path::new("BENCH_sim.json"), "bench_sim", entry)?;
    println!(
        "aggregate {:.0} events/sec -> BENCH_sim.json (history entry {n})",
        agg_eps
    );
    println!("-> {}\n", csv.path().display());
    Ok(())
}
