//! Resilience sweep: arrival rate × overload policy under a seeded
//! crash/recover plan, with deadlines, retries, admission control and
//! circuit breakers active — the graceful-degradation figure the
//! paper's cluster study implies but never plots. Each cell reports
//! goodput and tail latency; the run *fails* (nonzero exit) if any
//! request is lost, i.e. if `completed + shed + timed_out != offered`.
//!
//! `QCPA_BENCH_QUICK=1` shrinks the observation window for CI smoke
//! runs; the conservation check is identical in both modes.

use std::path::Path;

use qcpa_core::classify::Granularity;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::ksafety;
use qcpa_sim::engine::SimConfig;
use qcpa_sim::fault::{FaultConfig, FaultInjectionConfig, FaultPlan};
use qcpa_sim::resilience::{run_open_resilient, OverloadPolicy, ResilienceConfig};
use qcpa_workloads::common::classify_and_stream;
use qcpa_workloads::tpch::tpch;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

use crate::harness::{f2, Csv};
use crate::history;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Journal cost unit → seconds (as in the TPC-H throughput figures).
const UNIT: f64 = 0.2;
/// 5 TPC-H backends saturate near 6.6 req/s (total service demand per
/// request ≈ 0.75 s against 5 servers).
const SATURATION_RPS: f64 = 6.6;

/// Goodput and tail latency per (policy, rate) cell under faults.
pub fn fig_resilience() -> std::io::Result<()> {
    println!("== Resilience: goodput and tails under overload + faults ==");
    let quick = crate::harness::quick();
    let duration: f64 = if quick { 15.0 } else { 60.0 };
    let seed = 42u64;

    let w = tpch(1.0);
    let journal = w.journal(50);
    let cw = classify_and_stream(&journal, &w.catalog, Granularity::Table, UNIT);
    let cluster = ClusterSpec::homogeneous(5);
    let alloc = ksafety::allocate(&cw.classification, &w.catalog, &cluster, 1);
    alloc
        .validate(&cw.classification, &cluster)
        .expect("k-safe allocation is valid");

    let plan = FaultPlan::from_seed(
        seed,
        cluster.len(),
        duration,
        &FaultInjectionConfig {
            crashes: 2,
            mttr: duration / 6.0,
            ..Default::default()
        },
    );

    let rate_mults: &[f64] = if quick { &[1.5] } else { &[0.5, 1.0, 1.5] };
    let policies = [
        OverloadPolicy::Reject,
        OverloadPolicy::ShedLowestWeight,
        OverloadPolicy::Brownout,
    ];

    let mut csv = Csv::create(
        "fig_resilience",
        &[
            "policy",
            "rate_mult",
            "rate_rps",
            "offered",
            "completed",
            "shed",
            "timed_out",
            "retries",
            "breaker_opens",
            "goodput_rps",
            "p95_ms",
            "p99_ms",
            "lost",
        ],
    )?;
    csv.meta("seed", seed);
    csv.meta("workload", "tpch sf1 (journal x50)");
    csv.meta("duration_s", duration);
    csv.meta("saturation_rps", SATURATION_RPS);
    csv.meta("crashes", plan.events().len());

    println!(
        "{:>18} {:>6} {:>8} {:>8} {:>6} {:>9} {:>8} {:>10} {:>9} {:>9}",
        "policy",
        "xSat",
        "offered",
        "complete",
        "shed",
        "timed_out",
        "retries",
        "goodput",
        "p95 (ms)",
        "p99 (ms)"
    );
    let mut violations = 0usize;
    // Canonical trajectory cell: highest offered rate × Reject — the
    // cell whose goodput collapses first when the resilience path
    // regresses. Appended to BENCH_sim.json for `bench_trend`.
    let canon_mult = rate_mults.last().copied().unwrap_or(1.5);
    let mut canon: Option<(f64, f64, usize, usize)> = None;
    for &mult in rate_mults {
        let rate = SATURATION_RPS * mult;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let reqs = cw.stream.sample_poisson(rate, duration, 0.0, &mut rng);
        for policy in policies {
            // A queue bound tighter than deadline/service (~5 legs)
            // makes admission control bind *before* deadlines do —
            // otherwise every policy degenerates to pure timeouts and
            // the sweep is flat.
            let rcfg = ResilienceConfig {
                queue_cap: 3,
                overload: policy,
                ..ResilienceConfig::standard()
            };
            let rep = run_open_resilient(
                &alloc,
                &cw.classification,
                &cluster,
                &w.catalog,
                &reqs,
                0.0,
                &SimConfig::default(),
                &plan,
                &FaultConfig::default(),
                &rcfg,
            );
            if !rep.conserved() || rep.lost != 0 {
                violations += 1;
                eprintln!(
                    "CONSERVATION VIOLATION: policy={} rate={mult}x: \
                     {} completed + {} shed + {} timed_out + {} lost != {} offered",
                    policy.name(),
                    rep.completed,
                    rep.shed,
                    rep.timed_out,
                    rep.lost,
                    rep.offered
                );
            }
            if mult == canon_mult && matches!(policy, OverloadPolicy::Reject) {
                canon = Some((
                    rep.goodput,
                    rep.p95_response * 1000.0,
                    rep.offered,
                    rep.completed,
                ));
            }
            println!(
                "{:>18} {:>6.2} {:>8} {:>8} {:>6} {:>9} {:>8} {:>10.2} {:>9.0} {:>9.0}",
                policy.name(),
                mult,
                rep.offered,
                rep.completed,
                rep.shed,
                rep.timed_out,
                rep.retries,
                rep.goodput,
                rep.p95_response * 1000.0,
                rep.p99_response * 1000.0
            );
            csv.row(&[
                policy.name().to_string(),
                f2(mult),
                f2(rate),
                rep.offered.to_string(),
                rep.completed.to_string(),
                rep.shed.to_string(),
                rep.timed_out.to_string(),
                rep.retries.to_string(),
                rep.breaker_opens.to_string(),
                f2(rep.goodput),
                f2(rep.p95_response * 1000.0),
                f2(rep.p99_response * 1000.0),
                rep.lost.to_string(),
            ])?;
        }
    }
    if let Some((goodput, p95, offered, completed)) = canon {
        let entry = obj(vec![
            ("workload", Value::Str("tpch sf1 (journal x50)".into())),
            (
                "config",
                obj(vec![
                    ("bench", Value::Str("fig_resilience".into())),
                    ("quick", Value::Bool(quick)),
                    ("seed", Value::U64(seed)),
                    ("rate_mult", Value::F64(canon_mult)),
                    ("policy", Value::Str("reject".into())),
                ]),
            ),
            ("goodput_rps", Value::F64(goodput)),
            ("p95_ms", Value::F64(p95)),
            ("offered", Value::U64(offered as u64)),
            ("completed", Value::U64(completed as u64)),
        ]);
        let n = history::append_entry(Path::new("BENCH_sim.json"), "bench_sim", entry)?;
        println!("canonical cell {goodput:.2} rps goodput -> BENCH_sim.json (history entry {n})");
    }
    println!("-> {}\n", csv.path().display());
    if violations > 0 {
        return Err(std::io::Error::other(format!(
            "{violations} run(s) lost requests — conservation law violated"
        )));
    }
    Ok(())
}
