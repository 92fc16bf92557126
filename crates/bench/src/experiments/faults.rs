//! Failure-timeline experiment: replay a seeded [`FaultPlan`] against a
//! k-safe TPC-H allocation and chart nodes-available and response time
//! over the run — the availability figure the paper's cluster study
//! implies but never plots.

use qcpa_core::classify::Granularity;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::ksafety;
use qcpa_sim::engine::SimConfig;
use qcpa_sim::fault::{
    run_open_faults, FaultConfig, FaultEvent, FaultInjectionConfig, FaultPlan, LayeredFaultConfig,
};
use qcpa_workloads::common::classify_and_stream;
use qcpa_workloads::tpch::tpch;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::harness::{f2, Csv};

/// Journal cost unit → seconds (as in the TPC-H throughput figures).
const UNIT: f64 = 0.2;
/// Observation window in seconds.
const DURATION: f64 = 120.0;
/// Arrival rate: 5 TPC-H backends saturate near 6.6 req/s, so 3 req/s
/// leaves the survivors headroom to absorb a casualty's load.
const RATE: f64 = 3.0;
/// Chart bucket width in seconds.
const BUCKET: f64 = 5.0;

/// Failure timeline: nodes available and mean response per 5 s bucket
/// under a seed-derived crash/recover schedule on a 1-safe allocation.
pub fn fig_fault_availability() -> std::io::Result<()> {
    println!("== Failure timeline: availability and response under faults ==");
    let seed = 42u64;
    let w = tpch(1.0);
    let journal = w.journal(50);
    let cw = classify_and_stream(&journal, &w.catalog, Granularity::Table, UNIT);
    let cluster = ClusterSpec::homogeneous(5);
    let alloc = ksafety::allocate(&cw.classification, &w.catalog, &cluster, 1);
    alloc
        .validate(&cw.classification, &cluster)
        .expect("k-safe allocation is valid");

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reqs = cw.stream.sample_poisson(RATE, DURATION, 0.0, &mut rng);
    let plan = FaultPlan::from_seed_layered(
        seed,
        cluster.len(),
        DURATION,
        &LayeredFaultConfig {
            crashes: FaultInjectionConfig {
                crashes: 2,
                mttr: 20.0,
                ..Default::default()
            },
            gray: 0,
            partitions: 0,
            ..Default::default()
        },
    );
    let rep = run_open_faults(
        &alloc,
        &cw.classification,
        &cluster,
        &w.catalog,
        &reqs,
        0.0,
        &SimConfig::default(),
        &plan,
        &FaultConfig::default(),
    );

    let mut csv = Csv::create(
        "fig_fault_availability",
        &["time_s", "nodes_available", "mean_response_ms", "requests"],
    )?;
    csv.meta("seed", seed);
    csv.meta("workload", "tpch sf1 (journal x50)");
    csv.meta("rate_rps", RATE);
    csv.meta(
        "plan",
        plan.events()
            .iter()
            .map(|e| match e {
                FaultEvent::Crash { backend, at } => format!("crash b{backend}@{at:.1}s"),
                FaultEvent::Recover { backend, at, .. } => format!("recover b{backend}@{at:.1}s"),
                FaultEvent::Degrade {
                    backend,
                    at,
                    factor,
                } => {
                    format!("degrade b{backend}x{factor:.1}@{at:.1}s")
                }
                FaultEvent::Restore { backend, at } => format!("restore b{backend}@{at:.1}s"),
                FaultEvent::Partition { id, at } => format!("partition p{id}@{at:.1}s"),
                FaultEvent::Heal { id, at } => format!("heal p{id}@{at:.1}s"),
            })
            .collect::<Vec<_>>()
            .join(" | "),
    );

    println!(
        "{:>8} {:>8} {:>14} {:>10}",
        "time (s)", "nodes", "response (ms)", "requests"
    );
    let mut t = 0.0;
    while t < DURATION {
        let end = t + BUCKET;
        // Lowest live-node count during the bucket: availability entries
        // are (time, live) steps, so the bucket sees the state entering
        // it plus any step inside it.
        let entering = rep
            .availability
            .iter()
            .rev()
            .find(|&&(at, _)| at <= t)
            .map_or(cluster.len(), |&(_, n)| n);
        let nodes = rep
            .availability
            .iter()
            .filter(|&&(at, _)| at > t && at < end)
            .map(|&(_, n)| n)
            .fold(entering, usize::min);
        let in_bucket: Vec<f64> = rep
            .responses
            .iter()
            .filter(|&&(arrival, _)| arrival >= t && arrival < end)
            .map(|&(_, resp)| resp)
            .collect();
        let mean_ms = if in_bucket.is_empty() {
            0.0
        } else {
            in_bucket.iter().sum::<f64>() / in_bucket.len() as f64 * 1000.0
        };
        println!(
            "{:>8.0} {:>8} {:>14.1} {:>10}",
            t,
            nodes,
            mean_ms,
            in_bucket.len()
        );
        csv.row(&[
            format!("{t:.0}"),
            nodes.to_string(),
            f2(mean_ms),
            in_bucket.len().to_string(),
        ])?;
        t = end;
    }
    println!(
        "crashes: {}; recoveries: {}; online repairs: {}; lost: {}; min alive: {}; \
         mean {:.1} ms, p95 {:.1} ms",
        rep.crashes,
        rep.recoveries,
        rep.repairs,
        rep.lost,
        rep.min_alive(),
        rep.mean_response * 1000.0,
        rep.p95_response * 1000.0
    );
    println!("-> {}\n", csv.path().display());
    Ok(())
}
