//! Trace-exporter smoke: runs a tiny fully sampled open-loop simulation
//! and a tiny profiled memetic optimize, exports Perfetto JSON and
//! folded stacks, and checks the exports are deterministic (two
//! identical runs → byte-identical output) and well-formed (the trace
//! parses as a JSON array of events). `scripts/check.sh` runs this in
//! the fast tier; the conformance proptests pin the same properties at
//! larger generality.

use std::path::Path;

use qcpa_core::classify::Granularity;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::greedy;
use qcpa_core::memetic::{optimize_profiled, MemeticConfig};
use qcpa_obs::perfetto::{profile_to_folded, trace_to_chrome_json, trace_to_folded};
use qcpa_sim::engine::{run_open_traced, SimConfig};
use qcpa_workloads::common::classify_and_stream;
use qcpa_workloads::tpch::tpch;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

fn traced_sim_json() -> String {
    let w = tpch(1.0);
    let journal = w.journal(10);
    let cw = classify_and_stream(&journal, &w.catalog, Granularity::Table, 0.05);
    let cluster = ClusterSpec::homogeneous(4);
    let alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let reqs = cw.stream.sample_poisson(12.0, 5.0, 0.0, &mut rng);
    let mut tracer = qcpa_obs::Tracer::new(7, 1.0);
    run_open_traced(
        &alloc,
        &cw.classification,
        &cluster,
        &w.catalog,
        &reqs,
        0.0,
        &SimConfig::default(),
        Some(&mut tracer),
    );
    let tree = tracer.into_tree();
    assert!(!tree.is_empty(), "fully sampled run must record spans");
    let folded = trace_to_folded(&tree);
    assert!(!folded.is_empty(), "folded stacks must be non-empty");
    trace_to_chrome_json(&tree, "trace_smoke")
}

fn profile_fingerprint_and_folded() -> (String, String) {
    let w = tpch(1.0);
    let journal = w.journal(10);
    let cw = classify_and_stream(&journal, &w.catalog, Granularity::Table, 0.05);
    let cluster = ClusterSpec::homogeneous(4);
    let seed_alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);
    let cfg = MemeticConfig {
        population: 4,
        iterations: 3,
        mutations_per_offspring: 2,
        seed: 11,
        ..MemeticConfig::default()
    };
    let (_alloc, profile) =
        optimize_profiled(seed_alloc, &cw.classification, &w.catalog, &cluster, &cfg);
    assert!(!profile.is_empty(), "profiled optimize must record phases");
    (
        profile.fingerprint(),
        profile_to_folded(&profile, "optimize"),
    )
}

fn main() -> std::io::Result<()> {
    println!("== Trace exporter smoke ==");

    let json_a = traced_sim_json();
    let json_b = traced_sim_json();
    assert_eq!(
        json_a, json_b,
        "trace export must be byte-stable across reruns"
    );

    let parsed = serde_json::parse_value_str(&json_a)
        .map_err(|e| std::io::Error::other(format!("trace JSON failed to parse: {e:?}")))?;
    let events = parsed
        .as_array()
        .ok_or_else(|| std::io::Error::other("trace JSON is not an array"))?;
    assert!(!events.is_empty(), "trace must contain events");
    for ev in events {
        assert!(
            matches!(ev, Value::Object(_)),
            "every trace event must be an object"
        );
    }

    let (fp_a, folded_a) = profile_fingerprint_and_folded();
    let (fp_b, _) = profile_fingerprint_and_folded();
    // Folded-stack *values* are wall-clock µs (not rerun-stable); the
    // deterministic digest is the fingerprint.
    assert_eq!(fp_a, fp_b, "profile fingerprint must be rerun-stable");
    assert!(
        folded_a.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(stack, n)| { !stack.is_empty() && n.parse::<u64>().is_ok() })),
        "folded stacks must be `stack count` lines"
    );

    std::fs::create_dir_all("results")?;
    std::fs::write(Path::new("results/trace_smoke.trace.json"), &json_a)?;
    std::fs::write(Path::new("results/trace_smoke.folded"), &folded_a)?;
    println!(
        "{} trace events, {} profile phases -> results/trace_smoke.trace.json",
        events.len(),
        fp_a.lines().count()
    );
    Ok(())
}
