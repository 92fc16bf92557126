//! Trace & profile conformance: the observability layer must be a pure
//! *observer*. Over randomized workloads the harness pins:
//!
//! * **No perturbation** — a traced run returns exactly the untraced
//!   report (and a `sample = 0` tracer records nothing at all);
//! * **Rerun determinism** — trace-tree fingerprints (every span,
//!   mark, timestamp and argument, float bits included) are
//!   bit-identical across reruns of the same scenario;
//! * **Profile stability** — the memetic phase-profile fingerprint
//!   (calls/work per phase, wall-clock excluded) and the returned
//!   allocation are bit-identical across reruns, and profiling does not
//!   change the allocation;
//! * **Export stability** — on a pinned fixture, the Perfetto
//!   (Chrome trace-event) JSON is byte-stable across reruns and parses
//!   back as a non-empty JSON array of event objects, and the folded
//!   stacks of traces and phase profiles are `stack count` lines.

use proptest::prelude::*;
use qcpa::core::classify::Classification;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::fragment::Catalog;
use qcpa::core::journal::QueryKind;
use qcpa::core::{greedy, memetic};
use qcpa::sim::engine::{run_open, run_open_traced, SimConfig};
use qcpa::sim::fault::{
    run_open_faults, FaultConfig, FaultInjectionConfig, FaultPlan, FaultReport, LayeredFaultConfig,
};
use qcpa::sim::resilience::{run_open_resilient, run_open_resilient_traced, ResilienceConfig};
use qcpa::sim::{Request, RequestStream};
use qcpa_obs::Tracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{materialize, workload_strategy};

/// Requests matching the classification (as in `conformance.rs`).
fn requests(cls: &Classification, seed: u64, rate: f64, duration: f64) -> Vec<Request> {
    let freq: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let service = vec![0.05; cls.len()];
    let stream = RequestStream::new(freq, kinds, service);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    stream.sample_poisson(rate, duration, 0.0, &mut rng)
}

/// Whether every line of a folded-stack export is `stack count`: a
/// non-empty `;`-joined stack, one space, an integer weight.
fn is_folded(folded: &str) -> bool {
    folded.lines().all(|l| {
        l.rsplit_once(' ')
            .is_some_and(|(stack, n)| !stack.is_empty() && n.parse::<u64>().is_ok())
    })
}

/// One traced open-loop run; returns `(responses, tree fingerprint)`.
fn traced_open(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    reqs: &[Request],
    seed: u64,
    rate: f64,
) -> (Vec<(f64, f64)>, u64) {
    let alloc = greedy::allocate(cls, catalog, cluster);
    let mut tracer = Tracer::new(seed, rate);
    let rep = run_open_traced(
        &alloc,
        cls,
        cluster,
        catalog,
        reqs,
        0.0,
        &SimConfig::default(),
        Some(&mut tracer),
    );
    (rep.responses, tracer.into_tree().fingerprint())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing the plain open-loop driver neither perturbs the report
    /// nor varies across reruns; `sample = 0` records nothing.
    #[test]
    fn open_loop_tracing_is_pure_and_deterministic(
        w in workload_strategy(),
        seed in 0u64..1_000,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(4);
        let reqs = requests(&cls, seed, 30.0, 3.0);
        if reqs.is_empty() {
            return Ok(());
        }
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let plain = run_open(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &SimConfig::default(),
        );

        let (resp_a, fp_a) = traced_open(&cls, &catalog, &cluster, &reqs, seed, 1.0);
        let (resp_b, fp_b) = traced_open(&cls, &catalog, &cluster, &reqs, seed, 1.0);
        prop_assert_eq!(&resp_a, &plain.responses, "tracing perturbed the run");
        prop_assert_eq!(&resp_b, &plain.responses);
        prop_assert_eq!(fp_a, fp_b, "trace fingerprint differs across reruns");

        let mut off = Tracer::new(seed, 0.0);
        let rep_off = run_open_traced(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &SimConfig::default(),
            Some(&mut off),
        );
        prop_assert_eq!(&rep_off.responses, &plain.responses);
        prop_assert!(off.tree.is_empty(), "sample=0 recorded spans");
    }

    /// Fault-injected and resilience-mode traced runs: identical
    /// reports to the untraced drivers, rerun-stable fingerprints.
    #[test]
    fn fault_and_resilience_tracing_is_pure_and_deterministic(
        w in workload_strategy(),
        seed in 0u64..1_000,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(4);
        let reqs = requests(&cls, seed, 30.0, 3.0);
        if reqs.is_empty() {
            return Ok(());
        }
        // k-safe so crashes keep every fragment reachable.
        let alloc = qcpa::core::ksafety::allocate(&cls, &catalog, &cluster, 1);
        let plan = FaultPlan::from_seed_layered(
            seed,
            cluster.len(),
            3.0,
            &LayeredFaultConfig {
                crashes: FaultInjectionConfig { crashes: 1, mttr: 0.5, ..Default::default() },
                gray: 0,
                partitions: 0,
                ..Default::default()
            },
        );
        let sim_cfg = SimConfig::default();
        let fcfg = FaultConfig::default();

        let plain = run_open_faults(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &sim_cfg, &plan, &fcfg,
        );
        let mut fps = Vec::new();
        for _ in 0..2 {
            let mut tracer = Tracer::new(seed, 1.0);
            let rep: FaultReport = run_open_resilient_traced(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &sim_cfg, &plan, &fcfg,
                &ResilienceConfig::default(), Some(&mut tracer),
            ).into();
            prop_assert_eq!(&rep.responses, &plain.responses);
            prop_assert_eq!(rep.completed, plain.completed);
            fps.push(tracer.into_tree().fingerprint());
        }
        prop_assert_eq!(fps[0], fps[1], "fault trace fingerprint unstable");

        let rcfg = ResilienceConfig::standard();
        let rplain = run_open_resilient(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &sim_cfg, &plan, &fcfg, &rcfg,
        );
        let mut rfps = Vec::new();
        for _ in 0..2 {
            let mut tracer = Tracer::new(seed, 1.0);
            let rep = run_open_resilient_traced(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &sim_cfg, &plan, &fcfg,
                &rcfg, Some(&mut tracer),
            );
            prop_assert_eq!(rep.completed, rplain.completed);
            prop_assert_eq!(rep.shed, rplain.shed);
            prop_assert_eq!(rep.timed_out, rplain.timed_out);
            prop_assert_eq!(rep.retries, rplain.retries);
            rfps.push(tracer.into_tree().fingerprint());
        }
        prop_assert_eq!(rfps[0], rfps[1], "resilience trace fingerprint unstable");
    }

    /// The memetic phase profile: same allocation as the unprofiled
    /// engine, and a fingerprint (calls/work, wall-clock excluded)
    /// bit-identical across reruns.
    #[test]
    fn phase_profile_is_rerun_stable(
        w in workload_strategy(),
        seed in 0u64..1_000,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(4);
        let mcfg = memetic::MemeticConfig {
            population: 4,
            iterations: 3,
            seed,
            ..Default::default()
        };
        let seed_alloc = greedy::allocate(&cls, &catalog, &cluster);

        let plain = memetic::optimize(seed_alloc.clone(), &cls, &catalog, &cluster, &mcfg);
        let (a1, p1) =
            memetic::optimize_profiled(seed_alloc.clone(), &cls, &catalog, &cluster, &mcfg);
        let (a2, p2) = memetic::optimize_profiled(seed_alloc, &cls, &catalog, &cluster, &mcfg);

        prop_assert_eq!(&a1, &plain, "profiling changed the result");
        prop_assert_eq!(&a2, &a1, "profiled rerun diverged");
        prop_assert_eq!(p1.fingerprint(), p2.fingerprint(),
            "profile fingerprint unstable across reruns");
        // Folded weights are wall-clock µs, so only the format is pinned.
        let folded = qcpa_obs::perfetto::profile_to_folded(&p1, "optimize");
        prop_assert!(is_folded(&folded), "profile folded stacks malformed:\n{}", folded);
    }
}

/// Pinned fixture: the Perfetto export of a fixed traced scenario is
/// byte-stable across reruns and parses as a JSON array of events.
#[test]
fn perfetto_export_is_byte_stable_and_parses() {
    let render = || {
        let mut catalog = Catalog::new();
        let t0 = catalog.add_table("orders", 4_000);
        let t1 = catalog.add_table("lineitem", 9_000);
        let cls = Classification::from_classes(vec![
            qcpa::core::classify::QueryClass::read(0, [t0], 0.4),
            qcpa::core::classify::QueryClass::read(1, [t1], 0.35),
            qcpa::core::classify::QueryClass::update(2, [t0, t1], 0.25),
        ])
        .expect("fixture classes are valid");
        let cluster = ClusterSpec::homogeneous(3);
        let reqs = requests(&cls, 42, 25.0, 4.0);
        assert!(!reqs.is_empty());
        let (_, fp) = traced_open(&cls, &catalog, &cluster, &reqs, 42, 1.0);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let mut tracer = Tracer::new(42, 1.0);
        run_open_traced(
            &alloc,
            &cls,
            &cluster,
            &catalog,
            &reqs,
            0.0,
            &SimConfig::default(),
            Some(&mut tracer),
        );
        let tree = tracer.into_tree();
        assert_eq!(tree.fingerprint(), fp, "fixture trace not rerun-stable");
        assert!(!tree.is_empty());
        (
            qcpa_obs::perfetto::trace_to_chrome_json(&tree, "fixture"),
            qcpa_obs::perfetto::trace_to_folded(&tree),
        )
    };
    let (json_a, folded_a) = render();
    let (json_b, folded_b) = render();
    assert_eq!(json_a, json_b, "Perfetto JSON not byte-stable");
    assert_eq!(folded_a, folded_b, "folded stacks not byte-stable");
    assert!(
        !folded_a.is_empty() && is_folded(&folded_a),
        "folded stacks malformed:\n{folded_a}"
    );

    let parsed = serde_json::parse_value_str(&json_a).expect("trace JSON parses");
    let events = parsed.as_array().expect("trace JSON is an array");
    assert!(!events.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let obj = ev.as_object().expect("every event is an object");
        let ph = obj
            .iter()
            .find(|(k, _)| k == "ph")
            .map(|(_, v)| v.clone())
            .expect("every event has a phase");
        if let serde_json::Value::Str(s) = ph {
            phases.insert(s);
        }
    }
    // Complete spans and track-name metadata must both be present.
    assert!(phases.contains("X"), "no complete spans in export");
    assert!(phases.contains("M"), "no metadata events in export");
}
