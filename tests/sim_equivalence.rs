//! Differential lockdown of the hot-path simulator rewrite.
//!
//! [`qcpa::sim::baseline`] preserves the pre-rewrite open-loop engine
//! verbatim as the oracle; this harness replays random scenarios
//! (workload × cluster size × propagation protocol × warmup × jitter)
//! through the rewritten engine and asserts **bit-identical**
//! `OpenReport`s — every `f64` compared by `to_bits`, never by
//! tolerance — across every axis of the rewrite:
//!
//! * **Read rule** — `run_open` routes every read by
//!   `Scheduler::pending_at` and must equal the baseline (which keeps
//!   its own frozen pending index) on greedy and fully replicated
//!   allocations alike;
//! * **Tracing** — traced runs must return the untraced report and
//!   produce the same trace-tree fingerprint as the baseline engine;
//! * **Benchmark shims** — `run_open_sharded` equals the baseline at
//!   any shard argument;
//! * **Components** — `backend_components` keeps every class's
//!   routing targets in one component;
//! * **Degenerate configs collapse** — `run_open_faults` with an empty
//!   plan equals `run_open`, and faulted runs replay themselves bit
//!   for bit;
//! * **Fault goldens** — `run_open_faults` is the fault-aware loop of
//!   `qcpa::sim::resilience` with every mechanism off. A table of
//!   report fingerprints, recorded from the separate fault engine that
//!   loop replaced, pins it (and the same report read off the
//!   all-disabled `run_open_resilient` report) across six fault
//!   scenarios × six propagation settings.
//! * **Resilient goldens** — `run_open_resilient` with its mechanisms
//!   on (deadlines, retries, bounded queues under every overload
//!   policy, breakers), on the golden cluster and on an 8-way fully
//!   replicated one, pinned by report and trace-tree fingerprints.

use proptest::prelude::*;
use qcpa::core::allocation::Allocation;
use qcpa::core::classify::{Classification, QueryClass};
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::fragment::Catalog;
use qcpa::core::greedy;
use qcpa::core::journal::QueryKind;
use qcpa::sim::baseline::{run_open_baseline, run_open_baseline_traced};
use qcpa::sim::fault::{
    run_open_faults, FaultConfig, FaultEvent, FaultInjectionConfig, FaultPlan, FaultReport,
    LayeredFaultConfig,
};
use qcpa::sim::resilience::{run_open_resilient, run_open_resilient_traced};
use qcpa::sim::{
    backend_components, run_open, run_open_sharded, run_open_traced, OpenReport, OverloadPolicy,
    Request, RequestStream, ResilienceConfig, ResilienceReport, Scheduler, SimConfig,
    UpdatePropagation,
};
use qcpa_obs::Tracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{materialize, workload_strategy};

/// Asserts two open-loop reports are indistinguishable to any consumer:
/// responses, aggregates, busy time and utilization, all by bits.
fn assert_open_bit_identical(a: &OpenReport, b: &OpenReport, what: &str) {
    assert_eq!(a.responses.len(), b.responses.len(), "{what}: counts");
    for (i, (x, y)) in a.responses.iter().zip(&b.responses).enumerate() {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: arrival bits @{i}");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: response bits @{i}");
    }
    assert_eq!(
        a.mean_response.to_bits(),
        b.mean_response.to_bits(),
        "{what}: mean bits"
    );
    assert_eq!(
        a.p95_response.to_bits(),
        b.p95_response.to_bits(),
        "{what}: p95 bits"
    );
    assert_eq!(a.busy.len(), b.busy.len(), "{what}: busy len");
    for (i, (x, y)) in a.busy.iter().zip(&b.busy).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: busy bits @{i}");
    }
    for (i, (x, y)) in a.utilization.iter().zip(&b.utilization).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: utilization bits @{i}");
    }
}

/// A scenario's simulator knobs, decoded from small proptest draws so
/// every propagation protocol, warmup and jitter regime gets coverage.
fn sim_config(propagation: u8) -> SimConfig {
    SimConfig {
        propagation: match propagation % 3 {
            0 => UpdatePropagation::Rowa,
            1 => UpdatePropagation::PrimaryCopy,
            _ => UpdatePropagation::Lazy {
                batching_discount: 0.4,
            },
        },
        rowa_overhead: if propagation.is_multiple_of(2) {
            0.0
        } else {
            0.25
        },
        ..SimConfig::default()
    }
}

/// Requests matching the classification, Poisson at roughly the
/// cluster's saturation knee so queues actually form.
fn requests(cls: &Classification, n: usize, seed: u64, jitter: f64) -> Vec<Request> {
    let freq: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let stream = RequestStream::new(freq, kinds, vec![0.02; cls.len()]);
    let rate = 0.9 * n as f64 / 0.02;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    stream.sample_poisson(rate, 2.0, jitter, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rewritten engine equals the preserved baseline bit for bit,
    /// traced and untraced, with identical trace trees, on a greedy and
    /// a fully replicated allocation (where every read class is
    /// readable on every backend).
    #[test]
    fn rewritten_engine_matches_baseline(
        w in workload_strategy(),
        n in 2usize..6,
        seed in 0u64..1_000,
        propagation in 0u8..6,
        warm in proptest::bool::ANY,
        jit in proptest::bool::ANY,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let reqs = requests(&cls, n, seed, if jit { 0.15 } else { 0.0 });
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = sim_config(propagation);
        let warmup = if warm { 0.05 } else { 0.0 };

        for alloc in [
            greedy::allocate(&cls, &catalog, &cluster),
            Allocation::full_replication(&cls, &cluster),
        ] {
            let mut oracle_tr = Tracer::new(seed, 1.0);
            let oracle = run_open_baseline_traced(
                &alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg,
                Some(&mut oracle_tr),
            );
            let oracle_fp = oracle_tr.into_tree().fingerprint();
            assert_open_bit_identical(
                &oracle,
                &run_open_baseline(&alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg),
                "baseline traced vs untraced",
            );

            let plain = run_open(&alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg);
            assert_open_bit_identical(&oracle, &plain, "baseline vs run_open");

            let mut tr = Tracer::new(seed, 1.0);
            let traced = run_open_traced(
                &alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg, Some(&mut tr),
            );
            assert_open_bit_identical(&oracle, &traced, "baseline vs run_open_traced");
            prop_assert_eq!(tr.into_tree().fingerprint(), oracle_fp, "trace fingerprint diverged");
        }
    }

    /// The `run_open_sharded` shim the frozen benchmark crate still
    /// calls returns the baseline oracle's report whatever its shard
    /// argument: the simulator is unsharded, so the argument is ignored.
    #[test]
    fn sharded_runs_are_bit_identical_to_unsharded(
        w in workload_strategy(),
        n in 2usize..7,
        seed in 0u64..1_000,
        propagation in 0u8..6,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let reqs = requests(&cls, n, seed, 0.0);
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = sim_config(propagation);
        let oracle =
            run_open_baseline(&alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg);
        for shards in [1usize, 2, 4] {
            let shim = run_open_sharded(&alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, shards);
            assert_open_bit_identical(&oracle, &shim, &format!("shim at {shards} shards"));
        }
    }

    /// `backend_components`, which the benchmark reads for its
    /// component-count metric, numbers components densely from the
    /// lowest backend and never splits a class's routing targets.
    #[test]
    fn backend_components_never_split_a_class(
        w in workload_strategy(),
        n in 2usize..7,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let scheduler = Scheduler::new(&alloc, &cls);
        let comps = backend_components(&scheduler, &cls, n);
        let mut next = 0;
        for &c in &comps {
            prop_assert!(c <= next, "component ids not dense in backend order: {:?}", comps);
            next = next.max(c + 1);
        }
        for c in &cls.classes {
            let targets = match c.kind {
                QueryKind::Read => scheduler.capable_read_targets(c.id),
                QueryKind::Update => scheduler.route_update(c.id),
            };
            prop_assert!(
                targets.iter().all(|&b| comps[b] == comps[targets[0]]),
                "class {:?} split across components {:?}", c.id, comps
            );
        }
    }

    /// Degenerate configurations collapse exactly, on a greedy and a
    /// fully replicated allocation: an empty fault plan reproduces
    /// `run_open`, and a faulted run replays itself bit for bit. (That
    /// the all-disabled resilience default reproduces `run_open_faults`
    /// is pinned against recorded goldens in
    /// `fault_reports_match_recorded_goldens`.)
    #[test]
    fn degenerate_fault_and_resilience_configs_collapse(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..1_000,
        propagation in 0u8..6,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let reqs = requests(&cls, n, seed, 0.0);
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = sim_config(propagation);

        for alloc in [
            greedy::allocate(&cls, &catalog, &cluster),
            Allocation::full_replication(&cls, &cluster),
        ] {
            // Empty plan ≡ run_open (and hence the baseline oracle).
            let oracle =
                run_open_baseline(&alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg);
            let empty = FaultPlan::new(Vec::new(), n).expect("empty plan is valid");
            let faults_empty = run_open_faults(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg,
                &empty, &FaultConfig::default(),
            );
            prop_assert_eq!(faults_empty.responses.len(), oracle.responses.len());
            for (x, y) in faults_empty.responses.iter().zip(&oracle.responses) {
                prop_assert_eq!(x.0.to_bits(), y.0.to_bits(), "empty-plan arrival bits");
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "empty-plan response bits");
            }
            for (x, y) in faults_empty.busy.iter().zip(&oracle.busy) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "empty-plan busy bits");
            }

            // Replays under a *layered* plan (crash + gray window +
            // partition episode) are exact.
            let plan = FaultPlan::from_seed_layered(
                seed,
                n,
                2.0,
                &LayeredFaultConfig {
                    crashes: FaultInjectionConfig {
                        crashes: 1,
                        mttr: 0.5,
                        ..Default::default()
                    },
                    gray: 1,
                    gray_duration: 0.5,
                    partitions: 1,
                    partition_duration: 0.5,
                    ..LayeredFaultConfig::default()
                },
            );
            let resilient = run_open_resilient(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg,
                &plan, &FaultConfig::default(), &ResilienceConfig::default(),
            );
            let replay = run_open_resilient(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg,
                &plan, &FaultConfig::default(), &ResilienceConfig::default(),
            );
            prop_assert_eq!(replay.responses.len(), resilient.responses.len());
            for (x, y) in replay.responses.iter().zip(&resilient.responses) {
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "replay response bits");
            }
        }
    }

}

/// FNV-1a over every observable of a [`FaultReport`]: the bits of each
/// `(arrival, response)` pair and `busy` entry, every counter, the
/// repair account and the availability timeline.
fn fault_fingerprint(r: &FaultReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.responses.len() as u64);
    for &(arrival, response) in &r.responses {
        eat(arrival.to_bits());
        eat(response.to_bits());
    }
    for b in &r.busy {
        eat(b.to_bits());
    }
    for n in [
        r.lost,
        r.redispatched,
        r.crashes,
        r.recoveries,
        r.repairs,
        r.gray_windows,
        r.partitions,
        r.heals,
        r.reroute_failures,
    ] {
        eat(n as u64);
    }
    eat(r.repair_moved_bytes);
    eat(r.repair_pause_secs.to_bits());
    eat(u64::from(r.post_repair_safety_ok));
    for &(t, n) in &r.availability {
        eat(t.to_bits());
        eat(n as u64);
    }
    h
}

/// The fixed cluster of the golden scenarios: tables A, B on backends
/// 0–1 and C, D on backends 2–3 (every weighted class 1-safe, two
/// backend components), plus a **zero-weight** read class on table E
/// stored on backend 3 only — the one class no online repair protects,
/// so crashing backend 3 loses its requests.
fn golden_cluster() -> (Catalog, Classification, Allocation, Vec<Request>) {
    let mut cat = Catalog::new();
    let t: Vec<_> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|name| cat.add_table(*name, 4_000))
        .collect();
    let cls = Classification::from_classes(vec![
        QueryClass::read(0, [t[0]], 0.25),
        QueryClass::update(1, [t[1]], 0.15),
        QueryClass::read(2, [t[0], t[1]], 0.10),
        QueryClass::read(3, [t[2]], 0.25),
        QueryClass::update(4, [t[3]], 0.15),
        QueryClass::read(5, [t[2], t[3]], 0.10),
        QueryClass::read(6, [t[4]], 0.0),
    ])
    .expect("golden classes are valid");
    let mut alloc = Allocation::empty(cls.len(), 4);
    for b in 0..4 {
        let (lo, classes) = if b < 2 { (0, 0..3) } else { (2, 3..6) };
        alloc.fragments[b].extend([t[lo], t[lo + 1]]);
        for c in classes {
            let w = cls.classes[c].weight;
            alloc.assign[c][b] = if cls.classes[c].kind == QueryKind::Read {
                w / 2.0
            } else {
                w
            };
        }
    }
    alloc.fragments[3].insert(t[4]);
    let reqs = golden_requests(&cls, 190.0);
    (cat, cls, alloc, reqs)
}

/// Two seconds of Poisson arrivals at `rate` over the golden classes.
/// The stream's frequencies are its own: the zero-weight class still
/// receives 8 % of the arrivals.
fn golden_requests(cls: &Classification, rate: f64) -> Vec<Request> {
    let freq = vec![22.0, 14.0, 10.0, 22.0, 14.0, 10.0, 8.0];
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let stream = RequestStream::new(freq, kinds, vec![0.02; cls.len()]);
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    stream.sample_poisson(rate, 2.0, 0.1, &mut rng)
}

/// The golden fault scenarios, one plan each.
fn golden_plans() -> Vec<(&'static str, FaultPlan)> {
    let crash = |backend, at| FaultEvent::Crash { backend, at };
    let recover = |backend, at| FaultEvent::Recover {
        backend,
        at,
        catchup_cost: 0.05,
    };
    let plan = |events| FaultPlan::new(events, 4).expect("golden plan is valid");
    vec![
        (
            "crash + recover",
            plan(vec![crash(0, 0.6), recover(0, 1.2)]),
        ),
        (
            "gray window",
            plan(vec![
                FaultEvent::Degrade {
                    backend: 1,
                    at: 0.5,
                    factor: 3.0,
                },
                FaultEvent::Restore {
                    backend: 1,
                    at: 1.3,
                },
            ]),
        ),
        (
            "partition + heal",
            FaultPlan::with_partitions(
                vec![
                    FaultEvent::Partition { id: 0, at: 0.5 },
                    FaultEvent::Heal { id: 0, at: 1.1 },
                ],
                4,
                vec![vec![2]],
            )
            .expect("golden plan is valid"),
        ),
        (
            "zone failure",
            plan(vec![
                crash(0, 0.7),
                crash(2, 0.7),
                recover(0, 1.3),
                recover(2, 1.3),
            ]),
        ),
        (
            "crashes forcing an online repair",
            plan(vec![crash(0, 0.5), crash(1, 0.8), recover(0, 1.5)]),
        ),
        (
            "zero-weight class loses its only replica",
            plan(vec![crash(3, 0.6), recover(3, 1.4)]),
        ),
    ]
}

/// [`fault_fingerprint`]s for each [`golden_plans`] scenario × the six
/// `sim_config(0..6)` settings, recorded from the separate fault
/// engine `run_open_faults` ran on before it became a projection of the
/// resilient core. They pin the projection to that engine's reports bit
/// for bit, including the terminal label of unroutable requests
/// (`lost`).
const FAULT_GOLDENS: [[u64; 6]; 6] = [
    [
        0x90ee1633943f1405,
        0x4b7ea73ee82a9248,
        0x74f0ce665e607868,
        0xb9fd58851e45b52e,
        0x4b7ea73ee82a9248,
        0x74f0ce665e607868,
    ],
    [
        0xb09a04abe929fd0b,
        0xd2bd16d0a1efbd6e,
        0x484dfd7280fbf9f9,
        0xee064d6ed1a4f5de,
        0xd2bd16d0a1efbd6e,
        0x484dfd7280fbf9f9,
    ],
    [
        0x7e735b2aa121e7d2,
        0xfe7b67b44e092233,
        0xfed539b691d30a28,
        0xf9f7f96188d1175e,
        0xfe7b67b44e092233,
        0xfed539b691d30a28,
    ],
    [
        0xe70b8106410aa5f8,
        0x8736092d7e1d7cba,
        0xd66b9be0209582c8,
        0xa12de238429247fe,
        0x8736092d7e1d7cba,
        0xd66b9be0209582c8,
    ],
    [
        0x1f6e3cbaca439266,
        0xf02a201c94ab57d8,
        0xf6b43269bc26d18b,
        0xbabf8c0b1b284fd4,
        0xf02a201c94ab57d8,
        0xf6b43269bc26d18b,
    ],
    [
        0xcd2ea0dd786c4cdb,
        0xe46ca69254c34db3,
        0xa3e2b026b8a83700,
        0x1a190eeb981d274e,
        0xe46ca69254c34db3,
        0xa3e2b026b8a83700,
    ],
];

/// The all-disabled resilient report read as a fault report: what no
/// mechanism could shed or time out except by being unroutable is
/// `lost`.
fn as_fault_report(r: ResilienceReport) -> FaultReport {
    FaultReport {
        responses: r.responses,
        mean_response: r.mean_response,
        p95_response: r.p95_response,
        busy: r.busy,
        utilization: r.utilization,
        completed: r.completed,
        lost: r.shed + r.timed_out + r.lost,
        redispatched: r.redispatched,
        crashes: r.crashes,
        recoveries: r.recoveries,
        repairs: r.repairs,
        repair_pause_secs: r.repair_pause_secs,
        repair_moved_bytes: r.repair_moved_bytes,
        gray_windows: r.gray_windows,
        partitions: r.partitions,
        heals: r.heals,
        reroute_failures: r.reroute_failures,
        post_repair_safety_ok: r.post_repair_safety_ok,
        availability: r.availability,
    }
}

#[test]
fn fault_reports_match_recorded_goldens() {
    let (cat, cls, alloc, reqs) = golden_cluster();
    let cluster = ClusterSpec::homogeneous(4);
    let fcfg = FaultConfig::default();
    let mut computed = [[0u64; 6]; 6];
    for (s, (name, plan)) in golden_plans().iter().enumerate() {
        for p in 0..6u8 {
            let cfg = sim_config(p);
            let rep = run_open_faults(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, plan, &fcfg);
            let fp = fault_fingerprint(&rep);
            computed[s][usize::from(p)] = fp;
            let resilient = run_open_resilient(
                &alloc,
                &cls,
                &cluster,
                &cat,
                &reqs,
                0.0,
                &cfg,
                plan,
                &fcfg,
                &ResilienceConfig::default(),
            );
            assert!(resilient.conserved(), "{name}: resilient conservation");
            assert_eq!(
                fault_fingerprint(&as_fault_report(resilient)),
                fp,
                "{name}, propagation {p}: all-disabled resilient report diverged"
            );
            assert_eq!(rep.completed + rep.lost, reqs.len(), "{name}: conservation");
            match s {
                0 => assert!(rep.redispatched > 0, "{name}: crash must void work"),
                4 => assert!(rep.repairs > 0, "{name}: must repair online"),
                5 => assert!(rep.lost > 0, "{name}: must lose requests"),
                _ => assert_eq!(rep.lost, 0, "{name}: nothing may be lost"),
            }
        }
    }
    assert_eq!(
        computed, FAULT_GOLDENS,
        "fault reports drifted from the recorded goldens; computed table:\n{computed:#018x?}"
    );
}

/// FNV-1a over every field of a [`ResilienceReport`]: responses,
/// aggregates, busy time and utilization by bits, goodput, every
/// counter, the per-class completions, the repair account and the
/// availability timeline.
fn resilience_fingerprint(r: &ResilienceReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.responses.len() as u64);
    for &(arrival, response) in &r.responses {
        eat(arrival.to_bits());
        eat(response.to_bits());
    }
    for x in [
        r.mean_response,
        r.p95_response,
        r.p99_response,
        r.goodput,
        r.repair_pause_secs,
    ] {
        eat(x.to_bits());
    }
    for (b, u) in r.busy.iter().zip(&r.utilization) {
        eat(b.to_bits());
        eat(u.to_bits());
    }
    for n in [
        r.offered,
        r.completed,
        r.shed,
        r.timed_out,
        r.lost,
        r.retries,
        r.timeouts,
        r.shed_victims,
        r.browned_out,
        r.redispatched,
        r.breaker_opens,
        r.breaker_half_opens,
        r.breaker_closes,
        r.degraded_fallbacks,
        r.breaker_overrides,
        r.unroutable,
        r.crashes,
        r.recoveries,
        r.gray_windows,
        r.partitions,
        r.heals,
        r.repairs,
        r.reroute_failures,
    ] {
        eat(n as u64);
    }
    for &n in &r.per_class_completed {
        eat(n as u64);
    }
    eat(r.repair_moved_bytes);
    eat(u64::from(r.post_repair_safety_ok));
    for &(t, n) in &r.availability {
        eat(t.to_bits());
        eat(n as u64);
    }
    h
}

/// The golden classes fully replicated on 8 backends, at a rate where
/// update legs alone keep every backend 92 % busy: each update fans out
/// to all 8 replicas, so a crash voids one of 8 live ROWA legs.
fn full_replication_cluster() -> (Catalog, Classification, Allocation, Vec<Request>) {
    let (cat, cls, _, _) = golden_cluster();
    let alloc = Allocation::full_replication(&cls, &ClusterSpec::homogeneous(8));
    let reqs = golden_requests(&cls, 165.0);
    (cat, cls, alloc, reqs)
}

/// One layered plan per golden cluster: crashes with recovery, a gray
/// window and a partition episode, overlapping.
fn resilient_plan(n: usize) -> FaultPlan {
    let crash = |backend, at| FaultEvent::Crash { backend, at };
    let recover = |backend, at| FaultEvent::Recover {
        backend,
        at,
        catchup_cost: 0.05,
    };
    let degrade = |backend, at| FaultEvent::Degrade {
        backend,
        at,
        factor: 3.0,
    };
    let restore = |backend, at| FaultEvent::Restore { backend, at };
    let (events, side) = if n == 4 {
        (
            vec![
                degrade(1, 0.3),
                crash(0, 0.6),
                FaultEvent::Partition { id: 0, at: 0.7 },
                restore(1, 1.0),
                FaultEvent::Heal { id: 0, at: 1.1 },
                recover(0, 1.2),
                crash(3, 1.4),
                recover(3, 1.7),
            ],
            vec![2],
        )
    } else {
        (
            vec![
                crash(0, 0.5),
                degrade(2, 0.6),
                FaultEvent::Partition { id: 0, at: 0.7 },
                crash(5, 0.9),
                FaultEvent::Heal { id: 0, at: 1.0 },
                restore(2, 1.2),
                recover(0, 1.3),
                recover(5, 1.6),
            ],
            vec![6, 7],
        )
    };
    FaultPlan::with_partitions(events, n, vec![side]).expect("resilient plan is valid")
}

/// The active configurations the goldens cover: the standard preset,
/// and 3-deep queues with a 0.1 s deadline under each overload policy
/// (brownout with the latency trip wire armed).
fn resilient_configs() -> [(&'static str, ResilienceConfig); 4] {
    let capped = |overload| ResilienceConfig {
        queue_cap: 3,
        overload,
        deadline: 0.1,
        ..ResilienceConfig::standard()
    };
    [
        ("standard", ResilienceConfig::standard()),
        ("reject", capped(OverloadPolicy::Reject)),
        (
            "shed_lowest_weight",
            capped(OverloadPolicy::ShedLowestWeight),
        ),
        (
            "brownout",
            ResilienceConfig {
                slow_trip: 0.03,
                ..capped(OverloadPolicy::Brownout)
            },
        ),
    ]
}

/// `(report, trace tree)` fingerprints of `run_open_resilient` per
/// cluster (golden, then full replication on 8) × [`resilient_configs`]
/// × `sim_config(0..3)` (ROWA, primary copy, lazy), the tree traced at
/// sample rate 1.0. Recorded from the fault-aware loop while it kept
/// every leg of a run in an arena.
const RESILIENT_GOLDENS: [[(u64, u64); 3]; 8] = [
    [
        (0xafc75fbd56c90e9a, 0xa4f1411ef9c1f1e9),
        (0xd6951d98f0bcc16e, 0xd67f9d5bad66986e),
        (0x979621bfcba3b79f, 0xd121a542ab3ee904),
    ],
    [
        (0x59ed9110a89a97c5, 0x6d4bc86ffae104ad),
        (0xc72bf18f0cbc2b72, 0xc3e0447ffdb111d9),
        (0xd5688a5b2189ffa9, 0x7e7f8bd24925f885),
    ],
    [
        (0x0a6c98dd4311e67f, 0x0df6d0f76019c899),
        (0x2c4dd2d5f4d20d70, 0xa143e3dab4f38fd9),
        (0x3cc8b5d87ef86375, 0x0acb5b614475f054),
    ],
    [
        (0x9107991e0ff172ca, 0x6fe34ae735b80912),
        (0x9a9a619bd864d87c, 0xc7e11a60d5765ae5),
        (0xe9a8a5299fa080ee, 0x8019989ee45bdf4c),
    ],
    [
        (0x3c7b4ef0e92d4acd, 0x050f4e0ad03df3d5),
        (0xdb41d348beecbbf1, 0x469fcd49b626da85),
        (0x5302f07fee5185bd, 0x3e06e0c5e417a469),
    ],
    [
        (0x98a856627f4e7878, 0x903ee9ef54f3f1e6),
        (0x1d71a09e542bbce1, 0x9ad471f2f487f218),
        (0x636f68754d07c46e, 0x6b1ed6e687d0dfd1),
    ],
    [
        (0x43c6e2723a1c520e, 0xcbd9deff1f5edb77),
        (0xc26882f357bb3c5a, 0x223c673a0b131535),
        (0x833cb64d630d407d, 0x87b9728454e82345),
    ],
    [
        (0x084e0a0bce79cf09, 0x2c4daa6832657958),
        (0x3f132a1d0c438065, 0x4bb174321142c0da),
        (0x3e7357ebc34f36b9, 0x6dc805178dee75df),
    ],
];

#[test]
fn resilient_reports_match_recorded_goldens() {
    let fcfg = FaultConfig::default();
    let mut computed = [[(0u64, 0u64); 3]; 8];
    // Per cluster: what the runs exercised, summed over configs and
    // propagation modes.
    let mut exercised = [[0usize; 6]; 2];
    for (c, (cat, cls, alloc, reqs)) in [golden_cluster(), full_replication_cluster()]
        .into_iter()
        .enumerate()
    {
        let n = alloc.n_backends();
        let cluster = ClusterSpec::homogeneous(n);
        let plan = resilient_plan(n);
        for (k, (name, rcfg)) in resilient_configs().iter().enumerate() {
            for p in 0..3u8 {
                let cfg = sim_config(p);
                let rep = run_open_resilient(
                    &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg, rcfg,
                );
                let mut tracer = Tracer::new(0x601D, 1.0);
                let traced = run_open_resilient_traced(
                    &alloc,
                    &cls,
                    &cluster,
                    &cat,
                    &reqs,
                    0.0,
                    &cfg,
                    &plan,
                    &fcfg,
                    rcfg,
                    Some(&mut tracer),
                );
                let fp = resilience_fingerprint(&rep);
                assert_eq!(
                    resilience_fingerprint(&traced),
                    fp,
                    "{name} on {n} backends, propagation {p}: tracing changed the report"
                );
                assert!(rep.conserved() && rep.lost == 0, "{name}: conservation");
                for (sum, n) in exercised[c].iter_mut().zip([
                    rep.redispatched,
                    rep.timeouts,
                    rep.retries,
                    rep.shed_victims,
                    rep.browned_out,
                    rep.breaker_opens,
                ]) {
                    *sum += n;
                }
                computed[c * 4 + k][usize::from(p)] = (fp, tracer.into_tree().fingerprint());
            }
        }
    }
    // Crash re-dispatch, deadline cancellation, retries, eviction,
    // brownout and the breaker all fire on both clusters.
    assert!(
        exercised.iter().flatten().all(|&n| n > 0),
        "a mechanism never fired: {exercised:?}"
    );
    assert_eq!(
        computed, RESILIENT_GOLDENS,
        "resilient reports drifted from the recorded goldens; computed table:\n{computed:#018x?}"
    );
}
