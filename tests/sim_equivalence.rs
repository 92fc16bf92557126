//! Differential lockdown of the hot-path simulator rewrite.
//!
//! [`qcpa::sim::baseline`] preserves the pre-rewrite open-loop engine
//! verbatim as the oracle; this harness replays random scenarios
//! (workload × cluster size × propagation protocol × warmup × jitter)
//! through the rewritten engine and asserts **bit-identical**
//! `OpenReport`s — every `f64` compared by `to_bits`, never by
//! tolerance — across every axis of the rewrite:
//!
//! * **Queue implementation** — `run_open_with` under both
//!   [`QueueKind::Heap`] and [`QueueKind::Calendar`] must equal the
//!   baseline (which has its own frozen `BinaryHeap` index);
//! * **Tracing** — traced runs must return the untraced report and
//!   produce the same trace-tree fingerprint as the baseline engine;
//! * **Sharding** — `run_open_sharded` at 1, 2 and 4 shards must equal
//!   the unsharded run (the cross-component merge contract, DESIGN.md
//!   §14.3). check.sh replays this suite under `QCPA_THREADS` and
//!   `QCPA_SIM_SHARDS` ∈ {1, 4}, so the worker pool is exercised on
//!   both settings;
//! * **Degenerate configs collapse** — `run_open_faults` with an empty
//!   plan equals `run_open`, and faulted runs replay themselves bit
//!   for bit;
//! * **Fault goldens** — `run_open_faults` is the fault-aware loop of
//!   `qcpa::sim::resilience` with every mechanism off. A table of
//!   report fingerprints, recorded from the separate fault engine that
//!   loop replaced, pins it (unsharded, sharded, and read off the
//!   all-disabled `run_open_resilient` report) across six fault
//!   scenarios × six propagation settings.

use proptest::prelude::*;
use qcpa::core::allocation::Allocation;
use qcpa::core::classify::{Classification, QueryClass};
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::fragment::Catalog;
use qcpa::core::greedy;
use qcpa::core::journal::QueryKind;
use qcpa::sim::baseline::{run_open_baseline, run_open_baseline_traced};
use qcpa::sim::engine::run_open_with;
use qcpa::sim::fault::{
    run_open_faults, FaultConfig, FaultEvent, FaultInjectionConfig, FaultPlan, FaultReport,
    LayeredFaultConfig,
};
use qcpa::sim::resilience::run_open_resilient;
use qcpa::sim::shard::{run_open_faults_sharded, run_open_resilient_sharded, run_open_sharded};
use qcpa::sim::{
    OpenReport, QueueKind, Request, RequestStream, ResilienceConfig, ResilienceReport, SimConfig,
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rewritten engine equals the preserved baseline bit for bit,
    /// under both event-queue implementations, traced and untraced,
    /// with identical trace trees.
    #[test]
    fn rewritten_engine_matches_baseline_under_both_queues(
        w in workload_strategy(),
        n in 2usize..6,
        seed in 0u64..1_000,
        propagation in 0u8..6,
        warm in proptest::bool::ANY,
        jit in proptest::bool::ANY,
    ) {
        let (catalog, Some(cls)) = materialize(&w) else { return Ok(()) };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let reqs = requests(&cls, n, seed, if jit { 0.15 } else { 0.0 });
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = sim_config(propagation);
        let warmup = if warm { 0.05 } else { 0.0 };

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

        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let plain = run_open_with(
                &alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg, None, kind,
            );
            assert_open_bit_identical(&oracle, &plain, &format!("baseline vs {kind:?}"));

            let mut tr = Tracer::new(seed, 1.0);
            let traced = run_open_with(
                &alloc, &cls, &cluster, &catalog, &reqs, warmup, &cfg,
                Some(&mut tr), kind,
            );
            assert_open_bit_identical(&oracle, &traced, &format!("baseline vs traced {kind:?}"));
            prop_assert_eq!(
                tr.into_tree().fingerprint(),
                oracle_fp,
                "trace fingerprint diverged under {:?}",
                kind
            );
        }
    }

    /// Sharded runs merge to the exact unsharded report at every shard
    /// count — the per-component simulations plus the deterministic
    /// cross-shard merge are observationally invisible.
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
            let sharded = run_open_sharded(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, shards,
            );
            assert_open_bit_identical(&oracle, &sharded, &format!("{shards}-shard merge"));
        }
    }

    /// Degenerate configurations collapse exactly: an empty fault plan
    /// reproduces `run_open`, and a faulted run replays itself bit for
    /// bit. (That the all-disabled resilience default reproduces
    /// `run_open_faults` is pinned against recorded goldens in
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
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let reqs = requests(&cls, n, seed, 0.0);
        if reqs.is_empty() {
            return Ok(());
        }
        let cfg = sim_config(propagation);

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
                crashes: FaultInjectionConfig { crashes: 1, mttr: 0.5, ..Default::default() },
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

    /// The fault-aware sharded drivers merge to the exact unsharded
    /// reports under a non-empty layered plan (crashes + gray windows +
    /// partitions) — the DESIGN.md §15 contract. check.sh replays this
    /// suite under `QCPA_THREADS`=1 and 4 and `QCPA_SIM_SHARDS`=1 and
    /// 4, so the merge is exercised on every thread × shard setting.
    #[test]
    fn sharded_fault_engines_are_bit_identical_to_unsharded(
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
        let plan = FaultPlan::from_seed_layered(
            seed,
            n,
            2.0,
            &LayeredFaultConfig {
                crashes: FaultInjectionConfig { crashes: 1, mttr: 0.5, ..Default::default() },
                gray: 1,
                gray_duration: 0.5,
                partitions: 1,
                partition_duration: 0.5,
                ..LayeredFaultConfig::default()
            },
        );
        prop_assert!(!plan.is_empty(), "layered plan must schedule events");
        let fcfg = FaultConfig::default();
        let rcfg = ResilienceConfig::standard();

        let faulted = run_open_faults(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, &plan, &fcfg,
        );
        let resilient = run_open_resilient(
            &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, &plan, &fcfg, &rcfg,
        );
        for shards in [1usize, 2, 4] {
            let fs = run_open_faults_sharded(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, &plan, &fcfg, shards,
            );
            prop_assert_eq!(fs.responses.len(), faulted.responses.len());
            for (x, y) in fs.responses.iter().zip(&faulted.responses) {
                prop_assert_eq!(x.0.to_bits(), y.0.to_bits(), "fault arrival bits");
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "fault response bits");
            }
            prop_assert_eq!(fs.lost, faulted.lost);
            prop_assert_eq!(fs.redispatched, faulted.redispatched);
            prop_assert_eq!(fs.gray_windows, faulted.gray_windows);
            prop_assert_eq!(fs.partitions, faulted.partitions);
            prop_assert_eq!(&fs.availability, &faulted.availability);
            for (x, y) in fs.busy.iter().zip(&faulted.busy) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "fault busy bits");
            }

            let rs = run_open_resilient_sharded(
                &alloc, &cls, &cluster, &catalog, &reqs, 0.0, &cfg, &plan, &fcfg, &rcfg,
                shards,
            );
            prop_assert_eq!(rs.responses.len(), resilient.responses.len());
            for (x, y) in rs.responses.iter().zip(&resilient.responses) {
                prop_assert_eq!(x.0.to_bits(), y.0.to_bits(), "resilient arrival bits");
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "resilient response bits");
            }
            prop_assert_eq!(rs.completed, resilient.completed);
            prop_assert_eq!(rs.shed, resilient.shed);
            prop_assert_eq!(rs.timed_out, resilient.timed_out);
            prop_assert_eq!(rs.lost, resilient.lost);
            prop_assert_eq!(rs.retries, resilient.retries);
            prop_assert_eq!(rs.breaker_opens, resilient.breaker_opens);
            prop_assert_eq!(&rs.availability, &resilient.availability);
            for (x, y) in rs.busy.iter().zip(&resilient.busy) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "resilient busy bits");
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
    // The stream's frequencies are its own: the zero-weight class still
    // receives 8 % of the arrivals.
    let freq = vec![22.0, 14.0, 10.0, 22.0, 14.0, 10.0, 8.0];
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let stream = RequestStream::new(freq, kinds, vec![0.02; cls.len()]);
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let reqs = stream.sample_poisson(190.0, 2.0, 0.1, &mut rng);
    (cat, cls, alloc, reqs)
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
            for shards in [1usize, 2, 4] {
                let sharded = run_open_faults_sharded(
                    &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, plan, &fcfg, shards,
                );
                assert_eq!(
                    fault_fingerprint(&sharded),
                    fp,
                    "{name}, propagation {p}: {shards}-shard merge diverged"
                );
            }
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
