//! Cross-allocator conformance harness: a differential oracle in the
//! Jepsen tradition. Every randomized scenario (workload × cluster ×
//! fault plan) is pushed through all four allocator paths —
//!
//! 1. `greedy::allocate` (Section 3.3),
//! 2. `memetic::allocate` on the delta-cost engine,
//! 3. `qcpa_bench::baseline::optimize` (the preserved pre-delta engine),
//! 4. `ksafety::allocate` (Appendix C) — plus, on small instances, the
//!    branch-&-bound LP of `qcpa-lp` as a certified bound,
//!
//! and every result must satisfy the shared oracle set:
//!
//! * `Allocation::validate` — the Eq. 8–16 invariants;
//! * k-safety preservation for the k-safe path;
//! * delta-engine conformance — `DeltaCost` tracking equals a full
//!   `normalize` + recompute, bit for bit;
//! * LP lower bound — no heuristic beats the proven optimal scale;
//! * fault-plan determinism — `run_open_faults` under the identical
//!   seeded `FaultPlan` replays the memetic allocation bit-identically,
//!   with zero lost requests.
//!
//! The multilevel pipeline (`coarsen::allocate_multilevel`) has its own
//! oracle set below: coarsen → allocate → project → refine must round-
//! trip to a *valid* allocation that is never worse than the projected
//! coarse solution, stay bit-identical across reruns, and the k-safe
//! variant must come back `is_k_safe`.

use proptest::prelude::*;
use qcpa::core::allocation::DeltaCost;
use qcpa::core::classify::Classification;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::coarsen::{allocate_multilevel, allocate_multilevel_ksafe, CoarsenConfig};
use qcpa::core::fragment::Catalog;
use qcpa::core::journal::QueryKind;
use qcpa::core::{greedy, ksafety, memetic, BackendId};
use qcpa::lp::mip::MipStatus;
use qcpa::lp::model::{optimal_allocation, OptimalConfig};
use qcpa::sim::fault::{
    run_open_faults, FaultConfig, FaultInjectionConfig, FaultPlan, LayeredFaultConfig,
};
use qcpa::sim::resilience::{run_open_resilient, OverloadPolicy, ResilienceConfig};
use qcpa::sim::{FaultReport, RequestStream, ResilienceReport, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{materialize, workload_strategy};

/// The small memetic configuration every path under test shares.
fn memetic_config(seed: u64) -> memetic::MemeticConfig {
    memetic::MemeticConfig {
        population: 4,
        iterations: 3,
        seed,
        ..Default::default()
    }
}

/// The four allocator paths under test, labelled for failure messages.
fn candidates(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    seed: u64,
) -> Vec<(&'static str, qcpa::core::allocation::Allocation)> {
    let mcfg = memetic_config(seed);
    let baseline = qcpa_bench::baseline::optimize(
        greedy::allocate(cls, catalog, cluster),
        cls,
        catalog,
        cluster,
        &mcfg,
    );
    vec![
        ("greedy", greedy::allocate(cls, catalog, cluster)),
        ("memetic", memetic::allocate(cls, catalog, cluster, &mcfg)),
        ("baseline", baseline),
        ("ksafe-1", ksafety::allocate(cls, catalog, cluster, 1)),
    ]
}

/// Requests matching the classification: class frequencies proportional
/// to weights, fixed mean service time.
fn request_stream(cls: &Classification) -> RequestStream {
    let freq: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
    let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
    let service = vec![0.01; cls.len()];
    RequestStream::new(freq, kinds, service)
}

fn assert_resilient_bit_identical(a: &ResilienceReport, b: &ResilienceReport, what: &str) {
    assert_eq!(a.responses.len(), b.responses.len(), "{what}: counts");
    for (x, y) in a.responses.iter().zip(&b.responses) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: arrival bits");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: response bits");
    }
    for (x, y) in a.busy.iter().zip(&b.busy) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: busy bits");
    }
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.shed, b.shed, "{what}: shed");
    assert_eq!(a.timed_out, b.timed_out, "{what}: timed_out");
    assert_eq!(a.retries, b.retries, "{what}: retries");
    assert_eq!(a.timeouts, b.timeouts, "{what}: timeouts");
    assert_eq!(a.availability, b.availability, "{what}: availability");
}

fn assert_bit_identical(a: &FaultReport, b: &FaultReport, what: &str) {
    assert_eq!(a.responses.len(), b.responses.len(), "{what}: counts");
    for (x, y) in a.responses.iter().zip(&b.responses) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: arrival bits");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: response bits");
    }
    for (x, y) in a.busy.iter().zip(&b.busy) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: busy bits");
    }
    assert_eq!(a.availability, b.availability, "{what}: availability");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full oracle set over ≥ 64 randomized scenarios.
    #[test]
    fn all_allocators_agree_on_the_oracle_set(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let cands = candidates(&cls, &catalog, &cluster, seed);

        // Oracle 1: structural validity (Eq. 8–16) for every path.
        for (name, alloc) in &cands {
            alloc
                .validate(&cls, &cluster)
                .unwrap_or_else(|e| panic!("{name}: invalid allocation: {e}"));
        }

        // Oracle 2: the k-safe path preserves its guarantee.
        let ksafe = &cands.iter().find(|(n, _)| *n == "ksafe-1").unwrap().1;
        prop_assert!(
            ksafety::class_safety(ksafe, &cls) + 1 >= 2.min(n),
            "k-safe allocation lost its safety margin"
        );
        if n >= 2 {
            for b in cluster.ids() {
                prop_assert!(
                    ksafety::fail_backends(ksafe, &cls, &cluster, &[b]).is_some(),
                    "1-safe path must survive failing {b}"
                );
            }
        }

        // Oracle 3: the delta engine's tracked cost equals a full
        // normalize + recompute on every allocator's output.
        for (name, alloc) in &cands {
            let mut normalized = alloc.clone();
            normalized.normalize(&cls, &cluster);
            let tracker = DeltaCost::new(&normalized, &cls, &catalog);
            prop_assert_eq!(
                tracker.cost(&cluster),
                normalized.cost(&cluster, &catalog),
                "{}: delta cost != full recompute", name
            );
        }
        // ... and stays equal through a live transfer on the greedy
        // output (the delta-engine hot path).
        {
            let mut alloc = cands[0].1.clone();
            alloc.normalize(&cls, &cluster);
            let mut tracker = DeltaCost::new(&alloc, &cls, &catalog);
            if let Some(&r) = cls.read_ids().first() {
                let from = (0..n)
                    .max_by(|&a, &b| {
                        alloc.assign[r.idx()][a]
                            .partial_cmp(&alloc.assign[r.idx()][b])
                            .unwrap()
                    })
                    .unwrap();
                let amount = alloc.assign[r.idx()][from] * 0.5;
                if amount > 0.0 {
                    let to = (from + 1) % n;
                    tracker.transfer(
                        &mut alloc, &cls, &cluster, &catalog,
                        r, BackendId(from as u32), BackendId(to as u32), amount,
                    );
                    prop_assert_eq!(
                        tracker.cost(&cluster),
                        alloc.cost(&cluster, &catalog),
                        "delta cost diverged after a transfer"
                    );
                }
            }
        }

        // Oracle 4: on small instances the LP's proven-optimal scale
        // lower-bounds every heuristic.
        if n <= 3 && cls.len() <= 5 && catalog.len() <= 5 {
            let best_scale = cands
                .iter()
                .map(|(_, a)| a.scale(&cluster))
                .fold(f64::INFINITY, f64::min);
            let best_bytes = cands
                .iter()
                .map(|(_, a)| a.total_bytes(&catalog))
                .min()
                .unwrap();
            let out = optimal_allocation(
                &cls,
                &catalog,
                &cluster,
                &OptimalConfig {
                    max_nodes: 5_000,
                    time_limit: std::time::Duration::from_millis(500),
                    incumbent: Some((best_scale, best_bytes)),
                },
            );
            if out.scale_status == MipStatus::Optimal {
                prop_assert!(
                    out.scale <= best_scale + 1e-6,
                    "LP optimal scale {} above a heuristic's {}",
                    out.scale,
                    best_scale
                );
            }
        }

        // Oracle 5: under the identical seeded fault plan, the sim run
        // on the memetic allocation loses no request and replays
        // exactly.
        let stream = request_stream(&cls);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let reqs = stream.sample_poisson(40.0, 8.0, 0.0, &mut rng);
        let plan = FaultPlan::from_seed_layered(
            seed,
            n,
            8.0,
            &LayeredFaultConfig {
                crashes: FaultInjectionConfig {
                    crashes: 2,
                    ..Default::default()
                },
                gray: 0,
                partitions: 0,
                ..Default::default()
            },
        );
        let sim = |alloc: &qcpa::core::allocation::Allocation| {
            run_open_faults(
                alloc, &cls, &cluster, &catalog, &reqs, 0.0,
                &SimConfig::default(), &plan, &FaultConfig::default(),
            )
        };
        let m = &cands.iter().find(|(n, _)| *n == "memetic").unwrap().1;
        let r = sim(m);
        prop_assert_eq!(r.lost, 0, "online repair must keep every request completable");
        // Re-running the same scenario replays it exactly.
        assert_bit_identical(&r, &sim(m), "fault run rerun");
    }

    /// Resilience-runtime conformance: with deadlines, retries with
    /// jittered backoff, admission control (policy chosen per scenario)
    /// and circuit breakers all active, under random workloads and
    /// seeded fault plans at ~1.5× saturation:
    ///
    /// * conservation — `completed + shed + timed_out == offered`,
    ///   `lost == 0` (no request silently vanishes);
    /// * replay determinism — the identical scenario reproduces
    ///   responses, busy time, and every shed/timeout/retry count bit
    ///   for bit;
    /// * backoff purity — the retry schedule is a pure function of
    ///   `(seed, request, attempt)`.
    #[test]
    fn resilient_runs_conserve_and_replay_exactly(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let m = memetic::allocate(&cls, &catalog, &cluster, &memetic_config(seed));

        // ~1.5× saturation: per-request demand ≈ 0.05 s against `n`
        // unit-capacity backends.
        let freq: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
        let kinds: Vec<QueryKind> = cls.classes.iter().map(|c| c.kind).collect();
        let stream = RequestStream::new(freq, kinds, vec![0.05; cls.len()]);
        let rate = 1.5 * n as f64 / 0.05;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbad_5eed);
        let reqs = stream.sample_poisson(rate, 4.0, 0.0, &mut rng);
        let plan = FaultPlan::from_seed_layered(
            seed,
            n,
            4.0,
            &LayeredFaultConfig {
                crashes: FaultInjectionConfig {
                    crashes: 2,
                    mttr: 1.0,
                    ..Default::default()
                },
                gray: 0,
                partitions: 0,
                ..Default::default()
            },
        );
        let rcfg = ResilienceConfig {
            deadline: 0.2,
            max_retries: 2,
            backoff_base: 0.05,
            backoff_cap: 0.4,
            jitter: 0.25,
            seed,
            queue_cap: 3,
            overload: match seed % 3 {
                0 => OverloadPolicy::Reject,
                1 => OverloadPolicy::ShedLowestWeight,
                _ => OverloadPolicy::Brownout,
            },
            breaker_failures: 3,
            breaker_cooldown: 0.5,
            ..ResilienceConfig::default()
        };
        let sim = |alloc: &qcpa::core::allocation::Allocation| {
            run_open_resilient(
                alloc, &cls, &cluster, &catalog, &reqs, 0.0,
                &SimConfig::default(), &plan, &FaultConfig::default(), &rcfg,
            )
        };
        let r = sim(&m);
        prop_assert!(
            r.conserved(),
            "conservation violated: {} + {} + {} + {} != {}",
            r.completed, r.shed, r.timed_out, r.lost, r.offered
        );
        prop_assert_eq!(r.lost, 0, "lost requests under faults");
        assert_resilient_bit_identical(&r, &sim(&m), "resilient rerun");

        // Backoff purity: same (seed, request, attempt) → same delay,
        // bit for bit, with no hidden state between calls.
        let twin = rcfg;
        for req in [0u64, 7, 63] {
            for attempt in 1u32..4 {
                prop_assert_eq!(
                    rcfg.backoff(req, attempt).to_bits(),
                    twin.backoff(req, attempt).to_bits(),
                    "backoff schedule is not a pure function"
                );
            }
        }
    }

    /// Multilevel oracle set over randomized workloads, with coarsening
    /// *forced* (`target_fragments = 2`, generous size cap) so even the
    /// small materialized instances contract at least once whenever a
    /// co-access edge exists:
    ///
    /// * round trip — coarsen → allocate → project → refine yields an
    ///   allocation passing `validate` (Eq. 8–16) on the *finest* level;
    /// * monotone refinement — the final cost is never worse than the
    ///   projected coarse solution's cost at the finest level;
    /// * rerun determinism — the pipeline is bit-identical across
    ///   reruns;
    /// * k-safety — `allocate_multilevel_ksafe(.., 1)` validates and
    ///   reports `is_k_safe` at k = 1.
    #[test]
    fn multilevel_pipeline_conforms(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let mcfg = memetic_config(seed);
        let ccfg = CoarsenConfig {
            target_fragments: 2,
            max_levels: 8,
            size_cap_factor: 1e6,
        };

        let out1 = allocate_multilevel(&cls, &catalog, &cluster, &mcfg, &ccfg);
        out1.alloc
            .validate(&cls, &cluster)
            .unwrap_or_else(|e| panic!("multilevel: invalid refined allocation: {e}"));
        prop_assert!(
            !out1.projected_cost.better_than(&out1.final_cost),
            "refinement worsened the projected coarse solution: {:?} -> {:?}",
            out1.projected_cost,
            out1.final_cost
        );

        let again = allocate_multilevel(&cls, &catalog, &cluster, &mcfg, &ccfg);
        prop_assert_eq!(&out1.alloc, &again.alloc, "multilevel rerun diverged (seed {})", seed);
        prop_assert_eq!(out1.levels, again.levels, "level count diverged on rerun");

        let kout = allocate_multilevel_ksafe(&cls, &catalog, &cluster, &mcfg, &ccfg, 1);
        kout.alloc
            .validate(&cls, &cluster)
            .unwrap_or_else(|e| panic!("multilevel-ksafe: invalid allocation: {e}"));
        prop_assert!(
            ksafety::is_k_safe(&kout.alloc, &cls, 1),
            "multilevel k-safe pipeline lost its 1-safety"
        );
    }
}

/// The multilevel oracles on an instance big enough for *real* depth:
/// 64 clustered fragments (`qcpa::workloads::clustered`) coarsened to a
/// 16-fragment target must contract at least one level, refine to a
/// valid allocation no worse than the projection, stay bit-identical
/// across reruns, and keep 1-safety through the k-safe variant.
#[test]
fn multilevel_deep_instance_conforms() {
    let w = qcpa::workloads::clustered(64, 42);
    let cluster = ClusterSpec::homogeneous(8);
    let mcfg = memetic_config(42);
    let ccfg = CoarsenConfig {
        target_fragments: 16,
        ..CoarsenConfig::default()
    };
    let out1 = allocate_multilevel(&w.classification, &w.catalog, &cluster, &mcfg, &ccfg);
    assert!(out1.levels >= 1, "64→16 coarsening must contract");
    out1.alloc
        .validate(&w.classification, &cluster)
        .unwrap_or_else(|e| panic!("deep multilevel: invalid allocation: {e}"));
    assert!(
        !out1.projected_cost.better_than(&out1.final_cost),
        "refinement worsened the projection"
    );
    let again = allocate_multilevel(&w.classification, &w.catalog, &cluster, &mcfg, &ccfg);
    assert_eq!(out1.alloc, again.alloc, "deep multilevel rerun diverged");
    assert_eq!(out1.levels, again.levels);

    let kout = allocate_multilevel_ksafe(&w.classification, &w.catalog, &cluster, &mcfg, &ccfg, 1);
    kout.alloc
        .validate(&w.classification, &cluster)
        .unwrap_or_else(|e| panic!("deep multilevel-ksafe: invalid allocation: {e}"));
    assert!(ksafety::is_k_safe(&kout.alloc, &w.classification, 1));
}
