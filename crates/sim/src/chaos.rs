//! Deterministic chaos/soak harness for the fault-aware open loop.
//!
//! Each chaos run derives a fresh synthetic workload, allocation and
//! layered fault schedule from a ChaCha8 seed, drives the loop through
//! it with the resilience layers off ([`run_open_resilient`] under
//! [`ResilienceConfig::default`], the run [`crate::fault::run_open_faults`]
//! reports), and asserts the robustness invariants the simulator
//! promises under *every* schedule:
//!
//! 1. **Conservation** — every offered request reaches exactly one
//!    terminal state and none is lost
//!    (`completed + shed + timed_out == offered`, `lost ≡ 0`);
//! 2. **Post-repair k-safety** — an online repair never leaves a
//!    weighted class below the configured safety level, and no reroute
//!    fails outright;
//! 3. **Fingerprint stability** — tracing the run twice yields the same
//!    trace fingerprint and does not perturb the simulated responses.
//!
//! Violations are collected (not panicked) so a soak sweep reports
//! every broken schedule with its seed for offline replay.

use crate::engine::SimConfig;
use crate::fault::{FaultConfig, FaultInjectionConfig, FaultPlan, LayeredFaultConfig};
use crate::request::RequestStream;
use crate::resilience::{run_open_resilient, run_open_resilient_traced, ResilienceConfig};
use qcpa_core::classify::{Classification, QueryClass};
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::greedy;
use qcpa_core::journal::QueryKind;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Chaos sweep knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Randomized schedules to sweep.
    pub runs: usize,
    /// Base seed; run `i` derives everything from `seed + i`.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { runs: 64, seed: 9 }
    }
}

/// Outcome of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Schedules swept.
    pub runs: usize,
    /// Human-readable invariant violations, capped at
    /// [`ChaosReport::MAX_VIOLATIONS`] entries (the count keeps going).
    pub violations: Vec<String>,
    /// Total violations observed (may exceed `violations.len()`).
    pub violation_count: usize,
    /// Runs whose realized plan scheduled at least one fault event.
    pub schedules_with_faults: usize,
}

impl ChaosReport {
    /// Cap on retained violation strings.
    pub const MAX_VIOLATIONS: usize = 16;

    /// True if every run satisfied every invariant.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }
}

/// One derived chaos scenario: workload, cluster, allocation, plan.
struct Scenario {
    catalog: Catalog,
    cls: Classification,
    cluster: ClusterSpec,
    requests: Vec<crate::request::Request>,
    plan: FaultPlan,
}

/// Draws a scenario from `seed`: two disjoint table groups, and fault
/// layers rotating through crash-, partition- and gray-flavored
/// schedules.
/// Crashes and partitions are never mixed in one schedule: a crash
/// inside a partition window could legitimately empty the routable
/// set, and the conservation invariant is only promised for schedules
/// that always leave at least one routable backend.
fn draw_scenario(seed: u64) -> Scenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_backends = rng.gen_range(3..=6usize);
    let mut catalog = Catalog::new();
    // Draw the shape first (weights normalize to 1 afterwards).
    let mut drafts: Vec<(Vec<qcpa_core::fragment::FragmentId>, bool, f64)> = Vec::new();
    for g in 0..2 {
        // 1–2 tables per group, never shared across groups.
        let tables: Vec<_> = (0..rng.gen_range(1..=2usize))
            .map(|t| catalog.add_table(format!("T{g}_{t}"), rng.gen_range(2_000..6_000u64)))
            .collect();
        for _ in 0..rng.gen_range(1..=2usize) {
            let weight = rng.gen_range(0.1..0.4f64);
            let read = rng.gen_range(0..10u32) < 7;
            drafts.push((tables.clone(), read, weight));
        }
    }
    let total: f64 = drafts.iter().map(|d| d.2).sum();
    let mut classes: Vec<QueryClass> = Vec::new();
    let mut freq: Vec<f64> = Vec::new();
    let mut kinds: Vec<QueryKind> = Vec::new();
    for (id, (tables, read, weight)) in drafts.into_iter().enumerate() {
        let w = weight / total;
        let id = id as u32;
        classes.push(if read {
            QueryClass::read(id, tables.iter().copied(), w)
        } else {
            QueryClass::update(id, tables.iter().copied(), w)
        });
        freq.push(w * 100.0);
        kinds.push(if read {
            QueryKind::Read
        } else {
            QueryKind::Update
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "weights are normalized by construction above"
    )]
    let cls = Classification::from_classes(classes).expect("generated weights are normalized");
    let cluster = ClusterSpec::homogeneous(n_backends);
    let service = vec![0.02f64; kinds.len()];
    let stream = RequestStream::new(freq, kinds, service);

    let duration = 3.0;
    let util = rng.gen_range(0.5..0.8f64);
    let rate = util * n_backends as f64 / 0.02;
    let requests = stream.sample_poisson(rate, duration, 0.1, &mut rng);

    let flavor = rng.gen_range(0..3u32);
    let lcfg = match flavor {
        // Crash flavor: independent crashes plus sometimes a zone.
        0 => LayeredFaultConfig {
            crashes: FaultInjectionConfig {
                crashes: rng.gen_range(1..=2usize),
                recover: true,
                mttr: duration / 6.0,
                min_alive: 2,
                catchup_cost: 0.05,
            },
            gray: rng.gen_range(0..=1usize),
            gray_duration: duration / 4.0,
            partitions: 0,
            zones: if rng.gen_range(0..2u32) == 1 { 2 } else { 0 },
            zone_failures: 1,
            zone_mttr: duration / 6.0,
            ..LayeredFaultConfig::default()
        },
        // Partition flavor: one cut/heal episode, no crashes.
        1 => LayeredFaultConfig {
            crashes: FaultInjectionConfig {
                crashes: 0,
                ..FaultInjectionConfig::default()
            },
            gray: rng.gen_range(0..=2usize),
            gray_duration: duration / 4.0,
            partitions: 1,
            partition_duration: duration / 4.0,
            zones: 0,
            zone_failures: 0,
            ..LayeredFaultConfig::default()
        },
        // Gray flavor: degradation only.
        _ => LayeredFaultConfig {
            crashes: FaultInjectionConfig {
                crashes: 0,
                ..FaultInjectionConfig::default()
            },
            gray: rng.gen_range(1..=2usize),
            gray_duration: duration / 3.0,
            partitions: 0,
            zones: 0,
            zone_failures: 0,
            ..LayeredFaultConfig::default()
        },
    };
    let plan = FaultPlan::from_seed_layered(seed ^ 0x9E37_79B9, n_backends, duration, &lcfg);
    Scenario {
        catalog,
        cls,
        cluster,
        requests,
        plan,
    }
}

/// Sweeps `cfg.runs` randomized layered schedules and checks every
/// invariant on each. Deterministic: same config, same report.
#[must_use]
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let _span = qcpa_obs::span("sim", "run_chaos");
    let mut report = ChaosReport {
        runs: cfg.runs,
        violations: Vec::new(),
        violation_count: 0,
        schedules_with_faults: 0,
    };
    let sim = SimConfig::default();
    let fcfg = FaultConfig::default();
    let rcfg = ResilienceConfig::default();

    for run in 0..cfg.runs {
        let seed = cfg.seed.wrapping_add(run as u64);
        let sc = draw_scenario(seed);
        if !sc.plan.is_empty() {
            report.schedules_with_faults += 1;
        }
        let alloc = greedy::allocate(&sc.cls, &sc.catalog, &sc.cluster);
        let violate = |report: &mut ChaosReport, msg: String| {
            report.violation_count += 1;
            if report.violations.len() < ChaosReport::MAX_VIOLATIONS {
                report
                    .violations
                    .push(format!("run {run} (seed {seed}): {msg}"));
            }
        };

        // Invariants 1 and 2.
        let rr = run_open_resilient(
            &alloc,
            &sc.cls,
            &sc.cluster,
            &sc.catalog,
            &sc.requests,
            0.0,
            &sim,
            &sc.plan,
            &fcfg,
            &rcfg,
        );
        if !rr.conserved() {
            violate(
                &mut report,
                format!(
                    "conservation broke: {}+{}+{}+{} != {}",
                    rr.completed, rr.shed, rr.timed_out, rr.lost, rr.offered
                ),
            );
        }
        if rr.lost != 0 {
            violate(&mut report, format!("run lost {} requests", rr.lost));
        }
        if rr.reroute_failures != 0 {
            violate(
                &mut report,
                format!("{} reroutes failed", rr.reroute_failures),
            );
        }
        if !rr.post_repair_safety_ok {
            violate(&mut report, "post-repair k-safety violated".to_string());
        }

        // Invariant 3: tracing is stable and non-perturbing.
        let traced = |tracer: &mut qcpa_obs::Tracer| {
            run_open_resilient_traced(
                &alloc,
                &sc.cls,
                &sc.cluster,
                &sc.catalog,
                &sc.requests,
                0.0,
                &sim,
                &sc.plan,
                &fcfg,
                &rcfg,
                Some(tracer),
            )
        };
        let mut t1 = qcpa_obs::Tracer::new(seed, 0.25);
        let ft1 = traced(&mut t1);
        let mut t2 = qcpa_obs::Tracer::new(seed, 0.25);
        let _ = traced(&mut t2);
        if t1.tree.fingerprint() != t2.tree.fingerprint() {
            violate(&mut report, "trace fingerprint unstable".to_string());
        }
        let same = ft1.responses.len() == rr.responses.len()
            && ft1
                .responses
                .iter()
                .zip(&rr.responses)
                .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits());
        if !same {
            violate(&mut report, "tracing perturbed the run".to_string());
        }
    }
    let reg = qcpa_obs::global();
    reg.counter("sim.chaos.runs").add(report.runs as u64);
    reg.counter("sim.chaos.violations")
        .add(report.violation_count as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_and_deterministic() {
        let cfg = ChaosConfig { runs: 6, seed: 9 };
        let a = run_chaos(&cfg);
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert_eq!(a.runs, 6);
        assert!(a.schedules_with_faults >= 1);
        let b = run_chaos(&cfg);
        assert_eq!(a.violation_count, b.violation_count);
        assert_eq!(a.schedules_with_faults, b.schedules_with_faults);
    }
}
