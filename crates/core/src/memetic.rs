//! The memetic (hybrid evolutionary) optimizer (Section 3.3,
//! Algorithm 2).
//!
//! Evolutionary *programming*: mutations derive from a single parent —
//! no recombination — and a random third of each generation is improved
//! with the local search strategies of [`crate::localsearch`], making
//! the algorithm a memetic / hybrid heuristic. Selection is `(λ+µ)`:
//! the best two thirds of the old population survive together with the
//! best third of the offspring, which guarantees monotone convergence
//! of the best cost.
//!
//! The initial population is seeded with the greedy solution (faster
//! convergence than random initialization, as the paper recommends).
//!
//! ## Parallel execution and determinism
//!
//! The generation loop submits **one fused batch per generation** to a
//! [`qcpa_par::with_session`] worker set (`QCPA_THREADS` workers by
//! default, overridable per run with [`MemeticConfig::threads`]):
//! every task builds one offspring (mutation) and — when the driver
//! flagged its index for improvement — runs the local search on that
//! offspring *inside the same task*, so the formerly serial
//! `driver.improve_fanout` phase is now parallel work. Workers are
//! spawned once per optimize call and stay parked on a job channel
//! between generations (no per-generation thread wakeup cost).
//!
//! Results are **bit-identical at any thread count** because nothing in
//! a task depends on scheduling:
//!
//! * every offspring draws from its own `ChaCha8Rng`, seeded with
//!   [`qcpa_par::stream_seed]`(seed, generation, offspring_index)` —
//!   there is no shared RNG to race on;
//! * the improvement-set shuffle uses a separate dedicated stream
//!   (`index = u64::MAX`), drawn on the driver thread *before* the
//!   fan-out, so the improve flags ride along with the jobs;
//! * [`qcpa_par::Session::run`] returns results in task-index order,
//!   and all selection sorts are stable;
//! * per-lane scratch buffers ([`localsearch::Scratch`]) are reused
//!   across probes but carry no state between them — they are an
//!   allocation cache, not an input.
//!
//! Candidate evaluation inside a task is incremental: mutations are
//! expressed as [`DeltaCost::transfer`]s, so an offspring's cost comes
//! from re-deriving the two backends a transfer touches instead of a
//! full [`Allocation::normalize`] + cost recomputation, and the local
//! search continues on the same tracker. Worker tasks record their
//! telemetry into private [`qcpa_obs::Registry`] shards that the driver
//! merges in index order ([`qcpa_obs::Registry::merge_shard`]), keeping
//! the global registry deterministic too.

use std::sync::{Arc, Mutex, PoisonError};

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::allocation::{AllocCost, Allocation, DeltaCost};
use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::fragment::Catalog;
use crate::{greedy, localsearch, BackendId, ClassId, EPS};

/// Tuning knobs of the memetic optimizer.
#[derive(Debug, Clone)]
pub struct MemeticConfig {
    /// Population size `p`. The paper's `(λ+µ)` selection keeps the best
    /// `2p/3` parents and best `p/3` offspring.
    pub population: usize,
    /// Number of generations. Runtime is deterministic in this (the
    /// paper prefers this over convergence-based stopping).
    pub iterations: usize,
    /// Mutation operators applied per offspring (1–3 is typical).
    pub mutations_per_offspring: usize,
    /// RNG seed: identical seeds reproduce identical results — at any
    /// worker count.
    pub seed: u64,
    /// Worker threads for the generation fan-out. `None` sizes the pool
    /// from the environment (`QCPA_THREADS`, else available
    /// parallelism). The result does not depend on this value.
    pub threads: Option<usize>,
}

impl Default for MemeticConfig {
    fn default() -> Self {
        Self {
            population: 12,
            iterations: 60,
            mutations_per_offspring: 2,
            seed: 0xC0FFEE,
            threads: None,
        }
    }
}

/// Runs the full pipeline: greedy initial solution, then memetic
/// refinement.
///
/// ```
/// use qcpa_core::prelude::*;
/// use qcpa_core::memetic::{self, MemeticConfig};
///
/// let mut catalog = Catalog::new();
/// let a = catalog.add_table("A", 100);
/// let b = catalog.add_table("B", 100);
/// let cls = Classification::from_classes(vec![
///     QueryClass::read(0, [a], 0.6),
///     QueryClass::update(1, [b], 0.4),
/// ]).unwrap();
/// let cluster = ClusterSpec::homogeneous(2);
/// let alloc = memetic::allocate(&cls, &catalog, &cluster, &MemeticConfig::default());
/// alloc.validate(&cls, &cluster).unwrap();
/// ```
pub fn allocate(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
) -> Allocation {
    let initial = greedy::allocate(cls, catalog, cluster);
    optimize(initial, cls, catalog, cluster, cfg)
}

/// Algorithm 2: refines `initial` and returns the best allocation found.
/// The result is never worse than `initial` under the lexicographic
/// (scale, bytes) cost.
pub fn optimize(
    initial: Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
) -> Allocation {
    let _span = qcpa_obs::span("core", "memetic_optimize");
    run_generations(initial, cls, catalog, cluster, cfg, "memetic", None, None)
}

/// [`optimize`] with phase profiling: returns the refined allocation
/// plus a [`qcpa_obs::PhaseProfile`] attributing the optimize wall time
/// to driver phases (seed build, improve planning, the fused generation
/// fan-out and merge, selection, telemetry), worker-side task phases
/// (mutation, local search) and per-worker busy lanes — plus a
/// `pool.overhead` estimate of the fan-out wall time no task accounts
/// for (channel dispatch, result merge, load imbalance) relative to a
/// perfect spread over `min(workers, hardware)` lanes: the serial
/// fraction that caps parallel speedup.
///
/// Profiling never changes the result: the allocation is bit-identical
/// to [`optimize`]'s, and the profile's
/// [`fingerprint`](qcpa_obs::PhaseProfile::fingerprint) (calls/work,
/// not seconds) is bit-identical at any `QCPA_THREADS`.
pub fn optimize_profiled(
    initial: Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
) -> (Allocation, qcpa_obs::PhaseProfile) {
    let _span = qcpa_obs::span("core", "memetic_optimize");
    let mut profile = qcpa_obs::PhaseProfile::new();
    let alloc = run_generations(
        initial,
        cls,
        catalog,
        cluster,
        cfg,
        "memetic",
        None,
        Some(&mut profile),
    );
    (alloc, profile)
}

/// Algorithm 2 adapted to preserve k-safety (the extension the paper
/// mentions but omits "due to space limitations"): each offspring is
/// repaired to `min(k + 1, |B|)` replicas per class before evaluation,
/// so every member of the population — and the returned optimum —
/// keeps the redundancy guarantee while the search still reduces scale
/// and storage.
pub fn optimize_ksafe(
    initial: Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
    k: usize,
) -> Allocation {
    let _span = qcpa_obs::span("core", "memetic_optimize_ksafe");
    let harden = move |a: &mut Allocation| crate::ksafety::repair(a, cls, cluster, k);
    run_generations(
        initial,
        cls,
        catalog,
        cluster,
        cfg,
        "memetic.ksafe",
        Some(&harden),
        None,
    )
}

/// One population member: the allocation, its cost, and — on the plain
/// (non-repaired) path — the incremental aggregates kept consistent
/// with it, so children and local search start from cloned aggregates
/// instead of a fresh O(|B|·|C|·|F|) build.
#[derive(Debug, Clone)]
struct Individual {
    alloc: Allocation,
    cost: AllocCost,
    tracker: Option<DeltaCost>,
}

/// The generation loop shared by [`optimize`] and [`optimize_ksafe`],
/// parameterized over the repair step applied to every candidate:
/// `None` keeps candidates merely normalized; `Some(repair)` re-applies
/// an invariant (k-safety hardening) after each mutation or improvement
/// and re-costs the candidate in full (repairs add spare replicas the
/// incremental tracker does not model).
#[allow(clippy::too_many_arguments)]
fn run_generations(
    initial: Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
    prefix: &str,
    repair: Option<&(dyn Fn(&mut Allocation) + Sync)>,
    mut profile: Option<&mut qcpa_obs::PhaseProfile>,
) -> Allocation {
    assert!(cfg.population >= 3, "population must be at least 3");
    let pool = qcpa_par::Pool::new(cfg.threads);
    // Profiling is observation-only: every timed region computes
    // exactly what the unprofiled path computes, so the returned
    // allocation is bit-identical with or without a profile.
    let profiling = profile.is_some();
    let cost_of = |a: &Allocation| a.cost(cluster, catalog);

    // Population invariant: without repair every member is normalized
    // and carries a consistent [`DeltaCost`] tracker, so offspring clone
    // the parent's aggregates instead of rebuilding them. With repair
    // every member is hardened (no tracker: repair adds replicas the
    // tracker does not model).
    let t_seed = profile.as_deref().map(|p| p.start());
    let mut seed_alloc = initial;
    let seed_tracker = match repair {
        Some(rep) => {
            rep(&mut seed_alloc);
            None
        }
        None => {
            seed_alloc.normalize(cls, cluster);
            Some(DeltaCost::new(&seed_alloc, cls, catalog))
        }
    };
    let seed_cost = cost_of(&seed_alloc);
    if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_seed) {
        p.stop("driver.seed", t0, 1);
    }
    let mut population: Vec<Individual> = vec![Individual {
        alloc: seed_alloc,
        cost: seed_cost,
        tracker: seed_tracker,
    }];

    // One fused task per offspring: mutate, and — when the driver
    // flagged this index — locally improve the child in the same task.
    // All inputs (generation, index, improve flag, parents snapshot)
    // ride in the job; nothing depends on scheduling.
    struct Job {
        generation: u64,
        index: u64,
        improve: bool,
        parents: Arc<Vec<Individual>>,
    }

    // Per-lane local-search scratch: an allocation cache reused across
    // every probe a lane runs in this optimize call. Each field is
    // refilled before use, so lanes stay pure functions of their jobs.
    let workers = pool.workers();
    let scratches: Vec<Mutex<localsearch::Scratch>> = (0..workers)
        .map(|_| Mutex::new(localsearch::Scratch::default()))
        .collect();

    let worker_fn = |job: Job, lane: usize| {
        let Job {
            generation,
            index,
            improve,
            parents,
        } = job;
        let shard = qcpa_obs::Registry::new();
        let mut tp = qcpa_obs::PhaseProfile::new();
        let mut rng = ChaCha8Rng::seed_from_u64(qcpa_par::stream_seed(cfg.seed, generation, index));
        let build = |rng: &mut ChaCha8Rng| {
            let _span = qcpa_obs::span_on(&shard, "core", "memetic_offspring");
            let parent = &parents[rng.gen_range(0..parents.len())];
            let mut child = mutate(parent, cls, catalog, cluster, cfg, rng);
            if let Some(rep) = repair {
                rep(&mut child.alloc);
                child.cost = cost_of(&child.alloc);
                child.tracker = None;
            }
            child
        };
        let mut child = if profiling {
            tp.time("task.mutation", 1, || build(&mut rng))
        } else {
            build(&mut rng)
        };
        if improve {
            let search = |child: &mut Individual| {
                let _span = qcpa_obs::span_on(&shard, "core", "memetic_improve");
                match (&mut child.tracker, repair) {
                    // Plain path: continue on the child's tracker with
                    // the lane's scratch buffers. Local search is
                    // monotone, so the improved child never costs more.
                    (Some(tracker), None) => {
                        let mut scratch = scratches[lane]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        let changed = localsearch::improve_with_scratch(
                            &mut child.alloc,
                            tracker,
                            cls,
                            catalog,
                            cluster,
                            &mut scratch,
                        );
                        if changed {
                            child.cost = tracker.cost(cluster);
                        }
                    }
                    // Repair path: full improve, re-harden, full cost.
                    _ => {
                        localsearch::improve(&mut child.alloc, cls, catalog, cluster);
                        if let Some(rep) = repair {
                            rep(&mut child.alloc);
                        }
                        child.cost = cost_of(&child.alloc);
                        child.tracker = None;
                    }
                }
            };
            if profiling {
                tp.time("task.local_search", 1, || search(&mut child));
            } else {
                search(&mut child);
            }
        }
        if profiling {
            let secs = tp.secs_with_prefix("task.");
            tp.record(qcpa_obs::worker_phase(lane), secs, 0);
        }
        // `parents` (this job's snapshot handle) drops here, before the
        // result is sent — the driver's `Arc::try_unwrap` relies on it.
        (child, shard, tp)
    };

    let t_spawn = profile.as_deref().map(|p| p.start());
    qcpa_par::with_session(workers, worker_fn, |session| {
        if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_spawn) {
            p.stop("driver.pool_spawn", t0, 1);
        }
        for generation in 0..cfg.iterations {
            // Improvement plan: a random third of this generation's
            // offspring (dedicated driver-side stream) gets the local
            // search, flagged before the fan-out so the work runs
            // inside the parallel region.
            let improve_count = (cfg.population / 3).max(1);
            let t_plan = profile.as_deref().map(|p| p.start());
            let mut shuffle_rng = ChaCha8Rng::seed_from_u64(qcpa_par::stream_seed(
                cfg.seed,
                generation as u64,
                u64::MAX,
            ));
            let mut idx: Vec<usize> = (0..cfg.population).collect();
            idx.shuffle(&mut shuffle_rng);
            idx.truncate(improve_count);
            let mut improve_flag = vec![false; cfg.population];
            for &i in &idx {
                improve_flag[i] = true;
            }
            if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_plan) {
                p.stop("driver.improve_plan", t0, improve_count as u64);
            }

            // Fused generation fan-out: one batch per generation.
            let parents = Arc::new(std::mem::take(&mut population));
            let t_fan = profile.as_deref().map(|p| p.start());
            let jobs: Vec<Job> = (0..cfg.population)
                .map(|i| Job {
                    generation: generation as u64,
                    index: i as u64,
                    improve: improve_flag[i],
                    parents: Arc::clone(&parents),
                })
                .collect();
            let born = session.run(jobs);
            if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_fan) {
                p.stop("driver.generation_fanout", t0, cfg.population as u64);
            }
            let t_merge = profile.as_deref().map(|p| p.start());
            let mut offspring: Vec<Individual> = Vec::with_capacity(cfg.population);
            for (child, shard, tp) in born {
                qcpa_obs::global().merge_shard(&shard);
                if let Some(p) = profile.as_deref_mut() {
                    p.merge(&tp);
                }
                offspring.push(child);
            }
            if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_merge) {
                p.stop("driver.generation_merge", t0, cfg.population as u64);
            }
            // Every job dropped its snapshot handle before returning,
            // so the population moves back without a copy; the clone
            // fallback is a correctness net, not an expected path.
            population = match Arc::try_unwrap(parents) {
                Ok(v) => v,
                Err(shared) => (*shared).clone(),
            };

            // (λ+µ) selection — best 2/3 parents + best 1/3 offspring.
            // Parents survive unchanged, so the best cost is monotone
            // even though offspring improvement happened pre-selection.
            let t_sel = profile.as_deref().map(|p| p.start());
            population.sort_by_key(|a| a.cost);
            offspring.sort_by_key(|a| a.cost);
            let acceptance = acceptance_rate(&population, &offspring);
            let keep_old = (cfg.population * 2 / 3).max(1).min(population.len());
            let keep_new = (cfg.population - keep_old).min(offspring.len());
            population.truncate(keep_old);
            population.extend(offspring.into_iter().take(keep_new));
            if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_sel) {
                p.stop("driver.selection", t0, (keep_old + keep_new) as u64);
            }

            let t_tel = profile.as_deref().map(|p| p.start());
            trace_generation(prefix, &population, acceptance);
            if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t_tel) {
                p.stop("driver.telemetry", t0, 1);
            }
        }
    });

    // Wall time the generation fan-outs spent beyond a perfect spread
    // of the measured task time over the *effective* lanes (workers
    // capped by hardware parallelism — oversubscribed workers
    // time-slice, which is not pool overhead): channel dispatch, result
    // merge, and load imbalance — the serial fraction that caps
    // speedup.
    if let Some(p) = profile.as_deref_mut() {
        let fanout = p.secs_with_prefix("driver.generation_fanout");
        let tasks = p.secs_with_prefix("task.");
        let effective = workers.min(qcpa_par::hardware_parallelism()).max(1);
        let ideal = tasks / effective as f64;
        p.record("pool.overhead", (fanout - ideal).max(0.0), 0);
    }

    // The minimum-cost solution.
    let t_fin = profile.as_deref().map(|p| p.start());
    let best = population
        .into_iter()
        .min_by(|a, b| a.cost.cmp(&b.cost))
        .expect("population is never empty")
        .alloc;
    if let (Some(p), Some(t0)) = (profile, t_fin) {
        p.stop("driver.finalize", t0, 1);
    }
    best
}

/// Fraction of this generation's offspring at least as fit as the
/// worst current parent — how competitive mutation currently is, the
/// acceptance-rate convergence signal. Both slices must be sorted by
/// cost.
fn acceptance_rate(population: &[Individual], offspring: &[Individual]) -> f64 {
    let worst_parent = population.last().expect("population is never empty").cost;
    let accepted = offspring
        .iter()
        .filter(|o| !worst_parent.better_than(&o.cost))
        .count();
    accepted as f64 / offspring.len().max(1) as f64
}

/// Publishes one generation's convergence telemetry: best/mean scale of
/// the surviving population and the offspring acceptance rate, as
/// registry series under `<prefix>.{best,mean}_fitness` and
/// `<prefix>.acceptance_rate`.
fn trace_generation(prefix: &str, population: &[Individual], acceptance: f64) {
    let reg = qcpa_obs::global();
    let best = population
        .iter()
        .map(|p| p.cost.scale)
        .fold(f64::INFINITY, f64::min);
    let mean = population.iter().map(|p| p.cost.scale).sum::<f64>() / population.len() as f64;
    reg.push_series(&format!("{prefix}.best_fitness"), best);
    reg.push_series(&format!("{prefix}.mean_fitness"), mean);
    reg.push_series(&format!("{prefix}.acceptance_rate"), acceptance);
}

/// Generates one offspring: `n_ops` random mutations of `parent`
/// applied through a [`DeltaCost`] tracker, so the child stays
/// normalized at every step and its cost falls out of the incremental
/// aggregates.
///
/// A parent with a tracker (plain path) hands its child a *clone* of
/// the aggregates — flat arrays only, the per-instance bitset index is
/// shared — no rebuild. A tracker-less parent (a
/// k-safety-hardened one) is first re-normalized, then tracked fresh;
/// the caller re-applies the repair afterwards.
fn mutate<R: Rng>(
    parent: &Individual,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
    rng: &mut R,
) -> Individual {
    let mut child = parent.alloc.clone();
    let mut tracker = match &parent.tracker {
        Some(t) => t.clone(),
        None => {
            child.normalize(cls, cluster);
            DeltaCost::new(&child, cls, catalog)
        }
    };
    for _ in 0..cfg.mutations_per_offspring.max(1) {
        match rng.gen_range(0..4) {
            0 => move_share(&mut child, &mut tracker, cls, cluster, catalog, rng),
            1 => split_share(&mut child, &mut tracker, cls, cluster, catalog, rng),
            2 => consolidate(&mut child, &mut tracker, cls, cluster, catalog, rng),
            _ => rebalance(&mut child, &mut tracker, cls, cluster, catalog, rng),
        }
    }
    let cost = tracker.cost(cluster);
    Individual {
        alloc: child,
        cost,
        tracker: Some(tracker),
    }
}

/// Picks a random read class with a positive share somewhere; returns
/// (class index, backend index). Allocation-free: counts candidates,
/// draws one index, then walks to it (a single `gen_range` draw, like
/// the old slice-choose).
fn random_share<R: Rng>(
    alloc: &Allocation,
    cls: &Classification,
    rng: &mut R,
) -> Option<(usize, usize)> {
    let total: usize = cls
        .read_ids()
        .iter()
        .map(|r| {
            (0..alloc.n_backends())
                .filter(|&b| alloc.assign[r.idx()][b] > EPS)
                .count()
        })
        .sum();
    if total == 0 {
        return None;
    }
    let pick = rng.gen_range(0..total);
    let mut seen = 0;
    for &r in cls.read_ids() {
        for b in 0..alloc.n_backends() {
            if alloc.assign[r.idx()][b] > EPS {
                if seen == pick {
                    return Some((r.idx(), b));
                }
                seen += 1;
            }
        }
    }
    unreachable!("pick < total candidates")
}

/// Moves a whole read share to a random other backend.
fn move_share<R: Rng>(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    rng: &mut R,
) {
    let Some((c, from)) = random_share(alloc, cls, rng) else {
        return;
    };
    let n = alloc.n_backends();
    if n < 2 {
        return;
    }
    let mut to = rng.gen_range(0..n);
    if to == from {
        to = (to + 1) % n;
    }
    let share = alloc.assign[c][from];
    tracker.transfer(
        alloc,
        cls,
        cluster,
        catalog,
        ClassId(c as u32),
        BackendId(from as u32),
        BackendId(to as u32),
        share,
    );
}

/// Splits a read share in half across a second backend.
fn split_share<R: Rng>(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    rng: &mut R,
) {
    let Some((c, from)) = random_share(alloc, cls, rng) else {
        return;
    };
    let n = alloc.n_backends();
    if n < 2 {
        return;
    }
    let mut to = rng.gen_range(0..n);
    if to == from {
        to = (to + 1) % n;
    }
    let half = alloc.assign[c][from] / 2.0;
    tracker.transfer(
        alloc,
        cls,
        cluster,
        catalog,
        ClassId(c as u32),
        BackendId(from as u32),
        BackendId(to as u32),
        half,
    );
}

/// Collapses a read class spread over several backends onto the backend
/// currently holding its largest share.
fn consolidate<R: Rng>(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    rng: &mut R,
) {
    let is_spread = |c: usize| {
        (0..alloc.n_backends())
            .filter(|&b| alloc.assign[c][b] > EPS)
            .count()
            > 1
    };
    let n_spread = cls.read_ids().iter().filter(|r| is_spread(r.idx())).count();
    if n_spread == 0 {
        return;
    }
    let pick = rng.gen_range(0..n_spread);
    let c = cls
        .read_ids()
        .iter()
        .map(|r| r.idx())
        .filter(|&c| is_spread(c))
        .nth(pick)
        .expect("pick < n_spread");
    let best = (0..alloc.n_backends())
        .max_by(|&x, &y| {
            alloc.assign[c][x]
                .partial_cmp(&alloc.assign[c][y])
                .expect("shares are finite")
        })
        .expect("allocation has backends");
    for b in 0..alloc.n_backends() {
        let share = alloc.assign[c][b];
        if b != best && share > 0.0 {
            tracker.transfer(
                alloc,
                cls,
                cluster,
                catalog,
                ClassId(c as u32),
                BackendId(b as u32),
                BackendId(best as u32),
                share,
            );
        }
    }
}

/// Moves a random share from the most loaded backend (relative to its
/// performance) to the least loaded one.
fn rebalance<R: Rng>(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    rng: &mut R,
) {
    let n = alloc.n_backends();
    if n < 2 {
        return;
    }
    let ratio = |b: usize| tracker.load(BackendId(b as u32)) / cluster.load(BackendId(b as u32));
    let hot = (0..n)
        .max_by(|&x, &y| ratio(x).partial_cmp(&ratio(y)).expect("finite"))
        .expect("non-empty");
    let cold = (0..n)
        .min_by(|&x, &y| ratio(x).partial_cmp(&ratio(y)).expect("finite"))
        .expect("non-empty");
    if hot == cold {
        return;
    }
    let n_on_hot = cls
        .read_ids()
        .iter()
        .filter(|r| alloc.assign[r.idx()][hot] > EPS)
        .count();
    if n_on_hot == 0 {
        return;
    }
    let pick = rng.gen_range(0..n_on_hot);
    let c = cls
        .read_ids()
        .iter()
        .map(|r| r.idx())
        .filter(|&c| alloc.assign[c][hot] > EPS)
        .nth(pick)
        .expect("pick < n_on_hot");
    let gap = (ratio(hot) - ratio(cold)) * cluster.load(BackendId(cold as u32)) / 2.0;
    let take = alloc.assign[c][hot].min(gap.max(EPS));
    tracker.transfer(
        alloc,
        cls,
        cluster,
        catalog,
        ClassId(c as u32),
        BackendId(hot as u32),
        BackendId(cold as u32),
        take,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;

    fn workload() -> (Catalog, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let frags: Vec<_> = (0..5)
            .map(|i| cat.add_table(format!("T{i}"), 50 + 30 * i as u64))
            .collect();
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [frags[0]], 0.22),
            QueryClass::read(1, [frags[1]], 0.18),
            QueryClass::read(2, [frags[2], frags[3]], 0.20),
            QueryClass::read(3, [frags[4]], 0.15),
            QueryClass::update(4, [frags[0]], 0.10),
            QueryClass::update(5, [frags[3]], 0.10),
            QueryClass::update(6, [frags[4]], 0.05),
        ])
        .unwrap();
        (cat, cls, ClusterSpec::homogeneous(4))
    }

    #[test]
    fn memetic_never_worse_than_greedy() {
        let (cat, cls, cluster) = workload();
        let g = greedy::allocate(&cls, &cat, &cluster);
        let m = allocate(&cls, &cat, &cluster, &MemeticConfig::default());
        m.validate(&cls, &cluster).unwrap();
        let gc = g.cost(&cluster, &cat);
        let mc = m.cost(&cluster, &cat);
        assert!(!gc.better_than(&mc), "memetic {mc:?} vs greedy {gc:?}");
    }

    #[test]
    fn memetic_is_deterministic_per_seed() {
        let (cat, cls, cluster) = workload();
        let cfg = MemeticConfig {
            iterations: 10,
            ..Default::default()
        };
        let a = allocate(&cls, &cat, &cluster, &cfg);
        let b = allocate(&cls, &cat, &cluster, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn memetic_is_bit_identical_across_thread_counts() {
        let (cat, cls, cluster) = workload();
        let reference = allocate(
            &cls,
            &cat,
            &cluster,
            &MemeticConfig {
                iterations: 12,
                threads: Some(1),
                ..Default::default()
            },
        );
        for threads in [2, 3, 8] {
            let out = allocate(
                &cls,
                &cat,
                &cluster,
                &MemeticConfig {
                    iterations: 12,
                    threads: Some(threads),
                    ..Default::default()
                },
            );
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn offspring_are_always_valid() {
        let (cat, cls, cluster) = workload();
        let mut alloc = greedy::allocate(&cls, &cat, &cluster);
        alloc.normalize(&cls, &cluster);
        let tracker = DeltaCost::new(&alloc, &cls, &cat);
        let cost = alloc.cost(&cluster, &cat);
        let parent = Individual {
            alloc,
            cost,
            tracker: Some(tracker),
        };
        let cfg = MemeticConfig {
            mutations_per_offspring: 3,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..100 {
            let child = mutate(&parent, &cls, &cat, &cluster, &cfg, &mut rng);
            child.alloc.validate(&cls, &cluster).unwrap();
            assert_eq!(
                child.cost,
                child.alloc.cost(&cluster, &cat),
                "tracked cost equals full recompute"
            );
        }
    }

    #[test]
    fn read_only_workload_keeps_scale_one() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::read(1, [b], 0.4),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let m = allocate(
            &cls,
            &cat,
            &cluster,
            &MemeticConfig {
                iterations: 20,
                ..Default::default()
            },
        );
        m.validate(&cls, &cluster).unwrap();
        assert!((m.scale(&cluster) - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod ksafe_tests {
    use super::*;
    use crate::classify::QueryClass;
    use crate::fragment::Catalog;
    use crate::ksafety;

    #[test]
    fn ksafe_memetic_keeps_safety_and_never_worsens_the_seed() {
        let mut cat = Catalog::new();
        let frags: Vec<_> = (0..5)
            .map(|i| cat.add_table(format!("T{i}"), 100 + 40 * i as u64))
            .collect();
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [frags[0]], 0.25),
            QueryClass::read(1, [frags[1]], 0.20),
            QueryClass::read(2, [frags[2], frags[3]], 0.20),
            QueryClass::update(3, [frags[0]], 0.15),
            QueryClass::update(4, [frags[4]], 0.20),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let seed = crate::greedy::allocate_ksafe(&cls, &cat, &cluster, 1);
        let seed_cost = seed.cost(&cluster, &cat);
        let cfg = MemeticConfig {
            iterations: 15,
            ..Default::default()
        };
        let out = optimize_ksafe(seed, &cls, &cat, &cluster, &cfg, 1);
        out.validate(&cls, &cluster).unwrap();
        assert!(ksafety::is_k_safe(&out, &cls, 1));
        let out_cost = out.cost(&cluster, &cat);
        assert!(
            !seed_cost.better_than(&out_cost),
            "{out_cost:?} vs seed {seed_cost:?}"
        );
    }

    #[test]
    fn ksafe_memetic_deterministic() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 200);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::update(1, [b], 0.4),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let seed = crate::greedy::allocate_ksafe(&cls, &cat, &cluster, 1);
        let cfg = MemeticConfig {
            iterations: 8,
            ..Default::default()
        };
        let x = optimize_ksafe(seed.clone(), &cls, &cat, &cluster, &cfg, 1);
        let y = optimize_ksafe(seed, &cls, &cat, &cluster, &cfg, 1);
        assert_eq!(x, y);
    }

    #[test]
    fn ksafe_memetic_bit_identical_across_thread_counts() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 200);
        let c = cat.add_table("C", 150);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.4),
            QueryClass::read(1, [c], 0.25),
            QueryClass::update(2, [b], 0.35),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let seed = crate::greedy::allocate_ksafe(&cls, &cat, &cluster, 1);
        let cfg1 = MemeticConfig {
            iterations: 8,
            threads: Some(1),
            ..Default::default()
        };
        let reference = optimize_ksafe(seed.clone(), &cls, &cat, &cluster, &cfg1, 1);
        for threads in [2, 8] {
            let cfg = MemeticConfig {
                threads: Some(threads),
                ..cfg1.clone()
            };
            let out = optimize_ksafe(seed.clone(), &cls, &cat, &cluster, &cfg, 1);
            assert_eq!(out, reference, "threads={threads}");
        }
    }
}
