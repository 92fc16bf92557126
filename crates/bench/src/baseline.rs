//! The pre-optimization allocator engine, preserved verbatim for the
//! wall-clock speedup benchmark (`bench_allocator`).
//!
//! This is the memetic optimizer and local search as they existed before
//! the incremental [`qcpa_core::allocation::DeltaCost`] engine and the
//! `qcpa-par` fan-out landed: one shared RNG, every candidate cost paid
//! as a full [`Allocation::normalize`] + cost recomputation, and every
//! local-search probe cloning the whole allocation. Keeping it in-tree
//! (instead of in git history) lets the benchmark measure the speedup on
//! the *same* workload in the *same* process, so the
//! `BENCH_allocator.json` numbers are reproducible with one command.
//!
//! Mutation-operator semantics match the optimized engine (the
//! consolidate target choice differs in accumulation order only), but
//! the RNG consumption schedule intentionally matches the *old* code —
//! this module documents the cost of that design, not its exact output
//! stream.

use qcpa_core::allocation::{AllocCost, Allocation};
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::memetic::MemeticConfig;
use qcpa_core::{BackendId, ClassId, EPS};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The old sequential full-recompute `memetic::optimize`: shared RNG,
/// full normalize+cost per candidate, clone-per-probe local search.
#[expect(clippy::expect_used, reason = "the population is never empty")]
pub fn optimize(
    initial: Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &MemeticConfig,
) -> Allocation {
    assert!(cfg.population >= 3, "population must be at least 3");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let cost_of = |a: &Allocation| a.cost(cluster, catalog);

    let mut population: Vec<(Allocation, AllocCost)> = vec![(initial.clone(), cost_of(&initial))];

    for _ in 0..cfg.iterations {
        let mut offspring: Vec<(Allocation, AllocCost)> = Vec::with_capacity(cfg.population);
        for _ in 0..cfg.population {
            let parent = &population[rng.gen_range(0..population.len())].0;
            let child = mutate(parent, cls, cluster, cfg.mutations_per_offspring, &mut rng);
            let c = cost_of(&child);
            offspring.push((child, c));
        }

        population.sort_by_key(|a| a.1);
        offspring.sort_by_key(|a| a.1);
        let keep_old = (cfg.population * 2 / 3).max(1).min(population.len());
        let keep_new = (cfg.population - keep_old).min(offspring.len());
        population.truncate(keep_old);
        population.extend(offspring.into_iter().take(keep_new));

        let improve_count = (population.len() / 3).max(1);
        let mut idx: Vec<usize> = (0..population.len()).collect();
        idx.shuffle(&mut rng);
        for &i in idx.iter().take(improve_count) {
            let (alloc, cost) = &mut population[i];
            if improve(alloc, cls, catalog, cluster) {
                *cost = alloc.cost(cluster, catalog);
            }
        }
    }

    population
        .into_iter()
        .min_by(|a, b| a.1.cmp(&b.1))
        .expect("population is never empty")
        .0
}

fn mutate<R: Rng>(
    parent: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    n_ops: usize,
    rng: &mut R,
) -> Allocation {
    let mut child = parent.clone();
    for _ in 0..n_ops.max(1) {
        match rng.gen_range(0..4) {
            0 => move_share(&mut child, cls, rng),
            1 => split_share(&mut child, cls, rng),
            2 => consolidate(&mut child, cls, rng),
            _ => rebalance(&mut child, cls, cluster, rng),
        }
    }
    child.normalize(cls, cluster);
    child
}

fn random_share<R: Rng>(
    alloc: &Allocation,
    cls: &Classification,
    rng: &mut R,
) -> Option<(usize, usize)> {
    let candidates: Vec<(usize, usize)> = cls
        .read_ids()
        .iter()
        .flat_map(|r| {
            (0..alloc.n_backends())
                .filter(move |&b| alloc.assign[r.idx()][b] > EPS)
                .map(move |b| (r.idx(), b))
        })
        .collect();
    candidates.choose(rng).copied()
}

fn move_share<R: Rng>(alloc: &mut Allocation, cls: &Classification, rng: &mut R) {
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
    alloc.assign[c][from] = 0.0;
    alloc.assign[c][to] += share;
}

fn split_share<R: Rng>(alloc: &mut Allocation, cls: &Classification, rng: &mut R) {
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
    alloc.assign[c][from] -= half;
    alloc.assign[c][to] += half;
}

#[expect(
    clippy::expect_used,
    reason = "`pick` indexes the spread classes; shares are finite"
)]
fn consolidate<R: Rng>(alloc: &mut Allocation, cls: &Classification, rng: &mut R) {
    let spread: Vec<usize> = cls
        .read_ids()
        .iter()
        .map(|r| r.idx())
        .filter(|&c| {
            (0..alloc.n_backends())
                .filter(|&b| alloc.assign[c][b] > EPS)
                .count()
                > 1
        })
        .collect();
    let Some(&c) = spread.as_slice().choose(rng) else {
        return;
    };
    let best = (0..alloc.n_backends())
        .max_by(|&x, &y| {
            alloc.assign[c][x]
                .partial_cmp(&alloc.assign[c][y])
                .expect("shares are finite")
        })
        .expect("allocation has backends");
    let total: f64 = alloc.assign[c].iter().sum();
    for b in 0..alloc.n_backends() {
        alloc.assign[c][b] = 0.0;
    }
    alloc.assign[c][best] = total;
}

#[expect(
    clippy::expect_used,
    reason = "n >= 2 backends with positive capacity; `pick` indexes the hot classes"
)]
fn rebalance<R: Rng>(
    alloc: &mut Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    rng: &mut R,
) {
    let n = alloc.n_backends();
    if n < 2 {
        return;
    }
    let ratio =
        |b: usize| alloc.assigned_load(BackendId(b as u32)) / cluster.load(BackendId(b as u32));
    let hot = (0..n)
        .max_by(|&x, &y| ratio(x).partial_cmp(&ratio(y)).expect("finite"))
        .expect("non-empty");
    let cold = (0..n)
        .min_by(|&x, &y| ratio(x).partial_cmp(&ratio(y)).expect("finite"))
        .expect("non-empty");
    if hot == cold {
        return;
    }
    let on_hot: Vec<usize> = cls
        .read_ids()
        .iter()
        .map(|r| r.idx())
        .filter(|&c| alloc.assign[c][hot] > EPS)
        .collect();
    let Some(&c) = on_hot.as_slice().choose(rng) else {
        return;
    };
    let gap = (ratio(hot) - ratio(cold)) * cluster.load(BackendId(cold as u32)) / 2.0;
    let take = alloc.assign[c][hot].min(gap.max(EPS));
    alloc.assign[c][hot] -= take;
    alloc.assign[c][cold] += take;
}

/// The old clone-per-candidate local search fixpoint.
pub fn improve(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    let mut improved_any = false;
    loop {
        let s1 = drop_update_replicas(alloc, cls, catalog, cluster);
        let s2 = swap_update_replicas(alloc, cls, catalog, cluster);
        if s1 || s2 {
            improved_any = true;
        } else {
            return improved_any;
        }
    }
}

fn placements(alloc: &Allocation, u: ClassId) -> Vec<usize> {
    (0..alloc.n_backends())
        .filter(|&b| alloc.assign[u.idx()][b] > EPS)
        .collect()
}

fn drop_update_replicas(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    let mut improved = false;
    let mut cost = alloc.cost(cluster, catalog);
    for &u in cls.update_ids() {
        let hosts = placements(alloc, u);
        if hosts.len() < 2 {
            continue;
        }
        for &b in &hosts {
            if let Some(candidate) = evacuate(alloc, cls, cluster, u, b) {
                let c = candidate.cost(cluster, catalog);
                if c.better_than(&cost) {
                    *alloc = candidate;
                    cost = c;
                    improved = true;
                    break;
                }
            }
        }
    }
    improved
}

fn swap_update_replicas(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    let mut improved = false;
    let mut cost = alloc.cost(cluster, catalog);
    for &u1 in cls.update_ids() {
        let hosts = placements(alloc, u1);
        if hosts.len() < 2 {
            continue;
        }
        for &b2 in &hosts {
            for &b1 in &hosts {
                if b1 == b2 {
                    continue;
                }
                if let Some(candidate) = shift_and_backfill(alloc, cls, cluster, u1, b2, b1) {
                    let c = candidate.cost(cluster, catalog);
                    if c.better_than(&cost) {
                        *alloc = candidate;
                        cost = c;
                        improved = true;
                        break;
                    }
                }
            }
        }
    }
    improved
}

#[expect(clippy::expect_used, reason = "room is a difference of finite loads")]
fn evacuate(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    u: ClassId,
    b: usize,
) -> Option<Allocation> {
    let scale = alloc.scale(cluster);
    let mut cand = alloc.clone();
    let mut room: Vec<f64> = cluster
        .ids()
        .map(|bid| scale * cluster.load(bid) - cand.assigned_load(bid))
        .collect();

    let victims: Vec<ClassId> = cls
        .read_ids()
        .iter()
        .copied()
        .filter(|&r| {
            cand.assign[r.idx()][b] > EPS && cls.fragment_set(u).intersects(cls.fragment_set(r))
        })
        .collect();
    if victims.is_empty() {
        return None;
    }

    for r in victims {
        let mut remaining = cand.assign[r.idx()][b];
        cand.assign[r.idx()][b] = 0.0;
        let mut receivers: Vec<usize> = (0..cand.n_backends())
            .filter(|&rb| rb != b)
            .filter(|&rb| {
                cls.classes[r.idx()]
                    .fragments
                    .iter()
                    .all(|f| cand.fragments[rb].contains(f))
            })
            .collect();
        receivers.sort_by(|&x, &y| room[y].partial_cmp(&room[x]).expect("room is finite"));
        for rb in receivers {
            if remaining <= EPS {
                break;
            }
            let take = remaining.min(room[rb].max(0.0));
            if take > EPS {
                cand.assign[r.idx()][rb] += take;
                room[rb] -= take;
                remaining -= take;
            }
        }
        if remaining > EPS {
            return None;
        }
    }
    cand.normalize(cls, cluster);
    Some(cand)
}

fn shift_and_backfill(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    u1: ClassId,
    b2: usize,
    b1: usize,
) -> Option<Allocation> {
    let mut cand = alloc.clone();
    let mut moved = 0.0;
    for &r in cls.read_ids() {
        let share = cand.assign[r.idx()][b2];
        if share > EPS && cls.fragment_set(u1).intersects(cls.fragment_set(r)) {
            cand.assign[r.idx()][b2] = 0.0;
            cand.assign[r.idx()][b1] += share;
            moved += share;
        }
    }
    if moved <= EPS {
        return None;
    }
    let la = cand.assigned_load(BackendId(b1 as u32));
    let lb = cand.assigned_load(BackendId(b2 as u32)) - cls.weight(u1);
    let target = ((la - lb) / 2.0).max(0.0);
    let mut backfilled = 0.0;
    for &r in cls.read_ids() {
        if backfilled >= target - EPS {
            break;
        }
        let share = cand.assign[r.idx()][b1];
        if share > EPS && !cls.fragment_set(u1).intersects(cls.fragment_set(r)) {
            let take = share.min(target - backfilled);
            cand.assign[r.idx()][b1] -= take;
            cand.assign[r.idx()][b2] += take;
            backfilled += take;
        }
    }
    cand.normalize(cls, cluster);
    Some(cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::greedy;
    use qcpa_workloads::tpch::tpch;

    /// The preserved baseline still produces valid solutions no worse
    /// than greedy — it is a faithful reference, not a strawman.
    #[test]
    fn baseline_is_valid_and_not_worse_than_greedy() {
        let w = tpch(1.0);
        let journal = w.journal(100);
        let cw = crate::Strategy::TableBased.classify(&journal, &w.catalog, 0.2);
        let cluster = ClusterSpec::homogeneous(4);
        let g = greedy::allocate(&cw.classification, &w.catalog, &cluster);
        let cfg = MemeticConfig {
            population: 6,
            iterations: 8,
            ..Default::default()
        };
        let m = optimize(g.clone(), &cw.classification, &w.catalog, &cluster, &cfg);
        m.validate(&cw.classification, &cluster).unwrap();
        let gc = g.cost(&cluster, &w.catalog);
        let mc = m.cost(&cluster, &w.catalog);
        assert!(!gc.better_than(&mc));
    }
}
