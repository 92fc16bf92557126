//! Robustness to workload changes (Section 5).
//!
//! The paper observes that partial replication leaves *flexibility*: if
//! a query class is replicated (or co-allocated with spare capacity),
//! its weight can grow and the excess can be shifted to other backends
//! without reallocation. This module quantifies that flexibility and
//! implements the extension that *adds* flexibility by provisioning
//! zero-weight spare replicas.

use crate::allocation::Allocation;
use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::fragment::Catalog;
use crate::{BackendId, ClassId, EPS};

/// Per-backend spare room at the allocation's current scale: how much
/// additional read weight each backend could absorb before it becomes
/// the bottleneck (`scale × capacity − assigned load`, floored at 0).
///
/// Shared with the simulator's degraded-mode router: when a class's
/// preferred replicas are unhealthy, reads fall back to capable backends
/// ranked by this room.
pub fn spare_room(alloc: &Allocation, cluster: &ClusterSpec) -> Vec<f64> {
    let scale = alloc.scale(cluster);
    cluster
        .ids()
        .map(|x| (scale * cluster.load(x) - alloc.assigned_load(x)).max(0.0))
        .collect()
}

/// Predicts the speedup after class `c`'s weight changes to
/// `new_weight`, *without reallocation*: fragments stay where they are
/// and only read shares are re-balanced among each class's capable
/// backends (the paper's Section 5 analysis; the Figure 2 example —
/// raising class C to 27 % on four backends — drops the speedup from 4
/// to 3.7).
///
/// Weights are not renormalized (the change models extra or missing
/// load on top of the profiled workload).
pub fn speedup_after_weight_change(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    c: ClassId,
    new_weight: f64,
) -> f64 {
    assert!(new_weight >= 0.0, "weights are non-negative");
    let mut adjusted = alloc.clone();
    let old = cls.weight(c);
    let row = &mut adjusted.assign[c.idx()];
    if old > EPS {
        // Scale the class's existing shares.
        for v in row.iter_mut() {
            *v *= new_weight / old;
        }
    } else {
        // A formerly empty class: put the weight on its first capable
        // backend (re-balancing below spreads it).
        let capable = adjusted.capable_backends(cls, c);
        if let Some(b) = capable.first() {
            adjusted.assign[c.idx()][b.idx()] = new_weight;
        }
    }
    rebalance_reads(&mut adjusted, cls, cluster);
    adjusted.speedup(cluster)
}

/// Iteratively shifts read shares from the most-loaded backend (relative
/// to performance) to less-loaded capable backends until no improving
/// move exists. This is the cheap "shift weights between backends"
/// scheduler flexibility of Section 5, not a reallocation.
pub fn rebalance_reads(alloc: &mut Allocation, cls: &Classification, cluster: &ClusterSpec) {
    // Precompute capability: class -> capable backends.
    let capable: Vec<Vec<BackendId>> = cls
        .classes
        .iter()
        .map(|c| alloc.capable_backends(cls, c.id))
        .collect();
    let ratio = |a: &Allocation, b: usize| {
        a.assigned_load(BackendId(b as u32)) / cluster.load(BackendId(b as u32))
    };
    for _ in 0..200 {
        let n = alloc.n_backends();
        #[expect(
            clippy::expect_used,
            reason = "a cluster has at least one backend, each of positive capacity"
        )]
        let hot = (0..n)
            .max_by(|&x, &y| {
                ratio(alloc, x)
                    .partial_cmp(&ratio(alloc, y))
                    .expect("finite")
            })
            .expect("non-empty");
        // Find the best move: a read class on `hot` with a capable
        // backend of strictly lower ratio.
        let mut best: Option<(usize, usize, f64)> = None;
        for &r in cls.read_ids() {
            let share = alloc.assign[r.idx()][hot];
            if share <= EPS {
                continue;
            }
            for cold in capable[r.idx()].iter().map(|b| b.idx()) {
                if cold == hot {
                    continue;
                }
                let gap = ratio(alloc, hot) - ratio(alloc, cold);
                if gap > EPS {
                    // Equalizing amount between the two backends.
                    let lh = cluster.load(BackendId(hot as u32));
                    let lc = cluster.load(BackendId(cold as u32));
                    let amount = (gap * lh * lc / (lh + lc)).min(share);
                    if best.is_none_or(|(_, _, a)| amount > a) {
                        best = Some((r.idx(), cold, amount));
                    }
                }
            }
        }
        match best {
            Some((r, cold, amount)) if amount > EPS => {
                alloc.assign[r][hot] -= amount;
                alloc.assign[r][cold] += amount;
            }
            _ => break,
        }
    }
}

/// The read weight on backend `b` that is *flexible*: carried by
/// classes at least one other backend could also serve. The paper's
/// Section 5 robustness condition — "if each backend contains query
/// classes that can be (partially) shifted to another backend, the total
/// allocation is robust" — measures exactly this.
pub fn flexible_weight(
    alloc: &Allocation,
    cls: &Classification,
    _cluster: &ClusterSpec,
    b: BackendId,
) -> f64 {
    cls.read_ids()
        .iter()
        .map(|&r| {
            let share = alloc.assign[r.idx()][b.idx()];
            if share > EPS && alloc.capable_backends(cls, r).len() >= 2 {
                share
            } else {
                0.0
            }
        })
        .sum()
}

/// Section 5's robustness extension: ensure every loaded backend can
/// shed at least a `rho` fraction of the workload to other backends.
/// Where a backend lacks flexible weight, the fragments of its heaviest
/// single-homed read class are replicated (with zero additional read
/// weight) onto the least-loaded backend not yet hosting it, enabling
/// future shifts. Returns the number of spare replicas added.
///
/// Spare replicas are *kept* (no garbage collection) — they are the
/// headroom; update classes overlapping the spares are re-synchronized
/// per Eq. 10, which is the throughput price of the robustness.
#[expect(
    clippy::expect_used,
    reason = "shares are finite and backend capacities positive"
)]
pub fn robustify(
    alloc: &mut Allocation,
    cls: &Classification,
    _catalog: &Catalog,
    cluster: &ClusterSpec,
    rho: f64,
) -> usize {
    assert!((0.0..=1.0).contains(&rho), "rho is a workload fraction");
    let n = cluster.len();
    let mut added = 0;
    for _ in 0..n * cls.len() {
        // A backend lacking flexibility, with a class we can still fix.
        let mut action = None;
        for b in cluster.ids() {
            let assigned = alloc.assigned_load(b);
            if assigned <= EPS {
                continue;
            }
            if flexible_weight(alloc, cls, cluster, b) + EPS >= rho.min(assigned) {
                continue;
            }
            let cand = cls
                .read_ids()
                .iter()
                .copied()
                .filter(|&r| alloc.assign[r.idx()][b.idx()] > EPS)
                .filter(|&r| alloc.capable_backends(cls, r).len() < n)
                .max_by(|&x, &y| {
                    alloc.assign[x.idx()][b.idx()]
                        .partial_cmp(&alloc.assign[y.idx()][b.idx()])
                        .expect("shares are finite")
                });
            if let Some(r) = cand {
                action = Some((b, r));
                break;
            }
        }
        let Some((b, r)) = action else { break };
        let target = cluster
            .ids()
            .filter(|&x| x != b)
            .filter(|&x| !cls.fragment_set(r).is_subset(&alloc.fragments[x.idx()]))
            .min_by(|&x, &y| {
                let rx = alloc.assigned_load(x) / cluster.load(x);
                let ry = alloc.assigned_load(y) / cluster.load(y);
                rx.partial_cmp(&ry).expect("loads are finite")
            });
        let Some(t) = target else { break };
        alloc.fragments[t.idx()].union_with(cls.placement_fragments(r));
        alloc.sync_updates(cls);
        added += 1;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;
    use crate::greedy;

    /// The Figure 2 example on 4 backends.
    fn fig2() -> (Catalog, Classification, ClusterSpec, Allocation) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.25),
            QueryClass::read(2, [c], 0.25),
            QueryClass::read(3, [a, b], 0.20),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        (cat, cls, cluster, alloc)
    }

    #[test]
    fn fig2_weight_increase_worst_case() {
        let (_cat, cls, cluster, alloc) = fig2();
        assert!((alloc.speedup(&cluster) - 4.0).abs() < 1e-6);
        // Section 5: raising class C (id 2) to 27 % drops the speedup to
        // 4 / 1.08 = 3.7 — the worst case, C being hosted only on B4.
        let s = speedup_after_weight_change(&alloc, &cls, &cluster, ClassId(2), 0.27);
        assert!((s - 4.0 / 1.08).abs() < 1e-6, "speedup {s}");
    }

    #[test]
    fn weight_decrease_never_hurts() {
        let (_cat, cls, cluster, alloc) = fig2();
        let s = speedup_after_weight_change(&alloc, &cls, &cluster, ClassId(2), 0.10);
        assert!(s >= alloc.speedup(&cluster) - 1e-9);
    }

    #[test]
    fn replicated_classes_absorb_changes() {
        let (_cat, cls, cluster, alloc) = fig2();
        // Class 0 (A, 30 %) is replicated on two backends in the optimal
        // allocation; a small increase can be absorbed by shifting.
        let s = speedup_after_weight_change(&alloc, &cls, &cluster, ClassId(0), 0.32);
        assert!(s > 3.7, "replication should absorb the change, got {s}");
    }

    #[test]
    fn robustify_makes_every_backend_flexible() {
        let (cat, cls, cluster, mut alloc) = fig2();
        let added = robustify(&mut alloc, &cls, &cat, &cluster, 0.10);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(added > 0, "spares should be added");
        for b in cluster.ids() {
            let assigned = alloc.assigned_load(b);
            if assigned > EPS {
                let flex = flexible_weight(&alloc, &cls, &cluster, b);
                assert!(
                    flex + EPS >= 0.10f64.min(assigned),
                    "{b} still inflexible: {flex}"
                );
            }
        }
    }

    #[test]
    fn robustify_absorbs_the_fig2_worst_case() {
        let (cat, cls, cluster, plain) = fig2();
        let mut hardened = plain.clone();
        robustify(&mut hardened, &cls, &cat, &cluster, 0.10);
        hardened.validate(&cls, &cluster).unwrap();
        // Class C3 (id 2) gains a spare replica...
        assert!(hardened.capable_backends(&cls, ClassId(2)).len() >= 2);
        // ...so the 27 % worst case no longer costs the full 0.3 speedup.
        let sp = speedup_after_weight_change(&plain, &cls, &cluster, ClassId(2), 0.27);
        let sh = speedup_after_weight_change(&hardened, &cls, &cluster, ClassId(2), 0.27);
        assert!((sp - 3.7037).abs() < 1e-3, "plain {sp}");
        assert!(sh > sp + 0.1, "hardened {sh} vs plain {sp}");
    }

    #[test]
    fn rebalance_reads_levels_load() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![QueryClass::read(0, [a], 1.0)]).unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        // Skew everything onto backend 0, then rebalance.
        alloc.assign[0][0] = 1.0;
        alloc.assign[0][1] = 0.0;
        rebalance_reads(&mut alloc, &cls, &cluster);
        assert!((alloc.assign[0][0] - 0.5).abs() < 1e-6);
        assert!((alloc.assign[0][1] - 0.5).abs() < 1e-6);
    }
}
