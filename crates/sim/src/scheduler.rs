//! Request routing: the controller's scheduler.
//!
//! Reads go to exactly one backend holding *all* the class's fragments,
//! chosen by the least-pending-request-first rule (Section 2; the
//! prototype keeps per-request processing times in its query history,
//! so "least pending" is measured in outstanding *work* — which is what
//! makes the strategy competitive for mixes with very skewed per-class
//! costs, like TPC-App's one heavy read class). Updates fan out to every
//! backend holding any of the class's fragments (ROWA).

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::journal::QueryKind;
use qcpa_core::{ksafety, BackendId, ClassId, EPS};

/// Precomputed routing tables for one allocation.
///
/// Target lists are always sorted ascending by backend index — together
/// with the explicit `then(a.cmp(&b))` tie-break in the routing
/// comparators this pins the routing decision completely: equal pending
/// work always resolves to the *lowest* backend index, independent of
/// how the tables were built (fresh, or remapped by
/// [`Scheduler::for_survivors`]). Retry target selection in the
/// resilience runtime depends on this staying deterministic.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Per read class: backends eligible to serve it (capable, and
    /// preferred by the allocation when it assigned them a share).
    read_targets: Vec<Vec<usize>>,
    /// Per read class: every backend holding *all* the class's fragments
    /// (the superset of `read_targets` used for degraded-mode fallback).
    capable_targets: Vec<Vec<usize>>,
    /// Per update class: backends that must apply it.
    update_targets: Vec<Vec<usize>>,
}

impl Scheduler {
    /// Builds routing tables from an allocation.
    ///
    /// For a read class the eligible backends are those the allocation
    /// assigned a positive share (falling back to all capable backends
    /// for zero-weight classes). For an update class they are all
    /// backends overlapping its data — the ROWA set.
    pub fn new(alloc: &Allocation, cls: &Classification) -> Self {
        let n = alloc.n_backends();
        let mut read_targets = vec![Vec::new(); cls.len()];
        let mut capable_targets = vec![Vec::new(); cls.len()];
        let mut update_targets = vec![Vec::new(); cls.len()];
        for c in &cls.classes {
            let frags = cls.fragment_set(c.id);
            match c.kind {
                QueryKind::Read => {
                    let capable: Vec<usize> = (0..n)
                        .filter(|&b| frags.is_subset(&alloc.fragments[b]))
                        .collect();
                    let assigned: Vec<usize> = (0..n)
                        .filter(|&b| alloc.assign[c.id.idx()][b] > EPS)
                        .collect();
                    read_targets[c.id.idx()] = if assigned.is_empty() {
                        capable.clone()
                    } else {
                        assigned
                    };
                    capable_targets[c.id.idx()] = capable;
                }
                QueryKind::Update => {
                    update_targets[c.id.idx()] = (0..n)
                        .filter(|&b| frags.intersects(&alloc.fragments[b]))
                        .collect();
                }
            }
        }
        Self {
            read_targets,
            capable_targets,
            update_targets,
        }
    }

    /// Routing tables for the cluster with the `failed` backends down:
    /// the surviving allocation from [`ksafety::fail_backends`]
    /// (restricted fragments, read shares redistributed over the capable
    /// survivors) with its targets mapped back to *full-cluster* backend
    /// indices, so callers keep indexing their per-backend state by the
    /// original ids.
    ///
    /// Returns `None` exactly when `fail_backends` does: some positively
    /// weighted class has no capable survivor — the fault-aware loop then
    /// runs an online [`ksafety::repair`] and retries.
    pub fn for_survivors(
        alloc: &Allocation,
        cls: &Classification,
        cluster: &ClusterSpec,
        failed: &[usize],
    ) -> Option<Scheduler> {
        let ids: Vec<BackendId> = failed.iter().map(|&b| BackendId(b as u32)).collect();
        let surviving = ksafety::fail_backends(alloc, cls, cluster, &ids)?;
        let survivors: Vec<usize> = (0..alloc.n_backends())
            .filter(|b| !failed.contains(b))
            .collect();
        let local = Scheduler::new(&surviving, cls);
        // `survivors` is ascending and the local tables are ascending in
        // the restricted index space, so the remapped tables stay sorted
        // by full-cluster index — the tie-break invariant survives.
        let remap = |targets: Vec<Vec<usize>>| -> Vec<Vec<usize>> {
            targets
                .into_iter()
                .map(|ts| ts.into_iter().map(|nb| survivors[nb]).collect())
                .collect()
        };
        Some(Scheduler {
            read_targets: remap(local.read_targets),
            capable_targets: remap(local.capable_targets),
            update_targets: remap(local.update_targets),
        })
    }

    /// Routing tables for a network partition: only the backends in
    /// `reachable` (the requester's side, sorted ascending) accept new
    /// work. Partitioned-away backends are treated exactly like failed
    /// ones for routing — excluded from every target list, shares
    /// redistributed — but nothing about them is repaired or voided,
    /// so healing the partition and rebuilding with [`Scheduler::new`]
    /// restores the pre-partition tables bit for bit.
    ///
    /// Returns `None` when some positively weighted class has no
    /// capable replica on the reachable side.
    pub fn for_partition(
        alloc: &Allocation,
        cls: &Classification,
        cluster: &ClusterSpec,
        reachable: &[usize],
    ) -> Option<Scheduler> {
        let unreachable: Vec<usize> = (0..alloc.n_backends())
            .filter(|b| !reachable.contains(b))
            .collect();
        if unreachable.is_empty() {
            return Some(Scheduler::new(alloc, cls));
        }
        Scheduler::for_survivors(alloc, cls, cluster, &unreachable)
    }

    /// The backend a read of class `c` should go to, given current
    /// per-backend pending work: least pending first, ties to the lowest
    /// index. Returns `None` if no backend can serve the class.
    pub fn route_read(&self, c: ClassId, pending: &[f64]) -> Option<usize> {
        self.route_read_with(c, |b| pending[b])
    }

    /// Like [`Self::route_read`], but the pending work is probed through
    /// a closure, so callers can derive it on the fly (e.g. from release
    /// times) instead of materializing a per-request vector. Only the
    /// class's eligible backends are probed — O(targets), not
    /// O(backends).
    #[expect(clippy::expect_used, reason = "pending work is finite")]
    pub fn route_read_with<F: Fn(usize) -> f64>(&self, c: ClassId, pending: F) -> Option<usize> {
        self.read_targets[c.idx()].iter().copied().min_by(|&a, &b| {
            pending(a)
                .partial_cmp(&pending(b))
                .expect("pending work is finite")
                .then(a.cmp(&b))
        })
    }

    /// The least-pending key of a read of class `c` arriving at `t`,
    /// given per-backend release times `free_at`: the one rule both
    /// open loops route reads by. Smaller is less pending; ties go to
    /// the lowest index in the routing comparators.
    ///
    /// A class readable on every backend is keyed by its release time
    /// `free_at[b].max(t)`; every other class by its remaining work
    /// `(free_at[b] - t).max(0.0)`. The two agree except where the
    /// subtraction rounds two release times to one value, and the split
    /// is the order the frozen [`crate::baseline`] oracle defines.
    pub fn pending_at<'a>(
        &self,
        c: ClassId,
        free_at: &'a [f64],
        t: f64,
    ) -> impl Fn(usize) -> f64 + Copy + 'a {
        let everywhere = self.read_targets[c.idx()].len() == free_at.len();
        move |b| {
            if everywhere {
                free_at[b].max(t)
            } else {
                (free_at[b] - t).max(0.0)
            }
        }
    }

    /// [`Self::route_read_with`] under the [`Self::pending_at`] key.
    pub fn route_read_at(&self, c: ClassId, free_at: &[f64], t: f64) -> Option<usize> {
        self.route_read_with(c, self.pending_at(c, free_at, t))
    }

    /// Like [`Self::route_read_with`], but backends for which `blocked`
    /// returns `true` (e.g. open-circuit in the resilience runtime) are
    /// skipped. Returns `None` when *every* eligible backend is blocked —
    /// the caller then decides whether to fall back to
    /// [`Self::capable_read_targets`] or override the breaker.
    #[expect(clippy::expect_used, reason = "pending work is finite")]
    pub fn route_read_filtered<F, G>(&self, c: ClassId, pending: F, blocked: G) -> Option<usize>
    where
        F: Fn(usize) -> f64,
        G: Fn(usize) -> bool,
    {
        self.read_targets[c.idx()]
            .iter()
            .copied()
            .filter(|&b| !blocked(b))
            .min_by(|&a, &b| {
                pending(a)
                    .partial_cmp(&pending(b))
                    .expect("pending work is finite")
                    .then(a.cmp(&b))
            })
    }

    /// The ROWA set for update class `c`.
    pub fn route_update(&self, c: ClassId) -> &[usize] {
        &self.update_targets[c.idx()]
    }

    /// Number of query classes the tables are sized for (class ids are
    /// dense, so this bounds every valid `ClassId::idx`).
    pub fn n_classes(&self) -> usize {
        self.read_targets.len()
    }

    /// Eligible backends for a read class (diagnostics).
    pub fn read_targets(&self, c: ClassId) -> &[usize] {
        &self.read_targets[c.idx()]
    }

    /// Every backend holding all of read class `c`'s fragments — the
    /// superset of [`Self::read_targets`] used by degraded-mode routing
    /// when the allocation-preferred replicas are unavailable.
    pub fn capable_read_targets(&self, c: ClassId) -> &[usize] {
        &self.capable_targets[c.idx()]
    }
}

/// The connected components of the backend-interaction graph under
/// `scheduler`'s routing tables: `component[b]` is a dense id in
/// `0..n_components`, numbered in order of lowest member backend. Two
/// backends interact when some class can route a read between them
/// (preferred or degraded) or fans an update out across both; backends
/// no class touches each form a singleton. A diagnostic of how far an
/// allocation decomposes the cluster.
#[must_use]
pub fn backend_components(scheduler: &Scheduler, cls: &Classification, n: usize) -> Vec<usize> {
    // Each backend's label converges to the lowest backend of its
    // component: every pass lowers a target set to its minimum label.
    let mut label: Vec<usize> = (0..n).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for c in &cls.classes {
            let sets = match c.kind {
                QueryKind::Read => [
                    scheduler.read_targets(c.id),
                    scheduler.capable_read_targets(c.id),
                ],
                QueryKind::Update => [scheduler.route_update(c.id), &[][..]],
            };
            for targets in sets {
                let Some(low) = targets.iter().map(|&b| label[b]).min() else {
                    continue;
                };
                for &b in targets {
                    changed |= label[b] != low;
                    label[b] = low;
                }
            }
        }
    }
    let mut dense = vec![usize::MAX; n];
    let mut next = 0;
    for l in &mut label {
        if dense[*l] == usize::MAX {
            dense[*l] = next;
            next += 1;
        }
        *l = dense[*l];
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::cluster::ClusterSpec;
    use qcpa_core::fragment::Catalog;
    use qcpa_core::greedy;

    fn setup() -> (Classification, Allocation) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.4),
            QueryClass::read(1, [b], 0.4),
            QueryClass::update(2, [a], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        (cls, alloc)
    }

    #[test]
    fn reads_route_to_least_pending_capable() {
        let (cls, alloc) = setup();
        let s = Scheduler::new(&alloc, &cls);
        for &r in cls.read_ids() {
            let targets = s.read_targets(r);
            assert!(!targets.is_empty());
            for &b in targets {
                assert!(cls.classes[r.idx()]
                    .fragments
                    .iter()
                    .all(|f| alloc.fragments[b].contains(f)));
            }
        }
    }

    #[test]
    fn updates_cover_all_overlapping_backends() {
        let (cls, alloc) = setup();
        let s = Scheduler::new(&alloc, &cls);
        let rowa = s.route_update(qcpa_core::ClassId(2));
        let expected: Vec<usize> = (0..2)
            .filter(|&b| alloc.fragments[b].iter().any(|f| f.idx() == 0))
            .collect();
        assert_eq!(rowa, expected.as_slice());
    }

    #[test]
    fn components_split_disjoint_groups_and_join_full_replicas() {
        let mut cat = Catalog::new();
        let frags: Vec<_> = (0..4)
            .map(|i| cat.add_table(format!("T{i}"), 4_000))
            .collect();
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [frags[0]], 0.3),
            QueryClass::update(1, [frags[1]], 0.2),
            QueryClass::read(2, [frags[2]], 0.3),
            QueryClass::update(3, [frags[3]], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let s = Scheduler::new(&alloc, &cls);
        let comps = backend_components(&s, &cls, 4);
        assert_eq!(comps[0], 0, "numbered from the lowest backend: {comps:?}");
        assert!(comps.iter().max() >= Some(&1), "must decompose: {comps:?}");
        for c in &cls.classes {
            let targets = match c.kind {
                QueryKind::Read => s.capable_read_targets(c.id),
                QueryKind::Update => s.route_update(c.id),
            };
            assert!(targets.iter().all(|&b| comps[b] == comps[targets[0]]));
        }
        let full = Allocation::full_replication(&cls, &cluster);
        let comps = backend_components(&Scheduler::new(&full, &cls), &cls, 4);
        assert_eq!(comps, vec![0; 4]);
    }

    #[test]
    fn least_pending_tie_breaks_by_index() {
        let (cls, _) = setup();
        let cluster = ClusterSpec::homogeneous(3);
        let full = Allocation::full_replication(&cls, &cluster);
        let s = Scheduler::new(&full, &cls);
        assert_eq!(
            s.route_read(qcpa_core::ClassId(0), &[1.0, 0.5, 0.5]),
            Some(1)
        );
        assert_eq!(
            s.route_read(qcpa_core::ClassId(0), &[0.0, 0.0, 0.0]),
            Some(0)
        );
    }

    /// Pins the determinism contract the resilience runtime's retry
    /// target selection depends on: all target tables are sorted
    /// ascending by backend index, and equal pending work always
    /// resolves to the lowest index — including after a
    /// `for_survivors` remap.
    #[test]
    fn target_tables_sorted_and_tie_break_pinned() {
        let (cls, _) = setup();
        let cluster = ClusterSpec::homogeneous(4);
        let full = Allocation::full_replication(&cls, &cluster);
        let s = Scheduler::new(&full, &cls);
        for c in &cls.classes {
            let (targets, capable) = (
                s.read_targets.get(c.id.idx()).cloned().unwrap_or_default(),
                s.capable_targets
                    .get(c.id.idx())
                    .cloned()
                    .unwrap_or_default(),
            );
            assert!(targets.windows(2).all(|w| w[0] < w[1]));
            assert!(capable.windows(2).all(|w| w[0] < w[1]));
            assert!(s.update_targets[c.id.idx()].windows(2).all(|w| w[0] < w[1]));
        }
        // All-equal pending work routes to the lowest backend index.
        assert_eq!(s.route_read(qcpa_core::ClassId(1), &[2.0; 4]), Some(0));
        // Survivor remap keeps tables sorted in full-cluster indices and
        // keeps the tie-break on the lowest surviving index.
        let sv = Scheduler::for_survivors(&full, &cls, &cluster, &[0]).unwrap();
        for &r in cls.read_ids() {
            assert!(sv.read_targets(r).windows(2).all(|w| w[0] < w[1]));
            assert!(!sv.read_targets(r).contains(&0));
            assert!(sv.capable_read_targets(r).windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(sv.route_read(qcpa_core::ClassId(0), &[9.0; 4]), Some(1));
    }

    #[test]
    fn filtered_routing_skips_blocked_backends() {
        let (cls, _) = setup();
        let cluster = ClusterSpec::homogeneous(3);
        let full = Allocation::full_replication(&cls, &cluster);
        let s = Scheduler::new(&full, &cls);
        let c = qcpa_core::ClassId(0);
        // Backend 0 has least pending but is blocked — route around it.
        assert_eq!(s.route_read_filtered(c, |b| b as f64, |b| b == 0), Some(1));
        // Everything blocked: None, so the caller can pick a fallback.
        assert_eq!(s.route_read_filtered(c, |_| 0.0, |_| true), None);
        // Nothing blocked: identical to route_read.
        assert_eq!(
            s.route_read_filtered(c, |_| 0.0, |_| false),
            s.route_read(c, &[0.0; 3])
        );
        // Capable targets are a superset of read targets.
        for &b in s.read_targets(c) {
            assert!(s.capable_read_targets(c).contains(&b));
        }
    }
}
