//! k-safety: surviving the loss of up to `k` backends (Appendix C).
//!
//! Two notions are distinguished, as in the paper:
//!
//! * **fragment k-safety** (Eq. 46) — every fragment is stored on at
//!   least `k + 1` backends, so no *data* is lost;
//! * **query-class k-safety** (Eq. 47) — every query class can be
//!   *processed* by at least `k + 1` backends, so the CDBS stays fully
//!   operational without reallocation.
//!
//! Class safety implies fragment safety. Allocation with class k-safety
//! is produced by [`crate::greedy::allocate_ksafe`] (Algorithm 4); this
//! module provides the checks and the failure simulation used to verify
//! it.

use crate::allocation::Allocation;
use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::fragment::Catalog;
use crate::journal::QueryKind;
use crate::{BackendId, EPS};

pub use crate::greedy::allocate_ksafe as allocate;

/// The fragment-level redundancy (Eq. 46): the minimum number of
/// backends storing any fragment that is stored at all, minus one.
/// Returns `None` if no fragment is allocated.
pub fn fragment_safety(alloc: &Allocation, catalog: &Catalog) -> Option<usize> {
    alloc
        .replica_counts(catalog)
        .into_iter()
        .filter(|&c| c > 0)
        .min()
        .map(|c| c as usize - 1)
}

/// The query-class-level redundancy (Eq. 47): the minimum over all
/// classes of the number of backends able to process the class, minus
/// one. This is the `k` the allocation actually guarantees.
pub fn class_safety(alloc: &Allocation, cls: &Classification) -> usize {
    cls.classes
        .iter()
        .map(|c| alloc.capable_backends(cls, c.id).len())
        .min()
        .unwrap_or(0)
        .saturating_sub(1)
}

/// True if the allocation tolerates the loss of any `k` backends while
/// still processing every query class locally.
pub fn is_k_safe(alloc: &Allocation, cls: &Classification, k: usize) -> bool {
    class_safety(alloc, cls) >= k
}

/// Simulates the failure of the given backends: returns the allocation
/// restricted to the survivors with read shares redistributed among the
/// remaining capable backends (proportionally to their relative
/// performance), or `None` if some query class with positive weight has
/// no capable survivor.
///
/// The returned allocation is indexed by the *surviving* backends in
/// their original order; pair it with [`surviving_cluster`].
///
/// # Contract
///
/// * Failing **every** backend (or any superset of the cluster) returns
///   `None` — never a panic or an empty allocation.
/// * Duplicate entries in `failed` are tolerated and equivalent to
///   listing the backend once; ids outside the cluster are ignored.
/// * Failing **all replicas of a fragment** that a positively weighted
///   class needs returns `None`: the data survives nowhere, so the
///   class cannot be processed (use [`repair`] on the restricted
///   allocation to re-replicate from a master copy, as the simulator's
///   fault engine does).
pub fn fail_backends(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    failed: &[BackendId],
) -> Option<Allocation> {
    let survivors: Vec<usize> = (0..alloc.n_backends())
        .filter(|&b| !failed.iter().any(|f| f.idx() == b))
        .collect();
    if survivors.is_empty() {
        return None;
    }
    let mut out = Allocation::empty(cls.len(), survivors.len());
    for (new_b, &old_b) in survivors.iter().enumerate() {
        out.fragments[new_b] = alloc.fragments[old_b].clone();
    }
    for c in &cls.classes {
        let frags = cls.fragment_set(c.id);
        // Surviving backends able to process the class.
        let capable: Vec<usize> = (0..survivors.len())
            .filter(|&nb| frags.is_subset(&out.fragments[nb]))
            .collect();
        if capable.is_empty() && c.weight > EPS {
            return None;
        }
        match c.kind {
            QueryKind::Read => {
                let total_perf: f64 = capable
                    .iter()
                    .map(|&nb| cluster.load(BackendId(survivors[nb] as u32)))
                    .sum();
                for &nb in &capable {
                    let perf = cluster.load(BackendId(survivors[nb] as u32));
                    out.assign[c.id.idx()][nb] = c.weight * perf / total_perf;
                }
            }
            QueryKind::Update => {
                // ROWA on the survivors holding any of its fragments.
                for (nb, held) in out.fragments.iter().enumerate() {
                    if frags.intersects(held) {
                        out.assign[c.id.idx()][nb] = c.weight;
                    }
                }
            }
        }
    }
    Some(out)
}

/// The cluster restricted to the survivors, with relative performance
/// renormalized to sum to 1 (Eq. 7).
///
/// # Contract
///
/// * Failing every backend returns `None` — callers never observe an
///   empty [`ClusterSpec`] (whose constructors reject zero backends)
///   and never hit a panic.
/// * Duplicates in `failed` collapse to a single failure; unknown ids
///   are ignored.
/// * An empty `failed` list returns the cluster unchanged (modulo the
///   Eq. 7 renormalization, which is a no-op on an already normalized
///   spec).
pub fn surviving_cluster(cluster: &ClusterSpec, failed: &[BackendId]) -> Option<ClusterSpec> {
    let raw: Vec<f64> = cluster
        .ids()
        .filter(|b| !failed.contains(b))
        .map(|b| cluster.load(b))
        .collect();
    if raw.is_empty() {
        None
    } else {
        Some(ClusterSpec::heterogeneous(&raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;
    use crate::greedy;

    fn workload() -> (Catalog, Classification) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.25),
            QueryClass::read(2, [c], 0.20),
            QueryClass::update(3, [a], 0.15),
            QueryClass::update(4, [c], 0.10),
        ])
        .unwrap();
        (cat, cls)
    }

    #[test]
    fn plain_greedy_is_usually_not_1_safe() {
        let (cat, cls) = workload();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        assert_eq!(class_safety(&alloc, &cls), 0);
    }

    #[test]
    fn ksafe_allocation_passes_checks_and_survives_failures() {
        let (cat, cls) = workload();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = allocate(&cls, &cat, &cluster, 1);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(is_k_safe(&alloc, &cls, 1));
        assert!(fragment_safety(&alloc, &cat).unwrap() >= 1);

        // Any single failure leaves a fully operational system.
        for b in cluster.ids() {
            let survived = fail_backends(&alloc, &cls, &cluster, &[b])
                .unwrap_or_else(|| panic!("failure of {b} must be tolerated"));
            let sc = surviving_cluster(&cluster, &[b]).unwrap();
            survived.validate(&cls, &sc).unwrap();
        }
    }

    #[test]
    fn double_failure_defeats_1_safety_sometimes() {
        let (cat, cls) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = allocate(&cls, &cat, &cluster, 1);
        // With 3 backends and k=1, two simultaneous failures may or may
        // not be survivable — but the allocation must survive every
        // single failure.
        for b in cluster.ids() {
            assert!(fail_backends(&alloc, &cls, &cluster, &[b]).is_some());
        }
    }

    #[test]
    fn failure_redistribution_is_proportional() {
        let (cat, cls) = workload();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = allocate(&cls, &cat, &cluster, 3); // everything everywhere
        let survived = fail_backends(&alloc, &cls, &cluster, &[BackendId(0)]).unwrap();
        let sc = surviving_cluster(&cluster, &[BackendId(0)]).unwrap();
        survived.validate(&cls, &sc).unwrap();
        // Reads split evenly over the three survivors.
        for &r in cls.read_ids() {
            let w = cls.weight(r);
            for nb in 0..3 {
                assert!((survived.assign[r.idx()][nb] - w / 3.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn losing_everything_is_not_survivable() {
        let (cat, cls) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = allocate(&cls, &cat, &cluster, 1);
        let all: Vec<BackendId> = cluster.ids().collect();
        assert!(fail_backends(&alloc, &cls, &cluster, &all).is_none());
        assert!(surviving_cluster(&cluster, &all).is_none());
    }

    /// Pinned contract: the all-backends failure stays `None` under
    /// duplicated and out-of-range ids — no panic, no empty cluster —
    /// and an empty failure list is the identity.
    #[test]
    fn surviving_cluster_edge_cases_are_total() {
        let cluster = ClusterSpec::heterogeneous(&[1.0, 2.0, 3.0]);
        // Every backend, listed twice over, plus an unknown id.
        let noisy: Vec<BackendId> = cluster
            .ids()
            .chain(cluster.ids())
            .chain([BackendId(99)])
            .collect();
        assert!(surviving_cluster(&cluster, &noisy).is_none());
        // Duplicates collapse: failing {1, 1} equals failing {1}.
        let once = surviving_cluster(&cluster, &[BackendId(1)]).unwrap();
        let twice = surviving_cluster(&cluster, &[BackendId(1), BackendId(1)]).unwrap();
        assert_eq!(once.len(), 2);
        assert_eq!(twice.len(), 2);
        for b in once.ids() {
            assert!((once.load(b) - twice.load(b)).abs() < 1e-12);
        }
        // Empty failure list: the full cluster, loads unchanged.
        let same = surviving_cluster(&cluster, &[]).unwrap();
        assert_eq!(same.len(), cluster.len());
        for b in cluster.ids() {
            assert!((same.load(b) - cluster.load(b)).abs() < 1e-12);
        }
    }

    /// Pinned: when every replica of a fragment dies, `fail_backends`
    /// returns `None` — the positively weighted class reading that
    /// fragment has no capable survivor even though other backends
    /// remain up.
    #[test]
    fn all_replicas_of_a_fragment_dying_is_fatal() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::read(1, [b], 0.4),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        // A lives on backends 0 and 1 only; B everywhere.
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.fragments[0].extend([a, b]);
        alloc.fragments[1].extend([a, b]);
        alloc.fragments[2].insert(b);
        alloc.assign[0][0] = 0.3;
        alloc.assign[0][1] = 0.3;
        alloc.assign[1][2] = 0.4;
        alloc.validate(&cls, &cluster).unwrap();

        // Both A replicas die: backend 2 survives but cannot serve A.
        let dead = [BackendId(0), BackendId(1)];
        assert!(fail_backends(&alloc, &cls, &cluster, &dead).is_none());
        // The cluster itself survives — the loss is data, not capacity.
        assert!(surviving_cluster(&cluster, &dead).is_some());
        // Either single replica dying is survivable.
        for lone in dead {
            assert!(fail_backends(&alloc, &cls, &cluster, &[lone]).is_some());
        }
    }
}

/// What an online [`repair`] changed: the per-backend fragment sets
/// before and after, from which data movement can be priced (the Eq. 27
/// move cost is exactly the bytes of the newly added fragments). Used
/// by the simulator's fault engine to charge the ETL pause of an
/// in-flight re-replication to the clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Fragments newly added per backend (`added[b]` is what backend
    /// `b` must load from a surviving replica or the master copy).
    pub added: Vec<crate::fragment::FragSet>,
    /// Number of `(class, backend)` replica grants performed.
    pub grants: usize,
}

impl RepairReport {
    /// True if the repair was a no-op.
    pub fn is_noop(&self) -> bool {
        self.grants == 0 && self.added.iter().all(|s| s.is_empty())
    }

    /// Total bytes of the newly added fragments (each replica counted)
    /// — the Eq. 27 movement the repair implies.
    pub fn moved_bytes(&self, catalog: &Catalog) -> u64 {
        self.added.iter().map(|s| catalog.size_of_set(s)).sum()
    }
}

/// Repairs an allocation to class k-safety *in place*: every query
/// class gains zero-weight spare replicas on the least-loaded backends
/// until `min(k + 1, |B|)` backends can process it, with the update
/// constraints re-synchronized (Eq. 10). Used by the k-safe memetic
/// optimizer, whose mutations may strip replicas.
///
/// Guarantees (pinned by the root `properties` proptests):
///
/// * **monotone** — [`class_safety`] never decreases: replicas are only
///   added, never removed;
/// * **idempotent** — a second invocation with the same `k` changes
///   nothing;
/// * after the call every class is processable by `min(k + 1, |B|)`
///   backends.
pub fn repair(alloc: &mut Allocation, cls: &Classification, cluster: &ClusterSpec, k: usize) {
    let _ = repair_report(alloc, cls, cluster, k);
}

/// [`repair`], additionally reporting which fragments each backend
/// gained — the hook the simulator's fault engine uses to price the
/// repair's data movement (Eq. 27) and charge the ETL pause to the
/// simulated clock.
pub fn repair_report(
    alloc: &mut Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    k: usize,
) -> RepairReport {
    let n = cluster.len();
    let target = (k + 1).min(n);
    let before = alloc.fragments.clone();
    let mut grants = 0usize;
    loop {
        let mut changed = false;
        for c in &cls.classes {
            let mut hosted = alloc.capable_backends(cls, c.id).len();
            while hosted < target {
                #[expect(clippy::expect_used, reason = "backend capacities are positive")]
                let candidate = cluster
                    .ids()
                    .filter(|&b| !cls.fragment_set(c.id).is_subset(&alloc.fragments[b.idx()]))
                    .min_by(|&x, &y| {
                        let rx = alloc.assigned_load(x) / cluster.load(x);
                        let ry = alloc.assigned_load(y) / cluster.load(y);
                        rx.partial_cmp(&ry).expect("loads are finite")
                    });
                let Some(b) = candidate else { break };
                alloc.fragments[b.idx()].union_with(cls.placement_fragments(c.id));
                alloc.sync_updates(cls);
                hosted = alloc.capable_backends(cls, c.id).len();
                changed = true;
                grants += 1;
            }
        }
        if !changed {
            break;
        }
    }
    let added = alloc
        .fragments
        .iter()
        .zip(&before)
        .map(|(now, was)| now.difference(was).collect())
        .collect();
    RepairReport { added, grants }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use crate::classify::QueryClass;
    use crate::greedy;

    #[test]
    fn repair_reaches_the_target_and_stays_valid() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.4),
            QueryClass::read(1, [b], 0.3),
            QueryClass::update(2, [c], 0.3),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let mut alloc = greedy::allocate(&cls, &cat, &cluster);
        assert_eq!(class_safety(&alloc, &cls), 0);
        repair(&mut alloc, &cls, &cluster, 2);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(class_safety(&alloc, &cls) >= 2);
    }

    /// The report prices exactly the fragments repair added: bytes of
    /// the per-backend set differences, and a no-op report on a second
    /// run.
    #[test]
    fn repair_report_prices_the_added_fragments() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1000);
        let b = cat.add_table("B", 500);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.7),
            QueryClass::read(1, [b], 0.3),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let mut alloc = greedy::allocate(&cls, &cat, &cluster);
        let before = alloc.clone();
        let report = repair_report(&mut alloc, &cls, &cluster, 2);
        assert!(class_safety(&alloc, &cls) >= 2);
        // Moved bytes equal the growth in total stored bytes.
        let grown = alloc.total_bytes(&cat) - before.total_bytes(&cat);
        assert_eq!(report.moved_bytes(&cat), grown);
        assert!(!report.is_noop());
        // Second run: nothing left to add.
        let again = repair_report(&mut alloc, &cls, &cluster, 2);
        assert!(again.is_noop());
        assert_eq!(again.moved_bytes(&cat), 0);
    }

    #[test]
    fn repair_is_a_noop_on_already_safe_allocations() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![QueryClass::read(0, [a], 1.0)]).unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let mut alloc = crate::greedy::allocate_ksafe(&cls, &cat, &cluster, 2);
        let before = alloc.clone();
        repair(&mut alloc, &cls, &cluster, 2);
        assert_eq!(alloc.fragments, before.fragments);
    }
}
