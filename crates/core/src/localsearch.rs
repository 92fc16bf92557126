//! Local search strategies of the memetic algorithm (Section 3.3,
//! Eq. 21–26).
//!
//! Both strategies try to *reduce replicated update work*, which is what
//! limits the speedup of update-sensitive allocations (Eq. 17):
//!
//! * **Strategy 1** — if an update class is replicated on several
//!   backends, evacuate the read shares that pin it to one of them so
//!   the replica (and its fragments) can be dropped (Eq. 21–22).
//! * **Strategy 2** — trade the replica of a *heavy* update class for a
//!   replica of a *lighter* one by swapping the pinned read shares
//!   between two backends (Eq. 23–26).
//!
//! Candidate moves are applied **incrementally** through
//! [`DeltaCost::transfer`]: each move re-derives only the two backends
//! involved — bitset ORs over the read classes resident there, see
//! [`DeltaCost`] for the cost — keeps the allocation normalized at every
//! step, and is rolled back with exact undo tokens when it does not
//! improve the lexicographic cost (scale, then stored bytes). Victim and
//! receiver selection ask the tracker's fragment mirror rather than the
//! `BTreeSet`s, and one [`Scratch`] set is reused across all probes.

use crate::allocation::{Allocation, DeltaCost, DeltaUndo};
use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::fragment::Catalog;
use crate::{BackendId, ClassId, EPS};

/// Reusable buffers for the candidate enumeration, refilled in place on
/// every probe.
///
/// Public (with private fields) so parallel drivers can keep one
/// `Scratch` per worker lane and thread it through
/// [`improve_with_scratch`] — every field is cleared or refilled before
/// use, so no state leaks between probes or between callers.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Backends currently hosting the update class under consideration.
    hosts: Vec<usize>,
    /// Read classes pinning the update class on the evacuated backend.
    victims: Vec<ClassId>,
    /// Candidate receiving backends, sorted by spare room.
    receivers: Vec<usize>,
    /// Spare capacity per backend at the current scale.
    room: Vec<f64>,
    /// Undo tokens of the candidate under construction (rolled back in
    /// reverse order if the candidate is rejected).
    undo: Vec<DeltaUndo>,
}

/// Runs both strategies to a fixed point. Returns `true` if the
/// allocation was improved at least once.
///
/// The allocation is (re-)normalized on entry — a no-op for already
/// normalized inputs — because the incremental evaluation mirrors a
/// normalized allocation.
pub fn improve(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    alloc.normalize(cls, cluster);
    let mut tracker = DeltaCost::new(alloc, cls, catalog);
    improve_with(alloc, &mut tracker, cls, catalog, cluster)
}

/// [`improve`] continuing on an existing tracker: `alloc` must already
/// be normalized and `tracker` consistent with it. Skips the fresh
/// aggregate build, so a caller that kept the tracker alongside the
/// allocation (the memetic population does) pays only the transfers.
/// The tracker is left consistent with the improved allocation.
pub fn improve_with(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    let mut scratch = Scratch::default();
    improve_with_scratch(alloc, tracker, cls, catalog, cluster, &mut scratch)
}

/// [`improve_with`] with a caller-owned [`Scratch`] — the form the
/// parallel memetic driver uses, keeping one scratch set per worker
/// lane so repeated local-search probes in one optimize run allocate
/// nothing.
pub fn improve_with_scratch(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    scratch: &mut Scratch,
) -> bool {
    let mut improved_any = false;
    loop {
        let s1 = drop_tracked(alloc, tracker, cls, cluster, catalog, scratch);
        let s2 = swap_tracked(alloc, tracker, cls, cluster, catalog, scratch);
        if s1 || s2 {
            improved_any = true;
        } else {
            return improved_any;
        }
    }
}

/// Backends on which update class `u` currently runs.
fn placements(alloc: &Allocation, u: ClassId) -> impl Iterator<Item = usize> + '_ {
    (0..alloc.n_backends()).filter(move |&b| alloc.assign[u.idx()][b] > EPS)
}

/// Refills `out` with [`placements`] without allocating.
fn placements_into(alloc: &Allocation, u: ClassId, out: &mut Vec<usize>) {
    out.clear();
    out.extend(placements(alloc, u));
}

/// Strategy 1 (Eq. 21–22): for every update class replicated on several
/// backends, try to evacuate one replica by moving the read shares that
/// pin it to other backends that already hold their data. Normalizes
/// the allocation on entry.
pub fn drop_update_replicas(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    alloc.normalize(cls, cluster);
    let mut tracker = DeltaCost::new(alloc, cls, catalog);
    let mut scratch = Scratch::default();
    drop_tracked(alloc, &mut tracker, cls, cluster, catalog, &mut scratch)
}

fn drop_tracked(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    scratch: &mut Scratch,
) -> bool {
    let mut improved = false;
    let mut cost = tracker.cost(cluster);
    for &u in cls.update_ids() {
        placements_into(alloc, u, &mut scratch.hosts);
        if scratch.hosts.len() < 2 {
            continue;
        }
        let hosts = std::mem::take(&mut scratch.hosts);
        for &b in &hosts {
            if evacuate(alloc, tracker, cls, cluster, catalog, u, b, &cost, scratch) {
                cost = tracker.cost(cluster);
                improved = true;
                break; // placements changed; move to the next class
            }
        }
        scratch.hosts = hosts;
    }
    improved
}

/// Strategy 2 (Eq. 23–26): replace the replica of a heavy update class
/// on backend `b2` with (possibly) a replica of a lighter update class,
/// by moving the pinned reads to a backend `b1` that already runs the
/// heavy class and back-filling `b1`'s other reads onto `b2`.
/// Normalizes the allocation on entry.
pub fn swap_update_replicas(
    alloc: &mut Allocation,
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
) -> bool {
    alloc.normalize(cls, cluster);
    let mut tracker = DeltaCost::new(alloc, cls, catalog);
    let mut scratch = Scratch::default();
    swap_tracked(alloc, &mut tracker, cls, cluster, catalog, &mut scratch)
}

fn swap_tracked(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    scratch: &mut Scratch,
) -> bool {
    let mut improved = false;
    let mut cost = tracker.cost(cluster);
    for &u1 in cls.update_ids() {
        placements_into(alloc, u1, &mut scratch.hosts);
        if scratch.hosts.len() < 2 {
            continue;
        }
        let hosts = std::mem::take(&mut scratch.hosts);
        for &b2 in &hosts {
            for &b1 in &hosts {
                if b1 == b2 {
                    continue;
                }
                if shift_and_backfill(
                    alloc, tracker, cls, cluster, catalog, u1, b2, b1, &cost, scratch,
                ) {
                    cost = tracker.cost(cluster);
                    improved = true;
                    break;
                }
            }
        }
        scratch.hosts = hosts;
    }
    improved
}

/// Tries to move every read share on backend `b` that overlaps update
/// class `u` onto other backends that already hold the read class's
/// data (so replication cannot grow), without pushing any receiver past
/// the current scale. Commits the transfers if the cost strictly
/// improves on `base_cost`; otherwise rolls every transfer back and
/// leaves the allocation untouched. Returns whether it committed.
#[allow(clippy::too_many_arguments)]
fn evacuate(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    u: ClassId,
    b: usize,
    base_cost: &crate::allocation::AllocCost,
    scratch: &mut Scratch,
) -> bool {
    let scale = tracker.scale(cluster);
    scratch.room.clear();
    scratch.room.extend(
        cluster
            .ids()
            .map(|bid| scale * cluster.load(bid) - tracker.load(bid)),
    );
    scratch.victims.clear();
    scratch.victims.extend(
        cls.read_ids()
            .iter()
            .copied()
            .filter(|&r| alloc.assign[r.idx()][b] > EPS && tracker.overlaps(u, r)),
    );
    if scratch.victims.is_empty() {
        return false;
    }
    scratch.undo.clear();
    let mut placed_all = true;
    'victims: for vi in 0..scratch.victims.len() {
        let r = scratch.victims[vi];
        let mut remaining = alloc.assign[r.idx()][b];
        // Receivers must already hold the data; most spare room first.
        scratch.receivers.clear();
        scratch
            .receivers
            .extend((0..alloc.n_backends()).filter(|&rb| rb != b && tracker.holds_all(rb, r)));
        let room = &scratch.room;
        scratch
            .receivers
            .sort_by(|&x, &y| room[y].partial_cmp(&room[x]).expect("room is finite"));
        for ri in 0..scratch.receivers.len() {
            if remaining <= EPS {
                break;
            }
            let rb = scratch.receivers[ri];
            let take = remaining.min(scratch.room[rb].max(0.0));
            if take > EPS {
                let token = tracker.transfer(
                    alloc,
                    cls,
                    cluster,
                    catalog,
                    r,
                    BackendId(b as u32),
                    BackendId(rb as u32),
                    take,
                );
                scratch.undo.push(token);
                scratch.room[rb] -= take;
                remaining -= take;
            }
        }
        if remaining > EPS {
            placed_all = false; // cannot place the full share without overload
            break 'victims;
        }
    }
    let committed = placed_all && tracker.cost(cluster).better_than(base_cost);
    if committed {
        scratch.undo.clear();
    } else {
        for token in scratch.undo.drain(..).rev() {
            tracker.undo(alloc, cls, token);
        }
    }
    committed
}

/// Moves the reads pinning `u1` on `b2` over to `b1` (which already runs
/// `u1`), back-filling `b1`'s non-overlapping reads onto `b2` to level
/// the pair. The receiving backend may gain fragments. Commits if the
/// cost strictly improves on `base_cost`, rolls back otherwise; returns
/// whether it committed.
#[allow(clippy::too_many_arguments)]
fn shift_and_backfill(
    alloc: &mut Allocation,
    tracker: &mut DeltaCost,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    u1: ClassId,
    b2: usize,
    b1: usize,
    base_cost: &crate::allocation::AllocCost,
    scratch: &mut Scratch,
) -> bool {
    scratch.undo.clear();
    let mut moved = 0.0;
    // Move reads overlapping u1 from b2 to b1 (Eq. 25's shift).
    for &r in cls.read_ids() {
        let share = alloc.assign[r.idx()][b2];
        if share > EPS && tracker.overlaps(u1, r) {
            let token = tracker.transfer(
                alloc,
                cls,
                cluster,
                catalog,
                r,
                BackendId(b2 as u32),
                BackendId(b1 as u32),
                share,
            );
            scratch.undo.push(token);
            moved += share;
        }
    }
    if moved <= EPS {
        for token in scratch.undo.drain(..).rev() {
            tracker.undo(alloc, cls, token);
        }
        return false;
    }
    // Back-fill: move non-overlapping reads from b1 to b2 (Eq. 23/24:
    // these may pin lighter update classes) until the pair is level.
    // The tracked loads already account for every update replica that
    // moved or dropped during the shift — u1 leaving b2 in particular.
    let la = tracker.load(BackendId(b1 as u32));
    let lb = tracker.load(BackendId(b2 as u32));
    let target = ((la - lb) / 2.0).max(0.0);
    let mut backfilled = 0.0;
    for &r in cls.read_ids() {
        if backfilled >= target - EPS {
            break;
        }
        let share = alloc.assign[r.idx()][b1];
        if share > EPS && !tracker.overlaps(u1, r) {
            let take = share.min(target - backfilled);
            if take > EPS {
                let token = tracker.transfer(
                    alloc,
                    cls,
                    cluster,
                    catalog,
                    r,
                    BackendId(b1 as u32),
                    BackendId(b2 as u32),
                    take,
                );
                scratch.undo.push(token);
                backfilled += take;
            }
        }
    }
    let committed = tracker.cost(cluster).better_than(base_cost);
    if committed {
        scratch.undo.clear();
    } else {
        for token in scratch.undo.drain(..).rev() {
            tracker.undo(alloc, cls, token);
        }
    }
    committed
}

#[cfg(test)]
impl Catalog {
    /// Catalog stub for tests that never touch sizes.
    fn new_for_test() -> Self {
        let mut cat = Catalog::new();
        cat.add_table("A", 100);
        cat.add_table("B", 100);
        cat.add_table("C", 100);
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;

    /// A workload where the greedy splits a read class across two
    /// backends, pinning its update class twice; strategy 1 or 2 should
    /// consolidate it.
    fn replicable_workload() -> (Catalog, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.28),
            QueryClass::read(2, [c], 0.22),
            QueryClass::update(3, [a], 0.12),
            QueryClass::update(4, [c], 0.08),
        ])
        .unwrap();
        (cat, cls, ClusterSpec::homogeneous(3))
    }

    #[test]
    fn improve_never_worsens_cost() {
        let (cat, cls, cluster) = replicable_workload();
        let mut alloc = crate::greedy::allocate(&cls, &cat, &cluster);
        let before = alloc.cost(&cluster, &cat);
        improve(&mut alloc, &cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        let after = alloc.cost(&cluster, &cat);
        assert!(!before.better_than(&after));
    }

    #[test]
    fn strategy1_removes_redundant_update_replica() {
        let (cat, cls, cluster) = replicable_workload();
        // Hand-build a poor allocation: class 0 split over two backends,
        // pinning update 3 on both.
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.assign[0][0] = 0.15;
        alloc.assign[0][1] = 0.15;
        alloc.assign[1][1] = 0.28;
        alloc.assign[2][2] = 0.22;
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert_eq!(placements(&alloc, ClassId(3)).count(), 2);

        let improved = drop_update_replicas(&mut alloc, &cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(improved, "should find the consolidation");
        assert_eq!(
            placements(&alloc, ClassId(3)).count(),
            1,
            "update class no longer replicated"
        );
    }

    #[test]
    fn strategy2_swaps_heavy_replica_for_light() {
        // Two update classes: heavy U (weight 0.2) and light V (0.05).
        // Hand-build an allocation where the heavy one is replicated on
        // two backends while the light one sits on one of them — the
        // Eq. 23–26 swap should consolidate the heavy update.
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30), // reads of A pin heavy U
            QueryClass::read(1, [b], 0.25), // reads of B pin light V
            QueryClass::read(2, [c], 0.20),
            QueryClass::update(3, [a], 0.20), // heavy U
            QueryClass::update(4, [b], 0.05), // light V
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::empty(cls.len(), 2);
        // Reads of A split over both backends (replicating U), the rest
        // on backend 0.
        alloc.assign[0][0] = 0.10;
        alloc.assign[0][1] = 0.20;
        alloc.assign[1][0] = 0.25;
        alloc.assign[2][1] = 0.20;
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert_eq!(
            placements(&alloc, ClassId(3)).count(),
            2,
            "heavy U starts replicated"
        );
        let before = alloc.cost(&cluster, &cat);

        let improved = improve(&mut alloc, &cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(improved, "the swap/evacuation must fire");
        let after = alloc.cost(&cluster, &cat);
        assert!(after.better_than(&before), "{after:?} vs {before:?}");
        assert_eq!(
            placements(&alloc, ClassId(3)).count(),
            1,
            "heavy update consolidated to one backend"
        );
    }

    #[test]
    fn shift_and_backfill_preserves_validity() {
        let (cat, cls, cluster) = replicable_workload();
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.assign[0][0] = 0.15;
        alloc.assign[0][1] = 0.15;
        alloc.assign[1][0] = 0.14;
        alloc.assign[1][1] = 0.14;
        alloc.assign[2][2] = 0.22;
        alloc.normalize(&cls, &cluster);
        let mut probe = alloc.clone();
        let _ = swap_update_replicas(&mut probe, &cls, &cat, &cluster);
        probe.validate(&cls, &cluster).unwrap();
        let cost_after = probe.cost(&cluster, &cat);
        let cost_before = alloc.cost(&cluster, &cat);
        assert!(!cost_before.better_than(&cost_after));
    }

    #[test]
    fn evacuation_respects_capacity() {
        let (_cat, cls, cluster) = replicable_workload();
        // Both backends hosting class 0 are at capacity: no receiver room.
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.assign[0][0] = 0.30;
        alloc.assign[1][1] = 0.28;
        alloc.assign[2][2] = 0.22;
        alloc.normalize(&cls, &cluster);
        // Update 3 has one placement; nothing to evacuate.
        let before = alloc.clone();
        let improved = drop_update_replicas(&mut alloc, &cls, &Catalog::new_for_test(), &cluster);
        assert!(!improved);
        assert_eq!(alloc, before);
    }

    #[test]
    fn strategies_leave_allocation_normalized_and_tracked_cost_exact() {
        // The incremental path must keep the allocation at the
        // normalize fixpoint after every accepted/rejected candidate.
        let (cat, cls, cluster) = replicable_workload();
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.assign[0][0] = 0.15;
        alloc.assign[0][1] = 0.15;
        alloc.assign[1][1] = 0.28;
        alloc.assign[2][2] = 0.22;
        alloc.normalize(&cls, &cluster);
        improve(&mut alloc, &cls, &cat, &cluster);
        let mut renorm = alloc.clone();
        renorm.normalize(&cls, &cluster);
        assert_eq!(renorm, alloc, "improve left the allocation normalized");
    }
}
