//! Physical allocation: matching a computed allocation onto the
//! existing cluster (Section 3.4) and the ETL cost model behind
//! Figure 4(d).

use qcpa_core::allocation::Allocation;
use qcpa_core::fragment::Catalog;

use crate::hungarian::hungarian;

/// The Eq. 27 edge weight: bytes that must be newly moved to realize the
/// fragments of new backend `to` on a node currently holding old backend
/// `from`'s fragments.
pub fn move_cost(
    new: &Allocation,
    to: usize,
    old: &Allocation,
    from: usize,
    catalog: &Catalog,
) -> u64 {
    catalog.size_of_set(new.fragments[to].difference(&old.fragments[from]))
}

/// Matches the backends of `new` onto the backends of `old` so the total
/// moved bytes are minimal (the assignment problem of Section 3.4,
/// solved with the Hungarian method).
///
/// Returns `(permuted, moved_bytes)` where `permuted` is `new` with its
/// backends reordered so index `i` is realized on the physical node that
/// currently hosts `old`'s backend `i`.
///
/// # Panics
/// Panics if the two allocations have different backend counts — pad
/// with [`crate::elastic`] first when scaling.
pub fn match_allocations(
    old: &Allocation,
    new: &Allocation,
    catalog: &Catalog,
) -> (Allocation, u64) {
    assert_eq!(
        old.n_backends(),
        new.n_backends(),
        "allocations must have the same backend count (use elastic padding when scaling)"
    );
    let n = old.n_backends();
    // Rows: new backends; columns: old backends.
    let cost: Vec<Vec<f64>> = (0..n)
        .map(|v| {
            (0..n)
                .map(|u| move_cost(new, v, old, u, catalog) as f64)
                .collect()
        })
        .collect();
    let (assignment, total) = hungarian(&cost);

    // assignment[new_backend] = old_backend; permute new accordingly.
    let mut permuted = Allocation::empty(new.n_classes(), n);
    for (v, &u) in assignment.iter().enumerate() {
        permuted.fragments[u] = new.fragments[v].clone();
        for c in 0..new.n_classes() {
            permuted.assign[c][u] = new.assign[c][v];
        }
    }
    (permuted, total as u64)
}

/// Throughput model of the three ETL phases (Figure 4(d) measures their
/// sum): extracting/preparing fragments on the source, network transfer,
/// and bulk load on the destination.
#[derive(Debug, Clone, Copy)]
pub struct EtlCostModel {
    /// Fragment extraction/preparation throughput, bytes per second.
    pub prep_bytes_per_sec: f64,
    /// Network transfer throughput, bytes per second.
    pub transfer_bytes_per_sec: f64,
    /// Bulk load throughput, bytes per second.
    pub load_bytes_per_sec: f64,
    /// Fixed per-reallocation overhead in seconds (stopping backends,
    /// schema setup).
    pub fixed_overhead_secs: f64,
}

impl Default for EtlCostModel {
    fn default() -> Self {
        // Calibrated to the paper's testbed scale: SATA-disk-era nodes on
        // gigabit Ethernet loading into PostgreSQL.
        Self {
            prep_bytes_per_sec: 80e6,
            transfer_bytes_per_sec: 100e6,
            load_bytes_per_sec: 25e6,
            fixed_overhead_secs: 5.0,
        }
    }
}

/// The realized transfer plan: which node receives how many new bytes,
/// and the predicted duration of the reallocation.
#[derive(Debug, Clone)]
pub struct TransferPlan {
    /// The new allocation permuted onto the physical nodes.
    pub allocation: Allocation,
    /// Newly moved bytes per physical node.
    pub moved_bytes_per_node: Vec<u64>,
    /// Total moved bytes.
    pub moved_bytes: u64,
    /// Predicted wall-clock duration in seconds. Preparation is serial
    /// on the (single) source side in the paper's prototype; transfer
    /// and load proceed per destination node in parallel, so the
    /// duration is preparation of everything plus the slowest node's
    /// transfer + load.
    pub duration_secs: f64,
}

/// Matches `new` onto `old` and prices the reallocation with the given
/// cost model. This is the full Section 3.4 pipeline; Figure 4(d) plots
/// `duration_secs` for full replication versus column-based allocation.
pub fn transfer_plan(
    old: &Allocation,
    new: &Allocation,
    catalog: &Catalog,
    model: &EtlCostModel,
) -> TransferPlan {
    let (allocation, moved_bytes) = match_allocations(old, new, catalog);
    let per_node: Vec<u64> = (0..allocation.n_backends())
        .map(|u| move_cost(&allocation, u, old, u, catalog))
        .collect();
    let slowest = per_node
        .iter()
        .map(|&b| b as f64 / model.transfer_bytes_per_sec + b as f64 / model.load_bytes_per_sec)
        .fold(0.0, f64::max);
    let duration_secs =
        model.fixed_overhead_secs + moved_bytes as f64 / model.prep_bytes_per_sec + slowest;
    TransferPlan {
        allocation,
        moved_bytes_per_node: per_node,
        moved_bytes,
        duration_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::{Classification, QueryClass};
    use qcpa_core::cluster::ClusterSpec;
    use qcpa_core::greedy;

    fn setup() -> (Catalog, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1000);
        let b = cat.add_table("B", 2000);
        let c = cat.add_table("C", 3000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.25),
            QueryClass::read(2, [c], 0.25),
            QueryClass::read(3, [a, b], 0.20),
        ])
        .unwrap();
        (cat, cls, ClusterSpec::homogeneous(3))
    }

    #[test]
    fn identical_allocations_cost_nothing() {
        let (cat, cls, cluster) = setup();
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let (permuted, moved) = match_allocations(&alloc, &alloc, &cat);
        assert_eq!(moved, 0);
        assert_eq!(permuted, alloc);
    }

    #[test]
    fn permuted_allocation_is_matched_back_for_free() {
        let (cat, cls, cluster) = setup();
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        // Rotate backends: the matching must undo the rotation.
        let mut rotated = Allocation::empty(alloc.n_classes(), 3);
        for b in 0..3 {
            rotated.fragments[(b + 1) % 3] = alloc.fragments[b].clone();
            for c in 0..alloc.n_classes() {
                rotated.assign[c][(b + 1) % 3] = alloc.assign[c][b];
            }
        }
        let (permuted, moved) = match_allocations(&alloc, &rotated, &cat);
        assert_eq!(moved, 0, "a pure permutation moves nothing");
        // Backends with identical fragment sets are interchangeable, so
        // only the physical placement must match — not the exact shares.
        assert_eq!(permuted.fragments, alloc.fragments);
        permuted.validate(&cls, &cluster).unwrap();
    }

    #[test]
    fn matching_is_no_worse_than_identity() {
        let (cat, cls, cluster) = setup();
        let old = greedy::allocate(&cls, &cat, &cluster);
        // A different target: full replication.
        let new = Allocation::full_replication(&cls, &cluster);
        let identity_cost: u64 = (0..3).map(|i| move_cost(&new, i, &old, i, &cat)).sum();
        let (_, matched_cost) = match_allocations(&old, &new, &cat);
        assert!(matched_cost <= identity_cost);
    }

    #[test]
    fn moved_bytes_reflect_fragment_sizes() {
        let (cat, cls, cluster) = setup();
        let empty = Allocation::empty(cls.len(), 3);
        let full = Allocation::full_replication(&cls, &cluster);
        let (_, moved) = match_allocations(&empty, &full, &cat);
        // Everything must be shipped: 3 backends × 6000 bytes.
        assert_eq!(moved, 3 * 6000);
    }

    #[test]
    fn transfer_plan_durations_scale_with_bytes() {
        let (cat, cls, cluster) = setup();
        let empty = Allocation::empty(cls.len(), 3);
        let full = Allocation::full_replication(&cls, &cluster);
        let partial = greedy::allocate(&cls, &cat, &cluster);
        let model = EtlCostModel::default();
        let plan_full = transfer_plan(&empty, &full, &cat, &model);
        let plan_partial = transfer_plan(&empty, &partial, &cat, &model);
        assert!(
            plan_partial.moved_bytes < plan_full.moved_bytes,
            "partial replication ships less data"
        );
        assert!(plan_partial.duration_secs < plan_full.duration_secs);
        assert_eq!(
            plan_full.moved_bytes,
            plan_full.moved_bytes_per_node.iter().sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "same backend count")]
    fn mismatched_sizes_rejected() {
        let (cat, cls, cluster) = setup();
        let a3 = greedy::allocate(&cls, &cat, &cluster);
        let a2 = greedy::allocate(&cls, &cat, &ClusterSpec::homogeneous(2));
        match_allocations(&a3, &a2, &cat);
    }
}
