//! Merging per-segment allocations of a time-varying workload
//! (Section 5).
//!
//! For periodically changing workloads the paper segments the query
//! history (e.g. with a one-hour sliding window over a day), computes an
//! allocation per segment, and merges them into a single *combined*
//! allocation whose data placement covers every segment — so the system
//! rides the daily pattern without reallocating. The merge aligns the
//! segments' backends with the Hungarian method (minimizing the extra
//! bytes each union adds) and unions the fragment sets.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::fragment::{Catalog, FragSet};

use crate::hungarian::hungarian;

/// A combined allocation covering several workload segments.
#[derive(Debug, Clone)]
pub struct MergedAllocation {
    /// Union fragment placement per backend.
    pub fragments: Vec<FragSet>,
    /// Per-segment assignment matrices, aligned to the merged backends.
    pub segment_assign: Vec<Vec<Vec<f64>>>,
}

impl MergedAllocation {
    /// The allocation effective during segment `i`: the union fragment
    /// placement with that segment's read assignment, and update classes
    /// re-synchronized against the (larger) union placement per the ROWA
    /// rule — replicated data must be maintained even in segments that
    /// don't read it.
    pub fn for_segment(&self, i: usize, cls: &Classification) -> Allocation {
        let mut alloc = Allocation {
            fragments: self.fragments.clone(),
            assign: self.segment_assign[i].clone(),
        };
        alloc.assign_updates(cls);
        alloc
    }

    /// Total bytes of the merged placement.
    pub fn total_bytes(&self, catalog: &Catalog) -> u64 {
        self.fragments
            .iter()
            .map(|set| catalog.size_of_set(set))
            .sum()
    }
}

/// Merges per-segment allocations into one combined allocation.
///
/// Segments are folded in order: each next segment's backends are
/// aligned to the accumulated union with a min-cost matching (cost =
/// bytes the segment adds on top of the union), then fragment sets are
/// unioned. All allocations must have the same backend and class counts.
///
/// # Panics
/// Panics on empty input or mismatched dimensions.
pub fn merge_allocations(segments: &[Allocation], catalog: &Catalog) -> MergedAllocation {
    assert!(!segments.is_empty(), "need at least one segment");
    let n = segments[0].n_backends();
    let k = segments[0].n_classes();
    for s in segments {
        assert_eq!(s.n_backends(), n, "segments must share backend count");
        assert_eq!(s.n_classes(), k, "segments must share class count");
    }

    let mut union = segments[0].fragments.clone();
    let mut segment_assign: Vec<Vec<Vec<f64>>> = vec![segments[0].assign.clone()];

    for seg in &segments[1..] {
        // Cost of realizing segment backend v on union backend u.
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|u| {
                        seg.fragments[v]
                            .difference(&union[u])
                            .map(|f| catalog.size(f) as f64)
                            .sum()
                    })
                    .collect()
            })
            .collect();
        let (assignment, _) = hungarian(&cost);
        // assignment[v] = u: segment backend v lands on union backend u.
        let mut aligned = vec![vec![0.0; n]; k];
        for (v, &u) in assignment.iter().enumerate() {
            union[u].union_with(&seg.fragments[v]);
            for (c, row) in aligned.iter_mut().enumerate() {
                row[u] = seg.assign[c][v];
            }
        }
        segment_assign.push(aligned);
    }

    MergedAllocation {
        fragments: union,
        segment_assign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::cluster::ClusterSpec;
    use qcpa_core::greedy;

    /// Two segments with opposite hot classes (the paper's day/night
    /// pattern: class B dominates at night).
    fn day_night() -> (Catalog, Classification, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1000);
        let b = cat.add_table("B", 1000);
        let c = cat.add_table("C", 1000);
        let day = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.60),
            QueryClass::read(1, [b], 0.10),
            QueryClass::read(2, [c], 0.30),
        ])
        .unwrap();
        let night = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.10),
            QueryClass::read(1, [b], 0.70),
            QueryClass::read(2, [c], 0.20),
        ])
        .unwrap();
        (cat, day, night, ClusterSpec::homogeneous(3))
    }

    #[test]
    fn merged_allocation_serves_both_segments() {
        let (cat, day, night, cluster) = day_night();
        let a_day = greedy::allocate(&day, &cat, &cluster);
        let a_night = greedy::allocate(&night, &cat, &cluster);
        let merged = merge_allocations(&[a_day.clone(), a_night.clone()], &cat);

        let day_alloc = merged.for_segment(0, &day);
        day_alloc.validate(&day, &cluster).unwrap();
        let night_alloc = merged.for_segment(1, &night);
        night_alloc.validate(&night, &cluster).unwrap();

        // Each segment keeps its balanced speedup on the merged layout.
        assert!((day_alloc.speedup(&cluster) - 3.0).abs() < 1e-6);
        assert!((night_alloc.speedup(&cluster) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn merged_is_cheaper_than_full_replication() {
        let (cat, day, night, cluster) = day_night();
        let a_day = greedy::allocate(&day, &cat, &cluster);
        let a_night = greedy::allocate(&night, &cat, &cluster);
        let merged = merge_allocations(&[a_day, a_night], &cat);
        let full = Allocation::full_replication(&day, &cluster);
        assert!(merged.total_bytes(&cat) <= full.total_bytes(&cat));
    }

    #[test]
    fn single_segment_is_identity() {
        let (cat, day, _, cluster) = day_night();
        let a = greedy::allocate(&day, &cat, &cluster);
        let merged = merge_allocations(std::slice::from_ref(&a), &cat);
        assert_eq!(merged.fragments, a.fragments);
        assert_eq!(merged.for_segment(0, &day), a);
    }

    #[test]
    fn merge_aligns_to_minimize_extra_bytes() {
        let (cat, day, night, cluster) = day_night();
        let a_day = greedy::allocate(&day, &cat, &cluster);
        let a_night = greedy::allocate(&night, &cat, &cluster);
        let merged = merge_allocations(&[a_day.clone(), a_night.clone()], &cat);
        // Merged bytes never exceed the naive (unaligned) union.
        let naive: u64 = (0..3)
            .map(|b| {
                let mut s = a_day.fragments[b].clone();
                s.union_with(&a_night.fragments[b]);
                cat.size_of_set(&s)
            })
            .sum();
        assert!(merged.total_bytes(&cat) <= naive);
    }
}
