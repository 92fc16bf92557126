//! Proptest strategies shared by the root test suites (`properties`,
//! `conformance`): random workloads over random catalogs, materialized
//! into the core model types.

#![allow(
    dead_code,
    reason = "each suite that includes this module uses a different subset"
)]

use proptest::prelude::*;
use qcpa::core::classify::{Classification, QueryClass};
use qcpa::core::fragment::{Catalog, FragmentId};

/// A random workload: catalog of `n_frags` tables with random sizes,
/// `n_classes` classes with random fragment subsets, random weights
/// normalized to 1, a random read/update split.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    /// Per-table byte sizes.
    pub sizes: Vec<u64>,
    /// Per class: fragment indices, raw weight, is-update flag.
    pub classes: Vec<(Vec<usize>, f64, bool)>,
}

/// Random workloads with 3–7 tables and 2–7 classes (~30 % updates).
pub fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    let frag_count = 3..8usize;
    frag_count.prop_flat_map(|nf| {
        let sizes = proptest::collection::vec(1u64..10_000, nf);
        let classes = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..nf, 1..=nf.min(4)),
                0.05f64..1.0,
                proptest::bool::weighted(0.3),
            ),
            2..8,
        );
        (sizes, classes).prop_map(|(sizes, classes)| RandomWorkload {
            sizes,
            classes: classes
                .into_iter()
                .map(|(f, w, u)| (f.into_iter().collect(), w, u))
                .collect(),
        })
    })
}

/// Builds the catalog and classification for a sampled workload.
/// `None` when the sampled class set is degenerate (rejected by
/// [`Classification::from_classes`]).
pub fn materialize(w: &RandomWorkload) -> (Catalog, Option<Classification>) {
    let mut catalog = Catalog::new();
    let ids: Vec<FragmentId> = w
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| catalog.add_table(format!("T{i}"), s))
        .collect();
    let total: f64 = w.classes.iter().map(|(_, w, _)| w).sum();
    let classes: Vec<QueryClass> = w
        .classes
        .iter()
        .enumerate()
        .map(|(k, (frags, weight, is_update))| {
            let frag_ids = frags.iter().map(|&i| ids[i]);
            if *is_update {
                QueryClass::update(k as u32, frag_ids, weight / total)
            } else {
                QueryClass::read(k as u32, frag_ids, weight / total)
            }
        })
        .collect();
    (catalog, Classification::from_classes(classes).ok())
}
