//! Synthetic scale-out instances for the multilevel allocator: a
//! clustered co-access workload generator that dials fragment counts
//! two orders of magnitude past the paper's evaluation (Section 4 tops
//! out around 70 fragments) while keeping the co-access *structure* the
//! coarsening exploits — queries touch mostly-local clusters of
//! fragments, with a thin tail of cross-cluster traffic.
//!
//! Everything is derived from a `ChaCha8Rng` seeded by the caller, so
//! an instance is a pure function of `(n_fragments, seed)` — the bench
//! matrix and the conformance harness rely on that.

use qcpa_core::prelude::*;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fragments per co-access cluster.
const CLUSTER: usize = 16;

/// A generated scale-out instance: the catalog and its classification,
/// ready for the allocator.
#[derive(Debug, Clone)]
pub struct ScaledWorkload {
    /// One table-level fragment per generated fragment.
    pub catalog: Catalog,
    /// Read and update classes with normalized weights.
    pub classification: Classification,
}

/// Generates a clustered co-access instance with `n_fragments`
/// fragments (rounded up to a whole number of 16-fragment clusters,
/// minimum one cluster):
///
/// * one read class per 4 fragments, referencing 2–4 fragments drawn
///   from a single cluster 90 % of the time (10 % pick a second
///   cluster's fragment — the cross-traffic tail);
/// * one update class per 16 fragments, referencing 1–2 fragments of
///   one cluster;
/// * fragment sizes log-uniform-ish in `[32, 4096]` KB-units, class
///   weights uniform in `[0.5, 1.5]` before normalization.
///
/// Deterministic: identical `(n_fragments, seed)` → identical instance.
#[must_use]
#[expect(clippy::panic, reason = "weights are normalized by construction above")]
pub fn clustered(n_fragments: usize, seed: u64) -> ScaledWorkload {
    let n_clusters = n_fragments.div_ceil(CLUSTER).max(1);
    let n = n_clusters * CLUSTER;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut catalog = Catalog::new();
    let frags: Vec<FragmentId> = (0..n)
        .map(|i| {
            let size = 32u64 << rng.gen_range(0..8); // 32..4096
            catalog.add_table(format!("f{i}"), size)
        })
        .collect();

    let n_reads = (n / 4).max(1);
    let n_updates = (n / CLUSTER).max(1);
    let mut classes = Vec::with_capacity(n_reads + n_updates);
    let mut id = 0u32;
    for _ in 0..n_reads {
        let home = rng.gen_range(0..n_clusters);
        let span = rng.gen_range(2..=4usize);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < span {
            let cluster = if rng.gen_range(0..10) == 0 {
                rng.gen_range(0..n_clusters)
            } else {
                home
            };
            set.insert(frags[cluster * CLUSTER + rng.gen_range(0..CLUSTER)]);
        }
        classes.push(QueryClass::read(id, set, rng.gen_range(0.5..1.5)));
        id += 1;
    }
    for _ in 0..n_updates {
        let home = rng.gen_range(0..n_clusters);
        let span = rng.gen_range(1..=2usize);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < span {
            set.insert(frags[home * CLUSTER + rng.gen_range(0..CLUSTER)]);
        }
        classes.push(QueryClass::update(id, set, rng.gen_range(0.5..1.5) * 0.25));
        id += 1;
    }

    let total: f64 = classes.iter().map(|c| c.weight).sum();
    for c in &mut classes {
        c.weight /= total;
    }
    let classification = match Classification::from_classes(classes) {
        Ok(c) => c,
        Err(e) => panic!("generated classification is invalid: {e:?}"),
    };
    ScaledWorkload {
        catalog,
        classification,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_is_deterministic() {
        let a = clustered(256, 11);
        let b = clustered(256, 11);
        assert_eq!(a.catalog.len(), b.catalog.len());
        assert_eq!(a.classification.classes, b.classification.classes);
        let c = clustered(256, 12);
        assert_ne!(a.classification.classes, c.classification.classes);
    }

    #[test]
    fn clustered_scales_and_normalizes() {
        for n in [16, 512, 4096] {
            let w = clustered(n, 7);
            assert_eq!(w.catalog.len(), n);
            let total: f64 = w.classification.classes.iter().map(|c| c.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}: weights sum {total}");
            assert!(!w.classification.update_ids().is_empty());
            assert!(w.classification.read_ids().len() >= n / 4);
        }
    }

    #[test]
    fn clustered_rounds_up_to_whole_clusters() {
        assert_eq!(clustered(17, 1).catalog.len(), 32);
        assert_eq!(clustered(1, 1).catalog.len(), 16);
    }
}
