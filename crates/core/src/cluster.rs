//! Cluster descriptions: backends and their relative performance.
//!
//! The paper distinguishes backends only by their *relative query
//! processing performance* `load(B) ∈ [0,1]` with `Σ load(B) = 1`
//! (Eq. 7). A homogeneous cluster of `s` nodes has `load(B) = 1/s` for
//! every backend.

use serde::{Deserialize, Serialize};

use crate::BackendId;

/// One backend database of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Dense identifier; equals the backend's index in the cluster.
    pub id: BackendId,
    /// Relative performance `load(B)`; all backends sum to 1.
    pub relative_perf: f64,
}

/// A cluster of shared-nothing backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    backends: Vec<BackendSpec>,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` backends, each with `load = 1/n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn homogeneous(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one backend");
        let perf = 1.0 / n as f64;
        Self {
            backends: (0..n)
                .map(|i| BackendSpec {
                    id: BackendId(i as u32),
                    relative_perf: perf,
                })
                .collect(),
        }
    }

    /// A heterogeneous cluster: raw performance figures are normalized so
    /// they sum to 1 (Eq. 7).
    ///
    /// # Panics
    /// Panics if `raw_perf` is empty or contains a non-positive value.
    pub fn heterogeneous(raw_perf: &[f64]) -> Self {
        assert!(
            !raw_perf.is_empty(),
            "cluster must have at least one backend"
        );
        assert!(
            raw_perf.iter().all(|&p| p > 0.0),
            "backend performance must be positive"
        );
        let total: f64 = raw_perf.iter().sum();
        Self {
            backends: raw_perf
                .iter()
                .enumerate()
                .map(|(i, &p)| BackendSpec {
                    id: BackendId(i as u32),
                    relative_perf: p / total,
                })
                .collect(),
        }
    }

    /// All backends, indexable by [`BackendId::idx`].
    pub fn backends(&self) -> &[BackendSpec] {
        &self.backends
    }

    /// `load(B)` — the backend's relative performance (Eq. 7).
    #[inline]
    pub fn load(&self, b: BackendId) -> f64 {
        self.backends[b.idx()].relative_perf
    }

    /// Number of backends `|B|`.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Never true: a cluster always has at least one backend.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Iterator over backend ids.
    pub fn ids(&self) -> impl Iterator<Item = BackendId> + '_ {
        self.backends.iter().map(|b| b.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_loads_sum_to_one() {
        let c = ClusterSpec::homogeneous(4);
        assert_eq!(c.len(), 4);
        let sum: f64 = c.backends().iter().map(|b| b.relative_perf).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((c.load(BackendId(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_normalizes() {
        // The Appendix A example: 30/30/20/20.
        let c = ClusterSpec::heterogeneous(&[3.0, 3.0, 2.0, 2.0]);
        assert!((c.load(BackendId(0)) - 0.3).abs() < 1e-12);
        assert!((c.load(BackendId(3)) - 0.2).abs() < 1e-12);
        let sum: f64 = c.backends().iter().map(|b| b.relative_perf).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_cluster_rejected() {
        ClusterSpec::homogeneous(0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_perf_rejected() {
        ClusterSpec::heterogeneous(&[1.0, 0.0]);
    }
}
