//! Per-backend service-time models.
//!
//! A backend's effective service time for a request depends on:
//!
//! * its **relative speed** — in a heterogeneous cluster a backend with
//!   performance share `p` among `n` backends runs at `p·n` times the
//!   reference speed;
//! * **locality** — the paper observes super-linear speedups for
//!   partial replication because specialized backends store less data,
//!   improving cache hit rates and disk transfer ("the caching on these
//!   backends improves", Section 4.1). The [`LocalityModel`] captures
//!   this: a backend storing fraction `s` of the database serves
//!   requests at multiplier `floor + (1 − floor)·s` (1.0 when it stores
//!   everything, `floor` in the limit of perfect specialization).

use qcpa_core::allocation::Allocation;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;

/// Cache/disk locality model (Section 4.1's super-linear effect).
#[derive(Debug, Clone, Copy)]
pub struct LocalityModel {
    /// Service-time multiplier in the limit of a backend storing an
    /// infinitesimal share of the database. 1.0 disables the effect.
    pub floor: f64,
}

impl Default for LocalityModel {
    fn default() -> Self {
        // Calibrated so TPC-H partial replication modestly outperforms
        // full replication, as in Figure 4(a).
        Self { floor: 0.7 }
    }
}

/// Precomputed per-backend service multipliers for one allocation on
/// one cluster.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Multiplier per backend; effective service = `service × mult[b]`.
    pub mult: Vec<f64>,
}

impl ServiceProfile {
    /// Builds the profile: speed from the cluster's relative
    /// performance, locality from the allocation's stored share.
    pub fn new(
        alloc: &Allocation,
        cluster: &ClusterSpec,
        catalog: &Catalog,
        locality: Option<LocalityModel>,
    ) -> Self {
        let n = cluster.len() as f64;
        let db_size: u64 = {
            // Size of everything any backend could store: the union of
            // allocated fragments at full replication — approximated by
            // the catalog total of allocated fragment kinds. Use the
            // union over this allocation plus 1 to avoid division by 0.
            let mut union = qcpa_core::fragment::FragSet::new();
            for set in &alloc.fragments {
                union.union_with(set);
            }
            catalog.size_of_set(&union).max(1)
        };
        let mult = cluster
            .ids()
            .map(|b| {
                let speed = cluster.load(b) * n; // 1.0 when homogeneous
                let loc = match locality {
                    None => 1.0,
                    Some(m) => {
                        let stored =
                            catalog.size_of_set(&alloc.fragments[b.idx()]) as f64 / db_size as f64;
                        m.floor + (1.0 - m.floor) * stored.min(1.0)
                    }
                };
                loc / speed
            })
            .collect();
        Self { mult }
    }

    /// Uniform profile (testing): every backend at reference speed.
    pub fn uniform(n: usize) -> Self {
        Self { mult: vec![1.0; n] }
    }

    /// Effective service seconds of a request on backend `b`.
    #[inline]
    pub fn effective(&self, b: usize, service: f64) -> f64 {
        service * self.mult[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::{Classification, QueryClass};
    use qcpa_core::greedy;

    fn setup() -> (Catalog, Classification) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.5),
            QueryClass::read(1, [b], 0.5),
        ])
        .unwrap();
        (cat, cls)
    }

    #[test]
    fn homogeneous_without_locality_is_uniform() {
        let (cat, cls) = setup();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let p = ServiceProfile::new(&alloc, &cluster, &cat, None);
        assert_eq!(p.mult, vec![1.0, 1.0]);
        assert_eq!(p.effective(0, 0.5), 0.5);
    }

    #[test]
    fn heterogeneous_speeds() {
        let (cat, cls) = setup();
        let cluster = ClusterSpec::heterogeneous(&[3.0, 1.0]);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let p = ServiceProfile::new(&alloc, &cluster, &cat, None);
        // Backend 0 has 75 % of the performance → speed 1.5× reference.
        assert!((p.mult[0] - 1.0 / 1.5).abs() < 1e-12);
        assert!((p.mult[1] - 1.0 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn locality_rewards_specialization() {
        let (cat, cls) = setup();
        let cluster = ClusterSpec::homogeneous(2);
        let full = Allocation::full_replication(&cls, &cluster);
        let partial = greedy::allocate(&cls, &cat, &cluster);
        let m = LocalityModel { floor: 0.6 };
        let pf = ServiceProfile::new(&full, &cluster, &cat, Some(m));
        let pp = ServiceProfile::new(&partial, &cluster, &cat, Some(m));
        assert!(
            (pf.mult[0] - 1.0).abs() < 1e-12,
            "full replication: no gain"
        );
        assert!(
            pp.mult[0] < 1.0 && pp.mult[1] < 1.0,
            "specialized backends are faster: {:?}",
            pp.mult
        );
    }
}
