//! A horizontally partitioned workload (Section 3.1's predicate-based
//! classification).
//!
//! Classifying queries by their *predicates* produces a horizontal
//! partitioning: each range of a table becomes its own fragment and
//! queries land on the ranges they actually touch. The scenario here is
//! the classic motivation — an `orders` table range-partitioned by
//! month, where recent months are hot (reads *and* writes) and old
//! months are cold (occasional reporting). At table granularity the
//! whole table is one fragment, so the hot writes pin the *entire*
//! table wherever anything reads it; with horizontal fragments the cold
//! ranges spread out and only the hot ranges pay replication.

use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::fragment::{Catalog, FragmentId};
use qcpa_core::journal::{Journal, Query};

/// The generated horizontally partitioned workload.
#[derive(Debug, Clone)]
pub struct HPartWorkload {
    /// Catalog: the `orders` table plus its `parts` range partitions
    /// and a `customer` dimension table.
    pub catalog: Catalog,
    /// The partition fragments, oldest first.
    pub parts: Vec<FragmentId>,
    /// The `orders` table fragment (parent of the partitions).
    pub orders: FragmentId,
    /// The `customer` dimension fragment.
    pub customer: FragmentId,
}

/// Builds the scenario with `n_parts` monthly range partitions of equal
/// size.
pub fn hot_ranges(n_parts: usize) -> HPartWorkload {
    assert!(n_parts >= 2, "need at least two partitions");
    let mut catalog = Catalog::new();
    let part_size = 120_000_000u64;
    let orders = catalog.add_table("orders", part_size * n_parts as u64);
    let customer = catalog.add_table("customer", 150_000_000);
    let parts: Vec<FragmentId> = (0..n_parts)
        .map(|p| catalog.add_horizontal(orders, p as u32, format!("orders#{p}"), part_size))
        .collect();
    HPartWorkload {
        catalog,
        parts,
        orders,
        customer,
    }
}

impl HPartWorkload {
    /// The journal: the newest partition takes most reads and all
    /// writes; each older partition gets light reporting reads joined
    /// with `customer`.
    ///
    /// `hot_read`, `hot_write`: weight shares of the newest partition's
    /// point reads and order-entry writes; the remaining weight spreads
    /// evenly over the cold partitions' reports.
    pub fn journal(&self, hot_read: f64, hot_write: f64, per_class: u64) -> Journal {
        assert!(hot_read + hot_write < 1.0, "leave weight for cold reads");
        let n_cold = self.parts.len() - 1;
        let cold_each = (1.0 - hot_read - hot_write) / n_cold as f64;
        #[expect(
            clippy::expect_used,
            reason = "the constructor builds at least one partition"
        )]
        let hot = *self.parts.last().expect("at least one partition");
        let mut j = Journal::new();
        j.record_many(
            Query::read("hot point reads", [hot, self.customer], hot_read),
            per_class,
        );
        j.record_many(Query::update("order entry", [hot], hot_write), per_class);
        for (p, &frag) in self.parts[..n_cold].iter().enumerate() {
            j.record_many(
                Query::read(
                    format!("report month {p}"),
                    [frag, self.customer],
                    cold_each,
                ),
                per_class,
            );
        }
        j
    }

    /// Classification at partition granularity ([`Granularity::Fragment`]
    /// — the journal references horizontal fragments directly).
    #[expect(clippy::expect_used, reason = "`journal` always records classes")]
    pub fn classify_horizontal(&self, journal: &Journal) -> Classification {
        Classification::from_journal(journal, &self.catalog, Granularity::Fragment)
            .expect("journal is non-empty")
    }

    /// Classification at table granularity — the partitions coarsen to
    /// the whole `orders` table (the baseline the extension beats).
    #[expect(clippy::expect_used, reason = "`journal` always records classes")]
    pub fn classify_table(&self, journal: &Journal) -> Classification {
        Classification::from_journal(journal, &self.catalog, Granularity::Table)
            .expect("journal is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::cluster::ClusterSpec;
    use qcpa_core::greedy;

    #[test]
    fn horizontal_classification_separates_ranges() {
        let w = hot_ranges(6);
        let j = w.journal(0.1, 0.1, 100);
        let h = w.classify_horizontal(&j);
        let t = w.classify_table(&j);
        assert_eq!(h.len(), 1 + 1 + 5, "hot read + write + 5 cold reports");
        // Table granularity merges everything touching `orders`.
        assert!(t.len() < h.len());
    }

    #[test]
    fn horizontal_beats_table_granularity_on_hot_range_writes() {
        let w = hot_ranges(6);
        // The classic shape: the hot month's order entry is a small
        // share of the work, but at table granularity it contaminates
        // every reporting read of the cold months.
        let j = w.journal(0.1, 0.1, 100);
        let cluster = ClusterSpec::homogeneous(4);

        let h = w.classify_horizontal(&j);
        let ah = greedy::allocate(&h, &w.catalog, &cluster);
        ah.validate(&h, &cluster).unwrap();

        let t = w.classify_table(&j);
        let at = greedy::allocate(&t, &w.catalog, &cluster);
        at.validate(&t, &cluster).unwrap();

        // At table granularity every read of `orders` drags the hot
        // writes along; partitioned, only the hot range does.
        assert!(
            ah.speedup(&cluster) > at.speedup(&cluster) + 0.25,
            "horizontal {:.2} vs table {:.2}",
            ah.speedup(&cluster),
            at.speedup(&cluster)
        );
        assert!(ah.speedup(&cluster) <= h.max_speedup() + 1e-9);
    }

    #[test]
    fn cold_partitions_spread_without_replicating_hot_writes() {
        let w = hot_ranges(8);
        let j = w.journal(0.12, 0.12, 100);
        let cluster = ClusterSpec::homogeneous(4);
        let h = w.classify_horizontal(&j);
        let alloc = greedy::allocate(&h, &w.catalog, &cluster);
        // The hot partition's write class runs on few backends.
        let hot = *w.parts.last().unwrap();
        let hot_hosts = (0..4)
            .filter(|&b| alloc.fragments[b].contains(&hot))
            .count();
        assert!(hot_hosts <= 2, "hot range on {hot_hosts} backends");
    }

    #[test]
    fn weights_normalized() {
        let w = hot_ranges(4);
        let j = w.journal(0.5, 0.2, 10);
        let cls = w.classify_horizontal(&j);
        let sum: f64 = cls.classes.iter().map(|c| c.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
