//! Query classification (Section 3.1, Eq. 2–4).
//!
//! Classification groups the journal's queries by the set of data
//! fragments they reference. The chosen [`Granularity`] determines the
//! partitioning the allocation will produce: classifying by table yields
//! no partitioning, by column yields vertical partitioning, and
//! classifying every query into one class yields full replication.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::error::ClassificationError;
use crate::fragment::{Catalog, FragSet, FragmentId};
use crate::journal::{Journal, QueryKind};
use crate::{approx_eq_loose, ClassId, EPS};

/// Granularity of the classification, which in turn determines the
/// partitioning computed by the allocation (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// All queries fall into a single class referencing every fragment —
    /// the resulting allocation is a full replication.
    FullReplication,
    /// Queries are grouped by the *tables* they access: no partitioning.
    Table,
    /// Queries are grouped by the *fragments* they access verbatim
    /// (columns or horizontal partitions): vertical / horizontal
    /// partitioning depending on what the journal references.
    Fragment,
}

/// A class of similar queries: the set of fragments its queries reference
/// and the fraction of the overall workload it produces (Eq. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryClass {
    /// Dense identifier; equals the class's index in the classification.
    pub id: ClassId,
    /// Read or update class.
    pub kind: QueryKind,
    /// Fragments referenced by every query of the class.
    pub fragments: BTreeSet<FragmentId>,
    /// Relative weight: the class's share of the total workload, in
    /// `[0, 1]`; all class weights sum to 1.
    pub weight: f64,
}

impl QueryClass {
    /// Convenience constructor for a read class.
    pub fn read(id: u32, fragments: impl IntoIterator<Item = FragmentId>, weight: f64) -> Self {
        Self::new(id, QueryKind::Read, fragments, weight)
    }

    /// Convenience constructor for an update class.
    pub fn update(id: u32, fragments: impl IntoIterator<Item = FragmentId>, weight: f64) -> Self {
        Self::new(id, QueryKind::Update, fragments, weight)
    }

    pub(crate) fn new(
        id: u32,
        kind: QueryKind,
        fragments: impl IntoIterator<Item = FragmentId>,
        weight: f64,
    ) -> Self {
        Self {
            id: ClassId(id),
            kind,
            fragments: fragments.into_iter().collect(),
            weight,
        }
    }
}

/// The result of classifying a journal: query classes with weights, plus
/// precomputed read/update partitions, the `updates(C)` relation
/// (Eq. 12) and per-class fragment bitsets used throughout the
/// allocation algorithms.
///
/// Serializes as its classes and the relations derived from them;
/// deserializing re-derives everything from the classes.
#[derive(Debug, Clone, Serialize)]
pub struct Classification {
    /// All query classes; index `k` holds the class with `ClassId(k)`.
    pub classes: Vec<QueryClass>,
    read_ids: Vec<ClassId>,
    update_ids: Vec<ClassId>,
    /// `updates_of[k]` = update classes overlapping class `k`'s fragments.
    updates_of: Vec<Vec<ClassId>>,
    /// `updates_closure_of[k]`: the transitive closure of the `updates`
    /// relation — the update classes that must be co-located when class
    /// `k`'s fragments (plus those update classes' fragments, and so on)
    /// are placed on a backend. Needed because Eq. 8 forces a backend
    /// holding *any* fragment of an update class to hold *all* of them.
    updates_closure_of: Vec<Vec<ClassId>>,
    /// `fragment_sets[k]`: class `k`'s fragments as a bitset.
    #[serde(skip)]
    fragment_sets: Vec<FragSet>,
    /// `placement[k]`: [`Classification::placement_fragments`] of `k`.
    #[serde(skip)]
    placement: Vec<FragSet>,
}

impl Deserialize for Classification {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "Classification", v))?;
        let classes = Vec::from_value(serde::get_field(entries, "classes", "Classification")?)?;
        Self::from_classes(classes).map_err(|e| serde::Error(e.to_string()))
    }
}

impl Classification {
    /// Classifies a journal at the given granularity (Eq. 2–4).
    ///
    /// Each query is assigned to the class identified by the set of
    /// fragments it references, mapped through the granularity: at
    /// [`Granularity::Table`] every referenced fragment is replaced by its
    /// parent table; at [`Granularity::FullReplication`] all queries form
    /// one read class (updates keep a single update class) covering the
    /// whole catalog. Class weights are the summed `j(q) · cost(q)` shares
    /// of the total workload (Eq. 4).
    pub fn from_journal(
        journal: &Journal,
        catalog: &Catalog,
        granularity: Granularity,
    ) -> Result<Self, ClassificationError> {
        if journal.is_empty() {
            return Err(ClassificationError::EmptyJournal);
        }
        let total = journal.total_work();
        // Group by (kind, mapped fragment set); reads order first, and
        // `FragSet` orders like the class's `BTreeSet`.
        let mut groups: BTreeMap<(QueryKind, FragSet), f64> = BTreeMap::new();
        for e in journal.entries() {
            let frags: FragSet = match granularity {
                Granularity::FullReplication => catalog.fragments().iter().map(|f| f.id).collect(),
                Granularity::Table => e
                    .query
                    .fragments
                    .iter()
                    .map(|&f| catalog.table_of(f))
                    .collect(),
                Granularity::Fragment => e.query.fragments.iter().copied().collect(),
            };
            *groups.entry((e.query.kind, frags)).or_insert(0.0) +=
                e.count as f64 * e.query.cost / total;
        }
        let classes = groups
            .into_iter()
            .enumerate()
            .map(|(k, ((kind, fragments), weight))| {
                QueryClass::new(k as u32, kind, &fragments, weight)
            })
            .collect();
        Self::from_classes(classes)
    }

    /// Builds a classification directly from query classes (used by the
    /// synthetic workload generators and by tests).
    ///
    /// Validates that ids are dense, weights are non-negative and sum
    /// to 1, and no class is empty.
    pub fn from_classes(classes: Vec<QueryClass>) -> Result<Self, ClassificationError> {
        if classes.is_empty() {
            return Err(ClassificationError::EmptyJournal);
        }
        for (k, c) in classes.iter().enumerate() {
            if c.id.idx() != k {
                return Err(ClassificationError::NonDenseIds {
                    expected: k,
                    found: c.id,
                });
            }
            if c.fragments.is_empty() {
                return Err(ClassificationError::EmptyClass { class: c.id });
            }
            if c.weight < -EPS {
                return Err(ClassificationError::NegativeWeight { class: c.id });
            }
        }
        let sum: f64 = classes.iter().map(|c| c.weight).sum();
        if !approx_eq_loose(sum, 1.0) {
            return Err(ClassificationError::WeightsNotNormalized { sum });
        }

        let read_ids = classes
            .iter()
            .filter(|c| c.kind == QueryKind::Read)
            .map(|c| c.id)
            .collect();
        let update_ids: Vec<ClassId> = classes
            .iter()
            .filter(|c| c.kind == QueryKind::Update)
            .map(|c| c.id)
            .collect();

        let fragment_sets: Vec<FragSet> = classes
            .iter()
            .map(|c| c.fragments.iter().copied().collect())
            .collect();

        // updates(C) per Eq. 12: update classes referencing related data.
        let updates_of: Vec<Vec<ClassId>> = classes
            .iter()
            .map(|c| {
                update_ids
                    .iter()
                    .copied()
                    .filter(|&u| {
                        u != c.id && fragment_sets[u.idx()].intersects(&fragment_sets[c.id.idx()])
                    })
                    .collect()
            })
            .collect();

        // Transitive closure: placing C's fragments forces updates(C),
        // whose fragments may overlap further update classes, and so on.
        // The grown fragment set is the class's placement.
        let (updates_closure_of, placement) = classes
            .iter()
            .map(|c| {
                let mut frags = fragment_sets[c.id.idx()].clone();
                let mut member = vec![false; classes.len()];
                let mut out: Vec<ClassId> = Vec::new();
                if c.kind == QueryKind::Update {
                    // An update class always co-locates with itself.
                    member[c.id.idx()] = true;
                    out.push(c.id);
                }
                loop {
                    let mut grew = false;
                    for &u in &update_ids {
                        if !member[u.idx()] && fragment_sets[u.idx()].intersects(&frags) {
                            member[u.idx()] = true;
                            out.push(u);
                            frags.union_with(&fragment_sets[u.idx()]);
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                out.sort_unstable();
                (out, frags)
            })
            .unzip();

        Ok(Self {
            classes,
            read_ids,
            update_ids,
            updates_of,
            updates_closure_of,
            fragment_sets,
            placement,
        })
    }

    /// Ids of all read query classes (`C_Q`).
    pub fn read_ids(&self) -> &[ClassId] {
        &self.read_ids
    }

    /// Ids of all update query classes (`C_U`).
    pub fn update_ids(&self) -> &[ClassId] {
        &self.update_ids
    }

    /// `updates(C)` (Eq. 12): update classes referencing data that
    /// overlaps class `c`'s fragments (excluding `c` itself).
    pub fn updates(&self, c: ClassId) -> &[ClassId] {
        &self.updates_of[c.idx()]
    }

    /// Transitive closure of `updates` starting from class `c` — the full
    /// set of update classes that must run on any backend that hosts `c`
    /// together with all their fragments (for update classes the closure
    /// includes the class itself).
    pub fn updates_closure(&self, c: ClassId) -> &[ClassId] {
        &self.updates_closure_of[c.idx()]
    }

    /// Sum of weights of `updates_closure(c)`.
    pub fn update_closure_weight(&self, c: ClassId) -> f64 {
        self.updates_closure_of[c.idx()]
            .iter()
            .map(|&u| self.classes[u.idx()].weight)
            .sum()
    }

    /// The fragments of `c` plus the fragments of its update closure: the
    /// set a backend must store to host class `c`. Closure distributes
    /// over union, so the placement of a set of classes is the union of
    /// their placements.
    #[inline]
    pub fn placement_fragments(&self, c: ClassId) -> &FragSet {
        &self.placement[c.idx()]
    }

    /// Every fragment some class references.
    pub fn referenced_fragments(&self) -> FragSet {
        let mut all = FragSet::new();
        self.fragment_sets
            .iter()
            .for_each(|set| all.union_with(set));
        all
    }

    /// Class `c`'s fragments as a bitset (the same set as
    /// `classes[c].fragments`).
    #[inline]
    pub fn fragment_set(&self, c: ClassId) -> &FragSet {
        &self.fragment_sets[c.idx()]
    }

    /// Weight of class `c`.
    #[inline]
    pub fn weight(&self, c: ClassId) -> f64 {
        self.classes[c.idx()].weight
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if there are no classes (never for a valid classification).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The theoretical maximum speedup of this workload (Eq. 17):
    /// `1 / max_C Σ_{CU ∈ updates(C)} weight(CU)` — unbounded
    /// (`f64::INFINITY`) for read-only workloads.
    pub fn max_speedup(&self) -> f64 {
        let max_update = self
            .classes
            .iter()
            .map(|c| self.update_closure_weight(c.id))
            .fold(0.0, f64::max);
        if max_update <= EPS {
            f64::INFINITY
        } else {
            1.0 / max_update
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Query;

    fn abc_catalog() -> (Catalog, [FragmentId; 3]) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        (cat, [a, b, c])
    }

    #[test]
    fn classifies_section3_example() {
        let (cat, [a, b, c]) = abc_catalog();
        let mut j = Journal::new();
        j.record_many(Query::read("select A", [a], 1.0), 30);
        j.record_many(Query::read("select B", [b], 1.0), 25);
        j.record_many(Query::read("select C", [c], 1.0), 25);
        j.record_many(Query::read("select A,B", [a, b], 1.0), 20);
        let cls = Classification::from_journal(&j, &cat, Granularity::Table).unwrap();
        assert_eq!(cls.len(), 4);
        let weights: Vec<f64> = cls.classes.iter().map(|c| c.weight).collect();
        let sum: f64 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(weights.iter().any(|&w| (w - 0.30).abs() < 1e-9));
        assert!(weights.iter().any(|&w| (w - 0.20).abs() < 1e-9));
    }

    #[test]
    fn full_replication_granularity_yields_one_read_class() {
        let (cat, [a, b, _]) = abc_catalog();
        let mut j = Journal::new();
        j.record(Query::read("q1", [a], 1.0));
        j.record(Query::read("q2", [b], 3.0));
        let cls = Classification::from_journal(&j, &cat, Granularity::FullReplication).unwrap();
        assert_eq!(cls.len(), 1);
        assert_eq!(cls.classes[0].fragments.len(), 3);
        assert!((cls.classes[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_granularity_coarsens_columns() {
        let mut cat = Catalog::new();
        let t = cat.add_table("T", 100);
        let c1 = cat.add_column(t, "T.x", 50);
        let c2 = cat.add_column(t, "T.y", 50);
        let mut j = Journal::new();
        j.record(Query::read("qx", [c1], 1.0));
        j.record(Query::read("qy", [c2], 1.0));
        let by_table = Classification::from_journal(&j, &cat, Granularity::Table).unwrap();
        assert_eq!(by_table.len(), 1, "both queries hit table T");
        let by_col = Classification::from_journal(&j, &cat, Granularity::Fragment).unwrap();
        assert_eq!(by_col.len(), 2);
    }

    #[test]
    fn weights_use_cost_not_frequency() {
        let (cat, [a, b, _]) = abc_catalog();
        let mut j = Journal::new();
        // 1 heavy query = 50% of work despite being 1 of 11 queries.
        j.record_many(Query::read("heavy", [a], 10.0), 1);
        j.record_many(Query::read("light", [b], 1.0), 10);
        let cls = Classification::from_journal(&j, &cat, Granularity::Table).unwrap();
        let heavy = cls
            .classes
            .iter()
            .find(|c| c.fragments.contains(&a))
            .unwrap();
        assert!((heavy.weight - 0.5).abs() < 1e-9);
    }

    #[test]
    fn updates_relation_eq12() {
        let (_, [a, b, c]) = abc_catalog();
        let classes = vec![
            QueryClass::read(0, [a], 0.3),
            QueryClass::read(1, [b, c], 0.3),
            QueryClass::update(2, [a], 0.2),
            QueryClass::update(3, [c], 0.2),
        ];
        let cls = Classification::from_classes(classes).unwrap();
        assert_eq!(cls.updates(ClassId(0)), &[ClassId(2)]);
        assert_eq!(cls.updates(ClassId(1)), &[ClassId(3)]);
        assert_eq!(cls.updates(ClassId(2)), &[] as &[ClassId]);
        assert_eq!(cls.read_ids(), &[ClassId(0), ClassId(1)]);
        assert_eq!(cls.update_ids(), &[ClassId(2), ClassId(3)]);
    }

    #[test]
    fn updates_closure_chains() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1);
        let b = cat.add_table("B", 1);
        let c = cat.add_table("C", 1);
        // Read on A; update U1 = {A, B}; update U2 = {B, C}.
        // Placing the read forces U1 (overlap A), whose fragment B forces U2.
        let classes = vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::update(1, [a, b], 0.2),
            QueryClass::update(2, [b, c], 0.2),
        ];
        let cls = Classification::from_classes(classes).unwrap();
        assert_eq!(cls.updates(ClassId(0)), &[ClassId(1)]);
        assert_eq!(cls.updates_closure(ClassId(0)), &[ClassId(1), ClassId(2)]);
        let placed = cls.placement_fragments(ClassId(0));
        assert!(placed.contains(&a) && placed.contains(&b) && placed.contains(&c));
    }

    #[test]
    fn max_speedup_eq17() {
        let (_, [a, b, _]) = abc_catalog();
        let classes = vec![
            QueryClass::read(0, [a], 0.5),
            QueryClass::read(1, [b], 0.25),
            QueryClass::update(2, [a], 0.25),
        ];
        let cls = Classification::from_classes(classes).unwrap();
        // The heaviest update burden on any class is weight(U)=0.25.
        assert!((cls.max_speedup() - 4.0).abs() < 1e-9);

        let ro = Classification::from_classes(vec![QueryClass::read(0, [a], 1.0)]).unwrap();
        assert!(ro.max_speedup().is_infinite());
    }

    #[test]
    fn rejects_bad_inputs() {
        let (_, [a, _, _]) = abc_catalog();
        assert!(Classification::from_classes(vec![]).is_err());
        assert!(
            Classification::from_classes(vec![QueryClass::read(5, [a], 1.0)]).is_err(),
            "non-dense ids"
        );
        assert!(
            Classification::from_classes(vec![QueryClass::read(0, [a], 0.5)]).is_err(),
            "weights must sum to 1"
        );
        assert!(
            Classification::from_classes(vec![QueryClass::read(0, [], 1.0)]).is_err(),
            "empty class"
        );
    }
}
