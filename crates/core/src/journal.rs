//! Queries and the query journal.
//!
//! The journal `J` (Section 3.1) is a multiset of executed queries: the
//! same query text may occur many times, and the characteristic function
//! `j(q)` returns its number of occurrences. Each query carries the set of
//! data fragments it references (at the finest granularity the workload
//! knows, typically columns) and a *weight* — its execution time or an
//! optimizer cost estimate — from which class weights are derived (Eq. 4).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::fragment::FragmentId;

/// Whether a request reads data or modifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QueryKind {
    /// A read request; can be answered by any backend holding the data.
    Read,
    /// An update request; must execute on every backend holding any
    /// referenced fragment (ROWA).
    Update,
}

/// A distinguishable query: identified by its text, referencing a set of
/// fragments, with a per-execution cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Query text. Two queries are the same element of the journal's
    /// support iff their texts are identical.
    pub text: String,
    /// Read or update.
    pub kind: QueryKind,
    /// Fragments referenced by the query, sorted and deduplicated.
    pub fragments: Vec<FragmentId>,
    /// Per-execution cost (e.g. measured execution time in seconds or an
    /// optimizer estimate). Must be positive.
    pub cost: f64,
}

impl Query {
    /// Creates a read query.
    pub fn read(
        text: impl Into<String>,
        fragments: impl IntoIterator<Item = FragmentId>,
        cost: f64,
    ) -> Self {
        Self::new(text, QueryKind::Read, fragments, cost)
    }

    /// Creates an update query.
    pub fn update(
        text: impl Into<String>,
        fragments: impl IntoIterator<Item = FragmentId>,
        cost: f64,
    ) -> Self {
        Self::new(text, QueryKind::Update, fragments, cost)
    }

    fn new(
        text: impl Into<String>,
        kind: QueryKind,
        fragments: impl IntoIterator<Item = FragmentId>,
        cost: f64,
    ) -> Self {
        let mut fragments: Vec<FragmentId> = fragments.into_iter().collect();
        fragments.sort_unstable();
        fragments.dedup();
        assert!(cost > 0.0, "query cost must be positive");
        assert!(!fragments.is_empty(), "query must reference data");
        Self {
            text: text.into(),
            kind,
            fragments,
            cost,
        }
    }
}

/// One element of the journal's support together with its multiplicity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The distinguishable query.
    pub query: Query,
    /// `j(q)`: how many times the query occurs in the journal.
    pub count: u64,
}

/// A query journal: a multiset of executed queries.
///
/// Recording a query whose text was seen before increments its count;
/// the fragment set and cost of the first recording win (they are
/// properties of the query, not of the execution).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Journal {
    entries: Vec<JournalEntry>,
    // Deterministic-crate policy (audit: hash-iter): keyed lookups only
    // today, but BTreeMap keeps any future iteration order seed-free.
    #[serde(skip)]
    index: BTreeMap<String, usize>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `query`.
    pub fn record(&mut self, query: Query) {
        self.record_many(query, 1);
    }

    /// Records `count` executions of `query` at once.
    pub fn record_many(&mut self, query: Query, count: u64) {
        if count == 0 {
            return;
        }
        match self.index.get(&query.text) {
            Some(&i) => self.entries[i].count += count,
            None => {
                self.index.insert(query.text.clone(), self.entries.len());
                self.entries.push(JournalEntry { query, count });
            }
        }
    }

    /// The journal's support with multiplicities.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// `j(q)` for a query text: number of occurrences.
    pub fn occurrences(&self, text: &str) -> u64 {
        self.index.get(text).map_or(0, |&i| self.entries[i].count)
    }

    /// Number of distinguishable queries (size of the support).
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total number of recorded executions.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Total workload: `Σ j(q) · weight(q)` — the denominator of Eq. 4.
    pub fn total_work(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.count as f64 * e.query.cost)
            .sum()
    }

    /// True if no executions were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FragmentId {
        FragmentId(i)
    }

    #[test]
    fn multiset_semantics() {
        let mut j = Journal::new();
        j.record(Query::read("q1", [f(0)], 1.0));
        j.record(Query::read("q1", [f(0)], 1.0));
        j.record(Query::read("q2", [f(1)], 2.0));
        assert_eq!(j.occurrences("q1"), 2);
        assert_eq!(j.occurrences("q2"), 1);
        assert_eq!(j.occurrences("nope"), 0);
        assert_eq!(j.distinct(), 2);
        assert_eq!(j.total(), 3);
        assert!((j.total_work() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn record_many_accumulates() {
        let mut j = Journal::new();
        j.record_many(Query::update("u", [f(0), f(1)], 0.5), 10);
        j.record_many(Query::update("u", [f(0), f(1)], 0.5), 0);
        assert_eq!(j.total(), 10);
        assert!((j.total_work() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fragments_sorted_and_deduped() {
        let q = Query::read("q", [f(3), f(1), f(3), f(2)], 1.0);
        assert_eq!(q.fragments, vec![f(1), f(2), f(3)]);
    }

    #[test]
    #[should_panic(expected = "query cost must be positive")]
    fn zero_cost_rejected() {
        Query::read("q", [f(0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "query must reference data")]
    fn empty_fragments_rejected() {
        Query::read("q", [], 1.0);
    }
}
