//! Shared plumbing: classifying a journal *and* deriving the simulator
//! request stream consistently.

use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::{Journal, QueryKind};
use qcpa_sim::request::RequestStream;

/// A classified workload ready for allocation and simulation.
#[derive(Debug, Clone)]
pub struct ClassifiedWorkload {
    /// The query classes with weights (Eq. 4).
    pub classification: Classification,
    /// The matching request stream for the simulator: per-class
    /// occurrence frequencies and mean service seconds, consistent with
    /// the class weights (`weight ∝ frequency × service`).
    pub stream: RequestStream,
}

/// Classifies `journal` at `granularity` and derives the request
/// stream. `cost_unit_secs` converts the journal's abstract cost units
/// into seconds of service time on the reference backend.
///
/// # Panics
/// Panics if the journal is empty (workload generators always produce
/// non-empty journals).
#[expect(
    clippy::expect_used,
    reason = "documented panic on an empty journal; every entry re-derives a class key \
              `from_journal` produced"
)]
pub fn classify_and_stream(
    journal: &Journal,
    catalog: &Catalog,
    granularity: Granularity,
    cost_unit_secs: f64,
) -> ClassifiedWorkload {
    let classification = Classification::from_journal(journal, catalog, granularity)
        .expect("workload journals are non-empty and normalized");

    let k = classification.len();
    let mut freq = vec![0.0f64; k];
    let mut work = vec![0.0f64; k];
    for e in journal.entries() {
        // Re-derive the entry's class key exactly as from_journal did.
        let frags: std::collections::BTreeSet<_> = match granularity {
            Granularity::FullReplication => catalog.fragments().iter().map(|f| f.id).collect(),
            Granularity::Table => e
                .query
                .fragments
                .iter()
                .map(|&f| catalog.table_of(f))
                .collect(),
            Granularity::Fragment => e.query.fragments.iter().copied().collect(),
        };
        let kind = e.query.kind;
        let class = classification
            .classes
            .iter()
            .find(|c| c.kind == kind && c.fragments == frags)
            .expect("every journal entry maps to a class");
        freq[class.id.idx()] += e.count as f64;
        work[class.id.idx()] += e.count as f64 * e.query.cost;
    }

    let kinds: Vec<QueryKind> = classification.classes.iter().map(|c| c.kind).collect();
    let service: Vec<f64> = freq
        .iter()
        .zip(&work)
        .map(|(&f, &w)| if f > 0.0 { w / f * cost_unit_secs } else { 0.0 })
        .collect();
    // Classes can end with zero frequency only if the journal had
    // zero-count entries, which Journal::record_many ignores.
    let stream = RequestStream::new(freq, kinds, service);
    ClassifiedWorkload {
        classification,
        stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::journal::Query;

    #[test]
    fn stream_weights_match_classification_weights() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let mut j = Journal::new();
        j.record_many(Query::read("qa", [a], 2.0), 10);
        j.record_many(Query::read("qb", [b], 1.0), 30);
        j.record_many(Query::update("ua", [a], 0.5), 20);
        let w = classify_and_stream(&j, &cat, Granularity::Table, 0.001);
        let sw = w.stream.weights();
        for (c, &s) in w.classification.classes.iter().zip(&sw) {
            assert!(
                (c.weight - s).abs() < 1e-9,
                "class {} weight {} vs stream {}",
                c.id,
                c.weight,
                s
            );
        }
    }

    #[test]
    fn service_times_reflect_costs() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let mut j = Journal::new();
        j.record_many(Query::read("heavy", [a], 10.0), 1);
        j.record_many(Query::read("light", [b], 1.0), 100);
        let w = classify_and_stream(&j, &cat, Granularity::Table, 0.01);
        // Find the heavy class (on A).
        let heavy_idx = w
            .classification
            .classes
            .iter()
            .position(|c| c.fragments.iter().any(|f| f.idx() == 0))
            .unwrap();
        assert!((w.stream.service[heavy_idx] - 0.1).abs() < 1e-12);
    }
}
