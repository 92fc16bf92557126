//! Quickstart: the paper's Section 3 running example.
//!
//! Three relations A, B, C; four read query classes at 30/25/25/20 % of
//! the workload. We classify a recorded journal, compute partial
//! replications for 1, 2 and 4 backends, and verify the properties the
//! paper derives: perfect speedup with far less storage than full
//! replication.
//!
//! Run with: `cargo run --example quickstart`

use qcpa::prelude::*;

fn main() {
    // 1. Describe the data fragments (here: whole relations).
    let mut catalog = Catalog::new();
    let a = catalog.add_table("A", 100);
    let b = catalog.add_table("B", 100);
    let c = catalog.add_table("C", 100);

    // 2. Record a query journal (normally captured by the controller).
    let mut journal = Journal::new();
    journal.record_many(Query::read("SELECT ... FROM A", [a], 1.0), 300);
    journal.record_many(Query::read("SELECT ... FROM B", [b], 1.0), 250);
    journal.record_many(Query::read("SELECT ... FROM C", [c], 1.0), 250);
    journal.record_many(Query::read("SELECT ... FROM A JOIN B", [a, b], 1.0), 200);

    // 3. Classify it: queries group by the fragments they reference.
    let cls = Classification::from_journal(&journal, &catalog, Granularity::Table)
        .expect("journal is non-empty");
    println!("{} query classes:", cls.len());
    for qc in &cls.classes {
        let names: Vec<&str> = qc
            .fragments
            .iter()
            .map(|f| catalog.fragment(*f).name.as_str())
            .collect();
        println!("  {}: {:?} weight {:.0}%", qc.id, names, qc.weight * 100.0);
    }

    // 4. Allocate on growing clusters and inspect the result.
    for n in [1usize, 2, 4] {
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc
            .validate(&cls, &cluster)
            .expect("greedy output is valid");
        println!(
            "\n{n} backend(s): speedup {:.2} (theoretical max {n}), \
             degree of replication {:.2} (full replication: {n})",
            alloc.speedup(&cluster),
            alloc.degree_of_replication(&cls, &catalog),
        );
        for (bi, set) in alloc.fragments.iter().enumerate() {
            let names: Vec<&str> = set
                .iter()
                .map(|f| catalog.fragment(f).name.as_str())
                .collect();
            println!(
                "  B{} stores {:?}, carries {:.0}% of the load",
                bi + 1,
                names,
                alloc.assigned_load(BackendId(bi as u32)) * 100.0
            );
        }
    }
}
