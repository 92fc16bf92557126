//! The storage substrate for real: generate TPC-H data, compute a
//! column-based allocation, physically extract and bulk-load the
//! vertical fragments onto per-backend stores, and answer actual scan
//! queries routed per the allocation.
//!
//! Run with: `cargo run --release --example storage_engine`

use qcpa::core::classify::Granularity;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::greedy;
use qcpa::storage::engine::{AggFunc, BackendStore, QueryResult, ScanQuery};
use qcpa::storage::fragmentation::extract_vertical;
use qcpa::storage::predicate::{CmpOp, Predicate};
use qcpa::storage::types::Value;
use qcpa::workloads::common::classify_and_stream;
use qcpa::workloads::tpch::tpch;

fn main() {
    // Generate a small physical instance (row counts capped for the demo;
    // the catalog still carries SF-1 sizes for the allocation decision).
    let w = tpch(1.0);
    let tables = w.generate_tables(20_000);
    println!(
        "generated {} tables, {} physical rows",
        tables.len(),
        tables.iter().map(|t| t.len()).sum::<usize>()
    );

    // Column-based allocation on 3 backends.
    let journal = w.journal(100);
    let cw = classify_and_stream(&journal, &w.catalog, Granularity::Fragment, 0.2);
    let cluster = ClusterSpec::homogeneous(3);
    let alloc = greedy::allocate(&cw.classification, &w.catalog, &cluster);
    alloc
        .validate(&cw.classification, &cluster)
        .expect("allocation is valid");

    // Physically materialize: for each backend, extract the vertical
    // fragments of every column assigned to it and bulk load.
    let mut stores: Vec<BackendStore> = (0..3).map(|_| BackendStore::new()).collect();
    for (bi, store) in stores.iter_mut().enumerate() {
        let mut loaded = 0u64;
        for fid in &alloc.fragments[bi] {
            let name = &w.catalog.fragment(fid).name;
            let Some((table_name, col)) = name.split_once('.') else {
                continue; // table-level fragment entries are not used here
            };
            let table = tables
                .iter()
                .find(|t| t.def.name == table_name)
                .expect("generated all tables");
            loaded += store.bulk_load(extract_vertical(table, &[col]));
        }
        println!(
            "backend {}: {} column fragments, {:.1} MB loaded",
            bi,
            store.fragment_names().count(),
            loaded as f64 / 1e6
        );
    }

    // Run a real query: TPC-H Q6-style revenue aggregate over the
    // l_extendedprice fragment, on a backend that stores it.
    let frag = "lineitem.l_extendedprice";
    let serving = (0..3)
        .find(|&b| {
            stores[b]
                .fragment_names()
                .any(|n| n.contains("l_extendedprice"))
        })
        .expect("some backend stores the revenue column");
    let frag_name = stores[serving]
        .fragment_names()
        .find(|n| n.contains("l_extendedprice"))
        .expect("fragment present")
        .to_string();
    let q = ScanQuery::all(&frag_name)
        .filter(Predicate::cmp(
            "l_extendedprice",
            CmpOp::Gt,
            Value::F64(500.0),
        ))
        .agg(AggFunc::Sum, "l_extendedprice");
    match stores[serving].execute(&q).expect("query runs") {
        QueryResult::Scalar(Some(sum)) => {
            println!("\nQ6-style aggregate on backend {serving} over {frag}: sum = {sum:.0}")
        }
        other => println!("unexpected result: {other:?}"),
    }

    // And a point update applied ROWA-style to every replica.
    let holders: Vec<usize> = (0..3)
        .filter(|&b| {
            stores[b]
                .fragment_names()
                .any(|n| n.contains("l_extendedprice"))
        })
        .collect();
    for &b in &holders {
        let frag_name = stores[b]
            .fragment_names()
            .find(|n| n.contains("l_extendedprice"))
            .expect("fragment present")
            .to_string();
        let changed = stores[b]
            .update(
                &frag_name,
                Some(&Predicate::cmp("l_orderkey", CmpOp::Eq, Value::I64(1))),
                "l_extendedprice",
                Value::F64(0.0),
            )
            .expect("update runs");
        println!("ROWA update on backend {b}: {changed} rows");
    }
}
