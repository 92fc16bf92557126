//! Predicate-based classification end to end (Section 3.1's third
//! option): an `orders` table range-partitioned by month runs inside
//! the controller. The hot month takes all the writes; cold months
//! serve reports. After reallocation the hot partition is pinned to few
//! backends while cold partitions spread — queries keep answering
//! identically throughout.
//!
//! Run with: `cargo run --release --example partitioned_controller`

use qcpa::controller::{Cdbs, PartitionScheme, Request, WriteRequest};
use qcpa::core::classify::Granularity;
use qcpa::core::memetic::MemeticConfig;
use qcpa::storage::engine::{AggFunc, ScanQuery};
use qcpa::storage::predicate::{CmpOp, Predicate};
use qcpa::storage::schema::{ColumnDef, Schema, TableDef};
use qcpa::storage::table::Table;
use qcpa::storage::types::{DataType, Value};

fn main() {
    // orders(o_id, o_month, o_total), partitioned into months 0–11.
    let mut schema = Schema::new();
    schema.add_table(TableDef::new(
        "orders",
        vec![
            ColumnDef::new("o_id", DataType::I64, 8),
            ColumnDef::new("o_month", DataType::I64, 8),
            ColumnDef::new("o_total", DataType::F64, 8),
        ],
    ));
    let mut orders = Table::new(schema.table("orders").unwrap().clone());
    for i in 0..24_000i64 {
        orders.append(vec![
            Value::I64(i),
            Value::I64(i % 12),
            Value::F64((i % 500) as f64),
        ]);
    }
    let scheme = PartitionScheme::new("orders", "o_month", (1..12).collect());
    let mut cdbs = Cdbs::with_partitioning(schema, vec![orders], 4, vec![scheme]);
    println!(
        "booted 4 backends with 12 monthly partitions, fully replicated: {:?} KB",
        cdbs.stored_bytes()
            .iter()
            .map(|b| b / 1000)
            .collect::<Vec<_>>()
    );

    // The workload: order entry hits month 11 (hot); each cold month
    // gets an occasional revenue report.
    let report = |month: i64| {
        Request::Read(
            ScanQuery::all("orders")
                .select(&["o_total"])
                .filter(Predicate::cmp("o_month", CmpOp::Eq, Value::I64(month)))
                .agg(AggFunc::Sum, "o_total"),
        )
    };
    let mut baseline = Vec::new();
    for round in 0..20i64 {
        cdbs.execute(&Request::Write(WriteRequest::update(
            "orders",
            Some(
                Predicate::cmp("o_month", CmpOp::Eq, Value::I64(11)).and(Predicate::cmp(
                    "o_id",
                    CmpOp::Eq,
                    Value::I64(11 + 12 * round),
                )),
            ),
            "o_total",
            Value::F64(999.0),
        )))
        .expect("hot write");
        let month = round % 11;
        let out = cdbs.execute(&report(month)).expect("cold report");
        if round < 11 {
            baseline.push((month, out.result));
        }
    }
    println!(
        "served the mix; journal: {} classes over partition sets",
        cdbs.journal().distinct()
    );

    let refine = MemeticConfig::default();
    let r = cdbs
        .reallocate(4, Granularity::Fragment, Some(&refine))
        .expect("history recorded");
    println!(
        "reallocated at partition granularity: moved {:.1} MB, kept {} fragments in place",
        r.moved_bytes as f64 / 1e6,
        r.kept_fragments
    );
    println!(
        "stored KB per backend now: {:?}",
        cdbs.stored_bytes()
            .iter()
            .map(|b| b / 1000)
            .collect::<Vec<_>>()
    );
    let hot_hosts = r
        .allocation
        .fragments
        .iter()
        .filter(|set| {
            set.iter().any(
                |f| matches!(cdbs.catalog_fragment_kind(f), Some((n, true)) if n == "orders#11"),
            )
        })
        .count();
    println!("hot partition (month 11) hosted by {hot_hosts}/4 backends");

    // Cold reports answer identically on the new layout.
    for (month, before) in baseline {
        let after = cdbs.execute(&report(month)).expect("report still works");
        assert_eq!(before, after.result, "month {month} changed!");
    }
    println!("all cold-month reports verified identical after the move");
}
