//! Peak-heap budget of replication: booting a fully replicated CDBS on
//! 8 backends from generated TPC-H tables, serving a short
//! decision-support mix, and reallocating once at fragment granularity.
//! Every replica and every fragment shares the master copy's column
//! vectors until one of them writes, so the peak heap above the master
//! tables is a small fraction of them, not one copy per backend.
//!
//! Its own test binary so the counting `#[global_allocator]` is private
//! to it, and a single test so no other thread allocates while it
//! counts.

use qcpa::controller::{Cdbs, Request};
use qcpa::core::classify::Granularity;
use qcpa::storage::engine::{AggFunc, ScanQuery};
use qcpa::storage::predicate::{CmpOp, Predicate};
use qcpa::storage::types::Value;
use qcpa::workloads::tpch::tpch;

mod peak_alloc;

#[global_allocator]
static GLOBAL: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

/// Budget on the peak heap of boot, serve and reallocation above what
/// was live before, as a fraction of the master tables' heap: the
/// 0.0113 measured when it was set (0.13 MB over 11.84 MB: stores,
/// layouts, journal, catalog and allocator working memory, no column
/// data), plus 10 %. Deep-copying extraction held 4.9× here: eight
/// copies, each sized to fit where the master columns keep growth
/// slack.
const PEAK_OVER_MASTER: f64 = 0.0124;

const BACKENDS: usize = 8;

fn reads() -> Vec<Request> {
    vec![
        Request::Read(
            ScanQuery::all("lineitem")
                .select(&["l_extendedprice"])
                .agg(AggFunc::Sum, "l_extendedprice"),
        ),
        Request::Read(
            ScanQuery::all("orders")
                .select(&["o_orderkey"])
                .filter(Predicate::cmp("o_orderkey", CmpOp::Lt, Value::I64(500)))
                .agg(AggFunc::Count, "o_orderkey"),
        ),
        Request::Read(
            ScanQuery::all("customer")
                .select(&["c_name", "c_acctbal"])
                .filter(Predicate::cmp("c_custkey", CmpOp::Eq, Value::I64(42))),
        ),
    ]
}

#[test]
fn replication_shares_the_master_copy() {
    let w = tpch(1.0);
    let before = peak_alloc::live();
    let tables = w.generate_tables(5_000);
    let master = peak_alloc::live() - before;

    let base = peak_alloc::reset_peak();
    let mut cdbs = Cdbs::new(w.schema, tables, BACKENDS);
    for _ in 0..4 {
        for r in reads() {
            cdbs.execute(&r)
                .expect("the full replicas serve every read");
        }
    }
    let report = cdbs
        .reallocate(BACKENDS, Granularity::Fragment, None)
        .expect("the journal is not empty");
    let peak = peak_alloc::peak() - base;

    assert!(report.moved_bytes > 0, "the reallocation loads fragments");
    let over = peak as f64 / master as f64;
    println!(
        "boot + reallocate on {BACKENDS} backends: master {:.2} MB, peak {:.2} MB above it ({over:.4}×)",
        master as f64 / 1e6,
        peak as f64 / 1e6
    );
    assert!(
        over <= PEAK_OVER_MASTER,
        "peak heap {over:.3}× the master tables' (budget {PEAK_OVER_MASTER})"
    );
}
