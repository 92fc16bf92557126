//! # qcpa-controller
//!
//! The paper's prototype, as a library (Figure 3): a **controller** in
//! front of shared-nothing backend stores; `examples/controller_cdbs.rs`
//! drives it end to end. Every request runs one stage sequence — analyse
//! → route → serve → propagate → apply → record — whose only
//! fragmentation-specific input is the request's footprint (the
//! referenced columns of a plain table, the touched partitions of a
//! range-partitioned one): a read runs on the least-loaded live backend
//! holding all of it, a write on every backend holding any of it (ROWA),
//! and both enter the **query history** with their measured cost. One
//! catch-up (replay the staleness ledger, else reload from the master
//! copy) readmits a failed or cut-off backend on recovery, on healing
//! and before a **reallocation** — classify the journal, allocate
//! (greedy + memetic), match onto the running layout, move only the
//! fragments that changed — and resilience is configured by value
//! through [`Cdbs::set_resilience`].
//!
//! ```
//! use qcpa_controller::{Cdbs, Request, WriteRequest};
//! use qcpa_core::classify::Granularity;
//! use qcpa_storage::engine::{AggFunc, ScanQuery};
//! use qcpa_storage::schema::{ColumnDef, Schema, TableDef};
//! use qcpa_storage::table::Table;
//! use qcpa_storage::types::{DataType, Value};
//!
//! let mut schema = Schema::new();
//! schema.add_table(TableDef::new(
//!     "item",
//!     vec![
//!         ColumnDef::new("i_id", DataType::I64, 8),
//!         ColumnDef::new("i_price", DataType::F64, 8),
//!     ],
//! ));
//! let mut item = Table::new(schema.table("item").unwrap().clone());
//! for i in 0..100 {
//!     item.append(vec![Value::I64(i), Value::F64(i as f64)]);
//! }
//!
//! // Boot two fully replicated backends and serve a query.
//! let mut cdbs = Cdbs::new(schema, vec![item], 2);
//! let q = Request::Read(ScanQuery::all("item").agg(AggFunc::Count, "i_id"));
//! let out = cdbs.execute(&q).unwrap();
//! assert_eq!(out.backends.len(), 1);
//!
//! // After some history, reallocate to a partial replication.
//! for _ in 0..5 { cdbs.execute(&q).unwrap(); }
//! let report = cdbs.reallocate(2, Granularity::Fragment, None).unwrap();
//! assert!(report.classification.len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdbs;
pub mod layout;
pub mod partition;
pub mod request;
pub mod resilience;

pub use cdbs::{Cdbs, CdbsError, ExecOutcome, ReallocationReport};
pub use layout::{layout_from_allocation, TableLayout};
pub use partition::PartitionScheme;
pub use request::{referenced_columns, Request, WriteKind, WriteRequest};
pub use resilience::ControllerResilience;
