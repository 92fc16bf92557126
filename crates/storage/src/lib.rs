//! # qcpa-storage
//!
//! An in-memory relational storage engine: the substrate playing the
//! role of the paper's PostgreSQL/MySQL backends.
//!
//! Each CDBS backend hosts a [`engine::BackendStore`] holding the
//! *fragments* the allocation assigned to it — whole tables, vertical
//! (column) fragments, or horizontal (predicate) fragments — and can
//! bulk-load fragment data, execute scans with predicates, projections
//! and aggregates, and apply row updates.
//!
//! The engine is deliberately small but real: data actually lives in
//! typed columnar vectors and is scanned, aggregated, extracted and
//! loaded a column at a time, fragment extraction actually copies
//! bytes, and fragment sizes are byte-accurate — which is what the
//! allocation model (degree of replication, ETL matching costs,
//! allocation duration) depends on.
//!
//! * [`types`] — values and data types;
//! * [`schema`] — column/table definitions with byte widths;
//! * [`table`] — columnar tables: append, selection-vector scans;
//! * [`predicate`] — scan predicates and their reference semantics;
//! * [`fragmentation`] — vertical/horizontal fragments as column vectors;
//! * [`engine`] — the per-backend store and query execution;
//! * [`catalog`] — bridging a schema to the allocation model's
//!   fragment [`qcpa_core::fragment::Catalog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod fragmentation;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod types;

pub use catalog::build_catalog;
pub use engine::{AggFunc, BackendStore, QueryResult, ScanQuery, StorageError};
pub use fragmentation::{extract_horizontal, extract_vertical, FragmentData};
pub use predicate::{CmpOp, Predicate};
pub use schema::{ColumnDef, Schema, TableDef};
pub use table::Table;
pub use types::{DataType, Value};
