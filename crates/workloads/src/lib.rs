//! # qcpa-workloads
//!
//! The evaluation workloads of the paper, rebuilt as generators:
//!
//! * [`mod@tpch`] — a TPC-H-style decision-support workload: the 8-table
//!   warehouse schema (61 columns) with per-scale-factor cardinalities
//!   and byte-accurate row widths, and the 19 read query classes the
//!   paper evaluates (queries 17, 20 and 21 are omitted, as in
//!   Section 4.1);
//! * [`mod@tpcapp`] — a TPC-App-style online-bookseller workload whose
//!   request mix encodes the exact skew figures of Section 4.2:
//!   1 read : 7 writes by count, reads carrying 3× the update work, one
//!   complex read class producing 50 % of the workload from 1.5 % of
//!   the queries, and Order_Line writes at 13 % of the weight;
//! * [`trace`] — a synthetic diurnal web-trace (the e-learning backend
//!   of Section 5): a 24-hour request-rate profile with five query
//!   classes whose mix shifts through the day (class B dominates the
//!   night hours);
//! * [`hpart`] — a horizontally partitioned hot/cold-range scenario
//!   exercising predicate-based classification (Section 3.1);
//! * [`mod@scale`] — clustered co-access instances dialed two orders of
//!   magnitude past the paper's fragment counts, for the multilevel
//!   allocator's scaling bench;
//! * [`common`] — journal → (classification, request-stream) plumbing
//!   shared by all generators.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod common;
pub mod hpart;
pub mod scale;
pub mod tpcapp;
pub mod tpch;
pub mod trace;

pub use common::{classify_and_stream, ClassifiedWorkload};
pub use hpart::{hot_ranges, HPartWorkload};
pub use scale::{clustered, ScaledWorkload};
pub use tpcapp::{tpcapp, tpcapp_large, TpcAppWorkload};
pub use tpch::{tpch, TpchWorkload};
pub use trace::{diurnal, TraceWorkload};
