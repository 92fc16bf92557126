//! # qcpa-autoscale
//!
//! The autonomic CDBS of Section 5: a controller that watches query
//! response times and elastically grows or shrinks the cluster, paying
//! the real reallocation cost (Hungarian-matched data movement priced
//! by the ETL model) as a temporary backlog.
//!
//! * [`controller`] — the window-by-window scaling loop reproducing the
//!   "active servers vs workload" and "response time with/without
//!   scaling" experiments;
//! * [`segmentation`] — sliding-window workload segmentation and the
//!   merged, change-robust allocation (the Figure 6 treatment of daily
//!   patterns).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod controller;
pub mod segmentation;

pub use controller::{run_day, AutoscaleConfig, WindowRecord};
pub use segmentation::{segment_day, segmented_allocation, Segment};
