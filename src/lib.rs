//! # qcpa — Query Centric Partitioning and Allocation
//!
//! A from-scratch Rust reproduction of *Query Centric Partitioning and
//! Allocation for Partially Replicated Database Systems* (Rabl &
//! Jacobsen, SIGMOD 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — classification, allocation model, greedy and memetic
//!   allocators, k-safety, speedup math (the paper's contribution);
//! * [`lp`] — simplex/branch-and-bound solver and the Appendix-B optimal
//!   allocation model;
//! * [`matching`] — Hungarian method, physical allocation and elastic
//!   scale-out/scale-in matching;
//! * [`storage`] — in-memory relational storage engine used as the
//!   backend substrate;
//! * [`sim`] — discrete-event cluster database simulator (controller,
//!   least-pending-first scheduler, ROWA update fan-out);
//! * [`workloads`] — TPC-H-style / TPC-App-style generators and the
//!   diurnal trace;
//! * [`autoscale`] — autonomic scaling controller and sliding-window
//!   workload segmentation;
//! * [`controller`] — the paper's Figure-3 prototype as a library: a
//!   runnable CDBS that executes requests over partially replicated
//!   backend stores, records the journal, and physically reallocates.
//!
//! See the repository `README.md` for a guided tour and `EXPERIMENTS.md`
//! for the paper-versus-measured record of every figure and table.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use qcpa_autoscale as autoscale;
pub use qcpa_controller as controller;
pub use qcpa_core as core;
pub use qcpa_lp as lp;
pub use qcpa_matching as matching;
pub use qcpa_sim as sim;
pub use qcpa_storage as storage;
pub use qcpa_workloads as workloads;

/// One-stop prelude: the core model types plus the most used entry
/// points of every subsystem.
pub mod prelude {
    pub use qcpa_core::prelude::*;
}
