//! # qcpa-core
//!
//! Core analytical model and allocation algorithms from *Query Centric
//! Partitioning and Allocation for Partially Replicated Database Systems*
//! (Rabl & Jacobsen, SIGMOD 2017).
//!
//! The crate models a **cluster database system** (CDBS): a set of
//! shared-nothing backend databases behind a controller. Queries are atomic
//! units executed entirely by one backend; updates follow the
//! read-once/write-all (ROWA) protocol and must run on *every* backend that
//! stores any fragment they reference.
//!
//! The pipeline mirrors the paper's four-step allocation process:
//!
//! 1. **Classification** ([`classify`]) — group a query [`journal`] into
//!    query classes by the data fragments they reference (Eq. 2–4).
//! 2. **Allocation** ([`greedy`], [`memetic`]) — compute a partial
//!    replication that balances load and minimizes replication
//!    (Eq. 5–16, Algorithms 1 and 2).
//! 3. **Allocation improvement** ([`localsearch`]) — the two local-search
//!    strategies (Eq. 21–26) used by the memetic optimizer.
//! 4. **Physical allocation** — cost-optimal matching lives in the
//!    companion crate `qcpa-matching`.
//!
//! Extensions: [`ksafety`] (Appendix C), [`robust`] (Section 5 robustness
//! headroom), and the closed-form [`speedup`] model (Eq. 1, 17–19).
//!
//! ## Quick example
//!
//! ```
//! use qcpa_core::prelude::*;
//!
//! // The running example of Section 3: relations A, B, C and four
//! // read-only query classes with weights 30/25/25/20 %.
//! let mut catalog = Catalog::new();
//! let a = catalog.add_table("A", 100);
//! let b = catalog.add_table("B", 100);
//! let c = catalog.add_table("C", 100);
//!
//! let classes = vec![
//!     QueryClass::read(0, [a], 0.30),
//!     QueryClass::read(1, [b], 0.25),
//!     QueryClass::read(2, [c], 0.25),
//!     QueryClass::read(3, [a, b], 0.20),
//! ];
//! let cls = Classification::from_classes(classes).unwrap();
//! let cluster = ClusterSpec::homogeneous(2);
//!
//! let alloc = greedy::allocate(&cls, &catalog, &cluster);
//! alloc.validate(&cls, &cluster).unwrap();
//! assert!((alloc.speedup(&cluster) - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod allocation;
pub mod classify;
pub mod cluster;
pub mod coarsen;
pub mod error;
pub mod fragment;
pub mod greedy;
pub mod journal;
pub mod ksafety;
pub mod localsearch;
pub mod memetic;
pub mod random;
pub mod robust;
pub mod speedup;

/// Numeric tolerance used for all load/weight comparisons.
///
/// Weights are fractions of the total workload in `[0, 1]`; the model is a
/// continuous relaxation, so a single epsilon suffices throughout.
pub const EPS: f64 = 1e-9;

/// `a` and `b` are equal within tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Weight-sum tolerance, looser than [`EPS`]: weights and assignments
/// are sums and quotients of many floating point shares.
fn approx_eq_loose(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6
}

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::allocation::{AllocCost, Allocation, DeltaCost, DeltaUndo};
    pub use crate::classify::{Classification, Granularity, QueryClass};
    pub use crate::cluster::{BackendSpec, ClusterSpec};
    pub use crate::coarsen::{CoarsenConfig, MultilevelOutcome};
    pub use crate::error::{ClassificationError, InvalidAllocation};
    pub use crate::fragment::{Catalog, FragSet, Fragment, FragmentId, FragmentKind};
    pub use crate::journal::{Journal, Query, QueryKind};
    pub use crate::{greedy, ksafety, memetic, random, robust, speedup};
    pub use crate::{BackendId, ClassId};
}

/// Identifier of a query class within a [`classify::Classification`].
///
/// Class ids are dense indices: the class with id `k` is
/// `classification.classes[k]`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The class id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a backend within a [`cluster::ClusterSpec`].
///
/// Backend ids are dense indices into the cluster's backend list.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct BackendId(pub u32);

impl BackendId {
    /// The backend id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}
