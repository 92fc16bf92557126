//! # qcpa-matching
//!
//! Physical allocation by cost-optimal matching (Section 3.4) and the
//! elastic-scaling / allocation-merging extensions (Section 5).
//!
//! A newly computed allocation says *what* each backend should store but
//! not *which physical node* should play which role. Matching the new
//! allocation's backends onto the existing ones minimizes the bytes that
//! must be extracted, transferred and loaded (an ETL process). The
//! problem is the classic assignment problem, solved exactly in `O(n³)`
//! with the [`mod@hungarian`] method.
//!
//! * [`mod@hungarian`] — minimum-cost perfect matching on a square cost
//!   matrix;
//! * [`physical`] — the Eq. 27 move-cost model, allocation matching and
//!   the ETL duration estimate used for the Figure 4(d) experiment;
//! * [`elastic`] — scale-out and scale-in by padding with empty virtual
//!   backends (Section 5);
//! * [`merge`] — merging per-segment allocations of a time-varying
//!   workload into one robust allocation (Section 5).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod elastic;
pub mod hungarian;
pub mod merge;
pub mod physical;

pub use elastic::{scale_in, scale_out};
pub use hungarian::hungarian;
pub use merge::merge_allocations;
pub use physical::{match_allocations, move_cost, transfer_plan, EtlCostModel, TransferPlan};
