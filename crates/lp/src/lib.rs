//! # qcpa-lp
//!
//! A from-scratch linear programming stack and the paper's Appendix-B
//! *optimal allocation* model.
//!
//! * [`simplex`] — dense two-phase primal simplex for LPs in the form
//!   `min c·x, A x {≤,≥,=} b, x ≥ 0`;
//! * [`mip`] — depth-first branch & bound over 0/1 variables on top of
//!   the simplex relaxation, with incumbent warm-starts, node and time
//!   budgets, and a reported optimality gap;
//! * [`model`] — the two-pass Appendix-B formulation: first minimize the
//!   `scale` factor (throughput-optimal, Eq. 38–43), then minimize the
//!   total allocated bytes at that scale (Eq. 44–45).
//!
//! The paper solved this model with a commercial solver and reports that
//! it is only tractable up to seven backends; this crate reproduces that
//! behaviour — small instances solve exactly, larger ones return the
//! best incumbent with a bound (see [`mip::MipStatus`]).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod mip;
pub mod model;
pub mod simplex;

pub use mip::{MipOutcome, MipStatus};
pub use model::{optimal_allocation, OptimalConfig, OptimalOutcome};
pub use simplex::{Constraint, LinearProgram, LpOutcome, Relation};
