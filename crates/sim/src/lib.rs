//! # qcpa-sim
//!
//! A discrete-event simulator of the CDBS processing model (Section 2):
//! a controller with one FIFO queue per backend, the
//! *least-pending-request-first* scheduler, and ROWA update fan-out.
//! Queries are atomic — each read runs entirely on one backend holding
//! all its data; each update runs on *every* backend holding any of its
//! data.
//!
//! This substitutes for the paper's physical 16-node cluster running
//! PostgreSQL/MySQL: throughput and speedup are determined by how the
//! allocation spreads query-class work over backends, which is exactly
//! what the simulation computes. Two drivers are provided:
//!
//! * [`engine::run_batch`] — the paper's throughput experiments: a fixed
//!   request batch is pushed through the scheduler; throughput is
//!   `requests / makespan` (Figures 4(a)–(i));
//! * [`engine::run_open`] — open-loop timed arrivals measuring response
//!   times, used by the autonomic-scaling experiments (Section 5).
//!
//! The open-loop model exists as two loops, chosen by entry point:
//! the healthy hot path behind [`engine::run_open`], and one
//! fault-aware loop behind [`resilience::run_open_resilient`] that
//! interleaves a [`fault::FaultPlan`] with the arrivals and layers
//! deadlines, admission control and circuit breaking on top — all inert
//! under [`ResilienceConfig::default`]. [`fault::run_open_faults`] is
//! that loop run with every layer off, reported as a
//! [`fault::FaultReport`]. Both loops are serial, and both route a read
//! by one least-pending key, [`Scheduler::pending_at`].
//!
//! The optional [`service::LocalityModel`] reproduces the caching
//! effect the paper observes: backends storing a smaller share of the
//! database serve queries faster (better cache hit rates, less data to
//! move from disk), which is why partial replication beats full
//! replication even on read-only workloads.
//!
//! Every open-loop driver also has a `*_traced` variant taking
//! `Option<&mut qcpa_obs::Tracer>`: sampled requests are recorded as
//! causal span trees (queueing, per-leg service, retries, breaker and
//! fault transitions) that export to Perfetto via `qcpa_obs::perfetto`.
//! Sampling is deterministic and head-based, so tracing never perturbs
//! the simulated results.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod engine;
pub mod fault;
pub mod request;
pub mod resilience;
pub mod scheduler;
pub mod service;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use engine::{
    run_batch, run_open, run_open_sharded, run_open_traced, BatchReport, OpenReport, SimConfig,
    UpdatePropagation,
};
pub use fault::{
    run_open_faults, run_open_faults_traced, FaultConfig, FaultEvent, FaultInjectionConfig,
    FaultPlan, FaultReport, InvalidFaultPlan, LayeredFaultConfig, RerouteError,
};
pub use request::{Request, RequestStream};
pub use resilience::{
    run_open_resilient, run_open_resilient_traced, OverloadPolicy, ResilienceConfig,
    ResilienceReport,
};
pub use scheduler::{backend_components, Scheduler};
pub use service::{LocalityModel, ServiceProfile};
