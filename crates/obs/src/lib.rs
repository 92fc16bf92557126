#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # qcpa-obs — observability for the QCPA workspace
//!
//! Zero-dependency (std-only) tracing and metrics, cheap enough to stay
//! enabled inside the simulator's hot loops and the allocator search:
//!
//! * [`metrics`] — a global [`metrics::Registry`] of counters, gauges,
//!   log-scale [`metrics::Histogram`]s (p50/p95/p99/max snapshots), and
//!   append-only series for convergence traces (e.g. per-generation
//!   memetic fitness). Hot paths record into local histograms and merge
//!   them into the registry once per run.
//! * [`trace`] — scoped [`trace::SpanGuard`] timers and a structured
//!   [`trace::Event`] stream (`ts`/`target`/`name`/`fields`) behind a
//!   `QCPA_LOG`-style level/target filter. When a target is filtered
//!   out, the [`event!`] macro is a single relaxed atomic load: no
//!   allocation, no field evaluation.
//! * [`export`] — JSON and CSV renderings of a registry snapshot; the
//!   bench harness uses [`export::write_metrics_json`] to drop a
//!   `metrics.json` sidecar next to every CSV in `results/`.
//! * [`tracetree`] — causal per-request span trees with span ids
//!   derived from `(seed, request, attempt)` and deterministic
//!   head-based sampling (`QCPA_TRACE_SAMPLE`); bit-identical across
//!   reruns.
//! * [`profile`] — scoped phase accounting ([`profile::PhaseProfile`])
//!   for the memetic generation loop: calls/work/secs per named phase
//!   and deterministic fingerprints.
//! * [`perfetto`] — Chrome trace-event JSON (Perfetto-loadable) and
//!   folded-stacks exporters for trees and profiles.
//!
//! ## Enabling the event stream
//!
//! ```text
//! QCPA_LOG=info                  # every target at info or louder
//! QCPA_LOG=debug                 # every target at debug or louder
//! QCPA_LOG=sim=debug,controller=trace
//! QCPA_LOG=off                   # (default) fast no-op path
//! ```
//!
//! Programs can also call [`trace::set_filter`] programmatically (the
//! fig4 experiment binaries do, so their `metrics.json` sidecars are
//! populated without any environment setup).

pub mod export;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod trace;
pub mod tracetree;

pub use metrics::{global, Histogram, Registry, Snapshot};
pub use profile::{PhaseProfile, PhaseStat};
pub use trace::{set_filter, span, Event, Level};
pub use tracetree::{span_id, ArgValue, Sampler, SpanRef, TraceTree, Tracer};
