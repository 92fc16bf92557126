//! Controller-side resilience knobs. The circuit breaker is the core
//! machine ([`qcpa_core::health::Breakers`]) on the controller's only
//! clock, its request sequence number; writes an unroutable backend
//! misses wait in a bounded staleness ledger until it catches up.

use qcpa_core::health::BreakerConfig;

/// Tuning knobs for the controller's resilience runtime, handed to
/// [`crate::Cdbs::set_resilience`]; a controller starts from the
/// defaults.
#[derive(Debug, Clone)]
pub struct ControllerResilience {
    /// Consecutive backend failures that trip its circuit breaker.
    /// `0` disables the breaker entirely.
    pub failure_threshold: u32,
    /// How long a tripped breaker stays open, measured in controller
    /// requests (the controller's monotone clock).
    pub cooldown_requests: u64,
    /// Per-backend cap on deferred writes in the staleness ledger. A
    /// ledger that would exceed the cap overflows: its entries are
    /// discarded and the catch-up falls back to a full reload from the
    /// master copy.
    pub staleness_cap: usize,
}

impl Default for ControllerResilience {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_requests: 64,
            staleness_cap: 1024,
        }
    }
}

impl ControllerResilience {
    /// The breaker knobs on the request clock: one synchronous probe
    /// closes a half-open breaker, and nothing trips on slowness (the
    /// EWMA is then unused).
    pub fn breaker(&self) -> BreakerConfig {
        BreakerConfig {
            failures: self.failure_threshold,
            cooldown: self.cooldown_requests.max(1) as f64,
            half_open_probes: 1,
            ewma_alpha: 1.0,
            slow_trip: f64::INFINITY,
        }
    }
}
