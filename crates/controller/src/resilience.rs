//! Controller-side resilience knobs and per-backend health state.
//!
//! The controller has no clock — its monotone "time" is the request
//! sequence number — so the circuit breaker's cooldown is measured in
//! *requests served*, not seconds. Health is an EWMA of observed
//! per-request cost plus a consecutive-failure counter; the breaker
//! trips after [`ControllerResilience::failure_threshold`] consecutive
//! failures and re-admits the backend after
//! [`ControllerResilience::cooldown_requests`] further requests (a
//! built-in half-open: the first read routed back either closes the
//! breaker on success or re-trips it on failure).
//!
//! Writes to *offline* backends are deferred into a bounded staleness
//! ledger (one per backend, capped at
//! [`ControllerResilience::staleness_cap`] entries); recovery replays
//! the ledger in order instead of bulk-reloading the whole layout,
//! unless the ledger overflowed while the backend was down.

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
    /// EWMA smoothing factor for the per-backend observed request cost
    /// (rows touched); higher reacts faster.
    pub ewma_alpha: f64,
    /// Per-backend cap on deferred writes in the staleness ledger. A
    /// ledger that would exceed the cap overflows: its entries are
    /// discarded and recovery falls back to a full reload from the
    /// master copy.
    pub staleness_cap: usize,
}

impl Default for ControllerResilience {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_requests: 64,
            ewma_alpha: 0.2,
            staleness_cap: 1024,
        }
    }
}

/// Per-backend health: cost EWMA, consecutive failures, breaker state.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackendHealth {
    /// EWMA of observed per-request cost (rows touched); meaningful
    /// only once `seen` is set.
    pub(crate) ewma_cost: f64,
    /// Whether any cost observation has been recorded yet.
    pub(crate) seen: bool,
    /// Consecutive failures since the last success.
    pub(crate) consec_failures: u32,
    /// While `Some(s)` and the controller's request sequence is below
    /// `s`, the breaker is open and routing avoids the backend.
    pub(crate) open_until_seq: Option<u64>,
}

impl BackendHealth {
    /// Folds one cost observation into the EWMA.
    pub(crate) fn observe_cost(&mut self, alpha: f64, cost: f64) {
        if self.seen {
            self.ewma_cost += alpha * (cost - self.ewma_cost);
        } else {
            self.ewma_cost = cost;
            self.seen = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_toward_observations() {
        let mut h = BackendHealth::default();
        h.observe_cost(0.5, 10.0);
        assert_eq!(h.ewma_cost, 10.0);
        h.observe_cost(0.5, 20.0);
        assert!((h.ewma_cost - 15.0).abs() < 1e-12);
        assert!(h.seen);
    }
}
