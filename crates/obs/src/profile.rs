//! Scoped phase accounting for the allocator's generation loop.
//!
//! A [`PhaseProfile`] maps phase names to `(calls, work, secs)`
//! aggregates. It is built to answer one question precisely: *where
//! does the memetic allocator's wall time go*, with enough attribution
//! (≥95% of the optimize call) to name every phase that matters.
//!
//! Two kinds of phases by convention:
//!
//! * `driver.*` — phases timed one after another. They tile the
//!   optimize call, so their sum is the attributed wall time
//!   ([`PhaseProfile::attributed_secs`]).
//! * `task.*` — phases timed inside one `driver.*` phase (mutation,
//!   local search), breaking it down.
//!
//! Determinism: `calls` and `work` counts are pure functions of the
//! run's inputs; `secs` are wall-clock measurements and are not. The
//! [`PhaseProfile::fingerprint`] therefore folds only the deterministic
//! fields — that is what the conformance harness pins across reruns.
//!
//! Wall-clock note: `Instant::now` lives here, inside `qcpa-obs`, under
//! reasoned `#[expect(clippy::disallowed_methods)]`s; deterministic
//! crates call [`PhaseProfile::time`] and never touch the clock
//! themselves.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Aggregate for one named phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStat {
    /// Number of times the phase ran.
    pub calls: u64,
    /// Phase-defined work units (mutations applied, probes evaluated,
    /// offspring built, ...). Deterministic.
    pub work: u64,
    /// Wall-clock seconds spent in the phase. Not deterministic.
    pub secs: f64,
}

/// Named phase aggregates with deterministic merge order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseProfile {
    phases: BTreeMap<&'static str, PhaseStat>,
}

impl PhaseProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one phase execution: `secs` of wall time, `work` units.
    pub fn record(&mut self, phase: &'static str, secs: f64, work: u64) {
        let s = self.phases.entry(phase).or_default();
        s.calls += 1;
        s.work += work;
        s.secs += secs;
    }

    /// Adds work units to a phase without a timed call (for counters
    /// accumulated inside an already-timed region).
    pub fn add_work(&mut self, phase: &'static str, work: u64) {
        self.phases.entry(phase).or_default().work += work;
    }

    /// Times `f` under `phase` (one call, `work` units).
    #[expect(
        clippy::disallowed_methods,
        reason = "phase profiling measures host time by design"
    )]
    pub fn time<T>(&mut self, phase: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(phase, t0.elapsed().as_secs_f64(), work);
        out
    }

    /// Starts a clock for a phase timed across non-lexical scopes;
    /// finish with [`PhaseProfile::stop`].
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "phase profiling measures host time by design"
    )]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Records the time since `t0` (from [`PhaseProfile::start`]).
    pub fn stop(&mut self, phase: &'static str, t0: Instant, work: u64) {
        self.record(phase, t0.elapsed().as_secs_f64(), work);
    }

    /// The aggregate for `phase`, if recorded.
    #[must_use]
    pub fn get(&self, phase: &str) -> Option<PhaseStat> {
        self.phases.get(phase).copied()
    }

    /// Iterates phases in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, PhaseStat)> + '_ {
        self.phases.iter().map(|(k, v)| (*k, *v))
    }

    /// Seconds summed over phases whose name starts with `prefix`.
    #[must_use]
    pub fn secs_with_prefix(&self, prefix: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.secs)
            .sum()
    }

    /// Wall time attributed to named driver phases: the sum over
    /// `driver.*`. Divide by the measured wall time of the optimize
    /// call to get the attribution fraction the bench asserts ≥ 0.95.
    #[must_use]
    pub fn attributed_secs(&self) -> f64 {
        self.secs_with_prefix("driver.")
    }

    /// Deterministic digest: phase names with `calls` and `work`, in
    /// name order, excluding wall-clock seconds. Bit-identical across
    /// reruns for the same inputs.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.phases {
            let _ = writeln!(out, "{name} calls={} work={}", s.calls, s.work);
        }
        out
    }

    /// Human-readable table: phase, calls, work, secs, and share of the
    /// `driver.*` total.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.attributed_secs().max(f64::MIN_POSITIVE);
        let mut out =
            String::from("phase                          calls       work      secs    %drv\n");
        for (name, s) in &self.phases {
            let pct = if name.starts_with("driver.") {
                s.secs / total * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<30} {:>6} {:>10} {:>9.4} {:>6.1}",
                s.calls, s.work, s.secs, pct
            );
        }
        out
    }

    /// True when no phase has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_time_aggregate() {
        let mut p = PhaseProfile::new();
        let out = p.time("driver.selection", 3, || 40 + 2);
        assert_eq!(out, 42);
        p.record("driver.selection", 0.5, 2);
        p.add_work("driver.selection", 1);
        p.record("task.mutation", 0.25, 10);

        let sel = p.get("driver.selection").unwrap();
        assert_eq!(sel.calls, 2);
        assert_eq!(sel.work, 6);
        assert!(sel.secs >= 0.5);
        assert_eq!(p.get("task.mutation").unwrap().work, 10);
        assert!(p.attributed_secs() >= 0.5);
        assert_eq!(p.secs_with_prefix("task."), 0.25);
    }

    #[test]
    fn fingerprint_skips_secs() {
        let mut a = PhaseProfile::new();
        a.record("driver.selection", 0.1, 5);
        let mut b = PhaseProfile::new();
        b.record("driver.selection", 9.9, 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record("driver.selection", 0.0, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().contains("driver.selection calls=1 work=5"));
    }

    #[test]
    fn render_lists_every_phase() {
        let mut p = PhaseProfile::new();
        p.record("driver.fanout", 1.0, 0);
        p.record("task.localsearch", 0.8, 12);
        let table = p.render();
        assert!(table.contains("driver.fanout"));
        assert!(table.contains("task.localsearch"));
    }
}
