//! Per-backend fault and health state, shared by the simulator and the
//! controller: [`Liveness`] and [`Breakers`], a circuit breaker per
//! backend on a monotone `f64` clock (simulated seconds; the request
//! sequence). Which transitions are legal when is the caller's rule.

/// Backend liveness: alive, cut off, gray factor, and the routable count.
#[derive(Debug, Clone)]
pub struct Liveness {
    alive: Vec<bool>,
    cut: Vec<bool>,
    /// The gray-failure factor of a backend inside a window.
    slow: Vec<Option<f64>>,
    routable: usize,
}

impl Liveness {
    /// `n_backends` backends, all alive, reachable and healthy.
    pub fn new(n_backends: usize) -> Self {
        Liveness {
            alive: vec![true; n_backends],
            cut: vec![false; n_backends],
            slow: vec![None; n_backends],
            routable: n_backends,
        }
    }

    /// Whether `b` is alive (not crashed).
    pub fn alive(&self, b: usize) -> bool {
        self.alive[b]
    }

    /// Whether `b` is cut off by a network partition.
    pub fn is_cut(&self, b: usize) -> bool {
        self.cut[b]
    }

    /// Whether `b` is inside a gray-failure window.
    pub fn degraded(&self, b: usize) -> bool {
        self.slow[b].is_some()
    }

    /// Whether new work may be routed to `b`: alive and not cut off.
    #[inline]
    pub fn routable(&self, b: usize) -> bool {
        self.alive[b] && !self.cut[b]
    }

    /// How many backends are routable.
    #[inline]
    pub fn n_routable(&self) -> usize {
        self.routable
    }

    /// The service multiplier of work dispatched to `b` now: the gray
    /// window's factor, or exactly 1 (so healthy runs stay bit-exact).
    #[inline]
    pub fn slow(&self, b: usize) -> f64 {
        self.slow[b].unwrap_or(1.0)
    }

    /// `b` fails. Returns whether it became unroutable.
    pub fn crash(&mut self, b: usize) -> bool {
        self.set(b, false, self.cut[b])
    }

    /// `b` comes back. Returns whether it became routable.
    pub fn recover(&mut self, b: usize) -> bool {
        self.set(b, true, self.cut[b])
    }

    /// A partition cuts `b` off. Returns whether it became unroutable.
    pub fn cut(&mut self, b: usize) -> bool {
        self.set(b, self.alive[b], true)
    }

    /// The partition cutting `b` off heals. Returns whether it became routable.
    pub fn uncut(&mut self, b: usize) -> bool {
        self.set(b, self.alive[b], false)
    }

    /// `b` enters a gray window: its work takes `factor` times as long.
    pub fn degrade(&mut self, b: usize, factor: f64) {
        self.slow[b] = Some(factor);
    }

    /// `b` leaves its gray window.
    pub fn restore(&mut self, b: usize) {
        self.slow[b] = None;
    }

    /// Sets `b`'s flags and the count; true if `b`'s routability flipped.
    fn set(&mut self, b: usize, alive: bool, cut: bool) -> bool {
        let was = self.routable(b);
        (self.alive[b], self.cut[b]) = (alive, cut);
        let now = self.routable(b);
        self.routable = self.routable + usize::from(now) - usize::from(was);
        was != now
    }
}

/// The knobs of [`Breakers`], on the caller's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that open a closed breaker (`0`: never).
    pub failures: u32,
    /// Clock units an open breaker waits before half-opening.
    pub cooldown: f64,
    /// Successful probes that close a half-open breaker (at least 1).
    pub half_open_probes: u32,
    /// Smoothing factor of the service-time EWMA, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// EWMA level that trips a closed breaker (`f64::INFINITY`: never).
    pub slow_trip: f64,
}

/// One backend's breaker state, resolved lazily when next observed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum State {
    #[default]
    Closed,
    Open {
        until: f64,
    },
    HalfOpen {
        probe_end: Option<f64>,
        successes: u32,
    },
}

impl State {
    /// The state due by `t`, if it differs (at most one step is ever
    /// due): an expired cooldown half-opens (a crash holds it open,
    /// `until = ∞`); an ended probe counts a success and may close.
    fn due(self, t: f64, probes: u32) -> Option<State> {
        let successes = match self {
            State::Open { until } if t >= until && until.is_finite() => 0,
            State::HalfOpen {
                probe_end: Some(pe),
                successes,
            } if t >= pe => successes + 1,
            _ => return None,
        };
        Some(if successes >= probes.max(1) {
            State::Closed
        } else {
            State::HalfOpen {
                probe_end: None,
                successes,
            }
        })
    }

    /// Open, or half-open with its one probe in flight.
    fn blocks(self) -> bool {
        matches!(
            self,
            State::Open { .. }
                | State::HalfOpen {
                    probe_end: Some(_),
                    ..
                }
        )
    }
}

/// One backend's health: service-time EWMA, failure streak, breaker.
#[derive(Debug, Clone, Copy, Default)]
struct Health {
    ewma: Option<f64>,
    consec: u32,
    state: State,
}

/// A bank of per-backend circuit breakers. Every method is a no-op, and
/// nothing blocks, while the config is not [`Breakers::enabled`].
#[derive(Debug, Clone)]
pub struct Breakers {
    cfg: BreakerConfig,
    /// The `qcpa_obs` event target transitions are published under.
    target: &'static str,
    health: Vec<Health>,
    /// Transitions to open, to half-open and to closed.
    counts: (usize, usize, usize),
    /// Transition log `(time, backend, name)`, kept while `Some`.
    pub log: Option<Vec<(f64, usize, &'static str)>>,
}

impl Breakers {
    /// `n_backends` closed breakers; transitions are published as
    /// `qcpa_obs` events under `target`.
    pub fn new(n_backends: usize, cfg: BreakerConfig, target: &'static str) -> Self {
        Breakers {
            cfg,
            target,
            health: vec![Health::default(); n_backends],
            counts: (0, 0, 0),
            log: None,
        }
    }

    /// Replaces the knobs; every backend keeps its state.
    pub fn set_config(&mut self, cfg: BreakerConfig) {
        self.cfg = cfg;
    }

    /// Whether the breakers can open at all (else nothing ever blocks).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.failures > 0 || self.cfg.slow_trip.is_finite()
    }

    /// Transitions to open, to half-open and to closed, over all backends.
    pub fn transitions(&self) -> (usize, usize, usize) {
        self.counts
    }

    /// Moves `b` to `next` at `t`, counting, logging and publishing a
    /// new open, a half-open or a close (which ends the failure streak).
    fn enter(&mut self, b: usize, t: f64, next: State) {
        let prev = std::mem::replace(&mut self.health[b].state, next);
        let name = match (prev, next) {
            (State::Open { .. }, State::Open { .. }) => return,
            (_, State::Open { .. }) => {
                self.counts.0 += 1;
                "breaker_open"
            }
            (State::Open { .. }, State::HalfOpen { .. }) => {
                self.counts.1 += 1;
                "breaker_half_open"
            }
            (State::HalfOpen { .. }, State::Closed) => {
                self.health[b].consec = 0;
                self.counts.2 += 1;
                "breaker_close"
            }
            _ => return,
        };
        self.log.iter_mut().for_each(|log| log.push((t, b, name)));
        qcpa_obs::event!(qcpa_obs::Level::Info, self.target, name, {
            "backend" => b,
            "at" => t,
        });
    }

    /// Advances `b`'s breaker to time `t`.
    #[inline]
    pub fn resolve(&mut self, b: usize, t: f64) {
        if !self.enabled() {
            return;
        }
        if let Some(next) = self.health[b].state.due(t, self.cfg.half_open_probes) {
            self.enter(b, t, next);
        }
    }

    /// Whether routing should avoid `b` as of its last [`Breakers::resolve`].
    #[inline]
    pub fn is_blocked(&self, b: usize) -> bool {
        self.enabled() && self.health[b].state.blocks()
    }

    /// Whether routing should avoid `b` at `t`, changing nothing: what
    /// [`Breakers::resolve`]`(b, t)` then [`Breakers::is_blocked`]`(b)`
    /// would say.
    pub fn blocked_at(&self, b: usize, t: f64) -> bool {
        let state = self.health[b].state;
        let state = state.due(t, self.cfg.half_open_probes).unwrap_or(state);
        self.enabled() && state.blocks()
    }

    /// Resolves `b` to `t` and folds `observed` into its EWMA (kept only
    /// while the slow trip can fire); true if the EWMA is past it.
    fn observe(&mut self, b: usize, t: f64, observed: f64) -> bool {
        self.resolve(b, t);
        let (alpha, h) = (self.cfg.ewma_alpha, &mut self.health[b]);
        if self.cfg.slow_trip.is_finite() {
            let ewma = h
                .ewma
                .map_or(observed, |e| alpha * observed + (1.0 - alpha) * e);
            h.ewma = Some(ewma);
        }
        h.ewma.is_some_and(|e| e > self.cfg.slow_trip)
    }

    /// Work dispatched to `b` at `t` succeeds, taking `svc` and ending
    /// at `end`: the failure streak resets, and a half-open breaker
    /// takes it as its probe. A synchronous caller passes `end = t`.
    #[inline]
    pub fn on_dispatch_ok(&mut self, b: usize, t: f64, svc: f64, end: f64) {
        if !self.enabled() {
            return;
        }
        let slow = self.observe(b, t, svc);
        let h = &mut self.health[b];
        h.consec = 0;
        if let State::HalfOpen { probe_end, .. } = &mut h.state {
            probe_end.get_or_insert(end);
        } else if slow && h.state == State::Closed {
            self.trip(b, t, t + self.cfg.cooldown);
        }
    }

    /// Work dispatched to `b` at `t` failed after `observed` clock
    /// units: a half-open breaker re-opens, a closed one opens once the
    /// streak reaches `failures` (or the EWMA passes `slow_trip`).
    #[inline]
    pub fn on_timeout(&mut self, b: usize, t: f64, observed: f64) {
        if !self.enabled() {
            return;
        }
        let slow = self.observe(b, t, observed);
        let (failures, h) = (self.cfg.failures, &mut self.health[b]);
        h.consec = h.consec.saturating_add(1);
        let tripping = match h.state {
            State::HalfOpen { .. } => true,
            State::Closed => (failures > 0 && h.consec >= failures) || slow,
            State::Open { .. } => false,
        };
        if tripping {
            self.trip(b, t, t + self.cfg.cooldown);
        }
    }

    fn trip(&mut self, b: usize, t: f64, until: f64) {
        self.enter(b, t, State::Open { until });
    }

    /// `b` crashed at `t`: its breaker stays open until a reset.
    pub fn on_crash(&mut self, b: usize, t: f64) {
        if self.enabled() {
            self.trip(b, t, f64::INFINITY);
        }
    }

    /// Forgets `b`'s health at `t`: it starts over closed.
    pub fn reset(&mut self, b: usize, t: f64) {
        if self.enabled() && self.health[b].state != State::Closed {
            self.log
                .iter_mut()
                .for_each(|log| log.push((t, b, "breaker_reset")));
        }
        self.health[b] = Health::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: BreakerConfig = BreakerConfig {
        failures: 2,
        cooldown: 3.0,
        half_open_probes: 1,
        ewma_alpha: 0.5,
        slow_trip: f64::INFINITY,
    };

    #[test]
    fn breaker_trips_half_opens_and_closes_on_a_probe() {
        let mut br = Breakers::new(1, CFG, "test");
        br.log = Some(Vec::new());
        br.on_timeout(0, 1.0, 0.0);
        assert!(!br.blocked_at(0, 1.0), "below the threshold");
        br.on_timeout(0, 2.0, 0.0);
        assert!(br.blocked_at(0, 4.9));
        assert!(!br.blocked_at(0, 5.0), "cooldown over: half-open");
        br.on_dispatch_ok(0, 5.0, 0.0, 5.0);
        assert!(!br.blocked_at(0, 5.0), "a synchronous probe closes at once");
        br.resolve(0, 5.0);
        assert_eq!(br.transitions(), (1, 1, 1));
        let names: Vec<&str> = br.log.iter().flatten().map(|&(_, _, n)| n).collect();
        assert_eq!(
            names,
            ["breaker_open", "breaker_half_open", "breaker_close"]
        );
        br.on_crash(0, 6.0);
        assert!(br.blocked_at(0, 1e300), "a crash holds it open");
        br.reset(0, 7.0);
        assert!(!br.is_blocked(0));
    }
}
