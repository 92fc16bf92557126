//! The fault-aware open loop: arrivals interleaved with a
//! [`FaultPlan`], plus deadlines, deterministic retry/backoff,
//! admission control, circuit breaking, and degraded-mode routing.
//!
//! There is one such loop (`resilient_core`). It applies the plan's
//! events (crash voiding and re-dispatch, recovery catch-up, gray
//! windows, partitions, online repair — semantics in [`crate::fault`])
//! and layers on top the failure handling a production CDBS controller
//! needs (Section 6's architecture assumes backends come and go while
//! the controller keeps serving):
//!
//! * **Deadlines** — a read leg whose completion would exceed
//!   `dispatch time + deadline` is cancelled *at the deadline*: the work
//!   performed up to the deadline stays charged to the backend, the
//!   remainder is refunded (the same discipline as crash voiding), and
//!   the request retries with capped exponential backoff plus
//!   deterministic seeded jitter (a ChaCha8 stream keyed on request id
//!   and attempt number, so schedules are bit-identical across
//!   reruns). A request that exhausts its retry budget
//!   is reported *timed out*, never silently dropped.
//! * **Admission control** — per-backend pending queues are bounded by
//!   `queue_cap`; an arriving read that would overflow the bound is
//!   handled by the configured [`OverloadPolicy`]. Update legs are
//!   replication duty (ROWA correctness requires them on every
//!   overlapping replica), so they occupy queue slots but are never
//!   shed and carry no deadline — the staleness story for unreachable
//!   replicas lives in `qcpa-controller`'s deferred-write ledger.
//! * **Circuit breaking** — per-backend health (an EWMA of observed leg
//!   service times plus a consecutive-failure counter) feeds a breaker
//!   consulted by [`Scheduler::route_read_filtered`]. After a
//!   deterministic cooldown the breaker half-opens and admits one probe
//!   at a time; `half_open_probes` consecutive successes close it.
//! * **Degraded-mode routing** — when every allocation-preferred
//!   replica of a class is open-circuit, reads fall back to any capable
//!   replica (the fragment-covering superset), preferring backends with
//!   spare capacity under [`qcpa_core::robust::spare_room`]; if even
//!   the fallback set is empty the breaker is overridden rather than
//!   failing the request — shedding is the admission policy's job, not
//!   the breaker's.
//!
//! Every layer is inert under [`ResilienceConfig::default`] (infinite
//! deadline, no retries, unbounded queues, breaker off): that run *is*
//! [`crate::fault::run_open_faults`], which projects it onto a
//! [`crate::fault::FaultReport`]. `tests/sim_equivalence.rs` pins the
//! projection to recorded golden reports.
//!
//! Every request ends in exactly one terminal state and the engine
//! guarantees the conservation law
//! `completed + shed + timed_out + lost == offered` with `lost == 0`
//! under any valid fault plan (`lost` exists only to make a violation
//! visible instead of silent).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::QueryKind;
use qcpa_core::{robust, ClassId, EPS};
use qcpa_obs::trace::FieldValue;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::engine::{nearest_rank, SimConfig, UpdatePropagation};
use crate::fault::{reroute, FaultConfig, FaultEvent, FaultPlan, FaultStats};
use crate::request::Request;
use crate::scheduler::Scheduler;
use crate::service::ServiceProfile;

/// What to do with a read that would overflow a backend's bounded
/// pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Shed the incoming request.
    Reject,
    /// Evict the lowest-weight *queued, not-yet-started* read if the
    /// incoming class outweighs it (its reserved work is refunded and
    /// the victim is reported shed); otherwise shed the incoming
    /// request. Weight is the paper's class workload share, so heavy
    /// classes displace light ones under overload.
    ShedLowestWeight,
    /// Admit past the bound with service discounted by
    /// `brownout_discount` (a degraded, cheaper answer); shed outright
    /// only past twice the bound.
    Brownout,
}

impl OverloadPolicy {
    /// Stable lower-case name (CSV/metrics label).
    pub fn name(&self) -> &'static str {
        match self {
            OverloadPolicy::Reject => "reject",
            OverloadPolicy::ShedLowestWeight => "shed_lowest_weight",
            OverloadPolicy::Brownout => "brownout",
        }
    }
}

/// Knobs for [`run_open_resilient`]. [`Default`] disables every
/// mechanism (infinite deadline, no retries, unbounded queues, breaker
/// off) — the configuration [`crate::fault::run_open_faults`] runs;
/// [`ResilienceConfig::standard`] is an active preset; callers set
/// fields on either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Per-attempt deadline in seconds, measured from the dispatch of
    /// the attempt. `f64::INFINITY` disables timeouts.
    pub deadline: f64,
    /// Retry budget per request (timeout- or unroutable-triggered;
    /// crash re-dispatches are budget-free).
    pub max_retries: u32,
    /// Base backoff delay in seconds for the first retry.
    pub backoff_base: f64,
    /// Upper bound on the exponential backoff delay, before jitter.
    pub backoff_cap: f64,
    /// Jitter fraction: the capped delay is stretched by a factor
    /// uniform in `[1, 1 + jitter)`, drawn from a ChaCha8 stream keyed
    /// on `(seed, request id, attempt)` — fully deterministic.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Bound on each backend's pending queue (entries still running or
    /// waiting). `0` means unbounded (admission control off).
    pub queue_cap: usize,
    /// Policy applied when a read would overflow `queue_cap`.
    pub overload: OverloadPolicy,
    /// Service multiplier for browned-out admissions, in `(0, 1]`.
    pub brownout_discount: f64,
    /// Consecutive failures that trip a backend's breaker open. `0`
    /// disables the breaker entirely (unless `slow_trip` is finite).
    pub breaker_failures: u32,
    /// Seconds an open breaker waits before half-opening for probes.
    pub breaker_cooldown: f64,
    /// Consecutive successful probes required to close a half-open
    /// breaker (clamped to at least 1).
    pub half_open_probes: u32,
    /// Smoothing factor of the per-backend service-time EWMA, in
    /// `(0, 1]`.
    pub ewma_alpha: f64,
    /// EWMA level (seconds) that trips the breaker even without
    /// consecutive failures — the latency-based trip wire.
    /// `f64::INFINITY` disables it.
    pub slow_trip: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            deadline: f64::INFINITY,
            max_retries: 0,
            backoff_base: 0.1,
            backoff_cap: 2.0,
            jitter: 0.0,
            seed: 0,
            queue_cap: 0,
            overload: OverloadPolicy::Reject,
            brownout_discount: 0.5,
            breaker_failures: 0,
            breaker_cooldown: 5.0,
            half_open_probes: 2,
            ewma_alpha: 0.2,
            slow_trip: f64::INFINITY,
        }
    }
}

impl ResilienceConfig {
    /// An active preset: 5 s deadlines, 3 retries with 0.25 s → 4 s
    /// backoff and 25 % jitter, 64-deep queues with `Reject`, breaker
    /// tripping after 5 consecutive failures with a 5 s cooldown.
    pub fn standard() -> Self {
        Self {
            deadline: 5.0,
            max_retries: 3,
            backoff_base: 0.25,
            backoff_cap: 4.0,
            jitter: 0.25,
            seed: 0x51C4,
            queue_cap: 64,
            overload: OverloadPolicy::Reject,
            brownout_discount: 0.5,
            breaker_failures: 5,
            breaker_cooldown: 5.0,
            half_open_probes: 2,
            ewma_alpha: 0.2,
            slow_trip: f64::INFINITY,
        }
    }

    /// Whether the circuit breaker participates in routing.
    pub fn breaker_enabled(&self) -> bool {
        self.breaker_failures > 0 || self.slow_trip.is_finite()
    }

    /// The backoff delay (seconds) before retry `attempt` (1-based) of
    /// request `req_id`: `min(base · 2^(attempt−1), cap)` stretched by
    /// the deterministic jitter factor. Pure — the conformance suite
    /// replays it to pin the schedule.
    pub fn backoff(&self, req_id: u64, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(30);
        let capped = (self.backoff_base * f64::from(1u32 << exp)).min(self.backoff_cap);
        if self.jitter <= 0.0 {
            return capped;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, req_id, u64::from(attempt)));
        capped * (1.0 + self.jitter * rng.gen_range(0.0..1.0))
    }

    fn validate(&self) {
        assert!(self.deadline > 0.0, "deadline must be positive");
        assert!(
            self.backoff_base >= 0.0 && self.backoff_cap >= 0.0 && self.jitter >= 0.0,
            "backoff knobs must be non-negative"
        );
        assert!(
            self.brownout_discount > 0.0 && self.brownout_discount <= 1.0,
            "brownout_discount must be in (0, 1]"
        );
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "ewma_alpha must be in (0, 1]"
        );
        assert!(
            self.breaker_cooldown >= 0.0,
            "breaker_cooldown must be non-negative"
        );
    }
}

/// SplitMix64-style avalanche keying the jitter stream on
/// `(seed, request, attempt)` — stable across platforms and thread
/// counts.
pub(crate) fn mix(seed: u64, req: u64, attempt: u64) -> u64 {
    let mut z = seed
        ^ req.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Breaker state of one backend. Transitions are stamped eagerly with
/// times (the analytic engine has no completion callbacks) and resolved
/// lazily whenever the backend is next observed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BState {
    Closed,
    Open {
        until: f64,
    },
    HalfOpen {
        probe_end: Option<f64>,
        successes: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Health {
    ewma: f64,
    seen: bool,
    consec: u32,
    state: BState,
}

impl Health {
    fn fresh() -> Self {
        Health {
            ewma: 0.0,
            seen: false,
            consec: 0,
            state: BState::Closed,
        }
    }
}

/// Per-backend health + breaker bank. All methods are no-ops when the
/// breaker is disabled by config.
struct Breakers {
    cfg: ResilienceConfig,
    health: Vec<Health>,
    /// Transition counters per backend, summed for the report.
    opens: Vec<usize>,
    half_opens: Vec<usize>,
    closes: Vec<usize>,
    /// Transition log `(time, backend, name)` drained into the tracer
    /// at the end of a traced run; stays empty unless `log_enabled`.
    log: Vec<(f64, usize, &'static str)>,
    log_enabled: bool,
}

impl Breakers {
    fn new(n: usize, cfg: &ResilienceConfig) -> Self {
        Breakers {
            cfg: *cfg,
            health: vec![Health::fresh(); n],
            opens: vec![0; n],
            half_opens: vec![0; n],
            closes: vec![0; n],
            log: Vec::new(),
            log_enabled: false,
        }
    }

    fn enabled(&self) -> bool {
        self.cfg.breaker_enabled()
    }

    fn note(&mut self, t: f64, b: usize, name: &'static str) {
        if self.log_enabled {
            self.log.push((t, b, name));
        }
    }

    /// Advances `b`'s state machine to time `t`: an expired cooldown
    /// half-opens the breaker; a probe whose leg has finished counts as
    /// a success and may close it.
    fn resolve(&mut self, b: usize, t: f64) {
        if !self.enabled() {
            return;
        }
        loop {
            let h = &mut self.health[b];
            match h.state {
                BState::Open { until } if t >= until && until.is_finite() => {
                    h.state = BState::HalfOpen {
                        probe_end: None,
                        successes: 0,
                    };
                    self.half_opens[b] += 1;
                    self.note(t, b, "breaker_half_open");
                    qcpa_obs::event!(qcpa_obs::Level::Debug, "sim.resilience", "breaker_half_open", {
                        "backend" => b,
                        "at" => t,
                    });
                }
                BState::HalfOpen {
                    probe_end: Some(pe),
                    successes,
                } if t >= pe => {
                    let s = successes + 1;
                    if s >= self.cfg.half_open_probes.max(1) {
                        h.state = BState::Closed;
                        h.consec = 0;
                        self.closes[b] += 1;
                        self.note(t, b, "breaker_close");
                        qcpa_obs::event!(qcpa_obs::Level::Info, "sim.resilience", "breaker_close", {
                            "backend" => b,
                            "at" => t,
                        });
                    } else {
                        h.state = BState::HalfOpen {
                            probe_end: None,
                            successes: s,
                        };
                    }
                }
                _ => break,
            }
        }
    }

    /// Whether routing should avoid `b` right now (call
    /// [`Self::resolve`] first). Half-open admits one probe at a time.
    fn is_blocked(&self, b: usize) -> bool {
        if !self.enabled() {
            return false;
        }
        match self.health[b].state {
            BState::Closed => false,
            BState::Open { .. } => true,
            BState::HalfOpen { probe_end, .. } => probe_end.is_some(),
        }
    }

    fn record(&mut self, b: usize, observed: f64) {
        let h = &mut self.health[b];
        if h.seen {
            h.ewma = self.cfg.ewma_alpha * observed + (1.0 - self.cfg.ewma_alpha) * h.ewma;
        } else {
            h.ewma = observed;
            h.seen = true;
        }
    }

    fn trip(&mut self, b: usize, t: f64) {
        let until = t + self.cfg.breaker_cooldown;
        if !matches!(self.health[b].state, BState::Open { .. }) {
            self.opens[b] += 1;
            self.note(t, b, "breaker_open");
        }
        self.health[b].state = BState::Open { until };
        qcpa_obs::event!(qcpa_obs::Level::Info, "sim.resilience", "breaker_open", {
            "backend" => b,
            "at" => t,
            "until" => until,
        });
    }

    /// A leg dispatched at `t` will finish by `end` within its
    /// deadline. Consecutive failures reset at dispatch time (the
    /// engine resolves outcomes at dispatch, so this is the natural —
    /// and documented — observation point); a half-open breaker records
    /// the leg as its in-flight probe.
    fn on_dispatch_ok(&mut self, b: usize, t: f64, svc: f64, end: f64) {
        if !self.enabled() {
            return;
        }
        self.resolve(b, t);
        self.record(b, svc);
        let h = &mut self.health[b];
        h.consec = 0;
        if let BState::HalfOpen {
            probe_end: None,
            successes,
        } = h.state
        {
            h.state = BState::HalfOpen {
                probe_end: Some(end),
                successes,
            };
        }
        if matches!(self.health[b].state, BState::Closed)
            && self.health[b].ewma > self.cfg.slow_trip
        {
            self.trip(b, t);
        }
    }

    /// A leg dispatched at `t` was cancelled by its deadline after
    /// `observed` seconds of occupancy.
    fn on_timeout(&mut self, b: usize, t: f64, observed: f64) {
        if !self.enabled() {
            return;
        }
        self.resolve(b, t);
        self.record(b, observed);
        let h = &mut self.health[b];
        h.consec += 1;
        let tripping = match h.state {
            BState::HalfOpen { .. } => true,
            BState::Closed => {
                (self.cfg.breaker_failures > 0 && h.consec >= self.cfg.breaker_failures)
                    || h.ewma > self.cfg.slow_trip
            }
            BState::Open { .. } => false,
        };
        if tripping {
            self.trip(b, t);
        }
    }

    /// A crash holds the breaker open until recovery.
    fn on_crash(&mut self, b: usize, at: f64) {
        if !self.enabled() {
            return;
        }
        if !matches!(self.health[b].state, BState::Open { .. }) {
            self.opens[b] += 1;
            self.note(at, b, "breaker_open");
        }
        self.health[b].state = BState::Open {
            until: f64::INFINITY,
        };
    }

    /// Recovery resets health entirely — the catch-up pause already
    /// models the rejoin cost.
    fn on_recover(&mut self, b: usize, at: f64) {
        if self.enabled() && !matches!(self.health[b].state, BState::Closed) {
            self.note(at, b, "breaker_reset");
        }
        self.health[b] = Health::fresh();
    }
}

/// One per-backend work unit of a traced request, kept only so its span
/// tree can be drawn at the end of the run.
#[derive(Debug, Clone, Copy)]
struct RLeg {
    /// Backend the leg ran on (the export track).
    backend: usize,
    end: f64,
    svc: f64,
    /// Voided by a crash or a shed (work after it refunded).
    voided: bool,
    /// Cancelled by its deadline (never completes the request).
    cancelled: bool,
}

/// What a leg is to its request. Reads and ROWA updates complete on the
/// latest end over their live legs, other propagation modes on the
/// primary leg; a request is re-dispatched once no leg that could
/// complete it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A read leg that runs to completion — the only leg of a read that
    /// can be live, and the only kind [`OverloadPolicy::ShedLowestWeight`]
    /// may evict.
    Read,
    /// A read leg cancelled by its deadline: it completes nothing.
    Cancelled,
    /// The primary leg of a primary-copy or lazy update. Only the
    /// latest dispatch's primary can be live.
    Primary,
    /// A non-primary leg of a primary-copy or lazy update: replication
    /// duty that completes nothing.
    Duty,
    /// A ROWA update leg. A ROWA update is re-dispatched only once all
    /// its live legs are voided, so its live legs all belong to its
    /// latest dispatch.
    Rowa,
}

impl Role {
    /// Whether the leg, while live, counts toward completing its request.
    fn completes(self) -> bool {
        matches!(self, Role::Read | Role::Primary | Role::Rowa)
    }
}

/// Terminal classification of a request; `Pending` resolves to
/// completed (or, impossibly, lost) in the final scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    Shed,
    TimedOut,
}

/// Per-request state. A leg neither voided nor cancelled is *live*; of a
/// request's legs only the live ones whose [`Role::completes`] matter,
/// and a finished leg stays live for good (a crash at `at` voids only
/// legs ending after `at`, and events replay in time order).
#[derive(Debug, Clone, Copy)]
struct RReq {
    arrival: f64,
    service: f64,
    /// Latest end over the live completing legs; `-∞` when there is none.
    end: f64,
    /// Latest end over the live ROWA legs that have left the pending
    /// queues — the part of `end` no queue holds any more.
    done: f64,
    class: ClassId,
    /// Live completing legs.
    live: u32,
    attempts: u32,
    kind: QueryKind,
    retry_pending: bool,
    outcome: Outcome,
    /// Admitted by the tracer: its legs are kept in
    /// [`Engine::traced`].
    traced: bool,
}

impl RReq {
    /// Completion time under the response rule of
    /// [`crate::engine::run_open`]; `None` if no live leg completes the
    /// request.
    fn completion(&self) -> Option<f64> {
        (self.live > 0).then_some(self.end)
    }
}

/// Entry of a backend's bounded pending queue, in non-decreasing `end`
/// order (per-backend dispatch times are monotone; shed victims leave
/// capacity holes rather than compacting the schedule, mirroring crash
/// voiding). It is the only record of a leg in flight.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    end: f64,
    start: f64,
    /// Work booked for the leg.
    svc: f64,
    req: u32,
    role: Role,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct Tally {
    retries: usize,
    timeouts: usize,
    shed: usize,
    shed_victims: usize,
    browned_out: usize,
    timed_out: usize,
    pub(crate) redispatched: usize,
    degraded_fallbacks: usize,
    breaker_overrides: usize,
    unroutable: usize,
}

/// Result of [`run_open_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// `(arrival, response)` per completed request, in arrival order.
    pub responses: Vec<(f64, f64)>,
    /// Mean response time of completed requests, seconds.
    pub mean_response: f64,
    /// 95th percentile response time (nearest-rank).
    pub p95_response: f64,
    /// 99th percentile response time (nearest-rank).
    pub p99_response: f64,
    /// Per-backend busy seconds — work actually performed (voided and
    /// cancelled remainders refunded).
    pub busy: Vec<f64>,
    /// Per-backend utilization over the observation window.
    pub utilization: Vec<f64>,
    /// Requests offered to the system.
    pub offered: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed by admission control (incoming rejections plus
    /// evicted victims).
    pub shed: usize,
    /// Requests that exhausted their deadline/retry budget (includes
    /// requests that were unroutable with an exhausted budget).
    pub timed_out: usize,
    /// Requests in no terminal state — always 0; a nonzero value means
    /// the conservation law was violated.
    pub lost: usize,
    /// Completed requests per class (indexed by class id) — the
    /// policy-facing view of who got served under overload.
    pub per_class_completed: Vec<usize>,
    /// Retries scheduled (each also fires).
    pub retries: usize,
    /// Legs cancelled by their deadline.
    pub timeouts: usize,
    /// Queued victims evicted by [`OverloadPolicy::ShedLowestWeight`]
    /// (a subset of `shed`).
    pub shed_victims: usize,
    /// Reads admitted past the bound with discounted service under
    /// [`OverloadPolicy::Brownout`].
    pub browned_out: usize,
    /// Budget-free crash re-dispatches.
    pub redispatched: usize,
    /// Breaker transitions to open.
    pub breaker_opens: usize,
    /// Breaker transitions to half-open.
    pub breaker_half_opens: usize,
    /// Breaker transitions back to closed.
    pub breaker_closes: usize,
    /// Reads served by a capable non-preferred replica because every
    /// preferred replica was open-circuit.
    pub degraded_fallbacks: usize,
    /// Reads that overrode an open breaker because no alternative
    /// existed (served rather than dropped).
    pub breaker_overrides: usize,
    /// Dispatch attempts that found no capable backend.
    pub unroutable: usize,
    /// Crash events applied.
    pub crashes: usize,
    /// Recovery events applied.
    pub recoveries: usize,
    /// Gray-failure windows opened ([`FaultEvent::Degrade`] applied).
    pub gray_windows: usize,
    /// Network partitions activated.
    pub partitions: usize,
    /// Network partitions healed.
    pub heals: usize,
    /// Online repairs triggered by unroutable classes.
    pub repairs: usize,
    /// Total seconds survivors were paused for repair ETL.
    pub repair_pause_secs: f64,
    /// Total bytes repairs re-replicated (Eq. 27).
    pub repair_moved_bytes: u64,
    /// Reroutes that failed even after online repair (the run keeps the
    /// previous routing table).
    pub reroute_failures: usize,
    /// False if any online repair left a weighted class below the
    /// `min(repair_k, survivors − 1)` safety level.
    pub post_repair_safety_ok: bool,
    /// `(time, routable backends)` after each applied fault event — a
    /// backend counts while it is alive and not cut off by a partition.
    pub availability: Vec<(f64, usize)>,
    /// Completed requests per second of observation window — the
    /// graceful-degradation metric of `fig_resilience`.
    pub goodput: f64,
}

impl ResilienceReport {
    /// The conservation law every run must satisfy:
    /// `completed + shed + timed_out + lost == offered`.
    pub fn conserved(&self) -> bool {
        self.completed + self.shed + self.timed_out + self.lost == self.offered
    }
}

/// Everything a fault-aware run is parameterised by except its request
/// stream — the arguments of [`run_open_resilient`], bundled so the
/// core and the [`crate::fault`] projection hand one value around.
#[derive(Clone, Copy)]
pub(crate) struct FaultRun<'a> {
    pub alloc: &'a Allocation,
    pub cls: &'a Classification,
    pub cluster: &'a ClusterSpec,
    pub catalog: &'a Catalog,
    pub warmup_backlog: f64,
    pub cfg: &'a SimConfig,
    pub plan: &'a FaultPlan,
    pub fcfg: &'a FaultConfig,
    pub rcfg: &'a ResilienceConfig,
}

/// Run state of the fault-aware open loop: dispatch, retry and fault
/// handling all act on it.
pub(crate) struct Engine<'a> {
    run: FaultRun<'a>,
    /// The allocation as online repairs have grown it.
    current: Allocation,
    scheduler: Scheduler,
    profile: ServiceProfile,
    spare: Vec<f64>,
    alive: Vec<bool>,
    /// Gray-failure service multiplier per backend; 1.0 when healthy.
    /// Applied at dispatch, so `x * 1.0` keeps healthy runs bit-exact.
    slow: Vec<f64>,
    /// Backends cut off by an active partition: alive, but unroutable.
    cut: Vec<bool>,
    free_at: Vec<f64>,
    busy: Vec<f64>,
    /// Per backend: the legs still running or waiting, oldest first —
    /// the only record of a leg (admission bound, shed victims, crash
    /// voiding). Finished entries are dropped at every push, so it
    /// stays O(in-flight) however long the run.
    queues: Vec<VecDeque<QEntry>>,
    arena: Vec<RReq>,
    /// Every leg of the tracer-admitted requests, in dispatch order.
    traced: Vec<(u32, RLeg)>,
    /// The routing table of the allocation as given, reused whenever
    /// every backend is routable again before any online repair.
    initial: Scheduler,
    breakers: Breakers,
    /// Scheduled retries as `(at_bits, seq, request)`, earliest first:
    /// `seq` is unique and monotone, so equal times replay FIFO.
    retries: BinaryHeap<Reverse<(u64, u64, u32)>>,
    retry_seq: u64,
    tally: Tally,
    stats: FaultStats,
    tracer: Option<&'a mut qcpa_obs::Tracer>,
}

/// Drops the finished prefix (`end ≤ t`) of a backend's pending queue.
/// Entries are in non-decreasing `end` order and dispatch times never
/// go back, so what is dropped can no longer be voided, shed or
/// counted against the bound.
fn drop_finished(q: &mut VecDeque<QEntry>, reqs: &mut [RReq], t: f64) {
    while let Some(e) = q.front() {
        if e.end > t {
            break;
        }
        retire(reqs, e);
        q.pop_front();
    }
}

/// Records a live leg leaving its pending queue without being voided:
/// no crash can reach it any more, so a ROWA leg's end moves to its
/// request's `done`.
fn retire(reqs: &mut [RReq], e: &QEntry) {
    if e.role == Role::Rowa {
        let r = &mut reqs[e.req as usize];
        r.done = r.done.max(e.end);
    }
}

impl Engine<'_> {
    /// Whether new work may be routed to `b`: alive and not cut off by
    /// an active partition.
    fn routable(&self, b: usize) -> bool {
        self.alive[b] && !self.cut[b]
    }

    /// Records an instant mark for request `idx` at `t` on the fault
    /// track when the tracer admits the request. The span id is salted
    /// with the mark name and time, so repeated marks on one request
    /// stay distinct.
    fn trace_mark(&mut self, idx: usize, name: &'static str, t: f64) {
        if !self.arena[idx].traced {
            return;
        }
        let track = self.free_at.len() as u32;
        if let Some(tr) = self.tracer.as_deref_mut() {
            let salt = name
                .bytes()
                .fold(t.to_bits(), |a, b| a.rotate_left(7) ^ u64::from(b));
            let id = tr.span_id(idx as u64, salt);
            tr.tree.mark(
                id,
                None,
                "resilience",
                name,
                track,
                t,
                vec![("request", (idx as u64).into())],
            );
        }
    }

    /// Records the backoff interval of a scheduled retry for `idx` as a
    /// span on the fault track.
    fn trace_backoff(&mut self, idx: usize, from: f64, until: f64, attempt: u32) {
        if !self.arena[idx].traced {
            return;
        }
        let track = self.free_at.len() as u32;
        if let Some(tr) = self.tracer.as_deref_mut() {
            let s = tr.tree.begin(
                tr.span_id(idx as u64, 0x4000_0000_0000_0000 | u64::from(attempt)),
                None,
                "resilience",
                "backoff",
                track,
                from,
            );
            tr.tree.arg(s, "request", idx as u64);
            tr.tree.arg(s, "attempt", attempt);
            tr.tree.end(s, until);
        }
    }

    /// Marks voided the traced leg `e` of backend `b`'s queue stands for.
    /// Two of a request's legs can share a backend, an end and a role
    /// only if the later one has no work; a crash voids both, and a
    /// shed victim is a request's one live read leg.
    fn trace_void(&mut self, b: usize, e: &QEntry) {
        let cancelled = e.role == Role::Cancelled;
        if let Some((_, leg)) = self.traced.iter_mut().rev().find(|(r, l)| {
            *r == e.req && l.backend == b && l.end == e.end && l.cancelled == cancelled && !l.voided
        }) {
            leg.voided = true;
        }
    }

    /// Schedules a retry for `idx` from time `from`, or marks it timed
    /// out when the budget is exhausted.
    fn retry_or_expire(&mut self, idx: usize, from: f64) {
        let attempts = self.arena[idx].attempts + 1;
        self.arena[idx].attempts = attempts;
        if attempts <= self.run.rcfg.max_retries {
            let delay = self.run.rcfg.backoff(idx as u64, attempts);
            self.retry_seq += 1;
            self.retries.push(Reverse((
                (from + delay).to_bits(),
                self.retry_seq,
                idx as u32,
            )));
            self.arena[idx].retry_pending = true;
            self.tally.retries += 1;
            self.trace_backoff(idx, from, from + delay, attempts);
        } else {
            self.arena[idx].outcome = Outcome::TimedOut;
            self.tally.timed_out += 1;
            self.trace_mark(idx, "timed_out", from);
        }
    }

    /// Picks the backend for a read of `class` at time `t`, consulting
    /// the breaker and falling back to degraded-mode routing. `None`
    /// only when the class has no capable backend at all.
    fn pick_read_backend(&mut self, idx: usize, class: ClassId, t: f64) -> Option<usize> {
        if !self.breakers.enabled() {
            return self.scheduler.route_read_at(class, &self.free_at, t);
        }
        for &b in self.scheduler.read_targets(class) {
            self.breakers.resolve(b, t);
        }
        let pending = self.scheduler.pending_at(class, &self.free_at, t);
        if let Some(b) = self
            .scheduler
            .route_read_filtered(class, pending, |b| self.breakers.is_blocked(b))
        {
            return Some(b);
        }
        // Every preferred replica is open-circuit: degrade to the
        // capable superset, preferring spare capacity under the
        // allocation (Section 5's robustness headroom).
        for &b in self.scheduler.capable_read_targets(class) {
            self.breakers.resolve(b, t);
        }
        let pending = self.scheduler.pending_at(class, &self.free_at, t);
        #[expect(clippy::expect_used, reason = "pending work is finite")]
        let by_pending = |&a: &usize, &b: &usize| {
            pending(a)
                .partial_cmp(&pending(b))
                .expect("pending work is finite")
                .then(a.cmp(&b))
        };
        let avail: Vec<usize> = self
            .scheduler
            .capable_read_targets(class)
            .iter()
            .copied()
            .filter(|&b| self.routable(b) && !self.breakers.is_blocked(b))
            .collect();
        let pick = avail
            .iter()
            .copied()
            .filter(|&b| self.spare[b] > EPS)
            .min_by(|a, b| by_pending(a, b))
            .or_else(|| avail.into_iter().min_by(|a, b| by_pending(a, b)));
        if let Some(b) = pick {
            self.tally.degraded_fallbacks += 1;
            self.trace_mark(idx, "degraded_fallback", t);
            return Some(b);
        }
        // Nothing healthy anywhere: overriding the breaker beats
        // dropping the request — shedding is the admission policy's
        // decision, not the breaker's.
        let routed = self.scheduler.route_read_at(class, &self.free_at, t);
        if routed.is_some() {
            self.tally.breaker_overrides += 1;
            self.trace_mark(idx, "breaker_override", t);
        }
        routed
    }

    /// Admits a read of `class` onto backend `b` at time `t` under the
    /// overload policy. Returns the admitted service multiplier, or
    /// `None` when the incoming request was shed.
    fn admit_read(&mut self, idx: usize, class: ClassId, b: usize, t: f64) -> Option<f64> {
        let rcfg = self.run.rcfg;
        let q = &mut self.queues[b];
        drop_finished(q, &mut self.arena, t);
        if rcfg.queue_cap == 0 || q.len() < rcfg.queue_cap {
            return Some(1.0);
        }
        match rcfg.overload {
            OverloadPolicy::Reject => {
                self.shed_incoming(idx, t);
                None
            }
            OverloadPolicy::ShedLowestWeight => {
                let classes = &self.run.cls.classes;
                let arena = &self.arena;
                let weight = |e: &QEntry| classes[arena[e.req as usize].class.idx()].weight;
                let w_in = classes[class.idx()].weight;
                #[expect(clippy::expect_used, reason = "class weights are finite")]
                let victim = q
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.role == Role::Read && e.start > t)
                    .min_by(|(_, x), (_, y)| {
                        weight(x)
                            .partial_cmp(&weight(y))
                            .expect("class weights are finite")
                            .then(x.req.cmp(&y.req))
                    })
                    .map(|(i, e)| (i, *e));
                match victim {
                    Some((vi, ve)) if weight(&ve) < w_in => {
                        q.remove(vi);
                        // The victim never started: refund its whole
                        // reservation but leave `free_at` untouched — a
                        // capacity hole, the same discipline as crash
                        // voiding.
                        self.busy[b] -= ve.end - ve.start;
                        let vr = ve.req as usize;
                        let r = &mut self.arena[vr];
                        r.live -= 1;
                        r.end = f64::NEG_INFINITY;
                        r.outcome = Outcome::Shed;
                        if r.traced {
                            self.trace_void(b, &ve);
                        }
                        self.tally.shed += 1;
                        self.tally.shed_victims += 1;
                        self.trace_mark(vr, "shed_victim", t);
                        Some(1.0)
                    }
                    _ => {
                        self.shed_incoming(idx, t);
                        None
                    }
                }
            }
            OverloadPolicy::Brownout => {
                if q.len() >= 2 * rcfg.queue_cap {
                    self.shed_incoming(idx, t);
                    None
                } else {
                    self.tally.browned_out += 1;
                    self.trace_mark(idx, "brownout", t);
                    Some(rcfg.brownout_discount)
                }
            }
        }
    }

    fn shed_incoming(&mut self, idx: usize, t: f64) {
        self.arena[idx].outcome = Outcome::Shed;
        self.tally.shed += 1;
        self.trace_mark(idx, "shed", t);
    }

    /// Books a leg of request `idx` on backend `b`, dispatched at `t`,
    /// starting at `start` and performing `svc` seconds of work: charges
    /// the work, advances the backend's release time, counts the leg
    /// toward its request and enters it in the pending queue.
    fn book(&mut self, idx: usize, t: f64, b: usize, start: f64, svc: f64, role: Role) {
        let end = start + svc;
        self.free_at[b] = end;
        self.busy[b] += svc;
        let r = &mut self.arena[idx];
        if role.completes() {
            r.live += 1;
            r.end = r.end.max(end);
        }
        if r.traced {
            self.traced.push((
                idx as u32,
                RLeg {
                    backend: b,
                    end,
                    svc,
                    voided: false,
                    cancelled: role == Role::Cancelled,
                },
            ));
        }
        // A leg cancelled before it started occupies no queue slot.
        if role == Role::Cancelled && svc <= 0.0 {
            return;
        }
        let q = &mut self.queues[b];
        drop_finished(q, &mut self.arena, t);
        q.push_back(QEntry {
            end,
            start,
            svc,
            req: idx as u32,
            role,
        });
    }

    /// Dispatches request `idx` at time `t` (arrival, retry, or crash
    /// re-dispatch — all take the same path).
    fn dispatch(&mut self, idx: usize, t: f64) {
        let (class, kind, service) = {
            let r = &mut self.arena[idx];
            r.retry_pending = false;
            if r.outcome != Outcome::Pending {
                // A retry can race a shed/expiry decision made after it
                // was scheduled; terminal requests stay terminal.
                return;
            }
            (r.class, r.kind, r.service)
        };
        match kind {
            QueryKind::Read => {
                let Some(b) = self.pick_read_backend(idx, class, t) else {
                    self.tally.unroutable += 1;
                    self.trace_mark(idx, "unroutable", t);
                    self.retry_or_expire(idx, t);
                    return;
                };
                let Some(mult) = self.admit_read(idx, class, b, t) else {
                    return;
                };
                let svc = self.profile.effective(b, service) * mult * self.slow[b];
                let start = self.free_at[b].max(t);
                let end = start + svc;
                let deadline = t + self.run.rcfg.deadline;
                if end > deadline {
                    // Cancel at the deadline: charge only the work
                    // performed. Nothing was queued behind this leg
                    // yet, so releasing the backend early is exact.
                    let performed = (deadline - start).clamp(0.0, svc);
                    self.book(idx, t, b, start, performed, Role::Cancelled);
                    self.breakers.on_timeout(b, t, performed);
                    self.tally.timeouts += 1;
                    self.trace_mark(idx, "leg_timeout", deadline);
                    self.retry_or_expire(idx, deadline);
                } else {
                    self.book(idx, t, b, start, svc, Role::Read);
                    self.breakers.on_dispatch_ok(b, t, svc, end);
                }
            }
            QueryKind::Update => {
                // Replication duty: fans out to every overlapping
                // replica — no deadline, no shedding (a dropped update
                // leg would silently diverge the replica).
                let n_targets = self.scheduler.route_update(class).len();
                if n_targets == 0 {
                    self.tally.unroutable += 1;
                    self.trace_mark(idx, "unroutable", t);
                    self.retry_or_expire(idx, t);
                    return;
                }
                let propagation = self.run.cfg.propagation;
                let sync = match propagation {
                    UpdatePropagation::Rowa => {
                        1.0 + self.run.cfg.rowa_overhead * (n_targets as f64 - 1.0)
                    }
                    _ => 1.0,
                };
                for i in 0..n_targets {
                    let b = self.scheduler.route_update(class)[i];
                    let (mult, role) = match propagation {
                        UpdatePropagation::Rowa => (sync, Role::Rowa),
                        _ if i == 0 => (sync, Role::Primary),
                        UpdatePropagation::Lazy { batching_discount } => {
                            (batching_discount, Role::Duty)
                        }
                        _ => (sync, Role::Duty),
                    };
                    let svc = self.profile.effective(b, service) * mult * self.slow[b];
                    let start = self.free_at[b].max(t);
                    self.book(idx, t, b, start, svc, role);
                }
            }
        }
    }

    /// Publishes one applied fault event: a `sim.fault` obs event and,
    /// when tracing, an instant mark on the fault track. `subject` is
    /// the event's `(key, value, span-id base)`; `salt` keeps the marks
    /// of one subject at one instant distinct; `extra` is the variant's
    /// one additional field.
    fn mark<V>(
        &mut self,
        name: &'static str,
        subject: (&'static str, u64, u64),
        at: f64,
        salt: u64,
        extra: Option<(&'static str, V)>,
    ) where
        V: Copy + Into<FieldValue> + Into<qcpa_obs::ArgValue>,
    {
        let (key, value, span_base) = subject;
        if qcpa_obs::trace::enabled(qcpa_obs::Level::Info, "sim.fault") {
            let mut fields = vec![(key, value.into()), ("at", at.into())];
            fields.extend(extra.map(|(k, v)| (k, v.into())));
            qcpa_obs::trace::emit(qcpa_obs::Level::Info, "sim.fault", name, fields);
        }
        let track = self.free_at.len() as u32;
        if let Some(tr) = self.tracer.as_deref_mut() {
            if tr.enabled() {
                let mut args = vec![(key, value.into())];
                args.extend(extra.map(|(k, v)| (k, v.into())));
                let id = tr.span_id(span_base, at.to_bits() ^ salt);
                tr.tree.mark(id, None, "fault", name, track, at, args);
            }
        }
    }

    /// Voids the legs still running or queued on `backend` at `at`,
    /// refunding their unperformed work. Returns the affected requests
    /// in arrival order and the number of legs voided.
    fn void_pending(&mut self, backend: usize, at: f64) -> (Vec<usize>, usize) {
        let mut reqs: Vec<usize> = Vec::new();
        // ROWA requests that lost the leg holding their latest end but
        // keep other live legs.
        let mut stale: Vec<usize> = Vec::new();
        for e in std::mem::take(&mut self.queues[backend]) {
            if e.end <= at {
                retire(&mut self.arena, &e);
                continue;
            }
            self.busy[backend] -= (e.end - at).min(e.svc);
            let ri = e.req as usize;
            let r = &mut self.arena[ri];
            if e.role.completes() {
                r.live -= 1;
                if r.live == 0 {
                    r.end = f64::NEG_INFINITY;
                } else if e.end == r.end {
                    stale.push(ri);
                }
            }
            if r.traced {
                self.trace_void(backend, &e);
            }
            reqs.push(ri);
        }
        // Only ROWA requests have several live legs: recompute their
        // latest end from the legs still queued and those retired.
        stale.sort_unstable();
        stale.dedup();
        for &ri in &stale {
            self.arena[ri].end = self.arena[ri].done;
        }
        if !stale.is_empty() {
            for e in self.queues.iter().flatten() {
                let ri = e.req as usize;
                if e.role == Role::Rowa && stale.binary_search(&ri).is_ok() {
                    let r = &mut self.arena[ri];
                    r.end = r.end.max(e.end);
                }
            }
        }
        let voided = reqs.len();
        reqs.sort_unstable();
        reqs.dedup();
        (reqs, voided)
    }

    /// Whether a crash that voided some of `ri`'s legs must re-dispatch
    /// it: once no live leg can complete it — for reads and ROWA updates
    /// every live leg is voided, for other propagation modes the primary
    /// leg. A request with a scheduled retry (which will re-dispatch it)
    /// or a terminal state stays as it is.
    fn needs_redispatch(&self, ri: usize) -> bool {
        let r = &self.arena[ri];
        r.outcome == Outcome::Pending && !r.retry_pending && r.live == 0
    }

    /// Rebuilds routing for the current reachability, repairing the
    /// allocation online when a weighted class lost its last routable
    /// replica. A failed reroute keeps the previous routing table. The
    /// service profile and the spare-capacity view depend only on the
    /// allocation, so only a repair rebuilds them.
    fn reroute(&mut self, at: f64) {
        let run = self.run;
        let routable: Vec<bool> = (0..self.alive.len()).map(|b| self.routable(b)).collect();
        let repairs = self.stats.tally.repairs;
        if repairs == 0 && routable.iter().all(|&r| r) {
            self.scheduler = self.initial.clone();
            return;
        }
        if let Ok(s) = reroute(
            at,
            &mut self.current,
            run.cls,
            run.cluster,
            run.catalog,
            &routable,
            run.fcfg,
            &mut self.free_at,
            &mut self.stats.tally,
        ) {
            self.scheduler = s;
        }
        if self.stats.tally.repairs > repairs {
            self.profile =
                ServiceProfile::new(&self.current, run.cluster, run.catalog, run.cfg.locality);
            self.spare = robust::spare_room(&self.current, run.cluster);
        }
    }

    /// Applies one fault event to the run state — the only place a
    /// [`FaultEvent`] changes liveness, reachability, service speed or
    /// routing.
    fn apply_fault(&mut self, e: &FaultEvent) {
        let at = e.at();
        let subject = match *e {
            FaultEvent::Crash { backend, .. }
            | FaultEvent::Recover { backend, .. }
            | FaultEvent::Degrade { backend, .. }
            | FaultEvent::Restore { backend, .. } => {
                ("backend", backend as u64, u64::MAX - backend as u64)
            }
            FaultEvent::Partition { id, .. } | FaultEvent::Heal { id, .. } => {
                ("partition", u64::from(id), u64::MAX / 2 - u64::from(id))
            }
        };
        let mut voided_reqs = Vec::new();
        let reroutes = match *e {
            FaultEvent::Crash { backend, .. } => {
                self.alive[backend] = false;
                self.stats.crashes += 1;
                self.breakers.on_crash(backend, at);
                let voided_legs;
                (voided_reqs, voided_legs) = self.void_pending(backend, at);
                self.mark("crash", subject, at, 0, Some(("voided_legs", voided_legs)));
                true
            }
            FaultEvent::Recover {
                backend,
                catchup_cost,
                ..
            } => {
                self.alive[backend] = true;
                self.stats.recoveries += 1;
                self.free_at[backend] = at + catchup_cost;
                for e in self.queues[backend].drain(..) {
                    retire(&mut self.arena, &e);
                }
                self.breakers.on_recover(backend, at);
                self.mark(
                    "recover",
                    subject,
                    at,
                    1,
                    Some(("catchup_secs", catchup_cost)),
                );
                true
            }
            FaultEvent::Degrade {
                backend, factor, ..
            } => {
                // Gray failure: the backend keeps serving (and keeps
                // its breaker state), but every leg dispatched from now
                // on takes `factor` times as long; legs already
                // dispatched keep their committed service time. The
                // breaker EWMA observes the slowdown and may trip on it.
                self.slow[backend] = factor;
                self.stats.gray_windows += 1;
                self.mark("degrade", subject, at, 2, Some(("factor", factor)));
                false
            }
            FaultEvent::Restore { backend, .. } => {
                self.slow[backend] = 1.0;
                self.mark("restore", subject, at, 3, None::<(&str, u64)>);
                false
            }
            FaultEvent::Partition { id, .. } => {
                // Link cut, not death: no voiding, no refund, no
                // breaker trip — in-flight and queued legs on the cut
                // side still complete; the side is only excluded from
                // new routing until healed.
                let side = self.run.plan.partition_side(id);
                for &m in side {
                    self.cut[m] = true;
                }
                self.stats.partitions += 1;
                self.mark("partition", subject, at, 0, Some(("cut", side.len())));
                true
            }
            FaultEvent::Heal { id, .. } => {
                for &m in self.run.plan.partition_side(id) {
                    self.cut[m] = false;
                }
                self.stats.heals += 1;
                self.mark("heal", subject, at, 1, None::<(&str, u64)>);
                true
            }
        };
        if reroutes {
            self.reroute(at);
        }
        // Re-queue what a crash voided, in arrival order, through the
        // post-crash router; crash re-dispatches are budget-free.
        for ri in voided_reqs {
            if self.needs_redispatch(ri) {
                self.tally.redispatched += 1;
                self.trace_mark(ri, "redispatch", at);
                self.dispatch(ri, at);
            }
        }
        let routable = (0..self.alive.len()).filter(|&b| self.routable(b)).count();
        self.stats.availability.push((at, routable));
    }

    /// Replays arrivals, retries and the fault schedule in one total
    /// order: at equal times fault events go first (an event at or
    /// before an arrival applies to it; events past the last arrival
    /// still void queued work), then retries, then arrivals.
    fn replay(&mut self, requests: &[Request]) {
        let events = self.run.plan.events();
        let (mut ev_i, mut req_i) = (0usize, 0usize);
        loop {
            let ta = requests.get(req_i).map_or(f64::INFINITY, |r| r.arrival);
            let te = events.get(ev_i).map_or(f64::INFINITY, FaultEvent::at);
            let tr = self
                .retries
                .peek()
                .map_or(f64::INFINITY, |Reverse((bits, ..))| f64::from_bits(*bits));
            if ta.is_infinite() && te.is_infinite() && tr.is_infinite() {
                break;
            }
            if te <= tr && te <= ta {
                self.apply_fault(&events[ev_i]);
                ev_i += 1;
            } else if tr <= ta {
                if let Some(Reverse((bits, _, req))) = self.retries.pop() {
                    self.dispatch(req as usize, f64::from_bits(bits));
                }
            } else {
                let r = &requests[req_i];
                req_i += 1;
                debug_assert!(
                    self.arena.last().is_none_or(|p| p.arrival <= r.arrival),
                    "arrivals must be sorted"
                );
                let idx = self.arena.len();
                let traced = self
                    .tracer
                    .as_deref()
                    .is_some_and(|tr| tr.admit(idx as u64));
                self.arena.push(RReq {
                    arrival: r.arrival,
                    service: r.service,
                    end: f64::NEG_INFINITY,
                    done: f64::NEG_INFINITY,
                    class: r.class,
                    live: 0,
                    attempts: 0,
                    kind: r.kind,
                    retry_pending: false,
                    outcome: Outcome::Pending,
                    traced,
                });
                self.dispatch(idx, r.arrival);
            }
        }
    }

    /// Closes the run: resolves every request to its terminal state
    /// and, when tracing, records the breaker transition log and the
    /// sampled per-request trees.
    pub(crate) fn finish(mut self) -> RCore {
        let fault_track = self.free_at.len() as u32;
        let mut tracer = self.tracer.take();
        if let Some(tr) = tracer.as_deref_mut() {
            if tr.enabled() {
                for (i, &(t, b, name)) in self.breakers.log.iter().enumerate() {
                    tr.tree.mark(
                        tr.span_id(0x8000_0000_0000_0000 | b as u64, i as u64),
                        None,
                        "breaker",
                        name,
                        fault_track,
                        t,
                        vec![("backend", b.into())],
                    );
                }
            }
        }

        let mut finals = Vec::with_capacity(self.arena.len());
        // Stable: each request's legs stay in dispatch order.
        self.traced.sort_by_key(|&(r, _)| r);
        let mut traced = self.traced.as_slice();
        for (idx, r) in self.arena.iter().enumerate() {
            let fin = match r.outcome {
                Outcome::Shed => RFinal::Shed,
                Outcome::TimedOut => RFinal::TimedOut,
                Outcome::Pending => r.completion().map_or(RFinal::Lost, RFinal::Completed),
            };
            if r.traced {
                let n = traced
                    .iter()
                    .take_while(|&&(ri, _)| ri as usize == idx)
                    .count();
                let legs;
                (legs, traced) = traced.split_at(n);
                if let Some(tr) = tracer.as_deref_mut() {
                    let outcome = match fin {
                        RFinal::Completed(_) => "completed",
                        RFinal::Shed => "shed",
                        RFinal::TimedOut => "timed_out",
                        RFinal::Lost => "lost",
                    };
                    trace_resilient_request(tr, idx as u64, r, legs, outcome, fault_track);
                }
            }
            finals.push((r.arrival, r.class, fin));
        }

        RCore {
            finals,
            busy: self.busy,
            tally: self.tally,
            breaker_opens: self.breakers.opens,
            breaker_half_opens: self.breakers.half_opens,
            breaker_closes: self.breakers.closes,
            stats: self.stats,
        }
    }
}

/// Records a sampled request's finalize-time span tree: a `request`
/// root stamped with its terminal outcome and one `leg` child per
/// dispatched leg (cancelled and voided legs annotated), in dispatch
/// order. `legs` are the request's entries of [`Engine::traced`].
fn trace_resilient_request(
    tr: &mut qcpa_obs::Tracer,
    req: u64,
    r: &RReq,
    legs: &[(u32, RLeg)],
    outcome: &'static str,
    fault_track: u32,
) {
    let name = match r.kind {
        QueryKind::Read => "read",
        QueryKind::Update => "update",
    };
    let track = legs.first().map_or(fault_track, |(_, l)| l.backend as u32);
    let root = tr
        .tree
        .begin(tr.span_id(req, 0), None, "request", name, track, r.arrival);
    tr.tree.arg(root, "request", req);
    tr.tree.arg(root, "class", r.class.0);
    tr.tree.arg(root, "outcome", outcome);
    tr.tree.arg(root, "attempts", r.attempts);
    let mut end = r.arrival;
    for (i, (_, leg)) in legs.iter().enumerate() {
        let s = tr.tree.begin(
            tr.span_id(req, 1 + i as u64),
            Some(root),
            "service",
            "leg",
            leg.backend as u32,
            leg.end - leg.svc,
        );
        tr.tree.arg(s, "backend", leg.backend);
        if leg.voided {
            tr.tree.arg(s, "voided", "true");
        }
        if leg.cancelled {
            tr.tree.arg(s, "cancelled", "true");
        }
        tr.tree.end(s, leg.end);
        if !leg.voided && !leg.cancelled {
            end = end.max(leg.end);
        }
    }
    tr.tree.end(root, end);
}

/// Runs timed arrivals through the scheduler with the resilience layer
/// active, while applying `plan`'s fault events. Requests must be
/// sorted by arrival time. With [`ResilienceConfig::default`] every
/// layer is inert and the run is what [`crate::fault::run_open_faults`]
/// reports.
#[expect(
    clippy::too_many_arguments,
    reason = "the simulator entry-point signature: allocation, inputs, requests, configs"
)]
pub fn run_open_resilient(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    plan: &FaultPlan,
    fcfg: &FaultConfig,
    rcfg: &ResilienceConfig,
) -> ResilienceReport {
    run_open_resilient_traced(
        alloc,
        cls,
        cluster,
        catalog,
        requests,
        warmup_backlog,
        cfg,
        plan,
        fcfg,
        rcfg,
        None,
    )
}

/// [`run_open_resilient`] with an optional causal tracer. Sampled
/// requests become span trees (per-leg service intervals plus backoff
/// spans), while admission, retry, breaker, and fault transitions
/// become instant marks on a dedicated track (`tid == cluster size`).
/// `None` — and `Some` with a zero sampling rate — leave the simulated
/// results bit-identical to the untraced run.
#[expect(
    clippy::too_many_arguments,
    reason = "the simulator entry-point signature: allocation, inputs, requests, configs"
)]
pub fn run_open_resilient_traced(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    plan: &FaultPlan,
    fcfg: &FaultConfig,
    rcfg: &ResilienceConfig,
    tracer: Option<&mut qcpa_obs::Tracer>,
) -> ResilienceReport {
    let _span = qcpa_obs::span("sim", "run_open_resilient");
    let run = FaultRun {
        alloc,
        cls,
        cluster,
        catalog,
        warmup_backlog,
        cfg,
        plan,
        fcfg,
        rcfg,
    };
    let core = resilient_core(&run, requests, tracer).finish();
    assemble_resilience_report(requests, cls.len(), core)
}

/// Terminal state of one request in a [`resilient_core`] run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RFinal {
    /// Completed at this absolute time.
    Completed(f64),
    Shed,
    TimedOut,
    /// Never reached a terminal state — a conservation-law violation.
    Lost,
}

/// Raw outcome of [`resilient_core`]: per-request terminal states in
/// arrival order plus the run's counters, which the report views
/// ([`assemble_resilience_report`], [`crate::fault`]) project.
pub(crate) struct RCore {
    /// `(arrival, class, final state)` per request, in arrival order.
    pub finals: Vec<(f64, ClassId, RFinal)>,
    pub busy: Vec<f64>,
    pub tally: Tally,
    /// Per-backend breaker transition counts (see [`Breakers`]).
    pub breaker_opens: Vec<usize>,
    pub breaker_half_opens: Vec<usize>,
    pub breaker_closes: Vec<usize>,
    pub stats: FaultStats,
}

/// The fault-aware open loop proper: builds the run state and replays
/// `requests` against `run`'s fault plan (see [`Engine::replay`]);
/// [`Engine::finish`] then yields the raw terminal states.
pub(crate) fn resilient_core<'a>(
    run: &FaultRun<'a>,
    requests: &[Request],
    mut tracer: Option<&'a mut qcpa_obs::Tracer>,
) -> Engine<'a> {
    let n = run.cluster.len();
    assert_eq!(
        run.plan.n_backends(),
        n,
        "fault plan validated for a different cluster size"
    );
    run.rcfg.validate();
    assert!(
        u32::try_from(requests.len()).is_ok(),
        "request indices must fit in 32 bits"
    );

    if let Some(tr) = tracer.as_deref_mut() {
        if tr.enabled() {
            for b in 0..n {
                tr.tree.name_track(b as u32, format!("backend {b}"));
            }
            tr.tree.name_track(n as u32, "resilience");
        }
    }
    let mut breakers = Breakers::new(n, run.rcfg);
    breakers.log_enabled = tracer.as_ref().is_some_and(|tr| tr.enabled());

    let scheduler = Scheduler::new(run.alloc, run.cls);
    let mut eng = Engine {
        run: *run,
        current: run.alloc.clone(),
        scheduler: scheduler.clone(),
        profile: ServiceProfile::new(run.alloc, run.cluster, run.catalog, run.cfg.locality),
        spare: robust::spare_room(run.alloc, run.cluster),
        alive: vec![true; n],
        slow: vec![1.0f64; n],
        cut: vec![false; n],
        free_at: vec![run.warmup_backlog.max(0.0); n],
        busy: vec![0.0; n],
        queues: vec![VecDeque::new(); n],
        arena: Vec::with_capacity(requests.len()),
        traced: Vec::new(),
        initial: scheduler,
        breakers,
        retries: BinaryHeap::new(),
        retry_seq: 0,
        tally: Tally::default(),
        stats: FaultStats::new(n),
        tracer,
    };
    eng.replay(requests);
    eng
}

/// Rebuilds the public [`ResilienceReport`] from raw terminal states —
/// the histogram, percentiles and per-class tallies replay in arrival
/// order. Publishes the run's obs counters.
pub(crate) fn assemble_resilience_report(
    requests: &[Request],
    n_classes: usize,
    core: RCore,
) -> ResilienceReport {
    let RCore {
        finals,
        busy,
        tally,
        breaker_opens,
        breaker_half_opens,
        breaker_closes,
        stats,
    } = core;
    let mut responses = Vec::with_capacity(finals.len());
    let mut resp_hist = qcpa_obs::Histogram::new();
    let mut per_class_completed = vec![0usize; n_classes];
    let mut shed = 0usize;
    let mut timed_out = 0usize;
    let mut lost = 0usize;
    for &(arrival, class, fin) in &finals {
        match fin {
            RFinal::Completed(end) => {
                resp_hist.record(end - arrival);
                responses.push((arrival, end - arrival));
                per_class_completed[class.idx()] += 1;
            }
            RFinal::Shed => shed += 1,
            RFinal::TimedOut => timed_out += 1,
            RFinal::Lost => lost += 1,
        }
    }
    debug_assert_eq!(shed, tally.shed);
    debug_assert_eq!(timed_out, tally.timed_out);

    let mut resp: Vec<f64> = responses.iter().map(|&(_, r)| r).collect();
    let mean_response = if resp.is_empty() {
        0.0
    } else {
        resp.iter().sum::<f64>() / resp.len() as f64
    };
    let p95_response = nearest_rank(&mut resp, 0.95);
    let p99_response = nearest_rank(&mut resp, 0.99);
    let window = requests.last().map(|r| r.arrival).unwrap_or(0.0).max(1e-9);
    let utilization: Vec<f64> = busy.iter().map(|b| b / window).collect();
    let goodput = responses.len() as f64 / window;
    let opens: usize = breaker_opens.iter().sum();
    let half_opens: usize = breaker_half_opens.iter().sum();
    let closes: usize = breaker_closes.iter().sum();

    let reg = qcpa_obs::global();
    reg.counter("sim.resilience.offered")
        .add(requests.len() as u64);
    reg.counter("sim.resilience.completed")
        .add(responses.len() as u64);
    reg.counter("sim.resilience.shed").add(shed as u64);
    reg.counter("sim.resilience.timed_out")
        .add(timed_out as u64);
    reg.counter("sim.resilience.lost").add(lost as u64);
    reg.counter("sim.resilience.timeouts")
        .add(tally.timeouts as u64);
    reg.counter("sim.resilience.retries")
        .add(tally.retries as u64);
    reg.counter("sim.resilience.shed_victims")
        .add(tally.shed_victims as u64);
    reg.counter("sim.resilience.browned_out")
        .add(tally.browned_out as u64);
    reg.counter("sim.resilience.redispatched")
        .add(tally.redispatched as u64);
    reg.counter("sim.resilience.breaker_opens")
        .add(opens as u64);
    reg.counter("sim.resilience.breaker_half_opens")
        .add(half_opens as u64);
    reg.counter("sim.resilience.breaker_closes")
        .add(closes as u64);
    reg.counter("sim.resilience.degraded_fallbacks")
        .add(tally.degraded_fallbacks as u64);
    reg.counter("sim.resilience.breaker_overrides")
        .add(tally.breaker_overrides as u64);
    reg.counter("sim.resilience.unroutable")
        .add(tally.unroutable as u64);
    reg.counter("sim.fault.crashes").add(stats.crashes as u64);
    reg.counter("sim.fault.recoveries")
        .add(stats.recoveries as u64);
    reg.merge_histogram("sim.resilience.response_secs", &resp_hist);

    ResilienceReport {
        completed: responses.len(),
        responses,
        mean_response,
        p95_response,
        p99_response,
        busy,
        utilization,
        offered: requests.len(),
        shed,
        timed_out,
        lost,
        per_class_completed,
        retries: tally.retries,
        timeouts: tally.timeouts,
        shed_victims: tally.shed_victims,
        browned_out: tally.browned_out,
        redispatched: tally.redispatched,
        breaker_opens: opens,
        breaker_half_opens: half_opens,
        breaker_closes: closes,
        degraded_fallbacks: tally.degraded_fallbacks,
        breaker_overrides: tally.breaker_overrides,
        unroutable: tally.unroutable,
        crashes: stats.crashes,
        recoveries: stats.recoveries,
        gray_windows: stats.gray_windows,
        partitions: stats.partitions,
        heals: stats.heals,
        repairs: stats.tally.repairs,
        repair_pause_secs: stats.tally.pause_secs,
        repair_moved_bytes: stats.tally.moved_bytes,
        reroute_failures: stats.tally.failures,
        post_repair_safety_ok: stats.tally.safety_ok,
        availability: stats.availability,
        goodput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{run_open_faults, FaultInjectionConfig};
    use crate::request::RequestStream;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;

    fn workload() -> (Catalog, Classification, RequestStream) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 4_000);
        let b = cat.add_table("B", 4_000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.45),
            QueryClass::read(1, [b], 0.35),
            QueryClass::update(2, [a], 0.20),
        ])
        .unwrap();
        let stream = RequestStream::new(
            vec![45.0, 35.0, 20.0],
            vec![QueryKind::Read, QueryKind::Read, QueryKind::Update],
            vec![0.01; 3],
        );
        (cat, cls, stream)
    }

    fn read_burst(n: usize, spacing: f64, service: f64, from: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                class: ClassId(0),
                kind: QueryKind::Read,
                service,
                arrival: from + i as f64 * spacing,
            })
            .collect()
    }

    #[test]
    fn disabled_config_matches_run_open_faults_exactly() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let reqs = stream.sample_poisson(120.0, 40.0, 0.0, &mut rng);
        let cfg = SimConfig::default();
        let fic = FaultInjectionConfig {
            crashes: 3,
            ..Default::default()
        };
        let plan = FaultPlan::from_seed(99, 4, 40.0, &fic);
        assert!(!plan.is_empty());
        let base = run_open_faults(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &cfg,
            &plan,
            &FaultConfig::default(),
        );
        let rep = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &cfg,
            &plan,
            &FaultConfig::default(),
            &ResilienceConfig::default(),
        );
        assert_eq!(rep.responses.len(), base.responses.len());
        for (x, y) in rep.responses.iter().zip(&base.responses) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "at arrival {}", x.0);
        }
        for (x, y) in rep.busy.iter().zip(&base.busy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(rep.availability, base.availability);
        assert_eq!(rep.redispatched, base.redispatched);
        assert_eq!(rep.shed + rep.timed_out + rep.lost, base.lost);
        assert!(rep.conserved());
        assert_eq!(rep.timeouts, 0);
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.breaker_opens, 0);
    }

    #[test]
    fn update_only_backend_pending_queue_stays_bounded() {
        // Backend 1 stores only table B, which only the update class
        // touches: no read is ever admitted there, so nothing but the
        // push-time pruning can drain its pending queue.
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 4_000);
        let b = cat.add_table("B", 4_000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::update(1, [b], 0.4),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::empty(2, 2);
        alloc.fragments[0].insert(a);
        alloc.fragments[1].insert(b);
        alloc.assign[0][0] = 0.6;
        alloc.assign[1][1] = 0.4;
        // Half-loaded: every leg ends before the next one arrives.
        let reqs: Vec<Request> = (0..20_000)
            .map(|i| Request {
                class: ClassId(1),
                kind: QueryKind::Update,
                service: 0.01,
                arrival: i as f64 * 0.02,
            })
            .collect();
        let run = FaultRun {
            alloc: &alloc,
            cls: &cls,
            cluster: &cluster,
            catalog: &cat,
            warmup_backlog: 0.0,
            cfg: &SimConfig::default(),
            plan: &FaultPlan::new(Vec::new(), 2).unwrap(),
            fcfg: &FaultConfig::default(),
            rcfg: &ResilienceConfig::default(),
        };
        let eng = resilient_core(&run, &reqs, None);
        assert!(
            eng.queues[1].len() <= 2,
            "update-only backend kept {} finished entries",
            eng.queues[1].len()
        );
        let core = eng.finish();
        assert!(core
            .finals
            .iter()
            .all(|f| matches!(f.2, RFinal::Completed(_))));
    }

    #[test]
    fn rowa_update_completes_on_a_retired_leg_when_its_latest_is_voided() {
        // A read makes backend 0 busy until t = 1; an update at t = 0.1
        // then ends at 0.6 on backend 1 and at 1.5 on backend 0. A read
        // at t = 0.7 retires the finished leg from backend 1's queue, and
        // a crash of backend 0 at 1.2 voids the later leg: the update
        // keeps one live leg, so it completes at 0.6 without a
        // re-dispatch.
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1_000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.5),
            QueryClass::update(1, [a], 0.5),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let req = |class, kind, service, arrival| Request {
            class: ClassId(class),
            kind,
            service,
            arrival,
        };
        let reqs = vec![
            req(0, QueryKind::Read, 1.0, 0.0),
            req(1, QueryKind::Update, 0.5, 0.1),
            req(0, QueryKind::Read, 0.1, 0.7),
        ];
        let run = |events| {
            run_open_faults(
                &alloc,
                &cls,
                &cluster,
                &cat,
                &reqs,
                0.0,
                &SimConfig::default(),
                &FaultPlan::new(events, 2).unwrap(),
                &FaultConfig::default(),
            )
        };
        let healthy = run(Vec::new());
        let crashed = run(vec![FaultEvent::Crash {
            backend: 0,
            at: 1.2,
        }]);
        assert_eq!(crashed.redispatched, 0);
        assert_eq!(crashed.completed, 3);
        let (arrival, response) = crashed.responses[1];
        assert_eq!(arrival, 0.1);
        assert!((response - 0.5).abs() < 1e-12, "response {response}");
        assert!((healthy.responses[1].1 - 1.4).abs() < 1e-12);
    }

    #[test]
    fn deadlines_cancel_retry_and_conserve() {
        let (cat, cls, _) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        // 2× overload: queueing delay grows past the deadline quickly.
        let reqs = read_burst(400, 0.05, 0.2, 0.0);
        let plan = FaultPlan::new(Vec::new(), 2).unwrap();
        let rcfg = ResilienceConfig {
            deadline: 1.0,
            max_retries: 2,
            backoff_base: 0.1,
            backoff_cap: 1.0,
            jitter: 0.5,
            seed: 7,
            ..Default::default()
        };
        let rep = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &rcfg,
        );
        assert!(rep.conserved(), "conservation law violated");
        assert_eq!(rep.lost, 0);
        assert!(rep.timeouts > 0, "overload must trigger timeouts");
        assert!(rep.retries > 0);
        assert!(rep.timed_out > 0, "budget exhaustion must be reported");
        // Every completed response meets its (final-attempt) deadline
        // plus the accumulated backoff delays — in particular it is
        // bounded, not an unbounded queueing tail.
        let worst_backoff: f64 = (1..=rcfg.max_retries)
            .map(|_| rcfg.backoff_cap * (1.0 + rcfg.jitter))
            .sum::<f64>()
            + rcfg.deadline * f64::from(rcfg.max_retries);
        for &(_, resp) in &rep.responses {
            assert!(resp <= rcfg.deadline + worst_backoff + 1e-9);
        }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let rcfg = ResilienceConfig {
            backoff_base: 0.25,
            backoff_cap: 4.0,
            jitter: 0.25,
            seed: 42,
            max_retries: 10,
            ..Default::default()
        };
        for req in 0..20u64 {
            for attempt in 1..=10u32 {
                let d1 = rcfg.backoff(req, attempt);
                let d2 = rcfg.backoff(req, attempt);
                assert_eq!(d1.to_bits(), d2.to_bits(), "jitter must be deterministic");
                let capped = (0.25 * f64::from(1u32 << (attempt - 1).min(30))).min(4.0);
                assert!(d1 >= capped && d1 < capped * 1.25 + 1e-12);
            }
        }
        // Distinct (request, attempt) keys give distinct jitter.
        assert_ne!(rcfg.backoff(1, 5).to_bits(), rcfg.backoff(2, 5).to_bits());
        let no_jitter = ResilienceConfig {
            jitter: 0.0,
            ..rcfg
        };
        assert_eq!(no_jitter.backoff(3, 1), 0.25);
        assert_eq!(no_jitter.backoff(3, 9), 4.0);
    }

    #[test]
    fn reject_policy_bounds_queues_and_sheds() {
        let (cat, cls, _) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let reqs = read_burst(600, 0.05, 0.2, 0.0);
        let plan = FaultPlan::new(Vec::new(), 2).unwrap();
        let rcfg = ResilienceConfig {
            queue_cap: 8,
            overload: OverloadPolicy::Reject,
            ..Default::default()
        };
        let rep = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &rcfg,
        );
        assert!(rep.conserved());
        assert!(rep.shed > 0, "2x overload with cap 8 must shed");
        assert!(rep.completed > 0);
        // Bounded queues bound the sojourn: at most cap+1 services wait
        // ahead of an admitted request.
        let bound = (rcfg.queue_cap as f64 + 1.0) * 0.2 + 1e-9;
        for &(_, resp) in &rep.responses {
            assert!(resp <= bound, "response {resp} exceeds bound {bound}");
        }
        // Unbounded run for contrast: no shedding, unbounded tail.
        let open = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &ResilienceConfig::default(),
        );
        assert_eq!(open.shed, 0);
        assert!(open.p99_response > rep.p99_response);
    }

    #[test]
    fn shed_lowest_weight_prefers_heavy_classes() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1_000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.8),
            QueryClass::read(1, [a], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(1);
        let alloc = Allocation::full_replication(&cls, &cluster);
        // Light arrivals first each millisecond so the queue holds
        // light work when heavy requests arrive.
        let mut reqs = Vec::new();
        for i in 0..300 {
            let t = i as f64 * 0.05;
            reqs.push(Request {
                class: ClassId(1),
                kind: QueryKind::Read,
                service: 0.2,
                arrival: t,
            });
            reqs.push(Request {
                class: ClassId(0),
                kind: QueryKind::Read,
                service: 0.2,
                arrival: t + 0.02,
            });
        }
        let plan = FaultPlan::new(Vec::new(), 1).unwrap();
        let rcfg = ResilienceConfig {
            queue_cap: 6,
            overload: OverloadPolicy::ShedLowestWeight,
            ..Default::default()
        };
        let rep = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &rcfg,
        );
        assert!(rep.conserved());
        assert!(rep.shed_victims > 0, "heavy arrivals must evict light work");
        assert!(
            rep.per_class_completed[0] > rep.per_class_completed[1],
            "the heavy class must complete more than the light one: {:?}",
            rep.per_class_completed
        );
    }

    #[test]
    fn brownout_discounts_instead_of_shedding() {
        let (cat, cls, _) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let reqs = read_burst(600, 0.05, 0.2, 0.0);
        let plan = FaultPlan::new(Vec::new(), 2).unwrap();
        let mk = |overload| ResilienceConfig {
            queue_cap: 8,
            overload,
            brownout_discount: 0.25,
            ..Default::default()
        };
        let brown = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &mk(OverloadPolicy::Brownout),
        );
        let reject = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &mk(OverloadPolicy::Reject),
        );
        assert!(brown.conserved() && reject.conserved());
        assert!(brown.browned_out > 0);
        assert!(
            brown.completed > reject.completed,
            "brownout trades fidelity for goodput: {} vs {}",
            brown.completed,
            reject.completed
        );
        assert!(brown.shed < reject.shed);
    }

    #[test]
    fn breaker_opens_under_timeouts_and_recloses_when_idle() {
        let (cat, cls, _) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        // Phase 1: heavy overload forcing consecutive timeouts on both
        // backends; phase 2 (after a long gap): light traffic the
        // drained backends serve within deadline, so half-open probes
        // succeed and the breakers close.
        let mut reqs = read_burst(200, 0.02, 0.3, 0.0);
        reqs.extend(read_burst(20, 1.0, 0.05, 60.0));
        let plan = FaultPlan::new(Vec::new(), 2).unwrap();
        let rcfg = ResilienceConfig {
            deadline: 0.5,
            max_retries: 1,
            backoff_base: 0.1,
            backoff_cap: 0.5,
            breaker_failures: 3,
            breaker_cooldown: 2.0,
            half_open_probes: 2,
            ..Default::default()
        };
        let rep = run_open_resilient(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
            &rcfg,
        );
        assert!(rep.conserved());
        assert!(rep.breaker_opens > 0, "consecutive timeouts must trip");
        assert!(rep.breaker_half_opens > 0, "cooldown must half-open");
        assert!(rep.breaker_closes > 0, "successful probes must re-close");
        // When both replicas were open-circuit the engine served anyway
        // instead of dropping (override or degraded fallback).
        assert_eq!(rep.lost, 0);
        // Phase-2 requests complete promptly.
        let late: Vec<f64> = rep
            .responses
            .iter()
            .filter(|&&(a, _)| a >= 60.0)
            .map(|&(_, r)| r)
            .collect();
        assert!(!late.is_empty());
    }

    #[test]
    fn crashes_with_deadlines_never_lose_or_double_count() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let reqs = stream.sample_poisson(150.0, 30.0, 0.0, &mut rng);
        let fic = FaultInjectionConfig {
            crashes: 2,
            ..Default::default()
        };
        let plan = FaultPlan::from_seed(5, 3, 30.0, &fic);
        let rcfg = ResilienceConfig {
            deadline: 2.0,
            max_retries: 3,
            jitter: 0.25,
            seed: 9,
            queue_cap: 32,
            overload: OverloadPolicy::Reject,
            breaker_failures: 4,
            breaker_cooldown: 3.0,
            ..Default::default()
        };
        let run = || {
            run_open_resilient(
                &alloc,
                &cls,
                &cluster,
                &cat,
                &reqs,
                0.0,
                &SimConfig::default(),
                &plan,
                &FaultConfig::default(),
                &rcfg,
            )
        };
        let a = run();
        let b = run();
        assert!(a.conserved(), "conservation under crashes + deadlines");
        assert_eq!(a.lost, 0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.breaker_opens, b.breaker_opens);
        for (x, y) in a.responses.iter().zip(&b.responses) {
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        for (x, y) in a.busy.iter().zip(&b.busy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
