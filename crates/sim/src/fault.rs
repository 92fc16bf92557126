//! Deterministic in-simulation fault injection.
//!
//! A [`FaultPlan`] is a validated, time-ordered schedule of backend
//! crashes and recoveries that the fault-aware open loop
//! ([`crate::resilience`]) interleaves with the arrival stream — the
//! FoundationDB-style discipline of making fault timelines a
//! first-class, seed-reproducible simulator input rather than an
//! ambient source of nondeterminism. Everything downstream of the plan
//! is deterministic: the same `(workload seed, fault seed)` pair
//! replays the exact run, bit for bit, at any `QCPA_THREADS` setting.
//!
//! This module owns the plan (events, validation, seeded generators),
//! the online-repair rerouting the loop calls on every routing change,
//! and [`run_open_faults`]: the loop run with every resilience
//! mechanism off ([`ResilienceConfig::default`]) and projected onto a
//! [`FaultReport`] — completed requests become `responses`, a request
//! that found no capable backend is `lost`.
//!
//! Semantics of a crash at time `T` on backend `d`:
//!
//! * legs (per-backend work units of a request) already finished on `d`
//!   (`end ≤ T`) stand; legs still running or queued are **voided** and
//!   their unperformed work is refunded from `d`'s busy time;
//! * a request whose *primary* leg was voided (reads have one leg, which
//!   is primary; updates use their first ROWA target, matching the
//!   response rule of [`crate::engine::run_open`]) — or whose legs were
//!   all voided — is **re-queued at `T`** through the post-crash router,
//!   so no request is ever lost while any capable backend survives;
//! * routing switches to the surviving allocation via
//!   [`qcpa_core::ksafety::fail_backends`]; if a positively weighted
//!   class lost its last capable replica, an online
//!   [`qcpa_core::ksafety::repair`] re-replicates it from the master
//!   copy and the implied data movement is priced with the Eq. 27 ETL
//!   model from `qcpa-matching` and charged to every survivor's clock
//!   (the availability gap the paper's k-safety construction avoids).
//!
//! A recovery at time `T` brings the backend back with its fragments
//! intact after a catch-up pause: it accepts new work from
//! `T + catchup_cost` on.
//!
//! On top of clean crashes the plan carries a **layered adversary**
//! ([`FaultPlan::from_seed_layered`]):
//!
//! * **gray failures** ([`FaultEvent::Degrade`]/[`FaultEvent::Restore`])
//!   — a backend keeps serving but legs dispatched inside the window
//!   take `factor ≥ 1` times as long; nothing is voided and routing is
//!   unchanged, modelling the slow-not-dead node real clusters degrade
//!   through;
//! * **network partitions** ([`FaultEvent::Partition`]/
//!   [`FaultEvent::Heal`]) — a registered backend *side* becomes
//!   unreachable: in-flight legs still complete and no work is voided,
//!   but new routing excludes the side until it heals (triggering the
//!   same online repair as a crash if a weighted class lost its last
//!   reachable replica);
//! * **correlated zone failures** — one seed draw crashes every backend
//!   of a zone (`zone(b) = b % zones`) at the same instant.
//!
//! All layers draw a fixed amount of RNG per attempted event, so plans
//! stay bit-reproducible and stable under config tweaks that do not
//! change the draw counts.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::{ksafety, BackendId};
use qcpa_matching::physical::{move_cost, EtlCostModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::engine::{nearest_rank, SimConfig};
use crate::request::Request;
use crate::resilience::{resilient_core, FaultRun, RCore, RFinal, ResilienceConfig};
use crate::scheduler::Scheduler;

/// One entry of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Backend `backend` fails at time `at`: its in-flight work is
    /// voided and routing excludes it until it recovers.
    Crash {
        /// The failing backend (full-cluster index).
        backend: usize,
        /// Failure time in seconds.
        at: f64,
    },
    /// Backend `backend` rejoins at time `at` with its fragments
    /// restored; it accepts work from `at + catchup_cost` on (the replay
    /// of updates it missed while down).
    Recover {
        /// The recovering backend (full-cluster index).
        backend: usize,
        /// Recovery time in seconds.
        at: f64,
        /// Catch-up pause in seconds before it serves again.
        catchup_cost: f64,
    },
    /// Backend `backend` enters a **gray failure** window at `at`: it
    /// stays alive and routable, but every leg dispatched to it until
    /// the matching [`FaultEvent::Restore`] takes `factor` (≥ 1) times
    /// as long. Legs already dispatched keep their original service
    /// time — degradation is observed at dispatch, like a slow disk.
    Degrade {
        /// The degrading backend (full-cluster index).
        backend: usize,
        /// Window start in seconds.
        at: f64,
        /// Service-time multiplier for legs dispatched in the window.
        factor: f64,
    },
    /// Backend `backend` leaves its gray-failure window at `at` and
    /// serves at full rate again.
    Restore {
        /// The restored backend (full-cluster index).
        backend: usize,
        /// Window end in seconds.
        at: f64,
    },
    /// Network partition `id` activates at `at`: every backend in
    /// [`FaultPlan::partition_side`]`(id)` becomes **unreachable** —
    /// alive, in-flight legs still complete, but excluded from new
    /// routing until the matching [`FaultEvent::Heal`]. Unlike a crash
    /// nothing is voided and nothing is refunded: the replicas are cut
    /// off, not dead.
    Partition {
        /// Index into the plan's partition-side table.
        id: u32,
        /// Cut time in seconds.
        at: f64,
    },
    /// Partition `id` heals at `at`: its side rejoins routing with all
    /// state intact (no catch-up — links were cut, data never diverged
    /// because cut backends received no new work).
    Heal {
        /// Index into the plan's partition-side table.
        id: u32,
        /// Heal time in seconds.
        at: f64,
    },
}

impl FaultEvent {
    /// The event's scheduled time.
    pub fn at(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::Degrade { at, .. }
            | FaultEvent::Restore { at, .. }
            | FaultEvent::Partition { at, .. }
            | FaultEvent::Heal { at, .. } => at,
        }
    }

    /// The backend the event concerns, if it is a single-backend event
    /// (partitions concern a backend *set*, keyed by id instead).
    pub fn backend(&self) -> Option<usize> {
        match *self {
            FaultEvent::Crash { backend, .. }
            | FaultEvent::Recover { backend, .. }
            | FaultEvent::Degrade { backend, .. }
            | FaultEvent::Restore { backend, .. } => Some(backend),
            FaultEvent::Partition { .. } | FaultEvent::Heal { .. } => None,
        }
    }

    /// Total order for equal-time events: capacity-restoring variants
    /// first (recover, restore, heal), then capacity-removing ones
    /// (crash, degrade, partition), tie-broken by backend / partition
    /// id. Keeps `Recover < Crash` exactly as the pre-layered sort did.
    fn sort_key(&self) -> (u64, u8, usize) {
        let (rank, tie) = match *self {
            FaultEvent::Recover { backend, .. } => (0u8, backend),
            FaultEvent::Restore { backend, .. } => (1, backend),
            FaultEvent::Heal { id, .. } => (2, id as usize),
            FaultEvent::Crash { backend, .. } => (3, backend),
            FaultEvent::Degrade { backend, .. } => (4, backend),
            FaultEvent::Partition { id, .. } => (5, id as usize),
        };
        (self.at().to_bits(), rank, tie)
    }
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidFaultPlan {
    /// An event names a backend outside the cluster.
    UnknownBackend {
        /// Offending event index.
        index: usize,
        /// The named backend.
        backend: usize,
        /// The cluster size the plan was validated against.
        n_backends: usize,
    },
    /// Event times are not non-decreasing.
    Unsorted {
        /// Index of the event earlier than its predecessor.
        index: usize,
    },
    /// A time or catch-up cost is negative, NaN or infinite.
    NonFinite {
        /// Offending event index.
        index: usize,
    },
    /// A backend crashes while already down.
    DoubleCrash {
        /// Offending event index.
        index: usize,
        /// The backend crashed twice.
        backend: usize,
    },
    /// A backend recovers while up.
    RecoverAlive {
        /// Offending event index.
        index: usize,
        /// The backend recovered while alive.
        backend: usize,
    },
    /// The plan takes every backend down simultaneously — the simulated
    /// system would have nowhere to queue work, so such plans are
    /// rejected up front. Raised by the crash (or partition) that would
    /// leave zero backends both alive *and* reachable.
    AllBackendsDown {
        /// Index of the crash that kills the last backend.
        index: usize,
    },
    /// A gray-failure factor is NaN, infinite or below 1.
    BadDegradeFactor {
        /// Offending event index.
        index: usize,
    },
    /// A backend degrades while already inside a gray window.
    DoubleDegrade {
        /// Offending event index.
        index: usize,
        /// The backend degraded twice.
        backend: usize,
    },
    /// A backend is restored without an open gray window.
    RestoreHealthy {
        /// Offending event index.
        index: usize,
        /// The backend restored while healthy.
        backend: usize,
    },
    /// A partition event names an id with no registered side.
    UnknownPartition {
        /// Offending event index.
        index: usize,
        /// The unregistered partition id.
        id: u32,
    },
    /// A partition side is empty, unsorted, out of range, or covers the
    /// whole cluster (cutting everything is [`Self::AllBackendsDown`] in
    /// disguise and is rejected structurally).
    BadPartitionSide {
        /// The malformed side's id.
        id: u32,
    },
    /// A partition activates while already active.
    DoublePartition {
        /// Offending event index.
        index: usize,
        /// The partition activated twice.
        id: u32,
    },
    /// A partition would cut a backend another active partition has
    /// already cut — overlapping concurrent cuts are ambiguous to heal.
    OverlappingPartitions {
        /// Offending event index.
        index: usize,
        /// The doubly-cut backend.
        backend: usize,
    },
    /// A heal names a partition that is not active.
    HealUnpartitioned {
        /// Offending event index.
        index: usize,
        /// The inactive partition id.
        id: u32,
    },
}

impl std::fmt::Display for InvalidFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidFaultPlan::UnknownBackend {
                index,
                backend,
                n_backends,
            } => write!(
                f,
                "event {index}: backend {backend} outside cluster of {n_backends}"
            ),
            InvalidFaultPlan::Unsorted { index } => {
                write!(f, "event {index} is earlier than its predecessor")
            }
            InvalidFaultPlan::NonFinite { index } => {
                write!(f, "event {index} has a negative or non-finite time/cost")
            }
            InvalidFaultPlan::DoubleCrash { index, backend } => {
                write!(f, "event {index}: backend {backend} crashes while down")
            }
            InvalidFaultPlan::RecoverAlive { index, backend } => {
                write!(f, "event {index}: backend {backend} recovers while up")
            }
            InvalidFaultPlan::AllBackendsDown { index } => {
                write!(f, "event {index} would take the last live backend down")
            }
            InvalidFaultPlan::BadDegradeFactor { index } => {
                write!(f, "event {index} has a non-finite or sub-1 degrade factor")
            }
            InvalidFaultPlan::DoubleDegrade { index, backend } => {
                write!(
                    f,
                    "event {index}: backend {backend} degrades while degraded"
                )
            }
            InvalidFaultPlan::RestoreHealthy { index, backend } => {
                write!(f, "event {index}: backend {backend} restored while healthy")
            }
            InvalidFaultPlan::UnknownPartition { index, id } => {
                write!(f, "event {index}: partition {id} has no registered side")
            }
            InvalidFaultPlan::BadPartitionSide { id } => {
                write!(
                    f,
                    "partition {id}: side must be non-empty, strictly sorted, \
                     in range and smaller than the cluster"
                )
            }
            InvalidFaultPlan::DoublePartition { index, id } => {
                write!(f, "event {index}: partition {id} activates while active")
            }
            InvalidFaultPlan::OverlappingPartitions { index, backend } => {
                write!(
                    f,
                    "event {index}: backend {backend} is already cut by another partition"
                )
            }
            InvalidFaultPlan::HealUnpartitioned { index, id } => {
                write!(f, "event {index}: partition {id} healed while inactive")
            }
        }
    }
}

impl std::error::Error for InvalidFaultPlan {}

/// Knobs for [`FaultPlan::from_seed`].
#[derive(Debug, Clone, Copy)]
pub struct FaultInjectionConfig {
    /// Crash events to attempt (invalid candidates — already-dead
    /// backend, would violate `min_alive` — are dropped, so the realized
    /// plan may contain fewer).
    pub crashes: usize,
    /// Whether each crash schedules a matching recovery.
    pub recover: bool,
    /// Mean time to recovery in seconds (each realized delay is jittered
    /// in `[0.5, 1.5) × mttr`).
    pub mttr: f64,
    /// Never take the cluster below this many live backends (clamped to
    /// at least 1).
    pub min_alive: usize,
    /// Catch-up pause attached to every recovery, in seconds.
    pub catchup_cost: f64,
}

impl Default for FaultInjectionConfig {
    fn default() -> Self {
        Self {
            crashes: 1,
            recover: true,
            mttr: 5.0,
            min_alive: 1,
            catchup_cost: 1.0,
        }
    }
}

/// Knobs for [`FaultPlan::from_seed_layered`]: the crash layer reuses
/// [`FaultInjectionConfig`] verbatim, then gray windows, partitions and
/// correlated zone failures stack on top. With every non-crash layer at
/// zero the generated plan equals [`FaultPlan::from_seed`]'s exactly.
#[derive(Debug, Clone, Copy)]
pub struct LayeredFaultConfig {
    /// The independent crash/recover layer (drawn first, so crash-only
    /// layered plans are bit-identical to `from_seed`).
    pub crashes: FaultInjectionConfig,
    /// Gray-failure windows to attempt.
    pub gray: usize,
    /// Half-open `[lo, hi)` range the degrade factor is drawn from
    /// (clamped to at least 1).
    pub gray_factor: (f64, f64),
    /// Mean gray-window length in seconds (each realized length is
    /// jittered in `[0.5, 1.5) × gray_duration`).
    pub gray_duration: f64,
    /// Partition episodes to attempt; each cuts a uniformly drawn
    /// proper subset of backends and heals after a jittered duration.
    pub partitions: usize,
    /// Mean partition length in seconds (jittered like gray windows).
    pub partition_duration: f64,
    /// Zones backends are striped over (`zone(b) = b % zones`); `< 2`
    /// disables the zone layer.
    pub zones: usize,
    /// Correlated zone failures to attempt: one draw crashes every
    /// backend of the drawn zone at the same instant.
    pub zone_failures: usize,
    /// Mean time to zone recovery in seconds (jittered like `mttr`).
    pub zone_mttr: f64,
}

impl Default for LayeredFaultConfig {
    fn default() -> Self {
        Self {
            crashes: FaultInjectionConfig::default(),
            gray: 1,
            gray_factor: (1.5, 4.0),
            gray_duration: 5.0,
            partitions: 1,
            partition_duration: 5.0,
            zones: 0,
            zone_failures: 0,
            zone_mttr: 5.0,
        }
    }
}

/// A validated, time-ordered fault schedule for a cluster of
/// `n_backends`, plus the backend sides of its network partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    n_backends: usize,
    partition_sides: Vec<Vec<usize>>,
}

impl FaultPlan {
    /// Validates an explicit event list with no partition events: times
    /// non-decreasing and finite, backends in range, crash/recover and
    /// degrade/restore alternating per backend, and at least one backend
    /// alive at every instant.
    pub fn new(events: Vec<FaultEvent>, n_backends: usize) -> Result<FaultPlan, InvalidFaultPlan> {
        FaultPlan::with_partitions(events, n_backends, Vec::new())
    }

    /// Validates an explicit event list against a partition-side table:
    /// `Partition { id }` cuts `partition_sides[id]`. On top of
    /// [`FaultPlan::new`]'s invariants: sides are non-empty, strictly
    /// sorted, in-range, proper subsets of the cluster; partitions
    /// activate/heal alternately, never overlap on a backend, and never
    /// leave the cluster with zero backends both alive and reachable.
    pub fn with_partitions(
        events: Vec<FaultEvent>,
        n_backends: usize,
        partition_sides: Vec<Vec<usize>>,
    ) -> Result<FaultPlan, InvalidFaultPlan> {
        for (id, side) in partition_sides.iter().enumerate() {
            let sorted = side.windows(2).all(|w| w[0] < w[1]);
            let in_range = side.iter().all(|&b| b < n_backends);
            if side.is_empty() || side.len() >= n_backends || !sorted || !in_range {
                return Err(InvalidFaultPlan::BadPartitionSide { id: id as u32 });
            }
        }
        let mut alive = vec![true; n_backends];
        let mut cut = vec![false; n_backends];
        let mut degraded = vec![false; n_backends];
        let mut active = vec![false; partition_sides.len()];
        // Backends both alive and reachable — the set routing can use.
        let mut routable = n_backends;
        let mut last_t = 0.0f64;
        for (index, e) in events.iter().enumerate() {
            if let Some(b) = e.backend() {
                if b >= n_backends {
                    return Err(InvalidFaultPlan::UnknownBackend {
                        index,
                        backend: b,
                        n_backends,
                    });
                }
            }
            let finite = match *e {
                FaultEvent::Recover {
                    at, catchup_cost, ..
                } => at.is_finite() && at >= 0.0 && catchup_cost.is_finite() && catchup_cost >= 0.0,
                _ => e.at().is_finite() && e.at() >= 0.0,
            };
            if !finite {
                return Err(InvalidFaultPlan::NonFinite { index });
            }
            if e.at() < last_t {
                return Err(InvalidFaultPlan::Unsorted { index });
            }
            last_t = e.at();
            match *e {
                FaultEvent::Crash { backend, .. } => {
                    if !alive[backend] {
                        return Err(InvalidFaultPlan::DoubleCrash { index, backend });
                    }
                    if !cut[backend] {
                        if routable == 1 {
                            return Err(InvalidFaultPlan::AllBackendsDown { index });
                        }
                        routable -= 1;
                    }
                    alive[backend] = false;
                }
                FaultEvent::Recover { backend, .. } => {
                    if alive[backend] {
                        return Err(InvalidFaultPlan::RecoverAlive { index, backend });
                    }
                    alive[backend] = true;
                    if !cut[backend] {
                        routable += 1;
                    }
                }
                FaultEvent::Degrade {
                    backend, factor, ..
                } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(InvalidFaultPlan::BadDegradeFactor { index });
                    }
                    if degraded[backend] {
                        return Err(InvalidFaultPlan::DoubleDegrade { index, backend });
                    }
                    degraded[backend] = true;
                }
                FaultEvent::Restore { backend, .. } => {
                    if !degraded[backend] {
                        return Err(InvalidFaultPlan::RestoreHealthy { index, backend });
                    }
                    degraded[backend] = false;
                }
                FaultEvent::Partition { id, .. } => {
                    let Some(side) = partition_sides.get(id as usize) else {
                        return Err(InvalidFaultPlan::UnknownPartition { index, id });
                    };
                    if active[id as usize] {
                        return Err(InvalidFaultPlan::DoublePartition { index, id });
                    }
                    if let Some(&backend) = side.iter().find(|&&m| cut[m]) {
                        return Err(InvalidFaultPlan::OverlappingPartitions { index, backend });
                    }
                    let losing = side.iter().filter(|&&m| alive[m]).count();
                    if routable == losing {
                        return Err(InvalidFaultPlan::AllBackendsDown { index });
                    }
                    routable -= losing;
                    for &m in side {
                        cut[m] = true;
                    }
                    active[id as usize] = true;
                }
                FaultEvent::Heal { id, .. } => {
                    let Some(side) = partition_sides.get(id as usize) else {
                        return Err(InvalidFaultPlan::UnknownPartition { index, id });
                    };
                    if !active[id as usize] {
                        return Err(InvalidFaultPlan::HealUnpartitioned { index, id });
                    }
                    routable += side.iter().filter(|&&m| alive[m]).count();
                    for &m in side {
                        cut[m] = false;
                    }
                    active[id as usize] = false;
                }
            }
        }
        Ok(FaultPlan {
            events,
            n_backends,
            partition_sides,
        })
    }

    /// Sorts candidates by `(time, variant rank, backend/id)` and runs
    /// them through the liveness state machine, dropping candidates that
    /// would not validate (already-dead backend, would breach
    /// `min_alive` routable backends, overlapping windows/partitions).
    /// Dropped starts naturally drop their matching ends. Shared by both
    /// seeded generators so the crash layer filters identically.
    fn finish_seeded(
        mut cand: Vec<FaultEvent>,
        n_backends: usize,
        partition_sides: Vec<Vec<usize>>,
        min_alive: usize,
    ) -> FaultPlan {
        cand.sort_by_key(FaultEvent::sort_key);
        let min_alive = min_alive.max(1);
        let mut alive = vec![true; n_backends];
        let mut cut = vec![false; n_backends];
        let mut degraded = vec![false; n_backends];
        let mut active = vec![false; partition_sides.len()];
        let mut routable = n_backends;
        let mut events = Vec::with_capacity(cand.len());
        for e in cand {
            match e {
                FaultEvent::Crash { backend, .. } => {
                    if alive[backend] && (cut[backend] || routable > min_alive) {
                        alive[backend] = false;
                        if !cut[backend] {
                            routable -= 1;
                        }
                        events.push(e);
                    }
                }
                FaultEvent::Recover { backend, .. } => {
                    if !alive[backend] {
                        alive[backend] = true;
                        if !cut[backend] {
                            routable += 1;
                        }
                        events.push(e);
                    }
                }
                FaultEvent::Degrade { backend, .. } => {
                    if !degraded[backend] {
                        degraded[backend] = true;
                        events.push(e);
                    }
                }
                FaultEvent::Restore { backend, .. } => {
                    if degraded[backend] {
                        degraded[backend] = false;
                        events.push(e);
                    }
                }
                FaultEvent::Partition { id, .. } => {
                    let side = &partition_sides[id as usize];
                    let losing = side.iter().filter(|&&m| alive[m] && !cut[m]).count();
                    if !active[id as usize]
                        && side.iter().all(|&m| !cut[m])
                        && routable - losing >= min_alive
                    {
                        routable -= losing;
                        for &m in side {
                            cut[m] = true;
                        }
                        active[id as usize] = true;
                        events.push(e);
                    }
                }
                FaultEvent::Heal { id, .. } => {
                    if active[id as usize] {
                        let side = &partition_sides[id as usize];
                        routable += side.iter().filter(|&&m| alive[m]).count();
                        for &m in side {
                            cut[m] = false;
                        }
                        active[id as usize] = false;
                        events.push(e);
                    }
                }
            }
        }
        FaultPlan::with_partitions(events, n_backends, partition_sides)
            .expect("state-machine-filtered plan is valid")
    }

    /// Derives a valid plan from a seed: `cfg.crashes` candidate crash
    /// times uniform in `[0.1, 0.9) × duration` on uniformly drawn
    /// backends, each optionally paired with a jittered recovery, then
    /// filtered through the crash/recover state machine so the result
    /// always validates. The RNG consumption is independent of which
    /// candidates survive, so plans are stable under config tweaks that
    /// do not change the draw count.
    pub fn from_seed(
        seed: u64,
        n_backends: usize,
        duration: f64,
        cfg: &FaultInjectionConfig,
    ) -> FaultPlan {
        assert!(n_backends > 0, "need at least one backend");
        assert!(duration > 0.0 && duration.is_finite());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cand = draw_crashes(&mut rng, n_backends, duration, cfg);
        FaultPlan::finish_seeded(cand, n_backends, Vec::new(), cfg.min_alive)
    }

    /// Derives a **layered** adversary from a seed: the crash layer is
    /// drawn first with exactly [`FaultPlan::from_seed`]'s draws (so a
    /// crash-only `LayeredFaultConfig` reproduces that plan bit for
    /// bit), then gray windows, partition episodes and correlated zone
    /// failures. Every layer draws a fixed number of RNG values per
    /// attempted event — partition membership spends `n_backends` key
    /// draws regardless of the realized side size — so plans are stable
    /// under config tweaks that do not change the draw counts.
    pub fn from_seed_layered(
        seed: u64,
        n_backends: usize,
        duration: f64,
        cfg: &LayeredFaultConfig,
    ) -> FaultPlan {
        assert!(n_backends > 0, "need at least one backend");
        assert!(duration > 0.0 && duration.is_finite());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cand = draw_crashes(&mut rng, n_backends, duration, &cfg.crashes);

        for _ in 0..cfg.gray {
            let at = duration * rng.gen_range(0.1..0.9);
            let backend = rng.gen_range(0..n_backends);
            let (lo, hi) = (cfg.gray_factor.0.max(1.0), cfg.gray_factor.1.max(1.0));
            let factor = if hi > lo { rng.gen_range(lo..hi) } else { lo };
            let len = cfg.gray_duration.max(0.0) * rng.gen_range(0.5..1.5);
            cand.push(FaultEvent::Degrade {
                backend,
                at,
                factor,
            });
            cand.push(FaultEvent::Restore {
                backend,
                at: at + len,
            });
        }

        let mut sides: Vec<Vec<usize>> = Vec::with_capacity(cfg.partitions);
        if n_backends > 1 {
            for _ in 0..cfg.partitions {
                let at = duration * rng.gen_range(0.1..0.9);
                let len = cfg.partition_duration.max(0.0) * rng.gen_range(0.5..1.5);
                let size = rng.gen_range(1..n_backends);
                // Fixed draw count: rank every backend, cut the `size`
                // lowest keys — the side size never changes how much RNG
                // the episode consumes.
                let mut keys: Vec<(u64, usize)> = (0..n_backends)
                    .map(|b| (rng.gen_range(0..=u64::MAX), b))
                    .collect();
                keys.sort_unstable();
                let mut side: Vec<usize> = keys[..size].iter().map(|&(_, b)| b).collect();
                side.sort_unstable();
                let id = sides.len() as u32;
                sides.push(side);
                cand.push(FaultEvent::Partition { id, at });
                cand.push(FaultEvent::Heal { id, at: at + len });
            }
        }

        if cfg.zones >= 2 {
            for _ in 0..cfg.zone_failures {
                let at = duration * rng.gen_range(0.1..0.9);
                let zone = rng.gen_range(0..cfg.zones);
                let delay = cfg.zone_mttr.max(0.0) * rng.gen_range(0.5..1.5);
                for backend in (0..n_backends).filter(|b| b % cfg.zones == zone) {
                    cand.push(FaultEvent::Crash { backend, at });
                    cand.push(FaultEvent::Recover {
                        backend,
                        at: at + delay,
                        catchup_cost: cfg.crashes.catchup_cost.max(0.0),
                    });
                }
            }
        }

        FaultPlan::finish_seeded(cand, n_backends, sides, cfg.crashes.min_alive)
    }

    /// The validated events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The cluster size the plan was validated against.
    pub fn n_backends(&self) -> usize {
        self.n_backends
    }

    /// The registered partition sides, indexed by partition id.
    pub fn partition_sides(&self) -> &[Vec<usize>] {
        &self.partition_sides
    }

    /// The backends partition `id` cuts off.
    pub fn partition_side(&self, id: u32) -> &[usize] {
        &self.partition_sides[id as usize]
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan schedules nothing (the driver then reduces to
    /// plain open-loop behaviour).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The crash layer's candidate draws — shared verbatim by
/// [`FaultPlan::from_seed`] and [`FaultPlan::from_seed_layered`] so
/// both consume the RNG identically.
fn draw_crashes(
    rng: &mut ChaCha8Rng,
    n_backends: usize,
    duration: f64,
    cfg: &FaultInjectionConfig,
) -> Vec<FaultEvent> {
    let mut cand: Vec<FaultEvent> = Vec::with_capacity(cfg.crashes * 2);
    for _ in 0..cfg.crashes {
        let at = duration * rng.gen_range(0.1..0.9);
        let backend = rng.gen_range(0..n_backends);
        cand.push(FaultEvent::Crash { backend, at });
        if cfg.recover {
            let delay = cfg.mttr.max(0.0) * rng.gen_range(0.5..1.5);
            cand.push(FaultEvent::Recover {
                backend,
                at: at + delay,
                catchup_cost: cfg.catchup_cost.max(0.0),
            });
        }
    }
    cand
}

/// Driver knobs for [`run_open_faults`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// ETL throughput model pricing the online repair's data movement
    /// (Eq. 27 bytes through the Figure 4(d) phases).
    pub etl: EtlCostModel,
    /// Safety level an online repair restores: every class becomes
    /// processable by `min(repair_k + 1, survivors)` backends.
    pub repair_k: usize,
}

/// Why [`reroute`] could not produce a routing table. Callers keep the
/// previous scheduler (a deterministic degraded mode) and the failure
/// is tallied in [`RepairTally::failures`] — the chaos harness asserts
/// it never actually happens under generated plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteError {
    /// No backend is both alive and reachable — nothing to repair onto.
    NoRoutableBackend,
    /// The online repair ran but some weighted class still has no
    /// capable routable backend.
    RepairIncomplete,
}

impl std::fmt::Display for RerouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RerouteError::NoRoutableBackend => {
                write!(f, "no backend is both alive and reachable")
            }
            RerouteError::RepairIncomplete => {
                write!(f, "online repair left a weighted class unroutable")
            }
        }
    }
}

impl std::error::Error for RerouteError {}

/// Running account of [`reroute`]'s online repairs across a fault run.
#[derive(Debug, Clone)]
pub(crate) struct RepairTally {
    /// Online repairs triggered by unroutable classes.
    pub repairs: usize,
    /// Total seconds the survivors were paused for repair ETL.
    pub pause_secs: f64,
    /// Total bytes the repairs re-replicated (Eq. 27).
    pub moved_bytes: u64,
    /// Reroutes that returned [`RerouteError`].
    pub failures: usize,
    /// False once any post-repair allocation missed the
    /// `min(repair_k, survivors − 1)` safety level.
    pub safety_ok: bool,
    /// Emit obs counters/events (sharded component replays pass false
    /// so the merged run publishes once).
    pub publish: bool,
}

impl RepairTally {
    pub(crate) fn new(publish: bool) -> Self {
        RepairTally {
            repairs: 0,
            pause_secs: 0.0,
            moved_bytes: 0,
            failures: 0,
            safety_ok: true,
            publish,
        }
    }
}

/// Rebuilds routing for the current reachability (`routable[b]` = alive
/// and not partitioned away), repairing the allocation online when a
/// weighted class lost its last routable replica. Called by the
/// fault-aware loop after every event that changes reachability.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reroute(
    at: f64,
    current: &mut Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    routable: &[bool],
    fcfg: &FaultConfig,
    free_at: &mut [f64],
    tally: &mut RepairTally,
) -> Result<Scheduler, RerouteError> {
    let failed: Vec<usize> = (0..routable.len()).filter(|&b| !routable[b]).collect();
    if failed.is_empty() {
        return Ok(Scheduler::new(current, cls));
    }
    if let Some(s) = Scheduler::for_survivors(current, cls, cluster, &failed) {
        return Ok(s);
    }
    // Some weighted class has no capable survivor: repair the
    // surviving sub-allocation and graft the grown fragment sets
    // back into the full-width allocation.
    tally.repairs += 1;
    let survivors: Vec<usize> = (0..routable.len()).filter(|&b| routable[b]).collect();
    let failed_ids: Vec<BackendId> = failed.iter().map(|&b| BackendId(b as u32)).collect();
    let Some(surv_cluster) = ksafety::surviving_cluster(cluster, &failed_ids) else {
        tally.failures += 1;
        return Err(RerouteError::NoRoutableBackend);
    };
    let mut restricted = current.restrict(&survivors);
    let report = ksafety::repair_report(&mut restricted, cls, &surv_cluster, fcfg.repair_k);
    let want = fcfg.repair_k.min(surv_cluster.len().saturating_sub(1));
    if ksafety::class_safety(&restricted, cls) < want {
        tally.safety_ok = false;
    }
    let before = current.clone();
    for (nb, &b) in survivors.iter().enumerate() {
        current.fragments[b] = restricted.fragments[nb].clone();
    }
    // Price the movement with Eq. 27 against the pre-repair state
    // and the Figure 4(d) ETL phase model: serial preparation plus
    // the slowest node's transfer + load.
    let per_node: Vec<u64> = survivors
        .iter()
        .map(|&b| move_cost(current, b, &before, b, catalog))
        .collect();
    let moved: u64 = per_node.iter().sum();
    let pause = if moved == 0 {
        0.0
    } else {
        let slowest = per_node
            .iter()
            .map(|&bytes| {
                bytes as f64 / fcfg.etl.transfer_bytes_per_sec
                    + bytes as f64 / fcfg.etl.load_bytes_per_sec
            })
            .fold(0.0, f64::max);
        fcfg.etl.fixed_overhead_secs + moved as f64 / fcfg.etl.prep_bytes_per_sec + slowest
    };
    for &b in &survivors {
        free_at[b] = free_at[b].max(at) + pause;
    }
    tally.pause_secs += pause;
    tally.moved_bytes += moved;
    if tally.publish {
        qcpa_obs::global().counter("sim.fault.repairs").inc();
        qcpa_obs::event!(qcpa_obs::Level::Info, "sim.fault", "repair", {
            "at" => at,
            "moved_bytes" => moved,
            "pause_secs" => pause,
            "grants" => report.grants,
        });
    }
    match Scheduler::for_survivors(current, cls, cluster, &failed) {
        Some(s) => Ok(s),
        None => {
            tally.failures += 1;
            Err(RerouteError::RepairIncomplete)
        }
    }
}

/// Result of an open-loop run under a fault plan.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// `(arrival, response)` per completed request, in arrival order.
    /// Responses of re-queued requests span their full lifetime — from
    /// the original arrival to the final completion after the crash.
    pub responses: Vec<(f64, f64)>,
    /// Mean response time in seconds.
    pub mean_response: f64,
    /// 95th percentile response time (nearest-rank, as in
    /// [`crate::engine::run_open`]).
    pub p95_response: f64,
    /// Per-backend busy seconds — only work actually performed: the
    /// unexecuted remainder of voided legs is refunded.
    pub busy: Vec<f64>,
    /// Per-backend utilization over the observation window.
    pub utilization: Vec<f64>,
    /// Requests that completed (every request, unless a zero-weight
    /// class lost all replicas and nothing repaired it).
    pub completed: usize,
    /// Requests that never completed.
    pub lost: usize,
    /// Requests re-queued by crashes (counted once per re-dispatch).
    pub redispatched: usize,
    /// Crash events applied.
    pub crashes: usize,
    /// Recovery events applied.
    pub recoveries: usize,
    /// Online repairs triggered by unroutable classes.
    pub repairs: usize,
    /// Total seconds the survivors were paused for repair ETL.
    pub repair_pause_secs: f64,
    /// Total bytes the repairs re-replicated (Eq. 27).
    pub repair_moved_bytes: u64,
    /// Gray-failure windows opened ([`FaultEvent::Degrade`] applied).
    pub gray_windows: usize,
    /// Network partitions activated.
    pub partitions: usize,
    /// Network partitions healed.
    pub heals: usize,
    /// Reroutes that failed even after online repair (the run keeps the
    /// previous routing table; zero under every generated plan).
    pub reroute_failures: usize,
    /// False if any online repair left a weighted class below the
    /// `min(repair_k, survivors − 1)` safety level.
    pub post_repair_safety_ok: bool,
    /// `(time, routable backends)` after each applied fault event,
    /// starting with `(0, n)` — the nodes-available timeline of the
    /// availability figure. A backend counts while it is both alive and
    /// not cut off by a partition, so for crash-only plans this is the
    /// live-backend timeline it always was.
    pub availability: Vec<(f64, usize)>,
}

impl FaultReport {
    /// The lowest number of simultaneously live backends.
    pub fn min_alive(&self) -> usize {
        self.availability.iter().map(|&(_, n)| n).min().unwrap_or(0)
    }

    /// The worst response time (the availability gap a crash opens).
    pub fn max_response(&self) -> f64 {
        self.responses.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }
}

/// Event-level statistics of a fault-driven run — everything applying
/// the plan's events accumulates. Under a sharded run every component
/// applies the full event schedule, so these are identical across
/// components.
#[derive(Debug, Clone)]
pub(crate) struct FaultStats {
    pub crashes: usize,
    pub recoveries: usize,
    pub gray_windows: usize,
    pub partitions: usize,
    pub heals: usize,
    pub tally: RepairTally,
    pub availability: Vec<(f64, usize)>,
}

impl FaultStats {
    pub(crate) fn new(n: usize, publish: bool) -> Self {
        FaultStats {
            crashes: 0,
            recoveries: 0,
            gray_windows: 0,
            partitions: 0,
            heals: 0,
            tally: RepairTally::new(publish),
            availability: vec![(0.0, n)],
        }
    }
}

/// Runs timed arrivals through the scheduler while applying `plan`'s
/// crashes and recoveries. Requests must be sorted by arrival time;
/// fault events scheduled at or before an arrival are applied first, and
/// events past the last arrival are drained at the end (they can still
/// void queued work). With an empty plan the responses equal
/// [`crate::engine::run_open`]'s exactly.
#[allow(clippy::too_many_arguments)]
pub fn run_open_faults(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    plan: &FaultPlan,
    fcfg: &FaultConfig,
) -> FaultReport {
    run_open_faults_traced(
        alloc,
        cls,
        cluster,
        catalog,
        requests,
        warmup_backlog,
        cfg,
        plan,
        fcfg,
        None,
    )
}

/// [`run_open_faults`] with causal tracing: the tracer records the
/// resilient core's span shape (see
/// [`crate::resilience::run_open_resilient_traced`]) — a `request` root
/// per sampled request with one `leg` span per dispatch, and fault
/// events and re-dispatches as instant marks on a dedicated track
/// (`tid` = cluster size).
#[allow(clippy::too_many_arguments)]
pub fn run_open_faults_traced(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    plan: &FaultPlan,
    fcfg: &FaultConfig,
    tracer: Option<&mut qcpa_obs::Tracer>,
) -> FaultReport {
    let _span = qcpa_obs::span("sim", "run_open_faults");
    let run = FaultRun {
        alloc,
        cls,
        cluster,
        catalog,
        warmup_backlog,
        cfg,
        plan,
        fcfg,
        rcfg: &ResilienceConfig::default(),
    };
    assemble_fault_report(
        requests,
        resilient_core(&run, requests, None, tracer, true).finish(),
    )
}

/// Projects a resilient core run with every mechanism off
/// ([`ResilienceConfig::default`]) onto the public [`FaultReport`]. The
/// histogram, mean and p95 replay in global arrival order, so a merge
/// of per-component cores projects to the unsharded report bit for bit.
/// Publishes the run's `sim.fault.*` counters.
pub(crate) fn assemble_fault_report(requests: &[Request], core: RCore) -> FaultReport {
    let RCore {
        finals,
        busy,
        tally,
        stats,
        ..
    } = core;
    let mut responses = Vec::with_capacity(finals.len());
    let mut resp_hist = qcpa_obs::Histogram::new();
    for &(arrival, _, fin) in &finals {
        if let RFinal::Completed(end) = fin {
            resp_hist.record(end - arrival);
            responses.push((arrival, end - arrival));
        }
    }
    // Nothing is shed without a queue bound, and with a zero retry
    // budget a request times out only by finding no capable backend —
    // both terminal states are what this report calls lost.
    let lost = finals.len() - responses.len();

    let mut resp: Vec<f64> = responses.iter().map(|&(_, r)| r).collect();
    let mean_response = if resp.is_empty() {
        0.0
    } else {
        resp.iter().sum::<f64>() / resp.len() as f64
    };
    let p95_response = nearest_rank(&mut resp, 0.95);
    let window = requests.last().map(|r| r.arrival).unwrap_or(0.0).max(1e-9);
    let utilization: Vec<f64> = busy.iter().map(|b| b / window).collect();

    let reg = qcpa_obs::global();
    reg.counter("sim.fault.requests").add(requests.len() as u64);
    reg.counter("sim.fault.lost").add(lost as u64);
    reg.counter("sim.fault.redispatched")
        .add(tally.redispatched as u64);
    reg.counter("sim.fault.crashes").add(stats.crashes as u64);
    reg.counter("sim.fault.recoveries")
        .add(stats.recoveries as u64);
    reg.counter("sim.fault.gray_windows")
        .add(stats.gray_windows as u64);
    reg.counter("sim.fault.partitions")
        .add(stats.partitions as u64);
    reg.merge_histogram("sim.fault.response_secs", &resp_hist);

    FaultReport {
        completed: responses.len(),
        responses,
        mean_response,
        p95_response,
        busy,
        utilization,
        lost,
        redispatched: tally.redispatched,
        crashes: stats.crashes,
        recoveries: stats.recoveries,
        repairs: stats.tally.repairs,
        repair_pause_secs: stats.tally.pause_secs,
        repair_moved_bytes: stats.tally.moved_bytes,
        gray_windows: stats.gray_windows,
        partitions: stats.partitions,
        heals: stats.heals,
        reroute_failures: stats.tally.failures,
        post_repair_safety_ok: stats.tally.safety_ok,
        availability: stats.availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_open;
    use crate::request::RequestStream;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;
    use qcpa_core::journal::QueryKind;

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

    #[test]
    fn empty_plan_matches_run_open_exactly() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let reqs = stream.sample_poisson(80.0, 30.0, 0.0, &mut rng);
        let cfg = SimConfig::default();
        let base = run_open(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg);
        let plan = FaultPlan::new(Vec::new(), 3).unwrap();
        let rep = run_open_faults(
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
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.responses.len(), base.responses.len());
        for (f, o) in rep.responses.iter().zip(&base.responses) {
            assert_eq!(f.0.to_bits(), o.0.to_bits());
            assert_eq!(f.1.to_bits(), o.1.to_bits(), "at arrival {}", f.0);
        }
        for (f, o) in rep.busy.iter().zip(&base.busy) {
            assert!((f - o).abs() < 1e-9);
        }
    }

    #[test]
    fn seeded_plan_is_bit_identical_across_reruns() {
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
        let plan_a = FaultPlan::from_seed(99, 4, 40.0, &fic);
        let plan_b = FaultPlan::from_seed(99, 4, 40.0, &fic);
        assert_eq!(plan_a, plan_b);
        assert!(!plan_a.is_empty());
        let run = |plan: &FaultPlan| {
            run_open_faults(
                &alloc,
                &cls,
                &cluster,
                &cat,
                &reqs,
                0.0,
                &cfg,
                plan,
                &FaultConfig::default(),
            )
        };
        let ra = run(&plan_a);
        let rb = run(&plan_b);
        assert_eq!(ra.responses.len(), rb.responses.len());
        for (x, y) in ra.responses.iter().zip(&rb.responses) {
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(ra.crashes, rb.crashes);
        assert_eq!(ra.availability, rb.availability);
    }

    #[test]
    fn crash_without_spare_replica_triggers_repair() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        // Backend 0 is the sole replica of table A: crashing it strands
        // the weighted read/update classes on A until repair.
        let frags: Vec<qcpa_core::fragment::FragmentId> =
            cat.fragments().iter().map(|f| f.id).collect();
        let (a, b) = (frags[0], frags[1]);
        let mut alloc = Allocation::empty(cls.len(), 3);
        alloc.fragments[0].insert(a);
        alloc.fragments[1].insert(b);
        alloc.fragments[2].insert(b);
        alloc.assign[0][0] = 0.45;
        alloc.assign[1][1] = 0.20;
        alloc.assign[1][2] = 0.15;
        alloc.assign[2][0] = 0.20;
        alloc.validate(&cls, &cluster).unwrap();
        assert_eq!(ksafety::class_safety(&alloc, &cls), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let reqs = stream.sample_poisson(60.0, 30.0, 0.0, &mut rng);
        let plan = FaultPlan::new(
            vec![
                FaultEvent::Crash {
                    backend: 0,
                    at: 10.0,
                },
                FaultEvent::Recover {
                    backend: 0,
                    at: 14.0,
                    catchup_cost: 0.5,
                },
            ],
            3,
        )
        .unwrap();
        let rep = run_open_faults(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
            &plan,
            &FaultConfig::default(),
        );
        assert_eq!(rep.lost, 0, "repair keeps every request completable");
        assert_eq!(rep.repairs, 1, "the sole-replica crash must repair");
        assert!(rep.repair_moved_bytes > 0);
        assert!(rep.repair_pause_secs > 0.0);
        assert_eq!(rep.crashes, 1);
        assert_eq!(rep.recoveries, 1);
        assert_eq!(rep.min_alive(), 2);
    }

    #[test]
    fn plan_validation_rejects_bad_schedules() {
        use InvalidFaultPlan as E;
        let crash = |backend, at| FaultEvent::Crash { backend, at };
        let recover = |backend, at| FaultEvent::Recover {
            backend,
            at,
            catchup_cost: 0.0,
        };
        assert!(matches!(
            FaultPlan::new(vec![crash(5, 1.0)], 3),
            Err(E::UnknownBackend { backend: 5, .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![crash(0, 2.0), crash(1, 1.0)], 3),
            Err(E::Unsorted { index: 1 })
        ));
        assert!(matches!(
            FaultPlan::new(vec![crash(0, f64::NAN)], 3),
            Err(E::NonFinite { index: 0 })
        ));
        assert!(matches!(
            FaultPlan::new(vec![crash(0, 1.0), crash(0, 2.0)], 3),
            Err(E::DoubleCrash { backend: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![recover(0, 1.0)], 3),
            Err(E::RecoverAlive { backend: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![crash(0, 1.0)], 1),
            Err(E::AllBackendsDown { index: 0 })
        ));
        // A correct crash/recover cycle validates.
        assert!(FaultPlan::new(vec![crash(0, 1.0), recover(0, 2.0), crash(0, 3.0)], 2).is_ok());
    }

    #[test]
    fn from_seed_respects_min_alive() {
        for seed in 0..20 {
            let plan = FaultPlan::from_seed(
                seed,
                4,
                100.0,
                &FaultInjectionConfig {
                    crashes: 8,
                    recover: false,
                    min_alive: 2,
                    ..Default::default()
                },
            );
            let mut n_alive = 4i64;
            for e in plan.events() {
                match e {
                    FaultEvent::Crash { .. } => n_alive -= 1,
                    FaultEvent::Recover { .. } => n_alive += 1,
                    _ => {}
                }
                assert!(n_alive >= 2, "seed {seed}");
            }
        }
    }

    #[test]
    fn crash_only_layered_plan_equals_from_seed() {
        let fic = FaultInjectionConfig {
            crashes: 3,
            ..Default::default()
        };
        let layered = LayeredFaultConfig {
            crashes: fic,
            gray: 0,
            partitions: 0,
            zones: 0,
            zone_failures: 0,
            ..Default::default()
        };
        for seed in 0..20 {
            let a = FaultPlan::from_seed(seed, 4, 60.0, &fic);
            let b = FaultPlan::from_seed_layered(seed, 4, 60.0, &layered);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn layered_plan_is_deterministic_and_layered() {
        let cfg = LayeredFaultConfig {
            gray: 2,
            partitions: 1,
            zones: 2,
            zone_failures: 1,
            ..Default::default()
        };
        let a = FaultPlan::from_seed_layered(7, 5, 60.0, &cfg);
        let b = FaultPlan::from_seed_layered(7, 5, 60.0, &cfg);
        assert_eq!(a, b);
        let has = |p: &FaultPlan, f: fn(&FaultEvent) -> bool| p.events().iter().any(f);
        assert!(has(&a, |e| matches!(e, FaultEvent::Degrade { .. })));
        assert!(has(&a, |e| matches!(e, FaultEvent::Partition { .. })));
        assert!(has(&a, |e| matches!(e, FaultEvent::Crash { .. })));
        assert_eq!(a.partition_sides().len(), 1);
        // Every Degrade/Partition has its matching Restore/Heal kept.
        let count = |f: fn(&FaultEvent) -> bool| a.events().iter().filter(|e| f(e)).count();
        assert_eq!(
            count(|e| matches!(e, FaultEvent::Degrade { .. })),
            count(|e| matches!(e, FaultEvent::Restore { .. }))
        );
        assert_eq!(
            count(|e| matches!(e, FaultEvent::Partition { .. })),
            count(|e| matches!(e, FaultEvent::Heal { .. }))
        );
    }

    #[test]
    fn layered_validation_rejects_bad_schedules() {
        use InvalidFaultPlan as E;
        let degrade = |backend, at, factor| FaultEvent::Degrade {
            backend,
            at,
            factor,
        };
        let restore = |backend, at| FaultEvent::Restore { backend, at };
        assert!(matches!(
            FaultPlan::new(vec![degrade(0, 1.0, 0.5)], 3),
            Err(E::BadDegradeFactor { index: 0 })
        ));
        assert!(matches!(
            FaultPlan::new(vec![degrade(0, 1.0, 2.0), degrade(0, 2.0, 3.0)], 3),
            Err(E::DoubleDegrade { backend: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![restore(1, 1.0)], 3),
            Err(E::RestoreHealthy { backend: 1, .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![FaultEvent::Partition { id: 0, at: 1.0 }], 3),
            Err(E::UnknownPartition { id: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::with_partitions(Vec::new(), 3, vec![vec![0, 1, 2]]),
            Err(E::BadPartitionSide { id: 0 })
        ));
        assert!(matches!(
            FaultPlan::with_partitions(Vec::new(), 3, vec![vec![1, 0]]),
            Err(E::BadPartitionSide { id: 0 })
        ));
        let part = |id, at| FaultEvent::Partition { id, at };
        let heal = |id, at| FaultEvent::Heal { id, at };
        assert!(matches!(
            FaultPlan::with_partitions(vec![part(0, 1.0), part(0, 2.0)], 3, vec![vec![0]]),
            Err(E::DoublePartition { id: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::with_partitions(
                vec![part(0, 1.0), part(1, 2.0)],
                3,
                vec![vec![0], vec![0, 1]]
            ),
            Err(E::OverlappingPartitions { backend: 0, .. })
        ));
        assert!(matches!(
            FaultPlan::with_partitions(vec![heal(0, 1.0)], 3, vec![vec![0]]),
            Err(E::HealUnpartitioned { id: 0, .. })
        ));
        // Partitioning one side then crashing the rest strands routing.
        assert!(matches!(
            FaultPlan::with_partitions(
                vec![
                    part(0, 1.0),
                    FaultEvent::Crash {
                        backend: 2,
                        at: 2.0
                    }
                ],
                3,
                vec![vec![0, 1]]
            ),
            Err(E::AllBackendsDown { index: 1 })
        ));
        // A full gray window + partition episode validates.
        assert!(FaultPlan::with_partitions(
            vec![
                degrade(0, 1.0, 2.0),
                part(0, 2.0),
                heal(0, 3.0),
                restore(0, 4.0)
            ],
            3,
            vec![vec![1, 2]]
        )
        .is_ok());
    }

    #[test]
    fn gray_window_slows_only_window_dispatches() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let reqs = stream.sample_poisson(60.0, 30.0, 0.0, &mut rng);
        let cfg = SimConfig::default();
        let run = |events: Vec<FaultEvent>| {
            let plan = FaultPlan::new(events, 2).unwrap();
            run_open_faults(
                &alloc,
                &cls,
                &cluster,
                &cat,
                &reqs,
                0.0,
                &cfg,
                &plan,
                &FaultConfig::default(),
            )
        };
        let healthy = run(Vec::new());
        let grayed = run(vec![
            FaultEvent::Degrade {
                backend: 0,
                at: 5.0,
                factor: 4.0,
            },
            FaultEvent::Restore {
                backend: 0,
                at: 20.0,
            },
        ]);
        assert_eq!(grayed.gray_windows, 1);
        assert_eq!(grayed.lost, 0);
        assert_eq!(grayed.responses.len(), healthy.responses.len());
        assert!(
            grayed.mean_response > healthy.mean_response,
            "a 4x gray window must slow the run: {} vs {}",
            grayed.mean_response,
            healthy.mean_response
        );
        assert!(grayed.busy[0] > healthy.busy[0]);
    }

    #[test]
    fn partition_cuts_routing_without_voiding() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let reqs = stream.sample_poisson(60.0, 30.0, 0.0, &mut rng);
        let cfg = SimConfig::default();
        let plan = FaultPlan::with_partitions(
            vec![
                FaultEvent::Partition { id: 0, at: 4.0 },
                FaultEvent::Heal { id: 0, at: 18.0 },
            ],
            3,
            vec![vec![2]],
        )
        .unwrap();
        let rep = run_open_faults(
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
        assert_eq!(rep.partitions, 1);
        assert_eq!(rep.heals, 1);
        assert_eq!(rep.lost, 0, "cut replicas lose no requests");
        assert_eq!(rep.redispatched, 0, "a cut voids nothing");
        assert_eq!(rep.crashes, 0);
        assert_eq!(rep.min_alive(), 2, "availability tracks routable");
        assert!(rep.post_repair_safety_ok);
        assert_eq!(rep.reroute_failures, 0);
    }

    #[test]
    fn partition_before_first_arrival_heals_back_to_healthy_run() {
        let (cat, cls, stream) = workload();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = Allocation::full_replication(&cls, &cluster);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut reqs = stream.sample_poisson(60.0, 20.0, 0.0, &mut rng);
        // Shift all arrivals past the heal: the episode is over before
        // any request is routed, so the run equals the empty-plan run.
        for r in &mut reqs {
            r.arrival += 3.0;
        }
        let cfg = SimConfig::default();
        let empty = FaultPlan::new(Vec::new(), 3).unwrap();
        let base = run_open_faults(
            &alloc,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &cfg,
            &empty,
            &FaultConfig::default(),
        );
        let plan = FaultPlan::with_partitions(
            vec![
                FaultEvent::Partition { id: 0, at: 1.0 },
                FaultEvent::Heal { id: 0, at: 2.0 },
            ],
            3,
            vec![vec![0, 1]],
        )
        .unwrap();
        let healed = run_open_faults(
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
        assert_eq!(healed.responses.len(), base.responses.len());
        for (x, y) in healed.responses.iter().zip(&base.responses) {
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "heal must restore routing");
        }
        for (x, y) in healed.busy.iter().zip(&base.busy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn zone_failure_crashes_all_members_at_one_instant() {
        let cfg = LayeredFaultConfig {
            crashes: FaultInjectionConfig {
                crashes: 0,
                ..Default::default()
            },
            gray: 0,
            partitions: 0,
            zones: 2,
            zone_failures: 1,
            ..Default::default()
        };
        // 6 backends, 2 zones: one draw fails 3 backends together (the
        // min_alive=1 filter keeps all three: 6 - 3 = 3 ≥ 1).
        let plan = FaultPlan::from_seed_layered(3, 6, 60.0, &cfg);
        let crash_ats: Vec<u64> = plan
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { at, .. } => Some(at.to_bits()),
                _ => None,
            })
            .collect();
        assert_eq!(crash_ats.len(), 3, "{:?}", plan.events());
        assert!(crash_ats.windows(2).all(|w| w[0] == w[1]));
        let zones: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { backend, .. } => Some(backend % 2),
                _ => None,
            })
            .collect();
        assert!(zones.windows(2).all(|w| w[0] == w[1]), "one zone only");
    }
}
