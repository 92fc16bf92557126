//! The simulation drivers.
//!
//! * [`run_batch`]: the paper's throughput experiments — a fixed batch
//!   of requests flows through the scheduler into per-backend FIFO
//!   queues; the makespan (time until the last backend drains) gives
//!   the throughput.
//! * [`run_open`]: open-loop timed arrivals; each request's response
//!   time is its queueing delay plus service. Used for the
//!   autonomic-scaling experiments.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::QueryKind;

use crate::queue::{EventQueue, QueueKind, SimQueue};
use crate::request::Request;
use crate::scheduler::Scheduler;
use crate::service::{LocalityModel, ServiceProfile};

/// How update requests propagate to replicas (Section 2: the paper
/// evaluates ROWA and notes that primary-copy and lazy replication
/// "could be easily incorporated into our model and system" — here they
/// are).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum UpdatePropagation {
    /// Read-once/write-all: the update executes synchronously on every
    /// replica; the request completes when the slowest replica is done.
    #[default]
    Rowa,
    /// Primary copy: the request completes when the (lowest-indexed)
    /// primary replica is done; the other replicas apply the same work
    /// asynchronously.
    PrimaryCopy,
    /// Lazy replication: like primary copy, but secondary replicas
    /// batch the propagated updates, discounting their work by this
    /// factor (at the cost of staleness, which the model does not
    /// charge).
    Lazy {
        /// Work multiplier for secondary replicas, in `(0, 1]`.
        batching_discount: f64,
    },
}

/// Simulator knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Optional caching/locality effect (Section 4.1's super-linear
    /// speedup source). `None` models cost-proportional backends.
    pub locality: Option<LocalityModel>,
    /// Per-replica update synchronization overhead: an update executing
    /// on `r` backends costs `service × (1 + rowa_overhead × (r − 1))`
    /// on each of them (ROWA ordering/coordination). The Figure 4(i)
    /// large-scale experiment uses this to reproduce full replication's
    /// measured slowdown at 10 nodes; 0 disables it. Only charged under
    /// [`UpdatePropagation::Rowa`], whose total-order broadcast is what
    /// the overhead models.
    pub rowa_overhead: f64,
    /// Replica update propagation protocol.
    pub propagation: UpdatePropagation,
}

/// Result of a batch (throughput) run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Seconds until all queues drained.
    pub makespan: f64,
    /// Logical requests per second (updates count once even though they
    /// fan out).
    pub throughput: f64,
    /// Per-backend busy seconds.
    pub busy: Vec<f64>,
    /// Number of logical requests processed.
    pub n_requests: usize,
    /// Requests that could not be routed (no capable backend) — always
    /// 0 for a valid allocation.
    pub unroutable: usize,
}

impl BatchReport {
    /// Relative deviation from balance: maximum relative deviation of
    /// any backend's busy time from the mean (the measured counterpart
    /// of Figure 4(j)).
    pub fn balance_deviation(&self) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        let avg = self.busy.iter().sum::<f64>() / self.busy.len() as f64;
        if avg <= f64::EPSILON {
            return 0.0;
        }
        self.busy
            .iter()
            .map(|b| (b - avg).abs() / avg)
            .fold(0.0, f64::max)
    }
}

/// Pushes a batch of requests through the scheduler and measures the
/// makespan.
pub fn run_batch(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    cfg: &SimConfig,
) -> BatchReport {
    let _span = qcpa_obs::span("sim", "run_batch");
    let scheduler = Scheduler::new(alloc, cls);
    let profile = ServiceProfile::new(alloc, cluster, catalog, cfg.locality);
    let n = cluster.len();
    let mut busy = vec![0.0f64; n];
    let mut unroutable = 0usize;
    // Batch "response time": every request is queued at t = 0 and each
    // backend serves FIFO, so a request completes when its backend's
    // accumulated busy time reaches it.
    let mut resp_hist = qcpa_obs::Histogram::new();

    for r in requests {
        match r.kind {
            QueryKind::Read => match scheduler.route_read(r.class, &busy) {
                Some(b) => {
                    busy[b] += profile.effective(b, r.service);
                    resp_hist.record(busy[b]);
                }
                None => unroutable += 1,
            },
            QueryKind::Update => {
                let targets = scheduler.route_update(r.class);
                if targets.is_empty() {
                    unroutable += 1;
                } else {
                    let sync = match cfg.propagation {
                        UpdatePropagation::Rowa => {
                            1.0 + cfg.rowa_overhead * (targets.len() as f64 - 1.0)
                        }
                        _ => 1.0,
                    };
                    for (i, &b) in targets.iter().enumerate() {
                        let mult = match cfg.propagation {
                            UpdatePropagation::Lazy { batching_discount } if i > 0 => {
                                batching_discount
                            }
                            _ => sync,
                        };
                        busy[b] += profile.effective(b, r.service) * mult;
                    }
                    // The update answers once its primary replica is done.
                    resp_hist.record(busy[targets[0]]);
                }
            }
        }
    }

    let makespan = busy.iter().copied().fold(0.0, f64::max).max(f64::EPSILON);

    // Publish per-run telemetry once (no per-request registry traffic).
    let reg = qcpa_obs::global();
    reg.counter("sim.batch.requests").add(requests.len() as u64);
    reg.counter("sim.batch.unroutable").add(unroutable as u64);
    let mut busy_hist = qcpa_obs::Histogram::new();
    for (b, &s) in busy.iter().enumerate() {
        busy_hist.record(s);
        reg.gauge(&format!("sim.backend.{b}.busy_secs")).set(s);
        reg.gauge(&format!("sim.backend.{b}.utilization"))
            .set(s / makespan);
    }
    reg.merge_histogram("sim.batch.busy_secs", &busy_hist);
    reg.merge_histogram("sim.batch.response_secs", &resp_hist);

    BatchReport {
        makespan,
        throughput: (requests.len() - unroutable) as f64 / makespan,
        busy,
        n_requests: requests.len(),
        unroutable,
    }
}

/// An index over the per-backend release times (`free_at`) answering
/// "which backend has the least pending work right now?" in O(log n)
/// instead of a full scan, for reads whose eligible set is the whole
/// cluster (e.g. full replication).
///
/// Time only moves forward in [`run_open`] (arrivals are sorted) and
/// release times only grow, which admits a two-tier structure:
///
/// * `idle` — backends already free at the current time. They all have
///   zero pending work, so the scheduler's tie-break (lowest index)
///   makes the answer `idle.first()`.
/// * `queue` — a lazy min-queue of `(free_at_bits, backend)` events for
///   the rest, running on the pluggable [`SimQueue`] (binary heap or
///   calendar queue, see [`crate::queue`]). Entries are never removed
///   on update; a popped entry that disagrees with the live `free_at`
///   value is stale and skipped. Keys are the raw IEEE bits, whose
///   order matches the numeric order for the non-negative release
///   times, and the backend index doubles as the FIFO tie-break `seq`,
///   reproducing the scheduler's lowest-index rule exactly.
///
/// Since the index only ever answers full-cluster reads, the open-loop
/// core builds it *lazily*: workloads where no read class is eligible
/// on every backend (any partial allocation) never pay the per-leg
/// `touch` — which is what made update fan-out O(log n) per leg before
/// the rewrite.
struct PendingIndex {
    idle: std::collections::BTreeSet<usize>,
    queue: SimQueue,
}

impl PendingIndex {
    fn new(free_at: &[f64], kind: QueueKind) -> Self {
        let mut queue = SimQueue::with_capacity(kind, free_at.len() * 2);
        for (b, &f) in free_at.iter().enumerate() {
            queue.push(f.to_bits(), b as u64);
        }
        Self {
            idle: std::collections::BTreeSet::new(),
            queue,
        }
    }

    /// Moves every backend whose release time has passed `t` into the
    /// idle tier. Amortized O(log n): each queued entry is popped once.
    fn advance(&mut self, free_at: &[f64], t: f64) {
        while let Some((bits, b)) = self.queue.peek() {
            let b = b as usize;
            if bits != free_at[b].to_bits() {
                self.queue.pop(); // stale entry superseded by a later push
            } else if f64::from_bits(bits) <= t {
                self.queue.pop();
                self.idle.insert(b);
            } else {
                break;
            }
        }
    }

    /// The backend with the least pending work, ties to the lowest
    /// index — matching the scheduler's least-pending rule over the full
    /// cluster. Call [`Self::advance`] first.
    fn least_pending(&mut self, free_at: &[f64]) -> Option<usize> {
        if let Some(&b) = self.idle.first() {
            return Some(b);
        }
        while let Some((bits, b)) = self.queue.peek() {
            let b = b as usize;
            if bits != free_at[b].to_bits() {
                self.queue.pop();
            } else {
                return Some(b);
            }
        }
        None
    }

    /// Records that backend `b` was dispatched work and now frees at
    /// `new_free` (which never decreases).
    fn touch(&mut self, b: usize, new_free: f64) {
        self.idle.remove(&b);
        self.queue.push(new_free.to_bits(), b as u64);
    }
}

/// Nearest-rank percentile (1-based rank `ceil(q·n)`, clamped to
/// `[1, n]`) — the same rule as [`qcpa_obs::Histogram`] quantiles, so
/// report percentiles and metrics-sidecar percentiles agree. Selects in
/// O(n) without sorting; `values` is reordered. Returns 0 for an empty
/// slice.
pub(crate) fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    let (_, v, _) = values.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
    *v
}

/// Records a sampled single-backend request as a
/// `request → queue → service` span tree. Span ids derive from
/// `(seed, request, attempt)` with attempts 0/1/2 for the three spans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trace_leg(
    tr: &mut qcpa_obs::Tracer,
    req: u64,
    name: &'static str,
    class: u32,
    backend: usize,
    arrival: f64,
    begin: f64,
    done: f64,
) {
    let track = backend as u32;
    let root = tr
        .tree
        .begin(tr.span_id(req, 0), None, "request", name, track, arrival);
    tr.tree.arg(root, "request", req);
    tr.tree.arg(root, "class", class);
    tr.tree.arg(root, "backend", backend);
    if begin > arrival {
        let q = tr.tree.begin(
            tr.span_id(req, 1),
            Some(root),
            "queue",
            "queue",
            track,
            arrival,
        );
        tr.tree.end(q, begin);
    }
    let s = tr.tree.begin(
        tr.span_id(req, 2),
        Some(root),
        "service",
        "service",
        track,
        begin,
    );
    tr.tree.end(s, done);
    tr.tree.end(root, done);
}

/// Records a sampled update as a `request` root (on the primary's
/// track) with one `leg` child per replica: `legs` holds
/// `(backend, service_begin, service_end)` in fan-out order.
pub(crate) fn trace_update(
    tr: &mut qcpa_obs::Tracer,
    req: u64,
    class: u32,
    arrival: f64,
    resp_end: f64,
    legs: &[(usize, f64, f64)],
) {
    let track = legs.first().map_or(0, |&(b, _, _)| b as u32);
    let root = tr.tree.begin(
        tr.span_id(req, 0),
        None,
        "request",
        "update",
        track,
        arrival,
    );
    tr.tree.arg(root, "request", req);
    tr.tree.arg(root, "class", class);
    tr.tree.arg(root, "replicas", legs.len());
    for (i, &(b, begin, done)) in legs.iter().enumerate() {
        let leg = tr.tree.begin(
            tr.span_id(req, 1 + i as u64),
            Some(root),
            "service",
            "leg",
            b as u32,
            begin,
        );
        tr.tree.arg(leg, "backend", b);
        tr.tree.end(leg, done);
    }
    tr.tree.end(root, resp_end);
}

/// Result of an open-loop (response-time) run.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// `(arrival, response)` per request, in arrival order.
    pub responses: Vec<(f64, f64)>,
    /// Mean response time in seconds.
    pub mean_response: f64,
    /// 95th percentile response time.
    pub p95_response: f64,
    /// Per-backend busy seconds.
    pub busy: Vec<f64>,
    /// Per-backend utilization over the observation window.
    pub utilization: Vec<f64>,
}

/// Runs timed arrivals through the scheduler. `warmup_backlog` seeds
/// each backend's initial backlog (used by the autoscaler to model
/// reallocation pauses). Requests must be sorted by arrival time.
pub fn run_open(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
) -> OpenReport {
    run_open_traced(
        alloc,
        cls,
        cluster,
        catalog,
        requests,
        warmup_backlog,
        cfg,
        None,
    )
}

/// [`run_open`] with causal tracing: sampled requests (by arrival
/// index) record `request → queue → service` span trees (updates: one
/// `leg` span per replica) into `tracer`'s [`qcpa_obs::TraceTree`] on
/// the sim clock. `None` — or a tracer with `QCPA_TRACE_SAMPLE=0` —
/// costs nothing per request (the sampling check is hoisted out of the
/// loop).
#[allow(clippy::too_many_arguments)]
pub fn run_open_traced(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    tracer: Option<&mut qcpa_obs::Tracer>,
) -> OpenReport {
    run_open_with(
        alloc,
        cls,
        cluster,
        catalog,
        requests,
        warmup_backlog,
        cfg,
        tracer,
        QueueKind::Calendar,
    )
}

/// [`run_open_traced`] with an explicit event-queue implementation —
/// the entry point the differential suite uses to pit the calendar
/// queue every other entry point runs on against the reference heap.
#[allow(clippy::too_many_arguments)]
pub fn run_open_with(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    mut tracer: Option<&mut qcpa_obs::Tracer>,
    kind: QueueKind,
) -> OpenReport {
    let _span = qcpa_obs::span("sim", "run_open");
    if let Some(tr) = tracer.as_deref_mut() {
        if tr.enabled() {
            for b in 0..cluster.len() {
                tr.tree.name_track(b as u32, format!("backend {b}"));
            }
        }
    }
    let scheduler = Scheduler::new(alloc, cls);
    let profile = ServiceProfile::new(alloc, cluster, catalog, cfg.locality);
    let n = cluster.len();
    let (outcomes, busy) = open_loop_core(
        &scheduler,
        &profile,
        n,
        requests,
        warmup_backlog,
        cfg,
        kind,
        tracer,
    );
    finish_open_report(requests, &outcomes, busy)
}

/// One routed request's contribution to the report: its index in the
/// driving request slice, and the values the baseline engine recorded
/// for it (queueing delay at dispatch, response time). Reads that found
/// no eligible backend and updates with an empty ROWA set produce no
/// outcome, exactly as they produced no records before.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreOutcome {
    /// Index into the request slice the core was driven with.
    pub(crate) req: u32,
    /// Arrival time.
    pub(crate) arrival: f64,
    /// Queueing delay at the (primary) backend when dispatched.
    pub(crate) queue_delay: f64,
    /// Response time.
    pub(crate) response: f64,
}

/// The open-loop hot path: routes `requests` (sorted by arrival),
/// advances per-backend release times, and returns the per-request
/// outcomes plus per-backend busy seconds. All statistics,
/// histogramming, and registry traffic live in the callers so the
/// sharded runner can merge outcomes from several cores in global
/// arrival order and rebuild bit-identical aggregates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn open_loop_core(
    scheduler: &Scheduler,
    profile: &ServiceProfile,
    n: usize,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    kind: QueueKind,
    mut tracer: Option<&mut qcpa_obs::Tracer>,
) -> (Vec<CoreOutcome>, Vec<f64>) {
    let mut free_at = vec![warmup_backlog.max(0.0); n];
    let mut busy = vec![0.0f64; n];
    let mut outcomes = Vec::with_capacity(requests.len());

    // Per-class dispatch tables, hoisted out of the per-request loop.
    let nc = scheduler.n_classes();
    // Whether a read class's eligible set is the whole cluster — the
    // only case the pending index answers.
    let mut full_set = vec![false; nc];
    // An update's service multiplier on its primary (first) and
    // secondary legs, resolving the propagation-protocol match once.
    let mut first_mult = vec![1.0f64; nc];
    let mut rest_mult = vec![1.0f64; nc];
    for c in 0..nc {
        let id = qcpa_core::ClassId(c as u32);
        full_set[c] = scheduler.read_targets(id).len() == n;
        let targets = scheduler.route_update(id);
        let sync = match cfg.propagation {
            UpdatePropagation::Rowa => 1.0 + cfg.rowa_overhead * (targets.len() as f64 - 1.0),
            _ => 1.0,
        };
        first_mult[c] = sync;
        rest_mult[c] = match cfg.propagation {
            UpdatePropagation::Lazy { batching_discount } => batching_discount,
            _ => sync,
        };
    }
    let rowa_response = matches!(cfg.propagation, UpdatePropagation::Rowa);
    // The index is only consulted for full-cluster reads; when no class
    // can ask, skip its per-leg maintenance entirely.
    let mut index = full_set
        .iter()
        .any(|&f| f)
        .then(|| PendingIndex::new(&free_at, kind));
    // Hoisted tracer gate: a disabled sampler (`QCPA_TRACE_SAMPLE=0`,
    // the production setting) costs nothing per request.
    let trace_on = tracer.as_deref().is_some_and(|tr| tr.enabled());

    let mut last_t = 0.0f64;
    for (req_id, r) in requests.iter().enumerate() {
        debug_assert!(r.arrival >= last_t, "arrivals must be sorted");
        last_t = r.arrival;
        let t = r.arrival;
        let cid = r.class.idx();
        match r.kind {
            QueryKind::Read => {
                // Full-cluster eligible set: answer from the index in
                // O(log n). Restricted set: probe just those targets.
                let routed = match index.as_mut() {
                    Some(idx) if full_set[cid] => {
                        idx.advance(&free_at, t);
                        idx.least_pending(&free_at)
                    }
                    _ => scheduler.route_read_with(r.class, |b| (free_at[b] - t).max(0.0)),
                };
                if let Some(b) = routed {
                    let svc = profile.effective(b, r.service);
                    let queue_delay = (free_at[b] - t).max(0.0);
                    let begin = free_at[b].max(t);
                    let done = begin + svc;
                    free_at[b] = done;
                    if let Some(idx) = index.as_mut() {
                        idx.touch(b, done);
                    }
                    busy[b] += svc;
                    outcomes.push(CoreOutcome {
                        req: req_id as u32,
                        arrival: t,
                        queue_delay,
                        response: done - t,
                    });
                    if trace_on {
                        if let Some(tr) = tracer.as_deref_mut() {
                            let req = req_id as u64;
                            if tr.admit(req) {
                                trace_leg(tr, req, "read", r.class.0, b, t, begin, done);
                            }
                        }
                    }
                }
            }
            QueryKind::Update => {
                let targets = scheduler.route_update(r.class);
                let Some((&b0, rest)) = targets.split_first() else {
                    continue; // empty ROWA set: no legs, no record
                };
                let trace_this =
                    trace_on && tracer.as_ref().is_some_and(|tr| tr.admit(req_id as u64));
                let mut legs: Vec<(usize, f64, f64)> = Vec::new();
                // Primary leg, peeled: it alone sets the queueing delay
                // and the primary-copy response.
                let svc0 = profile.effective(b0, r.service) * first_mult[cid];
                let queue_delay = (free_at[b0] - t).max(0.0);
                let begin0 = free_at[b0].max(t);
                let done_primary = begin0 + svc0;
                free_at[b0] = done_primary;
                if let Some(idx) = index.as_mut() {
                    idx.touch(b0, done_primary);
                }
                busy[b0] += svc0;
                let mut done_all = t.max(done_primary);
                if trace_this {
                    legs.push((b0, begin0, done_primary));
                }
                let rm = rest_mult[cid];
                for &b in rest {
                    let svc = profile.effective(b, r.service) * rm;
                    let begin = free_at[b].max(t);
                    let done = begin + svc;
                    free_at[b] = done;
                    if let Some(idx) = index.as_mut() {
                        idx.touch(b, done);
                    }
                    busy[b] += svc;
                    done_all = done_all.max(done);
                    if trace_this {
                        legs.push((b, begin, done));
                    }
                }
                let response = if rowa_response {
                    done_all - t
                } else {
                    done_primary - t
                };
                outcomes.push(CoreOutcome {
                    req: req_id as u32,
                    arrival: t,
                    queue_delay,
                    response,
                });
                if trace_this {
                    if let Some(tr) = tracer.as_deref_mut() {
                        trace_update(tr, req_id as u64, r.class.0, t, t + response, &legs);
                    }
                }
            }
        }
    }
    (outcomes, busy)
}

/// Builds the [`OpenReport`] (and publishes the run's registry
/// telemetry) from core outcomes. `outcomes` must be in global arrival
/// order — the histogram accumulation order is part of the bit-identity
/// contract with the baseline engine. `requests` is the *full* driving
/// slice (its last arrival defines the utilization window).
pub(crate) fn finish_open_report(
    requests: &[Request],
    outcomes: &[CoreOutcome],
    busy: Vec<f64>,
) -> OpenReport {
    // Local histograms keep the per-request cost to two array
    // increments; they are merged into the global registry once at the
    // end of the run.
    let mut resp_hist = qcpa_obs::Histogram::new();
    let mut queue_hist = qcpa_obs::Histogram::new();
    let mut responses = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        queue_hist.record(o.queue_delay);
        resp_hist.record(o.response);
        responses.push((o.arrival, o.response));
    }

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
    reg.counter("sim.open.requests").add(requests.len() as u64);
    reg.merge_histogram("sim.open.response_secs", &resp_hist);
    reg.merge_histogram("sim.open.queue_secs", &queue_hist);
    let mut busy_hist = qcpa_obs::Histogram::new();
    for (b, &s) in busy.iter().enumerate() {
        busy_hist.record(s);
        reg.gauge(&format!("sim.backend.{b}.busy_secs")).set(s);
        reg.gauge(&format!("sim.backend.{b}.utilization"))
            .set(utilization[b]);
    }
    reg.merge_histogram("sim.open.busy_secs", &busy_hist);

    OpenReport {
        responses,
        mean_response,
        p95_response,
        busy,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestStream;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn read_only() -> (Catalog, Classification, RequestStream) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.25),
            QueryClass::read(2, [c], 0.25),
            QueryClass::read(3, [a, b], 0.20),
        ])
        .unwrap();
        let stream = RequestStream::new(
            vec![30.0, 25.0, 25.0, 20.0],
            vec![QueryKind::Read; 4],
            vec![0.01; 4],
        );
        (cat, cls, stream)
    }

    /// Measured speedup tracks the model's |B|/scale prediction.
    #[test]
    fn batch_speedup_matches_model_read_only() {
        let (cat, cls, stream) = read_only();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let reqs = stream.sample_batch(20_000, 0.0, &mut rng);
        let cfg = SimConfig::default();

        let c1 = ClusterSpec::homogeneous(1);
        let a1 = greedy::allocate(&cls, &cat, &c1);
        let base = run_batch(&a1, &cls, &c1, &cat, &reqs, &cfg);

        for n in [2usize, 4] {
            let cn = ClusterSpec::homogeneous(n);
            let an = greedy::allocate(&cls, &cat, &cn);
            let rep = run_batch(&an, &cls, &cn, &cat, &reqs, &cfg);
            assert_eq!(rep.unroutable, 0);
            let speedup = base.makespan / rep.makespan;
            let predicted = an.speedup(&cn);
            assert!(
                (speedup - predicted).abs() / predicted < 0.05,
                "n={n}: measured {speedup:.2} vs predicted {predicted:.2}"
            );
        }
    }

    /// Updates fan out: full replication saturates per Amdahl (Eq. 1).
    #[test]
    fn batch_update_workload_amdahl() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.75),
            QueryClass::update(1, [a], 0.25),
        ])
        .unwrap();
        let stream = RequestStream::new(
            vec![75.0, 25.0],
            vec![QueryKind::Read, QueryKind::Update],
            vec![0.01, 0.01],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let reqs = stream.sample_batch(40_000, 0.0, &mut rng);
        let cfg = SimConfig::default();

        let c1 = ClusterSpec::homogeneous(1);
        let full1 = Allocation::full_replication(&cls, &c1);
        let base = run_batch(&full1, &cls, &c1, &cat, &reqs, &cfg);

        let c10 = ClusterSpec::homogeneous(10);
        let full10 = Allocation::full_replication(&cls, &c10);
        let rep = run_batch(&full10, &cls, &c10, &cat, &reqs, &cfg);
        let speedup = base.makespan / rep.makespan;
        let amdahl = qcpa_core::speedup::amdahl(0.75, 0.25, 10);
        assert!(
            (speedup - amdahl).abs() / amdahl < 0.06,
            "measured {speedup:.2} vs Amdahl {amdahl:.2}"
        );
    }

    #[test]
    fn balance_deviation_reflects_skew() {
        let (cat, cls, stream) = read_only();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let reqs = stream.sample_batch(10_000, 0.0, &mut rng);
        let c2 = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &cat, &c2);
        let rep = run_batch(&alloc, &cls, &c2, &cat, &reqs, &SimConfig::default());
        assert!(
            rep.balance_deviation() < 0.05,
            "{}",
            rep.balance_deviation()
        );
    }

    #[test]
    fn open_loop_responses_grow_with_load() {
        let (cat, cls, stream) = read_only();
        let c2 = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &cat, &c2);
        let cfg = SimConfig::default();
        // Capacity: 2 backends × 100 req/s each = 200 req/s.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let light = stream.sample_poisson(60.0, 60.0, 0.0, &mut rng);
        let heavy = stream.sample_poisson(180.0, 60.0, 0.0, &mut rng);
        let rl = run_open(&alloc, &cls, &c2, &cat, &light, 0.0, &cfg);
        let rh = run_open(&alloc, &cls, &c2, &cat, &heavy, 0.0, &cfg);
        assert!(rl.mean_response < rh.mean_response);
        assert!(rl.utilization.iter().all(|&u| u < 0.5));
        assert!(rh.utilization.iter().any(|&u| u > 0.7));
    }

    #[test]
    fn warmup_backlog_delays_early_requests() {
        let (cat, cls, stream) = read_only();
        let c2 = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &cat, &c2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let reqs = stream.sample_poisson(10.0, 30.0, 0.0, &mut rng);
        let cold = run_open(&alloc, &cls, &c2, &cat, &reqs, 5.0, &SimConfig::default());
        let warm = run_open(&alloc, &cls, &c2, &cat, &reqs, 0.0, &SimConfig::default());
        assert!(cold.responses[0].1 > warm.responses[0].1 + 4.0);
    }

    /// Pinned: p95 uses the nearest-rank rule (1-based rank
    /// `ceil(0.95·n)`), the same convention as the obs histogram
    /// quantiles — not a truncating index.
    #[test]
    fn p95_uses_ceil_based_nearest_rank() {
        // n = 100: rank ceil(95.0) = 95 → the 95th smallest value.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.95), 95.0);
        // n = 20: rank ceil(19.0) = 19 → 19.0 (truncation would also
        // give index 19 = value 20.0; the ceil rank gives 19.0).
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.95), 19.0);
        // n = 7: rank ceil(6.65) = 7 → the maximum.
        let mut v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.95), 7.0);
        // Degenerate cases.
        assert_eq!(nearest_rank(&mut [], 0.95), 0.0);
        assert_eq!(nearest_rank(&mut [3.25], 0.95), 3.25);
        // Order-independent: selection, not a pre-sorted lookup.
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&mut v, 0.95), 5.0);
    }

    /// The report's percentile agrees with the obs histogram's quantile
    /// rule on the identical sample set (up to the histogram's
    /// log-bucket resolution).
    #[test]
    fn report_p95_matches_histogram_quantile_rule() {
        let values: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        let mut hist = qcpa_obs::Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut v = values.clone();
        let exact = nearest_rank(&mut v, 0.95);
        let bucketed = hist.quantile(0.95).expect("histogram is non-empty");
        assert!(
            (bucketed - exact).abs() / exact < 0.05,
            "histogram {bucketed} vs nearest-rank {exact}"
        );
    }

    /// The queue/idle-set index answers exactly like a naive full scan
    /// with the scheduler's tie-break, across growing time and random
    /// dispatches — on both event-queue implementations.
    #[test]
    fn pending_index_matches_linear_scan() {
        use rand::Rng;
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let n = 8;
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut free_at = vec![0.5f64; n];
            let mut index = PendingIndex::new(&free_at, kind);
            let mut t = 0.0;
            for _ in 0..2_000 {
                t += rng.gen_range(0.0..0.02);
                index.advance(&free_at, t);
                let fast = index.least_pending(&free_at).unwrap();
                let naive = (0..n)
                    .min_by(|&a, &b| {
                        let pa = (free_at[a] - t).max(0.0);
                        let pb = (free_at[b] - t).max(0.0);
                        pa.partial_cmp(&pb).unwrap().then(a.cmp(&b))
                    })
                    .unwrap();
                assert_eq!(fast, naive, "kind={kind:?} t={t}");
                // Dispatch to the chosen backend, sometimes to a random
                // one too (update fan-out touches non-minimal backends).
                let done = free_at[fast].max(t) + rng.gen_range(0.001..0.05);
                free_at[fast] = done;
                index.touch(fast, done);
                if rng.gen_bool(0.3) {
                    let b = rng.gen_range(0..n);
                    let done = free_at[b].max(t) + rng.gen_range(0.001..0.05);
                    free_at[b] = done;
                    index.touch(b, done);
                }
            }
        }
    }

    #[test]
    fn locality_speeds_up_partial_replication() {
        let (cat, cls, stream) = read_only();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let reqs = stream.sample_batch(10_000, 0.0, &mut rng);
        let c4 = ClusterSpec::homogeneous(4);
        let partial = greedy::allocate(&cls, &cat, &c4);
        let full = Allocation::full_replication(&cls, &c4);
        let cfg = SimConfig {
            locality: Some(LocalityModel { floor: 0.7 }),
            ..Default::default()
        };
        let rp = run_batch(&partial, &cls, &c4, &cat, &reqs, &cfg);
        let rf = run_batch(&full, &cls, &c4, &cat, &reqs, &cfg);
        assert!(
            rp.throughput > rf.throughput,
            "partial {} vs full {}",
            rp.throughput,
            rf.throughput
        );
    }
}

#[cfg(test)]
mod propagation_tests {
    use super::*;
    use crate::request::RequestStream;
    use qcpa_core::classify::{Classification, QueryClass};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A write-heavy workload on full replication: the protocols
    /// differentiate on replicated update work.
    fn setup() -> (Catalog, Classification, Vec<Request>) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.5),
            QueryClass::update(1, [a], 0.5),
        ])
        .unwrap();
        let stream = RequestStream::new(
            vec![50.0, 50.0],
            vec![QueryKind::Read, QueryKind::Update],
            vec![0.01, 0.01],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let reqs = stream.sample_poisson(120.0, 60.0, 0.0, &mut rng);
        (cat, cls, reqs)
    }

    #[test]
    fn primary_copy_cuts_update_response_not_work() {
        let (cat, cls, reqs) = setup();
        let cluster = ClusterSpec::homogeneous(4);
        let full = Allocation::full_replication(&cls, &cluster);
        let rowa = run_open(
            &full,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
        );
        let pc = run_open(
            &full,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig {
                propagation: UpdatePropagation::PrimaryCopy,
                ..Default::default()
            },
        );
        assert!(
            pc.mean_response < rowa.mean_response,
            "primary copy {} vs ROWA {}",
            pc.mean_response,
            rowa.mean_response
        );
        // Same total work: the replicas still apply every update.
        let w_rowa: f64 = rowa.busy.iter().sum();
        let w_pc: f64 = pc.busy.iter().sum();
        assert!((w_rowa - w_pc).abs() / w_rowa < 1e-9);
    }

    #[test]
    fn lazy_replication_reduces_replica_work() {
        let (cat, cls, reqs) = setup();
        let cluster = ClusterSpec::homogeneous(4);
        let full = Allocation::full_replication(&cls, &cluster);
        let cfg = SimConfig {
            propagation: UpdatePropagation::Lazy {
                batching_discount: 0.4,
            },
            ..Default::default()
        };
        let lazy = run_batch(&full, &cls, &cluster, &cat, &reqs, &cfg);
        let rowa = run_batch(&full, &cls, &cluster, &cat, &reqs, &SimConfig::default());
        assert!(
            lazy.throughput > rowa.throughput,
            "lazy {} vs ROWA {}",
            lazy.throughput,
            rowa.throughput
        );
    }

    #[test]
    fn protocols_agree_on_single_replica() {
        let (cat, cls, reqs) = setup();
        let cluster = ClusterSpec::homogeneous(1);
        let full = Allocation::full_replication(&cls, &cluster);
        let rowa = run_open(
            &full,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig::default(),
        );
        let pc = run_open(
            &full,
            &cls,
            &cluster,
            &cat,
            &reqs,
            0.0,
            &SimConfig {
                propagation: UpdatePropagation::PrimaryCopy,
                ..Default::default()
            },
        );
        assert!((rowa.mean_response - pc.mean_response).abs() < 1e-12);
    }
}

#[cfg(test)]
mod balance_tests {
    use super::*;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;
    use qcpa_core::ClassId;

    fn report(busy: Vec<f64>) -> BatchReport {
        BatchReport {
            makespan: 1.0,
            throughput: 0.0,
            busy,
            n_requests: 0,
            unroutable: 0,
        }
    }

    /// A perfectly balanced cluster deviates by exactly 0 (the values
    /// are chosen exactly representable, so the mean is exact too).
    #[test]
    fn balanced_cluster_has_zero_deviation() {
        assert_eq!(report(vec![2.0, 2.0]).balance_deviation(), 0.0);
        assert_eq!(report(vec![0.5, 0.5, 0.5, 0.5]).balance_deviation(), 0.0);
    }

    /// No backends or an idle cluster: deviation is 0, not NaN.
    #[test]
    fn empty_and_idle_reports_have_zero_deviation() {
        assert_eq!(report(vec![]).balance_deviation(), 0.0);
        assert_eq!(report(vec![0.0, 0.0]).balance_deviation(), 0.0);
    }

    /// The deviation is the worst backend's relative gap to the mean.
    #[test]
    fn deviation_is_the_worst_relative_gap() {
        // busy [1, 3]: mean 2, both gaps |b - 2| / 2 = 0.5.
        assert_eq!(report(vec![1.0, 3.0]).balance_deviation(), 0.5);
        // busy [2, 2, 8]: mean 4, worst gap |8 - 4| / 4 = 1.
        assert_eq!(report(vec![2.0, 2.0, 8.0]).balance_deviation(), 1.0);
    }

    /// The drivers publish their telemetry into the global registry.
    #[test]
    fn runs_populate_the_global_registry() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![QueryClass::read(0, [a], 1.0)]).unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let reqs: Vec<Request> = (0..50)
            .map(|i| Request {
                class: ClassId(0),
                kind: QueryKind::Read,
                service: 0.005,
                arrival: i as f64 * 0.01,
            })
            .collect();
        let cfg = SimConfig::default();
        run_open(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg);
        run_batch(&alloc, &cls, &cluster, &cat, &reqs, &cfg);

        let snap = qcpa_obs::global().snapshot();
        let resp = &snap.histograms["sim.open.response_secs"];
        assert!(resp.count >= 50, "response histogram captured the run");
        assert!(resp.p50 > 0.0 && resp.p99 >= resp.p50);
        assert!(snap.histograms["sim.batch.busy_secs"].count >= 2);
        assert!(snap.histograms["sim.batch.response_secs"].count >= 50);
        assert!(snap.gauges.contains_key("sim.backend.0.utilization"));
        assert!(snap.counters["sim.batch.requests"] >= 50);
    }
}
