//! The preserved pre-rewrite open-loop engine, kept as the
//! **differential oracle** for the hot-path rewrite in
//! [`crate::engine`].
//!
//! This module is a verbatim copy of `run_open_traced` (and its
//! `PendingIndex`) as they stood before the event-queue/arena rewrite:
//! an always-maintained two-tier pending index over a `BinaryHeap`, a
//! per-leg `touch` on every update fan-out, and per-request tracer
//! probing. It is deliberately **not** optimized — its only job is to
//! define the observable behavior the rewritten engine must reproduce
//! bit for bit. `tests/sim_equivalence.rs` replays random workloads
//! through both and asserts identical `OpenReport`s (every `f64`
//! compared by `to_bits`), identical rebuilt histograms, and identical
//! trace trees.
//!
//! Nothing in the workspace calls this from production paths; keep it
//! frozen when touching the live engine.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::QueryKind;

use crate::engine::UpdatePropagation;
use crate::engine::{nearest_rank, trace_leg, trace_update, OpenReport, SimConfig};
use crate::request::Request;
use crate::scheduler::Scheduler;
use crate::service::ServiceProfile;

/// The pre-rewrite pending-work index: a BTreeSet of idle backends plus
/// a lazy `BinaryHeap` of `(free_at_bits, backend)`, maintained on
/// every dispatch whether or not any read class can use it.
struct PendingIndex {
    idle: std::collections::BTreeSet<usize>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

impl PendingIndex {
    fn new(free_at: &[f64]) -> Self {
        let mut heap = std::collections::BinaryHeap::with_capacity(free_at.len() * 2);
        for (b, &f) in free_at.iter().enumerate() {
            heap.push(std::cmp::Reverse((f.to_bits(), b)));
        }
        Self {
            idle: std::collections::BTreeSet::new(),
            heap,
        }
    }

    fn advance(&mut self, free_at: &[f64], t: f64) {
        while let Some(&std::cmp::Reverse((bits, b))) = self.heap.peek() {
            if bits != free_at[b].to_bits() {
                self.heap.pop(); // stale entry superseded by a later push
            } else if f64::from_bits(bits) <= t {
                self.heap.pop();
                self.idle.insert(b);
            } else {
                break;
            }
        }
    }

    fn least_pending(&mut self, free_at: &[f64]) -> Option<usize> {
        if let Some(&b) = self.idle.first() {
            return Some(b);
        }
        while let Some(&std::cmp::Reverse((bits, b))) = self.heap.peek() {
            if bits != free_at[b].to_bits() {
                self.heap.pop();
            } else {
                return Some(b);
            }
        }
        None
    }

    fn touch(&mut self, b: usize, new_free: f64) {
        self.idle.remove(&b);
        self.heap.push(std::cmp::Reverse((new_free.to_bits(), b)));
    }
}

/// The preserved baseline `run_open` (no tracer). See the module docs.
pub fn run_open_baseline(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
) -> OpenReport {
    run_open_baseline_traced(
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

/// The preserved baseline `run_open_traced`. See the module docs.
#[expect(
    clippy::too_many_arguments,
    reason = "the simulator entry-point signature: allocation, inputs, requests, configs"
)]
pub fn run_open_baseline_traced(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    mut tracer: Option<&mut qcpa_obs::Tracer>,
) -> OpenReport {
    let _span = qcpa_obs::span("sim", "run_open_baseline");
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
    let mut free_at = vec![warmup_backlog.max(0.0); n];
    let mut busy = vec![0.0f64; n];
    let mut responses = Vec::with_capacity(requests.len());
    let mut resp_hist = qcpa_obs::Histogram::new();
    let mut queue_hist = qcpa_obs::Histogram::new();

    let mut index = PendingIndex::new(&free_at);
    let mut last_t = 0.0f64;
    for (req_id, r) in requests.iter().enumerate() {
        debug_assert!(r.arrival >= last_t, "arrivals must be sorted");
        last_t = r.arrival;
        let t = r.arrival;
        let req_id = req_id as u64;
        let pending_at = |b: usize, free_at: &[f64]| (free_at[b] - t).max(0.0);
        match r.kind {
            QueryKind::Read => {
                let routed = if scheduler.read_targets(r.class).len() == n {
                    index.advance(&free_at, t);
                    index.least_pending(&free_at)
                } else {
                    scheduler.route_read_with(r.class, |b| pending_at(b, &free_at))
                };
                if let Some(b) = routed {
                    let svc = profile.effective(b, r.service);
                    let begin = free_at[b].max(t);
                    let done = begin + svc;
                    queue_hist.record(pending_at(b, &free_at));
                    free_at[b] = done;
                    index.touch(b, done);
                    busy[b] += svc;
                    resp_hist.record(done - t);
                    responses.push((t, done - t));
                    if let Some(tr) = tracer.as_deref_mut() {
                        if tr.admit(req_id) {
                            trace_leg(tr, req_id, "read", r.class.0, b, t, begin, done);
                        }
                    }
                }
            }
            QueryKind::Update => {
                let targets = scheduler.route_update(r.class);
                let sync = match cfg.propagation {
                    UpdatePropagation::Rowa => {
                        1.0 + cfg.rowa_overhead * (targets.len() as f64 - 1.0)
                    }
                    _ => 1.0,
                };
                let trace_this = tracer.as_ref().is_some_and(|tr| tr.admit(req_id));
                let mut legs: Vec<(usize, f64, f64)> = Vec::new();
                let mut done_all: f64 = t;
                let mut done_primary: f64 = t;
                for (i, &b) in targets.iter().enumerate() {
                    let mult = match cfg.propagation {
                        UpdatePropagation::Lazy { batching_discount } if i > 0 => batching_discount,
                        _ => sync,
                    };
                    let svc = profile.effective(b, r.service) * mult;
                    if i == 0 {
                        queue_hist.record(pending_at(b, &free_at));
                    }
                    let begin = free_at[b].max(t);
                    let done = begin + svc;
                    free_at[b] = done;
                    index.touch(b, done);
                    busy[b] += svc;
                    done_all = done_all.max(done);
                    if i == 0 {
                        done_primary = done;
                    }
                    if trace_this {
                        legs.push((b, begin, done));
                    }
                }
                let response = match cfg.propagation {
                    UpdatePropagation::Rowa => done_all - t,
                    _ => done_primary - t,
                };
                if !targets.is_empty() {
                    resp_hist.record(response);
                    responses.push((t, response));
                    if trace_this {
                        if let Some(tr) = tracer.as_deref_mut() {
                            trace_update(tr, req_id, r.class.0, t, t + response, &legs);
                        }
                    }
                }
            }
        }
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
