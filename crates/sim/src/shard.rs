//! Sharded open-loop runs: partition the cluster into independent
//! backend components and simulate them on [`qcpa_par`] workers.
//!
//! Two backends interact in [`crate::engine::run_open`] only if some
//! query class can touch both — a read routed between them, or an
//! update fanned out across them. Union-find over every class's target
//! sets therefore splits the cluster into **connected components**
//! whose simulations are completely independent: a request only ever
//! probes and advances the release times of its own component.
//!
//! [`run_open_sharded`] exploits that:
//!
//! 1. classes (and with them requests) are assigned to components;
//! 2. each component replays *its* request subsequence through the
//!    same [`crate::engine`] hot path, on a [`qcpa_par::Pool`] of up to
//!    `shards` workers (`QCPA_SIM_SHARDS` via [`shards_from_env`]);
//! 3. the per-request outcomes are merged back **by original arrival
//!    index** and the report's histograms/statistics are rebuilt in
//!    that global order.
//!
//! The merge contract makes the result *bit-identical* to the
//! single-threaded [`crate::engine::run_open`] at every worker count:
//! outcome values are unchanged (a component's release times never
//! depend on another component's requests), and every order-sensitive
//! f64 accumulation — histogram sums, the mean, per-backend busy —
//! replays in the exact sequence the unsharded loop used.
//! `tests/sim_equivalence.rs` holds that gate across shard counts and
//! `QCPA_THREADS`.
//!
//! A workload whose class graph is one component (e.g. any class
//! eligible on every backend) degenerates to the plain engine run —
//! sharding never changes results, it only buys wall-clock when the
//! allocation actually decomposes.
//!
//! Faulted runs split the same way, with the fault plan's couplings
//! welded into the graph ([`fault_components`]): one driver replays
//! the fault-aware loop of [`crate::resilience`] per component, and
//! [`run_open_faults_sharded`] / [`run_open_resilient_sharded`] are its
//! two report views.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::QueryKind;

use crate::engine::{finish_open_report, open_loop_core, CoreOutcome, OpenReport, SimConfig};
use crate::fault::{assemble_fault_report, FaultConfig, FaultEvent, FaultPlan, FaultReport};
use crate::queue::QueueKind;
use crate::request::Request;
use crate::resilience::{
    assemble_resilience_report, resilient_core, FaultRun, RCore, RFinal, ResilienceConfig,
    ResilienceReport, Tally,
};
use crate::scheduler::Scheduler;
use crate::service::ServiceProfile;

/// Reads `QCPA_SIM_SHARDS`: the maximum number of parallel workers a
/// sharded run may use. Unset, unparsable, or `0` means 1 (serial).
#[must_use]
pub fn shards_from_env() -> usize {
    std::env::var("QCPA_SIM_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// Union-find with path halving; union by smaller root so component
/// representatives are the lowest backend index they contain.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// The connected components of the backend-interaction graph under
/// `scheduler`'s routing tables: `component[b]` is a dense id in
/// `0..n_components`, numbered in order of lowest member backend.
/// Classes whose targets span several backends weld them together;
/// backends no class touches each form a singleton.
#[must_use]
pub fn backend_components(scheduler: &Scheduler, cls: &Classification, n: usize) -> Vec<usize> {
    components(scheduler, cls, n, &[], &[])
}

/// [`backend_components`] with the fault plan welded into the coupling
/// graph: beyond the class-routing edges, every pair of backends coupled
/// by a fault event lands in one component — members of a partition
/// side (they are cut and healed as one routing change) and backends
/// crashed at the same instant (a correlated zone failure). Repair
/// source/target coupling is handled separately: plans that can trigger
/// an online repair mutate the allocation globally, so the sharded
/// driver detects them with [`plan_may_repair`] and falls back to the
/// unsharded loop instead of welding everything into one component.
#[must_use]
pub fn fault_components(
    scheduler: &Scheduler,
    cls: &Classification,
    n: usize,
    plan: &FaultPlan,
) -> Vec<usize> {
    components(scheduler, cls, n, plan.partition_sides(), plan.events())
}

/// The component builder behind both public views: class-routing edges
/// plus the fault couplings of `sides` and `events` (none for a healthy
/// run).
fn components(
    scheduler: &Scheduler,
    cls: &Classification,
    n: usize,
    sides: &[Vec<usize>],
    events: &[FaultEvent],
) -> Vec<usize> {
    let mut uf = UnionFind::new(n);
    let mut weld = |targets: &[usize]| {
        for w in targets.windows(2) {
            uf.union(w[0], w[1]);
        }
    };
    for c in &cls.classes {
        match c.kind {
            QueryKind::Read => {
                weld(scheduler.read_targets(c.id));
                // Degraded routing may fall back to any capable backend;
                // welding the superset keeps the split conservative.
                weld(scheduler.capable_read_targets(c.id));
            }
            QueryKind::Update => weld(scheduler.route_update(c.id)),
        }
    }
    for side in sides {
        weld(side);
    }
    // Correlated crashes: zone failures draw one instant for every
    // member, so identical at-bits mark the zone's members.
    let crashes: Vec<(u64, usize)> = events
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::Crash { backend, at } => Some((at.to_bits(), backend)),
            _ => None,
        })
        .collect();
    for (i, &(at, b)) in crashes.iter().enumerate() {
        for &(at2, b2) in &crashes[i + 1..] {
            if at == at2 {
                weld(&[b, b2]);
            }
        }
    }
    let mut component = vec![usize::MAX; n];
    let mut next = 0usize;
    for b in 0..n {
        let root = uf.find(b);
        if component[root] == usize::MAX {
            component[root] = next;
            next += 1;
        }
        component[b] = component[root];
    }
    component
}

/// Each class's component: the component of any of its targets (they
/// are all welded together). `None` marks a class with no routing
/// targets at all.
fn class_components(
    scheduler: &Scheduler,
    cls: &Classification,
    component: &[usize],
) -> Vec<Option<usize>> {
    cls.classes
        .iter()
        .map(|c| {
            let targets = match c.kind {
                QueryKind::Read => scheduler.read_targets(c.id),
                QueryKind::Update => scheduler.route_update(c.id),
            };
            targets.first().map(|&b| component[b])
        })
        .collect()
}

/// Partitions the arrival sequence per component, remembering each
/// request's original index for the merge. Requests of a class with no
/// targets belong to no component and are left out.
fn split_requests(
    class_comp: &[Option<usize>],
    n_components: usize,
    requests: &[Request],
) -> (Vec<Vec<Request>>, Vec<Vec<u32>>) {
    let mut shard_reqs: Vec<Vec<Request>> = vec![Vec::new(); n_components];
    let mut shard_orig: Vec<Vec<u32>> = vec![Vec::new(); n_components];
    for (i, r) in requests.iter().enumerate() {
        if let Some(j) = class_comp.get(r.class.idx()).copied().flatten() {
            shard_reqs[j].push(*r);
            shard_orig[j].push(i as u32);
        }
    }
    (shard_reqs, shard_orig)
}

/// [`crate::engine::run_open`] over backend components on up to
/// `shards` [`qcpa_par`] workers — bit-identical to the unsharded run
/// (see the module docs for the merge contract). Tracing is not
/// supported here; use the unsharded [`crate::engine::run_open_traced`]
/// when a trace is wanted.
#[allow(clippy::too_many_arguments)]
pub fn run_open_sharded(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    shards: usize,
) -> OpenReport {
    let _span = qcpa_obs::span("sim", "run_open_sharded");
    let scheduler = Scheduler::new(alloc, cls);
    let profile = ServiceProfile::new(alloc, cluster, catalog, cfg.locality);
    let n = cluster.len();
    let core = |reqs: &[Request]| {
        open_loop_core(
            &scheduler,
            &profile,
            n,
            reqs,
            warmup_backlog,
            cfg,
            QueueKind::Calendar,
            None,
        )
    };

    let component = backend_components(&scheduler, cls, n);
    let n_components = component.iter().copied().max().map_or(0, |m| m + 1);

    // One component (or a degenerate cluster): the split buys nothing.
    if n_components <= 1 {
        let (outcomes, busy) = core(requests);
        return finish_open_report(requests, &outcomes, busy);
    }

    // Classes with no targets at all route nowhere in the engine, so
    // the split drops their requests the same way the unsharded loop
    // does: no outcome, no state change.
    let class_comp = class_components(&scheduler, cls, &component);
    let (shard_reqs, shard_orig) = split_requests(&class_comp, n_components, requests);

    // Simulate each component independently. Results are slotted by
    // component index, so the outcome is identical at any worker count.
    let pool = qcpa_par::Pool::with_workers(shards.max(1).min(n_components));
    let per_shard: Vec<(Vec<CoreOutcome>, Vec<f64>)> =
        pool.map(n_components, |j| core(&shard_reqs[j]));

    // Merge outcomes back into global arrival order and re-key them by
    // original request index; merge busy from each backend's owning
    // component (the only one that ever dispatched to it).
    let mut merged: Vec<CoreOutcome> =
        Vec::with_capacity(per_shard.iter().map(|(o, _)| o.len()).sum());
    for (j, (outcomes, _)) in per_shard.iter().enumerate() {
        merged.extend(outcomes.iter().map(|o| CoreOutcome {
            req: shard_orig[j][o.req as usize],
            ..*o
        }));
    }
    merged.sort_unstable_by_key(|o| o.req);
    let mut busy = vec![0.0f64; n];
    for (b, busy_b) in busy.iter_mut().enumerate() {
        *busy_b = per_shard[component[b]].1[b];
    }
    finish_open_report(requests, &merged, busy)
}

/// Whether replaying `plan` against the pristine allocation could ever
/// trigger an online k-safety repair (or an outright reroute failure).
/// Until the first repair the fault-aware loop never mutates the
/// allocation, so the pre-check is exact: after each routing-changing
/// event the routable set either still serves every weighted class
/// ([`Scheduler::for_survivors`] is `Some`) or the loop would repair.
/// Repairs couple every surviving backend through the re-replicated
/// fragments, so the sharded driver falls back to the unsharded loop
/// when this returns true.
#[must_use]
pub fn plan_may_repair(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    plan: &FaultPlan,
) -> bool {
    let n = alloc.n_backends();
    let mut alive = vec![true; n];
    let mut cut = vec![false; n];
    for e in plan.events() {
        let reroutes = match *e {
            FaultEvent::Crash { backend, .. } => {
                alive[backend] = false;
                true
            }
            FaultEvent::Recover { backend, .. } => {
                alive[backend] = true;
                true
            }
            FaultEvent::Partition { id, .. } => {
                for &m in plan.partition_side(id) {
                    cut[m] = true;
                }
                true
            }
            FaultEvent::Heal { id, .. } => {
                for &m in plan.partition_side(id) {
                    cut[m] = false;
                }
                true
            }
            FaultEvent::Degrade { .. } | FaultEvent::Restore { .. } => false,
        };
        if !reroutes {
            continue;
        }
        let failed: Vec<usize> = (0..n).filter(|&b| !alive[b] || cut[b]).collect();
        if failed.is_empty() {
            continue;
        }
        if failed.len() == n || Scheduler::for_survivors(alloc, cls, cluster, &failed).is_none() {
            return true;
        }
    }
    false
}

/// The one fault-aware sharded driver: [`resilient_core`] over
/// fault-welded backend components on up to `shards` [`qcpa_par`]
/// workers, merged to the raw core of the unsharded run bit for bit.
/// Every component replays the *full* event schedule (events are cheap
/// and keep the per-component alive/cut/slow trajectories exactly the
/// unsharded ones) but only its own arrivals. Backend-local breaker
/// state is exact in the component that owns the backend (it sees all
/// fault events plus every dispatch to it), retry jitter is keyed on
/// global request ids, and the per-request tallies sum. Falls back to
/// the unsharded loop — before any request is copied — when the graph
/// is one component, when some class routes nowhere, or when the plan
/// could trigger an online repair.
fn sharded_core(run: &FaultRun<'_>, requests: &[Request], shards: usize) -> RCore {
    let n = run.cluster.len();
    let scheduler = Scheduler::new(run.alloc, run.cls);
    let component = fault_components(&scheduler, run.cls, n, run.plan);
    let n_components = component.iter().copied().max().map_or(0, |m| m + 1);
    let class_comp = class_components(&scheduler, run.cls, &component);
    if n_components <= 1
        || class_comp.iter().any(Option::is_none)
        || plan_may_repair(run.alloc, run.cls, run.cluster, run.plan)
    {
        return resilient_core(run, requests, None, None, true).finish();
    }

    let (shard_reqs, shard_orig) = split_requests(&class_comp, n_components, requests);
    let pool = qcpa_par::Pool::with_workers(shards.max(1).min(n_components));
    let per_shard: Vec<RCore> = pool.map(n_components, |j| {
        resilient_core(run, &shard_reqs[j], Some(&shard_orig[j]), None, false).finish()
    });

    // Merge: terminal states re-keyed by original index (every request
    // is in exactly one component, so the placeholder is always
    // overwritten); busy and breaker columns from each backend's owner;
    // request-driven tallies sum; event stats from component 0
    // (identical everywhere).
    let mut finals: Vec<_> = requests
        .iter()
        .map(|r| (r.arrival, r.class, RFinal::Lost))
        .collect();
    let mut tally = Tally::default();
    for (j, core) in per_shard.iter().enumerate() {
        for (k, &f) in core.finals.iter().enumerate() {
            finals[shard_orig[j][k] as usize] = f;
        }
        tally.absorb(&core.tally);
        debug_assert_eq!(
            core.stats.tally.repairs, 0,
            "plans that may repair must fall back to the unsharded loop"
        );
    }
    let owner = |b: usize| &per_shard[component[b]];
    RCore {
        finals,
        busy: (0..n).map(|b| owner(b).busy[b]).collect(),
        tally,
        breaker_opens: (0..n).map(|b| owner(b).breaker_opens[b]).collect(),
        breaker_half_opens: (0..n).map(|b| owner(b).breaker_half_opens[b]).collect(),
        breaker_closes: (0..n).map(|b| owner(b).breaker_closes[b]).collect(),
        stats: per_shard[0].stats.clone(),
    }
}

/// [`crate::fault::run_open_faults`] over fault-welded backend
/// components — the same projection of the resilient core, taken from
/// [`run_open_resilient_sharded`]'s driver with every mechanism off,
/// and bit-identical to the unsharded report.
#[allow(clippy::too_many_arguments)]
pub fn run_open_faults_sharded(
    alloc: &Allocation,
    cls: &Classification,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    requests: &[Request],
    warmup_backlog: f64,
    cfg: &SimConfig,
    plan: &FaultPlan,
    fcfg: &FaultConfig,
    shards: usize,
) -> FaultReport {
    let _span = qcpa_obs::span("sim", "run_open_faults_sharded");
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
    assemble_fault_report(requests, sharded_core(&run, requests, shards))
}

/// [`crate::resilience::run_open_resilient`] over fault-welded backend
/// components on up to `shards` workers — bit-identical to the
/// unsharded run.
#[allow(clippy::too_many_arguments)]
pub fn run_open_resilient_sharded(
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
    shards: usize,
) -> ResilienceReport {
    let _span = qcpa_obs::span("sim", "run_open_resilient_sharded");
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
    assemble_resilience_report(requests, cls.len(), sharded_core(&run, requests, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_open;
    use crate::request::RequestStream;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Two disjoint table groups → two components under a greedy
    /// allocation that keeps them apart.
    fn disjoint_setup() -> (Catalog, Classification, RequestStream) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 4_000);
        let b = cat.add_table("B", 4_000);
        let c = cat.add_table("C", 4_000);
        let d = cat.add_table("D", 4_000);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.3),
            QueryClass::update(1, [b], 0.2),
            QueryClass::read(2, [c], 0.3),
            QueryClass::update(3, [d], 0.2),
        ])
        .unwrap();
        let stream = RequestStream::new(
            vec![30.0, 20.0, 30.0, 20.0],
            vec![
                QueryKind::Read,
                QueryKind::Update,
                QueryKind::Read,
                QueryKind::Update,
            ],
            vec![0.01; 4],
        );
        (cat, cls, stream)
    }

    fn assert_reports_bit_identical(a: &OpenReport, b: &OpenReport) {
        assert_eq!(a.responses.len(), b.responses.len());
        for (x, y) in a.responses.iter().zip(&b.responses) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.p95_response.to_bits(), b.p95_response.to_bits());
        for (x, y) in a.busy.iter().zip(&b.busy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.utilization.iter().zip(&b.utilization) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sharded_run_matches_unsharded_bit_for_bit() {
        let (cat, cls, stream) = disjoint_setup();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let scheduler = Scheduler::new(&alloc, &cls);
        let comps = backend_components(&scheduler, &cls, 4);
        let n_comp = comps.iter().max().unwrap() + 1;
        assert!(n_comp >= 2, "setup must decompose: components {comps:?}");

        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let reqs = stream.sample_poisson(80.0, 30.0, 0.1, &mut rng);
        let cfg = SimConfig::default();
        let plain = run_open(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg);
        for shards in [1usize, 2, 4] {
            let sharded = run_open_sharded(&alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, shards);
            assert_reports_bit_identical(&plain, &sharded);
        }
    }

    #[test]
    fn sharded_fault_engines_match_unsharded_bit_for_bit() {
        use crate::fault::LayeredFaultConfig;

        let (cat, cls, stream) = disjoint_setup();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let cfg = SimConfig::default();
        let fcfg = FaultConfig::default();
        let rcfg = ResilienceConfig::default();
        let lcfg = LayeredFaultConfig {
            gray: 2,
            partitions: 1,
            gray_duration: 4.0,
            partition_duration: 4.0,
            ..LayeredFaultConfig::default()
        };

        let mut nontrivial = 0usize;
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let reqs = stream.sample_poisson(80.0, 20.0, 0.1, &mut rng);
            let plan = FaultPlan::from_seed_layered(seed, 4, 20.0, &lcfg);
            let scheduler = Scheduler::new(&alloc, &cls);
            let comps = fault_components(&scheduler, &cls, 4, &plan);
            let n_comp = comps.iter().max().unwrap() + 1;
            if n_comp >= 2 && !plan_may_repair(&alloc, &cls, &cluster, &plan) {
                nontrivial += 1;
            }

            let fr = crate::fault::run_open_faults(
                &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg,
            );
            let rr = crate::resilience::run_open_resilient(
                &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg, &rcfg,
            );
            for shards in [1usize, 2, 4] {
                let fs = run_open_faults_sharded(
                    &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg, shards,
                );
                assert_eq!(fr.responses.len(), fs.responses.len());
                for (x, y) in fr.responses.iter().zip(&fs.responses) {
                    assert_eq!(x.0.to_bits(), y.0.to_bits(), "seed {seed} shards {shards}");
                    assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
                assert_eq!(fr.lost, fs.lost);
                assert_eq!(fr.redispatched, fs.redispatched);
                assert_eq!(fr.gray_windows, fs.gray_windows);
                assert_eq!(fr.partitions, fs.partitions);
                for (x, y) in fr.busy.iter().zip(&fs.busy) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                assert_eq!(fr.availability, fs.availability);

                let rs = run_open_resilient_sharded(
                    &alloc, &cls, &cluster, &cat, &reqs, 0.0, &cfg, &plan, &fcfg, &rcfg, shards,
                );
                assert_eq!(rr.responses.len(), rs.responses.len());
                for (x, y) in rr.responses.iter().zip(&rs.responses) {
                    assert_eq!(x.0.to_bits(), y.0.to_bits(), "seed {seed} shards {shards}");
                    assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
                assert_eq!(rr.completed, rs.completed);
                assert_eq!(rr.shed, rs.shed);
                assert_eq!(rr.timed_out, rs.timed_out);
                assert_eq!(rr.lost, rs.lost);
                assert_eq!(rr.retries, rs.retries);
                assert_eq!(rr.breaker_opens, rs.breaker_opens);
                assert_eq!(rr.breaker_closes, rs.breaker_closes);
                for (x, y) in rr.busy.iter().zip(&rs.busy) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} shards {shards}");
                }
                assert_eq!(rr.availability, rs.availability);
            }
        }
        assert!(
            nontrivial >= 1,
            "at least one seed must exercise the genuinely sharded path"
        );
    }

    #[test]
    fn fault_components_weld_partition_sides_and_zones() {
        let (cat, cls, _) = disjoint_setup();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = greedy::allocate(&cls, &cat, &cluster);
        let scheduler = Scheduler::new(&alloc, &cls);
        let base = backend_components(&scheduler, &cls, 4);
        let n_base = base.iter().max().unwrap() + 1;
        assert!(n_base >= 2, "setup must decompose: {base:?}");
        // A partition side spanning two base components welds them.
        let (u, v) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| base[a] != base[b])
            .unwrap();
        let side = if u < v { vec![u, v] } else { vec![v, u] };
        let plan = FaultPlan::with_partitions(
            vec![
                FaultEvent::Partition { id: 0, at: 1.0 },
                FaultEvent::Heal { id: 0, at: 2.0 },
            ],
            4,
            vec![side],
        )
        .unwrap();
        let welded = fault_components(&scheduler, &cls, 4, &plan);
        assert_eq!(welded[u], welded[v], "{welded:?}");
        // Co-crashed backends (same instant → zone failure) weld too.
        let plan = FaultPlan::new(
            vec![
                FaultEvent::Crash {
                    backend: u,
                    at: 1.5,
                },
                FaultEvent::Crash {
                    backend: v,
                    at: 1.5,
                },
                FaultEvent::Recover {
                    backend: u,
                    at: 3.0,
                    catchup_cost: 0.0,
                },
                FaultEvent::Recover {
                    backend: v,
                    at: 3.5,
                    catchup_cost: 0.0,
                },
            ],
            4,
        )
        .unwrap();
        let welded = fault_components(&scheduler, &cls, 4, &plan);
        assert_eq!(welded[u], welded[v], "{welded:?}");
        // An empty plan changes nothing.
        let empty = FaultPlan::new(Vec::new(), 4).unwrap();
        assert_eq!(fault_components(&scheduler, &cls, 4, &empty), base);
    }

    #[test]
    fn full_replication_is_one_component() {
        let (cat, cls, _) = disjoint_setup();
        let cluster = ClusterSpec::homogeneous(3);
        let full = Allocation::full_replication(&cls, &cluster);
        let scheduler = Scheduler::new(&full, &cls);
        let comps = backend_components(&scheduler, &cls, 3);
        assert!(comps.iter().all(|&c| c == 0), "{comps:?}");
        let _ = cat;
    }

    #[test]
    fn shards_env_defaults_to_serial() {
        // Not manipulating the environment (tests run concurrently):
        // the parse contract is pinned on the helper's fallback.
        assert!(shards_from_env() >= 1);
    }
}
