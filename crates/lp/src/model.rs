//! The Appendix-B optimal allocation model.
//!
//! Two linear programs over binary placement variables:
//!
//! 1. **Scale pass** — minimize the `scale` factor (maximal relative
//!    backend overload), subject to: every read class fully assigned
//!    (Eq. 38), reads only run where hosted (Eq. 40), updates run
//!    everywhere their data lives (Eq. 41–42), and the per-backend load
//!    cap (Eq. 43). The optimal `scale` gives the throughput-optimal
//!    allocation (speedup = `|B|/scale`, Eq. 19).
//! 2. **Storage pass** — with `scale` fixed at its optimum, minimize the
//!    total allocated bytes `Σ size(f)·a_ij` subject additionally to the
//!    fragment-hosting constraints (Eq. 44–45).
//!
//! Variables: `h[i][k]` (read class `k` hosted on backend `i`, binary),
//! `h'[i][k]` (update class hosted, binary), `l[i][k]` (read load share,
//! continuous), `a[i][j]` (fragment placement — continuous in `[0,1]`
//! but forced integral at the optimum because it is bounded below by
//! binaries and minimized).

use std::time::Duration;

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::Classification;
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::{Catalog, FragmentId};
use qcpa_core::EPS;

use crate::mip::{self, MipConfig, MipStatus};
use crate::simplex::{Constraint, LinearProgram};

/// Budgets and warm-start hints for the optimal allocation.
#[derive(Debug, Clone)]
pub struct OptimalConfig {
    /// Node budget per pass.
    pub max_nodes: usize,
    /// Wall-clock budget per pass.
    pub time_limit: Duration,
    /// Warm start: a known feasible allocation (e.g. greedy/memetic)
    /// whose scale and bytes prune the search. Optional.
    pub incumbent: Option<(f64, u64)>,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            time_limit: Duration::from_secs(120),
            incumbent: None,
        }
    }
}

/// Result of the two-pass optimization.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// The best allocation found (validated), if any.
    pub allocation: Option<Allocation>,
    /// Optimal (or best-bound) scale from pass 1.
    pub scale: f64,
    /// Proven lower bound on the total bytes from pass 2.
    pub bytes_lower_bound: f64,
    /// Status of the scale pass (`Optimal` when skipped for read-only
    /// workloads, where scale is trivially 1).
    pub scale_status: MipStatus,
    /// Status of the storage pass.
    pub storage_status: MipStatus,
    /// Total nodes explored across both passes.
    pub nodes: usize,
}

/// Index bookkeeping for the variable blocks.
struct VarMap {
    n_backends: usize,
    n_reads: usize,
    n_updates: usize,
    frags: Vec<FragmentId>,
    frag_index: Vec<Option<usize>>,
}

impl VarMap {
    fn new(cls: &Classification, catalog: &Catalog, cluster: &ClusterSpec) -> Self {
        let frags: Vec<FragmentId> = cls.referenced_fragments().iter().collect();
        let mut frag_index = vec![None; catalog.len()];
        for (j, f) in frags.iter().enumerate() {
            frag_index[f.idx()] = Some(j);
        }
        Self {
            n_backends: cluster.len(),
            n_reads: cls.read_ids().len(),
            n_updates: cls.update_ids().len(),
            frags,
            frag_index,
        }
    }

    /// `l[i][k]` — read load share.
    fn l(&self, i: usize, k: usize) -> usize {
        i * self.n_reads + k
    }
    /// `h[i][k]` — read class hosted (binary).
    fn h(&self, i: usize, k: usize) -> usize {
        self.n_backends * self.n_reads + i * self.n_reads + k
    }
    /// `h'[i][k]` — update class hosted (binary).
    fn hu(&self, i: usize, k: usize) -> usize {
        2 * self.n_backends * self.n_reads + i * self.n_updates + k
    }
    /// `scale`.
    fn scale(&self) -> usize {
        2 * self.n_backends * self.n_reads + self.n_backends * self.n_updates
    }
    /// `a[i][j]` — fragment placement (storage pass only).
    fn a(&self, i: usize, j: usize) -> usize {
        self.scale() + 1 + i * self.frags.len() + j
    }
    fn n_vars_scale_pass(&self) -> usize {
        self.scale() + 1
    }
    fn n_vars_storage_pass(&self) -> usize {
        self.scale() + 1 + self.n_backends * self.frags.len()
    }
}

/// Builds the constraints shared by both passes.
fn base_constraints(
    lp: &mut LinearProgram,
    vm: &VarMap,
    cls: &Classification,
    cluster: &ClusterSpec,
) {
    let reads = cls.read_ids();
    let updates = cls.update_ids();

    // Eq. 38: every read class fully assigned.
    for (k, &r) in reads.iter().enumerate() {
        let row = (0..vm.n_backends).map(|i| (vm.l(i, k), 1.0)).collect();
        lp.add(Constraint::eq(row, cls.weight(r)));
    }
    // Eq. 40 link: l ≤ w·h, plus the binary box h ≤ 1.
    for (k, &r) in reads.iter().enumerate() {
        let w = cls.weight(r).max(EPS);
        for i in 0..vm.n_backends {
            lp.add(Constraint::le(
                vec![(vm.l(i, k), 1.0), (vm.h(i, k), -w)],
                0.0,
            ));
            lp.add(Constraint::le(vec![(vm.h(i, k), 1.0)], 1.0));
        }
    }
    // Eq. 41: hosting a read forces the overlapping update classes.
    for (ku, &u) in updates.iter().enumerate() {
        for (kr, &r) in reads.iter().enumerate() {
            if cls.fragment_set(u).intersects(cls.fragment_set(r)) {
                for i in 0..vm.n_backends {
                    lp.add(Constraint::ge(
                        vec![(vm.hu(i, ku), 1.0), (vm.h(i, kr), -1.0)],
                        0.0,
                    ));
                }
            }
        }
        // Update–update chaining: overlapping update classes co-locate
        // (a backend holding any fragment of one holds fragments of the
        // other; Eq. 8 then forces both to run there).
        for (ku2, &u2) in updates.iter().enumerate() {
            if ku2 != ku && cls.fragment_set(u).intersects(cls.fragment_set(u2)) {
                for i in 0..vm.n_backends {
                    lp.add(Constraint::ge(
                        vec![(vm.hu(i, ku), 1.0), (vm.hu(i, ku2), -1.0)],
                        0.0,
                    ));
                }
            }
        }
    }
    // Eq. 39/42: every update class somewhere.
    for (ku, _) in updates.iter().enumerate() {
        let row = (0..vm.n_backends).map(|i| (vm.hu(i, ku), 1.0)).collect();
        lp.add(Constraint::ge(row, 1.0));
    }
    // Eq. 43: per-backend load cap at `scale × load(B)`.
    for i in 0..vm.n_backends {
        let mut row: Vec<(usize, f64)> = (0..vm.n_reads).map(|k| (vm.l(i, k), 1.0)).collect();
        for (ku, &u) in updates.iter().enumerate() {
            row.push((vm.hu(i, ku), cls.weight(u)));
        }
        row.push((vm.scale(), -cluster.load(qcpa_core::BackendId(i as u32))));
        lp.add(Constraint::le(row, 0.0));
    }
}

/// Computes the throughput- then storage-optimal allocation.
///
/// Pass 1 is skipped for read-only workloads (scale is trivially 1).
/// With a generous budget and a small instance the result is proven
/// optimal; otherwise the best incumbent plus a lower bound is returned.
pub fn optimal_allocation(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    cfg: &OptimalConfig,
) -> OptimalOutcome {
    let vm = VarMap::new(cls, catalog, cluster);
    let binaries: Vec<usize> = (0..vm.n_backends)
        .flat_map(|i| (0..vm.n_reads).map(move |k| (i, k)))
        .map(|(i, k)| vm.h(i, k))
        .chain(
            (0..vm.n_backends)
                .flat_map(|i| (0..vm.n_updates).map(move |k| (i, k)))
                .map(|(i, k)| vm.hu(i, k)),
        )
        .collect();

    let mut nodes = 0usize;

    // ---- Pass 1: minimize scale (skipped when read-only). ----
    let (scale, scale_status) = if cls.update_ids().is_empty() {
        (1.0, MipStatus::Optimal)
    } else {
        let mut lp = LinearProgram::new(vm.n_vars_scale_pass());
        base_constraints(&mut lp, &vm, cls, cluster);
        lp.add(Constraint::ge(vec![(vm.scale(), 1.0)], 1.0));
        lp.set_objective(vm.scale(), 1.0);
        let mip_cfg = MipConfig {
            max_nodes: cfg.max_nodes,
            time_limit: cfg.time_limit,
            incumbent_objective: cfg
                .incumbent
                .map(|(s, _)| s + 1e-7)
                .unwrap_or(f64::INFINITY),
        };
        let out = mip::solve_binary(&lp, &binaries, &mip_cfg);
        nodes += out.nodes;
        match out.status {
            MipStatus::Infeasible => {
                return OptimalOutcome {
                    allocation: None,
                    scale: f64::NAN,
                    bytes_lower_bound: f64::NAN,
                    scale_status: MipStatus::Infeasible,
                    storage_status: MipStatus::Infeasible,
                    nodes,
                }
            }
            status => {
                // If pruned entirely by the incumbent, the incumbent's
                // scale is the optimum within tolerance.
                let s = if out.x.is_some() {
                    out.objective
                } else {
                    cfg.incumbent.map(|(s, _)| s).unwrap_or(out.objective)
                };
                (s, status)
            }
        }
    };

    // ---- Pass 2: minimize storage at the fixed scale. ----
    let mut lp = LinearProgram::new(vm.n_vars_storage_pass());
    base_constraints(&mut lp, &vm, cls, cluster);
    // Fix scale (with slack for float tolerance).
    lp.add(Constraint::le(vec![(vm.scale(), 1.0)], scale + 1e-6));
    lp.add(Constraint::ge(vec![(vm.scale(), 1.0)], 1.0));
    // Eq. 44/45 (per-fragment form): hosting a class forces its
    // fragments' placement variables.
    for (kr, &r) in cls.read_ids().iter().enumerate() {
        for f in &cls.classes[r.idx()].fragments {
            #[expect(
                clippy::expect_used,
                reason = "`VarMap::new` maps every referenced fragment"
            )]
            let j = vm.frag_index[f.idx()].expect("referenced fragment is mapped");
            for i in 0..vm.n_backends {
                lp.add(Constraint::ge(
                    vec![(vm.a(i, j), 1.0), (vm.h(i, kr), -1.0)],
                    0.0,
                ));
            }
        }
    }
    for (ku, &u) in cls.update_ids().iter().enumerate() {
        for f in &cls.classes[u.idx()].fragments {
            #[expect(
                clippy::expect_used,
                reason = "`VarMap::new` maps every referenced fragment"
            )]
            let j = vm.frag_index[f.idx()].expect("referenced fragment is mapped");
            for i in 0..vm.n_backends {
                lp.add(Constraint::ge(
                    vec![(vm.a(i, j), 1.0), (vm.hu(i, ku), -1.0)],
                    0.0,
                ));
            }
        }
    }
    // Storage objective.
    for (j, f) in vm.frags.iter().enumerate() {
        for i in 0..vm.n_backends {
            lp.set_objective(vm.a(i, j), catalog.size(*f) as f64);
        }
    }
    let mip_cfg = MipConfig {
        max_nodes: cfg.max_nodes,
        time_limit: cfg.time_limit,
        incumbent_objective: cfg
            .incumbent
            .map(|(_, b)| b as f64 + 0.5)
            .unwrap_or(f64::INFINITY),
    };
    let out = mip::solve_binary(&lp, &binaries, &mip_cfg);
    nodes += out.nodes;

    let allocation = out.x.as_ref().map(|x| extract(x, &vm, cls, cluster));
    OptimalOutcome {
        allocation,
        scale,
        bytes_lower_bound: out.lower_bound,
        scale_status,
        storage_status: out.status,
        nodes,
    }
}

/// Reads the solved variables back into an [`Allocation`].
fn extract(x: &[f64], vm: &VarMap, cls: &Classification, cluster: &ClusterSpec) -> Allocation {
    let mut alloc = Allocation::empty(cls.len(), cluster.len());
    for i in 0..vm.n_backends {
        for (j, f) in vm.frags.iter().enumerate() {
            if x[vm.a(i, j)] > 0.5 {
                alloc.fragments[i].insert(*f);
            }
        }
    }
    for (k, &r) in cls.read_ids().iter().enumerate() {
        for i in 0..vm.n_backends {
            let v = x[vm.l(i, k)];
            if v > EPS {
                alloc.assign[r.idx()][i] = v;
            }
        }
    }
    for (k, &u) in cls.update_ids().iter().enumerate() {
        for i in 0..vm.n_backends {
            if x[vm.hu(i, k)] > 0.5 {
                alloc.assign[u.idx()][i] = cls.weight(u);
            }
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::QueryClass;
    use qcpa_core::greedy;

    fn section3() -> (Catalog, Classification) {
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
        (cat, cls)
    }

    #[test]
    fn section3_two_backends_optimal_is_four_tables() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(2);
        let out = optimal_allocation(&cls, &cat, &cluster, &OptimalConfig::default());
        assert_eq!(out.storage_status, MipStatus::Optimal);
        let alloc = out.allocation.expect("solved");
        alloc.validate(&cls, &cluster).unwrap();
        // Paper: allocate A to B1, C to B2, replicate B → 400 bytes.
        assert_eq!(alloc.total_bytes(&cat), 400);
        assert!((alloc.scale(&cluster) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn section3_four_backends_optimal_replicates_two_tables() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(4);
        let out = optimal_allocation(&cls, &cat, &cluster, &OptimalConfig::default());
        assert_eq!(out.storage_status, MipStatus::Optimal);
        let alloc = out.allocation.expect("solved");
        alloc.validate(&cls, &cluster).unwrap();
        // Paper: speedup 4 with only two tables replicated → 5 replicas.
        assert!((alloc.scale(&cluster) - 1.0).abs() < 1e-6);
        assert_eq!(alloc.total_bytes(&cat), 500);
    }

    #[test]
    fn update_workload_matches_max_speedup_bound() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.45),
            QueryClass::read(1, [b], 0.35),
            QueryClass::update(2, [a], 0.20),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let out = optimal_allocation(&cls, &cat, &cluster, &OptimalConfig::default());
        let alloc = out.allocation.expect("solved");
        alloc.validate(&cls, &cluster).unwrap();
        // Keeping the update on one backend gives loads 0.65/0.35
        // (scale 1.3), but the optimum *replicates* the update and splits
        // the A-reads 0.40/0.05: loads 0.60/0.60, scale 1.2 — replicated
        // update work traded for balance.
        assert!((out.scale - 1.2).abs() < 1e-6, "scale {}", out.scale);
        // The optimum can never beat the Eq. 17 bound.
        assert!(alloc.speedup(&cluster) <= cls.max_speedup() + 1e-6);
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let mut cat = Catalog::new();
        let frags: Vec<_> = (0..4)
            .map(|i| cat.add_table(format!("T{i}"), 100 + 50 * i as u64))
            .collect();
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [frags[0]], 0.30),
            QueryClass::read(1, [frags[1]], 0.25),
            QueryClass::read(2, [frags[2], frags[3]], 0.20),
            QueryClass::update(3, [frags[1]], 0.15),
            QueryClass::update(4, [frags[3]], 0.10),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let g = greedy::allocate(&cls, &cat, &cluster);
        let out = optimal_allocation(
            &cls,
            &cat,
            &cluster,
            &OptimalConfig {
                incumbent: None,
                ..Default::default()
            },
        );
        let alloc = out.allocation.expect("solved");
        alloc.validate(&cls, &cluster).unwrap();
        assert!(out.scale <= g.scale(&cluster) + 1e-6);
        if (out.scale - g.scale(&cluster)).abs() < 1e-6 {
            assert!(alloc.total_bytes(&cat) <= g.total_bytes(&cat));
        }
    }

    #[test]
    fn heterogeneous_loads_respected() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::heterogeneous(&[3.0, 1.0]);
        let out = optimal_allocation(&cls, &cat, &cluster, &OptimalConfig::default());
        let alloc = out.allocation.expect("solved");
        alloc.validate(&cls, &cluster).unwrap();
        assert!((alloc.scale(&cluster) - 1.0).abs() < 1e-6);
        // The strong backend must carry 75 % of the load.
        assert!((alloc.assigned_load(qcpa_core::BackendId(0)) - 0.75).abs() < 1e-6);
    }
}
