//! Multilevel co-access coarsening: solve huge allocation instances by
//! contracting the fragment–query co-access graph, optimizing the
//! coarsest instance, and projecting + refining back down.
//!
//! The paper's memetic allocator explores `O(|fragments| × |backends|)`
//! structures per candidate, which is comfortable at the paper's
//! 10-backend horizon and intractable two orders past it. The classic
//! answer from graph partitioning (see *Distributed Data Placement via
//! Graph Partitioning*, PAPERS.md) is multilevel optimization:
//!
//! 1. **Coarsen** — build the co-access graph (fragments are vertices;
//!    an edge's weight is the summed weight of the query classes
//!    referencing both endpoints), then contract a heavy-edge matching
//!    into super-fragments, level by level, size-capped so no
//!    super-fragment dominates a backend ([`coarsen_once`]).
//! 2. **Solve** — run the full memetic allocator on the coarsest
//!    instance, where its quality matters most per unit of work.
//! 3. **Uncoarsen** — project each coarse read placement onto the finer
//!    level (splitting a super-class row proportionally to its member
//!    classes' weights), re-normalize, and run the local-search
//!    refinement ([`crate::localsearch::improve`]) before projecting
//!    further — incremental refinement from an incumbent, as in
//!    *Dynamic Physiological Partitioning* (PAPERS.md).
//!
//! Classes whose fragment sets collapse to the same super-fragment set
//! merge into one coarse class (weights summed), which is what makes
//! the coarse instance genuinely smaller: co-accessed fragments pull
//! their classes together.
//!
//! Determinism: everything here is pure data manipulation over
//! `BTreeMap`/`BTreeSet` (deterministic iteration), edge sorting uses
//! `total_cmp` with id tie-breaks, and the coarsest solve is the
//! bit-identical [`crate::memetic`] path — so the whole pipeline is
//! bit-identical across `QCPA_THREADS` and reruns.

use std::collections::{BTreeMap, BTreeSet};

use crate::allocation::{AllocCost, Allocation};
use crate::classify::{Classification, QueryClass};
use crate::cluster::ClusterSpec;
use crate::fragment::{Catalog, FragmentId};
use crate::journal::QueryKind;
use crate::memetic::{self, MemeticConfig};
use crate::{localsearch, EPS};

/// Tuning knobs of the multilevel pipeline.
#[derive(Debug, Clone)]
pub struct CoarsenConfig {
    /// Stop coarsening once the instance has at most this many
    /// fragments — the size handed to the memetic solver.
    pub target_fragments: usize,
    /// Hard cap on coarsening levels; `0` forces direct (single-level)
    /// allocation at any size.
    pub max_levels: usize,
    /// A merged super-fragment may hold at most
    /// `size_cap_factor × total_bytes / target_fragments` bytes,
    /// keeping super-fragments balanced enough to place.
    pub size_cap_factor: f64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        Self {
            target_fragments: 64,
            max_levels: 16,
            size_cap_factor: 4.0,
        }
    }
}

/// What [`allocate_multilevel`] produced, with enough provenance to
/// assert the multilevel contract in tests and report it in benches.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The final finest-level allocation.
    pub alloc: Allocation,
    /// Coarsening levels actually applied (0 = the instance was small
    /// enough to solve directly).
    pub levels: usize,
    /// Fragment count of the coarsest instance the memetic solver saw.
    pub coarsest_fragments: usize,
    /// Class count of the coarsest instance.
    pub coarsest_classes: usize,
    /// Cost of the finest-level allocation right after projection,
    /// before the final refinement — the bound the refined result must
    /// not exceed (local search is monotone).
    pub projected_cost: AllocCost,
    /// Cost of [`MultilevelOutcome::alloc`].
    pub final_cost: AllocCost,
}

/// One coarsening step: contracts a size-capped heavy-edge matching of
/// the co-access graph. Returns the coarse catalog, the coarse
/// classification, and `class_map` (finest index → coarse index), or
/// `None` when no pair could be merged.
#[must_use]
pub fn coarsen_once(
    catalog: &Catalog,
    cls: &Classification,
    size_cap: u64,
) -> Option<(Catalog, Classification, Vec<u32>)> {
    let n = catalog.len();
    // Co-access edges: fragment pairs referenced by the same class,
    // weighted by the class weight. Classes referencing many fragments
    // contribute a path instead of a clique — O(|frags|) edges keeps a
    // full-replication class from exploding the graph, and a path is
    // all the matching needs to pull the set together.
    let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for qc in &cls.classes {
        let frags: Vec<FragmentId> = qc.fragments.iter().copied().collect();
        if frags.len() <= 32 {
            for i in 0..frags.len() {
                for j in (i + 1)..frags.len() {
                    let a = frags[i].0.min(frags[j].0);
                    let b = frags[i].0.max(frags[j].0);
                    *edges.entry((a, b)).or_insert(0.0) += qc.weight;
                }
            }
        } else {
            for w in frags.windows(2) {
                let a = w[0].0.min(w[1].0);
                let b = w[0].0.max(w[1].0);
                *edges.entry((a, b)).or_insert(0.0) += qc.weight;
            }
        }
    }
    // Heaviest edges first; ties broken by fragment ids so the matching
    // is a pure function of the instance.
    let mut sorted: Vec<((u32, u32), f64)> = edges.into_iter().collect();
    sorted.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    let mut partner: Vec<Option<u32>> = vec![None; n];
    let mut merged = 0usize;
    for ((a, b), _) in sorted {
        let (ai, bi) = (a as usize, b as usize);
        if partner[ai].is_some() || partner[bi].is_some() {
            continue;
        }
        if catalog.size(FragmentId(a)) + catalog.size(FragmentId(b)) > size_cap {
            continue;
        }
        partner[ai] = Some(b);
        partner[bi] = Some(a);
        merged += 1;
    }
    if merged == 0 {
        return None;
    }

    // Coarse catalog: one super-fragment per matched pair (named after
    // its coarse index), singletons carried through.
    let mut frag_map: Vec<u32> = vec![u32::MAX; n];
    let mut coarse_cat = Catalog::new();
    for i in 0..n {
        match partner[i] {
            Some(p) if (p as usize) < i => {
                frag_map[i] = frag_map[p as usize];
            }
            other => {
                let size = catalog.size(FragmentId(i as u32))
                    + other.map_or(0, |p| catalog.size(FragmentId(p)));
                let id = coarse_cat.add_table(format!("s{}", coarse_cat.len()), size);
                frag_map[i] = id.0;
            }
        }
    }

    // Coarse classes: group fine classes by (kind, mapped fragment
    // set), summing weights. BTreeMap iteration fixes the dense coarse
    // ids deterministically.
    let mut weight_of: BTreeMap<(bool, BTreeSet<FragmentId>), f64> = BTreeMap::new();
    let mut keys: Vec<(bool, BTreeSet<FragmentId>)> = Vec::with_capacity(cls.len());
    for qc in &cls.classes {
        let mapped: BTreeSet<FragmentId> = qc
            .fragments
            .iter()
            .map(|f| FragmentId(frag_map[f.idx()]))
            .collect();
        let key = (qc.kind == QueryKind::Update, mapped);
        *weight_of.entry(key.clone()).or_insert(0.0) += qc.weight;
        keys.push(key);
    }
    let mut index_of: BTreeMap<&(bool, BTreeSet<FragmentId>), u32> = BTreeMap::new();
    let mut coarse_classes: Vec<QueryClass> = Vec::with_capacity(weight_of.len());
    for (i, (key, w)) in weight_of.iter().enumerate() {
        index_of.insert(key, i as u32);
        let frags = key.1.iter().copied();
        coarse_classes.push(if key.0 {
            QueryClass::update(i as u32, frags, *w)
        } else {
            QueryClass::read(i as u32, frags, *w)
        });
    }
    let class_map: Vec<u32> = keys.iter().map(|k| index_of[k]).collect();
    let coarse_cls = Classification::from_classes(coarse_classes).ok()?;
    Some((coarse_cat, coarse_cls, class_map))
}

/// The full multilevel pipeline: coarsen until the instance fits
/// [`CoarsenConfig::target_fragments`] (or no pair merges), solve the
/// coarsest instance with [`memetic::allocate`], then project + refine
/// level by level back to the original instance.
///
/// The returned allocation passes [`Allocation::validate`], and
/// `final_cost` never exceeds `projected_cost` (refinement is
/// monotone). Bit-identical across thread counts and reruns.
#[must_use]
pub fn allocate_multilevel(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    mcfg: &MemeticConfig,
    ccfg: &CoarsenConfig,
) -> MultilevelOutcome {
    let _span = qcpa_obs::span("core", "multilevel_allocate");
    // Coarsening stack: (finer catalog, finer classification, map from
    // finer class index to the next-coarser class index).
    let mut stack: Vec<(Catalog, Classification, Vec<u32>)> = Vec::new();
    let mut cur_cat = catalog.clone();
    let mut cur_cls = cls.clone();
    let total_bytes: u64 = (0..cur_cat.len())
        .map(|i| cur_cat.size(FragmentId(i as u32)))
        .sum();
    let size_cap = ((total_bytes as f64 / ccfg.target_fragments.max(1) as f64)
        * ccfg.size_cap_factor)
        .max(1.0) as u64;
    while cur_cat.len() > ccfg.target_fragments && stack.len() < ccfg.max_levels {
        match coarsen_once(&cur_cat, &cur_cls, size_cap) {
            Some((cat2, cls2, class_map)) if cat2.len() < cur_cat.len() => {
                stack.push((cur_cat, cur_cls, class_map));
                cur_cat = cat2;
                cur_cls = cls2;
            }
            _ => break,
        }
    }
    let levels = stack.len();
    let coarsest_fragments = cur_cat.len();
    let coarsest_classes = cur_cls.len();

    // Solve the coarsest instance with the full memetic machinery.
    let mut alloc = memetic::allocate(&cur_cls, &cur_cat, cluster, mcfg);
    let mut projected_cost = alloc.cost(cluster, &cur_cat);

    // Uncoarsen: project each coarse read row onto its member classes
    // proportionally to weight, normalize (update rows and fragment
    // sets are derived), then refine with the local search before
    // projecting further.
    while let Some((fine_cat, fine_cls, class_map)) = stack.pop() {
        let mut fine = Allocation::empty(fine_cls.len(), cluster.len());
        for &r in fine_cls.read_ids() {
            let k = class_map[r.idx()] as usize;
            let wk = cur_cls.classes[k].weight;
            let wc = fine_cls.classes[r.idx()].weight;
            let frac = if wk > EPS { wc / wk } else { 0.0 };
            for b in 0..cluster.len() {
                fine.assign[r.idx()][b] = alloc.assign[k][b] * frac;
            }
        }
        fine.normalize(&fine_cls, cluster);
        if stack.is_empty() {
            // The finest level: the post-projection cost is the bound
            // the final refinement must not exceed.
            projected_cost = fine.cost(cluster, &fine_cat);
        }
        localsearch::improve(&mut fine, &fine_cls, &fine_cat, cluster);
        alloc = fine;
        cur_cls = fine_cls;
    }

    let final_cost = alloc.cost(cluster, catalog);
    MultilevelOutcome {
        alloc,
        levels,
        coarsest_fragments,
        coarsest_classes,
        projected_cost,
        final_cost,
    }
}

/// [`allocate_multilevel`] followed by a k-safety repair at the finest
/// level. The repair may add replicas (and cost), so `final_cost` here
/// is *not* bounded by `projected_cost`; the contract is validity plus
/// [`crate::ksafety::is_k_safe`].
#[must_use]
pub fn allocate_multilevel_ksafe(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    mcfg: &MemeticConfig,
    ccfg: &CoarsenConfig,
    k: usize,
) -> MultilevelOutcome {
    let mut out = allocate_multilevel(cls, catalog, cluster, mcfg, ccfg);
    crate::ksafety::repair(&mut out.alloc, cls, cluster, k);
    out.final_cost = out.alloc.cost(cluster, catalog);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clustered co-access workload: `n` fragments in clusters of 4,
    /// with pair, whole-cluster, and cross-cluster read classes (so the
    /// co-access graph stays connected through several contraction
    /// levels) plus an update class on every other cluster.
    fn clustered_workload(n: usize) -> (Catalog, Classification) {
        let mut cat = Catalog::new();
        let frags: Vec<FragmentId> = (0..n)
            .map(|i| cat.add_table(format!("t{i}"), 64 + (i as u64 % 7) * 16))
            .collect();
        let n_clusters = n / 4;
        let mut classes = Vec::new();
        let mut id = 0u32;
        for c in 0..n_clusters {
            let base = c * 4;
            classes.push(QueryClass::read(id, [frags[base], frags[base + 1]], 1.0));
            id += 1;
            classes.push(QueryClass::read(
                id,
                [frags[base + 2], frags[base + 3]],
                0.8,
            ));
            id += 1;
            classes.push(QueryClass::read(
                id,
                frags[base..base + 4].iter().copied(),
                0.5,
            ));
            id += 1;
            if c + 1 < n_clusters {
                classes.push(QueryClass::read(id, [frags[base], frags[base + 4]], 0.1));
                id += 1;
            }
            if c % 2 == 0 {
                classes.push(QueryClass::update(id, [frags[base]], 0.3));
                id += 1;
            }
        }
        let total: f64 = classes.iter().map(|c| c.weight).sum();
        for c in &mut classes {
            c.weight /= total;
        }
        let cls = Classification::from_classes(classes).unwrap();
        (cat, cls)
    }

    #[test]
    fn coarsen_once_merges_coaccessed_pairs_and_remaps_classes() {
        let (cat, cls) = clustered_workload(16);
        let (ccat, ccls, class_map) = coarsen_once(&cat, &cls, u64::MAX).unwrap();
        assert!(ccat.len() < cat.len(), "{} -> {}", cat.len(), ccat.len());
        assert_eq!(class_map.len(), cls.len());
        // Weights regroup without loss.
        let fine_total: f64 = cls.classes.iter().map(|c| c.weight).sum();
        let coarse_total: f64 = ccls.classes.iter().map(|c| c.weight).sum();
        assert!((fine_total - coarse_total).abs() < 1e-9);
        // Every fine class maps to a coarse class of the same kind with
        // the summed weight of its group.
        for (i, qc) in cls.classes.iter().enumerate() {
            let k = class_map[i] as usize;
            assert_eq!(ccls.classes[k].kind, qc.kind);
            let group: f64 = cls
                .classes
                .iter()
                .enumerate()
                .filter(|(j, _)| class_map[*j] as usize == k)
                .map(|(_, c)| c.weight)
                .sum();
            assert!((ccls.classes[k].weight - group).abs() < 1e-9);
        }
    }

    #[test]
    fn coarsen_respects_size_cap() {
        let (cat, cls) = clustered_workload(16);
        // Cap below any pair sum: nothing can merge.
        assert!(coarsen_once(&cat, &cls, 1).is_none());
    }

    #[test]
    fn multilevel_is_valid_refined_and_deterministic() {
        let (cat, cls) = clustered_workload(64);
        let cluster = ClusterSpec::homogeneous(8);
        let mcfg = MemeticConfig {
            population: 6,
            iterations: 8,
            ..Default::default()
        };
        let ccfg = CoarsenConfig {
            target_fragments: 16,
            ..Default::default()
        };
        let out = allocate_multilevel(&cls, &cat, &cluster, &mcfg, &ccfg);
        assert!(out.levels >= 1, "expected at least one coarsening level");
        assert!(out.coarsest_fragments < 64);
        out.alloc.validate(&cls, &cluster).unwrap();
        assert!(
            !out.projected_cost.better_than(&out.final_cost),
            "refinement must not worsen the projected allocation: {:?} vs {:?}",
            out.final_cost,
            out.projected_cost
        );
        // Bit-identical rerun and thread-count independence.
        let again = allocate_multilevel(&cls, &cat, &cluster, &mcfg, &ccfg);
        assert_eq!(out.alloc, again.alloc);
        let mt = MemeticConfig {
            threads: Some(4),
            ..mcfg.clone()
        };
        let par = allocate_multilevel(&cls, &cat, &cluster, &mt, &ccfg);
        assert_eq!(out.alloc, par.alloc);
    }

    #[test]
    fn multilevel_ksafe_repairs_to_k_replicas() {
        let (cat, cls) = clustered_workload(48);
        let cluster = ClusterSpec::homogeneous(6);
        let mcfg = MemeticConfig {
            population: 5,
            iterations: 6,
            ..Default::default()
        };
        let ccfg = CoarsenConfig {
            target_fragments: 12,
            ..Default::default()
        };
        let out = allocate_multilevel_ksafe(&cls, &cat, &cluster, &mcfg, &ccfg, 1);
        out.alloc.validate(&cls, &cluster).unwrap();
        assert!(crate::ksafety::is_k_safe(&out.alloc, &cls, 1));
    }

    #[test]
    fn small_instances_skip_coarsening() {
        let (cat, cls) = clustered_workload(8);
        let cluster = ClusterSpec::homogeneous(3);
        let mcfg = MemeticConfig {
            population: 4,
            iterations: 4,
            ..Default::default()
        };
        let ccfg = CoarsenConfig::default(); // target 64 > 8 fragments
        let out = allocate_multilevel(&cls, &cat, &cluster, &mcfg, &ccfg);
        assert_eq!(out.levels, 0);
        assert_eq!(out.coarsest_fragments, 8);
        out.alloc.validate(&cls, &cluster).unwrap();
        // No projection happened: the bound is the solver's own cost.
        assert_eq!(out.projected_cost, out.final_cost);
    }

    #[test]
    fn beyond_debug_guard_instance_completes() {
        // Big enough that the per-transfer debug cross-check would be
        // quadratic death: proves the guard keeps debug builds usable.
        let (cat, cls) = clustered_workload(288);
        let cluster = ClusterSpec::homogeneous(96);
        let mcfg = MemeticConfig {
            population: 4,
            iterations: 3,
            ..Default::default()
        };
        let ccfg = CoarsenConfig {
            target_fragments: 48,
            ..Default::default()
        };
        let out = allocate_multilevel(&cls, &cat, &cluster, &mcfg, &ccfg);
        assert!(out.levels >= 2);
        out.alloc.validate(&cls, &cluster).unwrap();
        assert!(!out.projected_cost.better_than(&out.final_cost));
    }
}
