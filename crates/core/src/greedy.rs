//! The greedy allocation algorithm (Section 3.3, Algorithm 1) and its
//! k-safety generalization (Appendix C, Algorithm 4).
//!
//! The allocation problem is NP-hard; Algorithm 1 is a first-fit / bin
//! packing style heuristic that runs in polynomial time: query classes
//! are sorted by the product of the load they impose and the data they
//! drag along, and are placed on the backend whose stored fragments
//! require the least additional data. Read classes may be *split* across
//! backends when they exceed a backend's remaining capacity; update
//! classes are placed exactly once (further replicas only cost
//! throughput) and then follow reads per the ROWA rule.
//!
//! With `k > 0` the algorithm additionally guarantees that every query
//! class can be processed by at least `k + 1` distinct backends
//! (Algorithm 4): zero-weight replicas of read classes and full-weight
//! replicas of update classes are appended to the work list until the
//! redundancy target is met.

use crate::allocation::Allocation;
use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::fragment::Catalog;
use crate::journal::QueryKind;
use crate::{BackendId, ClassId, EPS};

/// Computes a heuristic allocation for the classified workload on the
/// given cluster (Algorithm 1).
///
/// The result satisfies the validity constraints Eq. 8–11 (checked by
/// [`Allocation::validate`]); load balance follows the scaled-load rule
/// of Eq. 15/16 as closely as the first-fit strategy allows.
pub fn allocate(cls: &Classification, catalog: &Catalog, cluster: &ClusterSpec) -> Allocation {
    allocate_ksafe(cls, catalog, cluster, 0)
}

/// Computes a heuristic allocation guaranteeing *k-safety*: every query
/// class is processable by at least `min(k + 1, |B|)` distinct backends,
/// so the cluster survives the loss of any `k` backends without losing
/// the ability to answer any query class locally (Algorithm 4).
///
/// ```
/// use qcpa_core::prelude::*;
///
/// let mut catalog = Catalog::new();
/// let a = catalog.add_table("A", 100);
/// let cls = Classification::from_classes(vec![QueryClass::read(0, [a], 1.0)]).unwrap();
/// let cluster = ClusterSpec::homogeneous(3);
/// let alloc = greedy::allocate_ksafe(&cls, &catalog, &cluster, 1);
/// assert!(ksafety::is_k_safe(&alloc, &cls, 1));
/// ```
pub fn allocate_ksafe(
    cls: &Classification,
    catalog: &Catalog,
    cluster: &ClusterSpec,
    k: usize,
) -> Allocation {
    let _span = qcpa_obs::span("core", "greedy_allocate");
    let alloc = GreedyState::new(cls, catalog, cluster, k).run();
    // The greedy result seeds every refinement — its scale is the
    // baseline each memetic fitness trace starts from.
    qcpa_obs::global().push_series("greedy.scale", alloc.scale(cluster));
    alloc
}

/// One entry of the work list: a class to place, and whether it is an
/// extra k-safety replica (replicas of read classes carry no weight and
/// are placed exactly once each, like update classes).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    class: ClassId,
    replica: bool,
}

struct GreedyState<'a> {
    cls: &'a Classification,
    catalog: &'a Catalog,
    cluster: &'a ClusterSpec,
    /// Redundancy target per class: `min(k + 1, |B|)`.
    target_replicas: usize,
    alloc: Allocation,
    current_load: Vec<f64>,
    scaled_load: Vec<f64>,
    rest_weight: Vec<f64>,
    /// Classes whose k-safety replicas were already appended.
    replicas_added: Vec<bool>,
    /// Per class: bytes a backend must additionally store to host it
    /// when it stores nothing yet.
    placement_size: Vec<u64>,
    /// Per class: `cls.update_closure_weight(c)`.
    closure_weight: Vec<f64>,
    work: Vec<Entry>,
}

impl<'a> GreedyState<'a> {
    fn new(
        cls: &'a Classification,
        catalog: &'a Catalog,
        cluster: &'a ClusterSpec,
        k: usize,
    ) -> Self {
        let n = cluster.len();
        let target_replicas = (k + 1).min(n);

        // C* (Eq. 20): all read classes plus update classes overlapping
        // no read class — the latter, per Algorithm 4, with their k
        // extra replicas up front (they are not allocated alongside reads).
        let entry = |class, replica| Entry { class, replica };
        let mut work: Vec<Entry> = cls.read_ids().iter().map(|&r| entry(r, false)).collect();
        for &u in cls.update_ids() {
            let overlaps_read = cls
                .read_ids()
                .iter()
                .any(|&r| cls.fragment_set(r).intersects(cls.fragment_set(u)));
            if !overlaps_read {
                work.extend((0..target_replicas).map(|i| entry(u, i > 0)));
            }
        }

        let mut state = Self {
            cls,
            catalog,
            cluster,
            target_replicas,
            alloc: Allocation::empty(cls.len(), n),
            current_load: vec![0.0; n],
            scaled_load: cluster.ids().map(|b| cluster.load(b)).collect(),
            rest_weight: cls.classes.iter().map(|c| c.weight).collect(),
            replicas_added: vec![false; cls.len()],
            placement_size: cls
                .classes
                .iter()
                .map(|c| catalog.size_of_set(cls.placement_fragments(c.id)))
                .collect(),
            closure_weight: cls
                .classes
                .iter()
                .map(|c| cls.update_closure_weight(c.id))
                .collect(),
            work,
        };
        state.sort_work();
        state
    }

    /// Line 2 / line 33: sort descending by the load the class imposes —
    /// its remaining weight plus the weight of the update classes it
    /// drags along — times the size of the data to place. (Initially
    /// `restWeight = weight`, so one key serves both sorts; the
    /// Appendix A trace requires the update weights in the re-sort too.)
    fn sort_work(&mut self) {
        let key = |e: &Entry| {
            let c = e.class.idx();
            // For read classes the closure excludes the class itself, so
            // its own remaining weight is added; for update classes the
            // closure already contains the class.
            let own = if !e.replica && self.cls.classes[c].kind == QueryKind::Read {
                self.rest_weight[c]
            } else {
                0.0
            };
            (own + self.closure_weight[c]) * self.placement_size[c] as f64
        };
        let mut work = std::mem::take(&mut self.work);
        #[expect(clippy::expect_used, reason = "weights and sizes are finite")]
        work.sort_by(|a, b| {
            key(b)
                .partial_cmp(&key(a))
                .expect("sort keys are finite")
                .then(a.class.cmp(&b.class))
                .then(a.replica.cmp(&b.replica))
        });
        self.work = work;
    }

    fn load(&self, b: usize) -> f64 {
        self.cluster.load(BackendId(b as u32))
    }

    fn backend_full(&self, b: usize) -> bool {
        self.current_load[b] >= self.scaled_load[b] - EPS
    }

    /// Whether backend `b` already hosts all of class `c`'s fragments —
    /// used to force k-safety replicas onto *distinct* backends.
    fn hosts(&self, b: usize, c: ClassId) -> bool {
        self.cls.fragment_set(c).is_subset(&self.alloc.fragments[b])
    }

    /// Lines 10–16: the difference of a class to a backend.
    /// `None` encodes infinity.
    fn difference(&self, e: Entry, b: usize) -> Option<u64> {
        if self.backend_full(b) {
            return None;
        }
        if e.replica && self.hosts(b, e.class) {
            return None;
        }
        if self.current_load[b] <= EPS {
            return Some(0);
        }
        let missing = self
            .cls
            .placement_fragments(e.class)
            .difference(&self.alloc.fragments[b]);
        Some(self.catalog.size_of_set(missing))
    }

    /// Lines 18–19: put the class's fragments (with its update closure)
    /// on backend `b` and charge the *newly added* update weight.
    fn place_fragments_and_updates(&mut self, c: ClassId, b: usize) {
        self.alloc.fragments[b].union_with(self.cls.placement_fragments(c));
        for &u in self.cls.updates_closure(c) {
            if self.alloc.assign[u.idx()][b] <= EPS {
                let w = self.cls.weight(u);
                self.alloc.assign[u.idx()][b] = w;
                self.current_load[b] += w;
            }
        }
    }

    /// Eq. 15 applied to every backend after an update overloaded one.
    fn rescale_all(&mut self) {
        let scale = (0..self.cluster.len())
            .map(|b| self.current_load[b] / self.load(b))
            .fold(1.0, f64::max);
        for b in 0..self.cluster.len() {
            self.scaled_load[b] = (self.load(b) * scale).max(self.current_load[b]);
        }
    }

    fn run(mut self) -> Allocation {
        while let Some(&entry) = self.work.first() {
            self.work.remove(0);
            let c = entry.class;
            let kind = self.cls.classes[c.idx()].kind;
            let single_placement = entry.replica || kind == QueryKind::Update;

            // Lines 7–9: if all backends are full, grow every backend's
            // scaled load in proportion to its relative performance.
            if (0..self.cluster.len()).all(|b| self.backend_full(b)) {
                let w = self.cls.weight(c);
                for b in 0..self.cluster.len() {
                    self.scaled_load[b] = self.current_load[b] + self.load(b) * w;
                }
            }

            // Lines 10–17: choose the backend with minimal difference.
            let chosen = (0..self.cluster.len())
                .filter_map(|b| self.difference(entry, b).map(|d| (d, b)))
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let b = match chosen {
                Some((_, b)) => b,
                // Every difference is infinite. For a zero-weight class
                // the loop-head bump creates no room, and a replica may
                // find all non-hosting backends full: fall back to the
                // least-loaded eligible backend so the class is still
                // hosted somewhere (a replica hosted everywhere is done).
                None => {
                    #[expect(clippy::expect_used, reason = "backend capacities are positive")]
                    let fallback = (0..self.cluster.len())
                        .filter(|&b| !(entry.replica && self.hosts(b, c)))
                        .min_by(|&x, &y| {
                            let rx = self.current_load[x] / self.load(x);
                            let ry = self.current_load[y] / self.load(y);
                            rx.partial_cmp(&ry).expect("loads are finite")
                        });
                    match fallback {
                        Some(b) => b,
                        None => continue,
                    }
                }
            };

            self.place_fragments_and_updates(c, b);

            if single_placement {
                // Lines 20–23 (and Algorithm 4 line 21): update classes
                // and k-safety replicas are placed exactly once.
                if self.current_load[b] > self.scaled_load[b] + EPS {
                    self.rescale_all();
                }
            } else {
                // Lines 24–32: read classes fill the backend's remaining
                // capacity and spill over to further backends.
                if self.current_load[b] >= self.scaled_load[b] - EPS {
                    self.scaled_load[b] = self.current_load[b] + self.load(b) * self.cls.weight(c);
                }
                let room = self.scaled_load[b] - self.current_load[b];
                let rest = self.rest_weight[c.idx()];
                if rest > room + EPS {
                    self.alloc.assign[c.idx()][b] += room;
                    self.rest_weight[c.idx()] = rest - room;
                    self.current_load[b] = self.scaled_load[b];
                    self.work.push(Entry {
                        class: c,
                        replica: false,
                    });
                } else {
                    self.alloc.assign[c.idx()][b] += rest;
                    self.current_load[b] += rest;
                    self.rest_weight[c.idx()] = 0.0;
                    self.maybe_add_replicas(c);
                }
            }
            self.sort_work();
        }
        self.alloc
    }

    /// Algorithm 4 lines 34–38: once a read class is fully allocated,
    /// append zero-weight replicas until it is hosted by the redundancy
    /// target number of backends.
    fn maybe_add_replicas(&mut self, c: ClassId) {
        if self.target_replicas <= 1 || self.replicas_added[c.idx()] {
            return;
        }
        self.replicas_added[c.idx()] = true;
        let hosted = (0..self.cluster.len())
            .filter(|&b| self.hosts(b, c))
            .count();
        for _ in hosted..self.target_replicas {
            self.work.push(Entry {
                class: c,
                replica: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;

    /// Section 3's read-only example: relations A, B, C; classes
    /// C1..C4 with weights 30/25/25/20 %.
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
    fn one_backend_gets_everything() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(1);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert_eq!(alloc.fragments[0].len(), 3);
        assert!((alloc.speedup(&cluster) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_backends_reach_speedup_two_with_partial_replication() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(
            (alloc.speedup(&cluster) - 2.0).abs() < 1e-9,
            "speedup {}",
            alloc.speedup(&cluster)
        );
        // The paper's optimal solution stores 4 relation replicas
        // (A, C once, B twice); the greedy must not use more than full
        // replication's 6.
        let total: usize = alloc.fragments.iter().map(|s| s.len()).sum();
        assert!(total <= 5, "stored {total} table replicas");
    }

    #[test]
    fn four_backends_reach_speedup_four() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(
            (alloc.speedup(&cluster) - 4.0).abs() < 1e-6,
            "speedup {}",
            alloc.speedup(&cluster)
        );
    }

    /// The Appendix A heterogeneous example: 4 reads, 3 updates,
    /// backends with relative performance 30/30/20/20.
    fn appendix_a() -> (Catalog, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let c = cat.add_table("C", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.24),    // Q1
            QueryClass::read(1, [b], 0.20),    // Q2
            QueryClass::read(2, [c], 0.20),    // Q3
            QueryClass::read(3, [a, b], 0.16), // Q4
            QueryClass::update(4, [a], 0.04),  // U1
            QueryClass::update(5, [b], 0.10),  // U2
            QueryClass::update(6, [c], 0.06),  // U3
        ])
        .unwrap();
        let cluster = ClusterSpec::heterogeneous(&[0.3, 0.3, 0.2, 0.2]);
        (cat, cls, cluster)
    }

    #[test]
    fn appendix_a_worked_example_matches_paper() {
        let (cat, cls, cluster) = appendix_a();
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();

        // Final allocation matrix from the appendix:
        //      A B C
        // B1   1 1 0
        // B2   0 1 1
        // B3   1 0 0
        // B4   0 0 1
        let names = |b: usize| -> Vec<&str> {
            alloc.fragments[b]
                .iter()
                .map(|f| cat.fragment(f).name.as_str())
                .collect()
        };
        assert_eq!(names(0), vec!["A", "B"]);
        assert_eq!(names(1), vec!["B", "C"]);
        assert_eq!(names(2), vec!["A"]);
        assert_eq!(names(3), vec!["C"]);

        // Final load matrix: B1 37.2 %, B2 37.2 %, B3 20.8 %, B4 24.8 %.
        let loads: Vec<f64> = (0..4)
            .map(|b| alloc.assigned_load(BackendId(b as u32)))
            .collect();
        assert!((loads[0] - 0.372).abs() < 1e-9, "B1 load {}", loads[0]);
        assert!((loads[1] - 0.372).abs() < 1e-9, "B2 load {}", loads[1]);
        assert!((loads[2] - 0.208).abs() < 1e-9, "B3 load {}", loads[2]);
        assert!((loads[3] - 0.248).abs() < 1e-9, "B4 load {}", loads[3]);

        // Selected assignment entries from the final matrix.
        assert!((alloc.assign[0][0] - 0.072).abs() < 1e-9, "Q1 on B1");
        assert!((alloc.assign[0][2] - 0.168).abs() < 1e-9, "Q1 on B3");
        assert!((alloc.assign[2][1] - 0.012).abs() < 1e-9, "Q3 on B2");
        assert!((alloc.assign[2][3] - 0.188).abs() < 1e-9, "Q3 on B4");
        assert!((alloc.assign[3][0] - 0.16).abs() < 1e-9, "Q4 on B1");
        assert!((alloc.assign[5][0] - 0.10).abs() < 1e-9, "U2 on B1");
        assert!((alloc.assign[5][1] - 0.10).abs() < 1e-9, "U2 on B2");
        assert!((alloc.assign[6][1] - 0.06).abs() < 1e-9, "U3 on B2");
        assert!((alloc.assign[6][3] - 0.06).abs() < 1e-9, "U3 on B4");
    }

    #[test]
    fn update_classes_follow_rowa() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.40),
            QueryClass::read(1, [a, b], 0.35),
            QueryClass::update(2, [a], 0.25),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(3);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        // Every backend holding A must run the update with full weight.
        for bi in 0..3 {
            if alloc.fragments[bi].contains(&a) {
                assert!((alloc.assign[2][bi] - 0.25).abs() < 1e-9);
            } else {
                assert_eq!(alloc.assign[2][bi], 0.0);
            }
        }
    }

    #[test]
    fn update_only_class_allocated_once() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.8),
            QueryClass::update(1, [b], 0.2), // nothing reads B
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(4);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        let placements = (0..4).filter(|&i| alloc.assign[1][i] > EPS).count();
        assert_eq!(placements, 1);
    }

    #[test]
    fn ksafety_hosts_every_class_k_plus_one_times() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(4);
        for k in 0..3usize {
            let alloc = allocate_ksafe(&cls, &cat, &cluster, k);
            alloc.validate(&cls, &cluster).unwrap();
            for c in &cls.classes {
                let hosted = alloc.capable_backends(&cls, c.id).len();
                assert!(
                    hosted >= (k + 1).min(4),
                    "k={k}: class {} hosted by {hosted}",
                    c.id
                );
            }
        }
    }

    #[test]
    fn ksafety_with_updates_replicates_update_classes() {
        let (cat, cls, cluster) = appendix_a();
        let alloc = allocate_ksafe(&cls, &cat, &cluster, 1);
        alloc.validate(&cls, &cluster).unwrap();
        for c in &cls.classes {
            let hosted = alloc.capable_backends(&cls, c.id).len();
            assert!(hosted >= 2, "class {} hosted by {hosted}", c.id);
        }
        // Redundancy costs throughput for update-heavy classes: scale
        // cannot be better than the unreplicated allocation's.
        let base = allocate(&cls, &cat, &cluster);
        assert!(alloc.scale(&cluster) >= base.scale(&cluster) - EPS);
    }

    #[test]
    fn ksafety_capped_by_cluster_size() {
        let (cat, cls) = section3();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = allocate_ksafe(&cls, &cat, &cluster, 5);
        alloc.validate(&cls, &cluster).unwrap();
        for c in &cls.classes {
            assert_eq!(alloc.capable_backends(&cls, c.id).len(), 2);
        }
    }

    #[test]
    fn zero_weight_read_classes_are_placed() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 1.0),
            QueryClass::read(1, [b], 0.0), // robustness spare class
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = allocate(&cls, &cat, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!(
            !alloc.capable_backends(&cls, ClassId(1)).is_empty(),
            "zero-weight class must still be hosted somewhere"
        );
    }

    #[test]
    fn deterministic() {
        let (cat, cls, cluster) = appendix_a();
        let a1 = allocate(&cls, &cat, &cluster);
        let a2 = allocate(&cls, &cat, &cluster);
        assert_eq!(a1, a2);
    }
}
