//! Allocations: which fragments each backend stores and how query-class
//! load is assigned (Section 3.2, Eq. 5–16).
//!
//! An [`Allocation`] is pure data: per-backend fragment sets plus an
//! `assign` matrix giving the share of each class's weight handled by
//! each backend. All algorithms ([`crate::greedy`], [`crate::memetic`],
//! the LP in `qcpa-lp`) produce this same type, so they are
//! interchangeable and can be validated against the paper's constraints
//! (Eq. 8–11) and compared on the same cost metric.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::classify::Classification;
use crate::cluster::ClusterSpec;
use crate::error::InvalidAllocation;
use crate::fragment::{bit, intersects, ones, or_into, put_bit, Catalog, FragSet};
use crate::journal::QueryKind;
use crate::{approx_eq, approx_eq_loose, BackendId, ClassId, EPS};

/// A partial replication: per-backend fragment sets and the assignment of
/// query-class load shares to backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// `fragments[b]` — the set of fragments stored on backend `b`.
    pub fragments: Vec<FragSet>,
    /// `assign[c][b]` — the share of class `c`'s weight assigned to
    /// backend `b` (Eq. 8). For update classes this is either 0 or the
    /// full class weight (Eq. 10).
    pub assign: Vec<Vec<f64>>,
}

impl Allocation {
    /// An empty allocation: `backends` empty fragment sets, all
    /// assignments zero.
    pub fn empty(n_classes: usize, n_backends: usize) -> Self {
        Self {
            fragments: vec![FragSet::new(); n_backends],
            assign: vec![vec![0.0; n_backends]; n_classes],
        }
    }

    /// The trivial full replication: every backend stores every fragment
    /// referenced by any class; read load is split proportionally to
    /// `load(B)`; every update class runs everywhere (ROWA).
    pub fn full_replication(cls: &Classification, cluster: &ClusterSpec) -> Self {
        let n = cluster.len();
        let all = cls.referenced_fragments();
        let mut assign = vec![vec![0.0; n]; cls.len()];
        for c in &cls.classes {
            for b in cluster.ids() {
                assign[c.id.idx()][b.idx()] = match c.kind {
                    QueryKind::Read => c.weight * cluster.load(b),
                    QueryKind::Update => c.weight,
                };
            }
        }
        Self {
            fragments: vec![all; n],
            assign,
        }
    }

    /// Number of backends in the allocation.
    pub fn n_backends(&self) -> usize {
        self.fragments.len()
    }

    /// Number of classes in the allocation.
    pub fn n_classes(&self) -> usize {
        self.assign.len()
    }

    /// `assignedLoad(B)` (Eq. 14): the sum of all class shares assigned
    /// to backend `b`.
    pub fn assigned_load(&self, b: BackendId) -> f64 {
        self.assign.iter().map(|row| row[b.idx()]).sum()
    }

    /// The allocation's `scale` factor (Eq. 15):
    /// `max(1, max_B assignedLoad(B) / load(B))`. A scale of 1 means the
    /// workload fits perfectly; larger values measure the throughput lost
    /// to replicated updates and imbalance.
    pub fn scale(&self, cluster: &ClusterSpec) -> f64 {
        let max = cluster
            .ids()
            .map(|b| self.assigned_load(b) / cluster.load(b))
            .fold(0.0, f64::max);
        max.max(1.0)
    }

    /// The theoretical speedup of this allocation (Eq. 18/19):
    /// `|B| / scale`.
    pub fn speedup(&self, cluster: &ClusterSpec) -> f64 {
        cluster.len() as f64 / self.scale(cluster)
    }

    /// Degree of replication `r` (Eq. 28): total bytes stored across all
    /// backends divided by the size of the unreplicated database. The
    /// database size is taken as the size of the union of all fragments
    /// referenced by the classification (the fragments the allocation is
    /// about).
    pub fn degree_of_replication(&self, cls: &Classification, catalog: &Catalog) -> f64 {
        let db_size = catalog.size_of_set(&cls.referenced_fragments()) as f64;
        self.total_bytes(catalog) as f64 / db_size
    }

    /// Total bytes stored across all backends (each replica counted).
    pub fn total_bytes(&self, catalog: &Catalog) -> u64 {
        self.fragments
            .iter()
            .map(|set| catalog.size_of_set(set))
            .sum()
    }

    /// Number of backends storing each fragment, indexed by fragment id.
    /// Fragments never allocated have count 0.
    pub fn replica_counts(&self, catalog: &Catalog) -> Vec<u32> {
        let mut counts = vec![0u32; catalog.len()];
        for set in &self.fragments {
            for f in set {
                counts[f.idx()] += 1;
            }
        }
        counts
    }

    /// Relative deviation from balance (Figure 4(j)): per backend, the
    /// processing time for its share is `assignedLoad(B)/load(B)`; the
    /// metric is the maximum relative deviation of any backend from the
    /// mean processing time.
    pub fn balance_deviation(&self, cluster: &ClusterSpec) -> f64 {
        let times: Vec<f64> = cluster
            .ids()
            .map(|b| self.assigned_load(b) / cluster.load(b))
            .collect();
        let avg = times.iter().sum::<f64>() / times.len() as f64;
        if avg <= EPS {
            return 0.0;
        }
        times
            .iter()
            .map(|t| (t - avg).abs() / avg)
            .fold(0.0, f64::max)
    }

    /// The allocation restricted to the backends in `keep`, in the given
    /// order: fragment sets and assignment columns are copied verbatim,
    /// so the result is indexed `0..keep.len()`. Shares are *not*
    /// redistributed — pair with [`crate::ksafety::fail_backends`] when
    /// the dropped backends carried read load. Used by the elastic
    /// scale-in path and the simulator's fault engine.
    ///
    /// # Panics
    /// Panics if an index in `keep` is out of range.
    pub fn restrict(&self, keep: &[usize]) -> Allocation {
        let mut out = Allocation::empty(self.n_classes(), keep.len());
        for (new_b, &old_b) in keep.iter().enumerate() {
            out.fragments[new_b] = self.fragments[old_b].clone();
            for c in 0..self.n_classes() {
                out.assign[c][new_b] = self.assign[c][old_b];
            }
        }
        out
    }

    /// The backends capable of processing class `c`: those storing all of
    /// its fragments (Eq. 8's precondition).
    pub fn capable_backends(&self, cls: &Classification, c: ClassId) -> Vec<BackendId> {
        let frags = cls.fragment_set(c);
        (0..self.n_backends())
            .filter(|&b| frags.is_subset(&self.fragments[b]))
            .map(|b| BackendId(b as u32))
            .collect()
    }

    /// Checks the validity constraints of Section 3.2:
    ///
    /// * Eq. 8 — a class assigned to a backend requires all its fragments
    ///   there;
    /// * Eq. 9 — every read class is completely assigned;
    /// * Eq. 10 — every update class runs with full weight on every
    ///   backend holding any of its fragments (ROWA);
    /// * Eq. 11 — every update class is assigned at least once.
    pub fn validate(
        &self,
        cls: &Classification,
        cluster: &ClusterSpec,
    ) -> Result<(), InvalidAllocation> {
        if self.n_backends() != cluster.len() {
            return Err(InvalidAllocation::WrongBackendCount {
                allocation: self.n_backends(),
                cluster: cluster.len(),
            });
        }
        if self.n_classes() != cls.len() {
            return Err(InvalidAllocation::WrongClassCount {
                allocation: self.n_classes(),
                classification: cls.len(),
            });
        }
        for c in &cls.classes {
            let row = &self.assign[c.id.idx()];
            let frags = cls.fragment_set(c.id);
            for (bi, &v) in row.iter().enumerate() {
                let b = BackendId(bi as u32);
                if v < -EPS {
                    return Err(InvalidAllocation::NegativeAssignment {
                        class: c.id,
                        backend: b,
                        value: v,
                    });
                }
                if v > EPS {
                    if let Some(missing) = frags.difference(&self.fragments[bi]).next() {
                        return Err(InvalidAllocation::MissingFragment {
                            class: c.id,
                            backend: b,
                            fragment: missing,
                        });
                    }
                }
            }
            match c.kind {
                QueryKind::Read => {
                    let assigned: f64 = row.iter().sum();
                    if !approx_eq_loose(assigned, c.weight) {
                        return Err(InvalidAllocation::ReadNotFullyAssigned {
                            class: c.id,
                            assigned,
                            weight: c.weight,
                        });
                    }
                }
                QueryKind::Update => {
                    // A share on a backend holding none of the class's
                    // fragments was rejected above (Eq. 8).
                    let mut anywhere = false;
                    for (bi, &v) in row.iter().enumerate() {
                        if frags.intersects(&self.fragments[bi]) {
                            if !approx_eq_loose(v, c.weight) {
                                return Err(InvalidAllocation::UpdateNotReplicated {
                                    class: c.id,
                                    backend: BackendId(bi as u32),
                                    assigned: v,
                                });
                            }
                            anywhere = true;
                        }
                    }
                    if !anywhere && c.weight > EPS {
                        return Err(InvalidAllocation::UpdateUnassigned { class: c.id });
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-establishes the update constraints after read assignments or
    /// fragment sets changed (used by mutation operators and local
    /// search):
    ///
    /// 1. each backend's fragment set is shrunk to what its assigned read
    ///    classes need (garbage collection),
    /// 2. update classes overlapping no backend are anchored on the
    ///    least-loaded backend,
    /// 3. the Eq. 8/10 fixpoint is applied: any backend holding a
    ///    fragment of an update class receives *all* of that class's
    ///    fragments and its full weight. The fixpoint of a union is the
    ///    union of the parts' placements, so step 3 ORs the placements
    ///    of what steps 1 and 2 put on the backend.
    pub fn normalize(&mut self, cls: &Classification, cluster: &ClusterSpec) {
        let n = self.n_backends();
        // 1. needed fragments per backend from read classes.
        let mut needed = vec![FragSet::new(); n];
        let mut placed = vec![FragSet::new(); n];
        for &r in cls.read_ids() {
            for b in 0..n {
                if self.assign[r.idx()][b] > EPS {
                    needed[b].union_with(cls.fragment_set(r));
                    placed[b].union_with(cls.placement_fragments(r));
                }
            }
        }
        // 2. anchor update classes that would otherwise disappear. The
        //    anchor carries the class's full update closure so chained
        //    update classes co-locate instead of spreading via the
        //    fixpoint below. Preference order keeps `normalize`
        //    idempotent and minimizes new replication: (a) a backend
        //    already needing overlapping data, (b) a backend currently
        //    hosting the class, (c) the backend needing the fewest
        //    fragments per unit of performance.
        for &u in cls.update_ids() {
            if needed.iter().any(|set| set.intersects(cls.fragment_set(u))) {
                continue;
            }
            let closure = cls.placement_fragments(u);
            let colocated = (0..n).find(|&b| needed[b].intersects(closure));
            let current = (0..n).find(|&b| self.assign[u.idx()][b] > EPS);
            #[expect(clippy::expect_used, reason = "a cluster has at least one backend")]
            let target = colocated.or(current).unwrap_or_else(|| {
                let per_load =
                    |b: usize| needed[b].len() as f64 / cluster.load(BackendId(b as u32));
                (0..n)
                    .min_by(|&a, &b| per_load(a).total_cmp(&per_load(b)))
                    .expect("cluster is non-empty")
            });
            needed[target].union_with(closure);
            placed[target].union_with(closure);
        }
        // 3. the fixpoint, already in `placed`.
        self.fragments = placed;
        self.assign_updates(cls);
    }

    /// Re-applies the ROWA constraints (Eq. 8/10) after fragments were
    /// force-added to backends, *without* garbage collection: existing
    /// fragment placements — including zero-weight spare replicas — are
    /// kept and only grown to the update-closure fixpoint (the union of
    /// the placements of the update classes they overlap), and update
    /// assignments are recomputed. Used by the k-safety repair and the
    /// Section 5 robustness extension, where extra replicas are the
    /// point.
    pub fn sync_updates(&mut self, cls: &Classification) {
        for set in &mut self.fragments {
            let mut grown = FragSet::new();
            for &u in cls.update_ids() {
                if cls.fragment_set(u).intersects(set) {
                    grown.union_with(cls.placement_fragments(u));
                }
            }
            set.union_with(&grown);
        }
        self.assign_updates(cls);
    }

    /// Rewrites every update class's row per Eq. 10: full weight on
    /// exactly the backends holding any of its fragments.
    pub fn assign_updates(&mut self, cls: &Classification) {
        for &u in cls.update_ids() {
            let w = cls.weight(u);
            for (share, set) in self.assign[u.idx()].iter_mut().zip(&self.fragments) {
                *share = if cls.fragment_set(u).intersects(set) {
                    w
                } else {
                    0.0
                };
            }
        }
    }

    /// The optimization cost of this allocation: primarily `scale`
    /// (throughput), secondarily stored bytes (replication overhead).
    pub fn cost(&self, cluster: &ClusterSpec, catalog: &Catalog) -> AllocCost {
        AllocCost {
            scale: self.scale(cluster),
            bytes: self.total_bytes(catalog),
        }
    }
}

/// Lexicographic allocation cost: lower `scale` wins; ties (within
/// [`EPS`]) are broken by fewer stored bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocCost {
    /// The allocation's scale factor (Eq. 15); throughput is `|B|/scale`.
    pub scale: f64,
    /// Total stored bytes across all backends.
    pub bytes: u64,
}

impl AllocCost {
    /// True if `self` is strictly better than `other`.
    pub fn better_than(&self, other: &AllocCost) -> bool {
        if approx_eq(self.scale, other.scale) {
            self.bytes < other.bytes
        } else {
            self.scale < other.scale
        }
    }
}

impl Eq for AllocCost {}

impl PartialOrd for AllocCost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AllocCost {
    #[expect(
        clippy::expect_used,
        reason = "scales are finite: loads over positive capacities"
    )]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if approx_eq(self.scale, other.scale) {
            self.bytes.cmp(&other.bytes)
        } else {
            self.scale
                .partial_cmp(&other.scale)
                .expect("scale is finite")
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental cost evaluation
// ---------------------------------------------------------------------------

/// Incremental cost tracker for a *normalized* [`Allocation`]:
/// per-backend loads and stored bytes, plus the bitset rows that let a
/// move be re-derived locally instead of by a full
/// [`Allocation::normalize`] + [`Allocation::cost`].
///
/// The one mutation is [`DeltaCost::transfer`]: it moves part of a read
/// class's share between two backends and re-derives only those
/// backends' fragment words, update rows, loads and bytes — exactly the
/// state `normalize` would produce — and returns a [`DeltaUndo`] token
/// that restores the prior state bit for bit (tokens of a
/// multi-transfer candidate are undone in reverse order). Every
/// mutation and local-search move is a sequence of transfers.
///
/// # Cost
///
/// A backend's derived state is a union over its resident read classes
/// (the Eq. 8/10 closure distributes over unions), so a rebuild ORs the
/// classification's placement sets and the rows of a per-instance
/// `CostIndex`, shared by clones, straight into the allocation's
/// [`FragSet`] words: `R·(W + Wu) + C` word operations per rebuilt
/// backend (`R` resident read classes, `C` classes with a share, `W` /
/// `Wu` words per fragment / update-class row), plus a size lookup or
/// update-row write per bit that changed. When an overlap row changed,
/// the anchor replay adds `Wu` per orphan. An undo writes the same words
/// back. Neither allocates: a token owns one flat buffer, recycled
/// through the tracker when undone.
///
/// # Exactness
///
/// Loads are re-summed in [`Allocation::assigned_load`]'s order
/// (skipping zero shares, which cannot change a sum), bytes are
/// integers, update rows get `normalize`'s literals, and undo restores
/// saved values rather than applying inverses — so [`DeltaCost::cost`]
/// is bit-identical to `normalize` + `cost`. Debug builds cross-check
/// every transfer on test-sized instances.
///
/// # Orphan anchoring
///
/// `normalize` step 2 — anchoring update classes that no read-needed set
/// overlaps — is its one global step. For a fixed orphan set its
/// skip/chain structure is static (`OrphanStatic`), so a transfer
/// refreshes the two touched backends' colocated bits and replays the
/// anchors in class order, rebuilding any backend an anchor leaves or
/// joins. A transfer that changes *which* classes are orphans, or an
/// anchor that needs the least-loaded preference, falls back to a full
/// `normalize` and a snapshot.
///
/// # Invariants
///
/// Construct it on a normalized allocation and mutate that allocation
/// only through `transfer` / `undo` while the tracker lives; debug
/// builds catch other writes at the next transfer.
#[derive(Debug, Clone)]
pub struct DeltaCost {
    /// Per-instance bitsets, shared by every clone of this tracker.
    index: Arc<CostIndex>,
    /// Static half of `normalize` step 2 for the current orphan set, one
    /// entry per orphan in `update_ids` order. Shared by clones; rebuilt
    /// only when the orphan set changes (the full fallback).
    orphans: Arc<Vec<OrphanStatic>>,
    /// `loads[b]` == `alloc.assigned_load(b)`, bit-exact.
    loads: Vec<f64>,
    /// `bytes[b]` == `catalog.size_of_set(&alloc.fragments[b])`.
    bytes: Vec<u64>,
    /// Sum of `bytes` == `alloc.total_bytes(catalog)`.
    total_bytes: u64,
    /// Backend `b`'s row, over update-class *positions*: the update
    /// classes running on `b` — the rows `normalize` writes with the
    /// class weight (`index.uwords` words per backend).
    hosted: Vec<u64>,
    /// Same shape as `hosted`: does backend `b`'s *read-needed* set (the
    /// set `normalize` step 1 derives, before closure) overlap the
    /// update class?
    overlap: Vec<u64>,
    /// Backend `b`'s row, over class ids: `alloc.assign[c][b] != 0.0`
    /// (`index.cwords` words per backend). What a rebuild iterates
    /// instead of every class.
    resident: Vec<u64>,
    /// `counts[ui]` — number of backends with `overlap` bit `ui` set;
    /// zero marks an orphan.
    counts: Vec<u32>,
    /// Orphan `k`'s row, over backends: its placement closure overlaps
    /// the backend's read-needed set.
    colocated: Vec<u64>,
    /// Orphan `k`'s anchor backend; [`NO_ANCHOR`] iff skipped (or
    /// unresolved, which clears `anchor_fast`).
    anchor: Vec<u32>,
    /// False if some orphan's anchor could not be resolved without the
    /// least-loaded preference (needs all backends' needed sets): every
    /// transfer then takes the full fallback.
    anchor_fast: bool,
    /// Scratch rows a transfer derives new state into before comparing
    /// it with the old.
    work: Work,
    /// Undo buffers handed back by [`DeltaCost::undo`], reused by the
    /// next transfers. Never cloned: a clone starts with none.
    spare: Spare,
}

const NO_ANCHOR: u32 = u32::MAX;

/// Immutable bitsets of one `(classification, catalog)` instance. Every
/// per-class row — here, or the classification's fragment and placement
/// sets — is what one resident read class contributes to a backend, so a
/// backend's derived state is the OR of its rows.
#[derive(Debug)]
struct CostIndex {
    /// Words per fragment bitset.
    words: usize,
    /// Words per update-position bitset.
    uwords: usize,
    /// Words per class-id bitset.
    cwords: usize,
    /// Positions of `cls.updates(c)`: update classes overlapping `c`.
    touch: Vec<u64>,
    /// Positions of `cls.updates_closure(c)`: the update classes whose
    /// fragments `placement_fragments(c)` holds beyond `c`'s own.
    closure_upd: Vec<u64>,
    /// Class ids of the read classes.
    read_mask: Vec<u64>,
    /// Class id → position in `update_ids` (unused for read classes).
    upos: Vec<u32>,
    /// Fragment sizes by fragment id.
    frag_size: Vec<u64>,
}

/// Per-orphan structure mirroring one iteration of `normalize` step 2.
///
/// For a fixed orphan set the *structure* of step 2 is static: whether
/// an orphan is skipped and which earlier closures its closure chains
/// to depend only on the classification. Only the closure-vs-read-needed
/// bits ([`DeltaCost::colocated`]) and the chosen anchor backends
/// ([`DeltaCost::anchor`]) change as read shares move.
#[derive(Debug, PartialEq)]
struct OrphanStatic {
    /// Position in `cls.update_ids()`.
    ui: usize,
    /// An earlier *anchored* orphan's closure overlaps this class's own
    /// fragments, so step 2's `overlaps_any` check passes and the class
    /// is never anchored itself (the fixpoint places it).
    skipped: bool,
    /// Earlier orphans whose closure overlaps this one's (the
    /// augmented-needed part of the colocated preference).
    chain: Vec<u32>,
}

#[derive(Debug, Clone, Default)]
struct Work {
    /// New `overlap` rows of the `from` and `to` backends.
    overlap: Vec<u64>,
    /// New fragment words of the backend being rebuilt.
    fragments: Vec<u64>,
    /// New `hosted` row of the backend being rebuilt.
    hosted: Vec<u64>,
}

#[derive(Debug, Default)]
struct Spare(Vec<Vec<u64>>);

impl Clone for Spare {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Undo token returned by [`DeltaCost::transfer`]. Restores the exact
/// pre-transfer allocation and tracker state when passed to
/// [`DeltaCost::undo`]. Tokens from a sequence of transfers must be
/// undone in reverse order. Dropping a token instead commits its
/// transfer. A token owns its saved state rather than indexing a journal
/// inside the tracker, so a dropped token (a committed candidate) and a
/// cloned tracker (an offspring) retain nothing and need no commit call.
#[derive(Debug)]
pub struct DeltaUndo(UndoRepr);

#[derive(Debug)]
enum UndoRepr {
    /// Nothing changed (zero amount or `from == to`).
    Noop,
    /// Fast path: one flat save of every word and float the transfer
    /// overwrote. [`SAVE_HEADER`] words (class, `from`, `to`, the two
    /// old share bit patterns, the number of orphan words), one word
    /// per replayed orphan in order (anchor, old colocated bits of
    /// `from` and `to`), then one frame per rebuilt backend — `from`,
    /// `to`, plus any backend an orphan anchor moved away from or onto:
    /// backend, old load bits, old fragment words, `hosted` and
    /// `overlap` rows.
    Local(Vec<u64>),
    /// Fallback path: whole-allocation snapshot.
    Full {
        alloc: Box<Allocation>,
        tracker: Box<DeltaCost>,
    },
}

const SAVE_HEADER: usize = 6;

/// Row `i` of a flat matrix of `w`-word rows.
#[inline]
fn row(flat: &[u64], i: usize, w: usize) -> &[u64] {
    &flat[i * w..(i + 1) * w]
}

#[inline]
fn row_mut(flat: &mut [u64], i: usize, w: usize) -> &mut [u64] {
    &mut flat[i * w..(i + 1) * w]
}

impl CostIndex {
    fn new(cls: &Classification, catalog: &Catalog) -> Self {
        let words = catalog.len().div_ceil(64);
        let uwords = cls.update_ids().len().div_ceil(64);
        let cwords = cls.len().div_ceil(64);
        let mut upos = vec![u32::MAX; cls.len()];
        for (ui, u) in cls.update_ids().iter().enumerate() {
            upos[u.idx()] = ui as u32;
        }
        let mut touch = vec![0u64; cls.len() * uwords];
        let mut closure_upd = vec![0u64; cls.len() * uwords];
        let mut read_mask = vec![0u64; cwords];
        for qc in &cls.classes {
            let c = qc.id.idx();
            if qc.kind == QueryKind::Read {
                put_bit(&mut read_mask, c, true);
            }
            for u in cls.updates(qc.id) {
                put_bit(row_mut(&mut touch, c, uwords), upos[u.idx()] as usize, true);
            }
            for u in cls.updates_closure(qc.id) {
                put_bit(
                    row_mut(&mut closure_upd, c, uwords),
                    upos[u.idx()] as usize,
                    true,
                );
            }
        }
        Self {
            words,
            uwords,
            cwords,
            touch,
            closure_upd,
            read_mask,
            upos,
            frag_size: catalog.fragments().iter().map(|f| f.size).collect(),
        }
    }
}

/// One anchor decision from `normalize` step 2, minus the least-loaded
/// tail: the first backend whose (augmented) needed set overlaps the
/// orphan's closure — its first colocated backend or the lowest anchor
/// of a chained earlier orphan — else the first backend currently
/// hosting the class. `None` means the least-loaded preference would be
/// needed.
fn resolve_anchor(
    alloc: &Allocation,
    u: ClassId,
    colocated: &[u64],
    chain: &[u32],
    anchor: &[u32],
) -> Option<usize> {
    let own = colocated
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize);
    let chained = chain
        .iter()
        .map(|&e| anchor[e as usize])
        .filter(|&a| a != NO_ANCHOR)
        .min()
        .map(|a| a as usize);
    let colocated = match (own, chained) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    colocated.or_else(|| (0..alloc.n_backends()).find(|&b| alloc.assign[u.idx()][b] > EPS))
}

impl DeltaCost {
    /// Builds a tracker for `alloc`, which must already be normalized.
    /// Debug builds assert this on test-sized instances by normalizing
    /// a clone and comparing — unless an orphan's anchor needs
    /// `normalize`'s least-loaded preference, the one decision that
    /// depends on the cluster this constructor does not see.
    pub fn new(alloc: &Allocation, cls: &Classification, catalog: &Catalog) -> Self {
        let tracker = Self::build(Arc::new(CostIndex::new(cls, catalog)), alloc, cls);
        if cfg!(debug_assertions) && tracker.anchor_fast && cross_checked(alloc, cls) {
            let mut reference = alloc.clone();
            reference.normalize(cls, &ClusterSpec::homogeneous(alloc.n_backends()));
            debug_assert_eq!(
                &reference, alloc,
                "DeltaCost::new needs a normalized allocation"
            );
        }
        tracker
    }

    /// The tracker state of a normalized `alloc` over a built index.
    fn build(index: Arc<CostIndex>, alloc: &Allocation, cls: &Classification) -> Self {
        let n = alloc.n_backends();
        let (words, uwords, cwords) = (index.words, index.uwords, index.cwords);
        let loads: Vec<f64> = (0..n)
            .map(|b| alloc.assigned_load(BackendId(b as u32)))
            .collect();
        let bytes: Vec<u64> = alloc
            .fragments
            .iter()
            .map(|set| set.iter().map(|f| index.frag_size[f.idx()]).sum())
            .collect();
        let mut resident = vec![0u64; n * cwords];
        for (c, shares) in alloc.assign.iter().enumerate() {
            for (b, &share) in shares.iter().enumerate() {
                if share != 0.0 {
                    put_bit(row_mut(&mut resident, b, cwords), c, true);
                }
            }
        }
        let mut tracker = Self {
            total_bytes: bytes.iter().sum(),
            loads,
            bytes,
            hosted: vec![0u64; n * uwords],
            overlap: vec![0u64; n * uwords],
            resident,
            counts: vec![0u32; cls.update_ids().len()],
            orphans: Arc::new(Vec::new()),
            colocated: Vec::new(),
            anchor: Vec::new(),
            anchor_fast: true,
            work: Work {
                overlap: vec![0u64; 2 * uwords],
                fragments: vec![0u64; words],
                hosted: vec![0u64; uwords],
            },
            spare: Spare::default(),
            index,
        };
        let mut work = std::mem::take(&mut tracker.work);
        for b in 0..n {
            tracker.read_overlap(alloc, b, &mut work.overlap[..uwords]);
            tracker.set_overlap(b, &work.overlap[..uwords]);
        }
        tracker.derive_anchors(alloc, cls);
        for b in 0..n {
            tracker.derive_backend(alloc, cls, b, &mut work);
            row_mut(&mut tracker.hosted, b, uwords).copy_from_slice(&work.hosted);
        }
        tracker.work = work;
        tracker
    }

    /// Derives the orphan-anchor mirror for a normalized allocation by
    /// replaying `normalize` step 2 on the overlap rows: for each orphan
    /// (in `update_ids` order) compute the static skip/chain structure
    /// and resolve its anchor via the colocated → current-host
    /// preferences. Clears `anchor_fast` when some anchor needed the
    /// least-loaded preference (or was unresolvable), so transfers must
    /// always take the full fallback.
    fn derive_anchors(&mut self, alloc: &Allocation, cls: &Classification) {
        let index = &*self.index;
        let n = alloc.n_backends();
        let bwords = n.div_ceil(64);
        let place = |ui: usize| cls.placement_fragments(cls.update_ids()[ui]);
        let mut statics: Vec<OrphanStatic> = Vec::new();
        for (ui, &u) in cls.update_ids().iter().enumerate() {
            if self.counts[ui] != 0 {
                continue;
            }
            let skipped = statics
                .iter()
                .zip(&self.anchor)
                .any(|(e, &a)| a != NO_ANCHOR && cls.fragment_set(u).intersects(place(e.ui)));
            let chain: Vec<u32> = statics
                .iter()
                .enumerate()
                .filter(|(_, e)| place(ui).intersects(place(e.ui)))
                .map(|(k, _)| k as u32)
                .collect();
            let closure = row(&index.closure_upd, u.idx(), index.uwords);
            let mut colocated = vec![0u64; bwords];
            for b in 0..n {
                if intersects(closure, row(&self.overlap, b, index.uwords)) {
                    put_bit(&mut colocated, b, true);
                }
            }
            let mut anchor = NO_ANCHOR;
            if !skipped {
                match resolve_anchor(alloc, u, &colocated, &chain, &self.anchor) {
                    Some(b) => anchor = b as u32,
                    None => self.anchor_fast = false,
                }
            }
            statics.push(OrphanStatic { ui, skipped, chain });
            self.colocated.extend(colocated);
            self.anchor.push(anchor);
        }
        self.orphans = Arc::new(statics);
    }

    /// The tracked assigned load of one backend.
    #[inline]
    pub fn load(&self, b: BackendId) -> f64 {
        self.loads[b.idx()]
    }

    /// The scale factor (Eq. 15) from the tracked loads — bit-identical
    /// to [`Allocation::scale`] on the mirrored allocation.
    pub fn scale(&self, cluster: &ClusterSpec) -> f64 {
        let max = cluster
            .ids()
            .map(|b| self.loads[b.idx()] / cluster.load(b))
            .fold(0.0, f64::max);
        max.max(1.0)
    }

    /// The allocation cost from the tracked aggregates — bit-identical
    /// to [`Allocation::cost`] on the mirrored allocation.
    pub fn cost(&self, cluster: &ClusterSpec) -> AllocCost {
        AllocCost {
            scale: self.scale(cluster),
            bytes: self.total_bytes,
        }
    }

    /// True if update class `u` and class `c` reference a common
    /// fragment (`u ∈ updates(c)`, Eq. 12).
    pub(crate) fn overlaps(&self, u: ClassId, c: ClassId) -> bool {
        bit(
            row(&self.index.touch, c.idx(), self.index.uwords),
            self.index.upos[u.idx()] as usize,
        )
    }

    /// Moves `amount` of read class `c`'s share from backend `from` to
    /// backend `to`, re-deriving the touched backends' fragment sets,
    /// update assignments, loads and bytes exactly as
    /// [`Allocation::normalize`] would. Returns an undo token.
    ///
    /// `c` must be a read class (update shares are derived, never moved)
    /// and `amount` must not exceed `alloc.assign[c][from]`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one move: allocation, its inputs, class, both backends, amount"
    )]
    pub fn transfer(
        &mut self,
        alloc: &mut Allocation,
        cls: &Classification,
        cluster: &ClusterSpec,
        catalog: &Catalog,
        c: ClassId,
        from: BackendId,
        to: BackendId,
        amount: f64,
    ) -> DeltaUndo {
        debug_assert_eq!(
            cls.classes[c.idx()].kind,
            QueryKind::Read,
            "transfer moves read shares only"
        );
        if from == to || amount == 0.0 {
            return DeltaUndo(UndoRepr::Noop);
        }
        let (ci, fi, ti) = (c.idx(), from.idx(), to.idx());
        let old_from_share = alloc.assign[ci][fi];
        let old_to_share = alloc.assign[ci][ti];
        debug_assert!(
            amount <= old_from_share + EPS,
            "transfer of {amount} exceeds the share {old_from_share}"
        );
        let shares = (old_from_share, old_to_share, amount);
        self.set_share(alloc, ci, fi, old_from_share - amount);
        self.set_share(alloc, ci, ti, old_to_share + amount);

        // Re-derive the overlap rows of the two touched backends and the
        // update-overlap counts they imply; decide fast vs fallback.
        // Local anchoring mirrors step 2 only while *which* classes are
        // orphans stays fixed (the skip/chain structure is static then).
        let uwords = self.index.uwords;
        let mut work = std::mem::take(&mut self.work);
        let (flags_from, flags_to) = work.overlap.split_at_mut(uwords);
        self.read_overlap(alloc, fi, flags_from);
        self.read_overlap(alloc, ti, flags_to);
        if !(self.anchor_fast && self.same_orphan_set(fi, ti, &work.overlap)) {
            self.work = work;
            return self.full_fallback(alloc, cls, cluster, (ci, fi, ti), shares);
        }

        let mut save = self.spare.0.pop().unwrap_or_default();
        save.extend([
            ci as u64,
            fi as u64,
            ti as u64,
            old_from_share.to_bits(),
            old_to_share.to_bits(),
            0, // orphans saved, counted below
        ]);

        // Replay the anchor decisions in class order on the new overlap
        // rows; later orphans see earlier orphans' *new* anchors, exactly
        // like the sequential loop in `normalize`. Anchors that move drag
        // their old/new backends into the rebuild set. The anchors are
        // what `derive_anchors` makes of the current state (debug builds
        // assert it after every transfer) and the two overlap rows are
        // the replay's only new input, so if neither changes there is
        // nothing to replay.
        let bwords = alloc.n_backends().div_ceil(64);
        let overlap_moved = work.overlap[..uwords] != *row(&self.overlap, fi, uwords)
            || work.overlap[uwords..] != *row(&self.overlap, ti, uwords);
        let replayed = if overlap_moved { self.orphans.len() } else { 0 };
        let mut extra: Vec<usize> = Vec::new();
        let mut resolved = true;
        for (k, o) in self.orphans.iter().enumerate().take(replayed) {
            let u = cls.update_ids()[o.ui];
            let closure = row(&self.index.closure_upd, u.idx(), uwords);
            let colocated = row_mut(&mut self.colocated, k, bwords);
            save.push(
                u64::from(self.anchor[k])
                    | u64::from(bit(colocated, fi)) << 32
                    | u64::from(bit(colocated, ti)) << 33,
            );
            put_bit(colocated, fi, intersects(closure, &work.overlap[..uwords]));
            put_bit(colocated, ti, intersects(closure, &work.overlap[uwords..]));
            if o.skipped {
                continue;
            }
            let Some(b) = resolve_anchor(alloc, u, colocated, &o.chain, &self.anchor) else {
                resolved = false;
                break;
            };
            let old = self.anchor[k];
            if old != b as u32 {
                let moved = [old as usize, b];
                extra.extend(
                    moved
                        .into_iter()
                        .filter(|&x| x != fi && x != ti && x != NO_ANCHOR as usize),
                );
                self.anchor[k] = b as u32;
            }
        }
        save[SAVE_HEADER - 1] = (save.len() - SAVE_HEADER) as u64;
        if !resolved {
            // Needs the least-loaded preference — global. Restore the
            // anchor state and take the snapshot fallback.
            self.restore_orphans(&save[SAVE_HEADER..], fi, ti);
            self.recycle(save);
            self.work = work;
            return self.full_fallback(alloc, cls, cluster, (ci, fi, ti), shares);
        }
        extra.sort_unstable();
        extra.dedup();

        // Fast path: save the touched backends' exact prior state, then
        // rebuild them from their resident read classes (plus any
        // closures anchored there).
        for &b in [fi, ti].iter().chain(&extra) {
            save.push(b as u64);
            save.push(self.loads[b].to_bits());
            save.extend_from_slice(self.fragment_words(alloc, b));
            save.extend_from_slice(row(&self.hosted, b, uwords));
            save.extend_from_slice(row(&self.overlap, b, uwords));
        }
        self.set_overlap(fi, &work.overlap[..uwords]);
        self.set_overlap(ti, &work.overlap[uwords..]);
        for &b in [fi, ti].iter().chain(&extra) {
            self.derive_backend(alloc, cls, b, &mut work);
            self.retarget(alloc, cls, b, &work.fragments, &work.hosted);
            self.loads[b] = self.resident_load(alloc, b);
        }
        self.work = work;

        if cfg!(debug_assertions) {
            self.debug_cross_check(alloc, cls, cluster, catalog);
        }

        DeltaUndo(UndoRepr::Local(save))
    }

    /// The global fallback: revert the share deltas, snapshot, re-apply,
    /// full `normalize`, and rebuild the tracker state from scratch.
    fn full_fallback(
        &mut self,
        alloc: &mut Allocation,
        cls: &Classification,
        cluster: &ClusterSpec,
        (ci, fi, ti): (usize, usize, usize),
        (old_from_share, old_to_share, amount): (f64, f64, f64),
    ) -> DeltaUndo {
        self.set_share(alloc, ci, fi, old_from_share);
        self.set_share(alloc, ci, ti, old_to_share);
        let snapshot = Box::new(alloc.clone());
        let tracker = Box::new(self.clone());
        alloc.assign[ci][fi] = old_from_share - amount;
        alloc.assign[ci][ti] = old_to_share + amount;
        alloc.normalize(cls, cluster);
        *self = Self::build(Arc::clone(&self.index), alloc, cls);
        DeltaUndo(UndoRepr::Full {
            alloc: snapshot,
            tracker,
        })
    }

    /// Reverts a [`DeltaCost::transfer`], restoring the exact saved
    /// state (never arithmetic inverses). Tokens must be applied in
    /// reverse order of the transfers that produced them.
    pub fn undo(&mut self, alloc: &mut Allocation, cls: &Classification, token: DeltaUndo) {
        match token.0 {
            UndoRepr::Noop => {}
            UndoRepr::Local(save) => {
                let (ci, fi, ti) = (save[0] as usize, save[1] as usize, save[2] as usize);
                self.set_share(alloc, ci, fi, f64::from_bits(save[3]));
                self.set_share(alloc, ci, ti, f64::from_bits(save[4]));
                let frames = SAVE_HEADER + save[SAVE_HEADER - 1] as usize;
                self.restore_orphans(&save[SAVE_HEADER..frames], fi, ti);
                let (words, uwords) = (self.index.words, self.index.uwords);
                for frame in save[frames..].chunks_exact(2 + words + 2 * uwords) {
                    let b = frame[0] as usize;
                    let (fragments, rest) = frame[2..].split_at(words);
                    let (hosted, overlap) = rest.split_at(uwords);
                    self.set_overlap(b, overlap);
                    self.retarget(alloc, cls, b, fragments, hosted);
                    self.loads[b] = f64::from_bits(frame[1]);
                }
                self.recycle(save);
            }
            UndoRepr::Full {
                alloc: snap,
                tracker,
            } => {
                *alloc = *snap;
                *self = *tracker;
            }
        }
    }

    /// Hands a spent undo buffer back for the next transfer.
    fn recycle(&mut self, mut save: Vec<u64>) {
        save.clear();
        self.spare.0.push(save);
    }

    /// Writes one read share and keeps the `resident` bit in step.
    fn set_share(&mut self, alloc: &mut Allocation, c: usize, b: usize, share: f64) {
        alloc.assign[c][b] = share;
        put_bit(
            row_mut(&mut self.resident, b, self.index.cwords),
            c,
            share != 0.0,
        );
    }

    /// Backend `b`'s read classes with a share above [`EPS`] — the
    /// classes `normalize` step 1 collects fragments from.
    fn resident_reads<'a>(
        &'a self,
        alloc: &'a Allocation,
        b: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        row(&self.resident, b, self.index.cwords)
            .iter()
            .zip(&self.index.read_mask)
            .enumerate()
            .flat_map(|(w, (have, reads))| ones(w * 64, have & reads))
            .filter(move |&r| alloc.assign[r][b] > EPS)
    }

    /// Which update classes backend `b`'s read-needed set overlaps.
    fn read_overlap(&self, alloc: &Allocation, b: usize, out: &mut [u64]) {
        out.fill(0);
        for r in self.resident_reads(alloc, b) {
            or_into(out, row(&self.index.touch, r, self.index.uwords));
        }
    }

    /// Would replacing the overlap rows of `fi` and `ti` by `flags`
    /// leave every update class on its side of "overlapped somewhere"?
    fn same_orphan_set(&self, fi: usize, ti: usize, flags: &[u64]) -> bool {
        let uwords = self.index.uwords;
        let (old_from, old_to) = (
            row(&self.overlap, fi, uwords),
            row(&self.overlap, ti, uwords),
        );
        let (new_from, new_to) = flags.split_at(uwords);
        (0..uwords).all(|w| {
            ones(
                w * 64,
                (old_from[w] ^ new_from[w]) | (old_to[w] ^ new_to[w]),
            )
            .all(|ui| {
                let was = i64::from(bit(old_from, ui)) + i64::from(bit(old_to, ui));
                let now = i64::from(bit(new_from, ui)) + i64::from(bit(new_to, ui));
                let old = i64::from(self.counts[ui]);
                (old == 0) == (old + now - was == 0)
            })
        })
    }

    /// Replaces backend `b`'s overlap row, moving `counts` with every
    /// flipped bit.
    fn set_overlap(&mut self, b: usize, flags: &[u64]) {
        let current = row_mut(&mut self.overlap, b, self.index.uwords);
        for (w, (have, &want)) in current.iter_mut().zip(flags).enumerate() {
            for ui in ones(w * 64, *have ^ want) {
                if bit(flags, ui) {
                    self.counts[ui] += 1;
                } else {
                    self.counts[ui] -= 1;
                }
            }
            *have = want;
        }
    }

    /// Puts back the per-orphan words a transfer saved: the anchor and
    /// the colocated bits of the two touched backends.
    fn restore_orphans(&mut self, saved: &[u64], fi: usize, ti: usize) {
        let bwords = self.loads.len().div_ceil(64);
        for (k, &word) in saved.iter().enumerate() {
            self.anchor[k] = word as u32;
            let colocated = row_mut(&mut self.colocated, k, bwords);
            put_bit(colocated, fi, word >> 32 & 1 == 1);
            put_bit(colocated, ti, word >> 33 & 1 == 1);
        }
    }

    /// Derives backend `b`'s fragment and hosted-update rows into `work`
    /// exactly as `normalize` steps 1–3 would: the union of the
    /// placement closures of its resident read classes and of every
    /// orphan anchored there.
    fn derive_backend(&self, alloc: &Allocation, cls: &Classification, b: usize, work: &mut Work) {
        let index = &*self.index;
        work.fragments.fill(0);
        work.hosted.fill(0);
        let anchored = self
            .orphans
            .iter()
            .zip(&self.anchor)
            .filter(|(_, &a)| a as usize == b)
            .map(|(o, _)| cls.update_ids()[o.ui].idx());
        for c in self.resident_reads(alloc, b).chain(anchored) {
            or_into(
                &mut work.fragments,
                cls.placement_fragments(ClassId(c as u32)).words(),
            );
            or_into(&mut work.hosted, row(&index.closure_upd, c, index.uwords));
        }
    }

    /// Backend `b`'s fragment words in the allocation, exactly
    /// `index.words` of them (a set that never held a high id is shorter
    /// and grows first).
    fn fragment_words<'a>(&self, alloc: &'a mut Allocation, b: usize) -> &'a mut [u64] {
        let words = self.index.words;
        &mut alloc.fragments[b].words_mut(words)[..words]
    }

    /// Moves backend `b` to the given fragment and hosted-update rows,
    /// accounting only the bits that differ: bytes for flipped
    /// fragments, the Eq. 10 literal and the `resident` bit for flipped
    /// update rows.
    fn retarget(
        &mut self,
        alloc: &mut Allocation,
        cls: &Classification,
        b: usize,
        fragments: &[u64],
        hosted: &[u64],
    ) {
        let index = &*self.index;
        let (mut gained, mut lost) = (0u64, 0u64);
        let current = self.fragment_words(alloc, b);
        for (w, (have, &want)) in current.iter_mut().zip(fragments).enumerate() {
            for f in ones(w * 64, *have ^ want) {
                if bit(fragments, f) {
                    gained += index.frag_size[f];
                } else {
                    lost += index.frag_size[f];
                }
            }
            *have = want;
        }
        self.total_bytes = self.total_bytes + gained - lost;
        self.bytes[b] = self.bytes[b] + gained - lost;
        let current = row_mut(&mut self.hosted, b, index.uwords);
        let resident = row_mut(&mut self.resident, b, index.cwords);
        for (w, (have, &want)) in current.iter_mut().zip(hosted).enumerate() {
            for ui in ones(w * 64, *have ^ want) {
                let u = cls.update_ids()[ui];
                let share = if bit(hosted, ui) { cls.weight(u) } else { 0.0 };
                alloc.assign[u.idx()][b] = share;
                put_bit(resident, u.idx(), share != 0.0);
            }
            *have = want;
        }
    }

    /// Backend `b`'s assigned load in `assigned_load`'s summation order,
    /// over the non-zero shares only. The `+ 0.0` turns the empty sum's
    /// `-0.0` into the `+0.0` that `assigned_load` yields once it has
    /// added any zero share; it changes no other value.
    fn resident_load(&self, alloc: &Allocation, b: usize) -> f64 {
        row(&self.resident, b, self.index.cwords)
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| ones(w * 64, word))
            .map(|c| alloc.assign[c][b])
            .sum::<f64>()
            + 0.0
    }

    /// Debug oracle: the fast path must leave `alloc` exactly where a
    /// full `normalize` would, and the aggregates and bitset rows must
    /// match a fresh build bit-for-bit.
    fn debug_cross_check(
        &self,
        alloc: &Allocation,
        cls: &Classification,
        cluster: &ClusterSpec,
        catalog: &Catalog,
    ) {
        if !cross_checked(alloc, cls) {
            return;
        }
        let mut reference = alloc.clone();
        reference.normalize(cls, cluster);
        debug_assert_eq!(
            reference.fragments, alloc.fragments,
            "DeltaCost fast path diverged from normalize (fragments)"
        );
        debug_assert_eq!(
            reference.assign, alloc.assign,
            "DeltaCost fast path diverged from normalize (assign)"
        );
        let fresh = Self::build(Arc::new(CostIndex::new(cls, catalog)), alloc, cls);
        let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        debug_assert_eq!(
            bits(&fresh.loads),
            bits(&self.loads),
            "DeltaCost loads diverged from full recompute"
        );
        debug_assert_eq!(fresh.bytes, self.bytes, "DeltaCost bytes diverged");
        debug_assert_eq!(fresh.total_bytes, self.total_bytes);
        debug_assert_eq!(fresh.hosted, self.hosted, "update-row mirror diverged");
        debug_assert_eq!(fresh.resident, self.resident, "resident bits diverged");
        debug_assert_eq!(fresh.counts, self.counts, "overlap counts diverged");
        debug_assert_eq!(fresh.overlap, self.overlap, "overlap flags diverged");
        debug_assert_eq!(fresh.orphans, self.orphans, "orphan structure diverged");
        debug_assert_eq!(fresh.colocated, self.colocated, "colocated bits diverged");
        debug_assert_eq!(fresh.anchor, self.anchor, "orphan anchors diverged");
        debug_assert_eq!(fresh.anchor_fast, self.anchor_fast);
        debug_assert_eq!(
            fresh.cost(cluster),
            self.cost(cluster),
            "DeltaCost cost diverged from Allocation::cost"
        );
    }
}

/// The debug oracles cost a full normalize + tracker build per call —
/// fine on test-sized instances, quadratic death on multilevel-scale
/// ones (thousands of fragments × hundreds of backends). Small instances
/// keep the cross-check; big ones are covered by the conformance oracles
/// comparing tracked against full costs at the end of a run.
fn cross_checked(alloc: &Allocation, cls: &Classification) -> bool {
    alloc.n_backends() <= 64 && cls.len() <= 256 && alloc.n_backends() > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::QueryClass;

    fn setup() -> (Catalog, Classification, ClusterSpec) {
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
        (cat, cls, ClusterSpec::homogeneous(2))
    }

    #[test]
    fn full_replication_is_valid_and_scale_one_for_reads() {
        let (cat, cls, cluster) = setup();
        let alloc = Allocation::full_replication(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        assert!((alloc.scale(&cluster) - 1.0).abs() < 1e-9);
        assert!((alloc.speedup(&cluster) - 2.0).abs() < 1e-9);
        assert!((alloc.degree_of_replication(&cls, &cat) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn full_replication_with_updates_amdahl() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.75),
            QueryClass::update(1, [b], 0.25),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(10);
        let alloc = Allocation::full_replication(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        // Eq. 29 of the paper: speedup = 1/(0.75/10 + 0.25) = 3.07...
        let expected = 1.0 / (0.75 / 10.0 + 0.25);
        assert!((alloc.speedup(&cluster) - expected).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_missing_fragment() {
        let (_, cls, cluster) = setup();
        let mut alloc = Allocation::empty(cls.len(), 2);
        // Assign class 0 (on A) to backend 0 which lacks A.
        alloc.assign[0][0] = 0.30;
        let err = alloc.validate(&cls, &cluster).unwrap_err();
        assert!(matches!(err, InvalidAllocation::MissingFragment { .. }));
    }

    #[test]
    fn validate_catches_partial_read() {
        let (_, cls, cluster) = setup();
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.assign[0][0] = 0.0; // drop part of class 0's weight
        let err = alloc.validate(&cls, &cluster).unwrap_err();
        assert!(matches!(
            err,
            InvalidAllocation::ReadNotFullyAssigned { .. }
        ));
    }

    #[test]
    fn validate_catches_rowa_violation() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.8),
            QueryClass::update(1, [a], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.assign[1][1] = 0.0; // backend 1 holds A but doesn't run the update
        let err = alloc.validate(&cls, &cluster).unwrap_err();
        assert!(matches!(err, InvalidAllocation::UpdateNotReplicated { .. }));
    }

    #[test]
    fn normalize_restores_rowa() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.4),
            QueryClass::read(1, [b], 0.4),
            QueryClass::update(2, [a], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::empty(cls.len(), 2);
        alloc.assign[0][0] = 0.4;
        alloc.assign[1][1] = 0.4;
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        // Update on A must follow class 0 to backend 0 only.
        assert!((alloc.assign[2][0] - 0.2).abs() < 1e-9);
        assert_eq!(alloc.assign[2][1], 0.0);
        assert!(!alloc.fragments[1].iter().any(|f| f.idx() == 0));
    }

    #[test]
    fn normalize_fixpoint_chains_updates() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 1);
        let b = cat.add_table("B", 1);
        let c = cat.add_table("C", 1);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.6),
            QueryClass::update(1, [a, b], 0.2),
            QueryClass::update(2, [b, c], 0.2),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(1);
        let mut alloc = Allocation::empty(cls.len(), 1);
        alloc.assign[0][0] = 0.6;
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        // Backend 0 must end up with A, B (via U1) and C (via U2).
        assert_eq!(alloc.fragments[0].len(), 3);
        assert!((alloc.assign[1][0] - 0.2).abs() < 1e-9);
        assert!((alloc.assign[2][0] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn normalize_anchors_orphan_updates() {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.7),
            QueryClass::update(1, [b], 0.3), // no read touches B
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::empty(cls.len(), 2);
        alloc.assign[0][0] = 0.7;
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        let placements: usize = (0..2).filter(|&i| alloc.assign[1][i] > EPS).count();
        assert_eq!(placements, 1, "orphan update anchored exactly once");
    }

    #[test]
    fn cost_ordering_lexicographic() {
        let a = AllocCost {
            scale: 1.0,
            bytes: 100,
        };
        let b = AllocCost {
            scale: 1.0,
            bytes: 50,
        };
        let c = AllocCost {
            scale: 1.2,
            bytes: 10,
        };
        assert!(b.better_than(&a));
        assert!(a.better_than(&c));
        assert!(b < a && a < c);
    }

    #[test]
    fn balance_deviation_zero_when_balanced() {
        let (_, cls, cluster) = setup();
        let alloc = Allocation::full_replication(&cls, &cluster);
        assert!(alloc.balance_deviation(&cluster) < 1e-9);
    }

    fn mixed_setup() -> (Catalog, Classification, ClusterSpec) {
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 80);
        let c = cat.add_table("C", 60);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.30),
            QueryClass::read(1, [b], 0.20),
            QueryClass::read(2, [a, c], 0.20),
            QueryClass::update(3, [a], 0.15),
            QueryClass::update(4, [c], 0.15),
        ])
        .unwrap();
        (cat, cls, ClusterSpec::homogeneous(3))
    }

    #[test]
    fn delta_cost_matches_full_recompute_after_transfers() {
        let (cat, cls, cluster) = mixed_setup();
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.normalize(&cls, &cluster);
        let mut tracker = DeltaCost::new(&alloc, &cls, &cat);
        assert_eq!(tracker.cost(&cluster), alloc.cost(&cluster, &cat));

        // Consolidate class 0 onto backend 0, class 2 onto backend 1.
        let moves = [
            (ClassId(0), BackendId(1), BackendId(0)),
            (ClassId(0), BackendId(2), BackendId(0)),
            (ClassId(2), BackendId(0), BackendId(1)),
            (ClassId(2), BackendId(2), BackendId(1)),
        ];
        for (c, from, to) in moves {
            let amount = alloc.assign[c.idx()][from.idx()];
            tracker.transfer(&mut alloc, &cls, &cluster, &cat, c, from, to, amount);
            // Tracker cost must equal the ground truth at every step.
            assert_eq!(tracker.cost(&cluster), alloc.cost(&cluster, &cat));
            let mut reference = alloc.clone();
            reference.normalize(&cls, &cluster);
            assert_eq!(reference, alloc, "transfer left alloc normalized");
        }
        alloc.validate(&cls, &cluster).unwrap();
    }

    #[test]
    fn delta_cost_undo_round_trips_exactly() {
        let (cat, cls, cluster) = mixed_setup();
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.normalize(&cls, &cluster);
        let mut tracker = DeltaCost::new(&alloc, &cls, &cat);
        let before = alloc.clone();
        let cost_before = tracker.cost(&cluster);

        // A multi-transfer candidate, undone in reverse order.
        let amount1 = alloc.assign[1][0];
        let t1 = tracker.transfer(
            &mut alloc,
            &cls,
            &cluster,
            &cat,
            ClassId(1),
            BackendId(0),
            BackendId(2),
            amount1,
        );
        let amount2 = alloc.assign[2][2] / 2.0;
        let t2 = tracker.transfer(
            &mut alloc,
            &cls,
            &cluster,
            &cat,
            ClassId(2),
            BackendId(2),
            BackendId(1),
            amount2,
        );
        assert_ne!(before, alloc);
        tracker.undo(&mut alloc, &cls, t2);
        tracker.undo(&mut alloc, &cls, t1);
        assert_eq!(before, alloc, "undo restores the allocation bit-for-bit");
        assert_eq!(cost_before, tracker.cost(&cluster));
        assert_eq!(
            tracker.cost(&cluster),
            alloc.cost(&cluster, &cat),
            "tracker aggregates restored"
        );
    }

    #[test]
    fn delta_cost_orphan_fallback_and_undo() {
        // Update on B is an orphan the moment no read needs A∪B... here:
        // read 0 on A, read 1 on B, update 2 on B. Moving read 1 off a
        // backend is fine (count stays 1); the orphan case needs *no*
        // read on B anywhere, which we engineer by zero-weighting read 1
        // onto a single backend and then observing the fallback keeps
        // correctness when counts would drop to zero.
        let mut cat = Catalog::new();
        let a = cat.add_table("A", 100);
        let b = cat.add_table("B", 100);
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [a], 0.7),
            QueryClass::update(1, [b], 0.3), // no read ever touches B
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let mut alloc = Allocation::empty(cls.len(), 2);
        alloc.assign[0][0] = 0.7;
        alloc.normalize(&cls, &cluster);
        let mut tracker = DeltaCost::new(&alloc, &cls, &cat);
        let before = alloc.clone();
        let cost_before = tracker.cost(&cluster);
        assert_eq!(cost_before, alloc.cost(&cluster, &cat));

        // The orphaned update forces every transfer onto the fallback
        // path; results must still match the ground truth.
        let token = tracker.transfer(
            &mut alloc,
            &cls,
            &cluster,
            &cat,
            ClassId(0),
            BackendId(0),
            BackendId(1),
            0.35,
        );
        assert_eq!(tracker.cost(&cluster), alloc.cost(&cluster, &cat));
        let mut reference = alloc.clone();
        reference.normalize(&cls, &cluster);
        assert_eq!(reference, alloc);
        alloc.validate(&cls, &cluster).unwrap();

        tracker.undo(&mut alloc, &cls, token);
        assert_eq!(before, alloc);
        assert_eq!(cost_before, tracker.cost(&cluster));
    }

    #[test]
    fn delta_cost_emptied_backend_load_is_positive_zero() {
        let (cat, cls, cluster) = setup();
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.normalize(&cls, &cluster);
        let mut tracker = DeltaCost::new(&alloc, &cls, &cat);
        for c in 0..cls.len() {
            let share = alloc.assign[c][1];
            let (from, to) = (BackendId(1), BackendId(0));
            tracker.transfer(
                &mut alloc,
                &cls,
                &cluster,
                &cat,
                ClassId(c as u32),
                from,
                to,
                share,
            );
        }
        assert!(alloc.fragments[1].is_empty());
        assert_eq!(
            tracker.load(BackendId(1)).to_bits(),
            alloc.assigned_load(BackendId(1)).to_bits()
        );
    }

    #[test]
    fn delta_cost_noop_transfers() {
        let (cat, cls, cluster) = mixed_setup();
        let mut alloc = Allocation::full_replication(&cls, &cluster);
        alloc.normalize(&cls, &cluster);
        let mut tracker = DeltaCost::new(&alloc, &cls, &cat);
        let before = alloc.clone();
        let t = tracker.transfer(
            &mut alloc,
            &cls,
            &cluster,
            &cat,
            ClassId(0),
            BackendId(0),
            BackendId(0),
            0.1,
        );
        assert_eq!(before, alloc);
        tracker.undo(&mut alloc, &cls, t);
        assert_eq!(before, alloc);
    }

    #[test]
    fn replica_counts_and_capability() {
        let (cat, cls, cluster) = setup();
        let alloc = Allocation::full_replication(&cls, &cluster);
        assert_eq!(alloc.replica_counts(&cat), vec![2, 2, 2]);
        assert_eq!(
            alloc.capable_backends(&cls, ClassId(3)).len(),
            2,
            "full replication: everyone can serve every class"
        );
    }
}
