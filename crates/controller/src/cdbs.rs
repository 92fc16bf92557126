//! The cluster database system: controller + backends, executable.
//!
//! Writes follow the paper's ROWA order with the write set resolved
//! first: *analyse* finds an update's rows once, on the authoritative
//! master copy ([`Table::write_set`]); every live replica storing the
//! table as one column fragment, every staleness-ledger replay and the
//! master itself then apply those row ids ([`BackendStore::update_rows`],
//! [`Table::set_rows`]) without evaluating the predicate again. Only
//! range-partition fragments, whose rows are a subset of the master's,
//! still evaluate it, each on its own rows.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::{Catalog, FragSet, FragmentId, FragmentKind};
use qcpa_core::greedy;
use qcpa_core::health::{Breakers, Liveness};
use qcpa_core::journal::{Journal, Query};
use qcpa_core::memetic::{self, MemeticConfig};
use qcpa_matching::elastic::{scale_in, scale_out};
use qcpa_storage::engine::{BackendStore, QueryResult, StorageError};
use qcpa_storage::fragmentation::{extract_full, extract_horizontal, extract_vertical};
use qcpa_storage::schema::Schema;
use qcpa_storage::table::Table;

use std::collections::VecDeque;
use std::sync::Arc;

use crate::layout::{layout_from_allocation, Footprint, TableLayout};
use crate::partition::PartitionScheme;
use crate::request::{referenced_columns, Request, WriteKind, WriteRequest};
use crate::resilience::ControllerResilience;
use qcpa_storage::engine::{AggFunc, QueryResult as QR, ScanQuery};
use qcpa_storage::schema::TableDef;
use qcpa_storage::types::Value;

/// Errors from the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum CdbsError {
    /// The request references an unknown table.
    UnknownTable(String),
    /// No backend stores all the data the request needs.
    NoCapableBackend {
        /// The request's table.
        table: String,
        /// The referenced columns.
        columns: Vec<String>,
    },
    /// A backend overlapped an update's data without covering it — the
    /// layout violates the Eq. 8/10 invariants.
    InconsistentLayout {
        /// The offending backend index.
        backend: usize,
        /// The request's table.
        table: String,
    },
    /// Every backend that could serve the request by layout is
    /// currently offline — the data exists in the cluster but no live
    /// replica holds it. Distinct from [`CdbsError::NoCapableBackend`],
    /// where no layout covers the request at all.
    AllReplicasOffline {
        /// The request's table.
        table: String,
        /// The offline backends whose layouts cover the request.
        offline: Vec<usize>,
    },
    /// Storage-level failure.
    Storage(StorageError),
    /// Reallocation needs a non-empty query history.
    EmptyJournal,
    /// An internal invariant did not hold — a controller bug. Reported
    /// as a typed error instead of a panic so a long-running cluster
    /// surfaces it to the operator rather than aborting mid-request
    /// (audit: panic-hygiene).
    Internal(&'static str),
}

impl std::fmt::Display for CdbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdbsError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            CdbsError::NoCapableBackend { table, columns } => {
                write!(f, "no backend stores {columns:?} of {table:?}")
            }
            CdbsError::InconsistentLayout { backend, table } => write!(
                f,
                "backend {backend} overlaps but does not cover an update on {table:?}"
            ),
            CdbsError::AllReplicasOffline { table, offline } => write!(
                f,
                "every replica of {table:?} is offline (backends {offline:?})"
            ),
            CdbsError::Storage(e) => write!(f, "storage error: {e}"),
            CdbsError::EmptyJournal => write!(f, "no query history to classify"),
            CdbsError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

/// Converts an invariant-backed `Option` into a typed internal error.
fn internal<T>(opt: Option<T>, what: &'static str) -> Result<T, CdbsError> {
    opt.ok_or(CdbsError::Internal(what))
}

impl std::error::Error for CdbsError {}

impl From<StorageError> for CdbsError {
    fn from(e: StorageError) -> Self {
        CdbsError::Storage(e)
    }
}

/// Result of executing one request.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The query result (reads only).
    pub result: Option<QueryResult>,
    /// Backends that processed the request (one for reads, the ROWA set
    /// for writes).
    pub backends: Vec<usize>,
    /// The measured cost recorded in the journal (rows touched).
    pub cost: f64,
}

/// Result of a reallocation.
#[derive(Debug, Clone)]
pub struct ReallocationReport {
    /// Bytes bulk-loaded into backends (data that actually moved).
    pub moved_bytes: u64,
    /// Fragments newly loaded.
    pub loaded_fragments: usize,
    /// Fragments kept in place.
    pub kept_fragments: usize,
    /// The classification the allocation was computed from.
    pub classification: Classification,
    /// The computed allocation (already matched onto the old one).
    pub allocation: Allocation,
}

/// A request resolved against schema, partitioning and the master copy
/// — what the *analyse* stage hands to every later one, and what a
/// staleness ledger keeps beside each write it defers.
///
/// An update's `rows` are row ids of the master copy, and they name the
/// same rows on every stored copy of the table that is not a partition
/// fragment. Every such copy — a vertical fragment, or a whole copy —
/// is extracted from the master in master order ([`load_missing`]), and
/// no write changes a row's position: inserts append, updates write in
/// place. Each insert reaches every holder in the same order as it
/// reaches the master — directly when the holder is routable, else
/// through its ledger, replayed in order before it is routable again,
/// or by a reload from the master after an overflow. So when a write is
/// applied to a copy, that copy has taken exactly the writes the master
/// had taken when the write was analysed, and row `r` of the copy is
/// row `r` of the master. Partition fragments hold a subset of the
/// master's rows at other positions, so they evaluate the predicate on
/// their own rows.
#[derive(Debug, Clone)]
struct Analysis {
    /// The request's table: its index in the schema and the master copy.
    mi: usize,
    /// What the request touches of that table.
    footprint: Footprint,
    /// An update's write set on the master copy, ascending; `None` for
    /// reads and inserts.
    rows: Option<Arc<[usize]>>,
}

impl Analysis {
    /// The write set of an update.
    fn rows(&self) -> Result<&[usize], CdbsError> {
        internal(self.rows.as_deref(), "analyse resolves every update's rows")
    }
}

/// A running cluster database system (Figure 3): master copy,
/// controller state and the backend stores.
pub struct Cdbs {
    schema: Schema,
    master: Vec<Table>,
    partitions: Vec<PartitionScheme>,
    catalog: Catalog,
    backends: Vec<BackendStore>,
    layouts: Vec<TableLayout>,
    allocation: Allocation,
    cumulative_cost: Vec<f64>,
    journal: Journal,
    /// Which backends are failed or cut off by a partition: routing
    /// skips both until they are routable again and caught up.
    live: Liveness,
    /// Resilience knobs (breaker thresholds, staleness-ledger cap).
    resilience: ControllerResilience,
    /// Per-backend circuit breakers on the `request_seq` clock.
    breakers: Breakers,
    /// Monotone request counter — the controller's clock, used for
    /// breaker cooldowns.
    request_seq: u64,
    /// Per-backend staleness ledger: the writes an unroutable backend
    /// missed, each with its analysis (an update's row ids included),
    /// replayed in order when it catches up; `None` once it overflowed
    /// the cap (a full reload instead).
    ledgers: Vec<Option<VecDeque<(WriteRequest, Analysis)>>>,
    /// Optional causal tracer ([`Cdbs::attach_tracer`]): sampled
    /// requests become span trees on the cost-weighted timeline.
    tracer: Option<qcpa_obs::Tracer>,
    /// Cost-weighted trace clock: the controller has no wall clock, so
    /// spans tile a timeline that advances by each request's measured
    /// cost (rows touched). `request_seq` orders events within it.
    trace_clock: f64,
}

impl Cdbs {
    /// Boots the system with a full replica of every table on each of
    /// `n_backends` backends (the paper's starting configuration, used
    /// to record an initial weight distribution).
    pub fn new(schema: Schema, tables: Vec<Table>, n_backends: usize) -> Self {
        Self::with_partitioning(schema, tables, n_backends, Vec::new())
    }

    /// Like [`Cdbs::new`], additionally range-partitioning the named
    /// tables (Section 3.1's predicate-based classification): requests
    /// on partitioned tables are classified by the partitions their
    /// predicates touch, and reallocation places partitions
    /// independently.
    #[expect(
        clippy::panic,
        reason = "constructor contract, like the asserts: partitioned tables exist in the schema"
    )]
    pub fn with_partitioning(
        schema: Schema,
        tables: Vec<Table>,
        n_backends: usize,
        partitions: Vec<PartitionScheme>,
    ) -> Self {
        assert!(n_backends > 0, "need at least one backend");
        assert_eq!(
            schema.tables.len(),
            tables.len(),
            "one table instance per schema table"
        );
        for p in &partitions {
            let def = schema
                .table(&p.table)
                .unwrap_or_else(|| panic!("unknown partitioned table {:?}", p.table));
            assert!(
                def.column_index(&p.column).is_some(),
                "unknown partition column {:?}",
                p.column
            );
        }
        let catalog = build_cdbs_catalog(&schema, &tables, &partitions);
        // Full replication, as an allocation over the boot fragments —
        // every plain table whole, every partition of every partitioned
        // one — realized like any later allocation.
        let boot: FragSet = catalog
            .fragments()
            .iter()
            .filter(|f| match f.kind {
                FragmentKind::Table => scheme_for(&partitions, &f.name).is_none(),
                FragmentKind::Horizontal { .. } => true,
                FragmentKind::Column { .. } => false,
            })
            .map(|f| f.id)
            .collect();
        let mut allocation = Allocation::empty(0, n_backends);
        allocation.fragments.fill(boot);
        let layouts = layout_from_allocation(&allocation, &catalog, &schema);
        let backends = layouts
            .iter()
            .map(|layout| {
                let mut store = BackendStore::new();
                load_missing(&schema, &partitions, &tables, &mut store, layout)
                    .unwrap_or_else(|e| panic!("boot layout names only schema tables: {e}"));
                store
            })
            .collect();
        let resilience = ControllerResilience::default();
        Self {
            schema,
            master: tables,
            partitions,
            catalog,
            layouts,
            backends,
            allocation,
            cumulative_cost: vec![0.0; n_backends],
            journal: Journal::new(),
            live: Liveness::new(n_backends),
            breakers: Breakers::new(n_backends, resilience.breaker(), "controller"),
            resilience,
            request_seq: 0,
            ledgers: vec![Some(VecDeque::new()); n_backends],
            tracer: None,
            trace_clock: 0.0,
        }
    }

    /// Attaches a causal tracer: from now on, requests the tracer's
    /// sampler admits are recorded as span trees. The controller has no
    /// wall clock, so spans live on a deterministic cost-weighted
    /// timeline (one unit per journal cost row) ordered by
    /// `request_seq`. Reclaim the tree with [`Cdbs::take_trace`].
    pub fn attach_tracer(&mut self, mut tracer: qcpa_obs::Tracer) {
        if tracer.enabled() {
            for b in 0..self.backends.len() {
                tracer.tree.name_track(b as u32, format!("backend {b}"));
            }
            tracer
                .tree
                .name_track(self.backends.len() as u32, "controller");
        }
        self.tracer = Some(tracer);
    }

    /// Detaches the tracer and returns its recorded tree, if any.
    pub fn take_trace(&mut self) -> Option<qcpa_obs::TraceTree> {
        self.tracer.take().map(qcpa_obs::Tracer::into_tree)
    }

    /// Records a sampled request's span tree: a root on the primary
    /// backend's track covering `[start, start + cost]` on the
    /// cost-weighted clock, one `leg` child per backend touched.
    fn trace_request(&mut self, seq: u64, request: &Request, outcome: &ExecOutcome, start: f64) {
        let Some(tr) = self.tracer.as_mut() else {
            return;
        };
        if !tr.admit(seq) {
            return;
        }
        let name = match request {
            Request::Read(_) => "read",
            Request::Write(_) => "write",
        };
        let end = start + outcome.cost;
        let track = outcome.backends.first().copied().unwrap_or(0) as u32;
        let root = tr
            .tree
            .begin(tr.span_id(seq, 0), None, "request", name, track, start);
        tr.tree.arg(root, "request", seq);
        tr.tree.arg(root, "cost_rows", outcome.cost);
        for (i, &b) in outcome.backends.iter().enumerate() {
            let leg = tr.tree.begin(
                tr.span_id(seq, 1 + i as u64),
                Some(root),
                "service",
                "leg",
                b as u32,
                start,
            );
            tr.tree.arg(leg, "backend", b);
            tr.tree.end(leg, end);
        }
        tr.tree.end(root, end);
    }

    /// Records a failed request as an instant mark on the controller
    /// track, tagged with the error kind.
    fn trace_error(&mut self, seq: u64, err: &CdbsError) {
        let track = self.backends.len() as u32;
        let at = self.trace_clock;
        let Some(tr) = self.tracer.as_mut() else {
            return;
        };
        if !tr.admit(seq) {
            return;
        }
        let kind: &'static str = match err {
            CdbsError::UnknownTable(_) => "unknown_table",
            CdbsError::NoCapableBackend { .. } => "no_capable_backend",
            CdbsError::InconsistentLayout { .. } => "inconsistent_layout",
            CdbsError::AllReplicasOffline { .. } => "all_replicas_offline",
            CdbsError::Storage(_) => "storage",
            CdbsError::EmptyJournal => "empty_journal",
            CdbsError::Internal(_) => "internal",
        };
        tr.tree.mark(
            tr.span_id(seq, u64::MAX - 1),
            None,
            "error",
            kind,
            track,
            at,
            vec![("request", seq.into())],
        );
    }

    /// Replaces the resilience knobs (breaker thresholds, staleness
    /// ledger cap). The constructor starts from
    /// [`ControllerResilience::default`].
    pub fn set_resilience(&mut self, cfg: ControllerResilience) {
        self.breakers.set_config(cfg.breaker());
        self.resilience = cfg;
    }

    /// The active resilience configuration.
    pub fn resilience(&self) -> &ControllerResilience {
        &self.resilience
    }

    /// True while backend `b`'s circuit breaker is open: the backend is
    /// alive but failing, and read routing avoids it until the cooldown
    /// (measured in controller requests) has elapsed.
    pub fn breaker_open(&self, b: usize) -> bool {
        self.breakers.blocked_at(b, self.now())
    }

    /// The breaker clock: the request sequence number.
    fn now(&self) -> f64 {
        self.request_seq as f64
    }

    /// Number of writes currently deferred for offline backend `b` in
    /// its staleness ledger (0 after an overflow — the entries were
    /// discarded and recovery will do a full reload).
    pub fn deferred_writes(&self, b: usize) -> usize {
        self.ledgers[b].as_ref().map_or(0, VecDeque::len)
    }

    /// Whether backend `b`'s staleness ledger overflowed during the
    /// current offline episode.
    pub fn ledger_overflowed(&self, b: usize) -> bool {
        self.ledgers[b].is_none()
    }

    /// Records an externally observed failure of backend `b` (e.g. a
    /// health-probe miss): feeds the circuit breaker exactly like a
    /// storage error surfacing from that backend during execution.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn report_backend_failure(&mut self, b: usize) {
        assert!(b < self.backends.len(), "unknown backend {b}");
        self.breakers.on_timeout(b, self.now(), 0.0);
    }

    /// Least-accumulated-work routing over the online capable backends,
    /// skipping open-circuit ones. Degraded mode: when *every*
    /// candidate is open-circuit the breaker is overridden rather than
    /// failing the read — the scheduler always serves when live data
    /// exists, it just stops preferring sick backends. Returns the
    /// backend and whether its breaker was overridden.
    ///
    /// `online` must be non-empty.
    #[expect(
        clippy::expect_used,
        reason = "costs are sums of finite per-request costs; `online` is non-empty by contract \
                  and `pool` falls back to it"
    )]
    fn pick_read_backend(&self, online: &[usize]) -> (usize, bool) {
        let healthy: Vec<usize> = online
            .iter()
            .copied()
            .filter(|&b| !self.breaker_open(b))
            .collect();
        let reg = qcpa_obs::global();
        let pool: &[usize] = if healthy.is_empty() {
            reg.counter("controller.breaker.overrides").inc();
            online
        } else {
            if healthy.len() < online.len() {
                reg.counter("controller.degraded_reads").inc();
            }
            &healthy
        };
        let b = pool
            .iter()
            .copied()
            .min_by(|&x, &y| {
                self.cumulative_cost[x]
                    .partial_cmp(&self.cumulative_cost[y])
                    .expect("costs are finite")
                    .then(x.cmp(&y))
            })
            .expect("online capable set is non-empty");
        (b, healthy.is_empty())
    }

    /// Queues `w` on unroutable backend `b`'s staleness ledger. A ledger
    /// that would exceed `staleness_cap` overflows: its entries are
    /// discarded and the eventual catch-up downgrades to a full reload
    /// from the master copy.
    fn defer_write(&mut self, b: usize, w: &WriteRequest, an: &Analysis) {
        let cap = self.resilience.staleness_cap;
        let Some(ledger) = &mut self.ledgers[b] else {
            return;
        };
        if ledger.len() < cap {
            ledger.push_back((w.clone(), an.clone()));
            qcpa_obs::global()
                .counter("controller.ledger.deferred")
                .inc();
            return;
        }
        self.ledgers[b] = None;
        qcpa_obs::global()
            .counter("controller.ledger.overflows")
            .inc();
        qcpa_obs::event!(qcpa_obs::Level::Warn, "controller", "ledger_overflow", {
            "backend" => b as u64,
            "cap" => cap as u64,
        });
    }

    /// Marks backend `b` as failed: routing skips it from now on. Its
    /// stored data is kept (the node is down, not wiped) but goes stale
    /// as writes proceed on the survivors; [`Cdbs::recover_backend`]
    /// re-syncs it from the authoritative master copy. Its breaker is
    /// left alone: a failed node is unroutable, not open-circuit.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn fail_backend(&mut self, b: usize) {
        assert!(b < self.backends.len(), "unknown backend {b}");
        if self.live.alive(b) {
            self.live.crash(b);
            qcpa_obs::global().counter("controller.failures").inc();
            qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "fail_backend", {
                "backend" => b as u64,
            });
        }
    }

    /// Brings a failed backend back with fresh health; unless a partition
    /// still cuts it off, it catches up (ledger replay, else reload) and
    /// is routable again. Returns the bytes reloaded: `Ok(0)` after a
    /// replay, while still cut off, or when `b` was not failed.
    ///
    /// # Errors
    /// [`CdbsError::Internal`] when the backend's layout references a
    /// table or partition scheme the controller no longer knows — a
    /// bookkeeping bug, reported instead of panicking.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn recover_backend(&mut self, b: usize) -> Result<u64, CdbsError> {
        assert!(b < self.backends.len(), "unknown backend {b}");
        if self.live.alive(b) {
            return Ok(0);
        }
        self.breakers.reset(b, self.now());
        let moved = self.readmit(b, Liveness::recover)?;
        qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "recover_backend", {
            "backend" => b as u64,
            "routable" => self.live.routable(b),
            "moved_bytes" => moved,
        });
        Ok(moved)
    }

    /// Steps `b`'s liveness by `transition`; if that makes `b` routable,
    /// catches it up (the one place a backend rejoins routing).
    fn readmit(
        &mut self,
        b: usize,
        transition: fn(&mut Liveness, usize) -> bool,
    ) -> Result<u64, CdbsError> {
        if transition(&mut self.live, b) {
            self.catch_up(b)
        } else {
            Ok(0)
        }
    }

    /// Brings backend `b`'s stored fragments up to date with the master
    /// copy — the one catch-up, run by [`Cdbs::readmit`] when a recovery
    /// or a heal makes `b` routable again (reallocation readmits every
    /// backend through those two). A ledger that held every missed write
    /// is replayed in order, updates by the row ids their analysis
    /// resolved; after an overflow, or a replay error (ledger and
    /// fragments disagree, e.g. a row id past a fragment's end, possibly
    /// half-applied), everything `b` stores is dropped and its layout
    /// reloaded. Returns the bytes reloaded.
    ///
    /// # Errors
    /// [`CdbsError::Internal`] when the layout names a table or
    /// partition scheme missing from the controller state.
    fn catch_up(&mut self, b: usize) -> Result<u64, CdbsError> {
        if let Some(deferred) = self.ledgers[b].replace(VecDeque::new()) {
            if deferred
                .iter()
                .all(|(w, an)| self.apply_write(b, w, an).is_ok())
            {
                qcpa_obs::global()
                    .counter("controller.ledger.replayed")
                    .add(deferred.len() as u64);
                return Ok(0);
            }
        }
        self.backends[b] = BackendStore::new();
        let (moved, _, _) = load_missing(
            &self.schema,
            &self.partitions,
            &self.master,
            &mut self.backends[b],
            &self.layouts[b],
        )?;
        qcpa_obs::global()
            .counter("controller.recoveries.moved_bytes")
            .add(moved);
        Ok(moved)
    }

    /// Indices of the currently failed backends.
    pub fn offline_backends(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&b| !self.live.alive(b))
            .collect()
    }

    /// Marks the backends of `side` as cut off by a network partition:
    /// routing skips them and writes they miss defer into their
    /// staleness ledgers — exactly the failed-backend machinery — but
    /// their breaker state is untouched, because an unreachable node is
    /// not a failed one. Already-cut backends are unaffected.
    ///
    /// # Panics
    /// Panics if any backend index is out of range.
    pub fn partition_backends(&mut self, side: &[usize]) {
        for &b in side {
            assert!(b < self.backends.len(), "unknown backend {b}");
            if !self.live.is_cut(b) {
                self.live.cut(b);
                qcpa_obs::global().counter("controller.partitions").inc();
                qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "partition_backend", {
                    "backend" => b as u64,
                });
            }
        }
    }

    /// Heals a partition: the backends of `side` are reachable again, and
    /// each one not failed as well catches up on the writes it missed
    /// (ledger replay, else reload) and is routable again. Returns the
    /// bytes reloaded. Unlike [`Cdbs::recover_backend`], breakers are
    /// left alone.
    ///
    /// # Errors
    /// [`CdbsError::Internal`] when a backend's layout references a
    /// table the controller no longer knows — a bookkeeping bug.
    ///
    /// # Panics
    /// Panics if any backend index is out of range.
    pub fn heal_partition(&mut self, side: &[usize]) -> Result<u64, CdbsError> {
        let mut moved_total = 0u64;
        for &b in side {
            assert!(b < self.backends.len(), "unknown backend {b}");
            if !self.live.is_cut(b) {
                continue;
            }
            let moved = self.readmit(b, Liveness::uncut)?;
            moved_total += moved;
            qcpa_obs::global().counter("controller.heals").inc();
            qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "heal_backend", {
                "backend" => b as u64,
                "moved_bytes" => moved,
            });
        }
        Ok(moved_total)
    }

    /// Indices of the backends currently cut off by a partition.
    pub fn partitioned_backends(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&b| self.live.is_cut(b))
            .collect()
    }

    /// Backend `b`'s share of one write: the ROWA fan-out and the ledger
    /// replay, on a backend that holds all of the write's footprint
    /// ([`Cdbs::write`] checks every holder first). Does *not* touch the
    /// master copy, the journal or the balance state; returns the rows
    /// changed (≥ 1).
    fn apply_write(&mut self, b: usize, w: &WriteRequest, an: &Analysis) -> Result<f64, CdbsError> {
        let table = w.table.as_str();
        let def = &self.schema.tables[an.mi];
        let (layout, store) = (&self.layouts[b], &mut self.backends[b]);
        let changed = match &an.footprint {
            Footprint::Parts(touched) if !layout.columns.contains_key(table) => {
                let scheme = scheme_of(&self.partitions, table)?;
                apply_partitioned_write(store, w, scheme, touched)?
            }
            // One stored fragment takes the write: a plain table's
            // columns, or a partitioned table's whole copy.
            _ => {
                let frag = internal(
                    layout.fragment_name(&self.schema, table),
                    "covering backend stores the table",
                )?;
                apply_column_write(store, w, an, &frag, def, &layout.columns[table])?
            }
        };
        Ok((changed as f64).max(1.0))
    }

    /// Number of backends.
    pub fn n_backends(&self) -> usize {
        self.backends.len()
    }

    /// The recorded query history.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The authoritative master copy, one table per schema table in
    /// schema order.
    pub fn master(&self) -> &[Table] {
        &self.master
    }

    /// Backend `b`'s store.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn backend(&self, b: usize) -> &BackendStore {
        &self.backends[b]
    }

    /// Each backend's physical layout.
    pub fn layouts(&self) -> &[TableLayout] {
        &self.layouts
    }

    /// Per-backend stored bytes.
    pub fn stored_bytes(&self) -> Vec<u64> {
        self.backends.iter().map(|b| b.byte_size()).collect()
    }

    /// Per-backend accumulated work (the scheduler's balance state).
    pub fn accumulated_cost(&self) -> &[f64] {
        &self.cumulative_cost
    }

    /// The catalog fragments of `footprint` — what the journal records a
    /// request against (Eq. 2).
    fn journal_fragments(&self, table: &str, footprint: &Footprint) -> Vec<FragmentId> {
        match footprint {
            Footprint::Columns(cols) => cols
                .iter()
                .filter_map(|c| self.catalog.by_name(&format!("{table}.{c}")))
                .collect(),
            Footprint::Parts(touched) => scheme_for(&self.partitions, table)
                .into_iter()
                .flat_map(|s| touched.iter().map(|&p| s.fragment_name(p)))
                .filter_map(|name| self.catalog.by_name(&name))
                .collect(),
        }
    }

    /// Executes one request: reads go to the least-loaded capable
    /// backend, writes fan out ROWA. Every request is recorded in the
    /// journal with its measured cost.
    pub fn execute(&mut self, request: &Request) -> Result<ExecOutcome, CdbsError> {
        let _span = qcpa_obs::span("controller", "execute");
        // The controller's monotone clock: breaker cooldowns count
        // requests, successful or not.
        self.request_seq = self.request_seq.saturating_add(1);
        let seq = self.request_seq;
        let start = self.trace_clock;
        let outcome = match self.execute_inner(request) {
            Ok(o) => o,
            Err(e) => {
                self.trace_error(seq, &e);
                return Err(e);
            }
        };
        self.trace_clock += outcome.cost;
        self.trace_request(seq, request, &outcome, start);
        let reg = qcpa_obs::global();
        match request {
            Request::Read(_) => reg.counter("controller.requests.read").inc(),
            Request::Write(_) => reg.counter("controller.requests.write").inc(),
        }
        reg.observe("controller.request_cost_rows", outcome.cost);
        Ok(outcome)
    }

    /// The stage sequence every request runs, whatever the table's
    /// fragmentation: *analyse* → *route* → *serve* → *propagate* →
    /// *apply* → *record*. The footprint the analysis yields is the only
    /// thing the later stages ask about the kind of fragment.
    fn execute_inner(&mut self, request: &Request) -> Result<ExecOutcome, CdbsError> {
        let an = self.analyse(request)?;
        let (table, fp) = (request.table(), &an.footprint);
        let outcome = match request {
            Request::Read(q) => self.read(q, &an)?,
            Request::Write(w) => self.write(w, &an)?,
        };
        let frags = self.journal_fragments(table, fp);
        self.journal.record(match request {
            Request::Read(_) => Query::read(format!("R {table}{fp}"), frags, outcome.cost),
            Request::Write(_) => Query::update(format!("W {table}{fp}"), frags, outcome.cost),
        });
        Ok(outcome)
    }

    /// *Analyse*: resolves the request's table and its footprint on it —
    /// the referenced columns of a plain table, the partitions a
    /// range-partitioned one is touched in — and an update's write set,
    /// once, on the master copy (the only place an update's rows are
    /// found; [`Analysis`] says why every other copy can reuse them). A
    /// write whose row or value does not fit the schema fails here,
    /// before any replica, the master copy, a ledger or the journal sees
    /// it.
    fn analyse(&self, request: &Request) -> Result<Analysis, CdbsError> {
        let table = request.table();
        let mi = self
            .schema
            .tables
            .iter()
            .position(|t| t.name == table)
            .ok_or_else(|| CdbsError::UnknownTable(table.to_string()))?;
        let def = &self.schema.tables[mi];
        let mut rows = None;
        if let Request::Write(w) = request {
            match &w.kind {
                WriteKind::Insert(row) => def.check_row(row)?,
                WriteKind::Update {
                    predicate,
                    column,
                    value,
                } => {
                    def.check_value(column, value)?;
                    rows = Some(self.master[mi].write_set(predicate.as_ref()).into());
                }
            }
        }
        let footprint = match (scheme_for(&self.partitions, table), request) {
            (None, _) => Footprint::Columns(referenced_columns(request, def)),
            (Some(scheme), Request::Read(q)) => {
                Footprint::Parts(scheme.touched(q.predicate.as_ref()))
            }
            (Some(scheme), Request::Write(w)) => Footprint::Parts(written_parts(scheme, def, w)?),
        };
        Ok(Analysis {
            mi,
            footprint,
            rows,
        })
    }

    /// *Route*: the backends whose layout `holds` the request's
    /// footprint, and those of them routing may target. Fails typed when
    /// the second set is empty: no layout holds the data at all, or
    /// every holder is failed or cut off.
    fn route(
        &self,
        table: &str,
        an: &Analysis,
        holds: fn(&TableLayout, &str, &Footprint) -> bool,
    ) -> Result<(Vec<usize>, Vec<usize>), CdbsError> {
        let holders: Vec<usize> = (0..self.backends.len())
            .filter(|&b| holds(&self.layouts[b], table, &an.footprint))
            .collect();
        let live: Vec<usize> = holders
            .iter()
            .copied()
            .filter(|&b| self.live.routable(b))
            .collect();
        if !live.is_empty() {
            return Ok((holders, live));
        }
        Err(if holders.is_empty() {
            CdbsError::NoCapableBackend {
                table: table.to_string(),
                columns: an.footprint.describe(),
            }
        } else {
            CdbsError::AllReplicasOffline {
                table: table.to_string(),
                offline: holders,
            }
        })
    }

    /// A read: one live backend holding the whole footprint serves it
    /// (least accumulated work first, open breakers avoided) and is
    /// charged the rows it scanned.
    fn read(&mut self, q: &ScanQuery, an: &Analysis) -> Result<ExecOutcome, CdbsError> {
        let table = q.table.as_str();
        let (_, live) = self.route(table, an, TableLayout::holds_all)?;
        let (b, overridden) = self.pick_read_backend(&live);
        let now = self.now();
        let (result, cost) = match self.scan_on(b, q, an) {
            Ok((result, rows)) => (result, rows.max(1.0)),
            Err(e) => {
                self.breakers.on_timeout(b, now, 0.0);
                return Err(e);
            }
        };
        // A synchronous read is a probe that ends at its own instant; one
        // served past an open breaker proved the backend well, so the
        // breaker starts over closed.
        self.breakers.on_dispatch_ok(b, now, cost, now);
        if overridden {
            self.breakers.reset(b, now);
        }
        self.cumulative_cost[b] += cost;
        Ok(ExecOutcome {
            result: Some(result),
            backends: vec![b],
            cost,
        })
    }

    /// *Serve*, for a read on backend `b`: the scan over the one stored
    /// fragment that covers it (a plain table's columns, or a whole copy
    /// of a partitioned table), else combined over the touched partition
    /// fragments. Returns the result and the rows scanned — the stored
    /// fragments' cardinality, a full scan in this engine.
    fn scan_on(&self, b: usize, q: &ScanQuery, an: &Analysis) -> Result<(QR, f64), CdbsError> {
        let table = q.table.as_str();
        let (layout, store) = (&self.layouts[b], &self.backends[b]);
        match &an.footprint {
            Footprint::Parts(touched) if !layout.columns.contains_key(table) => {
                let scheme = scheme_of(&self.partitions, table)?;
                combine_partition_scan(store, q, scheme, touched)
            }
            _ => {
                let frag = internal(
                    layout.fragment_name(&self.schema, table),
                    "capable backend stores the table",
                )?;
                let rows = store.table(&frag).map_or(1.0, |t| t.len() as f64);
                let mut translated = q.clone();
                translated.table = frag;
                Ok((store.execute(&translated)?, rows))
            }
        }
    }

    /// A write: ROWA over the live backends holding any of the
    /// footprint, deferred for the unroutable ones, then applied to the
    /// master copy. A holder that stores only part of the footprint
    /// would take only part of the write, so the write fails typed
    /// before any copy, ledger or the journal sees it.
    fn write(&mut self, w: &WriteRequest, an: &Analysis) -> Result<ExecOutcome, CdbsError> {
        let table = w.table.as_str();
        // With no live replica the write fails rather than deferring
        // everywhere (zero durability).
        let (holders, targets) = self.route(table, an, TableLayout::holds_any)?;
        if let Some(&b) = holders
            .iter()
            .find(|&&b| !self.layouts[b].holds_all(table, &an.footprint))
        {
            return Err(CdbsError::InconsistentLayout {
                backend: b,
                table: table.to_string(),
            });
        }
        let mut cost = 1.0f64;
        for &b in &targets {
            let changed = self.apply_write(b, w, an)?;
            cost = cost.max(changed);
            self.cumulative_cost[b] += cost;
        }
        // *Propagate*: unroutable replicas missed the write; it waits in
        // their staleness ledgers for the catch-up.
        for b in holders {
            if !self.live.routable(b) {
                self.defer_write(b, w, an);
            }
        }
        // *Apply*: keep the master copy authoritative.
        match &w.kind {
            WriteKind::Insert(row) => self.master[an.mi].append(row.clone()),
            WriteKind::Update { column, value, .. } => {
                self.master[an.mi].set_rows(an.rows()?, column, value.clone());
            }
        }
        Ok(ExecOutcome {
            result: None,
            backends: targets,
            cost,
        })
    }

    /// Reallocates the system: classifies the recorded journal at the
    /// given granularity, computes a (memetic-refined) allocation for
    /// `n_backends`, matches it cost-minimally onto the current layout
    /// (Hungarian; elastic padding when the backend count changes), and
    /// physically moves only the fragments that changed.
    pub fn reallocate(
        &mut self,
        n_backends: usize,
        granularity: Granularity,
        refine: Option<&MemeticConfig>,
    ) -> Result<ReallocationReport, CdbsError> {
        let _span = qcpa_obs::span("controller", "reallocate");
        assert!(n_backends > 0, "need at least one backend");
        if self.journal.is_empty() {
            return Err(CdbsError::EmptyJournal);
        }
        // The keep/load pass below leaves a fragment that is already in
        // place where it is, so every backend that missed writes — failed
        // or cut off — catches up first: a stale fragment would otherwise
        // be kept as current.
        for b in 0..self.backends.len() {
            self.recover_backend(b)?;
            self.heal_partition(&[b])?;
        }
        // Fresh sizes: the data may have grown since boot.
        self.catalog = build_cdbs_catalog(&self.schema, &self.master, &self.partitions);

        let cls = Classification::from_journal(&self.journal, &self.catalog, granularity)
            .map_err(|_| CdbsError::EmptyJournal)?;
        let cluster = ClusterSpec::homogeneous(n_backends);
        let mut alloc = greedy::allocate(&cls, &self.catalog, &cluster);
        if let Some(cfg) = refine {
            alloc = memetic::optimize(alloc, &cls, &self.catalog, &cluster, cfg);
        }
        alloc
            .validate(&cls, &cluster)
            .map_err(|_| CdbsError::Internal("allocator output is valid"))?;

        // Match onto the running system to minimize movement.
        let old_n = self.backends.len();
        let matched = if n_backends >= old_n {
            scale_out(&self.allocation, &alloc, &self.catalog).allocation
        } else {
            let plan = scale_in(&self.allocation, &alloc, &self.catalog);
            // Drop the decommissioned physical nodes, keeping order.
            let keep: Vec<usize> = (0..old_n)
                .filter(|b| !plan.decommissioned.contains(b))
                .collect();
            let shrunk = plan.allocation.restrict(&keep);
            self.backends = keep
                .iter()
                .map(|&b| std::mem::take(&mut self.backends[b]))
                .collect();
            self.layouts.truncate(keep.len());
            self.cumulative_cost = keep.iter().map(|&b| self.cumulative_cost[b]).collect();
            shrunk
        };
        let n = matched.n_backends();
        while self.backends.len() < n {
            self.backends.push(BackendStore::new());
            self.layouts.push(TableLayout::default());
            self.cumulative_cost.push(0.0);
        }
        // Everybody caught up above; health, breakers and ledgers start
        // clean on the new cluster.
        self.live = Liveness::new(n);
        self.breakers = Breakers::new(n, self.resilience.breaker(), "controller");
        self.ledgers = vec![Some(VecDeque::new()); n];

        // Physically realize the new layouts.
        let new_layouts = layout_from_allocation(&matched, &self.catalog, &self.schema);
        let mut moved_bytes = 0u64;
        let mut loaded = 0usize;
        let mut kept = 0usize;
        for (b, layout) in new_layouts.iter().enumerate() {
            let mut wanted: Vec<String> = Vec::with_capacity(layout.columns.len());
            for t in layout.columns.keys() {
                wanted.push(internal(
                    layout.fragment_name(&self.schema, t),
                    "layout references a known table",
                )?);
            }
            for (t, parts) in &layout.parts {
                let scheme = scheme_of(&self.partitions, t)?;
                wanted.extend(parts.iter().map(|&p| scheme.fragment_name(p)));
            }
            // Drop stale fragments.
            let stale: Vec<String> = self.backends[b]
                .fragment_names()
                .filter(|n| !wanted.contains(&n.to_string()))
                .map(|s| s.to_string())
                .collect();
            for name in stale {
                self.backends[b].drop_fragment(&name);
            }
            let (moved, new, old) = load_missing(
                &self.schema,
                &self.partitions,
                &self.master,
                &mut self.backends[b],
                layout,
            )?;
            moved_bytes += moved;
            loaded += new;
            kept += old;
        }

        let reg = qcpa_obs::global();
        reg.counter("controller.reallocations").inc();
        reg.counter("controller.etl.moved_bytes").add(moved_bytes);
        reg.counter("controller.etl.loaded_fragments")
            .add(loaded as u64);
        reg.counter("controller.etl.kept_fragments")
            .add(kept as u64);
        qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "reallocate", {
            "backends" => n_backends,
            "moved_bytes" => moved_bytes,
            "loaded_fragments" => loaded,
            "kept_fragments" => kept,
        });

        self.layouts = new_layouts;
        self.allocation = matched.clone();
        Ok(ReallocationReport {
            moved_bytes,
            loaded_fragments: loaded,
            kept_fragments: kept,
            classification: cls,
            allocation: matched,
        })
    }

    /// Clears the query history (e.g. after a reallocation, to adapt to
    /// a fresh workload phase).
    pub fn clear_journal(&mut self) {
        self.journal = Journal::new();
    }
}

/// Extracts from the master copy and bulk-loads into `store` every
/// fragment `layout` wants and `store` lacks — the ETL step shared by
/// boot, catch-up and reallocation. Returns `(moved_bytes, loaded, kept)`:
/// the bytes loaded, and how many wanted fragments were loaded and how
/// many were already in place.
///
/// # Errors
/// [`CdbsError::Internal`] when the layout names a table or partition
/// scheme the controller does not know.
fn load_missing(
    schema: &Schema,
    partitions: &[PartitionScheme],
    master: &[Table],
    store: &mut BackendStore,
    layout: &TableLayout,
) -> Result<(u64, usize, usize), CdbsError> {
    let master_of = |table: &str| {
        internal(
            schema.tables.iter().position(|d| d.name == table),
            "layout references a known table",
        )
        .map(|mi| (&schema.tables[mi], &master[mi]))
    };
    let (mut moved, mut loaded, mut kept) = (0u64, 0usize, 0usize);
    for (t, parts) in &layout.parts {
        let scheme = scheme_of(partitions, t)?;
        let (_, source) = master_of(t)?;
        for &p in parts {
            if store.table(&scheme.fragment_name(p)).is_some() {
                kept += 1;
                continue;
            }
            moved += store.bulk_load(extract_horizontal(
                source,
                &scheme.range_predicate(p),
                p as u32,
            ));
            loaded += 1;
        }
    }
    for (t, stored) in &layout.columns {
        let frag_name = internal(
            layout.fragment_name(schema, t),
            "layout references a known table",
        )?;
        if store.table(&frag_name).is_some() {
            kept += 1;
            continue;
        }
        let (def, source) = master_of(t)?;
        let data = if stored.len() == def.columns.len() {
            extract_full(source)
        } else {
            let col_refs: Vec<&str> = stored.iter().map(|s| s.as_str()).collect();
            extract_vertical(source, &col_refs)
        };
        moved += store.bulk_load(data);
        loaded += 1;
    }
    Ok((moved, loaded, kept))
}

/// Builds the controller's fragment catalog: tables and columns for
/// plain tables (matching [`build_catalog`]'s sizing), table +
/// horizontal fragments for range-partitioned tables, sized by the
/// *actual* per-range row counts of the master copy.
fn build_cdbs_catalog(
    schema: &Schema,
    master: &[Table],
    partitions: &[PartitionScheme],
) -> Catalog {
    let mut catalog = Catalog::new();
    for (def, table) in schema.tables.iter().zip(master) {
        let rows = table.len() as u64;
        let tid = catalog.add_table(def.name.clone(), def.row_width() * rows);
        if let Some(scheme) = scheme_for(partitions, &def.name) {
            #[expect(
                clippy::expect_used,
                reason = "no error channel here; `Cdbs::with_partitioning` checks every scheme \
                          column first"
            )]
            let idx = def.column_index(&scheme.column).expect("scheme column");
            let mut counts = vec![0u64; scheme.n_parts()];
            for r in 0..table.len() {
                if let Some(Value::I64(v)) = table.value(r, &def.columns[idx].name) {
                    counts[scheme.part_of(v)] += 1;
                }
            }
            for (p, &c) in counts.iter().enumerate() {
                catalog.add_horizontal(tid, p as u32, scheme.fragment_name(p), def.row_width() * c);
            }
        } else {
            let pk_width = def.primary_key().byte_width as u64;
            for (i, col) in def.columns.iter().enumerate() {
                let width = col.byte_width as u64;
                let size = if i == 0 {
                    width * rows
                } else {
                    (width + pk_width) * rows
                };
                catalog.add_column(tid, format!("{}.{}", def.name, col.name), size);
            }
        }
    }
    catalog
}

/// The range-partitioning scheme of `table`, if it has one.
fn scheme_for<'a>(partitions: &'a [PartitionScheme], table: &str) -> Option<&'a PartitionScheme> {
    partitions.iter().find(|p| p.table == table)
}

/// The scheme of a table whose layout or footprint is in partitions.
fn scheme_of<'a>(
    partitions: &'a [PartitionScheme],
    table: &str,
) -> Result<&'a PartitionScheme, CdbsError> {
    internal(
        scheme_for(partitions, table),
        "partition fragments imply a scheme",
    )
}

/// The partitions of `scheme`'s table (defined by `def`) a write
/// touches: the one an inserted row's partition key falls in, or those
/// an update's predicate can reach.
fn written_parts(
    scheme: &PartitionScheme,
    def: &TableDef,
    w: &WriteRequest,
) -> Result<Vec<usize>, CdbsError> {
    Ok(match &w.kind {
        WriteKind::Insert(row) => {
            let idx = internal(
                def.column_index(&scheme.column),
                "scheme validated at construction",
            )?;
            match row.get(idx) {
                Some(Value::I64(v)) => vec![scheme.part_of(*v)],
                _ => (0..scheme.n_parts()).collect(),
            }
        }
        WriteKind::Update { predicate, .. } => scheme.touched(predicate.as_ref()),
    })
}

/// *Serve*, for a write on the stored partition fragments `touched` of
/// `scheme`'s table (the layout covers them all); returns the most rows
/// changed in one fragment.
fn apply_partitioned_write(
    store: &mut BackendStore,
    w: &WriteRequest,
    scheme: &PartitionScheme,
    touched: &[usize],
) -> Result<usize, CdbsError> {
    match &w.kind {
        WriteKind::Insert(row) => {
            store.insert(&scheme.fragment_name(touched[0]), row.clone())?;
            Ok(1)
        }
        WriteKind::Update {
            predicate,
            column,
            value,
        } => {
            let mut changed_max = 0;
            for &p in touched {
                let frag = scheme.fragment_name(p);
                let changed = store.update(&frag, predicate.as_ref(), column, value.clone())?;
                changed_max = changed_max.max(changed);
            }
            Ok(changed_max)
        }
    }
}

/// *Serve*, for a write on the one fragment `frag` storing the columns
/// `stored` of the table `def`: an update sets the rows `an` resolved on
/// the master copy. Returns the rows changed.
fn apply_column_write(
    store: &mut BackendStore,
    w: &WriteRequest,
    an: &Analysis,
    frag: &str,
    def: &TableDef,
    stored: &[String],
) -> Result<usize, CdbsError> {
    match &w.kind {
        WriteKind::Insert(row) => {
            // Project the row onto the stored columns.
            let projected: Vec<_> = def
                .columns
                .iter()
                .zip(row.iter())
                .filter(|(c, _)| stored.contains(&c.name))
                .map(|(_, v)| v.clone())
                .collect();
            store.insert(frag, projected)?;
            Ok(1)
        }
        WriteKind::Update { column, value, .. } => {
            Ok(store.update_rows(frag, an.rows()?, column, value.clone())?)
        }
    }
}

/// Runs a scan over the stored fragments of the touched partitions and
/// combines the partial results (rows concatenate; COUNT/SUM add,
/// MIN/MAX fold, AVG recombines from per-partition SUM and COUNT), one
/// sub-query per fragment and function it needs. Returns the combined
/// result and the scan cost (rows of the fragments read).
fn combine_partition_scan(
    store: &BackendStore,
    q: &ScanQuery,
    scheme: &PartitionScheme,
    touched: &[usize],
) -> Result<(QR, f64), CdbsError> {
    let mut cost = 0.0f64;
    let mut frags = Vec::with_capacity(touched.len());
    for &p in touched {
        let frag = scheme.fragment_name(p);
        if let Some(t) = store.table(&frag) {
            cost += t.len() as f64;
            frags.push(frag);
        }
    }
    let mut part_q = q.clone();
    let Some((func, column)) = &q.aggregate else {
        let mut rows = Vec::new();
        for frag in frags {
            part_q.table = frag;
            if let QR::Rows(mut r) = store.execute(&part_q)? {
                rows.append(&mut r);
            }
        }
        return Ok((QR::Rows(rows), cost));
    };
    // Folds `f`'s per-fragment scalars (empty selections yield none).
    let mut fold = |f: AggFunc, init: Option<f64>, op: fn(f64, f64) -> f64| {
        part_q.aggregate = Some((f, column.clone()));
        let mut acc = init;
        for frag in &frags {
            part_q.table.clone_from(frag);
            if let QR::Scalar(Some(v)) = store.execute(&part_q)? {
                acc = Some(acc.map_or(v, |a| op(a, v)));
            }
        }
        Ok::<_, CdbsError>(acc)
    };
    let add = |a, b| a + b;
    let scalar = match func {
        AggFunc::Count | AggFunc::Sum => fold(*func, Some(0.0), add)?,
        AggFunc::Min => fold(AggFunc::Min, None, f64::min)?,
        AggFunc::Max => fold(AggFunc::Max, None, f64::max)?,
        AggFunc::Avg => {
            let count = fold(AggFunc::Count, Some(0.0), add)?.filter(|&c| c > 0.0);
            let sum = fold(AggFunc::Sum, Some(0.0), add)?;
            count.zip(sum).map(|(c, s)| s / c)
        }
    };
    Ok((QR::Scalar(scalar), cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WriteRequest;
    use qcpa_storage::engine::AggFunc;
    use qcpa_storage::engine::ScanQuery;
    use qcpa_storage::predicate::{CmpOp, Predicate};
    use qcpa_storage::schema::{ColumnDef, TableDef};
    use qcpa_storage::types::{DataType, Value};

    fn bookshop() -> (Schema, Vec<Table>) {
        let mut schema = Schema::new();
        schema.add_table(TableDef::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64, 8),
                ColumnDef::new("i_title", DataType::Str, 24),
                ColumnDef::new("i_price", DataType::F64, 8),
            ],
        ));
        schema.add_table(TableDef::new(
            "orders",
            vec![
                ColumnDef::new("o_id", DataType::I64, 8),
                ColumnDef::new("o_item", DataType::I64, 8),
                ColumnDef::new("o_qty", DataType::I64, 8),
            ],
        ));
        let mut item = Table::new(schema.table("item").unwrap().clone());
        for i in 0..50 {
            item.append(vec![
                Value::I64(i),
                Value::Str(format!("book-{i}")),
                Value::F64(5.0 + i as f64),
            ]);
        }
        let mut orders = Table::new(schema.table("orders").unwrap().clone());
        for i in 0..200 {
            orders.append(vec![
                Value::I64(i),
                Value::I64(i % 50),
                Value::I64(1 + i % 3),
            ]);
        }
        (schema, vec![item, orders])
    }

    fn price_query() -> Request {
        Request::Read(
            ScanQuery::all("item")
                .select(&["i_price"])
                .agg(AggFunc::Avg, "i_price"),
        )
    }

    fn order_query() -> Request {
        Request::Read(
            ScanQuery::all("orders")
                .select(&["o_qty"])
                .agg(AggFunc::Sum, "o_qty"),
        )
    }

    #[test]
    fn boots_fully_replicated_and_serves_queries() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 3);
        let out = cdbs.execute(&price_query()).unwrap();
        assert_eq!(out.backends.len(), 1);
        match out.result.unwrap() {
            QueryResult::Scalar(Some(avg)) => assert!((avg - 29.5).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cdbs.journal().total(), 1);
    }

    /// Boots TPC-H on three backends, takes backend 2 down, and checks
    /// that `write` fails with `expected`, untouched.
    fn assert_rejected_untouched(write: WriteRequest, expected: &StorageError) {
        let w = qcpa_workloads::tpch::tpch(1.0);
        let tables = w.generate_tables(200);
        let mut cdbs = Cdbs::new(w.schema, tables, 3);
        cdbs.execute(&Request::Read(ScanQuery::all("region")))
            .unwrap();
        cdbs.fail_backend(2);
        assert_write_rejected_untouched(&mut cdbs, write, &CdbsError::Storage(expected.clone()));
    }

    /// Checks that `write` fails with `expected` while the journal, the
    /// ledgers, the master copy and every stored fragment stay as they
    /// were — every column still the allocation it was before.
    fn assert_write_rejected_untouched(cdbs: &mut Cdbs, write: WriteRequest, expected: &CdbsError) {
        let (journal, master) = (cdbs.journal().total(), cdbs.master.clone());
        let stores = cdbs.backends.clone();
        let ledgers: Vec<_> = (0..cdbs.n_backends())
            .map(|b| (cdbs.deferred_writes(b), cdbs.ledger_overflowed(b)))
            .collect();

        let err = cdbs.execute(&Request::Write(write)).unwrap_err();
        assert_eq!(&err, expected);
        assert_eq!(cdbs.journal().total(), journal);
        assert!((0..cdbs.n_backends())
            .all(|b| (cdbs.deferred_writes(b), cdbs.ledger_overflowed(b)) == ledgers[b]));
        let same = |a: &Table, b: &Table| {
            a == b
                && a.columns()
                    .iter()
                    .zip(b.columns())
                    .all(|(x, y)| std::sync::Arc::ptr_eq(x, y))
        };
        assert!(master.iter().zip(&cdbs.master).all(|(a, b)| same(a, b)));
        for (before, after) in stores.iter().zip(&cdbs.backends) {
            let names: Vec<&str> = before.fragment_names().collect();
            assert_eq!(after.fragment_names().collect::<Vec<_>>(), names);
            for name in names {
                assert!(same(
                    before.table(name).unwrap(),
                    after.table(name).unwrap()
                ));
            }
        }
    }

    #[test]
    fn short_insert_is_rejected_before_any_copy() {
        assert_rejected_untouched(
            WriteRequest::insert("region", vec![Value::I64(99)]),
            &StorageError::RowArity {
                table: "region".into(),
                expected: 3,
                got: 1,
            },
        );
    }

    #[test]
    fn mistyped_update_is_rejected_before_any_copy() {
        assert_rejected_untouched(
            WriteRequest::update(
                "region",
                Some(Predicate::cmp("r_regionkey", CmpOp::Eq, Value::I64(1))),
                "r_regionkey",
                Value::Str("one".into()),
            ),
            &StorageError::TypeMismatch {
                table: "region".into(),
                column: "r_regionkey".into(),
                expected: DataType::I64,
                got: DataType::Str,
            },
        );
    }

    /// Bookshop on three backends where backend `partial` stores only
    /// `item.i_id`: a price update overlaps it without being covered, so
    /// it must fail before any copy takes it — whether that backend is
    /// live or cut off.
    fn partial_holder_rejects_update(partial: usize, cut: bool) {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 3);
        cdbs.layouts[partial]
            .columns
            .insert("item".into(), vec!["i_id".into()]);
        if cut {
            cdbs.partition_backends(&[partial]);
        }
        let w = WriteRequest::update(
            "item",
            Some(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(1))),
            "i_price",
            Value::F64(-1.0),
        );
        let expected = CdbsError::InconsistentLayout {
            backend: partial,
            table: "item".into(),
        };
        assert_write_rejected_untouched(&mut cdbs, w, &expected);
    }

    #[test]
    fn inconsistent_layout_is_rejected_before_any_replica() {
        partial_holder_rejects_update(2, false);
        partial_holder_rejects_update(0, true);
    }

    #[test]
    fn reads_balance_across_backends() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 3);
        for _ in 0..9 {
            cdbs.execute(&price_query()).unwrap();
        }
        let costs = cdbs.accumulated_cost();
        let max = costs.iter().copied().fold(0.0f64, f64::max);
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max - min <= 50.0 + 1e-9, "costs {costs:?}");
    }

    #[test]
    fn writes_fan_out_rowa_and_stay_consistent() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 3);
        let w = Request::Write(WriteRequest::update(
            "item",
            Some(Predicate::cmp("i_id", CmpOp::Lt, Value::I64(10))),
            "i_price",
            Value::F64(1.0),
        ));
        let out = cdbs.execute(&w).unwrap();
        assert_eq!(out.backends.len(), 3, "full replication: all backends");
        // Every backend answers the post-update query identically.
        let q = ScanQuery::all("item")
            .filter(Predicate::cmp("i_price", CmpOp::Eq, Value::F64(1.0)))
            .agg(AggFunc::Count, "i_id");
        for _ in 0..3 {
            let out = cdbs.execute(&Request::Read(q.clone())).unwrap();
            assert_eq!(out.result.unwrap(), QueryResult::Scalar(Some(10.0)));
        }
    }

    #[test]
    fn reallocation_specializes_backends_and_reduces_storage() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        for _ in 0..6 {
            cdbs.execute(&price_query()).unwrap();
            cdbs.execute(&order_query()).unwrap();
        }
        let before: u64 = cdbs.stored_bytes().iter().sum();
        let report = cdbs.reallocate(2, Granularity::Fragment, None).unwrap();
        let after: u64 = cdbs.stored_bytes().iter().sum();
        assert!(
            after < before,
            "partial replication stores less: {after} vs {before}"
        );
        assert!(report.moved_bytes > 0);
        // Queries still work and return the same answers.
        let out = cdbs.execute(&price_query()).unwrap();
        assert_eq!(out.result.unwrap(), QueryResult::Scalar(Some(29.5)));
        let out = cdbs.execute(&order_query()).unwrap();
        assert!(matches!(out.result.unwrap(), QueryResult::Scalar(Some(_))));
    }

    #[test]
    fn writes_after_reallocation_hit_only_overlapping_backends() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        for _ in 0..6 {
            cdbs.execute(&price_query()).unwrap();
            cdbs.execute(&order_query()).unwrap();
        }
        // Record some writes so the update class is classified.
        let upd = Request::Write(WriteRequest::update(
            "item",
            Some(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(1))),
            "i_price",
            Value::F64(9.9),
        ));
        cdbs.execute(&upd).unwrap();
        cdbs.reallocate(2, Granularity::Fragment, None).unwrap();
        let out = cdbs.execute(&upd).unwrap();
        assert!(
            out.backends.len() < 2 || cdbs.stored_bytes().iter().all(|&b| b > 0),
            "update fans out only to overlapping backends"
        );
        // The answer is still consistent wherever the read lands.
        let q = Request::Read(
            ScanQuery::all("item")
                .select(&["i_price"])
                .filter(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(1))),
        );
        let out = cdbs.execute(&q).unwrap();
        match out.result.unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows[0][0], Value::F64(9.9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn elastic_scale_out_and_in() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        for _ in 0..4 {
            cdbs.execute(&price_query()).unwrap();
            cdbs.execute(&order_query()).unwrap();
        }
        let r4 = cdbs.reallocate(4, Granularity::Table, None).unwrap();
        assert_eq!(cdbs.n_backends(), 4);
        assert!(r4.allocation.n_backends() == 4);
        cdbs.execute(&price_query()).unwrap();

        let r2 = cdbs.reallocate(2, Granularity::Table, None).unwrap();
        assert_eq!(cdbs.n_backends(), 2);
        assert!(r2.kept_fragments + r2.loaded_fragments > 0);
        let out = cdbs.execute(&price_query()).unwrap();
        assert!(matches!(out.result.unwrap(), QueryResult::Scalar(Some(_))));
    }

    #[test]
    fn inserts_grow_master_and_reallocation_reflects_growth() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.execute(&price_query()).unwrap();
        for i in 0..100 {
            cdbs.execute(&Request::Write(WriteRequest::insert(
                "orders",
                vec![Value::I64(1000 + i), Value::I64(0), Value::I64(1)],
            )))
            .unwrap();
        }
        cdbs.execute(&order_query()).unwrap();
        let report = cdbs.reallocate(2, Granularity::Table, None).unwrap();
        // orders grew from 200 to 300 rows — the fresh catalog must see it.
        let orders_frag = report
            .classification
            .classes
            .iter()
            .flat_map(|c| c.fragments.iter())
            .find(|f| {
                // any fragment of the orders table
                matches!(cdbs.catalog_fragment_table(**f).as_deref(), Some("orders"))
            });
        assert!(orders_frag.is_some());
        let out = cdbs.execute(&order_query()).unwrap();
        match out.result.unwrap() {
            QueryResult::Scalar(Some(sum)) => assert!(sum > 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_table_is_an_error() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 1);
        let err = cdbs
            .execute(&Request::Read(ScanQuery::all("ghost")))
            .unwrap_err();
        assert!(matches!(err, CdbsError::UnknownTable(_)));
    }

    #[test]
    fn execution_and_reallocation_feed_the_registry() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        for _ in 0..3 {
            cdbs.execute(&price_query()).unwrap();
            cdbs.execute(&order_query()).unwrap();
        }
        let report = cdbs.reallocate(2, Granularity::Fragment, None).unwrap();
        // Counters are monotone, so >= survives parallel tests sharing
        // the process-global registry.
        let snap = qcpa_obs::global().snapshot();
        assert!(snap.counters["controller.requests.read"] >= 6);
        assert!(snap.counters["controller.reallocations"] >= 1);
        assert!(snap.counters["controller.etl.moved_bytes"] >= report.moved_bytes);
        assert!(snap.histograms["span.controller.execute"].count >= 6);
        assert!(snap.histograms["span.controller.reallocate"].count >= 1);
        assert!(snap.histograms["controller.request_cost_rows"].count >= 6);
    }

    #[test]
    fn reallocation_requires_history() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        let err = cdbs.reallocate(2, Granularity::Table, None).unwrap_err();
        assert_eq!(err, CdbsError::EmptyJournal);
    }

    #[test]
    fn all_replicas_offline_is_typed_and_recoverable() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.fail_backend(0);
        // One survivor still serves.
        cdbs.execute(&price_query()).unwrap();
        cdbs.fail_backend(1);
        match cdbs.execute(&price_query()) {
            Err(CdbsError::AllReplicasOffline { table, offline }) => {
                assert_eq!(table, "item");
                assert_eq!(offline, vec![0, 1]);
            }
            other => panic!("expected AllReplicasOffline, got {other:?}"),
        }
        // Writes with zero live replicas fail the same way (nothing is
        // deferred: the write never became durable anywhere).
        let w = Request::Write(WriteRequest::update(
            "item",
            Some(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(1))),
            "i_price",
            Value::F64(2.0),
        ));
        assert!(matches!(
            cdbs.execute(&w),
            Err(CdbsError::AllReplicasOffline { .. })
        ));
        assert_eq!(cdbs.deferred_writes(0), 0);
        assert_eq!(cdbs.deferred_writes(1), 0);
        // Recovery restores service.
        cdbs.recover_backend(0).unwrap();
        assert!(cdbs.execute(&price_query()).is_ok());
    }

    #[test]
    fn staleness_ledger_replays_missed_writes() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.fail_backend(1);
        cdbs.execute(&Request::Write(WriteRequest::update(
            "item",
            Some(Predicate::cmp("i_id", CmpOp::Lt, Value::I64(10))),
            "i_price",
            Value::F64(1.0),
        )))
        .unwrap();
        cdbs.execute(&Request::Write(WriteRequest::insert(
            "item",
            vec![
                Value::I64(50),
                Value::Str("book-50".into()),
                Value::F64(1.0),
            ],
        )))
        .unwrap();
        assert_eq!(cdbs.deferred_writes(1), 2);
        assert!(!cdbs.ledger_overflowed(1));
        // Replay recovery: no bulk bytes move.
        assert_eq!(cdbs.recover_backend(1).unwrap(), 0);
        assert_eq!(cdbs.deferred_writes(1), 0);
        // Backend 1 is idle (writes were charged to backend 0), so the
        // next read lands there — and sees the replayed writes.
        let q = Request::Read(
            ScanQuery::all("item")
                .filter(Predicate::cmp("i_price", CmpOp::Eq, Value::F64(1.0)))
                .agg(AggFunc::Count, "i_id"),
        );
        let out = cdbs.execute(&q).unwrap();
        assert_eq!(out.backends, vec![1]);
        assert_eq!(out.result.unwrap(), QueryResult::Scalar(Some(11.0)));
    }

    #[test]
    fn ledger_overflow_triggers_full_reload() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.set_resilience(ControllerResilience {
            staleness_cap: 2,
            ..ControllerResilience::default()
        });
        cdbs.fail_backend(1);
        for i in 0..4 {
            cdbs.execute(&Request::Write(WriteRequest::update(
                "item",
                Some(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(i))),
                "i_price",
                Value::F64(0.5),
            )))
            .unwrap();
        }
        assert!(cdbs.ledger_overflowed(1));
        assert_eq!(cdbs.deferred_writes(1), 0, "overflow discards the ledger");
        // Overflow downgrades recovery to the full catch-up ETL.
        assert!(cdbs.recover_backend(1).unwrap() > 0);
        assert!(!cdbs.ledger_overflowed(1));
        let q = Request::Read(
            ScanQuery::all("item")
                .filter(Predicate::cmp("i_price", CmpOp::Eq, Value::F64(0.5)))
                .agg(AggFunc::Count, "i_id"),
        );
        let out = cdbs.execute(&q).unwrap();
        assert_eq!(out.backends, vec![1], "idle recovered backend serves");
        assert_eq!(out.result.unwrap(), QueryResult::Scalar(Some(4.0)));
    }

    #[test]
    fn breaker_routes_reads_around_failing_backend() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.set_resilience(ControllerResilience {
            failure_threshold: 2,
            cooldown_requests: 3,
            ..ControllerResilience::default()
        });
        // Two probe misses trip backend 0's breaker.
        cdbs.report_backend_failure(0);
        assert!(!cdbs.breaker_open(0), "below threshold");
        cdbs.report_backend_failure(0);
        assert!(cdbs.breaker_open(0));
        // Both backends are tied on accumulated work; the tie-break
        // would pick 0, but the open breaker routes around it.
        for _ in 0..2 {
            let out = cdbs.execute(&price_query()).unwrap();
            assert_eq!(out.backends, vec![1]);
        }
        // Cooldown elapsed (3 requests): half-open — backend 0 is
        // routable again, the successful read closes the breaker.
        let out = cdbs.execute(&price_query()).unwrap();
        assert_eq!(out.backends, vec![0]);
        assert!(!cdbs.breaker_open(0));
    }

    #[test]
    fn breaker_override_when_every_replica_is_open() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 1);
        cdbs.set_resilience(ControllerResilience {
            failure_threshold: 1,
            cooldown_requests: 100,
            ..ControllerResilience::default()
        });
        cdbs.report_backend_failure(0);
        assert!(cdbs.breaker_open(0));
        // The only replica is open-circuit: the breaker is overridden
        // rather than failing a servable read.
        let out = cdbs.execute(&price_query()).unwrap();
        assert_eq!(out.backends, vec![0]);
        // The override's success closed the breaker.
        assert!(!cdbs.breaker_open(0));
    }

    /// Sets the price of items `ids` to `price`, one write each.
    fn reprice(cdbs: &mut Cdbs, ids: std::ops::Range<i64>, price: f64) {
        for i in ids {
            let w = WriteRequest::update(
                "item",
                Some(Predicate::cmp("i_id", CmpOp::Eq, Value::I64(i))),
                "i_price",
                Value::F64(price),
            );
            cdbs.execute(&Request::Write(w)).unwrap();
        }
    }

    /// Reads how many items cost `price`; asserts that backend 1 (idle:
    /// every write was charged to backend 0) answered.
    fn count_on_backend_1(cdbs: &mut Cdbs, price: f64) -> QueryResult {
        let q = ScanQuery::all("item")
            .filter(Predicate::cmp("i_price", CmpOp::Eq, Value::F64(price)))
            .agg(AggFunc::Count, "i_id");
        let out = cdbs.execute(&Request::Read(q)).unwrap();
        assert_eq!(out.backends, vec![1]);
        out.result.unwrap()
    }

    #[test]
    fn heal_leaves_a_failed_backend_to_its_recovery() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.fail_backend(1);
        cdbs.partition_backends(&[1]);
        reprice(&mut cdbs, 0..2, 0.5);
        assert_eq!(cdbs.heal_partition(&[1]).unwrap(), 0);
        assert_eq!(cdbs.offline_backends(), vec![1]);
        assert_eq!(
            cdbs.deferred_writes(1),
            2,
            "a failed backend catches up later"
        );
        assert_eq!(cdbs.recover_backend(1).unwrap(), 0);
        assert_eq!(cdbs.deferred_writes(1), 0);
        assert_eq!(
            count_on_backend_1(&mut cdbs, 0.5),
            QueryResult::Scalar(Some(2.0))
        );
    }

    #[test]
    fn recovery_leaves_a_cut_backend_to_its_heal() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.partition_backends(&[1]);
        cdbs.fail_backend(1);
        reprice(&mut cdbs, 0..2, 0.5);
        assert_eq!(cdbs.recover_backend(1).unwrap(), 0);
        assert_eq!(cdbs.partitioned_backends(), vec![1]);
        assert_eq!(cdbs.deferred_writes(1), 2, "a cut backend catches up later");
        assert_eq!(cdbs.heal_partition(&[1]).unwrap(), 0);
        assert_eq!(cdbs.deferred_writes(1), 0);
        assert_eq!(
            count_on_backend_1(&mut cdbs, 0.5),
            QueryResult::Scalar(Some(2.0))
        );
    }

    #[test]
    fn overflowed_backend_failed_and_cut_reloads_once() {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.set_resilience(ControllerResilience {
            staleness_cap: 1,
            ..ControllerResilience::default()
        });
        cdbs.fail_backend(1);
        cdbs.partition_backends(&[1]);
        reprice(&mut cdbs, 0..2, 0.5);
        assert!(cdbs.ledger_overflowed(1));
        assert_eq!(
            cdbs.heal_partition(&[1]).unwrap(),
            0,
            "no reload while down"
        );
        assert!(cdbs.ledger_overflowed(1));
        reprice(&mut cdbs, 2..4, 0.5);
        assert!(cdbs.recover_backend(1).unwrap() > 0, "the one reload");
        assert!(!cdbs.ledger_overflowed(1));
        assert_eq!(
            count_on_backend_1(&mut cdbs, 0.5),
            QueryResult::Scalar(Some(4.0))
        );
    }

    /// Backend 1 is cut off while every price changes, then the system
    /// reallocates: reallocation keeps fragments in place, so whichever
    /// backend answers afterwards must have caught up first.
    fn reallocate_with_cut_backend(staleness_cap: usize) {
        let (schema, tables) = bookshop();
        let mut cdbs = Cdbs::new(schema, tables, 2);
        cdbs.set_resilience(ControllerResilience {
            staleness_cap,
            ..ControllerResilience::default()
        });
        for _ in 0..3 {
            cdbs.execute(&price_query()).unwrap();
            cdbs.execute(&order_query()).unwrap();
        }
        cdbs.partition_backends(&[1]);
        let reprice = WriteRequest::update("item", None, "i_price", Value::F64(-7.0));
        cdbs.execute(&Request::Write(reprice)).unwrap();
        assert_eq!(cdbs.ledger_overflowed(1), staleness_cap == 0);
        cdbs.reallocate(2, Granularity::Table, None).unwrap();
        assert!(cdbs.partitioned_backends().is_empty());
        assert_eq!(cdbs.deferred_writes(1), 0);
        assert!(!cdbs.ledger_overflowed(1));
        for _ in 0..6 {
            let out = cdbs.execute(&price_query()).unwrap();
            assert_eq!(
                out.result.unwrap(),
                QueryResult::Scalar(Some(-7.0)),
                "backend {:?} answered from a stale fragment",
                out.backends
            );
        }
    }

    #[test]
    fn reallocation_replays_a_cut_backends_ledger_first() {
        reallocate_with_cut_backend(1024);
    }

    #[test]
    fn reallocation_reloads_a_cut_backend_whose_ledger_overflowed() {
        reallocate_with_cut_backend(0);
    }
}

impl Cdbs {
    /// Test helper: the owning table name of a catalog fragment.
    #[doc(hidden)]
    pub fn catalog_fragment_table(&self, f: FragmentId) -> Option<String> {
        let table = self.catalog.table_of(f);
        Some(self.catalog.fragment(table).name.clone())
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::request::WriteRequest;
    use qcpa_storage::engine::{AggFunc, ScanQuery};
    use qcpa_storage::predicate::{CmpOp, Predicate};
    use qcpa_storage::schema::{ColumnDef, TableDef};
    use qcpa_storage::types::DataType;

    /// An `events` table range-partitioned by day: days 0..9 cold,
    /// 10..19 warm, 20+ hot.
    fn partitioned_cdbs(n: usize) -> Cdbs {
        let mut schema = Schema::new();
        schema.add_table(TableDef::new(
            "events",
            vec![
                ColumnDef::new("e_id", DataType::I64, 8),
                ColumnDef::new("e_day", DataType::I64, 8),
                ColumnDef::new("e_value", DataType::F64, 8),
            ],
        ));
        schema.add_table(TableDef::new(
            "users",
            vec![
                ColumnDef::new("u_id", DataType::I64, 8),
                ColumnDef::new("u_name", DataType::Str, 20),
            ],
        ));
        let mut events = Table::new(schema.table("events").unwrap().clone());
        for i in 0..300i64 {
            events.append(vec![
                Value::I64(i),
                Value::I64(i % 30),
                Value::F64(i as f64),
            ]);
        }
        let mut users = Table::new(schema.table("users").unwrap().clone());
        for i in 0..20i64 {
            users.append(vec![Value::I64(i), Value::Str(format!("user {i}"))]);
        }
        Cdbs::with_partitioning(
            schema,
            vec![events, users],
            n,
            vec![PartitionScheme::new("events", "e_day", vec![10, 20])],
        )
    }

    fn hot_count() -> Request {
        Request::Read(
            ScanQuery::all("events")
                .select(&["e_id"])
                .filter(Predicate::cmp("e_day", CmpOp::Ge, Value::I64(20)))
                .agg(AggFunc::Count, "e_id"),
        )
    }

    fn total_sum() -> Request {
        Request::Read(
            ScanQuery::all("events")
                .select(&["e_value"])
                .agg(AggFunc::Sum, "e_value"),
        )
    }

    fn scalar(out: &ExecOutcome) -> f64 {
        match out.result.as_ref().expect("read result") {
            QR::Scalar(Some(v)) => *v,
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_reads_combine_across_fragments() {
        let mut cdbs = partitioned_cdbs(2);
        // Hot partition has days 20..29: 10 of each day's 10 rows.
        assert_eq!(scalar(&cdbs.execute(&hot_count()).unwrap()), 100.0);
        // Full-table sum spans all three partitions.
        let expected: f64 = (0..300).map(|i| i as f64).sum();
        assert_eq!(scalar(&cdbs.execute(&total_sum()).unwrap()), expected);
        // Avg recombines from per-partition sums and counts.
        let avg = Request::Read(
            ScanQuery::all("events")
                .select(&["e_value"])
                .agg(AggFunc::Avg, "e_value"),
        );
        assert!((scalar(&cdbs.execute(&avg).unwrap()) - expected / 300.0).abs() < 1e-9);
    }

    #[test]
    fn partitioned_min_max_fold_and_empty_selections_are_none() {
        let mut cdbs = partitioned_cdbs(2);
        let agg = |f, p: Option<Predicate>| {
            let q = ScanQuery::all("events").select(&["e_value"]);
            let q = match p {
                Some(p) => q.filter(p),
                None => q,
            };
            Request::Read(q.agg(f, "e_value"))
        };
        // e_value = e_id over 0..300, spread over all three partitions.
        assert_eq!(
            scalar(&cdbs.execute(&agg(AggFunc::Min, None)).unwrap()),
            0.0
        );
        let out = cdbs.execute(&agg(AggFunc::Max, None)).unwrap();
        assert_eq!(scalar(&out), 299.0);
        assert_eq!(out.cost, 300.0, "cost is the rows of the touched fragments");
        // Nothing selected: MIN/MAX/AVG have no value, COUNT and SUM are 0.
        let nothing = || Some(Predicate::cmp("e_value", CmpOp::Lt, Value::F64(-1.0)));
        for f in [AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let out = cdbs.execute(&agg(f, nothing())).unwrap();
            assert_eq!(out.result, Some(QR::Scalar(None)), "{f:?}");
        }
        for f in [AggFunc::Count, AggFunc::Sum] {
            assert_eq!(scalar(&cdbs.execute(&agg(f, nothing())).unwrap()), 0.0);
        }
    }

    #[test]
    fn journal_classifies_by_partition_sets() {
        let mut cdbs = partitioned_cdbs(2);
        cdbs.execute(&hot_count()).unwrap();
        cdbs.execute(&total_sum()).unwrap();
        cdbs.execute(&hot_count()).unwrap();
        // Two distinct read classes: {hot partition} and {all partitions}.
        assert_eq!(cdbs.journal().distinct(), 2);
        assert_eq!(cdbs.journal().total(), 3);
    }

    #[test]
    fn reallocation_places_partitions_independently() {
        let mut cdbs = partitioned_cdbs(3);
        // Hot-range writes dominate the hot partition's weight; cold
        // reporting carries the read load — the write class must pin
        // the hot partition to few backends.
        for i in 0..12 {
            cdbs.execute(&Request::Write(WriteRequest::update(
                "events",
                Some(Predicate::cmp("e_day", CmpOp::Ge, Value::I64(25))),
                "e_value",
                Value::F64(0.0),
            )))
            .unwrap();
            cdbs.execute(&Request::Write(WriteRequest::update(
                "events",
                Some(Predicate::cmp("e_day", CmpOp::Ge, Value::I64(22))),
                "e_value",
                Value::F64(1.0),
            )))
            .unwrap();
            if i % 2 == 0 {
                cdbs.execute(&hot_count()).unwrap();
            }
            // Cold-range report.
            cdbs.execute(&Request::Read(
                ScanQuery::all("events")
                    .select(&["e_value"])
                    .filter(Predicate::cmp("e_day", CmpOp::Lt, Value::I64(10)))
                    .agg(AggFunc::Count, "e_value"),
            ))
            .unwrap();
        }
        let before: u64 = cdbs.stored_bytes().iter().sum();
        // The memetic refinement consolidates the hot partition's write
        // replicas (the greedy alone plateaus at full spread here).
        let refine = MemeticConfig::default();
        let report = cdbs
            .reallocate(3, qcpa_core::classify::Granularity::Fragment, Some(&refine))
            .unwrap();
        let after: u64 = cdbs.stored_bytes().iter().sum();
        assert!(
            after < before,
            "partial placement stores less: {after} vs {before}"
        );
        // The hot partition (fragment "events#2") lives on fewer than
        // all backends — the writes pinned it.
        let hot = report
            .allocation
            .fragments
            .iter()
            .filter(|set| {
                set.iter().any(|f| {
                    matches!(
                        cdbs.catalog_fragment_kind(f),
                        Some((name, true)) if name == "events#2"
                    )
                })
            })
            .count();
        assert!(hot < 3, "hot partition on {hot}/3 backends");
        // Answers unchanged after the physical move.
        assert_eq!(scalar(&cdbs.execute(&hot_count()).unwrap()), 100.0);
    }

    #[test]
    fn partitioned_writes_fan_out_and_stay_consistent() {
        let mut cdbs = partitioned_cdbs(2);
        let zap = Request::Write(WriteRequest::update(
            "events",
            Some(Predicate::cmp("e_day", CmpOp::Eq, Value::I64(5))),
            "e_value",
            Value::F64(-1.0),
        ));
        let out = cdbs.execute(&zap).unwrap();
        assert_eq!(out.backends.len(), 2, "boot layout replicates everywhere");
        let count = Request::Read(
            ScanQuery::all("events")
                .select(&["e_id"])
                .filter(Predicate::cmp("e_value", CmpOp::Eq, Value::F64(-1.0)))
                .agg(AggFunc::Count, "e_id"),
        );
        for _ in 0..2 {
            assert_eq!(scalar(&cdbs.execute(&count).unwrap()), 10.0);
        }
    }

    #[test]
    fn inserts_route_to_the_owning_partition() {
        let mut cdbs = partitioned_cdbs(2);
        cdbs.execute(&Request::Write(WriteRequest::insert(
            "events",
            vec![Value::I64(9_000), Value::I64(25), Value::F64(1.0)],
        )))
        .unwrap();
        assert_eq!(scalar(&cdbs.execute(&hot_count()).unwrap()), 101.0);
        // The journal recorded the insert against the hot partition only.
        let insert_entry = cdbs
            .journal()
            .entries()
            .iter()
            .find(|e| e.query.text.starts_with("W events#[2]"))
            .expect("insert classified to partition 2");
        assert_eq!(insert_entry.query.fragments.len(), 1);
    }

    #[test]
    fn partitioned_all_replicas_offline_is_typed() {
        let mut cdbs = partitioned_cdbs(2);
        cdbs.fail_backend(0);
        cdbs.fail_backend(1);
        match cdbs.execute(&hot_count()) {
            Err(CdbsError::AllReplicasOffline { table, offline }) => {
                assert_eq!(table, "events");
                assert_eq!(offline, vec![0, 1]);
            }
            other => panic!("expected AllReplicasOffline, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_ledger_replay_keeps_partitions_consistent() {
        let mut cdbs = partitioned_cdbs(2);
        cdbs.fail_backend(1);
        cdbs.execute(&Request::Write(WriteRequest::update(
            "events",
            Some(Predicate::cmp("e_day", CmpOp::Eq, Value::I64(5))),
            "e_value",
            Value::F64(-1.0),
        )))
        .unwrap();
        cdbs.execute(&Request::Write(WriteRequest::insert(
            "events",
            vec![Value::I64(9_000), Value::I64(25), Value::F64(1.0)],
        )))
        .unwrap();
        assert_eq!(cdbs.deferred_writes(1), 2);
        assert_eq!(
            cdbs.recover_backend(1).unwrap(),
            0,
            "ledger replay moves no bytes"
        );
        // The recovered backend is idle, so both reads land on it and
        // must see the replayed update and insert.
        let zapped = Request::Read(
            ScanQuery::all("events")
                .select(&["e_id"])
                .filter(Predicate::cmp("e_value", CmpOp::Eq, Value::F64(-1.0)))
                .agg(AggFunc::Count, "e_id"),
        );
        let out = cdbs.execute(&zapped).unwrap();
        assert_eq!(out.backends, vec![1]);
        assert_eq!(scalar(&out), 10.0);
        let out = cdbs.execute(&hot_count()).unwrap();
        assert_eq!(scalar(&out), 101.0);
    }

    #[test]
    fn mixed_partitioned_and_plain_tables_coexist() {
        let mut cdbs = partitioned_cdbs(2);
        let users = Request::Read(
            ScanQuery::all("users")
                .select(&["u_name"])
                .agg(AggFunc::Count, "u_name"),
        );
        assert_eq!(scalar(&cdbs.execute(&users).unwrap()), 20.0);
        cdbs.execute(&hot_count()).unwrap();
        cdbs.reallocate(2, qcpa_core::classify::Granularity::Fragment, None)
            .unwrap();
        assert_eq!(scalar(&cdbs.execute(&users).unwrap()), 20.0);
        assert_eq!(scalar(&cdbs.execute(&hot_count()).unwrap()), 100.0);
    }
}

impl Cdbs {
    /// Test helper: a fragment's name and whether it is horizontal.
    #[doc(hidden)]
    pub fn catalog_fragment_kind(&self, f: FragmentId) -> Option<(String, bool)> {
        let frag = self.catalog.fragment(f);
        Some((
            frag.name.clone(),
            matches!(
                frag.kind,
                qcpa_core::fragment::FragmentKind::Horizontal { .. }
            ),
        ))
    }
}
