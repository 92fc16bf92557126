//! The cluster database system: controller + backends, executable.

use qcpa_core::allocation::Allocation;
use qcpa_core::classify::{Classification, Granularity};
use qcpa_core::cluster::ClusterSpec;
use qcpa_core::fragment::{Catalog, FragSet, FragmentId, FragmentKind};
use qcpa_core::greedy;
use qcpa_core::journal::{Journal, Query};
use qcpa_core::memetic::{self, MemeticConfig};
use qcpa_matching::elastic::{scale_in, scale_out};
use qcpa_storage::engine::{BackendStore, QueryResult, StorageError};
use qcpa_storage::fragmentation::{extract_full, extract_horizontal, extract_vertical};
use qcpa_storage::schema::Schema;
use qcpa_storage::table::Table;

use std::collections::VecDeque;

use crate::layout::{layout_from_allocation, Footprint, TableLayout};
use crate::partition::PartitionScheme;
use crate::request::{referenced_columns, Request, WriteKind, WriteRequest};
use crate::resilience::{BackendHealth, ControllerResilience};
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

/// A request resolved against schema and partitioning — what the
/// *analyse* stage hands to every later one.
#[derive(Debug, Clone)]
struct Analysis {
    /// The request's table: its index in the schema and the master copy.
    mi: usize,
    /// What the request touches of that table.
    footprint: Footprint,
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
    /// Backends currently failed: routing skips them, writes they miss
    /// are replayed from the master copy on recovery.
    offline: Vec<bool>,
    /// Backends currently cut off by a network partition: unreachable
    /// rather than dead. Routing skips them like offline backends and
    /// missed writes defer into the same staleness ledgers, but their
    /// health/breaker state is untouched — the node never failed.
    cut: Vec<bool>,
    /// Resilience knobs (breaker thresholds, staleness-ledger cap).
    resilience: ControllerResilience,
    /// Per-backend health: cost EWMA, consecutive failures, breaker.
    health: Vec<BackendHealth>,
    /// Monotone request counter — the controller's clock, used for
    /// breaker cooldowns.
    request_seq: u64,
    /// Per-backend staleness ledger: the writes an unroutable backend
    /// missed, each with its analysis, replayed in order when the
    /// backend catches up.
    ledgers: Vec<VecDeque<(WriteRequest, Analysis)>>,
    /// Set when a ledger exceeded the cap while the backend was down:
    /// recovery must fall back to a full reload.
    ledger_overflow: Vec<bool>,
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
            offline: vec![false; n_backends],
            cut: vec![false; n_backends],
            resilience: ControllerResilience::default(),
            health: vec![BackendHealth::default(); n_backends],
            request_seq: 0,
            ledgers: vec![VecDeque::new(); n_backends],
            ledger_overflow: vec![false; n_backends],
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
        matches!(self.health[b].open_until_seq, Some(s) if self.request_seq < s)
    }

    /// Number of writes currently deferred for offline backend `b` in
    /// its staleness ledger (0 after an overflow — the entries were
    /// discarded and recovery will do a full reload).
    pub fn deferred_writes(&self, b: usize) -> usize {
        self.ledgers[b].len()
    }

    /// Whether backend `b`'s staleness ledger overflowed during the
    /// current offline episode.
    pub fn ledger_overflowed(&self, b: usize) -> bool {
        self.ledger_overflow[b]
    }

    /// The EWMA of backend `b`'s observed per-request cost (rows
    /// touched), or `None` before any observation.
    pub fn backend_ewma_cost(&self, b: usize) -> Option<f64> {
        self.health[b].seen.then_some(self.health[b].ewma_cost)
    }

    /// Records an externally observed failure of backend `b` (e.g. a
    /// health-probe miss): feeds the circuit breaker exactly like a
    /// storage error surfacing from that backend during execution.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn report_backend_failure(&mut self, b: usize) {
        assert!(b < self.backends.len(), "unknown backend {b}");
        self.note_backend_failure(b);
    }

    /// Records a successful observation of backend `b`: folds the cost
    /// into the health EWMA, resets the failure streak and closes an
    /// open breaker (the half-open probe succeeded).
    fn note_backend_success(&mut self, b: usize, cost: f64) {
        let alpha = self.resilience.ewma_alpha;
        let h = &mut self.health[b];
        h.observe_cost(alpha, cost);
        h.consec_failures = 0;
        if h.open_until_seq.take().is_some() {
            qcpa_obs::global()
                .counter("controller.breaker.closes")
                .inc();
            qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "breaker_close", {
                "backend" => b as u64,
            });
        }
    }

    /// Records a failed observation of backend `b`; after
    /// `failure_threshold` consecutive failures the breaker opens for
    /// `cooldown_requests` controller requests. A failure while the
    /// cooldown has lapsed (half-open) re-trips immediately.
    fn note_backend_failure(&mut self, b: usize) {
        let threshold = self.resilience.failure_threshold;
        let cooldown = self.resilience.cooldown_requests.max(1);
        let seq = self.request_seq;
        let h = &mut self.health[b];
        h.consec_failures = h.consec_failures.saturating_add(1);
        let open_now = matches!(h.open_until_seq, Some(s) if seq < s);
        if threshold > 0 && h.consec_failures >= threshold && !open_now {
            h.open_until_seq = Some(seq + cooldown);
            qcpa_obs::global().counter("controller.breaker.opens").inc();
            qcpa_obs::event!(qcpa_obs::Level::Warn, "controller", "breaker_open", {
                "backend" => b as u64,
                "consecutive_failures" => u64::from(h.consec_failures),
            });
        }
    }

    /// Least-accumulated-work routing over the online capable backends,
    /// skipping open-circuit ones. Degraded mode: when *every*
    /// candidate is open-circuit the breaker is overridden rather than
    /// failing the read — the scheduler always serves when live data
    /// exists, it just stops preferring sick backends.
    ///
    /// `online` must be non-empty.
    #[expect(
        clippy::expect_used,
        reason = "costs are sums of finite per-request costs; `online` is non-empty by contract \
                  and `pool` falls back to it"
    )]
    fn pick_read_backend(&self, online: &[usize]) -> usize {
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
        pool.iter()
            .copied()
            .min_by(|&x, &y| {
                self.cumulative_cost[x]
                    .partial_cmp(&self.cumulative_cost[y])
                    .expect("costs are finite")
                    .then(x.cmp(&y))
            })
            .expect("online capable set is non-empty")
    }

    /// Queues `w` on unroutable backend `b`'s staleness ledger. A ledger
    /// that would exceed `staleness_cap` overflows: its entries are
    /// discarded and the eventual catch-up downgrades to a full reload
    /// from the master copy.
    fn defer_write(&mut self, b: usize, w: &WriteRequest, an: &Analysis) {
        if self.ledger_overflow[b] {
            return;
        }
        if self.ledgers[b].len() >= self.resilience.staleness_cap {
            self.ledger_overflow[b] = true;
            self.ledgers[b].clear();
            qcpa_obs::global()
                .counter("controller.ledger.overflows")
                .inc();
            qcpa_obs::event!(qcpa_obs::Level::Warn, "controller", "ledger_overflow", {
                "backend" => b as u64,
                "cap" => self.resilience.staleness_cap as u64,
            });
            return;
        }
        self.ledgers[b].push_back((w.clone(), an.clone()));
        qcpa_obs::global()
            .counter("controller.ledger.deferred")
            .inc();
    }

    /// Marks backend `b` as failed: routing skips it from now on. Its
    /// stored data is kept (the node is down, not wiped) but goes stale
    /// as writes proceed on the survivors; [`Cdbs::recover_backend`]
    /// re-syncs it from the authoritative master copy.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn fail_backend(&mut self, b: usize) {
        assert!(b < self.backends.len(), "unknown backend {b}");
        if !self.offline[b] {
            self.offline[b] = true;
            qcpa_obs::global().counter("controller.failures").inc();
            qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "fail_backend", {
                "backend" => b as u64,
            });
        }
    }

    /// Brings a failed backend back and routing includes it again.
    ///
    /// If the backend's staleness ledger held every write it missed
    /// (no overflow), the ledger is replayed in order against its
    /// stored fragments — no bulk data moves and `Ok(0)` is returned.
    /// Otherwise (ledger overflow, or a replay error) every fragment of
    /// its layout is dropped and reloaded from the master copy (the
    /// catch-up ETL); the reloaded bytes are returned. Returns `Ok(0)`
    /// if the backend was not offline.
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
        if !self.offline[b] {
            return Ok(0);
        }
        let (replayed, moved) = self.catch_up(b)?;
        self.offline[b] = false;
        self.health[b] = BackendHealth::default();
        match replayed {
            Some(replayed) => {
                qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "recover_backend", {
                    "backend" => b as u64,
                    "replayed" => replayed as u64,
                    "moved_bytes" => 0u64,
                });
            }
            None => {
                qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "recover_backend", {
                    "backend" => b as u64,
                    "moved_bytes" => moved,
                });
            }
        }
        Ok(moved)
    }

    /// Brings backend `b`'s stored fragments up to date with the master
    /// copy — the one catch-up behind recovery, healing and
    /// reallocation. A ledger that held every missed write is replayed
    /// in order; after an overflow, or a replay error (ledger and
    /// fragments disagree, possibly half-applied), everything `b` stores
    /// is dropped and its layout reloaded. Returns the writes replayed
    /// (`None` after a reload) and the bytes reloaded; `b`'s routing
    /// flags and health are the caller's.
    ///
    /// # Errors
    /// [`CdbsError::Internal`] when the layout names a table or
    /// partition scheme missing from the controller state.
    fn catch_up(&mut self, b: usize) -> Result<(Option<usize>, u64), CdbsError> {
        let overflowed = std::mem::take(&mut self.ledger_overflow[b]);
        let deferred: Vec<(WriteRequest, Analysis)> = self.ledgers[b].drain(..).collect();
        if !overflowed
            && deferred
                .iter()
                .all(|(w, an)| self.apply_write(b, w, an).is_ok())
        {
            qcpa_obs::global()
                .counter("controller.ledger.replayed")
                .add(deferred.len() as u64);
            return Ok((Some(deferred.len()), 0));
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
        Ok((None, moved))
    }

    /// Indices of the currently failed backends.
    pub fn offline_backends(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&b| self.offline[b])
            .collect()
    }

    /// Whether routing may target backend `b`: neither failed nor cut
    /// off by a partition.
    fn routable(&self, b: usize) -> bool {
        !self.offline[b] && !self.cut[b]
    }

    /// Marks the backends of `side` as cut off by a network partition:
    /// routing skips them and writes they miss defer into their
    /// staleness ledgers — exactly the offline machinery — but their
    /// health and breaker state is untouched, because an unreachable
    /// node is not a failed one. Already-cut backends are unaffected.
    ///
    /// # Panics
    /// Panics if any backend index is out of range.
    pub fn partition_backends(&mut self, side: &[usize]) {
        for &b in side {
            assert!(b < self.backends.len(), "unknown backend {b}");
            if !self.cut[b] {
                self.cut[b] = true;
                qcpa_obs::global().counter("controller.partitions").inc();
                qcpa_obs::event!(qcpa_obs::Level::Info, "controller", "partition_backend", {
                    "backend" => b as u64,
                });
            }
        }
    }

    /// Heals a partition: the backends of `side` become routable again
    /// after catching up on the writes they missed. A backend whose
    /// staleness ledger held every missed write replays it in order (no
    /// bulk data movement); an overflowed or inconsistent ledger falls
    /// back to a full reload from the master copy. Returns the total
    /// bytes moved by such reloads (0 on the pure-replay path). Unlike
    /// [`Cdbs::recover_backend`], breaker/health state is left alone.
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
            if !self.cut[b] {
                continue;
            }
            let (_, moved) = self.catch_up(b)?;
            self.cut[b] = false;
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
        (0..self.backends.len()).filter(|&b| self.cut[b]).collect()
    }

    /// Backend `b`'s share of one write: the ROWA fan-out and the ledger
    /// replay. Does *not* touch the master copy, the journal or the
    /// balance state; returns the rows changed (≥ 1), or 0 when `b`'s
    /// layout does not overlap the write at all.
    fn apply_write(&mut self, b: usize, w: &WriteRequest, an: &Analysis) -> Result<f64, CdbsError> {
        let table = w.table.as_str();
        let def = &self.schema.tables[an.mi];
        let (layout, store) = (&self.layouts[b], &mut self.backends[b]);
        if !layout.holds_any(table, &an.footprint) {
            return Ok(0.0);
        }
        if !layout.holds_all(table, &an.footprint) {
            return Err(CdbsError::InconsistentLayout {
                backend: b,
                table: table.to_string(),
            });
        }
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
                apply_column_write(store, w, &frag, def, &layout.columns[table])?
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
    /// range-partitioned one is touched in.
    fn analyse(&self, request: &Request) -> Result<Analysis, CdbsError> {
        let table = request.table();
        let mi = self
            .schema
            .tables
            .iter()
            .position(|t| t.name == table)
            .ok_or_else(|| CdbsError::UnknownTable(table.to_string()))?;
        let def = &self.schema.tables[mi];
        let footprint = match (scheme_for(&self.partitions, table), request) {
            (None, _) => Footprint::Columns(referenced_columns(request, def)),
            (Some(scheme), Request::Read(q)) => {
                Footprint::Parts(scheme.touched(q.predicate.as_ref()))
            }
            (Some(scheme), Request::Write(w)) => Footprint::Parts(written_parts(scheme, def, w)?),
        };
        Ok(Analysis { mi, footprint })
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
            .filter(|&b| self.routable(b))
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
        let b = self.pick_read_backend(&live);
        let (result, cost) = match self.scan_on(b, q, an) {
            Ok((result, rows)) => (result, rows.max(1.0)),
            Err(e) => {
                self.note_backend_failure(b);
                return Err(e);
            }
        };
        self.note_backend_success(b, cost);
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
    /// master copy.
    fn write(&mut self, w: &WriteRequest, an: &Analysis) -> Result<ExecOutcome, CdbsError> {
        let table = w.table.as_str();
        // With no live replica the write fails rather than deferring
        // everywhere (zero durability).
        let (holders, targets) = self.route(table, an, TableLayout::holds_any)?;
        let mut cost = 1.0f64;
        for &b in &targets {
            let changed = self.apply_write(b, w, an)?;
            cost = cost.max(changed);
            self.cumulative_cost[b] += cost;
        }
        // *Propagate*: unroutable replicas missed the write; it waits in
        // their staleness ledgers for the catch-up.
        for b in holders {
            if !self.routable(b) {
                self.defer_write(b, w, an);
            }
        }
        // *Apply*: keep the master copy authoritative.
        match &w.kind {
            WriteKind::Insert(row) => self.master[an.mi].append(row.clone()),
            WriteKind::Update {
                predicate,
                column,
                value,
            } => {
                self.master[an.mi].update(predicate.as_ref(), column, value.clone());
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
            if self.offline[b] {
                self.recover_backend(b)?;
            }
            if self.cut[b] {
                self.heal_partition(&[b])?;
            }
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
        while self.backends.len() < matched.n_backends() {
            self.backends.push(BackendStore::new());
            self.layouts.push(TableLayout::default());
            self.cumulative_cost.push(0.0);
        }
        // Everybody caught up above; health, breakers and ledgers start
        // clean on the new cluster.
        self.offline = vec![false; matched.n_backends()];
        self.cut = vec![false; matched.n_backends()];
        self.health = vec![BackendHealth::default(); matched.n_backends()];
        self.ledgers = vec![VecDeque::new(); matched.n_backends()];
        self.ledger_overflow = vec![false; matched.n_backends()];

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
/// `stored` of the table `def`; returns the rows changed.
fn apply_column_write(
    store: &mut BackendStore,
    w: &WriteRequest,
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
        WriteKind::Update {
            predicate,
            column,
            value,
        } => Ok(store.update(frag, predicate.as_ref(), column, value.clone())?),
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
        assert!(cdbs.backend_ewma_cost(0).unwrap() > 0.0);
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
