//! Property-based tests on the core invariants: random workloads and
//! clusters must always yield valid allocations obeying the paper's
//! bounds, the fault-state machines the simulator and the controller
//! share keep their books, the column vectors the master copy shares
//! with its replicas never let one table see another's writes, and
//! every routable replica holds exactly the master copy's rows through
//! writes, faults, partitions and reallocations.

use proptest::prelude::*;
use qcpa::controller::{Cdbs, CdbsError, ControllerResilience, PartitionScheme};
use qcpa::controller::{Request, WriteRequest};
use qcpa::core::allocation::Allocation;
use qcpa::core::classify::Granularity;
use qcpa::core::cluster::ClusterSpec;
use qcpa::core::health::{BreakerConfig, Breakers, Liveness};
use qcpa::core::{greedy, ksafety, memetic, robust};
use qcpa::sim::resilience::ResilienceConfig;
use qcpa::storage::engine::{BackendStore, ScanQuery};
use qcpa::storage::fragmentation::{extract_full, extract_horizontal, extract_vertical};
use qcpa::storage::predicate::{CmpOp, Predicate};
use qcpa::storage::schema::{ColumnDef, Schema, TableDef};
use qcpa::storage::table::Table;
use qcpa::storage::types::{DataType, Value};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

mod common;
use common::{materialize, workload_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The greedy allocator always produces a valid allocation whose
    /// speedup respects Eq. 17 and whose degree of replication never
    /// exceeds full replication's.
    #[test]
    fn greedy_is_always_valid_and_bounded(w in workload_strategy(), n in 1usize..6) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        prop_assert!(alloc.scale(&cluster) >= 1.0 - 1e-9);
        prop_assert!(alloc.speedup(&cluster) <= cls.max_speedup() + 1e-6);
        prop_assert!(alloc.speedup(&cluster) <= n as f64 + 1e-9);
        let full = Allocation::full_replication(&cls, &cluster);
        prop_assert!(alloc.total_bytes(&catalog) <= full.total_bytes(&catalog));
    }

    /// Heterogeneous clusters: validity holds for arbitrary performance
    /// vectors.
    #[test]
    fn greedy_handles_heterogeneous_clusters(
        w in workload_strategy(),
        perf in proptest::collection::vec(0.1f64..10.0, 2..6),
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::heterogeneous(&perf);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        prop_assert!(alloc.speedup(&cluster) <= cluster.len() as f64 + 1e-9);
    }

    /// The memetic optimizer never returns something worse than its
    /// greedy seed under the lexicographic (scale, bytes) cost.
    #[test]
    fn memetic_never_worse_than_greedy(w in workload_strategy(), n in 2usize..5, seed in 0u64..50) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let g = greedy::allocate(&cls, &catalog, &cluster);
        let m = memetic::optimize(
            g.clone(),
            &cls,
            &catalog,
            &cluster,
            &memetic::MemeticConfig { iterations: 6, population: 6, seed, ..Default::default() },
        );
        m.validate(&cls, &cluster).unwrap();
        let gc = g.cost(&cluster, &catalog);
        let mc = m.cost(&cluster, &catalog);
        prop_assert!(!gc.better_than(&mc), "memetic {mc:?} worse than greedy {gc:?}");
    }

    /// k-safety: every class processable by min(k+1, n) backends, and
    /// any k-subset of failures is survivable.
    #[test]
    fn ksafety_guarantee_holds(w in workload_strategy(), n in 2usize..5, k in 0usize..3) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = ksafety::allocate(&cls, &catalog, &cluster, k);
        alloc.validate(&cls, &cluster).unwrap();
        let target = (k + 1).min(n);
        prop_assert!(ksafety::class_safety(&alloc, &cls) + 1 >= target);
        if k >= 1 && n >= 2 {
            for b in cluster.ids() {
                prop_assert!(
                    ksafety::fail_backends(&alloc, &cls, &cluster, &[b]).is_some(),
                    "single failure of {b} must be survivable at k={k}"
                );
            }
        }
    }

    /// `normalize` is idempotent and always restores validity after an
    /// arbitrary reshuffle of the read assignments.
    #[test]
    fn normalize_is_idempotent_and_repairs(w in workload_strategy(), n in 1usize..5, seed in 0u64..100) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let _ = catalog;
        let mut alloc = Allocation::empty(cls.len(), n);
        // Scatter read weights arbitrarily.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        for &r in cls.read_ids() {
            let b = rng.gen_range(0..n);
            alloc.assign[r.idx()][b] = cls.weight(r);
        }
        alloc.normalize(&cls, &cluster);
        alloc.validate(&cls, &cluster).unwrap();
        let once = alloc.clone();
        alloc.normalize(&cls, &cluster);
        prop_assert_eq!(once, alloc);
    }

    /// The memetic engine is a pure function of its configuration:
    /// every offspring draws from its own `(seed, generation, index)`
    /// stream, so a rerun returns the same allocation bit for bit.
    #[test]
    fn memetic_reruns_bit_identically(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..50,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let cfg = memetic::MemeticConfig {
            iterations: 4,
            population: 6,
            seed,
            ..Default::default()
        };
        let first = memetic::allocate(&cls, &catalog, &cluster, &cfg);
        let again = memetic::allocate(&cls, &catalog, &cluster, &cfg);
        prop_assert_eq!(&first, &again, "memetic rerun diverged (seed {})", seed);
    }

    /// `DeltaCost` transfer/undo round-trip oracle: a random sequence
    /// of share transfers keeps the tracker's cost bit-identical to a
    /// full normalize + recompute, and undoing the sequence in reverse
    /// restores the exact starting allocation and cost.
    #[test]
    fn delta_cost_transfer_undo_roundtrip(
        w in workload_strategy(),
        n in 2usize..5,
        seed in 0u64..100,
    ) {
        use qcpa::core::allocation::DeltaCost;
        use qcpa::core::BackendId;
        use rand::Rng;

        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        if cls.read_ids().is_empty() { return Ok(()); }
        let cluster = ClusterSpec::homogeneous(n);
        let mut alloc = greedy::allocate(&cls, &catalog, &cluster);
        alloc.normalize(&cls, &cluster);
        let start = alloc.clone();
        let mut tracker = DeltaCost::new(&alloc, &cls, &catalog);
        let start_cost = tracker.cost(&cluster);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tokens = Vec::new();
        for _ in 0..12 {
            let r = cls.read_ids()[rng.gen_range(0..cls.read_ids().len())];
            let from = rng.gen_range(0..n);
            let to = rng.gen_range(0..n);
            let share = alloc.assign[r.idx()][from];
            if share <= 0.0 { continue; }
            let amount = share * rng.gen_range(0.25..1.0);
            tokens.push(tracker.transfer(
                &mut alloc, &cls, &cluster, &catalog,
                r, BackendId(from as u32), BackendId(to as u32), amount,
            ));
            // The tracker must mirror a full recompute exactly.
            let mut reference = alloc.clone();
            reference.normalize(&cls, &cluster);
            prop_assert_eq!(&reference, &alloc, "transfer left alloc unnormalized");
            prop_assert_eq!(
                tracker.cost(&cluster),
                alloc.cost(&cluster, &catalog),
                "tracked cost diverged from full recompute"
            );
        }
        for token in tokens.into_iter().rev() {
            tracker.undo(&mut alloc, &cls, token);
        }
        prop_assert_eq!(&start, &alloc, "undo did not restore the allocation");
        prop_assert_eq!(start_cost, tracker.cost(&cluster), "undo did not restore the cost");
    }

    /// `ksafety::repair` is idempotent and never lowers `class_safety`:
    /// replicas are only added, a second run with the same `k` is a
    /// reported no-op, and the min(k+1, n) processability target holds
    /// afterwards (the contract its rustdoc pins).
    #[test]
    fn repair_is_idempotent_and_never_lowers_safety(
        w in workload_strategy(),
        n in 2usize..6,
        k in 0usize..3,
    ) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let mut alloc = greedy::allocate(&cls, &catalog, &cluster);
        let safety_before = ksafety::class_safety(&alloc, &cls);
        let report = ksafety::repair_report(&mut alloc, &cls, &cluster, k);
        alloc.validate(&cls, &cluster).unwrap();
        let safety_after = ksafety::class_safety(&alloc, &cls);
        prop_assert!(
            safety_after >= safety_before,
            "repair lowered class_safety: {safety_before} -> {safety_after}"
        );
        prop_assert!(safety_after + 1 >= (k + 1).min(n), "target not reached");
        // The report prices exactly the added fragments.
        prop_assert_eq!(report.moved_bytes(&catalog) == 0, report.is_noop());
        // Idempotent: a second run changes nothing and reports a no-op.
        let once = alloc.clone();
        let again = ksafety::repair_report(&mut alloc, &cls, &cluster, k);
        prop_assert!(again.is_noop(), "second repair was not a no-op");
        prop_assert_eq!(once, alloc);
    }

    /// Weight changes (Section 5): decreasing any class's weight never
    /// lowers the predicted speedup.
    #[test]
    fn weight_decrease_never_hurts(w in workload_strategy(), n in 2usize..5) {
        let (catalog, cls) = materialize(&w);
        let Some(cls) = cls else { return Ok(()); };
        let cluster = ClusterSpec::homogeneous(n);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let before = alloc.speedup(&cluster);
        if let Some(&c) = cls.read_ids().first() {
            let after = robust::speedup_after_weight_change(
                &alloc, &cls, &cluster, c, cls.weight(c) * 0.5,
            );
            prop_assert!(after >= before - 1e-6, "{after} < {before}");
        }
    }
}

/// The breaker knobs both callers hand the core machine: the sim's
/// active preset on seconds (and a variant with the slow trip armed),
/// or the controller's mapping on its request clock.
fn breaker_config(controller: bool, failures: u32, cooldown: u64) -> BreakerConfig {
    if controller {
        ControllerResilience {
            failure_threshold: failures,
            cooldown_requests: cooldown,
            ..ControllerResilience::default()
        }
        .breaker()
    } else {
        ResilienceConfig {
            breaker_failures: failures,
            slow_trip: if cooldown.is_multiple_of(2) {
                f64::INFINITY
            } else {
                0.75
            },
            ..ResilienceConfig::standard()
        }
        .breaker()
    }
}

/// The controller's breaker before it ran on the core machine: a
/// failure streak and the sequence number the breaker stays open until.
#[derive(Default)]
struct SeqBreaker {
    consec: u32,
    open_until: Option<u64>,
}

impl SeqBreaker {
    fn open(&self, seq: u64) -> bool {
        self.open_until.is_some_and(|s| seq < s)
    }

    fn fail(&mut self, seq: u64, threshold: u32, cooldown: u64) {
        self.consec += 1;
        if threshold > 0 && self.consec >= threshold && !self.open(seq) {
            self.open_until = Some(seq + cooldown.max(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of liveness transitions over 1–6 backends keeps the
    /// routable count equal to a recount, and each transition's report
    /// says exactly whether `routable(b)` flipped — in the direction
    /// the transition can move it.
    #[test]
    fn liveness_reports_match_a_recount(
        n in 1usize..7,
        ops in proptest::collection::vec((0u8..6, 0usize..6), 0..48),
    ) {
        let mut live = Liveness::new(n);
        for (op, b) in ops {
            let b = b % n;
            let before = live.routable(b);
            let flipped = match op {
                0 => live.crash(b),
                1 => live.recover(b),
                2 => live.cut(b),
                3 => live.uncut(b),
                4 => {
                    live.degrade(b, 2.0);
                    false
                }
                _ => {
                    live.restore(b);
                    false
                }
            };
            let after = live.routable(b);
            prop_assert_eq!(flipped, before != after, "op {} on {}", op, b);
            if flipped {
                prop_assert_eq!(after, op % 2 == 1, "op {} moved {} the wrong way", op, b);
            }
            prop_assert_eq!(live.routable(b), live.alive(b) && !live.is_cut(b));
            let recount = (0..n).filter(|&x| live.routable(x)).count();
            prop_assert_eq!(live.n_routable(), recount);
        }
    }

    /// For success, failure, crash and recover sequences at monotone
    /// times, the pure `blocked_at(b, t)` agrees with an eager
    /// `resolve(b, t)` then `is_blocked(b)`, under the sim's config and
    /// under the controller's mapping. Under the mapping it also agrees
    /// with the controller's breaker as it was before the merge.
    #[test]
    fn blocked_at_is_resolve_then_is_blocked(
        n in 1usize..7,
        controller in any::<bool>(),
        failures in 0u32..4,
        cooldown in 0u64..6,
        ops in proptest::collection::vec((0u8..8, 0usize..6, 0u32..4, 0.0f64..2.0), 0..64),
    ) {
        let cfg = breaker_config(controller, failures, cooldown);
        let mut br = Breakers::new(n, cfg, "test");
        let mut old: Vec<SeqBreaker> = (0..n).map(|_| SeqBreaker::default()).collect();
        let mut t = 0.0f64;
        for (op, b, dt, svc) in ops {
            let b = b % n;
            // The controller's clock steps by whole requests (or not at
            // all: probe misses arrive between requests).
            t += if controller { f64::from(dt % 2) } else { f64::from(dt) * 0.75 };
            let seq = t as u64;
            for (x, before) in old.iter().enumerate() {
                let mut eager = br.clone();
                eager.resolve(x, t);
                prop_assert_eq!(br.blocked_at(x, t), eager.is_blocked(x), "backend {} at {}", x, t);
                if controller {
                    prop_assert_eq!(br.blocked_at(x, t), before.open(seq), "backend {} at {}", x, seq);
                }
            }
            // Successes and failures three ways in eight each, then a
            // crash (the controller never opens a breaker on one: a
            // failure instead) and a recovery's reset.
            match (op, controller) {
                (0..=2, true) => {
                    // A served read; one served past an open breaker
                    // resets it.
                    let overridden = br.blocked_at(b, t);
                    br.on_dispatch_ok(b, t, svc, t);
                    if overridden {
                        br.reset(b, t);
                    }
                    old[b] = SeqBreaker::default();
                }
                (0..=2, false) => br.on_dispatch_ok(b, t, svc, t + svc),
                (6, false) => br.on_crash(b, t),
                (3..=6, _) => {
                    br.on_timeout(b, t, svc);
                    old[b].fail(seq, failures, cooldown);
                }
                _ => {
                    br.reset(b, t);
                    old[b] = SeqBreaker::default();
                }
            }
        }
    }
}

/// A table kept as plain rows: the deep-copied model of one stored
/// table, which shares nothing with any other.
#[derive(Clone)]
struct RowModel {
    def: TableDef,
    rows: Vec<Vec<Value>>,
}

impl RowModel {
    /// The model as a table of its own, built row by row.
    fn table(&self) -> Table {
        let mut t = Table::new(self.def.clone());
        for row in &self.rows {
            t.append(row.clone());
        }
        t
    }

    /// Sets column `c` to `v` where the key is below `below`; the
    /// number of rows changed.
    fn update(&mut self, below: i64, c: usize, v: &Value) -> usize {
        let hit: Vec<&mut Vec<Value>> = self
            .rows
            .iter_mut()
            .filter(|r| matches!(r[0], Value::I64(k) if k < below))
            .collect();
        let n = hit.len();
        for r in hit {
            r[c] = v.clone();
        }
        n
    }
}

/// `rows` of a table defined by `from`, cut down to the columns of `to`.
fn project_rows(rows: &[Vec<Value>], from: &TableDef, to: &TableDef) -> Vec<Vec<Value>> {
    let idx: Vec<usize> = to
        .columns
        .iter()
        .filter_map(|c| from.column_index(&c.name))
        .collect();
    rows.iter()
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect()
}

/// A full row of the sharing test's source table, keyed `key`.
fn source_row(key: i64, seed: u64) -> Vec<Value> {
    vec![
        Value::I64(key),
        Value::I64((seed % 97) as i64),
        Value::Str(format!("s{}", seed % 13)),
        Value::F64((seed % 31) as f64 * 0.5),
    ]
}

/// A value of column `c`'s type of the source table.
fn source_value(c: usize, seed: u64) -> Value {
    source_row(0, seed).swap_remove(c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sharing is unobservable: any sequence of whole and vertical
    /// extracts of the master copy bulk-loaded into replicas,
    /// interleaved with inserts, matching updates and updates matching
    /// no row on the master or on one replica's fragment, leaves every
    /// table equal to a deep-copied model of it built row by row.
    #[test]
    fn shared_columns_are_unobservable(
        n0 in 0usize..12,
        ops in proptest::collection::vec((0u8..5, 0usize..4, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::I64, 8),
                ColumnDef::new("x", DataType::I64, 8),
                ColumnDef::new("s", DataType::Str, 12),
                ColumnDef::new("f", DataType::F64, 8),
            ],
        );
        let mut model = RowModel { def: def.clone(), rows: Vec::new() };
        let mut master = Table::new(def.clone());
        for k in 0..n0 as i64 {
            let row = source_row(k, k as u64 * 7);
            master.append(row.clone());
            model.rows.push(row);
        }
        let mut next_key = n0 as i64;
        let mut stores = vec![BackendStore::new(); 3];
        let mut models: Vec<BTreeMap<String, RowModel>> = vec![BTreeMap::new(); 3];
        for (op, target, a, b) in ops {
            // Target 0 is the master copy, 1..=3 a replica's fragment.
            let replica = target.checked_sub(1);
            let frag = replica.and_then(|r| {
                let names: Vec<String> = models[r].keys().cloned().collect();
                (!names.is_empty()).then(|| names[a as usize % names.len()].clone())
            });
            match (op, replica, frag) {
                (0, Some(r), _) => {
                    stores[r].bulk_load(extract_full(&master));
                    models[r].insert("t".into(), model.clone());
                }
                (1, Some(r), _) => {
                    // A non-empty subset of the non-key columns.
                    let cols: Vec<&str> = ["x", "s", "f"]
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| (a % 7 + 1) >> i & 1 == 1)
                        .map(|(_, c)| c)
                        .collect();
                    let data = extract_vertical(&master, &cols);
                    let rows = project_rows(&model.rows, &def, &data.def);
                    let m = RowModel { def: data.def.clone(), rows };
                    models[r].insert(data.def.name.clone(), m);
                    stores[r].bulk_load(data);
                }
                (2, None, _) => {
                    let row = source_row(next_key, b);
                    next_key += 1;
                    master.append(row.clone());
                    model.rows.push(row);
                }
                (2, Some(r), Some(f)) => {
                    let full = source_row(next_key, b);
                    next_key += 1;
                    let m = models[r].get_mut(&f).unwrap();
                    let row = project_rows(&[full], &def, &m.def).remove(0);
                    stores[r].insert(&f, row.clone()).unwrap();
                    m.rows.push(row);
                }
                (3 | 4, _, f) if replica.is_none() || f.is_some() => {
                    // Op 3 keys below some issued key; op 4 keys below
                    // zero, which no row has.
                    let below = if op == 3 { 1 + (a % next_key.max(1) as u64) as i64 } else { 0 };
                    let m = match (replica, &f) {
                        (Some(r), Some(f)) => models[r].get_mut(f).unwrap(),
                        _ => &mut model,
                    };
                    // Every fragment has a column besides the key.
                    let c = 1 + b as usize % (m.def.columns.len() - 1);
                    let col = m.def.columns[c].name.clone();
                    let v = source_value(def.column_index(&col).unwrap(), b >> 8);
                    let want = m.update(below, c, &v);
                    let p = Predicate::cmp("k", CmpOp::Lt, Value::I64(below));
                    let got = match (replica, &f) {
                        (Some(r), Some(f)) => stores[r].update(f, Some(&p), &col, v).unwrap(),
                        _ => master.update(Some(&p), &col, v),
                    };
                    prop_assert_eq!(got, want);
                }
                _ => continue,
            }
            prop_assert!(master == model.table(), "master copy diverged");
            for (store, ms) in stores.iter().zip(&models) {
                prop_assert_eq!(store.fragment_names().count(), ms.len());
                for (name, m) in ms {
                    prop_assert!(store.table(name) == Some(&m.table()), "fragment {} diverged", name);
                }
            }
        }
    }
}

/// The replication test's schema: `item`, a plain table, and `events`,
/// range-partitioned by day into 0..9, 10..19 and 20+.
fn replication_schema() -> (Schema, PartitionScheme) {
    let mut schema = Schema::new();
    schema.add_table(TableDef::new(
        "item",
        vec![
            ColumnDef::new("i_id", DataType::I64, 8),
            ColumnDef::new("i_title", DataType::Str, 16),
            ColumnDef::new("i_price", DataType::F64, 8),
            ColumnDef::new("i_stock", DataType::I64, 8),
        ],
    ));
    schema.add_table(TableDef::new(
        "events",
        vec![
            ColumnDef::new("e_id", DataType::I64, 8),
            ColumnDef::new("e_day", DataType::I64, 8),
            ColumnDef::new("e_value", DataType::F64, 8),
        ],
    ));
    (
        schema,
        PartitionScheme::new("events", "e_day", vec![10, 20]),
    )
}

/// A row of `item` keyed `key`.
fn item_row(key: i64, seed: u64) -> Vec<Value> {
    vec![
        Value::I64(key),
        Value::Str(format!("t{}", seed % 5)),
        Value::F64((seed % 17) as f64),
        Value::I64((seed % 9) as i64),
    ]
}

/// A row of `events` keyed `key`, on a day in 0..30.
fn event_row(key: i64, seed: u64) -> Vec<Value> {
    vec![
        Value::I64(key),
        Value::I64((seed % 30) as i64),
        Value::F64((seed % 11) as f64),
    ]
}

/// Every routable backend's stored fragments equal the master copy cut
/// to them, row for row: a column fragment is the master projected onto
/// its stored columns, a partition fragment the master's rows in that
/// partition's range, in master order.
fn replicas_match_master(
    cdbs: &Cdbs,
    schema: &Schema,
    scheme: &PartitionScheme,
) -> Result<(), TestCaseError> {
    let unroutable: Vec<usize> = [cdbs.offline_backends(), cdbs.partitioned_backends()].concat();
    let master = |t: &str| &cdbs.master()[schema.tables.iter().position(|d| d.name == t).unwrap()];
    for (b, layout) in cdbs.layouts().iter().enumerate() {
        if unroutable.contains(&b) {
            continue;
        }
        let store = cdbs.backend(b);
        let mut want = Vec::new();
        for (t, cols) in &layout.columns {
            let m = master(t);
            want.push(if cols.len() == m.def.columns.len() {
                extract_full(m)
            } else {
                extract_vertical(m, &cols.iter().map(String::as_str).collect::<Vec<_>>())
            });
        }
        for parts in layout.parts.values() {
            for &p in parts {
                want.push(extract_horizontal(
                    master(&scheme.table),
                    &scheme.range_predicate(p),
                    p as u32,
                ));
            }
        }
        for frag in want {
            let name = &frag.def.name;
            let got = store.table(name).map(|t| t.columns());
            prop_assert!(
                got == Some(&frag.columns[..]),
                "backend {} fragment {} differs from the master copy",
                b,
                name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Updates are resolved to row ids once, on the master copy, and
    /// every replica and every ledger replay applies those ids. Through
    /// any sequence of inserts, keyed and range updates, reads, backend
    /// failures and recoveries, partitions and heals (with ledgers small
    /// enough to overflow) and reallocations, every routable replica
    /// stays equal to the master copy cut to its layout, after every
    /// step — a write the controller refuses included.
    #[test]
    fn replicas_equal_the_master_projection(
        staleness_cap in 0usize..4,
        ops in proptest::collection::vec((0u8..14, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let (schema, scheme) = replication_schema();
        let mut item = Table::new(schema.tables[0].clone());
        for k in 0..24 {
            item.append(item_row(k, k as u64 * 7));
        }
        let mut events = Table::new(schema.tables[1].clone());
        for k in 0..45 {
            events.append(event_row(k, k as u64 * 13));
        }
        let mut cdbs = Cdbs::with_partitioning(
            schema.clone(),
            vec![item, events],
            3,
            vec![scheme.clone()],
        );
        cdbs.set_resilience(ControllerResilience {
            staleness_cap,
            ..ControllerResilience::default()
        });
        let (mut next_item, mut next_event) = (24i64, 45i64);
        let item_cols = ["i_title", "i_price", "i_stock"];
        for (op, a, v) in ops {
            let b = a as usize % cdbs.n_backends();
            let column = item_cols[(v % 3) as usize];
            let request = match op {
                0 | 1 => {
                    next_item += 1;
                    Some(Request::Write(WriteRequest::insert("item", item_row(next_item, v))))
                }
                2 | 3 => {
                    let key = Predicate::cmp("i_id", CmpOp::Eq, Value::I64((a % 30) as i64));
                    let value = item_row(0, v >> 8).swap_remove(1 + (v % 3) as usize);
                    Some(Request::Write(WriteRequest::update("item", Some(key), column, value)))
                }
                4 => {
                    let range = Predicate::cmp("i_price", CmpOp::Lt, Value::F64((a % 17) as f64));
                    Some(Request::Write(WriteRequest::update(
                        "item",
                        Some(range),
                        "i_stock",
                        Value::I64((v % 9) as i64),
                    )))
                }
                5 => {
                    next_event += 1;
                    Some(Request::Write(WriteRequest::insert("events", event_row(next_event, v))))
                }
                6 => {
                    let range = Predicate::cmp("e_day", CmpOp::Ge, Value::I64((a % 30) as i64));
                    Some(Request::Write(WriteRequest::update(
                        "events",
                        Some(range),
                        "e_value",
                        Value::F64((v % 11) as f64),
                    )))
                }
                7 => {
                    cdbs.fail_backend(b);
                    None
                }
                8 => {
                    cdbs.recover_backend(b).unwrap();
                    None
                }
                9 => {
                    cdbs.partition_backends(&[b]);
                    None
                }
                10 => {
                    cdbs.heal_partition(&[b]).unwrap();
                    None
                }
                11 => {
                    let granularity = if v % 2 == 0 { Granularity::Fragment } else { Granularity::Table };
                    let report = cdbs.reallocate(2 + (v % 3) as usize, granularity, None);
                    prop_assert!(matches!(report, Ok(_) | Err(CdbsError::EmptyJournal)), "{:?}", report.err());
                    None
                }
                12 => Some(Request::Read(ScanQuery::all("item").select(&[column]))),
                _ => Some(Request::Read(
                    ScanQuery::all("events")
                        .select(&["e_value"])
                        .filter(Predicate::cmp("e_day", CmpOp::Ge, Value::I64((a % 30) as i64))),
                )),
            };
            if let Some(r) = request {
                // A refused request (no live or no covering replica, an
                // inconsistent layout) is allowed; a storage or internal
                // error is a controller bug.
                if let Err(e) = cdbs.execute(&r) {
                    prop_assert!(
                        !matches!(e, CdbsError::Storage(_) | CdbsError::Internal(_)),
                        "{}",
                        e
                    );
                }
            }
            replicas_match_master(&cdbs, &schema, &scheme)?;
        }
    }
}
