//! End-to-end controller tests on the TPC-H substrate: boot a physical
//! CDBS from generated data, serve the decision-support mix, reallocate
//! across granularities and cluster sizes, and verify answers never
//! change.

use qcpa::controller::{Cdbs, Request, WriteRequest};
use qcpa::core::classify::Granularity;
use qcpa::storage::engine::{AggFunc, QueryResult, ScanQuery};
use qcpa::storage::predicate::{CmpOp, Predicate};
use qcpa::storage::types::Value;
use qcpa::workloads::tpch::tpch;

fn boot(n: usize) -> Cdbs {
    let w = tpch(1.0);
    let tables = w.generate_tables(2_000);
    Cdbs::new(w.schema, tables, n)
}

fn revenue_query() -> Request {
    Request::Read(
        ScanQuery::all("lineitem")
            .select(&["l_extendedprice"])
            .agg(AggFunc::Sum, "l_extendedprice"),
    )
}

fn order_count() -> Request {
    Request::Read(
        ScanQuery::all("orders")
            .select(&["o_orderkey"])
            .filter(Predicate::cmp("o_orderkey", CmpOp::Lt, Value::I64(500)))
            .agg(AggFunc::Count, "o_orderkey"),
    )
}

fn customer_lookup() -> Request {
    Request::Read(
        ScanQuery::all("customer")
            .select(&["c_name", "c_acctbal"])
            .filter(Predicate::cmp("c_custkey", CmpOp::Eq, Value::I64(42))),
    )
}

fn scalar(out: &qcpa::controller::ExecOutcome) -> f64 {
    match out.result.as_ref().expect("read result") {
        QueryResult::Scalar(Some(v)) => *v,
        other => panic!("expected scalar, got {other:?}"),
    }
}

#[test]
fn answers_are_invariant_across_granularities_and_sizes() {
    let mut cdbs = boot(3);
    // Establish the baseline answers and a journal.
    let mut baseline = Vec::new();
    for _ in 0..5 {
        baseline = vec![
            scalar(&cdbs.execute(&revenue_query()).unwrap()),
            scalar(&cdbs.execute(&order_count()).unwrap()),
        ];
        cdbs.execute(&customer_lookup()).unwrap();
    }

    for (n, g) in [
        (3usize, Granularity::Table),
        (4, Granularity::Fragment),
        (2, Granularity::Fragment),
        (3, Granularity::FullReplication),
    ] {
        cdbs.reallocate(n, g, None).unwrap();
        assert_eq!(cdbs.n_backends(), n);
        let now = vec![
            scalar(&cdbs.execute(&revenue_query()).unwrap()),
            scalar(&cdbs.execute(&order_count()).unwrap()),
        ];
        for (a, b) in baseline.iter().zip(&now) {
            assert!(
                (a - b).abs() < 1e-6,
                "answers changed after reallocating to {n}/{g:?}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn writes_survive_reallocations() {
    let mut cdbs = boot(2);
    for _ in 0..4 {
        cdbs.execute(&revenue_query()).unwrap();
        cdbs.execute(&order_count()).unwrap();
    }
    // Zero out one lineitem row's price everywhere (ROWA), then verify
    // through two reallocations that the write persisted via the master
    // copy and the replicas.
    let zap = Request::Write(WriteRequest::update(
        "lineitem",
        Some(Predicate::cmp("l_orderkey", CmpOp::Eq, Value::I64(7))),
        "l_extendedprice",
        Value::F64(0.0),
    ));
    cdbs.execute(&zap).unwrap();
    let after_write = scalar(&cdbs.execute(&revenue_query()).unwrap());

    cdbs.reallocate(3, Granularity::Fragment, None).unwrap();
    let after_realloc = scalar(&cdbs.execute(&revenue_query()).unwrap());
    assert!((after_write - after_realloc).abs() < 1e-6);

    cdbs.reallocate(2, Granularity::Table, None).unwrap();
    let after_second = scalar(&cdbs.execute(&revenue_query()).unwrap());
    assert!((after_write - after_second).abs() < 1e-6);
}

#[test]
fn column_granularity_reduces_stored_bytes_on_tpch() {
    let mut cdbs = boot(4);
    // A skewed journal: lineitem-heavy, orders-light, customer-light.
    for i in 0..12 {
        cdbs.execute(&revenue_query()).unwrap();
        if i % 3 == 0 {
            cdbs.execute(&order_count()).unwrap();
            cdbs.execute(&customer_lookup()).unwrap();
        }
    }
    let full: u64 = cdbs.stored_bytes().iter().sum();
    let report = cdbs.reallocate(4, Granularity::Fragment, None).unwrap();
    let partial: u64 = cdbs.stored_bytes().iter().sum();
    assert!(
        partial < full / 2,
        "column-based layout {partial} should be well under full replication {full}"
    );
    assert!(report.classification.len() >= 2);
}

#[test]
fn scheduler_balances_read_load_across_capable_backends() {
    let mut cdbs = boot(3);
    for _ in 0..30 {
        cdbs.execute(&revenue_query()).unwrap();
    }
    let costs = cdbs.accumulated_cost().to_vec();
    let max = costs.iter().copied().fold(0.0f64, f64::max);
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    // 30 identical scans over 3 replicas: 10 each.
    assert!(max - min <= max * 0.15 + 1e-9, "{costs:?}");
}

// ---- golden script -----------------------------------------------------

mod golden {
    use std::fmt::Write as _;

    use qcpa::controller::{
        Cdbs, CdbsError, ControllerResilience, ExecOutcome, PartitionScheme, Request, WriteRequest,
    };
    use qcpa::core::classify::Granularity;
    use qcpa::core::memetic::MemeticConfig;
    use qcpa::storage::engine::{AggFunc, ScanQuery};
    use qcpa::storage::predicate::{CmpOp, Predicate};
    use qcpa::storage::schema::{ColumnDef, Schema, TableDef};
    use qcpa::storage::table::Table;
    use qcpa::storage::types::{DataType, Value};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const AGGS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];

    /// `events` range-partitioned by day into [.., 10), [10, 20), [20, ..);
    /// `users` and `item` plain. `u_city` is never referenced by the
    /// script, so a fragment-granular reallocation places it nowhere.
    fn boot() -> Cdbs {
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
                ColumnDef::new("u_city", DataType::Str, 12),
            ],
        ));
        schema.add_table(TableDef::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64, 8),
                ColumnDef::new("i_title", DataType::Str, 24),
                ColumnDef::new("i_price", DataType::F64, 8),
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
            users.append(vec![
                Value::I64(i),
                Value::Str(format!("user {i}")),
                Value::Str(format!("city {}", i % 4)),
            ]);
        }
        let mut item = Table::new(schema.table("item").unwrap().clone());
        for i in 0..50i64 {
            item.append(vec![
                Value::I64(i),
                Value::Str(format!("book-{i}")),
                Value::F64(5.0 + i as f64),
            ]);
        }
        Cdbs::with_partitioning(
            schema,
            vec![events, users, item],
            3,
            vec![PartitionScheme::new("events", "e_day", vec![10, 20])],
        )
    }

    /// The seeded request mix; `next_id` keeps inserted keys unique.
    struct Mix {
        rng: ChaCha8Rng,
        next_id: i64,
    }

    impl Mix {
        fn agg(&mut self) -> AggFunc {
            AGGS[self.rng.gen_range(0..AGGS.len())]
        }

        fn read(&mut self) -> Request {
            let q = match self.rng.gen_range(0..8u32) {
                0 => ScanQuery::all("users")
                    .select(&["u_name"])
                    .filter(Predicate::cmp("u_id", CmpOp::Lt, Value::I64(6))),
                1 => ScanQuery::all("item")
                    .select(&["i_price"])
                    .filter(Predicate::cmp(
                        "i_id",
                        CmpOp::Lt,
                        Value::I64(self.rng.gen_range(1..8)),
                    )),
                2 => {
                    let f = self.agg();
                    ScanQuery::all("item")
                        .select(&["i_price"])
                        .agg(f, "i_price")
                }
                // One partition, a few rows.
                3 => ScanQuery::all("events")
                    .select(&["e_id", "e_value"])
                    .filter(
                        Predicate::cmp("e_day", CmpOp::Eq, Value::I64(self.rng.gen_range(0..30)))
                            .and(Predicate::cmp("e_id", CmpOp::Lt, Value::I64(40))),
                    ),
                // One partition, aggregated.
                4 => {
                    let f = self.agg();
                    ScanQuery::all("events")
                        .select(&["e_value"])
                        .filter(Predicate::cmp("e_day", CmpOp::Ge, Value::I64(20)))
                        .agg(f, "e_value")
                }
                // Two partitions.
                5 => {
                    let f = self.agg();
                    let window = if self.rng.gen_range(0..2u32) == 0 {
                        Predicate::cmp("e_day", CmpOp::Lt, Value::I64(12))
                    } else {
                        Predicate::cmp("e_day", CmpOp::Ge, Value::I64(12)).and(Predicate::cmp(
                            "e_day",
                            CmpOp::Lt,
                            Value::I64(22),
                        ))
                    };
                    ScanQuery::all("events")
                        .select(&["e_value"])
                        .filter(window)
                        .agg(f, "e_value")
                }
                // All partitions.
                6 => {
                    let f = self.agg();
                    ScanQuery::all("events")
                        .select(&["e_value"])
                        .agg(f, "e_value")
                }
                // All partitions, empty selection.
                _ => {
                    let f = self.agg();
                    ScanQuery::all("events")
                        .select(&["e_value"])
                        .filter(Predicate::cmp("e_value", CmpOp::Lt, Value::F64(-1e6)))
                        .agg(f, "e_value")
                }
            };
            Request::Read(q)
        }

        fn write(&mut self) -> Request {
            let x = Value::F64(self.rng.gen_range(0..1000) as f64 / 8.0);
            let w = match self.rng.gen_range(0..7u32) {
                0 => WriteRequest::update(
                    "item",
                    Some(Predicate::cmp(
                        "i_id",
                        CmpOp::Eq,
                        Value::I64(self.rng.gen_range(0..50)),
                    )),
                    "i_price",
                    x,
                ),
                1 => WriteRequest::update("item", None, "i_price", x),
                2 => WriteRequest::update(
                    "users",
                    Some(Predicate::cmp(
                        "u_id",
                        CmpOp::Eq,
                        Value::I64(self.rng.gen_range(0..20)),
                    )),
                    "u_name",
                    Value::Str(format!("renamed {}", self.rng.gen_range(0..100))),
                ),
                3 => WriteRequest::update(
                    "events",
                    Some(Predicate::cmp(
                        "e_day",
                        CmpOp::Eq,
                        Value::I64(self.rng.gen_range(0..30)),
                    )),
                    "e_value",
                    x,
                ),
                4 => WriteRequest::update(
                    "events",
                    Some(Predicate::cmp(
                        "e_day",
                        CmpOp::Ge,
                        Value::I64(self.rng.gen_range(20..30)),
                    )),
                    "e_value",
                    x,
                ),
                5 => {
                    self.next_id += 1;
                    WriteRequest::insert(
                        "item",
                        vec![
                            Value::I64(self.next_id),
                            Value::Str(format!("book-{}", self.next_id)),
                            x,
                        ],
                    )
                }
                _ => {
                    self.next_id += 1;
                    WriteRequest::insert(
                        "events",
                        vec![
                            Value::I64(self.next_id),
                            Value::I64(self.rng.gen_range(0..30)),
                            x,
                        ],
                    )
                }
            };
            Request::Write(w)
        }

        fn any(&mut self) -> Request {
            if self.rng.gen_range(0..3u32) == 0 {
                self.write()
            } else {
                self.read()
            }
        }
    }

    /// Runs requests against the controller and writes the transcript.
    struct Script {
        cdbs: Cdbs,
        mix: Mix,
        out: String,
    }

    impl Script {
        fn step(&mut self, r: &Request) -> Result<ExecOutcome, CdbsError> {
            let res = self.cdbs.execute(r);
            match &res {
                Ok(o) => writeln!(
                    self.out,
                    "ok {:?} {:016x} {:?}",
                    o.backends,
                    o.cost.to_bits(),
                    o.result
                ),
                Err(e) => writeln!(self.out, "err {e}"),
            }
            .unwrap();
            res
        }

        fn run(&mut self, n: usize, draw: fn(&mut Mix) -> Request) {
            for _ in 0..n {
                let r = draw(&mut self.mix);
                // Requests the current layout cannot serve are part of
                // the transcript, not a test failure.
                let _ = self.step(&r);
            }
        }

        fn note(&mut self, what: &str, value: impl std::fmt::Debug) {
            writeln!(self.out, "{what} {value:?}").unwrap();
        }

        fn journal(&mut self) {
            for e in self.cdbs.journal().entries() {
                let frags: Vec<u32> = e.query.fragments.iter().map(|f| f.0).collect();
                writeln!(
                    self.out,
                    "journal {:?} {frags:?} {:016x} x{}",
                    e.query.text,
                    e.query.cost.to_bits(),
                    e.count
                )
                .unwrap();
            }
        }

        /// Per-backend `(deferred, overflowed, breaker_open)`, then the
        /// offline and the cut sets.
        fn state(&mut self) {
            let per_backend: Vec<(usize, bool, bool)> = (0..self.cdbs.n_backends())
                .map(|b| {
                    (
                        self.cdbs.deferred_writes(b),
                        self.cdbs.ledger_overflowed(b),
                        self.cdbs.breaker_open(b),
                    )
                })
                .collect();
            let down = (
                self.cdbs.offline_backends(),
                self.cdbs.partitioned_backends(),
            );
            self.note("state", (per_backend, down));
        }

        fn reallocate(&mut self, n: usize, g: Granularity, refine: Option<&MemeticConfig>) {
            let r = self.cdbs.reallocate(n, g, refine).unwrap();
            let placed: Vec<Vec<u32>> = r
                .allocation
                .fragments
                .iter()
                .map(|set| set.iter().map(|f| f.0).collect())
                .collect();
            self.note(
                "reallocate",
                (r.moved_bytes, r.loaded_fragments, r.kept_fragments, placed),
            );
        }
    }

    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One controller instance through every request and catch-up path:
    /// the transcript's hash was recorded from the forked implementation
    /// (`execute_inner` / `execute_partitioned`, `recover_backend` /
    /// `heal_partition` as two copies) and pins the single path to it.
    #[test]
    fn golden_script_replays_bit_identically() {
        let mut s = Script {
            cdbs: boot(),
            mix: Mix {
                rng: ChaCha8Rng::seed_from_u64(0x15),
                next_id: 10_000,
            },
            out: String::new(),
        };
        s.cdbs.attach_tracer(qcpa_obs::Tracer::new(7, 1.0));
        s.run(40, Mix::any);

        // Replay path: the ledger holds every missed write.
        s.cdbs.fail_backend(1);
        s.run(5, Mix::write);
        s.run(10, Mix::any);
        s.state();
        let moved = s.cdbs.recover_backend(1).unwrap();
        s.note("recover replay", moved);
        assert_eq!(moved, 0);
        s.run(6, Mix::read);

        // Reload path: the ledger overflows its cap.
        s.cdbs.set_resilience(ControllerResilience {
            staleness_cap: 2,
            failure_threshold: 2,
            cooldown_requests: 5,
        });
        s.cdbs.fail_backend(2);
        s.run(4, Mix::write);
        assert!(s.cdbs.ledger_overflowed(2));
        s.run(6, Mix::any);
        s.state();
        let moved = s.cdbs.recover_backend(2).unwrap();
        s.note("recover reload", moved);
        assert!(moved > 0);
        s.run(6, Mix::read);

        // Partition: replayed heal, then an overflowed one.
        s.cdbs.partition_backends(&[0]);
        s.run(2, Mix::write);
        s.run(6, Mix::read);
        s.state();
        let moved = s.cdbs.heal_partition(&[0]).unwrap();
        s.note("heal replay", moved);
        assert_eq!(moved, 0);
        s.cdbs.partition_backends(&[1, 2]);
        s.run(4, Mix::write);
        s.state();
        let moved = s.cdbs.heal_partition(&[2, 1]).unwrap();
        s.note("heal reload", moved);
        assert!(moved > 0);
        s.run(6, Mix::read);

        // Breaker-steered reads, through the cooldown and the half-open probe.
        s.cdbs.report_backend_failure(0);
        s.cdbs.report_backend_failure(0);
        assert!(s.cdbs.breaker_open(0));
        for _ in 0..8 {
            let r = s.mix.read();
            let _ = s.step(&r);
            let open = s.cdbs.breaker_open(0);
            s.note("breaker", open);
        }

        // Partial replication, partitions placed independently; ledgers
        // are roomy again.
        s.cdbs.set_resilience(ControllerResilience::default());
        let refine = MemeticConfig {
            population: 8,
            iterations: 20,
            ..MemeticConfig::default()
        };
        s.reallocate(3, Granularity::Fragment, Some(&refine));
        s.run(30, Mix::any);
        let uncovered = Request::Read(ScanQuery::all("users").select(&["u_city"]));
        assert!(matches!(
            s.step(&uncovered),
            Err(CdbsError::NoCapableBackend { .. })
        ));
        // Failure and recovery over partial layouts: the failed backend
        // is the only holder of some fragments and misses only the
        // writes that overlap its partitions.
        s.cdbs.fail_backend(1);
        s.run(12, Mix::any);
        s.run(6, Mix::write);
        s.state();
        let moved = s.cdbs.recover_backend(1).unwrap();
        s.note("recover partial", moved);
        s.run(6, Mix::read);

        // Scale-in with a backend down: whole-table copies from here on.
        s.cdbs.fail_backend(2);
        s.run(3, Mix::write);
        s.state();
        s.reallocate(2, Granularity::Table, None);
        s.run(20, Mix::any);

        // No live replica: one backend failed, the other cut.
        s.cdbs.fail_backend(0);
        s.cdbs.partition_backends(&[1]);
        for _ in 0..3 {
            let r = s.mix.read();
            assert!(matches!(
                s.step(&r),
                Err(CdbsError::AllReplicasOffline { .. })
            ));
            let w = s.mix.write();
            assert!(matches!(
                s.step(&w),
                Err(CdbsError::AllReplicasOffline { .. })
            ));
        }
        s.cdbs.heal_partition(&[1]).unwrap();
        s.run(3, Mix::write);
        s.state();

        // A phase that never reads across partitions: they are placed
        // apart (reallocation first replays backend 0's ledger), and a
        // request spanning them has no single home.
        s.journal();
        s.cdbs.clear_journal();
        let day = |op, d| Some(Predicate::cmp("e_day", op, Value::I64(d)));
        for _ in 0..4 {
            let hot = ScanQuery::all("events").select(&["e_value"]);
            let hot = hot.filter(day(CmpOp::Ge, 20).unwrap());
            s.step(&Request::Read(hot.agg(AggFunc::Max, "e_value")))
                .unwrap();
            let cold =
                WriteRequest::update("events", day(CmpOp::Eq, 3), "e_value", Value::F64(0.5));
            s.step(&Request::Write(cold)).unwrap();
        }
        s.reallocate(2, Granularity::Fragment, None);
        let spanning = ScanQuery::all("events").agg(AggFunc::Count, "e_id");
        assert!(matches!(
            s.step(&Request::Read(spanning)),
            Err(CdbsError::NoCapableBackend { .. })
        ));
        let spanning = WriteRequest::update("events", None, "e_value", Value::F64(0.0));
        assert!(matches!(
            s.step(&Request::Write(spanning)),
            Err(CdbsError::InconsistentLayout { .. })
        ));
        s.run(12, Mix::any);
        s.state();

        s.journal();
        let cost_bits: Vec<u64> = s
            .cdbs
            .accumulated_cost()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        s.note("accumulated_cost", cost_bits);
        let stored = s.cdbs.stored_bytes();
        s.note("stored_bytes", stored);
        let trace = s.cdbs.take_trace().expect("tracer attached").fingerprint();
        s.note("trace", trace);

        assert_eq!(
            fnv1a(&s.out),
            0x619c_16ec_ed91_2339,
            "the controller's observable behaviour moved; transcript:\n{}",
            s.out
        );
    }
}
