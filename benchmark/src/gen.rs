//! Deterministic input generators owned by the benchmark: rows for the
//! TPC-App schema (the repo has none), request mixes that turn the
//! TPC-H classes and TPC-App interactions into controller requests, the
//! planning journals, and the simulator's request samples. Everything is
//! a pure function of the arguments — the program under test only ever
//! sees generated inputs.

use qcpa_controller::{Request, WriteRequest};
use qcpa_core::fragment::Catalog;
use qcpa_core::journal::{Journal, Query, QueryKind};
use qcpa_sim::request::RequestStream;
use qcpa_storage::engine::{AggFunc, ScanQuery};
use qcpa_storage::predicate::{CmpOp, Predicate};
use qcpa_storage::schema::{ColumnDef, Schema, TableDef};
use qcpa_storage::table::Table;
use qcpa_storage::types::{DataType, Value};
use qcpa_workloads::tpcapp::tpcapp;
use qcpa_workloads::tpch::tpch;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Emulated customers of the TPC-App instance (the paper's EB = 300).
const TPCAPP_EB: u64 = 300;

/// A schema with generated rows.
pub struct DataSet {
    pub schema: Schema,
    pub tables: Vec<Table>,
}

impl DataSet {
    pub fn rows(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }

    pub fn row_counts(&self) -> Vec<u64> {
        self.tables.iter().map(|t| t.len() as u64).collect()
    }
}

/// TPC-H SF 1 rows from the workload crate's generator, capped per table.
pub fn tpch_data(cap: u64) -> DataSet {
    let w = tpch(1.0);
    DataSet {
        tables: w.generate_tables(cap),
        schema: w.schema,
    }
}

/// TPC-App EB 300 rows, capped per table: keys are dense, foreign keys
/// point into the capped parent tables, everything else is seeded.
pub fn tpcapp_data(cap: u64, seed: u64) -> DataSet {
    let w = tpcapp(TPCAPP_EB);
    let counts: Vec<i64> = w.row_counts.iter().map(|&r| r.min(cap) as i64).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7AB1E5);
    let tables = w
        .schema
        .tables
        .iter()
        .zip(&counts)
        .map(|(def, &n)| {
            let mut t = Table::new(def.clone());
            for i in 0..n {
                t.append(synth_row(def, i, &w.schema, &counts, &mut rng));
            }
            t
        })
        .collect();
    DataSet {
        schema: w.schema,
        tables,
    }
}

/// The parent table of a TPC-App foreign-key column.
fn fk_parent(column: &str) -> Option<&'static str> {
    Some(match column {
        "c_addr_id" | "o_bill_addr_id" | "o_ship_addr_id" => "address",
        "addr_co_id" => "country",
        "i_a_id" => "author",
        "o_c_id" => "customer",
        "ol_o_id" => "orders",
        "ol_i_id" => "item",
        _ => return None,
    })
}

fn synth_row(
    def: &TableDef,
    id: i64,
    schema: &Schema,
    counts: &[i64],
    rng: &mut ChaCha8Rng,
) -> Vec<Value> {
    def.columns
        .iter()
        .enumerate()
        .map(|(c, col)| {
            if c == 0 {
                Value::I64(id)
            } else {
                synth_value(col, id, schema, counts, rng)
            }
        })
        .collect()
}

fn synth_value(
    col: &ColumnDef,
    id: i64,
    schema: &Schema,
    counts: &[i64],
    rng: &mut ChaCha8Rng,
) -> Value {
    match col.ty {
        DataType::I64 => {
            let parent = fk_parent(&col.name)
                .and_then(|p| schema.tables.iter().position(|t| t.name == p))
                .map(|t| counts[t].max(1));
            Value::I64(rng.gen_range(0..parent.unwrap_or(1000)))
        }
        DataType::F64 => Value::F64((rng.gen_range(0.0..1000.0f64) * 100.0).round() / 100.0),
        DataType::Date => Value::Date(8000 + rng.gen_range(0..3650)),
        DataType::Str => {
            let w = col.byte_width as usize;
            let mut s = format!("{}-{}", col.name, id);
            s.truncate(w);
            while s.len() < w {
                s.push('x');
            }
            Value::Str(s)
        }
    }
}

/// A range filter over a numeric column: `column >= max − frac·(max − min)`
/// keeps roughly the top `frac` of a uniformly distributed column.
struct Filter {
    column: String,
    ty: DataType,
    lo: f64,
    hi: f64,
}

impl Filter {
    fn predicate(&self, frac: f64) -> Predicate {
        let lit = self.hi - frac * (self.hi - self.lo);
        let value = match self.ty {
            DataType::I64 => Value::I64(lit.ceil() as i64),
            DataType::Date => Value::Date(lit.ceil() as i32),
            _ => Value::F64(lit),
        };
        Predicate::cmp(&self.column, CmpOp::Ge, value)
    }
}

/// One table-level operation of an interaction template.
enum Op {
    /// A scan projecting exactly the class's columns of one table.
    Scan {
        table: String,
        columns: Vec<String>,
        filter: Option<Filter>,
        aggregate: Option<(AggFunc, String)>,
    },
    /// A full-row insert with a fresh key.
    Insert { table: usize },
    /// `SET column WHERE key = k` on an existing key; the column set
    /// rotates through `columns` with every update issued.
    Update {
        table: usize,
        columns: Vec<usize>,
        issued: usize,
    },
}

/// Share of rows the representative (answer-check) scans keep.
const REPRESENTATIVE_FRAC: f64 = 0.03;

/// A request mix: interaction templates drawn by frequency, each emitting
/// one controller request per referenced table.
pub struct Mix {
    schema: Schema,
    /// `(share of interactions, operations)`.
    templates: Vec<(f64, Vec<Op>)>,
    /// Rows per table at generation time: update keys and foreign keys
    /// are drawn below these, so they always exist.
    counts: Vec<i64>,
    /// Next insert key per table.
    next_id: Vec<i64>,
}

/// What `Mix::build` needs to know about one interaction.
struct Interaction {
    frequency: f64,
    kind: QueryKind,
    /// An update interaction that inserts rows rather than changing them.
    inserts: bool,
    columns: Vec<(&'static str, &'static str)>,
}

impl Mix {
    /// The 19 TPC-H classes, uniform mix, one scan per referenced table.
    pub fn tpch(data: &DataSet) -> Mix {
        let w = tpch(1.0);
        let classes = w
            .queries
            .iter()
            .map(|q| Interaction {
                frequency: 1.0,
                kind: QueryKind::Read,
                inserts: false,
                columns: q.columns.clone(),
            })
            .collect();
        Mix::build(data, classes)
    }

    /// The TPC-App interactions at their Section 4.2 frequencies: reads
    /// scan, `New*` interactions insert, the others update by key.
    pub fn tpcapp(data: &DataSet) -> Mix {
        let w = tpcapp(TPCAPP_EB);
        let classes = w
            .interactions
            .iter()
            .map(|i| Interaction {
                frequency: i.frequency,
                kind: i.kind,
                inserts: i.name.starts_with("New"),
                columns: i.columns.clone(),
            })
            .collect();
        Mix::build(data, classes)
    }

    fn build(data: &DataSet, classes: Vec<Interaction>) -> Mix {
        let total: f64 = classes.iter().map(|c| c.frequency).sum();
        let mut templates = Vec::with_capacity(classes.len());
        for (ci, class) in classes.into_iter().enumerate() {
            // Group the class's columns by table, keeping first-seen order.
            let mut by_table: Vec<(&str, Vec<&str>)> = Vec::new();
            for (t, c) in class.columns {
                match by_table.iter_mut().find(|(name, _)| *name == t) {
                    Some((_, cols)) => cols.push(c),
                    None => by_table.push((t, vec![c])),
                }
            }
            let ops = by_table
                .into_iter()
                .enumerate()
                .map(|(ti, (t, cols))| {
                    let idx = table_index(&data.schema, t);
                    match class.kind {
                        QueryKind::Read => scan_op(&data.tables[idx], &cols, (ci + ti) % 2 == 1),
                        QueryKind::Update if class.inserts => Op::Insert { table: idx },
                        QueryKind::Update => Op::Update {
                            table: idx,
                            columns: cols
                                .iter()
                                .filter_map(|c| data.schema.tables[idx].column_index(c))
                                .filter(|&c| c != 0)
                                .collect(),
                            issued: 0,
                        },
                    }
                })
                .collect();
            templates.push((class.frequency / total, ops));
        }
        let counts: Vec<i64> = data.tables.iter().map(|t| t.len() as i64).collect();
        Mix {
            schema: data.schema.clone(),
            templates,
            next_id: counts.clone(),
            counts,
        }
    }

    /// About `n` table-level requests of the mix on a fixed schedule:
    /// every interaction occurs in exactly its share of the stream
    /// (largest remainders, at least once), evenly spread, and updated
    /// columns rotate. The sequence of request shapes depends on `n`
    /// alone; the seed decides literals, keys and row values. Random
    /// draws (or a random order, since a journal entry keeps the cost of
    /// its first recording) would let the recorded journal — and with it
    /// the allocation the controller computes and every timing
    /// downstream — differ from seed to seed.
    pub fn requests(&mut self, n: usize, rng: &mut ChaCha8Rng) -> Vec<Request> {
        let per_interaction: f64 = self
            .templates
            .iter()
            .map(|(share, ops)| share * ops.len() as f64)
            .sum();
        let interactions =
            ((n as f64 / per_interaction).round() as usize).max(self.templates.len());
        let exact: Vec<f64> = self
            .templates
            .iter()
            .map(|(share, _)| share * interactions as f64)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| (e.floor() as usize).max(1)).collect();
        let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
        by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
        let short = interactions.saturating_sub(counts.iter().sum());
        for &k in by_remainder.iter().cycle().take(short) {
            counts[k] += 1;
        }
        // Occurrence `j` of `c` sits at `(j + ½) / c` of the stream.
        let mut order: Vec<(f64, usize)> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| (0..c).map(move |j| ((j as f64 + 0.5) / c as f64, k)))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = Vec::with_capacity(n + 8);
        for (_, k) in order {
            for o in 0..self.templates[k].1.len() {
                let frac = rng.gen_range(0.01..0.05);
                out.push(self.instantiate(k, o, frac, rng));
            }
        }
        out
    }

    /// One fixed read per scan operation — the queries whose answers are
    /// compared across reallocations.
    pub fn representatives(&self) -> Vec<Request> {
        let mut out = Vec::new();
        for (_, ops) in &self.templates {
            for op in ops {
                if let Some(q) = scan_query(op, REPRESENTATIVE_FRAC) {
                    out.push(Request::Read(q));
                }
            }
        }
        out
    }

    fn instantiate(&mut self, k: usize, o: usize, frac: f64, rng: &mut ChaCha8Rng) -> Request {
        match &mut self.templates[k].1[o] {
            op @ Op::Scan { .. } => {
                Request::Read(scan_query(op, frac).expect("scan operations yield a query"))
            }
            Op::Insert { table } => {
                let def = &self.schema.tables[*table];
                let id = self.next_id[*table];
                self.next_id[*table] += 1;
                let row = synth_row(def, id, &self.schema, &self.counts, rng);
                Request::Write(WriteRequest::insert(def.name.clone(), row))
            }
            Op::Update {
                table,
                columns,
                issued,
            } => {
                let def = &self.schema.tables[*table];
                let key = rng.gen_range(0..self.counts[*table].max(1));
                let col = &def.columns[columns[*issued % columns.len()]];
                *issued += 1;
                let value = synth_value(col, key, &self.schema, &self.counts, rng);
                Request::Write(WriteRequest::update(
                    def.name.clone(),
                    Some(Predicate::cmp(
                        def.primary_key().name.clone(),
                        CmpOp::Eq,
                        Value::I64(key),
                    )),
                    col.name.clone(),
                    value,
                ))
            }
        }
    }
}

fn table_index(schema: &Schema, name: &str) -> usize {
    schema
        .tables
        .iter()
        .position(|t| t.name == name)
        .unwrap_or_else(|| panic!("workload references unknown table {name:?}"))
}

/// Builds the scan of `columns` over `table`: filtered on the first
/// numeric column with a non-degenerate range, returning rows or (every
/// other operation) a SUM so both result paths are exercised.
fn scan_op(table: &Table, columns: &[&str], aggregate: bool) -> Op {
    let numeric = columns.iter().find_map(|&c| {
        let col = &table.def.columns[table.def.column_index(c)?];
        if col.ty == DataType::Str {
            return None;
        }
        let data = table.column(c)?;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for r in 0..table.len() {
            let v = data.get(r).as_f64();
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo < hi).then(|| Filter {
            column: c.to_string(),
            ty: col.ty,
            lo,
            hi,
        })
    });
    let aggregate = match &numeric {
        Some(f) if aggregate => Some((AggFunc::Sum, f.column.clone())),
        Some(_) => None,
        // Nothing to filter on: count instead of materializing the table.
        None => Some((AggFunc::Count, columns[0].to_string())),
    };
    Op::Scan {
        table: table.def.name.clone(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
        filter: numeric,
        aggregate,
    }
}

fn scan_query(op: &Op, frac: f64) -> Option<ScanQuery> {
    let Op::Scan {
        table,
        columns,
        filter,
        aggregate,
    } = op
    else {
        return None;
    };
    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut q = ScanQuery::all(table.clone()).select(&cols);
    if let Some(f) = filter {
        q = q.filter(f.predicate(frac));
    }
    if let Some((func, col)) = aggregate {
        q = q.agg(*func, col.clone());
    }
    Some(q)
}

/// What the planning stage starts from: a journal over a catalog.
pub struct PlanInput {
    pub journal: Journal,
    pub catalog: Catalog,
    /// Journal cost unit → simulated seconds.
    pub unit: f64,
}

/// The TPC-H SF 1 journal, `per_query` executions of each class.
pub fn tpch_journal(per_query: u64) -> PlanInput {
    let w = tpch(1.0);
    PlanInput {
        journal: w.journal(per_query),
        catalog: w.catalog,
        unit: 0.02,
    }
}

/// The TPC-App EB 300 journal of `total` requests.
pub fn tpcapp_journal(total: u64) -> PlanInput {
    let w = tpcapp(TPCAPP_EB);
    PlanInput {
        journal: w.journal(total),
        catalog: w.catalog,
        unit: 0.01,
    }
}

/// The clustered co-access instance as a journal: one query per class,
/// cost proportional to the class weight (mean cost 1).
pub fn clustered_journal(fragments: usize, instance: u64) -> PlanInput {
    let w = qcpa_workloads::scale::clustered(fragments, instance);
    let n = w.classification.len() as f64;
    let mut journal = Journal::new();
    for c in &w.classification.classes {
        let frags = c.fragments.iter().copied();
        let text = format!("c{}", c.id.0);
        journal.record(match c.kind {
            QueryKind::Read => Query::read(text, frags, c.weight * n),
            QueryKind::Update => Query::update(text, frags, c.weight * n),
        });
    }
    PlanInput {
        journal,
        catalog: w.catalog,
        unit: 0.01,
    }
}

/// Exactly `n` Poisson arrivals at rate 1; [`at_rate`] rescales them.
pub fn unit_arrivals(
    stream: &RequestStream,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<qcpa_sim::Request> {
    let mut out = stream.sample_poisson(1.0, n as f64 * 1.05 + 50.0, 0.0, rng);
    assert!(out.len() >= n, "poisson sample fell short of {n}");
    out.truncate(n);
    out
}

/// The unit-rate arrivals replayed at `rate` requests per second.
pub fn at_rate(unit: &[qcpa_sim::Request], rate: f64) -> Vec<qcpa_sim::Request> {
    unit.iter()
        .map(|r| qcpa_sim::Request {
            arrival: r.arrival / rate,
            ..*r
        })
        .collect()
}
