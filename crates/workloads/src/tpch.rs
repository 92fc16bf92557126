//! A TPC-H-style decision-support workload (Section 4.1).
//!
//! The 8-table warehouse schema with per-scale-factor cardinalities and
//! realistic average row widths, plus the 19 read query classes the
//! paper evaluates (TPC-H queries 17, 20 and 21 are omitted because
//! the paper's PostgreSQL backends could not execute them in reasonable
//! time). Each query class is described by the tables and columns it
//! references and a relative cost profile shaped like measured
//! execution times (lineitem-heavy queries dominate).
//!
//! The fact tables (`lineitem`, `orders`) hold ≈ 80 % of the bytes,
//! which is why table-based allocation saves little storage while
//! column-based allocation cuts the degree of replication sharply
//! (Figure 4(c)).

use qcpa_core::fragment::{Catalog, FragmentId};
use qcpa_core::journal::{Journal, Query};
use qcpa_storage::catalog::build_catalog;
use qcpa_storage::schema::{ColumnDef, Schema, TableDef};
use qcpa_storage::table::Table;
use qcpa_storage::types::{DataType, Value};

/// One evaluated query class: TPC-H query number, referenced
/// `(table, column)` pairs, and a relative cost.
#[derive(Debug, Clone)]
pub struct TpchQuery {
    /// TPC-H query number (1–22; 17/20/21 absent).
    pub number: u32,
    /// Referenced columns as `(table, column)` names.
    pub columns: Vec<(&'static str, &'static str)>,
    /// Relative execution cost (≈ seconds at scale factor 1).
    pub cost: f64,
}

/// The generated workload: schema, fragment catalog, query specs.
#[derive(Debug, Clone)]
pub struct TpchWorkload {
    /// Scale factor (1.0 ≈ 1 GB).
    pub scale_factor: f64,
    /// The storage schema.
    pub schema: Schema,
    /// Rows per table, aligned with `schema.tables`.
    pub row_counts: Vec<u64>,
    /// Fragment catalog (tables + columns with byte sizes).
    pub catalog: Catalog,
    /// The 19 query classes.
    pub queries: Vec<TpchQuery>,
}

/// Builds the TPC-H-style workload at the given scale factor.
pub fn tpch(scale_factor: f64) -> TpchWorkload {
    let schema = schema();
    let row_counts = row_counts(scale_factor);
    let catalog = build_catalog(&schema, &row_counts);
    TpchWorkload {
        scale_factor,
        schema,
        row_counts,
        catalog,
        queries: queries(),
    }
}

impl TpchWorkload {
    /// Builds the query journal: `per_query` executions of each of the
    /// 19 query classes (the official query generator issues a uniform
    /// mix), with per-class costs scaled by the scale factor.
    pub fn journal(&self, per_query: u64) -> Journal {
        let mut j = Journal::new();
        for q in &self.queries {
            #[expect(clippy::panic, reason = "the catalog is built from these column lists")]
            let frags: Vec<FragmentId> = q
                .columns
                .iter()
                .map(|(t, c)| {
                    self.catalog
                        .by_name(&format!("{t}.{c}"))
                        .unwrap_or_else(|| panic!("unknown column {t}.{c}"))
                })
                .collect();
            j.record_many(
                Query::read(format!("Q{}", q.number), frags, q.cost * self.scale_factor),
                per_query,
            );
        }
        j
    }

    /// Total database bytes.
    pub fn total_bytes(&self) -> u64 {
        self.schema
            .tables
            .iter()
            .zip(&self.row_counts)
            .map(|(t, &r)| t.row_width() * r)
            .sum()
    }

    /// Generates actual table data (for the storage-engine examples and
    /// the allocation-duration experiment). `max_rows_per_table` caps
    /// the generated rows so demos stay fast; sizes still follow the
    /// schema widths.
    pub fn generate_tables(&self, max_rows_per_table: u64) -> Vec<Table> {
        self.schema
            .tables
            .iter()
            .zip(&self.row_counts)
            .map(|(def, &rows)| {
                let mut t = Table::new(def.clone());
                for i in 0..rows.min(max_rows_per_table) {
                    let row: Vec<Value> = def.columns.iter().map(|c| synth_value(c, i)).collect();
                    t.append(row);
                }
                t
            })
            .collect()
    }
}

fn synth_value(col: &ColumnDef, i: u64) -> Value {
    match col.ty {
        DataType::I64 => Value::I64(i as i64),
        DataType::F64 => Value::F64((i % 1000) as f64 + 0.5),
        DataType::Date => Value::Date(8000 + (i % 2557) as i32),
        DataType::Str => {
            let w = col.byte_width as usize;
            let mut s = format!("{}-{}", col.name, i);
            s.truncate(w);
            while s.len() < w {
                s.push('x');
            }
            Value::Str(s)
        }
    }
}

/// Rows per table at the given scale factor (TPC-H specification).
fn row_counts(sf: f64) -> Vec<u64> {
    let s = |n: f64| (n * sf).max(1.0) as u64;
    vec![
        5,              // region
        25,             // nation
        s(10_000.0),    // supplier
        s(150_000.0),   // customer
        s(200_000.0),   // part
        s(800_000.0),   // partsupp
        s(1_500_000.0), // orders
        s(6_001_215.0), // lineitem
    ]
}

/// The TPC-H schema: 8 tables, 61 columns, realistic average widths.
pub fn schema() -> Schema {
    use DataType::*;
    let col = ColumnDef::new;
    let mut s = Schema::new();
    s.add_table(TableDef::new(
        "region",
        vec![
            col("r_regionkey", I64, 8),
            col("r_name", Str, 12),
            col("r_comment", Str, 80),
        ],
    ));
    s.add_table(TableDef::new(
        "nation",
        vec![
            col("n_nationkey", I64, 8),
            col("n_name", Str, 12),
            col("n_regionkey", I64, 8),
            col("n_comment", Str, 80),
        ],
    ));
    s.add_table(TableDef::new(
        "supplier",
        vec![
            col("s_suppkey", I64, 8),
            col("s_name", Str, 18),
            col("s_address", Str, 25),
            col("s_nationkey", I64, 8),
            col("s_phone", Str, 15),
            col("s_acctbal", F64, 8),
            col("s_comment", Str, 63),
        ],
    ));
    s.add_table(TableDef::new(
        "customer",
        vec![
            col("c_custkey", I64, 8),
            col("c_name", Str, 18),
            col("c_address", Str, 25),
            col("c_nationkey", I64, 8),
            col("c_phone", Str, 15),
            col("c_acctbal", F64, 8),
            col("c_mktsegment", Str, 10),
            col("c_comment", Str, 73),
        ],
    ));
    s.add_table(TableDef::new(
        "part",
        vec![
            col("p_partkey", I64, 8),
            col("p_name", Str, 33),
            col("p_mfgr", Str, 25),
            col("p_brand", Str, 10),
            col("p_type", Str, 21),
            col("p_size", I64, 8),
            col("p_container", Str, 10),
            col("p_retailprice", F64, 8),
            col("p_comment", Str, 14),
        ],
    ));
    s.add_table(TableDef::new(
        "partsupp",
        vec![
            col("ps_partkey", I64, 8),
            col("ps_suppkey", I64, 8),
            col("ps_availqty", I64, 8),
            col("ps_supplycost", F64, 8),
            col("ps_comment", Str, 124),
        ],
    ));
    s.add_table(TableDef::new(
        "orders",
        vec![
            col("o_orderkey", I64, 8),
            col("o_custkey", I64, 8),
            col("o_orderstatus", Str, 1),
            col("o_totalprice", F64, 8),
            col("o_orderdate", Date, 4),
            col("o_orderpriority", Str, 15),
            col("o_clerk", Str, 15),
            col("o_shippriority", I64, 8),
            col("o_comment", Str, 49),
        ],
    ));
    s.add_table(TableDef::new(
        "lineitem",
        vec![
            col("l_orderkey", I64, 8),
            col("l_partkey", I64, 8),
            col("l_suppkey", I64, 8),
            col("l_linenumber", I64, 8),
            col("l_quantity", F64, 8),
            col("l_extendedprice", F64, 8),
            col("l_discount", F64, 8),
            col("l_tax", F64, 8),
            col("l_returnflag", Str, 1),
            col("l_linestatus", Str, 1),
            col("l_shipdate", Date, 4),
            col("l_commitdate", Date, 4),
            col("l_receiptdate", Date, 4),
            col("l_shipinstruct", Str, 25),
            col("l_shipmode", Str, 10),
            col("l_comment", Str, 27),
        ],
    ));
    s
}

/// The 19 evaluated query classes with their access sets and relative
/// costs (lineitem scans dominate, as in measured TPC-H runtimes).
fn queries() -> Vec<TpchQuery> {
    let q = |number, columns: Vec<(&'static str, &'static str)>, cost| TpchQuery {
        number,
        columns,
        cost,
    };
    vec![
        q(
            1,
            vec![
                ("lineitem", "l_returnflag"),
                ("lineitem", "l_linestatus"),
                ("lineitem", "l_quantity"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_tax"),
                ("lineitem", "l_shipdate"),
            ],
            10.0,
        ),
        q(
            2,
            vec![
                ("part", "p_partkey"),
                ("part", "p_mfgr"),
                ("part", "p_size"),
                ("part", "p_type"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_name"),
                ("supplier", "s_address"),
                ("supplier", "s_nationkey"),
                ("supplier", "s_phone"),
                ("supplier", "s_acctbal"),
                ("supplier", "s_comment"),
                ("partsupp", "ps_partkey"),
                ("partsupp", "ps_suppkey"),
                ("partsupp", "ps_supplycost"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
                ("nation", "n_regionkey"),
                ("region", "r_regionkey"),
                ("region", "r_name"),
            ],
            2.0,
        ),
        q(
            3,
            vec![
                ("customer", "c_custkey"),
                ("customer", "c_mktsegment"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_orderdate"),
                ("orders", "o_shippriority"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_shipdate"),
            ],
            6.0,
        ),
        q(
            4,
            vec![
                ("orders", "o_orderkey"),
                ("orders", "o_orderdate"),
                ("orders", "o_orderpriority"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_commitdate"),
                ("lineitem", "l_receiptdate"),
            ],
            4.0,
        ),
        q(
            5,
            vec![
                ("customer", "c_custkey"),
                ("customer", "c_nationkey"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_orderdate"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_suppkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_nationkey"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
                ("nation", "n_regionkey"),
                ("region", "r_regionkey"),
                ("region", "r_name"),
            ],
            6.0,
        ),
        q(
            6,
            vec![
                ("lineitem", "l_shipdate"),
                ("lineitem", "l_quantity"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
            ],
            3.0,
        ),
        q(
            7,
            vec![
                ("supplier", "s_suppkey"),
                ("supplier", "s_nationkey"),
                ("lineitem", "l_suppkey"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_shipdate"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("customer", "c_custkey"),
                ("customer", "c_nationkey"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
            ],
            6.0,
        ),
        q(
            8,
            vec![
                ("part", "p_partkey"),
                ("part", "p_type"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_nationkey"),
                ("lineitem", "l_partkey"),
                ("lineitem", "l_suppkey"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_orderdate"),
                ("customer", "c_custkey"),
                ("customer", "c_nationkey"),
                ("nation", "n_nationkey"),
                ("nation", "n_regionkey"),
                ("nation", "n_name"),
                ("region", "r_regionkey"),
                ("region", "r_name"),
            ],
            5.0,
        ),
        q(
            9,
            vec![
                ("part", "p_partkey"),
                ("part", "p_name"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_nationkey"),
                ("lineitem", "l_partkey"),
                ("lineitem", "l_suppkey"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_quantity"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("partsupp", "ps_partkey"),
                ("partsupp", "ps_suppkey"),
                ("partsupp", "ps_supplycost"),
                ("orders", "o_orderkey"),
                ("orders", "o_orderdate"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
            ],
            9.0,
        ),
        q(
            10,
            vec![
                ("customer", "c_custkey"),
                ("customer", "c_name"),
                ("customer", "c_acctbal"),
                ("customer", "c_address"),
                ("customer", "c_phone"),
                ("customer", "c_comment"),
                ("customer", "c_nationkey"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_orderdate"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_returnflag"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
            ],
            5.0,
        ),
        q(
            11,
            vec![
                ("partsupp", "ps_partkey"),
                ("partsupp", "ps_suppkey"),
                ("partsupp", "ps_availqty"),
                ("partsupp", "ps_supplycost"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_nationkey"),
                ("nation", "n_nationkey"),
                ("nation", "n_name"),
            ],
            2.0,
        ),
        q(
            12,
            vec![
                ("orders", "o_orderkey"),
                ("orders", "o_orderpriority"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_shipmode"),
                ("lineitem", "l_commitdate"),
                ("lineitem", "l_receiptdate"),
                ("lineitem", "l_shipdate"),
            ],
            4.0,
        ),
        q(
            13,
            vec![
                ("customer", "c_custkey"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_comment"),
            ],
            4.0,
        ),
        q(
            14,
            vec![
                ("lineitem", "l_partkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_shipdate"),
                ("part", "p_partkey"),
                ("part", "p_type"),
            ],
            3.0,
        ),
        q(
            15,
            vec![
                ("lineitem", "l_suppkey"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_shipdate"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_name"),
                ("supplier", "s_address"),
                ("supplier", "s_phone"),
            ],
            3.0,
        ),
        q(
            16,
            vec![
                ("partsupp", "ps_partkey"),
                ("partsupp", "ps_suppkey"),
                ("part", "p_partkey"),
                ("part", "p_brand"),
                ("part", "p_type"),
                ("part", "p_size"),
                ("supplier", "s_suppkey"),
                ("supplier", "s_comment"),
            ],
            2.0,
        ),
        q(
            18,
            vec![
                ("customer", "c_custkey"),
                ("customer", "c_name"),
                ("orders", "o_orderkey"),
                ("orders", "o_custkey"),
                ("orders", "o_orderdate"),
                ("orders", "o_totalprice"),
                ("lineitem", "l_orderkey"),
                ("lineitem", "l_quantity"),
            ],
            8.0,
        ),
        q(
            19,
            vec![
                ("lineitem", "l_partkey"),
                ("lineitem", "l_quantity"),
                ("lineitem", "l_extendedprice"),
                ("lineitem", "l_discount"),
                ("lineitem", "l_shipinstruct"),
                ("lineitem", "l_shipmode"),
                ("part", "p_partkey"),
                ("part", "p_brand"),
                ("part", "p_container"),
                ("part", "p_size"),
            ],
            3.0,
        ),
        q(
            22,
            vec![
                ("customer", "c_custkey"),
                ("customer", "c_phone"),
                ("customer", "c_acctbal"),
                ("orders", "o_custkey"),
            ],
            2.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::Granularity;

    #[test]
    fn schema_has_8_tables_61_columns() {
        let s = schema();
        assert_eq!(s.tables.len(), 8);
        let cols: usize = s.tables.iter().map(|t| t.columns.len()).sum();
        assert_eq!(cols, 61);
    }

    #[test]
    fn nineteen_query_classes() {
        let w = tpch(1.0);
        assert_eq!(w.queries.len(), 19);
        let numbers: Vec<u32> = w.queries.iter().map(|q| q.number).collect();
        for omitted in [17, 20, 21] {
            assert!(!numbers.contains(&omitted), "Q{omitted} must be omitted");
        }
    }

    #[test]
    fn fact_tables_hold_80_percent_of_bytes() {
        let w = tpch(1.0);
        let total = w.total_bytes() as f64;
        let facts = ["lineitem", "orders"]
            .iter()
            .map(|t| {
                let def = w.schema.table(t).unwrap();
                let idx = w.schema.tables.iter().position(|x| x.name == *t).unwrap();
                def.row_width() * w.row_counts[idx]
            })
            .sum::<u64>() as f64;
        let share = facts / total;
        assert!(share > 0.75 && share < 0.92, "fact share {share}");
    }

    #[test]
    fn sf1_is_about_a_gigabyte() {
        let w = tpch(1.0);
        let gb = w.total_bytes() as f64 / 1e9;
        assert!(gb > 0.7 && gb < 1.3, "size {gb} GB");
    }

    #[test]
    fn classifications_at_both_granularities() {
        let w = tpch(1.0);
        let j = w.journal(100);
        let by_table =
            qcpa_core::classify::Classification::from_journal(&j, &w.catalog, Granularity::Table)
                .unwrap();
        let by_col = qcpa_core::classify::Classification::from_journal(
            &j,
            &w.catalog,
            Granularity::Fragment,
        )
        .unwrap();
        // Table-level classification merges queries with equal table
        // sets; there can be at most 19 classes.
        assert!(by_table.len() <= 19);
        assert_eq!(by_col.len(), 19, "all 19 column sets are distinct");
        assert!(by_table.read_ids().len() == by_table.len(), "read-only");
    }

    #[test]
    fn lineitem_referenced_by_most_queries() {
        let w = tpch(1.0);
        let n = w
            .queries
            .iter()
            .filter(|q| q.columns.iter().any(|(t, _)| *t == "lineitem"))
            .count();
        assert!(n >= 12, "lineitem in {n}/19 queries");
    }

    #[test]
    fn generate_tables_respects_cap() {
        let w = tpch(1.0);
        let tables = w.generate_tables(100);
        assert_eq!(tables.len(), 8);
        for t in &tables {
            assert!(t.len() <= 100);
            assert!(t.check());
        }
        // Small tables are generated in full.
        assert_eq!(tables[0].len(), 5); // region
    }

    #[test]
    fn journal_scales_costs_with_sf() {
        let w1 = tpch(1.0);
        let w10 = tpch(10.0);
        let j1 = w1.journal(10);
        let j10 = w10.journal(10);
        assert!((j10.total_work() / j1.total_work() - 10.0).abs() < 1e-9);
    }
}
