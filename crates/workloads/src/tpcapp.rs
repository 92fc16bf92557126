//! A TPC-App-style online-bookseller workload (Section 4.2).
//!
//! TPC-App simulates the web-service backend of an online bookseller,
//! scaled by the number of emulated customers (EB). The paper's custom
//! implementation reports these workload facts, all of which this
//! generator encodes as ground truth:
//!
//! * request mix ≈ 1 read per 7 writes, but the reads produce 3× the
//!   update *work* (reads 75 % of the weight, writes 25 %);
//! * one complex read class generates 50 % of the workload while being
//!   only 1.5 % of the queries;
//! * Order_Line writes are ≈ 13 % of the weight and are referenced by
//!   no read class — so the optimal allocation pins them to a single
//!   backend, giving the Eq. 30 speedup cap `10/1.3 = 7.7`;
//! * 8 query classes under table-based classification, 10 under
//!   column-based;
//! * EB = 300 yields a few hundred MB of data; EB = 12000 several GB.
//!
//! [`tpcapp_large`] is the Figure 4(i) variant: a ≈ 1:1 read/update
//! request ratio with more expensive updates (50 % update weight).

use qcpa_core::fragment::{Catalog, FragmentId};
use qcpa_core::journal::{Journal, Query, QueryKind};
use qcpa_storage::catalog::build_catalog;
use qcpa_storage::schema::{ColumnDef, Schema, TableDef};
use qcpa_storage::types::DataType;

/// One web-service interaction: a query class template.
#[derive(Debug, Clone)]
pub struct Interaction {
    /// Interaction name (e.g. `"NewOrderLine"`).
    pub name: &'static str,
    /// Read or update.
    pub kind: QueryKind,
    /// Referenced columns as `(table, column)` names.
    pub columns: Vec<(&'static str, &'static str)>,
    /// Share of the total workload weight.
    pub weight: f64,
    /// Share of the total request count.
    pub frequency: f64,
}

/// The generated workload.
#[derive(Debug, Clone)]
pub struct TpcAppWorkload {
    /// Emulated customers.
    pub eb: u64,
    /// The storage schema.
    pub schema: Schema,
    /// Rows per table, aligned with `schema.tables`.
    pub row_counts: Vec<u64>,
    /// Fragment catalog.
    pub catalog: Catalog,
    /// The web-service interactions.
    pub interactions: Vec<Interaction>,
}

/// The standard Section 4.2 workload at the given EB count (the paper
/// uses EB = 300).
pub fn tpcapp(eb: u64) -> TpcAppWorkload {
    build(eb, standard_interactions())
}

/// The Figure 4(i) large-scale variant (the paper uses EB = 12000):
/// ≈ 1:1 read/update request ratio, updates carrying half the weight.
pub fn tpcapp_large(eb: u64) -> TpcAppWorkload {
    build(eb, large_interactions())
}

fn build(eb: u64, interactions: Vec<Interaction>) -> TpcAppWorkload {
    let schema = schema();
    let row_counts = row_counts(eb);
    let catalog = build_catalog(&schema, &row_counts);
    TpcAppWorkload {
        eb,
        schema,
        row_counts,
        catalog,
        interactions,
    }
}

impl TpcAppWorkload {
    /// Builds the journal for ≈ `total_requests` requests: each
    /// interaction occurs `frequency × total` times with per-execution
    /// cost `weight / frequency` (so class weights come out right).
    pub fn journal(&self, total_requests: u64) -> Journal {
        let mut j = Journal::new();
        for i in &self.interactions {
            #[expect(clippy::panic, reason = "the catalog is built from these column lists")]
            let frags: Vec<FragmentId> = i
                .columns
                .iter()
                .map(|(t, c)| {
                    self.catalog
                        .by_name(&format!("{t}.{c}"))
                        .unwrap_or_else(|| panic!("unknown column {t}.{c}"))
                })
                .collect();
            let count = (i.frequency * total_requests as f64).round().max(1.0) as u64;
            let cost = i.weight / i.frequency;
            let q = match i.kind {
                QueryKind::Read => Query::read(i.name, frags, cost),
                QueryKind::Update => Query::update(i.name, frags, cost),
            };
            j.record_many(q, count);
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
}

fn row_counts(eb: u64) -> Vec<u64> {
    vec![
        400 * eb,   // customer
        800 * eb,   // address
        92,         // country
        100_000,    // item
        25_000,     // author
        600 * eb,   // orders
        2_000 * eb, // order_line
        100_000,    // stock
    ]
}

/// The 8-table bookseller schema.
pub fn schema() -> Schema {
    use DataType::*;
    let col = ColumnDef::new;
    let mut s = Schema::new();
    s.add_table(TableDef::new(
        "customer",
        vec![
            col("c_id", I64, 8),
            col("c_uname", Str, 20),
            col("c_passwd", Str, 20),
            col("c_fname", Str, 15),
            col("c_lname", Str, 15),
            col("c_addr_id", I64, 8),
            col("c_phone", Str, 16),
            col("c_email", Str, 50),
            col("c_since", Date, 4),
            col("c_discount", F64, 8),
            col("c_balance", F64, 8),
            col("c_payment_method", Str, 10),
            col("c_credit_info", Str, 100),
            col("c_business_info", Str, 68),
        ],
    ));
    s.add_table(TableDef::new(
        "address",
        vec![
            col("addr_id", I64, 8),
            col("addr_street1", Str, 30),
            col("addr_street2", Str, 20),
            col("addr_city", Str, 20),
            col("addr_state", Str, 12),
            col("addr_zip", Str, 10),
            col("addr_co_id", I64, 8),
        ],
    ));
    s.add_table(TableDef::new(
        "country",
        vec![
            col("co_id", I64, 8),
            col("co_name", Str, 24),
            col("co_currency", Str, 8),
            col("co_exchange", F64, 8),
        ],
    ));
    s.add_table(TableDef::new(
        "item",
        vec![
            col("i_id", I64, 8),
            col("i_title", Str, 60),
            col("i_a_id", I64, 8),
            col("i_pub_date", Date, 4),
            col("i_publisher", Str, 40),
            col("i_desc", Str, 500),
            col("i_srp", F64, 8),
            col("i_cost", F64, 8),
            col("i_avail", Date, 4),
            col("i_isbn", Str, 13),
            col("i_page", I64, 8),
            col("i_backing", Str, 12),
            col("i_dimensions", Str, 27),
        ],
    ));
    s.add_table(TableDef::new(
        "author",
        vec![
            col("a_id", I64, 8),
            col("a_fname", Str, 20),
            col("a_lname", Str, 20),
            col("a_mname", Str, 20),
            col("a_dob", Date, 4),
            col("a_bio", Str, 128),
        ],
    ));
    s.add_table(TableDef::new(
        "orders",
        vec![
            col("o_id", I64, 8),
            col("o_c_id", I64, 8),
            col("o_date", Date, 4),
            col("o_sub_total", F64, 8),
            col("o_tax", F64, 8),
            col("o_total", F64, 8),
            col("o_ship_type", Str, 10),
            col("o_ship_date", Date, 4),
            col("o_bill_addr_id", I64, 8),
            col("o_ship_addr_id", I64, 8),
            col("o_status", Str, 16),
        ],
    ));
    s.add_table(TableDef::new(
        "order_line",
        vec![
            col("ol_id", I64, 8),
            col("ol_o_id", I64, 8),
            col("ol_i_id", I64, 8),
            col("ol_qty", I64, 8),
            col("ol_discount", F64, 8),
            col("ol_comment", Str, 110),
            col("ol_status", Str, 16),
        ],
    ));
    s.add_table(TableDef::new(
        "stock",
        vec![col("st_i_id", I64, 8), col("st_qty", I64, 8)],
    ));
    s
}

fn standard_interactions() -> Vec<Interaction> {
    use QueryKind::*;
    let i = |name, kind, columns, weight, frequency| Interaction {
        name,
        kind,
        columns,
        weight,
        frequency,
    };
    vec![
        // The complex read: 50 % of the weight from 1.5 % of requests.
        i(
            "BestSellers",
            Read,
            vec![
                ("item", "i_id"),
                ("item", "i_title"),
                ("item", "i_a_id"),
                ("item", "i_cost"),
                ("item", "i_srp"),
                ("author", "a_id"),
                ("author", "a_fname"),
                ("author", "a_lname"),
                ("orders", "o_id"),
                ("orders", "o_date"),
                ("orders", "o_total"),
            ],
            0.50,
            0.015,
        ),
        i(
            "ProductDetail",
            Read,
            vec![
                ("item", "i_id"),
                ("item", "i_title"),
                ("item", "i_a_id"),
                ("item", "i_desc"),
                ("item", "i_srp"),
                ("item", "i_avail"),
                ("author", "a_id"),
                ("author", "a_fname"),
                ("author", "a_lname"),
                ("author", "a_bio"),
            ],
            0.09,
            0.035,
        ),
        i(
            "ProductSearch",
            Read,
            vec![
                ("item", "i_id"),
                ("item", "i_title"),
                ("item", "i_a_id"),
                ("item", "i_pub_date"),
                ("item", "i_publisher"),
                ("author", "a_id"),
                ("author", "a_lname"),
            ],
            0.06,
            0.025,
        ),
        i(
            "OrderStatus",
            Read,
            vec![
                ("orders", "o_id"),
                ("orders", "o_c_id"),
                ("orders", "o_status"),
                ("orders", "o_date"),
                ("orders", "o_total"),
                ("customer", "c_id"),
                ("customer", "c_uname"),
            ],
            0.06,
            0.030,
        ),
        i(
            "CustomerOrders",
            Read,
            vec![
                ("orders", "o_id"),
                ("orders", "o_c_id"),
                ("orders", "o_date"),
                ("orders", "o_total"),
                ("orders", "o_ship_date"),
                ("customer", "c_id"),
                ("customer", "c_fname"),
                ("customer", "c_lname"),
                ("customer", "c_email"),
            ],
            0.04,
            0.020,
        ),
        i(
            "NewOrder",
            Update,
            vec![
                ("orders", "o_id"),
                ("orders", "o_c_id"),
                ("orders", "o_date"),
                ("orders", "o_sub_total"),
                ("orders", "o_tax"),
                ("orders", "o_total"),
                ("orders", "o_status"),
                ("orders", "o_ship_type"),
            ],
            0.05,
            0.200,
        ),
        // The heavy write class no read touches: pinned to one backend
        // by the optimal allocation (Eq. 30's 13 %).
        i(
            "NewOrderLine",
            Update,
            vec![
                ("order_line", "ol_id"),
                ("order_line", "ol_o_id"),
                ("order_line", "ol_i_id"),
                ("order_line", "ol_qty"),
                ("order_line", "ol_discount"),
                ("order_line", "ol_comment"),
                ("order_line", "ol_status"),
            ],
            0.13,
            0.400,
        ),
        i(
            "ChangeItem",
            Update,
            vec![
                ("item", "i_id"),
                ("item", "i_cost"),
                ("item", "i_srp"),
                ("item", "i_avail"),
                ("item", "i_pub_date"),
                ("author", "a_id"),
                ("author", "a_bio"),
                ("stock", "st_i_id"),
                ("stock", "st_qty"),
            ],
            0.04,
            0.150,
        ),
        i(
            "NewCustomer",
            Update,
            vec![
                ("customer", "c_id"),
                ("customer", "c_uname"),
                ("customer", "c_passwd"),
                ("customer", "c_fname"),
                ("customer", "c_lname"),
                ("customer", "c_addr_id"),
                ("customer", "c_phone"),
                ("customer", "c_email"),
                ("customer", "c_since"),
                ("customer", "c_discount"),
                ("address", "addr_id"),
                ("address", "addr_street1"),
                ("address", "addr_street2"),
                ("address", "addr_city"),
                ("address", "addr_state"),
                ("address", "addr_zip"),
                ("address", "addr_co_id"),
            ],
            0.015,
            0.050,
        ),
        i(
            "ChangePayment",
            Update,
            vec![
                ("customer", "c_id"),
                ("customer", "c_passwd"),
                ("customer", "c_payment_method"),
                ("customer", "c_credit_info"),
                ("customer", "c_balance"),
            ],
            0.015,
            0.075,
        ),
    ]
}

fn large_interactions() -> Vec<Interaction> {
    // Same interactions; ≈ 1:1 read/write request ratio and 50 % update
    // weight (updates grow more expensive with the larger data).
    let mut v = standard_interactions();
    let reweight: [(f64, f64); 10] = [
        (0.30, 0.010), // BestSellers
        (0.07, 0.160), // ProductDetail
        (0.05, 0.120), // ProductSearch
        (0.05, 0.120), // OrderStatus
        (0.03, 0.090), // CustomerOrders
        (0.08, 0.120), // NewOrder
        (0.26, 0.200), // NewOrderLine
        (0.08, 0.100), // ChangeItem
        (0.04, 0.040), // NewCustomer
        (0.04, 0.040), // ChangePayment
    ];
    for (i, (w, f)) in v.iter_mut().zip(reweight) {
        i.weight = w;
        i.frequency = f;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::{Classification, Granularity};

    #[test]
    fn weights_and_frequencies_normalized() {
        for w in [tpcapp(300), tpcapp_large(12000)] {
            let tw: f64 = w.interactions.iter().map(|i| i.weight).sum();
            let tf: f64 = w.interactions.iter().map(|i| i.frequency).sum();
            assert!((tw - 1.0).abs() < 1e-9, "weights {tw}");
            assert!((tf - 1.0).abs() < 1e-9, "frequencies {tf}");
        }
    }

    #[test]
    fn standard_mix_matches_section_4_2() {
        let w = tpcapp(300);
        let reads: Vec<&Interaction> = w
            .interactions
            .iter()
            .filter(|i| i.kind == QueryKind::Read)
            .collect();
        let read_freq: f64 = reads.iter().map(|i| i.frequency).sum();
        let read_weight: f64 = reads.iter().map(|i| i.weight).sum();
        // 1 read : 7 writes by count.
        assert!((read_freq - 0.125).abs() < 1e-9);
        // Reads carry 3× the update work.
        assert!((read_weight - 0.75).abs() < 1e-9);
        // The heavy class: 50 % weight from 1.5 % of queries.
        let heavy = w
            .interactions
            .iter()
            .find(|i| i.name == "BestSellers")
            .unwrap();
        assert!((heavy.weight - 0.50).abs() < 1e-9);
        assert!((heavy.frequency - 0.015).abs() < 1e-9);
        // Order_Line writes at 13 %.
        let ol = w
            .interactions
            .iter()
            .find(|i| i.name == "NewOrderLine")
            .unwrap();
        assert!((ol.weight - 0.13).abs() < 1e-9);
    }

    #[test]
    fn class_counts_8_table_10_column() {
        let w = tpcapp(300);
        let j = w.journal(100_000);
        let by_table = Classification::from_journal(&j, &w.catalog, Granularity::Table).unwrap();
        let by_col = Classification::from_journal(&j, &w.catalog, Granularity::Fragment).unwrap();
        assert_eq!(by_table.len(), 8, "8 table-based classes");
        assert_eq!(by_col.len(), 10, "10 column-based classes");
    }

    #[test]
    fn order_line_is_update_only_and_caps_speedup_at_7_7() {
        let w = tpcapp(300);
        let j = w.journal(100_000);
        let cls = Classification::from_journal(&j, &w.catalog, Granularity::Table).unwrap();
        // Eq. 17/30: the max update burden is NewOrderLine's 13 %.
        let cap = cls.max_speedup();
        assert!((cap - 1.0 / 0.13).abs() < 0.05, "cap {cap}");
    }

    #[test]
    fn database_sizes_match_the_paper() {
        let small = tpcapp(300).total_bytes() as f64 / 1e6;
        assert!(small > 150.0 && small < 400.0, "EB 300: {small} MB");
        let large = tpcapp_large(12000).total_bytes() as f64 / 1e9;
        assert!(large > 4.0 && large < 12.0, "EB 12000: {large} GB");
    }

    #[test]
    fn large_variant_has_1_1_ratio_and_50_percent_updates() {
        let w = tpcapp_large(12000);
        let read_freq: f64 = w
            .interactions
            .iter()
            .filter(|i| i.kind == QueryKind::Read)
            .map(|i| i.frequency)
            .sum();
        let upd_weight: f64 = w
            .interactions
            .iter()
            .filter(|i| i.kind == QueryKind::Update)
            .map(|i| i.weight)
            .sum();
        assert!((read_freq - 0.5).abs() < 1e-9);
        assert!((upd_weight - 0.5).abs() < 1e-9);
    }

    #[test]
    fn all_read_tables_are_also_updated() {
        // Section 4.2: "All tables that are queried were also updated,
        // therefore the column-based allocation always allocated the
        // complete tables" — every table referenced by a read is also
        // referenced by an update class.
        let w = tpcapp(300);
        let read_tables: std::collections::BTreeSet<&str> = w
            .interactions
            .iter()
            .filter(|i| i.kind == QueryKind::Read)
            .flat_map(|i| i.columns.iter().map(|(t, _)| *t))
            .collect();
        let update_tables: std::collections::BTreeSet<&str> = w
            .interactions
            .iter()
            .filter(|i| i.kind == QueryKind::Update)
            .flat_map(|i| i.columns.iter().map(|(t, _)| *t))
            .collect();
        for t in read_tables {
            assert!(update_tables.contains(t), "{t} is read but never updated");
        }
    }
}
