//! Property-based tests of the storage engine: the column-at-a-time
//! scan agrees with `Predicate::eval` row by row, updates and aggregates
//! see exactly that selection, fragment extraction and bulk load are
//! lossless, predicates obey boolean algebra.

use proptest::prelude::*;
use qcpa_storage::engine::{AggFunc, BackendStore, QueryResult, ScanQuery, StorageError};
use qcpa_storage::fragmentation::{extract_full, extract_horizontal, extract_vertical};
use qcpa_storage::predicate::{CmpOp, Predicate};
use qcpa_storage::schema::{ColumnDef, TableDef};
use qcpa_storage::table::Table;
use qcpa_storage::types::{DataType, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random two-column table of i64 data plus the pk.
fn random_table(rows: &[(i64, i64)]) -> Table {
    let def = TableDef::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::I64, 8),
            ColumnDef::new("x", DataType::I64, 8),
            ColumnDef::new("y", DataType::I64, 8),
        ],
    );
    let mut t = Table::new(def);
    for (i, &(x, y)) in rows.iter().enumerate() {
        t.append(vec![Value::I64(i as i64), Value::I64(x), Value::I64(y)]);
    }
    t
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

const AGGS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// The columns of [`mixed_table`]; predicates also name `ghost`, which
/// no table has.
const MIXED: [(&str, DataType); 5] = [
    ("id", DataType::I64),
    ("n", DataType::I64),
    ("x", DataType::F64),
    ("s", DataType::Str),
    ("d", DataType::Date),
];

/// A value of the given type from a domain small enough that literals
/// hit stored values: integers at the edges of what `as f64` represents
/// exactly, floats including NaN of both signs, both zeros and both
/// infinities, strings of varying length.
fn mixed_value(ty: DataType, rng: &mut ChaCha8Rng) -> Value {
    const INTS: [i64; 8] = [-2, -1, 0, 1, 2, i64::MIN, i64::MAX, (1 << 53) + 1];
    const FLOATS: [f64; 12] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.5,
        -1.0,
        -0.0,
        0.0,
        1.0,
        1.5,
        2.0,
        (1u64 << 53) as f64,
        i64::MAX as f64,
        f64::INFINITY,
    ];
    const STRS: [&str; 6] = ["", "a", "ab", "b", "ba", "a much longer string"];
    match ty {
        DataType::I64 => Value::I64(INTS[rng.gen_range(0..INTS.len())]),
        DataType::F64 => {
            let v = FLOATS[rng.gen_range(0..FLOATS.len())];
            Value::F64(if rng.gen_bool(0.2) { -v } else { v })
        }
        DataType::Str => Value::Str(STRS[rng.gen_range(0..STRS.len())].to_string()),
        DataType::Date => Value::Date(rng.gen_range(-2..=2)),
    }
}

/// A table with one column of every type behind an integer key.
fn mixed_table(rng: &mut ChaCha8Rng) -> Table {
    let def = TableDef::new(
        "t",
        MIXED
            .iter()
            .map(|&(name, ty)| ColumnDef::new(name, ty, 8))
            .collect(),
    );
    let mut t = Table::new(def);
    for i in 0..rng.gen_range(0..40) {
        let mut row = vec![Value::I64(i)];
        row.extend(MIXED[1..].iter().map(|&(_, ty)| mixed_value(ty, rng)));
        t.append(row);
    }
    t
}

/// A comparison on a random column (one time in eight the unknown one).
/// Half the literals are of the column's type, the rest of a random
/// one: the other numeric type on a numeric column, or a wrong one.
fn mixed_leaf(rng: &mut ChaCha8Rng) -> Predicate {
    let op = OPS[rng.gen_range(0..OPS.len())];
    let any_type = |rng: &mut ChaCha8Rng| MIXED[rng.gen_range(1..MIXED.len())].1;
    if rng.gen_bool(0.125) {
        let ty = any_type(rng);
        return Predicate::cmp("ghost", op, mixed_value(ty, rng));
    }
    let (column, own) = MIXED[rng.gen_range(0..MIXED.len())];
    let ty = if rng.gen_bool(0.5) {
        own
    } else {
        any_type(rng)
    };
    Predicate::cmp(column, op, mixed_value(ty, rng))
}

/// A random predicate tree of at most the given depth.
fn mixed_predicate(depth: u32, rng: &mut ChaCha8Rng) -> Predicate {
    if depth == 0 || rng.gen_bool(0.3) {
        return mixed_leaf(rng);
    }
    let left = mixed_predicate(depth - 1, rng);
    match rng.gen_range(0..3) {
        0 => left.and(mixed_predicate(depth - 1, rng)),
        1 => left.or(mixed_predicate(depth - 1, rng)),
        _ => left.not(),
    }
}

/// The reference selection: the rows on which `Predicate::eval` holds.
fn oracle(t: &Table, p: &Predicate) -> Vec<usize> {
    (0..t.len())
        .filter(|&r| p.eval(&|name| t.value(r, name)))
        .collect()
}

/// Equality that tells NaN payloads and the two zeros apart.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
        _ => a == b,
    }
}

fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same_value(v, w)))
}

/// The aggregate as the row-at-a-time engine computed it: a fold over
/// `ColumnData::get(r).as_f64()` in row order.
fn reference_aggregate(t: &Table, rows: &[usize], f: AggFunc, column: &str) -> Option<f64> {
    let col = t.column(column).expect("column exists");
    let vals = rows.iter().map(|&r| col.get(r).as_f64());
    match f {
        AggFunc::Count => Some(rows.len() as f64),
        AggFunc::Sum => Some(vals.sum()),
        AggFunc::Min => vals.reduce(f64::min),
        AggFunc::Max => vals.reduce(f64::max),
        AggFunc::Avg => (!rows.is_empty()).then(|| vals.sum::<f64>() / rows.len() as f64),
    }
}

fn all_rows(store: &BackendStore, fragment: &str) -> Vec<Vec<Value>> {
    match store.execute(&ScanQuery::all(fragment)) {
        Ok(QueryResult::Rows(rows)) => rows,
        other => panic!("unexpected {other:?}"),
    }
}

/// The shapes the random trees must not be relied on to hit, each
/// against the row-at-a-time definition.
#[test]
fn named_edge_cases_match_the_reference() {
    let mut t = mixed_table(&mut ChaCha8Rng::seed_from_u64(7));
    for (i, x) in [f64::NAN, -f64::NAN, 0.0, -0.0, 2.0, f64::INFINITY]
        .into_iter()
        .enumerate()
    {
        t.append(vec![
            Value::I64(100 + i as i64),
            Value::I64([2, (1 << 53) + 1][i % 2]),
            Value::F64(x),
            Value::Str("a".repeat(i)),
            Value::Date(i as i32),
        ]);
    }
    let ghost = || Predicate::cmp("ghost", CmpOp::Eq, Value::I64(1));
    let cases = [
        // NaN sorts above +inf, -NaN below -inf, -0.0 below 0.0.
        Predicate::cmp("x", CmpOp::Ge, Value::F64(f64::NAN)),
        Predicate::cmp("x", CmpOp::Lt, Value::F64(f64::NEG_INFINITY)),
        Predicate::cmp("x", CmpOp::Eq, Value::F64(0.0)),
        Predicate::cmp("x", CmpOp::Lt, Value::F64(0.0)),
        // Mixed numerics compare through `as f64`.
        Predicate::cmp("x", CmpOp::Eq, Value::I64(2)),
        Predicate::cmp("n", CmpOp::Le, Value::F64(2.0)),
        Predicate::cmp("n", CmpOp::Gt, Value::F64(1.5)),
        Predicate::cmp("n", CmpOp::Eq, Value::F64((1u64 << 53) as f64)),
        Predicate::cmp("n", CmpOp::Eq, Value::F64(i64::MAX as f64)),
        // A wrong-typed literal orders by type: one answer for all rows.
        Predicate::cmp("n", CmpOp::Lt, Value::Str("a".into())),
        Predicate::cmp("d", CmpOp::Lt, Value::I64(0)),
        Predicate::cmp("s", CmpOp::Eq, Value::Date(1)),
        // An unknown column makes its leaf false, not the predicate.
        ghost(),
        ghost().not(),
        ghost().or(Predicate::cmp("d", CmpOp::Gt, Value::Date(3))),
        ghost()
            .not()
            .and(Predicate::cmp("s", CmpOp::Gt, Value::Str("a".into()))),
    ];
    for p in &cases {
        assert_eq!(t.select(Some(p)), oracle(&t, p), "{p:?}");
    }
    assert_eq!(t.select(Some(&ghost().not())).len(), t.len());
    assert!(!t.select(Some(&cases[0])).is_empty());
    assert!(!t.select(Some(&cases[1])).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Table::select` returns exactly the rows on which
    /// `Predicate::eval` holds, for every column type, operator, literal
    /// type and tree shape; `Table::update` changes exactly those rows.
    #[test]
    fn select_and_update_match_the_reference(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = mixed_table(&mut rng);
        let p = mixed_predicate(4, &mut rng);
        let expected = oracle(&t, &p);
        prop_assert_eq!(t.select(Some(&p)), expected.clone(), "{:?}", p);
        prop_assert_eq!(t.select(None), (0..t.len()).collect::<Vec<_>>());

        let (target, ty) = MIXED[rng.gen_range(1..MIXED.len())];
        let value = mixed_value(ty, &mut rng);
        let mut updated = t.clone();
        prop_assert_eq!(updated.update(Some(&p), target, value.clone()), expected.len());
        for r in 0..t.len() {
            for (name, _) in MIXED {
                let want = if name == target && expected.contains(&r) {
                    value.clone()
                } else {
                    t.value(r, name).expect("column exists")
                };
                let got = updated.value(r, name).expect("column exists");
                prop_assert!(same_value(&got, &want), "row {r} column {name}: {got:?} vs {want:?}");
            }
        }
    }

    /// Every aggregate and every projection over a selection equals the
    /// row-at-a-time fold over the reference selection, bit for bit; a
    /// predicate naming an unknown column is refused up front.
    #[test]
    fn execute_matches_the_reference(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = mixed_table(&mut rng);
        let p = mixed_predicate(4, &mut rng);
        let mut store = BackendStore::new();
        store.bulk_load(extract_full(&t));
        if p.columns().contains(&"ghost") {
            let q = ScanQuery::all("t").filter(p).agg(AggFunc::Sum, "nope");
            prop_assert_eq!(
                store.execute(&q),
                Err(StorageError::NoSuchColumn { table: "t".into(), column: "ghost".into() })
            );
            return Ok(());
        }
        let rows = oracle(&t, &p);
        for (column, _) in MIXED {
            for f in AGGS {
                let q = ScanQuery::all("t").filter(p.clone()).agg(f, column);
                let want = reference_aggregate(&t, &rows, f, column);
                match store.execute(&q) {
                    Ok(QueryResult::Scalar(got)) => prop_assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{:?}({}) where {:?}", f, column, p
                    ),
                    other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
        }
        let q = ScanQuery::all("t").filter(p).select(&["s", "x", "id"]);
        match store.execute(&q) {
            Ok(QueryResult::Rows(got)) => prop_assert!(same_rows(&got, &t.project(&rows, &[3, 2, 0]))),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Extracting a fragment, bulk-loading it and scanning it returns
    /// exactly the rows and columns `Table::project` gives on the source.
    #[test]
    fn extract_load_scan_roundtrips(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = mixed_table(&mut rng);
        let p = mixed_predicate(3, &mut rng);
        let all: Vec<usize> = (0..t.len()).collect();
        let mut store = BackendStore::new();

        prop_assert_eq!(store.bulk_load(extract_full(&t)), t.byte_size());
        prop_assert!(same_rows(&all_rows(&store, "t"), &t.project(&all, &[0, 1, 2, 3, 4])));

        let vertical = extract_vertical(&t, &["s", "x"]);
        prop_assert_eq!(vertical.n_rows(), t.len());
        prop_assert_eq!(store.bulk_load(vertical), 24 * t.len() as u64);
        prop_assert!(same_rows(&all_rows(&store, "t.id+s+x"), &t.project(&all, &[0, 3, 2])));

        let selected = oracle(&t, &p);
        let horizontal = extract_horizontal(&t, &p, 7);
        prop_assert_eq!(horizontal.n_rows(), selected.len());
        store.bulk_load(horizontal);
        prop_assert!(same_rows(&all_rows(&store, "t#7"), &t.project(&selected, &[0, 1, 2, 3, 4])));
        let loaded = store.table("t#7").expect("just loaded");
        prop_assert!(loaded.check());
        prop_assert_eq!(loaded.len(), selected.len());
    }

    /// Vertical fragments carry every row and reassemble losslessly by
    /// primary key.
    #[test]
    fn vertical_fragments_are_lossless(rows in proptest::collection::vec((any::<i64>(), any::<i64>()), 1..80)) {
        let t = random_table(&rows);
        let fx = extract_vertical(&t, &["x"]);
        let fy = extract_vertical(&t, &["y"]);
        prop_assert_eq!(fx.n_rows(), rows.len());
        prop_assert_eq!(fy.n_rows(), rows.len());
        for (i, &(x, y)) in rows.iter().enumerate() {
            // Column 0 is the pk, column 1 the payload.
            prop_assert_eq!(fx.columns[0].get(i), Value::I64(i as i64));
            prop_assert_eq!(fx.columns[1].get(i), Value::I64(x));
            prop_assert_eq!(fy.columns[1].get(i), Value::I64(y));
        }
        // Byte accounting: both fragments together cost one extra pk.
        let pk_bytes = 8 * rows.len() as u64;
        prop_assert_eq!(fx.byte_size() + fy.byte_size(), t.byte_size() + pk_bytes);
    }

    /// A horizontal split by any threshold partitions the rows exactly.
    #[test]
    fn horizontal_split_partitions_rows(
        rows in proptest::collection::vec((any::<i64>(), any::<i64>()), 1..80),
        threshold in any::<i64>(),
    ) {
        let t = random_table(&rows);
        let below = extract_horizontal(&t, &Predicate::cmp("x", CmpOp::Lt, Value::I64(threshold)), 0);
        let above = extract_horizontal(
            &t,
            &Predicate::cmp("x", CmpOp::Lt, Value::I64(threshold)).not(),
            1,
        );
        prop_assert_eq!(below.n_rows() + above.n_rows(), rows.len());
        for r in 0..below.n_rows() {
            match below.columns[1].get(r) { Value::I64(x) => prop_assert!(x < threshold), v => panic!("{v:?}") }
        }
        for r in 0..above.n_rows() {
            match above.columns[1].get(r) { Value::I64(x) => prop_assert!(x >= threshold), v => panic!("{v:?}") }
        }
    }

    /// De Morgan: NOT (a AND b) selects the same rows as
    /// (NOT a) OR (NOT b).
    #[test]
    fn de_morgan_on_scans(
        rows in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..60),
        ta in any::<i64>(),
        tb in any::<i64>(),
    ) {
        let t = random_table(&rows);
        let a = || Predicate::cmp("x", CmpOp::Gt, Value::I64(ta));
        let b = || Predicate::cmp("y", CmpOp::Le, Value::I64(tb));
        let lhs = t.select(Some(&a().and(b()).not()));
        let rhs = t.select(Some(&a().not().or(b().not())));
        prop_assert_eq!(lhs, rhs);
    }

    /// Updates change exactly the selected rows and nothing else.
    #[test]
    fn update_touches_exactly_the_selection(
        rows in proptest::collection::vec((0i64..100, any::<i64>()), 1..60),
        threshold in 0i64..100,
    ) {
        let t = random_table(&rows);
        let mut store = BackendStore::new();
        store.bulk_load(extract_full(&t));
        let pred = Predicate::cmp("x", CmpOp::Ge, Value::I64(threshold));
        let expected = rows.iter().filter(|&&(x, _)| x >= threshold).count();
        let changed = store.update("t", Some(&pred), "y", Value::I64(-1)).unwrap();
        prop_assert_eq!(changed, expected);
        // Count rows now carrying the sentinel that also match the
        // predicate — at least the changed ones.
        let q = ScanQuery::all("t")
            .filter(Predicate::cmp("y", CmpOp::Eq, Value::I64(-1)).and(pred))
            .agg(AggFunc::Count, "id");
        match store.execute(&q).unwrap() {
            QueryResult::Scalar(Some(n)) => prop_assert_eq!(n as usize, expected),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// SUM over a split table equals the sum of SUMs over its horizontal
    /// fragments (aggregation pushdown correctness).
    #[test]
    fn aggregates_distribute_over_horizontal_fragments(
        rows in proptest::collection::vec((-1000i64..1000, -1000i64..1000), 1..60),
        threshold in -1000i64..1000,
    ) {
        let t = random_table(&rows);
        let p = Predicate::cmp("x", CmpOp::Lt, Value::I64(threshold));
        let mut store = BackendStore::new();
        store.bulk_load(extract_horizontal(&t, &p, 0));
        store.bulk_load(extract_horizontal(&t, &p.clone().not(), 1));
        let total: f64 = ["t#0", "t#1"]
            .iter()
            .map(|f| {
                match store.execute(&ScanQuery::all(*f).agg(AggFunc::Sum, "y")).unwrap() {
                    QueryResult::Scalar(Some(s)) => s,
                    QueryResult::Scalar(None) => 0.0,
                    other => panic!("unexpected {other:?}"),
                }
            })
            .sum();
        let expected: f64 = rows.iter().map(|&(_, y)| y as f64).sum();
        prop_assert!((total - expected).abs() < 1e-6);
    }
}
