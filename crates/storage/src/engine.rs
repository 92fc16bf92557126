//! The per-backend store and query execution.
//!
//! A [`BackendStore`] plays one backend DBMS of the CDBS: it holds the
//! tables/fragments the allocation assigned to it, bulk-loads fragment
//! data by adopting its column vectors, and executes scan queries a
//! column at a time: the predicate becomes a selection vector
//! ([`Table::select`]), an aggregate folds the selected rows of one
//! typed column, a projection materializes them. Updates find their
//! rows a row at a time ([`Table::update`]). The controller in
//! `qcpa-controller` routes requests to stores per the allocation.

use std::collections::BTreeMap;

use crate::fragmentation::FragmentData;
use crate::predicate::Predicate;
use crate::table::{ColumnData, Table};
use crate::types::Value;

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The referenced table is not stored on this backend.
    NoSuchTable(String),
    /// The referenced column does not exist in the stored fragment.
    NoSuchColumn {
        /// Table name.
        table: String,
        /// Missing column.
        column: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NoSuchTable(t) => write!(f, "table {t:?} is not on this backend"),
            StorageError::NoSuchColumn { table, column } => {
                write!(f, "column {column:?} not stored for table {table:?}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of the column's numeric view.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Average.
    Avg,
}

/// A scan query: selection + projection or aggregation over one table.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Table (or fragment) name.
    pub table: String,
    /// Columns to return; empty means all stored columns.
    pub projection: Vec<String>,
    /// Optional row filter.
    pub predicate: Option<Predicate>,
    /// Optional aggregate `(function, column)`; replaces the row output.
    pub aggregate: Option<(AggFunc, String)>,
}

impl ScanQuery {
    /// Full scan of a table.
    pub fn all(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            projection: Vec::new(),
            predicate: None,
            aggregate: None,
        }
    }

    /// Adds a filter.
    pub fn filter(mut self, p: Predicate) -> Self {
        self.predicate = Some(p);
        self
    }

    /// Restricts the output columns.
    pub fn select(mut self, columns: &[&str]) -> Self {
        self.projection = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Aggregates instead of returning rows.
    pub fn agg(mut self, f: AggFunc, column: impl Into<String>) -> Self {
        self.aggregate = Some((f, column.into()));
        self
    }
}

/// A query result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Projected rows.
    Rows(Vec<Vec<Value>>),
    /// Aggregate value (`None` over an empty input for Min/Max/Avg).
    Scalar(Option<f64>),
}

impl QueryResult {
    /// The number of rows, or 1 for a scalar.
    pub fn cardinality(&self) -> usize {
        match self {
            QueryResult::Rows(r) => r.len(),
            QueryResult::Scalar(_) => 1,
        }
    }
}

/// The aggregate of `column`'s numeric view (integers and dates as
/// `f64`, strings as their length) over `rows`, folded in that order.
fn aggregate_rows(f: AggFunc, column: &ColumnData, rows: &[usize]) -> Option<f64> {
    match column {
        ColumnData::I64(c) => aggregate(f, rows.iter().map(|&r| c[r] as f64)),
        ColumnData::F64(c) => aggregate(f, rows.iter().map(|&r| c[r])),
        ColumnData::Str(c) => aggregate(f, rows.iter().map(|&r| c[r].len() as f64)),
        ColumnData::Date(c) => aggregate(f, rows.iter().map(|&r| c[r] as f64)),
    }
}

/// `f` over `vals` in iteration order (`None` over an empty input for
/// Min/Max/Avg).
fn aggregate(f: AggFunc, vals: impl ExactSizeIterator<Item = f64>) -> Option<f64> {
    let n = vals.len();
    match f {
        AggFunc::Count => Some(n as f64),
        AggFunc::Sum => Some(vals.sum()),
        AggFunc::Min => vals.reduce(f64::min),
        AggFunc::Max => vals.reduce(f64::max),
        AggFunc::Avg => (n > 0).then(|| vals.sum::<f64>() / n as f64),
    }
}

/// One backend's storage: the fragments assigned to it by name.
#[derive(Debug, Clone, Default)]
pub struct BackendStore {
    tables: BTreeMap<String, Table>,
}

impl BackendStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-loads fragment data, replacing any same-named fragment: the
    /// store adopts the fragment's column vectors as they are. Returns
    /// the loaded byte count (the quantity the ETL cost model prices).
    ///
    /// # Panics
    /// Panics if the columns do not match the fragment's definition in
    /// number or type, or differ in length.
    pub fn bulk_load(&mut self, fragment: FragmentData) -> u64 {
        let table = Table::from_columns(fragment.def, fragment.columns);
        let bytes = table.byte_size();
        self.tables.insert(table.def.name.clone(), table);
        bytes
    }

    /// Drops a fragment; returns whether it existed.
    pub fn drop_fragment(&mut self, name: &str) -> bool {
        self.tables.remove(name).is_some()
    }

    /// Names of the stored fragments.
    pub fn fragment_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// The stored fragment with the given name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Total stored bytes.
    pub fn byte_size(&self) -> u64 {
        self.tables.values().map(|t| t.byte_size()).sum()
    }

    /// Executes a scan query.
    ///
    /// # Errors
    /// [`StorageError::NoSuchTable`] if the table is not stored here;
    /// otherwise [`StorageError::NoSuchColumn`] for the first column the
    /// fragment lacks, looking at the projection, then the predicate,
    /// then the aggregate.
    pub fn execute(&self, q: &ScanQuery) -> Result<QueryResult, StorageError> {
        let table = self
            .tables
            .get(&q.table)
            .ok_or_else(|| StorageError::NoSuchTable(q.table.clone()))?;
        // Resolve every referenced column up front.
        let resolve = |c: &str| {
            table
                .def
                .column_index(c)
                .ok_or_else(|| StorageError::NoSuchColumn {
                    table: q.table.clone(),
                    column: c.to_string(),
                })
        };
        let projection = q
            .projection
            .iter()
            .map(|c| resolve(c))
            .collect::<Result<Vec<usize>, _>>()?;
        for c in q.predicate.iter().flat_map(Predicate::columns) {
            resolve(c)?;
        }
        let aggregate = match &q.aggregate {
            Some((f, c)) => Some((*f, &table.columns()[resolve(c)?])),
            None => None,
        };

        let rows = table.select(q.predicate.as_ref());
        if let Some((f, column)) = aggregate {
            return Ok(QueryResult::Scalar(aggregate_rows(f, column, &rows)));
        }
        let projection = if projection.is_empty() {
            (0..table.def.columns.len()).collect()
        } else {
            projection
        };
        Ok(QueryResult::Rows(table.project(&rows, &projection)))
    }

    /// Inserts a row into a stored fragment.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), StorageError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.append(row);
        Ok(())
    }

    /// Updates rows in a stored fragment; returns the rows changed.
    pub fn update(
        &mut self,
        table: &str,
        predicate: Option<&Predicate>,
        column: &str,
        value: Value,
    ) -> Result<usize, StorageError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        if t.def.column_index(column).is_none() {
            return Err(StorageError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        Ok(t.update(predicate, column, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmentation::extract_full;
    use crate::predicate::CmpOp;
    use crate::schema::{ColumnDef, TableDef};
    use crate::types::DataType;

    fn store_with_items() -> BackendStore {
        let def = TableDef::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64, 8),
                ColumnDef::new("i_price", DataType::F64, 8),
            ],
        );
        let mut t = Table::new(def);
        for i in 0..20 {
            t.append(vec![Value::I64(i), Value::F64(i as f64)]);
        }
        let mut s = BackendStore::new();
        s.bulk_load(extract_full(&t));
        s
    }

    #[test]
    fn bulk_load_and_sizes() {
        let s = store_with_items();
        assert_eq!(s.byte_size(), 20 * 16);
        assert_eq!(s.fragment_names().collect::<Vec<_>>(), vec!["item"]);
    }

    #[test]
    fn bulk_load_adopts_the_columns() {
        let mut s = store_with_items();
        let mut f = extract_full(s.table("item").unwrap());
        f.def.name = "copy".into();
        assert_eq!(s.bulk_load(f), 20 * 16);
        let copy = s.table("copy").unwrap();
        assert!(copy.check());
        assert_eq!(copy.len(), 20);
        assert_eq!(copy.value(7, "i_price"), Some(Value::F64(7.0)));
    }

    #[test]
    #[should_panic(expected = "column length mismatch: item.i_price")]
    fn bulk_load_rejects_ragged_columns() {
        let mut s = store_with_items();
        let mut f = extract_full(s.table("item").unwrap());
        f.columns[1] = ColumnData::F64(vec![1.0]);
        s.bulk_load(f);
    }

    #[test]
    #[should_panic(expected = "type mismatch: column item.i_price")]
    fn bulk_load_rejects_mistyped_columns() {
        let mut s = store_with_items();
        let mut f = extract_full(s.table("item").unwrap());
        f.columns[1] = f.columns[0].clone();
        s.bulk_load(f);
    }

    #[test]
    #[should_panic(expected = "column arity mismatch for item")]
    fn bulk_load_rejects_missing_columns() {
        let mut s = store_with_items();
        let mut f = extract_full(s.table("item").unwrap());
        f.columns.pop();
        s.bulk_load(f);
    }

    #[test]
    fn scan_filter_project() {
        let s = store_with_items();
        let q = ScanQuery::all("item")
            .filter(Predicate::cmp("i_price", CmpOp::Ge, Value::F64(18.0)))
            .select(&["i_id"]);
        match s.execute(&q).unwrap() {
            QueryResult::Rows(rows) => {
                assert_eq!(rows, vec![vec![Value::I64(18)], vec![Value::I64(19)]]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let s = store_with_items();
        let sum = s
            .execute(&ScanQuery::all("item").agg(AggFunc::Sum, "i_price"))
            .unwrap();
        assert_eq!(sum, QueryResult::Scalar(Some(190.0)));
        let avg = s
            .execute(&ScanQuery::all("item").agg(AggFunc::Avg, "i_price"))
            .unwrap();
        assert_eq!(avg, QueryResult::Scalar(Some(9.5)));
        let min_empty = s
            .execute(
                &ScanQuery::all("item")
                    .filter(Predicate::cmp("i_id", CmpOp::Gt, Value::I64(100)))
                    .agg(AggFunc::Min, "i_price"),
            )
            .unwrap();
        assert_eq!(min_empty, QueryResult::Scalar(None));
    }

    #[test]
    fn missing_table_and_column_errors() {
        let s = store_with_items();
        assert!(matches!(
            s.execute(&ScanQuery::all("nope")),
            Err(StorageError::NoSuchTable(_))
        ));
        assert!(matches!(
            s.execute(&ScanQuery::all("item").select(&["ghost"])),
            Err(StorageError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn insert_and_update() {
        let mut s = store_with_items();
        s.insert("item", vec![Value::I64(99), Value::F64(99.0)])
            .unwrap();
        let changed = s
            .update(
                "item",
                Some(&Predicate::cmp("i_id", CmpOp::Eq, Value::I64(99))),
                "i_price",
                Value::F64(0.5),
            )
            .unwrap();
        assert_eq!(changed, 1);
        let q = ScanQuery::all("item").agg(AggFunc::Count, "i_id");
        assert_eq!(s.execute(&q).unwrap(), QueryResult::Scalar(Some(21.0)));
    }

    #[test]
    fn drop_fragment_frees_space() {
        let mut s = store_with_items();
        assert!(s.drop_fragment("item"));
        assert!(!s.drop_fragment("item"));
        assert_eq!(s.byte_size(), 0);
    }
}
