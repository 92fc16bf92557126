//! CDBS requests and the query analyzer.
//!
//! The classify function of Eq. 2 needs the set of fragments a query
//! references; [`referenced_columns`] derives it from the request's
//! actual structure (projection, predicate, aggregate, write targets) —
//! no annotations required, as in the paper's prototype where the
//! middleware parsed the SQL it forwarded.

use qcpa_storage::engine::ScanQuery;
use qcpa_storage::predicate::Predicate;
use qcpa_storage::schema::TableDef;
use qcpa_storage::types::Value;

/// A request processed by the controller.
#[derive(Debug, Clone)]
pub enum Request {
    /// A read: selection/projection/aggregation over one table.
    Read(ScanQuery),
    /// A write: insert or in-place update.
    Write(WriteRequest),
}

impl Request {
    /// The logical table the request touches.
    pub fn table(&self) -> &str {
        match self {
            Request::Read(q) => &q.table,
            Request::Write(w) => &w.table,
        }
    }
}

/// A write request.
#[derive(Debug, Clone)]
pub struct WriteRequest {
    /// Target table.
    pub table: String,
    /// Insert or update.
    pub kind: WriteKind,
}

/// The kind of write.
#[derive(Debug, Clone)]
pub enum WriteKind {
    /// Appends a full row (values in schema column order).
    Insert(Vec<Value>),
    /// Sets `column` to `value` on rows matching the predicate.
    Update {
        /// Optional row filter.
        predicate: Option<Predicate>,
        /// Column to modify.
        column: String,
        /// New value.
        value: Value,
    },
}

impl WriteRequest {
    /// Insert helper.
    pub fn insert(table: impl Into<String>, row: Vec<Value>) -> Self {
        Self {
            table: table.into(),
            kind: WriteKind::Insert(row),
        }
    }

    /// Update helper.
    pub fn update(
        table: impl Into<String>,
        predicate: Option<Predicate>,
        column: impl Into<String>,
        value: Value,
    ) -> Self {
        Self {
            table: table.into(),
            kind: WriteKind::Update {
                predicate,
                column: column.into(),
                value,
            },
        }
    }
}

/// The columns of `table` a request references (always including the
/// primary key, which every vertical fragment carries). An empty read
/// projection means "all stored columns", so it references everything;
/// an insert writes the full row, so it references everything.
pub fn referenced_columns(request: &Request, table: &TableDef) -> Vec<String> {
    match request {
        Request::Read(q) if q.projection.is_empty() => all_columns(table),
        Request::Read(q) => {
            let mut cols: Vec<String> = q.projection.clone();
            if let Some(p) = &q.predicate {
                cols.extend(p.columns().iter().map(|s| s.to_string()));
            }
            if let Some((_, c)) = &q.aggregate {
                cols.push(c.clone());
            }
            with_primary_key(cols, table)
        }
        Request::Write(w) => write_columns(w, table),
    }
}

/// [`referenced_columns`] of a write.
pub(crate) fn write_columns(w: &WriteRequest, table: &TableDef) -> Vec<String> {
    match &w.kind {
        WriteKind::Insert(_) => all_columns(table),
        WriteKind::Update {
            predicate, column, ..
        } => {
            let mut cols = vec![column.clone()];
            if let Some(p) = predicate {
                cols.extend(p.columns().iter().map(|s| s.to_string()));
            }
            with_primary_key(cols, table)
        }
    }
}

fn all_columns(table: &TableDef) -> Vec<String> {
    table.columns.iter().map(|c| c.name.clone()).collect()
}

fn with_primary_key(mut cols: Vec<String>, table: &TableDef) -> Vec<String> {
    cols.push(table.primary_key().name.clone());
    cols.sort();
    cols.dedup();
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_storage::engine::AggFunc;
    use qcpa_storage::predicate::CmpOp;
    use qcpa_storage::schema::ColumnDef;
    use qcpa_storage::types::DataType;

    fn orders() -> TableDef {
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("o_id", DataType::I64, 8),
                ColumnDef::new("o_total", DataType::F64, 8),
                ColumnDef::new("o_status", DataType::Str, 8),
                ColumnDef::new("o_comment", DataType::Str, 48),
            ],
        )
    }

    #[test]
    fn read_references_projection_predicate_and_pk() {
        let q = ScanQuery::all("orders")
            .select(&["o_total"])
            .filter(Predicate::cmp(
                "o_status",
                CmpOp::Eq,
                Value::Str("P".into()),
            ));
        let cols = referenced_columns(&Request::Read(q), &orders());
        assert_eq!(cols, vec!["o_id", "o_status", "o_total"]);
    }

    #[test]
    fn aggregate_column_counts() {
        let q = ScanQuery::all("orders")
            .select(&["o_id"])
            .agg(AggFunc::Sum, "o_total");
        let cols = referenced_columns(&Request::Read(q), &orders());
        assert!(cols.contains(&"o_total".to_string()));
    }

    #[test]
    fn star_projection_references_everything() {
        let q = ScanQuery::all("orders");
        let cols = referenced_columns(&Request::Read(q), &orders());
        assert_eq!(cols.len(), 4);
    }

    #[test]
    fn insert_references_everything() {
        let w = WriteRequest::insert("orders", vec![]);
        let cols = referenced_columns(&Request::Write(w), &orders());
        assert_eq!(cols.len(), 4);
    }

    #[test]
    fn update_references_target_filter_and_pk() {
        let w = WriteRequest::update(
            "orders",
            Some(Predicate::cmp("o_id", CmpOp::Eq, Value::I64(5))),
            "o_status",
            Value::Str("S".into()),
        );
        let cols = referenced_columns(&Request::Write(w), &orders());
        assert_eq!(cols, vec!["o_id", "o_status"]);
    }
}
