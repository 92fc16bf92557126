//! Fragment extraction: turning a logical table into the vertical or
//! horizontal fragments the allocation assigns to backends.
//!
//! A fragment travels as it is stored: a definition plus one typed
//! vector per column. Extracting a vertical fragment (or a whole table)
//! copies whole column vectors, extracting a horizontal one gathers the
//! selected rows column by column, and
//! [`BackendStore::bulk_load`](crate::engine::BackendStore::bulk_load)
//! adopts the vectors — no value is boxed on the way.
//!
//! Vertical fragments always carry the primary key so the full rows can
//! be losslessly reconstructed, exactly as Section 3.1 requires of
//! column-based classification.

use crate::predicate::Predicate;
use crate::schema::TableDef;
use crate::table::{ColumnData, Table};

/// Extracted fragment data ready to bulk-load into a backend.
#[derive(Debug, Clone)]
pub struct FragmentData {
    /// The fragment's own table definition (a projection and/or
    /// selection of the source).
    pub def: TableDef,
    /// One column vector per column of `def`, in its order and of its
    /// type, all of one length.
    pub columns: Vec<ColumnData>,
}

impl FragmentData {
    /// Number of rows in the fragment.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    /// Bytes of the materialized fragment per the schema widths.
    pub fn byte_size(&self) -> u64 {
        self.def.row_width() * self.n_rows() as u64
    }
}

/// Extracts a vertical fragment: the named columns plus the primary key
/// (prepended if not listed). The fragment is named
/// `"<table>.<col1+col2+...>"`.
///
/// # Panics
/// Panics if a column does not exist.
pub fn extract_vertical(table: &Table, columns: &[&str]) -> FragmentData {
    let pk = table.def.primary_key().name.as_str();
    let mut names: Vec<&str> = Vec::with_capacity(columns.len() + 1);
    if !columns.contains(&pk) {
        names.push(pk);
    }
    names.extend_from_slice(columns);

    let idx: Vec<usize> = names
        .iter()
        .map(|n| {
            table
                .def
                .column_index(n)
                .unwrap_or_else(|| panic!("unknown column {n:?} in {}", table.def.name))
        })
        .collect();
    let defs = idx
        .iter()
        .map(|&i| table.def.columns[i].clone())
        .collect::<Vec<_>>();
    let frag_name = format!("{}.{}", table.def.name, names.join("+"));
    FragmentData {
        def: TableDef::new(frag_name, defs),
        columns: idx.iter().map(|&i| table.columns()[i].clone()).collect(),
    }
}

/// Extracts a horizontal fragment: all columns, rows matching the
/// predicate. The fragment is named `"<table>#<part>"`.
pub fn extract_horizontal(table: &Table, predicate: &Predicate, part: u32) -> FragmentData {
    let rows = table.select(Some(predicate));
    FragmentData {
        def: TableDef::new(
            format!("{}#{part}", table.def.name),
            table.def.columns.clone(),
        ),
        columns: table.columns().iter().map(|c| c.gather(&rows)).collect(),
    }
}

/// Extracts the whole table as a fragment (no partitioning).
pub fn extract_full(table: &Table) -> FragmentData {
    FragmentData {
        def: table.def.clone(),
        columns: table.columns().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::ColumnDef;
    use crate::types::{DataType, Value};

    fn lineitem() -> Table {
        let def = TableDef::new(
            "lineitem",
            vec![
                ColumnDef::new("l_id", DataType::I64, 8),
                ColumnDef::new("l_qty", DataType::I64, 8),
                ColumnDef::new("l_price", DataType::F64, 8),
                ColumnDef::new("l_comment", DataType::Str, 27),
            ],
        );
        let mut t = Table::new(def);
        for i in 0..100 {
            t.append(vec![
                Value::I64(i),
                Value::I64(i % 50),
                Value::F64(i as f64),
                Value::Str("c".repeat(27)),
            ]);
        }
        t
    }

    #[test]
    fn vertical_fragment_carries_pk() {
        let t = lineitem();
        let f = extract_vertical(&t, &["l_price"]);
        assert_eq!(f.def.columns.len(), 2);
        assert_eq!(f.def.columns[0].name, "l_id");
        assert_eq!(f.n_rows(), 100);
        assert_eq!(f.byte_size(), 100 * 16);
    }

    #[test]
    fn vertical_fragment_with_pk_listed_once() {
        let t = lineitem();
        let f = extract_vertical(&t, &["l_id", "l_qty"]);
        assert_eq!(f.def.columns.len(), 2);
    }

    #[test]
    fn horizontal_fragment_filters_rows() {
        let t = lineitem();
        let f = extract_horizontal(&t, &Predicate::cmp("l_qty", CmpOp::Lt, Value::I64(10)), 0);
        assert_eq!(f.n_rows(), 20); // 2 cycles of 0..9
        assert_eq!(f.def.name, "lineitem#0");
        assert_eq!(f.def.columns.len(), 4);
    }

    #[test]
    fn full_extract_roundtrips_size() {
        let t = lineitem();
        let f = extract_full(&t);
        assert_eq!(f.byte_size(), t.byte_size());
        assert_eq!(f.n_rows(), t.len());
    }

    #[test]
    fn vertical_sizes_sum_close_to_table() {
        // Columns partitioned into two fragments share the pk overhead.
        let t = lineitem();
        let f1 = extract_vertical(&t, &["l_qty"]);
        let f2 = extract_vertical(&t, &["l_price", "l_comment"]);
        let pk_overhead = 100 * 8;
        assert_eq!(f1.byte_size() + f2.byte_size(), t.byte_size() + pk_overhead);
    }
}
