//! Schemas: column and table definitions with byte widths.
//!
//! Byte widths drive everything size-related in the allocation model —
//! fragment sizes, degree of replication (Eq. 28), ETL costs (Eq. 27) —
//! so they are explicit per column (average width for variable-length
//! strings, as catalog statistics would report).

use crate::engine::StorageError;
use crate::types::{DataType, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within its table).
    pub name: String,
    /// Data type.
    pub ty: DataType,
    /// Average stored width in bytes (drives fragment sizing).
    pub byte_width: u32,
}

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, ty: DataType, byte_width: u32) -> Self {
        Self {
            name: name.into(),
            ty,
            byte_width,
        }
    }
}

/// A table definition: named columns, the first of which is the primary
/// key by convention (vertical fragments always carry it so rows remain
/// reconstructible, as Section 3.1 requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name (unique within the schema).
    pub name: String,
    /// Columns; index 0 is the primary key.
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Creates a table definition.
    ///
    /// # Panics
    /// Panics if there are no columns or column names collide.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        assert!(!columns.is_empty(), "table needs at least one column");
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|o| o.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Self {
            name: name.into(),
            columns,
        }
    }

    /// Bytes per row: the sum of column widths.
    pub fn row_width(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_width as u64).sum()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The primary-key column.
    pub fn primary_key(&self) -> &ColumnDef {
        &self.columns[0]
    }

    /// Checks that `row` can be appended to a table of this definition:
    /// one value per column, each of its column's type.
    ///
    /// # Errors
    /// [`StorageError::RowArity`] on a wrong value count, else
    /// [`StorageError::TypeMismatch`] for the first mistyped value.
    pub fn check_row(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.columns.len() {
            return Err(StorageError::RowArity {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        self.columns
            .iter()
            .zip(row)
            .try_for_each(|(c, v)| self.check_type(c, v))
    }

    /// Checks that `value` can be stored in `column`.
    ///
    /// # Errors
    /// [`StorageError::NoSuchColumn`] if the column does not exist, else
    /// [`StorageError::TypeMismatch`] if the value has another type.
    pub fn check_value(&self, column: &str, value: &Value) -> Result<(), StorageError> {
        let c = self
            .column_index(column)
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: self.name.clone(),
                column: column.to_string(),
            })?;
        self.check_type(&self.columns[c], value)
    }

    fn check_type(&self, c: &ColumnDef, v: &Value) -> Result<(), StorageError> {
        if v.data_type() == c.ty {
            return Ok(());
        }
        Err(StorageError::TypeMismatch {
            table: self.name.clone(),
            column: c.name.clone(),
            expected: c.ty,
            got: v.data_type(),
        })
    }
}

/// A database schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    /// Tables of the database.
    pub tables: Vec<TableDef>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table.
    ///
    /// # Panics
    /// Panics on duplicate table names.
    pub fn add_table(&mut self, table: TableDef) {
        assert!(
            self.table(&table.name).is_none(),
            "duplicate table name {:?}",
            table.name
        );
        self.tables.push(table);
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> TableDef {
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("o_id", DataType::I64, 8),
                ColumnDef::new("o_total", DataType::F64, 8),
                ColumnDef::new("o_comment", DataType::Str, 48),
            ],
        )
    }

    #[test]
    fn row_width_sums_columns() {
        assert_eq!(orders().row_width(), 64);
    }

    #[test]
    fn column_lookup() {
        let t = orders();
        assert_eq!(t.column_index("o_total"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.primary_key().name, "o_id");
    }

    #[test]
    fn schema_lookup() {
        let mut s = Schema::new();
        s.add_table(orders());
        assert!(s.table("orders").is_some());
        assert!(s.table("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_rejected() {
        TableDef::new(
            "t",
            vec![
                ColumnDef::new("x", DataType::I64, 8),
                ColumnDef::new("x", DataType::I64, 8),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_tables_rejected() {
        let mut s = Schema::new();
        s.add_table(orders());
        s.add_table(orders());
    }
}
