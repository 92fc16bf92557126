//! From an abstract [`Allocation`] to each backend's physical column
//! layout.
//!
//! The allocation speaks in fragment ids (tables and/or columns); a
//! backend physically stores, per logical table, *one* fragment table
//! holding the union of the allocated columns plus the primary key —
//! exactly how the paper's prototype created table fragments in the
//! backend DBMSs.

use std::collections::BTreeMap;

use qcpa_core::allocation::Allocation;
use qcpa_core::fragment::{Catalog, FragmentKind};
use qcpa_storage::schema::Schema;

/// What a request touches of its table — Eq. 2's fragment set in the
/// layout's own terms, and the only input of the controller's request
/// path that depends on how the table is fragmented.
#[derive(Debug, Clone)]
pub(crate) enum Footprint {
    /// The referenced columns of a plain table (primary key included).
    Columns(Vec<String>),
    /// The touched partitions of a range-partitioned table, ascending.
    Parts(Vec<usize>),
}

impl Footprint {
    /// The footprint as [`crate::CdbsError::NoCapableBackend`] reports it.
    pub(crate) fn describe(&self) -> Vec<String> {
        match self {
            Footprint::Columns(cols) => cols.clone(),
            Footprint::Parts(touched) => vec![format!("partitions {touched:?}")],
        }
    }
}

/// The footprint as the journal's query text carries it, directly after
/// the table name: `" [i_id,i_price]"` or `"#[0, 2]"`.
impl std::fmt::Display for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Footprint::Columns(cols) => write!(f, " [{}]", cols.join(",")),
            Footprint::Parts(touched) => write!(f, "#{touched:?}"),
        }
    }
}

/// One backend's stored columns per logical table. Tables absent from
/// the map are not stored at all; a stored table always includes its
/// primary key. Range-partitioned tables are tracked separately in
/// `parts`: the backend stores those partitions with *all* columns. The
/// catalog fragments such a table by range only, so where it appears in
/// `columns` it is a whole copy, good for every partition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableLayout {
    /// table name → sorted column names (primary key included).
    pub columns: BTreeMap<String, Vec<String>>,
    /// partitioned table name → sorted stored partition ordinals.
    pub parts: BTreeMap<String, Vec<usize>>,
}

impl TableLayout {
    /// True if the layout can answer a request touching the given
    /// columns of `table`.
    pub fn covers(&self, table: &str, needed: &[String]) -> bool {
        match self.columns.get(table) {
            None => false,
            Some(stored) => needed.iter().all(|c| stored.contains(c)),
        }
    }

    /// True if the layout stores everything of `footprint`: a read can
    /// run here, a write is applied completely.
    pub(crate) fn holds_all(&self, table: &str, footprint: &Footprint) -> bool {
        match footprint {
            Footprint::Columns(needed) => self.covers(table, needed),
            Footprint::Parts(touched) => {
                self.columns.contains_key(table)
                    || self
                        .parts
                        .get(table)
                        .is_some_and(|stored| touched.iter().all(|p| stored.contains(p)))
            }
        }
    }

    /// True if the layout stores anything of `footprint` — the ROWA
    /// overlap test.
    pub(crate) fn holds_any(&self, table: &str, footprint: &Footprint) -> bool {
        match footprint {
            Footprint::Columns(cols) => self
                .columns
                .get(table)
                .is_some_and(|stored| cols.iter().any(|c| stored.contains(c))),
            Footprint::Parts(touched) => {
                self.columns.contains_key(table)
                    || self
                        .parts
                        .get(table)
                        .is_some_and(|stored| touched.iter().any(|p| stored.contains(p)))
            }
        }
    }

    /// The canonical fragment name the backend stores for `table`
    /// (matches [`qcpa_storage::fragmentation::extract_vertical`]'s
    /// naming, or the plain table name when all columns are stored).
    pub fn fragment_name(&self, schema: &Schema, table: &str) -> Option<String> {
        let stored = self.columns.get(table)?;
        let def = schema.table(table)?;
        if stored.len() == def.columns.len() {
            Some(table.to_string())
        } else {
            Some(format!("{table}.{}", stored.join("+")))
        }
    }
}

/// Derives each backend's physical layout from the allocation:
/// a table fragment allocates every column; a column fragment
/// (`"table.column"`) allocates that column; the primary key is always
/// added to stored tables.
///
/// # Panics
/// Panics if a fragment name does not match the schema.
#[expect(
    clippy::panic,
    reason = "documented panic on a fragment the schema does not name"
)]
pub fn layout_from_allocation(
    alloc: &Allocation,
    catalog: &Catalog,
    schema: &Schema,
) -> Vec<TableLayout> {
    (0..alloc.n_backends())
        .map(|b| {
            let mut layout = TableLayout::default();
            for fid in &alloc.fragments[b] {
                let frag = catalog.fragment(fid);
                match frag.kind {
                    FragmentKind::Table => {
                        let def = schema
                            .table(&frag.name)
                            .unwrap_or_else(|| panic!("unknown table {:?}", frag.name));
                        layout.columns.insert(
                            frag.name.clone(),
                            def.columns.iter().map(|c| c.name.clone()).collect(),
                        );
                    }
                    FragmentKind::Column { table } => {
                        let table_name = &catalog.fragment(table).name;
                        let column = frag
                            .name
                            .strip_prefix(&format!("{table_name}."))
                            .unwrap_or(&frag.name)
                            .to_string();
                        layout
                            .columns
                            .entry(table_name.clone())
                            .or_default()
                            .push(column);
                    }
                    FragmentKind::Horizontal { table, part } => {
                        let table_name = catalog.fragment(table).name.clone();
                        layout
                            .parts
                            .entry(table_name)
                            .or_default()
                            .push(part as usize);
                    }
                }
            }
            for parts in layout.parts.values_mut() {
                parts.sort_unstable();
                parts.dedup();
            }
            // Primary keys, sorting, dedup.
            for (table, cols) in layout.columns.iter_mut() {
                let def = schema
                    .table(table)
                    .unwrap_or_else(|| panic!("unknown table {table:?}"));
                cols.push(def.primary_key().name.clone());
                // Keep schema order: it determines the fragment name.
                let order: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
                cols.sort_by_key(|c| order.iter().position(|o| o == c));
                cols.dedup();
            }
            layout
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcpa_core::classify::{Classification, QueryClass};
    use qcpa_core::cluster::ClusterSpec;
    use qcpa_core::greedy;
    use qcpa_storage::catalog::build_catalog;
    use qcpa_storage::schema::{ColumnDef, TableDef};
    use qcpa_storage::types::DataType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::I64, 8),
                ColumnDef::new("x", DataType::I64, 8),
                ColumnDef::new("y", DataType::I64, 8),
            ],
        ));
        s
    }

    #[test]
    fn column_fragments_become_table_layouts_with_pk() {
        let schema = schema();
        let catalog = build_catalog(&schema, &[100]);
        let x = catalog.by_name("t.x").unwrap();
        let y = catalog.by_name("t.y").unwrap();
        let cls = Classification::from_classes(vec![
            QueryClass::read(0, [x], 0.6),
            QueryClass::read(1, [y], 0.4),
        ])
        .unwrap();
        let cluster = ClusterSpec::homogeneous(2);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let layouts = layout_from_allocation(&alloc, &catalog, &schema);
        // Each backend stores its column plus the pk.
        for l in &layouts {
            if let Some(cols) = l.columns.get("t") {
                assert!(cols.contains(&"id".to_string()));
                assert!(cols.len() >= 2);
            }
        }
        // Coverage checks.
        let serving_x = layouts
            .iter()
            .filter(|l| l.covers("t", &["id".into(), "x".into()]))
            .count();
        assert!(serving_x >= 1);
    }

    #[test]
    fn table_fragment_stores_all_columns() {
        let schema = schema();
        let catalog = build_catalog(&schema, &[100]);
        let t = catalog.by_name("t").unwrap();
        let cls = Classification::from_classes(vec![QueryClass::read(0, [t], 1.0)]).unwrap();
        let cluster = ClusterSpec::homogeneous(1);
        let alloc = greedy::allocate(&cls, &catalog, &cluster);
        let layouts = layout_from_allocation(&alloc, &catalog, &schema);
        assert_eq!(layouts[0].columns["t"].len(), 3);
        assert_eq!(
            layouts[0].fragment_name(&schema, "t"),
            Some("t".to_string())
        );
    }

    #[test]
    fn fragment_names_match_extraction_naming() {
        let schema = schema();
        let mut layout = TableLayout::default();
        layout
            .columns
            .insert("t".into(), vec!["id".into(), "y".into()]);
        assert_eq!(
            layout.fragment_name(&schema, "t"),
            Some("t.id+y".to_string())
        );
    }
}
