//! Data fragments and the fragment catalog.
//!
//! A *fragment* is the unit of data placement (Section 3.1 of the paper):
//! a whole relation (no partitioning), a column of a relation (vertical
//! partitioning), or a horizontal partition determined by a predicate or
//! range. The [`Catalog`] registers every fragment with its size in bytes
//! and records the containment relation between columns/partitions and
//! their parent tables so classifications can be computed at any
//! granularity.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Identifier of a data fragment within a [`Catalog`].
///
/// Fragment ids are dense indices: the fragment with id `j` is
/// `catalog.fragments()[j]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FragmentId(pub u32);

impl FragmentId {
    /// The fragment id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FragmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// A set of fragments as a dense bitset over the catalog's id space:
/// fragment `j` is bit `j % 64` of word `j / 64`. Iteration is
/// ascending, and the set serializes, prints and orders exactly like a
/// `BTreeSet<FragmentId>` holding the same ids.
///
/// The word count is not part of the value: sets built without knowing
/// the catalog size (e.g. by [`crate::allocation::Allocation::empty`])
/// grow on insert, and equality ignores trailing zero words.
#[derive(Clone, Default)]
pub struct FragSet {
    words: Vec<u64>,
}

impl FragSet {
    /// The empty set.
    pub const fn new() -> Self {
        Self { words: Vec::new() }
    }

    /// The bitset words, lowest ids first.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bitset words, first grown with zero words to at least `len`.
    #[inline]
    pub(crate) fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
        &mut self.words
    }

    /// Adds `f`; returns whether it was absent.
    pub fn insert(&mut self, f: FragmentId) -> bool {
        let words = self.words_mut(f.idx() / 64 + 1);
        let absent = !bit(words, f.idx());
        put_bit(words, f.idx(), true);
        absent
    }

    /// Removes `f`; returns whether it was present.
    pub fn remove(&mut self, f: &FragmentId) -> bool {
        let present = self.contains(f);
        if present {
            put_bit(&mut self.words, f.idx(), false);
        }
        present
    }

    /// True if `f` is in the set.
    #[inline]
    pub fn contains(&self, f: &FragmentId) -> bool {
        f.idx() < self.words.len() * 64 && bit(&self.words, f.idx())
    }

    /// Number of fragments in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set holds no fragment.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The fragments in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        let (first, rest) = self.words.split_first().unwrap_or((&0, &[]));
        Iter {
            rest: rest.iter(),
            base: 0,
            word: *first,
        }
    }

    /// Adds every fragment of `other`.
    pub fn union_with(&mut self, other: &FragSet) {
        or_into(self.words_mut(other.words.len()), &other.words);
    }

    /// True if the two sets share a fragment.
    #[inline]
    pub fn intersects(&self, other: &FragSet) -> bool {
        intersects(&self.words, &other.words)
    }

    /// True if every fragment of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &FragSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// The fragments of `self` missing from `other`, ascending.
    pub fn difference<'a>(&'a self, other: &'a FragSet) -> impl Iterator<Item = FragmentId> + 'a {
        self.iter().filter(move |f| !other.contains(f))
    }
}

/// Bit `i` of a word slice (these primitives are shared with the
/// tracker's bitset rows in `crate::allocation`).
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets or clears bit `i` of a word slice.
#[inline]
pub(crate) fn put_bit(words: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    if on {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// True if two word slices share a set bit (over the shorter one).
#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// ORs `src` into `dst` (over the shorter one).
#[inline]
pub(crate) fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Indices of the set bits of `word`, ascending, offset by `base`.
#[inline]
pub(crate) fn ones(base: usize, word: u64) -> impl Iterator<Item = usize> {
    let rest = [].iter();
    Iter { rest, base, word }.map(|f| f.idx())
}

/// Ascending iterator over a [`FragSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    rest: std::slice::Iter<'a, u64>,
    base: usize,
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = FragmentId;

    #[inline]
    fn next(&mut self) -> Option<FragmentId> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(FragmentId((self.base + bit) as u32))
    }
}

impl<'a> IntoIterator for &'a FragSet {
    type Item = FragmentId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<FragmentId> for FragSet {
    fn extend<I: IntoIterator<Item = FragmentId>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl FromIterator<FragmentId> for FragSet {
    fn from_iter<I: IntoIterator<Item = FragmentId>>(iter: I) -> Self {
        let mut set = FragSet::new();
        set.extend(iter);
        set
    }
}

impl PartialEq for FragSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for FragSet {}

impl PartialOrd for FragSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the ascending ids, as `BTreeSet` orders.
impl Ord for FragSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl std::fmt::Debug for FragSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The ascending id sequence, as `BTreeSet<FragmentId>` serializes.
impl Serialize for FragSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|f| f.to_value()).collect())
    }
}

impl Deserialize for FragSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<FragmentId>::from_value(v).map(FragSet::from_iter)
    }
}

/// The kind of a data fragment, determining the partitioning granularity
/// it participates in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragmentKind {
    /// An entire relation (no partitioning).
    Table,
    /// A single column (vertical partitioning). `table` is the owning
    /// relation's fragment.
    Column {
        /// The table fragment this column belongs to.
        table: FragmentId,
    },
    /// A horizontal partition of a relation, e.g. a predicate range.
    Horizontal {
        /// The table fragment this partition belongs to.
        table: FragmentId,
        /// Ordinal of the partition within its table.
        part: u32,
    },
}

/// A registered data fragment: name, byte size, and kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// Dense identifier of this fragment.
    pub id: FragmentId,
    /// Human readable name, e.g. `"lineitem"` or `"lineitem.l_quantity"`.
    pub name: String,
    /// Size of the fragment in bytes.
    pub size: u64,
    /// Kind (table / column / horizontal partition).
    pub kind: FragmentKind,
}

/// Registry of all data fragments of a database.
///
/// The catalog is the bridge between the logical schema (owned by the
/// storage layer or a workload generator) and the allocation model, which
/// only needs fragment identities, sizes and the column→table containment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    fragments: Vec<Fragment>,
    // BTreeMap, not HashMap: the map is iterated nowhere today, but a
    // hash map here would be one refactor away from leaking process-
    // random iteration order into allocation results (audit: hash-iter).
    by_name: BTreeMap<String, FragmentId>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table fragment and returns its id.
    ///
    /// # Panics
    /// Panics if a fragment with the same name is already registered.
    pub fn add_table(&mut self, name: impl Into<String>, size: u64) -> FragmentId {
        self.add(name.into(), size, FragmentKind::Table)
    }

    /// Registers a column fragment belonging to `table` and returns its id.
    ///
    /// # Panics
    /// Panics if the name is taken or `table` is not a table fragment.
    pub fn add_column(
        &mut self,
        table: FragmentId,
        name: impl Into<String>,
        size: u64,
    ) -> FragmentId {
        assert!(
            matches!(self.fragments[table.idx()].kind, FragmentKind::Table),
            "parent of a column must be a table fragment"
        );
        self.add(name.into(), size, FragmentKind::Column { table })
    }

    /// Registers a horizontal partition of `table` and returns its id.
    ///
    /// # Panics
    /// Panics if the name is taken or `table` is not a table fragment.
    pub fn add_horizontal(
        &mut self,
        table: FragmentId,
        part: u32,
        name: impl Into<String>,
        size: u64,
    ) -> FragmentId {
        assert!(
            matches!(self.fragments[table.idx()].kind, FragmentKind::Table),
            "parent of a partition must be a table fragment"
        );
        self.add(name.into(), size, FragmentKind::Horizontal { table, part })
    }

    fn add(&mut self, name: String, size: u64, kind: FragmentKind) -> FragmentId {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate fragment name {name:?}"
        );
        let id = FragmentId(self.fragments.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.fragments.push(Fragment {
            id,
            name,
            size,
            kind,
        });
        id
    }

    /// All registered fragments, indexable by [`FragmentId::idx`].
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// The fragment with the given id.
    pub fn fragment(&self, id: FragmentId) -> &Fragment {
        &self.fragments[id.idx()]
    }

    /// Size in bytes of the fragment with the given id.
    #[inline]
    pub fn size(&self, id: FragmentId) -> u64 {
        self.fragments[id.idx()].size
    }

    /// Sum of sizes of a set of fragments.
    pub fn size_of_set(&self, ids: impl IntoIterator<Item = impl Borrow<FragmentId>>) -> u64 {
        ids.into_iter().map(|f| self.size(*f.borrow())).sum()
    }

    /// Looks up a fragment by name.
    pub fn by_name(&self, name: &str) -> Option<FragmentId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if no fragments are registered.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Maps a fragment to the fragment representing it at *table*
    /// granularity: columns and horizontal partitions map to their parent
    /// table, tables map to themselves.
    pub fn table_of(&self, id: FragmentId) -> FragmentId {
        match self.fragments[id.idx()].kind {
            FragmentKind::Table => id,
            FragmentKind::Column { table } => table,
            FragmentKind::Horizontal { table, .. } => table,
        }
    }

    /// Ids of all table fragments.
    pub fn tables(&self) -> impl Iterator<Item = FragmentId> + '_ {
        self.fragments
            .iter()
            .filter(|f| matches!(f.kind, FragmentKind::Table))
            .map(|f| f.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_looks_up_fragments() {
        let mut cat = Catalog::new();
        let t = cat.add_table("orders", 1000);
        let c = cat.add_column(t, "orders.o_id", 100);
        assert_eq!(cat.by_name("orders"), Some(t));
        assert_eq!(cat.by_name("orders.o_id"), Some(c));
        assert_eq!(cat.size(t), 1000);
        assert_eq!(cat.table_of(c), t);
        assert_eq!(cat.table_of(t), t);
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn horizontal_partitions_map_to_parent() {
        let mut cat = Catalog::new();
        let t = cat.add_table("lineitem", 8000);
        let h0 = cat.add_horizontal(t, 0, "lineitem.p0", 4000);
        let h1 = cat.add_horizontal(t, 1, "lineitem.p1", 4000);
        assert_eq!(cat.table_of(h0), t);
        assert_eq!(cat.table_of(h1), t);
        assert_eq!(cat.size_of_set([h0, h1]), 8000);
    }

    #[test]
    #[should_panic(expected = "duplicate fragment name")]
    fn duplicate_names_rejected() {
        let mut cat = Catalog::new();
        cat.add_table("t", 1);
        cat.add_table("t", 2);
    }
}
