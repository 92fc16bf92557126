//! Range partitioning and predicate analysis for the controller.
//!
//! Section 3.1's third classification option groups queries "based on
//! their predicates and, thus, create\[s\] a horizontal partitioning".
//! For the running system that means: a [`PartitionScheme`] splits a
//! table into ranges over one integer column, and
//! [`PartitionScheme::touched`] maps a request's predicate to the set
//! of partitions it can possibly read — the fragments of Eq. 2.
//! Analysis is conservative: anything it cannot reason about returns
//! *all* partitions, which is always correct (a superset of fragments
//! only costs placement freedom, never wrong answers).

use qcpa_storage::predicate::{CmpOp, Predicate};
use qcpa_storage::types::Value;

/// Range partitioning of one table over an integer column.
///
/// `bounds = [b0, b1, …]` produces partitions
/// `(-∞, b0)`, `[b0, b1)`, …, `[b_last, ∞)` — `bounds.len() + 1` in
/// total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionScheme {
    /// The partitioned table.
    pub table: String,
    /// The integer partition column.
    pub column: String,
    /// Ascending range boundaries.
    pub bounds: Vec<i64>,
}

impl PartitionScheme {
    /// Creates a scheme; bounds must be strictly ascending.
    pub fn new(table: impl Into<String>, column: impl Into<String>, bounds: Vec<i64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        assert!(!bounds.is_empty(), "need at least one bound");
        Self {
            table: table.into(),
            column: column.into(),
            bounds,
        }
    }

    /// Number of partitions.
    pub fn n_parts(&self) -> usize {
        self.bounds.len() + 1
    }

    /// The partition holding rows with partition-column value `v`.
    pub fn part_of(&self, v: i64) -> usize {
        self.bounds.partition_point(|&b| b <= v)
    }

    /// The partition's range as a storage predicate (for extraction).
    pub fn range_predicate(&self, part: usize) -> Predicate {
        assert!(part < self.n_parts(), "partition out of range");
        let lo = if part == 0 {
            None
        } else {
            Some(self.bounds[part - 1])
        };
        let hi = self.bounds.get(part).copied();
        match (lo, hi) {
            (None, Some(h)) => Predicate::cmp(&self.column, CmpOp::Lt, Value::I64(h)),
            (Some(l), None) => Predicate::cmp(&self.column, CmpOp::Ge, Value::I64(l)),
            (Some(l), Some(h)) => Predicate::cmp(&self.column, CmpOp::Ge, Value::I64(l))
                .and(Predicate::cmp(&self.column, CmpOp::Lt, Value::I64(h))),
            (None, None) => unreachable!("at least one bound exists"),
        }
    }

    /// The canonical fragment name of a partition (matches
    /// [`qcpa_storage::fragmentation::extract_horizontal`]'s naming).
    pub fn fragment_name(&self, part: usize) -> String {
        format!("{}#{part}", self.table)
    }

    /// The partitions a predicate can possibly select, as a sorted list.
    /// `None` (no predicate) touches everything; analysis that cannot
    /// narrow the predicate conservatively returns all partitions.
    pub fn touched(&self, predicate: Option<&Predicate>) -> Vec<usize> {
        let mask = match predicate {
            None => self.all(),
            Some(p) => self.analyze(p),
        };
        (0..self.n_parts()).filter(|&p| mask[p]).collect()
    }

    fn all(&self) -> Vec<bool> {
        vec![true; self.n_parts()]
    }

    fn none(&self) -> Vec<bool> {
        vec![false; self.n_parts()]
    }

    /// Returns a partition mask: `mask[p]` = the predicate may select
    /// rows of partition `p`.
    fn analyze(&self, p: &Predicate) -> Vec<bool> {
        match p {
            Predicate::Cmp { column, op, value } => {
                if column != &self.column {
                    return self.all();
                }
                let Value::I64(v) = value else {
                    return self.all();
                };
                let v = *v;
                let mut mask = self.none();
                for (part, m) in mask.iter_mut().enumerate() {
                    // Partition range [lo, hi).
                    let lo = if part == 0 {
                        i64::MIN
                    } else {
                        self.bounds[part - 1]
                    };
                    let hi = self.bounds.get(part).copied().unwrap_or(i64::MAX);
                    *m = match op {
                        CmpOp::Eq => lo <= v && (v < hi || hi == i64::MAX),
                        CmpOp::Ne => true, // can match almost everywhere
                        CmpOp::Lt => lo < v,
                        CmpOp::Le => lo <= v,
                        CmpOp::Gt => hi == i64::MAX || v < hi - 1 || v < hi,
                        CmpOp::Ge => hi == i64::MAX || v < hi,
                    };
                }
                mask
            }
            Predicate::And(a, b) => {
                let ma = self.analyze(a);
                let mb = self.analyze(b);
                ma.iter().zip(&mb).map(|(&x, &y)| x && y).collect()
            }
            Predicate::Or(a, b) => {
                let ma = self.analyze(a);
                let mb = self.analyze(b);
                ma.iter().zip(&mb).map(|(&x, &y)| x || y).collect()
            }
            // Complements of range masks are not representable exactly
            // (a NOT can still select any partition's rows), so stay
            // conservative.
            Predicate::Not(_) => self.all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> PartitionScheme {
        // (-inf,10) [10,20) [20,30) [30,inf)
        PartitionScheme::new("orders", "o_id", vec![10, 20, 30])
    }

    #[test]
    fn part_of_maps_values_to_ranges() {
        let s = scheme();
        assert_eq!(s.n_parts(), 4);
        assert_eq!(s.part_of(-5), 0);
        assert_eq!(s.part_of(9), 0);
        assert_eq!(s.part_of(10), 1);
        assert_eq!(s.part_of(19), 1);
        assert_eq!(s.part_of(20), 2);
        assert_eq!(s.part_of(30), 3);
        assert_eq!(s.part_of(1000), 3);
    }

    #[test]
    fn range_predicates_select_their_partition_exactly() {
        let s = scheme();
        for v in [-5i64, 0, 9, 10, 15, 20, 29, 30, 99] {
            let expected = s.part_of(v);
            for part in 0..s.n_parts() {
                let pred = s.range_predicate(part);
                let hit = pred.eval(&|c| {
                    if c == "o_id" {
                        Some(Value::I64(v))
                    } else {
                        None
                    }
                });
                assert_eq!(hit, part == expected, "v={v}, part={part}");
            }
        }
    }

    #[test]
    fn eq_predicate_touches_one_partition() {
        let s = scheme();
        let p = Predicate::cmp("o_id", CmpOp::Eq, Value::I64(15));
        assert_eq!(s.touched(Some(&p)), vec![1]);
    }

    #[test]
    fn range_predicates_narrow_correctly() {
        let s = scheme();
        let lt = Predicate::cmp("o_id", CmpOp::Lt, Value::I64(12));
        assert_eq!(s.touched(Some(&lt)), vec![0, 1]);
        let ge = Predicate::cmp("o_id", CmpOp::Ge, Value::I64(25));
        assert_eq!(s.touched(Some(&ge)), vec![2, 3]);
        let window = Predicate::cmp("o_id", CmpOp::Ge, Value::I64(12)).and(Predicate::cmp(
            "o_id",
            CmpOp::Lt,
            Value::I64(22),
        ));
        assert_eq!(s.touched(Some(&window)), vec![1, 2]);
    }

    #[test]
    fn or_unions_and_unrelated_columns_stay_conservative() {
        let s = scheme();
        let either = Predicate::cmp("o_id", CmpOp::Eq, Value::I64(5)).or(Predicate::cmp(
            "o_id",
            CmpOp::Eq,
            Value::I64(35),
        ));
        assert_eq!(s.touched(Some(&either)), vec![0, 3]);
        let other = Predicate::cmp("o_total", CmpOp::Gt, Value::F64(10.0));
        assert_eq!(s.touched(Some(&other)), vec![0, 1, 2, 3]);
        assert_eq!(s.touched(None), vec![0, 1, 2, 3]);
    }

    #[test]
    fn analysis_is_sound_never_missing_a_matching_partition() {
        // Soundness spot check: for many (predicate, value) pairs, if
        // the predicate matches a row, the row's partition is in the
        // touched set.
        let s = scheme();
        let preds = [
            Predicate::cmp("o_id", CmpOp::Lt, Value::I64(17)),
            Predicate::cmp("o_id", CmpOp::Ge, Value::I64(10)).and(Predicate::cmp(
                "o_id",
                CmpOp::Le,
                Value::I64(30),
            )),
            Predicate::cmp("o_id", CmpOp::Ne, Value::I64(3)),
            Predicate::cmp("o_id", CmpOp::Gt, Value::I64(29)),
            Predicate::cmp("o_id", CmpOp::Eq, Value::I64(10)).not(),
        ];
        for p in &preds {
            let touched = s.touched(Some(p));
            for v in -50i64..80 {
                let matches = p.eval(&|c| {
                    if c == "o_id" {
                        Some(Value::I64(v))
                    } else {
                        None
                    }
                });
                if matches {
                    assert!(
                        touched.contains(&s.part_of(v)),
                        "{p:?} matches {v} but partition {} untouched",
                        s.part_of(v)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bounds_must_ascend() {
        PartitionScheme::new("t", "c", vec![10, 10]);
    }
}
