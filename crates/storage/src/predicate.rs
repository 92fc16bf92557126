//! Scan predicates.
//!
//! [`Predicate::eval`] is the written definition of what a predicate
//! means on one row. Scans do not call it: [`crate::table::Table::select`]
//! evaluates a column at a time and the property suite checks it against
//! `eval` row by row. Its one runtime caller is
//! [`crate::table::Table::write_set`], which finds the rows an update
//! writes.

use crate::types::Value;

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Whether `left <op> right` holds, given how `left` orders against
    /// `right`.
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// A predicate over a row, referencing columns by name.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column <op> literal`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column <op> value`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: Value) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op,
            value,
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a combinator named after the SQL keyword, not `std::ops::Not`"
    )]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Column names the predicate references (with duplicates).
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Cmp { column, .. } => out.push(column),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Evaluates against a row given a name→value lookup: values order
    /// by [`Value::total_cmp`], and a comparison on a column the lookup
    /// does not know is false. The reference semantics of scans.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<Value>) -> bool {
        match self {
            Predicate::Cmp { column, op, value } => match lookup(column) {
                Some(v) => op.holds(v.total_cmp(value)),
                None => false,
            },
            Predicate::And(a, b) => a.eval(lookup) && b.eval(lookup),
            Predicate::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            Predicate::Not(p) => !p.eval(lookup),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: &str) -> Option<Value> {
        match k {
            "qty" => Some(Value::I64(24)),
            "price" => Some(Value::F64(9.5)),
            "flag" => Some(Value::Str("R".into())),
            _ => None,
        }
    }

    #[test]
    fn comparisons() {
        assert!(Predicate::cmp("qty", CmpOp::Lt, Value::I64(25)).eval(&row));
        assert!(!Predicate::cmp("qty", CmpOp::Gt, Value::I64(25)).eval(&row));
        assert!(Predicate::cmp("flag", CmpOp::Eq, Value::Str("R".into())).eval(&row));
        assert!(Predicate::cmp("price", CmpOp::Ge, Value::F64(9.5)).eval(&row));
    }

    #[test]
    fn boolean_combinators() {
        let p = Predicate::cmp("qty", CmpOp::Lt, Value::I64(25)).and(Predicate::cmp(
            "price",
            CmpOp::Gt,
            Value::F64(5.0),
        ));
        assert!(p.eval(&row));
        let q = Predicate::cmp("qty", CmpOp::Gt, Value::I64(100)).or(Predicate::cmp(
            "flag",
            CmpOp::Eq,
            Value::Str("R".into()),
        ));
        assert!(q.eval(&row));
        assert!(!q.clone().not().eval(&row));
    }

    #[test]
    fn missing_column_is_false() {
        assert!(!Predicate::cmp("nope", CmpOp::Eq, Value::I64(1)).eval(&row));
    }

    #[test]
    fn referenced_columns() {
        let p = Predicate::cmp("a", CmpOp::Eq, Value::I64(1))
            .and(Predicate::cmp("b", CmpOp::Eq, Value::I64(2)).not());
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert!(Predicate::cmp("qty", CmpOp::Gt, Value::F64(23.5)).eval(&row));
    }
}
