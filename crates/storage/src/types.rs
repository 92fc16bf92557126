//! Values and data types.

/// The engine's data types. Their declaration order is the order
/// [`Value::total_cmp`] gives values of different types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    I64,
    /// 64-bit float (also used for decimals).
    F64,
    /// Variable-length UTF-8 string.
    Str,
    /// Date as days since the epoch.
    Date,
}

/// A single value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Date as days since the epoch.
    Date(i32),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
        }
    }

    /// Numeric view for aggregation; strings aggregate as their length.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::I64(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Str(s) => s.len() as f64,
            Value::Date(d) => *d as f64,
        }
    }

    /// Total order used by predicates: floats by `f64::total_cmp`,
    /// `I64` against `F64` through `as f64`, any other pair of different
    /// types by type (never expected in valid scans).
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use Value::*;
        match (self, other) {
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (I64(a), F64(b)) => (*a as f64).total_cmp(b),
            (F64(a), I64(b)) => a.total_cmp(&(*b as f64)),
            _ => self.data_type().cmp(&other.data_type()),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "d{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags() {
        assert_eq!(Value::I64(1).data_type(), DataType::I64);
        assert_eq!(Value::Str("x".into()).data_type(), DataType::Str);
    }

    #[test]
    fn numeric_view() {
        assert_eq!(Value::I64(3).as_f64(), 3.0);
        assert_eq!(Value::Date(10).as_f64(), 10.0);
        assert_eq!(Value::Str("abc".into()).as_f64(), 3.0);
    }

    #[test]
    fn ordering_within_and_across_numeric_types() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::I64(1).total_cmp(&Value::I64(2)), Less);
        assert_eq!(Value::I64(2).total_cmp(&Value::F64(1.5)), Greater);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Less
        );
        // Other mixed pairs order by type, whatever the values.
        assert_eq!(Value::Str("z".into()).total_cmp(&Value::Date(0)), Less);
        assert_eq!(Value::Date(0).total_cmp(&Value::I64(5)), Greater);
        assert_eq!(Value::F64(9.0).total_cmp(&Value::Str(String::new())), Less);
    }
}
