//! Error type for the data engine.

use std::fmt;

/// Errors surfaced by table construction, filtering, and I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A referenced column does not exist.
    UnknownColumn {
        /// The missing column name.
        name: String,
    },
    /// A predicate or histogram was applied to a column of the wrong type.
    TypeMismatch {
        /// The column involved.
        column: String,
        /// What the operation expected.
        expected: &'static str,
        /// What the column actually is.
        actual: &'static str,
    },
    /// Columns of differing lengths were combined into one table.
    LengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Offending column's length.
        got: usize,
        /// Offending column's name.
        column: String,
    },
    /// A selection bitmap sized for a different table was used.
    SelectionSizeMismatch {
        /// Rows in the table.
        table_rows: usize,
        /// Bits in the bitmap.
        bitmap_bits: usize,
    },
    /// Duplicate column name at table construction.
    DuplicateColumn {
        /// The repeated name.
        name: String,
    },
    /// CSV parsing failure.
    Csv {
        /// 1-based line number where parsing failed (0 = header).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An empty table or column where data was required.
    Empty {
        /// Operation that required data.
        context: &'static str,
    },
    /// Invalid argument (bin count of zero, sample fraction out of range …).
    InvalidArgument {
        /// Operation that rejected the argument.
        context: &'static str,
        /// Constraint that was violated.
        constraint: &'static str,
    },
    /// A numeric column holds a `NaN` or infinite cell, so fixed-width
    /// bins over its range are undefined.
    NonFinite {
        /// The offending column.
        column: String,
        /// First row (0-based) holding a non-finite value.
        row: usize,
    },
    /// Underlying I/O failure (message-only so the error stays `Clone`).
    Io {
        /// Stringified `std::io::Error`.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownColumn { name } => write!(f, "unknown column `{name}`"),
            DataError::TypeMismatch {
                column,
                expected,
                actual,
            } => {
                write!(f, "column `{column}`: expected {expected}, found {actual}")
            }
            DataError::LengthMismatch {
                expected,
                got,
                column,
            } => {
                write!(f, "column `{column}` has {got} rows, table has {expected}")
            }
            DataError::SelectionSizeMismatch {
                table_rows,
                bitmap_bits,
            } => {
                write!(
                    f,
                    "selection has {bitmap_bits} bits but table has {table_rows} rows"
                )
            }
            DataError::DuplicateColumn { name } => write!(f, "duplicate column `{name}`"),
            DataError::Csv { line, reason } => {
                write!(f, "csv parse error at line {line}: {reason}")
            }
            DataError::Empty { context } => write!(f, "{context}: empty input"),
            DataError::InvalidArgument {
                context,
                constraint,
            } => {
                write!(f, "{context}: argument violates `{constraint}`")
            }
            DataError::NonFinite { column, row } => {
                write!(f, "column `{column}`: non-finite value at row {row}")
            }
            DataError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::UnknownColumn {
            name: "wage".into(),
        };
        assert!(e.to_string().contains("wage"));
        let e = DataError::TypeMismatch {
            column: "age".into(),
            expected: "categorical",
            actual: "int64",
        };
        assert!(e.to_string().contains("age"));
        assert!(e.to_string().contains("categorical"));
        let e: DataError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
    }
}
