//! Minimal CSV reader/writer with schema inference.
//!
//! Supports the subset of RFC 4180 the workspace needs: comma separation,
//! double-quote quoting with `""` escapes, a mandatory header row. Schema
//! inference tries `int64 → float64 → bool → categorical` per column over
//! the whole file, so a column containing `1, 2, x` lands on categorical
//! rather than erroring halfway through. A `float64` column holds finite
//! values only: `NaN`, `inf` and overflowing literals parse as floats in
//! Rust but have no place on a histogram axis, so a column containing
//! one is categorical too.

use crate::column::Column;
use crate::table::Table;
use crate::{DataError, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>) -> Result<Table> {
    let file = std::fs::File::open(path)?;
    read_csv(BufReader::new(file))
}

/// Reads CSV from any reader. The first row is the header.
pub fn read_csv<R: Read>(reader: R) -> Result<Table> {
    let mut lines = BufReader::new(reader).lines();
    let header_line = match lines.next() {
        Some(l) => l?,
        None => {
            return Err(DataError::Csv {
                line: 0,
                reason: "empty input".into(),
            })
        }
    };
    let headers = parse_record(&header_line, 0)?;
    if headers.is_empty() {
        return Err(DataError::Csv {
            line: 0,
            reason: "empty header".into(),
        });
    }
    let ncols = headers.len();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); ncols];
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let record = parse_record(&line, lineno + 1)?;
        if record.len() != ncols {
            return Err(DataError::Csv {
                line: lineno + 1,
                reason: format!("expected {ncols} fields, found {}", record.len()),
            });
        }
        for (col, field) in cells.iter_mut().zip(record) {
            col.push(field);
        }
    }
    if cells[0].is_empty() {
        return Err(DataError::Csv {
            line: 1,
            reason: "no data rows".into(),
        });
    }
    let columns = headers
        .into_iter()
        .zip(cells)
        .map(|(name, raw)| (name, infer_column(&raw)))
        .collect();
    Table::new(columns)
}

/// Writes a table as CSV to disk.
pub fn write_csv_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(table, std::io::BufWriter::new(file))
}

/// Writes a table as CSV to any writer.
pub fn write_csv<W: Write>(table: &Table, mut writer: W) -> Result<()> {
    let header = table
        .column_names()
        .iter()
        .map(|n| quote_field(n))
        .collect::<Vec<_>>()
        .join(",");
    writeln!(writer, "{header}")?;
    for row in 0..table.rows() {
        let mut fields = Vec::with_capacity(table.num_columns());
        for name in table.column_names() {
            let v = table.value(name, row).expect("in-range access");
            fields.push(quote_field(&v.to_string()));
        }
        writeln!(writer, "{}", fields.join(","))?;
    }
    writer.flush()?;
    Ok(())
}

/// Quotes a field if it contains separators, quotes, or newlines.
fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Parses one CSV record, honoring double-quote quoting.
fn parse_record(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut field)),
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv {
            line: lineno,
            reason: "unterminated quote".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}

/// Infers the narrowest type that fits every raw cell.
fn infer_column(raw: &[String]) -> Column {
    if raw.iter().all(|s| s.parse::<i64>().is_ok()) {
        return Column::Int64(raw.iter().map(|s| s.parse().expect("checked")).collect());
    }
    let finite = |s: &String| s.parse::<f64>().is_ok_and(f64::is_finite);
    if raw.iter().all(finite) {
        return Column::Float64(raw.iter().map(|s| s.parse().expect("checked")).collect());
    }
    if raw.iter().all(|s| s == "true" || s == "false") {
        return Column::Bool(raw.iter().map(|s| s == "true").collect());
    }
    Column::categorical_from_strs(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::table::TableBuilder;
    use crate::value::Value;

    #[test]
    fn roundtrip_all_types() {
        let t = TableBuilder::new()
            .push("age", Column::Int64(vec![25, 40]))
            .push("salary", Column::Float64(vec![30.5, 81.25]))
            .push("sex", Column::categorical_from_strs(&["M", "F"]))
            .push("over", Column::Bool(vec![true, false]))
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.column_type("age").unwrap(), ColumnType::Int64);
        assert_eq!(back.column_type("salary").unwrap(), ColumnType::Float64);
        assert_eq!(back.column_type("sex").unwrap(), ColumnType::Categorical);
        assert_eq!(back.column_type("over").unwrap(), ColumnType::Bool);
        assert_eq!(back.value("salary", 1).unwrap(), Value::Float(81.25));
        assert_eq!(back.value("sex", 0).unwrap(), Value::Str("M".into()));
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let t = TableBuilder::new()
            .push(
                "job",
                Column::categorical_from_strs(&["Craft, repair", "Say \"hi\""]),
            )
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"Craft, repair\""));
        assert!(text.contains("\"Say \"\"hi\"\"\""));
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(
            back.value("job", 0).unwrap(),
            Value::Str("Craft, repair".into())
        );
        assert_eq!(
            back.value("job", 1).unwrap(),
            Value::Str("Say \"hi\"".into())
        );
    }

    #[test]
    fn schema_inference_fallbacks() {
        let csv = "a,b,c\n1,1.5,true\n2,x,false\n";
        let t = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.column_type("a").unwrap(), ColumnType::Int64);
        // Column b mixes float and text → categorical.
        assert_eq!(t.column_type("b").unwrap(), ColumnType::Categorical);
        assert_eq!(t.column_type("c").unwrap(), ColumnType::Bool);
        // Ints promote to float when any cell is fractional.
        let t = read_csv("x\n1\n2.5\n".as_bytes()).unwrap();
        assert_eq!(t.column_type("x").unwrap(), ColumnType::Float64);
    }

    #[test]
    fn non_finite_cells_never_type_a_column_as_float() {
        // `f64::from_str` accepts all of these; a Float64 column holding
        // one would give every numeric histogram an infinite bin width.
        for cell in ["NaN", "inf", "-inf", "infinity", "1e999"] {
            let csv = format!("x,y\n1.5,1\n{cell},2\n2.5,3\n");
            let t = read_csv(csv.as_bytes()).unwrap();
            assert_eq!(
                t.column_type("x").unwrap(),
                ColumnType::Categorical,
                "{cell}"
            );
            assert_eq!(t.value("x", 1).unwrap(), Value::Str(cell.into()));
            assert_eq!(t.column_type("y").unwrap(), ColumnType::Int64);
        }
    }

    #[test]
    fn malformed_input_errors() {
        assert!(matches!(
            read_csv("".as_bytes()),
            Err(DataError::Csv { .. })
        ));
        assert!(matches!(
            read_csv("a,b\n1\n".as_bytes()),
            Err(DataError::Csv { .. })
        ));
        assert!(matches!(
            read_csv("a\n\"unterminated\n".as_bytes()),
            Err(DataError::Csv { .. })
        ));
        assert!(matches!(
            read_csv("a,b\n".as_bytes()),
            Err(DataError::Csv { .. })
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = read_csv("a\n1\n\n2\n\n".as_bytes()).unwrap();
        assert_eq!(t.rows(), 2);
    }

    #[test]
    fn path_roundtrip() {
        let t = TableBuilder::new()
            .push("v", Column::Int64(vec![1, 2, 3]))
            .build()
            .unwrap();
        let path = std::env::temp_dir().join("aware_csv_test.csv");
        write_csv_path(&t, &path).unwrap();
        let back = read_csv_path(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }
}
