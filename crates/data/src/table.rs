//! Immutable column-oriented tables.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnType};
use crate::hist::BucketIndex;
use crate::rank::RankSlices;
use crate::value::Value;
use crate::{DataError, Result};
use std::sync::{Arc, OnceLock};

/// A named, typed, immutable table.
///
/// Tables are cheap to share (`Arc<Table>` upstream) and all exploration
/// operations — filtering, histograms, sampling — are non-destructive reads.
///
/// Each column carries a lazily built `BucketIndex`. It is derived
/// state: equality, [`Table::fingerprint`], `Debug` and the tables
/// [`Table::filter`]/[`Table::project`] return never see it, and a clone
/// shares the indexes already built.
#[derive(Clone)]
pub struct Table {
    names: Vec<String>,
    columns: Vec<Column>,
    rows: usize,
    indexes: Vec<OnceLock<Result<Option<Arc<BucketIndex>>>>>,
    /// Index builds run on this table and its clones.
    #[cfg(test)]
    index_builds: Arc<std::sync::atomic::AtomicUsize>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.names == other.names && self.columns == other.columns
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("names", &self.names)
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .finish_non_exhaustive()
    }
}

impl Table {
    /// Builds a table from `(name, column)` pairs.
    ///
    /// All columns must have equal length and distinct names. A table with
    /// zero columns is invalid.
    pub fn new(columns: Vec<(String, Column)>) -> Result<Table> {
        if columns.is_empty() {
            return Err(DataError::Empty {
                context: "Table::new",
            });
        }
        let rows = columns[0].1.len();
        let mut names = Vec::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        for (name, col) in columns {
            if names.contains(&name) {
                return Err(DataError::DuplicateColumn { name });
            }
            if col.len() != rows {
                return Err(DataError::LengthMismatch {
                    expected: rows,
                    got: col.len(),
                    column: name,
                });
            }
            names.push(name);
            cols.push(col);
        }
        Ok(Table {
            indexes: cols.iter().map(|_| OnceLock::new()).collect(),
            #[cfg(test)]
            index_builds: Arc::default(),
            names,
            columns: cols,
            rows,
        })
    }

    /// The index slot of the column at `column`, filled on first use
    /// (racing first users build the index once and share it).
    fn index_slot(&self, column: usize) -> &Result<Option<Arc<BucketIndex>>> {
        self.indexes[column].get_or_init(|| {
            #[cfg(test)]
            self.index_builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let built = BucketIndex::build(&self.names[column], &self.columns[column])?;
            Ok(built.map(Arc::new))
        })
    }

    /// The bucket index of the column at `column`, built on first use.
    /// `None` when a dictionary has too many labels for its bucket
    /// bitmaps to be smaller than the column (its leaves and histograms
    /// then walk the rows); an error when a numeric column holds a
    /// non-finite cell.
    pub(crate) fn bucket_index(&self, column: usize) -> Result<Option<&BucketIndex>> {
        self.index_slot(column)
            .as_ref()
            .map(Option::as_deref)
            .map_err(DataError::clone)
    }

    /// The rank slices of the numeric column at `column`, built with its
    /// bucket index on first use. `None` — never an error — when the
    /// column has none (not numeric, too many distinct values, or a
    /// non-finite cell): its predicate leaves scan instead.
    pub(crate) fn rank_slices(&self, column: usize) -> Option<&RankSlices> {
        self.index_slot(column).as_ref().ok()?.as_deref()?.ranks()
    }

    /// Heap bytes held by the bucket indexes built so far.
    pub fn index_bytes(&self) -> usize {
        self.indexes
            .iter()
            .filter_map(|slot| slot.get()?.as_ref().ok()?.as_deref())
            .map(BucketIndex::bytes)
            .sum()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DataError::UnknownColumn {
                name: name.to_owned(),
            })
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Column by position.
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Type of a column by name.
    pub fn column_type(&self, name: &str) -> Result<ColumnType> {
        Ok(self.column(name)?.column_type())
    }

    /// Cell accessor (UI/debug path).
    pub fn value(&self, name: &str, row: usize) -> Result<Value> {
        let col = self.column(name)?;
        if row >= self.rows {
            return Err(DataError::InvalidArgument {
                context: "Table::value",
                constraint: "row < table.rows()",
            });
        }
        Ok(col.value_at(row))
    }

    /// Validates that a selection bitmap matches this table's row count.
    pub fn check_selection(&self, selection: &Bitmap) -> Result<()> {
        if selection.len() != self.rows {
            return Err(DataError::SelectionSizeMismatch {
                table_rows: self.rows,
                bitmap_bits: selection.len(),
            });
        }
        Ok(())
    }

    /// Materializes the rows with set bits into a new table.
    pub fn filter(&self, selection: &Bitmap) -> Result<Table> {
        self.check_selection(selection)?;
        let rows: Vec<usize> = selection.iter_ones().collect();
        let columns = self
            .names
            .iter()
            .cloned()
            .zip(self.columns.iter().map(|c| c.take(&rows)))
            .collect();
        Table::new(columns)
    }

    /// Projects a subset of columns into a new table.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let mut columns = Vec::with_capacity(names.len());
        for &name in names {
            let idx = self.column_index(name)?;
            columns.push((self.names[idx].clone(), self.columns[idx].clone()));
        }
        Table::new(columns)
    }

    /// Numeric values of `column` restricted to `selection` (or all rows).
    ///
    /// Errors on non-numeric columns (when any row is requested); this
    /// is the extraction path for t-tests over filtered sub-populations.
    /// The output is allocated exactly once (`|selection|` capacity) and
    /// filled with a word-at-a-time walk of the selection.
    pub fn numeric_values(&self, name: &str, selection: Option<&Bitmap>) -> Result<Vec<f64>> {
        let col = self.column(name)?;
        if let Some(sel) = selection {
            self.check_selection(sel)?;
        }
        let wanted = match selection {
            Some(sel) => sel.count_ones(),
            None => self.rows,
        };
        let mut out = Vec::with_capacity(wanted);
        match col {
            Column::Int64(v) => match selection {
                Some(sel) => sel.for_each_set(|i| out.push(v[i] as f64)),
                None => out.extend(v.iter().map(|&x| x as f64)),
            },
            Column::Float64(v) => match selection {
                Some(sel) => sel.for_each_set(|i| out.push(v[i])),
                None => out.extend_from_slice(v),
            },
            other => {
                // Matches the scalar semantics: extracting zero rows
                // from a non-numeric column is an empty Ok, extracting
                // any row is a type error.
                if wanted > 0 {
                    return Err(DataError::TypeMismatch {
                        column: name.to_owned(),
                        expected: "numeric (int64/float64)",
                        actual: other.column_type().name(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// FNV-1a content fingerprint over the schema (column names and
    /// types, in order) and every cell of every column. Two tables
    /// fingerprint equal iff they are byte-equal in schema and data
    /// (floats by IEEE-754 bits, so `NaN` payloads and `-0.0` count),
    /// which is what lets a session snapshot taken on one process be
    /// refused by another process holding a *different* table under the
    /// same dataset name — restoring a wealth ledger against changed
    /// data would silently invalidate every recorded p-value.
    ///
    /// Cost is one linear scan; callers (the serving layer) compute it
    /// once at dataset registration and cache it.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = crate::hash::Fnv1a::new();
        let mut eat = |bytes: &[u8]| hash.update(bytes);
        eat(&(self.rows as u64).to_le_bytes());
        eat(&(self.columns.len() as u64).to_le_bytes());
        for (name, col) in self.names.iter().zip(&self.columns) {
            eat(&(name.len() as u64).to_le_bytes());
            eat(name.as_bytes());
            match col {
                Column::Int64(v) => {
                    eat(&[1]);
                    for &x in v {
                        eat(&x.to_le_bytes());
                    }
                }
                Column::Float64(v) => {
                    eat(&[2]);
                    for &x in v {
                        eat(&x.to_bits().to_le_bytes());
                    }
                }
                Column::Bool(v) => {
                    eat(&[3]);
                    for &x in v {
                        eat(&[x as u8]);
                    }
                }
                Column::Categorical { labels, codes } => {
                    eat(&[4]);
                    eat(&(labels.len() as u64).to_le_bytes());
                    for label in labels {
                        eat(&(label.len() as u64).to_le_bytes());
                        eat(label.as_bytes());
                    }
                    for &code in codes {
                        eat(&code.to_le_bytes());
                    }
                }
            }
        }
        hash.finish()
    }
}

/// Incremental table builder used by generators and the CSV reader.
#[derive(Debug, Default)]
pub struct TableBuilder {
    columns: Vec<(String, Column)>,
}

impl TableBuilder {
    /// Empty builder.
    pub fn new() -> TableBuilder {
        TableBuilder::default()
    }

    /// Adds a column; order of insertion is preserved.
    pub fn push(mut self, name: impl Into<String>, column: Column) -> TableBuilder {
        self.columns.push((name.into(), column));
        self
    }

    /// Finalizes the table, validating shapes and names.
    pub fn build(self) -> Result<Table> {
        Table::new(self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        TableBuilder::new()
            .push("age", Column::Int64(vec![25, 40, 31, 60]))
            .push("salary", Column::Float64(vec![30.0, 80.0, 55.0, 20.0]))
            .push("sex", Column::categorical_from_strs(&["M", "F", "F", "M"]))
            .push("employed", Column::Bool(vec![true, true, false, false]))
            .build()
            .unwrap()
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let t = demo();
        // Deterministic: same content, same fingerprint, across clones.
        assert_eq!(t.fingerprint(), demo().fingerprint());
        // Any cell change changes it.
        let mut tweaked = TableBuilder::new()
            .push("age", Column::Int64(vec![25, 40, 31, 61]))
            .push("salary", Column::Float64(vec![30.0, 80.0, 55.0, 20.0]))
            .push("sex", Column::categorical_from_strs(&["M", "F", "F", "M"]))
            .push("employed", Column::Bool(vec![true, true, false, false]))
            .build()
            .unwrap();
        assert_ne!(t.fingerprint(), tweaked.fingerprint());
        // A renamed column changes it even with identical data.
        tweaked = TableBuilder::new()
            .push("age2", Column::Int64(vec![25, 40, 31, 60]))
            .push("salary", Column::Float64(vec![30.0, 80.0, 55.0, 20.0]))
            .push("sex", Column::categorical_from_strs(&["M", "F", "F", "M"]))
            .push("employed", Column::Bool(vec![true, true, false, false]))
            .build()
            .unwrap();
        assert_ne!(t.fingerprint(), tweaked.fingerprint());
        // Floats hash by bits: -0.0 and 0.0 are different tables.
        let zeros = |z: f64| {
            TableBuilder::new()
                .push("x", Column::Float64(vec![z]))
                .build()
                .unwrap()
                .fingerprint()
        };
        assert_ne!(zeros(0.0), zeros(-0.0));
    }

    #[test]
    fn a_built_index_is_invisible_to_eq_fingerprint_clone_and_derived_tables() {
        use crate::hist::histogram;
        use crate::predicate::Predicate;
        let plain = demo();
        let indexed = demo();
        let before = (indexed.fingerprint(), format!("{indexed:?}"));
        for column in ["age", "salary", "sex", "employed"] {
            histogram(&indexed, column, None).unwrap();
        }
        Predicate::eq("sex", "F").eval(&indexed).unwrap();
        assert!(indexed.index_bytes() > 0);
        assert_eq!(plain.index_bytes(), 0);
        assert_eq!(indexed, plain);
        assert_eq!((indexed.fingerprint(), format!("{indexed:?}")), before);
        // A clone equals both and shares what was built; tables derived
        // from an indexed one start without indexes, and answer alike.
        let clone = indexed.clone();
        assert_eq!(clone, plain);
        assert_eq!(clone.index_bytes(), indexed.index_bytes());
        let sel = Bitmap::from_indices(4, &[1, 2, 3]);
        let names = ["age", "salary", "sex", "employed"];
        for (derived, fresh) in [
            (indexed.filter(&sel).unwrap(), plain.filter(&sel).unwrap()),
            (
                indexed.project(&names).unwrap(),
                plain.project(&names).unwrap(),
            ),
        ] {
            assert_eq!(derived.index_bytes(), 0);
            assert_eq!(derived, fresh);
            assert_eq!(derived.fingerprint(), fresh.fingerprint());
        }
        for column in names {
            assert_eq!(
                histogram(&clone, column, Some(&sel)),
                histogram(&plain, column, Some(&sel))
            );
        }
    }

    #[test]
    fn racing_first_users_build_an_index_once() {
        use std::sync::atomic::Ordering;
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let codes: Vec<u32> = (0..10_000).map(|i| i % 7).collect();
        let labels = (0..7).map(|l| l.to_string()).collect();
        let t = TableBuilder::new()
            .push("c", Column::categorical_from_codes(labels, codes))
            .build()
            .unwrap();
        let gate = Barrier::new(THREADS);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        let index = t.bucket_index(0).unwrap().expect("7 labels are indexed");
                        index as *const BucketIndex as usize
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&address| address == seen[0]));
        assert_eq!(t.index_builds.load(Ordering::Relaxed), 1);
        // Later users, and clones, reuse it.
        crate::hist::histogram(&t.clone(), "c", None).unwrap();
        assert_eq!(t.index_builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn construction_and_access() {
        let t = demo();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.column_names(), &["age", "salary", "sex", "employed"]);
        assert_eq!(t.column_type("sex").unwrap(), ColumnType::Categorical);
        assert_eq!(t.value("age", 1).unwrap(), Value::Int(40));
        assert_eq!(t.value("sex", 2).unwrap(), Value::Str("F".into()));
        assert!(t.value("age", 99).is_err());
        assert!(t.column("nope").is_err());
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(Table::new(vec![]), Err(DataError::Empty { .. })));
        let dup = Table::new(vec![
            ("a".into(), Column::Int64(vec![1])),
            ("a".into(), Column::Int64(vec![2])),
        ]);
        assert!(matches!(dup, Err(DataError::DuplicateColumn { .. })));
        let ragged = Table::new(vec![
            ("a".into(), Column::Int64(vec![1, 2])),
            ("b".into(), Column::Int64(vec![1])),
        ]);
        assert!(matches!(ragged, Err(DataError::LengthMismatch { .. })));
    }

    #[test]
    fn filter_materializes_selected_rows() {
        let t = demo();
        let sel = Bitmap::from_indices(4, &[1, 2]);
        let f = t.filter(&sel).unwrap();
        assert_eq!(f.rows(), 2);
        assert_eq!(f.value("age", 0).unwrap(), Value::Int(40));
        assert_eq!(f.value("sex", 1).unwrap(), Value::Str("F".into()));
        // Wrong-size selection is rejected.
        assert!(t.filter(&Bitmap::zeros(3)).is_err());
    }

    #[test]
    fn project_subsets_columns() {
        let t = demo();
        let p = t.project(&["sex", "age"]).unwrap();
        assert_eq!(p.column_names(), &["sex", "age"]);
        assert_eq!(p.rows(), 4);
        assert!(t.project(&["sex", "ghost"]).is_err());
    }

    #[test]
    fn numeric_values_with_selection() {
        let t = demo();
        let all = t.numeric_values("salary", None).unwrap();
        assert_eq!(all, vec![30.0, 80.0, 55.0, 20.0]);
        let sel = Bitmap::from_indices(4, &[0, 3]);
        let some = t.numeric_values("age", Some(&sel)).unwrap();
        assert_eq!(some, vec![25.0, 60.0]);
        assert!(matches!(
            t.numeric_values("sex", None),
            Err(DataError::TypeMismatch { .. })
        ));
        assert!(t.numeric_values("age", Some(&Bitmap::zeros(2))).is_err());
    }
}
