//! Two-attribute contingency tables (cross-tabulation).
//!
//! Rule 3 builds 2×k tables by stacking two filtered histograms; the
//! crosstab is the direct r×c construction for "are attributes X and Y
//! associated (within this sub-population)?" — the question behind the
//! paper's intro examples ("people with a Ph.D. earn more") when asked
//! head-on rather than through a filter chain.

use crate::bitmap::Bitmap;
use crate::column::CodeView;
use crate::table::Table;
use crate::{DataError, Result};

/// An r×c count table over two categorical/boolean attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossTab {
    /// Row attribute name.
    pub row_column: String,
    /// Column attribute name.
    pub col_column: String,
    /// Row labels (dictionary/domain order).
    pub row_labels: Vec<String>,
    /// Column labels (dictionary/domain order).
    pub col_labels: Vec<String>,
    /// Counts, row-major: `counts[r][c]`.
    pub counts: Vec<Vec<u64>>,
}

impl CrossTab {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The counts in the `Vec<Vec<u64>>` shape the χ²/G tests consume.
    pub fn rows(&self) -> &[Vec<u64>] {
        &self.counts
    }
}

/// Encodes a categorical or boolean column as (labels, borrowed codes).
fn encode<'a>(table: &'a Table, name: &str) -> Result<(Vec<String>, CodeView<'a>)> {
    let col = table.column(name)?;
    col.code_view().ok_or_else(|| DataError::TypeMismatch {
        column: name.to_owned(),
        expected: "categorical or bool",
        actual: col.column_type().name(),
    })
}

/// Builds the crosstab of `row_column` × `col_column`, restricted to
/// `selection` when given.
///
/// Counts accumulate into one flat row-major `Vec<u64>` (a single cache
/// line for the common small tables, no per-row nested indexing) with
/// the same word-at-a-time selection walk the histograms use, then
/// reshape into the public `Vec<Vec<u64>>`.
pub fn crosstab(
    table: &Table,
    row_column: &str,
    col_column: &str,
    selection: Option<&Bitmap>,
) -> Result<CrossTab> {
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    if row_column == col_column {
        return Err(DataError::InvalidArgument {
            context: "crosstab",
            constraint: "row and column attributes must differ",
        });
    }
    let (row_labels, row_codes) = encode(table, row_column)?;
    let (col_labels, col_codes) = encode(table, col_column)?;
    let width = col_labels.len();
    // The r×c grid is a flattened bucket space, so selection counting
    // (including the majority complement-and-subtract trick) is the
    // histogram kernel's row walk; no single column's index covers it.
    let buckets = row_labels.len() * width;
    let flat = crate::hist::count_selected(
        table.rows(),
        buckets,
        selection,
        None,
        crate::hist::CODE_ROW,
        |i| row_codes.at(i) * width + col_codes.at(i),
    );
    let counts = if width == 0 {
        vec![Vec::new(); row_labels.len()]
    } else {
        flat.chunks(width).map(<[u64]>::to_vec).collect()
    };
    Ok(CrossTab {
        row_column: row_column.to_owned(),
        col_column: col_column.to_owned(),
        row_labels,
        col_labels,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusGenerator;
    use crate::column::Column;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;

    fn demo() -> Table {
        TableBuilder::new()
            .push(
                "edu",
                Column::categorical_from_strs(&["HS", "PhD", "HS", "PhD", "HS"]),
            )
            .push("rich", Column::Bool(vec![false, true, false, true, true]))
            .push("age", Column::Int64(vec![20, 30, 40, 50, 60]))
            .build()
            .unwrap()
    }

    #[test]
    fn crosstab_counts_hand_checked() {
        let t = demo();
        let ct = crosstab(&t, "edu", "rich", None).unwrap();
        assert_eq!(ct.row_labels, vec!["HS", "PhD"]);
        assert_eq!(ct.col_labels, vec!["false", "true"]);
        // HS: rich [false, false, true] → [2, 1]; PhD: [0, 2].
        assert_eq!(ct.counts, vec![vec![2, 1], vec![0, 2]]);
        assert_eq!(ct.total(), 5);
    }

    #[test]
    fn crosstab_with_selection() {
        let t = demo();
        let sel = Predicate::between("age", 25.0, 55.0).eval(&t).unwrap();
        let ct = crosstab(&t, "edu", "rich", Some(&sel)).unwrap();
        // rows 1,2,3: (PhD,true), (HS,false), (PhD,true).
        assert_eq!(ct.counts, vec![vec![1, 0], vec![0, 2]]);
        assert_eq!(ct.total(), 3);
    }

    #[test]
    fn crosstab_validation() {
        let t = demo();
        assert!(crosstab(&t, "edu", "edu", None).is_err());
        assert!(crosstab(&t, "edu", "age", None).is_err());
        assert!(crosstab(&t, "ghost", "rich", None).is_err());
        assert!(crosstab(&t, "edu", "rich", Some(&Bitmap::zeros(2))).is_err());
    }

    #[test]
    fn crosstab_margins_match_histograms() {
        let t = CensusGenerator::new(4).generate(3_000);
        let ct = crosstab(&t, "education", "salary_over_50k", None).unwrap();
        let edu_hist = crate::hist::categorical_histogram(&t, "education", None).unwrap();
        let row_margins: Vec<u64> = ct.counts.iter().map(|r| r.iter().sum()).collect();
        assert_eq!(row_margins, edu_hist.counts());
        assert_eq!(ct.total(), 3_000);
    }

    #[test]
    fn crosstab_feeds_independence_test() {
        let t = CensusGenerator::new(4).generate(10_000);
        let ct = crosstab(&t, "education", "salary_over_50k", None).unwrap();
        let out = aware_stats::tests::chi_square_independence(ct.rows()).unwrap();
        assert!(
            out.p_value < 1e-10,
            "planted dependence: p = {}",
            out.p_value
        );
        let ct = crosstab(&t, "race", "salary_over_50k", None).unwrap();
        let out = aware_stats::tests::chi_square_independence(ct.rows()).unwrap();
        assert!(out.p_value > 1e-4, "null pair: p = {}", out.p_value);
    }
}
