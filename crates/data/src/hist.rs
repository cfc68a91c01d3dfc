//! Histogram / group-by computation over selections.
//!
//! A histogram *is* the visualization of the paper's Figure 1, and the
//! paper's heuristics turn histograms into hypotheses:
//!
//! * rule 2 compares a filtered histogram against the unfiltered one
//!   (χ² goodness-of-fit), and
//! * rule 3 compares two histograms under negated filters
//!   (χ² independence on the 2×k count table).
//!
//! For those tests to be well-formed the bucket universes must align, so
//! buckets are always derived from the *full* column — the categorical
//! dictionary, the bool domain, or fixed-width numeric bins over the full
//! column range — never from the selection. A filtered histogram therefore
//! reports zero counts for categories the selection misses.
//!
//! Because the bucket universe is a per-column invariant, so is the
//! partition of the rows into buckets. Each column lazily gets a
//! `BucketIndex` — one bitmap per bucket, each bucket's total, the
//! numeric bounds and, for numeric columns of few distinct values, the
//! rank bit-slices that answer range filters (see `crate::rank`) — and
//! a histogram under a selection is then `k` passes of
//! `popcount(selection & bucket)` over `n/64` words instead of a walk
//! over the selected rows. The walk remains for what the index cannot
//! answer more cheaply: sparse (or nearly full) selections, a caller's
//! own bins or bounds, dictionaries so large that the index would
//! outweigh the column, and the crosstab's two-column bucket space. The
//! choice is made per call from `k`, `n`, `|selection|` and what one
//! walked row costs alone (see `count_selected`); counts are exact
//! integers either way, so every downstream p-value is bit-identical
//! whichever kernel ran.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::rank::RankSlices;
use crate::table::Table;
use crate::{DataError, Result};

/// One histogram bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Human-readable bucket label (category name or bin range).
    pub label: String,
    /// Number of selected rows in this bucket.
    pub count: u64,
}

/// A histogram of one column under a selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// The column the histogram is over.
    pub column: String,
    /// Buckets in a canonical order (dictionary order for categoricals,
    /// `false`/`true` for bools, ascending bins for numerics).
    pub buckets: Vec<Bucket>,
}

impl Histogram {
    /// Counts in bucket order.
    pub fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.count).collect()
    }

    /// Total count across buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Bucket proportions; an all-zero histogram yields all-zero proportions.
    pub fn proportions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|b| b.count as f64 / total as f64)
            .collect()
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }
}

/// Default bin count for numeric histograms, matching the visual default of
/// IDE tools (Vizdom renders ~10 bars).
pub const DEFAULT_NUMERIC_BINS: usize = 10;

/// The largest one-hot bucket count an index may have over cells of
/// `cell_bytes` bytes: one bit per row per bucket, so `k/8` bytes per
/// row — the bucket bitmaps are only built when that is no more than
/// the cell they index (k ≤ 32 for `u32` dictionary codes, ≤ 64 for
/// numerics). A dictionary over the rule has no index and its leaves
/// scan; a numeric column's rank slices have their own rule,
/// [`crate::rank::MAX_DISTINCT`].
const fn max_indexed_buckets(cell_bytes: usize) -> usize {
    8 * cell_bytes
}

const _: () = assert!(DEFAULT_NUMERIC_BINS <= max_indexed_buckets(8));

/// Fixed-width bin geometry over a numeric column's full range. One
/// definition, so the index and the row walk can never disagree on
/// which bin a value falls in.
#[derive(Debug, Clone, Copy)]
struct Binning {
    min: f64,
    width: f64,
    bins: usize,
}

impl Binning {
    fn new((min, max): (f64, f64), bins: usize) -> Binning {
        let width = if max > min {
            (max - min) / bins as f64
        } else {
            1.0
        };
        Binning { min, width, bins }
    }

    #[inline]
    fn bin_of(&self, v: f64) -> usize {
        (((v - self.min) / self.width) as usize).min(self.bins - 1)
    }

    fn label(&self, bin: usize) -> String {
        let lo = self.min + bin as f64 * self.width;
        let hi = lo + self.width;
        format!("[{lo:.3},{hi:.3})")
    }
}

/// The bucket index of one column: one bitmap per histogram bucket
/// (dictionary code, bool, or [`DEFAULT_NUMERIC_BINS`] fixed-width bin
/// over the full-column bounds), each bucket's total, and the numeric
/// bounds. The bitmaps partition the rows, so a histogram under a
/// selection is `popcount(sel & bucket)` per bucket and a categorical
/// equality or membership filter is an OR of buckets. A numeric column
/// of at most [`crate::rank::MAX_DISTINCT`] distinct values also holds
/// its [`RankSlices`], which answer every comparison, `Between` and `In`
/// leaf over it; only a numeric column without them (too many distinct
/// values, or no index at all because a cell is not finite) is scanned.
///
/// Built lazily by [`Table::bucket_index`] on first use and immutable
/// afterwards; derived state only — it never takes part in table
/// equality, fingerprints or snapshots.
pub(crate) struct BucketIndex {
    rows: usize,
    bits: Vec<Bitmap>,
    totals: Vec<u64>,
    bounds: Option<(f64, f64)>,
    ranks: Option<RankSlices>,
}

impl BucketIndex {
    /// Builds the index of `column`, or `None` when it would be larger
    /// than the column itself. Numeric columns must be finite: bin edges
    /// over a range containing `NaN` or `±inf` are undefined.
    pub(crate) fn build(name: &str, column: &Column) -> Result<Option<BucketIndex>> {
        match column {
            Column::Categorical { labels, codes } => {
                if labels.len() > max_indexed_buckets(std::mem::size_of::<u32>()) {
                    return Ok(None);
                }
                let ids = codes.iter().map(|&c| c as usize);
                Ok(Some(BucketIndex::partition(labels.len(), ids, None)))
            }
            Column::Bool(values) => {
                let ids = values.iter().map(|&v| v as usize);
                Ok(Some(BucketIndex::partition(2, ids, None)))
            }
            Column::Int64(values) => {
                BucketIndex::numeric(name, values.iter().map(|&x| x as f64)).map(Some)
            }
            Column::Float64(values) => BucketIndex::numeric(name, values.iter().copied()).map(Some),
        }
    }

    fn numeric(
        name: &str,
        values: impl ExactSizeIterator<Item = f64> + Clone,
    ) -> Result<BucketIndex> {
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (row, v) in values.clone().enumerate() {
            if !v.is_finite() {
                return Err(DataError::NonFinite {
                    column: name.to_owned(),
                    row,
                });
            }
            min = min.min(v);
            max = max.max(v);
        }
        let binning = Binning::new((min, max), DEFAULT_NUMERIC_BINS);
        let ids = values.clone().map(|v| binning.bin_of(v));
        Ok(BucketIndex {
            ranks: RankSlices::build(values),
            ..BucketIndex::partition(DEFAULT_NUMERIC_BINS, ids, Some((min, max)))
        })
    }

    /// One pass over the rows' bucket ids, scattering each row's bit
    /// into its bucket's bitmap.
    fn partition(
        buckets: usize,
        ids: impl ExactSizeIterator<Item = usize>,
        bounds: Option<(f64, f64)>,
    ) -> BucketIndex {
        let rows = ids.len();
        let mut words = vec![vec![0u64; rows.div_ceil(64)]; buckets];
        for (row, bucket) in ids.enumerate() {
            words[bucket][row / 64] |= 1u64 << (row % 64);
        }
        let bits: Vec<Bitmap> = words
            .into_iter()
            .map(|w| Bitmap::from_words(w, rows))
            .collect();
        let totals = bits.iter().map(|b| b.count_ones() as u64).collect();
        BucketIndex {
            rows,
            bits,
            totals,
            bounds,
            ranks: None,
        }
    }

    /// The rank slices of a numeric column with few enough distinct
    /// values to have them.
    pub(crate) fn ranks(&self) -> Option<&RankSlices> {
        self.ranks.as_ref()
    }

    /// The rows in `bucket`.
    pub(crate) fn bucket(&self, bucket: usize) -> &Bitmap {
        &self.bits[bucket]
    }

    /// The rows whose bucket is listed in `member` (one flag per
    /// bucket): the OR of the listed buckets, or — the buckets
    /// partition the rows — the complement of the OR of the rest when
    /// that is the shorter list.
    pub(crate) fn union(&self, member: &[bool]) -> Bitmap {
        debug_assert_eq!(member.len(), self.bits.len());
        let listed = member.iter().filter(|&&m| m).count();
        let complement = 2 * listed > member.len();
        let mut picked = self
            .bits
            .iter()
            .zip(member)
            .filter_map(|(bits, &m)| (m != complement).then_some(bits));
        let mut acc = picked
            .next()
            .map_or_else(|| Bitmap::zeros(self.rows), Bitmap::clone);
        for bits in picked {
            acc.or_assign(bits);
        }
        if complement {
            acc.not_assign();
        }
        acc
    }

    /// Heap bytes held by the bitmaps, totals and rank slices.
    pub(crate) fn bytes(&self) -> usize {
        self.bits
            .iter()
            .map(|b| b.len().div_ceil(64) * 8)
            .sum::<usize>()
            + self.totals.len() * 8
            + self.ranks.as_ref().map_or(0, RankSlices::bytes)
    }

    /// Bucket counts under `selection`: one AND + popcount pass per
    /// bucket.
    fn counts_under(&self, selection: &Bitmap) -> Vec<u64> {
        self.bits
            .iter()
            .map(|b| selection.count_ones_and(b) as u64)
            .collect()
    }
}

/// Bucket counting over an optional selection: the shared kernel
/// behind every histogram (and, with a flattened bucket space and no
/// index, the crosstab). `index`, when given, must be the bucket index
/// of exactly the `buckets` that `bucket_of` maps rows into.
///
/// * no selection → the index's stored totals (one full-column loop
///   without an index);
/// * `k·⌈n/64⌉ ≤ row_cost·min(|sel|, n−|sel|)` and an index → `k` AND +
///   popcount passes over the selection's words, no row is touched
///   (`row_cost`: [`CODE_ROW`] or [`BINNED_ROW`]);
/// * otherwise the bit walk, which visits min(|sel|, n−|sel|) rows:
///   set bits counted up from zero when the selection covers ≤ ½ the
///   rows, clear bits counted down from the totals when it covers more.
///   Only without an index does the second arm first pay a full-column
///   pass for those totals.
///
/// `|sel|` is counted once, here; callers that need it afterwards read
/// it back as the histogram's total.
pub(crate) fn count_selected(
    rows: usize,
    buckets: usize,
    selection: Option<&Bitmap>,
    index: Option<&BucketIndex>,
    row_cost: usize,
    bucket_of: impl Fn(usize) -> usize,
) -> Vec<u64> {
    debug_assert!(index.is_none_or(|ix| ix.bits.len() == buckets));
    let totals = index.map(|ix| ix.totals.as_slice());
    let Some(sel) = selection else {
        return walk(rows, buckets, None, totals, bucket_of);
    };
    let ones = sel.count_ones();
    match index {
        Some(ix) if popcount_is_cheaper(rows, buckets, ones, row_cost) => ix.counts_under(sel),
        _ => walk(rows, buckets, Some((sel, ones)), totals, bucket_of),
    }
}

/// What one walked row costs, in words of AND + popcount, when its
/// bucket is a stored code (categorical, bool, crosstab).
pub(crate) const CODE_ROW: usize = 1;

/// The same for a numeric row, whose bucket is a subtract, divide and
/// truncate away ([`Binning::bin_of`]). Measured, ten bins, walk against
/// popcount: with as many rows walked as words read, 22 vs 10 µs at 20k
/// rows, 88 vs 22 µs at 100k, 1 050 vs 163 µs at 1M; with a quarter as
/// many the two meet (12 vs 10, 25 vs 22 µs) or the walk still loses
/// (539 vs 163 µs at 1M, where a sparse row is also a cache miss). So 4
/// never picks the slower kernel at a size measured, and a 1M-row test
/// of a numeric attribute has no millisecond walk left in it.
pub(crate) const BINNED_ROW: usize = 4;

/// The crossover between the two kernels, from observable inputs only:
/// the popcount kernel reads `k·⌈n/64⌉` words, the walk visits
/// `min(|sel|, n−|sel|)` rows, each worth `row_cost` words.
fn popcount_is_cheaper(rows: usize, buckets: usize, ones: usize, row_cost: usize) -> bool {
    buckets * rows.div_ceil(64) <= row_cost * ones.min(rows - ones)
}

/// The row-walk kernel: visits min(|sel|, n−|sel|) rows given `totals`,
/// and a full column more when a dense (or absent) selection has none
/// to start from. `selection` carries its own precomputed `|sel|`.
fn walk(
    rows: usize,
    buckets: usize,
    selection: Option<(&Bitmap, usize)>,
    totals: Option<&[u64]>,
    bucket_of: impl Fn(usize) -> usize,
) -> Vec<u64> {
    let full = || match totals {
        Some(t) => t.to_vec(),
        None => {
            let mut counts = vec![0u64; buckets];
            for i in 0..rows {
                counts[bucket_of(i)] += 1;
            }
            counts
        }
    };
    match selection {
        None => full(),
        Some((sel, ones)) if 2 * ones > rows => {
            let mut counts = full();
            sel.for_each_clear(|i| counts[bucket_of(i)] -= 1);
            counts
        }
        Some((sel, _)) => {
            let mut counts = vec![0u64; buckets];
            sel.for_each_set(|i| counts[bucket_of(i)] += 1);
            counts
        }
    }
}

/// Computes the histogram of `column` over `selection` (or all rows).
///
/// Categorical and bool columns bucket by value; numeric columns use
/// [`DEFAULT_NUMERIC_BINS`] fixed-width bins over the full column range.
pub fn histogram(table: &Table, column: &str, selection: Option<&Bitmap>) -> Result<Histogram> {
    match table.column(column)? {
        Column::Int64(_) | Column::Float64(_) => {
            numeric_histogram(table, column, selection, DEFAULT_NUMERIC_BINS)
        }
        _ => categorical_histogram(table, column, selection),
    }
}

/// Histogram for categorical / bool columns: one bucket per domain value.
pub fn categorical_histogram(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
) -> Result<Histogram> {
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let at = table.column_index(column)?;
    let (labels, counts) = match table.column_at(at) {
        Column::Categorical { labels, codes } => {
            let index = table.bucket_index(at)?;
            let counts =
                count_selected(codes.len(), labels.len(), selection, index, CODE_ROW, |i| {
                    codes[i] as usize
                });
            (labels.clone(), counts)
        }
        Column::Bool(values) => {
            let index = table.bucket_index(at)?;
            let counts = count_selected(values.len(), 2, selection, index, CODE_ROW, |i| {
                values[i] as usize
            });
            (vec!["false".to_owned(), "true".to_owned()], counts)
        }
        other => {
            return Err(DataError::TypeMismatch {
                column: column.to_owned(),
                expected: "categorical or bool",
                actual: other.column_type().name(),
            })
        }
    };
    Ok(Histogram {
        column: column.to_owned(),
        buckets: labels
            .into_iter()
            .zip(counts)
            .map(|(label, count)| Bucket { label, count })
            .collect(),
    })
}

/// Histogram for numeric columns with `bins` fixed-width bins spanning the
/// full column's `[min, max]` (so histograms of different selections align).
pub fn numeric_histogram(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    bins: usize,
) -> Result<Histogram> {
    if bins == 0 {
        return Err(DataError::InvalidArgument {
            context: "numeric_histogram",
            constraint: "bins >= 1",
        });
    }
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let bounds = numeric_bounds(table, column)?;
    numeric_histogram_with_bounds(table, column, selection, bins, bounds)
}

/// The bucket index and full-column bounds of the numeric column at
/// `at` of a non-empty table. Both always exist: a non-finite cell is
/// an error and [`DEFAULT_NUMERIC_BINS`] is within the size rule.
fn numeric_index(table: &Table, at: usize) -> Result<(&BucketIndex, (f64, f64))> {
    let index = table
        .bucket_index(at)?
        .expect("numeric columns are always indexed");
    let bounds = index.bounds.expect("a numeric index stores its bounds");
    Ok((index, bounds))
}

const EMPTY: DataError = DataError::Empty {
    context: "numeric_histogram",
};

fn not_numeric(column: &str, actual: &Column) -> DataError {
    DataError::TypeMismatch {
        column: column.to_owned(),
        expected: "numeric (int64/float64)",
        actual: actual.column_type().name(),
    }
}

/// Full-column `(min, max)` of a numeric column — the per-dataset
/// invariant bin edges derive from, read from the column's bucket index
/// (built on first use), so repeated histograms of one attribute never
/// rescan for it. A `NaN` or infinite cell is [`DataError::NonFinite`].
pub fn numeric_bounds(table: &Table, column: &str) -> Result<(f64, f64)> {
    let at = table.column_index(column)?;
    if table.rows() == 0 {
        return Err(EMPTY);
    }
    match table.column_at(at) {
        Column::Int64(_) | Column::Float64(_) => Ok(numeric_index(table, at)?.1),
        other => Err(not_numeric(column, other)),
    }
}

/// [`numeric_histogram`] with pre-computed full-column bounds (from
/// [`numeric_bounds`]): bin edges derive from the bounds. Counting uses
/// the column's bucket index when `bins` and the bounds are the index's
/// own, and walks the rows under any other geometry.
pub fn numeric_histogram_with_bounds(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    bins: usize,
    bounds: (f64, f64),
) -> Result<Histogram> {
    if bins == 0 {
        return Err(DataError::InvalidArgument {
            context: "numeric_histogram",
            constraint: "bins >= 1",
        });
    }
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let at = table.column_index(column)?;
    let n = table.rows();
    if n == 0 {
        return Err(EMPTY);
    }
    let binning = Binning::new(bounds, bins);
    // The index answers only for its own geometry.
    let index = || -> Result<Option<&BucketIndex>> {
        let (index, own) = numeric_index(table, at)?;
        Ok((bins == DEFAULT_NUMERIC_BINS && own == bounds).then_some(index))
    };
    let counts = match table.column_at(at) {
        Column::Int64(v) => count_selected(n, bins, selection, index()?, BINNED_ROW, |i| {
            binning.bin_of(v[i] as f64)
        }),
        Column::Float64(v) => count_selected(n, bins, selection, index()?, BINNED_ROW, |i| {
            binning.bin_of(v[i])
        }),
        other => return Err(not_numeric(column, other)),
    };
    Ok(Histogram {
        column: column.to_owned(),
        buckets: counts
            .into_iter()
            .enumerate()
            .map(|(bin, count)| Bucket {
                label: binning.label(bin),
                count,
            })
            .collect(),
    })
}

/// Stacks two aligned histograms into the 2×k contingency table consumed by
/// the χ² independence test (heuristic rule 3).
///
/// Errors if the histograms are over different columns or bucket universes.
pub fn contingency_rows(a: &Histogram, b: &Histogram) -> Result<Vec<Vec<u64>>> {
    if a.column != b.column || a.num_buckets() != b.num_buckets() {
        return Err(DataError::InvalidArgument {
            context: "contingency_rows",
            constraint: "histograms must share column and bucket universe",
        });
    }
    for (x, y) in a.buckets.iter().zip(&b.buckets) {
        if x.label != y.label {
            return Err(DataError::InvalidArgument {
                context: "contingency_rows",
                constraint: "bucket labels must align",
            });
        }
    }
    Ok(vec![a.counts(), b.counts()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;

    fn demo() -> Table {
        TableBuilder::new()
            .push(
                "sex",
                Column::categorical_from_strs(&["M", "F", "F", "M", "F", "M", "M", "F"]),
            )
            .push(
                "over_50k",
                Column::Bool(vec![true, false, false, true, true, false, true, false]),
            )
            .push("age", Column::Int64(vec![20, 30, 40, 50, 60, 70, 25, 35]))
            .build()
            .unwrap()
    }

    #[test]
    fn categorical_counts_full_table() {
        let t = demo();
        let h = histogram(&t, "sex", None).unwrap();
        assert_eq!(h.counts(), vec![4, 4]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.proportions(), vec![0.5, 0.5]);
        assert_eq!(h.buckets[0].label, "M");
    }

    #[test]
    fn bool_histogram_false_then_true() {
        let t = demo();
        let h = histogram(&t, "over_50k", None).unwrap();
        assert_eq!(h.buckets[0].label, "false");
        assert_eq!(h.buckets[1].label, "true");
        assert_eq!(h.counts(), vec![4, 4]);
    }

    #[test]
    fn filtered_histogram_keeps_empty_buckets() {
        let t = demo();
        let sel = Predicate::eq("over_50k", true).eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&sel)).unwrap();
        // High earners: rows 0,3,4,6 → M,M,F,M.
        assert_eq!(h.counts(), vec![3, 1]);
        assert_eq!(h.total(), 4);
        // Selection that misses a category still reports it with count 0.
        let only_f = Predicate::eq("sex", "F").eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&only_f)).unwrap();
        assert_eq!(h.counts(), vec![0, 4]);
        assert_eq!(h.num_buckets(), 2);
    }

    #[test]
    fn numeric_bins_are_aligned_across_selections() {
        let t = demo();
        let all = numeric_histogram(&t, "age", None, 5).unwrap();
        assert_eq!(all.total(), 8);
        // age range [20,70], width 10: bins [20,30) [30,40) [40,50) [50,60) [60,70].
        assert_eq!(all.counts(), vec![2, 2, 1, 1, 2]);
        let sel = Predicate::eq("sex", "M").eval(&t).unwrap();
        let men = numeric_histogram(&t, "age", Some(&sel), 5).unwrap();
        // Bins identical; only counts differ: men ages 20,50,70,25.
        assert_eq!(men.counts(), vec![2, 0, 0, 1, 1]);
        for (a, b) in all.buckets.iter().zip(&men.buckets) {
            assert_eq!(a.label, b.label);
        }
        // Max value lands in the last bin, not out of range.
        assert_eq!(all.counts().iter().sum::<u64>(), 8);
    }

    #[test]
    fn numeric_histogram_constant_column() {
        let t = TableBuilder::new()
            .push("x", Column::Float64(vec![3.0; 7]))
            .build()
            .unwrap();
        let h = numeric_histogram(&t, "x", None, 4).unwrap();
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts()[0], 7);
    }

    #[test]
    fn default_dispatch_by_type() {
        let t = demo();
        assert_eq!(
            histogram(&t, "age", None).unwrap().num_buckets(),
            DEFAULT_NUMERIC_BINS
        );
        assert_eq!(histogram(&t, "sex", None).unwrap().num_buckets(), 2);
    }

    #[test]
    fn error_paths() {
        let t = demo();
        assert!(histogram(&t, "ghost", None).is_err());
        assert!(categorical_histogram(&t, "age", None).is_err());
        assert!(numeric_histogram(&t, "sex", None, 4).is_err());
        assert!(numeric_histogram(&t, "age", None, 0).is_err());
        let wrong = Bitmap::zeros(3);
        assert!(histogram(&t, "sex", Some(&wrong)).is_err());
        assert!(numeric_histogram(&t, "age", Some(&wrong), 4).is_err());
    }

    #[test]
    fn contingency_rows_aligned() {
        let t = demo();
        let hi = Predicate::eq("over_50k", true).eval(&t).unwrap();
        let lo = hi.not();
        let a = histogram(&t, "sex", Some(&hi)).unwrap();
        let b = histogram(&t, "sex", Some(&lo)).unwrap();
        let table = contingency_rows(&a, &b).unwrap();
        assert_eq!(table, vec![vec![3, 1], vec![1, 3]]);
        // Mismatched columns rejected.
        let c = histogram(&t, "over_50k", None).unwrap();
        assert!(contingency_rows(&a, &c).is_err());
    }

    #[test]
    fn histogram_mass_conservation() {
        let t = demo();
        let sel = Predicate::between("age", 25.0, 60.0).eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&sel)).unwrap();
        assert_eq!(h.total(), sel.count_ones() as u64);
        let h = numeric_histogram(&t, "age", Some(&sel), 3).unwrap();
        assert_eq!(h.total(), sel.count_ones() as u64);
    }
}

/// The kernels against a row-at-a-time reference. `Session::uncached`
/// — the oracle every serving-level equivalence suite compares with —
/// counts through the same kernels, so this is the only place a wrong
/// count could be caught.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::predicate::arbitrary::Gen;
    use crate::table::TableBuilder;
    use proptest::prelude::*;

    /// Dictionary sizes: one bucket, a typical one, the largest that is
    /// indexed (`u32` codes: 32) and the smallest that is not.
    const DICTIONARIES: [(&str, usize); 4] = [("one", 1), ("few", 5), ("max", 32), ("big", 33)];

    fn table(g: &mut Gen, rows: usize) -> Table {
        let mut builder = TableBuilder::new()
            .push(
                "i",
                Column::Int64((0..rows).map(|_| g.pick(90) as i64 - 20).collect()),
            )
            .push(
                "f",
                Column::Float64((0..rows).map(|_| g.pick(1000) as f64 / 8.0 - 3.5).collect()),
            )
            .push(
                "b",
                Column::Bool((0..rows).map(|_| g.pick(3) == 0).collect()),
            );
        for (name, k) in DICTIONARIES {
            let labels = (0..k).map(|l| format!("l{l}")).collect();
            let codes = (0..rows).map(|_| g.pick(k) as u32).collect();
            builder = builder.push(name, Column::categorical_from_codes(labels, codes));
        }
        builder.build().expect("generated table is well-formed")
    }

    /// A selection of exactly `ones` rows, scattered by `g`.
    fn selection(g: &mut Gen, rows: usize, ones: usize) -> Bitmap {
        let mut order: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            order.swap(i, g.pick(i + 1));
        }
        Bitmap::from_indices(rows, &order[..ones])
    }

    /// Selection sizes that matter to a `buckets`-bucket histogram over
    /// `rows` rows: empty, full, one row either way, a half, and both
    /// sides of both crossover points of [`popcount_is_cheaper`], at
    /// either row cost.
    fn sizes(rows: usize, buckets: usize) -> Vec<usize> {
        let mut sizes = vec![0, 1, rows / 2, rows.saturating_sub(1), rows];
        for row_cost in [CODE_ROW, BINNED_ROW] {
            let crossover = (buckets * rows.div_ceil(64)).div_ceil(row_cost);
            for around in [crossover, rows.saturating_sub(crossover)] {
                sizes.extend([around.saturating_sub(1), around, around + 1]);
            }
        }
        sizes.retain(|&s| s <= rows);
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// The bucket of every row, computed without any product kernel.
    fn bucket_ids(
        table: &Table,
        column: &str,
        bins: usize,
        bounds: Option<(f64, f64)>,
    ) -> Vec<usize> {
        let col = table.column(column).unwrap();
        (0..table.rows())
            .map(|i| match col {
                Column::Categorical { codes, .. } => codes[i] as usize,
                Column::Bool(values) => values[i] as usize,
                numeric => {
                    let (min, max) = bounds.expect("numeric columns are given bounds");
                    let width = if max > min {
                        (max - min) / bins as f64
                    } else {
                        1.0
                    };
                    let v = numeric.numeric_at(i).expect("numeric column");
                    (((v - min) / width) as usize).min(bins - 1)
                }
            })
            .collect()
    }

    /// Row at a time, bit at a time.
    fn reference(ids: &[usize], buckets: usize, selection: Option<&Bitmap>) -> Vec<u64> {
        let mut counts = vec![0u64; buckets];
        for (i, &id) in ids.iter().enumerate() {
            if selection.is_none_or(|sel| sel.get(i)) {
                counts[id] += 1;
            }
        }
        counts
    }

    /// Own min/max fold for the numeric columns.
    fn bounds_of(table: &Table, column: &str) -> (f64, f64) {
        let col = table.column(column).unwrap();
        (0..table.rows())
            .map(|i| col.numeric_at(i).unwrap())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Counts `column` every way the crate can and requires each to
    /// equal the reference: the forced walk (with and without stored
    /// totals), the forced index, and whatever the public entry point
    /// picks.
    fn check_column(
        table: &Table,
        column: &str,
        selection: Option<&Bitmap>,
    ) -> std::result::Result<(), TestCaseError> {
        let at = table.column_index(column).unwrap();
        let numeric = matches!(table.column_at(at), Column::Int64(_) | Column::Float64(_));
        let bounds = numeric.then(|| bounds_of(table, column));
        let buckets = match table.column_at(at) {
            Column::Categorical { labels, .. } => labels.len(),
            Column::Bool(_) => 2,
            _ => DEFAULT_NUMERIC_BINS,
        };
        let ids = bucket_ids(table, column, buckets, bounds);
        let want = reference(&ids, buckets, selection);
        let counted = selection.map(|sel| (sel, sel.count_ones()));
        let rows = table.rows();

        let walked = walk(rows, buckets, counted, None, |i| ids[i]);
        prop_assert_eq!(&walked, &want, "walk without totals on {}", column);

        let index = table.bucket_index(at).unwrap();
        prop_assert_eq!(index.is_some(), column != "big", "size rule on {}", column);
        if let Some(index) = index {
            prop_assert_eq!(index.bounds, bounds, "index bounds of {}", column);
            prop_assert_eq!(&index.totals, &reference(&ids, buckets, None));
            let walked = walk(rows, buckets, counted, Some(&index.totals), |i| ids[i]);
            prop_assert_eq!(&walked, &want, "walk from totals on {}", column);
            if let Some(sel) = selection {
                prop_assert_eq!(&index.counts_under(sel), &want, "index on {}", column);
            }
        }

        let public = match bounds {
            Some(b) => {
                prop_assert_eq!(numeric_bounds(table, column).unwrap(), b);
                let direct = numeric_histogram(table, column, selection, buckets).unwrap();
                let with = numeric_histogram_with_bounds(table, column, selection, buckets, b);
                prop_assert_eq!(&with.unwrap(), &direct);
                direct
            }
            None => categorical_histogram(table, column, selection).unwrap(),
        };
        prop_assert_eq!(&public.counts(), &want, "public path on {}", column);
        prop_assert_eq!(&histogram(table, column, selection).unwrap(), &public);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reference = forced walk = forced index = public path, on all
        /// four column types, word-aligned and ragged row counts, and
        /// selection sizes on both sides of both crossover points.
        #[test]
        fn every_kernel_matches_the_row_reference(
            seed in 0u64..u64::MAX,
            rows in prop_oneof_rows(),
        ) {
            let mut g = Gen(seed);
            let t = table(&mut g, rows);
            for column in ["i", "f", "b", "one", "few", "max", "big"] {
                check_column(&t, column, None)?;
                let buckets = histogram(&t, column, None).unwrap().num_buckets();
                for ones in sizes(rows, buckets) {
                    let sel = selection(&mut g, rows, ones);
                    check_column(&t, column, Some(&sel))?;
                }
            }
        }

        /// A caller's own `bins` or bounds are honoured — counted by the
        /// walk, whatever the index holds.
        #[test]
        fn foreign_geometry_is_walked_not_indexed(
            seed in 0u64..u64::MAX,
            rows in prop_oneof_rows(),
        ) {
            let mut g = Gen(seed);
            let t = table(&mut g, rows);
            for column in ["i", "f"] {
                let (min, max) = bounds_of(&t, column);
                let geometries = [
                    (7, (min, max)),
                    (1, (min, max)),
                    (DEFAULT_NUMERIC_BINS, (min - 1.0, max + 2.5)),
                    (DEFAULT_NUMERIC_BINS, (min, max + 1.0)),
                ];
                for (bins, bounds) in geometries {
                    let ids = bucket_ids(&t, column, bins, Some(bounds));
                    for ones in sizes(rows, bins) {
                        let sel = selection(&mut g, rows, ones);
                        let got =
                            numeric_histogram_with_bounds(&t, column, Some(&sel), bins, bounds);
                        prop_assert_eq!(
                            got.unwrap().counts(),
                            reference(&ids, bins, Some(&sel)),
                            "{} bins over {:?} on {}", bins, bounds, column
                        );
                    }
                    let all = numeric_histogram_with_bounds(&t, column, None, bins, bounds);
                    prop_assert_eq!(all.unwrap().counts(), reference(&ids, bins, None));
                }
                let sel = selection(&mut g, rows, rows / 2);
                let direct = numeric_histogram(&t, column, Some(&sel), 7).unwrap();
                let ids = bucket_ids(&t, column, 7, Some((min, max)));
                prop_assert_eq!(direct.counts(), reference(&ids, 7, Some(&sel)));
            }
        }
    }

    /// Row counts around word boundaries, and large enough that both
    /// kernels are picked for every bucket count in the table.
    fn prop_oneof_rows() -> impl Strategy<Value = usize> {
        (0usize..6).prop_map(|pick| [1, 63, 64, 65, 640, 2_117][pick])
    }

    #[test]
    fn union_of_buckets_is_row_membership_for_every_member_set() {
        let mut g = Gen(11);
        for rows in [1, 64, 130] {
            let t = table(&mut g, rows);
            for column in ["b", "one", "few"] {
                let at = t.column_index(column).unwrap();
                let index = t.bucket_index(at).unwrap().expect("indexed");
                let buckets = index.totals.len();
                let ids = bucket_ids(&t, column, buckets, None);
                // Every subset: both the OR arm and the complement arm.
                for mask in 0u32..1 << buckets {
                    let member: Vec<bool> = (0..buckets).map(|b| mask >> b & 1 == 1).collect();
                    let want = Bitmap::from_fn(rows, |i| member[ids[i]]);
                    assert_eq!(index.union(&member), want, "{column} {member:?}");
                }
            }
        }
    }

    #[test]
    fn crossover_rule_picks_by_words_read_against_rows_walked() {
        // 100 000 rows = 1 563 words; 10 buckets read 15 630 words.
        assert!(!popcount_is_cheaper(100_000, 10, 15_629, CODE_ROW));
        assert!(popcount_is_cheaper(100_000, 10, 15_630, CODE_ROW));
        assert!(popcount_is_cheaper(100_000, 10, 50_000, CODE_ROW));
        assert!(popcount_is_cheaper(100_000, 10, 100_000 - 15_630, CODE_ROW));
        assert!(!popcount_is_cheaper(
            100_000,
            10,
            100_000 - 15_629,
            CODE_ROW
        ));
        // A binned row is worth four words: the walk keeps a quarter of
        // that range, at either end.
        assert!(!popcount_is_cheaper(100_000, 10, 3_907, BINNED_ROW));
        assert!(popcount_is_cheaper(100_000, 10, 3_908, BINNED_ROW));
        assert!(popcount_is_cheaper(
            100_000,
            10,
            100_000 - 3_908,
            BINNED_ROW
        ));
        assert!(!popcount_is_cheaper(
            100_000,
            10,
            100_000 - 3_907,
            BINNED_ROW
        ));
        // Empty and full selections walk nothing.
        for row_cost in [CODE_ROW, BINNED_ROW] {
            assert!(!popcount_is_cheaper(100_000, 2, 0, row_cost));
            assert!(!popcount_is_cheaper(100_000, 2, 100_000, row_cost));
            // A zero-bucket column has nothing to read either way.
            assert!(popcount_is_cheaper(0, 0, 0, row_cost));
        }
    }

    #[test]
    fn an_index_is_never_larger_than_its_column() {
        let mut g = Gen(7);
        let t = table(&mut g, 2_117);
        assert_eq!(t.index_bytes(), 0, "nothing is built before first use");
        let mut held = 0;
        for (at, cell_bytes) in [(0, 8), (1, 8), (2, 1), (3, 4), (4, 4), (5, 4)] {
            let index = t.bucket_index(at).unwrap().expect("within the size rule");
            let bitmaps = index.bytes() - index.totals.len() * 8;
            assert!(bitmaps <= 2_117usize.next_multiple_of(64) * cell_bytes);
            held += index.bytes();
            assert_eq!(t.index_bytes(), held);
        }
        assert!(t.bucket_index(6).unwrap().is_none(), "33 labels > 32");
        assert_eq!(t.index_bytes(), held);
    }

    #[test]
    fn non_finite_cells_are_a_typed_error_not_phantom_mass() {
        for (bad, row) in [(f64::NAN, 2), (f64::INFINITY, 0), (f64::NEG_INFINITY, 3)] {
            let mut cells = vec![1.0, 2.0, 3.0, 4.0];
            cells[row] = bad;
            let t = TableBuilder::new()
                .push("x", Column::Float64(cells))
                .push("ok", Column::Float64(vec![1.0, 2.0, 3.0, 4.0]))
                .build()
                .unwrap();
            let want = DataError::NonFinite {
                column: "x".into(),
                row,
            };
            assert_eq!(numeric_bounds(&t, "x"), Err(want.clone()));
            assert_eq!(histogram(&t, "x", None), Err(want.clone()));
            assert_eq!(numeric_histogram(&t, "x", None, 4), Err(want.clone()));
            let sel = Bitmap::ones(4);
            let given = numeric_histogram_with_bounds(&t, "x", Some(&sel), 4, (1.0, 4.0));
            assert_eq!(given, Err(want.clone()));
            let cached = crate::cache::EvalCache::new().invariants(&t, "x");
            assert_eq!(cached.map(|_| ()), Err(want));
            // The failure is per column, and nothing was kept for it.
            assert_eq!(t.index_bytes(), 0);
            assert_eq!(numeric_bounds(&t, "ok"), Ok((1.0, 4.0)));
        }
    }
}
