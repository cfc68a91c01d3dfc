//! Rank bit-slice index of a numeric column: range, equality and
//! membership filters by word-parallel compare instead of a row scan.
//!
//! A numeric column with few distinct values carries a few bits of
//! information per row, not a 64-bit cell. The index keeps the sorted
//! distinct values of the column's `f64` image (`x as f64` for `Int64`
//! cells — exactly what the scan kernels compare — with `-0.0` and `0.0`
//! one value, as under `==`) and ⌈log₂ d⌉ bitmaps, slice *j* holding
//! the rows whose value's *rank* among those distinct values has bit
//! *j* set. A literal maps to a rank bound by binary search, and every
//! comparison becomes "rank in `lo..hi`", answered 64 rows per word
//! operation by the O'Neil–Quass bit-sliced compare. Ranks order
//! exactly as the values do, so the result is the scan's, bit for bit.
//!
//! Only finite columns are indexed: with no `NaN` cell, `x > r` is
//! `¬(x ≤ r)` and every operator is a rank range or its complement.

#[cfg(target_arch = "x86_64")]
use crate::bitmap::avx2_popcnt;
use crate::bitmap::Bitmap;
use crate::predicate::CmpOp;
use std::collections::HashSet;

/// The most distinct values an indexed column may have: ⌈log₂ d⌉ ≤ 16
/// slices, two bytes per row against an eight-byte cell.
pub(crate) const MAX_DISTINCT: usize = 1 << 16;

/// Words per block of the compare kernels. The kernels go block by
/// block and, inside a block, slice by slice: every inner loop is then a
/// straight run over three slices of one length that the compiler
/// vectorizes, with the literal's bit tested outside it, while the
/// temporaries stay on the stack and a block of every slice stays in L1.
const BLOCK: usize = 128;

/// The rank bit-slice index of one numeric column. Part of the
/// column's [`crate::hist::BucketIndex`]: built with it, immutable,
/// derived state only.
pub(crate) struct RankSlices {
    rows: usize,
    /// Distinct cell values, ascending; a row's rank is its value's
    /// position here.
    values: Vec<f64>,
    /// `slices[j]` bit `i` ⇔ bit `j` of row `i`'s rank. Tail bits clear.
    slices: Vec<Vec<u64>>,
}

impl RankSlices {
    /// Indexes `cells`, which must all be finite; `None` at the
    /// [`MAX_DISTINCT`]` + 1`-th distinct value.
    pub(crate) fn build(cells: impl ExactSizeIterator<Item = f64> + Clone) -> Option<RankSlices> {
        let mut seen = HashSet::new();
        for v in cells.clone() {
            debug_assert!(v.is_finite());
            // One key for `-0.0` and `0.0`: distinct means distinct under `==`.
            let key = if v == 0.0 { 0.0 } else { v };
            if seen.insert(key.to_bits()) && seen.len() > MAX_DISTINCT {
                return None;
            }
        }
        let mut values: Vec<f64> = seen.into_iter().map(f64::from_bits).collect();
        values.sort_unstable_by(f64::total_cmp);

        let rows = cells.len();
        let bits = match values.len() {
            0 | 1 => 0,
            d => (d - 1).ilog2() as usize + 1,
        };
        let mut slices = vec![vec![0u64; rows.div_ceil(64)]; bits];
        for (row, v) in cells.enumerate() {
            let rank = values.partition_point(|&u| u < v);
            for (j, slice) in slices.iter_mut().enumerate() {
                slice[row / 64] |= ((rank >> j & 1) as u64) << (row % 64);
            }
        }
        Some(RankSlices {
            rows,
            values,
            slices,
        })
    }

    /// Heap bytes held by the slices and the distinct values.
    pub(crate) fn bytes(&self) -> usize {
        (self.slices.len() * self.rows.div_ceil(64) + self.values.len()) * 8
    }

    /// The ranks of the values equal to `r`: one rank, or none (always
    /// none for `NaN`).
    fn ranks_equal(&self, r: f64) -> std::ops::Range<usize> {
        self.values.partition_point(|&v| v < r)..self.values.partition_point(|&v| v <= r)
    }

    /// Rows where `cell op rhs`, as the scan's `f64` comparison has it.
    pub(crate) fn cmp(&self, op: CmpOp, rhs: f64) -> Bitmap {
        // Every comparison with `NaN` is false, except `≠`.
        if rhs.is_nan() {
            return self.range(0, if op == CmpOp::Neq { usize::MAX } else { 0 });
        }
        // `±inf` needs no case: the search puts it below or above
        // every value.
        let equal = self.ranks_equal(rhs);
        match op {
            CmpOp::Lt => self.range(0, equal.start),
            CmpOp::Le => self.range(0, equal.end),
            CmpOp::Gt => self.range(equal.end, usize::MAX),
            CmpOp::Ge => self.range(equal.start, usize::MAX),
            // `equal` holds one rank or none.
            CmpOp::Eq => self.any_of(&[equal.start][..equal.len()], false),
            CmpOp::Neq => self.any_of(&[equal.start][..equal.len()], true),
        }
    }

    /// Rows where `lo <= cell && cell <= hi`. A `NaN` bound, or
    /// `lo > hi`, selects nothing.
    pub(crate) fn between(&self, lo: f64, hi: f64) -> Bitmap {
        if lo.is_nan() || hi.is_nan() {
            return self.range(0, 0);
        }
        self.range(self.ranks_equal(lo).start, self.ranks_equal(hi).end)
    }

    /// Rows whose cell `==` one of `listed`.
    pub(crate) fn member_of(&self, listed: &[f64]) -> Bitmap {
        let mut ranks: Vec<usize> = listed.iter().flat_map(|&r| self.ranks_equal(r)).collect();
        ranks.sort_unstable();
        ranks.dedup();
        self.any_of(&ranks, false)
    }

    /// Rows whose rank is in `lo..hi`: `below(hi) ∧ ¬below(lo)`, each
    /// side computed only where it is not trivially all or no rows.
    fn range(&self, lo: usize, hi: usize) -> Bitmap {
        #[cfg(target_arch = "x86_64")]
        if avx2_popcnt() {
            // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT on this CPU.
            return unsafe { self.range_avx2(lo, hi) };
        }
        self.range_portable(lo, hi)
    }

    /// [`RankSlices::range`] compiled for AVX2: 256-bit inner loops.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    fn range_avx2(&self, lo: usize, hi: usize) -> Bitmap {
        self.range_portable(lo, hi)
    }

    #[inline(always)]
    fn range_portable(&self, lo: usize, hi: usize) -> Bitmap {
        let hi = hi.min(self.values.len());
        let mut out = vec![0u64; self.rows.div_ceil(64)];
        if lo < hi {
            let bounded = hi < self.values.len();
            for (b, block) in out.chunks_mut(BLOCK).enumerate() {
                if bounded {
                    self.below(hi, b * BLOCK, block);
                } else {
                    block.fill(u64::MAX);
                }
                if lo > 0 {
                    let mut under = [0u64; BLOCK];
                    let under = &mut under[..block.len()];
                    self.below(lo, b * BLOCK, under);
                    for (w, &u) in block.iter_mut().zip(under.iter()) {
                        *w &= !u;
                    }
                }
            }
        }
        // The all-ones seeds and the complements set tail bits.
        Bitmap::from_unmasked_words(out, self.rows)
    }

    /// Writes the rows of words `at..at + lt.len()` whose rank is below
    /// `c` (`0 < c < d`) into `lt`: slices from the most significant
    /// down, `lt |= eq & !s; eq &= s` where `c` has a 1, `eq &= !s`
    /// where it has a 0. Below `c`'s lowest 1 nothing can join `lt`, so
    /// the walk stops there.
    #[inline(always)]
    fn below(&self, c: usize, at: usize, lt: &mut [u64]) {
        debug_assert!(0 < c && c < self.values.len() && lt.len() <= BLOCK);
        lt.fill(0);
        let mut eq = [u64::MAX; BLOCK];
        let eq = &mut eq[..lt.len()];
        for j in (c.trailing_zeros() as usize..self.slices.len()).rev() {
            let slice = &self.slices[j][at..at + lt.len()];
            if c >> j & 1 == 1 {
                for ((lt, eq), &s) in lt.iter_mut().zip(eq.iter_mut()).zip(slice) {
                    *lt |= *eq & !s;
                    *eq &= s;
                }
            } else {
                for (eq, &s) in eq.iter_mut().zip(slice) {
                    *eq &= !s;
                }
            }
        }
    }

    /// Rows whose rank is one of `ranks` (each `< d`) — or, with
    /// `complement`, none of them: the OR of per-rank equalities.
    fn any_of(&self, ranks: &[usize], complement: bool) -> Bitmap {
        #[cfg(target_arch = "x86_64")]
        if avx2_popcnt() {
            // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT on this CPU.
            return unsafe { self.any_of_avx2(ranks, complement) };
        }
        self.any_of_portable(ranks, complement)
    }

    /// [`RankSlices::any_of`] compiled for AVX2: 256-bit inner loops.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    fn any_of_avx2(&self, ranks: &[usize], complement: bool) -> Bitmap {
        self.any_of_portable(ranks, complement)
    }

    #[inline(always)]
    fn any_of_portable(&self, ranks: &[usize], complement: bool) -> Bitmap {
        let mut out = vec![0u64; self.rows.div_ceil(64)];
        for (b, block) in out.chunks_mut(BLOCK).enumerate() {
            let at = b * BLOCK;
            for &c in ranks {
                let mut eq = [u64::MAX; BLOCK];
                let eq = &mut eq[..block.len()];
                for (j, slice) in self.slices.iter().enumerate() {
                    let slice = &slice[at..at + eq.len()];
                    if c >> j & 1 == 1 {
                        for (eq, &s) in eq.iter_mut().zip(slice) {
                            *eq &= s;
                        }
                    } else {
                        for (eq, &s) in eq.iter_mut().zip(slice) {
                            *eq &= !s;
                        }
                    }
                }
                for (w, &e) in block.iter_mut().zip(eq.iter()) {
                    *w |= e;
                }
            }
            if complement {
                for w in block {
                    *w = !*w;
                }
            }
        }
        // The all-ones seeds and the complements set tail bits.
        Bitmap::from_unmasked_words(out, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` cells cycling through `d` distinct values `0.0, 1.5, 3.0 …`
    /// in a scrambled order, so every rank occurs in every block.
    fn cells(rows: usize, d: usize) -> Vec<f64> {
        (0..rows).map(|i| (i * 7919 % d) as f64 * 1.5).collect()
    }

    /// Row counts of one ragged block, and of three blocks ending on a
    /// word boundary and inside a word.
    const ROWS: [usize; 4] = [64, 100, 2 * BLOCK * 64 + 640, 2 * BLOCK * 64 + 677];

    #[test]
    fn every_rank_bound_compares_as_the_scan_does() {
        let scan = |cells: &[f64], op: CmpOp, r: f64| {
            Bitmap::from_fn(cells.len(), |i| match op {
                CmpOp::Eq => cells[i] == r,
                CmpOp::Neq => cells[i] != r,
                CmpOp::Lt => cells[i] < r,
                CmpOp::Le => cells[i] <= r,
                CmpOp::Gt => cells[i] > r,
                CmpOp::Ge => cells[i] >= r,
            })
        };
        // One value (no slice), a power of two, one past it, and 7 slices.
        for d in [1, 2, 3, 64, 65, 100] {
            for rows in ROWS {
                let cells = cells(rows, d);
                let index = RankSlices::build(cells.iter().copied()).expect("few values");
                let distinct = d.min(rows);
                assert_eq!(index.values.len(), distinct);
                assert_eq!(index.slices.len(), (distinct as f64).log2().ceil() as usize);
                // Every literal on a value (rank bounds c and c + 1) and
                // strictly between two (c twice), below the least and
                // above the greatest included. `==` on bitmaps compares
                // whole words: a set tail bit is a difference.
                for c in 0..=d {
                    for r in [c as f64 * 1.5, c as f64 * 1.5 - 0.75] {
                        for op in CmpOp::ALL {
                            assert_eq!(
                                index.cmp(op, r),
                                scan(&cells, op, r),
                                "{op:?} {r} over {d} values, {rows} rows"
                            );
                        }
                        for hi in [r, 0.0, d as f64, d as f64 * 1.5 + 1.0] {
                            assert_eq!(
                                index.between(r, hi),
                                Bitmap::from_fn(rows, |i| cells[i] >= r && cells[i] <= hi),
                                "[{r}, {hi}] over {d} values, {rows} rows"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn membership_is_the_or_of_equalities_with_a_clean_tail() {
        for rows in ROWS {
            let cells = cells(rows, 100);
            let index = RankSlices::build(cells.iter().copied()).expect("few values");
            let lists: [&[f64]; 5] = [
                &[],
                &[3.0],
                &[3.0, 148.5, 3.0, 0.0],
                &[f64::NAN, 0.75, -1.0, 1e9],
                &[-0.0, f64::INFINITY, 4.5],
            ];
            for listed in lists {
                assert_eq!(
                    index.member_of(listed),
                    Bitmap::from_fn(rows, |i| listed.contains(&cells[i])),
                    "{listed:?} over {rows} rows"
                );
            }
            // The complement arms, which set every tail bit before the
            // bitmap is built.
            let all = Bitmap::ones(rows);
            assert_eq!(index.cmp(CmpOp::Neq, f64::NAN), all);
            assert_eq!(index.cmp(CmpOp::Neq, 0.75), all);
            assert_eq!(index.cmp(CmpOp::Ge, f64::NEG_INFINITY), all);
            assert_eq!(index.cmp(CmpOp::Le, f64::INFINITY), all);
            assert_eq!(index.between(f64::NEG_INFINITY, f64::INFINITY), all);
            assert_eq!(index.cmp(CmpOp::Eq, f64::NAN).count_ones(), 0);
            assert_eq!(index.between(f64::NAN, 1.0).count_ones(), 0);
            assert_eq!(index.between(1.0, f64::NAN).count_ones(), 0);
        }
    }

    /// The AVX2 build of each compare kernel returns what the portable
    /// build does, over every rank range and a spread of rank lists.
    #[test]
    fn both_builds_of_the_compare_kernels_agree() {
        #[cfg(target_arch = "x86_64")]
        if avx2_popcnt() {
            for d in [1, 2, 3, 64, 65, 100] {
                for rows in ROWS {
                    let index = RankSlices::build(cells(rows, d).into_iter()).expect("few values");
                    let d = index.values.len();
                    let bounds: Vec<usize> = (0..=d).chain([usize::MAX]).collect();
                    for &lo in &bounds {
                        for &hi in &bounds {
                            // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT.
                            let fast = unsafe { index.range_avx2(lo, hi) };
                            assert_eq!(fast, index.range_portable(lo, hi), "{lo}..{hi} of {d}");
                        }
                    }
                    let all: Vec<usize> = (0..d).collect();
                    let odd: Vec<usize> = (1..d).step_by(2).collect();
                    for ranks in [&[][..], &[0], &[d - 1], &odd, &all] {
                        for complement in [false, true] {
                            // SAFETY: as above.
                            let fast = unsafe { index.any_of_avx2(ranks, complement) };
                            let portable = index.any_of_portable(ranks, complement);
                            assert_eq!(fast, portable, "{ranks:?} of {d}, {complement}");
                        }
                    }
                }
            }
            return;
        }
        eprintln!("AVX2 build not compared: this CPU lacks AVX2 or POPCNT");
    }

    #[test]
    fn both_zeros_share_a_rank_and_the_size_rule_is_a_distinct_count() {
        let index = RankSlices::build([0.0, -0.0, 1.0, -0.0].into_iter()).expect("two values");
        assert_eq!(index.values.len(), 2);
        assert_eq!(index.cmp(CmpOp::Eq, -0.0).count_ones(), 3);
        assert_eq!(index.cmp(CmpOp::Lt, 0.0).count_ones(), 0);

        let at_rule = (0..MAX_DISTINCT).map(|i| i as f64);
        let index = RankSlices::build(at_rule).expect("65 536 values are indexed");
        assert_eq!(index.slices.len(), 16);
        assert!(RankSlices::build((0..MAX_DISTINCT + 1).map(|i| i as f64)).is_none());
        assert!(RankSlices::build(std::iter::empty()).is_some());
    }
}
