//! Packed selection bitmaps.
//!
//! Every filter a user drags out evaluates to a [`Bitmap`] over the table's
//! rows. Filter chains are conjunctions (`and`), linked negated selections
//! are complements (`not`), and histogram computation walks set bits. The
//! representation is a plain `Vec<u64>` with the trailing word masked, so
//! all boolean algebra runs word-at-a-time.

/// A fixed-length bitset over table rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of `len` bits.
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Builds from a boolean slice, packing 64 bits per word.
    pub fn from_bools(bits: &[bool]) -> Bitmap {
        Bitmap::from_fn(bits.len(), |i| bits[i])
    }

    /// Builds a bitmap of `len` bits where bit `i` is `f(i)`, packing 64
    /// rows per word with no `Vec<bool>` intermediate — the bulk
    /// constructor behind [`Bitmap::from_bools`]. (The predicate kernels
    /// use a slice-specialized sibling of this loop, `pack` in
    /// `predicate.rs`, whose `chunks(64)` inner loop elides bounds
    /// checks; use `from_fn` when there is no backing slice to chunk.)
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut i = 0;
        while i + 64 <= len {
            let mut w = 0u64;
            for bit in 0..64 {
                w |= (f(i + bit) as u64) << bit;
            }
            words.push(w);
            i += 64;
        }
        if i < len {
            let mut w = 0u64;
            for bit in 0..(len - i) {
                w |= (f(i + bit) as u64) << bit;
            }
            words.push(w);
        }
        Bitmap { words, len }
    }

    /// Builds from pre-packed words. The caller must have masked the
    /// trailing word; debug builds verify it.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let b = Bitmap { words, len };
        debug_assert!(
            len.is_multiple_of(64) || b.words.last().is_none_or(|w| w >> (len % 64) == 0),
            "unmasked tail word"
        );
        b
    }

    /// Builds from pre-packed words whose trailing word may hold bits
    /// beyond `len` (a complement's, an all-ones seed's): clears them.
    pub(crate) fn from_unmasked_words(words: Vec<u64>, len: usize) -> Bitmap {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    /// Builds a bitmap of `len` bits with the given positions set.
    ///
    /// Panics in debug builds if an index is out of range.
    pub fn from_indices(len: usize, indices: &[usize]) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for &i in indices {
            b.set(i);
        }
        b
    }

    /// Number of bits (table rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        #[cfg(target_arch = "x86_64")]
        if avx2_popcnt() {
            // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT on this CPU.
            return unsafe { count_avx2(&self.words) };
        }
        count_portable(&self.words)
    }

    /// `(self ∧ other).count_ones()` without allocating the intersection
    /// bitmap. Panics if lengths differ.
    pub fn count_ones_and(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        #[cfg(target_arch = "x86_64")]
        if avx2_popcnt() {
            // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT on this CPU.
            return unsafe { count_and_avx2(&self.words, &other.words) };
        }
        count_and_portable(&self.words, &other.words)
    }

    /// Calls `f(i)` for every set bit `i` in ascending order — the
    /// word-at-a-time loop behind selection-restricted counting, without
    /// per-bit iterator machinery.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let base = wi * 64;
            let mut w = word;
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Calls `f(i)` for every *clear* bit `i` in ascending order — the
    /// complement walk used when a selection covers more than half the
    /// rows and counting the complement is cheaper.
    #[inline]
    pub fn for_each_clear(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let base = wi * 64;
            let bits = std::cmp::min(64, self.len - base);
            let mut w = !word;
            if bits < 64 {
                w &= (1u64 << bits) - 1;
            }
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Fraction of rows selected; 0 for an empty bitmap.
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// In-place intersection. Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union. Panics if lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Intersection, by value: one zipped pass, no copy of `self`.
    /// Panics if lengths differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, |a, b| a & b)
    }

    /// Union, by value: one zipped pass. Panics if lengths differ.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, |a, b| a | b)
    }

    /// Complement, by value: one pass.
    pub fn not(&self) -> Bitmap {
        Bitmap::from_unmasked_words(self.words.iter().map(|w| !w).collect(), self.len)
    }

    /// `f` of the two bitmaps word by word. `f` must map clear tail
    /// bits to clear tail bits.
    fn zip_with(&self, other: &Bitmap, f: impl Fn(u64, u64) -> u64) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            BitIter { word: w, base }
        })
    }

    /// Zero out bits beyond `len` in the last word so counts stay exact.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// True when this CPU has AVX2 and POPCNT, so the `_avx2` builds of the
/// popcount and rank bit-slice kernels may run. std caches the answer
/// after the first call, so each later check is one atomic load.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2_popcnt() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

// Each kernel below is written once, as an `#[inline(always)]` portable
// function, and compiled a second time inside an `_avx2` function that
// enables the two features: there `count_ones` is one POPCNT (or a
// vectorized popcount) instead of a bit-trick sequence. Callers pick the
// build with `avx2_popcnt`; off x86-64 only the portable one exists.

#[inline(always)]
fn count_portable(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn count_avx2(words: &[u64]) -> usize {
    count_portable(words)
}

#[inline(always)]
fn count_and_portable(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn count_and_avx2(a: &[u64], b: &[u64]) -> usize {
    count_and_portable(a, b)
}

/// Iterator over set bits of one word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1; // clear lowest set bit
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let z = Bitmap::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        let o = Bitmap::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert_eq!(o.selectivity(), 1.0);
        assert!(Bitmap::zeros(0).is_empty());
        assert_eq!(Bitmap::zeros(0).selectivity(), 0.0);
    }

    #[test]
    fn ones_masks_tail_word() {
        // 65 bits: second word must only contain 1 set bit.
        let o = Bitmap::ones(65);
        assert_eq!(o.count_ones(), 65);
        let mut n = o.not();
        assert_eq!(n.count_ones(), 0);
        n.not_assign();
        assert_eq!(n.count_ones(), 65);
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn boolean_algebra_laws() {
        let a = Bitmap::from_indices(200, &[1, 5, 64, 127, 199]);
        let b = Bitmap::from_indices(200, &[5, 64, 150]);
        // a ∧ b
        let and = a.and(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![5, 64]);
        // a ∨ b
        let or = a.or(&b);
        assert_eq!(or.count_ones(), 6);
        // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b.
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        // Double complement.
        assert_eq!(a.not().not(), a);
        // a ∧ ¬a = 0; a ∨ ¬a = 1.
        assert_eq!(a.and(&a.not()).count_ones(), 0);
        assert_eq!(a.or(&a.not()).count_ones(), 200);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bools: Vec<bool> = (0..77).map(|i| i % 3 == 0).collect();
        let b = Bitmap::from_bools(&bools);
        assert_eq!(b.count_ones(), bools.iter().filter(|&&x| x).count());
        for (i, &v) in bools.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let idx = [0usize, 2, 63, 64, 65, 128, 190];
        let b = Bitmap::from_indices(191, &idx);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), idx.to_vec());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = Bitmap::zeros(10);
        a.and_assign(&Bitmap::zeros(11));
    }

    #[test]
    fn from_fn_matches_from_bools() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            let bools: Vec<bool> = (0..len).map(|i| i % 7 == 0 || i % 3 == 1).collect();
            assert_eq!(
                Bitmap::from_fn(len, |i| bools[i]),
                Bitmap::from_bools(&bools)
            );
        }
    }

    #[test]
    fn count_ones_and_matches_materialized_intersection() {
        let a = Bitmap::from_indices(150, &[0, 5, 63, 64, 100, 149]);
        let b = Bitmap::from_indices(150, &[5, 64, 99, 149]);
        assert_eq!(a.count_ones_and(&b), a.and(&b).count_ones());
        assert_eq!(a.count_ones_and(&b), 3);
    }

    /// The AVX2 build of each popcount kernel returns what the portable
    /// build does: 0 to 4 099 words, full and ragged tails, all-zeros,
    /// all-ones and random words.
    #[test]
    fn both_builds_of_the_popcount_kernels_agree() {
        let mut g = crate::predicate::arbitrary::Gen(7);
        #[cfg(target_arch = "x86_64")]
        let avx2 = avx2_popcnt();
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        for words in [0usize, 1, 63, 64, 65, 4099] {
            for len in [words * 64, (words * 64).saturating_sub(37)] {
                let random = Bitmap::from_fn(len, |_| g.next() & 1 == 1);
                let other = Bitmap::from_fn(len, |_| g.next().is_multiple_of(3));
                for b in [Bitmap::zeros(len), Bitmap::ones(len), random] {
                    let ones = b.iter_ones().count();
                    let both = b.and(&other).iter_ones().count();
                    assert_eq!(count_portable(&b.words), ones, "{len} bits");
                    assert_eq!(count_and_portable(&b.words, &other.words), both);
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        // SAFETY: `avx2_popcnt` detected AVX2 and POPCNT.
                        assert_eq!(unsafe { count_avx2(&b.words) }, ones, "{len} bits");
                        // SAFETY: as above.
                        let and = unsafe { count_and_avx2(&b.words, &other.words) };
                        assert_eq!(and, both, "{len} bits");
                    }
                }
            }
        }
        if !avx2 {
            eprintln!("AVX2 build not compared: this CPU lacks AVX2 or POPCNT");
        }
    }

    #[test]
    fn for_each_set_and_clear_partition_the_rows() {
        let b = Bitmap::from_indices(130, &[0, 1, 64, 65, 127, 129]);
        let mut set = Vec::new();
        let mut clear = Vec::new();
        b.for_each_set(|i| set.push(i));
        b.for_each_clear(|i| clear.push(i));
        assert_eq!(set, b.iter_ones().collect::<Vec<_>>());
        assert_eq!(set.len() + clear.len(), 130);
        assert!(clear.iter().all(|&i| !b.get(i)));
        // The complement walk never reports out-of-range tail bits.
        assert!(clear.iter().all(|&i| i < 130));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn bools(n: usize) -> impl Strategy<Value = Vec<bool>> {
        proptest::collection::vec(any::<bool>(), n)
    }

    proptest! {
        #[test]
        fn count_matches_naive(v in bools(200)) {
            let b = Bitmap::from_bools(&v);
            prop_assert_eq!(b.count_ones(), v.iter().filter(|&&x| x).count());
        }

        #[test]
        fn and_or_not_match_naive(a in bools(130), b in bools(130)) {
            let ba = Bitmap::from_bools(&a);
            let bb = Bitmap::from_bools(&b);
            let and_naive: Vec<bool> = a.iter().zip(&b).map(|(x, y)| *x && *y).collect();
            let or_naive: Vec<bool> = a.iter().zip(&b).map(|(x, y)| *x || *y).collect();
            let not_naive: Vec<bool> = a.iter().map(|x| !x).collect();
            prop_assert_eq!(ba.and(&bb), Bitmap::from_bools(&and_naive));
            prop_assert_eq!(ba.or(&bb), Bitmap::from_bools(&or_naive));
            prop_assert_eq!(ba.not(), Bitmap::from_bools(&not_naive));
        }

        #[test]
        fn iter_ones_sorted_and_complete(v in bools(99)) {
            let b = Bitmap::from_bools(&v);
            let ones: Vec<usize> = b.iter_ones().collect();
            prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(ones.len(), b.count_ones());
            for i in ones {
                prop_assert!(v[i]);
            }
        }
    }
}
