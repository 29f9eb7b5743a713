//! Fixed-capacity bitset over `u64` words.
//!
//! The sparse wavefront engine keeps its per-round node state — delivered
//! set, wake set, decided set, completion mask — as bit-packed arrays so
//! that a 10⁶-node torus's round bookkeeping stays cache-resident
//! (125 KB per set instead of 1 MB+ of `Vec<bool>` / `Vec<Option<_>>`).
//! Membership updates are O(1), population counts are hardware popcounts,
//! and frontier gathering walks words (O(n/64)) instead of nodes (O(n)).

/// A fixed-capacity set of `usize` indices, bit-packed into `u64` words.
///
/// Capacity is fixed at construction; indices at or past `len()` panic in
/// debug builds and must never be used (the high bits of the last word
/// are kept zero so `count_ones` and word-level iteration stay exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for indices `0..len`.
    #[must_use]
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// The set of every index in `0..len`.
    #[must_use]
    pub fn full(len: usize) -> BitSet {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            // Keep the bits past `len` zero, as every other constructor.
            *last >>= (64 - len % 64) % 64;
        }
        BitSet { words, len }
    }

    /// Capacity (the exclusive upper bound on indices).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `idx`. Returns `true` iff the bit was newly set.
    ///
    /// # Panics
    ///
    /// If `idx >= len()`.
    #[inline]
    pub fn set(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `idx`. Returns `true` iff the bit was previously set.
    ///
    /// # Panics
    ///
    /// If `idx >= len()`.
    #[inline]
    pub fn clear(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// If `idx >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Removes every element, keeping capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements (hardware popcount per word).
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Number of elements present in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// If the capacities differ.
    #[must_use]
    pub fn intersection_count(&self, other: &BitSet) -> u64 {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }

    /// Calls `f` with every index present in `self`, ascending.
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                f(u32::try_from(w).expect("word index fits u32") * 64 + b);
            }
        }
    }

    /// Calls `f` with every index present in `self | other`, ascending.
    /// Word-level OR iteration: O(n/64) plus one call per element.
    ///
    /// # Panics
    ///
    /// If the capacities differ.
    pub fn for_each_union(&self, other: &BitSet, mut f: impl FnMut(u32)) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (w, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut bits = a | b;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                f(u32::try_from(w).expect("word index fits u32") * 64 + bit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut s = BitSet::new(130);
        assert!(!s.get(0));
        assert!(s.set(0));
        assert!(!s.set(0), "second insert reports not-fresh");
        assert!(s.set(129));
        assert!(s.get(0) && s.get(129) && !s.get(64));
        assert_eq!(s.count_ones(), 2);
        assert!(s.clear(0));
        assert!(!s.clear(0), "second removal reports absent");
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn clear_all_keeps_capacity() {
        let mut s = BitSet::new(100);
        for i in (0..100).step_by(3) {
            s.set(i);
        }
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 100);
        assert!(s.set(99));
    }

    #[test]
    fn intersection_count_matches_naive() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for i in (0..200).step_by(2) {
            a.set(i);
        }
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        let naive = (0..200).filter(|&i| a.get(i) && b.get(i)).count() as u64;
        assert_eq!(a.intersection_count(&b), naive);
        assert_eq!(naive, 34); // multiples of 6 in 0..200, inclusive of 0
    }

    #[test]
    fn for_each_union_is_sorted_and_complete() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in [0usize, 5, 63, 64, 65, 128, 299] {
            a.set(i);
        }
        for i in [5usize, 64, 130, 298] {
            b.set(i);
        }
        let mut got = Vec::new();
        a.for_each_union(&b, |i| got.push(i));
        assert_eq!(got, vec![0, 5, 63, 64, 65, 128, 130, 298, 299]);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn for_each_visits_every_member() {
        let mut s = BitSet::new(97);
        for i in (0..97).step_by(7) {
            s.set(i);
        }
        let mut got = Vec::new();
        s.for_each(|i| got.push(i as usize));
        assert_eq!(got, (0..97).step_by(7).collect::<Vec<_>>());
    }

    #[test]
    fn full_holds_every_index_and_nothing_past_len() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            let s = BitSet::full(len);
            assert_eq!(s.count_ones(), len as u64, "len {len}");
            assert!((0..len).all(|i| s.get(i)), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let mut s = BitSet::new(64);
        s.set(64);
    }
}
