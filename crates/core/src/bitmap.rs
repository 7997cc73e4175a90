//! A packed fixed-universe bitmap used for the materialized per-rule and
//! per-predicate pair sets (§6.1 of the paper).
//!
//! Its 64-bit words are also the unit every evaluation pass works in: a
//! pass hands its steps `(word, mask)` units, and their results come back
//! as masks that are OR-ed into, or cleared from, a bitmap's word whole.

use serde::{Deserialize, Serialize};

/// A bitmap over the universe `0..len` of candidate-pair indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap over `len` positions.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Size of the universe.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len` (pair indices are trusted dense values).
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Word `w`: the bits of pairs `64 * w ..= 64 * w + 63`, pair `i` at
    /// bit `i % 64`.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Sets the bits of `mask` in word `w`.
    #[inline]
    pub(crate) fn set_word(&mut self, w: usize, mask: u64) {
        debug_assert!(
            word_pairs(w, mask).all(|i| i < self.len),
            "mask past the universe"
        );
        self.words[w] |= mask;
    }

    /// Clears the bits of `mask` in word `w`.
    #[inline]
    pub(crate) fn clear_word(&mut self, w: usize, mask: u64) {
        self.words[w] &= !mask;
    }

    /// The words holding a set bit, as `(w, word)` in ascending `w`.
    pub(crate) fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter_map(|(w, &bits)| (bits != 0).then_some((w, bits)))
    }

    /// Zeroes every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Heap bytes used by the bitmap (for the §7.4 memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The packed words, for stable binary serialization.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from serialized words. `None` when the word count
    /// does not cover `len` bits exactly (corrupt input).
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        Some(Bitmap { words, len })
    }
}

/// The pairs of the set bits of `mask` in word `w`, ascending.
#[inline]
pub(crate) fn word_pairs(w: usize, mask: u64) -> impl Iterator<Item = usize> {
    let mut bits = mask;
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(w * 64 + b)
    })
}

/// The bits of `mask` in word `w` whose pair satisfies `keep`.
#[inline]
pub(crate) fn filter_word(w: usize, mask: u64, mut keep: impl FnMut(usize) -> bool) -> u64 {
    word_pairs(w, mask)
        .filter(|&i| keep(i))
        .fold(0, |kept, i| kept | 1 << (i % 64))
}

/// The `(word, mask)` units of ascending pair indices.
pub(crate) fn words_of(pairs: impl IntoIterator<Item = usize>) -> Vec<(usize, u64)> {
    let mut words: Vec<(usize, u64)> = Vec::new();
    for i in pairs {
        match words.last_mut() {
            Some((w, mask)) if *w == i / 64 => *mask |= 1 << (i % 64),
            _ => words.push((i / 64, 1 << (i % 64))),
        }
    }
    words
}

/// The `(word, mask)` units of every pair in `0..n`.
pub(crate) fn all_words(n: usize) -> Vec<(usize, u64)> {
    (0..n.div_ceil(64))
        .map(|w| {
            let len = (n - 64 * w).min(64);
            (w, u64::MAX >> (64 - len))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_units_round_trip_pairs() {
        let pairs = [0, 5, 63, 64, 130, 191];
        let words = words_of(pairs);
        assert_eq!(
            words,
            vec![(0, 1 | 1 << 5 | 1 << 63), (1, 1), (2, 1 << 2 | 1 << 63)]
        );
        let back: Vec<usize> = words.iter().flat_map(|&(w, m)| word_pairs(w, m)).collect();
        assert_eq!(back, pairs);
        assert_eq!(filter_word(2, words[2].1, |i| i > 150), 1 << 63);
        assert_eq!(all_words(0), vec![]);
        assert_eq!(all_words(64), vec![(0, u64::MAX)]);
        assert_eq!(
            all_words(130),
            vec![(0, u64::MAX), (1, u64::MAX), (2, 0b11)]
        );
    }

    #[test]
    fn word_writes_touch_only_their_mask() {
        let mut b = Bitmap::new(130);
        b.set_word(1, 0b1011);
        b.set_word(2, 0b10);
        b.clear_word(1, 0b0011);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![67, 129]);
        assert_eq!(b.word(1), 0b1000);
        assert_eq!(
            b.nonzero_words().collect::<Vec<_>>(),
            vec![(1, 0b1000), (2, 0b10)]
        );
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitmap::new(200);
        for i in [3, 64, 65, 150, 199] {
            b.set(i);
        }
        let ones: Vec<_> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 150, 199]);
    }

    #[test]
    fn clear_all() {
        let mut b = Bitmap::new(100);
        for i in 0..100 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 100);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bitmap::new(10);
        let _ = b.get(10);
    }

    #[test]
    fn zero_len() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_is_idempotent() {
        let mut b = Bitmap::new(10);
        b.set(5);
        b.set(5);
        assert_eq!(b.count_ones(), 1);
    }
}
