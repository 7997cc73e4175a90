//! The feature-value memo: `(pair, feature) → similarity`.
//!
//! §4.3 ("dynamic memoing") stores each computed feature value so later
//! references only pay a lookup. §7.4 discusses two layouts, both provided
//! here:
//!
//! * [`DenseMemo`] — a `|C| × |F|` array (the paper's choice): O(1) access,
//!   memory proportional to the full grid whether or not values are filled.
//! * [`SparseMemo`] — a hash map holding only computed values: less memory
//!   when lazy evaluation leaves most of the grid empty, pricier lookups.
//!
//! The dense grid is feature-major: one `|C|`-long column per feature.
//! Every pass tests one predicate, so one feature, over a 64-pair word at a
//! time; in a column that word's cells are one contiguous run of at most 64
//! values, which [`Memo::word`] hands out whole, where a pair-major grid
//! spread them over 64 rows. A feature the analyst introduces mid-session
//! appends a column, and the grid is never re-laid out. The layout does not
//! change the §7.4 comparison: the dense memo still holds the full grid and
//! accounts its bytes, the sparse one only what was computed.

use crate::feature::FeatureId;
use std::collections::HashMap;

/// Storage interface for memoized feature values.
///
/// Implementations must treat `(pair, feature)` keys as write-once: the
/// engines never overwrite an existing value (feature values are
/// deterministic).
pub trait Memo {
    /// The memoized value, if present.
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64>;
    /// Stores a computed value.
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64);
    /// True when a value is present (no value read).
    fn contains(&self, pair: usize, feature: FeatureId) -> bool {
        self.get(pair, feature).is_some()
    }
    /// The cells of `feature` for the pairs of word `word` — pairs `64 *
    /// word` onwards, at most 64 of them, NaN where no value is stored —
    /// when the layout holds them contiguously. `None`, the default, sends
    /// the caller to per-pair [`Memo::get`]s.
    fn word(&self, word: usize, feature: FeatureId) -> Option<&[f64]> {
        let _ = (word, feature);
        None
    }
    /// Number of stored values.
    fn stored(&self) -> usize;
    /// Forgets everything.
    fn reset(&mut self);
    /// Approximate heap bytes used (§7.4 memory accounting).
    fn heap_bytes(&self) -> usize;
}

/// The cells of word `word` in `column`: at most 64, fewer in the last
/// word; `None` past the column's end.
#[inline]
fn word_cells(column: &[f64], word: usize) -> Option<&[f64]> {
    let start = word.checked_mul(64)?;
    column.get(start..column.len().min(start.saturating_add(64)))
}

/// The value of a cell, or `None` for the NaN "absent" sentinel.
#[inline]
fn present(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

/// Dense `pairs × features` memo with NaN as the "absent" sentinel, held
/// feature-major (one `n_pairs`-long column per feature; see the module
/// docs for why).
///
/// Feature capacity grows on demand (the analyst may introduce new features
/// mid-session); growth appends columns and moves no stored value.
#[derive(Debug, Clone)]
pub struct DenseMemo {
    n_pairs: usize,
    /// Column `f` holds feature `f`'s value for every pair.
    columns: Vec<Vec<f64>>,
    stored: usize,
}

impl DenseMemo {
    /// Creates a dense memo for `n_pairs` pairs and `n_features` features.
    pub fn new(n_pairs: usize, n_features: usize) -> Self {
        let mut memo = DenseMemo {
            n_pairs,
            columns: Vec::new(),
            stored: 0,
        };
        memo.ensure_features(n_features);
        memo
    }

    /// Ensures capacity for feature ids `0..n_features`, appending an
    /// empty column per new feature.
    pub fn ensure_features(&mut self, n_features: usize) {
        let n_pairs = self.n_pairs;
        if n_features > self.columns.len() {
            self.columns
                .resize_with(n_features, || vec![f64::NAN; n_pairs]);
        }
    }

    /// Number of pair slots.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of feature slots.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Splits the memo into disjoint mutable views over contiguous pair
    /// ranges, so the sharded driver's workers write feature values
    /// **directly into this memo** — whatever a parallel run or delta
    /// computes is retained in place. A view holds its range of every
    /// column.
    ///
    /// Shard views cannot grow the feature axis; call
    /// [`DenseMemo::ensure_features`] for the full feature registry first.
    /// After the shards are done, fold their [`MemoShard::new_stored`]
    /// counts back via [`DenseMemo::add_stored`].
    ///
    /// # Panics
    ///
    /// Panics when the ranges do not tile a prefix of `0..n_pairs` in
    /// order.
    pub fn shard_views(&mut self, ranges: &[std::ops::Range<usize>]) -> Vec<MemoShard<'_>> {
        let mut consumed = 0usize; // pairs already split off
        let mut shards: Vec<MemoShard<'_>> = ranges
            .iter()
            .map(|r| {
                assert!(
                    r.start == consumed && r.end <= self.n_pairs,
                    "shard ranges must tile the pair axis in order"
                );
                consumed = r.end;
                MemoShard {
                    columns: Vec::with_capacity(self.columns.len()),
                    start: r.start,
                    len: r.len(),
                    stored: 0,
                }
            })
            .collect();
        for column in &mut self.columns {
            let mut rest = &mut column[..];
            for shard in &mut shards {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(shard.len);
                shard.columns.push(head);
                rest = tail;
            }
        }
        shards
    }

    /// Accounts for values stored through shard views (see
    /// [`DenseMemo::shard_views`]).
    pub fn add_stored(&mut self, n: usize) {
        self.stored += n;
    }

    /// The columns (feature-major, NaN = absent), for stable binary
    /// serialization.
    pub(crate) fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Rebuilds a memo from serialized columns. `None` when a column does
    /// not have `n_pairs` cells or `stored` exceeds the grid (corrupt
    /// input).
    pub(crate) fn from_columns(
        n_pairs: usize,
        columns: Vec<Vec<f64>>,
        stored: usize,
    ) -> Option<Self> {
        let cells = n_pairs.checked_mul(columns.len())?;
        if columns.iter().any(|c| c.len() != n_pairs) || stored > cells {
            return None;
        }
        Some(DenseMemo {
            n_pairs,
            columns,
            stored,
        })
    }
}

impl Memo for DenseMemo {
    #[inline]
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64> {
        present(*self.columns.get(feature.index())?.get(pair)?)
    }

    #[inline]
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64) {
        // NaN is the "absent" sentinel; storing it would silently drop the
        // value. Defensively normalize to 0.0 (the context already does —
        // this keeps the memo total even for values that bypass it).
        let value = if value.is_nan() { 0.0 } else { value };
        self.ensure_features(feature.index() + 1);
        let cell = self.columns[feature.index()]
            .get_mut(pair)
            .expect("pair index out of range for memo");
        if cell.is_nan() {
            self.stored += 1;
        }
        *cell = value;
    }

    #[inline]
    fn word(&self, word: usize, feature: FeatureId) -> Option<&[f64]> {
        word_cells(self.columns.get(feature.index())?, word)
    }

    fn stored(&self) -> usize {
        self.stored
    }

    fn reset(&mut self) {
        for column in &mut self.columns {
            column.fill(f64::NAN);
        }
        self.stored = 0;
    }

    fn heap_bytes(&self) -> usize {
        let cells: usize = self.columns.iter().map(Vec::capacity).sum();
        cells * std::mem::size_of::<f64>()
    }
}

/// A mutable view over one contiguous pair range of a [`DenseMemo`] — that
/// range of every column — addressed by **global** pair index.
///
/// Implements [`Memo`], so the engines run unchanged over a shard — serial
/// execution is simply the one-shard special case, which is what guarantees
/// parallel runs produce byte-identical results. The default is an empty
/// window, for passes that memoize nothing.
#[derive(Debug, Default)]
pub struct MemoShard<'a> {
    /// Column `f`'s cells for this window's pairs.
    columns: Vec<&'a mut [f64]>,
    /// Global pair index of the shard's first pair.
    start: usize,
    /// Number of pairs in the window.
    len: usize,
    /// Values newly stored through this view.
    stored: usize,
}

impl MemoShard<'_> {
    /// Global pair range covered by this shard.
    pub fn pair_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }

    /// Number of values newly stored through this view.
    pub fn new_stored(&self) -> usize {
        self.stored
    }
}

impl Memo for MemoShard<'_> {
    #[inline]
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64> {
        let local = pair.checked_sub(self.start)?;
        present(*self.columns.get(feature.index())?.get(local)?)
    }

    #[inline]
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64) {
        let value = if value.is_nan() { 0.0 } else { value }; // NaN = absent sentinel
        let cell = pair
            .checked_sub(self.start)
            .and_then(|local| self.columns.get_mut(feature.index())?.get_mut(local))
            .expect("pair/feature out of range for memo shard (grow the memo before sharding)");
        if cell.is_nan() {
            self.stored += 1;
        }
        *cell = value;
    }

    /// Windows the sharded driver cuts start on a word, so a word's cells
    /// are a run of the window's columns; a window starting mid-word reads
    /// per pair.
    #[inline]
    fn word(&self, word: usize, feature: FeatureId) -> Option<&[f64]> {
        if !self.start.is_multiple_of(64) {
            return None;
        }
        let column = self.columns.get(feature.index())?;
        word_cells(column, word.checked_sub(self.start / 64)?)
    }

    fn stored(&self) -> usize {
        self.stored
    }

    fn reset(&mut self) {
        // A shard only owns its window; resetting the backing memo's global
        // `stored` count is the owner's job, so a view cannot soundly reset.
        unreachable!("reset a DenseMemo, not a shard view");
    }

    fn heap_bytes(&self) -> usize {
        0 // borrowed storage is accounted by the owning DenseMemo
    }
}

/// Hash-map memo storing only computed values.
#[derive(Debug, Clone, Default)]
pub struct SparseMemo {
    map: HashMap<(u32, u32), f64>,
}

impl SparseMemo {
    /// An empty sparse memo.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Memo for SparseMemo {
    #[inline]
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64> {
        self.map.get(&(pair as u32, feature.0)).copied()
    }

    #[inline]
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64) {
        let value = if value.is_nan() { 0.0 } else { value }; // keep totality with DenseMemo
        self.map.insert((pair as u32, feature.0), value);
    }

    fn stored(&self) -> usize {
        self.map.len()
    }

    fn reset(&mut self) {
        self.map.clear();
    }

    fn heap_bytes(&self) -> usize {
        // Key + value + ~1 byte of control metadata per slot (hashbrown).
        self.map.capacity() * (std::mem::size_of::<((u32, u32), f64)>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(memo: &mut dyn Memo) {
        assert_eq!(memo.get(0, FeatureId(0)), None);
        memo.put(0, FeatureId(0), 0.5);
        memo.put(3, FeatureId(1), 0.25);
        assert_eq!(memo.get(0, FeatureId(0)), Some(0.5));
        assert_eq!(memo.get(3, FeatureId(1)), Some(0.25));
        assert_eq!(memo.get(3, FeatureId(0)), None);
        assert!(memo.contains(0, FeatureId(0)));
        assert_eq!(memo.stored(), 2);
        memo.reset();
        assert_eq!(memo.stored(), 0);
        assert_eq!(memo.get(0, FeatureId(0)), None);
    }

    #[test]
    fn dense_basicops() {
        let mut m = DenseMemo::new(10, 4);
        exercise(&mut m);
    }

    #[test]
    fn sparse_basic_ops() {
        let mut m = SparseMemo::new();
        exercise(&mut m);
    }

    #[test]
    fn dense_zero_value_is_present() {
        // 0.0 is a legitimate similarity — must be distinguishable from absent.
        let mut m = DenseMemo::new(2, 2);
        m.put(1, FeatureId(1), 0.0);
        assert_eq!(m.get(1, FeatureId(1)), Some(0.0));
    }

    #[test]
    fn dense_grows_features() {
        let mut m = DenseMemo::new(4, 1);
        m.put(2, FeatureId(0), 0.7);
        m.put(2, FeatureId(5), 0.9); // triggers growth
        assert_eq!(m.n_features(), 6);
        assert_eq!(
            m.get(2, FeatureId(0)),
            Some(0.7),
            "old values survive growth"
        );
        assert_eq!(m.get(2, FeatureId(5)), Some(0.9));
        assert_eq!(m.stored(), 2);
    }

    #[test]
    fn dense_out_of_range_get_is_none() {
        let m = DenseMemo::new(2, 2);
        assert_eq!(m.get(99, FeatureId(0)), None);
        assert_eq!(m.get(0, FeatureId(99)), None);
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let mut m = DenseMemo::new(2, 2);
        m.put(0, FeatureId(0), 0.5);
        m.put(0, FeatureId(0), 0.5);
        assert_eq!(m.stored(), 1);
    }

    #[test]
    fn shard_views_translate_global_indices() {
        let mut m = DenseMemo::new(10, 3);
        m.put(0, FeatureId(0), 0.1);
        m.put(7, FeatureId(2), 0.7);
        let ranges = vec![0..4, 4..10];
        let mut shards = m.shard_views(&ranges);
        assert_eq!(shards[0].pair_range(), 0..4);
        assert_eq!(shards[1].pair_range(), 4..10);
        // Pre-existing values are visible through the views.
        assert_eq!(shards[0].get(0, FeatureId(0)), Some(0.1));
        assert_eq!(shards[1].get(7, FeatureId(2)), Some(0.7));
        // Out-of-shard pairs are invisible rather than aliased.
        assert_eq!(shards[0].get(7, FeatureId(2)), None);
        assert_eq!(shards[1].get(0, FeatureId(0)), None);
        // Writes land at the right global slot and count as new.
        shards[1].put(9, FeatureId(1), 0.9);
        shards[1].put(7, FeatureId(2), 0.7); // overwrite: not new
        assert_eq!(shards[1].new_stored(), 1);
        let new: usize = shards.iter().map(|s| s.new_stored()).sum();
        drop(shards);
        m.add_stored(new);
        assert_eq!(m.get(9, FeatureId(1)), Some(0.9));
        assert_eq!(m.stored(), 3);
    }

    #[test]
    #[should_panic(expected = "tile the pair axis")]
    fn shard_views_reject_gaps() {
        let mut m = DenseMemo::new(10, 2);
        let _ = m.shard_views(&[0..4, 5..10]);
    }

    #[test]
    fn nan_puts_are_normalized_to_zero() {
        // NaN doubles as the absent sentinel, so a NaN put must land as 0.0
        // (present) rather than silently vanishing.
        let mut dense = DenseMemo::new(2, 2);
        dense.put(0, FeatureId(0), f64::NAN);
        assert_eq!(dense.get(0, FeatureId(0)), Some(0.0));
        assert_eq!(dense.stored(), 1);
        let mut sparse = SparseMemo::new();
        sparse.put(0, FeatureId(0), f64::NAN);
        assert_eq!(sparse.get(0, FeatureId(0)), Some(0.0));
    }

    #[test]
    fn heap_bytes_scale() {
        let dense = DenseMemo::new(1000, 10);
        assert!(dense.heap_bytes() >= 1000 * 10 * 8);
        let mut sparse = SparseMemo::new();
        sparse.put(0, FeatureId(0), 1.0);
        assert!(sparse.heap_bytes() > 0);
        assert!(sparse.heap_bytes() < dense.heap_bytes());
    }
}
