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
    /// Number of stored values.
    fn stored(&self) -> usize;
    /// Forgets everything.
    fn reset(&mut self);
    /// Approximate heap bytes used (§7.4 memory accounting).
    fn heap_bytes(&self) -> usize;
}

/// Dense `pairs × features` array memo with NaN as the "absent" sentinel.
///
/// Feature capacity grows on demand (the analyst may introduce new features
/// mid-session); growth re-lays-out the array, which is rare and costs one
/// pass over it.
#[derive(Debug, Clone)]
pub struct DenseMemo {
    n_pairs: usize,
    n_features: usize,
    values: Vec<f64>,
    stored: usize,
}

impl DenseMemo {
    /// Creates a dense memo for `n_pairs` pairs and `n_features` features.
    pub fn new(n_pairs: usize, n_features: usize) -> Self {
        DenseMemo {
            n_pairs,
            n_features,
            values: vec![f64::NAN; n_pairs * n_features],
            stored: 0,
        }
    }

    /// Ensures capacity for feature ids `0..n_features`.
    pub fn ensure_features(&mut self, n_features: usize) {
        if n_features <= self.n_features {
            return;
        }
        let mut values = vec![f64::NAN; self.n_pairs * n_features];
        for p in 0..self.n_pairs {
            let old = &self.values[p * self.n_features..(p + 1) * self.n_features];
            values[p * n_features..p * n_features + self.n_features].copy_from_slice(old);
        }
        self.values = values;
        self.n_features = n_features;
    }

    /// Number of pair slots.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of feature slots.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Splits the memo into disjoint mutable views over contiguous pair
    /// ranges, so the sharded driver's workers write feature values
    /// **directly into this memo** — whatever a parallel run or delta
    /// computes is retained in place.
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
        let mut shards = Vec::with_capacity(ranges.len());
        let mut rest = &mut self.values[..];
        let mut consumed = 0usize; // pairs already split off
        for r in ranges {
            assert!(
                r.start == consumed && r.end <= self.n_pairs,
                "shard ranges must tile the pair axis in order"
            );
            let (head, tail) = rest.split_at_mut((r.end - r.start) * self.n_features);
            rest = tail;
            consumed = r.end;
            shards.push(MemoShard {
                values: head,
                n_features: self.n_features,
                start: r.start,
                stored: 0,
            });
        }
        shards
    }

    /// Accounts for values stored through shard views (see
    /// [`DenseMemo::shard_views`]).
    pub(crate) fn add_stored(&mut self, n: usize) {
        self.stored += n;
    }

    /// The raw value grid (row-major `pairs × features`, NaN = absent),
    /// for stable binary serialization.
    pub(crate) fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Rebuilds a memo from serialized parts. `None` when the grid does
    /// not have `n_pairs × n_features` cells (corrupt input).
    pub(crate) fn from_raw(
        n_pairs: usize,
        n_features: usize,
        values: Vec<f64>,
        stored: usize,
    ) -> Option<Self> {
        if values.len() != n_pairs.checked_mul(n_features)? || stored > values.len() {
            return None;
        }
        Some(DenseMemo {
            n_pairs,
            n_features,
            values,
            stored,
        })
    }

    #[inline]
    fn idx(&self, pair: usize, feature: FeatureId) -> Option<usize> {
        let f = feature.index();
        if pair < self.n_pairs && f < self.n_features {
            Some(pair * self.n_features + f)
        } else {
            None
        }
    }
}

impl Memo for DenseMemo {
    #[inline]
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64> {
        let i = self.idx(pair, feature)?;
        let v = self.values[i];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    #[inline]
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64) {
        // NaN is the "absent" sentinel; storing it would silently drop the
        // value. Defensively normalize to 0.0 (the context already does —
        // this keeps the memo total even for values that bypass it).
        let value = if value.is_nan() { 0.0 } else { value };
        if feature.index() >= self.n_features {
            self.ensure_features(feature.index() + 1);
        }
        let i = self
            .idx(pair, feature)
            .expect("pair index out of range for memo");
        if self.values[i].is_nan() {
            self.stored += 1;
        }
        self.values[i] = value;
    }

    fn stored(&self) -> usize {
        self.stored
    }

    fn reset(&mut self) {
        self.values.fill(f64::NAN);
        self.stored = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
    }
}

/// A mutable view over one contiguous pair range of a [`DenseMemo`],
/// addressed by **global** pair index.
///
/// Implements [`Memo`], so the engines run unchanged over a shard — serial
/// execution is simply the one-shard special case, which is what guarantees
/// parallel runs produce byte-identical results. The default is an empty
/// window, for passes that memoize nothing.
#[derive(Debug, Default)]
pub struct MemoShard<'a> {
    values: &'a mut [f64],
    n_features: usize,
    /// Global pair index of the shard's first pair.
    start: usize,
    /// Values newly stored through this view.
    stored: usize,
}

impl MemoShard<'_> {
    /// Global pair range covered by this shard.
    pub fn pair_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.values.len() / self.n_features.max(1)
    }

    /// Number of values newly stored through this view.
    pub fn new_stored(&self) -> usize {
        self.stored
    }

    #[inline]
    fn idx(&self, pair: usize, feature: FeatureId) -> Option<usize> {
        let f = feature.index();
        let local = pair.checked_sub(self.start)?;
        let i = local * self.n_features + f;
        if f < self.n_features && i < self.values.len() {
            Some(i)
        } else {
            None
        }
    }
}

impl Memo for MemoShard<'_> {
    #[inline]
    fn get(&self, pair: usize, feature: FeatureId) -> Option<f64> {
        let i = self.idx(pair, feature)?;
        let v = self.values[i];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    #[inline]
    fn put(&mut self, pair: usize, feature: FeatureId, value: f64) {
        let value = if value.is_nan() { 0.0 } else { value }; // NaN = absent sentinel
        let i = self
            .idx(pair, feature)
            .expect("pair/feature out of range for memo shard (grow the memo before sharding)");
        if self.values[i].is_nan() {
            self.stored += 1;
        }
        self.values[i] = value;
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
