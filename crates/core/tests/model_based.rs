//! Model-based property tests for the storage primitives: the bitmap and
//! both memo layouts are driven with random operation sequences and
//! checked against trivially correct std-collection models.

use em_core::{Bitmap, DenseMemo, FeatureId, Memo, SparseMemo};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

#[derive(Debug, Clone)]
enum BitOp {
    Set(usize),
    Clear(usize),
    ClearAll,
}

fn arb_bit_ops(universe: usize) -> impl Strategy<Value = Vec<BitOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..universe).prop_map(BitOp::Set),
            (0..universe).prop_map(BitOp::Clear),
            Just(BitOp::ClearAll),
        ],
        0..60,
    )
}

/// Pairs of the memo model test: two full words and a partial third.
const N_PAIRS: usize = 150;
const N_WORDS: usize = N_PAIRS.div_ceil(64);

/// Checks every cell of `memo` over `pairs` against `model`, for feature
/// ids past the memo's too: per pair through `get`, and through the word
/// read for every word `pairs` holds whole or to its end (`pairs` starts
/// on a word), which must hand out exactly those cells when it reads, and
/// must read for the first `word_features` features. Pairs outside
/// `pairs` read as absent.
fn check_memo(
    memo: &impl Memo,
    model: &HashMap<(usize, u32), f64>,
    pairs: Range<usize>,
    word_features: usize,
) -> Result<(), TestCaseError> {
    for feat in 0..10u32 {
        let f = FeatureId(feat);
        for pair in 0..N_PAIRS {
            let want = model
                .get(&(pair, feat))
                .copied()
                .filter(|_| pairs.contains(&pair));
            prop_assert_eq!(memo.get(pair, f), want, "get({}, {})", pair, feat);
            prop_assert_eq!(memo.contains(pair, f), want.is_some());
        }
        for word in pairs.start / 64..pairs.end.div_ceil(64) {
            let Some(cells) = memo.word(word, f) else {
                prop_assert!(
                    feat as usize >= word_features,
                    "word {} of {} unread",
                    word,
                    feat
                );
                continue;
            };
            let run = word * 64..pairs.end.min(word * 64 + 64);
            prop_assert_eq!(cells.len(), run.len(), "word {} of {}", word, feat);
            for (pair, &v) in run.zip(cells) {
                let got = (!v.is_nan()).then_some(v);
                prop_assert_eq!(got, model.get(&(pair, feat)).copied(), "word cell {}", pair);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_matches_hashset_model(ops in arb_bit_ops(200)) {
        let mut bitmap = Bitmap::new(200);
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                BitOp::Set(i) => {
                    bitmap.set(i);
                    model.insert(i);
                }
                BitOp::Clear(i) => {
                    bitmap.clear(i);
                    model.remove(&i);
                }
                BitOp::ClearAll => {
                    bitmap.clear_all();
                    model.clear();
                }
            }
            prop_assert_eq!(bitmap.count_ones(), model.len());
        }
        // Full state agreement.
        for i in 0..200 {
            prop_assert_eq!(bitmap.get(i), model.contains(&i), "bit {}", i);
        }
        let mut sorted: Vec<usize> = model.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(bitmap.iter_ones().collect::<Vec<_>>(), sorted);
    }

    /// Both memos against a `HashMap`, read per pair (`get`) and, for the
    /// dense one, through the word read too, over a pair count whose last
    /// word is partial: plain writes that grow the feature axis, then
    /// writes through shard views over a random word-aligned tiling (each
    /// window read back while it is out), then feature growth after that
    /// sharded pass.
    #[test]
    fn memos_match_hashmap_model(
        ops in prop::collection::vec(((0..N_PAIRS), (0u32..6), (0u32..1000)), 0..80),
        cuts in prop::collection::vec(1..N_WORDS, 0..4),
        sharded in prop::collection::vec(((0..N_PAIRS), (0u32..6), (0u32..1000)), 0..80),
        grown in prop::collection::vec(((0..N_PAIRS), (4u32..9), (0u32..1000)), 0..20),
    ) {
        let mut dense = DenseMemo::new(N_PAIRS, 2); // deliberately under-sized: must grow
        let mut sparse = SparseMemo::new();
        let mut model: HashMap<(usize, u32), f64> = HashMap::new();
        // Write-once discipline, like the engines: the value to store, if
        // the cell is new.
        let fresh = |model: &mut HashMap<(usize, u32), f64>, pair, feat, raw: u32| {
            let value = raw as f64 / 1000.0;
            match model.entry((pair, feat)) {
                Entry::Vacant(e) => Some(*e.insert(value)),
                Entry::Occupied(_) => None,
            }
        };

        for (pair, feat, raw) in ops {
            if let Some(value) = fresh(&mut model, pair, feat, raw) {
                dense.put(pair, FeatureId(feat), value);
                sparse.put(pair, FeatureId(feat), value);
            }
            prop_assert_eq!(dense.stored(), model.len());
            prop_assert_eq!(sparse.stored(), model.len());
        }
        check_memo(&dense, &model, 0..N_PAIRS, dense.n_features())?;
        check_memo(&sparse, &model, 0..N_PAIRS, 0)?;

        // A sharded pass: the driver sizes the feature axis, then cuts
        // windows that start on words and tile the pair axis.
        dense.ensure_features(6);
        let mut starts: Vec<usize> = cuts.iter().map(|&w| w * 64).collect();
        starts.extend([0, N_PAIRS]);
        starts.sort_unstable();
        starts.dedup();
        let tiles: Vec<Range<usize>> = starts.windows(2).map(|w| w[0]..w[1]).collect();
        let mut shards = dense.shard_views(&tiles);
        for (pair, feat, raw) in sharded {
            if let Some(value) = fresh(&mut model, pair, feat, raw) {
                let shard = shards.iter_mut().find(|s| s.pair_range().contains(&pair)).unwrap();
                shard.put(pair, FeatureId(feat), value);
                sparse.put(pair, FeatureId(feat), value);
            }
        }
        for (shard, tile) in shards.iter().zip(&tiles) {
            prop_assert_eq!(shard.pair_range(), tile.clone());
            check_memo(shard, &model, tile.clone(), 6)?;
        }
        let new: usize = shards.iter().map(|s| s.new_stored()).sum();
        drop(shards);
        dense.add_stored(new);
        prop_assert_eq!(dense.stored(), model.len());
        check_memo(&dense, &model, 0..N_PAIRS, dense.n_features())?;

        // Features interned after the sharded pass append columns.
        for (pair, feat, raw) in grown {
            if let Some(value) = fresh(&mut model, pair, feat, raw) {
                dense.put(pair, FeatureId(feat), value);
                sparse.put(pair, FeatureId(feat), value);
            }
        }
        prop_assert_eq!(dense.stored(), model.len());
        prop_assert_eq!(sparse.stored(), model.len());
        check_memo(&dense, &model, 0..N_PAIRS, dense.n_features())?;
        check_memo(&sparse, &model, 0..N_PAIRS, 0)?;

        dense.reset();
        sparse.reset();
        prop_assert_eq!(dense.stored(), 0);
        prop_assert_eq!(sparse.stored(), 0);
        check_memo(&dense, &HashMap::new(), 0..N_PAIRS, dense.n_features())?;
    }

    #[test]
    fn dense_growth_preserves_all_values(
        values in prop::collection::vec(((0usize..20), (0u32..12), (1u32..1000)), 1..40)
    ) {
        // Insert features in random id order so growth happens mid-stream.
        let mut dense = DenseMemo::new(20, 1);
        let mut model: HashMap<(usize, u32), f64> = HashMap::new();
        for (pair, feat, raw) in values {
            let v = raw as f64 / 1000.0;
            if let Entry::Vacant(e) = model.entry((pair, feat)) {
                dense.put(pair, FeatureId(feat), v);
                e.insert(v);
            }
        }
        for ((pair, feat), v) in model {
            prop_assert_eq!(dense.get(pair, FeatureId(feat)), Some(v));
        }
    }
}
