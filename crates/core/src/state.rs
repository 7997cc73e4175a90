//! Materialized matching state (§6.1): everything kept between debugging
//! iterations so that rule edits can be applied incrementally.
//!
//! Per the paper, three things are materialized:
//!
//! * the feature-value **memo** (lazily filled — §4.3),
//! * per **rule** `r`: the set `M(r)` of pairs for which `r` fired (it was
//!   the first true rule under the evaluation order),
//! * per **predicate** `p`: the set `U(p)` of pairs for which `p` evaluated
//!   to false.
//!
//! [`MatchState`] additionally tracks, per pair, *which* rule fired — the
//! inverse of `M(r)` — because the incremental algorithms need it in O(1).

use crate::bitmap::Bitmap;
use crate::budget::EvalBudget;
use crate::context::EvalContext;
use crate::engine::EvalStats;
use crate::executor::Executor;
use crate::function::MatchingFunction;
use crate::incremental::{apply_delta, fire_first};
use crate::memo::{DenseMemo, Memo};
use crate::predicate::PredId;
use crate::robust::{drive_sharded, PairList};
use crate::rule::RuleId;
use em_types::CandidateSet;
use std::collections::HashMap;

/// Memory accounting for the §7.4 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes held by the feature-value memo.
    pub memo_bytes: usize,
    /// Bytes held by all rule/predicate bitmaps.
    pub bitmap_bytes: usize,
    /// Number of rule bitmaps.
    pub n_rule_bitmaps: usize,
    /// Number of predicate bitmaps.
    pub n_pred_bitmaps: usize,
}

impl MemoryReport {
    /// Total materialization footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.memo_bytes + self.bitmap_bytes
    }
}

/// The materialized state of one matching session.
#[derive(Debug, Clone)]
pub struct MatchState {
    n_pairs: usize,
    /// The feature-value memo (kept across edits — the heart of §4.3).
    pub memo: DenseMemo,
    verdicts: Vec<bool>,
    fired: Vec<Option<RuleId>>,
    rule_fired: HashMap<RuleId, Bitmap>,
    pred_false: HashMap<PredId, Bitmap>,
}

impl MatchState {
    /// Fresh state for `n_pairs` candidate pairs and `n_features` interned
    /// features.
    pub fn new(n_pairs: usize, n_features: usize) -> Self {
        MatchState {
            n_pairs,
            memo: DenseMemo::new(n_pairs, n_features),
            verdicts: vec![false; n_pairs],
            fired: vec![None; n_pairs],
            rule_fired: HashMap::new(),
            pred_false: HashMap::new(),
        }
    }

    /// Number of candidate pairs the state covers.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// The verdict vector (`true` = match).
    pub fn verdicts(&self) -> &[bool] {
        &self.verdicts
    }

    /// The verdict for pair `i`.
    #[inline]
    pub fn verdict(&self, i: usize) -> bool {
        self.verdicts[i]
    }

    /// The memo, writable, beside the pre-edit verdicts a delta reads.
    pub(crate) fn memo_and_verdicts(&mut self) -> (&mut DenseMemo, &[bool]) {
        (&mut self.memo, &self.verdicts)
    }

    /// The rule that fired for pair `i`, if it matched.
    #[inline]
    pub fn fired_rule(&self, i: usize) -> Option<RuleId> {
        self.fired[i]
    }

    /// Number of matched pairs.
    pub fn n_matches(&self) -> usize {
        self.verdicts.iter().filter(|&&v| v).count()
    }

    /// Pair indices currently matched.
    pub fn matches(&self) -> impl Iterator<Item = usize> + '_ {
        self.verdicts
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| if v { Some(i) } else { None })
    }

    /// `M(r)` — the pairs for which rule `r` fired.
    pub fn rule_bitmap(&self, r: RuleId) -> Option<&Bitmap> {
        self.rule_fired.get(&r)
    }

    /// `U(p)` — the pairs for which predicate `p` evaluated false.
    pub fn pred_bitmap(&self, p: PredId) -> Option<&Bitmap> {
        self.pred_false.get(&p)
    }

    /// Marks pair `i` as matched via rule `r`.
    pub(crate) fn fire(&mut self, i: usize, r: RuleId) {
        self.verdicts[i] = true;
        self.fired[i] = Some(r);
        self.rule_bitmap_mut(r).set(i);
    }

    /// Clears pair `i`'s match (if any), returning the rule that had fired.
    pub(crate) fn unfire(&mut self, i: usize) -> Option<RuleId> {
        let r = self.fired[i].take();
        self.verdicts[i] = false;
        if let Some(r) = r {
            self.rule_bitmap_mut(r).clear(i);
        }
        r
    }

    /// Records that predicate `p` evaluated false for pair `i`.
    pub(crate) fn record_pred_false(&mut self, p: PredId, i: usize) {
        self.pred_bitmap_mut(p).set(i);
    }

    /// Clears predicate `p`'s false bit for pair `i`.
    pub(crate) fn clear_pred_false(&mut self, p: PredId, i: usize) {
        self.pred_bitmap_mut(p).clear(i);
    }

    pub(crate) fn rule_bitmap_mut(&mut self, r: RuleId) -> &mut Bitmap {
        self.rule_fired
            .entry(r)
            .or_insert_with(|| Bitmap::new(self.n_pairs))
    }

    pub(crate) fn pred_bitmap_mut(&mut self, p: PredId) -> &mut Bitmap {
        self.pred_false
            .entry(p)
            .or_insert_with(|| Bitmap::new(self.n_pairs))
    }

    /// Drops the materialized sets of a removed rule and its predicates.
    pub(crate) fn drop_rule_state(&mut self, r: RuleId, preds: &[PredId]) {
        self.rule_fired.remove(&r);
        for p in preds {
            self.pred_false.remove(p);
        }
    }

    /// Drops the materialized set of a removed predicate.
    pub(crate) fn drop_pred_state(&mut self, p: PredId) {
        self.pred_false.remove(&p);
    }

    /// The per-rule fired map, for stable serialization.
    pub(crate) fn rule_fired_map(&self) -> &HashMap<RuleId, Bitmap> {
        &self.rule_fired
    }

    /// The per-predicate false map, for stable serialization.
    pub(crate) fn pred_false_map(&self) -> &HashMap<PredId, Bitmap> {
        &self.pred_false
    }

    /// The fired-rule-per-pair vector, for stable serialization.
    pub(crate) fn fired_slice(&self) -> &[Option<RuleId>] {
        &self.fired
    }

    /// Reassembles a state from deserialized parts. The caller (the
    /// persist layer) has already validated that all vectors cover
    /// `n_pairs` and that the memo grid is consistent.
    pub(crate) fn from_parts(
        n_pairs: usize,
        memo: DenseMemo,
        verdicts: Vec<bool>,
        fired: Vec<Option<RuleId>>,
        rule_fired: HashMap<RuleId, Bitmap>,
        pred_false: HashMap<PredId, Bitmap>,
    ) -> Self {
        debug_assert_eq!(verdicts.len(), n_pairs);
        debug_assert_eq!(fired.len(), n_pairs);
        MatchState {
            n_pairs,
            memo,
            verdicts,
            fired,
            rule_fired,
            pred_false,
        }
    }

    /// Clears verdicts and bitmaps but *keeps the memo* — used when the
    /// matching function is re-run from scratch within the same session
    /// (e.g. after a rule reordering), where feature values remain valid.
    pub fn reset_assignments(&mut self) {
        self.verdicts.fill(false);
        self.fired.fill(None);
        for bm in self.rule_fired.values_mut() {
            bm.clear_all();
        }
        for bm in self.pred_false.values_mut() {
            bm.clear_all();
        }
    }

    /// Memory footprint of the materialization (§7.4).
    pub fn memory_report(&self) -> MemoryReport {
        let bitmap_bytes: usize = self
            .rule_fired
            .values()
            .chain(self.pred_false.values())
            .map(Bitmap::heap_bytes)
            .sum();
        MemoryReport {
            memo_bytes: self.memo.heap_bytes(),
            bitmap_bytes,
            n_rule_bitmaps: self.rule_fired.len(),
            n_pred_bitmaps: self.pred_false.len(),
        }
    }
}

/// What a full run accomplished.
#[derive(Debug, Clone)]
pub struct FullRunOutcome {
    /// Work counters.
    pub stats: EvalStats,
    /// Pairs whose evaluation panicked and were quarantined, ascending.
    pub quarantined: Vec<usize>,
}

/// Runs the matching function from scratch with early exit + dynamic
/// memoing (Algorithm 4), populating `state` (verdicts, fired rules, and
/// both bitmap families). The memo is reused as-is: values computed in
/// previous runs keep saving work, which is exactly the paper's
/// "materialize between iterations" behaviour.
///
/// Pair-parallel under `exec` through the same sharded driver and event
/// replay as the incremental deltas: workers write feature values straight
/// into their windows of `state.memo` and log fired-rule / false-predicate
/// events, which are applied serially in pair order. Serial execution is
/// the one-shard case of the same path, so verdicts, `M(r)`, and `U(p)`
/// are identical for every thread count.
///
/// # Panics
///
/// Panics when `state` and `cands` do not cover the same pairs.
pub fn run_full(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    state: &mut MatchState,
    check_cache_first: bool,
    exec: &Executor,
) -> FullRunOutcome {
    state.reset_assignments();
    let pass = drive_sharded(
        exec,
        ctx,
        cands,
        PairList::Range(0..cands.len()),
        Some(&mut state.memo),
        &EvalBudget::unlimited(),
        |w, i, pair| {
            fire_first(func, ctx, check_cache_first, w, i, pair);
        },
    );
    let report = apply_delta(state, pass);
    FullRunOutcome {
        stats: report.stats,
        quarantined: report.quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;
    use em_similarity::Measure;
    use em_types::{Record, Schema, Table};

    fn fixture() -> (EvalContext, CandidateSet, MatchingFunction) {
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["alpha beta"]));
        a.push(Record::new("a2", ["gamma delta"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["alpha beta"]));
        b.push(Record::new("b2", ["epsilon zeta"]));

        let mut ctx = EvalContext::from_tables(a, b);
        let f = ctx
            .feature(
                Measure::Jaccard(em_similarity::TokenScheme::Whitespace),
                "name",
                "name",
            )
            .unwrap();
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.8)).unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        (ctx, cands, func)
    }

    #[test]
    fn run_full_populates_state() {
        let (ctx, cands, func) = fixture();
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        let stats = run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial()).stats;

        assert_eq!(state.n_matches(), 1);
        assert!(state.verdict(0), "a1b1 matches");
        let rid = func.rules()[0].id;
        assert_eq!(state.fired_rule(0), Some(rid));
        assert!(state.rule_bitmap(rid).unwrap().get(0));
        assert_eq!(state.rule_bitmap(rid).unwrap().count_ones(), 1);

        // The single predicate failed for the three non-matching pairs.
        let pid = func.rules()[0].preds[0].id;
        assert_eq!(state.pred_bitmap(pid).unwrap().count_ones(), 3);

        assert_eq!(stats.feature_computations, 4, "one feature per pair");
    }

    #[test]
    fn rerun_reuses_memo() {
        let (ctx, cands, func) = fixture();
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial());
        let second = run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial()).stats;
        assert_eq!(second.feature_computations, 0, "everything memoized");
        assert_eq!(second.memo_lookups, 4);
        assert_eq!(state.n_matches(), 1);
    }

    #[test]
    fn fire_unfire_roundtrip() {
        let mut state = MatchState::new(4, 1);
        state.fire(2, RuleId(7));
        assert!(state.verdict(2));
        assert_eq!(state.fired_rule(2), Some(RuleId(7)));
        let r = state.unfire(2);
        assert_eq!(r, Some(RuleId(7)));
        assert!(!state.verdict(2));
        assert!(!state.rule_bitmap(RuleId(7)).unwrap().get(2));
        assert_eq!(state.unfire(2), None, "double unfire is a no-op");
    }

    #[test]
    fn memory_report_counts_everything() {
        let (ctx, cands, func) = fixture();
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial());
        let report = state.memory_report();
        assert!(report.memo_bytes >= cands.len() * 8);
        assert_eq!(report.n_rule_bitmaps, 1);
        assert_eq!(report.n_pred_bitmaps, 1);
        assert!(report.bitmap_bytes > 0);
        assert_eq!(
            report.total_bytes(),
            report.memo_bytes + report.bitmap_bytes
        );
    }

    #[test]
    fn reset_assignments_keeps_memo() {
        let (ctx, cands, func) = fixture();
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial());
        let stored = state.memo.stored();
        state.reset_assignments();
        assert_eq!(state.n_matches(), 0);
        assert_eq!(state.memo.stored(), stored);
    }

    #[test]
    #[should_panic(expected = "same pairs")]
    fn size_mismatch_panics() {
        let (ctx, cands, func) = fixture();
        let mut state = MatchState::new(cands.len() + 1, 1);
        run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial());
    }
}
