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
//!
//! Both bitmap families are indexed by dense id: rule and predicate ids are
//! minted monotonically, so slot `id` of a `Vec<Option<Bitmap>>` holds the
//! set of that id (`None` when it was never created or has been dropped).
//! A lookup is one index, with no hashing. Both families are read and
//! written a 64-pair word at a time: a delta's events set or clear whole
//! words, and an edit's cascade reads a rule's `U(p)` witnesses for a
//! word's cascading pairs by OR-ing its predicates' words until they cover
//! those pairs ([`PreEdit::witnessed`]).
//!
//! After every edit the state is *exact*:
//!
//! * every `U(p)` bit is sound — `p` is false for that pair;
//! * the fired pointers and every `M(r)` equal those of a from-scratch
//!   [`run_full`];
//! * every rule before a pair's fired rule has a *witness* — a set `U(p)`
//!   bit for one of its predicates — and for an unmatched pair every rule
//!   has one.

use crate::bitmap::Bitmap;
use crate::bitmap::{all_words, word_pairs};
use crate::budget::EvalBudget;
use crate::context::EvalContext;
use crate::engine::EvalStats;
use crate::executor::Executor;
use crate::function::MatchingFunction;
use crate::incremental::{apply_delta, fire_first};
use crate::memo::{DenseMemo, Memo};
use crate::predicate::PredId;
use crate::robust::drive_sharded;
use crate::rule::{BoundRule, RuleId};
use em_types::CandidateSet;

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
    /// `M(r)`, slot `r.0`.
    rule_fired: Vec<Option<Bitmap>>,
    /// `U(p)`, slot `p.0`.
    pred_false: Vec<Option<Bitmap>>,
}

/// Slot `id` of a dense bitmap family.
#[inline]
fn slot(family: &[Option<Bitmap>], id: usize) -> Option<&Bitmap> {
    family.get(id).and_then(Option::as_ref)
}

/// Slot `id` of a dense bitmap family, created empty over `n_pairs` when
/// absent.
fn slot_mut(family: &mut Vec<Option<Bitmap>>, id: usize, n_pairs: usize) -> &mut Bitmap {
    if family.len() <= id {
        family.resize_with(id + 1, || None);
    }
    family[id].get_or_insert_with(|| Bitmap::new(n_pairs))
}

/// The slot of a predicate id. Ids are minted one per predicate, so every
/// id a live function holds fits a `usize`.
#[inline]
fn pred_slot(p: PredId) -> usize {
    p.0 as usize
}

/// What an incremental delta reads of the pre-edit state while its workers
/// write the memo: each pair's fired rule, and the `U(p)` witnesses. Pairs
/// are independent, so reading the state as it was before the edit gives
/// the same answer at every thread count.
#[derive(Clone, Copy)]
pub(crate) struct PreEdit<'a> {
    fired: &'a [Option<RuleId>],
    pred_false: &'a [Option<Bitmap>],
}

impl PreEdit<'_> {
    /// The rule that fired for pair `i` before the edit.
    #[inline]
    pub(crate) fn fired(&self, i: usize) -> Option<RuleId> {
        self.fired[i]
    }

    /// The pairs of `among` in word `w` that `rule` has a failure witness
    /// for: a `U(p)` bit of one of its predicates. Word `w` is OR-ed over
    /// the predicates that have a set, stopping once it covers `among`, so
    /// a single pair costs one probe up to its first witness.
    pub(crate) fn witnessed(&self, rule: &BoundRule, w: usize, among: u64) -> u64 {
        let mut witnessed = 0u64;
        for bp in &rule.preds {
            if let Some(bm) = slot(self.pred_false, pred_slot(bp.id)) {
                witnessed |= bm.word(w) & among;
                if witnessed == among {
                    break;
                }
            }
        }
        witnessed
    }
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
            rule_fired: Vec::new(),
            pred_false: Vec::new(),
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

    /// The memo, writable, beside the pre-edit state a delta reads.
    pub(crate) fn memo_and_pre_edit(&mut self) -> (&mut DenseMemo, PreEdit<'_>) {
        let pre = PreEdit {
            fired: &self.fired,
            pred_false: &self.pred_false,
        };
        (&mut self.memo, pre)
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
        slot(&self.rule_fired, r.0 as usize)
    }

    /// `U(p)` — the pairs for which predicate `p` evaluated false.
    pub fn pred_bitmap(&self, p: PredId) -> Option<&Bitmap> {
        slot(&self.pred_false, pred_slot(p))
    }

    /// Marks the pairs of `mask` in word `w` as matched via rule `r`.
    pub(crate) fn fire(&mut self, w: usize, mask: u64, r: RuleId) {
        for i in word_pairs(w, mask) {
            self.verdicts[i] = true;
            self.fired[i] = Some(r);
        }
        self.rule_bitmap_mut(r).set_word(w, mask);
    }

    /// Clears the match (if any) of the pairs of `mask` in word `w`. A
    /// removed rule's `M(r)` is already dropped when its cascade unfires
    /// its pairs, so only a set that exists is cleared, never re-created.
    pub(crate) fn unfire(&mut self, w: usize, mask: u64) {
        for i in word_pairs(w, mask) {
            self.verdicts[i] = false;
            if let Some(r) = self.fired[i].take() {
                if let Some(Some(set)) = self.rule_fired.get_mut(r.0 as usize) {
                    set.clear_word(w, 1 << (i % 64));
                }
            }
        }
    }

    /// Records that predicate `p` evaluated false for the pairs of `mask`
    /// in word `w`.
    pub(crate) fn record_pred_false(&mut self, p: PredId, w: usize, mask: u64) {
        self.pred_bitmap_mut(p).set_word(w, mask);
    }

    /// Clears predicate `p`'s false bits for the pairs of `mask` in word
    /// `w`.
    pub(crate) fn clear_pred_false(&mut self, p: PredId, w: usize, mask: u64) {
        self.pred_bitmap_mut(p).clear_word(w, mask);
    }

    fn rule_bitmap_mut(&mut self, r: RuleId) -> &mut Bitmap {
        slot_mut(&mut self.rule_fired, r.0 as usize, self.n_pairs)
    }

    fn pred_bitmap_mut(&mut self, p: PredId) -> &mut Bitmap {
        slot_mut(&mut self.pred_false, pred_slot(p), self.n_pairs)
    }

    /// Drops the materialized sets of a removed rule and its predicates.
    pub(crate) fn drop_rule_state(&mut self, r: RuleId, preds: &[PredId]) {
        if let Some(s) = self.rule_fired.get_mut(r.0 as usize) {
            *s = None;
        }
        for &p in preds {
            self.drop_pred_state(p);
        }
    }

    /// Drops the materialized set of a removed predicate.
    pub(crate) fn drop_pred_state(&mut self, p: PredId) {
        if let Some(s) = self.pred_false.get_mut(pred_slot(p)) {
            *s = None;
        }
    }

    /// Drops every set whose id is at or past the given id counters — the
    /// sets of a function whose ids were re-minted from zero (a restore).
    pub(crate) fn drop_ids_from(&mut self, next_rule: u32, next_pred: u64) {
        self.rule_fired.truncate(next_rule as usize);
        self.pred_false.truncate(pred_slot(PredId(next_pred)));
    }

    /// Every `M(r)` in ascending rule id, for stable serialization.
    pub(crate) fn rule_bitmaps(&self) -> impl Iterator<Item = (RuleId, &Bitmap)> {
        let ids = (0u32..).map(RuleId);
        ids.zip(&self.rule_fired)
            .filter_map(|(r, bm)| Some((r, bm.as_ref()?)))
    }

    /// Every `U(p)` in ascending predicate id, for stable serialization.
    pub(crate) fn pred_bitmaps(&self) -> impl Iterator<Item = (PredId, &Bitmap)> {
        let ids = (0u64..).map(PredId);
        ids.zip(&self.pred_false)
            .filter_map(|(p, bm)| Some((p, bm.as_ref()?)))
    }

    /// Clears every `U(p)` bit of `func`'s predicates that the memo does not
    /// prove: the pair's memoized value passes `p`, or no value is
    /// memoized. A cleared bit only costs the next cascade an evaluation,
    /// while an unsound one would let it skip a rule that holds. Clears
    /// nothing in a state this version kept.
    pub(crate) fn clear_unproven_witnesses(&mut self, func: &MatchingFunction) {
        for (_, bp) in func.predicates() {
            let Some(Some(bm)) = self.pred_false.get_mut(pred_slot(bp.id)) else {
                continue;
            };
            let unproven: Vec<usize> = bm
                .iter_ones()
                .filter(|&i| {
                    self.memo
                        .get(i, bp.pred.feature)
                        .is_none_or(|v| bp.pred.eval(v))
                })
                .collect();
            for i in unproven {
                bm.clear(i);
            }
        }
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
        rule_fired: Vec<(RuleId, Bitmap)>,
        pred_false: Vec<(PredId, Bitmap)>,
    ) -> Self {
        debug_assert_eq!(verdicts.len(), n_pairs);
        debug_assert_eq!(fired.len(), n_pairs);
        let mut state = MatchState {
            n_pairs,
            memo,
            verdicts,
            fired,
            rule_fired: Vec::new(),
            pred_false: Vec::new(),
        };
        for (r, bm) in rule_fired {
            *state.rule_bitmap_mut(r) = bm;
        }
        for (p, bm) in pred_false {
            *state.pred_bitmap_mut(p) = bm;
        }
        state
    }

    /// Clears verdicts and bitmaps but *keeps the memo* — used when the
    /// matching function is re-run from scratch within the same session
    /// (e.g. after a rule reordering), where feature values remain valid.
    pub fn reset_assignments(&mut self) {
        self.verdicts.fill(false);
        self.fired.fill(None);
        for bm in self
            .rule_fired
            .iter_mut()
            .chain(&mut self.pred_false)
            .flatten()
        {
            bm.clear_all();
        }
    }

    /// Memory footprint of the materialization (§7.4).
    pub fn memory_report(&self) -> MemoryReport {
        let bitmap_bytes: usize = self
            .rule_fired
            .iter()
            .chain(&self.pred_false)
            .flatten()
            .map(Bitmap::heap_bytes)
            .sum();
        MemoryReport {
            memo_bytes: self.memo.heap_bytes(),
            bitmap_bytes,
            n_rule_bitmaps: self.rule_fired.iter().flatten().count(),
            n_pred_bitmaps: self.pred_false.iter().flatten().count(),
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
/// replay as the incremental deltas: workers take the pairs a 64-pair word
/// at a time, write feature values straight into their windows of
/// `state.memo`, and log each rule's fired and each predicate's false
/// pairs as word masks, which are applied serially in word order. Serial
/// execution is the one-shard case of the same path, so verdicts, `M(r)`,
/// and `U(p)` are identical for every thread count.
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
        &all_words(cands.len()),
        Some(&mut state.memo),
        &EvalBudget::unlimited(),
        |w, word, mask| fire_first(func, cands, ctx, check_cache_first, w, word, mask),
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
        let mut state = MatchState::new(70, 1);
        state.fire(0, 1 << 2 | 1 << 5, RuleId(7));
        state.fire(1, 1 << 3, RuleId(8));
        assert!(state.verdict(2) && state.verdict(5) && state.verdict(67));
        assert_eq!(state.fired_rule(2), Some(RuleId(7)));
        assert_eq!(state.fired_rule(67), Some(RuleId(8)));
        state.unfire(0, 1 << 2 | 1 << 9);
        assert!(!state.verdict(2));
        assert!(!state.rule_bitmap(RuleId(7)).unwrap().get(2));
        assert!(
            state.rule_bitmap(RuleId(7)).unwrap().get(5),
            "only the mask"
        );
        state.unfire(0, 1 << 2);
        assert_eq!(state.fired_rule(2), None, "double unfire is a no-op");
        assert_eq!(state.n_matches(), 2);
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
    fn an_undone_rule_try_leaves_no_set_behind() {
        let (ctx, cands, mut func) = fixture();
        let (exec, budget) = (Executor::serial(), EvalBudget::unlimited());
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &exec);
        let before = state.memory_report();
        // Try a rule that fires for the three pairs the first rule leaves,
        // then undo it: the undo removes the rule, and its cascade unfires
        // those pairs.
        let f = func.rules()[0].preds[0].pred.feature;
        let tried = Rule::new().pred(f, CmpOp::Ge, 0.0);
        let (rid, _) = crate::incremental::add_rule(
            &mut func, &mut state, &ctx, &cands, tried, false, &exec, &budget,
        )
        .unwrap();
        assert_eq!(state.rule_bitmap(rid).unwrap().count_ones(), 3);
        assert_eq!(state.memory_report().n_rule_bitmaps, 2);
        crate::incremental::remove_rule(
            &mut func, &mut state, &ctx, &cands, rid, false, &exec, &budget,
        )
        .unwrap();
        assert_eq!(state.rule_bitmap(rid), None, "M(r) is not re-created");
        assert_eq!(state.memory_report().n_rule_bitmaps, before.n_rule_bitmaps);
        assert_eq!(state.memory_report(), before);
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
