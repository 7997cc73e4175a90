//! The matching engines of §4: the rudimentary and precomputation baselines
//! (Algorithms 1 and 2), early exit (Algorithm 3), and early exit with
//! dynamic memoing (Algorithm 4).
//!
//! All engines produce identical verdicts — they differ only in how much
//! feature computation they perform. The test-suite property "all engines
//! agree" is the workspace's central correctness check.
//!
//! Every engine is a word step run by the sharded driver in `robust.rs`,
//! which partitions the candidate set into contiguous shards of 64-pair
//! words under an [`Executor`] (candidate pairs are independent, so this
//! is embarrassingly parallel) and reports each word's matches as one
//! event. A step runs each rule over its word's live pairs, predicate by
//! predicate, so every pair goes through exactly the evaluations it would
//! alone. Serial execution is the one-shard special case of the same code
//! path, which is what makes "parallel ≡ serial" hold by construction
//! rather than by testing alone.

use crate::bitmap::{all_words, word_pairs};
use crate::budget::EvalBudget;
use crate::context::EvalContext;
use crate::executor::Executor;
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::incremental::DeltaEvent;
use crate::memo::{DenseMemo, Memo};
use crate::predicate::{CmpOp, PredId, Predicate};
use crate::robust::{drive_sharded, drive_words, Shard};
use crate::rule::BoundRule;
use em_types::CandidateSet;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Work counters for one matching run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Similarity values computed from scratch.
    pub feature_computations: u64,
    /// Similarity values read from the memo.
    pub memo_lookups: u64,
    /// Threshold comparisons performed.
    pub predicate_evals: u64,
    /// Rule conjunctions entered.
    pub rule_evals: u64,
}

impl EvalStats {
    /// Adds another run's counters into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.feature_computations += other.feature_computations;
        self.memo_lookups += other.memo_lookups;
        self.predicate_evals += other.predicate_evals;
        self.rule_evals += other.rule_evals;
    }
}

/// The result of running a matching function over a candidate set.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// `verdicts[i]` is true iff candidate pair `i` matched. For pairs the
    /// run could not evaluate (quarantined) the slot keeps its initial
    /// `false`.
    pub verdicts: Vec<bool>,
    /// Work counters.
    pub stats: EvalStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Pairs whose evaluation panicked and were quarantined, ascending.
    pub quarantined: Vec<usize>,
}

impl MatchOutcome {
    /// Number of matched pairs.
    pub fn n_matches(&self) -> usize {
        self.verdicts.iter().filter(|&&v| v).count()
    }
}

/// Runs an engine's word `step` over every candidate pair (no budget:
/// engines always complete) and collects the matches it reports.
fn run_engine(
    ctx: &EvalContext,
    cands: &CandidateSet,
    memo: Option<&mut DenseMemo>,
    exec: &Executor,
    step: impl Fn(&mut Shard<'_>, usize, u64) + Sync,
) -> MatchOutcome {
    let start = Instant::now();
    let all = all_words(cands.len());
    let pass = drive_sharded(exec, ctx, cands, &all, memo, &EvalBudget::unlimited(), step);
    let mut verdicts = vec![false; cands.len()];
    for event in pass.events {
        if let DeltaEvent::Matched { word, mask } = event {
            for i in word_pairs(word, mask) {
                verdicts[i] = true;
            }
        }
    }
    MatchOutcome {
        verdicts,
        stats: pass.stats,
        elapsed: start.elapsed(),
        quarantined: pass.quarantined,
    }
}

/// Reports the pairs of `mask` in word `word` matched, if any.
fn report_matched(w: &mut Shard<'_>, word: usize, mask: u64) {
    if mask != 0 {
        w.events.push(DeltaEvent::Matched { word, mask });
    }
}

/// The pairs of `among` in word `word` for which `pred` is false on a
/// freshly computed value, counting each computation and comparison.
fn failing_computed(
    pred: &Predicate,
    word: usize,
    among: u64,
    cands: &CandidateSet,
    ctx: &EvalContext,
    stats: &mut EvalStats,
) -> u64 {
    let mut failed = 0;
    for i in word_pairs(word, among) {
        let v = ctx.compute(pred.feature, cands.pair(i));
        stats.feature_computations += 1;
        stats.predicate_evals += 1;
        if !pred.eval(v) {
            failed |= 1 << (i % 64);
        }
    }
    failed
}

/// Algorithm 1 — the rudimentary baseline.
///
/// Every predicate of every rule is evaluated for every pair, and every
/// feature value is computed from scratch at each reference (predicates are
/// opaque "black boxes").
pub fn run_rudimentary(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    exec: &Executor,
) -> MatchOutcome {
    run_engine(ctx, cands, None, exec, |w, word, mask| {
        let mut matched = 0;
        for rule in func.rules() {
            w.stats.rule_evals += u64::from(mask.count_ones());
            let mut holds = mask;
            for bp in &rule.preds {
                // NOTE: every pair — Algorithm 1 evaluates every predicate.
                holds &= !failing_computed(&bp.pred, word, mask, cands, ctx, &mut w.stats);
            }
            // NOTE: no early exit — Algorithm 1 evaluates every rule.
            matched |= holds;
        }
        report_matched(w, word, matched);
    })
}

/// Algorithm 2 — the precomputation baseline combined with early exit (the
/// paper's Figure 3 variants "PPR + EE" / "FPR + EE").
///
/// `universe` is the feature set to precompute: the function's own features
/// for *production precomputation*, or a superset (everything the analyst
/// might use) for *full precomputation*. Returns the filled memo so callers
/// can account for memory (§7.4) or reuse it.
///
/// Precomputation is fused per word (fill the word's universe rows, then
/// match its pairs) so panic isolation sees a single pass; the work
/// performed is identical to the two-phase formulation.
pub fn run_precompute(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    universe: &[FeatureId],
    exec: &Executor,
) -> (MatchOutcome, DenseMemo) {
    let mut memo = DenseMemo::new(cands.len(), ctx.registry().len());
    let outcome = run_engine(ctx, cands, Some(&mut memo), exec, |w, word, mask| {
        // Fill the memo for the whole universe (Algorithm 2 phase 1,
        // restricted to this word).
        for i in word_pairs(word, mask) {
            for &f in universe {
                let v = ctx.compute(f, cands.pair(i));
                w.stats.feature_computations += 1;
                w.memo.put(i, f, v);
            }
        }
        // Match using lookups (phase 2 for this word); a feature missing
        // from a smaller universe than the function needs is computed and
        // memoized.
        let (memo, stats) = (&mut w.memo, &mut w.stats);
        let fired = first_firing(func, word, mask, cands, ctx, memo, false, stats, |_| {});
        report_matched(w, word, fired);
    });
    (outcome, memo)
}

/// Algorithm 3 — early exit without memoing.
///
/// Predicate evaluation stops at the first false predicate of a rule; rule
/// evaluation stops at the first true rule. Every referenced feature is
/// still computed from scratch.
pub fn run_early_exit(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    exec: &Executor,
) -> MatchOutcome {
    run_engine(ctx, cands, None, exec, |w, word, mask| {
        let mut live = mask;
        for rule in func.rules() {
            if live == 0 {
                break;
            }
            w.stats.rule_evals += u64::from(live.count_ones());
            let mut holds = live;
            for bp in &rule.preds {
                if holds == 0 {
                    break;
                }
                holds &= !failing_computed(&bp.pred, word, holds, cands, ctx, &mut w.stats);
            }
            live &= !holds;
        }
        report_matched(w, word, mask & !live);
    })
}

/// Masks over a word's run of memo cells (bit `b` for cell `b`): the cells
/// holding a value, and those of them `pred` is false for. The operator is
/// matched once, outside one branch-free pass over the run.
fn cell_masks(cells: &[f64], pred: &Predicate) -> (u64, u64) {
    let t = pred.threshold;
    match pred.op {
        CmpOp::Ge => masks_where(cells, |v| v >= t),
        CmpOp::Gt => masks_where(cells, |v| v > t),
        CmpOp::Le => masks_where(cells, |v| v <= t),
        CmpOp::Lt => masks_where(cells, |v| v < t),
    }
}

/// [`cell_masks`] for the test `holds`. Cells are taken eight at a time
/// into a byte of each mask, which compiles to vector compares.
#[inline(always)]
fn masks_where(cells: &[f64], holds: impl Fn(f64) -> bool) -> (u64, u64) {
    let (eights, rest) = cells.as_chunks::<8>();
    let (mut present, mut failed) = (0u64, 0u64);
    for (k, eight) in eights.iter().enumerate() {
        let (mut p, mut f) = (0u8, 0u8);
        for (b, &v) in eight.iter().enumerate() {
            p |= u8::from(!v.is_nan()) << b;
            f |= u8::from(!holds(v)) << b;
        }
        present |= u64::from(p) << (8 * k);
        failed |= u64::from(f) << (8 * k);
    }
    for (b, &v) in rest.iter().enumerate() {
        let b = 8 * eights.len() + b;
        present |= u64::from(!v.is_nan()) << b;
        failed |= u64::from(!holds(v)) << b;
    }
    (present, present & failed)
}

/// Below this many pairs to test, a word's memo cells are read one by
/// one: a pass over all 64 cells costs about as much as a dozen reads.
const WORD_READ_MIN_PAIRS: u32 = 8;

/// The pairs of `among` in word `word` whose value of `pred`'s feature is
/// memoized, and those of them `pred` is false for: the memo's run of the
/// word's cells ([`Memo::word`]) in one pass, per pair past its end (all
/// of them when few are tested).
#[inline]
fn memo_masks<M: Memo>(memo: &M, pred: &Predicate, word: usize, among: u64) -> (u64, u64) {
    let cells = if among.count_ones() >= WORD_READ_MIN_PAIRS {
        memo.word(word, pred.feature).unwrap_or(&[])
    } else {
        &[]
    };
    let (mut present, mut failed) = cell_masks(cells, pred);
    let past_run = u64::MAX.checked_shl(cells.len() as u32).unwrap_or(0);
    for i in word_pairs(word, among & past_run) {
        if let Some(v) = memo.get(i, pred.feature) {
            present |= 1 << (i % 64);
            failed |= u64::from(!pred.eval(v)) << (i % 64);
        }
    }
    (among & present, among & failed)
}

/// The pairs of `among` in word `word` for which `pred` is false, each
/// counted as one predicate evaluation: a memo lookup where the value is
/// memoized, otherwise computed and memoized.
pub(crate) fn failing<M: Memo>(
    pred: &Predicate,
    word: usize,
    among: u64,
    cands: &CandidateSet,
    ctx: &EvalContext,
    memo: &mut M,
    stats: &mut EvalStats,
) -> u64 {
    let (hit, mut failed) = memo_masks(memo, pred, word, among);
    stats.memo_lookups += u64::from(hit.count_ones());
    for i in word_pairs(word, among & !hit) {
        let v = ctx.compute(pred.feature, cands.pair(i));
        stats.feature_computations += 1;
        memo.put(i, pred.feature, v);
        if !pred.eval(v) {
            failed |= 1 << (i % 64);
        }
    }
    stats.predicate_evals += u64::from(among.count_ones());
    failed
}

/// Tests one rule on the pairs of `mask` in word `word` with early exit +
/// memoing, and returns the pairs it holds for. Predicates run in the
/// rule's stored order over the pairs still live (optionally, per pair,
/// the already-memoized predicates first — the "check cache first"
/// optimization of §5.4.3), so each pair stops at its first false
/// predicate, exactly as if it were tested alone; each predicate's false
/// pairs are reported to `on_false` as a mask.
///
/// Shared by the Algorithm 4 engines, full runs, the incremental
/// algorithms and the sample-driven ordering. Allocates nothing for rules
/// of up to 16 predicates.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub(crate) fn eval_rule_memoized<M: Memo>(
    rule: &BoundRule,
    word: usize,
    mask: u64,
    cands: &CandidateSet,
    ctx: &EvalContext,
    memo: &mut M,
    check_cache_first: bool,
    stats: &mut EvalStats,
    mut on_false: impl FnMut(PredId, u64),
) -> u64 {
    stats.rule_evals += u64::from(mask.count_ones());
    let preds = &rule.preds;

    // Which predicates were memoized, per pair, is fixed before any is
    // evaluated (a value computed here must not promote a later
    // predicate), so record it with the memoized values' verdicts: one
    // pair of masks per position, on the stack for up to 16 predicates.
    let mut inline = [(0u64, 0u64); 16];
    let mut spilled = Vec::new();
    let cached: &mut [(u64, u64)] = if !check_cache_first {
        &mut []
    } else if preds.len() <= inline.len() {
        &mut inline[..preds.len()]
    } else {
        spilled.resize(preds.len(), (0, 0));
        &mut spilled
    };
    for (bp, cached) in preds.iter().zip(cached.iter_mut()) {
        *cached = memo_masks(memo, &bp.pred, word, mask);
    }

    let mut live = mask;
    // With check cache first, each pair's memoized predicates first, in
    // stored order: lookups whose verdicts are already known (`cached` is
    // empty without it).
    for (bp, &(memoized, failed)) in preds.iter().zip(cached.iter()) {
        let among = live & memoized;
        stats.memo_lookups += u64::from(among.count_ones());
        stats.predicate_evals += u64::from(among.count_ones());
        let failed = failed & among;
        if failed != 0 {
            live &= !failed;
            on_false(bp.id, failed);
        }
    }
    // Then, in stored order, every predicate over the live pairs it was
    // not memoized for.
    for (p, bp) in preds.iter().enumerate() {
        let among = live & !cached.get(p).map_or(0, |&(memoized, _)| memoized);
        if among == 0 {
            continue;
        }
        let failed = failing(&bp.pred, word, among, cands, ctx, memo, stats);
        if failed != 0 {
            live &= !failed;
            on_false(bp.id, failed);
        }
    }
    live
}

/// Algorithm 4's word step: enters the rules in evaluation order over the
/// pairs of `mask` in word `word` that no earlier rule fired for, logging
/// each predicate's false pairs (`PredFalse`) and each rule's fired pairs
/// (`Fire`) to `log`. Returns the pairs some rule fired for.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub(crate) fn first_firing<M: Memo>(
    func: &MatchingFunction,
    word: usize,
    mask: u64,
    cands: &CandidateSet,
    ctx: &EvalContext,
    memo: &mut M,
    check_cache_first: bool,
    stats: &mut EvalStats,
    mut log: impl FnMut(DeltaEvent),
) -> u64 {
    let mut live = mask;
    for rule in func.rules() {
        if live == 0 {
            break;
        }
        let on_false = |p, mask| log(DeltaEvent::PredFalse { p, word, mask });
        let holds = eval_rule_memoized(
            rule,
            word,
            live,
            cands,
            ctx,
            memo,
            check_cache_first,
            stats,
            on_false,
        );
        if holds != 0 {
            log(DeltaEvent::Fire {
                word,
                mask: holds,
                r: rule.id,
            });
            live &= !holds;
        }
    }
    mask & !live
}

/// Algorithm 4 — early exit with dynamic memoing, writing into a
/// caller-supplied memo (dense or sparse). Serial: a generic [`Memo`]
/// cannot be split into thread-disjoint windows, which is what the §7.4
/// layout comparison needs this entry point for.
pub fn run_memo_with<M: Memo>(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    memo: &mut M,
    check_cache_first: bool,
) -> MatchOutcome {
    let start = Instant::now();
    let mut stats = EvalStats::default();
    let mut verdicts = vec![false; cands.len()];
    let mut checker = EvalBudget::unlimited().checker();
    let all = all_words(cands.len());
    let drive = drive_words(&all, &mut checker, &mut |word, mask| {
        let ccf = check_cache_first;
        let fired = first_firing(func, word, mask, cands, ctx, memo, ccf, &mut stats, |_| {});
        for i in word_pairs(word, fired) {
            verdicts[i] = true;
        }
    });
    MatchOutcome {
        verdicts,
        stats,
        elapsed: start.elapsed(),
        quarantined: drive.quarantined,
    }
}

/// Algorithm 4 writing into a caller-supplied [`DenseMemo`], pair-parallel
/// under `exec`. Worker shards write **directly into `memo`** through
/// disjoint windows, so everything a parallel run computes is retained for
/// later reuse.
///
/// # Panics
///
/// Panics when `memo` does not have exactly one pair slot per candidate.
pub fn run_memo_into(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    memo: &mut DenseMemo,
    check_cache_first: bool,
    exec: &Executor,
) -> MatchOutcome {
    run_engine(ctx, cands, Some(memo), exec, |w, word, mask| {
        let (memo, stats) = (&mut w.memo, &mut w.stats);
        let ccf = check_cache_first;
        let fired = first_firing(func, word, mask, cands, ctx, memo, ccf, stats, |_| {});
        report_matched(w, word, fired);
    })
}

/// Algorithm 4 with a fresh [`DenseMemo`], returning it alongside the
/// outcome. Pair-parallel under `exec`; the returned memo holds everything
/// any worker computed.
pub fn run_memo(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    check_cache_first: bool,
    exec: &Executor,
) -> (MatchOutcome, DenseMemo) {
    let mut memo = DenseMemo::new(cands.len(), ctx.registry().len());
    let outcome = run_memo_into(func, ctx, cands, &mut memo, check_cache_first, exec);
    (outcome, memo)
}

/// Named engine strategy, for benches and experiments that iterate over
/// engines uniformly.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Algorithm 1.
    Rudimentary,
    /// Algorithm 3.
    EarlyExit,
    /// Algorithm 2 + early exit precomputing exactly the function's
    /// features ("production precomputation").
    PrecomputeProduction,
    /// Algorithm 2 + early exit precomputing the given feature universe
    /// ("full precomputation").
    PrecomputeFull(Vec<FeatureId>),
    /// Algorithm 4.
    MemoEarlyExit {
        /// Apply the §5.4.3 check-cache-first runtime re-ordering.
        check_cache_first: bool,
    },
}

impl Strategy {
    /// Short label used in experiment output (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Rudimentary => "R",
            Strategy::EarlyExit => "EE",
            Strategy::PrecomputeProduction => "PPR+EE",
            Strategy::PrecomputeFull(_) => "FPR+EE",
            Strategy::MemoEarlyExit { .. } => "DM+EE",
        }
    }

    /// Runs the strategy under the given executor.
    pub fn run(
        &self,
        func: &MatchingFunction,
        ctx: &EvalContext,
        cands: &CandidateSet,
        exec: &Executor,
    ) -> MatchOutcome {
        match self {
            Strategy::Rudimentary => run_rudimentary(func, ctx, cands, exec),
            Strategy::EarlyExit => run_early_exit(func, ctx, cands, exec),
            Strategy::PrecomputeProduction => {
                run_precompute(func, ctx, cands, &func.features(), exec).0
            }
            Strategy::PrecomputeFull(universe) => {
                run_precompute(func, ctx, cands, universe, exec).0
            }
            Strategy::MemoEarlyExit { check_cache_first } => {
                run_memo(func, ctx, cands, *check_cache_first, exec).0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use em_similarity::Measure;
    use em_types::{Record, Schema, Table};

    /// A small products-like fixture with known matches.
    fn fixture() -> (EvalContext, CandidateSet, MatchingFunction) {
        let schema = Schema::new(["title", "modelno"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano 16gb", "MC037"]));
        a.push(Record::new("a2", ["sony walkman mp3", "NWZ-E384"]));
        a.push(Record::new("a3", ["bose quietcomfort 35", "QC35"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod nano 16 gb silver", "MC037"]));
        b.push(Record::new(
            "b2",
            ["sony walkman nwz mp3 player", "NWZ-E384"],
        ));
        b.push(Record::new("b3", ["jbl flip 5 speaker", "FLIP5"]));

        let mut ctx = EvalContext::from_tables(a, b);
        let f_model = ctx.feature(Measure::Exact, "modelno", "modelno").unwrap();
        let f_title = ctx
            .feature(
                Measure::Jaccard(em_similarity::TokenScheme::Whitespace),
                "title",
                "title",
            )
            .unwrap();

        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f_model, CmpOp::Ge, 1.0)
                .pred(f_title, CmpOp::Ge, 0.2),
        )
        .unwrap();
        func.add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.5))
            .unwrap();

        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        (ctx, cands, func)
    }

    #[test]
    fn rudimentary_matches_expected_pairs() {
        let (ctx, cands, func) = fixture();
        let out = run_rudimentary(&func, &ctx, &cands, &Executor::serial());
        // a1-b1 and a2-b2 should match (same modelno + overlapping titles).
        assert!(out.verdicts[0], "a1b1 should match");
        assert!(out.verdicts[4], "a2b2 should match");
        assert_eq!(out.n_matches(), 2);
    }

    #[test]
    fn all_engines_agree_on_fixture() {
        let (ctx, cands, func) = fixture();
        let reference = run_rudimentary(&func, &ctx, &cands, &Executor::serial());
        let all_features: Vec<FeatureId> = ctx.registry().iter().map(|(id, _)| id).collect();
        let strategies = [
            Strategy::EarlyExit,
            Strategy::PrecomputeProduction,
            Strategy::PrecomputeFull(all_features),
            Strategy::MemoEarlyExit {
                check_cache_first: false,
            },
            Strategy::MemoEarlyExit {
                check_cache_first: true,
            },
        ];
        for s in strategies {
            let out = s.run(&func, &ctx, &cands, &Executor::serial());
            assert_eq!(
                out.verdicts,
                reference.verdicts,
                "strategy {} disagrees with Algorithm 1",
                s.label()
            );
        }
    }

    #[test]
    fn early_exit_does_less_work() {
        let (ctx, cands, func) = fixture();
        let rud = run_rudimentary(&func, &ctx, &cands, &Executor::serial());
        let ee = run_early_exit(&func, &ctx, &cands, &Executor::serial());
        assert!(
            ee.stats.feature_computations < rud.stats.feature_computations,
            "EE {} vs R {}",
            ee.stats.feature_computations,
            rud.stats.feature_computations
        );
    }

    #[test]
    fn memo_computes_each_feature_at_most_once_per_pair() {
        let (ctx, cands, func) = fixture();
        let (out, memo) = run_memo(&func, &ctx, &cands, false, &Executor::serial());
        // Computations can never exceed |pairs| × |distinct features|.
        let bound = (cands.len() * func.features().len()) as u64;
        assert!(out.stats.feature_computations <= bound);
        assert_eq!(out.stats.feature_computations as usize, memo.stored());
    }

    #[test]
    fn memo_beats_early_exit_on_shared_features() {
        // Build a function whose first rule always computes the title
        // feature, and whose second rule references it again: pairs failing
        // rule 1 must hit the memo in rule 2.
        let (mut ctx, cands, _) = fixture();
        let f_title = ctx
            .feature(
                Measure::Jaccard(em_similarity::TokenScheme::Whitespace),
                "title",
                "title",
            )
            .unwrap();
        let f_model = ctx.feature(Measure::Exact, "modelno", "modelno").unwrap();
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f_title, CmpOp::Ge, 0.9)
                .pred(f_model, CmpOp::Ge, 1.0),
        )
        .unwrap();
        func.add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.2))
            .unwrap();

        let ee = run_early_exit(&func, &ctx, &cands, &Executor::serial());
        let (dm, _) = run_memo(&func, &ctx, &cands, false, &Executor::serial());
        assert_eq!(dm.verdicts, ee.verdicts);
        assert!(dm.stats.feature_computations < ee.stats.feature_computations);
        assert!(dm.stats.memo_lookups > 0);
    }

    #[test]
    fn precompute_full_computes_whole_universe() {
        let (ctx, cands, func) = fixture();
        let universe: Vec<FeatureId> = ctx.registry().iter().map(|(id, _)| id).collect();
        let (out, memo) = run_precompute(&func, &ctx, &cands, &universe, &Executor::serial());
        assert_eq!(memo.stored(), cands.len() * universe.len());
        assert_eq!(
            out.stats.feature_computations,
            (cands.len() * universe.len()) as u64
        );
    }

    #[test]
    fn empty_function_and_empty_candidates() {
        let (ctx, cands, _) = fixture();
        let empty_f = MatchingFunction::new();
        let out = run_rudimentary(&empty_f, &ctx, &cands, &Executor::serial());
        assert_eq!(out.n_matches(), 0);

        let (_, _, func) = fixture();
        let empty_c = CandidateSet::new();
        let out = run_memo(&func, &ctx, &empty_c, false, &Executor::serial()).0;
        assert!(out.verdicts.is_empty());
    }

    #[test]
    fn clean_runs_quarantine_nothing() {
        let (ctx, cands, func) = fixture();
        let out = run_rudimentary(&func, &ctx, &cands, &Executor::serial());
        assert!(out.quarantined.is_empty());
    }

    #[test]
    fn check_cache_first_order_holds_past_64_predicates() {
        let (ctx, cands, _) = fixture();
        let (f_model, f_title) = (FeatureId(0), FeatureId(1));
        // 70 predicates alternating title (even) / model (odd), all true
        // except model at position 1 and title at position 66.
        let mut rule = Rule::new();
        for p in 0..70 {
            let f = if p % 2 == 0 { f_title } else { f_model };
            let t = if p == 1 || p == 66 { 2.0 } else { 0.0 };
            rule = rule.pred(f, CmpOp::Ge, t);
        }
        let mut func = MatchingFunction::new();
        func.add_rule(rule).unwrap();
        let rule = &func.rules()[0];
        let first_false = |check_cache_first: bool| {
            let mut memo = crate::memo::SparseMemo::new();
            memo.put(0, f_title, ctx.compute(f_title, cands.pair(0)));
            let mut stats = EvalStats::default();
            let mut failed = Vec::new();
            let holds = eval_rule_memoized(
                rule,
                0,
                1,
                &cands,
                &ctx,
                &mut memo,
                check_cache_first,
                &mut stats,
                |id, mask| failed.push((id, mask)),
            );
            assert_eq!(holds, 0);
            assert_eq!(failed.len(), 1);
            let failed: Vec<PredId> = failed.iter().map(|&(id, _)| id).collect();
            let pos = rule.preds.iter().position(|bp| bp.id == failed[0]);
            (pos.unwrap(), stats)
        };
        // Stored order: the model predicate at position 1 fails first.
        let (pos, stats) = first_false(false);
        assert_eq!(pos, 1);
        assert_eq!((stats.memo_lookups, stats.feature_computations), (1, 1));
        // Check cache first: the memoized title predicates run first, past
        // the 64th position, and the model feature is never computed.
        let (pos, stats) = first_false(true);
        assert_eq!(pos, 66);
        assert_eq!((stats.memo_lookups, stats.predicate_evals), (34, 34));
        assert_eq!(stats.feature_computations, 0);
    }

    #[test]
    fn cell_masks_match_per_cell_eval() {
        // One whole eight and a partial rest, NaN (absent) in both.
        let cells = [
            0.0,
            0.2,
            f64::NAN,
            0.5,
            0.7,
            1.0,
            0.4,
            0.5,
            0.3,
            f64::NAN,
            1.0,
        ];
        for op in [CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt] {
            for t in [0.0, 0.5, 1.0] {
                let pred = Predicate::new(FeatureId(0), op, t);
                let (present, failed) = cell_masks(&cells, &pred);
                for (b, &v) in cells.iter().enumerate() {
                    assert_eq!(present >> b & 1 == 1, !v.is_nan());
                    assert_eq!(failed >> b & 1 == 1, !v.is_nan() && !pred.eval(v));
                }
                assert_eq!(present >> cells.len(), 0, "no bit past the run");
            }
        }
    }

    #[test]
    fn failing_reads_dense_words_and_sparse_pairs_alike() {
        let (ctx, cands, _) = fixture();
        let f = FeatureId(1);
        let pred = Predicate::new(f, CmpOp::Ge, 0.3);
        // Every other cell memoized, in both layouts.
        let mut dense = DenseMemo::new(cands.len(), ctx.registry().len());
        let mut sparse = crate::memo::SparseMemo::new();
        for i in (0..cands.len()).step_by(2) {
            let v = ctx.compute(f, cands.pair(i));
            dense.put(i, f, v);
            sparse.put(i, f, v);
        }
        let all = (1u64 << cands.len()) - 1;
        // Nine and eight pairs read the word's cells; one and six, each pair.
        for among in [all, all & !0b100, 0b1, 0b1_0110_1011] {
            let (mut d, mut s) = (dense.clone(), sparse.clone());
            let (mut got, mut want) = (EvalStats::default(), EvalStats::default());
            let failed = failing(&pred, 0, among, &cands, &ctx, &mut d, &mut got);
            let expected = failing(&pred, 0, among, &cands, &ctx, &mut s, &mut want);
            assert_eq!(failed, expected, "among {among:b}");
            assert_eq!(got, want, "among {among:b}");
            assert_eq!(got.predicate_evals, u64::from(among.count_ones()));
            for i in 0..cands.len() {
                assert_eq!(d.get(i, f), s.get(i, f), "cell {i}");
            }
        }
    }

    #[test]
    fn check_cache_first_preserves_verdicts() {
        let (ctx, cands, func) = fixture();
        let (plain, _) = run_memo(&func, &ctx, &cands, false, &Executor::serial());
        let (ccf, _) = run_memo(&func, &ctx, &cands, true, &Executor::serial());
        assert_eq!(plain.verdicts, ccf.verdicts);
    }
}
