//! The matching engines of §4: the rudimentary and precomputation baselines
//! (Algorithms 1 and 2), early exit (Algorithm 3), and early exit with
//! dynamic memoing (Algorithm 4).
//!
//! All engines produce identical verdicts — they differ only in how much
//! feature computation they perform. The test-suite property "all engines
//! agree" is the workspace's central correctness check.
//!
//! Every engine is a per-pair step run by the sharded driver in
//! `robust.rs`, which partitions the candidate set into contiguous pair
//! shards under an [`Executor`] (candidate pairs are independent, so this
//! is embarrassingly parallel) and reports each match as an event. Serial
//! execution is the one-shard special case of the same code path, which is
//! what makes "parallel ≡ serial" hold by construction rather than by
//! testing alone.

use crate::budget::EvalBudget;
use crate::context::EvalContext;
use crate::executor::Executor;
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::incremental::DeltaEvent;
use crate::memo::{DenseMemo, Memo};
use crate::predicate::PredId;
use crate::robust::{drive_pairs, drive_sharded, PairList, Shard};
use crate::rule::{BoundRule, RuleId};
use em_types::{CandidateSet, PairIdx};
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

/// Runs an engine's per-pair `step` over every candidate pair (no budget:
/// engines always complete) and collects the matches it reports.
fn run_engine(
    ctx: &EvalContext,
    cands: &CandidateSet,
    memo: Option<&mut DenseMemo>,
    exec: &Executor,
    step: impl Fn(&mut Shard<'_>, usize, PairIdx) + Sync,
) -> MatchOutcome {
    let start = Instant::now();
    let all = PairList::Range(0..cands.len());
    let pass = drive_sharded(exec, ctx, cands, all, memo, &EvalBudget::unlimited(), step);
    let mut verdicts = vec![false; cands.len()];
    for event in pass.events {
        if let DeltaEvent::Matched { i } = event {
            verdicts[i] = true;
        }
    }
    MatchOutcome {
        verdicts,
        stats: pass.stats,
        elapsed: start.elapsed(),
        quarantined: pass.quarantined,
    }
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
    run_engine(ctx, cands, None, exec, |w, i, pair| {
        let mut matched = false;
        for rule in func.rules() {
            w.stats.rule_evals += 1;
            let mut rule_true = true;
            for bp in &rule.preds {
                let v = ctx.compute(bp.pred.feature, pair);
                w.stats.feature_computations += 1;
                w.stats.predicate_evals += 1;
                if !bp.pred.eval(v) {
                    rule_true = false;
                    // NOTE: no break — Algorithm 1 evaluates every predicate.
                }
            }
            // NOTE: no break — Algorithm 1 evaluates every rule.
            matched |= rule_true;
        }
        if matched {
            w.events.push(DeltaEvent::Matched { i });
        }
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
/// Precomputation is fused per pair (fill the pair's universe row, then
/// match the pair) so panic isolation sees a single pass; the work
/// performed is identical to the two-phase formulation.
pub fn run_precompute(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    universe: &[FeatureId],
    exec: &Executor,
) -> (MatchOutcome, DenseMemo) {
    let mut memo = DenseMemo::new(cands.len(), ctx.registry().len());
    let outcome = run_engine(ctx, cands, Some(&mut memo), exec, |w, i, pair| {
        // Fill the memo for the whole universe (Algorithm 2 phase 1,
        // restricted to this pair).
        for &f in universe {
            let v = ctx.compute(f, pair);
            w.stats.feature_computations += 1;
            w.memo.put(i, f, v);
        }
        // Match using lookups (phase 2 for this pair); a feature missing
        // from a smaller universe than the function needs is computed and
        // memoized.
        if first_firing(func, i, pair, ctx, &mut w.memo, false, &mut w.stats, |_| {}).is_some() {
            w.events.push(DeltaEvent::Matched { i });
        }
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
    run_engine(ctx, cands, None, exec, |w, i, pair| {
        let stats = &mut w.stats;
        let fired = func.rules().iter().any(|rule| {
            stats.rule_evals += 1;
            rule.preds.iter().all(|bp| {
                let v = ctx.compute(bp.pred.feature, pair);
                stats.feature_computations += 1;
                stats.predicate_evals += 1;
                bp.pred.eval(v)
            })
        });
        if fired {
            w.events.push(DeltaEvent::Matched { i });
        }
    })
}

/// The value of feature `f` for pair `i`: a memo lookup when present,
/// otherwise computed and memoized.
#[inline]
pub(crate) fn memo_or_compute<M: Memo>(
    f: FeatureId,
    i: usize,
    pair: PairIdx,
    ctx: &EvalContext,
    memo: &mut M,
    stats: &mut EvalStats,
) -> f64 {
    if let Some(v) = memo.get(i, f) {
        stats.memo_lookups += 1;
        return v;
    }
    let v = ctx.compute(f, pair);
    stats.feature_computations += 1;
    memo.put(i, f, v);
    v
}

/// Evaluates one rule for one pair with early exit + memoing, in the rule's
/// stored predicate order (optionally visiting already-memoized predicates
/// first — the "check cache first" optimization of §5.4.3), reporting each
/// failed predicate to `on_false`.
///
/// Shared by the Algorithm 4 engines, full runs and the incremental
/// algorithms. Allocates nothing for rules of up to 64 predicates.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub(crate) fn eval_rule_memoized<M: Memo>(
    rule: &BoundRule,
    pair_idx: usize,
    pair: PairIdx,
    ctx: &EvalContext,
    memo: &mut M,
    check_cache_first: bool,
    stats: &mut EvalStats,
    mut on_false: impl FnMut(PredId),
) -> bool {
    stats.rule_evals += 1;
    let preds = &rule.preds;

    // Which predicates were memoized is fixed before any is evaluated (a
    // value computed here must not promote a later predicate), so record
    // it: one bit per position, on the stack for up to 64 predicates.
    let mut inline = [0u64; 1];
    let mut spilled = Vec::new();
    let cached: &mut [u64] = if !check_cache_first || preds.len() <= 64 {
        &mut inline
    } else {
        spilled.resize(preds.len().div_ceil(64), 0);
        &mut spilled
    };
    if check_cache_first {
        for (p, bp) in preds.iter().enumerate() {
            if memo.contains(pair_idx, bp.pred.feature) {
                cached[p / 64] |= 1 << (p % 64);
            }
        }
    }

    let mut holds = |bp: &crate::rule::BoundPredicate| {
        let v = memo_or_compute(bp.pred.feature, pair_idx, pair, ctx, memo, stats);
        stats.predicate_evals += 1;
        if !bp.pred.eval(v) {
            on_false(bp.id);
            return false;
        }
        true
    };
    if !check_cache_first {
        return preds.iter().all(holds);
    }
    // Memoized predicates first, then the rest, each pass in stored order.
    for memoized in [true, false] {
        for (p, bp) in preds.iter().enumerate() {
            let was_cached = cached[p / 64] >> (p % 64) & 1 == 1;
            if was_cached == memoized && !holds(bp) {
                return false;
            }
        }
    }
    true
}

/// Algorithm 4's pair step: enters the rules in evaluation order until one
/// fires, reporting each failed predicate to `on_false`. Returns the rule
/// that fired.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub(crate) fn first_firing<M: Memo>(
    func: &MatchingFunction,
    pair_idx: usize,
    pair: PairIdx,
    ctx: &EvalContext,
    memo: &mut M,
    check_cache_first: bool,
    stats: &mut EvalStats,
    mut on_false: impl FnMut(PredId),
) -> Option<RuleId> {
    let fired = func.rules().iter().find(|rule| {
        eval_rule_memoized(
            rule,
            pair_idx,
            pair,
            ctx,
            memo,
            check_cache_first,
            stats,
            &mut on_false,
        )
    });
    fired.map(|rule| rule.id)
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
    let drive = drive_pairs(&PairList::Range(0..cands.len()), &mut checker, &mut |i| {
        let pair = cands.pair(i);
        let fired = first_firing(
            func,
            i,
            pair,
            ctx,
            memo,
            check_cache_first,
            &mut stats,
            |_| {},
        );
        verdicts[i] = fired.is_some();
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
    run_engine(ctx, cands, Some(memo), exec, |w, i, pair| {
        let fired = first_firing(
            func,
            i,
            pair,
            ctx,
            &mut w.memo,
            check_cache_first,
            &mut w.stats,
            |_| {},
        );
        if fired.is_some() {
            w.events.push(DeltaEvent::Matched { i });
        }
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
    use crate::predicate::CmpOp;
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
        let (ctx, _, _) = fixture();
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
        let pair = PairIdx::new(0, 0);
        let first_false = |check_cache_first: bool| {
            let mut memo = crate::memo::SparseMemo::new();
            memo.put(0, f_title, ctx.compute(f_title, pair));
            let mut stats = EvalStats::default();
            let mut failed = Vec::new();
            let fired = eval_rule_memoized(
                rule,
                0,
                pair,
                &ctx,
                &mut memo,
                check_cache_first,
                &mut stats,
                |id| failed.push(id),
            );
            assert!(!fired);
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
    fn check_cache_first_preserves_verdicts() {
        let (ctx, cands, func) = fixture();
        let (plain, _) = run_memo(&func, &ctx, &cands, false, &Executor::serial());
        let (ccf, _) = run_memo(&func, &ctx, &cands, true, &Executor::serial());
        assert_eq!(plain.verdicts, ccf.verdicts);
    }
}
