//! The matching engines of §4: the rudimentary and precomputation baselines
//! (Algorithms 1 and 2), early exit (Algorithm 3), and early exit with
//! dynamic memoing (Algorithm 4).
//!
//! All engines produce identical verdicts — they differ only in how much
//! feature computation they perform. The test-suite property "all engines
//! agree" is the workspace's central correctness check.
//!
//! Every engine takes an [`Executor`] and partitions the candidate set into
//! contiguous pair shards (candidate pairs are independent, so this is
//! embarrassingly parallel). Serial execution is the one-shard special case
//! of the same code path, which is what makes "parallel ≡ serial" hold by
//! construction rather than by testing alone.

use crate::budget::EvalBudget;
use crate::context::EvalContext;
use crate::executor::{partition, run_sharded, split_mut, Executor};
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::memo::{DenseMemo, Memo, MemoShard};
use crate::robust::{
    drive_pairs, drive_pairs_batched, fold_outcomes, BatchSink, DriveOutcome, PairList, PairSink,
};
use em_types::{CandidateSet, PairIdx};
use serde::{Deserialize, Serialize};
use std::ops::Range;
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
    let start = Instant::now();
    let mut verdicts = vec![false; cands.len()];
    let ranges = partition(cands.len(), exec.n_workers());
    let pairs = cands.as_slice();

    struct Sink<'a> {
        func: &'a MatchingFunction,
        ctx: &'a EvalContext,
        pairs: &'a [PairIdx],
        base: usize,
        verdicts: &'a mut [bool],
        stats: &'a mut EvalStats,
    }
    impl PairSink for Sink<'_> {
        fn process(&mut self, i: usize) {
            let pair = self.pairs[i];
            let mut matched = false;
            for rule in self.func.rules() {
                self.stats.rule_evals += 1;
                let mut rule_true = true;
                for bp in &rule.preds {
                    let v = self.ctx.compute(bp.pred.feature, pair);
                    self.stats.feature_computations += 1;
                    self.stats.predicate_evals += 1;
                    if !bp.pred.eval(v) {
                        rule_true = false;
                        // NOTE: no break — Algorithm 1 evaluates every predicate.
                    }
                }
                if rule_true {
                    matched = true;
                    // NOTE: no break — Algorithm 1 evaluates every rule.
                }
            }
            self.verdicts[i - self.base] = matched;
        }
    }

    let shards: Vec<(Range<usize>, &mut [bool], EvalStats, DriveOutcome)> = ranges
        .iter()
        .cloned()
        .zip(split_mut(&mut verdicts, &ranges))
        .map(|(range, verdicts)| {
            (
                range,
                verdicts,
                EvalStats::default(),
                DriveOutcome::default(),
            )
        })
        .collect();
    let shards = run_sharded(exec, shards, |_, (range, verdicts, stats, drive)| {
        let mut checker = EvalBudget::unlimited().checker();
        let mut sink = Sink {
            func,
            ctx,
            pairs,
            base: range.start,
            verdicts,
            stats,
        };
        *drive = drive_pairs(&PairList::Range(range.clone()), &mut checker, &mut sink);
    });

    let mut stats = EvalStats::default();
    let mut drives = Vec::with_capacity(shards.len());
    for (_, _, s, d) in shards {
        stats.absorb(&s);
        drives.push(d);
    }
    let (_, quarantined, _) = fold_outcomes(drives);

    MatchOutcome {
        verdicts,
        stats,
        elapsed: start.elapsed(),
        quarantined,
    }
}

/// Algorithm 2 — the precomputation baseline, optionally combined with
/// early exit (the paper's Figure 3 variants "PPR + EE" / "FPR + EE").
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
    early_exit: bool,
    exec: &Executor,
) -> (MatchOutcome, DenseMemo) {
    let start = Instant::now();
    let n_features = ctx.registry().len();
    let mut memo = DenseMemo::new(cands.len(), n_features);
    let mut verdicts = vec![false; cands.len()];
    let ranges = partition(cands.len(), exec.n_workers());
    let pairs = cands.as_slice();

    struct Shard<'a> {
        range: Range<usize>,
        memo: MemoShard<'a>,
        verdicts: &'a mut [bool],
        stats: EvalStats,
        drive: DriveOutcome,
    }
    let shards: Vec<Shard<'_>> = ranges
        .iter()
        .cloned()
        .zip(memo.shard_views(&ranges))
        .zip(split_mut(&mut verdicts, &ranges))
        .map(|((range, memo), verdicts)| Shard {
            range,
            memo,
            verdicts,
            stats: EvalStats::default(),
            drive: DriveOutcome::default(),
        })
        .collect();

    struct Sink<'a, 'b> {
        func: &'b MatchingFunction,
        ctx: &'b EvalContext,
        pairs: &'b [PairIdx],
        universe: &'b [FeatureId],
        early_exit: bool,
        base: usize,
        memo: &'b mut MemoShard<'a>,
        verdicts: &'b mut [bool],
        stats: &'b mut EvalStats,
    }
    impl PairSink for Sink<'_, '_> {
        fn process(&mut self, i: usize) {
            let pair = self.pairs[i];
            // Fill the memo for the whole universe (Algorithm 2 phase 1,
            // restricted to this pair).
            for &f in self.universe {
                let v = self.ctx.compute(f, pair);
                self.stats.feature_computations += 1;
                self.memo.put(i, f, v);
            }
            // Match using lookups (phase 2 for this pair).
            let mut matched = false;
            for rule in self.func.rules() {
                self.stats.rule_evals += 1;
                let mut rule_true = true;
                for bp in &rule.preds {
                    let v = match self.memo.get(i, bp.pred.feature) {
                        Some(v) => {
                            self.stats.memo_lookups += 1;
                            v
                        }
                        None => {
                            // Feature missing from the universe (caller chose a
                            // smaller universe than the function needs): compute
                            // and memoize.
                            let v = self.ctx.compute(bp.pred.feature, pair);
                            self.stats.feature_computations += 1;
                            self.memo.put(i, bp.pred.feature, v);
                            v
                        }
                    };
                    self.stats.predicate_evals += 1;
                    if !bp.pred.eval(v) {
                        rule_true = false;
                        if self.early_exit {
                            break;
                        }
                    }
                }
                if rule_true {
                    matched = true;
                    if self.early_exit {
                        break;
                    }
                }
            }
            self.verdicts[i - self.base] = matched;
        }
    }

    let shards = run_sharded(exec, shards, |_, shard| {
        let mut checker = EvalBudget::unlimited().checker();
        let range = shard.range.clone();
        let mut sink = Sink {
            func,
            ctx,
            pairs,
            universe,
            early_exit,
            base: range.start,
            memo: &mut shard.memo,
            verdicts: &mut *shard.verdicts,
            stats: &mut shard.stats,
        };
        shard.drive = drive_pairs(&PairList::Range(range), &mut checker, &mut sink);
    });

    let mut stats = EvalStats::default();
    let mut new_stored = 0;
    let mut drives = Vec::with_capacity(shards.len());
    for shard in shards {
        stats.absorb(&shard.stats);
        new_stored += shard.memo.new_stored();
        drives.push(shard.drive);
    }
    memo.add_stored(new_stored);
    let (_, quarantined, _) = fold_outcomes(drives);

    (
        MatchOutcome {
            verdicts,
            stats,
            elapsed: start.elapsed(),
            quarantined,
        },
        memo,
    )
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
    let start = Instant::now();
    let mut verdicts = vec![false; cands.len()];
    let ranges = partition(cands.len(), exec.n_workers());
    let pairs = cands.as_slice();

    struct Sink<'a> {
        func: &'a MatchingFunction,
        ctx: &'a EvalContext,
        pairs: &'a [PairIdx],
        base: usize,
        verdicts: &'a mut [bool],
        stats: &'a mut EvalStats,
    }
    impl PairSink for Sink<'_> {
        fn process(&mut self, i: usize) {
            let pair = self.pairs[i];
            'rules: for rule in self.func.rules() {
                self.stats.rule_evals += 1;
                let mut rule_true = true;
                for bp in &rule.preds {
                    let v = self.ctx.compute(bp.pred.feature, pair);
                    self.stats.feature_computations += 1;
                    self.stats.predicate_evals += 1;
                    if !bp.pred.eval(v) {
                        rule_true = false;
                        break;
                    }
                }
                if rule_true {
                    self.verdicts[i - self.base] = true;
                    break 'rules;
                }
            }
        }
    }

    let shards: Vec<(Range<usize>, &mut [bool], EvalStats, DriveOutcome)> = ranges
        .iter()
        .cloned()
        .zip(split_mut(&mut verdicts, &ranges))
        .map(|(range, verdicts)| {
            (
                range,
                verdicts,
                EvalStats::default(),
                DriveOutcome::default(),
            )
        })
        .collect();
    let shards = run_sharded(exec, shards, |_, (range, verdicts, stats, drive)| {
        let mut checker = EvalBudget::unlimited().checker();
        let mut sink = Sink {
            func,
            ctx,
            pairs,
            base: range.start,
            verdicts,
            stats,
        };
        *drive = drive_pairs(&PairList::Range(range.clone()), &mut checker, &mut sink);
    });

    let mut stats = EvalStats::default();
    let mut drives = Vec::with_capacity(shards.len());
    for (_, _, s, d) in shards {
        stats.absorb(&s);
        drives.push(d);
    }
    let (_, quarantined, _) = fold_outcomes(drives);

    MatchOutcome {
        verdicts,
        stats,
        elapsed: start.elapsed(),
        quarantined,
    }
}

/// Evaluates one rule for one pair with early exit + memoing, in the rule's
/// stored predicate order (optionally visiting already-memoized predicates
/// first — the "check cache first" optimization of §5.4.3).
///
/// Shared by [`run_memo_with`] and the incremental algorithms.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub(crate) fn eval_rule_memoized<M: Memo>(
    rule: &crate::rule::BoundRule,
    pair_idx: usize,
    pair: em_types::PairIdx,
    ctx: &EvalContext,
    memo: &mut M,
    check_cache_first: bool,
    stats: &mut EvalStats,
    mut on_false: impl FnMut(crate::predicate::PredId),
) -> bool {
    stats.rule_evals += 1;

    // Resolve evaluation order: cached predicates first when requested.
    let positions: Vec<usize> = if check_cache_first {
        let mut cached = Vec::new();
        let mut uncached = Vec::new();
        for (p, bp) in rule.preds.iter().enumerate() {
            if memo.contains(pair_idx, bp.pred.feature) {
                cached.push(p);
            } else {
                uncached.push(p);
            }
        }
        cached.extend(uncached);
        cached
    } else {
        (0..rule.preds.len()).collect()
    };

    for p in positions {
        let bp = &rule.preds[p];
        let v = match memo.get(pair_idx, bp.pred.feature) {
            Some(v) => {
                stats.memo_lookups += 1;
                v
            }
            None => {
                let v = ctx.compute(bp.pred.feature, pair);
                stats.feature_computations += 1;
                memo.put(pair_idx, bp.pred.feature, v);
                v
            }
        };
        stats.predicate_evals += 1;
        if !bp.pred.eval(v) {
            on_false(bp.id);
            return false;
        }
    }
    true
}

/// How many pairs one batched evaluation chunk covers. Large enough that a
/// per-feature kernel amortizes its dispatch over many pairs, small enough
/// that early exit keeps pruning (a chunk's survivors shrink rule by rule)
/// and a mid-chunk panic re-runs few pairs.
pub(crate) const BATCH_CHUNK: usize = 256;

/// Reusable buffers for [`eval_rules_batched`], held per worker shard so the
/// steady state allocates nothing per chunk.
#[derive(Default)]
pub(crate) struct BatchScratch {
    /// Chunk-local positions whose verdict is still undecided, ascending.
    alive: Vec<usize>,
    /// Positions that passed every predicate of the current rule so far.
    survivors: Vec<usize>,
    next: Vec<usize>,
    /// Positions whose current feature value was not memoized.
    uncached: Vec<usize>,
    upairs: Vec<PairIdx>,
    /// Global candidate indices matching `uncached` (memo keys).
    ukeys: Vec<usize>,
    uvals: Vec<f64>,
    /// Feature value per chunk-local position (current predicate).
    vals: Vec<f64>,
}

impl BatchScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Evaluates the whole matching function over one chunk of pairs,
/// column-wise: per rule, per predicate, the chunk's surviving pairs are
/// partitioned into memoized and uncomputed, the uncomputed remainder is
/// evaluated with **one** [`EvalContext::compute_batch`] call, and the
/// survivor list is filtered by the threshold.
///
/// Per pair this visits exactly the `(rule, predicate)` sequence Algorithm 4
/// visits — entering rules until one fires, evaluating predicates until one
/// fails — so verdicts, memo contents, and every [`EvalStats`] counter are
/// identical to the scalar path; only the iteration order across pairs
/// differs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_rules_batched<M: Memo>(
    func: &MatchingFunction,
    ctx: &EvalContext,
    pairs: &[PairIdx],
    indices: &[usize],
    memo: &mut M,
    stats: &mut EvalStats,
    scratch: &mut BatchScratch,
    mut on_fire: impl FnMut(usize, crate::rule::RuleId),
    mut on_false: impl FnMut(crate::predicate::PredId, usize),
) {
    let BatchScratch {
        alive,
        survivors,
        next,
        uncached,
        upairs,
        ukeys,
        uvals,
        vals,
    } = scratch;
    let k = indices.len();
    alive.clear();
    alive.extend(0..k);
    vals.clear();
    vals.resize(k, 0.0);
    for rule in func.rules() {
        if alive.is_empty() {
            break;
        }
        survivors.clear();
        survivors.extend_from_slice(alive);
        stats.rule_evals += survivors.len() as u64;
        for bp in &rule.preds {
            if survivors.is_empty() {
                break;
            }
            let f = bp.pred.feature;
            uncached.clear();
            upairs.clear();
            ukeys.clear();
            for &pos in survivors.iter() {
                let gi = indices[pos];
                match memo.get(gi, f) {
                    Some(v) => {
                        stats.memo_lookups += 1;
                        vals[pos] = v;
                    }
                    None => {
                        uncached.push(pos);
                        upairs.push(pairs[gi]);
                        ukeys.push(gi);
                    }
                }
            }
            if !uncached.is_empty() {
                uvals.clear();
                uvals.resize(uncached.len(), 0.0);
                ctx.compute_batch(f, upairs, uvals);
                stats.feature_computations += uncached.len() as u64;
                memo.put_column(f, ukeys, uvals);
                for (j, &pos) in uncached.iter().enumerate() {
                    vals[pos] = uvals[j];
                }
            }
            stats.predicate_evals += survivors.len() as u64;
            next.clear();
            for &pos in survivors.iter() {
                if bp.pred.eval(vals[pos]) {
                    next.push(pos);
                } else {
                    on_false(bp.id, indices[pos]);
                }
            }
            std::mem::swap(survivors, next);
        }
        if !survivors.is_empty() {
            // Survivors fired this rule: report them and strike them from
            // the alive list (both ascending, so one merge pass suffices).
            for &pos in survivors.iter() {
                on_fire(indices[pos], rule.id);
            }
            next.clear();
            let mut s = 0;
            for &pos in alive.iter() {
                if s < survivors.len() && survivors[s] == pos {
                    s += 1;
                } else {
                    next.push(pos);
                }
            }
            std::mem::swap(alive, next);
        }
    }
}

/// Algorithm 4 — early exit with dynamic memoing, writing into a
/// caller-supplied memo (dense or sparse). Serial: this is the single-shard
/// workhorse the parallel entry points fan out over (a generic [`Memo`]
/// cannot be split into thread-disjoint views).
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

    struct Sink<'a, M> {
        func: &'a MatchingFunction,
        ctx: &'a EvalContext,
        pairs: &'a [PairIdx],
        check_cache_first: bool,
        memo: &'a mut M,
        verdicts: &'a mut [bool],
        stats: &'a mut EvalStats,
        scratch: BatchScratch,
    }
    impl<M: Memo> PairSink for Sink<'_, M> {
        fn process(&mut self, i: usize) {
            let pair = self.pairs[i];
            for rule in self.func.rules() {
                if eval_rule_memoized(
                    rule,
                    i,
                    pair,
                    self.ctx,
                    &mut *self.memo,
                    self.check_cache_first,
                    &mut *self.stats,
                    |_| {},
                ) {
                    self.verdicts[i] = true;
                    break;
                }
            }
        }
    }
    impl<M: Memo> BatchSink for Sink<'_, M> {
        fn process_batch(&mut self, indices: &[usize]) {
            let Sink {
                func,
                ctx,
                pairs,
                memo,
                verdicts,
                stats,
                scratch,
                ..
            } = self;
            eval_rules_batched(
                func,
                ctx,
                pairs,
                indices,
                &mut **memo,
                stats,
                scratch,
                |gi, _| verdicts[gi] = true,
                |_, _| {},
            );
        }
    }

    let mut checker = EvalBudget::unlimited().checker();
    let batched = !check_cache_first && !ctx.has_fault_plan();
    let mut sink = Sink {
        func,
        ctx,
        pairs: cands.as_slice(),
        check_cache_first,
        memo,
        verdicts: &mut verdicts,
        stats: &mut stats,
        scratch: BatchScratch::new(),
    };
    let list = PairList::Range(0..cands.len());
    let drive = if batched {
        drive_pairs_batched(&list, &mut checker, &mut sink, BATCH_CHUNK)
    } else {
        drive_pairs(&list, &mut checker, &mut sink)
    };
    let (_, quarantined, _) = fold_outcomes([drive]);

    MatchOutcome {
        verdicts,
        stats,
        elapsed: start.elapsed(),
        quarantined,
    }
}

/// Algorithm 4 writing into a caller-supplied [`DenseMemo`], pair-parallel
/// under `exec`. Worker shards write **directly into `memo`** through
/// disjoint views, so everything a parallel run computes is retained for
/// later reuse (unlike the old chunk-local-copy scheme, which discarded
/// worker memos).
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
    let start = Instant::now();
    assert_eq!(
        memo.n_pairs(),
        cands.len(),
        "memo and candidate set must cover the same pairs"
    );
    memo.ensure_features(ctx.registry().len());
    let mut verdicts = vec![false; cands.len()];
    let ranges = partition(cands.len(), exec.n_workers());
    let pairs = cands.as_slice();

    struct Shard<'a> {
        range: Range<usize>,
        memo: MemoShard<'a>,
        verdicts: &'a mut [bool],
        stats: EvalStats,
        drive: DriveOutcome,
    }
    let shards: Vec<Shard<'_>> = ranges
        .iter()
        .cloned()
        .zip(memo.shard_views(&ranges))
        .zip(split_mut(&mut verdicts, &ranges))
        .map(|((range, memo), verdicts)| Shard {
            range,
            memo,
            verdicts,
            stats: EvalStats::default(),
            drive: DriveOutcome::default(),
        })
        .collect();

    struct Sink<'a, 'b> {
        func: &'b MatchingFunction,
        ctx: &'b EvalContext,
        pairs: &'b [PairIdx],
        check_cache_first: bool,
        base: usize,
        memo: &'b mut MemoShard<'a>,
        verdicts: &'b mut [bool],
        stats: &'b mut EvalStats,
        scratch: BatchScratch,
    }
    impl PairSink for Sink<'_, '_> {
        fn process(&mut self, i: usize) {
            let pair = self.pairs[i];
            for rule in self.func.rules() {
                if eval_rule_memoized(
                    rule,
                    i,
                    pair,
                    self.ctx,
                    &mut *self.memo,
                    self.check_cache_first,
                    &mut *self.stats,
                    |_| {},
                ) {
                    self.verdicts[i - self.base] = true;
                    break;
                }
            }
        }
    }
    impl BatchSink for Sink<'_, '_> {
        fn process_batch(&mut self, indices: &[usize]) {
            let Sink {
                func,
                ctx,
                pairs,
                base,
                memo,
                verdicts,
                stats,
                scratch,
                ..
            } = self;
            let base = *base;
            eval_rules_batched(
                func,
                ctx,
                pairs,
                indices,
                &mut **memo,
                stats,
                scratch,
                |gi, _| verdicts[gi - base] = true,
                |_, _| {},
            );
        }
    }

    let batched = !check_cache_first && !ctx.has_fault_plan();
    let shards = run_sharded(exec, shards, |_, shard| {
        let mut checker = EvalBudget::unlimited().checker();
        let range = shard.range.clone();
        let mut sink = Sink {
            func,
            ctx,
            pairs,
            check_cache_first,
            base: range.start,
            memo: &mut shard.memo,
            verdicts: &mut *shard.verdicts,
            stats: &mut shard.stats,
            scratch: BatchScratch::new(),
        };
        let list = PairList::Range(range);
        shard.drive = if batched {
            drive_pairs_batched(&list, &mut checker, &mut sink, BATCH_CHUNK)
        } else {
            drive_pairs(&list, &mut checker, &mut sink)
        };
    });

    let mut stats = EvalStats::default();
    let mut new_stored = 0;
    let mut drives = Vec::with_capacity(shards.len());
    for shard in shards {
        stats.absorb(&shard.stats);
        new_stored += shard.memo.new_stored();
        drives.push(shard.drive);
    }
    memo.add_stored(new_stored);
    let (_, quarantined, _) = fold_outcomes(drives);

    MatchOutcome {
        verdicts,
        stats,
        elapsed: start.elapsed(),
        quarantined,
    }
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
    /// Algorithm 2 (+ early exit) precomputing exactly the function's
    /// features ("production precomputation").
    PrecomputeProduction,
    /// Algorithm 2 (+ early exit) precomputing the given feature universe
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
                run_precompute(func, ctx, cands, &func.features(), true, exec).0
            }
            Strategy::PrecomputeFull(universe) => {
                run_precompute(func, ctx, cands, universe, true, exec).0
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
        let (out, memo) = run_precompute(&func, &ctx, &cands, &universe, true, &Executor::serial());
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
    fn check_cache_first_preserves_verdicts() {
        let (ctx, cands, func) = fixture();
        let (plain, _) = run_memo(&func, &ctx, &cands, false, &Executor::serial());
        let (ccf, _) = run_memo(&func, &ctx, &cands, true, &Executor::serial());
        assert_eq!(plain.verdicts, ccf.verdicts);
    }
}
