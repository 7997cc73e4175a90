//! Incremental matching (§6): apply a single rule-set edit by recomputing
//! only the minimal delta, using the materialized [`MatchState`].
//!
//! The fundamental changes and their affected pair sets:
//!
//! | change | algorithm | pairs re-examined |
//! |---|---|---|
//! | add / tighten a predicate of rule `r` | Alg. 7 | `M(r)` — pairs `r` fired for |
//! | relax predicate `p` of rule `r` | Alg. 8 | `U(p)` |
//! | remove predicate `p` of rule `r` | Alg. 8 | `U(p)`, less pairs fired before `r` |
//! | remove rule `r` | Alg. 9 | `M(r)` |
//! | insert rule `r` at a position | Alg. 10 | unmatched pairs and pairs fired after `r` |
//!
//! Every edit keeps the state exact (see [`crate::state`]): `U(p)` bits are
//! sound, fired pointers and `M(r)` equal a from-scratch run, and every
//! rule before a pair's fired rule — every rule, for an unmatched pair —
//! has a *failure witness*, a set `U(p)` bit for one of its predicates.
//! Algorithm 8 therefore also re-tests the matched pairs of `U(p)`: a bit
//! the relaxed threshold now passes is cleared, and when the loosened rule
//! sits before the pair's fired rule and now holds, the pair is re-pointed
//! to it (its verdict stands). Algorithm 10 inserts at any position, so
//! undoing a rule removal restores the rule where it was.
//!
//! **The witness-pruned cascade.** A pair that leaves `M(r)` (Alg. 7 and 9)
//! walks the rules in evaluation order, skips every rule that has a
//! witness, and fires the first of the rest that holds. Witnesses are read
//! from the pre-edit state, so a pair's cascade depends on nothing another
//! pair's evaluation writes. Rules before `r` are witnessed by the exactness
//! invariant, so the paper's printed form ("re-test only the rules after
//! `r`") is the special case where no later rule has a witness either.
//! The cascade runs a word's leaving pairs together, rule by rule: for each
//! rule it ORs the rule's `U(p)` words until they cover the pairs still
//! unmatched ([`PreEdit::witnessed`]), tests the rule on the pairs left
//! open, and drops those it fires for. Witnesses are resolved only for the
//! word's own mask, so a word with one leaving pair stops at each rule's
//! first witnessing predicate, and a pass in which no pair leaves `M(r)`
//! scans nothing.
//!
//! **Per-edit work bound.** A pair leaving `M(r)` evaluates only the rules
//! without a witness. Undoing a loosening of `r` — the re-tightening that
//! sends the pairs it matched back out of `M(r)` — finds every rule but `r`
//! still witnessed for a pair the loosening took from the unmatched, so it
//! costs one rule evaluation (`r` itself) per pair that leaves `M(r)`,
//! however many rules the function has. A pair the loosening re-pointed
//! from a later rule also re-evaluates that rule, which fires again.
//!
//! **Parallel deltas, one word at a time:** every algorithm's per-pair work
//! touches only that pair's memo row, verdict, and bitmap bits, so given
//! the *pre-edit* state the pairs are independent. An edit reads its
//! affected pairs as `(word, mask)` units straight off `M(r)`, `U(p)` and
//! the fired pointers, and its step runs through the sharded driver in
//! `robust.rs`, one 64-pair word at a time: each rule is tested over the
//! word's live pairs, predicate by predicate, so every pair goes through
//! exactly the evaluations it would alone. Workers write memo cells in
//! place through disjoint windows of the dense memo and log one event per
//! word and outcome, which is OR-ed into (or cleared from) the
//! [`MatchState`]'s words serially in word order. Serial execution is the
//! one-shard case of the same path, so reports and state are identical for
//! every thread count.

use crate::bitmap::{all_words, filter_word, word_pairs, words_of};
use crate::budget::{Completion, EvalBudget};
use crate::context::EvalContext;
use crate::engine::{eval_rule_memoized, failing, first_firing, EvalStats};
use crate::executor::Executor;
use crate::function::{EditError, MatchingFunction};
use crate::predicate::{PredId, Predicate};
use crate::robust::{drive_sharded, Pass, Shard, Word};
use crate::rule::{BoundRule, Rule, RuleId};
use crate::state::{MatchState, PreEdit};
use em_types::CandidateSet;
use std::time::{Duration, Instant};

/// Work done by one worker during a parallel (or serial) delta evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerStats {
    /// Shard index (0 for serial execution).
    pub worker: usize,
    /// Affected pairs this worker re-examined.
    pub pairs_examined: usize,
    /// This worker's share of the evaluation counters.
    pub stats: EvalStats,
}

/// What one incremental edit changed.
#[derive(Debug, Clone, Default)]
pub struct ChangeReport {
    /// Pairs that flipped unmatch → match.
    pub newly_matched: Vec<usize>,
    /// Pairs that flipped match → unmatch.
    pub newly_unmatched: Vec<usize>,
    /// Pairs the edit had to re-examine.
    pub pairs_examined: usize,
    /// Work counters for the delta evaluation (sum over workers).
    pub stats: EvalStats,
    /// Per-worker breakdown of the delta evaluation.
    pub worker_stats: Vec<WorkerStats>,
    /// Wall-clock time of the incremental update.
    pub elapsed: Duration,
    /// Whether every affected pair was re-examined, or which remain for a
    /// resume (when a budget tripped mid-edit).
    pub completion: Completion,
    /// Affected pairs whose re-evaluation panicked and were quarantined,
    /// ascending. Their verdicts are left as they were before the edit.
    pub quarantined: Vec<usize>,
}

impl ChangeReport {
    /// Total number of verdicts that changed.
    pub fn n_changed(&self) -> usize {
        self.newly_matched.len() + self.newly_unmatched.len()
    }
}

/// One state mutation or report observed while evaluating a pass against
/// the pre-edit snapshot, for the pairs of `mask` in word `word`; replayed
/// onto the [`MatchState`] after all workers finish. The §4 engines report
/// their matches with it too.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeltaEvent {
    /// The pairs now match via rule `r` (they join `M(r)`).
    Fire { word: usize, mask: u64, r: RuleId },
    /// The pairs lost their fired rule.
    Unfire { word: usize, mask: u64 },
    /// Predicate `p` evaluated false for the pairs (they join `U(p)`).
    PredFalse { p: PredId, word: usize, mask: u64 },
    /// Predicate `p` no longer fails the pairs (they leave `U(p)`).
    PredClear { p: PredId, word: usize, mask: u64 },
    /// Report the pairs as newly matched.
    Matched { word: usize, mask: u64 },
    /// Report the pairs as newly unmatched.
    Unmatched { word: usize, mask: u64 },
}

/// Replays a pass's event log onto the state, in word order, and reports
/// the pass.
pub(crate) fn apply_delta(state: &mut MatchState, pass: Pass) -> ChangeReport {
    let mut report = ChangeReport {
        pairs_examined: pass.pairs_examined,
        stats: pass.stats,
        worker_stats: pass.worker_stats,
        completion: pass.completion,
        quarantined: pass.quarantined,
        ..ChangeReport::default()
    };
    for event in pass.events {
        match event {
            DeltaEvent::Fire { word, mask, r } => state.fire(word, mask, r),
            DeltaEvent::Unfire { word, mask } => state.unfire(word, mask),
            DeltaEvent::PredFalse { p, word, mask } => state.record_pred_false(p, word, mask),
            DeltaEvent::PredClear { p, word, mask } => state.clear_pred_false(p, word, mask),
            DeltaEvent::Matched { word, mask } => {
                report.newly_matched.extend(word_pairs(word, mask));
            }
            DeltaEvent::Unmatched { word, mask } => {
                report.newly_unmatched.extend(word_pairs(word, mask));
            }
        }
    }
    report
}

/// Algorithm 4's word step with the materialization's bookkeeping: logs
/// each predicate's failures (`U(p)`) and the pairs each rule fires for
/// (`M(r)`).
pub(crate) fn fire_first(
    func: &MatchingFunction,
    cands: &CandidateSet,
    ctx: &EvalContext,
    check_cache_first: bool,
    w: &mut Shard<'_>,
    word: usize,
    mask: u64,
) {
    let events = &mut w.events;
    first_firing(
        func,
        word,
        mask,
        cands,
        ctx,
        &mut w.memo,
        check_cache_first,
        &mut w.stats,
        |event| events.push(event),
    );
}

/// Tests `rule` on the pairs of `mask` in word `word`, logging each
/// predicate's failures (the rule's new witnesses). An unmatched pair it
/// holds for fires it and is reported newly matched; a matched pair is
/// re-pointed to it, its verdict unchanged. Callers only test a matched
/// pair on a rule that sits before the pair's fired rule.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
fn fire_if_holds(
    rule: &BoundRule,
    pre: PreEdit<'_>,
    cands: &CandidateSet,
    ctx: &EvalContext,
    check_cache_first: bool,
    w: &mut Shard<'_>,
    word: usize,
    mask: u64,
) {
    let events = &mut w.events;
    let holds = eval_rule_memoized(
        rule,
        word,
        mask,
        cands,
        ctx,
        &mut w.memo,
        check_cache_first,
        &mut w.stats,
        |p, mask| events.push(DeltaEvent::PredFalse { p, word, mask }),
    );
    if holds == 0 {
        return;
    }
    let matched = filter_word(word, holds, |i| pre.fired(i).is_some());
    if matched != 0 {
        events.push(DeltaEvent::Unfire {
            word,
            mask: matched,
        });
    }
    events.push(DeltaEvent::Fire {
        word,
        mask: holds,
        r: rule.id,
    });
    if holds != matched {
        events.push(DeltaEvent::Matched {
            word,
            mask: holds & !matched,
        });
    }
}

/// The witness-pruned cascade for the pairs of `mask` in word `word`, which
/// lost their fired rule: walks the rules in evaluation order and tests
/// each one on the pairs still unmatched that no pre-edit `U(p)` bit proves
/// it false for, logging their failed predicates; the pairs it holds for
/// fire it. Reports the pairs no rule holds for newly unmatched.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
fn cascade(
    func: &MatchingFunction,
    pre: PreEdit<'_>,
    cands: &CandidateSet,
    ctx: &EvalContext,
    check_cache_first: bool,
    w: &mut Shard<'_>,
    word: usize,
    mask: u64,
) {
    let events = &mut w.events;
    events.push(DeltaEvent::Unfire { word, mask });
    let mut live = mask;
    for rule in func.rules() {
        if live == 0 {
            return;
        }
        let open = live & !pre.witnessed(rule, word, live);
        if open == 0 {
            continue;
        }
        let holds = eval_rule_memoized(
            rule,
            word,
            open,
            cands,
            ctx,
            &mut w.memo,
            check_cache_first,
            &mut w.stats,
            |p, mask| events.push(DeltaEvent::PredFalse { p, word, mask }),
        );
        if holds != 0 {
            events.push(DeltaEvent::Fire {
                word,
                mask: holds,
                r: rule.id,
            });
            live &= !holds;
        }
    }
    if live != 0 {
        events.push(DeltaEvent::Unmatched { word, mask: live });
    }
}

/// Marks, by rule id, the rules evaluated after rule `rid`.
fn rules_after(func: &MatchingFunction, rid: RuleId) -> Vec<bool> {
    let mut later = vec![false; func.id_counters().0 as usize];
    let rules = func.rules();
    let pos = func.rule_position(rid).unwrap_or(rules.len());
    for rule in rules.iter().skip(pos + 1) {
        later[rule.id.0 as usize] = true;
    }
    later
}

/// The pairs of `mask` in word `word` that reach the rule `later` was built
/// for (see [`rules_after`]), by their fired rule `fired`: those unmatched,
/// or fired after it.
fn reaching(
    later: &[bool],
    fired: impl Fn(usize) -> Option<RuleId>,
    word: usize,
    mask: u64,
) -> u64 {
    filter_word(word, mask, |i| {
        fired(i).is_none_or(|f| later.get(f.0 as usize) == Some(&true))
    })
}

/// The units of `words` narrowed to their pairs that reach the rule
/// `later` was built for, by `state`'s fired pointers.
fn reaching_words(
    later: &[bool],
    state: &MatchState,
    words: impl IntoIterator<Item = Word>,
) -> Vec<Word> {
    let fired = |i| state.fired_rule(i);
    words
        .into_iter()
        .map(|(word, mask)| (word, reaching(later, fired, word, mask)))
        .filter(|&(_, mask)| mask != 0)
        .collect()
}

/// The kind of delta an edit started — everything needed to re-run the same
/// evaluation over a stored remaining list via [`resume_delta`] after a
/// budget tripped mid-edit.
#[derive(Debug, Clone)]
pub enum PendingDelta {
    /// Algorithm 10: evaluate a newly inserted rule over the unmatched
    /// pairs and the pairs fired after it.
    AddRule {
        /// The added rule.
        rid: RuleId,
    },
    /// Algorithm 9's body: unfire, then the witness-pruned cascade (used by
    /// rule removal — the rule is already gone from the function).
    Cascade,
    /// Algorithm 7: re-test a tightened/added predicate over `M(r)`,
    /// cascading pairs that now fail.
    Restrict {
        /// The restricted rule.
        rid: RuleId,
        /// The added/tightened predicate.
        pid: PredId,
    },
    /// Algorithm 8: re-test a removed/relaxed predicate (and its rule) over
    /// `U(p)`.
    Loosen {
        /// The loosened rule.
        rid: RuleId,
        /// The removed/relaxed predicate.
        pid: PredId,
        /// `Some(new predicate)` for relax (re-test first), `None` for
        /// removal.
        re_eval: Option<Predicate>,
    },
}

/// Runs one delta kind over the affected pairs, as `(word, mask)` units,
/// and applies the result. Shared by the edit entry points (the full
/// affected set) and [`resume_delta`] (the remaining list of a partial
/// edit).
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
fn run_kind(
    kind: &PendingDelta,
    affected: &[Word],
    func: &MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<ChangeReport, EditError> {
    let start = Instant::now();
    let ccf = check_cache_first;
    let (memo, pre) = state.memo_and_pre_edit();
    let mut delta = |step: &(dyn Fn(&mut Shard<'_>, usize, u64) + Sync)| {
        drive_sharded(exec, ctx, cands, affected, Some(memo), budget, step)
    };
    let pass = match kind {
        PendingDelta::AddRule { rid } => {
            let rule = func.rule(*rid).ok_or(EditError::UnknownRule(*rid))?;
            delta(&|w, word, mask| fire_if_holds(rule, pre, cands, ctx, ccf, w, word, mask))
        }
        PendingDelta::Cascade => {
            delta(&|w, word, mask| cascade(func, pre, cands, ctx, ccf, w, word, mask))
        }
        PendingDelta::Restrict { pid, .. } => {
            let (_, bp) = func
                .find_predicate(*pid)
                .ok_or(EditError::UnknownPredicate(*pid))?;
            let (p, pred) = (*pid, bp.pred);
            delta(&|w, word, mask| {
                // The pairs the rule no longer fires for.
                let mask = failing(&pred, word, mask, cands, ctx, &mut w.memo, &mut w.stats);
                if mask != 0 {
                    w.events.push(DeltaEvent::PredFalse { p, word, mask });
                    cascade(func, pre, cands, ctx, ccf, w, word, mask);
                }
            })
        }
        PendingDelta::Loosen { rid, pid, re_eval } => {
            let rule = func.rule(*rid).ok_or(EditError::UnknownRule(*rid))?;
            let (later, p) = (rules_after(func, *rid), *pid);
            delta(&|w, word, mut mask| {
                if let Some(pred) = re_eval {
                    // Memoized: the U(p) bits were set by evaluations. The
                    // pairs still false under the relaxed threshold drop out.
                    mask &= !failing(pred, word, mask, cands, ctx, &mut w.memo, &mut w.stats);
                    if mask == 0 {
                        return;
                    }
                    w.events.push(DeltaEvent::PredClear { p, word, mask });
                }
                // No rule before the loosened one holds for these; test it
                // whole.
                let reach = reaching(&later, |i| pre.fired(i), word, mask);
                if reach != 0 {
                    fire_if_holds(rule, pre, cands, ctx, ccf, w, word, reach);
                }
            })
        }
    };
    let mut report = apply_delta(state, pass);
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Finishes (or further advances) a partially-applied edit: re-runs the
/// edit's [`PendingDelta`] over the stored `remaining` pair list. The
/// matching function must not have been edited since the partial edit —
/// callers (the session) are responsible for blocking interleaved edits.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn resume_delta(
    func: &MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    kind: &PendingDelta,
    remaining: &[usize],
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<ChangeReport, EditError> {
    run_kind(
        kind,
        &words_of(remaining.iter().copied()),
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )
}

/// `M(r)`'s words: the pairs rule `rid` fired for.
fn rule_affected(state: &MatchState, rid: RuleId) -> Vec<Word> {
    state
        .rule_bitmap(rid)
        .map(|bm| bm.nonzero_words().collect())
        .unwrap_or_default()
}

/// The words of `U(p)` a loosen edit of `p` (in rule `rid`) re-examines. A
/// relax re-tests every bit, so the ones it passes are cleared; a removal
/// drops `U(p)` whole, so it re-tests rule `rid` only where `p` may have
/// been the rule's witness: unmatched pairs and pairs fired after `rid`.
fn loosen_affected(
    func: &MatchingFunction,
    state: &MatchState,
    rid: RuleId,
    pid: PredId,
    relax: bool,
) -> Vec<Word> {
    let Some(bm) = state.pred_bitmap(pid) else {
        return Vec::new();
    };
    if relax {
        return bm.nonzero_words().collect();
    }
    reaching_words(&rules_after(func, rid), state, bm.nonzero_words())
}

/// Algorithm 10, generalised — insert a rule at evaluation position
/// `position` (clamped to the end).
///
/// Only pairs that reach the new rule can change: the unmatched pairs and
/// the pairs whose fired rule sits after it. Each tests the rule; one that
/// holds fires it (an unmatched pair) or is re-pointed to it (a matched
/// pair, verdict unchanged), and one that fails logs its witness. This is
/// exact — the other rules are untouched.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn insert_rule(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    rule: Rule,
    position: usize,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<(RuleId, ChangeReport), EditError> {
    let rid = func.insert_rule(rule, position)?;
    let later = rules_after(func, rid);
    let affected = reaching_words(&later, state, all_words(state.n_pairs()));
    let report = run_kind(
        &PendingDelta::AddRule { rid },
        &affected,
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )?;
    Ok((rid, report))
}

/// Algorithm 10 — add a rule at the end of the evaluation order, so only
/// currently-unmatched pairs can change: every matched pair fires before
/// reaching it. [`insert_rule`] at the last position.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn add_rule(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    rule: Rule,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<(RuleId, ChangeReport), EditError> {
    let end = func.n_rules();
    insert_rule(
        func,
        state,
        ctx,
        cands,
        rule,
        end,
        check_cache_first,
        exec,
        budget,
    )
}

/// Algorithm 9 — remove a rule.
///
/// Only the pairs `r` fired for can change; each goes through the
/// witness-pruned cascade of the remaining rules. Under a tripped budget the
/// unprocessed pairs keep their stale verdict (and fired pointer) until
/// the resume completes, so the caller must block further edits until
/// then.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn remove_rule(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    rid: RuleId,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<ChangeReport, EditError> {
    let removed = func.remove_rule(rid)?;
    let affected = rule_affected(state, rid);
    let pred_ids: Vec<PredId> = removed.preds.iter().map(|bp| bp.id).collect();
    state.drop_rule_state(rid, &pred_ids);
    run_kind(
        &PendingDelta::Cascade,
        &affected,
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )
}

/// Algorithm 7 — add a predicate to a rule.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn add_predicate(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    rid: RuleId,
    pred: Predicate,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<(PredId, ChangeReport), EditError> {
    let pid = func.add_predicate(rid, pred)?;
    let affected = rule_affected(state, rid);
    let report = run_kind(
        &PendingDelta::Restrict { rid, pid },
        &affected,
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )?;
    Ok((pid, report))
}

/// Algorithm 8 — remove a predicate from a rule.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn remove_predicate(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    pid: PredId,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<ChangeReport, EditError> {
    let (rid, _) = func
        .find_predicate(pid)
        .map(|(r, bp)| (r, bp.pred))
        .ok_or(EditError::UnknownPredicate(pid))?;
    func.remove_predicate(pid)?;
    let affected = loosen_affected(func, state, rid, pid, false);
    let report = run_kind(
        &PendingDelta::Loosen {
            rid,
            pid,
            re_eval: None,
        },
        &affected,
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )?;
    state.drop_pred_state(pid);
    Ok(report)
}

/// Tighten or relax a predicate's threshold; dispatches to Algorithm 7 or 8
/// by the direction of the change. A no-op change returns an empty report.
/// Also returns the [`PendingDelta`] that was run (`None` for a no-op
/// change) so callers can store it for [`resume_delta`] without
/// re-deriving the direction.
#[allow(clippy::too_many_arguments)] // mirrors the paper's algorithm signature
pub fn set_threshold(
    func: &mut MatchingFunction,
    state: &mut MatchState,
    ctx: &EvalContext,
    cands: &CandidateSet,
    pid: PredId,
    new_threshold: f64,
    check_cache_first: bool,
    exec: &Executor,
    budget: &EvalBudget,
) -> Result<(ChangeReport, Option<PendingDelta>), EditError> {
    let (rid, bp) = func
        .find_predicate(pid)
        .ok_or(EditError::UnknownPredicate(pid))?;
    let direction = bp.pred.change_direction(new_threshold);
    func.set_threshold(pid, new_threshold)?;

    let kind = match direction {
        None => return Ok((ChangeReport::default(), None)),
        Some(true) => PendingDelta::Restrict { rid, pid },
        Some(false) => {
            let pred = func
                .find_predicate(pid)
                .ok_or(EditError::UnknownPredicate(pid))?
                .1
                .pred;
            PendingDelta::Loosen {
                rid,
                pid,
                re_eval: Some(pred),
            }
        }
    };
    let affected = match &kind {
        PendingDelta::Restrict { .. } => rule_affected(state, rid),
        _ => loosen_affected(func, state, rid, pid, true),
    };
    let report = run_kind(
        &kind,
        &affected,
        func,
        state,
        ctx,
        cands,
        check_cache_first,
        exec,
        budget,
    )?;
    Ok((report, Some(kind)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::state::run_full;
    use em_similarity::{Measure, TokenScheme};
    use em_types::{Record, Schema, Table};

    /// 4×4 fixture with two title-identical pairs and one modelno match.
    struct Fix {
        ctx: EvalContext,
        cands: CandidateSet,
        func: MatchingFunction,
        state: MatchState,
        f_title: crate::feature::FeatureId,
        f_model: crate::feature::FeatureId,
    }

    fn fixture() -> Fix {
        let schema = Schema::new(["title", "modelno"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
        a.push(Record::new("a2", ["sony walkman player", "NWZ"]));
        a.push(Record::new("a3", ["bose speaker mini", "BS1"]));
        a.push(Record::new("a4", ["dell monitor hd", "DM27"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod nano", "MC037"]));
        b.push(Record::new("b2", ["sony walkman player", "NWZ9"]));
        b.push(Record::new("b3", ["jbl flip speaker", "BS1"]));
        b.push(Record::new("b4", ["lg monitor uhd", "LG27"]));

        let mut ctx = EvalContext::from_tables(a, b);
        let f_title = ctx
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let f_model = ctx.feature(Measure::Exact, "modelno", "modelno").unwrap();

        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.99))
            .unwrap();

        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &Executor::serial());

        Fix {
            ctx,
            cands,
            func,
            state,
            f_title,
            f_model,
        }
    }

    /// Verifies incremental state agrees with a from-scratch run.
    fn assert_consistent(fix: &Fix) {
        let mut fresh = MatchState::new(fix.cands.len(), fix.ctx.registry().len());
        run_full(
            &fix.func,
            &fix.ctx,
            &fix.cands,
            &mut fresh,
            false,
            &Executor::serial(),
        );
        assert_eq!(
            fix.state.verdicts(),
            fresh.verdicts(),
            "incremental verdicts diverge from scratch run"
        );
    }

    #[test]
    fn initial_state() {
        let fix = fixture();
        // a1b1 and a2b2 have identical titles.
        assert_eq!(fix.state.n_matches(), 2);
        assert!(fix.state.verdict(0));
        assert!(fix.state.verdict(5));
    }

    #[test]
    fn add_rule_matches_new_pairs_only() {
        let mut fix = fixture();
        let rule = Rule::new().pred(fix.f_model, CmpOp::Ge, 1.0);
        let (rid, report) = add_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rule,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        // a1b1 already matched via title; a3b3 (BS1 = BS1) is new.
        assert_eq!(report.newly_matched, vec![10]); // pair (a3,b3) = 2*4+2
        assert!(report.newly_unmatched.is_empty());
        assert_eq!(fix.state.fired_rule(10), Some(rid));
        // Only unmatched pairs examined: 16 − 2.
        assert_eq!(report.pairs_examined, 14);
        assert_consistent(&fix);
    }

    #[test]
    fn remove_rule_unmatches_or_rescues() {
        let mut fix = fixture();
        // Add the model rule, then remove the title rule: a1b1 must be
        // rescued by the model rule; a2b2 (NWZ vs NWZ9) must unmatch.
        let rule = Rule::new().pred(fix.f_model, CmpOp::Ge, 1.0);
        add_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rule,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        let title_rule = fix.func.rules()[0].id;
        let report = remove_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            title_rule,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.pairs_examined, 2, "only M(r) re-examined");
        assert_eq!(report.newly_unmatched, vec![5]);
        assert!(fix.state.verdict(0), "a1b1 rescued by model rule");
        assert!(fix.state.verdict(10));
        assert_consistent(&fix);
    }

    #[test]
    fn add_predicate_restricts() {
        let mut fix = fixture();
        let rid = fix.func.rules()[0].id;
        // Require model equality on the title rule: a2b2 now fails.
        let (pid, report) = add_predicate(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rid,
            Predicate::at_least(fix.f_model, 1.0),
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.pairs_examined, 2, "only M(r) re-examined");
        assert_eq!(report.newly_unmatched, vec![5]);
        assert!(fix.state.verdict(0));
        assert!(fix.state.pred_bitmap(pid).unwrap().get(5));
        assert_consistent(&fix);
    }

    #[test]
    fn tighten_then_relax_roundtrip() {
        let mut fix = fixture();
        let pid = fix.func.rules()[0].preds[0].id;

        // Tighten to an impossible threshold: both matches vanish.
        let (report, _) = set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            1.01,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.newly_unmatched.len(), 2);
        assert_eq!(fix.state.n_matches(), 0);
        assert_consistent(&fix);

        // Relax back to 0.99: both return.
        let (report, _) = set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            0.99,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.newly_matched.len(), 2);
        assert_eq!(fix.state.n_matches(), 2);
        assert_consistent(&fix);

        // Relaxing further matches overlapping-but-unequal titles too.
        let (report, _) = set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            0.2,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert!(!report.newly_matched.is_empty());
        assert_consistent(&fix);
    }

    #[test]
    fn noop_threshold_change_is_free() {
        let mut fix = fixture();
        let pid = fix.func.rules()[0].preds[0].id;
        let (report, _) = set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            0.99,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.pairs_examined, 0);
        assert_eq!(report.n_changed(), 0);
    }

    #[test]
    fn remove_predicate_loosens() {
        let mut fix = fixture();
        let rid = fix.func.rules()[0].id;
        // Make the rule two-predicate, run full to settle state, then
        // remove the added predicate: the lost match returns.
        let (pid, _) = add_predicate(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rid,
            Predicate::at_least(fix.f_model, 1.0),
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(fix.state.n_matches(), 1);
        let report = remove_predicate(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.newly_matched, vec![5]);
        assert_eq!(fix.state.n_matches(), 2);
        assert_consistent(&fix);
    }

    #[test]
    fn undoing_a_loosening_costs_one_rule_eval_per_pair_leaving_m_r() {
        // r1 = title >= 0.2 AND model >= 1 fires a3b3 only; dropping the
        // model predicate grows M(r1) by a4b4, and re-adding it (the undo)
        // sends a4b4 back out. Two later rules fail every pair.
        let mut fix = fixture();
        let exec = Executor::serial();
        let budget = EvalBudget::unlimited();
        let model = Predicate::at_least(fix.f_model, 1.0);
        let r1 = fix
            .func
            .add_rule(Rule::with([Predicate::at_least(fix.f_title, 0.2), model]))
            .unwrap();
        let never = Rule::new().pred(fix.f_title, CmpOp::Ge, 2.0);
        fix.func.add_rule(never.clone()).unwrap();
        fix.func
            .add_rule(never.pred(fix.f_model, CmpOp::Ge, 2.0))
            .unwrap();
        run_full(
            &fix.func,
            &fix.ctx,
            &fix.cands,
            &mut fix.state,
            false,
            &exec,
        );
        let model_p = fix.func.rule(r1).unwrap().preds[1].id;

        remove_predicate(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            model_p,
            false,
            &exec,
            &budget,
        )
        .unwrap();
        let grown: Vec<usize> = fix.state.rule_bitmap(r1).unwrap().iter_ones().collect();
        assert_eq!(grown, vec![10, 15], "M(r1) grew by a4b4");

        let (_, report) = add_predicate(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            r1,
            model,
            false,
            &exec,
            &budget,
        )
        .unwrap();
        let after = fix.state.rule_bitmap(r1).unwrap();
        let left = grown.iter().filter(|&&i| !after.get(i)).count();
        assert_eq!(left, 1);
        // a4b4 re-tests r1 only: r0 and the two later rules have witnesses.
        assert_eq!(report.stats.rule_evals, left as u64);
        assert_eq!(report.newly_unmatched, vec![15]);
        assert_consistent(&fix);
    }

    /// A 12×12 fixture (144 pairs, three words) with a title Jaccard, a
    /// code equality and a code Levenshtein feature. Codes cycle through
    /// four values on both sides, so pairs 63 and 64 (`a5` with `b3` and
    /// `b4`), the last bit of word 0 and the first of word 1, differ in
    /// code.
    fn wide_fixture() -> (EvalContext, CandidateSet, [crate::feature::FeatureId; 3]) {
        const COLORS: [&str; 3] = ["red", "blue", "green"];
        const ITEMS: [&str; 5] = ["lamp", "desk", "chair", "shelf", "sofa"];
        let schema = Schema::new(["title", "code"]);
        let table = |name: &str, shift: usize| {
            let mut t = Table::new(name, schema.clone());
            for k in 0..12 {
                let title = format!("{} {}", COLORS[k % 3], ITEMS[(k + shift) % 5]);
                t.push(Record::new(
                    format!("{name}{k}"),
                    [title, format!("C{}", k % 4)],
                ));
            }
            t
        };
        let mut ctx = EvalContext::from_tables(table("a", 0), table("b", 2));
        let title = ctx
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let code = ctx.feature(Measure::Exact, "code", "code").unwrap();
        let lev = ctx.feature(Measure::Levenshtein, "code", "code").unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        (ctx, cands, [title, code, lev])
    }

    /// The rule evaluations a witness-pruned cascade of `pairs` costs,
    /// counted by brute force: for each pair, the rules of `func` up to the
    /// one it fires in `after` (all of them, when it is unmatched) that no
    /// `U(p)` bit of `before` proves false.
    fn unwitnessed_walk(
        func: &MatchingFunction,
        before: &MatchState,
        after: &MatchState,
        pairs: &[usize],
    ) -> u64 {
        let mut evals = 0;
        for &i in pairs {
            for rule in func.rules() {
                let witnessed = rule
                    .preds
                    .iter()
                    .any(|bp| before.pred_bitmap(bp.id).is_some_and(|b| b.get(i)));
                evals += u64::from(!witnessed);
                if after.fired_rule(i) == Some(rule.id) {
                    break;
                }
            }
        }
        evals
    }

    /// `M(r)` as ascending pairs.
    fn rule_pairs(state: &MatchState, rid: RuleId) -> Vec<usize> {
        let words = rule_affected(state, rid);
        words.iter().flat_map(|&(w, m)| word_pairs(w, m)).collect()
    }

    #[test]
    fn cascade_work_across_words_is_one_eval_per_unwitnessed_rule() {
        let (ctx, cands, [title, code, lev]) = wide_fixture();
        let budget = EvalBudget::unlimited();
        for threads in [1, 4] {
            let exec = Executor::with_threads(threads);
            let mut func = MatchingFunction::new();
            func.add_rule(Rule::new().pred(code, CmpOp::Ge, 1.0))
                .unwrap();
            func.add_rule(Rule::new().pred(title, CmpOp::Ge, 0.5))
                .unwrap();
            func.add_rule(
                Rule::new()
                    .pred(title, CmpOp::Ge, 0.3)
                    .pred(lev, CmpOp::Ge, 0.5),
            )
            .unwrap();
            let mut state = MatchState::new(cands.len(), ctx.registry().len());
            run_full(&func, &ctx, &cands, &mut state, false, &exec);
            // A catch-all rule second takes every pair the first leaves, and
            // a rule inserted right after it has no witness for those pairs.
            let insert = |func: &mut _, state: &mut _, rule, at| {
                insert_rule(func, state, &ctx, &cands, rule, at, false, &exec, &budget)
                    .unwrap()
                    .0
            };
            let all = insert(
                &mut func,
                &mut state,
                Rule::new().pred(title, CmpOp::Ge, 0.0),
                1,
            );
            insert(
                &mut func,
                &mut state,
                Rule::new().pred(lev, CmpOp::Ge, 0.99),
                2,
            );

            let before = state.clone();
            let affected = rule_pairs(&before, all);
            assert!(
                affected.contains(&63) && affected.contains(&64),
                "{affected:?}"
            );
            let report = remove_rule(
                &mut func, &mut state, &ctx, &cands, all, false, &exec, &budget,
            )
            .unwrap();
            let expected = unwitnessed_walk(&func, &before, &state, &affected);
            assert!(
                expected > affected.len() as u64,
                "some pair walks two rules"
            );
            assert_eq!(report.stats.rule_evals, expected, "{threads} threads");
            assert_eq!(report.pairs_examined, affected.len());
            let mut fresh = MatchState::new(cands.len(), ctx.registry().len());
            run_full(&func, &ctx, &cands, &mut fresh, false, &Executor::serial());
            assert_eq!(state.verdicts(), fresh.verdicts(), "{threads} threads");
        }
    }

    #[test]
    fn ballooned_undo_across_words_costs_one_rule_eval_per_leaving_pair() {
        // r = title >= 0 AND code >= 1 fires for the 36 code-equal pairs;
        // dropping its code predicate balloons M(r) to all 144, and
        // re-adding it (the undo) sends the other 108 back out. Every later
        // rule needs equal codes too.
        let (ctx, cands, [title, code, lev]) = wide_fixture();
        let budget = EvalBudget::unlimited();
        for threads in [1, 4] {
            let exec = Executor::with_threads(threads);
            let equal = Predicate::at_least(code, 1.0);
            let mut func = MatchingFunction::new();
            let r = func
                .add_rule(Rule::with([Predicate::at_least(title, 0.0), equal]))
                .unwrap();
            func.add_rule(
                Rule::new()
                    .pred(title, CmpOp::Ge, 0.5)
                    .pred(code, CmpOp::Ge, 1.0),
            )
            .unwrap();
            func.add_rule(Rule::new().pred(lev, CmpOp::Ge, 0.99))
                .unwrap();
            let mut state = MatchState::new(cands.len(), ctx.registry().len());
            run_full(&func, &ctx, &cands, &mut state, false, &exec);
            let matched = rule_pairs(&state, r);

            let code_p = func.rule(r).unwrap().preds[1].id;
            remove_predicate(
                &mut func, &mut state, &ctx, &cands, code_p, false, &exec, &budget,
            )
            .unwrap();
            let grown = rule_pairs(&state, r);
            assert_eq!(grown.len(), cands.len(), "M(r) ballooned");

            let (_, report) = add_predicate(
                &mut func, &mut state, &ctx, &cands, r, equal, false, &exec, &budget,
            )
            .unwrap();
            assert_eq!(rule_pairs(&state, r), matched);
            let left: Vec<usize> = grown
                .into_iter()
                .filter(|i| matched.binary_search(i).is_err())
                .collect();
            assert_eq!(left.len(), 108);
            assert!(left.contains(&63) && left.contains(&64));
            assert_eq!(
                report.stats.rule_evals,
                left.len() as u64,
                "{threads} threads"
            );
            assert_eq!(report.newly_unmatched, left);
        }
    }

    #[test]
    fn relax_with_matched_pairs_in_up_is_safe() {
        // Regression for the invariant discussion: a matched pair sits in
        // U(p) of another rule; relaxing p must not corrupt later edits.
        let mut fix = fixture();
        // Rule 2: title >= 0.5 (fires for nothing new beyond rule 1 at .99
        // except overlap pairs) — add and settle.
        let rule = Rule::new().pred(fix.f_title, CmpOp::Ge, 0.5);
        add_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rule,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        // Tighten rule 1 to impossible, relax it back, then remove rule 2;
        // after each step incremental state must match a scratch run.
        let pid = fix.func.rules()[0].preds[0].id;
        set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            1.01,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_consistent(&fix);
        set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            0.9,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_consistent(&fix);
        let r2 = fix.func.rules()[1].id;
        remove_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            r2,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert_consistent(&fix);
    }

    #[test]
    fn pre_cancelled_edit_is_fully_partial_and_resumable() {
        let mut fix = fixture();
        let token = crate::budget::CancelToken::default();
        token.cancel();
        let budget = EvalBudget::unlimited().with_token(token.clone());

        let rule = Rule::new().pred(fix.f_model, CmpOp::Ge, 1.0);
        let (rid, report) = add_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            rule,
            false,
            &Executor::serial(),
            &budget,
        )
        .unwrap();

        // Nothing ran: the rule is in the function, the state is untouched,
        // and every affected pair is reported back for the resume.
        assert_eq!(report.pairs_examined, 0);
        assert!(report.newly_matched.is_empty());
        assert_eq!(fix.state.n_matches(), 2);
        let Completion::Partial { remaining, reason } = &report.completion else {
            panic!("expected a partial completion");
        };
        assert_eq!(*reason, crate::budget::StopReason::Cancelled);
        assert_eq!(remaining.len(), 14, "all unmatched pairs still pending");

        // Resuming with a fresh budget finishes the edit exactly.
        token.clear();
        let report = resume_delta(
            &fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            &PendingDelta::AddRule { rid },
            remaining,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        assert!(report.completion.is_complete());
        assert_eq!(report.newly_matched, vec![10]);
        assert_eq!(report.pairs_examined, 14);
        assert_consistent(&fix);
    }

    #[test]
    fn partial_report_remaining_plus_examined_covers_affected() {
        // A deadline that expires immediately: the driver stops on its
        // first check, so remaining + examined always equals the affected
        // set regardless of where it trips.
        let mut fix = fixture();
        let budget = EvalBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let pid = fix.func.rules()[0].preds[0].id;
        let (report, kind) = set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            pid,
            1.01,
            false,
            &Executor::serial(),
            &budget,
        )
        .unwrap();
        assert!(matches!(kind, Some(PendingDelta::Restrict { .. })));
        let Completion::Partial { remaining, .. } = &report.completion else {
            panic!("expected a partial completion");
        };
        assert_eq!(report.pairs_examined + remaining.len(), 2, "M(r) covered");
    }

    /// Edits a 16-pair state against the first 3 of its candidate pairs.
    fn edit_mismatched(edit: impl FnOnce(&mut Fix, &CandidateSet)) {
        let mut fix = fixture();
        let cands = fix.cands.truncated(3);
        edit(&mut fix, &cands);
    }

    #[test]
    #[should_panic(expected = "same pairs")]
    fn remove_rule_on_mismatched_state_panics() {
        edit_mismatched(|fix, cands| {
            let rid = fix.func.rules()[0].id;
            let _ = remove_rule(
                &mut fix.func,
                &mut fix.state,
                &fix.ctx,
                cands,
                rid,
                false,
                &Executor::serial(),
                &EvalBudget::unlimited(),
            );
        });
    }

    #[test]
    #[should_panic(expected = "same pairs")]
    fn add_rule_on_mismatched_state_panics() {
        edit_mismatched(|fix, cands| {
            let rule = Rule::new().pred(fix.f_model, CmpOp::Ge, 1.0);
            let _ = add_rule(
                &mut fix.func,
                &mut fix.state,
                &fix.ctx,
                cands,
                rule,
                false,
                &Executor::serial(),
                &EvalBudget::unlimited(),
            );
        });
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut fix = fixture();
        assert!(remove_rule(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            RuleId(999),
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .is_err());
        assert!(set_threshold(
            &mut fix.func,
            &mut fix.state,
            &fix.ctx,
            &fix.cands,
            PredId(999),
            0.5,
            false,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .is_err());
    }
}
