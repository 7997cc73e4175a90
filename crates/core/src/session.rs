//! The interactive debugging session: the paper's Figure 1 loop as an API.
//!
//! A [`DebugSession`] owns the evaluation context, the matching function,
//! and the materialized [`MatchState`]; every edit method applies the
//! corresponding incremental algorithm of §6 and returns a timed
//! [`ChangeReport`], so a front-end (or an experiment harness) can show
//! the analyst exactly what changed and how fast.

use crate::budget::{CancelToken, Completion, EvalBudget};
use crate::context::EvalContext;
use crate::engine::EvalStats;
use crate::executor::Executor;
use crate::explain::{explain_with_costs, Explanation};
use crate::feature::FeatureId;
use crate::function::{EditError, MatchingFunction};
use crate::incremental::{self, ChangeReport, PendingDelta, WorkerStats};
use crate::ordering::{self, OrderingAlgo};
use crate::parse::{self, ParseError, ParseErrorKind};
use crate::predicate::{PredId, Predicate};
use crate::quality::QualityReport;
use crate::rule::{Rule, RuleId};
use crate::state::{MatchState, MemoryReport};
use crate::stats::{FunctionStats, DEFAULT_SAMPLE_FRACTION};
use em_similarity::Measure;
use em_types::{CandidateSet, LabeledPair, Table};
use std::sync::Arc;
use std::time::Duration;

/// Session tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Apply the §5.4.3 check-cache-first predicate re-ordering at runtime.
    pub check_cache_first: bool,
    /// Fraction of candidate pairs sampled for statistics (§5.5; the paper
    /// uses 1 %).
    pub sample_fraction: f64,
    /// Seed for sampling and random orders — sessions are reproducible.
    pub seed: u64,
    /// Worker threads for matching runs and incremental edits: `1` =
    /// serial, `0` = one per available CPU, `n` = a pool of `n`. Results
    /// are identical for every setting; only latency changes.
    pub n_threads: usize,
    /// Wall-clock budget per edit. An edit that exceeds it returns a
    /// partial [`ChangeReport`]; call [`DebugSession::resume`] to finish
    /// it. `None` (the default) means edits run to completion.
    pub deadline: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            check_cache_first: true,
            sample_fraction: DEFAULT_SAMPLE_FRACTION,
            seed: 0x5eed,
            n_threads: 1,
            deadline: None,
        }
    }
}

/// One entry of the session's edit history.
#[derive(Debug, Clone)]
pub struct EditRecord {
    /// Human-readable description of the edit.
    pub description: String,
    /// Verdicts flipped by the edit.
    pub n_changed: usize,
    /// Pairs the edit re-examined.
    pub pairs_examined: usize,
    /// Per-worker work counters for the edit's delta evaluation (one entry
    /// per shard; a single entry under serial execution).
    pub worker_stats: Vec<WorkerStats>,
    /// Wall-clock latency the analyst experienced.
    pub elapsed: Duration,
}

/// The inverse of one applied edit, for [`DebugSession::undo`].
///
/// Re-adding a removed rule or predicate necessarily mints a *new* stable
/// id; older undo entries referencing the removed id are remapped when
/// that happens, preserving referential integrity of the whole stack.
///
/// Serializable so the durable session store can snapshot the undo stack:
/// a recovered session can still undo edits made before the crash.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum UndoOp {
    /// Inverse of "add rule".
    RemoveRule(RuleId),
    /// Inverse of "remove rule": re-insert the predicates at the old
    /// evaluation position. `old_pred_ids` lines up with `preds` so older
    /// stack entries referencing those predicates can be remapped.
    ReAddRule {
        old_id: RuleId,
        preds: Vec<Predicate>,
        old_pred_ids: Vec<PredId>,
        position: usize,
    },
    /// Inverse of "add predicate".
    RemovePredicate(PredId),
    /// Inverse of "remove predicate".
    ReAddPredicate {
        old_id: PredId,
        rule: RuleId,
        pred: Predicate,
        position: usize,
    },
    /// Inverse of "set threshold".
    RestoreThreshold { pred: PredId, threshold: f64 },
}

/// A partially-applied edit: the delta kind plus the pairs it has not yet
/// re-examined. Held by the session until [`DebugSession::resume`] finishes
/// it (or [`DebugSession::run_full`] supersedes it).
#[derive(Debug, Clone)]
pub struct PendingWork {
    kind: PendingDelta,
    remaining: Vec<usize>,
    description: String,
}

impl PendingWork {
    /// Pairs the edit still has to re-examine.
    pub fn remaining(&self) -> &[usize] {
        &self.remaining
    }

    /// Human-readable description of the interrupted edit.
    pub fn description(&self) -> &str {
        &self.description
    }
}

/// An interactive rule-debugging session over two tables.
pub struct DebugSession {
    ctx: EvalContext,
    cands: CandidateSet,
    func: MatchingFunction,
    state: MatchState,
    config: SessionConfig,
    exec: Executor,
    history: Vec<EditRecord>,
    undo_stack: Vec<UndoOp>,
    cancel: CancelToken,
    /// Pairs whose evaluation panicked, sorted ascending. Their verdicts
    /// are whatever the last successful evaluation left behind.
    quarantined: Vec<usize>,
    pending: Option<PendingWork>,
    /// Most recent sampled statistics ([`DebugSession::refresh_stats`] /
    /// [`DebugSession::optimize`]); lets `explain` annotate predicates
    /// with per-pair feature costs without re-sampling.
    last_stats: Option<FunctionStats>,
    /// Similarity lower bounds the blocking step guarantees for every
    /// candidate pair (from `Blocker::guarantee()`). Session-local
    /// advisory metadata: consumed by [`DebugSession::analyze`], not
    /// persisted with snapshots (the blocker is not part of the session).
    block_guarantees: Vec<em_similarity::JoinGuarantee>,
}

impl DebugSession {
    /// Starts a session with an empty matching function.
    pub fn new(table_a: Table, table_b: Table, cands: CandidateSet, config: SessionConfig) -> Self {
        Self::with_context(
            EvalContext::new(Arc::new(table_a), Arc::new(table_b)),
            cands,
            config,
        )
    }

    /// Starts a session from a pre-built context (e.g. with features
    /// already interned).
    pub fn with_context(ctx: EvalContext, cands: CandidateSet, config: SessionConfig) -> Self {
        let state = MatchState::new(cands.len(), ctx.registry().len());
        let exec = Executor::with_threads(config.n_threads);
        DebugSession {
            ctx,
            cands,
            func: MatchingFunction::new(),
            state,
            config,
            exec,
            history: Vec::new(),
            undo_stack: Vec::new(),
            cancel: CancelToken::default(),
            quarantined: Vec::new(),
            pending: None,
            last_stats: None,
            block_guarantees: Vec::new(),
        }
    }

    /// Declares the similarity lower bounds the blocking step guarantees
    /// for every candidate pair (see `Blocker::guarantee()` in
    /// `em-blocking`). [`DebugSession::analyze`] uses them to flag
    /// predicates that are vacuously true on the candidate set.
    pub fn set_block_guarantees(
        &mut self,
        guarantees: impl Into<Vec<em_similarity::JoinGuarantee>>,
    ) {
        self.block_guarantees = guarantees.into();
    }

    /// The declared blocking guarantees.
    pub fn block_guarantees(&self) -> &[em_similarity::JoinGuarantee] {
        &self.block_guarantees
    }

    /// Statically analyzes the current matching function: unsatisfiable,
    /// duplicate, and subsumed rules; redundant, tautological,
    /// out-of-range, and blocking-vacuous predicates — each with a fix-it
    /// in the edit grammar where one exists. Read-only and cheap (no
    /// candidate evaluation): O(rules²) feature-mask tests, with interval
    /// tests only where the masks allow; see [`crate::analyze`]. This is
    /// the whole-program pass behind `lint`. An edit's advisories come
    /// from the edited rule's two versions instead
    /// ([`crate::analyze::introduced`]), not from two of these passes.
    pub fn analyze(&self) -> Vec<crate::analyze::Diagnostic> {
        crate::analyze::analyze(&self.func, &self.ctx, &self.block_guarantees)
    }

    /// A clone of the session's cancel token. Cancelling it (e.g. from a
    /// Ctrl-C handler) stops the edit in flight at the next budget check,
    /// yielding a partial report.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Changes the per-edit wall-clock budget (see
    /// [`SessionConfig::deadline`]).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.config.deadline = deadline;
    }

    /// Pairs quarantined by panic isolation, sorted ascending.
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// The partially-applied edit awaiting [`DebugSession::resume`], if any.
    pub fn pending_resume(&self) -> Option<&PendingWork> {
        self.pending.as_ref()
    }

    /// Errors out while a partial edit awaits [`DebugSession::resume`]:
    /// interleaving another edit would evaluate against half-updated state.
    fn ensure_idle(&self) -> Result<(), EditError> {
        if self.pending.is_some() {
            Err(EditError::PendingResume)
        } else {
            Ok(())
        }
    }

    /// The budget for an operation starting now: the configured deadline
    /// (anchored at this call) plus the session's cancel token, cleared of
    /// any cancellation aimed at a previous operation.
    fn begin_budget(&self) -> EvalBudget {
        self.cancel.clear();
        let mut budget = EvalBudget::unlimited().with_token(self.cancel.clone());
        if let Some(d) = self.config.deadline {
            budget = budget.with_deadline(d);
        }
        budget
    }

    fn merge_quarantine(&mut self, new: &[usize]) {
        if new.is_empty() {
            return;
        }
        self.quarantined.extend_from_slice(new);
        self.quarantined.sort_unstable();
        self.quarantined.dedup();
    }

    /// Folds an edit's report into session state: quarantined pairs are
    /// recorded, a partial completion parks the edit for
    /// [`DebugSession::resume`], and the edit is logged.
    fn absorb(&mut self, description: String, report: &ChangeReport, kind: Option<PendingDelta>) {
        self.merge_quarantine(&report.quarantined);
        if let (Completion::Partial { remaining, .. }, Some(kind)) = (&report.completion, kind) {
            self.pending = Some(PendingWork {
                kind,
                remaining: remaining.clone(),
                description: description.clone(),
            });
        }
        self.log(description, report);
    }

    /// Finishes (or further advances) a partial edit over its remaining
    /// pairs, under a fresh budget. Returns `None` when nothing is pending;
    /// the report may again be partial if the budget trips again.
    pub fn resume(&mut self) -> Result<Option<ChangeReport>, EditError> {
        let Some(work) = self.pending.take() else {
            return Ok(None);
        };
        let budget = self.begin_budget();
        let report = incremental::resume_delta(
            &self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            &work.kind,
            &work.remaining,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )?;
        self.merge_quarantine(&report.quarantined);
        if let Completion::Partial { remaining, .. } = &report.completion {
            self.pending = Some(PendingWork {
                kind: work.kind,
                remaining: remaining.clone(),
                description: work.description.clone(),
            });
        }
        self.log(format!("resume: {}", work.description), &report);
        Ok(Some(report))
    }

    /// The executor running this session's matching work (shared worker
    /// pool across all edits).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Interns a feature by attribute names; `None` if either attribute is
    /// unknown.
    pub fn feature(&mut self, measure: Measure, attr_a: &str, attr_b: &str) -> Option<FeatureId> {
        let id = self.ctx.feature(measure, attr_a, attr_b)?;
        self.state.memo.ensure_features(self.ctx.registry().len());
        Some(id)
    }

    /// Adds a rule and incrementally updates the match state (Alg. 10).
    pub fn add_rule(&mut self, rule: Rule) -> Result<(RuleId, ChangeReport), EditError> {
        self.ensure_idle()?;
        let end = self.func.n_rules();
        let (rid, report) = self.delta_insert_rule(rule, end)?;
        self.undo_stack.push(UndoOp::RemoveRule(rid));
        self.absorb(
            format!("add rule {rid}"),
            &report,
            Some(PendingDelta::AddRule { rid }),
        );
        Ok((rid, report))
    }

    /// Parses a rule from text (see [`crate::parse`]) and adds it.
    pub fn add_rule_text(&mut self, text: &str) -> Result<(RuleId, ChangeReport), SessionError> {
        let rule = self.parse_rule_text(text)?;
        self.add_rule(rule).map_err(SessionError::Edit)
    }

    /// Parses a rule written in the rule language *without* applying it,
    /// interning any new features it references (and growing the memo).
    /// The durable store uses this split so it can journal the parsed edit
    /// before the in-memory delta is applied.
    pub fn parse_rule_text(&mut self, text: &str) -> Result<Rule, SessionError> {
        let rule = parse::parse_rule(text, &mut self.ctx).map_err(SessionError::Parse)?;
        self.state.memo.ensure_features(self.ctx.registry().len());
        Ok(rule)
    }

    /// Parses a single predicate written in the rule language (e.g.
    /// `"exact(brand, brand) >= 1"`), interning its feature.
    pub fn parse_predicate(&mut self, text: &str) -> Result<Predicate, SessionError> {
        let rule = self.parse_rule_text(text)?;
        match rule.predicates() {
            [pred] => Ok(*pred),
            other => Err(SessionError::Parse(ParseError::new(
                ParseErrorKind::Malformed(format!(
                    "expected exactly one predicate, got {}",
                    other.len()
                )),
            ))),
        }
    }

    /// Removes a rule (Alg. 9).
    pub fn remove_rule(&mut self, rid: RuleId) -> Result<ChangeReport, EditError> {
        self.ensure_idle()?;
        let rule = self
            .func
            .rule(rid)
            .cloned()
            .ok_or(EditError::UnknownRule(rid))?;
        let position = self
            .func
            .rule_position(rid)
            .ok_or(EditError::UnknownRule(rid))?;
        let report = self.delta_remove_rule(rid)?;
        self.undo_stack.push(UndoOp::ReAddRule {
            old_id: rid,
            preds: rule.preds.iter().map(|bp| bp.pred).collect(),
            old_pred_ids: rule.preds.iter().map(|bp| bp.id).collect(),
            position,
        });
        self.absorb(
            format!("remove rule {rid}"),
            &report,
            Some(PendingDelta::Cascade),
        );
        Ok(report)
    }

    /// Adds a predicate to a rule (Alg. 7).
    pub fn add_predicate(
        &mut self,
        rid: RuleId,
        pred: Predicate,
    ) -> Result<(PredId, ChangeReport), EditError> {
        self.ensure_idle()?;
        let (pid, report) = self.delta_add_predicate(rid, pred)?;
        self.undo_stack.push(UndoOp::RemovePredicate(pid));
        self.absorb(
            format!("add predicate {pid} to {rid}"),
            &report,
            Some(PendingDelta::Restrict { rid, pid }),
        );
        Ok((pid, report))
    }

    /// Removes a predicate (Alg. 8).
    pub fn remove_predicate(&mut self, pid: PredId) -> Result<ChangeReport, EditError> {
        self.ensure_idle()?;
        let (rule, pred) = self
            .func
            .find_predicate(pid)
            .map(|(rid, bp)| (rid, bp.pred))
            .ok_or(EditError::UnknownPredicate(pid))?;
        let position = self
            .func
            .rule(rule)
            .and_then(|r| r.position_of(pid))
            .ok_or(EditError::UnknownPredicate(pid))?;
        let report = self.delta_remove_predicate(pid)?;
        self.undo_stack.push(UndoOp::ReAddPredicate {
            old_id: pid,
            rule,
            pred,
            position,
        });
        self.absorb(
            format!("remove predicate {pid}"),
            &report,
            Some(PendingDelta::Loosen {
                rid: rule,
                pid,
                re_eval: None,
            }),
        );
        Ok(report)
    }

    /// Tightens or relaxes a predicate threshold (Alg. 7 / Alg. 8).
    pub fn set_threshold(
        &mut self,
        pid: PredId,
        threshold: f64,
    ) -> Result<ChangeReport, EditError> {
        self.ensure_idle()?;
        let old = self
            .func
            .find_predicate(pid)
            .map(|(_, bp)| bp.pred.threshold)
            .ok_or(EditError::UnknownPredicate(pid))?;
        let (report, kind) = self.delta_set_threshold(pid, threshold)?;
        self.undo_stack.push(UndoOp::RestoreThreshold {
            pred: pid,
            threshold: old,
        });
        self.absorb(format!("set {pid} threshold to {threshold}"), &report, kind);
        Ok(report)
    }

    /// Reverts the most recent edit (add/remove rule, add/remove
    /// predicate, threshold change), applied incrementally like any other
    /// edit. Returns `None` when there is nothing to undo.
    ///
    /// Re-adding a removed rule or predicate mints fresh stable ids; older
    /// undo entries are remapped so deeper undo chains stay valid.
    pub fn undo(&mut self) -> Result<Option<ChangeReport>, EditError> {
        self.ensure_idle()?;
        let Some(op) = self.undo_stack.pop() else {
            return Ok(None);
        };
        let (description, report, kind) = match op {
            UndoOp::RemoveRule(rid) => {
                let report = self.delta_remove_rule(rid)?;
                let kind = Some(PendingDelta::Cascade);
                (format!("undo: remove rule {rid}"), report, kind)
            }
            UndoOp::ReAddRule {
                old_id,
                preds,
                old_pred_ids,
                position,
            } => {
                let (new_id, report) = self.delta_insert_rule(Rule::with(preds), position)?;
                // Remap older entries to the fresh ids.
                self.remap_rule(old_id, new_id);
                let new_pred_ids: Vec<PredId> = self
                    .func
                    .rule(new_id)
                    .ok_or(EditError::UnknownRule(new_id))?
                    .preds
                    .iter()
                    .map(|bp| bp.id)
                    .collect();
                for (old, new) in old_pred_ids.into_iter().zip(new_pred_ids) {
                    self.remap_pred(old, new);
                }
                let kind = Some(PendingDelta::AddRule { rid: new_id });
                (format!("undo: re-add rule as {new_id}"), report, kind)
            }
            UndoOp::RemovePredicate(pid) => {
                let rid = self
                    .func
                    .find_predicate(pid)
                    .map(|(r, _)| r)
                    .ok_or(EditError::UnknownPredicate(pid))?;
                let report = self.delta_remove_predicate(pid)?;
                let kind = Some(PendingDelta::Loosen {
                    rid,
                    pid,
                    re_eval: None,
                });
                (format!("undo: remove predicate {pid}"), report, kind)
            }
            UndoOp::ReAddPredicate {
                old_id,
                rule,
                pred,
                position,
            } => {
                let (new_id, report) = self.delta_add_predicate(rule, pred)?;
                let mut order: Vec<PredId> = self
                    .func
                    .rule(rule)
                    .ok_or(EditError::UnknownRule(rule))?
                    .preds
                    .iter()
                    .map(|bp| bp.id)
                    .filter(|&p| p != new_id)
                    .collect();
                order.insert(position.min(order.len()), new_id);
                self.func.set_predicate_order(rule, &order)?;
                self.remap_pred(old_id, new_id);
                let kind = Some(PendingDelta::Restrict {
                    rid: rule,
                    pid: new_id,
                });
                (format!("undo: re-add predicate as {new_id}"), report, kind)
            }
            UndoOp::RestoreThreshold { pred, threshold } => {
                let (report, kind) = self.delta_set_threshold(pred, threshold)?;
                (format!("undo: restore {pred} to {threshold}"), report, kind)
            }
        };
        self.absorb(description, &report, kind);
        Ok(Some(report))
    }

    // ---- the incremental deltas (Algorithms 7–10) --------------------------
    //
    // One call per algorithm, shared by the forward edits and `undo`. Each
    // runs under a fresh budget; history, the undo stack, and parking are
    // the caller's.

    fn delta_insert_rule(
        &mut self,
        rule: Rule,
        position: usize,
    ) -> Result<(RuleId, ChangeReport), EditError> {
        let budget = self.begin_budget();
        incremental::insert_rule(
            &mut self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            rule,
            position,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )
    }

    fn delta_remove_rule(&mut self, rid: RuleId) -> Result<ChangeReport, EditError> {
        let budget = self.begin_budget();
        incremental::remove_rule(
            &mut self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            rid,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )
    }

    fn delta_add_predicate(
        &mut self,
        rid: RuleId,
        pred: Predicate,
    ) -> Result<(PredId, ChangeReport), EditError> {
        let budget = self.begin_budget();
        incremental::add_predicate(
            &mut self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            rid,
            pred,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )
    }

    fn delta_remove_predicate(&mut self, pid: PredId) -> Result<ChangeReport, EditError> {
        let budget = self.begin_budget();
        incremental::remove_predicate(
            &mut self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            pid,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )
    }

    fn delta_set_threshold(
        &mut self,
        pid: PredId,
        threshold: f64,
    ) -> Result<(ChangeReport, Option<PendingDelta>), EditError> {
        let budget = self.begin_budget();
        incremental::set_threshold(
            &mut self.func,
            &mut self.state,
            &self.ctx,
            &self.cands,
            pid,
            threshold,
            self.config.check_cache_first,
            &self.exec,
            &budget,
        )
    }

    /// Number of edits that can currently be undone.
    pub fn undo_depth(&self) -> usize {
        self.undo_stack.len()
    }

    /// Logically simplifies the rule set (see [`crate::simplify`]): applies
    /// the analyzer's codomain-free fixes, dropping unsatisfiable rules,
    /// redundant predicates, and duplicate or subsumed rules — none of
    /// which can change any verdict — then re-runs matching so the
    /// materialized state reflects the smaller function (cheap: the memo
    /// is warm).
    ///
    /// Clears the undo stack: removed ids no longer exist to restore.
    pub fn simplify(&mut self) -> Result<crate::simplify::SimplifyReport, EditError> {
        self.ensure_idle()?;
        let report = crate::simplify::simplify(&mut self.func);
        if !report.is_noop() {
            self.undo_stack.clear();
            let verdicts_before = self.state.n_matches();
            self.run_full();
            debug_assert_eq!(
                self.state.n_matches(),
                verdicts_before,
                "simplification is semantics-preserving"
            );
            self.history.push(EditRecord {
                description: format!(
                    "simplify: -{} predicates, -{} unsat rules, -{} subsumed rules",
                    report.dominated_predicates.len(),
                    report.unsatisfiable_rules.len(),
                    report.subsumed_rules.len()
                ),
                n_changed: 0,
                pairs_examined: 0,
                worker_stats: Vec::new(),
                elapsed: Duration::ZERO,
            });
        }
        Ok(report)
    }

    fn remap_rule(&mut self, old: RuleId, new: RuleId) {
        for op in &mut self.undo_stack {
            match op {
                UndoOp::RemoveRule(r) if *r == old => *r = new,
                UndoOp::ReAddPredicate { rule, .. } if *rule == old => *rule = new,
                _ => {}
            }
        }
    }

    fn remap_pred(&mut self, old: PredId, new: PredId) {
        for op in &mut self.undo_stack {
            match op {
                UndoOp::RemovePredicate(p) if *p == old => *p = new,
                UndoOp::RestoreThreshold { pred, .. } if *pred == old => *pred = new,
                _ => {}
            }
        }
    }

    /// Re-runs matching from scratch (keeping the memo — values stay valid
    /// across edits). Used after reordering, for validation, and as the
    /// recovery path for a partial edit the analyst abandons: it always
    /// runs to completion, discards any pending resume, and rebuilds the
    /// quarantine list from what this run observed.
    pub fn run_full(&mut self) -> EvalStats {
        let t0 = std::time::Instant::now();
        let outcome = crate::state::run_full(
            &self.func,
            &self.ctx,
            &self.cands,
            &mut self.state,
            self.config.check_cache_first,
            &self.exec,
        );
        self.pending = None;
        self.quarantined = outcome.quarantined;
        self.quarantined.sort_unstable();
        self.quarantined.dedup();
        crate::obs::core_metrics().full_runs.inc();
        crate::obs::record_eval(&outcome.stats, self.quarantined.len(), false, t0.elapsed());
        outcome.stats
    }

    /// Estimates feature costs and predicate selectivities on a sample
    /// (§5.5).
    pub fn estimate_stats(&self) -> FunctionStats {
        FunctionStats::estimate(
            &self.func,
            &self.ctx,
            &self.cands,
            self.config.sample_fraction,
            self.config.seed,
        )
    }

    /// Like [`DebugSession::estimate_stats`], additionally caching the
    /// result so later [`DebugSession::explain`] calls can annotate
    /// predicates with per-pair feature costs for free.
    pub fn refresh_stats(&mut self) -> FunctionStats {
        let stats = self.estimate_stats();
        self.last_stats = Some(stats.clone());
        stats
    }

    /// The most recently sampled statistics, if any pass has run.
    pub fn cached_stats(&self) -> Option<&FunctionStats> {
        self.last_stats.as_ref()
    }

    /// Applies the full §5.5 ordering optimization (Lemma 3 predicate
    /// orders + the chosen rule-ordering algorithm), then re-runs matching
    /// so the materialized state reflects the new order. Returns the
    /// statistics of the re-run (dominated by memo lookups, since values
    /// persist).
    pub fn optimize(&mut self, algo: OrderingAlgo) -> Result<EvalStats, EditError> {
        self.ensure_idle()?;
        let stats = self.refresh_stats();
        ordering::optimize(&mut self.func, &stats, algo);
        Ok(self.run_full())
    }

    /// The current matching function.
    pub fn function(&self) -> &MatchingFunction {
        &self.func
    }

    /// The evaluation context.
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// The candidate pairs.
    pub fn candidates(&self) -> &CandidateSet {
        &self.cands
    }

    /// The materialized match state.
    pub fn state(&self) -> &MatchState {
        &self.state
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Pair indices currently matched.
    pub fn matches(&self) -> Vec<usize> {
        self.state.matches().collect()
    }

    /// Number of matched pairs.
    pub fn n_matches(&self) -> usize {
        self.state.n_matches()
    }

    /// Full evaluation trace of one pair — the analyst's "why?" button.
    /// Flags pairs whose evaluation was quarantined by panic isolation, so
    /// the analyst knows the trace was recomputed for a pair matching
    /// skipped.
    pub fn explain(&self, pair_index: usize) -> Explanation {
        // Attach per-pair feature costs whenever a stats pass has run
        // (`stats` command or `optimize`), so the analyst sees what each
        // predicate costs alongside why it passed or failed.
        let mut e = explain_with_costs(
            &self.func,
            &self.ctx,
            self.cands.pair(pair_index),
            self.last_stats.as_ref(),
        );
        e.quarantined = self.quarantined.binary_search(&pair_index).is_ok();
        e
    }

    /// The `k` unmatched pairs with the highest value of feature `f` — the
    /// analyst's "what am I just missing?" view. Prefers memoized values
    /// (free) and computes the feature only for pairs where matching never
    /// needed it.
    pub fn near_misses(&mut self, f: FeatureId, k: usize) -> Vec<(usize, f64)> {
        use crate::memo::Memo;
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for i in 0..self.cands.len() {
            if self.state.verdict(i) {
                continue;
            }
            let v = match self.state.memo.get(i, f) {
                Some(v) => v,
                None => {
                    // A pair whose feature panics (it would be quarantined
                    // during matching) is simply left out of the ranking.
                    let Ok(v) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.ctx.compute(f, self.cands.pair(i))
                    })) else {
                        continue;
                    };
                    self.state.memo.put(i, f, v);
                    v
                }
            };
            scored.push((i, v));
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(k);
        scored
    }

    /// Precision/recall of the current verdicts against a labeled sample.
    pub fn quality(&self, labeled: &[LabeledPair]) -> QualityReport {
        QualityReport::evaluate(self.state.verdicts(), &self.cands, labeled)
    }

    /// Memory used by the materialization (§7.4).
    pub fn memory_report(&self) -> MemoryReport {
        self.state.memory_report()
    }

    /// The matching function rendered as rule text.
    pub fn function_text(&self) -> String {
        parse::function_to_text(&self.func, &self.ctx)
    }

    /// The edit history (most recent last).
    pub fn history(&self) -> &[EditRecord] {
        &self.history
    }

    /// Installs a fault plan on the evaluation context: subsequent feature
    /// computations consult it first. Test-harness only.
    #[cfg(feature = "fault-inject")]
    pub fn inject_faults(&mut self, plan: Arc<crate::fault::FaultPlan>) {
        self.ctx.set_fault_plan(plan);
    }

    fn log(&mut self, description: String, report: &ChangeReport) {
        crate::obs::core_metrics().edits.inc();
        crate::obs::record_eval(
            &report.stats,
            report.quarantined.len(),
            matches!(report.completion, Completion::Partial { .. }),
            report.elapsed,
        );
        self.history.push(EditRecord {
            description,
            n_changed: report.n_changed(),
            pairs_examined: report.pairs_examined,
            worker_stats: report.worker_stats.clone(),
            elapsed: report.elapsed,
        });
    }

    // ---- durable-store hooks (crate::persist) -----------------------------

    /// Interns a feature definition by its attribute ids, growing the memo.
    /// Idempotent: re-interning an existing definition returns its id.
    pub(crate) fn intern_def(&mut self, def: crate::feature::FeatureDef) -> FeatureId {
        let id = self.ctx.feature_by_ids(def.measure, def.attr_a, def.attr_b);
        self.state.memo.ensure_features(self.ctx.registry().len());
        id
    }

    /// [`DebugSession::intern_def`] for a definition from outside the
    /// session (a snapshot or journal), rejecting attributes beyond this
    /// session's schemas before they can reach the interner.
    pub(crate) fn intern_checked(
        &mut self,
        def: crate::feature::FeatureDef,
    ) -> Result<FeatureId, crate::persist::PersistError> {
        if def.attr_a.index() >= self.ctx.table_a().schema().len()
            || def.attr_b.index() >= self.ctx.table_b().schema().len()
        {
            return Err(crate::persist::PersistError::InvalidState(
                "store references attributes outside this session's schemas".into(),
            ));
        }
        Ok(self.intern_def(def))
    }

    /// The undo stack, oldest first, for snapshotting.
    pub(crate) fn undo_ops(&self) -> &[UndoOp] {
        &self.undo_stack
    }

    /// Installs recovered state wholesale — function, materialization,
    /// history, undo stack, and quarantine — without re-running matching.
    /// The persist layer guarantees the parts are mutually consistent (they
    /// were captured together) and sized for this session's candidates.
    pub(crate) fn set_restored(
        &mut self,
        func: MatchingFunction,
        state: MatchState,
        history: Vec<EditRecord>,
        undo_stack: Vec<UndoOp>,
        quarantined: Vec<usize>,
    ) {
        self.func = func;
        self.state = state;
        self.state.memo.ensure_features(self.ctx.registry().len());
        self.history = history;
        self.undo_stack = undo_stack;
        self.quarantined = quarantined;
        self.quarantined.sort_unstable();
        self.quarantined.dedup();
        self.pending = None;
    }
}

/// A serializable snapshot of a session's matching function, including the
/// feature definitions it references — everything needed to restore the
/// analyst's rule set in a fresh process over the same (or schema-
/// compatible) tables.
///
/// The memo and bitmaps are deliberately *not* serialized: they are caches,
/// rebuilt by one matching run after [`DebugSession::restore`]. (The binary
/// store in [`crate::persist`] is the durable counterpart that *does*
/// carry them.) Quarantined pairs are carried: a restored session must not
/// silently forget which pairs were poisoned.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionSnapshot {
    function: MatchingFunction,
    features: Vec<(crate::feature::FeatureId, crate::feature::FeatureDef)>,
    /// Pair indices quarantined by panic isolation at capture time.
    quarantined: Vec<usize>,
}

impl DebugSession {
    /// Captures the current matching function, its feature definitions,
    /// and the quarantined-pair set.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            function: self.func.clone(),
            features: self
                .ctx
                .registry()
                .iter()
                .map(|(id, def)| (id, *def))
                .collect(),
            quarantined: self.quarantined.clone(),
        }
    }

    /// Replaces the current rule set with a snapshot's, re-interning its
    /// features into this session's context (feature ids are remapped, so
    /// snapshots survive sessions whose contexts interned features in a
    /// different order) and re-running matching.
    ///
    /// Fails with [`SessionError::Edit`] (`PendingResume`) while a partial
    /// edit is parked — restoring over half-updated state would silently
    /// discard the pending work — and with [`SessionError::Parse`] when a
    /// snapshot feature references an attribute that does not exist in this
    /// session's schemas.
    pub fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<EvalStats, SessionError> {
        self.ensure_idle().map_err(SessionError::Edit)?;
        // Validate + remap features.
        let mut id_map: std::collections::HashMap<crate::feature::FeatureId, FeatureId> =
            std::collections::HashMap::new();
        for (old_id, def) in &snapshot.features {
            let ok_a = self.ctx.table_a().schema().len() > def.attr_a.index();
            let ok_b = self.ctx.table_b().schema().len() > def.attr_b.index();
            if !ok_a || !ok_b {
                return Err(SessionError::Parse(ParseError::new(
                    ParseErrorKind::UnknownAttr(format!(
                        "snapshot feature {old_id} references attributes outside this schema"
                    )),
                )));
            }
            let new_id = self.ctx.feature_by_ids(def.measure, def.attr_a, def.attr_b);
            id_map.insert(*old_id, new_id);
        }
        self.state.memo.ensure_features(self.ctx.registry().len());

        // Rebuild the function with remapped feature ids (rule/pred ids are
        // re-minted; the materialized state is rebuilt from scratch anyway).
        let mut func = MatchingFunction::new();
        for rule in snapshot.function.rules() {
            let mut preds = Vec::with_capacity(rule.preds.len());
            for bp in &rule.preds {
                let Some(&new_id) = id_map.get(&bp.pred.feature) else {
                    // A hand-edited snapshot can reference a feature id it
                    // never declared; reject rather than panic.
                    return Err(SessionError::Parse(ParseError::new(
                        ParseErrorKind::Malformed(format!(
                            "snapshot rule references undeclared feature {}",
                            bp.pred.feature
                        )),
                    )));
                };
                let mut pred = bp.pred;
                pred.feature = new_id;
                preds.push(pred);
            }
            func.add_rule(Rule::with(preds))
                .map_err(SessionError::Edit)?;
        }
        // The rebuilt function re-mints ids from zero: drop the sets of the
        // old ids past its counters, which nothing can reach any more.
        let (next_rule, next_pred) = func.id_counters();
        self.state.drop_ids_from(next_rule, next_pred);
        self.func = func;
        self.undo_stack.clear();
        let stats = self.run_full();
        // Carry the snapshot's quarantine forward: run_full rebuilds the
        // list from what *this* run observed, but pairs poisoned at capture
        // time stay suspect (their verdicts may rest on stale evaluations).
        self.merge_quarantine(
            &snapshot
                .quarantined
                .iter()
                .copied()
                .filter(|&i| i < self.cands.len())
                .collect::<Vec<_>>(),
        );
        self.history.push(EditRecord {
            description: format!("restore snapshot ({} rules)", self.func.n_rules()),
            n_changed: 0,
            pairs_examined: self.cands.len(),
            worker_stats: Vec::new(),
            elapsed: Duration::ZERO,
        });
        Ok(stats)
    }
}

/// Errors from session operations that can fail in more than one way.
#[derive(Debug)]
pub enum SessionError {
    /// Rule text did not parse.
    Parse(ParseError),
    /// The edit was structurally invalid.
    Edit(EditError),
    /// The durable session store failed (I/O, corruption, or replay).
    Persist(crate::persist::PersistError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "parse error: {e}"),
            SessionError::Edit(e) => write!(f, "edit error: {e}"),
            SessionError::Persist(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EditError> for SessionError {
    fn from(e: EditError) -> Self {
        SessionError::Edit(e)
    }
}

impl From<crate::persist::PersistError> for SessionError {
    fn from(e: crate::persist::PersistError) -> Self {
        SessionError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use em_similarity::TokenScheme;
    use em_types::{Label, PairIdx, Record, Schema};

    fn session() -> DebugSession {
        let schema = Schema::new(["title", "modelno"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
        a.push(Record::new("a2", ["sony walkman player", "NWZ"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod nano", "MC037"]));
        b.push(Record::new("b2", ["panasonic radio", "PR1"]));
        let cands = CandidateSet::cartesian(&a, &b);
        DebugSession::new(a, b, cands, SessionConfig::default())
    }

    #[test]
    fn debugging_loop_end_to_end() {
        let mut s = session();
        let f_title = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let f_model = s.feature(Measure::Exact, "modelno", "modelno").unwrap();

        // Iteration 1: title rule.
        let (rid, report) = s
            .add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.99))
            .unwrap();
        assert_eq!(report.newly_matched, vec![0]);
        assert_eq!(s.n_matches(), 1);

        // Iteration 2: tighten with a model check — match survives.
        let (pid, report) = s
            .add_predicate(rid, Predicate::at_least(f_model, 1.0))
            .unwrap();
        assert_eq!(report.n_changed(), 0);

        // Iteration 3: relax the title threshold — still only a1b1.
        let title_pid = s.function().rule(rid).unwrap().preds[0].id;
        s.set_threshold(title_pid, 0.5).unwrap();
        assert_eq!(s.n_matches(), 1);

        // Iteration 4: drop the model predicate again.
        s.remove_predicate(pid).unwrap();
        assert_eq!(s.n_matches(), 1);

        assert_eq!(s.history().len(), 4);
        // Incremental result equals a from-scratch run.
        let mut s2 = s;
        let incremental: Vec<bool> = s2.state().verdicts().to_vec();
        s2.run_full();
        assert_eq!(s2.state().verdicts(), incremental.as_slice());
    }

    #[test]
    fn add_rule_from_text() {
        let mut s = session();
        let (_, report) = s.add_rule_text("exact(modelno, modelno) >= 1.0").unwrap();
        assert_eq!(report.newly_matched, vec![0]);
        assert!(s.function_text().contains("exact(modelno, modelno)"));
    }

    #[test]
    fn explain_surfaces_blocking_predicate() {
        let mut s = session();
        s.add_rule_text("exact(modelno, modelno) >= 1.0").unwrap();
        let e = s.explain(1); // a1 vs b2
        assert!(!e.matched);
        assert!(e.rules[0].first_failure().is_some());
    }

    #[test]
    fn quality_report() {
        let mut s = session();
        s.add_rule_text("exact(modelno, modelno) >= 1.0").unwrap();
        let labels = vec![
            LabeledPair {
                pair: PairIdx::new(0, 0),
                label: Label::Match,
            },
            LabeledPair {
                pair: PairIdx::new(0, 1),
                label: Label::NonMatch,
            },
        ];
        let q = s.quality(&labels);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn optimize_preserves_verdicts() {
        let mut s = session();
        s.add_rule_text("jaccard_ws(title, title) >= 0.9").unwrap();
        s.add_rule_text("exact(modelno, modelno) >= 1.0 AND jaro(title, title) >= 0.3")
            .unwrap();
        s.run_full();
        let before: Vec<bool> = s.state().verdicts().to_vec();
        for algo in [
            OrderingAlgo::Random(3),
            OrderingAlgo::ByRank,
            OrderingAlgo::GreedyCost,
            OrderingAlgo::GreedyReduction,
        ] {
            s.optimize(algo).unwrap();
            assert_eq!(
                s.state().verdicts(),
                before.as_slice(),
                "{algo:?} changed verdicts"
            );
        }
    }

    #[test]
    fn edits_after_optimize_stay_consistent() {
        let mut s = session();
        let f_title = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        s.add_rule_text("exact(modelno, modelno) >= 1.0").unwrap();
        let (rid2, _) = s
            .add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.2))
            .unwrap();
        s.optimize(OrderingAlgo::GreedyReduction).unwrap();
        // Incremental edit after reordering.
        s.remove_rule(rid2).unwrap();
        let incremental: Vec<bool> = s.state().verdicts().to_vec();
        s.run_full();
        assert_eq!(s.state().verdicts(), incremental.as_slice());
    }

    #[test]
    fn snapshot_restore_roundtrip_across_sessions() {
        let mut s1 = session();
        // Intern a decoy feature first so the second session's ids differ.
        let _decoy = s1.feature(Measure::Soundex, "modelno", "modelno").unwrap();
        let f = s1
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        s1.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.9)).unwrap();
        let expected: Vec<bool> = s1.state().verdicts().to_vec();

        // Serialize the snapshot through JSON (cross-process shape).
        let json = serde_json::to_string(&s1.snapshot()).unwrap();
        let snapshot: crate::session::SessionSnapshot = serde_json::from_str(&json).unwrap();

        // A fresh session over the same tables, with a different interning
        // order, restores to identical verdicts.
        let mut s2 = session();
        let _different_first = s2.feature(Measure::Exact, "title", "title").unwrap();
        s2.restore(&snapshot).unwrap();
        assert_eq!(s2.state().verdicts(), expected.as_slice());
        assert_eq!(s2.function().n_rules(), 1);
    }

    #[test]
    fn restore_rejects_incompatible_schema() {
        let mut s1 = session();
        let f = s1
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        s1.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.9)).unwrap();
        let snapshot = s1.snapshot();

        // A session over single-attribute tables cannot host features on
        // attribute index 1 (modelno).
        let schema = em_types::Schema::new(["title"]);
        let mut a = Table::new("A", schema.clone());
        a.push(em_types::Record::new("a1", ["x"]));
        let mut b = Table::new("B", schema);
        b.push(em_types::Record::new("b1", ["x"]));
        let cands = CandidateSet::cartesian(&a, &b);
        let mut s2 = DebugSession::new(a, b, cands, SessionConfig::default());
        // Snapshot's registry contains modelno features from the fixture
        // (attr index 1) → restore must fail cleanly.
        let mut s1_with_model = session();
        let g = s1_with_model
            .feature(Measure::Exact, "modelno", "modelno")
            .unwrap();
        s1_with_model
            .add_rule(Rule::new().pred(g, CmpOp::Ge, 1.0))
            .unwrap();
        assert!(s2.restore(&s1_with_model.snapshot()).is_err());
        // The title-only snapshot fits if its registry only has title
        // features — the fixture schema has 2 attrs but feature f is on
        // attr 0, so it restores fine.
        let _ = snapshot; // (registry may include only title features)
    }

    #[test]
    fn session_simplify_preserves_matches() {
        let mut s = session();
        let f = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        // Redundant pile: r0 loose, r1 strict (subsumed), r2 with a
        // dominated predicate.
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.5)).unwrap();
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.9)).unwrap();
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.3).pred(f, CmpOp::Ge, 0.5))
            .unwrap();
        let before: Vec<bool> = s.state().verdicts().to_vec();

        let report = s.simplify().unwrap();
        assert!(!report.is_noop());
        assert_eq!(s.function().n_rules(), 1, "one loose rule survives");
        assert_eq!(s.state().verdicts(), before.as_slice());
        assert_eq!(s.undo_depth(), 0, "simplify clears undo");
    }

    #[test]
    fn near_misses_rank_unmatched_by_similarity() {
        let mut s = session();
        let f = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        // Strict rule: only the identical pair matches.
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.99)).unwrap();
        let misses = s.near_misses(f, 3);
        assert_eq!(misses.len(), 3);
        // Sorted descending, matched pair excluded.
        assert!(misses.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(misses.iter().all(|&(i, _)| !s.state().verdict(i)));
        // Re-query is pure lookups (memo already filled).
        use crate::memo::Memo;
        let stored = s.state().memo.stored();
        s.near_misses(f, 3);
        assert_eq!(s.state().memo.stored(), stored);
    }

    #[test]
    fn undo_reverts_every_edit_type() {
        let mut s = session();
        let f_title = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let f_model = s.feature(Measure::Exact, "modelno", "modelno").unwrap();

        // Baseline: one rule.
        let (rid, _) = s
            .add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.9))
            .unwrap();
        let baseline: Vec<bool> = s.state().verdicts().to_vec();
        let baseline_text = s.function_text();

        // Apply a pile of edits, then undo them all.
        let (pid2, _) = s
            .add_predicate(rid, Predicate::at_least(f_model, 1.0))
            .unwrap();
        let tpid = s.function().rule(rid).unwrap().preds[0].id;
        s.set_threshold(tpid, 0.5).unwrap();
        s.add_rule(Rule::new().pred(f_model, CmpOp::Ge, 1.0))
            .unwrap();
        s.remove_predicate(pid2).unwrap();
        s.remove_rule(rid).unwrap();

        let depth = s.undo_depth();
        assert_eq!(depth, 6, "one undo entry per edit");
        for _ in 0..depth - 1 {
            s.undo().unwrap().expect("undoable");
        }

        // All edits after the baseline undone: verdicts and rule text match.
        assert_eq!(s.state().verdicts(), baseline.as_slice());
        assert_eq!(s.function_text(), baseline_text);
        // And the state is still consistent with a scratch run.
        let verdicts: Vec<bool> = s.state().verdicts().to_vec();
        s.run_full();
        assert_eq!(s.state().verdicts(), verdicts.as_slice());

        // Final undo removes the baseline rule itself.
        s.undo().unwrap().expect("undoable");
        assert_eq!(s.n_matches(), 0);
        assert!(s.undo().unwrap().is_none(), "stack exhausted");
    }

    #[test]
    fn undo_remaps_ids_across_readds() {
        let mut s = session();
        let f_title = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let (rid, _) = s
            .add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.9))
            .unwrap();
        let pid = s.function().rule(rid).unwrap().preds[0].id;

        // Edit the threshold, then remove the whole rule; undoing the
        // removal re-adds with fresh ids, and undoing the threshold change
        // must hit the remapped predicate.
        s.set_threshold(pid, 0.2).unwrap();
        s.remove_rule(rid).unwrap();
        s.undo().unwrap().expect("re-add rule");
        s.undo()
            .unwrap()
            .expect("restore threshold on remapped pred");
        let rule = &s.function().rules()[0];
        assert_eq!(rule.preds[0].pred.threshold, 0.9);
        // State consistent.
        let verdicts: Vec<bool> = s.state().verdicts().to_vec();
        s.run_full();
        assert_eq!(s.state().verdicts(), verdicts.as_slice());
    }

    #[test]
    fn zero_deadline_parks_edit_and_resume_completes_it() {
        let mut s = session();
        let f = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();

        // An expired deadline stops the edit before any pair is examined.
        s.set_deadline(Some(Duration::ZERO));
        let (rid, report) = s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.5)).unwrap();
        assert!(!report.completion.is_complete());
        assert_eq!(report.pairs_examined, 0);
        assert_eq!(s.n_matches(), 0, "no pair was evaluated yet");
        let pending = s.pending_resume().expect("edit parked");
        assert_eq!(pending.remaining().len(), s.candidates().len());

        // Further edits are rejected until the resume.
        assert!(matches!(
            s.set_threshold(s.function().rule(rid).unwrap().preds[0].id, 0.4),
            Err(EditError::PendingResume)
        ));
        assert!(matches!(s.undo(), Err(EditError::PendingResume)));
        assert!(matches!(
            s.optimize(OrderingAlgo::ByRank),
            Err(EditError::PendingResume)
        ));

        // Lifting the deadline and resuming finishes the edit exactly.
        s.set_deadline(None);
        let report = s.resume().unwrap().expect("work was pending");
        assert!(report.completion.is_complete());
        assert!(s.pending_resume().is_none());
        let incremental: Vec<bool> = s.state().verdicts().to_vec();
        s.run_full();
        assert_eq!(s.state().verdicts(), incremental.as_slice());
    }

    #[test]
    fn run_full_discards_pending_work() {
        let mut s = session();
        let f = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        s.set_deadline(Some(Duration::ZERO));
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.5)).unwrap();
        assert!(s.pending_resume().is_some());

        // Abandon the partial edit via a full re-run: state is rebuilt
        // (the rule *was* added to the function) and edits unblock.
        s.set_deadline(None);
        s.run_full();
        assert!(s.pending_resume().is_none());
        let expected: Vec<bool> = s.state().verdicts().to_vec();
        assert!(expected.iter().any(|&v| v), "rule matches after full run");
        s.set_threshold(s.function().rules()[0].preds[0].id, 0.4)
            .unwrap();
        s.undo().unwrap().expect("undoable");
        assert_eq!(s.state().verdicts(), expected.as_slice());
    }

    #[test]
    fn resume_with_nothing_pending_is_a_noop() {
        let mut s = session();
        assert!(s.resume().unwrap().is_none());
        assert!(s.quarantined().is_empty());
        assert!(!s.explain(0).quarantined);
    }

    #[test]
    fn stale_cancellation_is_cleared_by_next_edit() {
        let mut s = session();
        let f = s
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        s.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.99)).unwrap();

        // A cancellation raced in before the edit: begin_budget clears it,
        // so the edit runs to completion.
        s.cancel_token().cancel();
        let report = s.remove_rule(s.function().rules()[0].id).unwrap();
        assert!(report.completion.is_complete());
        assert!(s.pending_resume().is_none());
    }

    #[test]
    fn memory_report_nonzero_after_run() {
        let mut s = session();
        s.add_rule_text("exact(modelno, modelno) >= 1.0").unwrap();
        let m = s.memory_report();
        assert!(m.memo_bytes > 0);
        assert!(m.n_pred_bitmaps >= 1);
    }
}
