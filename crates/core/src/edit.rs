//! The edit set, declared once.
//!
//! An [`Edit`] is one change to a session. The same value is the record
//! the durable store journals before applying it, the payload a leader
//! ships to its followers, and the operation [`DebugSession::apply`]
//! dispatches — so live edits, crash recovery and replica replay all run
//! one code path.
//!
//! Edits carry *intents*, not outcomes: applying one again reproduces its
//! outcome — including the ids it mints and any deterministic failure —
//! because the session is deterministic for a given starting state and
//! config. The serde form is the journal's on-disk and replication-wire
//! format, so existing stores and followers depend on it staying put.

use crate::engine::EvalStats;
use crate::feature::FeatureDef;
use crate::incremental::ChangeReport;
use crate::ordering::OrderingAlgo;
use crate::predicate::{PredId, Predicate};
use crate::rule::{Rule, RuleId};
use crate::session::{DebugSession, SessionError, SessionSnapshot};
use crate::simplify::SimplifyReport;

/// One durable change to a session (JSON, one checksummed journal frame
/// per edit).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Edit {
    /// A feature definition was interned (always journaled before any edit
    /// that could reference it).
    InternFeature {
        /// The definition, by attribute ids.
        def: FeatureDef,
    },
    /// `add_rule` — predicates in authoring order.
    AddRule {
        /// The unbound predicates.
        preds: Vec<Predicate>,
    },
    /// `remove_rule`.
    RemoveRule {
        /// The rule removed.
        rid: RuleId,
    },
    /// `add_predicate`.
    AddPredicate {
        /// The rule extended.
        rid: RuleId,
        /// The predicate appended.
        pred: Predicate,
    },
    /// `remove_predicate`.
    RemovePredicate {
        /// The predicate removed.
        pid: PredId,
    },
    /// `set_threshold`.
    SetThreshold {
        /// The predicate adjusted.
        pid: PredId,
        /// The new threshold.
        threshold: f64,
    },
    /// `undo`.
    Undo,
    /// `resume` of a budget-parked edit.
    Resume,
    /// `run_full` — a from-scratch matching run.
    RunFull,
    /// `simplify` of the matching function.
    Simplify,
    /// `optimize` under an ordering algorithm (deterministic given the
    /// session's seed and sample fraction).
    Optimize {
        /// The ordering algorithm applied.
        algo: OrderingAlgo,
    },
    /// `restore` of a [`SessionSnapshot`] (the JSON rule-set export).
    Restore {
        /// The snapshot restored.
        snapshot: SessionSnapshot,
    },
}

/// What applying one [`Edit`] produced.
#[derive(Debug)]
pub enum Applied {
    /// `InternFeature`, or an `Undo` / `Resume` with nothing to do.
    Nothing,
    /// An incremental delta (Algorithms 7–10): an edit, its undo, or a
    /// resume. `AddRule` and `AddPredicate` name the id they minted.
    Change {
        /// The rule `AddRule` minted.
        rule: Option<RuleId>,
        /// The predicate `AddPredicate` minted.
        pred: Option<PredId>,
        /// What the delta changed.
        report: ChangeReport,
    },
    /// `RunFull`, `Optimize` and `Restore`: the re-run's work counters.
    Rerun(EvalStats),
    /// `Simplify`.
    Simplified(SimplifyReport),
}

impl Applied {
    fn change(report: ChangeReport) -> Self {
        Applied::Change {
            rule: None,
            pred: None,
            report,
        }
    }

    /// The delta report, when the edit ran one.
    pub fn into_report(self) -> Option<ChangeReport> {
        match self {
            Applied::Change { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl DebugSession {
    /// Applies one edit through the session's own edit methods — the
    /// incremental Algorithms 7–10 — so replaying a journal costs delta
    /// time, not a full re-run. The one dispatcher behind live edits
    /// ([`crate::SessionStore::apply`]), crash recovery and replica replay.
    pub fn apply(&mut self, edit: &Edit) -> Result<Applied, SessionError> {
        Ok(match edit {
            Edit::InternFeature { def } => {
                self.intern_checked(*def).map_err(SessionError::Persist)?;
                Applied::Nothing
            }
            Edit::AddRule { preds } => {
                let (rid, report) = self.add_rule(Rule::with(preds.iter().copied()))?;
                Applied::Change {
                    rule: Some(rid),
                    pred: None,
                    report,
                }
            }
            Edit::RemoveRule { rid } => Applied::change(self.remove_rule(*rid)?),
            Edit::AddPredicate { rid, pred } => {
                let (pid, report) = self.add_predicate(*rid, *pred)?;
                Applied::Change {
                    rule: None,
                    pred: Some(pid),
                    report,
                }
            }
            Edit::RemovePredicate { pid } => Applied::change(self.remove_predicate(*pid)?),
            Edit::SetThreshold { pid, threshold } => {
                Applied::change(self.set_threshold(*pid, *threshold)?)
            }
            Edit::Undo => self.undo()?.map_or(Applied::Nothing, Applied::change),
            Edit::Resume => self.resume()?.map_or(Applied::Nothing, Applied::change),
            Edit::RunFull => Applied::Rerun(self.run_full()),
            Edit::Simplify => Applied::Simplified(self.simplify()?),
            Edit::Optimize { algo } => Applied::Rerun(self.optimize(*algo)?),
            Edit::Restore { snapshot } => Applied::Rerun(self.restore(snapshot)?),
        })
    }
}
