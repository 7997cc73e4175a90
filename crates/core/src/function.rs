//! The matching function: a disjunction (DNF) of CNF rules, with the edit
//! API the analyst's debugging loop drives.

use crate::feature::FeatureId;
use crate::predicate::{PredId, Predicate};
use crate::rule::{BoundPredicate, BoundRule, Rule, RuleId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by edits to a [`MatchingFunction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The referenced rule does not exist (or was removed).
    UnknownRule(RuleId),
    /// The referenced predicate does not exist (or was removed).
    UnknownPredicate(PredId),
    /// Inserting an empty rule, or removing a rule's last predicate —
    /// either would create a rule that matches every pair.
    EmptyRule,
    /// A rule-order permutation did not contain exactly the current rules.
    InvalidOrder,
    /// A previous edit stopped early (deadline or cancellation) and is only
    /// partially applied; it must be resumed (or the state rebuilt with a
    /// full run) before further edits.
    PendingResume,
    /// A predicate threshold was NaN or infinite. Comparisons against
    /// non-finite thresholds are either vacuous or never satisfiable and
    /// are always an input bug, so they are rejected at the edit boundary
    /// (the parser rejects them too; this guards the programmatic path).
    NonFiniteThreshold,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownRule(r) => write!(f, "unknown rule {r}"),
            EditError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            EditError::EmptyRule => write!(
                f,
                "operation would leave an empty rule (which matches everything); remove the rule instead"
            ),
            EditError::InvalidOrder => write!(f, "order must be a permutation of the current rules"),
            EditError::PendingResume => write!(
                f,
                "a previous edit is partially applied; resume it (or re-run matching) first"
            ),
            EditError::NonFiniteThreshold => {
                write!(f, "threshold must be a finite number (not NaN or infinite)")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// A boolean matching function in disjunctive normal form.
///
/// Rules are kept in *evaluation order*; the ordering algorithms (§5)
/// permute this order without changing semantics. Rule and predicate ids
/// are stable across edits, which the incremental-matching state (§6)
/// depends on.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MatchingFunction {
    rules: Vec<BoundRule>,
    next_rule: u32,
    next_pred: u64,
}

impl MatchingFunction {
    /// An empty matching function (matches nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `rule` at the end of the evaluation order.
    pub fn add_rule(&mut self, rule: Rule) -> Result<RuleId, EditError> {
        self.insert_rule(rule, self.rules.len())
    }

    /// Inserts `rule` at evaluation position `position` (clamped to the
    /// end), minting fresh ids for it and its predicates.
    pub fn insert_rule(&mut self, rule: Rule, position: usize) -> Result<RuleId, EditError> {
        if rule.is_empty() {
            return Err(EditError::EmptyRule);
        }
        if rule.predicates().iter().any(|p| !p.threshold.is_finite()) {
            return Err(EditError::NonFiniteThreshold);
        }
        let id = RuleId(self.next_rule);
        self.next_rule += 1;
        let preds = rule
            .predicates()
            .iter()
            .map(|&pred| {
                let pid = PredId(self.next_pred);
                self.next_pred += 1;
                BoundPredicate { id: pid, pred }
            })
            .collect();
        let position = position.min(self.rules.len());
        self.rules.insert(position, BoundRule { id, preds });
        Ok(id)
    }

    /// The next rule and predicate ids this function will mint; every id
    /// it holds is below them.
    pub(crate) fn id_counters(&self) -> (u32, u64) {
        (self.next_rule, self.next_pred)
    }

    /// Removes a rule, returning it.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<BoundRule, EditError> {
        let pos = self.rule_position(id).ok_or(EditError::UnknownRule(id))?;
        Ok(self.rules.remove(pos))
    }

    /// Appends `pred` to rule `rule_id` (at the end of its evaluation order).
    pub fn add_predicate(&mut self, rule_id: RuleId, pred: Predicate) -> Result<PredId, EditError> {
        if !pred.threshold.is_finite() {
            return Err(EditError::NonFiniteThreshold);
        }
        let rule = self
            .rules
            .iter_mut()
            .find(|r| r.id == rule_id)
            .ok_or(EditError::UnknownRule(rule_id))?;
        let pid = PredId(self.next_pred);
        self.next_pred += 1;
        rule.preds.push(BoundPredicate { id: pid, pred });
        Ok(pid)
    }

    /// Removes a predicate, returning its owning rule and the predicate.
    ///
    /// Fails with [`EditError::EmptyRule`] when it is the rule's last
    /// predicate.
    pub fn remove_predicate(&mut self, pid: PredId) -> Result<(RuleId, Predicate), EditError> {
        for rule in &mut self.rules {
            if let Some(pos) = rule.position_of(pid) {
                if rule.preds.len() == 1 {
                    return Err(EditError::EmptyRule);
                }
                let bp = rule.preds.remove(pos);
                return Ok((rule.id, bp.pred));
            }
        }
        Err(EditError::UnknownPredicate(pid))
    }

    /// Replaces the threshold of predicate `pid`, returning the old value.
    pub fn set_threshold(&mut self, pid: PredId, threshold: f64) -> Result<f64, EditError> {
        if !threshold.is_finite() {
            return Err(EditError::NonFiniteThreshold);
        }
        for rule in &mut self.rules {
            for bp in &mut rule.preds {
                if bp.id == pid {
                    let old = bp.pred.threshold;
                    bp.pred.threshold = threshold;
                    return Ok(old);
                }
            }
        }
        Err(EditError::UnknownPredicate(pid))
    }

    /// The rules in evaluation order.
    #[inline]
    pub fn rules(&self) -> &[BoundRule] {
        &self.rules
    }

    /// Looks up a rule by id.
    pub fn rule(&self, id: RuleId) -> Option<&BoundRule> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// Position of rule `id` in the evaluation order.
    pub fn rule_position(&self, id: RuleId) -> Option<usize> {
        self.rules.iter().position(|r| r.id == id)
    }

    /// The rule owning predicate `pid`, with the predicate.
    pub fn find_predicate(&self, pid: PredId) -> Option<(RuleId, &BoundPredicate)> {
        for rule in &self.rules {
            for bp in &rule.preds {
                if bp.id == pid {
                    return Some((rule.id, bp));
                }
            }
        }
        None
    }

    /// Number of rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// Total number of predicates across all rules.
    pub fn n_predicates(&self) -> usize {
        self.rules.iter().map(|r| r.preds.len()).sum()
    }

    /// True when the function has no rules (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All `(owning rule, bound predicate)` pairs in evaluation order.
    pub fn predicates(&self) -> impl Iterator<Item = (RuleId, &BoundPredicate)> {
        self.rules
            .iter()
            .flat_map(|r| r.preds.iter().map(move |bp| (r.id, bp)))
    }

    /// The distinct features referenced anywhere in the function, in
    /// first-appearance order — the "used features" of Table 2.
    pub fn features(&self) -> Vec<FeatureId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (_, bp) in self.predicates() {
            if seen.insert(bp.pred.feature) {
                out.push(bp.pred.feature);
            }
        }
        out
    }

    /// Reorders the rules. `order` must be a permutation of the current
    /// rule ids.
    pub fn set_rule_order(&mut self, order: &[RuleId]) -> Result<(), EditError> {
        if order.len() != self.rules.len() {
            return Err(EditError::InvalidOrder);
        }
        let mut new_rules = Vec::with_capacity(self.rules.len());
        for &id in order {
            let pos = self
                .rules
                .iter()
                .position(|r| r.id == id)
                .ok_or(EditError::InvalidOrder)?;
            new_rules.push(self.rules.remove(pos));
        }
        if !self.rules.is_empty() {
            // Duplicates in `order` consumed some rules twice.
            return Err(EditError::InvalidOrder);
        }
        self.rules = new_rules;
        Ok(())
    }

    /// Reorders the predicates of one rule. `order` must be a permutation
    /// of that rule's predicate ids.
    pub fn set_predicate_order(
        &mut self,
        rule_id: RuleId,
        order: &[PredId],
    ) -> Result<(), EditError> {
        let rule = self
            .rules
            .iter_mut()
            .find(|r| r.id == rule_id)
            .ok_or(EditError::UnknownRule(rule_id))?;
        if order.len() != rule.preds.len() {
            return Err(EditError::InvalidOrder);
        }
        let mut new_preds = Vec::with_capacity(rule.preds.len());
        for &pid in order {
            let pos = rule
                .preds
                .iter()
                .position(|bp| bp.id == pid)
                .ok_or(EditError::InvalidOrder)?;
            new_preds.push(rule.preds.remove(pos));
        }
        if !rule.preds.is_empty() {
            return Err(EditError::InvalidOrder);
        }
        rule.preds = new_preds;
        Ok(())
    }

    /// Reference (non-early-exit) evaluation: true iff any rule's
    /// conjunction holds. Used by tests as ground truth for the optimized
    /// engines.
    pub fn eval_reference(&self, mut value_of: impl FnMut(FeatureId) -> f64) -> bool {
        self.rules.iter().any(|r| r.eval_reference(&mut value_of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn two_rule_function() -> (MatchingFunction, RuleId, RuleId) {
        let mut f = MatchingFunction::new();
        let r1 = f
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.9).pred(
                FeatureId(1),
                CmpOp::Ge,
                0.7,
            ))
            .unwrap();
        let r2 = f
            .add_rule(Rule::new().pred(FeatureId(2), CmpOp::Ge, 0.95).pred(
                FeatureId(1),
                CmpOp::Ge,
                0.7,
            ))
            .unwrap();
        (f, r1, r2)
    }

    #[test]
    fn ids_are_stable_and_unique() {
        let (f, r1, r2) = two_rule_function();
        assert_ne!(r1, r2);
        let pids: Vec<_> = f.predicates().map(|(_, bp)| bp.id).collect();
        let distinct: std::collections::HashSet<_> = pids.iter().collect();
        assert_eq!(distinct.len(), pids.len());
    }

    #[test]
    fn empty_rule_rejected() {
        let mut f = MatchingFunction::new();
        assert_eq!(f.add_rule(Rule::new()), Err(EditError::EmptyRule));
    }

    #[test]
    fn non_finite_thresholds_rejected_on_every_edit_path() {
        let (mut f, r1, _) = two_rule_function();
        let pid = f.rules()[0].preds[0].id;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                f.add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, bad)),
                Err(EditError::NonFiniteThreshold)
            );
            assert_eq!(
                f.add_predicate(r1, Predicate::new(FeatureId(0), CmpOp::Ge, bad)),
                Err(EditError::NonFiniteThreshold)
            );
            assert_eq!(
                f.set_threshold(pid, bad),
                Err(EditError::NonFiniteThreshold)
            );
        }
        // Rejections leave the function untouched.
        assert_eq!(f.n_rules(), 2);
        assert_eq!(f.rules()[0].preds[0].pred.threshold, 0.9);
    }

    #[test]
    fn remove_rule_keeps_other_ids() {
        let (mut f, r1, r2) = two_rule_function();
        f.remove_rule(r1).unwrap();
        assert!(f.rule(r1).is_none());
        assert!(f.rule(r2).is_some());
        assert_eq!(f.n_rules(), 1);
        // A new rule never reuses the removed id.
        let r3 = f
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.1))
            .unwrap();
        assert_ne!(r3, r1);
    }

    #[test]
    fn last_predicate_cannot_be_removed() {
        let mut f = MatchingFunction::new();
        let r = f
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.5))
            .unwrap();
        let pid = f.rule(r).unwrap().preds[0].id;
        assert_eq!(f.remove_predicate(pid), Err(EditError::EmptyRule));
    }

    #[test]
    fn set_threshold_roundtrip() {
        let (mut f, r1, _) = two_rule_function();
        let pid = f.rule(r1).unwrap().preds[0].id;
        let old = f.set_threshold(pid, 0.95).unwrap();
        assert_eq!(old, 0.9);
        assert_eq!(f.find_predicate(pid).unwrap().1.pred.threshold, 0.95);
    }

    #[test]
    fn features_dedup_across_rules() {
        let (f, _, _) = two_rule_function();
        assert_eq!(f.features(), vec![FeatureId(0), FeatureId(1), FeatureId(2)]);
    }

    #[test]
    fn rule_reorder() {
        let (mut f, r1, r2) = two_rule_function();
        f.set_rule_order(&[r2, r1]).unwrap();
        assert_eq!(f.rules()[0].id, r2);
        // Bad permutations rejected.
        assert_eq!(f.set_rule_order(&[r1]), Err(EditError::InvalidOrder));
        assert_eq!(f.set_rule_order(&[r1, r1]), Err(EditError::InvalidOrder));
    }

    #[test]
    fn insert_rule_at_position() {
        let (mut f, r1, r2) = two_rule_function();
        let r3 = f
            .insert_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.1), 1)
            .unwrap();
        let order: Vec<_> = f.rules().iter().map(|r| r.id).collect();
        assert_eq!(order, vec![r1, r3, r2]);
        // Past the end clamps to an append.
        let r4 = f
            .insert_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.2), 99)
            .unwrap();
        assert_eq!(f.rules()[3].id, r4);
        assert_eq!(f.id_counters(), (4, 6));
    }

    #[test]
    fn predicate_reorder() {
        let (mut f, r1, _) = two_rule_function();
        let pids: Vec<_> = f.rule(r1).unwrap().preds.iter().map(|bp| bp.id).collect();
        f.set_predicate_order(r1, &[pids[1], pids[0]]).unwrap();
        assert_eq!(f.rule(r1).unwrap().preds[0].id, pids[1]);
    }

    #[test]
    fn reference_eval_dnf_semantics() {
        let (f, _, _) = two_rule_function();
        // Rule 2 satisfied: feature 2 >= 0.95 and feature 1 >= 0.7.
        let vals = |fid: FeatureId| match fid.0 {
            0 => 0.0,
            1 => 0.8,
            2 => 0.99,
            _ => 0.0,
        };
        assert!(f.eval_reference(vals));
        // Neither satisfied.
        let vals = |fid: FeatureId| if fid.0 == 1 { 0.8 } else { 0.0 };
        assert!(!f.eval_reference(vals));
    }

    #[test]
    fn empty_function_matches_nothing() {
        let f = MatchingFunction::new();
        assert!(!f.eval_reference(|_| 1.0));
    }

    #[test]
    fn serde_roundtrip() {
        let (f, _, _) = two_rule_function();
        let j = serde_json::to_string(&f).unwrap();
        let back: MatchingFunction = serde_json::from_str(&j).unwrap();
        assert_eq!(back.n_rules(), 2);
        assert_eq!(back.n_predicates(), 4);
    }
}
