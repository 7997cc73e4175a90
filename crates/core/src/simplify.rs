//! Logical simplification of matching functions.
//!
//! Rule sets accumulated over a debugging session — and especially rule
//! sets extracted from random forests (§7.1) — contain redundancy:
//! predicates implied by other predicates of the same rule, rules that
//! can never fire, and whole rules subsumed by more permissive rules.
//! Removing them is a pure semantic-preserving rewrite (verdicts cannot
//! change) that makes the function cheaper to evaluate and easier for
//! the analyst to read.
//!
//! [`simplify`] decides nothing itself: it runs the static analyzer
//! ([`crate::analyze`]) once and applies the fixes of what comes back.
//!
//! 1. [`DiagnosticKind::UnsatisfiableRule`]: contradictory bounds
//!    (`f ≥ 0.7 ∧ f < 0.5`); the rule can never fire, so it goes.
//! 2. [`DiagnosticKind::RedundantPredicate`] of a satisfiable rule: a
//!    sibling imposes an equal or stricter same-direction bound on the
//!    same feature (`f ≥ 0.5 ∧ f ≥ 0.7` ⇒ `f ≥ 0.7`), so the predicate
//!    goes; of two equal bounds the first stays.
//! 3. [`DiagnosticKind::DuplicateRule`] and
//!    [`DiagnosticKind::SubsumedRule`]: another rule fires whenever this
//!    one does, so it goes. Of rules with equal normal forms the earliest
//!    stays, so what survives is the earliest rule of each maximal normal
//!    form.
//!
//! The analysis runs under *codomain-free* facts: every feature may take
//! any value in `(-∞, +∞)` (no codomain is binary), and the blocking step
//! guarantees nothing. Thresholds are finite (every edit of a
//! [`MatchingFunction`] refuses others), so out-of-range, tautological and
//! blocking-vacuous findings cannot fire, the raw intervals are the normal
//! forms, and one pass is already a fixpoint. The rewrite therefore reads
//! the rule text alone, and bounds that only a measure's codomain makes
//! contradictory (`f > 1` for a similarity) are the analyst's business:
//! `lint` reports them, `simplify` keeps them. That is deliberate:
//! `Edit::Simplify` is journaled as a bare record and replayed — on
//! recovery and on followers — by running `simplify` again, so it must
//! remove exactly what it removed when the journal was written, and the
//! public `simplify(&mut MatchingFunction)` has no context to read
//! codomains from.

use crate::analyze::{analyze_with, DiagnosticKind};
use crate::function::MatchingFunction;
use crate::predicate::PredId;
use crate::rule::RuleId;
use em_similarity::Codomain;

/// The codomain [`simplify`] analyzes every feature under: any value.
const FREE: Codomain = Codomain {
    lo: f64::NEG_INFINITY,
    hi: f64::INFINITY,
    binary: false,
};

/// What [`simplify`] removed. Each list is in the analyzer's order: by
/// rule position in the evaluation order, then predicate position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimplifyReport {
    /// Redundant predicates of satisfiable rules (a sibling bound on the
    /// same feature is at least as strict), including those of rules then
    /// dropped as subsumed.
    pub dominated_predicates: Vec<PredId>,
    /// Rules dropped because their bounds are contradictory (never fire).
    pub unsatisfiable_rules: Vec<RuleId>,
    /// `(removed, other)`: a rule dropped because `other` fires whenever
    /// it does. `other` is the rule the analyzer's row names — the
    /// earliest earlier duplicate, else the first strict subsumer — and
    /// may itself be dropped in the same pass.
    pub subsumed_rules: Vec<(RuleId, RuleId)>,
}

impl SimplifyReport {
    /// True when nothing was removed.
    pub fn is_noop(&self) -> bool {
        self.dominated_predicates.is_empty()
            && self.unsatisfiable_rules.is_empty()
            && self.subsumed_rules.is_empty()
    }
}

/// Simplifies `func` in place, returning what was removed. Verdicts are
/// guaranteed unchanged for every possible input (the rewrites are pure
/// logical equivalences on the DNF).
pub fn simplify(func: &mut MatchingFunction) -> SimplifyReport {
    let findings = analyze_with(func, |_| FREE, |_| None, |f| f.to_string());
    let mut report = SimplifyReport {
        unsatisfiable_rules: findings
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UnsatisfiableRule)
            .map(|d| d.rule)
            .collect(),
        ..SimplifyReport::default()
    };
    for d in &findings {
        match d.kind {
            // An unsatisfiable rule goes whole; its predicates do not count.
            DiagnosticKind::RedundantPredicate if !report.unsatisfiable_rules.contains(&d.rule) => {
                report
                    .dominated_predicates
                    .push(d.pred.expect("a predicate finding names its predicate"));
            }
            DiagnosticKind::DuplicateRule | DiagnosticKind::SubsumedRule => report
                .subsumed_rules
                .push((d.rule, d.other_rule.expect("a row names its other rule"))),
            // Unsatisfiable rules are listed above; the other kinds cannot
            // fire under codomain-free facts.
            _ => {}
        }
    }
    // Predicates first: their rules may be dropped next.
    for &pid in &report.dominated_predicates {
        func.remove_predicate(pid)
            .expect("a redundant predicate has a binding sibling");
    }
    let dropped = report.subsumed_rules.iter().map(|&(rid, _)| rid);
    for rid in report.unsatisfiable_rules.iter().copied().chain(dropped) {
        func.remove_rule(rid).expect("rule exists");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureId;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;

    fn f(i: u32) -> FeatureId {
        FeatureId(i)
    }

    /// Reference check: simplified and original functions agree on a grid
    /// of feature values.
    fn assert_equivalent(original: &MatchingFunction, simplified: &MatchingFunction) {
        let features: Vec<FeatureId> = original.features();
        let steps = 6usize;
        let n = features.len().min(4);
        let mut idx = vec![0usize; n];
        loop {
            let value_of = |fid: FeatureId| -> f64 {
                features
                    .iter()
                    .position(|&g| g == fid)
                    .map(|p| (idx.get(p).copied().unwrap_or(0) as f64) / (steps - 1) as f64)
                    .unwrap_or(0.0)
            };
            assert_eq!(
                original.eval_reference(value_of),
                simplified.eval_reference(value_of),
                "diverged at {idx:?}"
            );
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == n {
                    return;
                }
                idx[k] += 1;
                if idx[k] < steps {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    #[test]
    fn dominated_ge_predicates_merged() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(0), CmpOp::Ge, 0.7)
                .pred(f(1), CmpOp::Ge, 0.3),
        )
        .unwrap();
        let original = func.clone();
        let report = simplify(&mut func);
        assert_eq!(report.dominated_predicates.len(), 1);
        assert_eq!(func.n_predicates(), 2);
        assert_equivalent(&original, &func);
        // The surviving f0 bound is the stricter one.
        let survivor = func.rules()[0]
            .preds
            .iter()
            .find(|bp| bp.pred.feature == f(0))
            .unwrap();
        assert_eq!(survivor.pred.threshold, 0.7);
    }

    #[test]
    fn contradictory_rule_dropped() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.7)
                .pred(f(0), CmpOp::Lt, 0.5),
        )
        .unwrap();
        func.add_rule(Rule::new().pred(f(1), CmpOp::Ge, 0.9))
            .unwrap();
        let original = func.clone();
        let report = simplify(&mut func);
        assert_eq!(report.unsatisfiable_rules.len(), 1);
        assert_eq!(func.n_rules(), 1);
        assert_equivalent(&original, &func);
    }

    #[test]
    fn boundary_contradiction_ge_lt_same_threshold() {
        // f ≥ 0.5 ∧ f < 0.5 is empty; f ≥ 0.5 ∧ f ≤ 0.5 is the point 0.5.
        let mut empty = MatchingFunction::new();
        empty
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, 0.5)
                    .pred(f(0), CmpOp::Lt, 0.5),
            )
            .unwrap();
        assert_eq!(simplify(&mut empty).unsatisfiable_rules.len(), 1);

        let mut point = MatchingFunction::new();
        point
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, 0.5)
                    .pred(f(0), CmpOp::Le, 0.5),
            )
            .unwrap();
        let report = simplify(&mut point);
        assert!(report.unsatisfiable_rules.is_empty());
        assert_eq!(point.n_rules(), 1);
    }

    #[test]
    fn subsumed_rule_dropped() {
        let mut func = MatchingFunction::new();
        // Strict rule: f0 ≥ 0.8 ∧ f1 ≥ 0.5 — subsumed by loose f0 ≥ 0.6.
        let strict = func
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, 0.8)
                    .pred(f(1), CmpOp::Ge, 0.5),
            )
            .unwrap();
        let loose = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.6))
            .unwrap();
        let original = func.clone();
        let report = simplify(&mut func);
        assert_eq!(report.subsumed_rules, vec![(strict, loose)]);
        assert_eq!(func.n_rules(), 1);
        assert_equivalent(&original, &func);
    }

    #[test]
    fn identical_rules_keep_first() {
        let mut func = MatchingFunction::new();
        let first = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let second = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let report = simplify(&mut func);
        assert_eq!(report.subsumed_rules, vec![(second, first)]);
        assert_eq!(func.n_rules(), 1);
        assert_eq!(func.rules()[0].id, first);
    }

    #[test]
    fn duplicate_predicates_in_rule_deduped() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(1), CmpOp::Lt, 0.9),
        )
        .unwrap();
        let original = func.clone();
        let report = simplify(&mut func);
        assert_eq!(report.dominated_predicates.len(), 1);
        assert_equivalent(&original, &func);
    }

    #[test]
    fn non_redundant_function_untouched() {
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.8))
            .unwrap();
        func.add_rule(Rule::new().pred(f(1), CmpOp::Ge, 0.8))
            .unwrap();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.4)
                .pred(f(1), CmpOp::Ge, 0.4),
        )
        .unwrap();
        let report = simplify(&mut func);
        assert!(report.is_noop(), "{report:?}");
        assert_eq!(func.n_rules(), 3);
    }

    #[test]
    fn interval_with_both_bounds_not_subsumed_by_half_open() {
        let mut func = MatchingFunction::new();
        // Band rule: 0.3 ≤ f0 < 0.6 — NOT subsumed by f0 ≥ 0.3 ∧ f1 ≥ 0.5.
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.3)
                .pred(f(0), CmpOp::Lt, 0.6),
        )
        .unwrap();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.3)
                .pred(f(1), CmpOp::Ge, 0.5),
        )
        .unwrap();
        let report = simplify(&mut func);
        // Second IS subsumed by the first? No: first requires f0 < 0.6.
        assert!(report.subsumed_rules.is_empty(), "{report:?}");
        assert_eq!(func.n_rules(), 2);
    }

    #[test]
    fn forest_style_redundancy_collapses() {
        // A pile of overlapping forest-ish rules collapses substantially
        // while preserving semantics.
        let mut func = MatchingFunction::new();
        for t in [0.5, 0.6, 0.7, 0.8] {
            func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, t)).unwrap();
        }
        for t in [0.5, 0.7] {
            func.add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, t)
                    .pred(f(1), CmpOp::Ge, 0.5),
            )
            .unwrap();
        }
        let original = func.clone();
        let report = simplify(&mut func);
        assert_eq!(
            func.n_rules(),
            1,
            "only f0 ≥ 0.5 should survive: {report:?}"
        );
        assert_equivalent(&original, &func);
    }
}
