//! Verdict explanations: *why* did a pair match or not?
//!
//! The debugging loop of Figure 1 has the analyst inspecting matching
//! output for errors. [`explain`] produces a full trace of a single pair —
//! every rule, every predicate, every feature value — so the analyst can
//! see exactly which predicate blocked a missed match or which rule let a
//! false positive through.

use crate::context::EvalContext;
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::predicate::{CmpOp, PredId};
use crate::rule::RuleId;
use crate::stats::FunctionStats;
use em_types::PairIdx;
use std::fmt;

/// Trace of one predicate evaluation.
#[derive(Debug, Clone)]
pub struct PredicateTrace {
    /// The predicate's stable id.
    pub pred: PredId,
    /// The feature compared.
    pub feature: FeatureId,
    /// Human-readable feature name, e.g. `jaccard_ws(title, title)`.
    pub feature_name: String,
    /// The computed feature value.
    pub value: f64,
    /// The comparison operator.
    pub op: CmpOp,
    /// The threshold.
    pub threshold: f64,
    /// Whether the predicate held.
    pub passed: bool,
    /// Estimated cost of computing this feature, in ns/pair, when
    /// statistics were supplied (see [`explain_with_costs`]). Measured
    /// through `EvalContext::compute`, so it is the cost the engines — and
    /// the §5.5 ordering model — actually pay per pair.
    pub cost_ns: Option<f64>,
}

/// Trace of one rule evaluation.
#[derive(Debug, Clone)]
pub struct RuleTrace {
    /// The rule's stable id.
    pub rule: RuleId,
    /// Whether the whole conjunction held.
    pub satisfied: bool,
    /// Per-predicate traces, in the rule's evaluation order. All predicates
    /// are traced (no early exit) so the analyst sees the full picture.
    pub predicates: Vec<PredicateTrace>,
}

impl RuleTrace {
    /// The first failing predicate, if any.
    pub fn first_failure(&self) -> Option<&PredicateTrace> {
        self.predicates.iter().find(|p| !p.passed)
    }
}

/// Full explanation of one pair's verdict.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained pair.
    pub pair: PairIdx,
    /// The overall verdict.
    pub matched: bool,
    /// The first satisfied rule (what an early-exit engine would fire).
    pub fired: Option<RuleId>,
    /// Per-rule traces in evaluation order.
    pub rules: Vec<RuleTrace>,
    /// True when the session quarantined this pair after its evaluation
    /// panicked during matching — the trace above was recomputed and may
    /// panic-free only by luck; treat the pair's verdict with suspicion.
    pub quarantined: bool,
}

/// Traces the evaluation of `func` on `pair`, computing every feature.
pub fn explain(func: &MatchingFunction, ctx: &EvalContext, pair: PairIdx) -> Explanation {
    explain_with_costs(func, ctx, pair, None)
}

/// Like [`explain`], additionally annotating each predicate with the
/// estimated per-pair cost of its feature when `stats` are available —
/// so the analyst sees not just *why* a pair matched but *what each
/// predicate costs*, the quantity the ordering optimizer trades on.
pub fn explain_with_costs(
    func: &MatchingFunction,
    ctx: &EvalContext,
    pair: PairIdx,
    stats: Option<&FunctionStats>,
) -> Explanation {
    let mut rules = Vec::with_capacity(func.n_rules());
    let mut fired = None;
    for rule in func.rules() {
        let mut predicates = Vec::with_capacity(rule.preds.len());
        let mut satisfied = true;
        for bp in &rule.preds {
            // Explaining must survive what matching survived: a feature
            // that panics on this pair traces as NaN / failed instead of
            // unwinding through the debugger.
            let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.compute(bp.pred.feature, pair)
            }))
            .unwrap_or(f64::NAN);
            // Comparisons with NaN are all false, so a panicked feature
            // can never satisfy a predicate.
            let passed = bp.pred.eval(value);
            satisfied &= passed;
            predicates.push(PredicateTrace {
                pred: bp.id,
                feature: bp.pred.feature,
                feature_name: ctx.feature_name(bp.pred.feature),
                value,
                op: bp.pred.op,
                threshold: bp.pred.threshold,
                passed,
                cost_ns: stats.map(|s| s.cost(bp.pred.feature)),
            });
        }
        if satisfied && fired.is_none() {
            fired = Some(rule.id);
        }
        rules.push(RuleTrace {
            rule: rule.id,
            satisfied,
            predicates,
        });
    }
    Explanation {
        pair,
        matched: fired.is_some(),
        fired,
        rules,
        quarantined: false,
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pair (a{}, b{}): {}",
            self.pair.a,
            self.pair.b,
            if self.matched { "MATCH" } else { "NO MATCH" }
        )?;
        if self.quarantined {
            writeln!(
                f,
                "  QUARANTINED: evaluation panicked on this pair; verdict withheld"
            )?;
        }
        for rt in &self.rules {
            writeln!(
                f,
                "  rule {}: {}",
                rt.rule,
                if rt.satisfied { "satisfied" } else { "failed" }
            )?;
            for pt in &rt.predicates {
                write!(
                    f,
                    "    [{}] {} = {:.4} {} {:.2}",
                    if pt.passed { "ok" } else { "XX" },
                    pt.feature_name,
                    pt.value,
                    pt.op,
                    pt.threshold
                )?;
                if let Some(cost) = pt.cost_ns {
                    write!(f, "  (~{cost:.0} ns/pair)")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;
    use em_similarity::Measure;
    use em_types::{Record, Schema, Table};

    fn fixture() -> (EvalContext, MatchingFunction) {
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple"]));
        b.push(Record::new("b2", ["orange"]));
        let mut ctx = EvalContext::from_tables(a, b);
        let f = ctx.feature(Measure::Exact, "name", "name").unwrap();
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 1.0)).unwrap();
        (ctx, func)
    }

    #[test]
    fn match_trace() {
        let (ctx, func) = fixture();
        let e = explain(&func, &ctx, PairIdx::new(0, 0));
        assert!(e.matched);
        assert_eq!(e.fired, Some(func.rules()[0].id));
        assert!(e.rules[0].satisfied);
        assert!(e.rules[0].predicates[0].passed);
        assert_eq!(e.rules[0].predicates[0].value, 1.0);
    }

    #[test]
    fn non_match_trace_identifies_blocker() {
        let (ctx, func) = fixture();
        let e = explain(&func, &ctx, PairIdx::new(0, 1));
        assert!(!e.matched);
        assert_eq!(e.fired, None);
        let failure = e.rules[0].first_failure().unwrap();
        assert_eq!(failure.value, 0.0);
        assert_eq!(failure.feature_name, "exact(name, name)");
    }

    #[test]
    fn display_renders() {
        let (ctx, func) = fixture();
        let text = explain(&func, &ctx, PairIdx::new(0, 1)).to_string();
        assert!(text.contains("NO MATCH"));
        assert!(text.contains("exact(name, name)"));
        assert!(text.contains("XX"));
        assert!(!text.contains("ns/pair"), "no stats → no cost annotation");
    }

    #[test]
    fn costs_attach_when_stats_supplied() {
        let (ctx, func) = fixture();
        let f = func.features()[0];
        let stats = FunctionStats::synthetic([(f, 250.0)], [], 1.0);
        let e = explain_with_costs(&func, &ctx, PairIdx::new(0, 0), Some(&stats));
        assert_eq!(e.rules[0].predicates[0].cost_ns, Some(250.0));
        let text = e.to_string();
        assert!(text.contains("(~250 ns/pair)"), "{text}");
        // Plain explain leaves the field empty.
        let plain = explain(&func, &ctx, PairIdx::new(0, 0));
        assert_eq!(plain.rules[0].predicates[0].cost_ns, None);
    }
}
