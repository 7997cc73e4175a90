//! The cost model of §4.4: expected per-pair evaluation cost of each
//! strategy, including the memo-presence recurrence α(f, rᵢ) that makes
//! dynamic memoing analyzable, and the `cache`/`contribution`/`reduction`
//! quantities that drive the Algorithm 6 greedy (§5.4.1).
//!
//! All costs are *expected nanoseconds per candidate pair*; multiply by
//! `|C|` for a predicted total runtime. Probabilities follow the paper's
//! independence assumptions: predicates with different features are
//! independent, and `sel(⋀ pᵢ) = Π sel(pᵢ)`.
//!
//! `cost(f)` comes from [`FunctionStats::estimate`], which times features
//! through `EvalContext::compute`, the call the engines make per pair — so
//! every formula here is calibrated to what the engines pay, keeping the
//! model honest now that prepared kernels make computation much cheaper
//! relative to the memo lookup δ.

use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::rule::BoundRule;
use crate::stats::FunctionStats;
use std::collections::HashMap;

/// C₁ — the rudimentary baseline (Algorithm 1): every predicate computed
/// from scratch for every pair.
pub fn cost_rudimentary(func: &MatchingFunction, stats: &FunctionStats) -> f64 {
    func.predicates()
        .map(|(_, bp)| stats.cost(bp.pred.feature))
        .sum()
}

/// C₂ — the precomputation baseline (Algorithm 2): every feature of
/// `universe` computed once, then every predicate reference pays a lookup.
pub fn cost_precompute(
    func: &MatchingFunction,
    stats: &FunctionStats,
    universe: &[FeatureId],
) -> f64 {
    let precompute: f64 = universe.iter().map(|&f| stats.cost(f)).sum();
    let lookups = func.n_predicates() as f64 * stats.lookup_cost();
    precompute + lookups
}

/// Expected cost of evaluating a single rule in its stored predicate order
/// *without* memoing (Equation 3): predicate `j` runs only if predicates
/// `1..j` were all true.
pub fn rule_cost_no_memo(rule: &BoundRule, stats: &FunctionStats) -> f64 {
    let mut cost = 0.0;
    let mut reach = 1.0;
    for bp in &rule.preds {
        cost += reach * stats.cost(bp.pred.feature);
        reach *= stats.sel(bp.id);
    }
    cost
}

/// C₃ — early exit (Algorithm 3, Equation 4): rule `i` runs only if rules
/// `1..i` were all false.
pub fn cost_early_exit(func: &MatchingFunction, stats: &FunctionStats) -> f64 {
    let mut cost = 0.0;
    let mut reach = 1.0;
    for rule in func.rules() {
        cost += reach * rule_cost_no_memo(rule, stats);
        reach *= 1.0 - stats.rule_sel(rule);
    }
    cost
}

/// The memo-presence state α: per-feature probability of being memoized, as
/// evolved by the §4.4.4 recurrence across the rule sequence.
#[derive(Debug, Clone, Default)]
pub struct MemoState {
    alpha: HashMap<FeatureId, f64>,
}

impl MemoState {
    /// All features absent (the state before the first rule).
    pub fn new() -> Self {
        Self::default()
    }

    /// α(f) under the current state.
    #[inline]
    pub fn alpha(&self, f: FeatureId) -> f64 {
        self.alpha.get(&f).copied().unwrap_or(0.0)
    }

    /// Expected cost of resolving feature `f`'s value right now:
    /// `(1 − α(f))·cost(f) + α(f)·δ` (Equation 2).
    pub fn resolve_cost(&self, f: FeatureId, stats: &FunctionStats) -> f64 {
        let a = self.alpha(f);
        (1.0 - a) * stats.cost(f) + a * stats.lookup_cost()
    }

    /// Advances the state past `rule`:
    /// `α(f, rᵢ) = (1 − α(f, rᵢ₋₁)) · sel(prev(f, rᵢ)) + α(f, rᵢ₋₁)`,
    /// where `prev(f, r)` is the conjunction of predicates evaluated before
    /// `f` is first referenced in `r` — i.e. the probability the engine
    /// reaches `f` while evaluating `r`.
    pub fn advance(&mut self, rule: &BoundRule, stats: &FunctionStats) {
        for (f, reach) in feature_reach_probs(rule, stats) {
            let a = self.alpha(f);
            self.alpha.insert(f, a + (1.0 - a) * reach);
        }
    }
}

/// For each distinct feature of `rule`, the probability (under
/// independence) that its *first* predicate is reached during rule
/// evaluation — `sel(prev(f, r))` in the paper.
fn feature_reach_probs(rule: &BoundRule, stats: &FunctionStats) -> Vec<(FeatureId, f64)> {
    let mut out = Vec::new();
    let mut reach = 1.0;
    let mut seen: Vec<FeatureId> = Vec::new();
    for bp in &rule.preds {
        if !seen.contains(&bp.pred.feature) {
            seen.push(bp.pred.feature);
            out.push((bp.pred.feature, reach));
        }
        reach *= stats.sel(bp.id);
    }
    out
}

/// Expected cost of evaluating a single rule in its stored predicate order
/// *with* memoing, given the memo state before the rule.
///
/// The first reference to a feature in the rule costs
/// `(1−α)·cost(f) + α·δ`; later references within the same rule are
/// certainly memoized and cost `δ`.
pub fn rule_cost_memo(rule: &BoundRule, stats: &FunctionStats, state: &MemoState) -> f64 {
    let mut cost = 0.0;
    let mut reach = 1.0;
    let mut seen: Vec<FeatureId> = Vec::new();
    for bp in &rule.preds {
        let f = bp.pred.feature;
        let step = if seen.contains(&f) {
            stats.lookup_cost()
        } else {
            seen.push(f);
            state.resolve_cost(f, stats)
        };
        cost += reach * step;
        reach *= stats.sel(bp.id);
    }
    cost
}

/// C₄ — early exit with dynamic memoing (Algorithm 4): C₃ with per-feature
/// costs replaced by their memo-aware expectations, α evolving across the
/// rule sequence.
///
/// The paper's hierarchy C₄ ≤ C₃ holds exactly when `δ ≤ cost(f)` for
/// every referenced feature. Measured statistics can violate that
/// hypothesis — a cheap kernel's per-pair cost can undercut the memo
/// lookup — and then this function truthfully predicts that Algorithm 4's
/// unconditional memoing costs *more* than plain early exit.
pub fn cost_memo(func: &MatchingFunction, stats: &FunctionStats) -> f64 {
    let mut cost = 0.0;
    let mut reach = 1.0;
    let mut state = MemoState::new();
    for rule in func.rules() {
        cost += reach * rule_cost_memo(rule, stats, &state);
        state.advance(rule, stats);
        reach *= 1.0 - stats.rule_sel(rule);
    }
    cost
}

/// `contribution(r', r, f)` — the expected cost saved in rule `r'` on
/// feature `f` by executing rule `r` first (§5.4.1):
/// `sel(prev(f, r')) · (cache(f, r) − cache(f, prev(r))) · (cost(f) − δ)`.
pub fn contribution(
    r_prime: &BoundRule,
    f: FeatureId,
    delta_cache: f64,
    stats: &FunctionStats,
) -> f64 {
    let reach = feature_reach_probs(r_prime, stats)
        .into_iter()
        .find(|(g, _)| *g == f)
        .map(|(_, p)| p)
        .unwrap_or(0.0);
    reach * delta_cache * (stats.cost(f) - stats.lookup_cost()).max(0.0)
}

/// `reduction(r)` — the total expected cost saved in the rules of `rest` by
/// executing `r` now, given memo state `state` (§5.4.1).
pub fn reduction<'a>(
    rule: &BoundRule,
    rest: impl IntoIterator<Item = &'a BoundRule>,
    state: &MemoState,
    stats: &FunctionStats,
) -> f64 {
    // Hypothetical state after executing `rule`.
    let mut after = state.clone();
    after.advance(rule, stats);

    let mut total = 0.0;
    for r_prime in rest {
        if r_prime.id == rule.id {
            continue;
        }
        for f in r_prime.features() {
            let delta = after.alpha(f) - state.alpha(f);
            if delta > 0.0 {
                total += contribution(r_prime, f, delta, stats);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, PredId};
    use crate::rule::Rule;

    /// Builds a function + synthetic stats:
    ///   r0: f0 ≥ t (sel .2, cost 100)  ∧  f1 ≥ t (sel .5, cost 200)
    ///   r1: f1 ≥ t (sel .5, cost 200)  ∧  f2 ≥ t (sel .1, cost 50)
    /// δ = 10.
    fn fixture() -> (MatchingFunction, FunctionStats) {
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.5).pred(
            FeatureId(1),
            CmpOp::Ge,
            0.5,
        ))
        .unwrap();
        func.add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.5).pred(
            FeatureId(2),
            CmpOp::Ge,
            0.5,
        ))
        .unwrap();
        let stats = FunctionStats::synthetic(
            [
                (FeatureId(0), 100.0),
                (FeatureId(1), 200.0),
                (FeatureId(2), 50.0),
            ],
            [
                (PredId(0), 0.2),
                (PredId(1), 0.5),
                (PredId(2), 0.5),
                (PredId(3), 0.1),
            ],
            10.0,
        );
        (func, stats)
    }

    #[test]
    fn c1_sums_all_feature_costs() {
        let (func, stats) = fixture();
        // 100 + 200 + 200 + 50
        assert_eq!(cost_rudimentary(&func, &stats), 550.0);
    }

    #[test]
    fn c2_precompute_plus_lookups() {
        let (func, stats) = fixture();
        let universe = [FeatureId(0), FeatureId(1), FeatureId(2)];
        // precompute 350 + 4 lookups × 10
        assert_eq!(cost_precompute(&func, &stats, &universe), 390.0);
    }

    #[test]
    fn c3_early_exit_hand_computed() {
        let (func, stats) = fixture();
        // r0: 100 + 0.2·200 = 140 ; sel(r0) = 0.1
        // r1: 200 + 0.5·50 = 225
        // C3 = 140 + 0.9·225 = 342.5
        let c3 = cost_early_exit(&func, &stats);
        assert!((c3 - 342.5).abs() < 1e-9, "C3 = {c3}");
    }

    #[test]
    fn c4_memo_hand_computed() {
        let (func, stats) = fixture();
        // r0 with empty memo: same as no-memo = 140.
        // After r0: α(f0)=1.0 (first pred always reached), α(f1)=0.2.
        // r1: f1 resolve = 0.8·200 + 0.2·10 = 162; then 0.5·cost(f2)=0.5·50=25.
        //   rule cost = 162 + 25 = 187.
        // C4 = 140 + 0.9·187 = 308.3
        let c4 = cost_memo(&func, &stats);
        assert!((c4 - 308.3).abs() < 1e-9, "C4 = {c4}");
    }

    #[test]
    fn cost_hierarchy_holds() {
        let (func, stats) = fixture();
        let c1 = cost_rudimentary(&func, &stats);
        let c3 = cost_early_exit(&func, &stats);
        let c4 = cost_memo(&func, &stats);
        assert!(c3 <= c1, "early exit must not exceed rudimentary");
        assert!(c4 <= c3, "memoing must not exceed early exit alone");
    }

    #[test]
    fn alpha_recurrence_matches_paper_initial_condition() {
        let (func, stats) = fixture();
        let mut state = MemoState::new();
        state.advance(&func.rules()[0], &stats);
        // α(f, r₁) = Π_{p ∈ prev(f, r₁)} sel(p):
        // f0 has no predecessors → 1.0; f1 preceded by p0 (sel .2) → 0.2.
        assert!((state.alpha(FeatureId(0)) - 1.0).abs() < 1e-12);
        assert!((state.alpha(FeatureId(1)) - 0.2).abs() < 1e-12);
        assert_eq!(state.alpha(FeatureId(2)), 0.0);
    }

    #[test]
    fn alpha_is_monotone_nondecreasing() {
        let (func, stats) = fixture();
        let mut state = MemoState::new();
        let mut prev: Vec<f64> = (0..3).map(|i| state.alpha(FeatureId(i))).collect();
        for rule in func.rules() {
            state.advance(rule, &stats);
            let cur: Vec<f64> = (0..3).map(|i| state.alpha(FeatureId(i))).collect();
            for (p, c) in prev.iter().zip(&cur) {
                assert!(c >= p, "alpha decreased: {p} -> {c}");
            }
            prev = cur;
        }
    }

    #[test]
    fn repeated_feature_in_rule_costs_lookup() {
        // r: f0 ≥ .3 ∧ f0 ≤ .9 (same feature twice) — second is a lookup.
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.3).pred(
            FeatureId(0),
            CmpOp::Le,
            0.9,
        ))
        .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(0), 100.0)],
            [(PredId(0), 0.5), (PredId(1), 0.5)],
            10.0,
        );
        let state = MemoState::new();
        let c = rule_cost_memo(&func.rules()[0], &stats, &state);
        // 100 + 0.5·10 = 105
        assert!((c - 105.0).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn reduction_prefers_rules_sharing_expensive_features() {
        let (func, stats) = fixture();
        let state = MemoState::new();
        let rules = func.rules();
        // Executing r0 memoizes f1 (cost 200) with prob 0.2, which r1 reuses.
        let red0 = reduction(&rules[0], rules.iter(), &state, &stats);
        assert!(red0 > 0.0);
        // Executing r1 memoizes f1 with prob 1.0 (it is r1's first pred),
        // saving r0's f1 resolution with reach 0.2 there.
        let red1 = reduction(&rules[1], rules.iter(), &state, &stats);
        assert!(red1 > 0.0);
        // Hand numbers: red0 = sel(prev(f1,r1))·Δα·(200−10)
        //   prev(f1, r1) = {} → reach 1.0; Δα = 0.2 → 0.2·190 = 38.
        assert!((red0 - 38.0).abs() < 1e-9, "red0 = {red0}");
        // red1: r0 reaches f1 with prob sel(p0)=0.2; Δα = 1.0 → 0.2·190 = 38.
        assert!((red1 - 38.0).abs() < 1e-9, "red1 = {red1}");
    }

    #[test]
    fn empty_function_costs_zero() {
        let func = MatchingFunction::new();
        let stats = FunctionStats::synthetic([], [], 10.0);
        assert_eq!(cost_rudimentary(&func, &stats), 0.0);
        assert_eq!(cost_early_exit(&func, &stats), 0.0);
        assert_eq!(cost_memo(&func, &stats), 0.0);
    }
}
