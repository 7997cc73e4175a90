//! Predicate and rule ordering (§5 of the paper).
//!
//! With early exit and dynamic memoing, evaluation order changes cost but
//! never verdicts. Finding the optimal rule order is NP-hard (reduction
//! from TSP, §5.4), so the paper proposes:
//!
//! * **Lemma 2/3** — a provably optimal order of the predicates *within*
//!   one rule: group predicates sharing a feature (the group's later
//!   members are guaranteed memo hits), order each group by ascending
//!   selectivity, then order groups by ascending rank
//!   `(sel(group) − 1) / cost(group)` (the classic Lemma 1 rank applied to
//!   groups, which are mutually independent).
//! * **Theorem 1** — for *independent* rules, ascending
//!   `−sel(r)/cost(r)` is the optimal rule order.
//! * **Algorithm 5** — greedy: repeatedly run the cheapest remaining rule,
//!   where "cheapest" is memo-aware expected cost given the α state.
//! * **Algorithm 6** — greedy: repeatedly run the rule whose execution
//!   most reduces the expected cost of the remaining rules via memoization
//!   (`reduction(r)`), tie-broken by expected cost.

use crate::costmodel::{reduction, rule_cost_memo, rule_cost_no_memo, MemoState};
use crate::function::MatchingFunction;
use crate::predicate::PredId;
use crate::rule::{BoundRule, RuleId};
use crate::stats::FunctionStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rule-ordering strategy.
///
/// Serializable so an `optimize` step can be recorded in the durable edit
/// journal and replayed during recovery (the optimization is deterministic
/// given the session's sampling seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OrderingAlgo {
    /// Shuffle rules uniformly at random (the paper's baseline ordering).
    Random(u64),
    /// Theorem 1: ascending `−sel(r)/cost(r)` (ignores memo interactions).
    ByRank,
    /// Algorithm 5: greedy by memo-aware expected rule cost.
    GreedyCost,
    /// Algorithm 6: greedy by expected downstream cost reduction.
    GreedyReduction,
}

impl OrderingAlgo {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            OrderingAlgo::Random(_) => "random",
            OrderingAlgo::ByRank => "rank",
            OrderingAlgo::GreedyCost => "alg5",
            OrderingAlgo::GreedyReduction => "alg6",
        }
    }
}

/// Computes the Lemma 2 + Lemma 3 order of one rule's predicates.
///
/// Returns predicate ids in the optimal evaluation order.
pub fn order_predicates(rule: &BoundRule, stats: &FunctionStats) -> Vec<PredId> {
    // Lemma 2: within a feature group, ascending selectivity. (All members
    // after the first cost only δ, so the cheapest-elimination order is by
    // selectivity alone.)
    let mut groups: Vec<Vec<&crate::rule::BoundPredicate>> = rule
        .feature_groups()
        .into_iter()
        .map(|(_, positions)| {
            let mut members: Vec<_> = positions.iter().map(|&p| &rule.preds[p]).collect();
            members.sort_by(|a, b| {
                stats
                    .sel(a.id)
                    .partial_cmp(&stats.sel(b.id))
                    .expect("selectivities are finite")
            });
            members
        })
        .collect();

    // Lemma 3: groups are independent; ascending rank (sel − 1) / cost,
    // where the group's expected cost under memoing is
    // cost(f) + Σ_{k ≥ 2} (Π_{j<k} sel_j) · δ.
    let rank = |group: &[&crate::rule::BoundPredicate]| -> f64 {
        let f = group[0].pred.feature;
        let mut cost = stats.cost(f);
        let mut sel = 1.0;
        for (k, bp) in group.iter().enumerate() {
            if k > 0 {
                cost += sel * stats.lookup_cost();
            }
            sel *= stats.sel(bp.id);
        }
        (sel - 1.0) / cost
    };
    groups.sort_by(|a, b| rank(a).partial_cmp(&rank(b)).expect("ranks are finite"));

    groups.into_iter().flatten().map(|bp| bp.id).collect()
}

/// Applies [`order_predicates`] to every rule of `func` in place.
pub fn optimize_predicate_orders(func: &mut MatchingFunction, stats: &FunctionStats) {
    let plans: Vec<(RuleId, Vec<PredId>)> = func
        .rules()
        .iter()
        .map(|r| (r.id, order_predicates(r, stats)))
        .collect();
    for (rid, order) in plans {
        func.set_predicate_order(rid, &order)
            .expect("order is a permutation of the rule's own predicates");
    }
}

/// Theorem 1 rule order for independent rules: ascending `−sel(r)/cost(r)`,
/// with `cost(r)` per Equation 3 under the current predicate order.
pub fn order_rules_by_rank(func: &MatchingFunction, stats: &FunctionStats) -> Vec<RuleId> {
    let mut ranked: Vec<(f64, RuleId)> = func
        .rules()
        .iter()
        .map(|r| {
            let cost = rule_cost_no_memo(r, stats).max(f64::MIN_POSITIVE);
            (-stats.rule_sel(r) / cost, r.id)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ranks are finite"));
    ranked.into_iter().map(|(_, id)| id).collect()
}

/// Uniformly random rule order.
pub fn order_rules_random(func: &MatchingFunction, seed: u64) -> Vec<RuleId> {
    let mut ids: Vec<RuleId> = func.rules().iter().map(|r| r.id).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids
}

/// Algorithm 5 — greedy by expected cost.
///
/// Repeatedly picks the remaining rule with the minimum memo-aware expected
/// cost (given the α state accumulated by the rules already placed), then
/// advances the state past it.
pub fn order_rules_greedy_cost(func: &MatchingFunction, stats: &FunctionStats) -> Vec<RuleId> {
    let mut remaining: Vec<&BoundRule> = func.rules().iter().collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut state = MemoState::new();

    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, r)| (i, rule_cost_memo(r, stats, &state)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
            .expect("remaining is non-empty");
        let chosen = remaining.swap_remove(best_idx);
        state.advance(chosen, stats);
        order.push(chosen.id);
    }
    order
}

/// Algorithm 6 — greedy by expected overall cost reduction.
///
/// Repeatedly picks the remaining rule `r` maximizing `reduction(r)` — the
/// expected cost saved in the other remaining rules by the features `r`
/// memoizes — tie-breaking by the rule's own expected cost.
pub fn order_rules_greedy_reduction(func: &MatchingFunction, stats: &FunctionStats) -> Vec<RuleId> {
    let mut remaining: Vec<&BoundRule> = func.rules().iter().collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut state = MemoState::new();

    while !remaining.is_empty() {
        let (best_idx, _, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let red = reduction(r, remaining.iter().copied(), &state, stats);
                let own = rule_cost_memo(r, stats, &state);
                (i, red, own)
            })
            .max_by(|a, b| {
                // Max reduction; among equals, min own cost.
                a.1.partial_cmp(&b.1)
                    .expect("reductions are finite")
                    .then(b.2.partial_cmp(&a.2).expect("costs are finite"))
            })
            .expect("remaining is non-empty");
        let chosen = remaining.swap_remove(best_idx);
        state.advance(chosen, stats);
        order.push(chosen.id);
    }
    order
}

/// Sample-driven greedy ordering — an extension beyond the paper's
/// independence-based heuristics.
///
/// Algorithms 5 and 6 order rules from *estimated* statistics under
/// independence assumptions. This variant instead *executes* the rules on
/// a random sample of candidate pairs and greedily picks, at each step,
/// the rule that resolves the most still-unmatched sample pairs per unit
/// of measured cost — the classic pipelined-set-cover greedy adapted to
/// DNF early exit. It captures predicate correlations that the
/// independence model cannot (e.g. two rules matching exactly the same
/// pairs), at the price of actually evaluating the sample.
pub fn order_rules_sample_greedy(
    func: &MatchingFunction,
    ctx: &crate::context::EvalContext,
    cands: &em_types::CandidateSet,
    stats: &FunctionStats,
    sample_fraction: f64,
    seed: u64,
) -> Vec<RuleId> {
    use rand::Rng;

    // Draw the sample.
    let n = cands.len();
    let sample_size = ((n as f64 * sample_fraction).ceil() as usize).clamp(1, n.max(1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..n).collect();
    for i in 0..sample_size.min(n) {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    indices.truncate(sample_size.min(n));

    // Evaluate every rule on every sample pair once, a 64-pair word of the
    // sample at a time (memoized per pair so shared features are not
    // recomputed); `matched_by[r]` holds rule `r`'s mask per word.
    let sample: em_types::CandidateSet = indices.iter().map(|&ci| cands.pair(ci)).collect();
    let words = crate::bitmap::all_words(sample.len());
    let mut matched_by: Vec<Vec<u64>> = vec![Vec::with_capacity(words.len()); func.n_rules()];
    let mut memo = crate::memo::SparseMemo::new();
    let mut scratch = crate::engine::EvalStats::default();
    for &(word, mask) in &words {
        for (ri, rule) in func.rules().iter().enumerate() {
            let holds = crate::engine::eval_rule_memoized(
                rule,
                word,
                mask,
                &sample,
                ctx,
                &mut memo,
                false,
                &mut scratch,
                |_, _| {},
            );
            matched_by[ri].push(holds);
        }
    }

    // Greedy pipelined set cover: maximize newly-resolved pairs per unit
    // cost; resolve ties (and the zero-benefit tail) by cheaper-first.
    let mut remaining: Vec<usize> = (0..func.n_rules()).collect();
    let mut unresolved: Vec<u64> = words.iter().map(|&(_, mask)| mask).collect();
    let mut order = Vec::with_capacity(func.n_rules());
    let mut state = MemoState::new();

    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                let score = |ri: usize| {
                    let gain: u32 = matched_by[ri]
                        .iter()
                        .zip(&unresolved)
                        .map(|(&m, &u)| (m & u).count_ones())
                        .sum();
                    let gain = f64::from(gain);
                    let cost =
                        rule_cost_memo(&func.rules()[ri], stats, &state).max(f64::MIN_POSITIVE);
                    (gain / cost, -cost)
                };
                score(a).partial_cmp(&score(b)).expect("scores are finite")
            })
            .expect("remaining is non-empty");
        remaining.swap_remove(pos);
        for (u, &m) in unresolved.iter_mut().zip(&matched_by[best]) {
            *u &= !m;
        }
        state.advance(&func.rules()[best], stats);
        order.push(func.rules()[best].id);
    }
    order
}

/// Computes a rule order with the chosen algorithm.
pub fn order_rules(
    func: &MatchingFunction,
    stats: &FunctionStats,
    algo: OrderingAlgo,
) -> Vec<RuleId> {
    match algo {
        OrderingAlgo::Random(seed) => order_rules_random(func, seed),
        OrderingAlgo::ByRank => order_rules_by_rank(func, stats),
        OrderingAlgo::GreedyCost => order_rules_greedy_cost(func, stats),
        OrderingAlgo::GreedyReduction => order_rules_greedy_reduction(func, stats),
    }
}

/// Full §5.5 optimization: order predicates within every rule (Lemma 3),
/// then order the rules with `algo`, applying both to `func` in place.
pub fn optimize(func: &mut MatchingFunction, stats: &FunctionStats, algo: OrderingAlgo) {
    optimize_predicate_orders(func, stats);
    let order = order_rules(func, stats, algo);
    func.set_rule_order(&order)
        .expect("order is a permutation of the function's own rules");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::cost_memo;
    use crate::feature::FeatureId;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;

    /// f0: cheap+selective, f1: expensive, f2: cheap but unselective.
    fn stats3() -> FunctionStats {
        FunctionStats::synthetic(
            [
                (FeatureId(0), 50.0),
                (FeatureId(1), 1_000.0),
                (FeatureId(2), 60.0),
            ],
            [(PredId(0), 0.1), (PredId(1), 0.5), (PredId(2), 0.9)],
            5.0,
        )
    }

    #[test]
    fn lemma1_rank_orders_selective_cheap_first() {
        let mut func = MatchingFunction::new();
        let r = func
            .add_rule(
                Rule::new()
                    .pred(FeatureId(0), CmpOp::Ge, 0.5) // p0: sel .1, cost 50
                    .pred(FeatureId(1), CmpOp::Ge, 0.5) // p1: sel .5, cost 1000
                    .pred(FeatureId(2), CmpOp::Ge, 0.5), // p2: sel .9, cost 60
            )
            .unwrap();
        let stats = stats3();
        let order = order_predicates(func.rule(r).unwrap(), &stats);
        // ranks: p0 (.1−1)/50 = −0.018 ; p1 (.5−1)/1000 = −0.0005 ;
        //        p2 (.9−1)/60 = −0.00167 → p0, p2, p1.
        assert_eq!(order, vec![PredId(0), PredId(2), PredId(1)]);
    }

    #[test]
    fn lemma1_order_is_optimal_among_all_permutations() {
        // Exhaustively check on a 3-predicate independent rule.
        let mut func = MatchingFunction::new();
        let rid = func
            .add_rule(
                Rule::new()
                    .pred(FeatureId(0), CmpOp::Ge, 0.5)
                    .pred(FeatureId(1), CmpOp::Ge, 0.5)
                    .pred(FeatureId(2), CmpOp::Ge, 0.5),
            )
            .unwrap();
        let stats = stats3();
        let rule = func.rule(rid).unwrap().clone();
        let lemma_order = order_predicates(&rule, &stats);

        let cost_of = |perm: &[PredId]| {
            let mut f2 = func.clone();
            f2.set_predicate_order(rid, perm).unwrap();
            rule_cost_no_memo(f2.rule(rid).unwrap(), &stats)
        };
        let lemma_cost = cost_of(&lemma_order);

        // All 6 permutations.
        let ids = [PredId(0), PredId(1), PredId(2)];
        for i in 0..3 {
            for j in 0..3 {
                if j == i {
                    continue;
                }
                let k = 3 - i - j;
                let perm = vec![ids[i], ids[j], ids[k]];
                assert!(
                    lemma_cost <= cost_of(&perm) + 1e-9,
                    "lemma order beaten by {perm:?}"
                );
            }
        }
    }

    #[test]
    fn lemma2_groups_same_feature_and_orders_by_selectivity() {
        let mut func = MatchingFunction::new();
        let r = func
            .add_rule(
                Rule::new()
                    .pred(FeatureId(1), CmpOp::Ge, 0.3) // p0
                    .pred(FeatureId(0), CmpOp::Ge, 0.5) // p1
                    .pred(FeatureId(1), CmpOp::Le, 0.9), // p2 (same feature as p0)
            )
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(0), 50.0), (FeatureId(1), 1_000.0)],
            [(PredId(0), 0.8), (PredId(1), 0.1), (PredId(2), 0.3)],
            5.0,
        );
        let order = order_predicates(func.rule(r).unwrap(), &stats);
        // The f1 group must stay contiguous with the lower-selectivity
        // member (p2, sel .3) first.
        let pos = |pid: PredId| order.iter().position(|&p| p == pid).unwrap();
        assert_eq!(
            pos(PredId(2)) + 1,
            pos(PredId(0)),
            "f1 group contiguous, p2 first"
        );
        // f0's group is cheap and selective → first overall.
        assert_eq!(order[0], PredId(1));
    }

    #[test]
    fn theorem1_prefers_unselective_cheap_rules_first() {
        // r0: sel .1, cost high. r1: sel .9 (matches a lot), cheap.
        let mut func = MatchingFunction::new();
        let r0 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.5))
            .unwrap();
        let r1 = func
            .add_rule(Rule::new().pred(FeatureId(2), CmpOp::Ge, 0.5))
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(1), 1_000.0), (FeatureId(2), 60.0)],
            [(PredId(0), 0.1), (PredId(1), 0.9)],
            5.0,
        );
        let order = order_rules_by_rank(&func, &stats);
        // rank(r0) = −.1/1000 = −1e−4 ; rank(r1) = −.9/60 = −.015 → r1 first.
        assert_eq!(order, vec![r1, r0]);
    }

    #[test]
    fn greedy_cost_runs_cheapest_first() {
        let mut func = MatchingFunction::new();
        let expensive = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.5))
            .unwrap();
        let cheap = func
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.5))
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(0), 50.0), (FeatureId(1), 1_000.0)],
            [(PredId(0), 0.5), (PredId(1), 0.5)],
            5.0,
        );
        let order = order_rules_greedy_cost(&func, &stats);
        assert_eq!(order, vec![cheap, expensive]);
    }

    #[test]
    fn greedy_cost_accounts_for_memoization() {
        // r0 and r2 share expensive f1; r1 uses cheap f0.
        // After r0 runs, r2 becomes nearly free (memo hit) — greedy must
        // exploit the α state rather than re-rank statically.
        let mut func = MatchingFunction::new();
        let r0 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.3))
            .unwrap();
        let r1 = func
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.5))
            .unwrap();
        let r2 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.8))
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(0), 400.0), (FeatureId(1), 1_000.0)],
            [(PredId(0), 0.5), (PredId(1), 0.5), (PredId(2), 0.2)],
            5.0,
        );
        let order = order_rules_greedy_cost(&func, &stats);
        // First pick: r1 (cost 400 < 1000). Then α(f1)=0 still, both r0/r2
        // cost 1000 → first in iteration wins; after one runs the other is
        // a 5 ns lookup. The key property: r0 and r2 end up adjacent after
        // the first f1 rule is placed.
        let p0 = order.iter().position(|&r| r == r0).unwrap();
        let p2 = order.iter().position(|&r| r == r2).unwrap();
        assert_eq!(order[0], r1);
        assert_eq!(p0.abs_diff(p2), 1, "f1 rules should be adjacent: {order:?}");
    }

    #[test]
    fn greedy_reduction_prefers_feature_sharing_rules() {
        // r0 uses f1 (expensive, shared by r2 and r3); r1 uses f0 (cheap,
        // shared with nobody). Algorithm 6 must pick r0 first because it
        // seeds the memo for two downstream rules.
        let mut func = MatchingFunction::new();
        let r0 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.3))
            .unwrap();
        let _r1 = func
            .add_rule(Rule::new().pred(FeatureId(0), CmpOp::Ge, 0.5))
            .unwrap();
        let _r2 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Ge, 0.8))
            .unwrap();
        let _r3 = func
            .add_rule(Rule::new().pred(FeatureId(1), CmpOp::Le, 0.1))
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(0), 50.0), (FeatureId(1), 1_000.0)],
            [
                (PredId(0), 0.5),
                (PredId(1), 0.5),
                (PredId(2), 0.2),
                (PredId(3), 0.3),
            ],
            5.0,
        );
        let order = order_rules_greedy_reduction(&func, &stats);
        // All three f1 rules seed the memo equally well (each is a single
        // predicate, so Δα = 1); the cheap-but-unshared r1 must not lead.
        assert_ne!(order[0], _r1, "order = {order:?}");
        assert!(
            [r0, _r2, _r3].contains(&order[0]),
            "first rule should share f1: {order:?}"
        );
    }

    #[test]
    fn sample_greedy_front_loads_covering_rules() {
        use em_types::{CandidateSet, Record, Schema, Table};
        // Table with identical names → a loose rule matches everything, a
        // strict rule matches nothing; the sample greedy must front-load
        // the loose (covering) rule even though its modeled sel is equal.
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        for i in 0..10 {
            a.push(Record::new(format!("a{i}"), ["widget"]));
            b.push(Record::new(format!("b{i}"), ["widget"]));
        }
        let mut ctx = crate::context::EvalContext::from_tables(a, b);
        let f = ctx
            .feature(em_similarity::Measure::Levenshtein, "name", "name")
            .unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());

        let mut func = MatchingFunction::new();
        let strict = func
            .add_rule(Rule::new().pred(f, CmpOp::Gt, 1.5)) // impossible
            .unwrap();
        let loose = func
            .add_rule(Rule::new().pred(f, CmpOp::Ge, 0.5)) // matches all
            .unwrap();
        let stats = FunctionStats::synthetic(
            [(FeatureId(f.0), 100.0)],
            [(PredId(0), 0.5), (PredId(1), 0.5)],
            5.0,
        );
        let order = order_rules_sample_greedy(&func, &ctx, &cands, &stats, 0.5, 1);
        assert_eq!(order, vec![loose, strict]);
    }

    #[test]
    fn sample_greedy_is_a_permutation_and_preserves_verdicts() {
        use em_types::{CandidateSet, Record, Schema, Table};
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        let words = ["alpha beta", "gamma delta", "alpha gamma", "beta delta"];
        for (i, w) in words.iter().enumerate() {
            a.push(Record::new(format!("a{i}"), [*w]));
            b.push(Record::new(format!("b{i}"), [*w]));
        }
        let mut ctx = crate::context::EvalContext::from_tables(a, b);
        let f = ctx
            .feature(
                em_similarity::Measure::Jaccard(em_similarity::TokenScheme::Whitespace),
                "name",
                "name",
            )
            .unwrap();
        let g = ctx
            .feature(em_similarity::Measure::Levenshtein, "name", "name")
            .unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());

        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.9)).unwrap();
        func.add_rule(Rule::new().pred(g, CmpOp::Ge, 0.95)).unwrap();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.3).pred(g, CmpOp::Ge, 0.3))
            .unwrap();
        let stats = FunctionStats::estimate(&func, &ctx, &cands, 1.0, 3);

        let (before, _) = crate::engine::run_memo(
            &func,
            &ctx,
            &cands,
            false,
            &crate::executor::Executor::serial(),
        );
        let order = order_rules_sample_greedy(&func, &ctx, &cands, &stats, 1.0, 9);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), func.n_rules(), "not a permutation: {order:?}");

        let mut reordered = func.clone();
        reordered.set_rule_order(&order).unwrap();
        let (after, _) = crate::engine::run_memo(
            &reordered,
            &ctx,
            &cands,
            false,
            &crate::executor::Executor::serial(),
        );
        assert_eq!(before.verdicts, after.verdicts);
    }

    #[test]
    fn orders_are_permutations() {
        let mut func = MatchingFunction::new();
        for i in 0..6u32 {
            func.add_rule(Rule::new().pred(FeatureId(i % 3), CmpOp::Ge, 0.5))
                .unwrap();
        }
        let stats = stats3();
        for algo in [
            OrderingAlgo::Random(1),
            OrderingAlgo::ByRank,
            OrderingAlgo::GreedyCost,
            OrderingAlgo::GreedyReduction,
        ] {
            let order = order_rules(&func, &stats, algo);
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "{algo:?} produced non-permutation");
        }
    }

    #[test]
    fn optimize_lowers_modeled_cost_vs_random() {
        // Build a function with heavy feature sharing and verify the greedy
        // orders don't *increase* the modeled C4 relative to the random
        // order (they should generally decrease it).
        let mut func = MatchingFunction::new();
        for i in 0..8u32 {
            func.add_rule(Rule::new().pred(FeatureId(i % 4), CmpOp::Ge, 0.5).pred(
                FeatureId((i + 1) % 4),
                CmpOp::Ge,
                0.3,
            ))
            .unwrap();
        }
        let mut stats = FunctionStats::synthetic([], [], 5.0);
        for f in 0..4u32 {
            stats.set_cost(FeatureId(f), 100.0 * (f as f64 + 1.0).powi(2));
        }
        // Matching rules are selective in practice (few candidate pairs
        // match); with small selectivities the early-exit reach stays near 1
        // and the greedy heuristics' cost-based reasoning applies.
        for (i, (_, bp)) in func.predicates().enumerate() {
            stats.set_sel(bp.id, 0.02 + 0.02 * (i % 8) as f64);
        }

        // Average the modeled cost of many random orders; the greedy
        // heuristics don't dominate every individual random order (they are
        // heuristics for an NP-hard problem), but they must beat the
        // expectation.
        let mean_random: f64 = (0..20)
            .map(|seed| {
                let mut random = func.clone();
                optimize(&mut random, &stats, OrderingAlgo::Random(seed));
                cost_memo(&random, &stats)
            })
            .sum::<f64>()
            / 20.0;

        for algo in [OrderingAlgo::GreedyCost, OrderingAlgo::GreedyReduction] {
            let mut tuned = func.clone();
            optimize(&mut tuned, &stats, algo);
            let tuned_cost = cost_memo(&tuned, &stats);
            assert!(
                tuned_cost <= mean_random * 1.02,
                "{algo:?}: {tuned_cost} vs mean random {mean_random}"
            );
        }
    }
}
