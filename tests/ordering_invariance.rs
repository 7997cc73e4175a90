//! Ordering (§5) is a pure optimization: any permutation of rules and of
//! predicates within rules must leave verdicts unchanged. The cost model
//! (§4.4) must respect the strategy hierarchy.

mod common;

use common::{random_workload, reference_verdicts};
use proptest::prelude::*;
use rulem::core::Executor;
use rulem::core::{
    cost_early_exit, cost_memo, cost_rudimentary, optimize, run_memo, FunctionStats, OrderingAlgo,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orderings_never_change_verdicts(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let expected = reference_verdicts(&w);
        let stats = FunctionStats::estimate(&w.func, &w.ctx, &w.cands, 1.0, seed);

        for algo in [
            OrderingAlgo::Random(seed),
            OrderingAlgo::ByRank,
            OrderingAlgo::GreedyCost,
            OrderingAlgo::GreedyReduction,
        ] {
            let mut func = w.func.clone();
            optimize(&mut func, &stats, algo);
            let (out, _) = run_memo(&func, &w.ctx, &w.cands, true, &Executor::serial());
            prop_assert_eq!(&out.verdicts, &expected, "{:?} changed verdicts", algo);
            // Structure preserved.
            prop_assert_eq!(func.n_rules(), w.func.n_rules());
            prop_assert_eq!(func.n_predicates(), w.func.n_predicates());
        }
    }

    #[test]
    fn cost_model_hierarchy(seed in 0u64..10_000) {
        // C4 (memo + EE) ≤ C3 (EE) ≤ C1 (rudimentary). C3 ≤ C1 is
        // unconditional (early exit only ever skips work), but C4 ≤ C3
        // is the paper's theorem *under its hypothesis* that a memo
        // lookup is no dearer than recomputing any feature (δ ≤ cost(f)).
        // The measured statistics can violate that hypothesis — prepared
        // kernels make some features cheaper per pair than the measured
        // δ, especially in unoptimized builds — and there the model
        // truthfully predicts that unconditional memoing is a loss.
        // Normalize δ under the hypothesis before asserting, so the
        // recurrence itself is checked deterministically on every seed.
        let w = random_workload(seed);
        let mut stats = FunctionStats::estimate(&w.func, &w.ctx, &w.cands, 1.0, seed);
        let c1 = cost_rudimentary(&w.func, &stats);
        let c3 = cost_early_exit(&w.func, &stats);
        prop_assert!(c3 <= c1 + 1e-9, "C3 {c3} > C1 {c1}");

        let min_cost = w
            .func
            .predicates()
            .map(|(_, bp)| stats.cost(bp.pred.feature))
            .fold(f64::INFINITY, f64::min);
        if min_cost.is_finite() {
            stats.set_lookup_cost(stats.lookup_cost().min(min_cost));
        }
        let c3 = cost_early_exit(&w.func, &stats);
        let c4 = cost_memo(&w.func, &stats);
        prop_assert!(c4 <= c3 + 1e-9, "C4 {c4} > C3 {c3}");
        prop_assert!(c4 >= 0.0 && c4.is_finite());
    }

    #[test]
    fn greedy_first_picks_satisfy_their_definitions(seed in 0u64..2_000) {
        // Algorithm 5's first rule must have the minimum memo-aware
        // expected cost under the empty memo state; Algorithm 6's first
        // rule must have the maximum expected downstream reduction. These
        // are the definitional invariants of the greedy loops (the overall
        // order is a heuristic over an NP-hard landscape and carries no
        // per-instance guarantee — see §5.4).
        let w = random_workload(seed);
        if w.func.n_rules() < 2 {
            return Ok(());
        }
        let stats = FunctionStats::estimate(&w.func, &w.ctx, &w.cands, 1.0, seed);
        let mut func = w.func.clone();
        rulem::core::optimize_predicate_orders(&mut func, &stats);
        let empty = rulem::core::MemoState::new();

        let alg5 = rulem::core::ordering::order_rules_greedy_cost(&func, &stats);
        let first_cost =
            rulem::core::costmodel::rule_cost_memo(func.rule(alg5[0]).unwrap(), &stats, &empty);
        for r in func.rules() {
            let c = rulem::core::costmodel::rule_cost_memo(r, &stats, &empty);
            prop_assert!(
                first_cost <= c + 1e-9,
                "Alg5 first pick {} (cost {first_cost}) beaten by {} (cost {c})",
                alg5[0], r.id
            );
        }

        let alg6 = rulem::core::ordering::order_rules_greedy_reduction(&func, &stats);
        let first_red = rulem::core::costmodel::reduction(
            func.rule(alg6[0]).unwrap(),
            func.rules().iter(),
            &empty,
            &stats,
        );
        for r in func.rules() {
            let red = rulem::core::costmodel::reduction(r, func.rules().iter(), &empty, &stats);
            prop_assert!(
                first_red >= red - 1e-9,
                "Alg6 first pick {} (reduction {first_red}) beaten by {} ({red})",
                alg6[0], r.id
            );
        }
    }
}
