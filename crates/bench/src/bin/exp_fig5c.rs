//! Figure 5C — incremental "add rule": run matching with k rules, add rule
//! k+1, measure the update time.
//!
//! Two variations, as in the paper:
//!
//! * **precompute variation** — after each add, the *whole* function is
//!   re-evaluated for every pair (with early exit, check-cache-first, and
//!   the retained memo, so feature values are lookups);
//! * **fully incremental** — Algorithm 10: only the new rule is evaluated,
//!   and only for currently-unmatched pairs.
//!
//! Expected shape (paper): both are slow at k = 0 (empty memo); from then
//! on the precompute variation grows steadily with k while the fully
//! incremental cost stays flat, with occasional spikes when the new rule
//! forces fresh feature computations.

use em_bench::{header, ms, row, scale, Workload, SEED};
use em_core::{run_full, MatchState, MatchingFunction};
use em_core::{EvalBudget, Executor};
use std::time::Instant;

const MAX_RULES: usize = 240;
const REPORT_EVERY: usize = 10;

fn main() {
    let w = Workload::products(scale(), 255);
    println!(
        "## Figure 5C — add-rule incremental ({} candidate pairs, k = 1..{MAX_RULES})\n",
        w.cands.len()
    );
    header(&[
        "k (rules before add)",
        "precompute variation (ms)",
        "fully incremental (ms)",
    ]);

    // Fully incremental state.
    let mut inc_func = MatchingFunction::new();
    let mut inc_state = MatchState::new(w.cands.len(), w.ctx.registry().len());
    // Precompute-variation state (memo retained across iterations).
    let mut pre_func = MatchingFunction::new();
    let mut pre_state = MatchState::new(w.cands.len(), w.ctx.registry().len());

    let order = w.function_with_rules(MAX_RULES, SEED);
    for (k, rule_template) in order.rules().iter().enumerate() {
        let rule = em_core::Rule::with(rule_template.preds.iter().map(|bp| bp.pred));

        // Precompute variation: add the rule, then re-run everything.
        pre_func.add_rule(rule.clone()).expect("non-empty rule");
        let start = Instant::now();
        run_full(
            &pre_func,
            &w.ctx,
            &w.cands,
            &mut pre_state,
            true,
            &Executor::serial(),
        );
        let pre_elapsed = start.elapsed();

        // Fully incremental: Algorithm 10.
        let (_, report) = em_core::add_rule(
            &mut inc_func,
            &mut inc_state,
            &w.ctx,
            &w.cands,
            rule,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .expect("non-empty rule");

        if k % REPORT_EVERY == 0 || k + 1 == MAX_RULES {
            row(&[k.to_string(), ms(pre_elapsed), ms(report.elapsed)]);
        }
    }

    assert_eq!(
        inc_state.verdicts(),
        pre_state.verdicts(),
        "both variations must agree"
    );
    println!("\n(verdict agreement between variations verified)");
}
