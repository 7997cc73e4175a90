//! §7.1 (closing sentence) — "Experiments with the remaining five data
//! sets show similar results": runs the core comparison (EE vs DM+EE at a
//! fixed rule count, plus the incremental add-rule latency) on all six
//! domains to substantiate the claim the paper leaves as text.

use em_bench::{header, ms, row, scale, Workload, SEED};
use em_core::{run_early_exit, run_memo, MatchState, MatchingFunction};
use em_core::{EvalBudget, Executor};
use em_datagen::Domain;

const N_RULES: usize = 40;

fn main() {
    println!("## All six domains — EE vs DM+EE at {N_RULES} rules, plus incremental add-rule\n");
    header(&[
        "domain",
        "pairs",
        "EE (ms)",
        "DM+EE (ms)",
        "speedup",
        "incremental add-rule (ms)",
    ]);

    for domain in Domain::all() {
        let w = Workload::for_domain(domain, scale(), N_RULES + 8);
        let func = w.function_with_rules(N_RULES, SEED);

        let ee = run_early_exit(&func, &w.ctx, &w.cands, &Executor::serial());
        let (dm, _) = run_memo(&func, &w.ctx, &w.cands, true, &Executor::serial());
        assert_eq!(
            ee.verdicts,
            dm.verdicts,
            "{}: engines disagree",
            domain.name()
        );

        // Incremental: settle state on N_RULES rules, then add one more.
        let mut inc_func = MatchingFunction::new();
        let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
        for rule in func.rules() {
            let r = em_core::Rule::with(rule.preds.iter().map(|bp| bp.pred));
            em_core::add_rule(
                &mut inc_func,
                &mut state,
                &w.ctx,
                &w.cands,
                r,
                true,
                &Executor::serial(),
                &EvalBudget::unlimited(),
            )
            .unwrap();
        }
        let extra = em_core::Rule::with(
            w.function_with_rules(N_RULES + 1, SEED)
                .rules()
                .last()
                .expect("one extra rule")
                .preds
                .iter()
                .map(|bp| bp.pred),
        );
        let (_, report) = em_core::add_rule(
            &mut inc_func,
            &mut state,
            &w.ctx,
            &w.cands,
            extra,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();

        row(&[
            domain.name().to_string(),
            w.cands.len().to_string(),
            ms(ee.elapsed),
            ms(dm.elapsed),
            format!(
                "{:.1}x",
                ee.elapsed.as_secs_f64() / dm.elapsed.as_secs_f64().max(1e-9)
            ),
            ms(report.elapsed),
        ]);
    }
}
