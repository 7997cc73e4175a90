//! Figure 6 — mean/max incremental latency per change type, 100 random
//! edits each (the paper's protocol, §7.6).
//!
//! Protocol per trial: pick a random predicate (or rule), put the function
//! into the "before" state untimed, then apply the measured edit. For
//! threshold changes, a random delta from {0.1..0.5} is applied in the
//! predicate's stricter (tighten) or looser (relax) direction, clamped to
//! [0, 1].
//!
//! Expected shape (paper): strictening edits (add predicate, tighten,
//! remove rule) cost a few milliseconds; loosening edits (remove predicate,
//! relax, add rule) are several times more expensive because they may
//! compute fresh feature values for previously-skipped pairs.

use em_bench::{header, row, scale, Workload, SEED};
use em_core::{run_full, MatchState, MatchingFunction, PredId, RuleId};
use em_core::{EvalBudget, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const TRIALS: usize = 100;

struct Bench {
    w: Workload,
    func: MatchingFunction,
    state: MatchState,
    rng: StdRng,
}

impl Bench {
    fn new() -> Self {
        let w = Workload::products(scale(), 255);
        let func = w.function_with_rules(240, SEED);
        let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(
            &func,
            &w.ctx,
            &w.cands,
            &mut state,
            true,
            &Executor::serial(),
        );
        Bench {
            w,
            func,
            state,
            rng: StdRng::seed_from_u64(SEED ^ 0xF16),
        }
    }

    fn random_rule(&mut self) -> RuleId {
        let rules = self.func.rules();
        rules[self.rng.gen_range(0..rules.len())].id
    }

    /// A random predicate from a rule with at least two predicates (so it
    /// can be removed and re-added).
    fn random_removable_pred(&mut self) -> PredId {
        loop {
            let rid = self.random_rule();
            let rule = self.func.rule(rid).unwrap();
            if rule.preds.len() >= 2 {
                let bp = &rule.preds[self.rng.gen_range(0..rule.preds.len())];
                return bp.id;
            }
        }
    }

    fn random_pred(&mut self) -> PredId {
        let rid = self.random_rule();
        let rule = self.func.rule(rid).unwrap();
        rule.preds[self.rng.gen_range(0..rule.preds.len())].id
    }
}

fn summarize(latencies: &[Duration]) -> (String, String) {
    let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
    let max = latencies.iter().max().copied().unwrap_or_default();
    (
        format!("{:.3}", mean.as_secs_f64() * 1e3),
        format!("{:.3}", max.as_secs_f64() * 1e3),
    )
}

fn main() {
    let mut b = Bench::new();
    println!(
        "## Figure 6 — incremental latency per change type ({} candidate pairs, {TRIALS} trials each)\n",
        b.w.cands.len()
    );
    header(&["Change", "mean (ms)", "max (ms)"]);

    // --- Add a predicate: remove one untimed, re-add it timed. ---
    let mut lat = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let pid = b.random_removable_pred();
        let (rid, bp) = b.func.find_predicate(pid).map(|(r, bp)| (r, *bp)).unwrap();
        em_core::remove_predicate(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            pid,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        let (_, report) = em_core::add_predicate(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            rid,
            bp.pred,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        lat.push(report.elapsed);
    }
    let (mean, max) = summarize(&lat);
    row(&["add predicate".into(), mean, max]);

    // --- Remove a predicate: remove timed, re-add untimed. ---
    let mut lat = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let pid = b.random_removable_pred();
        let (rid, bp) = b.func.find_predicate(pid).map(|(r, bp)| (r, *bp)).unwrap();
        let report = em_core::remove_predicate(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            pid,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        lat.push(report.elapsed);
        em_core::add_predicate(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            rid,
            bp.pred,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
    }
    let (mean, max) = summarize(&lat);
    row(&["remove predicate".into(), mean, max]);

    // --- Tighten / relax a threshold. ---
    for tighten in [true, false] {
        let mut lat = Vec::with_capacity(TRIALS);
        for _ in 0..TRIALS {
            let pid = b.random_pred();
            let (_, bp) = b.func.find_predicate(pid).unwrap();
            let pred = bp.pred;
            let delta = 0.1 * b.rng.gen_range(1..=5) as f64;
            let stricter_is_up = pred.op.higher_threshold_is_stricter();
            let dir_up = stricter_is_up == tighten;
            let new = if dir_up {
                (pred.threshold + delta).min(1.0)
            } else {
                (pred.threshold - delta).max(0.0)
            };
            let (report, _) = em_core::set_threshold(
                &mut b.func,
                &mut b.state,
                &b.w.ctx,
                &b.w.cands,
                pid,
                new,
                true,
                &Executor::serial(),
                &EvalBudget::unlimited(),
            )
            .unwrap();
            lat.push(report.elapsed);
            // Restore untimed.
            em_core::set_threshold(
                &mut b.func,
                &mut b.state,
                &b.w.ctx,
                &b.w.cands,
                pid,
                pred.threshold,
                true,
                &Executor::serial(),
                &EvalBudget::unlimited(),
            )
            .unwrap();
        }
        let (mean, max) = summarize(&lat);
        row(&[
            if tighten {
                "tighten threshold"
            } else {
                "relax threshold"
            }
            .into(),
            mean,
            max,
        ]);
    }

    // --- Remove a rule: remove timed, re-add untimed. ---
    let mut lat = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let rid = b.random_rule();
        let rule = b.func.rule(rid).unwrap().clone();
        let report = em_core::remove_rule(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            rid,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        lat.push(report.elapsed);
        em_core::add_rule(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            em_core::Rule::with(rule.preds.iter().map(|bp| bp.pred)),
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
    }
    let (mean, max) = summarize(&lat);
    row(&["remove rule".into(), mean, max]);

    // --- Add a rule: remove untimed, re-add timed. ---
    let mut lat = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let rid = b.random_rule();
        let rule = b.func.rule(rid).unwrap().clone();
        em_core::remove_rule(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            rid,
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        let (_, report) = em_core::add_rule(
            &mut b.func,
            &mut b.state,
            &b.w.ctx,
            &b.w.cands,
            em_core::Rule::with(rule.preds.iter().map(|bp| bp.pred)),
            true,
            &Executor::serial(),
            &EvalBudget::unlimited(),
        )
        .unwrap();
        lat.push(report.elapsed);
    }
    let (mean, max) = summarize(&lat);
    row(&["add rule".into(), mean, max]);

    // Sanity: state still agrees with a from-scratch run after ~600 edits.
    let mut fresh = MatchState::new(b.w.cands.len(), b.w.ctx.registry().len());
    run_full(
        &b.func,
        &b.w.ctx,
        &b.w.cands,
        &mut fresh,
        true,
        &Executor::serial(),
    );
    assert_eq!(b.state.verdicts(), fresh.verdicts());
    println!("\n(state consistency after all edits verified)");
}
