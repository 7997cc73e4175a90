//! Incremental matching (§6) must be *exactly* equivalent to re-running
//! matching from scratch, for arbitrary edit sequences — including the
//! paper-breaking interleavings (relax after tighten, edits after
//! reordering, undoing a rule removal) — down to the materialized state:
//! sound `U(p)` bits, `run_full`'s fired pointers and `M(r)`, and a failure
//! witness for every rule the witness-pruned cascade skips.

mod common;

use common::{check_exact, random_workload, wide_workload, RandomWorkload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rulem::core::{
    run_full, CmpOp, DebugSession, EvalBudget, Executor, MatchState, MatchingFunction,
    OrderingAlgo, Rule, SessionConfig,
};

/// Applies one random edit to `(func, state)` and returns its description.
fn random_edit(
    w: &RandomWorkload,
    func: &mut MatchingFunction,
    state: &mut MatchState,
    rng: &mut StdRng,
    exec: &Executor,
) -> String {
    // Pick an edit type; fall through to add-rule when the precondition of
    // the drawn edit isn't met (e.g. removing from an empty function).
    let choice = rng.gen_range(0..6u8);
    match choice {
        // Add a rule.
        0 => {
            let f = w.features[rng.gen_range(0..w.features.len())];
            let rule = Rule::new().pred(f, CmpOp::Ge, rng.gen_range(0..=10) as f64 / 10.0);
            rulem::core::add_rule(
                func,
                state,
                &w.ctx,
                &w.cands,
                rule,
                true,
                exec,
                &EvalBudget::unlimited(),
            )
            .unwrap();
            "add_rule".into()
        }
        // Remove a rule.
        1 if !func.is_empty() => {
            let rid = func.rules()[rng.gen_range(0..func.n_rules())].id;
            rulem::core::remove_rule(
                func,
                state,
                &w.ctx,
                &w.cands,
                rid,
                true,
                exec,
                &EvalBudget::unlimited(),
            )
            .unwrap();
            "remove_rule".into()
        }
        // Add a predicate.
        2 if !func.is_empty() => {
            let rid = func.rules()[rng.gen_range(0..func.n_rules())].id;
            let f = w.features[rng.gen_range(0..w.features.len())];
            let pred = rulem::core::Predicate::new(
                f,
                if rng.gen_bool(0.5) {
                    CmpOp::Ge
                } else {
                    CmpOp::Lt
                },
                rng.gen_range(0..=10) as f64 / 10.0,
            );
            rulem::core::add_predicate(
                func,
                state,
                &w.ctx,
                &w.cands,
                rid,
                pred,
                true,
                exec,
                &EvalBudget::unlimited(),
            )
            .unwrap();
            "add_predicate".into()
        }
        // Remove a predicate (from a rule with ≥ 2 predicates).
        3 => {
            let candidate = func
                .rules()
                .iter()
                .find(|r| r.preds.len() >= 2)
                .map(|r| r.preds[rng.gen_range(0..r.preds.len())].id);
            if let Some(pid) = candidate {
                rulem::core::remove_predicate(
                    func,
                    state,
                    &w.ctx,
                    &w.cands,
                    pid,
                    true,
                    exec,
                    &EvalBudget::unlimited(),
                )
                .unwrap();
                "remove_predicate".into()
            } else {
                "skip".into()
            }
        }
        // Change a threshold (tighten or relax).
        4 if !func.is_empty() => {
            let rule = &func.rules()[rng.gen_range(0..func.n_rules())];
            let pid = rule.preds[rng.gen_range(0..rule.preds.len())].id;
            let new = rng.gen_range(0..=10) as f64 / 10.0;
            rulem::core::set_threshold(
                func,
                state,
                &w.ctx,
                &w.cands,
                pid,
                new,
                true,
                exec,
                &EvalBudget::unlimited(),
            )
            .unwrap();
            "set_threshold".into()
        }
        // Re-order rules + predicates, then re-run (what a session does).
        // Synthetic stats instead of `FunctionStats::estimate`: estimate
        // wall-clocks feature costs, so two lockstep sessions would order
        // predicates differently and spuriously diverge.
        5 if !func.is_empty() => {
            let costs: Vec<_> = w
                .features
                .iter()
                .map(|&f| (f, rng.gen_range(1..1000) as f64))
                .collect();
            let sels: Vec<_> = func
                .predicates()
                .map(|(_, bp)| (bp.id, rng.gen_range(0..=10) as f64 / 10.0))
                .collect();
            let stats = rulem::core::FunctionStats::synthetic(costs, sels, 1.0);
            let algo = if rng.gen_bool(0.5) {
                OrderingAlgo::GreedyReduction
            } else {
                OrderingAlgo::Random(rng.gen())
            };
            rulem::core::optimize(func, &stats, algo);
            run_full(func, &w.ctx, &w.cands, state, true, exec);
            "reorder".into()
        }
        _ => "skip".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edit_sequences_match_scratch_runs(seed in 0u64..10_000, n_edits in 1usize..12) {
        let w = random_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);

        let mut func = w.func.clone();
        let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&func, &w.ctx, &w.cands, &mut state, true, &Executor::serial());

        let mut trace = Vec::new();
        for _ in 0..n_edits {
            trace.push(random_edit(&w, &mut func, &mut state, &mut rng, &Executor::serial()));

            // After every edit, the incremental state must equal a from-
            // scratch run of the current function.
            let mut fresh = MatchState::new(w.cands.len(), w.ctx.registry().len());
            run_full(&func, &w.ctx, &w.cands, &mut fresh, true, &Executor::serial());
            prop_assert_eq!(
                state.verdicts(),
                fresh.verdicts(),
                "diverged after edits {:?}",
                trace
            );
            let exact = check_exact(&func, &w.ctx, &w.cands, &state);
            prop_assert!(exact.is_ok(), "{} after edits {:?}", exact.unwrap_err(), trace);
        }
    }

    #[test]
    fn fired_rule_is_always_a_true_rule(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&w.func, &w.ctx, &w.cands, &mut state, true, &Executor::serial());
        for (i, pair) in w.cands.iter() {
            if let Some(rid) = state.fired_rule(i) {
                let rule = w.func.rule(rid).expect("fired rule exists");
                prop_assert!(
                    rule.eval_reference(|f| w.ctx.compute(f, pair)),
                    "fired rule {rid} is not actually true for pair {i}"
                );
            }
        }
    }

    #[test]
    fn pred_false_bitmap_is_sound(seed in 0u64..10_000) {
        // Every bit in U(p) must correspond to a pair where p is false.
        let w = random_workload(seed);
        let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&w.func, &w.ctx, &w.cands, &mut state, true, &Executor::serial());
        for (_, bp) in w.func.predicates() {
            if let Some(bm) = state.pred_bitmap(bp.id) {
                for i in bm.iter_ones() {
                    let v = w.ctx.compute(bp.pred.feature, w.cands.pair(i));
                    prop_assert!(
                        !bp.pred.eval(v),
                        "U({}) claims pair {i} fails but value {v} passes",
                        bp.id
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_full_run_matches_serial(seed in 0u64..10_000) {
        // A pooled full run must rebuild exactly the serial state: same
        // verdicts, same fired rules, same M(r) and U(p) bitmaps — the
        // chunk-local memos are merged, not discarded.
        let w = random_workload(seed);
        let mut serial = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&w.func, &w.ctx, &w.cands, &mut serial, true, &Executor::serial());
        for threads in [2usize, 4, 9] {
            let exec = Executor::pool(threads);
            let mut par = MatchState::new(w.cands.len(), w.ctx.registry().len());
            run_full(&w.func, &w.ctx, &w.cands, &mut par, true, &exec);
            prop_assert_eq!(par.verdicts(), serial.verdicts(), "{threads} threads: verdicts");
            for i in 0..w.cands.len() {
                prop_assert_eq!(par.fired_rule(i), serial.fired_rule(i), "{} threads: fired rule for pair {}", threads, i);
            }
            for rule in w.func.rules() {
                let a: Vec<usize> = serial.rule_bitmap(rule.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                let b: Vec<usize> = par.rule_bitmap(rule.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                prop_assert_eq!(a, b, "{} threads: M({}) differs", threads, rule.id);
            }
            for (_, bp) in w.func.predicates() {
                let a: Vec<usize> = serial.pred_bitmap(bp.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                let b: Vec<usize> = par.pred_bitmap(bp.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                prop_assert_eq!(a, b, "{} threads: U({}) differs", threads, bp.id);
            }
        }
    }

    #[test]
    fn parallel_edit_sequences_match_serial_incremental(
        seed in 0u64..10_000,
        n_edits in 1usize..8,
        threads in prop::sample::select(vec![2usize, 4, 9]),
    ) {
        // The same random edit sequence applied through a worker pool must
        // leave a state *identical* to applying it serially — verdicts,
        // fired rules, and both bitmap families — and both must agree with
        // a from-scratch run on verdicts, fired rules and M(r).
        let w = random_workload(seed);
        let pool = Executor::with_threads(threads);
        let serial = Executor::serial();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);

        let mut func_s = w.func.clone();
        let mut state_s = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&func_s, &w.ctx, &w.cands, &mut state_s, true, &serial);
        let mut func_p = w.func.clone();
        let mut state_p = MatchState::new(w.cands.len(), w.ctx.registry().len());
        run_full(&func_p, &w.ctx, &w.cands, &mut state_p, true, &pool);

        let mut trace = Vec::new();
        for _ in 0..n_edits {
            // Clone the RNG so both sessions draw the identical edit.
            let mut rng_p = rng.clone();
            trace.push(random_edit(&w, &mut func_s, &mut state_s, &mut rng, &serial));
            random_edit(&w, &mut func_p, &mut state_p, &mut rng_p, &pool);

            prop_assert_eq!(
                state_p.verdicts(),
                state_s.verdicts(),
                "{} threads diverged from serial after edits {:?}",
                threads,
                trace
            );
            for i in 0..w.cands.len() {
                prop_assert_eq!(state_p.fired_rule(i), state_s.fired_rule(i), "{} threads: fired rule for pair {} after {:?}", threads, i, trace);
            }
            for rule in func_s.rules() {
                let a: Vec<usize> = state_s.rule_bitmap(rule.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                let b: Vec<usize> = state_p.rule_bitmap(rule.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                prop_assert_eq!(a, b, "{} threads: M({}) differs after {:?}", threads, rule.id, trace);
            }
            for (_, bp) in func_s.predicates() {
                let a: Vec<usize> = state_s.pred_bitmap(bp.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                let b: Vec<usize> = state_p.pred_bitmap(bp.id).map(|b| b.iter_ones().collect()).unwrap_or_default();
                prop_assert_eq!(a, b, "{} threads: U({}) differs after {:?}", threads, bp.id, trace);
            }

            // Both must still match a serial from-scratch run — verdicts,
            // fired rules and M(r) — with the state exact.
            let exact = check_exact(&func_s, &w.ctx, &w.cands, &state_s);
            prop_assert!(exact.is_ok(), "{} after {:?}", exact.unwrap_err(), trace);
        }
    }

    #[test]
    fn session_edits_and_undos_keep_the_state_exact(seed in 0u64..10_000, n_steps in 1usize..12) {
        // A DebugSession driven through random edits and undos, a rule
        // removal undone at once among them: after every step its state is
        // exact, which undoing a removal reaches only by re-inserting the
        // rule at its old position.
        let w = random_workload(seed);
        let features = w.features.clone();
        let mut s = DebugSession::with_context(w.ctx, w.cands, SessionConfig::default());
        for rule in w.func.rules() {
            s.add_rule(Rule::with(rule.preds.iter().map(|bp| bp.pred))).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
        let mut trace = Vec::new();
        for _ in 0..n_steps {
            trace.push(random_session_step(&mut s, &features, &mut rng));
            let exact = check_exact(s.function(), s.context(), s.candidates(), s.state());
            prop_assert!(exact.is_ok(), "{} after {:?}", exact.unwrap_err(), trace);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_session_steps_keep_the_state_exact_at_1_2_4_threads(
        seed in 0u64..10_000,
        n_steps in 1usize..12,
    ) {
        // 81–576 pairs, so a cascade resolves its witnesses over several
        // 64-pair words, and on a pool shards meet inside a word. The same
        // random steps at every thread count; after each the state is exact.
        for threads in [1usize, 2, 4] {
            let w = wide_workload(seed);
            let (features, n_pairs) = (w.features.clone(), w.cands.len());
            let config = SessionConfig {
                n_threads: threads,
                ..SessionConfig::default()
            };
            let mut s = DebugSession::with_context(w.ctx, w.cands, config);
            for rule in w.func.rules() {
                s.add_rule(Rule::with(rule.preds.iter().map(|bp| bp.pred))).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
            let mut trace = Vec::new();
            for _ in 0..n_steps {
                trace.push(random_session_step(&mut s, &features, &mut rng));
                let exact = check_exact(s.function(), s.context(), s.candidates(), s.state());
                prop_assert!(
                    exact.is_ok(),
                    "{} after {:?} ({} threads, {} pairs)",
                    exact.unwrap_err(),
                    trace,
                    threads,
                    n_pairs
                );
            }
        }
    }
}

/// Applies one random session step — an edit, an undo, or a rule removal
/// undone at once — and returns its description.
fn random_session_step(
    s: &mut DebugSession,
    features: &[rulem::core::FeatureId],
    rng: &mut StdRng,
) -> String {
    let pick_rule = |s: &DebugSession, rng: &mut StdRng| {
        let rules = s.function().rules();
        (!rules.is_empty()).then(|| rules[rng.gen_range(0..rules.len())].clone())
    };
    let threshold = |rng: &mut StdRng| rng.gen_range(0..=10) as f64 / 10.0;
    match rng.gen_range(0..7u8) {
        0 => {
            let f = features[rng.gen_range(0..features.len())];
            s.add_rule(Rule::new().pred(f, CmpOp::Ge, threshold(rng)))
                .unwrap();
            "add_rule".into()
        }
        1 | 2 => match pick_rule(s, rng) {
            Some(rule) => {
                s.remove_rule(rule.id).unwrap();
                s.undo().unwrap().expect("the removal is undoable");
                "remove_rule+undo".into()
            }
            None => "skip".into(),
        },
        3 => match pick_rule(s, rng) {
            Some(rule) => {
                let f = features[rng.gen_range(0..features.len())];
                let op = if rng.gen_bool(0.5) {
                    CmpOp::Ge
                } else {
                    CmpOp::Lt
                };
                let pred = rulem::core::Predicate::new(f, op, threshold(rng));
                s.add_predicate(rule.id, pred).unwrap();
                "add_predicate".into()
            }
            None => "skip".into(),
        },
        4 => match pick_rule(s, rng).filter(|r| r.preds.len() >= 2) {
            Some(rule) => {
                s.remove_predicate(rule.preds[rng.gen_range(0..rule.preds.len())].id)
                    .unwrap();
                "remove_predicate".into()
            }
            None => "skip".into(),
        },
        5 => match pick_rule(s, rng) {
            Some(rule) => {
                let pid = rule.preds[rng.gen_range(0..rule.preds.len())].id;
                s.set_threshold(pid, threshold(rng)).unwrap();
                "set_threshold".into()
            }
            None => "skip".into(),
        },
        _ => match s.undo().unwrap() {
            Some(_) => "undo".into(),
            None => "skip".into(),
        },
    }
}

/// Applies the first random edit of `edit_sequences_match_scratch_runs`
/// for `seed`, checks that it is the edit `kind`, and returns the state's
/// exactness verdict.
fn first_edit_exactness(seed: u64, kind: &str) -> Result<(), String> {
    let w = random_workload(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    let mut func = w.func.clone();
    let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
    let serial = Executor::serial();
    run_full(&func, &w.ctx, &w.cands, &mut state, true, &serial);
    let edit = random_edit(&w, &mut func, &mut state, &mut rng, &serial);
    assert_eq!(edit, kind, "seed {seed} draws a different first edit");
    check_exact(&func, &w.ctx, &w.cands, &state)
}

#[test]
fn relax_clears_the_bits_it_passes_seed_101() {
    // A relaxed threshold passes a matched pair that U(p) still listed.
    first_edit_exactness(101, "set_threshold").unwrap();
}

#[test]
fn remove_predicate_repoints_pairs_seed_36() {
    // A removed predicate was the only witness of its rule for a pair
    // fired by a later rule; the rule now holds and must fire first.
    first_edit_exactness(36, "remove_predicate").unwrap();
}
