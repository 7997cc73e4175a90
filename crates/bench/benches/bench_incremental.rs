//! Criterion benchmarks for §6: per-edit incremental latency vs re-running
//! matching from scratch (the Figure 5C / Figure 6 comparisons as
//! statistically robust measurements).

use criterion::{criterion_group, criterion_main, Criterion};
use em_bench::Workload;
use em_core::{run_full, CancelToken, EvalBudget, Executor, MatchState, MatchingFunction, Rule};
use std::time::Duration;

fn setup(w: &Workload, n_rules: usize, exec: &Executor) -> (MatchingFunction, MatchState) {
    let func = w.function_with_rules(n_rules, 1);
    let mut state = MatchState::new(w.cands.len(), w.ctx.registry().len());
    run_full(&func, &w.ctx, &w.cands, &mut state, true, exec);
    (func, state)
}

/// Thread counts swept by every incremental benchmark: the edits are the
/// latency-critical path of the interactive loop, so scaling is reported
/// per worker count rather than only serially.
const THREADS: [usize; 3] = [1, 2, 4];

fn bench_add_rule(c: &mut Criterion) {
    let w = Workload::products(0.02, 60);
    let extra = w.rule_pool[59].clone();

    let mut group = c.benchmark_group("add_rule_40rules");
    group.sample_size(10);

    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        group.bench_function(format!("fully_incremental/{}", exec.label()), |b| {
            b.iter_batched(
                || setup(&w, 40, &exec),
                |(mut func, mut state)| {
                    em_core::add_rule(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        extra.clone(),
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_function(format!("rerun_with_memo/{}", exec.label()), |b| {
            b.iter_batched(
                || {
                    let (mut func, state) = setup(&w, 40, &exec);
                    func.add_rule(extra.clone()).unwrap();
                    (func, state)
                },
                |(func, mut state)| run_full(&func, &w.ctx, &w.cands, &mut state, true, &exec),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_threshold_edits(c: &mut Criterion) {
    let w = Workload::products(0.02, 60);

    let mut group = c.benchmark_group("threshold_edit_40rules");
    group.sample_size(10);

    for (name, delta) in [("tighten", 0.05f64), ("relax", -0.05f64)] {
        for threads in THREADS {
            let exec = Executor::with_threads(threads);
            group.bench_function(format!("{name}/{}", exec.label()), |b| {
                b.iter_batched(
                    || setup(&w, 40, &exec),
                    |(mut func, mut state)| {
                        let (pid, pred) = {
                            let bp = &func.rules()[0].preds[0];
                            (bp.id, bp.pred)
                        };
                        let dir = if pred.op.higher_threshold_is_stricter() {
                            delta
                        } else {
                            -delta
                        };
                        let new = (pred.threshold + dir).clamp(0.0, 1.0);
                        em_core::set_threshold(
                            &mut func,
                            &mut state,
                            &w.ctx,
                            &w.cands,
                            pid,
                            new,
                            true,
                            &exec,
                            &EvalBudget::unlimited(),
                        )
                        .unwrap()
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_remove_rule(c: &mut Criterion) {
    let w = Workload::products(0.02, 60);

    let mut group = c.benchmark_group("remove_rule_40rules");
    group.sample_size(10);
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        group.bench_function(format!("fully_incremental/{}", exec.label()), |b| {
            b.iter_batched(
                || setup(&w, 40, &exec),
                |(mut func, mut state)| {
                    let rid = func.rules()[0].id;
                    em_core::remove_rule(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        rid,
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_session_loop(c: &mut Criterion) {
    // A realistic five-edit debugging session, end to end.
    let w = Workload::products(0.02, 60);

    let mut group = c.benchmark_group("debug_session");
    group.sample_size(10);
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        group.bench_function(format!("five_edit_loop/{}", exec.label()), |b| {
            b.iter_batched(
                || setup(&w, 20, &exec),
                |(mut func, mut state)| {
                    let extra: Rule = w.rule_pool[30].clone();
                    let (rid, _) = em_core::add_rule(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        extra,
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap();
                    let pid = func.rule(rid).unwrap().preds[0].id;
                    let t = func.find_predicate(pid).unwrap().1.pred.threshold;
                    em_core::set_threshold(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        pid,
                        (t + 0.1).min(1.0),
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap();
                    em_core::set_threshold(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        pid,
                        t,
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap();
                    let pred = w.rule_pool[31].predicates()[0];
                    let (pid2, _) = em_core::add_predicate(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        rid,
                        pred,
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap();
                    em_core::remove_predicate(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        pid2,
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap();
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_budget_overhead(c: &mut Criterion) {
    // The robustness layer polls the cancel token every pair and the
    // wall clock every 16 pairs; this measures what an armed-but-never-
    // tripping budget costs on the interactive hot path, against the
    // unlimited default.
    let w = Workload::products(0.02, 60);
    let extra = w.rule_pool[59].clone();

    let mut group = c.benchmark_group("budget_overhead_40rules");
    group.sample_size(10);
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        group.bench_function(format!("unlimited/{}", exec.label()), |b| {
            b.iter_batched(
                || setup(&w, 40, &exec),
                |(mut func, mut state)| {
                    em_core::add_rule(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        extra.clone(),
                        true,
                        &exec,
                        &EvalBudget::unlimited(),
                    )
                    .unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_function(format!("armed_budget/{}", exec.label()), |b| {
            b.iter_batched(
                || setup(&w, 40, &exec),
                |(mut func, mut state)| {
                    let budget = EvalBudget::unlimited()
                        .with_token(CancelToken::new())
                        .with_deadline(Duration::from_secs(3600));
                    em_core::add_rule(
                        &mut func,
                        &mut state,
                        &w.ctx,
                        &w.cands,
                        extra.clone(),
                        true,
                        &exec,
                        &budget,
                    )
                    .unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_add_rule,
    bench_threshold_edits,
    bench_remove_rule,
    bench_session_loop,
    bench_budget_overhead
);
criterion_main!(benches);
