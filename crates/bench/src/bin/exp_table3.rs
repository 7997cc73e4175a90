//! Table 3 — computation cost per feature (µs) on the products dataset.
//!
//! The paper measures each similarity function over Walmart/Amazon
//! attribute pairs; the relative ordering (exact ≪ edit measures ≪ token
//! measures ≪ TF-IDF family, with Soft TF-IDF(title, title) the most
//! expensive) is the reproduced shape. Each feature is timed through
//! `EvalContext::compute`, the call every engine makes per pair and the
//! one `FunctionStats::estimate` calibrates α(f, r) against.

use em_bench::{header, row, scale, Workload, SEED};
use em_core::{run_memo, Executor};
use std::time::Instant;

fn main() {
    let w = Workload::products(scale(), 16);
    println!(
        "## Table 3 — feature computation costs ({} candidate pairs sampled)\n",
        2_000.min(w.cands.len())
    );

    let sample: Vec<_> = w
        .cands
        .as_slice()
        .iter()
        .step_by((w.cands.len() / 2_000).max(1))
        .take(2_000)
        .copied()
        .collect();

    let pass = |f| {
        let mut acc = 0.0;
        for &p in &sample {
            acc += w.ctx.compute(f, p);
        }
        std::hint::black_box(acc);
    };
    let mut rows: Vec<(String, f64)> = w
        .features
        .iter()
        .map(|&f| {
            pass(f); // warm-up
            let start = Instant::now();
            pass(f);
            let us = start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
            (w.ctx.feature_name(f), us)
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite timings"));

    header(&["Feature", "µs / eval"]);
    for (name, us) in rows {
        row(&[name, format!("{us:.3}")]);
    }

    // Full-run wall time: the memo engine over every candidate pair,
    // serial vs a 4-worker pool.
    let func = w.function_with_rules(8, SEED);
    let mut wall = Vec::new();
    for threads in [1usize, 4] {
        let exec = if threads == 1 {
            Executor::serial()
        } else {
            Executor::pool(threads)
        };
        let (outcome, _) = run_memo(&func, &w.ctx, &w.cands, false, &exec); // warm-up
        std::hint::black_box(outcome.verdicts.len());
        let start = Instant::now();
        let (outcome, _) = run_memo(&func, &w.ctx, &w.cands, false, &exec);
        std::hint::black_box(outcome.verdicts.len());
        wall.push((threads, start.elapsed().as_secs_f64() * 1e3));
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nFull run (memo engine, 8 rules, {} pairs): {:.1} ms at 1 thread, \
         {:.1} ms at 4 threads ({host_cores} host core(s)).",
        w.cands.len(),
        wall[0].1,
        wall[1].1
    );
}
