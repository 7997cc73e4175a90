//! Machine-readable kernel and full-run benchmark, written to
//! `BENCH_similarity.json`.
//!
//! - `kernels`: every feature of the extended Table 3 menu, in ns/pair
//!   through `EvalContext::compute` — the one call every engine makes per
//!   pair — as the min and median of `kernel_reps` timed passes over a
//!   fixed pair sample.
//! - `full_runs`: serial Algorithm 4 (`run_memo`, cold memo) over every
//!   candidate pair with 8, 64 and 240 rules drawn from the forest pool,
//!   `check_cache_first` off and on, as the min and median of
//!   `full_run_reps` runs, with each program's rule-text hash.
//!
//! The markdown twin (`exp_table3`) stays the human-readable paper
//! artifact; this file is for machines.
//!
//! Env:
//! - `SCALE`      dataset scale (default 0.1, see `em_bench::scale`)
//! - `BENCH_OUT`  output path (default `BENCH_similarity.json`)

use em_bench::{program_hash, scale, Workload, SEED};
use em_core::{run_memo, Executor};
use serde::Serialize;
use std::time::Instant;

/// Timed passes per kernel (after one untimed warm-up).
const KERNEL_REPS: usize = 21;
/// Timed runs per full-run row (after one untimed warm-up).
const FULL_RUN_REPS: usize = 5;
/// Program sizes of the full-run rows.
const FULL_RUN_RULES: [usize; 3] = [8, 64, 240];

/// `(min, median)` of `reps` timings of `run`, after one untimed warm-up.
fn min_median(reps: usize, mut run: impl FnMut() -> f64) -> (f64, f64) {
    run();
    let mut xs: Vec<f64> = (0..reps).map(|_| run()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (xs[0], xs[xs.len() / 2])
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

#[derive(Serialize)]
struct KernelRow {
    feature: String,
    ns_per_pair_min: f64,
    ns_per_pair_median: f64,
}

#[derive(Serialize)]
struct FullRunRow {
    rules: usize,
    check_cache_first: bool,
    /// FNV-1a of the program's rule text.
    program_hash: String,
    ms_min: f64,
    ms_median: f64,
    feature_computations: u64,
    matches: usize,
}

#[derive(Serialize)]
struct BenchReport {
    dataset: String,
    scale: f64,
    /// CPUs available to the process that wrote this file.
    host_cpus: usize,
    sample_pairs: usize,
    kernel_reps: usize,
    /// Per-kernel costs, sorted by median cost ascending.
    kernels: Vec<KernelRow>,
    /// Feature names in Table 3 cost order (cheapest kernel first).
    table3_order: Vec<String>,
    candidate_pairs: usize,
    full_run_reps: usize,
    full_runs: Vec<FullRunRow>,
}

fn main() {
    let sc = scale();
    let w = Workload::products(sc, 240);

    let sample: Vec<_> = w
        .cands
        .as_slice()
        .iter()
        .step_by((w.cands.len() / 2_000).max(1))
        .take(2_000)
        .copied()
        .collect();
    let n = sample.len();

    let mut kernels: Vec<KernelRow> = w
        .features
        .iter()
        .map(|&f| {
            let (min, median) = min_median(KERNEL_REPS, || {
                let start = Instant::now();
                for &p in &sample {
                    std::hint::black_box(w.ctx.compute(f, std::hint::black_box(p)));
                }
                start.elapsed().as_nanos() as f64 / n as f64
            });
            KernelRow {
                feature: w.ctx.feature_name(f),
                ns_per_pair_min: round1(min),
                ns_per_pair_median: round1(median),
            }
        })
        .collect();
    kernels.sort_by(|a, b| {
        a.ns_per_pair_median
            .partial_cmp(&b.ns_per_pair_median)
            .expect("finite timings")
    });

    let serial = Executor::serial();
    let mut full_runs = Vec::new();
    for rules in FULL_RUN_RULES {
        let func = w.function_with_rules(rules, SEED);
        let program_hash = program_hash(&func, &w.ctx);
        for check_cache_first in [false, true] {
            let mut last = None;
            let (min, median) = min_median(FULL_RUN_REPS, || {
                let start = Instant::now();
                let (outcome, _) = run_memo(&func, &w.ctx, &w.cands, check_cache_first, &serial);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                last = Some(outcome);
                ms
            });
            let outcome = last.expect("at least one run");
            full_runs.push(FullRunRow {
                rules: func.n_rules(),
                check_cache_first,
                program_hash: program_hash.clone(),
                ms_min: round1(min),
                ms_median: round1(median),
                feature_computations: outcome.stats.feature_computations,
                matches: outcome.n_matches(),
            });
        }
    }

    let report = BenchReport {
        dataset: "products".to_string(),
        scale: sc,
        host_cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
        sample_pairs: n,
        kernel_reps: KERNEL_REPS,
        table3_order: kernels.iter().map(|k| k.feature.clone()).collect(),
        kernels,
        candidate_pairs: w.cands.len(),
        full_run_reps: FULL_RUN_REPS,
        full_runs,
    };

    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_similarity.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("artifact written");

    eprintln!(
        "wrote {path}: {} kernels over {n} pairs, {} full runs over {} pairs",
        report.kernels.len(),
        report.full_runs.len(),
        report.candidate_pairs
    );
    for k in &report.kernels {
        eprintln!(
            "  {:<40} min {:>9.1} ns  median {:>9.1} ns",
            k.feature, k.ns_per_pair_min, k.ns_per_pair_median
        );
    }
    for r in &report.full_runs {
        eprintln!(
            "  {:>3} rules ({}), check_cache_first={:<5}  min {:>8.1} ms  median {:>8.1} ms",
            r.rules, r.program_hash, r.check_cache_first, r.ms_min, r.ms_median
        );
    }
}
