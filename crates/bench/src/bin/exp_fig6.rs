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
//!
//! Prints the figure's Markdown table, and writes the same trials to
//! `BENCH_incremental.json`: per change type n, the median, quartiles,
//! p90, max and mean in ms, the summed `pairs_examined` and `rule_evals`,
//! and the rule-text hash of the function before its first trial, with
//! `host_cpus`.
//!
//! `SCALE` sets the dataset scale (default 0.1, see `em_bench::scale`).

use em_bench::{header, program_hash, row, scale, Workload, SEED};
use em_core::{run_full, ChangeReport, MatchState, MatchingFunction, PredId, RuleId};
use em_core::{EvalBudget, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
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

/// One change type's timed edits.
struct Trials {
    /// The change type, named as the session's per-kind delta metrics.
    kind: &'static str,
    /// The row label of the Markdown table.
    label: &'static str,
    program_hash: String,
    latencies: Vec<Duration>,
    pairs_examined: usize,
    rule_evals: u64,
}

impl Trials {
    fn new(kind: &'static str, label: &'static str, b: &Bench) -> Self {
        Trials {
            kind,
            label,
            program_hash: program_hash(&b.func, &b.w.ctx),
            latencies: Vec::with_capacity(TRIALS),
            pairs_examined: 0,
            rule_evals: 0,
        }
    }

    fn push(&mut self, report: &ChangeReport) {
        self.latencies.push(report.elapsed);
        self.pairs_examined += report.pairs_examined;
        self.rule_evals += report.stats.rule_evals;
    }

    /// Prints the Markdown row: mean and max in ms.
    fn print_row(&self) {
        let mean = self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32;
        let max = self.latencies.iter().max().copied().unwrap_or_default();
        row(&[
            self.label.into(),
            format!("{:.3}", mean.as_secs_f64() * 1e3),
            format!("{:.3}", max.as_secs_f64() * 1e3),
        ]);
    }

    /// The JSON row: quantiles are order statistics of the sorted
    /// latencies, `q(k) = sorted[k * (n - 1) / 100]`.
    fn summary(&self) -> KindRow {
        let mut ms: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = ms.len();
        let q = |k: usize| round_ns(ms[k * (n - 1) / 100]);
        KindRow {
            kind: self.kind,
            program_hash: self.program_hash.clone(),
            n,
            ms_q1: q(25),
            ms_median: q(50),
            ms_q3: q(75),
            ms_p90: q(90),
            ms_max: q(100),
            ms_mean: round_ns(ms.iter().sum::<f64>() / n as f64),
            pairs_examined: self.pairs_examined,
            rule_evals: self.rule_evals,
        }
    }
}

/// A millisecond value rounded to whole nanoseconds.
fn round_ns(ms: f64) -> f64 {
    (ms * 1e6).round() / 1e6
}

#[derive(Serialize)]
struct KindRow {
    kind: &'static str,
    /// FNV-1a of the function's rule text before the kind's first trial.
    program_hash: String,
    n: usize,
    ms_q1: f64,
    ms_median: f64,
    ms_q3: f64,
    ms_p90: f64,
    ms_max: f64,
    ms_mean: f64,
    /// Summed over the kind's timed edits.
    pairs_examined: usize,
    rule_evals: u64,
}

#[derive(Serialize)]
struct BenchReport {
    dataset: &'static str,
    scale: f64,
    candidate_pairs: usize,
    rules: usize,
    /// CPUs available to the process that wrote this file.
    host_cpus: usize,
    kinds: Vec<KindRow>,
}

fn main() {
    let mut b = Bench::new();
    println!(
        "## Figure 6 — incremental latency per change type ({} candidate pairs, {TRIALS} trials each)\n",
        b.w.cands.len()
    );
    header(&["Change", "mean (ms)", "max (ms)"]);
    let mut kinds = Vec::new();
    let mut done = |t: Trials| {
        t.print_row();
        kinds.push(t.summary());
    };

    // --- Add a predicate: remove one untimed, re-add it timed. ---
    let mut t = Trials::new("add_predicate", "add predicate", &b);
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
        t.push(&report);
    }
    done(t);

    // --- Remove a predicate: remove timed, re-add untimed. ---
    let mut t = Trials::new("remove_predicate", "remove predicate", &b);
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
        t.push(&report);
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
    done(t);

    // --- Tighten / relax a threshold. ---
    for tighten in [true, false] {
        let mut t = if tighten {
            Trials::new("tighten", "tighten threshold", &b)
        } else {
            Trials::new("relax", "relax threshold", &b)
        };
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
            t.push(&report);
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
        done(t);
    }

    // --- Remove a rule: remove timed, re-add untimed. ---
    let mut t = Trials::new("remove_rule", "remove rule", &b);
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
        t.push(&report);
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
    done(t);

    // --- Add a rule: remove untimed, re-add timed. ---
    let mut t = Trials::new("add_rule", "add rule", &b);
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
        t.push(&report);
    }
    done(t);

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

    let report = BenchReport {
        dataset: "products",
        scale: scale(),
        candidate_pairs: b.w.cands.len(),
        rules: b.func.n_rules(),
        host_cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
        kinds,
    };
    let path = "BENCH_incremental.json";
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("artifact written");
    eprintln!("wrote {path}: {} change types", report.kinds.len());
}
