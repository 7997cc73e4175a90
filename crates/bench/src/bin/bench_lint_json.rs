//! Machine-readable lint benchmark, written to `BENCH_lint.json`.
//!
//! For programs of 24 and 240 rules drawn from the products rule pool
//! (`Workload::function_with_rules`), one row per operation:
//!
//! - `analyze`: the whole-program pass behind `lint`;
//! - `introduced/<kind>`: the advisories of one fixed edit of each of the
//!   five analyst kinds (`add_rule`, `remove_rule`, `add_predicate`,
//!   `remove_predicate`, `set_threshold`), computed from the edited
//!   rule's two versions as every edit command does.
//!
//! Each row times `reps` single calls after one untimed warm-up and gives
//! their median and quartiles in µs, with the program's rule-text hash.
//! The overlap blocker declares no join guarantee, so none is passed.
//!
//! Env:
//! - `SCALE`      dataset scale (default 0.1, see `em_bench::scale`)
//! - `BENCH_OUT`  output path (default `BENCH_lint.json`)

use em_bench::{program_hash, scale, Workload, SEED};
use em_core::rule::{BoundRule, Rule, RuleId};
use em_core::{analyze, introduced, MatchingFunction};
use serde::Serialize;
use std::time::Instant;

/// Timed calls per row (after one untimed warm-up).
const REPS: usize = 101;
/// Program sizes.
const RULES: [usize; 2] = [24, 240];

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

#[derive(Serialize)]
struct Row {
    rules: usize,
    /// `analyze` or `introduced/<edit kind>`.
    op: String,
    /// FNV-1a of the program's rule text (before the edit).
    program_hash: String,
    /// Findings the call returned.
    findings: usize,
    n: usize,
    us_q1: f64,
    us_median: f64,
    us_q3: f64,
}

#[derive(Serialize)]
struct BenchReport {
    dataset: String,
    scale: f64,
    /// CPUs available to the process that wrote this file.
    host_cpus: usize,
    rows: Vec<Row>,
}

/// One analyst edit applied to a copy of `func`: the function after it,
/// the rule it touched, and that rule's version and position before it.
struct FixedEdit {
    kind: &'static str,
    after: MatchingFunction,
    edited: RuleId,
    before_rule: Option<(BoundRule, usize)>,
}

/// The five fixed edits, all on the middle rule except `remove_predicate`,
/// which takes the first rule from the middle on with two predicates.
fn fixed_edits(func: &MatchingFunction) -> Vec<FixedEdit> {
    let n = func.n_rules();
    let rule = &func.rules()[n / 2];
    let first = &rule.preds[0];
    let multi = (0..n)
        .map(|k| &func.rules()[(n / 2 + k) % n])
        .find(|r| r.preds.len() > 1)
        .expect("the pool has a rule with two predicates");
    let edit = |kind, apply: &dyn Fn(&mut MatchingFunction) -> RuleId| {
        let mut after = func.clone();
        let edited = apply(&mut after);
        let before_rule = func
            .rule(edited)
            .map(|r| (r.clone(), func.rule_position(edited).expect("rule is live")));
        FixedEdit {
            kind,
            after,
            edited,
            before_rule,
        }
    };
    vec![
        // A copy of the middle rule: a duplicate.
        edit("add_rule", &|f| {
            f.add_rule(Rule::with(rule.preds.iter().map(|bp| bp.pred)))
                .expect("a copy of a live rule is well-formed")
        }),
        edit("remove_rule", &|f| {
            f.remove_rule(rule.id).expect("rule is live").id
        }),
        // The first predicate again, tightened: a redundant sibling.
        edit("add_predicate", &|f| {
            let mut pred = first.pred;
            pred.threshold += 0.05;
            f.add_predicate(rule.id, pred).expect("rule is live");
            rule.id
        }),
        edit("remove_predicate", &|f| {
            f.remove_predicate(multi.preds[0].id)
                .expect("rule keeps a predicate");
            multi.id
        }),
        // A relaxation of the middle rule's first predicate.
        edit("set_threshold", &|f| {
            f.set_threshold(first.id, first.pred.threshold - 0.1)
                .expect("predicate is live");
            rule.id
        }),
    ]
}

/// Quartiles of `reps` timed calls of `call` in µs, after one warm-up, and
/// the number of findings the call returned.
fn time(mut call: impl FnMut() -> usize) -> (usize, [f64; 3]) {
    let findings = call();
    let mut us: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(call());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let q = |k: usize| round2(us[k * (REPS - 1) / 4]);
    (findings, [q(1), q(2), q(3)])
}

fn main() {
    let sc = scale();
    let w = Workload::products(sc, 240);
    let mut rows = Vec::new();
    for n in RULES {
        let func = w.function_with_rules(n, SEED);
        let program_hash = program_hash(&func, &w.ctx);
        let mut row = |op: String, (findings, [q1, median, q3]): (usize, [f64; 3])| {
            rows.push(Row {
                rules: func.n_rules(),
                op,
                program_hash: program_hash.clone(),
                findings,
                n: REPS,
                us_q1: q1,
                us_median: median,
                us_q3: q3,
            });
        };
        row(
            "analyze".to_string(),
            time(|| analyze(&func, &w.ctx, &[]).len()),
        );
        for e in fixed_edits(&func) {
            let before_rule = e.before_rule.as_ref().map(|(r, pos)| (r, *pos));
            row(
                format!("introduced/{}", e.kind),
                time(|| introduced(before_rule, &e.after, e.edited, &w.ctx, &[]).len()),
            );
        }
    }

    let report = BenchReport {
        dataset: "products".to_string(),
        scale: sc,
        host_cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
        rows,
    };
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_lint.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("artifact written");

    eprintln!("wrote {path}: {} rows", report.rows.len());
    for r in &report.rows {
        eprintln!(
            "  {:>3} rules ({})  {:<30} {:>4} findings  median {:>9.2} µs  [{:.2}, {:.2}]",
            r.rules, r.program_hash, r.op, r.findings, r.us_median, r.us_q1, r.us_q3
        );
    }
}
