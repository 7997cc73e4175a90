//! Core-layer instrumentation handles.
//!
//! One `OnceLock`-cached struct of `Arc` instrument handles so hot call
//! sites (every edit fold, every journal append) pay a single static
//! lookup, never a registry lock. Counters are process-global totals
//! across every session in the process — exactly what the exposition
//! endpoint and the `metrics` verb report.

use em_metrics::{Counter, Histogram};
use std::sync::Arc;
use std::sync::OnceLock;

pub struct CoreMetrics {
    /// Memoized feature values reused during evaluation
    /// (`EvalStats::memo_lookups`).
    pub memo_hits: Arc<Counter>,
    /// Feature values computed fresh (`EvalStats::feature_computations`).
    pub memo_misses: Arc<Counter>,
    pub predicate_evals: Arc<Counter>,
    pub rule_evals: Arc<Counter>,
    /// Edits interrupted by an evaluation budget (parked for `resume`).
    pub budget_cancellations: Arc<Counter>,
    /// Pairs quarantined by panic isolation.
    pub quarantined_pairs: Arc<Counter>,
    /// Edits folded into sessions (absorb + resume), and full re-runs.
    pub edits: Arc<Counter>,
    pub full_runs: Arc<Counter>,
    /// Wall time of one edit's incremental evaluation.
    pub edit_latency_ns: Arc<Histogram>,
    /// Journal frame append + fsync latency.
    pub journal_append_ns: Arc<Histogram>,
    pub journal_appends: Arc<Counter>,
    /// Snapshot save (journal rotation + atomic snapshot write) latency.
    pub snapshot_save_ns: Arc<Histogram>,
    pub snapshot_saves: Arc<Counter>,
    /// Autosaves that failed after their edit applied (the edit stands;
    /// the next record retries the save).
    pub autosave_failures: Arc<Counter>,
    /// Kernel cost estimate, ns per pair, from `stats` calibration runs.
    pub kernel_ns_per_pair: Arc<Histogram>,
    /// Scrub passes and individual findings.
    pub scrubs: Arc<Counter>,
    pub scrub_findings: Arc<Counter>,
}

/// The process-global core instrument set, registered on first use.
pub fn core_metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = em_metrics::registry();
        CoreMetrics {
            memo_hits: r.counter(
                "em_memo_hits_total",
                "Feature evaluations answered from the memo",
            ),
            memo_misses: r.counter(
                "em_memo_misses_total",
                "Feature evaluations computed fresh (memo misses)",
            ),
            predicate_evals: r.counter(
                "em_predicate_evals_total",
                "Predicate evaluations across all sessions",
            ),
            rule_evals: r.counter(
                "em_rule_evals_total",
                "Rule evaluations across all sessions",
            ),
            budget_cancellations: r.counter(
                "em_budget_cancellations_total",
                "Edits interrupted by an evaluation budget and parked for resume",
            ),
            quarantined_pairs: r.counter(
                "em_quarantined_pairs_total",
                "Pairs quarantined by panic isolation",
            ),
            edits: r.counter(
                "em_edits_total",
                "Incremental edits folded into sessions (including resumes)",
            ),
            full_runs: r.counter("em_full_runs_total", "Full from-scratch matching runs"),
            edit_latency_ns: r.histogram(
                "em_edit_latency_ns",
                "Wall time of one edit's incremental evaluation",
            ),
            journal_append_ns: r.histogram(
                "em_journal_append_ns",
                "Journal frame append + fsync latency",
            ),
            journal_appends: r.counter(
                "em_journal_appends_total",
                "Journal frames appended and fsynced",
            ),
            snapshot_save_ns: r.histogram(
                "em_snapshot_save_ns",
                "Snapshot save (fold + atomic write) latency",
            ),
            snapshot_saves: r.counter("em_snapshot_saves_total", "Snapshots saved"),
            autosave_failures: r.counter(
                "em_autosave_failures_total",
                "Autosaves that failed after their edit applied; the next record retries",
            ),
            kernel_ns_per_pair: r.histogram(
                "em_kernel_ns_per_pair",
                "Calibrated kernel cost estimates, ns per pair",
            ),
            scrubs: r.counter("em_scrubs_total", "Store scrub passes"),
            scrub_findings: r.counter(
                "em_scrub_findings_total",
                "Individual findings across all scrub passes",
            ),
        }
    })
}

/// Records one evaluation round (an edit fold, a resume, or a full run)
/// into the process counters.
pub(crate) fn record_eval(
    stats: &crate::engine::EvalStats,
    quarantined: usize,
    partial: bool,
    elapsed: std::time::Duration,
) {
    if !em_metrics::enabled() {
        return;
    }
    let m = core_metrics();
    m.memo_hits.add(stats.memo_lookups);
    m.memo_misses.add(stats.feature_computations);
    m.predicate_evals.add(stats.predicate_evals);
    m.rule_evals.add(stats.rule_evals);
    m.quarantined_pairs.add(quarantined as u64);
    if partial {
        m.budget_cancellations.inc();
    }
    m.edit_latency_ns.record_duration(elapsed);
}
