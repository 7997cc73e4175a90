//! The human renderer: the REPL's prose for every command outcome.
//!
//! The outcome comes from [`em_core::command::execute`], the executor the
//! wire shares; only this text is specific to the CLI.

use em_core::command::{Change, ChangeOp, Outcome};
use em_core::{ChangeReport, Completion, Diagnostic, Severity, StopReason};
use std::fmt::Write as _;

/// Renders one outcome as the REPL prints it.
pub fn render(outcome: &Outcome) -> String {
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    match outcome {
        Outcome::Text(text) => text.clone(),
        Outcome::Change(change) => render_change(change),
        Outcome::Noop(verb) => format!("nothing to {verb}"),
        Outcome::Run {
            matches,
            stats,
            quarantined,
            elapsed,
        } => {
            let mut out = format!(
                "full run in {elapsed:?}: {matches} matches, {} computations, {} lookups",
                stats.feature_computations, stats.memo_lookups
            );
            if !quarantined.is_empty() {
                let _ = write!(
                    out,
                    "\nquarantined {} pair(s): {}",
                    quarantined.len(),
                    preview(quarantined)
                );
            }
            out
        }
        Outcome::Lint(diags) if diags.is_empty() => "no findings".to_string(),
        Outcome::Lint(diags) => {
            let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
            let mut out = format!(
                "{} finding(s): {} error(s), {} warning(s), {} info",
                diags.len(),
                count(Severity::Error),
                count(Severity::Warning),
                count(Severity::Info),
            );
            for d in diags {
                let _ = write!(out, "\n  {}", render_diagnostic(d));
            }
            out
        }
        Outcome::Simplify { report, .. } if report.is_noop() => "already minimal".to_string(),
        Outcome::Simplify { report, rules } => format!(
            "simplified: removed {} dominated predicates, {} unsatisfiable rules, {} subsumed \
             rules ({rules} rules remain)",
            report.dominated_predicates.len(),
            report.unsatisfiable_rules.len(),
            report.subsumed_rules.len(),
        ),
        Outcome::Optimize {
            algo,
            matches,
            elapsed,
        } => format!(
            "reordered with {} and re-ran in {elapsed:?} ({matches} matches unchanged-correct)",
            algo.label()
        ),
        Outcome::Rules { rules, .. } if rules.is_empty() => "(no rules)".to_string(),
        Outcome::Rules {
            rules,
            n_predicates,
            matches,
        } => {
            let mut out = String::new();
            for (rid, preds) in rules {
                let preds: Vec<String> = preds
                    .iter()
                    .map(|(pid, text)| format!("[{pid}] {text}"))
                    .collect();
                let _ = writeln!(out, "{rid}: {}", preds.join(" AND "));
            }
            let _ = write!(
                out,
                "{} rules / {n_predicates} predicates, {matches} matches",
                rules.len()
            );
            out
        }
        Outcome::Matches { total, shown } => {
            let mut out = format!("{total} matches");
            for (row, fired) in shown {
                let fired = fired.map(|r| r.to_string()).unwrap_or_default();
                let _ = write!(
                    out,
                    "\n  #{} [{fired}] {} ({:?}) ~ {} ({:?})",
                    row.pair, row.a, row.a_value, row.b, row.b_value
                );
            }
            if *total > shown.len() {
                let _ = write!(out, "\n  … and {} more", total - shown.len());
            }
            out
        }
        Outcome::NearMisses { feature, rows } => {
            let mut out = format!("top {} unmatched pairs by {feature}:", rows.len());
            for (row, v) in rows {
                let _ = write!(
                    out,
                    "\n  #{} {v:.4}  {} ({:?}) ~ {} ({:?})",
                    row.pair, row.a, row.a_value, row.b, row.b_value
                );
            }
            out
        }
        Outcome::Quality(q) => format!(
            "P = {:.3}  R = {:.3}  F1 = {:.3}  (tp {} fp {} fn {} tn {})",
            q.precision(),
            q.recall(),
            q.f1(),
            q.true_positives,
            q.false_positives,
            q.false_negatives,
            q.true_negatives
        ),
        Outcome::Status { dir: None, .. } => "ephemeral session — no store directory".to_string(),
        Outcome::Status {
            dir: Some(dir),
            epoch,
            journal_records,
            store_bytes,
            journal_bytes,
            disk_free,
        } => format!(
            "store: {} (epoch {}, {journal_records} journal records since save)\n\
             snapshots + history: {:.2} MB | journals: {:.2} MB | disk free: {}",
            dir.display(),
            epoch.unwrap_or(0),
            mb(*store_bytes),
            mb(*journal_bytes),
            disk_free.map_or("unknown".to_string(), |b| format!("{:.2} MB", mb(b))),
        ),
        Outcome::Memory {
            report,
            memo_values,
        } => {
            let mb = |b: usize| mb(b as u64);
            format!(
                "memo: {:.2} MB ({memo_values} values) | bitmaps: {:.2} MB ({} rule + {} \
                 predicate) | total {:.2} MB",
                mb(report.memo_bytes),
                mb(report.bitmap_bytes),
                report.n_rule_bitmaps,
                report.n_pred_bitmaps,
                mb(report.total_bytes())
            )
        }
        Outcome::History(history) if history.is_empty() => "(no edits yet)".to_string(),
        Outcome::History(history) => {
            let rows: Vec<String> = history
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    format!(
                        "{:>3}. {:<40} {:>5} changed {:>7} examined {:>12?}",
                        i + 1,
                        e.description,
                        e.n_changed,
                        e.pairs_examined,
                        e.elapsed
                    )
                })
                .collect();
            rows.join("\n")
        }
        Outcome::Features(features) if features.is_empty() => "(no features interned)".to_string(),
        Outcome::Features(features) => {
            let rows: Vec<String> = features
                .iter()
                .map(|(fid, name)| format!("{fid}: {name}"))
                .collect();
            rows.join("\n")
        }
        Outcome::Saved { epoch, dir } => {
            format!("saved snapshot epoch {epoch} to {}", dir.display())
        }
    }
}

/// One edit's summary line, its interruption/quarantine notes, and one
/// `lint:` line per finding it introduced.
fn render_change(change: &Change) -> String {
    let Change {
        op,
        report: r,
        undo_depth,
        advisories,
    } = change;
    let (plus, minus) = (r.newly_matched.len(), r.newly_unmatched.len());
    let (examined, elapsed) = (r.pairs_examined, r.elapsed);
    let mut out = match op {
        ChangeOp::AddRule(rid) => format!(
            "added rule {rid}: +{plus} / -{minus} verdicts, {examined} pairs examined, {elapsed:?}"
        ),
        ChangeOp::RemoveRule(rid) => {
            format!("removed {rid}: +{plus} / -{minus} verdicts in {elapsed:?}")
        }
        ChangeOp::AddPredicate(rid, pid) => format!(
            "added {pid} to {rid}: -{minus} verdicts, {examined} pairs examined, {elapsed:?}"
        ),
        ChangeOp::RemovePredicate(pid) => format!("removed {pid}: +{plus} verdicts in {elapsed:?}"),
        ChangeOp::SetThreshold(pid, t) => format!(
            "set {pid} to {t}: +{plus} / -{minus} verdicts, {examined} pairs examined, {elapsed:?}"
        ),
        ChangeOp::Undo => format!(
            "undone: +{plus} / -{minus} verdicts in {elapsed:?} ({undo_depth} edits remain \
             undoable)"
        ),
        ChangeOp::Resume => {
            format!("resumed: +{plus} / -{minus} verdicts, {examined} pairs examined, {elapsed:?}")
        }
    };
    out.push_str(&report_suffix(r));
    for d in advisories {
        let _ = write!(out, "\nlint: {}", render_diagnostic(d));
    }
    out
}

/// One human-readable lint finding: `severity[kind] message (fix: `…`)`.
fn render_diagnostic(d: &Diagnostic) -> String {
    let mut out = format!("{}[{}] {}", d.severity, d.kind, d.message);
    if let Some(fix) = &d.fix {
        let _ = write!(
            out,
            " (fix: `{}`{})",
            fix.command_text(),
            if d.safe { ", safe" } else { "" }
        );
    }
    out
}

/// Extra report lines for an interrupted or fault-isolated edit; empty
/// when the edit completed cleanly.
fn report_suffix(report: &ChangeReport) -> String {
    let mut out = String::new();
    if let Completion::Partial { remaining, reason } = &report.completion {
        let why = match reason {
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
        };
        let _ = write!(
            out,
            "\npartial ({why}): {} pairs pending — `resume` to continue",
            remaining.len()
        );
    }
    if !report.quarantined.is_empty() {
        let _ = write!(
            out,
            "\nquarantined {} pair(s): {}",
            report.quarantined.len(),
            preview(&report.quarantined)
        );
    }
    out
}

/// Formats up to eight pair indices, eliding the rest.
fn preview(pairs: &[usize]) -> String {
    let shown: Vec<String> = pairs.iter().take(8).map(|i| format!("#{i}")).collect();
    if pairs.len() > 8 {
        format!("{} … and {} more", shown.join(" "), pairs.len() - 8)
    } else {
        shown.join(" ")
    }
}
