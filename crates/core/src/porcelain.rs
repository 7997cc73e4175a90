//! Machine-readable renderings of command outcomes.
//!
//! "Porcelain" output (in the `git --porcelain` sense) is the stable,
//! parse-friendly rendering of a [`command::Outcome`]: one line of JSON
//! with flat scalar fields per record, listings as JSONL behind a header
//! record. [`render`] is the wire payload of every command — the
//! `em-server` protocol always speaks it, and the CLI prints exactly the
//! same under `--porcelain` — so scripted clients never scrape the
//! human-facing text. [`ChangeLine`], [`HistoryLine`] and [`LintLine`]
//! also parse back, for clients.
//!
//! Durations travel as integer microseconds: the vendored serde stand-in
//! has no `Duration` support, and microseconds are the natural unit for
//! the paper's sub-second interactive loop.

use crate::analyze::{Diagnostic, Severity};
use crate::budget::{Completion, StopReason};
use crate::command::{self, Outcome};
use crate::incremental::ChangeReport;
use crate::predicate::PredId;
use crate::rule::RuleId;
use crate::session::EditRecord;
use std::time::Duration;

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One edit outcome as a flat record: the wire/porcelain form of a
/// [`ChangeReport`], tagged with the operation that produced it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChangeLine {
    /// Record discriminator; always `"change"`.
    pub event: String,
    /// The operation: `add_rule`, `remove_rule`, `add_predicate`,
    /// `remove_predicate`, `set_threshold`, `undo`, `resume`.
    pub op: String,
    /// Rule id the operation minted or targeted (e.g. `"r3"`), if any.
    pub rule: Option<String>,
    /// Predicate id the operation minted or targeted (e.g. `"p7"`), if any.
    pub pred: Option<String>,
    /// Pairs that flipped unmatch → match.
    pub newly_matched: usize,
    /// Pairs that flipped match → unmatch.
    pub newly_unmatched: usize,
    /// Pairs the edit re-examined.
    pub pairs_examined: usize,
    /// Similarity values computed from scratch.
    pub feature_computations: u64,
    /// Similarity values read from the memo.
    pub memo_lookups: u64,
    /// Worker threads that participated in the delta evaluation.
    pub workers: usize,
    /// Wall-clock latency in microseconds.
    pub elapsed_us: u64,
    /// `"complete"`, `"deadline"`, or `"cancelled"`.
    pub completion: String,
    /// Pairs still unexamined when the budget tripped (0 when complete).
    pub remaining: usize,
    /// Pairs quarantined by panic isolation during this edit.
    pub quarantined: usize,
}

impl ChangeLine {
    /// Builds the porcelain record for one edit outcome.
    pub fn new(
        op: &str,
        rule: Option<RuleId>,
        pred: Option<PredId>,
        report: &ChangeReport,
    ) -> Self {
        let (completion, remaining) = match &report.completion {
            Completion::Complete => ("complete".to_string(), 0),
            Completion::Partial { remaining, reason } => (
                match reason {
                    StopReason::Deadline => "deadline".to_string(),
                    StopReason::Cancelled => "cancelled".to_string(),
                },
                remaining.len(),
            ),
        };
        ChangeLine {
            event: "change".to_string(),
            op: op.to_string(),
            rule: rule.map(|r| r.to_string()),
            pred: pred.map(|p| p.to_string()),
            newly_matched: report.newly_matched.len(),
            newly_unmatched: report.newly_unmatched.len(),
            pairs_examined: report.pairs_examined,
            feature_computations: report.stats.feature_computations,
            memo_lookups: report.stats.memo_lookups,
            workers: report.worker_stats.len(),
            elapsed_us: micros(report.elapsed),
            completion,
            remaining,
            quarantined: report.quarantined.len(),
        }
    }

    /// Whether the edit ran to completion (nothing parked for `resume`).
    pub fn is_complete(&self) -> bool {
        self.completion == "complete"
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ChangeLine serializes infallibly")
    }

    /// Parses a line produced by [`ChangeLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain change line: {e}"))
    }
}

/// One history entry as a flat record: the wire/porcelain form of an
/// [`EditRecord`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistoryLine {
    /// Record discriminator; always `"edit"`.
    pub event: String,
    /// Position in the session's history, starting at 1.
    pub seq: usize,
    /// Human-readable description of the edit (stable: it is part of the
    /// durable history).
    pub description: String,
    /// Verdicts the edit flipped.
    pub n_changed: usize,
    /// Pairs the edit re-examined.
    pub pairs_examined: usize,
    /// Worker threads that participated.
    pub workers: usize,
    /// Wall-clock latency in microseconds.
    pub elapsed_us: u64,
}

impl HistoryLine {
    /// Builds the porcelain record for history entry `seq` (1-based).
    pub fn new(seq: usize, record: &EditRecord) -> Self {
        HistoryLine {
            event: "edit".to_string(),
            seq,
            description: record.description.clone(),
            n_changed: record.n_changed,
            pairs_examined: record.pairs_examined,
            workers: record.worker_stats.len(),
            elapsed_us: micros(record.elapsed),
        }
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("HistoryLine serializes infallibly")
    }

    /// Parses a line produced by [`HistoryLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain history line: {e}"))
    }
}

/// One static-analysis finding as a flat record: the wire/porcelain form
/// of a [`Diagnostic`] (the `lint` command emits one line per finding;
/// the edit path emits them as advisories when an edit introduces new
/// findings).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LintLine {
    /// Record discriminator; always `"lint"`.
    pub event: String,
    /// The diagnostic kind's stable snake_case label, e.g.
    /// `"unsatisfiable_rule"`.
    pub kind: String,
    /// `"error"`, `"warning"`, or `"info"`.
    pub severity: String,
    /// The rule the finding is about (e.g. `"r3"`).
    pub rule: String,
    /// The rule's 0-based position in evaluation order.
    pub rule_pos: usize,
    /// The predicate the finding is about (e.g. `"p7"`), if any.
    pub pred: Option<String>,
    /// The predicate's 0-based position within its rule, if any.
    pub pred_pos: Option<usize>,
    /// The feature involved (e.g. `"f2"`), if any.
    pub feature: Option<String>,
    /// The other rule involved (subsumer / first duplicate), if any.
    pub other_rule: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Suggested repair as a command line in the edit grammar (e.g.
    /// `"rm r3"`), if one exists.
    pub fix: Option<String>,
    /// Whether applying `fix` is guaranteed to leave all verdicts bitwise
    /// unchanged.
    pub safe: bool,
}

impl LintLine {
    /// Builds the porcelain record for one diagnostic.
    pub fn new(d: &Diagnostic) -> Self {
        LintLine {
            event: "lint".to_string(),
            kind: d.kind.label().to_string(),
            severity: d.severity.label().to_string(),
            rule: d.rule.to_string(),
            rule_pos: d.rule_pos,
            pred: d.pred.map(|p| p.to_string()),
            pred_pos: d.pred_pos,
            feature: d.feature.map(|f| f.to_string()),
            other_rule: d.other_rule.map(|r| r.to_string()),
            message: d.message.clone(),
            fix: d.fix.map(|f| f.command_text()),
            safe: d.safe,
        }
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LintLine serializes infallibly")
    }

    /// Parses a line produced by [`LintLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain lint line: {e}"))
    }
}

/// The wire payload of one command outcome.
pub fn render(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Text(text) => json(&TextLine {
            event: "text",
            text: text.clone(),
        }),
        Outcome::Change(change) => {
            let command::Change {
                op,
                report,
                advisories,
                ..
            } = change;
            let line = ChangeLine::new(op.label(), op.rule(), op.pred(), report).to_json();
            jsonl(line, advisories.iter().map(LintLine::new))
        }
        Outcome::Noop(op) => json(&NoopLine { event: "noop", op }),
        Outcome::Run {
            matches,
            stats,
            quarantined,
            ..
        } => json(&RunLine {
            event: "run",
            matches: *matches,
            feature_computations: stats.feature_computations,
            memo_lookups: stats.memo_lookups,
            quarantined: quarantined.len(),
        }),
        Outcome::Lint(diags) => {
            let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
            let header = json(&LintReportLine {
                event: "lint_report",
                total: diags.len(),
                errors: count(Severity::Error),
                warnings: count(Severity::Warning),
                infos: count(Severity::Info),
            });
            jsonl(header, diags.iter().map(LintLine::new))
        }
        Outcome::Simplify { report, rules } => json(&SimplifyLine {
            event: "simplify",
            dominated: report.dominated_predicates.len(),
            unsatisfiable: report.unsatisfiable_rules.len(),
            subsumed: report.subsumed_rules.len(),
            rules: *rules,
        }),
        Outcome::Optimize { algo, matches, .. } => json(&OptimizeLine {
            event: "optimize",
            algo: algo.label(),
            matches: *matches,
        }),
        Outcome::Rules {
            rules,
            n_predicates,
            matches,
        } => {
            let header = json(&RulesLine {
                event: "rules",
                n_rules: rules.len(),
                n_predicates: *n_predicates,
                matches: *matches,
            });
            let rows = rules.iter().map(|(id, preds)| RuleLine {
                event: "rule",
                id: id.to_string(),
                text: preds
                    .iter()
                    .map(|(_, text)| text.as_str())
                    .collect::<Vec<_>>()
                    .join(" AND "),
            });
            jsonl(header, rows)
        }
        Outcome::Matches { total, shown } => {
            let header = json(&MatchesLine {
                event: "matches",
                total: *total,
                shown: shown.len(),
            });
            let rows = shown.iter().map(|(row, rule)| MatchLine {
                event: "match",
                pair: row.pair,
                rule: rule.map(|r| r.to_string()),
                a: row.a.clone(),
                b: row.b.clone(),
            });
            jsonl(header, rows)
        }
        Outcome::NearMisses { feature, rows } => {
            let header = json(&NearMissesLine {
                event: "near_misses",
                feature: feature.clone(),
                count: rows.len(),
            });
            let rows = rows.iter().map(|(row, value)| MissLine {
                event: "miss",
                pair: row.pair,
                value: *value,
                a: row.a.clone(),
                b: row.b.clone(),
            });
            jsonl(header, rows)
        }
        Outcome::Quality(q) => json(&QualityLine {
            event: "quality",
            precision: q.precision(),
            recall: q.recall(),
            f1: q.f1(),
            true_positives: q.true_positives,
            false_positives: q.false_positives,
            false_negatives: q.false_negatives,
            true_negatives: q.true_negatives,
        }),
        Outcome::Status {
            epoch,
            journal_records,
            store_bytes,
            journal_bytes,
            disk_free,
            ..
        } => json(&StoreStatusLine {
            event: "status",
            epoch: *epoch,
            journal_records: *journal_records,
            store_bytes: *store_bytes,
            journal_bytes: *journal_bytes,
            disk_free: *disk_free,
        }),
        Outcome::Memory {
            report,
            memo_values,
        } => json(&MemoryLine {
            event: "memory",
            memo_bytes: report.memo_bytes,
            memo_values: *memo_values,
            bitmap_bytes: report.bitmap_bytes,
            total_bytes: report.total_bytes(),
        }),
        Outcome::History(history) => {
            let header = json(&TotalLine {
                event: "history",
                total: history.len(),
            });
            let rows = history.iter().enumerate();
            jsonl(header, rows.map(|(i, e)| HistoryLine::new(i + 1, e)))
        }
        Outcome::Features(features) => {
            let header = json(&TotalLine {
                event: "features",
                total: features.len(),
            });
            let rows = features.iter().map(|(id, name)| FeatureLine {
                event: "feature",
                id: id.to_string(),
                name: name.clone(),
            });
            jsonl(header, rows)
        }
        Outcome::Saved { epoch, .. } => json(&SavedLine {
            event: "saved",
            epoch: *epoch,
        }),
    }
}

fn json<T: serde::Serialize>(record: &T) -> String {
    serde_json::to_string(record).expect("porcelain records serialize infallibly")
}

/// `first`, then one JSON line per row: the wire shape of every listing
/// (a header record, then its rows) and of an edit with its advisories.
pub fn jsonl<T: serde::Serialize>(first: String, rows: impl IntoIterator<Item = T>) -> String {
    let mut out = first;
    for row in rows {
        out.push('\n');
        out.push_str(&json(&row));
    }
    out
}

// The records below exist only to be serialized by `render`; each one's
// `event` field names its shape.

#[derive(serde::Serialize)]
struct TextLine {
    event: &'static str,
    text: String,
}

#[derive(serde::Serialize)]
struct NoopLine {
    event: &'static str,
    op: &'static str,
}

#[derive(serde::Serialize)]
struct RunLine {
    event: &'static str,
    matches: usize,
    feature_computations: u64,
    memo_lookups: u64,
    quarantined: usize,
}

#[derive(serde::Serialize)]
struct LintReportLine {
    event: &'static str,
    total: usize,
    errors: usize,
    warnings: usize,
    infos: usize,
}

#[derive(serde::Serialize)]
struct SimplifyLine {
    event: &'static str,
    dominated: usize,
    unsatisfiable: usize,
    subsumed: usize,
    rules: usize,
}

#[derive(serde::Serialize)]
struct OptimizeLine {
    event: &'static str,
    algo: &'static str,
    matches: usize,
}

#[derive(serde::Serialize)]
struct RulesLine {
    event: &'static str,
    n_rules: usize,
    n_predicates: usize,
    matches: usize,
}

#[derive(serde::Serialize)]
struct RuleLine {
    event: &'static str,
    id: String,
    text: String,
}

#[derive(serde::Serialize)]
struct MatchesLine {
    event: &'static str,
    total: usize,
    shown: usize,
}

#[derive(serde::Serialize)]
struct MatchLine {
    event: &'static str,
    pair: usize,
    rule: Option<String>,
    a: String,
    b: String,
}

#[derive(serde::Serialize)]
struct NearMissesLine {
    event: &'static str,
    feature: String,
    count: usize,
}

#[derive(serde::Serialize)]
struct MissLine {
    event: &'static str,
    pair: usize,
    value: f64,
    a: String,
    b: String,
}

#[derive(serde::Serialize)]
struct QualityLine {
    event: &'static str,
    precision: f64,
    recall: f64,
    f1: f64,
    true_positives: usize,
    false_positives: usize,
    false_negatives: usize,
    true_negatives: usize,
}

#[derive(serde::Serialize)]
struct StoreStatusLine {
    event: &'static str,
    epoch: Option<u64>,
    journal_records: usize,
    store_bytes: u64,
    journal_bytes: u64,
    disk_free: Option<u64>,
}

#[derive(serde::Serialize)]
struct MemoryLine {
    event: &'static str,
    memo_bytes: usize,
    memo_values: usize,
    bitmap_bytes: usize,
    total_bytes: usize,
}

#[derive(serde::Serialize)]
struct TotalLine {
    event: &'static str,
    total: usize,
}

#[derive(serde::Serialize)]
struct FeatureLine {
    event: &'static str,
    id: String,
    name: String,
}

#[derive(serde::Serialize)]
struct SavedLine {
    event: &'static str,
    epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalStats;

    fn demo_report() -> ChangeReport {
        ChangeReport {
            newly_matched: vec![1, 4, 9],
            newly_unmatched: vec![2],
            pairs_examined: 120,
            stats: EvalStats {
                feature_computations: 80,
                memo_lookups: 40,
                predicate_evals: 120,
                rule_evals: 120,
            },
            worker_stats: Vec::new(),
            elapsed: Duration::from_micros(1500),
            completion: Completion::Complete,
            quarantined: Vec::new(),
        }
    }

    #[test]
    fn change_line_roundtrips_and_is_one_line() {
        let line = ChangeLine::new("add_rule", Some(RuleId(3)), None, &demo_report());
        let json = line.to_json();
        assert!(!json.contains('\n'), "porcelain must be one line: {json}");
        assert!(json.contains("\"rule\":\"r3\""), "{json}");
        assert!(line.is_complete());
        assert_eq!(ChangeLine::from_json(&json).unwrap(), line);
    }

    #[test]
    fn partial_completion_carries_reason_and_remaining() {
        let mut report = demo_report();
        report.completion = Completion::Partial {
            remaining: vec![7, 8, 9],
            reason: StopReason::Cancelled,
        };
        let line = ChangeLine::new("set_threshold", None, Some(PredId(2)), &report);
        assert!(!line.is_complete());
        assert_eq!(line.completion, "cancelled");
        assert_eq!(line.remaining, 3);
        assert_eq!(line.pred.as_deref(), Some("p2"));
    }

    #[test]
    fn lint_line_roundtrips() {
        use crate::analyze::{DiagnosticKind, FixIt, Severity};
        use crate::feature::FeatureId;
        let d = Diagnostic {
            kind: DiagnosticKind::RedundantPredicate,
            severity: Severity::Warning,
            rule: RuleId(2),
            rule_pos: 1,
            pred: Some(PredId(7)),
            pred_pos: Some(0),
            feature: Some(FeatureId(3)),
            other_rule: None,
            message: "p7 is implied by a stricter sibling bound on f3".to_string(),
            fix: Some(FixIt::DropPredicate(PredId(7))),
            safe: true,
        };
        let line = LintLine::new(&d);
        let json = line.to_json();
        assert!(!json.contains('\n'), "porcelain must be one line: {json}");
        assert!(json.contains("\"event\":\"lint\""), "{json}");
        assert!(json.contains("\"kind\":\"redundant_predicate\""), "{json}");
        assert!(json.contains("\"severity\":\"warning\""), "{json}");
        assert!(json.contains("\"fix\":\"rmpred p7\""), "{json}");
        assert_eq!(LintLine::from_json(&json).unwrap(), line);
    }

    #[test]
    fn history_line_roundtrips() {
        let record = EditRecord {
            description: "add rule r0".to_string(),
            n_changed: 5,
            pairs_examined: 100,
            worker_stats: Vec::new(),
            elapsed: Duration::from_millis(2),
        };
        let line = HistoryLine::new(1, &record);
        let json = line.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(HistoryLine::from_json(&json).unwrap(), line);
        assert_eq!(line.elapsed_us, 2000);
    }
}
