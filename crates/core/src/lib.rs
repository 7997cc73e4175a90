//! # em-core
//!
//! The core of `rulem`: a faithful, from-scratch implementation of
//! *Towards Interactive Debugging of Rule-based Entity Matching*
//! (EDBT 2017).
//!
//! A boolean **matching function** in DNF — a disjunction of rules, each a
//! conjunction of `similarity(a.attr, b.attr) op threshold` predicates — is
//! evaluated over candidate record pairs. This crate provides:
//!
//! * the **engines** of §4: rudimentary & precomputation baselines, early
//!   exit, and early exit + dynamic memoing ([`engine`]);
//! * the **cost model** of §4.4, including the memo-presence recurrence
//!   ([`costmodel`]);
//! * the **ordering** machinery of §5: Lemma 1–3 predicate orders,
//!   Theorem 1 rule ranks, and the two greedy rule-ordering algorithms
//!   ([`ordering`]);
//! * **incremental matching** of §6 with materialized state
//!   ([`incremental`], [`state`]);
//! * a pluggable [`Executor`] (serial or persistent worker pool) that
//!   every engine, full run, and incremental edit threads through, so the
//!   whole interactive loop runs data-parallel ([`executor`]);
//! * a [`DebugSession`] tying it all together into the interactive
//!   debugging loop the paper motivates.
//!
//! ## Quickstart
//!
//! ```
//! use em_core::{DebugSession, SessionConfig, Rule, CmpOp};
//! use em_similarity::{Measure, TokenScheme};
//! use em_types::{CandidateSet, Record, Schema, Table};
//!
//! let schema = Schema::new(["name"]);
//! let mut a = Table::new("A", schema.clone());
//! a.push(Record::new("a1", ["john smith"]));
//! let mut b = Table::new("B", schema);
//! b.push(Record::new("b1", ["jon smith"]));
//!
//! let cands = CandidateSet::cartesian(&a, &b);
//! let mut session = DebugSession::new(a, b, cands, SessionConfig::default());
//!
//! let f = session.feature(Measure::JaroWinkler, "name", "name").unwrap();
//! let (rid, report) = session
//!     .add_rule(Rule::new().pred(f, CmpOp::Ge, 0.9))
//!     .unwrap();
//! assert_eq!(report.newly_matched.len(), 1);
//! assert_eq!(session.state().fired_rule(0), Some(rid));
//! ```

pub mod analyze;
pub mod bitmap;
pub mod budget;
pub mod command;
pub mod context;
pub mod costmodel;
pub mod edit;
pub mod engine;
pub mod exact;
pub mod executor;
pub mod explain;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod feature;
pub mod function;
pub mod incremental;
pub mod memo;
pub mod obs;
pub mod ordering;
pub mod parse;
pub mod persist;
pub mod porcelain;
pub mod predicate;
pub mod quality;
mod robust;
pub mod rule;
pub mod session;
pub mod simplify;
pub mod state;
pub mod stats;

pub use analyze::{
    analyze, analyze_with, introduced, new_diagnostics, Diagnostic, DiagnosticKind, FixIt,
    Interval, Severity,
};
pub use bitmap::Bitmap;
pub use budget::{CancelToken, Completion, EvalBudget, StopReason};
pub use command::Command;
pub use context::EvalContext;
pub use costmodel::{cost_early_exit, cost_memo, cost_precompute, cost_rudimentary, MemoState};
pub use edit::{Applied, Edit};
pub use engine::{
    run_early_exit, run_memo, run_memo_with, run_precompute, run_rudimentary, EvalStats,
    MatchOutcome, Strategy,
};
pub use exact::{optimal_rule_order, ExactOrder, MAX_EXACT_RULES};
pub use executor::Executor;
pub use explain::{explain_with_costs, Explanation, PredicateTrace, RuleTrace};
#[cfg(feature = "fault-inject")]
pub use fault::{AppendFault, DiskFault, DiskFaultPlan, FaultPlan, IoFaultPlan, SnapshotFault};
pub use feature::{FeatureDef, FeatureId, FeatureRegistry};
pub use function::{EditError, MatchingFunction};
pub use incremental::{
    add_predicate, add_rule, insert_rule, remove_predicate, remove_rule, resume_delta,
    set_threshold, ChangeReport, PendingDelta, WorkerStats,
};
pub use memo::{DenseMemo, Memo, SparseMemo};
pub use ordering::{
    optimize, optimize_predicate_orders, order_predicates, order_rules, order_rules_sample_greedy,
    OrderingAlgo,
};
pub use parse::{parse_function, parse_measure, ParseError, ParseErrorKind, Span};
#[cfg(feature = "fault-inject")]
pub use persist::vfs::FaultVfs;
pub use persist::{
    decode_record, disk_free, install_snapshot_bytes, replay_record, scrub, session_store_dir,
    store_exists, DiskErrorKind, DiskOp, JournalTailer, PersistError, RealVfs, RecoveryReport,
    ScrubClass, ScrubFinding, ScrubReport, SessionStore, SnapshotShipment, StoreLock, TailBatch,
    TailResult, Vfs, Watermark,
};
pub use porcelain::{ChangeLine, HistoryLine, LintLine};
pub use predicate::{CmpOp, PredId, Predicate};
pub use quality::QualityReport;
pub use robust::install_quiet_panic_hook;
pub use rule::{BoundPredicate, BoundRule, Rule, RuleId};
pub use session::{DebugSession, PendingWork, SessionConfig, SessionError, SessionSnapshot};
pub use simplify::{simplify, SimplifyReport};
pub use state::{run_full, FullRunOutcome, MatchState, MemoryReport};
pub use stats::{FunctionStats, DEFAULT_SAMPLE_FRACTION};
