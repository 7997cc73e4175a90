//! The textual command grammar shared by the CLI REPL and the server's
//! wire protocol, and its one executor.
//!
//! Both front ends (`em-cli`'s REPL and `em-server`'s line protocol) parse
//! exactly this grammar and run it through [`execute`], which owns every
//! session call, argument check and lint advisory and returns a typed
//! [`Outcome`]. Only rendering differs per surface: the wire payload is
//! [`crate::porcelain::render`] (also what the CLI prints under
//! `--porcelain`), the human text lives in `em-cli`.

use crate::analyze::{introduced, Diagnostic};
use crate::engine::EvalStats;
use crate::feature::FeatureId;
use crate::incremental::ChangeReport;
use crate::ordering::OrderingAlgo;
use crate::persist::{disk_free, PersistError, SessionStore};
use crate::predicate::PredId;
use crate::quality::QualityReport;
use crate::rule::RuleId;
use crate::session::{EditRecord, SessionError};
use crate::simplify::SimplifyReport;
use crate::state::MemoryReport;
use em_types::LabeledPair;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One parsed REPL command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `help`
    Help,
    /// `add <rule text>` — add a rule written in the rule language.
    AddRule(String),
    /// `rules` — list rules with ids.
    ListRules,
    /// `rm r<k>` — remove a rule.
    RemoveRule(RuleId),
    /// `addpred r<k> <predicate text>` — add a predicate to a rule.
    AddPredicate(RuleId, String),
    /// `rmpred p<k>` — remove a predicate.
    RemovePredicate(PredId),
    /// `set p<k> <threshold>` — change a predicate threshold.
    SetThreshold(PredId, f64),
    /// `undo` — revert the most recent edit.
    Undo,
    /// `resume` — finish a partially-applied edit (deadline/cancel).
    Resume,
    /// `simplify` — drop dominated predicates and subsumed rules.
    Simplify,
    /// `lint` — static analysis: report unsatisfiable/duplicate/subsumed
    /// rules, redundant or vacuous predicates, with fix-it suggestions.
    Lint,
    /// `run` — re-run matching from scratch (memo retained).
    Run,
    /// `matches [n]` — show up to n matched pairs (default 10).
    Matches(usize),
    /// `explain <pair-index>` — trace one pair's verdict.
    Explain(usize),
    /// `misses f<k> [n]` — top-n unmatched pairs by feature f<k>.
    NearMisses(FeatureId, usize),
    /// `quality` — precision/recall against loaded labels.
    Quality,
    /// `stats` — estimated feature costs and predicate selectivities.
    Stats,
    /// `status` — session health: store footprint, journal backlog, disk
    /// free space, and degraded state.
    Status,
    /// `optimize [random|rank|alg5|alg6]` — reorder rules/predicates.
    Optimize(OrderingAlgo),
    /// `memory` — materialization footprint.
    MemoryReport,
    /// `history` — edit log with latencies.
    History,
    /// `features` — list interned features.
    Features,
    /// `save` — fold the journal into a fresh store snapshot;
    /// `save <path>` — write the rule set as text.
    Save(Option<String>),
    /// `load <path>` — replace the rule set from a text file.
    Load(String),
    /// `export <path>` — write a JSON session snapshot.
    Export(String),
    /// `import <path>` — restore a JSON session snapshot.
    Import(String),
    /// `open <dir>` — open (recover) a durable session store.
    Open(String),
    /// `quit` / `exit`
    Quit,
}

impl Command {
    /// The command's grammar word: the `cmd` label of the server's
    /// per-verb latency histogram. One value per word, never derived from
    /// client-supplied text.
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Help => "help",
            Command::AddRule(_) => "add",
            Command::ListRules => "rules",
            Command::RemoveRule(_) => "rm",
            Command::AddPredicate(..) => "addpred",
            Command::RemovePredicate(_) => "rmpred",
            Command::SetThreshold(..) => "set",
            Command::Undo => "undo",
            Command::Resume => "resume",
            Command::Simplify => "simplify",
            Command::Lint => "lint",
            Command::Run => "run",
            Command::Matches(_) => "matches",
            Command::Explain(_) => "explain",
            Command::NearMisses(..) => "misses",
            Command::Quality => "quality",
            Command::Stats => "stats",
            Command::Status => "status",
            Command::Optimize(_) => "optimize",
            Command::MemoryReport => "memory",
            Command::History => "history",
            Command::Features => "features",
            Command::Save(_) => "save",
            Command::Load(_) => "load",
            Command::Export(_) => "export",
            Command::Import(_) => "import",
            Command::Open(_) => "open",
            Command::Quit => "quit",
        }
    }

    /// True when the command changes session state (every such change is
    /// journaled on a leader and shipped to followers) — a read-only
    /// replica or a degraded store must refuse it rather than fork its own
    /// timeline. Queries that only warm caches (`stats`, `misses`) do not
    /// mutate: the memo and cost cache are derived state, not part of the
    /// replicated timeline.
    pub fn mutates(&self) -> bool {
        match self {
            Command::AddRule(_)
            | Command::RemoveRule(_)
            | Command::AddPredicate(..)
            | Command::RemovePredicate(_)
            | Command::SetThreshold(..)
            | Command::Undo
            | Command::Resume
            | Command::Simplify
            | Command::Run
            | Command::Optimize(_)
            | Command::Save(_)
            | Command::Load(_)
            | Command::Import(_)
            | Command::Open(_) => true,
            Command::Help
            | Command::ListRules
            | Command::Lint
            | Command::Status
            | Command::Matches(_)
            | Command::Explain(_)
            | Command::NearMisses(..)
            | Command::Quality
            | Command::Stats
            | Command::MemoryReport
            | Command::History
            | Command::Features
            | Command::Export(_)
            | Command::Quit => false,
        }
    }
}

/// Parses one input line. Empty lines and `#` comments yield `None`.
pub fn parse(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (line, ""),
    };

    let require_arg = |what: &str| -> Result<&str, String> {
        if rest.is_empty() {
            Err(format!("{word}: missing {what}"))
        } else {
            Ok(rest)
        }
    };

    let cmd = match word.to_lowercase().as_str() {
        "help" | "?" => Command::Help,
        "add" => Command::AddRule(require_arg("rule text")?.to_string()),
        "rules" => Command::ListRules,
        "rm" => Command::RemoveRule(parse_rule_id(require_arg("rule id (r<k>)")?)?),
        "addpred" => {
            let rest = require_arg("rule id and predicate text")?;
            let (rid, pred) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "addpred: usage: addpred r<k> <predicate>".to_string())?;
            Command::AddPredicate(parse_rule_id(rid)?, pred.trim().to_string())
        }
        "rmpred" => Command::RemovePredicate(parse_pred_id(require_arg("predicate id (p<k>)")?)?),
        "set" => {
            let rest = require_arg("predicate id and threshold")?;
            let (pid, thr) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "set: usage: set p<k> <threshold>".to_string())?;
            let threshold: f64 = thr
                .trim()
                .parse()
                .map_err(|_| format!("set: bad threshold {:?}", thr.trim()))?;
            if !threshold.is_finite() {
                return Err(format!("set: threshold must be finite, got {threshold}"));
            }
            Command::SetThreshold(parse_pred_id(pid)?, threshold)
        }
        "undo" => Command::Undo,
        "resume" => Command::Resume,
        "simplify" => Command::Simplify,
        "lint" => Command::Lint,
        "run" => Command::Run,
        "matches" => {
            let n = if rest.is_empty() {
                10
            } else {
                rest.parse()
                    .map_err(|_| format!("matches: bad count {rest:?}"))?
            };
            Command::Matches(n)
        }
        "explain" => Command::Explain(
            require_arg("pair index")?
                .parse()
                .map_err(|_| format!("explain: bad pair index {rest:?}"))?,
        ),
        "misses" => {
            let rest = require_arg("feature id (f<k>)")?;
            let (fid, n) = match rest.split_once(char::is_whitespace) {
                Some((f, n)) => (
                    f,
                    n.trim()
                        .parse()
                        .map_err(|_| format!("misses: bad count {:?}", n.trim()))?,
                ),
                None => (rest, 10),
            };
            Command::NearMisses(parse_feature_id(fid)?, n)
        }
        "quality" => Command::Quality,
        "stats" => Command::Stats,
        "status" => Command::Status,
        "optimize" => {
            let algo = match rest.to_lowercase().as_str() {
                "" | "alg6" => OrderingAlgo::GreedyReduction,
                "alg5" => OrderingAlgo::GreedyCost,
                "rank" => OrderingAlgo::ByRank,
                "random" => OrderingAlgo::Random(0),
                other => return Err(format!("optimize: unknown algorithm {other:?}")),
            };
            Command::Optimize(algo)
        }
        "memory" => Command::MemoryReport,
        "history" => Command::History,
        "features" => Command::Features,
        "save" => Command::Save((!rest.is_empty()).then(|| rest.to_string())),
        "load" => Command::Load(require_arg("path")?.to_string()),
        "export" => Command::Export(require_arg("path")?.to_string()),
        "import" => Command::Import(require_arg("path")?.to_string()),
        "open" => Command::Open(require_arg("store directory")?.to_string()),
        "quit" | "exit" | "q" => Command::Quit,
        other => return Err(format!("unknown command {other:?}; try `help`")),
    };
    Ok(Some(cmd))
}

fn parse_rule_id(s: &str) -> Result<RuleId, String> {
    s.trim()
        .strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .map(RuleId)
        .ok_or_else(|| format!("expected a rule id like r3, got {s:?}"))
}

fn parse_feature_id(s: &str) -> Result<FeatureId, String> {
    s.trim()
        .strip_prefix('f')
        .and_then(|n| n.parse().ok())
        .map(FeatureId)
        .ok_or_else(|| format!("expected a feature id like f2, got {s:?}"))
}

fn parse_pred_id(s: &str) -> Result<PredId, String> {
    s.trim()
        .strip_prefix('p')
        .and_then(|n| n.parse().ok())
        .map(PredId)
        .ok_or_else(|| format!("expected a predicate id like p7, got {s:?}"))
}

/// The `help` text.
pub const HELP: &str = "\
commands:
  add <rule>            add a rule, e.g. add jaccard_ws(title, title) >= 0.7 AND exact(brand, brand) >= 1
  rules                 list rules with ids
  rm r<k>               remove rule r<k>
  addpred r<k> <pred>   add a predicate to rule r<k>
  rmpred p<k>           remove predicate p<k>
  set p<k> <threshold>  tighten/relax predicate p<k>
  undo                  revert the most recent edit
  resume                finish an edit interrupted by the deadline or Ctrl-C
  simplify              drop dominated predicates and subsumed rules
  lint                  static analysis: dead/duplicate/subsumed rules, vacuous predicates, fix-its
  run                   re-run matching from scratch (memo retained)
  matches [n]           show up to n matched pairs (default 10)
  explain <i>           full evaluation trace of candidate pair i
  misses f<k> [n]       top-n unmatched pairs by feature f<k> (see `features`)
  quality               precision/recall against loaded labels
  stats                 estimated feature costs and selectivities
  status                session health: store/journal bytes, disk free, degraded state
  optimize [alg]        reorder rules/predicates (alg5 | alg6 | rank | random)
  memory                materialization memory footprint
  history               edit log with latencies
  features              list interned features
  save                  fold the edit journal into a fresh store snapshot
  save <path>           save the rule set as text
  load <path>           load a rule set from a text file
  export <path>         write a JSON session snapshot
  import <path>         restore a JSON session snapshot
  open <dir>            open (recover) a durable session store
  quit                  exit";

/// What one command produced: the typed result both renderers print.
#[derive(Debug)]
pub enum Outcome {
    /// Prose: `help`, `explain`, `stats`, and `quality` without labels.
    Text(String),
    /// An edit, `undo` or `resume` that ran a delta.
    Change(Change),
    /// `undo` with an empty stack or `resume` with nothing parked: the
    /// verb that had nothing to do.
    Noop(&'static str),
    /// `run`.
    Run {
        /// Matches after the run.
        matches: usize,
        /// The run's work counters.
        stats: EvalStats,
        /// Pairs under panic quarantine after the run, ascending.
        quarantined: Vec<usize>,
        /// Wall-clock time of the run.
        elapsed: Duration,
    },
    /// `lint`: every finding, in the analyzer's order.
    Lint(Vec<Diagnostic>),
    /// `simplify`.
    Simplify {
        /// What was removed.
        report: SimplifyReport,
        /// Rules remaining.
        rules: usize,
    },
    /// `optimize`.
    Optimize {
        /// The ordering algorithm applied.
        algo: OrderingAlgo,
        /// Matches after the re-run (unchanged by construction).
        matches: usize,
        /// Wall-clock time of the reorder and re-run.
        elapsed: Duration,
    },
    /// `rules`.
    Rules {
        /// Each rule with its predicates rendered in the rule language.
        rules: Vec<(RuleId, Vec<(PredId, String)>)>,
        /// Predicates across all rules.
        n_predicates: usize,
        /// Current match count.
        matches: usize,
    },
    /// `matches <n>`.
    Matches {
        /// Total match count.
        total: usize,
        /// The first `n` matches with the rule that fired for each.
        shown: Vec<(PairRow, Option<RuleId>)>,
    },
    /// `misses f<k> <n>`.
    NearMisses {
        /// The feature's name.
        feature: String,
        /// Unmatched pairs with their feature value, best first.
        rows: Vec<(PairRow, f64)>,
    },
    /// `quality` against the loaded labels.
    Quality(QualityReport),
    /// `status`: the store's own footprint.
    Status {
        /// The store directory (`None` for an ephemeral session).
        dir: Option<PathBuf>,
        /// Snapshot epoch.
        epoch: Option<u64>,
        /// Journal records since the last snapshot.
        journal_records: usize,
        /// Bytes across snapshot generations and the history log.
        store_bytes: u64,
        /// Bytes across journal generations.
        journal_bytes: u64,
        /// Free bytes on the store's filesystem, when known.
        disk_free: Option<u64>,
    },
    /// `memory`.
    Memory {
        /// The materialization's footprint.
        report: MemoryReport,
        /// Values stored in the memo.
        memo_values: usize,
    },
    /// `history`, oldest first.
    History(Vec<EditRecord>),
    /// `features`: every interned feature with its name.
    Features(Vec<(FeatureId, String)>),
    /// `save`: the snapshot epoch written and where.
    Saved {
        /// The new epoch.
        epoch: u64,
        /// The store directory.
        dir: PathBuf,
    },
}

/// One delta an analyst asked for, with what it changed.
#[derive(Debug)]
pub struct Change {
    /// The operation and the ids it minted or targeted.
    pub op: ChangeOp,
    /// What the delta changed.
    pub report: ChangeReport,
    /// Edits left on the undo stack afterwards.
    pub undo_depth: usize,
    /// Static-analysis findings the edit introduced (present after, absent
    /// before), from the edited rule's two versions
    /// ([`crate::analyze::introduced`]); `undo` and `resume` carry none.
    pub advisories: Vec<Diagnostic>,
}

/// The operation behind a [`Change`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChangeOp {
    /// `add` — the rule minted.
    AddRule(RuleId),
    /// `rm`.
    RemoveRule(RuleId),
    /// `addpred` — the rule extended and the predicate minted.
    AddPredicate(RuleId, PredId),
    /// `rmpred`.
    RemovePredicate(PredId),
    /// `set` — the predicate and its new threshold.
    SetThreshold(PredId, f64),
    /// `undo`.
    Undo,
    /// `resume`.
    Resume,
}

impl ChangeOp {
    /// The porcelain `op` label.
    pub fn label(&self) -> &'static str {
        match self {
            ChangeOp::AddRule(_) => "add_rule",
            ChangeOp::RemoveRule(_) => "remove_rule",
            ChangeOp::AddPredicate(..) => "add_predicate",
            ChangeOp::RemovePredicate(_) => "remove_predicate",
            ChangeOp::SetThreshold(..) => "set_threshold",
            ChangeOp::Undo => "undo",
            ChangeOp::Resume => "resume",
        }
    }

    /// The rule the operation minted or targeted.
    pub fn rule(&self) -> Option<RuleId> {
        match self {
            ChangeOp::AddRule(r) | ChangeOp::RemoveRule(r) | ChangeOp::AddPredicate(r, _) => {
                Some(*r)
            }
            _ => None,
        }
    }

    /// The predicate the operation minted or targeted.
    pub fn pred(&self) -> Option<PredId> {
        match self {
            ChangeOp::AddPredicate(_, p)
            | ChangeOp::RemovePredicate(p)
            | ChangeOp::SetThreshold(p, _) => Some(*p),
            _ => None,
        }
    }
}

/// One candidate pair as listings show it: the record ids and, for human
/// eyes, each record's first attribute.
#[derive(Debug, Clone)]
pub struct PairRow {
    /// Candidate pair index.
    pub pair: usize,
    /// Left record id.
    pub a: String,
    /// Right record id.
    pub b: String,
    /// Left record's first attribute value.
    pub a_value: String,
    /// Right record's first attribute value.
    pub b_value: String,
}

/// Why [`execute`] refused a command. Each surface words these itself.
#[derive(Debug)]
pub enum CommandError {
    /// An argument does not fit the session (pair index out of range,
    /// unknown feature).
    Usage(String),
    /// The session refused the command: a parse error, an unknown id, a
    /// parked edit awaiting `resume`, or a failed journal write.
    Session(SessionError),
    /// `save` could not write its snapshot (or the session has no store).
    Persist(PersistError),
    /// A verb that belongs to the surface rather than the session: the
    /// file-path commands (`save <path>`, `load`, `export`, `import`,
    /// `open`) and `quit`.
    NotSessionCommand,
}

impl From<SessionError> for CommandError {
    fn from(e: SessionError) -> Self {
        CommandError::Session(e)
    }
}

/// Executes one command against a session store. Every change goes
/// through the store's write-ahead [`SessionStore::apply`], so it is
/// crash-durable whenever the store is; the five analyst edits also report
/// the lint findings they introduced.
pub fn execute(
    store: &mut SessionStore,
    labels: &[LabeledPair],
    cmd: &Command,
) -> Result<Outcome, CommandError> {
    Ok(match cmd {
        Command::Help => Outcome::Text(HELP.to_string()),
        Command::AddRule(text) => change(store, None, |s| {
            let (rid, report) = s.add_rule_text(text)?;
            Ok((ChangeOp::AddRule(rid), report))
        })?,
        Command::RemoveRule(rid) => change(store, Some(*rid), |s| {
            Ok((ChangeOp::RemoveRule(*rid), s.remove_rule(*rid)?))
        })?,
        Command::AddPredicate(rid, text) => change(store, Some(*rid), |s| {
            let pred = s.parse_predicate(text)?;
            let (pid, report) = s.add_predicate(*rid, pred)?;
            Ok((ChangeOp::AddPredicate(*rid, pid), report))
        })?,
        Command::RemovePredicate(pid) => change(store, owner(store, *pid), |s| {
            Ok((ChangeOp::RemovePredicate(*pid), s.remove_predicate(*pid)?))
        })?,
        Command::SetThreshold(pid, t) => change(store, owner(store, *pid), |s| {
            Ok((ChangeOp::SetThreshold(*pid, *t), s.set_threshold(*pid, *t)?))
        })?,
        Command::Undo => {
            let report = store.undo()?;
            replayed(store, ChangeOp::Undo, report)
        }
        Command::Resume => {
            let report = store.resume()?;
            replayed(store, ChangeOp::Resume, report)
        }
        Command::Run => {
            let start = Instant::now();
            let stats = store.run_full()?;
            Outcome::Run {
                matches: store.session().n_matches(),
                stats,
                quarantined: store.session().quarantined().to_vec(),
                elapsed: start.elapsed(),
            }
        }
        Command::Lint => Outcome::Lint(store.session().analyze()),
        Command::Simplify => Outcome::Simplify {
            report: store.simplify()?,
            rules: store.session().function().n_rules(),
        },
        Command::Optimize(algo) => {
            let start = Instant::now();
            store.optimize(*algo)?;
            Outcome::Optimize {
                algo: *algo,
                matches: store.session().n_matches(),
                elapsed: start.elapsed(),
            }
        }
        Command::ListRules => {
            let session = store.session();
            let ctx = session.context();
            let rules = session
                .function()
                .rules()
                .iter()
                .map(|rule| {
                    let preds = rule.preds.iter().map(|bp| {
                        let text = format!(
                            "{} {} {}",
                            ctx.feature_name(bp.pred.feature),
                            bp.pred.op,
                            bp.pred.threshold
                        );
                        (bp.id, text)
                    });
                    (rule.id, preds.collect())
                })
                .collect();
            Outcome::Rules {
                rules,
                n_predicates: session.function().n_predicates(),
                matches: session.n_matches(),
            }
        }
        Command::Matches(limit) => {
            let session = store.session();
            let matches = session.matches();
            let shown = matches.iter().take(*limit).map(|&i| {
                let fired = session.state().fired_rule(i);
                (pair_row(store, i), fired)
            });
            Outcome::Matches {
                total: matches.len(),
                shown: shown.collect(),
            }
        }
        Command::Explain(i) => {
            let n = store.session().candidates().len();
            if *i >= n {
                return Err(CommandError::Usage(format!(
                    "pair index {i} out of range (0..{n})"
                )));
            }
            Outcome::Text(store.session().explain(*i).to_string())
        }
        Command::NearMisses(fid, n) => {
            if fid.index() >= store.session().context().registry().len() {
                return Err(CommandError::Usage(format!(
                    "unknown feature {fid}; see `features`"
                )));
            }
            let misses = store.session_mut().near_misses(*fid, *n);
            Outcome::NearMisses {
                feature: store.session().context().feature_name(*fid),
                rows: misses
                    .into_iter()
                    .map(|(i, v)| (pair_row(store, i), v))
                    .collect(),
            }
        }
        Command::Quality if labels.is_empty() => Outcome::Text("no labels loaded".to_string()),
        Command::Quality => Outcome::Quality(store.session().quality(labels)),
        Command::Stats => Outcome::Text(stats_text(store)),
        Command::Status => {
            let (store_bytes, journal_bytes) = store.usage();
            Outcome::Status {
                dir: store.store_dir().map(PathBuf::from),
                epoch: store.epoch(),
                journal_records: store.records_since_save(),
                store_bytes,
                journal_bytes,
                disk_free: store.store_dir().and_then(disk_free),
            }
        }
        Command::MemoryReport => Outcome::Memory {
            report: store.session().memory_report(),
            memo_values: {
                use crate::memo::Memo;
                store.session().state().memo.stored()
            },
        },
        Command::History => Outcome::History(store.session().history().to_vec()),
        Command::Features => {
            let ctx = store.session().context();
            let names = ctx.registry().iter().map(|(f, _)| (f, ctx.feature_name(f)));
            Outcome::Features(names.collect())
        }
        Command::Save(None) => {
            let epoch = store.save().map_err(CommandError::Persist)?;
            let dir = store.store_dir().map(PathBuf::from).unwrap_or_default();
            Outcome::Saved { epoch, dir }
        }
        Command::Save(Some(_))
        | Command::Load(_)
        | Command::Export(_)
        | Command::Import(_)
        | Command::Open(_)
        | Command::Quit => return Err(CommandError::NotSessionCommand),
    })
}

/// Runs one analyst edit of rule `target` (`None` for `add`, which mints
/// it); the advisories are the findings present after the edit and absent
/// before it, computed from the rule's two versions by [`introduced`].
fn change(
    store: &mut SessionStore,
    target: Option<RuleId>,
    edit: impl FnOnce(&mut SessionStore) -> Result<(ChangeOp, ChangeReport), SessionError>,
) -> Result<Outcome, CommandError> {
    let func = store.session().function();
    let before = target.and_then(|rid| Some((func.rule(rid)?.clone(), func.rule_position(rid)?)));
    let (op, report) = edit(store)?;
    let edited = target
        .or(op.rule())
        .expect("an analyst edit that succeeded names its rule");
    let session = store.session();
    let advisories = introduced(
        before.as_ref().map(|(rule, pos)| (rule, *pos)),
        session.function(),
        edited,
        session.context(),
        session.block_guarantees(),
    );
    Ok(Outcome::Change(Change {
        op,
        report,
        undo_depth: session.undo_depth(),
        advisories,
    }))
}

/// The rule owning predicate `pid`, if it exists.
fn owner(store: &SessionStore, pid: PredId) -> Option<RuleId> {
    let found = store.session().function().find_predicate(pid);
    found.map(|(rid, _)| rid)
}

/// The outcome of `undo` / `resume`: a delta, or a no-op.
fn replayed(store: &SessionStore, op: ChangeOp, report: Option<ChangeReport>) -> Outcome {
    match report {
        None => Outcome::Noop(op.label()),
        Some(report) => Outcome::Change(Change {
            op,
            report,
            undo_depth: store.session().undo_depth(),
            advisories: Vec::new(),
        }),
    }
}

fn pair_row(store: &SessionStore, i: usize) -> PairRow {
    let session = store.session();
    let p = session.candidates().pair(i);
    let a = session.context().table_a().record(p.a);
    let b = session.context().table_b().record(p.b);
    PairRow {
        pair: i,
        a: a.id().to_string(),
        b: b.id().to_string(),
        a_value: a.value(0).unwrap_or("").to_string(),
        b_value: b.value(0).unwrap_or("").to_string(),
    }
}

/// Estimated feature costs and predicate selectivities, caching the
/// sampled statistics on the session so later `explain` output carries
/// per-predicate cost annotations.
fn stats_text(store: &mut SessionStore) -> String {
    use std::fmt::Write as _;
    if store.session().function().is_empty() {
        return "(no rules — nothing to estimate)".to_string();
    }
    let stats = store.session_mut().refresh_stats();
    let session = store.session();
    let mut out = String::from("feature costs (ns/eval):");
    for f in session.function().features() {
        let name = session.context().feature_name(f);
        let _ = write!(out, "\n  {name:<40} {:>12.0}", stats.cost(f));
    }
    let _ = write!(out, "\nmemo lookup δ: {:.0} ns", stats.lookup_cost());
    out.push_str("\npredicate selectivities:");
    for (rid, bp) in session.function().predicates() {
        let _ = write!(out, "\n  {rid}/{} sel = {:.4}", bp.id, stats.sel(bp.id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command_form() {
        assert_eq!(parse("help").unwrap(), Some(Command::Help));
        assert_eq!(
            parse("add exact(a, b) >= 1").unwrap(),
            Some(Command::AddRule("exact(a, b) >= 1".into()))
        );
        assert_eq!(parse("rules").unwrap(), Some(Command::ListRules));
        assert_eq!(
            parse("rm r3").unwrap(),
            Some(Command::RemoveRule(RuleId(3)))
        );
        assert_eq!(
            parse("addpred r1 jaro(x, y) >= 0.5").unwrap(),
            Some(Command::AddPredicate(RuleId(1), "jaro(x, y) >= 0.5".into()))
        );
        assert_eq!(
            parse("rmpred p9").unwrap(),
            Some(Command::RemovePredicate(PredId(9)))
        );
        assert_eq!(
            parse("set p2 0.85").unwrap(),
            Some(Command::SetThreshold(PredId(2), 0.85))
        );
        assert_eq!(parse("run").unwrap(), Some(Command::Run));
        assert_eq!(parse("undo").unwrap(), Some(Command::Undo));
        assert_eq!(parse("resume").unwrap(), Some(Command::Resume));
        assert_eq!(parse("simplify").unwrap(), Some(Command::Simplify));
        assert_eq!(parse("lint").unwrap(), Some(Command::Lint));
        assert_eq!(parse("LINT").unwrap(), Some(Command::Lint));
        assert_eq!(parse("matches").unwrap(), Some(Command::Matches(10)));
        assert_eq!(parse("matches 25").unwrap(), Some(Command::Matches(25)));
        assert_eq!(parse("explain 4").unwrap(), Some(Command::Explain(4)));
        assert_eq!(
            parse("misses f2").unwrap(),
            Some(Command::NearMisses(FeatureId(2), 10))
        );
        assert_eq!(
            parse("misses f2 5").unwrap(),
            Some(Command::NearMisses(FeatureId(2), 5))
        );
        assert_eq!(parse("quality").unwrap(), Some(Command::Quality));
        assert_eq!(parse("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse("status").unwrap(), Some(Command::Status));
        assert_eq!(
            parse("optimize").unwrap(),
            Some(Command::Optimize(OrderingAlgo::GreedyReduction))
        );
        assert_eq!(
            parse("optimize alg5").unwrap(),
            Some(Command::Optimize(OrderingAlgo::GreedyCost))
        );
        assert_eq!(parse("memory").unwrap(), Some(Command::MemoryReport));
        assert_eq!(parse("history").unwrap(), Some(Command::History));
        assert_eq!(parse("features").unwrap(), Some(Command::Features));
        assert_eq!(
            parse("save rules.txt").unwrap(),
            Some(Command::Save(Some("rules.txt".into())))
        );
        assert_eq!(parse("save").unwrap(), Some(Command::Save(None)));
        assert_eq!(
            parse("open sessions/demo").unwrap(),
            Some(Command::Open("sessions/demo".into()))
        );
        assert_eq!(
            parse("load rules.txt").unwrap(),
            Some(Command::Load("rules.txt".into()))
        );
        assert_eq!(
            parse("export snap.json").unwrap(),
            Some(Command::Export("snap.json".into()))
        );
        assert_eq!(
            parse("import snap.json").unwrap(),
            Some(Command::Import("snap.json".into()))
        );
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse("exit").unwrap(), Some(Command::Quit));
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("   ").unwrap(), None);
        assert_eq!(parse("# a comment").unwrap(), None);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("frobnicate").unwrap_err().contains("unknown command"));
        assert!(parse("rm 3").unwrap_err().contains("rule id"));
        assert!(parse("set p1").unwrap_err().contains("threshold"));
        assert!(parse("set p1 abc").unwrap_err().contains("bad threshold"));
        assert!(parse("set p1 nan").unwrap_err().contains("finite"));
        assert!(parse("set p1 inf").unwrap_err().contains("finite"));
        assert!(parse("add").unwrap_err().contains("missing"));
        assert!(parse("open").unwrap_err().contains("store directory"));
        assert!(parse("explain x").unwrap_err().contains("bad pair index"));
        assert!(parse("optimize alg7")
            .unwrap_err()
            .contains("unknown algorithm"));
    }

    #[test]
    fn case_insensitive_keywords() {
        assert_eq!(parse("RUN").unwrap(), Some(Command::Run));
        assert_eq!(parse("Matches 3").unwrap(), Some(Command::Matches(3)));
    }
}
