//! The REPL application: owns a [`SessionStore`] (a [`DebugSession`] with
//! an optional durable home) and executes parsed commands, returning their
//! output as strings (stdout-free, so the whole app is unit-testable).

use crate::command::Command;
use em_core::command::{self, CommandError};
use em_core::{DebugSession, Edit, SessionConfig, SessionError, SessionStore};
use em_types::LabeledPair;

/// The CLI's typed error. Every failure path through [`App::execute`]
/// lands here — no I/O `unwrap` can kill the REPL, and callers that need
/// to distinguish a usage mistake from a session or filesystem failure
/// can match instead of scraping strings.
#[derive(Debug)]
pub enum AppError {
    /// The command's arguments do not fit the session (index out of
    /// range, unknown feature, …).
    Usage(String),
    /// The debugging session rejected the operation.
    Session(SessionError),
    /// A filesystem operation failed.
    Io {
        /// What the app was doing (includes the path).
        what: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An import/export payload failed to (de)serialize.
    Codec(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Usage(m) => write!(f, "{m}"),
            AppError::Session(e) => write!(f, "{e}"),
            AppError::Io { what, source } => write!(f, "{what}: {source}"),
            AppError::Codec(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for AppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AppError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SessionError> for AppError {
    fn from(e: SessionError) -> Self {
        AppError::Session(e)
    }
}

impl From<CommandError> for AppError {
    fn from(e: CommandError) -> Self {
        match e {
            CommandError::Usage(m) => AppError::Usage(m),
            CommandError::Session(e) => AppError::Session(e),
            CommandError::Persist(e) => AppError::Session(SessionError::Persist(e)),
            CommandError::NotSessionCommand => AppError::Usage("not a session command".to_string()),
        }
    }
}

/// The interactive application state.
pub struct App {
    store: SessionStore,
    labels: Vec<LabeledPair>,
    quit: bool,
    porcelain: bool,
    /// Held for the app's lifetime when the session is durable, so no
    /// concurrent process can write the same store directory.
    lock: Option<em_core::StoreLock>,
}

impl App {
    /// Wraps a prepared session with no durable store; `labels` may be
    /// empty (then `quality` reports it has nothing to compare against).
    pub fn new(session: DebugSession, labels: Vec<LabeledPair>) -> Self {
        Self::with_store(SessionStore::ephemeral(session), labels)
    }

    /// Wraps a session already bound to (or recovered from) a store.
    pub fn with_store(store: SessionStore, labels: Vec<LabeledPair>) -> Self {
        App {
            store,
            labels,
            quit: false,
            porcelain: false,
            lock: None,
        }
    }

    /// Builds the demo dataset: a fresh session plus its labels, for the
    /// caller to wrap (possibly binding a store first).
    pub fn demo_parts(
        domain: em_datagen::Domain,
        scale: f64,
        seed: u64,
        config: SessionConfig,
    ) -> Result<(DebugSession, Vec<LabeledPair>), String> {
        use em_blocking::Blocker;
        let ds = domain.generate(seed, scale);
        let cands = em_blocking::OverlapBlocker::new(
            domain.title_attr(),
            em_similarity::TokenScheme::Whitespace,
            2,
        )
        .block(&ds.table_a, &ds.table_b)
        .map_err(|e| format!("demo blocking: {e}"))?;
        let labels = ds.label_candidates(&cands);
        let session = DebugSession::new(ds.table_a.clone(), ds.table_b.clone(), cands, config);
        Ok((session, labels))
    }

    /// Builds a demo app over a synthetic dataset.
    pub fn demo(
        domain: em_datagen::Domain,
        scale: f64,
        seed: u64,
        config: SessionConfig,
    ) -> Result<Self, String> {
        let (session, labels) = Self::demo_parts(domain, scale, seed, config)?;
        Ok(App::new(session, labels))
    }

    /// Whether a `quit` command has been executed.
    pub fn should_quit(&self) -> bool {
        self.quit
    }

    /// Takes ownership of the store directory's lock; released (and the
    /// lock file removed) when the app drops.
    pub fn hold_lock(&mut self, lock: em_core::StoreLock) {
        self.lock = Some(lock);
    }

    /// Switches session-command output to machine-readable porcelain: the
    /// exact payload the `em_server` wire protocol sends for the same
    /// command (see [`em_core::porcelain`]).
    pub fn set_porcelain(&mut self, porcelain: bool) {
        self.porcelain = porcelain;
    }

    /// Read access to the session (for the banner and tests).
    pub fn session(&self) -> &DebugSession {
        self.store.session()
    }

    /// Write access to the session (deadline changes, fault injection).
    /// Edits made here bypass the store's journal; commands go through
    /// [`App::execute`].
    pub fn session_mut(&mut self) -> &mut DebugSession {
        self.store.session_mut()
    }

    /// The store (for tests and the banner).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// A fresh session over the same tables, candidates, and config —
    /// what `open` needs to recover a store into.
    fn fresh_session(&self) -> DebugSession {
        let session = self.store.session();
        let ctx = session.context();
        DebugSession::new(
            ctx.table_a().clone(),
            ctx.table_b().clone(),
            session.candidates().clone(),
            session.config().clone(),
        )
    }

    /// Executes one command, returning its printable output.
    ///
    /// Session commands run through [`em_core::command::execute`] and
    /// print as human text ([`crate::human`]) or, under porcelain, as the
    /// wire payload ([`em_core::porcelain::render`]). Edits that
    /// *introduce* static-analysis findings (a rule that can never fire, a
    /// newly subsumed rule, …) carry the new findings as advisories. The
    /// verbs that touch the CLI's own files or replace its store are
    /// handled here.
    pub fn execute(&mut self, cmd: Command) -> Result<String, AppError> {
        match cmd {
            Command::Quit => {
                self.quit = true;
                // Best-effort compaction on the way out: losing it costs
                // only replay time, not durability.
                match self.store.store_dir().map(|d| d.display().to_string()) {
                    Some(dir) => match self.store.save() {
                        Ok(epoch) => Ok(format!("saved {dir} (epoch {epoch}); bye")),
                        Err(e) => Ok(format!("warning: final save failed: {e}; bye")),
                    },
                    None => Ok("bye".to_string()),
                }
            }
            Command::Save(Some(path)) => {
                let text = self.session().function_text();
                std::fs::write(&path, &text).map_err(|e| AppError::Io {
                    what: format!("save {path}"),
                    source: e,
                })?;
                Ok(format!(
                    "saved {} rules to {path}",
                    self.session().function().n_rules()
                ))
            }
            Command::Open(dir) => {
                let fresh = self.fresh_session();
                let (store, report) = SessionStore::open(std::path::Path::new(&dir), fresh)
                    .map_err(SessionError::Persist)?;
                self.store = store;
                Ok(format!(
                    "{report}\n{} rules, {} matches",
                    self.session().function().n_rules(),
                    self.session().n_matches()
                ))
            }
            Command::Export(path) => {
                let snapshot = self.session().snapshot();
                let json = serde_json::to_string_pretty(&snapshot)
                    .map_err(|e| AppError::Codec(format!("export: {e}")))?;
                std::fs::write(&path, json).map_err(|e| AppError::Io {
                    what: format!("export {path}"),
                    source: e,
                })?;
                Ok(format!(
                    "exported {} rules to {path}",
                    self.session().function().n_rules()
                ))
            }
            Command::Import(path) => {
                let json = std::fs::read_to_string(&path).map_err(|e| AppError::Io {
                    what: format!("import {path}"),
                    source: e,
                })?;
                let snapshot: em_core::SessionSnapshot = serde_json::from_str(&json)
                    .map_err(|e| AppError::Codec(format!("import {path}: {e}")))?;
                self.store.apply(Edit::Restore { snapshot })?;
                Ok(format!(
                    "imported {} rules from {path}: {} matches",
                    self.session().function().n_rules(),
                    self.session().n_matches()
                ))
            }
            Command::Load(path) => self.load(&path),
            cmd => {
                let outcome = command::execute(&mut self.store, &self.labels, &cmd)?;
                Ok(if self.porcelain {
                    em_core::porcelain::render(&outcome)
                } else {
                    crate::human::render(&outcome)
                })
            }
        }
    }

    /// `load <path>`: replaces the rule set with the file's, one rule per
    /// non-blank, non-`#` line. All or nothing: every line is parsed
    /// before the first edit, so a malformed line leaves the rule set as
    /// it was. The edits then apply incrementally, reusing the memo.
    fn load(&mut self, path: &str) -> Result<String, AppError> {
        let text = std::fs::read_to_string(path).map_err(|e| AppError::Io {
            what: format!("load {path}"),
            source: e,
        })?;
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .collect();
        let line_error =
            |line: &str, e: SessionError| AppError::Usage(format!("line {line:?}: {e}"));
        let mut trial = self.session().context().clone();
        for line in &lines {
            em_core::parse::parse_rule(line, &mut trial)
                .map_err(|e| line_error(line, SessionError::Parse(e)))?;
        }
        let existing: Vec<_> = self
            .session()
            .function()
            .rules()
            .iter()
            .map(|r| r.id)
            .collect();
        for rid in existing {
            self.store.apply(Edit::RemoveRule { rid })?;
        }
        for line in &lines {
            let applied = self
                .store
                .session_mut()
                .parse_rule_text(line)
                .and_then(|rule| {
                    let preds = rule.predicates().to_vec();
                    self.store.apply(Edit::AddRule { preds })
                });
            applied.map_err(|e| line_error(line, e))?;
        }
        Ok(format!(
            "loaded {} rules from {path}: {} matches",
            lines.len(),
            self.session().n_matches()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::parse;
    use em_core::{ChangeLine, LintLine};
    use em_datagen::Domain;

    fn demo_app() -> App {
        App::demo(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap()
    }

    fn exec(app: &mut App, line: &str) -> Result<String, AppError> {
        let cmd = parse(line).unwrap().expect("non-empty command");
        app.execute(cmd)
    }

    #[test]
    fn full_session_script() {
        let mut app = demo_app();
        assert!(exec(&mut app, "rules").unwrap().contains("(no rules)"));
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert!(out.contains("added rule r0"), "{out}");
        assert!(exec(&mut app, "rules")
            .unwrap()
            .contains("jaccard_ws(title, title)"));
        assert!(exec(&mut app, "quality").unwrap().contains("F1"));
        let out = exec(&mut app, "set p0 0.8").unwrap();
        assert!(out.contains("set p0"), "{out}");
        assert!(exec(&mut app, "matches 3").unwrap().contains("matches"));
        assert!(exec(&mut app, "memory").unwrap().contains("memo"));
        assert!(exec(&mut app, "stats").unwrap().contains("feature costs"));
        assert!(exec(&mut app, "history").unwrap().contains("add rule"));
        let out = exec(&mut app, "undo").unwrap();
        assert!(out.contains("undone"), "{out}");
        assert!(exec(&mut app, "undo").unwrap().contains("undone")); // undoes the add
        assert!(exec(&mut app, "undo").unwrap().contains("nothing to undo"));
        // Ids are never reused: the re-added rule is r1 with predicate p1.
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        exec(&mut app, "set p1 0.8").unwrap();
        assert!(exec(&mut app, "features").unwrap().contains("f0"));
        exec(&mut app, "add jaccard_ws(title, title) >= 0.95").unwrap(); // subsumed by the 0.6 rule
        let out = exec(&mut app, "simplify").unwrap();
        assert!(out.contains("1 subsumed"), "{out}");
        assert!(exec(&mut app, "simplify")
            .unwrap()
            .contains("already minimal"));
        let out = exec(&mut app, "misses f0 4").unwrap();
        assert!(out.contains("unmatched pairs by"), "{out}");
        assert!(exec(&mut app, "misses f99").is_err());
        let out = exec(&mut app, "explain 0").unwrap();
        assert!(out.contains("rule r1"), "{out}");
        assert!(exec(&mut app, "optimize alg6")
            .unwrap()
            .contains("reordered"));
        assert!(!app.should_quit());
        exec(&mut app, "quit").unwrap();
        assert!(app.should_quit());
    }

    #[test]
    fn partial_edit_reports_and_resumes() {
        let config = SessionConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..SessionConfig::default()
        };
        let mut app = App::demo(Domain::Products, 0.01, 7, config).unwrap();
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert!(out.contains("partial (deadline)"), "{out}");
        assert!(out.contains("`resume` to continue"), "{out}");
        // Other edits are refused while the add is half-applied.
        let err = exec(&mut app, "set p0 0.8").unwrap_err().to_string();
        assert!(err.contains("resume"), "{err}");
        // Lift the deadline; resume finishes the edit.
        app.session_mut().set_deadline(None);
        let out = exec(&mut app, "resume").unwrap();
        assert!(out.contains("resumed"), "{out}");
        assert!(!out.contains("partial"), "{out}");
        assert!(exec(&mut app, "resume")
            .unwrap()
            .contains("nothing to resume"));
        // The rule is now fully applied and editable again.
        assert!(exec(&mut app, "set p0 0.8").is_ok());
    }

    #[test]
    fn errors_do_not_kill_the_app() {
        let mut app = demo_app();
        assert!(exec(&mut app, "rm r99").is_err());
        assert!(exec(&mut app, "set p99 0.5").is_err());
        assert!(exec(&mut app, "add bogus(title, title) >= 1").is_err());
        assert!(exec(&mut app, "explain 9999999").is_err());
        // Still usable afterwards.
        assert!(exec(&mut app, "add exact(modelno, modelno) >= 1").is_ok());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("rulem_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rules.txt");
        let path_str = path.to_str().unwrap().to_string();

        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        exec(
            &mut app,
            "add exact(modelno, modelno) >= 1 AND jaro(title, title) >= 0.4",
        )
        .unwrap();
        let matches_before = app.session().n_matches();
        exec(&mut app, &format!("save {path_str}")).unwrap();

        let mut app2 = demo_app();
        let out = exec(&mut app2, &format!("load {path_str}")).unwrap();
        assert!(out.contains("loaded 2 rules"), "{out}");
        assert_eq!(app2.session().n_matches(), matches_before);
    }

    #[test]
    fn load_is_all_or_nothing() {
        let dir = std::env::temp_dir().join("rulem_cli_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("broken-{}.rules", std::process::id()));
        std::fs::write(
            &path,
            "jaccard_ws(title, title) >= 0.6\nexact(modelno, modelno) >= 1\nbogus(title, title) >= 1\n",
        )
        .unwrap();

        let mut app = demo_app();
        exec(&mut app, "add jaro(title, title) >= 0.9").unwrap();
        let (rules, history) = (app.session().function_text(), app.session().history().len());
        let err = exec(&mut app, &format!("load {}", path.display())).unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
        assert_eq!(app.session().function_text(), rules, "rule set unchanged");
        assert_eq!(app.session().history().len(), history, "no edit applied");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn export_import_roundtrip() {
        let dir = std::env::temp_dir().join("rulem_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json").to_str().unwrap().to_string();

        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        let matches_before = app.session().n_matches();
        exec(&mut app, &format!("export {path}")).unwrap();

        let mut app2 = demo_app();
        let out = exec(&mut app2, &format!("import {path}")).unwrap();
        assert!(out.contains("imported 1 rules"), "{out}");
        assert_eq!(app2.session().n_matches(), matches_before);
    }

    #[test]
    fn lint_reports_and_edit_advisories() {
        let mut app = demo_app();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        // A subsumed duplicate-threshold rule arrives: the add itself
        // carries the advisory...
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.9").unwrap();
        assert!(out.contains("lint: warning[subsumed_rule]"), "{out}");
        assert!(out.contains("fix: `rm r1`, safe"), "{out}");
        // ...and `lint` keeps reporting it.
        let out = exec(&mut app, "lint").unwrap();
        assert!(
            out.contains("1 finding(s): 0 error(s), 1 warning(s)"),
            "{out}"
        );
        assert!(out.contains("subsumed by earlier rule r0"), "{out}");
        // Applying the suggested fix clears it.
        exec(&mut app, "rm r1").unwrap();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        // An unchanged re-run introduces nothing: no advisory on this edit.
        let out = exec(&mut app, "set p0 0.7").unwrap();
        assert!(!out.contains("lint:"), "{out}");
    }

    #[test]
    fn porcelain_lint_lines() {
        let mut app = demo_app();
        app.set_porcelain(true);
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        // Edit advisory: the ChangeLine comes first, lint lines after.
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        let mut lines = out.lines();
        assert!(
            ChangeLine::from_json(lines.next().unwrap()).is_ok(),
            "{out}"
        );
        let lint = LintLine::from_json(lines.next().unwrap()).unwrap();
        assert_eq!(lint.kind, "duplicate_rule");
        assert_eq!(lint.rule, "r1");
        assert_eq!(lint.other_rule.as_deref(), Some("r0"));
        assert_eq!(lint.fix.as_deref(), Some("rm r1"));
        assert!(lint.safe);
        // The lint command emits the wire's report header, then one line
        // per finding.
        let out = exec(&mut app, "lint").unwrap();
        let mut lines = out.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"event\":\"lint_report\""), "{out}");
        assert!(header.contains("\"warnings\":1"), "{out}");
        let lint = LintLine::from_json(lines.next().unwrap()).unwrap();
        assert_eq!(lint.severity, "warning");
        assert_eq!(lines.next(), None, "{out}");
    }

    #[test]
    fn addpred_and_rmpred() {
        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.5").unwrap();
        let out = exec(&mut app, "addpred r0 exact(brand, brand) >= 1").unwrap();
        assert!(out.contains("added p1 to r0"), "{out}");
        let out = exec(&mut app, "rmpred p1").unwrap();
        assert!(out.contains("removed p1"), "{out}");
    }
}
