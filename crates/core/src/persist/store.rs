//! [`SessionStore`]: a [`DebugSession`] with a durable home directory.
//!
//! Every edit goes through a write-ahead discipline:
//!
//! 1. any newly interned features are journaled (`InternFeature`);
//! 2. the edit itself is appended to the journal and fsynced;
//! 3. only then does the in-memory delta apply.
//!
//! A crash therefore loses at most an edit the caller was never told
//! succeeded. [`SessionStore::save`] compacts: it appends the history
//! entries logged since the previous save to the history log
//! ([`super::history`]), writes a fresh snapshot at the next epoch
//! counting them, starts an empty journal there, and prunes everything
//! older than the previous generation — so recovery can fall back one full
//! generation if the newest snapshot is corrupt. Autosave runs the same
//! save every 64 records; its failure does not fail the edit that
//! triggered it (see [`SessionStore::apply`]).
//!
//! [`SessionStore::open`] recovers: it installs the newest valid snapshot
//! *without re-running matching* — memo `H`, `M(r)`, `U(p)` come back as
//! bytes, the history from the log's frames the snapshot counts — cuts the
//! log after those frames, then replays the journal suffix through
//! [`DebugSession::apply`], i.e. through the incremental Algorithms 7–10.
//! Replaying an edit re-mints the same rule/predicate ids the live session
//! minted, because the snapshot carries the function's id counters and
//! features re-intern in their original order.

use super::frame::{atomic_write, read_file_opt, read_frame, FrameRead};
use super::history::{history_path, HistoryLog, LogScan};
use super::journal::{Journal, EDIT_JOURNAL};
use super::snapshot::{decode_snapshot, encode_snapshot, DecodedSnapshot, SnapshotHistory};
use super::vfs::{DiskOp, RealVfs, Vfs};
use super::PersistError;
use crate::edit::{Applied, Edit};
use crate::engine::EvalStats;
use crate::feature::{FeatureDef, FeatureRegistry};
use crate::incremental::ChangeReport;
use crate::ordering::OrderingAlgo;
use crate::predicate::{PredId, Predicate};
use crate::rule::{Rule, RuleId};
use crate::session::{DebugSession, SessionError, SessionSnapshot};
use crate::simplify::SimplifyReport;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
use crate::fault::{AppendFault, IoFaultPlan, SnapshotFault};

/// Journal records autosave tolerates before folding them into a fresh
/// snapshot. Every record replays in delta time, so this bounds recovery
/// work, not durability.
const DEFAULT_AUTOSAVE_EVERY: usize = 64;

/// What [`SessionStore::open`] did to get the session back.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Epoch of the snapshot that was installed; `None` when no valid
    /// snapshot existed and the session was rebuilt from journals alone.
    pub snapshot_epoch: Option<u64>,
    /// Newer snapshots that were skipped as corrupt before one loaded.
    pub snapshots_skipped: usize,
    /// Journal records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Replayed records that failed exactly as they failed live (a journal
    /// records the attempt before its outcome is known).
    pub records_failed: usize,
    /// Present when a torn/corrupt journal tail was found and truncated;
    /// describes what was dropped.
    pub journal_truncated: Option<String>,
    /// History entries the installed snapshot counts that a damaged
    /// history log could not supply; the session's history lacks them.
    pub history_lost: usize,
    /// Wall-clock recovery time.
    pub elapsed: Duration,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.snapshot_epoch {
            Some(e) => write!(f, "recovered from snapshot epoch {e}")?,
            None => write!(f, "recovered with no usable snapshot")?,
        }
        write!(
            f,
            " + {} journal record(s) in {:.1?}",
            self.records_replayed, self.elapsed
        )?;
        if self.snapshots_skipped > 0 {
            write!(
                f,
                "; skipped {} corrupt snapshot(s)",
                self.snapshots_skipped
            )?;
        }
        if let Some(t) = &self.journal_truncated {
            write!(f, "; truncated journal tail ({t})")?;
        }
        if self.history_lost > 0 {
            write!(
                f,
                "; lost {} history entr{} to a damaged history log",
                self.history_lost,
                if self.history_lost == 1 { "y" } else { "ies" }
            )?;
        }
        Ok(())
    }
}

/// The on-disk half of a store: paths, the open journal, and bookkeeping.
#[derive(Debug)]
struct Backend {
    dir: PathBuf,
    /// The filesystem every write goes through (real in production, a
    /// fault-injecting wrapper under test).
    vfs: Arc<dyn Vfs>,
    journal: Journal,
    /// The store's one history log, extended by every save.
    history: HistoryLog,
    /// Current generation: the epoch of the newest snapshot.
    epoch: u64,
    records_since_save: usize,
    autosave_every: Option<usize>,
    /// Features `[0, n)` of the registry are covered by the snapshot or
    /// already journaled; anything beyond must be journaled before the
    /// next edit record.
    journaled_features: usize,
    #[cfg(feature = "fault-inject")]
    io_faults: Option<Arc<IoFaultPlan>>,
}

/// A debugging session bound to a durable store directory (or to nothing,
/// for an ephemeral session behind the same API).
pub struct SessionStore {
    session: DebugSession,
    backend: Option<Backend>,
}

pub(crate) fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:016x}.bin"))
}

pub(crate) fn journal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("journal-{epoch:016x}.bin"))
}

/// Epochs present in `dir` for the given file kind, ascending. A missing
/// directory is an empty store, not an error.
pub(crate) fn list_epochs(dir: &Path, prefix: &str) -> Result<Vec<u64>, PersistError> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::Io(e)),
    };
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(PersistError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(hex) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(".bin"))
        {
            if let Ok(epoch) = u64::from_str_radix(hex, 16) {
                out.push(epoch);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// True when `dir` already holds store files.
pub fn store_exists(dir: &Path) -> Result<bool, PersistError> {
    Ok(!list_epochs(dir, "snapshot-")?.is_empty() || !list_epochs(dir, "journal-")?.is_empty())
}

impl SessionStore {
    // ---- constructors -----------------------------------------------------

    /// Wraps a session with no durable home: every wrapper is a plain
    /// pass-through, so callers can hold a `SessionStore` unconditionally.
    pub fn ephemeral(session: DebugSession) -> Self {
        SessionStore {
            session,
            backend: None,
        }
    }

    /// Creates a new store at `dir` (made if missing, which must not
    /// already hold one), snapshotting the session's current state as
    /// epoch 0.
    pub fn create(dir: &Path, session: DebugSession) -> Result<Self, PersistError> {
        Self::create_on(RealVfs::arc(), dir, session)
    }

    /// [`SessionStore::create`] through an explicit [`Vfs`] — the entry
    /// point fault-injection harnesses use to make any write site fail.
    pub fn create_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        session: DebugSession,
    ) -> Result<Self, PersistError> {
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        if store_exists(dir)? {
            return Err(PersistError::InvalidState(format!(
                "{} already holds a session store; open it instead",
                dir.display()
            )));
        }
        let bytes = encode_snapshot(&session, 0)?;
        let mut history = HistoryLog::default();
        history.append(&vfs, dir, session.history(), 0)?;
        atomic_write(vfs.as_ref(), &snapshot_path(dir, 0), &bytes)?;
        let journal = Journal::create(&vfs, &journal_path(dir, 0), 0, &EDIT_JOURNAL)?;
        let journaled_features = session.context().registry().len();
        Ok(SessionStore {
            session,
            backend: Some(Backend {
                dir: dir.to_path_buf(),
                vfs,
                journal,
                history,
                epoch: 0,
                records_since_save: 0,
                autosave_every: Some(DEFAULT_AUTOSAVE_EVERY),
                journaled_features,
                #[cfg(feature = "fault-inject")]
                io_faults: None,
            }),
        })
    }

    /// Recovers the store at `dir` into `session`, which must be *fresh*
    /// (no rules, features, or history) and built over the same candidate
    /// set the store was created with.
    ///
    /// Recovery installs the newest valid snapshot wholesale — falling
    /// back a generation when the newest is corrupt — with the history
    /// log's entries it counts, cuts the log after them, and replays the
    /// journal suffix through the incremental engine. The journal is
    /// truncated at the first torn or corrupt frame.
    pub fn open(dir: &Path, session: DebugSession) -> Result<(Self, RecoveryReport), PersistError> {
        Self::open_on(RealVfs::arc(), dir, session)
    }

    /// [`SessionStore::open`] through an explicit [`Vfs`].
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        session: DebugSession,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let t0 = Instant::now();
        if !session.function().is_empty()
            || !session.history().is_empty()
            || !session.context().registry().is_empty()
        {
            return Err(PersistError::InvalidState(
                "a store must be opened with a fresh session (no rules, features, or history)"
                    .into(),
            ));
        }
        let snapshots = list_epochs(dir, "snapshot-")?;
        let journals = list_epochs(dir, "journal-")?;
        if snapshots.is_empty() && journals.is_empty() {
            return Err(PersistError::InvalidState(format!(
                "no session store in {}",
                dir.display()
            )));
        }

        let mut session = session;
        let mut snapshot_epoch = None;
        let mut snapshots_skipped = 0usize;
        let log = LogScan::open(&vfs, dir);
        let mut taken = LogTaken::default();
        for &epoch in snapshots.iter().rev() {
            let Some(bytes) = read_file_opt(&snapshot_path(dir, epoch))? else {
                continue;
            };
            match decode_snapshot(&bytes) {
                Ok(dec) if dec.epoch == epoch => {
                    taken = install_snapshot(&mut session, dec, log.payloads())?;
                    snapshot_epoch = Some(epoch);
                    break;
                }
                // A wrong embedded epoch means the file was renamed or
                // spliced; treat it like any other corruption and fall
                // back a generation.
                Ok(_) => snapshots_skipped += 1,
                Err(PersistError::Io(e)) => return Err(PersistError::Io(e)),
                Err(_) => snapshots_skipped += 1,
            }
        }
        if !snapshots.is_empty() && snapshot_epoch.is_none() {
            // Every generation on disk is corrupt. Replaying journals
            // over an *empty* session would silently reconstruct a state
            // that never existed (the journals are suffixes, not the full
            // history) — refuse with a typed error instead.
            return Err(PersistError::Corrupt(format!(
                "all {} snapshot generation(s) in {} are corrupt; run `scrub --repair` to \
                 salvage what the journals allow, or restore from a replica",
                snapshots.len(),
                dir.display()
            )));
        }

        // Replay the journal suffix. The session's deadline is lifted for
        // the duration: replay must terminate even under a budget that
        // would park every edit.
        let saved_deadline = session.config().deadline;
        session.set_deadline(None);
        let mut records_replayed = 0usize;
        let mut records_failed = 0usize;
        let mut journal_truncated = None;
        let mut last_journal: Option<Journal> = None;
        let relevant: Vec<u64> = journals
            .iter()
            .copied()
            .filter(|&e| snapshot_epoch.is_none_or(|s| e >= s))
            .collect();
        for (i, &epoch) in relevant.iter().enumerate() {
            let scan = match Journal::open_existing(&vfs, &journal_path(dir, epoch), &EDIT_JOURNAL)
            {
                Ok(scan) => scan,
                Err(PersistError::Io(e)) => return Err(PersistError::Io(e)),
                Err(e) => {
                    // An unreadable journal header — a crash or disk
                    // fault struck during `Journal::create`, before any
                    // record could have been appended — is a tear at
                    // offset zero: nothing in this generation or later
                    // is reachable. Drop the files so the next open is
                    // clean.
                    journal_truncated = Some(format!(
                        "journal epoch {epoch} unreadable ({e}); dropped it and {} later journal(s)",
                        relevant.len() - i - 1
                    ));
                    for &later in &relevant[i..] {
                        let _ = std::fs::remove_file(journal_path(dir, later));
                    }
                    break;
                }
            };
            for payload in &scan.payloads {
                if session.apply(&decode_record(payload)?).is_err() {
                    records_failed += 1;
                }
                settle(&mut session)?;
                records_replayed += 1;
            }
            let truncated_here = scan.truncated.is_some();
            if let Some(t) = scan.truncated {
                journal_truncated = Some(t);
            }
            last_journal = Some(scan.journal);
            if truncated_here {
                // Records after a torn frame — including whole later
                // journals — describe a history that can no longer be
                // reached; drop them so the next open is clean.
                for &later in &relevant[i + 1..] {
                    let _ = std::fs::remove_file(journal_path(dir, later));
                }
                break;
            }
        }
        session.set_deadline(saved_deadline);

        let base = snapshot_epoch.unwrap_or(0);
        let (journal, epoch) = match last_journal {
            Some(j) => {
                let e = j.epoch().max(base);
                (j, e)
            }
            None => (
                Journal::create(&vfs, &journal_path(dir, base), base, &EDIT_JOURNAL)?,
                base,
            ),
        };
        let journaled_features = session.context().registry().len();
        let store = SessionStore {
            session,
            backend: Some(Backend {
                dir: dir.to_path_buf(),
                vfs,
                journal,
                history: log.keep(taken.frames, taken.entries),
                epoch,
                records_since_save: 0,
                autosave_every: Some(DEFAULT_AUTOSAVE_EVERY),
                journaled_features,
                #[cfg(feature = "fault-inject")]
                io_faults: None,
            }),
        };
        let report = RecoveryReport {
            snapshot_epoch,
            snapshots_skipped,
            records_replayed,
            records_failed,
            journal_truncated,
            history_lost: taken.lost,
            elapsed: t0.elapsed(),
        };
        Ok((store, report))
    }

    /// Opens the store at `dir` if one exists, creating it otherwise.
    pub fn attach(
        dir: &Path,
        session: DebugSession,
    ) -> Result<(Self, Option<RecoveryReport>), PersistError> {
        Self::attach_on(RealVfs::arc(), dir, session)
    }

    /// [`SessionStore::attach`] through an explicit [`Vfs`].
    pub fn attach_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        session: DebugSession,
    ) -> Result<(Self, Option<RecoveryReport>), PersistError> {
        if store_exists(dir)? {
            let (store, report) = Self::open_on(vfs, dir, session)?;
            Ok((store, Some(report)))
        } else {
            Ok((Self::create_on(vfs, dir, session)?, None))
        }
    }

    // ---- accessors --------------------------------------------------------

    /// The wrapped session (read-only view).
    pub fn session(&self) -> &DebugSession {
        &self.session
    }

    /// Mutable access for *non-edit* operations (deadline changes,
    /// near-miss queries, fault plans). Edits made directly here bypass
    /// the journal and will not survive a crash — use the wrappers.
    pub fn session_mut(&mut self) -> &mut DebugSession {
        &mut self.session
    }

    /// Unwraps the session, abandoning the store handle (files remain).
    pub fn into_session(self) -> DebugSession {
        self.session
    }

    /// The store directory, if this store is durable.
    pub fn store_dir(&self) -> Option<&Path> {
        self.backend.as_ref().map(|b| b.dir.as_path())
    }

    /// Current snapshot generation, if durable.
    pub fn epoch(&self) -> Option<u64> {
        self.backend.as_ref().map(|b| b.epoch)
    }

    /// Journal records appended since the last snapshot.
    pub fn records_since_save(&self) -> usize {
        self.backend.as_ref().map_or(0, |b| b.records_since_save)
    }

    /// Sets (or disables) autosave: after `n` journal records, the next
    /// edit folds them into a fresh snapshot.
    pub fn set_autosave_every(&mut self, n: Option<usize>) {
        if let Some(b) = &mut self.backend {
            b.autosave_every = n;
        }
    }

    /// Arms one-shot I/O faults (journal tear, crash-after-append,
    /// snapshot bit-flip / short write) on this store.
    #[cfg(feature = "fault-inject")]
    pub fn inject_io_faults(&mut self, plan: Arc<IoFaultPlan>) {
        if let Some(b) = &mut self.backend {
            b.io_faults = Some(plan);
        }
    }

    /// Tests whether the store directory accepts writes again: a small
    /// create + fsync + remove through the store's [`Vfs`], tagged
    /// [`DiskOp::Probe`]. This is how a degraded server decides the disk
    /// has recovered. Ephemeral stores trivially succeed.
    pub fn probe_write(&self) -> Result<(), PersistError> {
        let Some(b) = self.backend.as_ref() else {
            return Ok(());
        };
        let path = b.dir.join("probe.tmp");
        let result = (|| {
            let mut f = b.vfs.create(&path, DiskOp::Probe)?;
            b.vfs.write_all(&mut f, b"probe\n", DiskOp::Probe)?;
            b.vfs.sync_all(&f, DiskOp::Probe)
        })();
        let _ = std::fs::remove_file(&path);
        result
    }

    /// On-disk footprint of this store: `(store_bytes, journal_bytes)`,
    /// the snapshots and the history log against the journals, summed
    /// over every generation present. `(0, 0)` for ephemeral stores and
    /// on any listing error (the numbers are advisory — they feed
    /// `status`, not correctness).
    pub fn usage(&self) -> (u64, u64) {
        let Some(dir) = self.store_dir() else {
            return (0, 0);
        };
        let size_of = |path: PathBuf| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let sum = |prefix: &str, path_of: fn(&Path, u64) -> PathBuf| -> u64 {
            list_epochs(dir, prefix)
                .unwrap_or_default()
                .into_iter()
                .map(|e| size_of(path_of(dir, e)))
                .sum()
        };
        (
            sum("snapshot-", snapshot_path) + size_of(history_path(dir)),
            sum("journal-", journal_path),
        )
    }

    // ---- compaction -------------------------------------------------------

    /// Folds the journal into a fresh snapshot at the next epoch and
    /// prunes everything older than the previous generation. Returns the
    /// new epoch.
    ///
    /// The history entries logged since the previous save go to the
    /// history log first, as one fsynced frame; the snapshot counts them
    /// and holds none.
    pub fn save(&mut self) -> Result<u64, PersistError> {
        let save_t0 = em_metrics::enabled().then(std::time::Instant::now);
        let Some(b) = self.backend.as_mut() else {
            return Err(PersistError::InvalidState(
                "session has no store attached (run with --store <dir>)".into(),
            ));
        };
        let new_epoch = b.epoch + 1;
        #[allow(unused_mut)]
        let mut bytes = encode_snapshot(&self.session, new_epoch)?;
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &b.io_faults {
            match plan.on_snapshot_write() {
                SnapshotFault::None => {}
                SnapshotFault::FlipByte(offset) => {
                    // Silent media corruption: the write itself succeeds.
                    if let Some(byte) = bytes.get_mut(offset) {
                        *byte ^= 0x01;
                    }
                }
                SnapshotFault::ShortWrite(keep) => {
                    let tmp = snapshot_path(&b.dir, new_epoch).with_extension("tmp");
                    let keep = keep.min(bytes.len());
                    std::fs::write(&tmp, &bytes[..keep]).map_err(PersistError::Io)?;
                    return Err(PersistError::InjectedFault(
                        "short write of snapshot temp file",
                    ));
                }
            }
        }
        // Order matters on a failing disk: the history the snapshot counts
        // and the new generation's journal must both exist *before* the
        // snapshot becomes visible. If the snapshot landed first and the
        // journal create then failed, the live store would keep appending
        // acked edits to the OLD journal — which recovery ignores once a
        // newer snapshot exists, silently losing them. The reverse
        // failures are harmless: log entries past the newest snapshot's
        // count are cut on open and replayed from the journal, and an
        // empty journal-(e+1) beside snapshot-e replays nothing.
        b.history
            .append(&b.vfs, &b.dir, self.session.history(), new_epoch)?;
        let journal = Journal::create(
            &b.vfs,
            &journal_path(&b.dir, new_epoch),
            new_epoch,
            &EDIT_JOURNAL,
        )?;
        if let Err(e) = atomic_write(b.vfs.as_ref(), &snapshot_path(&b.dir, new_epoch), &bytes) {
            // Roll back so the on-disk best generation stays `epoch`.
            // Cleanup is raw `std::fs` — the vfs fault plan must not fail
            // its own recovery. The failure may have struck AFTER the
            // rename (e.g. the directory fsync): then snapshot-(e+1) is
            // already visible and complete, and removing the journal
            // while leaving the snapshot would strand every later append
            // to journal-e. So: remove the snapshot first, and if it is
            // visible but unremovable, commit forward instead — live
            // appends must land in the generation recovery will read.
            let final_path = snapshot_path(&b.dir, new_epoch);
            if final_path.exists() && std::fs::remove_file(&final_path).is_err() {
                b.journal = journal;
                b.epoch = new_epoch;
                b.records_since_save = 0;
                b.journaled_features = self.session.context().registry().len();
            } else {
                let _ = std::fs::remove_file(journal_path(&b.dir, new_epoch));
            }
            return Err(e);
        }
        b.journal = journal;
        let prune_below = b.epoch;
        b.epoch = new_epoch;
        b.records_since_save = 0;
        b.journaled_features = self.session.context().registry().len();
        // Keep two generations: the new snapshot and its predecessor (with
        // that predecessor's journal), so one corrupt file never strands
        // the session.
        for epoch in list_epochs(&b.dir, "snapshot-")? {
            if epoch < prune_below {
                let _ = std::fs::remove_file(snapshot_path(&b.dir, epoch));
            }
        }
        for epoch in list_epochs(&b.dir, "journal-")? {
            if epoch < prune_below {
                let _ = std::fs::remove_file(journal_path(&b.dir, epoch));
            }
        }
        if let Some(t0) = save_t0 {
            let m = crate::obs::core_metrics();
            m.snapshot_saves.inc();
            m.snapshot_save_ns.record_duration(t0.elapsed());
        }
        Ok(new_epoch)
    }

    // ---- the write-ahead path ----------------------------------------------

    /// Applies one edit write-ahead — the only path by which a durable
    /// session changes:
    ///
    /// 1. features interned since the last record are journaled;
    /// 2. the edit itself is appended and fsynced;
    /// 3. only then does [`DebugSession::apply`] run the in-memory delta;
    /// 4. autosave folds the journal into a snapshot when due. A successful
    ///    `Restore` replaces the whole rule set, so it compacts at once.
    ///
    /// Once its record is journaled and its delta applied, the edit has
    /// happened: a failed autosave does not turn it into an error. The
    /// failure is counted (`em_autosave_failures_total`) and logged as an
    /// `autosave_failed` event, and the journal keeps the edit durable;
    /// the records stay due, so the next record retries the save.
    pub fn apply(&mut self, edit: Edit) -> Result<Applied, SessionError> {
        if let Some(b) = self.backend.as_mut() {
            b.sync_features(self.session.context().registry())?;
            b.append_record(&edit)?;
        }
        let out = self.session.apply(&edit)?;
        let due = self.backend.as_ref().is_some_and(|b| {
            matches!(edit, Edit::Restore { .. })
                || b.autosave_every.is_some_and(|n| b.records_since_save >= n)
        });
        if due {
            if let Err(e) = self.save() {
                crate::obs::core_metrics().autosave_failures.inc();
                em_metrics::events::emit(
                    "autosave_failed",
                    &[("error", em_metrics::events::Field::Str(&e.to_string()))],
                );
            }
        }
        Ok(out)
    }

    /// `DebugSession::add_rule`, write-ahead journaled.
    pub fn add_rule(&mut self, rule: Rule) -> Result<(RuleId, ChangeReport), SessionError> {
        let preds = rule.predicates().to_vec();
        match self.apply(Edit::AddRule { preds })? {
            Applied::Change {
                rule: Some(rid),
                report,
                ..
            } => Ok((rid, report)),
            other => unreachable!("add_rule applied as {other:?}"),
        }
    }

    /// `DebugSession::add_rule_text`, write-ahead journaled.
    pub fn add_rule_text(&mut self, text: &str) -> Result<(RuleId, ChangeReport), SessionError> {
        let rule = self.session.parse_rule_text(text)?;
        self.add_rule(rule)
    }

    /// `DebugSession::parse_predicate` (interns features; the interning is
    /// journaled with the next edit).
    pub fn parse_predicate(&mut self, text: &str) -> Result<Predicate, SessionError> {
        self.session.parse_predicate(text)
    }

    /// `DebugSession::remove_rule`, write-ahead journaled.
    pub fn remove_rule(&mut self, rid: RuleId) -> Result<ChangeReport, SessionError> {
        Ok(delta(self.apply(Edit::RemoveRule { rid })?))
    }

    /// `DebugSession::add_predicate`, write-ahead journaled.
    pub fn add_predicate(
        &mut self,
        rid: RuleId,
        pred: Predicate,
    ) -> Result<(PredId, ChangeReport), SessionError> {
        match self.apply(Edit::AddPredicate { rid, pred })? {
            Applied::Change {
                pred: Some(pid),
                report,
                ..
            } => Ok((pid, report)),
            other => unreachable!("add_predicate applied as {other:?}"),
        }
    }

    /// `DebugSession::remove_predicate`, write-ahead journaled.
    pub fn remove_predicate(&mut self, pid: PredId) -> Result<ChangeReport, SessionError> {
        Ok(delta(self.apply(Edit::RemovePredicate { pid })?))
    }

    /// `DebugSession::set_threshold`, write-ahead journaled.
    pub fn set_threshold(
        &mut self,
        pid: PredId,
        threshold: f64,
    ) -> Result<ChangeReport, SessionError> {
        Ok(delta(self.apply(Edit::SetThreshold { pid, threshold })?))
    }

    /// `DebugSession::undo`, write-ahead journaled.
    pub fn undo(&mut self) -> Result<Option<ChangeReport>, SessionError> {
        Ok(self.apply(Edit::Undo)?.into_report())
    }

    /// `DebugSession::resume`, write-ahead journaled.
    pub fn resume(&mut self) -> Result<Option<ChangeReport>, SessionError> {
        Ok(self.apply(Edit::Resume)?.into_report())
    }

    /// `DebugSession::run_full`, write-ahead journaled.
    pub fn run_full(&mut self) -> Result<EvalStats, SessionError> {
        Ok(rerun(self.apply(Edit::RunFull)?))
    }

    /// `DebugSession::simplify`, write-ahead journaled.
    pub fn simplify(&mut self) -> Result<SimplifyReport, SessionError> {
        match self.apply(Edit::Simplify)? {
            Applied::Simplified(report) => Ok(report),
            other => unreachable!("simplify applied as {other:?}"),
        }
    }

    /// `DebugSession::optimize`, write-ahead journaled.
    pub fn optimize(&mut self, algo: OrderingAlgo) -> Result<EvalStats, SessionError> {
        Ok(rerun(self.apply(Edit::Optimize { algo })?))
    }

    /// `DebugSession::restore`, write-ahead journaled; on success the
    /// journal is immediately compacted into a snapshot (a restore
    /// replaces the whole rule set, so the old journal is dead weight).
    pub fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<EvalStats, SessionError> {
        let snapshot = snapshot.clone();
        Ok(rerun(self.apply(Edit::Restore { snapshot })?))
    }
}

/// The report of an edit that always runs a delta.
fn delta(applied: Applied) -> ChangeReport {
    applied
        .into_report()
        .unwrap_or_else(|| unreachable!("an incremental edit applied without a delta"))
}

/// The work counters of an edit that always re-runs matching.
fn rerun(applied: Applied) -> EvalStats {
    match applied {
        Applied::Rerun(stats) => stats,
        other => unreachable!("a re-running edit applied as {other:?}"),
    }
}

impl Backend {
    /// Journals `InternFeature` records for registry entries not yet
    /// covered by the snapshot or journal.
    fn sync_features(&mut self, registry: &FeatureRegistry) -> Result<(), PersistError> {
        let defs: Vec<FeatureDef> = registry
            .iter()
            .skip(self.journaled_features)
            .map(|(_, def)| *def)
            .collect();
        for def in defs {
            self.append_record(&Edit::InternFeature { def })?;
            self.journaled_features += 1;
        }
        Ok(())
    }

    /// Encodes, appends, and fsyncs one record — consulting the I/O fault
    /// plan first, so tests can tear exactly this write or crash right
    /// after it.
    fn append_record(&mut self, record: &Edit) -> Result<(), PersistError> {
        let json = serde_json::to_string(record)
            .map_err(|e| PersistError::Codec(format!("journal record: {e}")))?;
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.io_faults {
            match plan.on_append() {
                AppendFault::None => {}
                AppendFault::Torn { keep } => {
                    let frame = super::frame::encode_frame(json.as_bytes());
                    let keep = keep.min(frame.len());
                    self.journal.write_raw(&frame[..keep])?;
                    return Err(PersistError::InjectedFault("torn journal append"));
                }
                AppendFault::CrashAfterAppend => {
                    self.journal.append(json.as_bytes())?;
                    return Err(PersistError::InjectedFault(
                        "crash between journal append and delta apply",
                    ));
                }
            }
        }
        self.journal.append(json.as_bytes())?;
        self.records_since_save += 1;
        Ok(())
    }
}

// ---- recovery helpers -----------------------------------------------------

/// Decodes one journal frame payload into an [`Edit`]. Public so
/// replication followers can decode frames shipped off another store's
/// journal (the payloads [`crate::persist::tail::JournalTailer`] yields).
pub fn decode_record(payload: &[u8]) -> Result<Edit, PersistError> {
    let s = std::str::from_utf8(payload)
        .map_err(|_| PersistError::Corrupt("journal record: not UTF-8".into()))?;
    serde_json::from_str(s).map_err(|e| PersistError::Codec(format!("journal record: {e}")))
}

/// Replays one shipped journal record through a live session — the same
/// [`DebugSession::apply`] crash recovery takes. The session's deadline is
/// lifted for the duration (replay must terminate even under a budget that
/// would park every edit), and any budget-parked remainder is settled
/// before the deadline is restored.
///
/// `Ok(false)` means the edit failed during replay; since the record was
/// journaled *before* its live outcome, a deterministic failure replays
/// as the same failure and is not an inconsistency.
pub fn replay_record(session: &mut DebugSession, record: &Edit) -> Result<bool, PersistError> {
    let saved_deadline = session.config().deadline;
    session.set_deadline(None);
    let applied = session.apply(record).is_ok();
    let settled = settle(session);
    session.set_deadline(saved_deadline);
    settled?;
    Ok(applied)
}

/// Installs raw snapshot bytes with the history-log frames shipped beside
/// them (as read off another store's directory by
/// [`crate::persist::tail::JournalTailer::newest_snapshot`]) into a fresh
/// session, returning the snapshot's epoch. This is how a replication
/// follower bootstraps a session whose early journal generations have
/// been compacted away. As on `open`, a damaged run of frames installs
/// its longest valid prefix.
pub fn install_snapshot_bytes(
    session: &mut DebugSession,
    bytes: &[u8],
    history: &[u8],
) -> Result<u64, PersistError> {
    if !session.function().is_empty()
        || !session.history().is_empty()
        || !session.context().registry().is_empty()
    {
        return Err(PersistError::InvalidState(
            "a snapshot must be installed into a fresh session (no rules, features, or history)"
                .into(),
        ));
    }
    let dec = decode_snapshot(bytes)?;
    let epoch = dec.epoch;
    let mut frames = Vec::new();
    let mut offset = 0;
    while let FrameRead::Ok { payload, next } = read_frame(history, offset) {
        frames.push(payload);
        offset = next;
    }
    install_snapshot(session, dec, frames)?;
    Ok(epoch)
}

/// How much of the history log an installed snapshot took.
#[derive(Debug, Default)]
struct LogTaken {
    /// Leading frames of the log the installed history covers.
    frames: usize,
    /// Entries those frames hold.
    entries: usize,
    /// Entries the snapshot counts that the log could not supply.
    lost: usize,
}

/// Installs a decoded snapshot into a fresh session: features re-intern in
/// their original order (reproducing the same dense ids), then function,
/// state, history, undo stack, and quarantine land wholesale — no
/// matching re-run. A version-2 snapshot's history comes from `log`, the
/// history log's valid frame payloads in order; a version-1 snapshot's is
/// inline, and takes no frame of the log.
fn install_snapshot<'a>(
    session: &mut DebugSession,
    dec: DecodedSnapshot,
    log: impl IntoIterator<Item = &'a [u8]>,
) -> Result<LogTaken, PersistError> {
    if dec.state.n_pairs() != session.candidates().len() {
        return Err(PersistError::InvalidState(format!(
            "store covers {} candidate pairs; this session has {}",
            dec.state.n_pairs(),
            session.candidates().len()
        )));
    }
    for def in &dec.features {
        session.intern_checked(*def)?;
    }
    let (history, taken) = match dec.history {
        SnapshotHistory::Inline(history) => (history, LogTaken::default()),
        SnapshotHistory::Logged(len) => {
            let (frames, history) = super::history::load(log, dec.epoch, len);
            let taken = LogTaken {
                frames,
                entries: history.len(),
                lost: len - history.len(),
            };
            (history, taken)
        }
    };
    session.set_restored(dec.function, dec.state, history, dec.undo, dec.quarantined);
    Ok(taken)
}

/// Drives any budget-parked remainder to completion so the next record
/// replays over settled state. The deadline is lifted during replay, so
/// each pass completes; the loop guards against a pathological plan all
/// the same.
fn settle(session: &mut DebugSession) -> Result<(), PersistError> {
    let mut last_remaining = usize::MAX;
    while let Some(pending) = session.pending_resume() {
        let remaining = pending.remaining().len();
        if remaining >= last_remaining {
            return Err(PersistError::Replay(
                "replay made no progress resuming a parked edit".into(),
            ));
        }
        last_remaining = remaining;
        session
            .resume()
            .map_err(|e| PersistError::Replay(format!("resuming a parked edit: {e}")))?;
    }
    Ok(())
}
