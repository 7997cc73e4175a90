//! `scrub`: the fsck for session store directories.
//!
//! A store directory holds up to two generations of
//! `snapshot-<epoch>.bin` / `journal-<epoch>.bin`, the history log
//! `history.bin`, and a pid-stamped `lock` file. Scrub walks all of it
//! read-only, verifies every CRC frame, and classifies damage into five
//! classes:
//!
//! * **torn tail** — a journal or the history log whose last frame is
//!   incomplete (a crash or a failed append mid-frame);
//! * **bit flip** — a snapshot, journal or history log whose checksums no
//!   longer match (silent media corruption), including header-level
//!   damage;
//! * **missing generation** — a journal file absent or unreachable where
//!   the epoch chain requires one, stranding later records, or a history
//!   log holding fewer entries than the newest valid snapshot counts;
//! * **orphan tmp** — a leftover `.tmp` from an interrupted atomic write;
//! * **stale lock** — a lock file stamped by a dead process.
//!
//! With `repair`, scrub restores the newest *provably-consistent* state:
//! torn tails are truncated to the last whole frame, a corrupt snapshot
//! generation is dropped when an older valid one can chain forward
//! (journal `e` holds exactly the edits after snapshot `e`, so
//! `snapshot e-1 + journal e-1 + journal e` reproduces it), journal
//! generations stranded behind damage are removed, and orphan tmp files
//! are swept. A torn or bit-flipped history log is truncated to its last
//! whole frame, and one whose header is unreadable is removed; `open`
//! then installs the entries that survive and reports how many were lost.
//! Re-snapshotting from the recovered state happens on the store's next
//! `open` + `save` — scrub itself never writes new images.
//!
//! Scrub takes the store lock for the walk (failing with
//! [`PersistError::Locked`] if a live owner holds it) and on a fully
//! clean store is a byte-identical no-op on every store file.

use super::frame::{read_frame, FrameRead};
use super::history::{covered, history_path};
use super::journal::{Journal, EDIT_JOURNAL};
use super::lock::{lock_owner, StoreLock};
use super::snapshot::{
    decode_header, decode_snapshot, SnapshotHistory, HISTORY_MAGIC, JOURNAL_MAGIC, LOG_VERSION,
};
use super::store::{journal_path, list_epochs, snapshot_path, store_exists};
use super::vfs::{classify, DiskOp, RealVfs};
use super::PersistError;
use std::fmt;
use std::path::Path;

/// The damage classes scrub reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ScrubClass {
    /// A journal ends in an incomplete frame.
    TornTail,
    /// A snapshot or journal fails its checksum or header validation.
    BitFlip,
    /// A journal generation the epoch chain requires is absent or
    /// unreachable behind damage.
    MissingGeneration,
    /// A leftover `.tmp` file from an interrupted atomic write.
    OrphanTmp,
    /// A lock file stamped by a process that no longer exists.
    StaleLock,
}

impl ScrubClass {
    /// Stable kebab-case name (matches the serde encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            ScrubClass::TornTail => "torn-tail",
            ScrubClass::BitFlip => "bit-flip",
            ScrubClass::MissingGeneration => "missing-generation",
            ScrubClass::OrphanTmp => "orphan-tmp",
            ScrubClass::StaleLock => "stale-lock",
        }
    }
}

impl fmt::Display for ScrubClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One classified problem, and whether this run fixed it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScrubFinding {
    /// Damage class.
    pub class: ScrubClass,
    /// Human-readable specifics (file, offset, what was dropped).
    pub detail: String,
    /// True when a repair was applied for this finding.
    pub repaired: bool,
}

/// What a scrub pass saw (and, with `repair`, did).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScrubReport {
    /// The store directory walked.
    pub dir: String,
    /// Whether repairs were requested.
    pub repair: bool,
    /// Every classified problem, in discovery order.
    pub findings: Vec<ScrubFinding>,
    /// Snapshot epochs that decoded cleanly.
    pub snapshots_valid: Vec<u64>,
    /// Journal epochs whose every frame verified (after truncation, when
    /// a torn tail was repaired).
    pub journals_valid: Vec<u64>,
    /// Journal and history-log frames verified across all usable
    /// generations.
    pub frames_verified: u64,
    /// True when the store can be opened to a consistent state (at least
    /// one valid snapshot generation survives, with a usable chain).
    pub serviceable: bool,
}

impl ScrubReport {
    /// Findings of one class, for tests and tooling.
    pub fn of_class(&self, class: ScrubClass) -> Vec<&ScrubFinding> {
        self.findings.iter().filter(|f| f.class == class).collect()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_report(self, f)
    }
}

fn fmt_report(r: &ScrubReport, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(
        f,
        "scrub {}: {} snapshot generation(s) valid, {} journal(s) valid, {} frame(s) verified",
        r.dir,
        r.snapshots_valid.len(),
        r.journals_valid.len(),
        r.frames_verified
    )?;
    if r.findings.is_empty() {
        writeln!(f, "  clean: no findings")?;
    }
    for finding in &r.findings {
        let mark = if finding.repaired {
            "repaired"
        } else if r.repair {
            "NOT repaired"
        } else {
            "found"
        };
        writeln!(f, "  [{}] {} ({mark})", finding.class, finding.detail)?;
    }
    write!(
        f,
        "  verdict: {}",
        if r.serviceable {
            "serviceable"
        } else {
            "NOT serviceable (no valid snapshot generation survives)"
        }
    )
}

/// How one journal or history-log file scanned.
enum JournalState {
    /// Every frame verified; `payloads` holds them, in order.
    Clean { payloads: Vec<Vec<u8>> },
    /// A valid prefix of frames, `payloads`, ends at byte `offset`; the
    /// rest is torn or corrupt.
    Torn {
        payloads: Vec<Vec<u8>>,
        offset: u64,
        detail: String,
    },
    /// The header itself is unusable; nothing is recoverable.
    Bad { detail: String },
}

/// Walks the store at `dir`, classifying damage; with `repair`, restores
/// the newest provably-consistent state. See the module docs for the
/// class and repair semantics.
///
/// Fails with [`PersistError::Locked`] when a live process holds the
/// store's lock, and with [`PersistError::InvalidState`] when `dir` holds
/// no store at all.
pub fn scrub(dir: &Path, repair: bool) -> Result<ScrubReport, PersistError> {
    if !store_exists(dir)? {
        return Err(PersistError::InvalidState(format!(
            "no session store in {}",
            dir.display()
        )));
    }
    let mut findings = Vec::new();

    // The lock, before touching anything: a live owner means the store
    // is being written and a walk would race it. A dead owner's lock is
    // stale — acquiring steals it, and our release on return removes it,
    // which is the repair.
    if let Some((pid, alive)) = lock_owner(dir) {
        if alive {
            return Err(PersistError::Locked {
                dir: dir.display().to_string(),
                pid,
            });
        }
        findings.push(ScrubFinding {
            class: ScrubClass::StaleLock,
            detail: format!("lock file stamped by dead pid {pid}"),
            repaired: true,
        });
    }
    let _lock = StoreLock::acquire(dir)?;
    let vfs = RealVfs::arc();

    // ---- snapshots: decode every generation ----
    let snapshots = list_epochs(dir, "snapshot-")?;
    let mut snapshots_valid = Vec::new();
    let mut snapshots_bad = Vec::new();
    // The newest valid snapshot's history count, when it is in the log.
    let mut logged = None;
    for &epoch in &snapshots {
        let path = snapshot_path(dir, epoch);
        let bytes = std::fs::read(&path).map_err(PersistError::Io)?;
        match decode_snapshot(&bytes) {
            Ok(dec) if dec.epoch == epoch => {
                snapshots_valid.push(epoch);
                logged = match dec.history {
                    SnapshotHistory::Logged(len) => Some((epoch, len)),
                    SnapshotHistory::Inline(_) => None,
                };
            }
            Ok(dec) => snapshots_bad.push((
                epoch,
                format!("embedded epoch {} (renamed or spliced file)", dec.epoch),
            )),
            Err(e) => snapshots_bad.push((epoch, e.to_string())),
        }
    }
    let best = snapshots_valid.last().copied();
    let serviceable = best.is_some();
    for (epoch, detail) in snapshots_bad {
        // Dropping a corrupt generation is safe only when an older valid
        // one can chain forward through its journals.
        let can_drop = serviceable;
        let mut repaired = false;
        if repair && can_drop {
            std::fs::remove_file(snapshot_path(dir, epoch)).map_err(PersistError::Io)?;
            repaired = true;
        }
        findings.push(ScrubFinding {
            class: ScrubClass::BitFlip,
            detail: format!(
                "snapshot epoch {epoch}: {detail}{}",
                if can_drop {
                    ""
                } else {
                    " — no valid generation survives; restore from a replica"
                }
            ),
            repaired,
        });
    }

    // ---- journals: verify every frame ----
    let journals = list_epochs(dir, "journal-")?;
    let mut journals_valid = Vec::new();
    let mut frames_verified = 0u64;
    // Journals below the best snapshot are history open() never reads;
    // verify them anyway (they count toward frames_verified) but damage
    // there strands nothing.
    let mut unreachable_from: Option<u64> = None;
    let mut expected = best;
    for &epoch in &journals {
        let state = scan_log(&journal_path(dir, epoch), JOURNAL_MAGIC, Some(epoch))?;
        if let JournalState::Clean { payloads } | JournalState::Torn { payloads, .. } = &state {
            frames_verified += payloads.len() as u64;
        }
        let relevant = best.is_some_and(|b| epoch >= b);
        if relevant {
            // The chain open() replays must be contiguous from the best
            // snapshot: a gap means later records describe an
            // unreachable history.
            if let Some(exp) = expected {
                if epoch > exp && unreachable_from.is_none() {
                    findings.push(ScrubFinding {
                        class: ScrubClass::MissingGeneration,
                        detail: format!(
                            "journal for epoch {exp} missing; records from epoch {epoch} on are unreachable"
                        ),
                        repaired: false,
                    });
                    unreachable_from = Some(epoch);
                }
                expected = Some(epoch.max(exp) + 1);
            }
        }
        if relevant && unreachable_from.is_some_and(|u| epoch >= u) {
            // Stranded behind earlier damage: the records can never
            // replay consistently, whatever their own integrity.
            let mut repaired = false;
            if repair {
                std::fs::remove_file(journal_path(dir, epoch)).map_err(PersistError::Io)?;
                repaired = true;
            }
            findings.push(ScrubFinding {
                class: ScrubClass::MissingGeneration,
                detail: format!("journal epoch {epoch} stranded behind earlier damage"),
                repaired,
            });
            continue;
        }
        match state {
            JournalState::Clean { .. } => journals_valid.push(epoch),
            JournalState::Torn {
                payloads,
                offset,
                detail,
            } => {
                let frames = payloads.len();
                let mut repaired = false;
                if repair {
                    truncate(&journal_path(dir, epoch), offset)?;
                    repaired = true;
                    journals_valid.push(epoch);
                }
                findings.push(ScrubFinding {
                    class: ScrubClass::TornTail,
                    detail: format!(
                        "journal epoch {epoch}: {detail} after {frames} whole frame(s)"
                    ),
                    repaired,
                });
                if relevant {
                    // Frames in later generations follow the dropped
                    // tail and are no longer reachable.
                    unreachable_from = Some(epoch + 1);
                }
            }
            JournalState::Bad { detail } => {
                let mut repaired = false;
                if repair && relevant {
                    std::fs::remove_file(journal_path(dir, epoch)).map_err(PersistError::Io)?;
                    repaired = true;
                }
                findings.push(ScrubFinding {
                    class: ScrubClass::BitFlip,
                    detail: format!("journal epoch {epoch}: {detail}"),
                    repaired,
                });
                if relevant {
                    unreachable_from = Some(epoch + 1);
                }
            }
        }
    }

    // A valid newest snapshot whose journal is gone entirely: recoverable
    // (no post-snapshot edits survive), but the invariant that every
    // generation has a journal is restored under repair.
    if let Some(b) = best {
        if !journals.contains(&b) && unreachable_from.is_none() {
            let mut repaired = false;
            if repair {
                Journal::create(&vfs, &journal_path(dir, b), b, &EDIT_JOURNAL)?;
                repaired = true;
                journals_valid.push(b);
            }
            findings.push(ScrubFinding {
                class: ScrubClass::MissingGeneration,
                detail: format!(
                    "journal for snapshot epoch {b} missing; edits after that snapshot are lost"
                ),
                repaired,
            });
        }
    }

    // ---- the history log ----
    let log = history_path(dir);
    let payloads = if log.exists() {
        match scan_log(&log, HISTORY_MAGIC, None)? {
            JournalState::Clean { payloads } => {
                frames_verified += payloads.len() as u64;
                payloads
            }
            JournalState::Torn {
                payloads,
                offset,
                detail,
            } => {
                let frames = payloads.len();
                frames_verified += frames as u64;
                let mut repaired = false;
                if repair {
                    truncate(&log, offset)?;
                    repaired = true;
                }
                findings.push(ScrubFinding {
                    class: ScrubClass::TornTail,
                    detail: format!("history log: {detail} after {frames} whole frame(s)"),
                    repaired,
                });
                payloads
            }
            JournalState::Bad { detail } => {
                let mut repaired = false;
                if repair {
                    std::fs::remove_file(&log).map_err(PersistError::Io)?;
                    repaired = true;
                }
                findings.push(ScrubFinding {
                    class: ScrubClass::BitFlip,
                    detail: format!("history log: {detail}"),
                    repaired,
                });
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };
    if let Some((epoch, len)) = logged {
        let (_, entries) = covered(payloads.iter().map(Vec::as_slice), epoch, len);
        if entries < len {
            findings.push(ScrubFinding {
                class: ScrubClass::MissingGeneration,
                detail: format!(
                    "history log holds {entries} of the {len} entries snapshot epoch {epoch} \
                     counts; open installs those {entries}"
                ),
                repaired: false,
            });
        }
    }

    // ---- orphan temp files ----
    for entry in std::fs::read_dir(dir).map_err(PersistError::Io)? {
        let entry = entry.map_err(PersistError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            let mut repaired = false;
            if repair {
                std::fs::remove_file(entry.path()).map_err(PersistError::Io)?;
                repaired = true;
            }
            findings.push(ScrubFinding {
                class: ScrubClass::OrphanTmp,
                detail: format!("leftover temp file {name} from an interrupted atomic write"),
                repaired,
            });
        }
    }

    journals_valid.sort_unstable();
    journals_valid.dedup();
    let m = crate::obs::core_metrics();
    m.scrubs.inc();
    m.scrub_findings.add(findings.len() as u64);
    for f in &findings {
        em_metrics::events::emit(
            "scrub_finding",
            &[
                (
                    "class",
                    em_metrics::events::Field::Str(&format!("{:?}", f.class)),
                ),
                ("detail", em_metrics::events::Field::Str(&f.detail)),
                ("repaired", em_metrics::events::Field::Bool(f.repaired)),
            ],
        );
    }
    em_metrics::events::emit(
        "scrub",
        &[
            (
                "dir",
                em_metrics::events::Field::Str(&dir.display().to_string()),
            ),
            ("repair", em_metrics::events::Field::Bool(repair)),
            (
                "findings",
                em_metrics::events::Field::U64(findings.len() as u64),
            ),
            ("serviceable", em_metrics::events::Field::Bool(serviceable)),
        ],
    );
    Ok(ScrubReport {
        dir: dir.display().to_string(),
        repair,
        findings,
        snapshots_valid,
        journals_valid,
        frames_verified,
        serviceable,
    })
}

/// Verifies one journal (whose header must carry `epoch`) or the history
/// log frame by frame.
fn scan_log(
    path: &Path,
    magic: &[u8; 4],
    epoch: Option<u64>,
) -> Result<JournalState, PersistError> {
    let bytes = std::fs::read(path).map_err(PersistError::Io)?;
    let what = if epoch.is_some() {
        "journal"
    } else {
        "history log"
    };
    let (_, file_epoch, mut offset) = match decode_header(&bytes, magic, LOG_VERSION, what) {
        Ok(h) => h,
        Err(e) => {
            return Ok(JournalState::Bad {
                detail: e.to_string(),
            })
        }
    };
    if epoch.is_some_and(|e| e != file_epoch) {
        return Ok(JournalState::Bad {
            detail: format!("embedded epoch {file_epoch} (renamed or spliced file)"),
        });
    }
    let mut payloads = Vec::new();
    loop {
        match read_frame(&bytes, offset) {
            FrameRead::Ok { payload, next } => {
                payloads.push(payload.to_vec());
                offset = next;
            }
            FrameRead::Eof => return Ok(JournalState::Clean { payloads }),
            FrameRead::Corrupt(m) => {
                return Ok(JournalState::Torn {
                    payloads,
                    offset: offset as u64,
                    detail: m,
                })
            }
        }
    }
}

/// Truncates a journal's or the history log's torn tail at `offset`,
/// durably.
fn truncate(path: &Path, offset: u64) -> Result<(), PersistError> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| classify(DiskOp::Truncate, e))?;
    file.set_len(offset)
        .map_err(|e| classify(DiskOp::Truncate, e))?;
    file.sync_all().map_err(|e| classify(DiskOp::Truncate, e))
}
