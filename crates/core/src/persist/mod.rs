//! Durable session store: checksummed snapshots + a write-ahead edit
//! journal with crash recovery through the incremental engine.
//!
//! The paper's whole premise is that a debugging session accumulates
//! expensive derived state — the feature memo `H`, per-rule fired sets
//! `M(r)`, per-predicate failed sets `U(p)` (§6) — so that edits cost a
//! small delta instead of a full re-run. This module makes that state
//! survive a process crash:
//!
//! * [`snapshot`] — a versioned, CRC32-checksummed binary image of the
//!   full [`crate::MatchState`] plus the matching function, feature
//!   interning table, history length, undo stack, and quarantine set,
//!   written atomically (temp file → `fsync` → rename → directory
//!   `fsync`);
//! * [`journal`] — an append-only write-ahead log of edits, each a
//!   length-prefixed checksummed frame appended (and fsynced) *before*
//!   the in-memory delta is applied, truncated cleanly at the first torn
//!   or corrupt frame on open;
//! * [`history`] — the append-only history log holding the session's
//!   edit history, one frame per save, so a snapshot's size depends on
//!   the state alone and a save's cost does not grow with the session's
//!   age;
//! * [`store`] — the [`SessionStore`] tying them together: one
//!   write-ahead `apply(Edit)`, an autosave/compaction policy, and
//!   recovery that loads the latest valid snapshot with the history it
//!   counts and replays the journal suffix through
//!   [`crate::DebugSession::apply`] — the incremental Algorithms 7–10,
//!   not a full re-run — settling any edit a budget parked;
//! * [`lock`] — a pid-stamped lock file guarding each store directory
//!   against concurrent writers (stale locks from killed owners are
//!   detected and stolen), plus name→directory resolution for stores
//!   addressed by session name under a common root;
//! * [`vfs`] — the injectable filesystem layer every persist *write*
//!   funnels through, classifying failures (ENOSPC, EIO, short write,
//!   failed rename) into typed [`PersistError::Disk`] errors and — under
//!   `fault-inject` — failing any chosen write site on demand;
//! * [`scrub`] — the fsck for store directories: walk both generations
//!   and the history log, verify every CRC frame, classify damage (torn
//!   tail, bit flip, missing generation, orphan tmp, stale lock), and
//!   optionally repair back to the newest provably-consistent state.
//!
//! A store directory holds up to two *generations* of files,
//! `snapshot-<epoch>.bin` / `journal-<epoch>.bin`, and one history log,
//! `history.bin`: saving appends the history entries logged since the
//! previous save to the log, folds the journal into a fresh snapshot at
//! the next epoch and prunes everything older than the previous
//! generation, so a corrupt latest snapshot can still fall back one
//! generation and replay forward. The log is never pruned; a fallback
//! cuts it back to what the older snapshot counts.

pub mod frame;
pub mod history;
pub mod journal;
pub mod lock;
pub mod scrub;
pub mod snapshot;
pub mod store;
pub mod tail;
pub mod vfs;

pub use frame::crc32;
pub use lock::{session_store_dir, StoreLock};
pub use scrub::{scrub, ScrubClass, ScrubFinding, ScrubReport};
pub use store::{
    decode_record, install_snapshot_bytes, replay_record, store_exists, RecoveryReport,
    SessionStore,
};
pub use tail::{JournalTailer, SnapshotShipment, TailBatch, TailResult, Watermark};
pub use vfs::{disk_free, DiskErrorKind, DiskOp, RealVfs, Vfs};

use std::fmt;

/// Errors from the durable session store.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A persist *write site* failed in a disk-shaped way (ENOSPC, EIO,
    /// short write, failed rename). Unlike [`PersistError::Io`], the
    /// operation is named, so a server can refuse further mutations with
    /// "degraded: journal-append failed (no space left on device)" and a
    /// probe can test exactly the failed class before re-admitting
    /// writes. The pre-write state is intact: a failed journal append is
    /// truncated back, a failed snapshot write leaves the previous
    /// generation untouched.
    Disk {
        /// Which write site failed.
        op: vfs::DiskOp,
        /// How it failed.
        kind: vfs::DiskErrorKind,
    },
    /// A file exists but its content is torn, checksum-invalid, or
    /// structurally impossible.
    Corrupt(String),
    /// A frame's payload failed to encode or decode.
    Codec(String),
    /// A journaled edit could not be re-applied during recovery.
    Replay(String),
    /// The operation does not fit the store's current state (e.g. opening
    /// a store over a non-fresh session, or saving without a store).
    InvalidState(String),
    /// Another live handle already holds the store directory's lock file.
    Locked {
        /// The locked store directory.
        dir: String,
        /// Pid recorded in the lock file (0 when it could not be read).
        pid: u32,
    },
    /// An injected I/O fault fired (test harness only): the store must be
    /// treated as crashed and reopened.
    #[cfg(feature = "fault-inject")]
    InjectedFault(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Disk { op, kind } => {
                write!(f, "disk error during {op}: {kind}")
            }
            PersistError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            PersistError::Codec(m) => write!(f, "codec error: {m}"),
            PersistError::Replay(m) => write!(f, "replay error: {m}"),
            PersistError::InvalidState(m) => write!(f, "{m}"),
            PersistError::Locked { dir, pid } => {
                write!(f, "store {dir} is locked by pid {pid}")
            }
            #[cfg(feature = "fault-inject")]
            PersistError::InjectedFault(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}
