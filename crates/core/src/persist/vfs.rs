//! Injectable filesystem layer for the persist stack.
//!
//! Every write the durable store performs — snapshot temp files, journal
//! appends, compaction renames, tail truncations, lock stamps, probe
//! writes — goes through a [`Vfs`] so that (a) each failure carries a
//! typed [`PersistError::Disk`] naming the operation and the failure
//! kind, and (b) the `fault-inject` build can make any individual write
//! fail with ENOSPC / EIO / a short write / a failed rename, at the n-th
//! occurrence, without touching the real disk's health.
//!
//! The real implementation ([`RealVfs`]) is a thin veneer over `std::fs`
//! that classifies OS errors; the fault implementation
//! ([`FaultVfs`], `fault-inject` only) consults a
//! [`crate::fault::DiskFaultPlan`] before delegating.

use super::PersistError;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// A persist-layer write site, named so a disk error (or an injected
/// fault) can say exactly which operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DiskOp {
    /// Writing a snapshot image to its temp file (create/write/fsync).
    SnapshotWrite,
    /// Renaming a snapshot temp file over its final name.
    SnapshotRename,
    /// Creating a fresh journal file (header write + fsync).
    JournalCreate,
    /// Appending a frame to the journal (write + fdatasync).
    JournalAppend,
    /// Creating the history log or appending a save's frame to it.
    HistoryAppend,
    /// Truncating a journal's torn tail on open.
    Truncate,
    /// Fsyncing a directory after a rename/create within it.
    DirSync,
    /// Stamping the store directory's lock file.
    Lock,
    /// The small probe write a degraded store uses to test recovery.
    Probe,
}

impl DiskOp {
    /// Stable lowercase name, used in error strings and wire payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            DiskOp::SnapshotWrite => "snapshot-write",
            DiskOp::SnapshotRename => "snapshot-rename",
            DiskOp::JournalCreate => "journal-create",
            DiskOp::JournalAppend => "journal-append",
            DiskOp::HistoryAppend => "history-append",
            DiskOp::Truncate => "truncate",
            DiskOp::DirSync => "dir-sync",
            DiskOp::Lock => "lock",
            DiskOp::Probe => "probe",
        }
    }

    /// Every op, for fault-sweep harnesses.
    pub const ALL: [DiskOp; 9] = [
        DiskOp::SnapshotWrite,
        DiskOp::SnapshotRename,
        DiskOp::JournalCreate,
        DiskOp::JournalAppend,
        DiskOp::HistoryAppend,
        DiskOp::Truncate,
        DiskOp::DirSync,
        DiskOp::Lock,
        DiskOp::Probe,
    ];
}

impl fmt::Display for DiskOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a disk operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskErrorKind {
    /// The filesystem is out of space (ENOSPC or quota exceeded).
    NoSpace,
    /// Fewer bytes landed than were written.
    ShortWrite,
    /// A rename did not take effect; the temp file may remain.
    RenameFailed,
    /// Any other I/O failure, with the OS message preserved.
    Io(String),
}

impl fmt::Display for DiskErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskErrorKind::NoSpace => write!(f, "no space left on device"),
            DiskErrorKind::ShortWrite => write!(f, "short write"),
            DiskErrorKind::RenameFailed => write!(f, "rename failed"),
            DiskErrorKind::Io(m) => write!(f, "{m}"),
        }
    }
}

const ENOSPC: i32 = 28;
const EDQUOT: i32 = 122;

/// Classifies an OS error at a persist write site into a typed
/// [`PersistError::Disk`].
pub fn classify(op: DiskOp, e: std::io::Error) -> PersistError {
    let kind = match e.raw_os_error() {
        Some(ENOSPC) | Some(EDQUOT) => DiskErrorKind::NoSpace,
        _ if e.kind() == std::io::ErrorKind::WriteZero => DiskErrorKind::ShortWrite,
        _ => DiskErrorKind::Io(e.to_string()),
    };
    PersistError::Disk { op, kind }
}

/// The filesystem surface the persist layer writes through.
///
/// Read paths stay on plain `std::fs` — a read failure is already a
/// typed [`PersistError`] and reads cannot lose state — but every write,
/// sync, rename, and truncate funnels through here so each site is
/// individually fallible under the `fault-inject` harness.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path, op: DiskOp) -> Result<File, PersistError>;

    /// Creates a file that must not already exist (O_EXCL). Returns the
    /// raw `io::Error` so callers can distinguish `AlreadyExists` (lock
    /// contention) from a disk fault; classify the rest with
    /// [`classify`].
    fn create_new(&self, path: &Path, op: DiskOp) -> std::io::Result<File>;

    /// Writes all of `bytes`.
    fn write_all(&self, file: &mut File, bytes: &[u8], op: DiskOp) -> Result<(), PersistError>;

    /// `fdatasync`.
    fn sync_data(&self, file: &File, op: DiskOp) -> Result<(), PersistError>;

    /// `fsync`.
    fn sync_all(&self, file: &File, op: DiskOp) -> Result<(), PersistError>;

    /// Renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path, op: DiskOp) -> Result<(), PersistError>;

    /// Truncates (or extends) a file to `len` bytes.
    fn set_len(&self, file: &File, len: u64, op: DiskOp) -> Result<(), PersistError>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl RealVfs {
    /// A shared handle to the real filesystem.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path, op: DiskOp) -> Result<File, PersistError> {
        File::create(path).map_err(|e| classify(op, e))
    }

    fn create_new(&self, path: &Path, _op: DiskOp) -> std::io::Result<File> {
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
    }

    fn write_all(&self, file: &mut File, bytes: &[u8], op: DiskOp) -> Result<(), PersistError> {
        file.write_all(bytes).map_err(|e| classify(op, e))
    }

    fn sync_data(&self, file: &File, op: DiskOp) -> Result<(), PersistError> {
        file.sync_data().map_err(|e| classify(op, e))
    }

    fn sync_all(&self, file: &File, op: DiskOp) -> Result<(), PersistError> {
        file.sync_all().map_err(|e| classify(op, e))
    }

    fn rename(&self, from: &Path, to: &Path, op: DiskOp) -> Result<(), PersistError> {
        // The op already names the rename site; classify keeps the OS
        // message for the non-ENOSPC case.
        std::fs::rename(from, to).map_err(|e| classify(op, e))
    }

    fn set_len(&self, file: &File, len: u64, op: DiskOp) -> Result<(), PersistError> {
        file.set_len(len).map_err(|e| classify(op, e))
    }
}

/// A fault-injecting wrapper: consults a [`crate::fault::DiskFaultPlan`]
/// before every write-path call and fails it in the planned way,
/// delegating to [`RealVfs`] otherwise.
#[cfg(feature = "fault-inject")]
#[derive(Debug)]
pub struct FaultVfs {
    real: RealVfs,
    plan: Arc<crate::fault::DiskFaultPlan>,
}

#[cfg(feature = "fault-inject")]
impl FaultVfs {
    /// Wraps the real filesystem with `plan`.
    pub fn new(plan: Arc<crate::fault::DiskFaultPlan>) -> Self {
        FaultVfs {
            real: RealVfs,
            plan,
        }
    }

    /// The wrapped plan (for post-run assertions).
    pub fn plan(&self) -> &Arc<crate::fault::DiskFaultPlan> {
        &self.plan
    }

    fn injected(&self, op: DiskOp) -> Option<PersistError> {
        use crate::fault::DiskFault;
        let kind = match self.plan.on_disk_op(op)? {
            DiskFault::NoSpace => DiskErrorKind::NoSpace,
            DiskFault::Io => DiskErrorKind::Io("injected i/o error".into()),
            DiskFault::ShortWrite { .. } => DiskErrorKind::ShortWrite,
            DiskFault::RenameFail => DiskErrorKind::RenameFailed,
        };
        Some(PersistError::Disk { op, kind })
    }
}

#[cfg(feature = "fault-inject")]
impl Vfs for FaultVfs {
    fn create(&self, path: &Path, op: DiskOp) -> Result<File, PersistError> {
        if let Some(e) = self.injected(op) {
            return Err(e);
        }
        self.real.create(path, op)
    }

    fn create_new(&self, path: &Path, op: DiskOp) -> std::io::Result<File> {
        use crate::fault::DiskFault;
        if let Some(fault) = self.plan.on_disk_op(op) {
            return Err(match fault {
                DiskFault::NoSpace => std::io::Error::from_raw_os_error(ENOSPC),
                _ => std::io::Error::other("injected i/o error"),
            });
        }
        self.real.create_new(path, op)
    }

    fn write_all(&self, file: &mut File, bytes: &[u8], op: DiskOp) -> Result<(), PersistError> {
        use crate::fault::DiskFault;
        match self.plan.on_disk_op(op) {
            None => self.real.write_all(file, bytes, op),
            Some(DiskFault::ShortWrite { keep }) => {
                // The prefix genuinely lands — that is the whole point:
                // the recovery path must cope with the partial bytes.
                let keep = keep.min(bytes.len());
                self.real.write_all(file, &bytes[..keep], op)?;
                let _ = self.real.sync_data(file, op);
                Err(PersistError::Disk {
                    op,
                    kind: DiskErrorKind::ShortWrite,
                })
            }
            Some(DiskFault::NoSpace) => Err(PersistError::Disk {
                op,
                kind: DiskErrorKind::NoSpace,
            }),
            Some(_) => Err(PersistError::Disk {
                op,
                kind: DiskErrorKind::Io("injected i/o error".into()),
            }),
        }
    }

    fn sync_data(&self, file: &File, op: DiskOp) -> Result<(), PersistError> {
        if let Some(e) = self.injected(op) {
            return Err(e);
        }
        self.real.sync_data(file, op)
    }

    fn sync_all(&self, file: &File, op: DiskOp) -> Result<(), PersistError> {
        if let Some(e) = self.injected(op) {
            return Err(e);
        }
        self.real.sync_all(file, op)
    }

    fn rename(&self, from: &Path, to: &Path, op: DiskOp) -> Result<(), PersistError> {
        use crate::fault::DiskFault;
        match self.plan.on_disk_op(op) {
            None => self.real.rename(from, to, op),
            // The rename never happens: the temp file stays behind, the
            // target keeps its old content — exactly what scrub's
            // orphan-tmp class cleans up.
            Some(DiskFault::RenameFail) => Err(PersistError::Disk {
                op,
                kind: DiskErrorKind::RenameFailed,
            }),
            Some(DiskFault::NoSpace) => Err(PersistError::Disk {
                op,
                kind: DiskErrorKind::NoSpace,
            }),
            Some(_) => Err(PersistError::Disk {
                op,
                kind: DiskErrorKind::Io("injected i/o error".into()),
            }),
        }
    }

    fn set_len(&self, file: &File, len: u64, op: DiskOp) -> Result<(), PersistError> {
        if let Some(e) = self.injected(op) {
            return Err(e);
        }
        self.real.set_len(file, len, op)
    }
}

// ---- free-space probe ------------------------------------------------------

/// Free bytes available to unprivileged writers on the filesystem holding
/// `path`, via `statvfs(3)`. `None` when the probe is unsupported on this
/// platform or the call fails — callers must treat the value as advisory.
#[cfg(target_os = "linux")]
pub fn disk_free(path: &Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statvfs(path: *const u8, buf: *mut u64) -> i32;
    }
    let mut cpath = path.as_os_str().as_bytes().to_vec();
    if cpath.contains(&0) {
        return None;
    }
    cpath.push(0);
    // struct statvfs on 64-bit Linux/glibc: f_bsize, f_frsize, f_blocks,
    // f_bfree, f_bavail, … — all 8-byte fields, so a zeroed u64 buffer
    // large enough for the whole struct reads them positionally.
    let mut buf = [0u64; 32];
    let rc = unsafe { statvfs(cpath.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let frsize = buf[1]; // f_frsize
    let bavail = buf[4]; // f_bavail
    frsize.checked_mul(bavail)
}

/// Non-Linux platforms have no portable probe; report "unknown".
#[cfg(not(target_os = "linux"))]
pub fn disk_free(_path: &Path) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_enospc_and_short_writes() {
        let e = std::io::Error::from_raw_os_error(ENOSPC);
        match classify(DiskOp::JournalAppend, e) {
            PersistError::Disk { op, kind } => {
                assert_eq!(op, DiskOp::JournalAppend);
                assert_eq!(kind, DiskErrorKind::NoSpace);
            }
            other => panic!("expected Disk, got {other}"),
        }
        let e = std::io::Error::new(std::io::ErrorKind::WriteZero, "0 of 9");
        assert!(matches!(
            classify(DiskOp::SnapshotWrite, e),
            PersistError::Disk {
                kind: DiskErrorKind::ShortWrite,
                ..
            }
        ));
        let e = std::io::Error::other("bad sector");
        match classify(DiskOp::Truncate, e) {
            PersistError::Disk {
                kind: DiskErrorKind::Io(m),
                ..
            } => assert!(m.contains("bad sector")),
            other => panic!("expected Io kind, got {other}"),
        }
    }

    #[test]
    fn real_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rulem_vfs_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = RealVfs;
        let path = dir.join("blob");
        let mut f = vfs.create(&path, DiskOp::SnapshotWrite).unwrap();
        vfs.write_all(&mut f, b"payload", DiskOp::SnapshotWrite)
            .unwrap();
        vfs.sync_all(&f, DiskOp::SnapshotWrite).unwrap();
        vfs.set_len(&f, 3, DiskOp::Truncate).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"pay");
        let moved = dir.join("moved");
        vfs.rename(&path, &moved, DiskOp::SnapshotRename).unwrap();
        assert!(moved.exists() && !path.exists());
        // create_new refuses an existing file with AlreadyExists.
        let err = vfs.create_new(&moved, DiskOp::Lock).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn disk_free_reports_something_for_tmp() {
        let free = disk_free(&std::env::temp_dir());
        assert!(free.is_some(), "statvfs must succeed on /tmp");
    }
}
