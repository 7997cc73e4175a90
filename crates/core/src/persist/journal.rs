//! The write-ahead edit journal, and the append-only file format it
//! shares with the history log.
//!
//! ```text
//! [magic "RMJL"] [version: u32] [epoch: u64]
//! [frame: record 0] [frame: record 1] ...
//! ```
//!
//! Each record is appended — and fsynced — *before* the corresponding
//! in-memory delta is applied, so a crash at any point loses at most work
//! the caller was never told had happened. On open, the journal is scanned
//! frame by frame; the first torn or checksum-invalid frame marks the end
//! of the durable prefix and the file is truncated there, so subsequent
//! appends continue from a clean boundary.
//!
//! A *failed* append (ENOSPC mid-frame, a dying disk) must not leave its
//! partial frame for the next append to bury mid-file — such a buried
//! tear would truncate away every record after it on the next open. The
//! journal therefore tracks its durable length and truncates back to it
//! before surfacing any append error.
//!
//! The history log ([`super::history`]) is the same file shape under its
//! own magic (`HISTORY_LOG`): one per store, never pruned, appended once
//! per save. Its appends are not journal appends: they are tagged
//! [`DiskOp::HistoryAppend`] and do not count in
//! `em_journal_appends_total`.
//!
//! The journal layer deals in opaque payload bytes; the record schema
//! (JSON [`crate::Edit`]s) lives in [`super::store`].

use super::frame::{encode_frame, read_frame, sync_dir, FrameRead};
use super::snapshot::{decode_header, encode_header, HISTORY_MAGIC, JOURNAL_MAGIC, LOG_VERSION};
use super::vfs::{DiskOp, Vfs};
use super::PersistError;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// One kind of append-only file: its header magic, and the disk op its
/// writes are tagged with.
#[derive(Debug)]
pub(crate) struct LogKind {
    magic: &'static [u8; 4],
    what: &'static str,
    /// The op of the header write at creation.
    create: DiskOp,
    /// The op of every frame append.
    append: DiskOp,
}

/// The write-ahead edit journal: one per generation.
pub(crate) const EDIT_JOURNAL: LogKind = LogKind {
    magic: JOURNAL_MAGIC,
    what: "journal",
    create: DiskOp::JournalCreate,
    append: DiskOp::JournalAppend,
};

/// The history log: one per store, appended once per save.
pub(crate) const HISTORY_LOG: LogKind = LogKind {
    magic: HISTORY_MAGIC,
    what: "history log",
    create: DiskOp::HistoryAppend,
    append: DiskOp::HistoryAppend,
};

/// An open, append-ready journal file.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    kind: &'static LogKind,
    epoch: u64,
    /// Bytes of well-formed content (header + whole frames) known to be
    /// on disk: the position a failed append truncates back to.
    len: u64,
    vfs: Arc<dyn Vfs>,
}

/// What [`Journal::open_existing`] recovered.
pub(crate) struct JournalScan {
    pub(crate) journal: Journal,
    /// Payloads of every valid frame, in append order.
    pub(crate) payloads: Vec<Vec<u8>>,
    /// The byte offset just past each payload's frame.
    pub(crate) ends: Vec<u64>,
    /// Set when a torn/corrupt tail was found and truncated away; the
    /// message describes what was dropped.
    pub(crate) truncated: Option<String>,
}

impl Journal {
    /// Creates an empty file of `kind` (header only) at `path`, replacing
    /// any file there, and fsyncs it and its directory.
    pub(crate) fn create(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        epoch: u64,
        kind: &'static LogKind,
    ) -> Result<Self, PersistError> {
        let header = encode_header(kind.magic, LOG_VERSION, epoch);
        let mut file = vfs.create(path, kind.create)?;
        vfs.write_all(&mut file, &header, kind.create)?;
        vfs.sync_all(&file, kind.create)?;
        if let Some(dir) = path.parent() {
            sync_dir(vfs.as_ref(), dir)?;
        }
        Ok(Journal {
            file,
            kind,
            epoch,
            len: header.len() as u64,
            vfs: Arc::clone(vfs),
        })
    }

    /// Opens an existing file of `kind`, returning every durable record
    /// and truncating the file at the first torn or corrupt frame.
    pub(crate) fn open_existing(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        kind: &'static LogKind,
    ) -> Result<JournalScan, PersistError> {
        let mut bytes = Vec::new();
        File::open(path)
            .map_err(PersistError::Io)?
            .read_to_end(&mut bytes)
            .map_err(PersistError::Io)?;
        let (_, epoch, mut offset) = decode_header(&bytes, kind.magic, LOG_VERSION, kind.what)?;

        let mut payloads = Vec::new();
        let mut ends = Vec::new();
        let mut truncated = None;
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::Ok { payload, next } => {
                    payloads.push(payload.to_vec());
                    ends.push(next as u64);
                    offset = next;
                }
                FrameRead::Eof => break,
                FrameRead::Corrupt(m) => {
                    truncated = Some(format!(
                        "{m}; dropped {} trailing bytes",
                        bytes.len() - offset
                    ));
                    break;
                }
            }
        }

        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(PersistError::Io)?;
        let mut journal = Journal {
            file,
            kind,
            epoch,
            len: bytes.len() as u64,
            vfs: Arc::clone(vfs),
        };
        // Cut a torn tail so future appends start at a frame boundary.
        journal.cut(offset as u64)?;
        Ok(JournalScan {
            journal,
            payloads,
            ends,
            truncated,
        })
    }

    /// Durably truncates the file to `len` bytes, which must end a frame
    /// (or the header), and positions the next append there. A no-op when
    /// the file is no longer than `len`.
    pub(crate) fn cut(&mut self, len: u64) -> Result<(), PersistError> {
        if len < self.len {
            self.vfs.set_len(&self.file, len, DiskOp::Truncate)?;
            self.vfs.sync_all(&self.file, DiskOp::Truncate)?;
            self.len = len;
        }
        self.seek_end(self.len as usize)
    }

    fn seek_end(&mut self, offset: usize) -> Result<(), PersistError> {
        use std::io::{Seek, SeekFrom};
        self.file
            .seek(SeekFrom::Start(offset as u64))
            .map_err(PersistError::Io)?;
        Ok(())
    }

    /// Appends one record payload as a checksummed frame and fsyncs it.
    /// The caller must not mutate session state until this returns `Ok`.
    ///
    /// On failure the file is restored to its pre-append length (best
    /// effort — the open-time scan backstops it), so a partial frame can
    /// never be buried mid-file by a later successful append.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let frame = encode_frame(payload);
        let t0 = em_metrics::enabled().then(std::time::Instant::now);
        let op = self.kind.append;
        let write = self
            .vfs
            .write_all(&mut self.file, &frame, op)
            .and_then(|()| self.vfs.sync_data(&self.file, op));
        match write {
            Ok(()) => {
                // Only edit records are journal appends.
                if let Some(t0) = t0.filter(|_| op == DiskOp::JournalAppend) {
                    let m = crate::obs::core_metrics();
                    m.journal_appends.inc();
                    m.journal_append_ns.record_duration(t0.elapsed());
                }
                self.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Restore the pre-append length. Deliberately raw file
                // calls: the vfs fault plan must not fail the cleanup of
                // the failure it just injected, and if the disk is too
                // sick even for this, the next open truncates the tear.
                let _ = self.file.set_len(self.len);
                let _ = self.file.sync_data();
                let _ = self.seek_end(self.len as usize);
                Err(e)
            }
        }
    }

    /// Writes raw bytes and fsyncs — the hook the fault-injection harness
    /// uses to land a deliberately torn prefix (simulating a crash, so
    /// *no* truncate-back happens here; the torn bytes must stay for
    /// recovery to find).
    #[cfg_attr(not(any(test, feature = "fault-inject")), allow(dead_code))]
    pub(crate) fn write_raw(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.vfs
            .write_all(&mut self.file, bytes, self.kind.append)?;
        self.vfs.sync_data(&self.file, self.kind.append)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::super::vfs::RealVfs;
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rulem_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_and_reopen() {
        let vfs = RealVfs::arc();
        let path = tmp("roundtrip.bin");
        let mut j = Journal::create(&vfs, &path, 3, &EDIT_JOURNAL).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);

        let scan = Journal::open_existing(&vfs, &path, &EDIT_JOURNAL).unwrap();
        assert_eq!(scan.journal.epoch(), 3);
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(scan.truncated.is_none());

        // Appending after reopen lands after the existing records.
        let mut j = scan.journal;
        j.append(b"three").unwrap();
        drop(j);
        let scan = Journal::open_existing(&vfs, &path, &EDIT_JOURNAL).unwrap();
        assert_eq!(scan.payloads.len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_once() {
        let vfs = RealVfs::arc();
        let path = tmp("torn.bin");
        let mut j = Journal::create(&vfs, &path, 0, &EDIT_JOURNAL).unwrap();
        j.append(b"keep").unwrap();
        // Simulate a crash mid-append: half a frame lands on disk.
        let torn = encode_frame(b"lost-to-the-crash");
        j.write_raw(&torn[..torn.len() / 2]).unwrap();
        drop(j);

        let before = std::fs::metadata(&path).unwrap().len();
        let scan = Journal::open_existing(&vfs, &path, &EDIT_JOURNAL).unwrap();
        assert_eq!(scan.payloads, vec![b"keep".to_vec()]);
        assert!(scan.truncated.is_some());
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "torn tail removed from the file");
        drop(scan.journal);

        // A second open sees a clean journal.
        let scan = Journal::open_existing(&vfs, &path, &EDIT_JOURNAL).unwrap();
        assert_eq!(scan.payloads, vec![b"keep".to_vec()]);
        assert!(scan.truncated.is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let vfs = RealVfs::arc();
        let path = tmp("magic.bin");
        std::fs::write(&path, b"NOPE0000000000000000").unwrap();
        assert!(matches!(
            Journal::open_existing(&vfs, &path, &EDIT_JOURNAL),
            Err(PersistError::Corrupt(_))
        ));
    }
}
