//! The write-ahead edit journal.
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
//! The journal layer deals in opaque payload bytes; the record schema
//! (JSON [`crate::Edit`]s) lives in [`super::store`].

use super::frame::{encode_frame, read_frame, sync_dir, FrameRead};
use super::snapshot::{decode_header, encode_header, JOURNAL_MAGIC};
use super::vfs::{DiskOp, Vfs};
use super::PersistError;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// An open, append-ready journal file.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
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
    /// Set when a torn/corrupt tail was found and truncated away; the
    /// message describes what was dropped.
    pub(crate) truncated: Option<String>,
}

impl Journal {
    /// Creates an empty journal (header only) at `path`, fsyncing the file
    /// and its directory.
    pub(crate) fn create(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        epoch: u64,
    ) -> Result<Self, PersistError> {
        let header = encode_header(JOURNAL_MAGIC, epoch);
        let mut file = vfs.create(path, DiskOp::JournalCreate)?;
        vfs.write_all(&mut file, &header, DiskOp::JournalCreate)?;
        vfs.sync_all(&file, DiskOp::JournalCreate)?;
        if let Some(dir) = path.parent() {
            sync_dir(vfs.as_ref(), dir)?;
        }
        Ok(Journal {
            file,
            epoch,
            len: header.len() as u64,
            vfs: Arc::clone(vfs),
        })
    }

    /// Opens an existing journal, returning every durable record and
    /// truncating the file at the first torn or corrupt frame.
    pub(crate) fn open_existing(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<JournalScan, PersistError> {
        let mut bytes = Vec::new();
        File::open(path)
            .map_err(PersistError::Io)?
            .read_to_end(&mut bytes)
            .map_err(PersistError::Io)?;
        let (epoch, mut offset) = decode_header(&bytes, JOURNAL_MAGIC, "journal")?;

        let mut payloads = Vec::new();
        let mut truncated = None;
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::Ok { payload, next } => {
                    payloads.push(payload.to_vec());
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
        if truncated.is_some() {
            // Cut the torn tail so future appends start at a frame
            // boundary, and make the cut durable.
            vfs.set_len(&file, offset as u64, DiskOp::Truncate)?;
            vfs.sync_all(&file, DiskOp::Truncate)?;
        }
        let mut journal = Journal {
            file,
            epoch,
            len: offset as u64,
            vfs: Arc::clone(vfs),
        };
        journal.seek_end(offset)?;
        Ok(JournalScan {
            journal,
            payloads,
            truncated,
        })
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
        let write = self
            .vfs
            .write_all(&mut self.file, &frame, DiskOp::JournalAppend)
            .and_then(|()| self.vfs.sync_data(&self.file, DiskOp::JournalAppend));
        match write {
            Ok(()) => {
                if let Some(t0) = t0 {
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
            .write_all(&mut self.file, bytes, DiskOp::JournalAppend)?;
        self.vfs.sync_data(&self.file, DiskOp::JournalAppend)?;
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
        let mut j = Journal::create(&vfs, &path, 3).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);

        let scan = Journal::open_existing(&vfs, &path).unwrap();
        assert_eq!(scan.journal.epoch(), 3);
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(scan.truncated.is_none());

        // Appending after reopen lands after the existing records.
        let mut j = scan.journal;
        j.append(b"three").unwrap();
        drop(j);
        let scan = Journal::open_existing(&vfs, &path).unwrap();
        assert_eq!(scan.payloads.len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_once() {
        let vfs = RealVfs::arc();
        let path = tmp("torn.bin");
        let mut j = Journal::create(&vfs, &path, 0).unwrap();
        j.append(b"keep").unwrap();
        // Simulate a crash mid-append: half a frame lands on disk.
        let torn = encode_frame(b"lost-to-the-crash");
        j.write_raw(&torn[..torn.len() / 2]).unwrap();
        drop(j);

        let before = std::fs::metadata(&path).unwrap().len();
        let scan = Journal::open_existing(&vfs, &path).unwrap();
        assert_eq!(scan.payloads, vec![b"keep".to_vec()]);
        assert!(scan.truncated.is_some());
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "torn tail removed from the file");
        drop(scan.journal);

        // A second open sees a clean journal.
        let scan = Journal::open_existing(&vfs, &path).unwrap();
        assert_eq!(scan.payloads, vec![b"keep".to_vec()]);
        assert!(scan.truncated.is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let vfs = RealVfs::arc();
        let path = tmp("magic.bin");
        std::fs::write(&path, b"NOPE0000000000000000").unwrap();
        assert!(matches!(
            Journal::open_existing(&vfs, &path),
            Err(PersistError::Corrupt(_))
        ));
    }
}
