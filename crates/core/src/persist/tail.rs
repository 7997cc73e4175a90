//! Journal tailing for replication: stream newly fsync'd frames off a
//! live store directory, past a follower-supplied watermark.
//!
//! A [`JournalTailer`] is a *read-only* observer of the same
//! `snapshot-<epoch>.bin` / `journal-<epoch>.bin` files a
//! [`super::SessionStore`] writes. Because the store fsyncs every frame
//! *before* applying the in-memory delta, a concurrent reader sees only
//! complete frames plus — at worst — one torn tail still being written;
//! the tailer treats a torn or checksum-invalid frame as "end of durable
//! data" and never truncates (truncation is the owning store's job, on
//! its next open).
//!
//! ## The watermark
//!
//! A [`Watermark`] is positional: `(epoch, idx)` means "I have consumed
//! the first `idx` frames of the journal at `epoch`". Each journal record
//! lives in exactly one epoch's file, and compaction
//! ([`super::SessionStore::save`]) starts a fresh, empty journal at the
//! next epoch — so the global logical stream is the concatenation of
//! journals by ascending epoch, and a watermark identifies a point in it
//! unambiguously. When a tail drains everything durable, the returned
//! watermark is advanced to the *newest* epoch (even if that journal is
//! still empty), so a follower polling at least once per generation
//! naturally crosses compaction boundaries before the old file is
//! pruned. A watermark that predates the oldest on-disk journal — or
//! claims frames the files don't hold, i.e. a diverged timeline — comes
//! back as [`TailResult::TooOld`]: the follower must resync from a
//! snapshot ([`JournalTailer::newest_snapshot`] +
//! [`super::store::install_snapshot_bytes`]) and tail forward from
//! there.
//!
//! A snapshot holds no history entries, only their count: the shipment
//! carries the history log's frames that the snapshot counts beside it
//! ([`SnapshotShipment`]).

use super::frame::{read_frame, FrameRead};
use super::history::{covered, history_path};
use super::snapshot::{
    decode_header, snapshot_history_len, HEADER_LEN, HISTORY_MAGIC, JOURNAL_MAGIC, LOG_VERSION,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use super::store::{journal_path, list_epochs, snapshot_path};
use super::PersistError;
use std::path::{Path, PathBuf};

/// A position in a store's logical journal stream: the first `idx` frames
/// of the journal at `epoch` have been consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Watermark {
    /// Journal generation the position refers to.
    pub epoch: u64,
    /// Frames consumed within that generation's journal.
    pub idx: u64,
}

impl Watermark {
    /// The origin: nothing consumed, epoch 0.
    pub const ZERO: Watermark = Watermark { epoch: 0, idx: 0 };
}

impl std::fmt::Display for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.epoch, self.idx)
    }
}

/// Frames tailed past a watermark, plus the advanced watermark.
#[derive(Debug)]
pub struct TailBatch {
    /// Raw journal frame payloads (JSON [`crate::Edit`]s), in
    /// append order.
    pub frames: Vec<Vec<u8>>,
    /// Position after consuming `frames`; pass it to the next
    /// [`JournalTailer::tail`] call.
    pub watermark: Watermark,
    /// Durable frames that exist past `watermark` but were held back by
    /// the caller's `max` — the follower's replication lag, as far as
    /// this read could see.
    pub behind: u64,
}

/// Outcome of one tail attempt.
#[derive(Debug)]
pub enum TailResult {
    /// Frames (possibly none) past the watermark.
    Batch(TailBatch),
    /// The watermark no longer names a reachable point in this store's
    /// journal stream: its epoch was compacted away, or it claims more
    /// frames than the files hold (a diverged timeline after the leader
    /// truncated a torn tail). The follower must resync from a snapshot.
    TooOld {
        /// Oldest journal epoch still on disk.
        oldest: u64,
    },
}

/// What a leader ships to bootstrap (or resync) a follower: the newest
/// snapshot's bytes, and the leading frames of the history log that the
/// snapshot counts, for [`super::store::install_snapshot_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotShipment {
    /// The snapshot's epoch; tail from `(epoch, 0)` after installing it.
    pub epoch: u64,
    /// The snapshot file.
    pub snapshot: Vec<u8>,
    /// Whole history-log frames (`[len][crc][payload]` each), without the
    /// log's header; empty for a version-1 snapshot, whose history is
    /// inline.
    pub history: Vec<u8>,
}

/// Read-only tailer over one store directory.
#[derive(Debug, Clone)]
pub struct JournalTailer {
    dir: PathBuf,
}

impl JournalTailer {
    /// Tails the store at `dir`. The directory need not exist yet — a
    /// store that has not been created tails as an empty stream.
    pub fn new(dir: &Path) -> Self {
        JournalTailer {
            dir: dir.to_path_buf(),
        }
    }

    /// The directory being tailed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads up to `max` durable frames past `from`, advancing the
    /// watermark. Never blocks on the writer and never mutates the store.
    ///
    /// Compaction can prune a journal file between listing and reading;
    /// the read is retried once against a fresh listing before the
    /// watermark is declared [`TailResult::TooOld`].
    pub fn tail(&self, from: Watermark, max: usize) -> Result<TailResult, PersistError> {
        for _ in 0..2 {
            match self.tail_once(from, max)? {
                Some(result) => return Ok(result),
                None => continue, // lost a race with compaction; re-list
            }
        }
        Ok(TailResult::TooOld {
            oldest: self.oldest_epoch()?.unwrap_or(0),
        })
    }

    /// One listing + read pass; `None` means a listed journal vanished
    /// mid-read (compaction race) and the caller should retry.
    fn tail_once(&self, from: Watermark, max: usize) -> Result<Option<TailResult>, PersistError> {
        let epochs = list_epochs(&self.dir, "journal-")?;
        let Some(&oldest) = epochs.first() else {
            // No store yet: nothing durable, watermark unchanged.
            return Ok(Some(TailResult::Batch(TailBatch {
                frames: Vec::new(),
                watermark: from,
                behind: 0,
            })));
        };
        let newest = *epochs.last().expect("non-empty");
        if from.epoch < oldest || from.epoch > newest {
            // Behind compaction, or claiming a generation this store has
            // never reached (a diverged timeline): resync required.
            return Ok(Some(TailResult::TooOld { oldest }));
        }

        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut watermark = from;
        let mut behind = 0u64;
        for &epoch in epochs.iter().filter(|&&e| e >= from.epoch) {
            let payloads = match self.read_journal(epoch)? {
                Some(p) => p,
                None => return Ok(None), // pruned mid-read
            };
            let skip = if epoch == from.epoch { from.idx } else { 0 };
            if skip > payloads.len() as u64 {
                if epoch == newest {
                    // Ahead of the durable tail of the live journal: the
                    // follower knows frames an in-flight fsync has not
                    // made visible to this read yet. Nothing new.
                    return Ok(Some(TailResult::Batch(TailBatch {
                        frames: Vec::new(),
                        watermark: from,
                        behind: 0,
                    })));
                }
                // A finalized (pre-compaction) journal holds fewer frames
                // than the watermark claims: diverged timeline.
                return Ok(Some(TailResult::TooOld { oldest }));
            }
            let mut consumed = skip;
            let mut pushed_here = false;
            for payload in payloads.into_iter().skip(skip as usize) {
                if frames.len() < max {
                    frames.push(payload);
                    consumed += 1;
                    pushed_here = true;
                } else {
                    behind += 1;
                }
            }
            if behind == 0 || pushed_here {
                // Either fully drained through this epoch (including an
                // empty journal — that advance is what carries a watermark
                // across a compaction boundary before the old file is
                // pruned), or `max` cut the batch mid-epoch.
                watermark = Watermark {
                    epoch,
                    idx: consumed,
                };
            }
        }
        Ok(Some(TailResult::Batch(TailBatch {
            frames,
            watermark,
            behind,
        })))
    }

    /// All durable frame payloads of one epoch's journal, or `None` if the
    /// file vanished (compaction race). A torn/corrupt tail ends the scan
    /// without error — it is the writer's in-flight append.
    fn read_journal(&self, epoch: u64) -> Result<Option<Vec<Vec<u8>>>, PersistError> {
        let bytes = match std::fs::read(journal_path(&self.dir, epoch)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::Io(e)),
        };
        let (_, file_epoch, mut offset) =
            decode_header(&bytes, JOURNAL_MAGIC, LOG_VERSION, "journal")?;
        if file_epoch != epoch {
            return Err(PersistError::Corrupt(format!(
                "journal file for epoch {epoch} carries embedded epoch {file_epoch}"
            )));
        }
        let mut payloads = Vec::new();
        // A torn/corrupt tail frame is the writer's unfinished append:
        // the scan just stops there.
        while let FrameRead::Ok { payload, next } = read_frame(&bytes, offset) {
            payloads.push(payload.to_vec());
            offset = next;
        }
        Ok(Some(payloads))
    }

    /// Oldest journal epoch on disk, if any.
    fn oldest_epoch(&self) -> Result<Option<u64>, PersistError> {
        Ok(list_epochs(&self.dir, "journal-")?.first().copied())
    }

    /// The newest snapshot whose header and META parse, with the history
    /// log's frames it counts — what a leader ships to bootstrap (or
    /// resync) a follower. Only the header and META are validated here;
    /// the follower's full decode is the real integrity check, and it can
    /// re-request on failure.
    ///
    /// The log is read after the snapshot: a save appends its frame before
    /// it writes the snapshot counting it, so the frames are there. A
    /// damaged log ships its longest valid prefix.
    pub fn newest_snapshot(&self) -> Result<Option<SnapshotShipment>, PersistError> {
        let epochs = list_epochs(&self.dir, "snapshot-")?;
        for &epoch in epochs.iter().rev() {
            let bytes = match std::fs::read(snapshot_path(&self.dir, epoch)) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(PersistError::Io(e)),
            };
            match decode_header(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "snapshot") {
                Ok((_, file_epoch, _)) if file_epoch == epoch => {}
                _ => continue, // corrupt or spliced: fall back a generation
            }
            let Ok(history_len) = snapshot_history_len(&bytes) else {
                continue;
            };
            let history = match history_len {
                Some(len) if len > 0 => self.history_frames(epoch, len)?,
                _ => Vec::new(),
            };
            return Ok(Some(SnapshotShipment {
                epoch,
                snapshot: bytes,
                history,
            }));
        }
        Ok(None)
    }

    /// The leading whole frames of the history log that a snapshot at
    /// `epoch` counting `history_len` entries covers, as raw bytes.
    fn history_frames(&self, epoch: u64, history_len: usize) -> Result<Vec<u8>, PersistError> {
        let bytes = match std::fs::read(history_path(&self.dir)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(PersistError::Io(e)),
        };
        if decode_header(&bytes, HISTORY_MAGIC, LOG_VERSION, "history log").is_err() {
            return Ok(Vec::new());
        }
        let start = HEADER_LEN as usize;
        let (mut payloads, mut ends) = (Vec::new(), Vec::new());
        let mut offset = start;
        while let FrameRead::Ok { payload, next } = read_frame(&bytes, offset) {
            payloads.push(payload);
            ends.push(next);
            offset = next;
        }
        let (frames, _) = covered(payloads, epoch, history_len);
        let end = frames.checked_sub(1).map_or(start, |i| ends[i]);
        Ok(bytes[start..end].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::encode_frame;
    use super::super::journal::{Journal, EDIT_JOURNAL};
    use super::super::vfs::RealVfs;
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("rulem_tail_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frames_of(result: TailResult) -> TailBatch {
        match result {
            TailResult::Batch(b) => b,
            TailResult::TooOld { oldest } => panic!("unexpected TooOld {{ oldest: {oldest} }}"),
        }
    }

    #[test]
    fn empty_directory_tails_as_empty_stream() {
        let dir = tmp_dir("empty");
        let missing = dir.join("never-created");
        let tailer = JournalTailer::new(&missing);
        let batch = frames_of(tailer.tail(Watermark::ZERO, 64).unwrap());
        assert!(batch.frames.is_empty());
        assert_eq!(batch.watermark, Watermark::ZERO);
        assert_eq!(batch.behind, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tails_frames_and_advances_watermark() {
        let dir = tmp_dir("basic");
        let mut j =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 0), 0, &EDIT_JOURNAL).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();

        let tailer = JournalTailer::new(&dir);
        let batch = frames_of(tailer.tail(Watermark::ZERO, 64).unwrap());
        assert_eq!(batch.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 2 });
        assert_eq!(batch.behind, 0);

        // Incremental: new frames appear past the watermark.
        j.append(b"three").unwrap();
        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert_eq!(batch.frames, vec![b"three".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 3 });

        // Caught up: empty batch, watermark stable.
        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert!(batch.frames.is_empty());
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 3 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_limits_batch_and_reports_lag() {
        let dir = tmp_dir("max");
        let mut j =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 0), 0, &EDIT_JOURNAL).unwrap();
        for i in 0..5 {
            j.append(format!("r{i}").as_bytes()).unwrap();
        }
        let tailer = JournalTailer::new(&dir);
        let batch = frames_of(tailer.tail(Watermark::ZERO, 2).unwrap());
        assert_eq!(batch.frames, vec![b"r0".to_vec(), b"r1".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 2 });
        assert_eq!(batch.behind, 3);

        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert_eq!(batch.frames.len(), 3);
        assert_eq!(batch.behind, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_end_of_durable_data_not_truncated() {
        let dir = tmp_dir("torn");
        let mut j =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 0), 0, &EDIT_JOURNAL).unwrap();
        j.append(b"keep").unwrap();
        let torn = encode_frame(b"in-flight");
        j.write_raw(&torn[..torn.len() / 2]).unwrap();

        let len_before = std::fs::metadata(journal_path(&dir, 0)).unwrap().len();
        let tailer = JournalTailer::new(&dir);
        let batch = frames_of(tailer.tail(Watermark::ZERO, 64).unwrap());
        assert_eq!(batch.frames, vec![b"keep".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 1 });
        let len_after = std::fs::metadata(journal_path(&dir, 0)).unwrap().len();
        assert_eq!(len_before, len_after, "tailer must never truncate");

        // The writer finishes the append; the completed frame now tails.
        j.write_raw(&torn[torn.len() / 2..]).unwrap();
        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert_eq!(batch.frames, vec![b"in-flight".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crosses_compaction_boundary() {
        let dir = tmp_dir("compaction");
        let mut j0 =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 0), 0, &EDIT_JOURNAL).unwrap();
        j0.append(b"e0-a").unwrap();
        j0.append(b"e0-b").unwrap();
        drop(j0);
        // "save()" happened: a fresh journal opens at epoch 1.
        let mut j1 =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 1), 1, &EDIT_JOURNAL).unwrap();

        let tailer = JournalTailer::new(&dir);
        // A watermark mid-epoch-0 picks up the epoch-0 remainder and lands
        // on the epoch-1 journal even though it is empty.
        let batch = frames_of(tailer.tail(Watermark { epoch: 0, idx: 1 }, 64).unwrap());
        assert_eq!(batch.frames, vec![b"e0-b".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 1, idx: 0 });

        j1.append(b"e1-a").unwrap();
        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert_eq!(batch.frames, vec![b"e1-a".to_vec()]);
        assert_eq!(batch.watermark, Watermark { epoch: 1, idx: 1 });

        // Epoch 0 pruned (second compaction): the advanced watermark still
        // resolves, but a stale epoch-0 watermark is TooOld.
        std::fs::remove_file(journal_path(&dir, 0)).unwrap();
        let batch = frames_of(tailer.tail(batch.watermark, 64).unwrap());
        assert!(batch.frames.is_empty());
        match tailer.tail(Watermark::ZERO, 64).unwrap() {
            TailResult::TooOld { oldest } => assert_eq!(oldest, 1),
            TailResult::Batch(b) => panic!("expected TooOld, got {} frames", b.frames.len()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diverged_watermark_is_too_old() {
        let dir = tmp_dir("diverged");
        let mut j =
            Journal::create(&RealVfs::arc(), &journal_path(&dir, 0), 0, &EDIT_JOURNAL).unwrap();
        j.append(b"only").unwrap();
        let tailer = JournalTailer::new(&dir);
        // Claims a generation that does not exist.
        match tailer.tail(Watermark { epoch: 7, idx: 0 }, 64).unwrap() {
            TailResult::TooOld { .. } => {}
            TailResult::Batch(_) => panic!("expected TooOld for a future epoch"),
        }
        // Ahead of the durable tail of the live journal: not an error,
        // just nothing new (an fsync may be racing the read).
        let batch = frames_of(tailer.tail(Watermark { epoch: 0, idx: 9 }, 64).unwrap());
        assert!(batch.frames.is_empty());
        assert_eq!(batch.watermark, Watermark { epoch: 0, idx: 9 });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
