//! The history log: the session's edit history, kept out of the snapshot.
//!
//! ```text
//! [magic "RMHL"] [version: u32] [epoch: u64 = 0]
//! [frame: save 0's entries] [frame: save 1's entries] ...
//! ```
//!
//! One append-only file per store, `history.bin`, in the journal's header
//! and CRC-frame format ([`super::journal`]) under its own magic. It is
//! never pruned. Each save appends one frame holding the entries logged
//! since the previous save and fsyncs it *before* writing the snapshot
//! whose META counts them (`history_len`), so every snapshot's count falls
//! on a frame boundary and the log always holds what the newest snapshot
//! counts. There is no per-edit write: an edit's history entry reaches the
//! log with the next save, and until then its journal record replays it.
//!
//! A frame's payload is
//!
//! ```text
//! [epoch: u64] [first: u64] [count: u64] [JSON array of count entries]
//! ```
//!
//! `epoch` is the generation of the save that wrote the frame and `first`
//! the index of its first entry. A snapshot at epoch `e` counting `n`
//! entries takes the log's leading frames that continue the running
//! count, end at or before `n`, and were written for `e` or an earlier
//! save (`load`). On `open` the log is cut after them, so a fallback to
//! an older generation also cuts the log back, and the journal replay
//! regenerates the rest. A damaged log — torn, bit-flipped, missing, or
//! with an unreadable header — never fails `open`: the longest valid
//! prefix is installed, the recovery report counts the entries lost, and
//! the next save writes the log afresh if it could not be kept.

use super::frame::ByteWriter;
use super::journal::{Journal, HISTORY_LOG};
use super::snapshot::HEADER_LEN;
use super::vfs::Vfs;
use super::PersistError;
use crate::incremental::WorkerStats;
use crate::session::EditRecord;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The history log's path in a store directory.
pub(crate) fn history_path(dir: &Path) -> PathBuf {
    dir.join("history.bin")
}

/// One [`EditRecord`] in serializable form. The vendored serde has no
/// `Duration` support, so latency travels as nanoseconds.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct HistoryEntry {
    description: String,
    n_changed: usize,
    pairs_examined: usize,
    worker_stats: Vec<WorkerStats>,
    elapsed_nanos: u64,
}

impl HistoryEntry {
    fn of(rec: &EditRecord) -> Self {
        HistoryEntry {
            description: rec.description.clone(),
            n_changed: rec.n_changed,
            pairs_examined: rec.pairs_examined,
            worker_stats: rec.worker_stats.clone(),
            elapsed_nanos: u64::try_from(rec.elapsed.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    pub(crate) fn into_record(self) -> EditRecord {
        EditRecord {
            description: self.description,
            n_changed: self.n_changed,
            pairs_examined: self.pairs_examined,
            worker_stats: self.worker_stats,
            elapsed: Duration::from_nanos(self.elapsed_nanos),
        }
    }
}

/// Bytes of a frame payload's `[epoch][first][count]` prefix.
const SPAN_LEN: usize = 24;

/// Renders the frame payload holding `entries`, the session's history
/// from index `first` on, for the save to `epoch`.
fn encode_payload(
    epoch: u64,
    first: usize,
    entries: &[EditRecord],
) -> Result<Vec<u8>, PersistError> {
    let rows: Vec<HistoryEntry> = entries.iter().map(HistoryEntry::of).collect();
    let json = serde_json::to_string(&rows)
        .map_err(|e| PersistError::Codec(format!("history entries: {e}")))?;
    let mut w = ByteWriter::new();
    w.u64(epoch);
    w.u64(first as u64);
    w.u64(entries.len() as u64);
    let mut out = w.into_bytes();
    out.extend_from_slice(json.as_bytes());
    Ok(out)
}

/// A frame payload's `(epoch, first, count)` prefix.
fn span(payload: &[u8]) -> Option<(u64, usize, usize)> {
    let head = payload.get(..SPAN_LEN)?;
    let word = |i: usize| u64::from_le_bytes(head[i * 8..i * 8 + 8].try_into().unwrap());
    Some((
        word(0),
        usize::try_from(word(1)).ok()?,
        usize::try_from(word(2)).ok()?,
    ))
}

/// The number of leading frames (and the entries they hold) that a
/// snapshot at `epoch` counting `history_len` entries takes from a log
/// whose valid frame payloads are `payloads`. Reads only the prefixes, so
/// a leader can size a shipment without decoding it.
pub(crate) fn covered<'a>(
    payloads: impl IntoIterator<Item = &'a [u8]>,
    epoch: u64,
    history_len: usize,
) -> (usize, usize) {
    let (mut frames, mut entries) = (0, 0);
    for payload in payloads {
        match span(payload) {
            Some((written_for, first, count))
                if written_for <= epoch && first == entries && count <= history_len - entries =>
            {
                frames += 1;
                entries += count;
            }
            _ => break,
        }
    }
    (frames, entries)
}

/// The history a snapshot at `epoch` counting `history_len` entries
/// installs from a log whose valid frame payloads are `payloads`: the
/// entries of its [`covered`] frames, stopping early at a frame whose
/// entries do not decode. Returns the frames taken and their entries.
pub(crate) fn load<'a>(
    payloads: impl IntoIterator<Item = &'a [u8]>,
    epoch: u64,
    history_len: usize,
) -> (usize, Vec<EditRecord>) {
    let payloads: Vec<&[u8]> = payloads.into_iter().collect();
    let (frames, _) = covered(payloads.iter().copied(), epoch, history_len);
    let mut out = Vec::new();
    for (i, payload) in payloads[..frames].iter().enumerate() {
        let count = span(payload).map_or(0, |(_, _, count)| count);
        let rows = std::str::from_utf8(&payload[SPAN_LEN..])
            .ok()
            .and_then(|json| serde_json::from_str::<Vec<HistoryEntry>>(json).ok())
            .filter(|rows| rows.len() == count);
        let Some(rows) = rows else {
            return (i, out);
        };
        out.extend(rows.into_iter().map(HistoryEntry::into_record));
    }
    (frames, out)
}

/// A store's handle on its history log.
#[derive(Debug, Default)]
pub(crate) struct HistoryLog {
    /// The open log: `None` until a save first has entries to log, or
    /// after `open` could not keep the file, and the next save then writes
    /// it afresh. `None` implies `logged == 0`.
    file: Option<Journal>,
    /// Leading entries of the session's history the log holds.
    logged: usize,
}

impl HistoryLog {
    /// Appends the entries of `history` logged since the previous save as
    /// one frame written for the save to `epoch`, and fsyncs it. The
    /// caller writes the snapshot that counts them only after this
    /// returns `Ok`; a failed append is truncated back, failing only its
    /// save.
    pub(crate) fn append(
        &mut self,
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        history: &[EditRecord],
        epoch: u64,
    ) -> Result<(), PersistError> {
        let new = &history[self.logged..];
        if new.is_empty() {
            return Ok(());
        }
        let payload = encode_payload(epoch, self.logged, new)?;
        let file = match &mut self.file {
            Some(file) => file,
            None => self
                .file
                .insert(Journal::create(vfs, &history_path(dir), 0, &HISTORY_LOG)?),
        };
        file.append(&payload)?;
        self.logged = history.len();
        Ok(())
    }
}

/// The history log as `open` found it.
pub(crate) struct LogScan {
    /// The open log, when it exists and its header reads.
    journal: Option<Journal>,
    payloads: Vec<Vec<u8>>,
    /// The byte offset just past each payload's frame.
    ends: Vec<u64>,
}

impl LogScan {
    /// Reads the store's history log, truncating a torn tail. A missing
    /// or unreadable log reads as empty.
    pub(crate) fn open(vfs: &Arc<dyn Vfs>, dir: &Path) -> LogScan {
        let path = history_path(dir);
        match path
            .exists()
            .then(|| Journal::open_existing(vfs, &path, &HISTORY_LOG))
        {
            Some(Ok(scan)) => LogScan {
                journal: Some(scan.journal),
                payloads: scan.payloads,
                ends: scan.ends,
            },
            _ => LogScan {
                journal: None,
                payloads: Vec::new(),
                ends: Vec::new(),
            },
        }
    }

    /// Every valid frame payload, in append order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.payloads.iter().map(Vec::as_slice)
    }

    /// Keeps the log's first `frames` frames, holding `entries` entries,
    /// and cuts the rest away. If the cut fails, the next save rewrites
    /// the log whole.
    pub(crate) fn keep(self, frames: usize, entries: usize) -> HistoryLog {
        let Some(mut journal) = self.journal else {
            return HistoryLog::default();
        };
        let len = frames.checked_sub(1).map_or(HEADER_LEN, |i| self.ends[i]);
        match journal.cut(len) {
            Ok(()) => HistoryLog {
                file: Some(journal),
                logged: entries,
            },
            Err(_) => HistoryLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize) -> EditRecord {
        EditRecord {
            description: format!("edit {i}"),
            n_changed: i,
            pairs_examined: 2 * i,
            worker_stats: Vec::new(),
            elapsed: Duration::from_nanos(i as u64),
        }
    }

    fn frame(epoch: u64, range: std::ops::Range<usize>) -> Vec<u8> {
        let entries: Vec<EditRecord> = range.clone().map(record).collect();
        encode_payload(epoch, range.start, &entries).unwrap()
    }

    #[test]
    fn a_snapshot_takes_the_frames_it_counts() {
        // Saves to epochs 1, 2 and 4 logged 0..3, 3..5 and 5..9.
        let log = [frame(1, 0..3), frame(2, 3..5), frame(4, 5..9)];
        let payloads = || log.iter().map(Vec::as_slice);
        assert_eq!(covered(payloads(), 4, 9), (3, 9));
        assert_eq!(covered(payloads(), 2, 5), (2, 5), "an older generation");
        assert_eq!(covered(payloads(), 9, 4), (1, 3), "a count mid-frame");
        assert_eq!(covered(payloads(), 3, 9), (2, 5), "a frame of a later save");
        let (frames, entries) = load(payloads(), 4, 9);
        assert_eq!(frames, 3);
        let got: Vec<_> = entries.iter().map(|e| e.description.clone()).collect();
        let want: Vec<_> = (0..9).map(|i| record(i).description).collect();
        assert_eq!(got, want);
        assert_eq!(entries[7].pairs_examined, 14);
    }

    #[test]
    fn a_frame_out_of_line_ends_the_prefix() {
        // A repeated frame (first 3 where 5 is due), then one that lines
        // up again: nothing after the break is taken.
        let log = [
            frame(1, 0..3),
            frame(2, 3..5),
            frame(3, 3..5),
            frame(4, 5..6),
        ];
        let payloads = log.iter().map(Vec::as_slice);
        assert_eq!(covered(payloads, 4, 6), (2, 5));

        // A frame whose JSON does not decode stops `load` there.
        let mut bad = frame(2, 3..5);
        let n = bad.len();
        bad[n - 2] = b'!';
        let log = [frame(1, 0..3), bad, frame(4, 5..6)];
        let (frames, entries) = load(log.iter().map(Vec::as_slice), 4, 6);
        assert_eq!((frames, entries.len()), (1, 3));
    }
}
