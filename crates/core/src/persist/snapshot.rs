//! The snapshot format: one file holding everything a debugging session
//! needs to resume — the matching function (with its id counters), the
//! feature interning table, the full [`MatchState`] (memo `H`, verdicts,
//! `M(r)`, `U(p)`), the length of the edit history, the undo stack, and
//! the quarantine set.
//!
//! ```text
//! [magic "RMSN"] [version: u32 = 2] [epoch: u64]
//! [frame: META  — JSON SnapshotMeta: function, features, history_len,
//!                 undo, quarantined]
//! [frame: STATE — binary MatchState]
//! ```
//!
//! META carries the small, schema-ful part as JSON (readable with a hex
//! editor when debugging the store itself); STATE carries the bulk arrays
//! as raw little-endian scalars — the memo grid alone is `pairs ×
//! features` f64s, which would bloat 3–4× as JSON. Both frames are
//! independently checksummed by the [`super::frame`] layer. `f64`s are
//! stored as raw bits, so the memo's NaN "absent" sentinel and every
//! threshold survive bit-exactly.
//!
//! The history itself is not in the snapshot: it grows with every edit,
//! and re-encoding it at every save made a save's cost grow with the
//! session's age. META counts its entries (`history_len`); the entries
//! are in the store's append-only history log ([`super::history`]), which
//! each save extends by the entries logged since the previous one before
//! it writes the snapshot that counts them. A version-1 snapshot carried
//! the history inline in META (`history` in place of `history_len`); it
//! still decodes, and the store's next save writes version 2 and the log.
//!
//! Bitmaps are serialized sorted by id, so a snapshot's bytes are a pure
//! function of the session's logical state — the property the
//! byte-for-byte recovery-convergence tests (1/2/4 threads) rely on.
//!
//! Decoding never trusts a `U(p)` bit it cannot prove: the incremental
//! cascade skips every rule a bit witnesses false, so a stale bit (older
//! versions let relaxed thresholds leave them behind) would hide a rule
//! that holds. [`decode_snapshot`] clears each bit whose memoized value
//! passes `p`, or that has no memoized value. For a state this version
//! wrote, that clears nothing.

use super::frame::{encode_frame, read_frame, ByteReader, ByteWriter, FrameRead};
use super::history::HistoryEntry;
use super::PersistError;
use crate::bitmap::Bitmap;
use crate::feature::FeatureDef;
use crate::function::MatchingFunction;
use crate::memo::{DenseMemo, Memo};
use crate::predicate::PredId;
use crate::rule::RuleId;
use crate::session::{DebugSession, EditRecord, UndoOp};
use crate::state::MatchState;

pub(crate) const SNAPSHOT_MAGIC: &[u8; 4] = b"RMSN";
pub(crate) const JOURNAL_MAGIC: &[u8; 4] = b"RMJL";
pub(crate) const HISTORY_MAGIC: &[u8; 4] = b"RMHL";
/// The snapshot version this build writes; version 1 is still read.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;
/// The version of the journal and history-log headers (unchanged since
/// version 1).
pub(crate) const LOG_VERSION: u32 = 1;
/// Bytes of the file header; the first frame starts here.
pub(crate) const HEADER_LEN: u64 = 16;

/// Fixed-size file header shared by snapshots, journals and the history
/// log.
pub(crate) fn encode_header(magic: &[u8; 4], version: u32, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// Validates a file header whose version may be 1 through `max_version`;
/// returns the version, the epoch and the offset of the first frame.
pub(crate) fn decode_header(
    bytes: &[u8],
    magic: &[u8; 4],
    max_version: u32,
    what: &str,
) -> Result<(u32, u64, usize), PersistError> {
    if bytes.len() < 16 {
        return Err(PersistError::Corrupt(format!(
            "{what}: truncated header ({} of 16 bytes)",
            bytes.len()
        )));
    }
    if &bytes[0..4] != magic {
        return Err(PersistError::Corrupt(format!("{what}: bad magic")));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if !(1..=max_version).contains(&version) {
        return Err(PersistError::Corrupt(format!(
            "{what}: unsupported format version {version} (expected 1 to {max_version})"
        )));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    Ok((version, epoch, HEADER_LEN as usize))
}

/// The JSON (META) half of a snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct SnapshotMeta {
    /// The matching function, including its `next_rule`/`next_pred`
    /// counters — replay must mint the same ids the live session did.
    pub(crate) function: MatchingFunction,
    /// Feature definitions in interning order; re-interning them in order
    /// reproduces the same dense [`crate::FeatureId`]s.
    pub(crate) features: Vec<FeatureDef>,
    /// Entries of the session's history at this snapshot; they are the
    /// history log's first `history_len` entries.
    pub(crate) history_len: usize,
    pub(crate) undo: Vec<UndoOp>,
    pub(crate) quarantined: Vec<usize>,
}

/// META as version 1 wrote it: the history inline.
#[derive(serde::Deserialize)]
struct SnapshotMetaV1 {
    function: MatchingFunction,
    features: Vec<FeatureDef>,
    history: Vec<HistoryEntry>,
    undo: Vec<UndoOp>,
    quarantined: Vec<usize>,
}

/// Where a decoded snapshot's history is.
pub(crate) enum SnapshotHistory {
    /// A version-1 snapshot's inline history.
    Inline(Vec<EditRecord>),
    /// A version-2 snapshot's entry count: the entries are the history
    /// log's first this many.
    Logged(usize),
}

/// A fully decoded snapshot, ready to install into a fresh session.
pub(crate) struct DecodedSnapshot {
    pub(crate) epoch: u64,
    pub(crate) function: MatchingFunction,
    pub(crate) features: Vec<FeatureDef>,
    pub(crate) history: SnapshotHistory,
    pub(crate) undo: Vec<UndoOp>,
    pub(crate) quarantined: Vec<usize>,
    pub(crate) state: MatchState,
}

/// Renders a session's full durable image as snapshot-file bytes.
pub(crate) fn encode_snapshot(session: &DebugSession, epoch: u64) -> Result<Vec<u8>, PersistError> {
    let meta = SnapshotMeta {
        function: session.function().clone(),
        features: session
            .context()
            .registry()
            .iter()
            .map(|(_, d)| *d)
            .collect(),
        history_len: session.history().len(),
        undo: session.undo_ops().to_vec(),
        quarantined: session.quarantined().to_vec(),
    };
    let meta_json =
        serde_json::to_string(&meta).map_err(|e| PersistError::Codec(format!("meta: {e}")))?;
    let state_bin = encode_state(session.state());

    let mut out = encode_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, epoch);
    out.extend_from_slice(&encode_frame(meta_json.as_bytes()));
    out.extend_from_slice(&encode_frame(&state_bin));
    Ok(out)
}

/// The META frame's JSON text, the header's version and epoch, and the
/// offset of the frame after META.
fn read_meta(bytes: &[u8]) -> Result<(u32, u64, &str, usize), PersistError> {
    let (version, epoch, offset) =
        decode_header(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "snapshot")?;
    let (meta, next) = match read_frame(bytes, offset) {
        FrameRead::Ok { payload, next } => (payload, next),
        FrameRead::Eof => return Err(PersistError::Corrupt("snapshot: missing META frame".into())),
        FrameRead::Corrupt(m) => return Err(PersistError::Corrupt(format!("snapshot META: {m}"))),
    };
    let meta = std::str::from_utf8(meta)
        .map_err(|_| PersistError::Corrupt("snapshot META: not UTF-8".into()))?;
    Ok((version, epoch, meta, next))
}

fn meta_codec(e: serde_json::Error) -> PersistError {
    PersistError::Codec(format!("meta: {e}"))
}

/// The entry count of a version-2 snapshot's history, read off its META
/// frame alone; `None` for a version-1 snapshot, whose history is inline.
pub(crate) fn snapshot_history_len(bytes: &[u8]) -> Result<Option<usize>, PersistError> {
    let (version, _, meta, _) = read_meta(bytes)?;
    if version == 1 {
        return Ok(None);
    }
    let meta: SnapshotMeta = serde_json::from_str(meta).map_err(meta_codec)?;
    Ok(Some(meta.history_len))
}

/// Parses and validates snapshot-file bytes.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, PersistError> {
    let (version, epoch, meta, mut offset) = read_meta(bytes)?;
    let (meta, history) = if version == 1 {
        let v1: SnapshotMetaV1 = serde_json::from_str(meta).map_err(meta_codec)?;
        let history = v1.history.into_iter().map(HistoryEntry::into_record);
        let meta = SnapshotMeta {
            function: v1.function,
            features: v1.features,
            history_len: history.len(),
            undo: v1.undo,
            quarantined: v1.quarantined,
        };
        (meta, SnapshotHistory::Inline(history.collect()))
    } else {
        let meta: SnapshotMeta = serde_json::from_str(meta).map_err(meta_codec)?;
        let history = SnapshotHistory::Logged(meta.history_len);
        (meta, history)
    };

    let state_payload = match read_frame(bytes, offset) {
        FrameRead::Ok { payload, next } => {
            offset = next;
            payload
        }
        FrameRead::Eof => {
            return Err(PersistError::Corrupt(
                "snapshot: missing STATE frame".into(),
            ))
        }
        FrameRead::Corrupt(m) => return Err(PersistError::Corrupt(format!("snapshot STATE: {m}"))),
    };
    match read_frame(bytes, offset) {
        FrameRead::Eof => {}
        _ => return Err(PersistError::Corrupt("snapshot: trailing data".into())),
    }
    let state = decode_state(state_payload, meta.features.len(), &meta.function)?;

    Ok(DecodedSnapshot {
        epoch,
        function: meta.function,
        features: meta.features,
        history,
        undo: meta.undo,
        quarantined: meta.quarantined,
        state,
    })
}

// ---- STATE binary codec ---------------------------------------------------

/// Serializes the bulk state arrays. Bitmap maps are written sorted by id
/// so the output is deterministic.
pub(crate) fn encode_state(state: &MatchState) -> Vec<u8> {
    let n_pairs = state.n_pairs();
    let mut w = ByteWriter::new();
    w.u64(n_pairs as u64);

    // Memo grid, pair-major (the memo itself is feature-major): each
    // pair's cells in feature order, streamed from the columns.
    let memo = &state.memo;
    w.u64(memo.n_pairs() as u64);
    w.u64(memo.n_features() as u64);
    w.u64(memo.stored() as u64);
    let columns = memo.columns();
    for p in 0..memo.n_pairs() {
        for column in columns {
            w.f64(column[p]);
        }
    }

    // Verdicts, bit-packed.
    let mut word = 0u64;
    for (i, &v) in state.verdicts().iter().enumerate() {
        if v {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            w.u64(word);
            word = 0;
        }
    }
    if !n_pairs.is_multiple_of(64) {
        w.u64(word);
    }

    // Fired-rule assignments; u32::MAX encodes "no rule fired".
    for f in state.fired_slice() {
        w.u32(f.map_or(u32::MAX, |r| r.0));
    }

    // M(r) bitmaps, sorted by rule id.
    w.u64(state.rule_bitmaps().count() as u64);
    for (rid, bm) in state.rule_bitmaps() {
        w.u32(rid.0);
        write_bitmap(&mut w, bm);
    }

    // U(p) bitmaps, sorted by predicate id.
    w.u64(state.pred_bitmaps().count() as u64);
    for (pid, bm) in state.pred_bitmaps() {
        w.u64(pid.0);
        write_bitmap(&mut w, bm);
    }

    w.into_bytes()
}

fn write_bitmap(w: &mut ByteWriter, bm: &Bitmap) {
    w.u64(bm.len() as u64);
    for &word in bm.words() {
        w.u64(word);
    }
}

/// Reads the bitmap of set `name`, which must cover all `n_pairs` pairs.
fn read_set(
    r: &mut ByteReader<'_>,
    budget: usize,
    n_pairs: usize,
    name: std::fmt::Arguments<'_>,
) -> Result<Bitmap, PersistError> {
    let len = r.count(budget.saturating_mul(64))?;
    let n_words = len.div_ceil(64);
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    let bm = Bitmap::from_words(words, len)
        .ok_or_else(|| PersistError::Corrupt("state: bitmap word count mismatch".into()))?;
    if bm.len() != n_pairs {
        return Err(PersistError::Corrupt(format!(
            "state: {name} covers {} of {n_pairs} pairs",
            bm.len()
        )));
    }
    Ok(bm)
}

/// Deserializes the STATE frame. `n_features` comes from META so the memo
/// grid width can be cross-checked against the feature table, and
/// `function` so every bitmap id can be checked against the ids it minted
/// (a set past them must be empty — an older version kept the emptied sets
/// of a restored function's old ids — and is dropped) and every `U(p)` bit
/// proven by the memo.
pub(crate) fn decode_state(
    payload: &[u8],
    n_features: usize,
    function: &MatchingFunction,
) -> Result<MatchState, PersistError> {
    let (next_rule, next_pred) = function.id_counters();
    let budget = payload.len();
    let mut r = ByteReader::new(payload, "state");
    let n_pairs = r.count(budget)?;

    // Memo grid. Its feature capacity may exceed the interned feature
    // count (capacity grows geometrically), never the reverse.
    let memo_pairs = r.count(budget)?;
    let memo_features = r.count(budget)?;
    let stored = r.count(budget)?;
    if memo_pairs != n_pairs || memo_features < n_features {
        return Err(PersistError::Corrupt(format!(
            "state: memo is {memo_pairs}×{memo_features} for {n_pairs} pairs / {n_features} features"
        )));
    }
    if memo_pairs
        .checked_mul(memo_features)
        .is_none_or(|cells| cells > budget / 8)
    {
        return Err(PersistError::Corrupt("state: implausible memo size".into()));
    }
    // The grid is pair-major on disk; fill the memo's columns from it.
    let mut columns: Vec<Vec<f64>> = (0..memo_features)
        .map(|_| Vec::with_capacity(memo_pairs))
        .collect();
    for _ in 0..memo_pairs {
        for column in &mut columns {
            column.push(r.f64()?);
        }
    }
    let memo = DenseMemo::from_columns(memo_pairs, columns, stored)
        .ok_or_else(|| PersistError::Corrupt("state: memo shape mismatch".into()))?;

    // Verdicts.
    let mut verdicts = Vec::with_capacity(n_pairs);
    let mut word = 0u64;
    for i in 0..n_pairs {
        if i % 64 == 0 {
            word = r.u64()?;
        }
        verdicts.push(word & (1 << (i % 64)) != 0);
    }

    // Fired-rule assignments.
    let mut fired = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let raw = r.u32()?;
        fired.push((raw != u32::MAX).then_some(RuleId(raw)));
    }

    // M(r).
    let n_rules = r.count(budget)?;
    let mut rule_fired = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let rid = RuleId(r.u32()?);
        let bm = read_set(&mut r, budget, n_pairs, format_args!("M({rid})"))?;
        if rid.0 < next_rule {
            rule_fired.push((rid, bm));
        } else if bm.count_ones() > 0 {
            return Err(PersistError::Corrupt(format!(
                "state: M({rid}) was never minted"
            )));
        }
    }

    // U(p).
    let n_preds = r.count(budget)?;
    let mut pred_false = Vec::with_capacity(n_preds);
    for _ in 0..n_preds {
        let pid = PredId(r.u64()?);
        let bm = read_set(&mut r, budget, n_pairs, format_args!("U({pid})"))?;
        if pid.0 < next_pred {
            pred_false.push((pid, bm));
        } else if bm.count_ones() > 0 {
            return Err(PersistError::Corrupt(format!(
                "state: U({pid}) was never minted"
            )));
        }
    }

    r.done()?;
    let mut state = MatchState::from_parts(n_pairs, memo, verdicts, fired, rule_fired, pred_false);
    state.clear_unproven_witnesses(function);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::EvalBudget;
    use crate::context::EvalContext;
    use crate::executor::Executor;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;
    use crate::state::run_full;
    use em_similarity::{Measure, TokenScheme};
    use em_types::{CandidateSet, Record, Schema, Table};

    #[test]
    fn decode_clears_witnesses_the_memo_does_not_prove() {
        let schema = Schema::new(["title", "modelno"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
        a.push(Record::new("a2", ["sony walkman player", "NWZ"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod nano", "MC037"]));
        b.push(Record::new("b2", ["sony walkman player", "NWZ9"]));
        let mut ctx = EvalContext::from_tables(a, b);
        let title = Measure::Jaccard(TokenScheme::Whitespace);
        let f_title = ctx.feature(title, "title", "title").unwrap();
        let f_model = ctx.feature(Measure::Exact, "modelno", "modelno").unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        // r0 fires for a1b1 and a2b2; r1 (model) also holds for a1b1.
        let mut func = MatchingFunction::new();
        let r0 = func
            .add_rule(Rule::new().pred(f_title, CmpOp::Ge, 0.99))
            .unwrap();
        func.add_rule(Rule::new().pred(f_model, CmpOp::Ge, 1.0))
            .unwrap();
        let (title_p, model_p) = (func.rules()[0].preds[0].id, func.rules()[1].preds[0].id);
        let exec = Executor::serial();
        let mut state = MatchState::new(cands.len(), ctx.registry().len());
        run_full(&func, &ctx, &cands, &mut state, false, &exec);
        let n = ctx.registry().len();
        let clean = decode_state(&encode_state(&state), n, &func).unwrap();
        assert_eq!(
            encode_state(&clean),
            encode_state(&state),
            "a sound state decodes as is"
        );

        // Stale witnesses, as an older version could leave behind: the
        // title predicate "fails" a1b1 although its memoized value passes,
        // and the model predicate "fails" it with no value memoized (r0
        // fired first), although the model numbers are equal.
        state.record_pred_false(title_p, 0, 1);
        state.record_pred_false(model_p, 0, 1);
        let mut state = decode_state(&encode_state(&state), n, &func).unwrap();
        assert!(!state.pred_bitmap(title_p).unwrap().get(0), "memo passes p");
        assert!(!state.pred_bitmap(model_p).unwrap().get(0), "no memo cell");

        // Removing r0 cascades a1b1 and a2b2: r1 must be evaluated, not
        // skipped, for a1b1 to stay matched.
        let budget = EvalBudget::unlimited();
        crate::incremental::remove_rule(
            &mut func, &mut state, &ctx, &cands, r0, false, &exec, &budget,
        )
        .unwrap();
        let mut fresh = MatchState::new(cands.len(), n);
        run_full(&func, &ctx, &cands, &mut fresh, false, &exec);
        assert_eq!(state.verdicts(), fresh.verdicts());
        assert!(state.verdict(0));
    }
}
