//! Golden corruption-class tests for `scrub [--repair]`: each damage
//! class the paper's interactive sessions can hit on real disks — torn
//! journal and history-log tails, snapshot bit flips, missing
//! generations, orphan temp files, stale locks — is seeded byte-for-byte, classified by a dry-run
//! scrub, repaired by `--repair`, and the store must reopen to the
//! newest provably-consistent state. A clean store must come through a
//! repair scrub byte-identical.

use em_core::{scrub, DebugSession, PersistError, ScrubClass, SessionConfig, SessionStore};
use em_types::{CandidateSet, Record, Schema, Table};
use std::collections::BTreeMap;
use std::path::Path;

const RULE_A: &str = "jaccard_ws(name, name) >= 0.6";
const RULE_B: &str = "jaccard_ws(name, name) >= 0.95";
const RULE_C: &str = "jaccard_ws(name, name) >= 0.3";

fn session(n: usize) -> DebugSession {
    let schema = Schema::new(["name"]);
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    for i in 0..n {
        a.push(Record::new(format!("a{i}"), [format!("widget number {i}")]));
        b.push(Record::new(format!("b{i}"), [format!("widget number {i}")]));
    }
    let cands = CandidateSet::cartesian(&a, &b);
    DebugSession::new(a, b, cands, SessionConfig::default())
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_scrub_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir` with its exact bytes, for no-op comparisons.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// Flips one byte in the middle of `path`, breaking its checksum.
fn flip_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

fn snapshot_file(dir: &Path, epoch: u64) -> std::path::PathBuf {
    dir.join(format!("snapshot-{epoch:016x}.bin"))
}

fn journal_file(dir: &Path, epoch: u64) -> std::path::PathBuf {
    dir.join(format!("journal-{epoch:016x}.bin"))
}

/// A clean store must come through `scrub --repair` with zero findings
/// and every byte untouched — repair may never "fix" healthy data.
#[test]
fn clean_store_scrub_is_a_byte_identical_noop() {
    let dir = tmp_dir("clean-noop");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    store.save().unwrap();
    store.add_rule_text(RULE_B).unwrap();
    drop(store);

    let before = dir_contents(&dir);
    let report = scrub(&dir, true).unwrap();
    assert!(report.findings.is_empty(), "{report}");
    assert!(report.serviceable, "{report}");
    assert!(report.frames_verified > 0, "{report}");
    assert_eq!(
        dir_contents(&dir),
        before,
        "repair scrub of a clean store must not change a byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The history log is walked too. A torn tail past what the newest
/// snapshot counts (a crash mid-append of a save that never wrote its
/// snapshot) loses nothing: scrub classifies it, repair truncates it, and
/// the store reopens with its whole history. A bit flip inside a frame
/// the snapshot counts is reported as well, and after repair `open`
/// installs the frames before it and counts the entries lost.
#[test]
fn history_log_damage_is_classified_then_repaired() {
    let dir = tmp_dir("history-log");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    store.save().unwrap();
    store.add_rule_text(RULE_B).unwrap();
    store.save().unwrap();
    let history: Vec<String> = store
        .session()
        .history()
        .iter()
        .map(|e| e.description.clone())
        .collect();
    drop(store);

    let log = dir.join("history.bin");
    let clean = std::fs::read(&log).unwrap();
    let mut torn = clean.clone();
    torn.extend_from_slice(&[0xAB; 11]);
    std::fs::write(&log, &torn).unwrap();

    let report = scrub(&dir, false).unwrap();
    let found = report.of_class(ScrubClass::TornTail);
    assert_eq!(found.len(), 1, "{report}");
    assert!(found[0].detail.starts_with("history log"), "{report}");
    let report = scrub(&dir, true).unwrap();
    assert!(
        report.of_class(ScrubClass::TornTail)[0].repaired,
        "{report}"
    );
    assert_eq!(std::fs::read(&log).unwrap(), clean, "cut to the last frame");
    let again = scrub(&dir, false).unwrap();
    assert!(again.findings.is_empty(), "repair must converge: {again}");
    let (back, recovery) = SessionStore::open(&dir, session(6)).unwrap();
    assert_eq!(recovery.history_lost, 0, "{recovery}");
    let got: Vec<String> = back
        .session()
        .history()
        .iter()
        .map(|e| e.description.clone())
        .collect();
    assert_eq!(got, history);
    drop(back);

    // A flip in the last frame, which the newest snapshot counts.
    let mut flipped = clean;
    let n = flipped.len();
    flipped[n - 2] ^= 0x40;
    std::fs::write(&log, &flipped).unwrap();
    let report = scrub(&dir, true).unwrap();
    assert!(
        !report.of_class(ScrubClass::TornTail).is_empty(),
        "{report}"
    );
    assert!(
        !report.of_class(ScrubClass::MissingGeneration).is_empty(),
        "the log no longer holds what the snapshot counts: {report}"
    );
    assert!(report.serviceable, "{report}");
    let (back, recovery) = SessionStore::open(&dir, session(6)).unwrap();
    assert_eq!(recovery.history_lost, 1, "{recovery}");
    assert_eq!(back.session().history().len(), history.len() - 1);
    assert_eq!(back.session().function().n_rules(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn journal tail (partial frame from a crash mid-append) is
/// classified on a dry run — without touching the store — and truncated
/// away by `--repair`, after which the store reopens with every whole
/// frame intact.
#[test]
fn torn_tail_is_classified_then_repaired() {
    let dir = tmp_dir("torn-tail");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    drop(store);

    // A crash mid-append: raw partial frame bytes at the journal's tail.
    let journal = journal_file(&dir, 0);
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&[0xAB; 11]);
    std::fs::write(&journal, &bytes).unwrap();

    let before = dir_contents(&dir);
    let report = scrub(&dir, false).unwrap();
    let torn = report.of_class(ScrubClass::TornTail);
    assert_eq!(torn.len(), 1, "{report}");
    assert!(!torn[0].repaired);
    assert!(report.serviceable, "{report}");
    assert_eq!(
        dir_contents(&dir),
        before,
        "a dry-run scrub must not modify the store"
    );

    let report = scrub(&dir, true).unwrap();
    let torn = report.of_class(ScrubClass::TornTail);
    assert_eq!(torn.len(), 1, "{report}");
    assert!(torn[0].repaired, "{report}");

    let again = scrub(&dir, false).unwrap();
    assert!(again.findings.is_empty(), "repair must converge: {again}");

    let (recovered, recovery) = SessionStore::open(&dir, session(6)).unwrap();
    assert!(recovery.journal_truncated.is_none(), "{recovery}");
    assert_eq!(recovered.session().function().n_rules(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip in the newest snapshot generation: classified as such, and
/// `--repair` drops the corrupt generation so recovery chains forward
/// from the previous one through its journals — losing nothing.
#[test]
fn snapshot_bit_flip_is_dropped_and_journals_chain_forward() {
    let dir = tmp_dir("bit-flip");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    store.save().unwrap();
    store.add_rule_text(RULE_B).unwrap();
    drop(store);

    flip_byte(&snapshot_file(&dir, 1));

    let report = scrub(&dir, false).unwrap();
    let flips = report.of_class(ScrubClass::BitFlip);
    assert_eq!(flips.len(), 1, "{report}");
    assert!(report.serviceable, "generation 0 still chains: {report}");

    let report = scrub(&dir, true).unwrap();
    assert!(report.of_class(ScrubClass::BitFlip)[0].repaired, "{report}");
    assert!(!snapshot_file(&dir, 1).exists());

    // Recovery falls back to snapshot 0 and replays journals 0 and 1 —
    // both acked edits survive the lost generation.
    let (recovered, _) = SessionStore::open(&dir, session(6)).unwrap();
    assert_eq!(recovered.session().function().n_rules(), 2);
    let mut reference = session(6);
    reference.add_rule_text(RULE_A).unwrap();
    reference.add_rule_text(RULE_B).unwrap();
    assert_eq!(
        recovered.session().state().verdicts(),
        reference.state().verdicts()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal generation missing from the chain the best snapshot needs:
/// the gap is reported, journals stranded behind it are removed by
/// repair, and the store reopens to the newest reachable state.
#[test]
fn missing_generation_strands_later_journals() {
    let dir = tmp_dir("missing-gen");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    store.save().unwrap(); // epoch 1
    store.add_rule_text(RULE_B).unwrap();
    store.save().unwrap(); // epoch 2 (prunes generation 0)
    store.add_rule_text(RULE_C).unwrap();
    drop(store);

    // Lose snapshot 2 (so generation 1 is best) and journal 1 — the
    // chain 1 → 2 now has a hole, stranding journal 2's records.
    std::fs::remove_file(snapshot_file(&dir, 2)).unwrap();
    std::fs::remove_file(journal_file(&dir, 1)).unwrap();

    let report = scrub(&dir, false).unwrap();
    let missing = report.of_class(ScrubClass::MissingGeneration);
    assert!(!missing.is_empty(), "{report}");
    assert!(report.serviceable, "{report}");
    assert!(journal_file(&dir, 2).exists());

    let report = scrub(&dir, true).unwrap();
    assert!(report.serviceable, "{report}");
    assert!(
        !journal_file(&dir, 2).exists(),
        "the stranded journal must be removed: {report}"
    );

    // Snapshot 1 holds RULE_A; everything after rode the lost journals.
    let (recovered, _) = SessionStore::open(&dir, session(6)).unwrap();
    assert_eq!(recovered.session().function().n_rules(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Orphan `.tmp` files from interrupted atomic writes are reported and
/// removed only under `--repair`.
#[test]
fn orphan_tmp_files_are_swept() {
    let dir = tmp_dir("orphan-tmp");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    drop(store);

    let orphan = dir.join("snapshot-0000000000000007.bin.tmp");
    std::fs::write(&orphan, b"half a snapshot").unwrap();

    let report = scrub(&dir, false).unwrap();
    let tmps = report.of_class(ScrubClass::OrphanTmp);
    assert_eq!(tmps.len(), 1, "{report}");
    assert!(!tmps[0].repaired);
    assert!(orphan.exists(), "dry run must not delete");

    let report = scrub(&dir, true).unwrap();
    assert!(report.of_class(ScrubClass::OrphanTmp)[0].repaired);
    assert!(!orphan.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lock file stamped by a dead process is reported as stale and stolen
/// by the scrub itself (its release on return is the repair).
#[test]
fn stale_lock_is_reported_and_released() {
    let dir = tmp_dir("stale-lock");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    drop(store);

    // No userspace process has pid 0; the lock is provably stale.
    std::fs::write(dir.join("lock"), "0\n").unwrap();

    let report = scrub(&dir, false).unwrap();
    let stale = report.of_class(ScrubClass::StaleLock);
    assert_eq!(stale.len(), 1, "{report}");
    assert!(stale[0].repaired, "stealing the lock is the repair");
    assert!(
        !dir.join("lock").exists(),
        "the stale lock must be gone after scrub returns"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// When every snapshot generation is corrupt, `open` refuses with a
/// typed error naming `scrub --repair` (never a panic, never a silently
/// reconstructed state), and scrub itself reports the store
/// unserviceable without deleting anything it can't replace.
#[test]
fn both_generations_corrupt_is_a_typed_refusal() {
    let dir = tmp_dir("both-corrupt");
    let mut store = SessionStore::create(&dir, session(6)).unwrap();
    store.add_rule_text(RULE_A).unwrap();
    store.save().unwrap();
    store.add_rule_text(RULE_B).unwrap();
    drop(store);

    flip_byte(&snapshot_file(&dir, 0));
    flip_byte(&snapshot_file(&dir, 1));

    match SessionStore::open(&dir, session(6)) {
        Err(PersistError::Corrupt(m)) => {
            assert!(m.contains("scrub --repair"), "must name the remedy: {m}")
        }
        Ok(_) => panic!("open must refuse an all-corrupt store"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }

    let report = scrub(&dir, false).unwrap();
    assert!(!report.serviceable, "{report}");
    assert_eq!(report.of_class(ScrubClass::BitFlip).len(), 2, "{report}");

    // Repair must not delete generations it cannot replace: with no
    // valid snapshot to fall back to, the corrupt files stay for manual
    // forensics / replica restore.
    let report = scrub(&dir, true).unwrap();
    assert!(!report.serviceable, "{report}");
    assert!(snapshot_file(&dir, 0).exists());
    assert!(snapshot_file(&dir, 1).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
