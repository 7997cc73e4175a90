//! Crash-recovery equivalence: a session recovered from its durable store
//! (latest snapshot + history log + write-ahead journal replay) must
//! converge to the same verdicts, fired rules, `M(r)`/`U(p)` bitmaps,
//! history, and quarantine as the uninterrupted live session — at 1, 2,
//! and 4 worker threads, with and without frequent autosaves — plus golden
//! tests for torn journals, bit-flipped frames, stores that lost their
//! snapshots, a damaged history log, snapshot size under a growing
//! history, a snapshot's pinned bytes, and a store written by format
//! version 1.

use proptest::prelude::*;
use rulem::blocking::Blocker;
use rulem::core::{store_exists, DebugSession, OrderingAlgo, SessionConfig, SessionStore};
use rulem::core::{FeatureId, Memo};
use rulem::datagen::Domain;
use rulem::types::{CandidateSet, Record, Schema, Table};
use std::path::{Path, PathBuf};

/// A small demo workload: two product tables blocked on title overlap.
fn demo_session(n_threads: usize) -> DebugSession {
    let ds = Domain::Products.generate(7, 0.01);
    let cands = rulem::blocking::OverlapBlocker::new(
        "title",
        rulem::similarity::TokenScheme::Whitespace,
        2,
    )
    .block(&ds.table_a, &ds.table_b)
    .unwrap();
    let config = SessionConfig {
        n_threads,
        ..SessionConfig::default()
    };
    DebugSession::new(ds.table_a, ds.table_b, cands, config)
}

fn tmp_store_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_durability_tests")
        .join(format!("{name}-{}", std::process::id()));
    // Each test owns its directory; clear leftovers from a previous run.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The edit-script alphabet the property tests draw from. Each op is
/// applied identically to the durable store and the live reference.
#[derive(Debug, Clone)]
enum Op {
    AddRule(usize),
    RemoveRule(usize),
    AddPred { rule: usize, pred: usize },
    RemovePred(usize),
    SetThreshold { pred: usize, value: f64 },
    Undo,
    Simplify,
    Optimize(usize),
    Save,
}

const RULE_MENU: &[&str] = &[
    "exact(modelno, modelno) >= 1.0",
    "jaccard_ws(title, title) >= 0.6",
    "jaro_winkler(title, title) >= 0.92 AND jaccard_ws(title, title) >= 0.3",
    "trigram(title, title) >= 0.5",
    "levenshtein(modelno, modelno) >= 0.8",
    "jaro(title, title) >= 0.85 AND exact(modelno, modelno) >= 1.0",
];

const PRED_MENU: &[&str] = &[
    "jaccard_ws(title, title) >= 0.25",
    "jaro_winkler(title, title) >= 0.9",
    "trigram(title, title) >= 0.4",
    "exact(modelno, modelno) >= 1.0",
];

const ALGOS: &[OrderingAlgo] = &[
    OrderingAlgo::ByRank,
    OrderingAlgo::GreedyCost,
    OrderingAlgo::GreedyReduction,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..RULE_MENU.len()).prop_map(Op::AddRule),
        2 => (0..6usize).prop_map(Op::RemoveRule),
        3 => ((0..6usize), (0..PRED_MENU.len())).prop_map(|(rule, pred)| Op::AddPred { rule, pred }),
        2 => (0..12usize).prop_map(Op::RemovePred),
        2 => ((0..12usize), (0.1f64..0.95)).prop_map(|(pred, value)| Op::SetThreshold { pred, value }),
        1 => Just(Op::Undo),
        1 => Just(Op::Simplify),
        1 => (0..ALGOS.len()).prop_map(Op::Optimize),
        2 => Just(Op::Save),
    ]
}

/// Applies one op to a store (durable or ephemeral). Indices are taken
/// modulo whatever currently exists, so scripts stay meaningful as the
/// function evolves; ops on an empty function are skipped. Errors that
/// the session itself rejects (e.g. removing a rule's last predicate)
/// are fine — both sides must reject identically.
fn apply(store: &mut SessionStore, op: &Op) {
    let rid_at = |s: &SessionStore, i: usize| {
        let rules = s.session().function().rules();
        (!rules.is_empty()).then(|| rules[i % rules.len()].id)
    };
    let pid_at = |s: &SessionStore, i: usize| {
        let pids: Vec<_> = s
            .session()
            .function()
            .rules()
            .iter()
            .flat_map(|r| r.preds.iter().map(|p| p.id))
            .collect();
        (!pids.is_empty()).then(|| pids[i % pids.len()])
    };
    match op {
        Op::AddRule(i) => {
            store.add_rule_text(RULE_MENU[*i]).unwrap();
        }
        Op::RemoveRule(i) => {
            if let Some(rid) = rid_at(store, *i) {
                store.remove_rule(rid).unwrap();
            }
        }
        Op::AddPred { rule, pred } => {
            if let Some(rid) = rid_at(store, *rule) {
                let p = store.parse_predicate(PRED_MENU[*pred]).unwrap();
                store.add_predicate(rid, p).unwrap();
            }
        }
        Op::RemovePred(i) => {
            if let Some(pid) = pid_at(store, *i) {
                // Removing the only predicate of a rule is an EditError;
                // both sides reject it the same way.
                let _ = store.remove_predicate(pid);
            }
        }
        Op::SetThreshold { pred, value } => {
            if let Some(pid) = pid_at(store, *pred) {
                store.set_threshold(pid, *value).unwrap();
            }
        }
        Op::Undo => {
            store.undo().unwrap();
        }
        Op::Simplify => {
            let _ = store.simplify();
        }
        Op::Optimize(i) => {
            let _ = store.optimize(ALGOS[*i % ALGOS.len()]);
        }
        Op::Save => {
            if store.store_dir().is_some() {
                store.save().unwrap();
            }
        }
    }
}

/// Asserts the full observable state of two sessions matches: verdicts,
/// fired rules, per-rule `M(r)` and per-predicate `U(p)` bitmaps,
/// function text, history (modulo wall-clock), undo depth, quarantine.
fn assert_sessions_match(got: &DebugSession, want: &DebugSession, what: &str) {
    assert_eq!(
        got.function_text(),
        want.function_text(),
        "{what}: function text"
    );
    assert_eq!(
        got.state().verdicts(),
        want.state().verdicts(),
        "{what}: verdicts"
    );
    for i in 0..want.state().n_pairs() {
        assert_eq!(
            got.state().fired_rule(i),
            want.state().fired_rule(i),
            "{what}: fired rule for pair {i}"
        );
    }
    for rule in want.function().rules() {
        assert_eq!(
            got.state().rule_bitmap(rule.id),
            want.state().rule_bitmap(rule.id),
            "{what}: M({}) differs",
            rule.id
        );
        for pred in &rule.preds {
            assert_eq!(
                got.state().pred_bitmap(pred.id),
                want.state().pred_bitmap(pred.id),
                "{what}: U({}) differs",
                pred.id
            );
        }
    }
    assert_eq!(got.quarantined(), want.quarantined(), "{what}: quarantine");
    assert_eq!(got.undo_depth(), want.undo_depth(), "{what}: undo depth");
    assert_eq!(hist(got), hist(want), "{what}: history");
}

/// A session's history without wall-clock: description, verdicts changed,
/// pairs examined.
fn hist(s: &DebugSession) -> Vec<(String, usize, usize)> {
    s.history()
        .iter()
        .map(|e| (e.description.clone(), e.n_changed, e.pairs_examined))
        .collect()
}

/// Runs one script on a durable store (autosaving every `autosave`
/// records, or at the default interval) and on a live ephemeral
/// reference, then reopens the durable store and checks the recovered
/// session against the uninterrupted one.
fn check_recovery(name: &str, ops: &[Op], n_threads: usize, autosave: Option<usize>) {
    let dir = tmp_store_dir(&format!("{name}-t{n_threads}-a{autosave:?}"));
    let mut durable = SessionStore::create(&dir, demo_session(n_threads)).unwrap();
    if autosave.is_some() {
        durable.set_autosave_every(autosave);
    }
    let mut live = SessionStore::ephemeral(demo_session(n_threads));
    for op in ops {
        apply(&mut durable, op);
        apply(&mut live, op);
    }
    // "Crash": drop the store without a final save. Recovery must replay
    // the journal suffix on top of the last snapshot.
    drop(durable);

    assert!(store_exists(&dir).unwrap());
    // Note: `records_failed` may be nonzero — an edit is journaled before
    // its outcome is known, so an edit the session rejected live (e.g.
    // removing a rule's last predicate) is re-rejected identically here.
    let (recovered, _report) = SessionStore::open(&dir, demo_session(n_threads)).unwrap();
    assert_sessions_match(
        recovered.session(),
        live.session(),
        &format!("{name} t={n_threads} autosave={autosave:?}"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: snapshot + history log + journal replay ≡
    /// live session, over random edit scripts, at every thread count. The
    /// second run autosaves every 3 records, so most recoveries start from
    /// a snapshot whose history is in the log.
    #[test]
    fn recovery_matches_live_session(ops in proptest::collection::vec(op_strategy(), 1..14)) {
        for &n_threads in &[1usize, 2, 4] {
            for autosave in [None, Some(3)] {
                check_recovery("prop", &ops, n_threads, autosave);
            }
        }
    }
}

/// Thread count must not leak into durable state: the same script run at
/// 1, 2, and 4 threads recovers to identical observable state.
#[test]
fn recovered_state_identical_across_thread_counts() {
    let ops = vec![
        Op::AddRule(1),
        Op::AddRule(2),
        Op::Save,
        Op::AddPred { rule: 0, pred: 0 },
        Op::SetThreshold {
            pred: 1,
            value: 0.45,
        },
        Op::AddRule(0),
        Op::RemoveRule(1),
        Op::Undo,
    ];
    let mut recovered = Vec::new();
    for &n_threads in &[1usize, 2, 4] {
        let dir = tmp_store_dir(&format!("xthread-t{n_threads}"));
        let mut store = SessionStore::create(&dir, demo_session(n_threads)).unwrap();
        for op in &ops {
            apply(&mut store, op);
        }
        drop(store);
        let (back, _) = SessionStore::open(&dir, demo_session(n_threads)).unwrap();
        recovered.push(back.into_session());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let first = &recovered[0];
    for other in &recovered[1..] {
        assert_sessions_match(other, first, "thread-count determinism");
    }
}

/// The store's files named `<prefix>…`, in epoch order.
fn store_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
                .then_some(p)
        })
        .collect();
    files.sort();
    files
}

fn latest_journal(dir: &Path) -> PathBuf {
    store_files(dir, "journal-")
        .pop()
        .expect("store has a journal")
}

/// Golden test: garbage appended after the last valid frame (a torn
/// final write) is truncated away; every durable record survives.
#[test]
fn torn_journal_tail_is_dropped() {
    let dir = tmp_store_dir("torn-tail");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    let mut live = SessionStore::ephemeral(demo_session(1));
    for op in [
        Op::AddRule(0),
        Op::AddRule(1),
        Op::SetThreshold {
            pred: 0,
            value: 0.7,
        },
    ] {
        apply(&mut store, &op);
        apply(&mut live, &op);
    }
    drop(store);

    // A torn append: half a length prefix and nothing else.
    let journal = latest_journal(&dir);
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&[0x42, 0x42, 0x42]);
    std::fs::write(&journal, &bytes).unwrap();

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert!(
        report.journal_truncated.is_some(),
        "torn tail must be reported: {report}"
    );
    assert_sessions_match(recovered.session(), live.session(), "torn tail");
    drop(recovered);

    // The truncation was durable: a second open is clean.
    let (_, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert!(report.journal_truncated.is_none(), "second open: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden test: a bit flip inside a journal frame is caught by the CRC;
/// replay stops at the corrupt frame and the tail is dropped.
#[test]
fn bit_flipped_journal_frame_truncates_there() {
    let dir = tmp_store_dir("bit-flip");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    apply(&mut store, &Op::AddRule(0));
    apply(&mut store, &Op::AddRule(1));
    drop(store);

    // Flip one byte just past the 16-byte header: inside the first frame.
    let journal = latest_journal(&dir);
    let mut bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 24, "journal should hold records");
    bytes[20] ^= 0x01;
    std::fs::write(&journal, &bytes).unwrap();

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert!(report.journal_truncated.is_some(), "{report}");
    assert_eq!(report.records_replayed, 0, "corruption hit the first frame");
    assert!(recovered.session().function().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden test: all snapshots lost — the session is rebuilt from the
/// journal generations alone.
#[test]
fn missing_snapshots_recover_from_journals() {
    let dir = tmp_store_dir("no-snapshot");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    let mut live = SessionStore::ephemeral(demo_session(1));
    for op in [
        Op::AddRule(0),
        Op::AddRule(2),
        Op::Save, // epoch 1: pre-save edits live only in journal 0
        Op::AddPred { rule: 1, pred: 0 },
        Op::Undo,
    ] {
        apply(&mut store, &op);
        apply(&mut live, &op);
    }
    drop(store);

    for p in store_files(&dir, "snapshot-") {
        std::fs::remove_file(p).unwrap();
    }

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.snapshot_epoch, None, "{report}");
    assert!(report.records_replayed > 0);
    assert_sessions_match(recovered.session(), live.session(), "no snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery replays the journal through the incremental engine; for a
/// short journal on a warm snapshot it must beat a cold full re-run of
/// the same function (the paper's motivation for materialized state).
#[test]
fn recovery_replays_not_reruns() {
    let dir = tmp_store_dir("replay-speed");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    for op in [Op::AddRule(0), Op::AddRule(1), Op::AddRule(2), Op::Save] {
        apply(&mut store, &op);
    }
    // One journaled edit on top of the snapshot.
    apply(
        &mut store,
        &Op::SetThreshold {
            pred: 2,
            value: 0.55,
        },
    );
    drop(store);

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.snapshot_epoch, Some(1));
    assert_eq!(report.records_replayed, 1, "one edit after the snapshot");

    // A full re-run from scratch examines every pair for every rule;
    // replay only re-applied the threshold delta.
    let replay_examined: usize = recovered
        .session()
        .history()
        .last()
        .map(|e| e.pairs_examined)
        .unwrap();
    let n_pairs = recovered.session().candidates().len();
    assert!(
        replay_examined <= n_pairs,
        "replayed edit examined {replay_examined} of {n_pairs} pairs — \
         that is incremental work, not a full {}-rule re-run",
        recovered.session().function().n_rules()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A script long enough to autosave several times at every 3 records.
fn autosaving_script() -> Vec<Op> {
    vec![
        Op::AddRule(0),
        Op::AddRule(1),
        Op::AddPred { rule: 0, pred: 0 },
        Op::SetThreshold {
            pred: 1,
            value: 0.45,
        },
        Op::AddRule(3),
        Op::Undo,
        Op::AddRule(2),
        Op::RemovePred(2),
        Op::SetThreshold {
            pred: 0,
            value: 0.7,
        },
        Op::AddRule(4),
        Op::Undo,
        Op::AddPred { rule: 1, pred: 2 },
    ]
}

/// Autosaves several times, then flips a bit in the newest snapshot:
/// recovery falls back one generation, takes only the history-log frames
/// that generation counts, cuts the log after them, and replays the
/// journals forward — the live history comes back exactly, and again
/// after a second open.
#[test]
fn fallback_generation_recovers_the_live_history() {
    let dir = tmp_store_dir("fallback-history");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    store.set_autosave_every(Some(3));
    let mut live = SessionStore::ephemeral(demo_session(1));
    for op in &autosaving_script() {
        apply(&mut store, op);
        apply(&mut live, op);
    }
    assert!(store.epoch().unwrap() >= 3, "the script autosaves");
    drop(store);

    let newest = store_files(&dir, "snapshot-").pop().unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).unwrap();

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.snapshots_skipped, 1, "{report}");
    assert_eq!(report.history_lost, 0, "{report}");
    assert_sessions_match(recovered.session(), live.session(), "fallback");
    drop(recovered);
    let (again, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.history_lost, 0, "{report}");
    assert_sessions_match(again.session(), live.session(), "fallback, reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged history log never fails `open`: the frames before the damage
/// are installed, the report counts the entries the snapshot counts that
/// the log lost, and the journal replays the rest. The state itself is
/// exact.
#[test]
fn damaged_history_log_loses_only_its_entries() {
    let dir = tmp_store_dir("damaged-log");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    let mut live = SessionStore::ephemeral(demo_session(1));
    // Saves after ops 3 and 7 log two frames; later ops stay in the
    // journal.
    let mut saved_at = Vec::new();
    for (i, op) in autosaving_script().iter().enumerate() {
        apply(&mut store, op);
        apply(&mut live, op);
        if i == 3 || i == 7 {
            store.save().unwrap();
            saved_at.push(store.session().history().len());
        }
    }
    let (h1, h2) = (saved_at[0], saved_at[1]);
    assert!(0 < h1 && h1 < h2, "{saved_at:?}");
    drop(store);

    // Flip a byte in the log's last frame: its entries are lost.
    let log = dir.join("history.bin");
    let mut bytes = std::fs::read(&log).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();

    let (recovered, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.history_lost, h2 - h1, "{report}");
    let want = hist(live.session());
    let mut kept = want[..h1].to_vec();
    kept.extend_from_slice(&want[h2..]);
    assert_eq!(
        hist(recovered.session()),
        kept,
        "the log's prefix, then replay"
    );
    assert_eq!(
        recovered.session().state().verdicts(),
        live.session().state().verdicts()
    );
    assert_eq!(
        recovered.session().function_text(),
        live.session().function_text()
    );
    drop(recovered);

    // The damaged frame was cut: the next save logs the history the
    // session now holds, and a reopen loses nothing more.
    let (mut store, _) = SessionStore::open(&dir, demo_session(1)).unwrap();
    store.save().unwrap();
    drop(store);
    let (back, report) = SessionStore::open(&dir, demo_session(1)).unwrap();
    assert_eq!(report.history_lost, 0, "{report}");
    assert_eq!(hist(back.session()), kept);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Autosave at a steady cost: a try/undo loop over a fixed feature set
/// grows the history by four entries per cycle, yet every snapshot it
/// saves has the same size — the entries go to the history log, and a
/// tried rule that fired leaves no `M(r)` behind once it is undone.
#[test]
fn snapshot_size_stays_flat_while_history_grows() {
    let dir = tmp_store_dir("flat-snapshots");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    store
        .add_rule_text("jaccard_ws(title, title) >= 0.6")
        .unwrap();
    store
        .add_rule_text("exact(modelno, modelno) >= 1.0")
        .unwrap();
    // Pad the history to two digits, so the count in META keeps its width.
    let pid = store.session().function().rules()[0].preds[0].id;
    while store.session().history().len() < 10 {
        store.set_threshold(pid, 0.5).unwrap();
        store.undo().unwrap();
    }
    store.save().unwrap();
    store.set_autosave_every(Some(2));

    let mut sizes = Vec::new();
    let mut lengths = Vec::new();
    for i in 0..5 {
        // Try a looser or a tighter threshold, then take it back.
        store.set_threshold(pid, [0.3, 0.8][i % 2]).unwrap();
        store.undo().unwrap();
        assert_eq!(store.records_since_save(), 0, "the undo autosaved");
        // Try a rule that fires, then take it back.
        let (rid, _) = store
            .add_rule_text("jaccard_ws(title, title) >= 0.3")
            .unwrap();
        let fired = store.session().state().rule_bitmap(rid).unwrap();
        assert!(fired.count_ones() > 0, "the tried rule fires");
        store.undo().unwrap();
        assert_eq!(store.records_since_save(), 0, "the undo autosaved");
        let newest = store_files(&dir, "snapshot-").pop().unwrap();
        sizes.push(std::fs::metadata(newest).unwrap().len());
        lengths.push(store.session().history().len());
    }
    assert!(
        lengths.windows(2).all(|w| w[0] < w[1]),
        "history grows: {lengths:?}"
    );
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "snapshot sizes {sizes:?} at history lengths {lengths:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The snapshot's bytes are its format, not just whatever this build
/// reads back: loads, then threshold and predicate edits with undos, then
/// one save, must write the very bytes the format has always written for
/// this script (so a store written by an older build still decodes the
/// same). The reopened session's memo equals the live one cell for cell.
#[test]
fn snapshot_bytes_are_pinned() {
    let dir = tmp_store_dir("pinned-bytes");
    let mut store = SessionStore::create(&dir, demo_session(1)).unwrap();
    for text in &RULE_MENU[..3] {
        store.add_rule_text(text).unwrap();
    }
    let rules: Vec<_> = store.session().function().rules().to_vec();
    let (p0, p2) = (rules[0].preds[0].id, rules[2].preds[0].id);
    store.set_threshold(p0, 0.45).unwrap();
    store.undo().unwrap();
    let pred = store.parse_predicate(PRED_MENU[2]).unwrap();
    store.add_predicate(rules[1].id, pred).unwrap();
    store.set_threshold(p2, 0.8).unwrap();
    store.remove_predicate(p2).unwrap();
    store.undo().unwrap();
    let pred = store.parse_predicate(PRED_MENU[3]).unwrap();
    store.add_predicate(rules[0].id, pred).unwrap();
    store.undo().unwrap();
    store.save().unwrap();

    let newest = store_files(&dir, "snapshot-").pop().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    assert_eq!(
        (bytes.len(), format!("{:016x}", fnv1a(&bytes))),
        (25_258, "457098244adc4b3f".to_string()),
        "snapshot bytes"
    );

    let live = store.into_session();
    let (back, _) = SessionStore::open(&dir, demo_session(1)).unwrap();
    let (got, want) = (&back.session().state().memo, &live.state().memo);
    assert_eq!(got.n_features(), want.n_features());
    assert_eq!(got.stored(), want.stored());
    for p in 0..want.n_pairs() {
        for f in 0..want.n_features() {
            let f = FeatureId(f as u32);
            assert_eq!(
                got.get(p, f).map(f64::to_bits),
                want.get(p, f).map(f64::to_bits),
                "memo cell ({p}, {f:?})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture `tests/fixtures/v1_store` was written by format version 1,
/// whose snapshots carried the history inline: a four-record tables pair
/// with a save after four edits and two more edits in the journal.
fn fixture_session() -> DebugSession {
    let schema = Schema::new(["title", "modelno"]);
    let rows = [
        ("apple ipod nano 8gb", "MC037"),
        ("sony walkman player", "NWZ-E384"),
        ("canon powershot camera", "SX620"),
        ("garmin gps navigator", "NUVI-2539"),
    ];
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    for (i, (title, model)) in rows.iter().enumerate() {
        a.push(Record::new(format!("a{i}"), [*title, *model]));
        b.push(Record::new(
            format!("b{i}"),
            [
                title.replace(' ', "  ").to_uppercase(),
                model.replace('-', ""),
            ],
        ));
    }
    let cands = CandidateSet::cartesian(&a, &b);
    DebugSession::new(a, b, cands, SessionConfig::default())
}

/// A version-1 store opens with its exact history (inline in the snapshot
/// plus the journal's replay), and its next save migrates it: a version-2
/// snapshot that holds no entries, and the history log that does.
#[test]
fn a_v1_store_opens_with_its_history_and_migrates() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let want: Vec<(String, usize, usize)> =
        std::fs::read_to_string(fixture.join("v1_store_history.txt"))
            .unwrap()
            .lines()
            .map(|line| {
                let cols: Vec<&str> = line.split('\t').collect();
                (
                    cols[0].to_string(),
                    cols[1].parse().unwrap(),
                    cols[2].parse().unwrap(),
                )
            })
            .collect();
    assert_eq!(want.len(), 6, "the fixture's expected history");

    let dir = tmp_store_dir("v1-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    for file in store_files(&fixture.join("v1_store"), "") {
        std::fs::copy(&file, dir.join(file.file_name().unwrap())).unwrap();
    }
    let version =
        |path: &Path| u32::from_le_bytes(std::fs::read(path).unwrap()[4..8].try_into().unwrap());
    assert_eq!(version(&store_files(&dir, "snapshot-")[0]), 1);

    let (mut store, report) = SessionStore::open(&dir, fixture_session()).unwrap();
    assert_eq!(report.snapshot_epoch, Some(1), "{report}");
    assert_eq!(report.records_replayed, 3, "{report}");
    assert_eq!(hist(store.session()), want, "history of the v1 store");
    let text = store.session().function_text();

    store.save().unwrap();
    let newest = store_files(&dir, "snapshot-").pop().unwrap();
    assert_eq!(version(&newest), 2, "the save writes version 2");
    assert!(dir.join("history.bin").exists(), "and the history log");
    drop(store);

    let (back, report) = SessionStore::open(&dir, fixture_session()).unwrap();
    assert_eq!(report.snapshot_epoch, Some(2), "{report}");
    assert_eq!(report.records_replayed, 0, "{report}");
    assert_eq!(hist(back.session()), want, "history after the migration");
    assert_eq!(back.session().function_text(), text);
    let _ = std::fs::remove_dir_all(&dir);
}
