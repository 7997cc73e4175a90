//! Disk-fault sweep for the durable session store (runs only with
//! `--features fault-inject`): every persist write site — snapshot
//! writes and renames, journal creates and appends, history-log appends,
//! directory syncs, probe writes — is failed at its n-th occurrence with
//! ENOSPC, EIO, and genuine short writes, under 1/2/4 worker threads, once
//! with the workload's one explicit save and once more autosaving every
//! two records. The invariant is absolute: no combination may panic, and
//! reopening the store must recover *exactly* the acked edits — an edit
//! whose call returned `Ok` is never lost, an edit whose call returned a
//! typed disk error never reappears.

#![cfg(feature = "fault-inject")]

use em_core::{
    store_exists, DebugSession, DiskFault, DiskFaultPlan, DiskOp, FaultVfs, PersistError,
    SessionConfig, SessionError, SessionStore, Vfs,
};
use em_types::{CandidateSet, Record, Schema, Table};
use std::path::Path;
use std::sync::Arc;

/// Rule texts that reuse one feature, so the journal record sequence
/// stays simple (one intern record, then one record per rule).
const RULES: [&str; 5] = [
    "jaccard_ws(name, name) >= 0.3",
    "jaccard_ws(name, name) >= 0.5",
    "jaccard_ws(name, name) >= 0.6",
    "jaccard_ws(name, name) >= 0.8",
    "jaccard_ws(name, name) >= 0.95",
];

/// The workload saves (compacts) after this many rules, so the sweep
/// exercises appends both before and after a (possibly failing) save.
const SAVE_AFTER: usize = 2;

/// Safety cap on the per-op occurrence scan; every op in the workload
/// occurs far fewer times than this.
const MAX_NTH: u64 = 64;

fn session(n: usize, threads: usize) -> DebugSession {
    let schema = Schema::new(["name"]);
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    for i in 0..n {
        a.push(Record::new(format!("a{i}"), [format!("widget number {i}")]));
        b.push(Record::new(format!("b{i}"), [format!("widget number {i}")]));
    }
    let cands = CandidateSet::cartesian(&a, &b);
    let config = SessionConfig {
        n_threads: threads,
        ..SessionConfig::default()
    };
    DebugSession::new(a, b, cands, config)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_disk_fault_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every error a faulted run surfaces must be a typed `Disk` error
/// naming an operation — never a panic, never an untyped `Io`.
fn assert_disk(e: &PersistError, ctx: &str) {
    assert!(
        matches!(e, PersistError::Disk { .. }),
        "{ctx}: expected typed disk error, got {e}"
    );
}

fn assert_session_disk(e: &SessionError, ctx: &str) {
    match e {
        SessionError::Persist(p) => assert_disk(p, ctx),
        other => panic!("{ctx}: expected typed disk error, got {other}"),
    }
}

/// Runs the standard workload against `dir` through `vfs`, returning the
/// rules that were *acked* (their call returned `Ok`). With `autosave`,
/// the store also autosaves every that many records, so saves — and
/// their failures — ride on edits. Any failure must be a typed disk
/// error; panics bubble out and fail the sweep.
fn run_workload(
    dir: &Path,
    vfs: Arc<dyn Vfs>,
    threads: usize,
    autosave: Option<usize>,
    ctx: &str,
) -> Vec<&'static str> {
    let mut acked = Vec::new();
    let mut store = match SessionStore::create_on(vfs, dir, session(4, threads)) {
        Ok(s) => s,
        Err(e) => {
            assert_disk(&e, ctx);
            return acked;
        }
    };
    if autosave.is_some() {
        store.set_autosave_every(autosave);
    }
    for (i, rule) in RULES.iter().enumerate() {
        if i == SAVE_AFTER {
            if let Err(e) = store.save() {
                assert_disk(&e, ctx);
            }
        }
        match store.add_rule_text(rule) {
            Ok(_) => acked.push(*rule),
            Err(e) => assert_session_disk(&e, ctx),
        }
    }
    if let Err(e) = store.probe_write() {
        assert_disk(&e, ctx);
    }
    acked
}

/// Reopens `dir` on the real filesystem and asserts it holds exactly the
/// acked edits — same rule count, same verdicts as a reference session
/// replaying only the acked rules.
fn assert_recovers_exactly(dir: &Path, acked: &[&str], threads: usize, ctx: &str) {
    if !store_exists(dir).unwrap_or(false) {
        // The very first snapshot write failed: nothing was ever acked,
        // and there is nothing to reopen.
        assert!(
            acked.is_empty(),
            "{ctx}: store never materialized yet {} edits were acked",
            acked.len()
        );
        return;
    }
    let (recovered, report) = SessionStore::open(dir, session(4, threads))
        .unwrap_or_else(|e| panic!("{ctx}: reopen after fault failed: {e}"));
    assert_eq!(
        recovered.session().function().n_rules(),
        acked.len(),
        "{ctx}: recovered rule count diverges from acked set ({report})"
    );
    let mut reference = session(4, threads);
    for rule in acked {
        reference.add_rule_text(rule).unwrap();
    }
    assert_eq!(
        recovered.session().state().verdicts(),
        reference.state().verdicts(),
        "{ctx}: recovered verdicts diverge from acked reference"
    );
}

/// One cell of the sweep: plant `fault` at the `nth` occurrence of `op`,
/// run the workload, reopen for real, compare against the acked set.
/// Returns how many faults actually fired (0 = `nth` is past the op's
/// occurrence count and the scan for this op can stop).
fn sweep_cell(
    op: DiskOp,
    nth: u64,
    fault: DiskFault,
    threads: usize,
    autosave: Option<usize>,
) -> u64 {
    let ctx = format!("op={op} nth={nth} fault={fault:?} threads={threads} autosave={autosave:?}");
    let dir = tmp_dir(&format!(
        "sweep-{op}-{nth}-{:?}-{threads}-{}",
        disc(&fault),
        autosave.unwrap_or(0)
    ));
    let plan = Arc::new(DiskFaultPlan::new().fail_op(op, nth, fault));
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan.clone()));
    let acked = run_workload(&dir, vfs, threads, autosave, &ctx);
    assert_recovers_exactly(&dir, &acked, threads, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
    plan.faults_fired()
}

/// A filename-safe discriminant for the fault kind.
fn disc(fault: &DiskFault) -> &'static str {
    match fault {
        DiskFault::NoSpace => "nospace",
        DiskFault::Io => "io",
        DiskFault::ShortWrite { .. } => "short",
        DiskFault::RenameFail => "rename",
    }
}

/// Sweeps every (op × nth × fault) cell at the given thread count, with
/// the workload's default autosave and again autosaving every two
/// records. The nth scan advances until a run completes with the fault
/// never firing — the op occurred fewer than nth+1 times, so higher nths
/// are no-ops.
fn sweep(threads: usize) {
    for autosave in [None, Some(2)] {
        sweep_with(threads, autosave);
    }
}

fn sweep_with(threads: usize, autosave: Option<usize>) {
    for op in DiskOp::ALL {
        for fault in [
            DiskFault::NoSpace,
            DiskFault::Io,
            DiskFault::ShortWrite { keep: 7 },
        ] {
            let mut nth = 0;
            loop {
                assert!(nth < MAX_NTH, "op={op} occurs more than {MAX_NTH} times?");
                if sweep_cell(op, nth, fault, threads, autosave) == 0 {
                    break;
                }
                nth += 1;
            }
        }
    }
    // RenameFail is rename-specific; sweep it over the ops that rename.
    for op in [DiskOp::SnapshotRename] {
        let mut nth = 0;
        loop {
            assert!(nth < MAX_NTH, "op={op} occurs more than {MAX_NTH} times?");
            if sweep_cell(op, nth, DiskFault::RenameFail, threads, autosave) == 0 {
                break;
            }
            nth += 1;
        }
    }
}

#[test]
fn fault_sweep_single_thread() {
    sweep(1);
}

#[test]
fn fault_sweep_two_threads() {
    sweep(2);
}

#[test]
fn fault_sweep_four_threads() {
    sweep(4);
}

/// Satellite regression: a journal append that fails *after* its partial
/// frame bytes landed (a genuine short write) must truncate back to the
/// pre-append length — the next successful append may not bury a torn
/// frame mid-journal, and recovery must see a clean tail.
#[test]
fn failed_append_leaves_no_buried_torn_frame() {
    let dir = tmp_dir("no-buried-torn-frame");
    // Record sequence for this workload: intern-feature (append ops 0-1),
    // rule A (ops 2-3), rule B (ops 4-5), rule C. Arm the short write at
    // op 4 — rule B's frame write — so its prefix genuinely lands before
    // the failure.
    let plan = Arc::new(DiskFaultPlan::new().fail_op(
        DiskOp::JournalAppend,
        4,
        DiskFault::ShortWrite { keep: 9 },
    ));
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan.clone()));
    let mut store = SessionStore::create_on(vfs, &dir, session(4, 1)).unwrap();

    store.add_rule_text(RULES[0]).expect("rule A acks");
    let err = store.add_rule_text(RULES[1]).unwrap_err();
    assert_session_disk(&err, "rule B under short append");
    assert_eq!(plan.faults_fired(), 1, "the fault must strike rule B");
    store
        .add_rule_text(RULES[2])
        .expect("rule C acks after the torn append was rolled back");
    drop(store);

    let (recovered, report) = SessionStore::open(&dir, session(4, 1)).unwrap();
    assert!(
        report.journal_truncated.is_none(),
        "a rolled-back append must not leave a torn tail: {report}"
    );
    assert_eq!(recovered.session().function().n_rules(), 2);
    let mut reference = session(4, 1);
    reference.add_rule_text(RULES[0]).unwrap();
    reference.add_rule_text(RULES[2]).unwrap();
    assert_eq!(
        recovered.session().state().verdicts(),
        reference.state().verdicts()
    );
    assert_eq!(
        recovered.session().function_text(),
        reference.function_text()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Save-ordering regression: when `save()` fails partway through cutting
/// the new generation, edits acked *after* the failure must still be
/// recovered. (The failure mode guarded here: a new snapshot becoming
/// visible without its journal, stranding every later append in a
/// generation recovery ignores.)
#[test]
fn failed_save_never_strands_later_acked_edits() {
    for op in [
        DiskOp::JournalCreate,
        DiskOp::SnapshotWrite,
        DiskOp::SnapshotRename,
        DiskOp::DirSync,
    ] {
        let mut nth = 0;
        loop {
            assert!(nth < MAX_NTH);
            let ctx = format!("save-ordering op={op} nth={nth}");
            let dir = tmp_dir(&format!("save-order-{op}-{nth}"));
            let plan = Arc::new(DiskFaultPlan::new().fail_op(op, nth, DiskFault::NoSpace));
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan.clone()));

            let store = SessionStore::create_on(vfs, &dir, session(4, 1));
            let fired_in_create = plan.faults_fired() > 0;
            if let Ok(mut store) = store {
                store.add_rule_text(RULES[0]).expect("pre-save edit acks");
                let save_failed = match store.save() {
                    Ok(_) => false,
                    Err(e) => {
                        assert_disk(&e, &ctx);
                        true
                    }
                };
                // The edit after the failed save is the one at stake.
                store.add_rule_text(RULES[1]).expect("post-save edit acks");
                drop(store);

                let (recovered, report) = SessionStore::open(&dir, session(4, 1))
                    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
                assert_eq!(
                    recovered.session().function().n_rules(),
                    2,
                    "{ctx} (save_failed={save_failed}): acked edit lost ({report})"
                );
            } else if !fired_in_create {
                panic!("{ctx}: create failed without a fault firing");
            }
            let _ = std::fs::remove_dir_all(&dir);
            if plan.faults_fired() == 0 {
                break;
            }
            nth += 1;
        }
    }
}
