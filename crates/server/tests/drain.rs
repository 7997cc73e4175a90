//! Drain shutdown: the `shutdown` verb (and `ServerHandle::shutdown`)
//! must settle every resident session — snapshotting it, releasing its
//! store lock — so the next process starts from a compacted store with
//! zero journal replay, and no acked edit is ever lost on the way down.

use em_core::persist::{session_store_dir, StoreLock};
use em_core::{Command, SessionConfig, SessionStore};
use em_server::{serve, Client, ServerConfig, SessionManager, SessionTemplate};
use em_types::{CandidateSet, Record, Schema, Table};
use std::path::PathBuf;

const RULE_A: &str = "jaccard_ws(name, name) >= 0.6";
const RULE_B: &str = "jaccard_ws(name, name) >= 0.95";

fn template() -> SessionTemplate {
    let schema = Schema::new(["name"]);
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    for i in 0..4 {
        a.push(Record::new(format!("a{i}"), [format!("widget number {i}")]));
        b.push(Record::new(format!("b{i}"), [format!("widget number {i}")]));
    }
    let cands = CandidateSet::cartesian(&a, &b);
    SessionTemplate::new(a, b, cands, Vec::new(), SessionConfig::default())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_server_drain")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Manager-level drain: every resident session is snapshotted, its lock
/// released, and a fresh open recovers the saved state with an empty
/// journal backlog.
#[test]
fn drain_saves_all_sessions_and_releases_locks() {
    let root = tmp_dir("manager");
    let manager = SessionManager::new(template(), Some(root.clone()), 4);
    manager.open("alice").unwrap();
    manager.open("bob").unwrap();
    manager
        .execute("alice", &Command::AddRule(RULE_A.into()))
        .unwrap();
    manager
        .execute("bob", &Command::AddRule(RULE_B.into()))
        .unwrap();

    let (sessions, saved, notes) = manager.drain();
    assert_eq!((sessions, saved), (2, 2));
    assert!(notes.is_empty(), "{notes:?}");

    // Locks are released even though the manager is still alive.
    for name in ["alice", "bob"] {
        let dir = session_store_dir(&root, name).unwrap();
        let lock = StoreLock::acquire(&dir).expect("lock must be free after drain");
        drop(lock);

        // The drain snapshotted: recovery replays zero journal records.
        let (store, report) = SessionStore::open(&dir, template().fresh()).unwrap();
        assert_eq!(report.records_replayed, 0, "{name}: {report}");
        assert!(store.epoch().unwrap() >= 1, "{name}: drain must compact");
        assert_eq!(store.session().function().n_rules(), 1, "{name}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Draining an idle manager is a harmless no-op.
#[test]
fn drain_with_no_resident_sessions_is_a_noop() {
    let manager = SessionManager::new(template(), Some(tmp_dir("idle")), 4);
    assert_eq!(manager.drain(), (0, 0, Vec::new()));
}

/// Wire-level `shutdown`: the verb answers with a drain summary, the
/// listener stops accepting, and the stores are immediately reopenable
/// by the next process — the full graceful-restart path.
#[test]
fn shutdown_verb_drains_and_stops_accepting() {
    let root = tmp_dir("wire");
    let handle = serve(
        template(),
        ServerConfig {
            store_root: Some(root.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    c.expect_ok("open alice").unwrap();
    c.expect_ok(&format!("add {RULE_A}")).unwrap();

    let payload = c.expect_ok("shutdown").unwrap();
    assert!(payload.contains("\"event\":\"shutdown\""), "{payload}");
    assert!(payload.contains("\"sessions\":1"), "{payload}");
    assert!(payload.contains("\"saved\":1"), "{payload}");
    assert!(handle.shutdown_requested());

    // The drained store is free for the next process right away — no
    // waiting for the old listener to die.
    let dir = session_store_dir(&root, "alice").unwrap();
    drop(StoreLock::acquire(&dir).expect("lock released by shutdown verb"));
    let (store, _) = SessionStore::open(&dir, template().fresh()).unwrap();
    assert_eq!(store.session().function().n_rules(), 1);
    drop(store);

    // The handle's own drain finds nothing left to save, and reports the
    // verb's save, as the client was told.
    assert_eq!(handle.shutdown(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// Acked edits survive a drain that happens *between* snapshots: drain
/// is save-based, so even edits journaled a moment earlier come back.
#[test]
fn drain_preserves_every_acked_edit() {
    let root = tmp_dir("acked");
    let manager = SessionManager::new(template(), Some(root.clone()), 4);
    manager.open("carol").unwrap();
    manager
        .execute("carol", &Command::AddRule(RULE_A.into()))
        .unwrap();
    manager
        .execute("carol", &Command::AddRule(RULE_B.into()))
        .unwrap();
    manager.drain();
    drop(manager);

    let fresh = SessionManager::new(template(), Some(root.clone()), 4);
    fresh.attach("carol").unwrap();
    let rules = fresh.execute("carol", &Command::ListRules).unwrap();
    assert!(rules.contains("0.6") && rules.contains("0.95"), "{rules}");
    let _ = std::fs::remove_dir_all(&root);
}
