//! Journal-shipping replication, end to end (in-process): a leader and a
//! follower server wired over real TCP, edits driven on the leader,
//! convergence checked against the follower's replayed state; read-only
//! refusals, promote, graceful degradation under 64 clients, and (behind
//! `fault-inject`) torn replication frames.

use em_core::{DebugSession, OrderingAlgo, SessionConfig, SessionStore};
use em_datagen::Domain;
use em_server::{serve, Client, ServerConfig, ServerHandle, SessionManager, SessionTemplate};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn demo_template(n_threads: usize) -> SessionTemplate {
    let config = SessionConfig {
        n_threads,
        ..SessionConfig::default()
    };
    SessionTemplate::demo(Domain::Products, 0.01, 7, config).unwrap()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_server_replication")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A leader (durable) and a follower replicating it over TCP.
fn leader_and_follower(
    name: &str,
    n_threads: usize,
) -> (
    ServerHandle,
    ServerHandle,
    std::path::PathBuf,
    std::path::PathBuf,
) {
    let (leader, leader_root) = durable_leader(name, n_threads);
    let (follower, follower_root) = follower_of(&leader, name, n_threads);
    (leader, follower, leader_root, follower_root)
}

/// A durable leader with no follower yet.
fn durable_leader(name: &str, n_threads: usize) -> (ServerHandle, std::path::PathBuf) {
    let root = tmp_dir(&format!("{name}-leader"));
    let leader = serve(
        demo_template(n_threads),
        ServerConfig {
            store_root: Some(root.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (leader, root)
}

/// A follower replicating `leader` over TCP.
fn follower_of(
    leader: &ServerHandle,
    name: &str,
    n_threads: usize,
) -> (ServerHandle, std::path::PathBuf) {
    let root = tmp_dir(&format!("{name}-follower"));
    let follower = serve(
        demo_template(n_threads),
        ServerConfig {
            store_root: Some(root.clone()),
            follow: Some(leader.addr().to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (follower, root)
}

/// Waits until the follower has replayed everything the leader journaled
/// for `name` and reports zero frames of lag.
fn wait_converged(leader: &Arc<SessionManager>, follower: &Arc<SessionManager>, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let want = leader
            .with_session(name, |s, _| s.session().history().len())
            .unwrap();
        let got = follower
            .with_session(name, |s, _| s.session().history().len())
            .ok();
        if got == Some(want) && follower.replication_lag(name) == Some(0) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged on {name}: leader history {want}, follower {got:?}, lag {:?}",
            follower.replication_lag(name)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn canonical_function_text(s: &DebugSession) -> Vec<Vec<String>> {
    let mut rules: Vec<Vec<String>> = s
        .function()
        .rules()
        .iter()
        .map(|r| {
            let mut preds: Vec<String> = r.preds.iter().map(|p| format!("{:?}", p.pred)).collect();
            preds.sort();
            preds
        })
        .collect();
    rules.sort();
    rules
}

/// Follower ≡ leader: canonical rule set, verdicts, history (description,
/// verdicts changed, pairs examined), and (when no wall-clock-dependent
/// `optimize` ran) the `M(r)`/`U(p)` bitmaps.
fn assert_replica_matches(
    leader: &Arc<SessionManager>,
    follower: &Arc<SessionManager>,
    name: &str,
    what: &str,
    bitmaps: bool,
) {
    leader
        .with_session(name, |ls, _| {
            follower
                .with_session(name, |fs, _| {
                    let (want, got) = (ls.session(), fs.session());
                    assert_eq!(
                        canonical_function_text(got),
                        canonical_function_text(want),
                        "{what}: function text (canonical)"
                    );
                    assert_eq!(
                        got.state().verdicts(),
                        want.state().verdicts(),
                        "{what}: verdicts"
                    );
                    if bitmaps {
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
                    }
                    let hist = |s: &DebugSession| -> Vec<(String, usize, usize)> {
                        s.history()
                            .iter()
                            .map(|e| (e.description.clone(), e.n_changed, e.pairs_examined))
                            .collect()
                    };
                    assert_eq!(hist(got), hist(want), "{what}: history");
                })
                .unwrap()
        })
        .unwrap();
}

#[test]
fn follower_replays_leader_edits_and_serves_reads() {
    let (leader, follower, lroot, froot) = leader_and_follower("basic", 2);

    let mut c = Client::connect(leader.addr()).unwrap();
    c.expect_ok("open alice").unwrap();
    c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    c.expect_ok("add exact(modelno, modelno) >= 1.0").unwrap();
    c.expect_ok("undo").unwrap();
    wait_converged(leader.manager(), follower.manager(), "alice");
    assert_replica_matches(leader.manager(), follower.manager(), "alice", "basic", true);

    // The follower serves reads: attach, status (with role + lag),
    // history, lint, explain.
    let mut f = Client::connect(follower.addr()).unwrap();
    f.expect_ok("attach alice").unwrap();
    let status = f.expect_ok("status").unwrap();
    assert!(status.contains("\"role\":\"follower\""), "{status}");
    assert!(
        status.contains(&format!("\"leader\":\"{}\"", leader.addr())),
        "{status}"
    );
    assert!(status.contains("\"lag\":0"), "{status}");
    assert!(status.contains("\"shed\":0"), "{status}");
    f.expect_ok("history").unwrap();
    f.expect_ok("lint").unwrap();
    f.expect_ok("explain 0").unwrap();
    f.expect_ok("rules").unwrap();

    // New leader edits keep flowing.
    c.expect_ok("add trigram(title, title) >= 0.5").unwrap();
    wait_converged(leader.manager(), follower.manager(), "alice");
    assert_replica_matches(
        leader.manager(),
        follower.manager(),
        "alice",
        "basic-2",
        true,
    );

    leader.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(lroot);
    let _ = std::fs::remove_dir_all(froot);
}

/// A follower that starts after the leader has saved bootstraps from a
/// snapshot that already counts history: the entries before it arrive
/// from the leader's history log beside the snapshot, the journal suffix
/// replays after it, and the follower keeps tailing.
#[test]
fn follower_bootstrapped_mid_session_carries_the_history() {
    let (leader, lroot) = durable_leader("mid-session", 2);
    let mut c = Client::connect(leader.addr()).unwrap();
    c.expect_ok("open alice").unwrap();
    c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    c.expect_ok("add exact(modelno, modelno) >= 1.0").unwrap();
    c.expect_ok("undo").unwrap();
    c.expect_ok("save").unwrap();
    c.expect_ok("add trigram(title, title) >= 0.5").unwrap();
    c.expect_ok("set p0 0.5").unwrap();
    c.expect_ok("save").unwrap();
    c.expect_ok("undo").unwrap();
    c.expect_ok("add jaro(title, title) >= 0.9").unwrap();

    let (follower, froot) = follower_of(&leader, "mid-session", 2);
    wait_converged(leader.manager(), follower.manager(), "alice");
    let mark = follower.manager().replica_watermark("alice").unwrap();
    assert!(
        mark.epoch >= 2,
        "bootstrapped from the saved snapshot: {mark}"
    );
    assert_replica_matches(
        leader.manager(),
        follower.manager(),
        "alice",
        "mid-session",
        true,
    );

    c.expect_ok("add levenshtein(modelno, modelno) >= 0.8")
        .unwrap();
    c.expect_ok("undo").unwrap();
    wait_converged(leader.manager(), follower.manager(), "alice");
    assert_replica_matches(
        leader.manager(),
        follower.manager(),
        "alice",
        "mid-session, tailing",
        true,
    );

    leader.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(lroot);
    let _ = std::fs::remove_dir_all(froot);
}

#[test]
fn follower_refuses_mutations_with_a_typed_read_only_error() {
    let (leader, follower, lroot, froot) = leader_and_follower("readonly", 1);

    let mut c = Client::connect(leader.addr()).unwrap();
    c.expect_ok("open bob").unwrap();
    c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    wait_converged(leader.manager(), follower.manager(), "bob");

    let mut f = Client::connect(follower.addr()).unwrap();
    f.expect_ok("attach bob").unwrap();
    for refused in [
        "add trigram(title, title) >= 0.5",
        "undo",
        "run",
        "simplify",
        "save",
        "deadline 100",
        "open carol",
    ] {
        let (ok, payload) = f.request(refused).unwrap();
        assert!(!ok, "{refused:?} must be refused on a follower");
        assert!(
            payload.starts_with("read_only:"),
            "{refused:?} → {payload:?}"
        );
        assert!(
            payload.contains(&leader.addr().to_string()),
            "refusal must name the leader: {payload:?}"
        );
    }
    // Reads still fine on the very same connection.
    f.expect_ok("status").unwrap();
    f.expect_ok("matches 5").unwrap();

    leader.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(lroot);
    let _ = std::fs::remove_dir_all(froot);
}

#[test]
fn promote_flips_follower_to_a_mutable_leader_with_history_intact() {
    let (leader, follower, lroot, froot) = leader_and_follower("promote", 2);

    let mut c = Client::connect(leader.addr()).unwrap();
    c.expect_ok("open alice").unwrap();
    c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    c.expect_ok("add exact(modelno, modelno) >= 1.0").unwrap();
    wait_converged(leader.manager(), follower.manager(), "alice");
    let history_before = follower
        .manager()
        .with_session("alice", |s, _| s.session().history().len())
        .unwrap();

    // `promote` on a leader is a (typed) error.
    let mut cl = Client::connect(leader.addr()).unwrap();
    let (ok, payload) = cl.request("promote").unwrap();
    assert!(!ok && payload.contains("already the leader"), "{payload}");

    // The leader dies; the follower is promoted by hand.
    leader.shutdown();
    let mut f = Client::connect(follower.addr()).unwrap();
    let promoted = f.expect_ok("promote").unwrap();
    assert!(promoted.contains("\"event\":\"promoted\""), "{promoted}");
    assert!(promoted.contains("\"sessions\":1"), "{promoted}");
    // With its own store root, the promoted session went durable.
    assert!(promoted.contains("\"durable\":1"), "{promoted}");

    // Mutations now apply, on top of the replicated history.
    f.expect_ok("attach alice").unwrap();
    let status = f.expect_ok("status").unwrap();
    assert!(status.contains("\"role\":\"leader\""), "{status}");
    f.expect_ok("add trigram(title, title) >= 0.5").unwrap();
    let history_after = follower
        .manager()
        .with_session("alice", |s, _| s.session().history().len())
        .unwrap();
    assert_eq!(history_after, history_before + 1, "history must be intact");

    // And the new leader can itself be replicated from (durable store).
    let replicate = f.expect_ok("replicate alice 0 0").unwrap();
    assert!(replicate.contains("\"event\":\"replicate\""), "{replicate}");

    follower.shutdown();
    let _ = std::fs::remove_dir_all(lroot);
    let _ = std::fs::remove_dir_all(froot);
}

#[test]
fn sixty_four_clients_queue_without_a_single_busy_refusal() {
    // The graceful-degradation acceptance check: 64 closed-loop clients
    // against the default 4 admission workers. Everything queues; nothing
    // is refused or shed.
    let handle = serve(demo_template(2), ServerConfig::default()).unwrap();
    let report = em_server::run_load(handle.addr(), 64, 2).unwrap();
    assert_eq!(
        report.errors, 0,
        "no refusals under fair admission: {report}"
    );
    assert_eq!(report.refused, 0, "{report}");
    assert_eq!(report.shed, 0, "{report}");
    let snap = handle.admission_snapshot();
    assert_eq!(snap.shed, 0, "admission shed nothing: {snap:?}");
    assert!(
        snap.executed >= (64 * 2 * 2) as u64,
        "every edit went through the queue: {snap:?}"
    );
    handle.shutdown();
}

// ---- the replicated-equivalence property --------------------------------

#[derive(Debug, Clone)]
enum Op {
    AddRule(usize),
    RemoveRule(usize),
    AddPred { rule: usize, pred: usize },
    SetThreshold { pred: usize, value: f64 },
    Undo,
    Simplify,
    Optimize(usize),
}

const RULE_MENU: &[&str] = &[
    "exact(modelno, modelno) >= 1.0",
    "jaccard_ws(title, title) >= 0.6",
    "jaro_winkler(title, title) >= 0.92 AND jaccard_ws(title, title) >= 0.3",
    "trigram(title, title) >= 0.5",
];

const PRED_MENU: &[&str] = &[
    "jaccard_ws(title, title) >= 0.25",
    "jaro_winkler(title, title) >= 0.9",
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
        2 => ((0..12usize), (0.1f64..0.95)).prop_map(|(pred, value)| Op::SetThreshold { pred, value }),
        1 => Just(Op::Undo),
        1 => Just(Op::Simplify),
        1 => (0..ALGOS.len()).prop_map(Op::Optimize),
    ]
}

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
    }
}

fn check_replication_equivalence(ops: &[Op], n_threads: usize) {
    let (leader, follower, lroot, froot) =
        leader_and_follower(&format!("prop-t{n_threads}"), n_threads);
    leader.manager().open("s").unwrap();
    for op in ops {
        leader
            .manager()
            .with_session("s", |store, _| apply(store, op))
            .unwrap();
    }
    wait_converged(leader.manager(), follower.manager(), "s");
    let bitmaps = !ops.iter().any(|op| matches!(op, Op::Optimize(_)));
    assert_replica_matches(
        leader.manager(),
        follower.manager(),
        "s",
        &format!("prop t={n_threads}"),
        bitmaps,
    );
    leader.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(lroot);
    let _ = std::fs::remove_dir_all(froot);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A follower that replayed the leader's journal is observationally
    /// the leader, at every worker-pool width CI exercises.
    #[test]
    fn follower_equals_leader(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        for n_threads in [1usize, 2, 4] {
            check_replication_equivalence(&ops, n_threads);
        }
    }
}

// ---- network fault injection --------------------------------------------

/// Torn/dropped replication frames must delay convergence, not corrupt
/// it: the CRC check discards the batch, the follower re-requests from
/// its unchanged watermark, and state still converges.
#[cfg(feature = "fault-inject")]
#[test]
fn torn_and_dropped_replication_frames_still_converge() {
    use em_server::replica::NetFaultPlan;

    let leader_root = tmp_dir("faults-leader");
    let leader = serve(
        demo_template(2),
        ServerConfig {
            store_root: Some(leader_root.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Truncate the 2nd replicate response mid-frame and drop the 4th
    // outright (a transport error mid-stream).
    let plan = Arc::new(NetFaultPlan::new().with_truncate(1, 40).with_drop(3));
    let follower = serve(
        demo_template(2),
        ServerConfig {
            follow: Some(leader.addr().to_string()),
            net_faults: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut c = Client::connect(leader.addr()).unwrap();
    c.expect_ok("open alice").unwrap();
    for rule in [
        "jaccard_ws(title, title) >= 0.6",
        "exact(modelno, modelno) >= 1.0",
        "trigram(title, title) >= 0.5",
        "jaro_winkler(title, title) >= 0.92",
    ] {
        c.expect_ok(&format!("add {rule}")).unwrap();
    }
    c.expect_ok("undo").unwrap();

    wait_converged(leader.manager(), follower.manager(), "alice");

    // The follower polls steadily even at lag 0, so the remaining fault
    // fires within a few poll intervals; convergence must survive it.
    let deadline = Instant::now() + Duration::from_secs(15);
    while plan.faults_fired() < 2 {
        assert!(
            Instant::now() < deadline,
            "both faults must actually fire, got {}",
            plan.faults_fired()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    c.expect_ok("add jaccard_ws(brand, brand) >= 0.4").unwrap();
    wait_converged(leader.manager(), follower.manager(), "alice");
    assert_replica_matches(
        leader.manager(),
        follower.manager(),
        "alice",
        "faults",
        true,
    );

    leader.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(leader_root);
}
