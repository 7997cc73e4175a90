//! Golden tests for the wire protocol against a live server: parse
//! errors, session-control failures, admission control, the deadline /
//! disconnect → `resume` recovery path, and the store-lock guard.

use em_core::persist::{session_store_dir, StoreLock};
use em_core::{ChangeLine, LintLine, PersistError, SessionConfig};
use em_datagen::Domain;
use em_server::{read_frame, serve, Client, ServerConfig, ServerHandle, SessionTemplate};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn demo_template() -> SessionTemplate {
    let config = SessionConfig {
        n_threads: 2,
        ..SessionConfig::default()
    };
    SessionTemplate::demo(Domain::Products, 0.01, 7, config).unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_server_protocol")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_ephemeral() -> ServerHandle {
    serve(demo_template(), ServerConfig::default()).unwrap()
}

fn serve_durable(root: &std::path::Path) -> ServerHandle {
    serve(
        demo_template(),
        ServerConfig {
            store_root: Some(root.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Every malformed or out-of-order request gets one `err` frame and the
/// connection keeps working — golden-checked against the exact messages
/// clients will script against.
#[test]
fn bad_requests_get_err_frames_and_the_connection_survives() {
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();

    let golden: &[(&str, &str)] = &[
        // Unknown verb → the shared grammar's parse error.
        ("frobnicate", "unknown command"),
        // Control verb with a missing operand.
        ("open", "missing session name"),
        // Control verb with too many operands.
        ("open a b", "expected one session name"),
        // Unparseable deadline.
        ("deadline soon", "bad milliseconds"),
        // Grammar command before any attach.
        ("run", "not attached"),
        ("status", "not attached"),
        // Attach to a session that does not exist anywhere.
        ("attach ghost", "no session named \"ghost\""),
    ];
    for (line, needle) in golden {
        let (ok, payload) = c.request(line).unwrap();
        assert!(!ok, "{line:?} must fail, got ok: {payload}");
        assert!(
            payload.contains(needle),
            "{line:?}: expected {needle:?} in {payload:?}"
        );
    }

    // The connection is still perfectly usable.
    let pong = c.expect_ok("ping").unwrap();
    assert_eq!(pong, "{\"event\":\"pong\"}");

    // Session-control errors after attach.
    c.expect_ok("open alice").unwrap();
    let (ok, payload) = c.request("open alice").unwrap();
    assert!(!ok && payload.contains("already exists"), "{payload}");
    // File-path commands are refused over the wire.
    for line in ["save /tmp/x.snap", "export /tmp/x.json", "load /tmp/x.snap"] {
        let (ok, payload) = c.request(line).unwrap();
        assert!(
            !ok && payload.contains("unsupported over the wire"),
            "{line:?}: {payload}"
        );
    }

    // And the session still works after all of that.
    let json = c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    let change = ChangeLine::from_json(&json).unwrap();
    assert_eq!(change.op, "add_rule");

    // `quit` answers then closes.
    let (ok, payload) = c.request("quit").unwrap();
    assert!(ok && payload.contains("bye"), "{payload}");
    assert!(
        c.request("ping").is_err(),
        "connection must be closed after quit"
    );
}

/// An idle server accepts a new client at once: the accept loop blocks
/// in `accept` instead of sleeping between polls, so no connect waits
/// out a sleep before its first reply.
#[test]
fn idle_server_answers_a_new_client_at_once() {
    let handle = serve_ephemeral();
    let mut round_trips: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut c = Client::connect(handle.addr()).unwrap();
            assert_eq!(c.expect_ok("ping").unwrap(), "{\"event\":\"pong\"}");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    assert!(
        round_trips[2] < Duration::from_millis(20),
        "connect + ping round trips: {round_trips:?}"
    );
}

/// Blank lines and `#` comments produce no response frame — the next
/// real request's frame must not be displaced.
#[test]
fn blank_lines_and_comments_are_silently_skipped() {
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.send_only("").unwrap();
    c.send_only("   # a scripted comment").unwrap();
    let pong = c.expect_ok("ping").unwrap();
    assert_eq!(pong, "{\"event\":\"pong\"}");
}

/// The `max_conns + 1`-th client gets a framed `busy` refusal at accept
/// time; once a slot frees, new clients are admitted again.
#[test]
fn admission_control_refuses_and_recovers() {
    let handle = serve(
        demo_template(),
        ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut first = Client::connect(handle.addr()).unwrap();
    first.expect_ok("ping").unwrap();

    // Second connection: refused with one unsolicited err frame, then
    // closed.
    let over = TcpStream::connect(handle.addr()).unwrap();
    let mut r = BufReader::new(over);
    let (ok, payload) = read_frame(&mut r).unwrap().expect("refusal frame");
    assert!(!ok && payload.contains("busy"), "{payload}");
    assert_eq!(read_frame(&mut r).unwrap(), None, "then EOF");

    // Free the slot; a new client gets in (the handler needs a poll
    // interval to notice the close, so retry briefly).
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let admitted = TcpStream::connect(handle.addr())
            .ok()
            .map(BufReader::new)
            .and_then(|mut r| {
                use std::io::Write;
                r.get_mut().write_all(b"ping\n").ok()?;
                read_frame(&mut r).ok().flatten()
            });
        match admitted {
            Some((true, payload)) if payload.contains("pong") => break,
            _ if std::time::Instant::now() > deadline => {
                panic!("slot never freed after client disconnect")
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// A zero deadline deterministically parks the edit mid-flight; the
/// parked edit survives the client disconnecting, and a later connection
/// can attach, lift the deadline, and `resume` to completion.
#[test]
fn parked_edit_survives_disconnect_and_resumes_on_reattach() {
    let root = tmp_dir("parked");
    let handle = serve_durable(&root);

    {
        let mut c = Client::connect(handle.addr()).unwrap();
        c.expect_ok("open s").unwrap();
        let set = c.expect_ok("deadline 0").unwrap();
        assert!(set.contains("\"ms\":0"), "{set}");
        let json = c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
        let change = ChangeLine::from_json(&json).unwrap();
        assert_eq!(change.completion, "deadline", "{json}");
        assert!(change.remaining > 0, "{json}");
        let status = c.expect_ok("status").unwrap();
        assert!(status.contains("\"pending\":true"), "{status}");
        // Drop mid-session, edit still parked.
    }

    let mut c2 = Client::connect(handle.addr()).unwrap();
    let attached = c2.expect_ok("attach s").unwrap();
    assert!(attached.contains("\"pending\":true"), "{attached}");
    c2.expect_ok("deadline off").unwrap();
    let json = c2.expect_ok("resume").unwrap();
    let change = ChangeLine::from_json(&json).unwrap();
    assert_eq!(change.op, "resume");
    assert_eq!(change.completion, "complete", "{json}");
    let status = c2.expect_ok("status").unwrap();
    assert!(status.contains("\"pending\":false"), "{status}");

    let _ = std::fs::remove_dir_all(&root);
}

/// A client that vanishes mid-command must never corrupt the session:
/// whether the watchdog cancelled the edit or it completed first, the
/// next connection can attach and keep editing. (Which outcome occurs is
/// timing-dependent — the test accepts both and asserts the invariant.)
#[test]
fn disconnect_mid_command_leaves_the_session_usable() {
    let root = tmp_dir("vanish");
    let handle = serve_durable(&root);

    {
        let mut c = Client::connect(handle.addr()).unwrap();
        c.expect_ok("open s").unwrap();
        c.send_only("add trigram(title, title) >= 0.4").unwrap();
        // Drop without reading the response: the server sees EOF while
        // (possibly) still evaluating, and the watchdog cancels.
    }

    // The handler needs a moment to notice; attach must then succeed
    // whatever happened to the in-flight edit.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c2 = Client::connect(handle.addr()).unwrap();
    let attached = loop {
        match c2.request("attach s") {
            Ok((true, payload)) => break payload,
            Ok((false, _)) | Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok((false, payload)) => panic!("attach failed for good: {payload}"),
            Err(e) => panic!("connection error: {e}"),
        }
    };

    if attached.contains("\"pending\":true") {
        // Cancelled mid-edit: finish it.
        let json = c2.expect_ok("resume").unwrap();
        assert_eq!(ChangeLine::from_json(&json).unwrap().completion, "complete");
    }
    // Either way the session takes further edits.
    let json = c2.expect_ok("add exact(modelno, modelno) >= 1.0").unwrap();
    assert_eq!(ChangeLine::from_json(&json).unwrap().completion, "complete");
    let status = c2.expect_ok("status").unwrap();
    assert!(status.contains("\"pending\":false"), "{status}");

    let _ = std::fs::remove_dir_all(&root);
}

/// A client that hangs up mid-command cancels it: the connection thread
/// notices the hang-up between waits on its ticket and cancels the
/// session's evaluation, which parks for `resume`. Feature computations
/// are slowed so the edit is still running when the client leaves.
#[cfg(feature = "fault-inject")]
#[test]
fn disconnect_mid_command_cancels_it() {
    use em_core::FaultPlan;
    use std::sync::Arc;

    let root = tmp_dir("vanish-cancel");
    let handle = serve_durable(&root);
    {
        let mut c = Client::connect(handle.addr()).unwrap();
        c.expect_ok("open s").unwrap();
        let slow = Arc::new(FaultPlan::new().with_slow(Duration::from_millis(5)));
        let plan = Arc::clone(&slow);
        handle
            .manager()
            .with_session("s", |store, _| store.session_mut().inject_faults(plan))
            .unwrap();
        c.send_only("add trigram(title, title) >= 0.4").unwrap();
        // Hang up without reading the reply, once the edit is computing.
        let deadline = Instant::now() + Duration::from_secs(10);
        while slow.evals() == 0 {
            assert!(Instant::now() < deadline, "the edit never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // `attach` waits for the session's lock, so it answers once the
    // cancelled edit has parked.
    let mut c2 = Client::connect(handle.addr()).unwrap();
    let attached = c2.expect_ok("attach s").unwrap();
    assert!(attached.contains("\"pending\":true"), "{attached}");

    handle
        .manager()
        .with_session("s", |store, _| {
            store
                .session_mut()
                .inject_faults(Arc::new(FaultPlan::new()))
        })
        .unwrap();
    let json = c2.expect_ok("resume").unwrap();
    assert_eq!(ChangeLine::from_json(&json).unwrap().completion, "complete");
    let status = c2.expect_ok("status").unwrap();
    assert!(status.contains("\"pending\":false"), "{status}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A resident session holds its directory's [`StoreLock`]; eviction
/// releases it. Two writers can therefore never interleave on one store.
#[test]
fn resident_sessions_hold_their_store_lock_until_evicted() {
    let root = tmp_dir("lockguard");
    let handle = serve(
        demo_template(),
        ServerConfig {
            store_root: Some(root.clone()),
            max_resident: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open held").unwrap();

    let dir = session_store_dir(&root, "held").unwrap();
    match StoreLock::acquire(&dir) {
        Err(PersistError::Locked { .. }) => {}
        other => panic!("resident session's lock must be held, got {other:?}"),
    }

    // Opening a second session evicts `held` (max_resident = 1), which
    // saves the snapshot and releases the lock.
    c.expect_ok("open other").unwrap();
    assert!(handle.manager().resident_count() <= 1);
    let lock = StoreLock::acquire(&dir).expect("evicted session's dir must be lockable");
    drop(lock);

    // With the external lock gone, attach recovers the session.
    let attached = c.expect_ok("attach held").unwrap();
    assert!(attached.contains("\"recovered\""), "{attached}");

    let _ = std::fs::remove_dir_all(&root);
}

/// The `lint` verb returns a `lint_report` header plus one `lint` line
/// per finding, edits that introduce a finding append advisory lint
/// lines after the `change` record, and a fix-it applied over the wire
/// clears the finding.
#[test]
fn lint_over_the_wire_reports_advises_and_fixes() {
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open linty").unwrap();

    // A clean (empty) function lints clean: header only, no rows.
    let payload = c.expect_ok("lint").unwrap();
    assert!(payload.contains("\"event\":\"lint_report\""), "{payload}");
    assert!(payload.contains("\"total\":0"), "{payload}");
    assert!(!payload.contains('\n'), "clean lint is one line: {payload}");

    // An edit that introduces a finding carries advisory lint lines
    // after its change record.
    c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    let payload = c.expect_ok("add jaccard_ws(title, title) >= 0.6").unwrap();
    let mut lines = payload.lines();
    let change = ChangeLine::from_json(lines.next().unwrap()).unwrap();
    assert_eq!(change.op, "add_rule");
    let advisory = LintLine::from_json(lines.next().unwrap()).unwrap();
    assert_eq!(advisory.kind, "duplicate_rule");
    assert_eq!(advisory.severity, "warning");
    assert_eq!(advisory.rule, "r1");
    assert_eq!(advisory.other_rule.as_deref(), Some("r0"));
    assert!(advisory.safe, "dropping a duplicate rule is verdict-safe");

    // `lint` now reports the standing finding.
    let payload = c.expect_ok("lint").unwrap();
    assert!(payload.contains("\"total\":1"), "{payload}");
    assert!(payload.contains("\"warnings\":1"), "{payload}");
    assert!(payload.contains("\"kind\":\"duplicate_rule\""), "{payload}");

    // Applying the suggested fix over the wire clears it.
    let fix = advisory.fix.expect("duplicate rule has a fix-it");
    let payload = c.expect_ok(&fix).unwrap();
    let change = ChangeLine::from_json(payload.lines().next().unwrap()).unwrap();
    assert_eq!(change.op, "remove_rule");
    let payload = c.expect_ok("lint").unwrap();
    assert!(payload.contains("\"total\":0"), "{payload}");
}
