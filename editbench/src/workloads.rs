//! The two workloads, end to end: set-up, the timed closed loop, and the
//! output checks.

use crate::inputs::{Inputs, Program, Script};
use crate::ops::{closed_loop, Exec, LoopStats, Until, Wire};
use crate::stats::{median, ms, Report};
use em_core::{DebugSession, Executor, MatchState, SessionConfig, SessionStore};
use em_server::{serve, Client, ServerConfig, ServerHandle, SessionTemplate, Timeouts};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A workload's fixed shape. Only the seed varies between runs.
pub struct Spec {
    pub name: &'static str,
    /// Products scale factor (0.1 → 42,361 candidate pairs).
    pub scale: f64,
    /// Rules per analyst's program.
    pub rules: usize,
    /// Concurrent analysts, each on a session of their own.
    pub analysts: usize,
    /// Set-ups per run, split around the timed loop; `setup_s` is their
    /// median.
    pub setups: usize,
    /// Over TCP against a durable server, with four reads (`matches 10`,
    /// `explain <pair>`, `quality`, `status`) between each try and its
    /// undo; or in process on an ephemeral store, try and undo only.
    pub wire: bool,
    /// Fewest steps a traced replay runs: one block of all six kinds, and
    /// on the wire enough journal records for autosave snapshots.
    pub trace_min_steps: usize,
}

pub const SESSION_EDITS: Spec = Spec {
    name: "session-edits",
    scale: 0.1,
    rules: 240,
    analysts: 1,
    setups: 5,
    wire: false,
    trace_min_steps: 6,
};

pub const WIRE_MIXED: Spec = Spec {
    name: "wire-mixed",
    scale: 0.02,
    rules: 24,
    analysts: 2,
    setups: 21,
    wire: true,
    trace_min_steps: 48,
};

/// Forest size for the rule pool: enough positive paths (335 at scale
/// 0.1, 103 at 0.02) to draw every program from.
pub const TREES: usize = 128;

/// Clients connect this long after the server starts, as to a server
/// already up. The accept loop has then gone to sleep in its 50 ms poll
/// (defect 2 in NOTES.md) and every set-up pays the rest of that sleep;
/// connecting at once would race the loop's first pass and pay either
/// none of it or all of it.
const SETTLE: Duration = Duration::from_millis(5);

/// Long enough for the slowest undo cascade, short enough that a hung
/// server cannot outlast the run's time limit.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub fn fresh_session(inputs: &Inputs) -> DebugSession {
    DebugSession::new(
        inputs.table_a.clone(),
        inputs.table_b.clone(),
        inputs.cands.clone(),
        SessionConfig::default(),
    )
}

pub fn template(inputs: &Inputs) -> SessionTemplate {
    SessionTemplate::new(
        inputs.table_a.clone(),
        inputs.table_b.clone(),
        inputs.cands.clone(),
        inputs.labels.clone(),
        SessionConfig::default(),
    )
}

pub fn connect(handle: &ServerHandle) -> Client {
    Client::connect_with(
        handle.addr(),
        Timeouts {
            read: Some(READ_TIMEOUT),
            ..Timeouts::default()
        },
    )
    .expect("connect to the in-process server")
}

/// Checks that `session` holds exactly `text` and that its incrementally
/// maintained verdicts equal a from-scratch run of that text on a fresh
/// context.
pub fn check_session(
    report: &mut Report,
    who: &str,
    inputs: &Inputs,
    session: &DebugSession,
    text: &str,
) {
    let now = session.function_text();
    report.check(now == text, || {
        format!("{who}: rule text changed over a net-zero script")
    });
    let mut ctx = em_core::EvalContext::from_tables(inputs.table_a.clone(), inputs.table_b.clone());
    let func = em_core::parse_function(text, &mut ctx).expect("program text parses");
    let mut state = MatchState::new(inputs.cands.len(), ctx.registry().len());
    em_core::run_full(
        &func,
        &ctx,
        &inputs.cands,
        &mut state,
        true,
        &Executor::serial(),
    );
    report.check(state.verdicts() == session.state().verdicts(), || {
        format!("{who}: verdicts differ from a from-scratch run_full")
    });
}

fn e2e_metrics(report: &mut Report, setups: &[f64], stats: &LoopStats, wall: Duration) {
    let missed = ms(wall);
    report.metric("setup_s", "s", median(setups), Some(setups.len()));
    let (e, r) = (&stats.edits, &stats.reads);
    // The median of the six kinds' medians: with the kinds in equal
    // shares, the pooled median sits on the boundary between the third
    // and fourth cheapest kind and jumps between their clusters.
    let kinds: Vec<f64> = stats
        .edits_by_kind
        .values()
        .map(|l| l.pct(0.50, missed))
        .collect();
    report.metric("edit_p50_ms", "ms", median(&kinds), Some(e.n()));
    // Printed but not gated (NOTES.md, Steadiness): only `wire-mixed`
    // reads, and the tails swing with host load. A tail is printed only
    // where it has at least ten samples beyond it.
    report.ungated("edit_p95_ms", "ms", e.pct(0.95, missed), Some(e.n()));
    if e.n() >= 1000 {
        report.ungated("edit_p99_ms", "ms", e.pct(0.99, missed), Some(e.n()));
    }
    if r.n() > 0 {
        report.ungated("read_p50_ms", "ms", r.pct(0.50, missed), Some(r.n()));
        report.ungated("read_p99_ms", "ms", r.pct(0.99, missed), Some(r.n()));
    }
    let done = stats.attempted() - stats.failed();
    report.metric(
        "ops_per_s",
        "ops/s",
        done as f64 / wall.as_secs_f64(),
        Some(done as usize),
    );
    report.attempted += stats.attempted();
    report.failed += stats.failed();
    for (kind, l) in &stats.edits_by_kind {
        report.note(format!(
            "try {:<16} p50 {:>10.4} ms  n={}",
            kind.name(),
            l.pct(0.5, missed),
            l.n()
        ));
    }
    let u = &stats.undos;
    report.note(format!(
        "undo (outside edit_*)  p50 {:>10.4} ms  p99 {:>10.4} ms  n={}",
        u.pct(0.5, missed),
        u.pct(0.99, missed),
        u.n()
    ));
    report.note(format!(
        "steps {}  wall {:.3} s",
        stats.steps,
        wall.as_secs_f64()
    ));
}

/// Set-ups taken before the timed loop; the rest follow it, so the
/// median samples the set-up cost across the whole run rather than one
/// stretch of it. The last set-up before the loop is the one measured.
fn setups_before(spec: &Spec) -> usize {
    spec.setups - spec.setups / 2
}

fn setup_note(report: &mut Report, spec: &Spec, setups: &[f64]) {
    let times: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    report.note(format!(
        "set-ups (s): {}  ({} before the timed loop, {} after)",
        times.join(" "),
        setups_before(spec),
        spec.setups - setups_before(spec)
    ));
}

/// One analyst, in process, through `exec::execute` on an ephemeral
/// store: the CLI's loop without the terminal.
pub fn session_edits(
    report: &mut Report,
    inputs: &Inputs,
    seed: u64,
    run: impl Fn(Instant) -> Until,
) {
    let spec = &SESSION_EDITS;
    let program = Program::select(inputs, spec.rules, seed, 0);
    let labels = Arc::new(inputs.labels.clone());
    let mut setups = Vec::new();
    let mut load = |report: &mut Report| {
        let start = Instant::now();
        let mut store = SessionStore::ephemeral(fresh_session(inputs));
        let loaded = program.rules.iter().all(|r| store.add_rule_text(r).is_ok());
        setups.push(start.elapsed().as_secs_f64());
        report.check(loaded, || {
            "session-edits: a program rule failed to load".to_string()
        });
        store
    };
    let mut endpoint = None;
    for _ in 0..setups_before(spec) {
        drop(endpoint.take());
        endpoint = Some(Exec {
            store: load(report),
            labels: Arc::clone(&labels),
        });
    }
    let mut ep = endpoint.expect("at least one set-up");
    let mut script = Script::new(inputs, &program, seed, 0);
    let (remove, relax) = script.balloon_shares();
    report.note(format!(
        "ballooning share of candidates: remove_predicate {remove:.4}, relax {relax:.4}"
    ));
    let start = Instant::now();
    let stats = closed_loop(&mut ep, &mut script, None, run(start));
    let wall = start.elapsed();
    check_session(
        report,
        "session-edits",
        inputs,
        ep.store.session(),
        &program.text(),
    );
    drop(ep);
    for _ in setups_before(spec)..spec.setups {
        drop(load(report));
    }
    setup_note(report, spec, &setups);
    e2e_metrics(report, &setups, &stats, wall);
}

/// Starts a server on `root`, connects one client per program, and opens
/// and loads each program over the wire. Returns the clients and whether
/// every request succeeded.
fn wire_setup(
    inputs: &Inputs,
    programs: &[Program],
    root: std::path::PathBuf,
) -> (ServerHandle, Vec<Client>, bool) {
    let config = ServerConfig {
        store_root: Some(root),
        ..ServerConfig::default()
    };
    let handle = serve(template(inputs), config).expect("serve on a free local port");
    std::thread::sleep(SETTLE);
    // Connect every client before the first request, so one pass of the
    // accept loop admits them all.
    let clients: Vec<Client> = programs.iter().map(|_| connect(&handle)).collect();
    let loaded: Vec<(Client, bool)> = std::thread::scope(|s| {
        let loaders: Vec<_> = clients
            .into_iter()
            .zip(programs)
            .enumerate()
            .map(|(a, (mut client, program))| {
                s.spawn(move || {
                    let mut ok = client.expect_ok(&format!("open a{a}")).is_ok();
                    for rule in &program.rules {
                        ok &= client.expect_ok(&format!("add {rule}")).is_ok();
                    }
                    (client, ok)
                })
            })
            .collect();
        loaders
            .into_iter()
            .map(|h| h.join().expect("loader thread"))
            .collect()
    });
    let ok = loaded.iter().all(|(_, ok)| *ok);
    (handle, loaded.into_iter().map(|(c, _)| c).collect(), ok)
}

/// Two analysts over TCP, each on a durable session of their own, on one
/// in-process server with the shipped flush policy.
pub fn wire_mixed(
    report: &mut Report,
    inputs: &Inputs,
    seed: u64,
    work: &Path,
    run: impl Fn(Instant) -> Until,
) {
    let spec = &WIRE_MIXED;
    let programs: Vec<Program> = (0..spec.analysts as u64)
        .map(|a| Program::select(inputs, spec.rules, seed, a))
        .collect();
    let mut setups = Vec::new();
    let mut setup = |report: &mut Report, rep: usize| {
        let start = Instant::now();
        let (handle, clients, ok) = wire_setup(inputs, &programs, work.join(format!("setup{rep}")));
        setups.push(start.elapsed().as_secs_f64());
        report.check(ok, || {
            "wire-mixed: a session failed to open or load".to_string()
        });
        (handle, clients)
    };
    let mut live = None;
    for rep in 0..setups_before(spec) {
        if let Some((handle, _)) = live.take() {
            ServerHandle::shutdown(handle);
        }
        live = Some(setup(report, rep));
    }
    let (handle, clients) = live.expect("at least one set-up");
    let manager = Arc::clone(handle.manager());
    let starts: Vec<usize> = (0..spec.analysts)
        .map(|a| {
            manager
                .with_session(&format!("a{a}"), |s, _| s.session().n_matches())
                .expect("session is open")
        })
        .collect();

    let start = Instant::now();
    let until = run(start);
    let per_analyst: Vec<(LoopStats, Duration)> = std::thread::scope(|s| {
        let runners: Vec<_> = clients
            .into_iter()
            .zip(&programs)
            .enumerate()
            .map(|(a, (client, program))| {
                let manager = Arc::clone(&manager);
                s.spawn(move || {
                    let mut ep = Wire {
                        client,
                        manager,
                        name: format!("a{a}"),
                    };
                    let mut script = Script::new(inputs, program, seed, a as u64);
                    let n_pairs = Some(inputs.cands.len());
                    let stats = closed_loop(&mut ep, &mut script, n_pairs, until);
                    (stats, start.elapsed())
                })
            })
            .collect();
        runners
            .into_iter()
            .map(|h| h.join().expect("analyst thread"))
            .collect()
    });
    let wall = per_analyst.iter().map(|(_, w)| *w).max().expect("analysts");
    let mut stats = LoopStats::default();
    for (s, _) in &per_analyst {
        stats.merge(s);
    }
    for (a, program) in programs.iter().enumerate() {
        let name = format!("a{a}");
        manager
            .with_session(&name, |store, _| {
                report.check(store.session().n_matches() == starts[a], || {
                    format!("wire-mixed {name}: match count changed over a net-zero script")
                });
                check_session(
                    report,
                    &format!("wire-mixed {name}"),
                    inputs,
                    store.session(),
                    &program.text(),
                );
            })
            .expect("session is open");
    }
    ServerHandle::shutdown(handle);
    for rep in setups_before(spec)..spec.setups {
        let (handle, clients) = setup(report, rep);
        drop(clients);
        ServerHandle::shutdown(handle);
    }
    setup_note(report, spec, &setups);
    e2e_metrics(report, &setups, &stats, wall);
}
