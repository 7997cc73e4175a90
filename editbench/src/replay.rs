//! The traced run. Each analyst's script is replayed in lockstep at every
//! public entry point from the wire down, each entry point on a twin
//! session loaded with the same program, so every op meets identically
//! prepared state at every layer. A layer's self time is then the
//! per-op difference between adjacent entry points.
//!
//! | twin | entry point | store |
//! |---|---|---|
//! | `wire` | `Client::request` | on the server |
//! | `manager` | `SessionManager::execute` | on the server |
//! | `exec` | `exec::execute` | ephemeral |
//! | `durable` | the `SessionStore` edit call | durable |
//! | `session` | the `DebugSession` edit call; child `incremental` = `ChangeReport::elapsed` | none |
//!
//! The server's sessions are durable on `wire-mixed` and ephemeral on
//! `session-edits`, as in the workloads. Reads run down to `exec`; the
//! durable and session twins take edits only, since reads have no call at
//! those layers. After the replay, the untraced closed loop runs the
//! same steps at the workload's own entry point, for the overhead.

use crate::inputs::{Inputs, Kind, Program, Script};
use crate::ops::{closed_loop, reads, undo, Exec, LoopStats, Op, Until, Wire};
use crate::stats::{median, quantile, sorted, Latencies, Report};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{check_session, connect, fresh_session, template, Spec};
use em_core::command::Command;
use em_core::{ChangeReport, DebugSession, EvalStats, SessionStore};
use em_server::{serve, Client, ServerConfig, ServerHandle, SessionManager};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

enum Entry {
    Wire(Client),
    Manager,
    Exec(Exec),
    Durable(SessionStore),
    Session(DebugSession),
}

struct Twin {
    layer: &'static str,
    /// The server-side session name (wire and manager twins).
    name: String,
    entry: Entry,
    /// Whether this twin's current try applied (and so is undone).
    applied: bool,
}

/// What a call returned besides its duration.
struct Outcome {
    ok: bool,
    report: Option<ChangeReport>,
    snapshot: bool,
}

fn store_edit(store: &mut SessionStore, cmd: &Command) -> Result<ChangeReport, String> {
    let e = |e: em_core::SessionError| e.to_string();
    match cmd {
        Command::AddRule(text) => store.add_rule_text(text).map(|(_, r)| r).map_err(e),
        Command::RemoveRule(rid) => store.remove_rule(*rid).map_err(e),
        Command::AddPredicate(rid, text) => {
            let pred = store.parse_predicate(text).map_err(e)?;
            store.add_predicate(*rid, pred).map(|(_, r)| r).map_err(e)
        }
        Command::RemovePredicate(pid) => store.remove_predicate(*pid).map_err(e),
        Command::SetThreshold(pid, t) => store.set_threshold(*pid, *t).map_err(e),
        Command::Undo => store
            .undo()
            .map_err(e)?
            .ok_or_else(|| "nothing to undo".to_string()),
        other => Err(format!("not an edit: {other:?}")),
    }
}

fn session_edit(session: &mut DebugSession, cmd: &Command) -> Result<ChangeReport, String> {
    let e = |e: em_core::EditError| e.to_string();
    match cmd {
        Command::AddRule(text) => session
            .add_rule_text(text)
            .map(|(_, r)| r)
            .map_err(|e| e.to_string()),
        Command::RemoveRule(rid) => session.remove_rule(*rid).map_err(e),
        Command::AddPredicate(rid, text) => {
            let pred = session.parse_predicate(text).map_err(|e| e.to_string())?;
            session.add_predicate(*rid, pred).map(|(_, r)| r).map_err(e)
        }
        Command::RemovePredicate(pid) => session.remove_predicate(*pid).map_err(e),
        Command::SetThreshold(pid, t) => session.set_threshold(*pid, *t).map_err(e),
        Command::Undo => session
            .undo()
            .map_err(e)?
            .ok_or_else(|| "nothing to undo".to_string()),
        other => Err(format!("not an edit: {other:?}")),
    }
}

impl Twin {
    fn takes_reads(&self) -> bool {
        matches!(self.entry, Entry::Wire(_) | Entry::Manager | Entry::Exec(_))
    }

    fn call(&mut self, manager: &SessionManager, op: &Op) -> Outcome {
        let plain = |ok: bool| Outcome {
            ok,
            report: None,
            snapshot: false,
        };
        match &mut self.entry {
            Entry::Wire(client) => plain(matches!(client.request(&op.line), Ok((true, _)))),
            Entry::Manager => plain(manager.execute(&self.name, &op.cmd).is_ok()),
            Entry::Exec(ep) => plain(crate::ops::Endpoint::call(ep, op).is_ok()),
            Entry::Durable(store) => {
                let before = store.records_since_save();
                let r = store_edit(store, &op.cmd);
                Outcome {
                    ok: r.is_ok(),
                    snapshot: store.records_since_save() <= before,
                    report: r.ok(),
                }
            }
            Entry::Session(session) => {
                let r = session_edit(session, &op.cmd);
                Outcome {
                    ok: r.is_ok(),
                    report: r.ok(),
                    snapshot: false,
                }
            }
        }
    }

    /// The rule text the twin's session holds now.
    fn text(&self, manager: &SessionManager) -> String {
        match &self.entry {
            Entry::Wire(_) | Entry::Manager => manager
                .with_session(&self.name, |s, _| s.session().function_text())
                .unwrap_or_default(),
            Entry::Exec(ep) => ep.store.session().function_text(),
            Entry::Durable(store) => store.session().function_text(),
            Entry::Session(session) => session.function_text(),
        }
    }
}

/// Work counters summed from the session twin's change reports.
#[derive(Default)]
struct Work {
    load: EvalStats,
    edit: EvalStats,
    pairs_examined: u64,
}

/// One analyst's twins, traced.
struct Analyst {
    twins: Vec<Twin>,
    script: Script,
    tracer: Tracer,
    work: Work,
    steps: u64,
    attempted: u64,
    failed: u64,
}

impl Analyst {
    /// Runs `op` on every twin that takes it. The order rotates by step
    /// and reverses on odd steps, so each twin runs before and after each
    /// other twin about equally often and warm caches favour no layer.
    fn op(&mut self, manager: &SessionManager, op_id: u64, step: usize, class: &str, op: &Op) {
        let n = self.twins.len();
        let is_read = class.starts_with("read:");
        let is_try = class.starts_with("try:");
        for k in 0..n {
            let k = if step % 2 == 1 { n - 1 - k } else { k };
            let twin = &mut self.twins[(k + step / 2) % n];
            if is_read && !twin.takes_reads() || class == "undo" && !twin.applied {
                continue;
            }
            if is_try {
                if let Entry::Session(session) = &twin.entry {
                    let start = Instant::now();
                    std::hint::black_box(session.analyze());
                    self.tracer
                        .record(op_id, "analyze", class, start, start.elapsed());
                }
            }
            let start = Instant::now();
            let out = twin.call(manager, op);
            let took = start.elapsed();
            self.attempted += 1;
            if !out.ok {
                self.failed += 1;
            }
            if is_try {
                twin.applied = out.ok;
            }
            let id = self.tracer.record(op_id, twin.layer, class, start, took);
            if out.snapshot {
                self.tracer.mark_snapshot();
            }
            if let (Entry::Session(_), Some(r)) = (&twin.entry, &out.report) {
                self.tracer.child(id, "incremental", r.elapsed);
                let into = if class == "load" {
                    &mut self.work.load
                } else {
                    self.work.pairs_examined += r.pairs_examined as u64;
                    &mut self.work.edit
                };
                into.absorb(&r.stats);
            }
        }
    }
}

fn open_twins(
    inputs: &Inputs,
    handle: &ServerHandle,
    work: &Path,
    a: usize,
    accept_ms: &mut Vec<f64>,
) -> Vec<Twin> {
    let manager = handle.manager();
    let name = format!("t{a}wire");
    let start = Instant::now();
    let mut client = connect(handle);
    let pong = client.request("ping");
    accept_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let opened = pong.is_ok() && client.expect_ok(&format!("open {name}")).is_ok();
    assert!(opened, "open {name} over the wire");
    let mut twins = vec![Twin {
        layer: "wire",
        name,
        entry: Entry::Wire(client),
        applied: false,
    }];
    let name = format!("t{a}manager");
    manager.open(&name).expect("open the manager twin");
    twins.push(Twin {
        layer: "manager",
        name,
        entry: Entry::Manager,
        applied: false,
    });
    let durable = SessionStore::create(&work.join(format!("durable{a}")), fresh_session(inputs))
        .expect("create the durable twin's store");
    for (layer, entry) in [
        (
            "exec",
            Entry::Exec(Exec {
                store: SessionStore::ephemeral(fresh_session(inputs)),
                labels: Arc::new(inputs.labels.clone()),
            }),
        ),
        ("durable", Entry::Durable(durable)),
        ("session", Entry::Session(fresh_session(inputs))),
    ] {
        twins.push(Twin {
            layer,
            name: String::new(),
            entry,
            applied: false,
        });
    }
    twins
}

/// The workload's untraced closed loop at its own entry point, on fresh
/// sessions, for the same number of steps each analyst's replay ran: the
/// reference for the tracing overhead.
fn untraced(
    spec: &Spec,
    inputs: &Inputs,
    programs: &[Program],
    seed: u64,
    handle: &ServerHandle,
    steps: &[u64],
) -> LoopStats {
    let n_pairs = spec.wire.then_some(inputs.cands.len());
    let mut endpoints: Vec<Box<dyn crate::ops::Endpoint + Send>> = Vec::new();
    for (a, program) in programs.iter().enumerate() {
        if spec.wire {
            let name = format!("u{a}");
            let mut client = connect(handle);
            let mut ok = client.expect_ok(&format!("open {name}")).is_ok();
            for rule in &program.rules {
                ok &= client.expect_ok(&format!("add {rule}")).is_ok();
            }
            assert!(ok, "load {name} over the wire");
            endpoints.push(Box::new(Wire {
                client,
                manager: Arc::clone(handle.manager()),
                name,
            }));
        } else {
            let mut store = SessionStore::ephemeral(fresh_session(inputs));
            for rule in &program.rules {
                store.add_rule_text(rule).expect("program rules load");
            }
            endpoints.push(Box::new(Exec {
                store,
                labels: Arc::new(inputs.labels.clone()),
            }));
        }
    }
    let mut total = LoopStats::default();
    std::thread::scope(|s| {
        let runs: Vec<_> = endpoints
            .into_iter()
            .zip(programs)
            .enumerate()
            .map(|(a, (mut ep, program))| {
                let until = Until::Steps(steps[a]);
                s.spawn(move || {
                    let mut script = Script::new(inputs, program, seed, a as u64);
                    closed_loop(ep.as_mut(), &mut script, n_pairs, until)
                })
            })
            .collect();
        for run in runs {
            total.merge(&run.join().expect("untraced analyst thread"));
        }
    });
    total
}

/// Replays `spec`'s scripts traced and reports every per-layer metric.
pub fn traced(
    report: &mut Report,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    work: &Path,
) {
    let origin = Instant::now();
    let appends0 = trace::counter("em_journal_appends_total");
    let snapshots0 = trace::counter("em_snapshot_saves_total");
    let config = ServerConfig {
        store_root: spec.wire.then(|| work.join("server")),
        ..ServerConfig::default()
    };
    let handle = serve(template(inputs), config).expect("serve on a free local port");
    let programs: Vec<Program> = (0..spec.analysts as u64)
        .map(|a| Program::select(inputs, spec.rules, seed, a))
        .collect();
    let mut accept_ms = Vec::new();
    let mut analysts = Vec::new();
    for (a, program) in programs.iter().enumerate() {
        analysts.push(Analyst {
            twins: open_twins(inputs, &handle, work, a, &mut accept_ms),
            script: Script::new(inputs, program, seed, a as u64),
            tracer: Tracer::new(origin, (a as u64) << 48),
            work: Work::default(),
            steps: 0,
            attempted: 0,
            failed: 0,
        });
    }
    // Probe connections after set-up, when the accept loop is idle.
    for _ in 0..4 {
        let start = Instant::now();
        let mut client = connect(&handle);
        if client.request("ping").is_ok() {
            accept_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let manager = Arc::clone(handle.manager());
    let admission0 = trace::histogram("em_admission_queue_wait_ns");
    let shed0 = trace::counter("em_admission_shed_total");
    let n_pairs = spec.wire.then_some(inputs.cands.len());
    let min_steps = spec.trace_min_steps;
    std::thread::scope(|s| {
        for (a, (analyst, program)) in analysts.iter_mut().zip(&programs).enumerate() {
            let manager = &manager;
            s.spawn(move || {
                let op_base = (a as u64) << 48;
                for (i, rule) in program.rules.iter().enumerate() {
                    let op = Op::new(format!("add {rule}"));
                    analyst.op(manager, op_base + i as u64, i, "load", &op);
                }
                let start = Instant::now();
                let mut step = 0usize;
                while step < min_steps || start.elapsed().as_secs_f64() < seconds {
                    // The same draws, in the same order, as `closed_loop`.
                    let edit = analyst.script.next_edit();
                    let pair = n_pairs.map(|n| analyst.script.pair(n));
                    let line = match &analyst.twins.last().expect("session twin").entry {
                        Entry::Session(session) => edit.line(session.function()),
                        _ => unreachable!("the session twin is last"),
                    };
                    let try_class = format!("try:{}", edit.kind().name());
                    let mut ops = vec![(try_class, Op::new(line))];
                    for read in pair.into_iter().flat_map(reads) {
                        let verb = read.line.split(' ').next().unwrap_or_default().to_string();
                        ops.push((format!("read:{verb}"), read));
                    }
                    ops.push(("undo".to_string(), undo()));
                    for (k, (class, op)) in ops.iter().enumerate() {
                        let id = op_base + (1 << 32) + (step * 8 + k) as u64;
                        analyst.op(manager, id, step, class, op);
                    }
                    step += 1;
                }
                analyst.steps = step as u64;
            });
        }
    });
    let admission = trace::since(&trace::histogram("em_admission_queue_wait_ns"), &admission0);
    let shed = trace::counter("em_admission_shed_total") - shed0;
    let appends = trace::counter("em_journal_appends_total") - appends0;
    let snapshots = trace::counter("em_snapshot_saves_total") - snapshots0;

    for (a, (analyst, program)) in analysts.iter().zip(&programs).enumerate() {
        let text = program.text();
        for twin in &analyst.twins {
            report.check(twin.text(&manager) == text, || {
                format!(
                    "traced {}: analyst {a} twin {} drifted from its program",
                    spec.name, twin.layer
                )
            });
        }
        if let Some(Twin {
            entry: Entry::Session(session),
            ..
        }) = analyst.twins.last()
        {
            check_session(
                report,
                &format!("traced analyst {a}"),
                inputs,
                session,
                &text,
            );
        }
        report.attempted += analyst.attempted;
        report.failed += analyst.failed;
    }
    let steps: Vec<u64> = analysts.iter().map(|a| a.steps).collect();
    let (mut spans, mut work_total) = (Vec::new(), Work::default());
    for a in analysts {
        spans.extend(a.tracer.spans);
        work_total.load.absorb(&a.work.load);
        work_total.edit.absorb(&a.work.edit);
        work_total.pairs_examined += a.work.pairs_examined;
    }
    let reference = untraced(spec, inputs, &programs, seed, &handle, &steps);
    report.attempted += reference.attempted();
    report.failed += reference.failed();
    ServerHandle::shutdown(handle);

    layer_metrics(report, spec, &spans, &accept_ms, &admission, shed);
    overhead(report, spec, &spans, &reference);
    report.metric("persist.appends", "count", appends as f64, None);
    report.metric("persist.snapshots", "count", snapshots as f64, None);
    work_metrics(report, &spans, &work_total);
    kernel_metrics(report, inputs);
    // One file per workload, overwritten by each traced run: a wire-mixed
    // replay writes tens of MB of spans.
    let path = work
        .parent()
        .unwrap_or(work)
        .join("traces")
        .join(format!("{}.jsonl", spec.name));
    match trace::write(&path, &spans) {
        Ok(()) => report.note(format!(
            "{} spans of seed {seed} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

fn is_try(s: &Span) -> bool {
    s.class.starts_with("try:")
}

fn p(v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        quantile(&sorted(v), q)
    }
}

fn layer_metrics(
    report: &mut Report,
    spec: &Spec,
    spans: &[Span],
    accept_ms: &[f64],
    admission: &em_metrics::HistogramSnapshot,
    shed: u64,
) {
    report.metric(
        "server.accept_ms",
        "ms",
        median(accept_ms),
        Some(accept_ms.len()),
    );
    // Ops that do the same work at both layers and write nothing to disk:
    // the reads on a durable server, every op of the script on an
    // ephemeral one. `status` is assembled differently at each layer.
    let same_work = |s: &Span| {
        s.class != "load"
            && s.class != "read:status"
            && (!spec.wire || s.class.starts_with("read:"))
    };
    let wire = trace::paired(spans, "wire", "manager", same_work);
    let n = wire.len();
    report.metric("server.wire_us_p50", "us", p(wire.clone(), 0.50), Some(n));
    report.metric("server.wire_us_p99", "us", p(wire, 0.99), Some(n));
    let n = admission.count as usize;
    let wait = |q| match admission.count {
        0 => f64::NAN,
        _ => admission.quantile(q) as f64 / 1e3,
    };
    report.metric("admission.wait_us_p50", "us", wait(0.50), Some(n));
    report.metric("admission.wait_us_p99", "us", wait(0.99), Some(n));
    report.metric("admission.shed", "count", shed as f64, None);
    let manager = trace::paired(spans, "manager", "exec", same_work);
    let n = manager.len();
    report.metric("manager.self_us_p50", "us", p(manager, 0.50), Some(n));
    let exec = trace::paired(spans, "exec", "session", is_try);
    let n = exec.len();
    report.metric("exec.self_us_p50", "us", p(exec, 0.50), Some(n));
    let analyze = trace::durations(spans, "analyze", |_| true);
    let n = analyze.len();
    report.metric("exec.analyze_us_p50", "us", p(analyze, 0.50), Some(n));
    let journal = trace::paired(spans, "durable", "session", |s| {
        s.class != "load" && !s.snapshot
    });
    let n = journal.len();
    report.metric(
        "persist.journal_us_p50",
        "us",
        p(journal.clone(), 0.50),
        Some(n),
    );
    report.metric("persist.journal_us_p99", "us", p(journal, 0.99), Some(n));
    let snapshot: Vec<f64> = trace::paired(spans, "durable", "session", |s| s.snapshot)
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    let n = snapshot.len();
    report.metric("persist.snapshot_ms_p50", "ms", p(snapshot, 0.50), Some(n));
    let deltas: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter_map(|s| s.parent.map(|parent| (parent, s.dur_ns)))
        .collect();
    let session: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == "session" && is_try(s))
        .filter_map(|s| {
            deltas
                .get(&s.id)
                .map(|d| (s.dur_ns as f64 - *d as f64) / 1e3)
        })
        .collect();
    let n = session.len();
    report.metric("session.self_us_p50", "us", p(session, 0.50), Some(n));
}

/// The tracing overhead: per op class (the six try kinds, and the reads
/// where the workload has them), the replay's median at the workload's own
/// entry point over the untraced closed loop's median for the same steps,
/// less one; reported as the median over the classes.
fn overhead(report: &mut Report, spec: &Spec, spans: &[Span], reference: &LoopStats) {
    let entry = if spec.wire { "wire" } else { "exec" };
    let mut classes: Vec<(String, Option<&Latencies>)> = Kind::ALL
        .iter()
        .map(|k| (format!("try:{}", k.name()), reference.edits_by_kind.get(k)))
        .collect();
    if spec.wire {
        classes.push(("read:".to_string(), Some(&reference.reads)));
    }
    let (mut ratios, mut n, mut parts) = (Vec::new(), 0, Vec::new());
    for (class, base) in classes {
        let traced = trace::durations(spans, entry, |s| s.class.starts_with(&class));
        n += traced.len();
        let (traced, base) = (
            p(traced, 0.50) / 1e3,
            base.map_or(f64::NAN, |l| l.pct(0.50, f64::NAN)),
        );
        parts.push(format!("{class} {traced:.4}/{base:.4}"));
        ratios.push(traced / base - 1.0);
    }
    report.note(format!(
        "tracing overhead at `{entry}`, median ms traced/untraced: {}",
        parts.join(", ")
    ));
    report.metric("trace.overhead_pct", "%", median(&ratios) * 100.0, Some(n));
}

fn work_metrics(report: &mut Report, spans: &[Span], work: &Work) {
    let classes: Vec<(String, &str)> = Kind::ALL
        .iter()
        .map(|k| (format!("try:{}", k.name()), k.name()))
        .chain(std::iter::once(("undo".to_string(), "undo")))
        .collect();
    for (class, name) in &classes {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == "incremental" && &s.class == class)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        let n = d.len();
        report.metric(
            format!("incremental.delta_ms_p50.{name}"),
            "ms",
            p(d.clone(), 0.50),
            Some(n),
        );
        report.metric(
            format!("incremental.delta_ms_p99.{name}"),
            "ms",
            p(d, 0.99),
            Some(n),
        );
    }
    report.metric(
        "incremental.pairs_examined",
        "count",
        work.pairs_examined as f64,
        None,
    );
    report.metric(
        "incremental.rule_evals",
        "count",
        work.edit.rule_evals as f64,
        None,
    );
    for (phase, s) in [("load", &work.load), ("edit", &work.edit)] {
        report.metric(
            format!("memo.lookups.{phase}"),
            "count",
            s.memo_lookups as f64,
            None,
        );
        let all = (s.memo_lookups + s.feature_computations).max(1) as f64;
        report.metric(
            format!("memo.hit_ratio.{phase}"),
            "ratio",
            s.memo_lookups as f64 / all,
            None,
        );
    }
    for (phase, s) in [("load", &work.load), ("edit", &work.edit)] {
        report.metric(
            format!("kernel.computations.{phase}"),
            "count",
            s.feature_computations as f64,
            None,
        );
    }
}

/// The metric-name form of a feature: `jaccard_ws(title, title)` →
/// `jaccard_ws.title.title`.
fn feature_key(name: &str) -> String {
    name.replace(", ", ".")
        .replace('(', ".")
        .replace(')', "")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "_.-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Pairs per kernel timing: every pair at scale 0.02, an even sample at
/// 0.1.
const KERNEL_PAIRS: usize = 4096;

/// `EvalContext::compute` (the scalar path edits take) timed per menu
/// feature over an even sample of the workload's pairs.
fn kernel_metrics(report: &mut Report, inputs: &Inputs) {
    let stride = inputs.cands.len().div_ceil(KERNEL_PAIRS).max(1);
    let pairs: Vec<_> = inputs
        .cands
        .iter()
        .step_by(stride)
        .map(|(_, p)| p)
        .collect();
    for &f in &inputs.menu {
        let start = Instant::now();
        for &pair in &pairs {
            std::hint::black_box(inputs.ctx.compute(f, std::hint::black_box(pair)));
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64;
        let key = feature_key(&inputs.ctx.feature_name(f));
        report.metric(
            format!("kernel.ns_per_pair.{key}"),
            "ns",
            ns,
            Some(pairs.len()),
        );
    }
}
