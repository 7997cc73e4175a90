//! The public entry points an op can be issued through, and the closed
//! loop that drives one analyst's script through one of them.

use crate::inputs::{Edit, Kind, Script};
use crate::stats::{ms, Latencies};
use em_core::command::{self, Command};
use em_core::SessionStore;
use em_server::{Client, SessionManager};
use em_types::LabeledPair;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One request: the grammar line and its parsed command. Parsing happens
/// before the clock starts; the wire parses again on the server side.
pub struct Op {
    pub line: String,
    pub cmd: Command,
}

impl Op {
    pub fn new(line: String) -> Op {
        let cmd = command::parse(&line)
            .expect("benchmark lines follow the grammar")
            .expect("benchmark lines are not blank");
        Op { line, cmd }
    }
}

/// The reads a `wire-mixed` analyst makes between a try and its undo.
pub fn reads(pair: usize) -> [Op; 4] {
    [
        Op::new("matches 10".to_string()),
        Op::new(format!("explain {pair}")),
        Op::new("quality".to_string()),
        Op::new("status".to_string()),
    ]
}

pub fn undo() -> Op {
    Op::new("undo".to_string())
}

/// A public entry point that executes ops against one session.
pub trait Endpoint {
    fn call(&mut self, op: &Op) -> Result<(), String>;
    /// Resolves a try edit against the session's live function.
    fn line(&self, edit: &Edit) -> String;
}

/// `em_server::exec::execute` on a store held in process: what the CLI
/// and the server both run per command.
pub struct Exec {
    pub store: SessionStore,
    pub labels: Arc<Vec<LabeledPair>>,
}

impl Endpoint for Exec {
    fn call(&mut self, op: &Op) -> Result<(), String> {
        em_server::exec::execute(&mut self.store, &self.labels, &op.cmd)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn line(&self, edit: &Edit) -> String {
        edit.line(self.store.session().function())
    }
}

/// `Client::request` over TCP; ids are resolved in process through the
/// server's manager, outside any timed interval.
pub struct Wire {
    pub client: Client,
    pub manager: Arc<SessionManager>,
    pub name: String,
}

impl Endpoint for Wire {
    fn call(&mut self, op: &Op) -> Result<(), String> {
        match self.client.request(&op.line) {
            Ok((true, _)) => Ok(()),
            Ok((false, err)) => Err(err),
            Err(e) => Err(e.to_string()),
        }
    }

    fn line(&self, edit: &Edit) -> String {
        self.manager
            .with_session(&self.name, |store, _| edit.line(store.session().function()))
            .expect("the session is open on the server")
    }
}

/// What one analyst's closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    pub edits: Latencies,
    pub edits_by_kind: BTreeMap<Kind, Latencies>,
    pub reads: Latencies,
    pub undos: Latencies,
    pub steps: u64,
}

impl LoopStats {
    pub fn merge(&mut self, other: &LoopStats) {
        self.edits.merge(&other.edits);
        for (k, l) in &other.edits_by_kind {
            self.edits_by_kind.entry(*k).or_default().merge(l);
        }
        self.reads.merge(&other.reads);
        self.undos.merge(&other.undos);
        self.steps += other.steps;
    }

    pub fn attempted(&self) -> u64 {
        (self.edits.n() + self.reads.n() + self.undos.n()) as u64
    }

    pub fn failed(&self) -> u64 {
        (self.edits.failed() + self.reads.failed() + self.undos.failed()) as u64
    }
}

fn timed(ep: &mut dyn Endpoint, op: &Op, into: &mut Latencies) -> bool {
    let start = Instant::now();
    let r = ep.call(op);
    let took = ms(start.elapsed());
    match r {
        Ok(()) => into.push(took),
        Err(_) => into.fail(),
    }
    r.is_ok()
}

/// When a closed loop stops: at a wall-clock deadline, or after a fixed
/// number of steps (the determinism self-test).
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Steps(u64),
}

impl Until {
    fn done(self, steps: u64) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Steps(n) => steps >= n,
        }
    }
}

/// Runs steps of try, the four reads when `n_pairs` is given, and undo
/// until `until`. A failed try is not undone: nothing was applied.
pub fn closed_loop(
    ep: &mut dyn Endpoint,
    script: &mut Script,
    n_pairs: Option<usize>,
    until: Until,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let undo = undo();
    while !until.done(stats.steps) {
        let edit = script.next_edit();
        let pair = n_pairs.map(|n| script.pair(n));
        let try_op = Op::new(ep.line(&edit));
        let mut lat = Latencies::default();
        let applied = timed(ep, &try_op, &mut lat);
        stats.edits.merge(&lat);
        stats
            .edits_by_kind
            .entry(edit.kind())
            .or_default()
            .merge(&lat);
        for read in pair.into_iter().flat_map(reads) {
            timed(ep, &read, &mut stats.reads);
        }
        if applied {
            timed(ep, &undo, &mut stats.undos);
        }
        stats.steps += 1;
    }
    stats
}
