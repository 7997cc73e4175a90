//! [`SessionManager`]: many named, durable, independently-locked
//! debugging sessions over one shared dataset.
//!
//! The server process owns one dataset (tables + blocked candidate pairs,
//! captured in a [`SessionTemplate`]) and any number of named sessions
//! over it — one per analyst, experiment, or load-generator client. Each
//! session is a [`SessionStore`] (PR 4's journaled [`DebugSession`])
//! behind its own mutex, so edits to different sessions run concurrently
//! while edits to one session serialize.
//!
//! Residency is bounded: with a durable store root configured, at most
//! `max_resident` sessions keep their in-memory state (memo, bitmaps —
//! tens of MB each at scale). Opening or touching a session beyond that
//! evicts the least-recently-used idle session *to its snapshot* (a
//! `save()` fold, then the memory is dropped); the next `attach` lazily
//! recovers it from disk through the PR 4 journal-replay path. Eviction
//! is therefore crash-equivalent by construction — an evicted-and-
//! recovered session is bit-identical to one that survived a SIGKILL.
//!
//! Every resident durable session holds its directory's [`StoreLock`],
//! so two server processes (or a server and a CLI) can never interleave
//! writes to one store.

use crate::admission::{AdmissionQueue, AdmissionSnapshot};
use crate::error::ServerError;
use crate::exec;
use em_blocking::Blocker;
use em_core::persist::{session_store_dir, store_exists, StoreLock};
use em_core::{
    install_snapshot_bytes, replay_record, CancelToken, Command, DebugSession, Edit, JournalTailer,
    PersistError, RealVfs, SessionConfig, SessionError, SessionStore, SnapshotShipment, Vfs,
    Watermark,
};
use em_types::{CandidateSet, LabeledPair, Table};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The dataset every session is built over: two tables, their blocked
/// candidate pairs, optional ground-truth labels, and the session config
/// (worker threads, per-edit deadline).
#[derive(Debug, Clone)]
pub struct SessionTemplate {
    table_a: Table,
    table_b: Table,
    cands: CandidateSet,
    labels: Vec<LabeledPair>,
    config: SessionConfig,
    guarantees: Vec<em_similarity::JoinGuarantee>,
}

impl SessionTemplate {
    /// Wraps an already-prepared dataset.
    pub fn new(
        table_a: Table,
        table_b: Table,
        cands: CandidateSet,
        labels: Vec<LabeledPair>,
        config: SessionConfig,
    ) -> Self {
        SessionTemplate {
            table_a,
            table_b,
            cands,
            labels,
            config,
            guarantees: Vec::new(),
        }
    }

    /// Records the blocking join guarantees of the dataset's blocker, so
    /// every session minted by [`SessionTemplate::fresh`] can feed them
    /// to the static analyzer (`lint` flags predicates the blocking step
    /// already guarantees).
    pub fn with_guarantees(
        mut self,
        guarantees: impl Into<Vec<em_similarity::JoinGuarantee>>,
    ) -> Self {
        self.guarantees = guarantees.into();
        self
    }

    /// Builds the synthetic demo dataset (same pipeline as the CLI's
    /// `--demo`): generate, block on title overlap, label.
    pub fn demo(
        domain: em_datagen::Domain,
        scale: f64,
        seed: u64,
        config: SessionConfig,
    ) -> Result<Self, ServerError> {
        let ds = domain.generate(seed, scale);
        let cands = em_blocking::OverlapBlocker::new(
            domain.title_attr(),
            em_similarity::TokenScheme::Whitespace,
            2,
        )
        .block(&ds.table_a, &ds.table_b)
        .map_err(|e| ServerError::BadRequest(format!("demo blocking: {e}")))?;
        let labels = ds.label_candidates(&cands);
        Ok(SessionTemplate::new(
            ds.table_a, ds.table_b, cands, labels, config,
        ))
    }

    /// A fresh, empty session over the template's dataset — what `open`
    /// starts from and what store recovery replays into.
    pub fn fresh(&self) -> DebugSession {
        let mut session = DebugSession::new(
            self.table_a.clone(),
            self.table_b.clone(),
            self.cands.clone(),
            self.config.clone(),
        );
        session.set_block_guarantees(self.guarantees.clone());
        session
    }

    /// The ground-truth labels (for `quality` over the wire).
    pub fn labels(&self) -> &[LabeledPair] {
        &self.labels
    }

    /// Number of candidate pairs per session.
    pub fn n_candidates(&self) -> usize {
        self.cands.len()
    }

    /// The configured per-edit deadline.
    pub fn deadline(&self) -> Option<std::time::Duration> {
        self.config.deadline
    }
}

/// What a session slot currently holds in memory.
#[derive(Default)]
struct Resident {
    /// `Some` while resident; `None` after eviction (durable sessions
    /// only — ephemeral sessions are never evicted).
    store: Option<SessionStore>,
    /// Held for the lifetime of residency on a durable store.
    lock: Option<StoreLock>,
}

/// One named session: its state mutex and LRU stamp.
struct Slot {
    name: String,
    state: Mutex<Resident>,
    last_used: AtomicU64,
}

/// Which side of replication this server plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations; serves `replicate`/`snapshot` off its stores.
    Leader,
    /// Replays the leader's journals; serves reads, refuses mutations.
    Follower {
        /// The leader's address, echoed in `read_only` refusals.
        leader: String,
    },
}

/// One replica session's replication progress. `behind` stays `None`
/// from snapshot bootstrap until the first `replicate` round reports how
/// many durable frames the leader holds past the watermark — claiming
/// zero lag before that measurement would let clients polling for
/// `"lag":0` proceed against a replica that has applied nothing yet.
#[derive(Debug, Clone, Copy)]
struct ReplicaProgress {
    watermark: Watermark,
    behind: Option<u64>,
}

/// The leader's view of one follower's progress on one session,
/// refreshed by every `replicate` poll it serves.
#[derive(Debug, Clone)]
struct FollowerProgress {
    /// The watermark the response advanced the follower to.
    watermark: Watermark,
    /// Durable frames the leader still held past that watermark.
    behind: u64,
    /// Coarse-clock timestamp of the poll (for staleness in `replicas`).
    seen_ms: u64,
}

/// Operational state beside the session registry: replication role,
/// per-session replication progress, and the admission queue handle
/// (for surfacing shed counts in `status`).
struct Ops {
    role: Role,
    replicas: HashMap<String, ReplicaProgress>,
    /// Leader side: per-`(peer, session)` progress of followers, learned
    /// from the `replicate` polls this server answers.
    followers: HashMap<(String, String), FollowerProgress>,
    admission: Option<Arc<AdmissionQueue>>,
    /// Sessions whose last persist write failed, keyed by name, holding
    /// the failed [`em_core::DiskOp`]'s name. A degraded session serves
    /// reads but refuses mutations until a probe write succeeds.
    degraded: HashMap<String, String>,
    /// The filesystem every durable store writes through. `RealVfs` in
    /// production; fault-injection tests swap in a failing one.
    vfs: Arc<dyn Vfs>,
}

/// Owns every named session; see the module docs.
pub struct SessionManager {
    template: SessionTemplate,
    store_root: Option<PathBuf>,
    max_resident: usize,
    registry: Mutex<HashMap<String, Arc<Slot>>>,
    clock: AtomicU64,
    ops: Mutex<Ops>,
    /// Sessions saved by every [`SessionManager::drain`] so far.
    drained: AtomicUsize,
}

/// What [`SessionManager::attach`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachInfo {
    /// The session name.
    pub name: String,
    /// Recovery report when the session was recovered from disk for this
    /// attach; `None` when it was already resident.
    pub recovered: Option<String>,
    /// Whether a budget-interrupted edit is parked (send `resume`).
    pub pending: bool,
    /// Rules currently in the matching function.
    pub n_rules: usize,
    /// Current match count.
    pub n_matches: usize,
}

impl SessionManager {
    /// Creates a manager. With `store_root = None` sessions are ephemeral
    /// (and never evicted); with a root, each session lives in
    /// `<root>/<name>` and at most `max_resident` stay in memory.
    pub fn new(
        template: SessionTemplate,
        store_root: Option<PathBuf>,
        max_resident: usize,
    ) -> Self {
        SessionManager {
            template,
            store_root,
            max_resident: max_resident.max(1),
            registry: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            ops: Mutex::new(Ops {
                role: Role::Leader,
                replicas: HashMap::new(),
                followers: HashMap::new(),
                admission: None,
                degraded: HashMap::new(),
                vfs: RealVfs::arc(),
            }),
            drained: AtomicUsize::new(0),
        }
    }

    /// The dataset template (read access, e.g. for banners).
    pub fn template(&self) -> &SessionTemplate {
        &self.template
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<String, Arc<Slot>>> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn touch(&self, slot: &Slot) {
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Validates `name` and resolves its store directory (if durable).
    fn dir_for(&self, name: &str) -> Result<Option<PathBuf>, ServerError> {
        // Validate the name even for ephemeral managers, so the namespace
        // stays portable to a durable root.
        let probe = self
            .store_root
            .clone()
            .unwrap_or_else(|| PathBuf::from("."));
        let dir = session_store_dir(&probe, name).map_err(ServerError::Persist)?;
        Ok(self.store_root.is_some().then_some(dir))
    }

    /// Creates a fresh session named `name` (and its durable store, if
    /// this manager has a root). Fails if the name is taken — in memory
    /// or on disk.
    pub fn open(&self, name: &str) -> Result<(), ServerError> {
        let dir = self.dir_for(name)?;
        let slot = {
            let mut reg = self.registry();
            if reg.contains_key(name) {
                return Err(ServerError::SessionExists(name.to_string()));
            }
            if let Some(dir) = &dir {
                if store_exists(dir).map_err(ServerError::Persist)? {
                    return Err(ServerError::SessionExists(format!(
                        "{name} (on disk; `attach {name}` instead)"
                    )));
                }
            }
            let slot = Arc::new(Slot {
                name: name.to_string(),
                state: Mutex::new(Resident::default()),
                last_used: AtomicU64::new(0),
            });
            reg.insert(name.to_string(), Arc::clone(&slot));
            slot
        };
        let built = (|| -> Result<(), ServerError> {
            let mut state = lock_state(&slot);
            match &dir {
                Some(dir) => {
                    let vfs = self.vfs();
                    let lock = StoreLock::acquire_on(&vfs, dir).map_err(ServerError::Persist)?;
                    state.store = Some(
                        SessionStore::create_on(vfs, dir, self.template.fresh())
                            .map_err(ServerError::Persist)?,
                    );
                    state.lock = Some(lock);
                }
                None => state.store = Some(SessionStore::ephemeral(self.template.fresh())),
            }
            Ok(())
        })();
        match built {
            Ok(()) => {
                self.touch(&slot);
                self.evict_over_limit(Some(name));
                Ok(())
            }
            Err(e) => {
                self.registry().remove(name);
                Err(e)
            }
        }
    }

    /// Attaches to an existing session, lazily recovering it from its
    /// store when evicted (or first seen after a server restart).
    pub fn attach(&self, name: &str) -> Result<AttachInfo, ServerError> {
        let dir = self.dir_for(name)?;
        let slot = {
            let mut reg = self.registry();
            match reg.get(name) {
                Some(slot) => Arc::clone(slot),
                None => {
                    // Unknown in memory: a durable store on disk (from a
                    // previous server life) still counts as existing.
                    let on_disk = match &dir {
                        Some(dir) => store_exists(dir).map_err(ServerError::Persist)?,
                        None => false,
                    };
                    if !on_disk {
                        return Err(ServerError::UnknownSession(name.to_string()));
                    }
                    let slot = Arc::new(Slot {
                        name: name.to_string(),
                        state: Mutex::new(Resident::default()),
                        last_used: AtomicU64::new(0),
                    });
                    reg.insert(name.to_string(), Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut state = lock_state(&slot);
        let recovered = self.ensure_resident(&slot, &mut state)?;
        let store = state.store.as_ref().expect("resident after ensure");
        let info = AttachInfo {
            name: name.to_string(),
            recovered,
            pending: store.session().pending_resume().is_some(),
            n_rules: store.session().function().n_rules(),
            n_matches: store.session().n_matches(),
        };
        drop(state);
        self.touch(&slot);
        self.evict_over_limit(Some(name));
        Ok(info)
    }

    /// Brings an evicted slot back from its store directory.
    fn ensure_resident(
        &self,
        slot: &Slot,
        state: &mut Resident,
    ) -> Result<Option<String>, ServerError> {
        if state.store.is_some() {
            return Ok(None);
        }
        let Some(root) = &self.store_root else {
            // Ephemeral sessions are never evicted, so a non-resident
            // ephemeral slot cannot exist.
            return Err(ServerError::UnknownSession(slot.name.clone()));
        };
        let dir = session_store_dir(root, &slot.name).map_err(ServerError::Persist)?;
        let vfs = self.vfs();
        let lock = StoreLock::acquire_on(&vfs, &dir).map_err(ServerError::Persist)?;
        let (store, report) = SessionStore::open_on(vfs, &dir, self.template.fresh())
            .map_err(ServerError::Persist)?;
        state.store = Some(store);
        state.lock = Some(lock);
        Ok(Some(report.to_string()))
    }

    /// Runs `f` with exclusive access to the named session's store,
    /// recovering it first if evicted. The workhorse behind both
    /// [`SessionManager::execute`] and test/ops access.
    pub fn with_session<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut SessionStore, &[LabeledPair]) -> R,
    ) -> Result<R, ServerError> {
        let slot = {
            let reg = self.registry();
            match reg.get(name) {
                Some(slot) => Arc::clone(slot),
                None => return Err(ServerError::UnknownSession(name.to_string())),
            }
        };
        let mut state = lock_state(&slot);
        self.ensure_resident(&slot, &mut state)?;
        let store = state.store.as_mut().expect("resident after ensure");
        let out = f(store, &self.template.labels);
        drop(state);
        self.touch(&slot);
        self.evict_over_limit(Some(name));
        Ok(out)
    }

    /// Executes one grammar command against the named session, returning
    /// the porcelain JSON payload.
    ///
    /// Disk-failure state machine: a mutating command whose persist write
    /// fails flips the session *degraded* — reads, `explain`, and `lint`
    /// keep serving, but further mutations are refused with a typed
    /// `degraded:` error naming the failed write site. Each refused
    /// mutation first probes the store directory with a tiny
    /// write+fsync; the first probe that succeeds (space freed, disk
    /// replaced) flips the session healthy again and the command runs.
    pub fn execute(&self, name: &str, cmd: &Command) -> Result<String, ServerError> {
        let mutating = cmd.mutates();
        if mutating {
            if let Some(op) = self.degraded_op(name) {
                let recovered = self.with_session(name, |store, _| store.probe_write().is_ok())?;
                if !recovered {
                    return Err(ServerError::Degraded { op });
                }
                self.ops().degraded.remove(name);
                crate::obs::server_metrics().degraded_recovered.inc();
                em_metrics::events::emit(
                    "degraded_recovered",
                    &[("session", em_metrics::events::Field::Str(name))],
                );
            }
        }
        let result = self.with_session(name, |store, labels| exec::execute(store, labels, cmd))?;
        if mutating {
            if let Err(e) = &result {
                if let Some(op) = disk_op_of(e) {
                    self.ops().degraded.insert(name.to_string(), op.clone());
                    crate::obs::server_metrics().degraded_entered.inc();
                    em_metrics::events::emit(
                        "degraded",
                        &[
                            ("session", em_metrics::events::Field::Str(name)),
                            ("op", em_metrics::events::Field::Str(&op)),
                        ],
                    );
                }
            }
        }
        result
    }

    /// The failed write site that put `name` into degraded mode, when it
    /// is degraded.
    pub fn degraded_op(&self, name: &str) -> Option<String> {
        self.ops().degraded.get(name).cloned()
    }

    /// The named session's cancel token (for disconnect watchdogs).
    pub fn cancel_token(&self, name: &str) -> Result<CancelToken, ServerError> {
        self.with_session(name, |store, _| store.session().cancel_token())
    }

    /// One status line (JSON) for the attached session, including the
    /// server's replication role, this session's replication lag (frames
    /// the follower is behind the leader's durable journal), and the
    /// admission queue's shed count.
    pub fn status_json(&self, name: &str) -> Result<String, ServerError> {
        let (role, leader, lag, shed, degraded) = {
            let ops = self.ops();
            let (role, leader) = match &ops.role {
                Role::Leader => ("leader".to_string(), None),
                Role::Follower { leader } => ("follower".to_string(), Some(leader.clone())),
            };
            // A follower that has not measured this session's lag yet
            // (or never bootstrapped it) reports `null`, never a false
            // zero — `wait for "lag":0` is the documented convergence
            // probe, and it must not pass before the first replicate
            // round has actually caught the replica up.
            let lag = match &ops.role {
                Role::Leader => None,
                Role::Follower { .. } => ops.replicas.get(name).and_then(|p| p.behind),
            };
            let shed = ops.admission.as_ref().map_or(0, |a| a.snapshot().shed);
            let degraded = ops.degraded.get(name).cloned();
            (role, leader, lag, shed, degraded)
        };
        self.with_session(name, |store, _| {
            let s = store.session();
            let (store_bytes, journal_bytes) = store.usage();
            exec::status_json(exec::StatusLine {
                event: "status".to_string(),
                name: name.to_string(),
                attached: true,
                rules: s.function().n_rules(),
                predicates: s.function().n_predicates(),
                matches: s.n_matches(),
                pending: s.pending_resume().is_some(),
                epoch: store.epoch(),
                journal_records: store.records_since_save(),
                role,
                leader,
                lag,
                shed,
                store_bytes,
                journal_bytes,
                disk_free: store.store_dir().and_then(em_core::disk_free),
                degraded,
            })
        })
    }

    /// JSON listing of every known session (resident or evicted). Slots
    /// busy under another connection's edit are listed without detail
    /// rather than blocking.
    pub fn sessions_json(&self) -> String {
        let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
        let mut entries = Vec::new();
        for slot in slots {
            let entry = match slot.state.try_lock() {
                Ok(state) => match &state.store {
                    Some(store) => exec::SessionEntry {
                        name: slot.name.clone(),
                        resident: true,
                        busy: false,
                        rules: store.session().function().n_rules(),
                        matches: store.session().n_matches(),
                        pending: store.session().pending_resume().is_some(),
                    },
                    None => exec::SessionEntry {
                        name: slot.name.clone(),
                        resident: false,
                        busy: false,
                        rules: 0,
                        matches: 0,
                        pending: false,
                    },
                },
                Err(_) => exec::SessionEntry {
                    name: slot.name.clone(),
                    resident: true,
                    busy: true,
                    rules: 0,
                    matches: 0,
                    pending: false,
                },
            };
            entries.push(entry);
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        exec::sessions_json(entries)
    }

    /// Number of sessions currently resident in memory.
    pub fn resident_count(&self) -> usize {
        let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
        slots
            .iter()
            .filter(|s| match s.state.try_lock() {
                Ok(state) => state.store.is_some(),
                Err(_) => true, // busy ⇒ resident
            })
            .count()
    }

    /// Evicts least-recently-used idle sessions to their snapshots until
    /// at most `max_resident` remain resident. `keep` (the session that
    /// triggered the check) is never evicted. Ephemeral managers never
    /// evict — there is no disk to evict to.
    fn evict_over_limit(&self, keep: Option<&str>) {
        if self.store_root.is_none() {
            return;
        }
        loop {
            let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
            // Resident slots, least-recently-used first.
            let mut resident: Vec<&Arc<Slot>> = slots
                .iter()
                .filter(|s| match s.state.try_lock() {
                    Ok(state) => state.store.is_some(),
                    Err(_) => true,
                })
                .collect();
            if resident.len() <= self.max_resident {
                return;
            }
            resident.sort_by_key(|s| s.last_used.load(Ordering::Relaxed));
            let victim = resident.into_iter().find(|s| keep != Some(s.name.as_str()));
            let Some(victim) = victim else { return };
            // A busy victim (edit in flight) is skipped this round; the
            // next command completion re-runs the check.
            let Ok(mut state) = victim.state.try_lock() else {
                return;
            };
            let Some(store) = state.store.as_mut() else {
                continue;
            };
            // An ephemeral slot (a replica on a follower) has no disk to
            // evict to — and every later LRU candidate would be one too,
            // so stop rather than spin.
            if store.store_dir().is_none() {
                return;
            }
            // Fold the journal into a snapshot, then drop the memory and
            // the directory lock. On save failure the session stays
            // resident — losing memory bounds beats losing edits.
            match store.save() {
                Ok(_) => {
                    state.store = None;
                    state.lock = None;
                    crate::obs::server_metrics().evictions.inc();
                    em_metrics::events::emit(
                        "evict",
                        &[("session", em_metrics::events::Field::Str(&victim.name))],
                    );
                }
                Err(_) => return,
            }
        }
    }

    /// Saves every resident durable session (graceful shutdown). Returns
    /// how many saved cleanly.
    pub fn save_all(&self) -> usize {
        let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
        let mut saved = 0;
        for slot in slots {
            let mut state = lock_state(&slot);
            if let Some(store) = state.store.as_mut() {
                if store.store_dir().is_some() && store.save().is_ok() {
                    saved += 1;
                }
            }
        }
        saved
    }

    /// All known session names, sorted (tests and the load harness).
    pub fn session_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry().keys().cloned().collect();
        names.sort();
        names
    }

    // ---- replication: role, replica slots, leader-side shipping ----------

    fn ops(&self) -> MutexGuard<'_, Ops> {
        self.ops.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// This server's replication role.
    pub fn role(&self) -> Role {
        self.ops().role.clone()
    }

    /// Sets the replication role (done once at startup; `promote` flips
    /// it at runtime).
    pub fn set_role(&self, role: Role) {
        self.ops().role = role;
    }

    /// True while this manager replays a leader instead of accepting
    /// mutations.
    pub fn is_follower(&self) -> bool {
        matches!(self.ops().role, Role::Follower { .. })
    }

    /// Wires in the admission queue so `status` can surface shed counts.
    pub fn set_admission(&self, queue: Arc<AdmissionQueue>) {
        self.ops().admission = Some(queue);
    }

    /// The [`Vfs`] durable stores write through.
    fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.ops().vfs)
    }

    /// Swaps the [`Vfs`] every *subsequently opened* store writes through
    /// — the hook fault-injection tests use to make a session's disk
    /// fail. Already-resident stores keep the vfs they were opened with.
    pub fn set_vfs(&self, vfs: Arc<dyn Vfs>) {
        self.ops().vfs = vfs;
    }

    /// A snapshot of the admission counters, when a queue is wired in.
    pub fn admission_snapshot(&self) -> Option<AdmissionSnapshot> {
        let ops = self.ops();
        ops.admission.as_ref().map(|a| a.snapshot())
    }

    /// The replication watermark of a replica session (`None` until its
    /// snapshot bootstrap).
    pub fn replica_watermark(&self, name: &str) -> Option<Watermark> {
        self.ops().replicas.get(name).map(|p| p.watermark)
    }

    /// Records replication progress for a replica session. `behind` is
    /// how many durable frames the leader still holds past the watermark
    /// — the session's replication lag — or `None` right after a
    /// snapshot bootstrap, before any `replicate` round has measured it.
    pub fn set_replica_watermark(&self, name: &str, watermark: Watermark, behind: Option<u64>) {
        self.ops()
            .replicas
            .insert(name.to_string(), ReplicaProgress { watermark, behind });
        if let Some(behind) = behind {
            crate::obs::server_metrics()
                .repl_lag
                .set(i64::try_from(behind).unwrap_or(i64::MAX));
        }
    }

    /// A replica session's replication lag in frames. `None` until the
    /// first `replicate` round against the leader has measured it — a
    /// freshly bootstrapped replica's lag is unknown, not zero.
    pub fn replication_lag(&self, name: &str) -> Option<u64> {
        self.ops().replicas.get(name).and_then(|p| p.behind)
    }

    /// Installs a leader-shipped snapshot, with the history-log frames it
    /// counts, as a fresh *ephemeral* replica session (replacing any
    /// previous incarnation). Replicas stay ephemeral until `promote`
    /// binds them to durable stores — their durability *is* the leader's
    /// journal.
    pub fn install_replica(
        &self,
        name: &str,
        shipment: &SnapshotShipment,
    ) -> Result<(), ServerError> {
        // Validate the name through the same path durable sessions use.
        self.dir_for(name)?;
        let mut session = self.template.fresh();
        install_snapshot_bytes(&mut session, &shipment.snapshot, &shipment.history)
            .map_err(ServerError::Persist)?;
        let slot = Arc::new(Slot {
            name: name.to_string(),
            state: Mutex::new(Resident {
                store: Some(SessionStore::ephemeral(session)),
                lock: None,
            }),
            last_used: AtomicU64::new(0),
        });
        self.registry().insert(name.to_string(), Arc::clone(&slot));
        self.touch(&slot);
        Ok(())
    }

    /// Forgets a replica session (before a snapshot resync).
    pub fn drop_replica(&self, name: &str) {
        self.registry().remove(name);
        self.ops().replicas.remove(name);
    }

    /// Replays leader journal records into a replica session through the
    /// same incremental edit paths recovery uses.
    pub fn apply_replica_records(&self, name: &str, records: &[Edit]) -> Result<(), ServerError> {
        self.with_session(name, |store, _| -> Result<(), ServerError> {
            for rec in records {
                replay_record(store.session_mut(), rec).map_err(ServerError::Persist)?;
            }
            Ok(())
        })?
    }

    /// Leader side of journal shipping: frames of `name`'s on-disk
    /// journal past the watermark `(epoch, idx)`, as a `replicate`
    /// response payload. Works off disk, not memory — every applied edit
    /// is fsync'd before it is applied, so the durable journal is never
    /// behind the session.
    pub fn replicate_json(
        &self,
        name: &str,
        epoch: u64,
        idx: u64,
        max: usize,
        peer: Option<String>,
    ) -> Result<String, ServerError> {
        let dir = self.durable_dir(name)?;
        let from = Watermark { epoch, idx };
        let result = JournalTailer::new(&dir)
            .tail(from, max.max(1))
            .map_err(ServerError::Persist)?;
        if let (Some(peer), em_core::TailResult::Batch(batch)) = (peer, &result) {
            self.note_follower(peer, name, batch.watermark, batch.behind);
        }
        Ok(crate::replica::encode_replicate(from, result))
    }

    /// Records one follower poll (leader side) and refreshes the
    /// worst-follower-lag gauge.
    fn note_follower(&self, peer: String, session: &str, watermark: Watermark, behind: u64) {
        let mut ops = self.ops();
        ops.followers.insert(
            (peer, session.to_string()),
            FollowerProgress {
                watermark,
                behind,
                seen_ms: em_metrics::coarse_ms(),
            },
        );
        let worst = ops.followers.values().map(|f| f.behind).max().unwrap_or(0);
        crate::obs::server_metrics()
            .follower_lag_max
            .set(i64::try_from(worst).unwrap_or(i64::MAX));
    }

    /// The `replicas` verb: on a leader, every follower's `(epoch, idx)`
    /// watermark and measured lag as observed from its `replicate`
    /// polls; on a follower, its own per-session replication progress
    /// against the leader. Sorted by `(peer, session)` for stable
    /// porcelain.
    pub fn replicas_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct ReplicaRow {
            peer: String,
            session: String,
            epoch: u64,
            idx: u64,
            behind: Option<u64>,
            age_ms: Option<u64>,
        }
        #[derive(serde::Serialize)]
        struct ReplicasLine {
            event: String,
            role: String,
            count: usize,
            replicas: Vec<ReplicaRow>,
        }
        let ops = self.ops();
        let now = em_metrics::coarse_ms();
        let (role, mut rows): (&str, Vec<ReplicaRow>) = match &ops.role {
            Role::Leader => (
                "leader",
                ops.followers
                    .iter()
                    .map(|((peer, session), f)| ReplicaRow {
                        peer: peer.clone(),
                        session: session.clone(),
                        epoch: f.watermark.epoch,
                        idx: f.watermark.idx,
                        behind: Some(f.behind),
                        age_ms: Some(now.saturating_sub(f.seen_ms)),
                    })
                    .collect(),
            ),
            Role::Follower { leader } => (
                "follower",
                ops.replicas
                    .iter()
                    .map(|(session, p)| ReplicaRow {
                        peer: leader.clone(),
                        session: session.clone(),
                        epoch: p.watermark.epoch,
                        idx: p.watermark.idx,
                        behind: p.behind,
                        age_ms: None,
                    })
                    .collect(),
            ),
        };
        drop(ops);
        rows.sort_by(|a, b| (&a.peer, &a.session).cmp(&(&b.peer, &b.session)));
        serde_json::to_string(&ReplicasLine {
            event: "replicas".to_string(),
            role: role.to_string(),
            count: rows.len(),
            replicas: rows,
        })
        .expect("ReplicasLine serializes")
    }

    /// Leader side of bootstrap/resync: the named session's newest
    /// on-disk snapshot and the history-log frames it counts,
    /// base64-framed.
    pub fn snapshot_json(&self, name: &str) -> Result<String, ServerError> {
        let dir = self.durable_dir(name)?;
        match JournalTailer::new(&dir)
            .newest_snapshot()
            .map_err(ServerError::Persist)?
        {
            Some(shipment) => {
                // The snapshot and its history ship base64 in ONE
                // response frame; a shipment that cannot fit must be
                // refused with a typed error, not shipped as a frame the
                // client will reject mid-read (`read_frame` hard-fails
                // past MAX_FRAME).
                let (snapshot, history) = (shipment.snapshot.len(), shipment.history.len());
                let b64_len = snapshot.div_ceil(3) * 4 + history.div_ceil(3) * 4;
                const ENVELOPE: usize = 256; // JSON field names, epoch, crcs
                if b64_len + ENVELOPE > crate::proto::MAX_FRAME {
                    return Err(ServerError::TooLarge(format!(
                        "snapshot of {name} is {snapshot} bytes and its history {history} \
                         ({b64_len} base64-encoded), over the {}-byte response frame cap; copy \
                         the store directory or restore from a filesystem backup instead",
                        crate::proto::MAX_FRAME
                    )));
                }
                Ok(crate::replica::encode_snapshot_response(&shipment))
            }
            None => Err(ServerError::Unsupported(format!(
                "no usable snapshot on disk for {name} yet"
            ))),
        }
    }

    /// Runs an integrity scrub over the named session's store directory
    /// — both snapshot generations and every journal CRC frame — and
    /// returns the report as JSON. The session is dropped from residency
    /// first *without* a save (a failing disk is exactly when scrub runs,
    /// and the journal already holds every acked edit) so scrub can take
    /// the directory lock. With `repair`, the newest provably consistent
    /// state is restored on disk; the next `attach` recovers from it.
    pub fn scrub_json(&self, name: &str, repair: bool) -> Result<String, ServerError> {
        let dir = self.durable_dir(name)?;
        if let Some(slot) = self.registry().get(name).cloned() {
            let mut state = lock_state(&slot);
            state.store = None;
            state.lock = None;
        }
        let report = em_core::scrub(&dir, repair).map_err(ServerError::Persist)?;
        #[derive(serde::Serialize)]
        struct ScrubLine {
            event: String,
            dir: String,
            repair: bool,
            findings: Vec<em_core::ScrubFinding>,
            snapshots_valid: Vec<u64>,
            journals_valid: Vec<u64>,
            frames_verified: u64,
            serviceable: bool,
        }
        Ok(serde_json::to_string(&ScrubLine {
            event: "scrub".to_string(),
            dir: report.dir,
            repair: report.repair,
            findings: report.findings,
            snapshots_valid: report.snapshots_valid,
            journals_valid: report.journals_valid,
            frames_verified: report.frames_verified,
            serviceable: report.serviceable,
        })
        .expect("ScrubLine serializes"))
    }

    /// Drain for a planned shutdown: settles every parked edit with the
    /// deadline lifted, folds each durable session's journal into a fresh
    /// snapshot, and releases the store locks — so acked edits are never
    /// lost to a planned restart and the next process can take the locks
    /// immediately. Returns `(sessions, saved, notes)`; a session whose
    /// save fails stays journaled on disk (nothing acked is lost) and is
    /// named in `notes`.
    pub fn drain(&self) -> (usize, usize, Vec<String>) {
        let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
        let mut sessions = 0usize;
        let mut saved = 0usize;
        let mut notes: Vec<String> = Vec::new();
        for slot in slots {
            let mut state = lock_state(&slot);
            let Some(store) = state.store.as_mut() else {
                continue;
            };
            sessions += 1;
            let saved_deadline = store.session().config().deadline;
            store.session_mut().set_deadline(None);
            while store.session().pending_resume().is_some() {
                match store.resume() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        notes.push(format!("{}: settle failed: {e}", slot.name));
                        break;
                    }
                }
            }
            store.session_mut().set_deadline(saved_deadline);
            if store.store_dir().is_none() {
                continue; // ephemeral: nothing durable to fold or unlock
            }
            match store.save() {
                Ok(_) => {
                    saved += 1;
                    state.store = None;
                    state.lock = None;
                }
                Err(e) => notes.push(format!(
                    "{}: save failed: {e} (journal still holds every acked edit)",
                    slot.name
                )),
            }
        }
        em_metrics::events::emit(
            "drain",
            &[
                ("sessions", em_metrics::events::Field::U64(sessions as u64)),
                ("saved", em_metrics::events::Field::U64(saved as u64)),
                ("notes", em_metrics::events::Field::U64(notes.len() as u64)),
            ],
        );
        self.drained.fetch_add(saved, Ordering::Relaxed);
        (sessions, saved, notes)
    }

    /// Sessions saved by every [`SessionManager::drain`] of this manager
    /// so far.
    pub fn saved_by_drains(&self) -> usize {
        self.drained.load(Ordering::Relaxed)
    }

    /// Resolves a session's durable directory or explains why replication
    /// cannot serve it.
    fn durable_dir(&self, name: &str) -> Result<PathBuf, ServerError> {
        let Some(dir) = self.dir_for(name)? else {
            return Err(ServerError::Unsupported(
                "replication needs a durable store (start the leader with --store-root)"
                    .to_string(),
            ));
        };
        if !store_exists(&dir).map_err(ServerError::Persist)? {
            return Err(ServerError::UnknownSession(name.to_string()));
        }
        Ok(dir)
    }

    /// Flips a follower to leader: stops accepting replicated frames
    /// (the replicator thread observes the role change and exits),
    /// settles any parked work, and binds every replica session to a
    /// durable store under this server's own root (when it has one).
    /// Returns the `promoted` payload.
    pub fn promote(&self) -> Result<String, ServerError> {
        let prior = {
            let mut ops = self.ops();
            match std::mem::replace(&mut ops.role, Role::Leader) {
                Role::Leader => {
                    return Err(ServerError::BadRequest("already the leader".to_string()))
                }
                Role::Follower { leader } => {
                    ops.replicas.clear();
                    leader
                }
            }
        };
        let slots: Vec<Arc<Slot>> = self.registry().values().cloned().collect();
        let mut sessions = 0usize;
        let mut durable = 0usize;
        let mut notes: Vec<String> = Vec::new();
        for slot in slots {
            let mut state = lock_state(&slot);
            let Some(store) = state.store.as_mut() else {
                continue;
            };
            sessions += 1;
            // Settle parked work with the deadline lifted, so the new
            // leader starts from a fully applied state.
            let saved_deadline = store.session().config().deadline;
            store.session_mut().set_deadline(None);
            while store.session().pending_resume().is_some() {
                match store.resume() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        notes.push(format!("{}: settle failed: {e}", slot.name));
                        break;
                    }
                }
            }
            store.session_mut().set_deadline(saved_deadline);
            // Bind to a durable store under our own root.
            if store.store_dir().is_some() {
                durable += 1;
                continue;
            }
            let Some(root) = &self.store_root else {
                continue; // stays ephemeral: no root configured
            };
            let dir = match session_store_dir(root, &slot.name) {
                Ok(dir) => dir,
                Err(e) => {
                    notes.push(format!("{}: {e}", slot.name));
                    continue;
                }
            };
            if store_exists(&dir).unwrap_or(false) {
                notes.push(format!(
                    "{}: store directory already exists; staying ephemeral",
                    slot.name
                ));
                continue;
            }
            // Take the directory lock *before* consuming the session, so
            // a lock failure costs nothing.
            let lock = match StoreLock::acquire(&dir) {
                Ok(lock) => lock,
                Err(e) => {
                    notes.push(format!("{}: store lock: {e}; staying ephemeral", slot.name));
                    continue;
                }
            };
            let session = state
                .store
                .take()
                .expect("checked resident above")
                .into_session();
            match SessionStore::create(&dir, session) {
                Ok(new_store) => {
                    state.store = Some(new_store);
                    state.lock = Some(lock);
                    durable += 1;
                }
                Err(e) => {
                    // A hard I/O failure mid-create consumed the session;
                    // the slot is dead and says so.
                    notes.push(format!("{}: durable bind failed: {e}", slot.name));
                }
            }
        }
        #[derive(serde::Serialize)]
        struct Promoted {
            event: String,
            prior_leader: String,
            sessions: usize,
            durable: usize,
            notes: Vec<String>,
        }
        Ok(serde_json::to_string(&Promoted {
            event: "promoted".to_string(),
            prior_leader: prior,
            sessions,
            durable,
            notes,
        })
        .expect("Promoted serializes"))
    }
}

/// Locks a slot's state, recovering from a poisoned mutex: the store
/// layer has its own consistency discipline (write-ahead journal), so a
/// panicked edit leaves the on-disk session recoverable even if the
/// in-memory half is suspect.
fn lock_state(slot: &Slot) -> MutexGuard<'_, Resident> {
    slot.state.lock().unwrap_or_else(|p| p.into_inner())
}

/// The failed [`em_core::DiskOp`]'s name when `e` is (or wraps) a typed
/// disk error — the signal that flips a session into degraded mode.
/// Injected faults count too: the fault harness exists to prove exactly
/// this path.
fn disk_op_of(e: &ServerError) -> Option<String> {
    let persist = match e {
        ServerError::Persist(p) => p,
        ServerError::Session(SessionError::Persist(p)) => p,
        _ => return None,
    };
    match persist {
        PersistError::Disk { op, .. } => Some(op.to_string()),
        _ => None,
    }
}
