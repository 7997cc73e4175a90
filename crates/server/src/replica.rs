//! Journal-shipping replication: the wire codec, the follower's
//! replication thread, and (behind `fault-inject`) network fault
//! injection.
//!
//! ## Topology
//!
//! A *leader* is an ordinary durable `em_server`; it needs no replication
//! code beyond serving two read-only verbs off its store directories:
//! `replicate <session> <epoch> <idx> [max]` ships journal frames past a
//! watermark (via [`em_core::JournalTailer`]), and `snapshot <session>`
//! ships the newest on-disk snapshot, with the history-log frames it
//! counts, for bootstrap/resync. A *follower*
//! (`--follow <leader-addr>`) runs a [`Replicator`] thread that
//! discovers the leader's sessions, bootstraps each from a shipped
//! snapshot, then tails frames and replays them through the session's
//! own incremental edit paths ([`em_core::replay_record`], Algorithms
//! 7–10) — so a follower's derived state (memo, `M(r)`/`U(p)`) is
//! *computed*, not copied, and stays bit-honest with the leader's
//! modulo wall-clock-dependent ordering choices.
//!
//! ## Integrity
//!
//! Every shipped frame carries a CRC32 over its record text. TCP already
//! checksums, but the crc catches leader-side torn reads and (in tests)
//! injected truncation: a bad frame discards the whole batch and the
//! follower simply re-requests from its unchanged watermark — shipping
//! is idempotent because watermarks are positional.
//!
//! ## Failover
//!
//! On connection loss the replicator retries with exponential backoff +
//! jitter. With `--promote-on-loss` (or the `promote` verb) the follower
//! flips to leader: parked work settles, each replica session takes a
//! durable store (and its [`em_core::StoreLock`]) under the follower's
//! own store root, and mutations are accepted from then on.

use crate::client::{Client, ClientError, RetryPolicy, Timeouts};
use crate::manager::SessionManager;
use em_core::persist::crc32;
use em_core::{SnapshotShipment, TailBatch, TailResult, Watermark};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// ---- wire codec -------------------------------------------------------------

/// One shipped journal frame: the record's JSON text plus its CRC32.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct FrameRow {
    /// CRC32 of `rec`'s bytes (same polynomial as the on-disk frames).
    pub crc: u32,
    /// The journal record, as the JSON text the leader journaled.
    pub rec: String,
}

/// Payload of an `ok` response to `replicate`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct ReplicateResponse {
    /// Always `"replicate"`.
    pub event: String,
    /// True when the requested watermark predates the leader's oldest
    /// on-disk journal (or names a diverged timeline): the follower must
    /// resync via `snapshot`. `frames` is empty and the watermark echoes
    /// the request.
    pub resync: bool,
    /// Watermark after consuming `frames` (or the echo, on `resync`).
    pub epoch: u64,
    /// See `epoch`.
    pub idx: u64,
    /// Durable frames the leader still holds past the returned watermark.
    pub behind: u64,
    /// Shipped frames, in journal order.
    pub frames: Vec<FrameRow>,
}

/// Payload of an `ok` response to `snapshot`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SnapshotResponse {
    /// Always `"snapshot"`.
    pub event: String,
    /// The shipped snapshot's epoch; tail from `(epoch, 0)` after
    /// installing it.
    pub epoch: u64,
    /// CRC32 of the raw snapshot bytes.
    pub crc: u32,
    /// The snapshot file, base64-encoded.
    pub bytes: String,
    /// CRC32 of the raw history-log frames.
    pub history_crc: u32,
    /// The history-log frames the snapshot counts, base64-encoded.
    pub history: String,
}

/// Encodes a leader-side [`TailResult`] as a `replicate` response.
pub fn encode_replicate(from: Watermark, result: TailResult) -> String {
    let resp = match result {
        TailResult::Batch(TailBatch {
            frames,
            watermark,
            behind,
        }) => ReplicateResponse {
            event: "replicate".to_string(),
            resync: false,
            epoch: watermark.epoch,
            idx: watermark.idx,
            behind,
            frames: frames
                .into_iter()
                .map(|payload| {
                    let rec = String::from_utf8_lossy(&payload).into_owned();
                    FrameRow {
                        crc: crc32(rec.as_bytes()),
                        rec,
                    }
                })
                .collect(),
        },
        TailResult::TooOld { .. } => ReplicateResponse {
            event: "replicate".to_string(),
            resync: true,
            epoch: from.epoch,
            idx: from.idx,
            behind: 0,
            frames: Vec::new(),
        },
    };
    serde_json::to_string(&resp).expect("ReplicateResponse serializes")
}

/// Encodes a snapshot shipment.
pub fn encode_snapshot_response(shipment: &SnapshotShipment) -> String {
    serde_json::to_string(&SnapshotResponse {
        event: "snapshot".to_string(),
        epoch: shipment.epoch,
        crc: crc32(&shipment.snapshot),
        bytes: b64_encode(&shipment.snapshot),
        history_crc: crc32(&shipment.history),
        history: b64_encode(&shipment.history),
    })
    .expect("SnapshotResponse serializes")
}

/// Decodes and integrity-checks a `replicate` response. A frame whose
/// CRC does not match its text fails the whole batch — the caller
/// re-requests from its unchanged watermark.
pub fn decode_replicate(payload: &str) -> Result<ReplicateResponse, String> {
    let resp: ReplicateResponse =
        serde_json::from_str(payload).map_err(|e| format!("replicate response: {e}"))?;
    for (i, row) in resp.frames.iter().enumerate() {
        if crc32(row.rec.as_bytes()) != row.crc {
            return Err(format!(
                "replicate frame {i}: crc mismatch (torn or corrupted in transit)"
            ));
        }
    }
    Ok(resp)
}

/// Decodes and integrity-checks a `snapshot` response into raw bytes.
pub fn decode_snapshot_response(payload: &str) -> Result<SnapshotShipment, String> {
    let resp: SnapshotResponse =
        serde_json::from_str(payload).map_err(|e| format!("snapshot response: {e}"))?;
    let snapshot = b64_decode(&resp.bytes)?;
    let history = b64_decode(&resp.history)?;
    if crc32(&snapshot) != resp.crc || crc32(&history) != resp.history_crc {
        return Err("snapshot shipment: crc mismatch".to_string());
    }
    Ok(SnapshotShipment {
        epoch: resp.epoch,
        snapshot,
        history,
    })
}

// ---- base64 (dependency-free; snapshots ride inside JSON frames) ------------

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let idx = [(n >> 18) & 63, (n >> 12) & 63, (n >> 6) & 63, n & 63];
        out.push(B64_ALPHABET[idx[0] as usize] as char);
        out.push(B64_ALPHABET[idx[1] as usize] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[idx[2] as usize] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[idx[3] as usize] as char
        } else {
            '='
        });
    }
    out
}

/// Inverse of [`b64_encode`].
pub fn b64_decode(s: &str) -> Result<Vec<u8>, String> {
    fn val(c: u8) -> Result<u32, String> {
        match c {
            b'A'..=b'Z' => Ok(u32::from(c - b'A')),
            b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("base64: bad character {:?}", c as char)),
        }
    }
    let s = s.trim_end_matches('=').as_bytes();
    let mut out = Vec::with_capacity(s.len() * 3 / 4);
    for chunk in s.chunks(4) {
        if chunk.len() == 1 {
            return Err("base64: dangling character".to_string());
        }
        let mut n = 0u32;
        for &c in chunk {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * (4 - chunk.len() as u32);
        out.push((n >> 16) as u8);
        if chunk.len() > 2 {
            out.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

// ---- network fault injection ------------------------------------------------

/// One-shot network faults on the follower's replication stream, armed by
/// countdown: drop the `n`-th replicate response entirely (as a transport
/// error), delay it, or truncate its payload mid-frame so the CRC check
/// trips. Only compiled with `--features fault-inject`.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Default)]
pub struct NetFaultPlan {
    drop_after: std::sync::atomic::AtomicI64,
    delay_after: std::sync::atomic::AtomicI64,
    delay_ms: std::sync::atomic::AtomicU64,
    truncate_after: std::sync::atomic::AtomicI64,
    truncate_keep: std::sync::atomic::AtomicU64,
    fired: std::sync::atomic::AtomicU64,
}

#[cfg(feature = "fault-inject")]
impl NetFaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Self {
        let plan = NetFaultPlan::default();
        plan.drop_after.store(-1, Ordering::Relaxed);
        plan.delay_after.store(-1, Ordering::Relaxed);
        plan.truncate_after.store(-1, Ordering::Relaxed);
        plan
    }

    /// Drop the `nth` (0-based) replicate response.
    pub fn with_drop(self, nth: i64) -> Self {
        self.drop_after.store(nth, Ordering::Relaxed);
        self
    }

    /// Delay the `nth` replicate response by `ms` milliseconds.
    pub fn with_delay(self, nth: i64, ms: u64) -> Self {
        self.delay_after.store(nth, Ordering::Relaxed);
        self.delay_ms.store(ms, Ordering::Relaxed);
        self
    }

    /// Truncate the `nth` replicate response payload to `keep` bytes.
    pub fn with_truncate(self, nth: i64, keep: u64) -> Self {
        self.truncate_after.store(nth, Ordering::Relaxed);
        self.truncate_keep.store(keep, Ordering::Relaxed);
        self
    }

    /// Faults that have fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Consults the plan for one replicate response; may mutate the
    /// payload (truncate), sleep (delay), or demand a drop.
    fn on_response(&self, payload: &mut String) -> bool {
        let hit = |ctr: &std::sync::atomic::AtomicI64| -> bool {
            // Count down; fire exactly when the counter passes zero.
            let prev = ctr.fetch_sub(1, Ordering::Relaxed);
            if prev == 0 {
                self.fired.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        if hit(&self.drop_after) {
            return true;
        }
        if hit(&self.delay_after) {
            thread::sleep(Duration::from_millis(self.delay_ms.load(Ordering::Relaxed)));
        }
        if hit(&self.truncate_after) {
            let keep = (self.truncate_keep.load(Ordering::Relaxed) as usize).min(payload.len());
            // Truncate on a char boundary at or below `keep`.
            let mut cut = keep;
            while cut > 0 && !payload.is_char_boundary(cut) {
                cut -= 1;
            }
            payload.truncate(cut);
        }
        false
    }
}

// ---- the follower's replication thread --------------------------------------

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowerOpts {
    /// Leader address (`host:port`).
    pub leader: String,
    /// Poll interval while caught up.
    pub poll: Duration,
    /// Max frames per `replicate` request.
    pub batch: usize,
    /// Flip to leader when the leader stays unreachable past the retry
    /// policy (otherwise the follower retries forever).
    pub promote_on_loss: bool,
    /// Backoff policy for leader loss.
    pub retry: RetryPolicy,
    /// Client timeouts toward the leader.
    pub timeouts: Timeouts,
}

impl FollowerOpts {
    /// Defaults for a leader address.
    pub fn new(leader: impl Into<String>) -> Self {
        FollowerOpts {
            leader: leader.into(),
            poll: Duration::from_millis(50),
            batch: 256,
            promote_on_loss: false,
            retry: RetryPolicy::default(),
            timeouts: Timeouts {
                connect: Some(Duration::from_secs(5)),
                read: Some(Duration::from_secs(10)),
            },
        }
    }
}

/// Handle on the follower's replication thread.
pub struct Replicator {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Replicator {
    /// Spawns the replication loop against `manager` (whose role must be
    /// `Follower`). The loop exits when stopped, when the manager's role
    /// flips to leader (e.g. via `promote`), or — with `promote_on_loss`
    /// — after promoting a lost leader's follower itself.
    pub fn spawn(
        manager: Arc<SessionManager>,
        opts: FollowerOpts,
        #[cfg(feature = "fault-inject")] faults: Option<Arc<NetFaultPlan>>,
    ) -> Replicator {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("em-server-replicator".to_string())
                .spawn(move || {
                    replication_loop(
                        &manager,
                        &opts,
                        &stop,
                        #[cfg(feature = "fault-inject")]
                        faults,
                    )
                })
                .ok()
        };
        Replicator { stop, thread }
    }

    /// Signals the loop to exit and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn replication_loop(
    manager: &Arc<SessionManager>,
    opts: &FollowerOpts,
    stop: &AtomicBool,
    #[cfg(feature = "fault-inject")] faults: Option<Arc<NetFaultPlan>>,
) {
    let mut client: Option<Client> = None;
    let mut failures: u32 = 0;
    while !stop.load(Ordering::Acquire) && manager.is_follower() {
        // (Re)connect with backoff + jitter.
        if client.is_none() {
            match Client::connect_with(&opts.leader as &str, opts.timeouts) {
                Ok(c) => {
                    client = Some(c);
                    failures = 0;
                }
                Err(_) => {
                    failures = failures.saturating_add(1);
                    if failures >= opts.retry.max_attempts && opts.promote_on_loss {
                        let _ = manager.promote();
                        return;
                    }
                    // Back off (capped), then retry; interruptible.
                    let delay = opts.retry.delay(failures.min(16));
                    sleep_interruptible(delay, stop);
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");

        match replication_cycle(
            manager,
            opts,
            c,
            #[cfg(feature = "fault-inject")]
            faults.as_deref(),
        ) {
            Ok(()) => {
                failures = 0;
                sleep_interruptible(opts.poll, stop);
            }
            Err(CycleError::Transport) => {
                client = None;
                crate::obs::server_metrics().repl_reconnects.inc();
                em_metrics::events::emit(
                    "replica_reconnect",
                    &[("leader", em_metrics::events::Field::Str(&opts.leader))],
                );
            }
            Err(CycleError::Protocol(_)) => {
                // A refused verb or malformed payload: not a dead leader.
                // Stay connected and retry after a poll tick; the CRC
                // path (torn batch) lands here too.
                sleep_interruptible(opts.poll, stop);
            }
        }
    }
}

enum CycleError {
    /// The connection to the leader died.
    Transport,
    /// The leader answered, but unusably (refusal, bad payload).
    #[allow(dead_code)]
    Protocol(String),
}

impl From<ClientError> for CycleError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Refused(m) => CycleError::Protocol(m),
            ClientError::Timeout { .. } | ClientError::Io(_) => CycleError::Transport,
        }
    }
}

/// One discovery + catch-up pass over every leader session.
fn replication_cycle(
    manager: &Arc<SessionManager>,
    opts: &FollowerOpts,
    c: &mut Client,
    #[cfg(feature = "fault-inject")] faults: Option<&NetFaultPlan>,
) -> Result<(), CycleError> {
    // Discover the leader's sessions from its `sessions` listing.
    let listing = c.expect_ok("sessions")?;
    let names: Vec<String> = listing
        .lines()
        .skip(1) // header row
        .filter_map(|line| {
            serde_json::from_str::<crate::exec::SessionEntry>(line)
                .ok()
                .map(|e| e.name)
        })
        .collect();

    for name in names {
        if !manager.is_follower() {
            return Ok(());
        }
        // Bootstrap a session we have not seen: install the leader's
        // newest snapshot, then tail from its epoch.
        if manager.replica_watermark(&name).is_none() {
            bootstrap_replica(manager, c, &name)?;
        }
        // Catch up: pull frame batches until the leader reports none
        // behind.
        while let Some(wm) = manager.replica_watermark(&name) {
            let line = format!("replicate {name} {} {} {}", wm.epoch, wm.idx, opts.batch);
            let (ok, payload) = c.request(&line).map_err(CycleError::from)?;
            #[allow(unused_mut)]
            let mut payload = payload;
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = faults {
                if ok && plan.on_response(&mut payload) {
                    // Injected drop: behave exactly like a dead transport.
                    c.shutdown();
                    return Err(CycleError::Transport);
                }
            }
            if !ok {
                return Err(CycleError::Protocol(payload));
            }
            let resp = match decode_replicate(&payload) {
                Ok(resp) => resp,
                Err(m) => {
                    // Torn/corrupt batch: watermark unchanged, re-request
                    // next cycle.
                    return Err(CycleError::Protocol(m));
                }
            };
            if resp.resync {
                // Fell behind compaction (or diverged): rebuild from a
                // fresh snapshot.
                note_resync(&name, "compacted");
                manager.drop_replica(&name);
                bootstrap_replica(manager, c, &name)?;
                continue;
            }
            let n = resp.frames.len();
            if n > 0 {
                let records: Result<Vec<_>, _> = resp
                    .frames
                    .iter()
                    .map(|row| em_core::decode_record(row.rec.as_bytes()))
                    .collect();
                let records = match records {
                    Ok(r) => r,
                    Err(e) => return Err(CycleError::Protocol(e.to_string())),
                };
                if manager.apply_replica_records(&name, &records).is_err() {
                    // Replay failure is divergence: resync from snapshot.
                    note_resync(&name, "diverged");
                    manager.drop_replica(&name);
                    bootstrap_replica(manager, c, &name)?;
                    continue;
                }
            }
            manager.set_replica_watermark(
                &name,
                Watermark {
                    epoch: resp.epoch,
                    idx: resp.idx,
                },
                Some(resp.behind),
            );
            if resp.behind == 0 {
                break;
            }
        }
    }
    Ok(())
}

/// Counts one snapshot resync and emits its structured event.
fn note_resync(session: &str, reason: &str) {
    crate::obs::server_metrics().repl_resyncs.inc();
    em_metrics::events::emit(
        "replica_resync",
        &[
            ("session", em_metrics::events::Field::Str(session)),
            ("reason", em_metrics::events::Field::Str(reason)),
        ],
    );
}

/// Fetches and installs the leader's newest snapshot for `name`.
fn bootstrap_replica(
    manager: &Arc<SessionManager>,
    c: &mut Client,
    name: &str,
) -> Result<(), CycleError> {
    let payload = c.expect_ok(&format!("snapshot {name}"))?;
    let shipment = decode_snapshot_response(&payload).map_err(CycleError::Protocol)?;
    manager
        .install_replica(name, &shipment)
        .map_err(|e| CycleError::Protocol(e.to_string()))?;
    let epoch = shipment.epoch;
    // Lag is deliberately *unknown* here, not zero: the snapshot may be
    // generations behind the leader's journal, and the caller's next
    // `replicate` round is what measures the real distance. Claiming
    // zero would let a `status` poll observe `"lag":0` against a replica
    // that has applied nothing yet.
    manager.set_replica_watermark(name, Watermark { epoch, idx: 0 }, None);
    Ok(())
}

fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let step = Duration::from_millis(20);
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Acquire) {
        let d = left.min(step);
        thread::sleep(d);
        left = left.saturating_sub(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::Watermark;

    #[test]
    fn base64_roundtrips() {
        for bytes in [
            &b""[..],
            b"a",
            b"ab",
            b"abc",
            b"abcd",
            b"\x00\xff\x7f\x80",
            b"the quick brown fox",
        ] {
            let enc = b64_encode(bytes);
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "{enc}");
        }
        assert_eq!(b64_encode(b"abc"), "YWJj");
        assert_eq!(b64_encode(b"ab"), "YWI=");
        assert!(b64_decode("Y!Jj").is_err());
    }

    #[test]
    fn replicate_codec_roundtrips_and_checks_crc() {
        let frames = vec![b"{\"AddRule\":{}}".to_vec(), b"{\"Undo\":null}".to_vec()];
        let payload = encode_replicate(
            Watermark::ZERO,
            TailResult::Batch(TailBatch {
                frames,
                watermark: Watermark { epoch: 2, idx: 7 },
                behind: 3,
            }),
        );
        let resp = decode_replicate(&payload).unwrap();
        assert!(!resp.resync);
        assert_eq!((resp.epoch, resp.idx, resp.behind), (2, 7, 3));
        assert_eq!(resp.frames.len(), 2);
        assert_eq!(resp.frames[0].rec, "{\"AddRule\":{}}");

        // Truncation trips the decode, not a silent partial apply.
        let cut = &payload[..payload.len() - 10];
        assert!(decode_replicate(cut).is_err());

        // A flipped byte inside a record trips the per-frame crc.
        let tampered = payload.replace("Undo", "Redo");
        assert!(decode_replicate(&tampered).is_err());
    }

    #[test]
    fn too_old_encodes_as_resync_echoing_watermark() {
        let payload = encode_replicate(
            Watermark { epoch: 1, idx: 9 },
            TailResult::TooOld { oldest: 4 },
        );
        let resp = decode_replicate(&payload).unwrap();
        assert!(resp.resync);
        assert_eq!((resp.epoch, resp.idx), (1, 9));
        assert!(resp.frames.is_empty());
    }

    #[test]
    fn snapshot_codec_roundtrips() {
        let shipment = SnapshotShipment {
            epoch: 5,
            snapshot: (0..=255u8).collect(),
            history: b"frames".to_vec(),
        };
        let payload = encode_snapshot_response(&shipment);
        assert_eq!(decode_snapshot_response(&payload).unwrap(), shipment);

        // Damage to either part fails the shipment.
        let tampered = payload.replace(&b64_encode(b"frames"), &b64_encode(b"framez"));
        assert!(decode_snapshot_response(&tampered).is_err());
    }
}
