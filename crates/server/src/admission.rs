//! Graceful degradation: fair-share command admission.
//!
//! PR 5's only overload defense was a hard connection cap — client 65 got
//! a `busy` refusal even if the other 64 were idle. This module replaces
//! that with *queueing and shedding at the command level*:
//!
//! * every connection registers a [`ConnQueue`]; commands become tickets
//!   in a per-connection FIFO;
//! * a small worker pool drains tickets **round-robin across
//!   connections** — one greedy client cannot starve the rest, because
//!   each rotation takes at most one of its commands;
//! * an optional per-connection **token bucket** delays (not refuses) a
//!   client that bursts past its rate, pushing its tickets' eligibility
//!   into the future;
//! * tickets that sit past the queue budget are **shed by deadline** with
//!   a typed `overloaded` error carrying a retry-after hint — the bounded
//!   queue degrades into increased latency first and explicit shedding
//!   second, never into silent refusals.
//!
//! Connection handler threads are closed-loop (one in-flight command
//! each), so the per-connection queues hold at most one ticket and total
//! queue depth is bounded by the connection count; the explicit
//! `queue_capacity` is a second line of defense for embedders that
//! pipeline.

use crate::error::ServerError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Per-connection token-bucket rate limit.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Sustained commands per second one connection may issue.
    pub per_sec: f64,
    /// Burst allowance (bucket capacity), in commands.
    pub burst: f64,
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Worker threads executing queued commands.
    pub workers: usize,
    /// Hard bound on queued tickets across all connections.
    pub queue_capacity: usize,
    /// How long a ticket may wait (queueing + throttle delay) before it
    /// is shed with `overloaded`.
    pub queue_budget: Duration,
    /// Optional per-connection token bucket; `None` relies on round-robin
    /// fairness alone.
    pub rate: Option<RateLimit>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            workers: 4,
            queue_capacity: 4096,
            queue_budget: Duration::from_secs(5),
            rate: None,
        }
    }
}

/// Monotonic counters describing what admission control has done.
///
/// Backed by `em_metrics` instruments so one queue's counters can be
/// registered into the process-global exposition and remain the *single*
/// source for both `status` and `metrics` — the two surfaces read the
/// same atomics and can never disagree.
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    /// Tickets accepted into the queue.
    pub admitted: Arc<em_metrics::Counter>,
    /// Tickets whose job ran to completion.
    pub executed: Arc<em_metrics::Counter>,
    /// Tickets shed (deadline passed in queue, queue full, or shutdown).
    pub shed: Arc<em_metrics::Counter>,
    /// Tickets whose eligibility the token bucket pushed into the future.
    pub throttled: Arc<em_metrics::Counter>,
    /// Time tickets spent queued before executing or being shed.
    pub queue_wait_ns: Arc<em_metrics::Histogram>,
    /// Tickets queued right now (mirrors the queue's `total_queued`).
    pub depth: Arc<em_metrics::Gauge>,
}

/// A point-in-time snapshot of [`AdmissionCounters`] plus queue depth.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct AdmissionSnapshot {
    /// Tickets accepted into the queue so far.
    pub admitted: u64,
    /// Tickets executed so far.
    pub executed: u64,
    /// Tickets shed so far.
    pub shed: u64,
    /// Tickets delayed by the token bucket so far.
    pub throttled: u64,
    /// Tickets queued right now.
    pub depth: u64,
}

/// A queued command: runs on a worker thread, yields the response
/// payload.
pub type Job = Box<dyn FnOnce() -> Result<String, ServerError> + Send>;

struct Ticket {
    job: Job,
    tx: mpsc::Sender<Result<String, ServerError>>,
    enqueued: Instant,
    not_before: Instant,
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

#[derive(Default)]
struct Conn {
    queue: VecDeque<Ticket>,
    bucket: Option<Bucket>,
}

struct State {
    conns: HashMap<u64, Conn>,
    /// Round-robin rotation: registration order, scanned from `cursor`.
    order: Vec<u64>,
    cursor: usize,
    total_queued: usize,
    closed: bool,
}

struct Inner {
    config: AdmissionConfig,
    state: Mutex<State>,
    /// Signaled when a ticket lands or the queue closes.
    work: Condvar,
    counters: AdmissionCounters,
}

/// The shared admission queue: owns the worker pool.
pub struct AdmissionQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// One connection's handle into the queue; dropping it deregisters the
/// connection (pending tickets are still drained).
pub struct ConnQueue {
    inner: Arc<Inner>,
    id: u64,
}

impl AdmissionQueue {
    /// Builds the queue and spawns its workers.
    pub fn new(config: AdmissionConfig) -> AdmissionQueue {
        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(State {
                conns: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                total_queued: 0,
                closed: false,
            }),
            work: Condvar::new(),
            counters: AdmissionCounters::default(),
        });
        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let inner = Arc::clone(&inner);
            if let Ok(h) = thread::Builder::new()
                .name(format!("em-server-worker-{i}"))
                .spawn(move || worker_loop(&inner))
            {
                workers.push(h);
            }
        }
        AdmissionQueue {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Registers a connection for fair-share scheduling.
    pub fn register(&self) -> ConnQueue {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut state = lock(&self.inner.state);
        state.conns.insert(
            id,
            Conn {
                queue: VecDeque::new(),
                bucket: self.inner.config.rate.map(|r| Bucket {
                    tokens: r.burst.max(1.0),
                    refilled: Instant::now(),
                }),
            },
        );
        state.order.push(id);
        ConnQueue {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Current counters + queue depth, read from the same instruments
    /// the metrics exposition serves.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let depth = lock(&self.inner.state).total_queued as u64;
        let c = &self.inner.counters;
        AdmissionSnapshot {
            admitted: c.admitted.get(),
            executed: c.executed.get(),
            shed: c.shed.get(),
            throttled: c.throttled.get(),
            depth,
        }
    }

    /// The queue's instruments, for registration into the global metrics
    /// registry (see `serve`).
    pub fn counters(&self) -> &AdmissionCounters {
        &self.inner.counters
    }

    /// Closes the queue (pending tickets are shed) and joins the workers.
    pub fn shutdown(&self) {
        {
            let mut state = lock(&self.inner.state);
            state.closed = true;
        }
        self.inner.work.notify_all();
        let mut workers = lock(&self.workers);
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for AdmissionQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ConnQueue {
    /// Submits one command and blocks until it executed or was shed,
    /// calling `on_tick` each time `tick` passes without an answer — the
    /// connection thread's chance to check on its client while a worker
    /// runs the command. Fair-share scheduling means the wait is bounded
    /// by the queue budget plus one command's execution time on a worker.
    pub fn run(
        &self,
        job: Job,
        tick: Duration,
        mut on_tick: impl FnMut(),
    ) -> Result<String, ServerError> {
        let budget = self.inner.config.queue_budget;
        let (tx, rx) = mpsc::channel();
        {
            let mut state = lock(&self.inner.state);
            if state.closed {
                return Err(ServerError::Busy("server is shutting down".into()));
            }
            if state.total_queued >= self.inner.config.queue_capacity {
                self.inner.counters.shed.inc();
                return Err(ServerError::Overloaded {
                    queued_ms: 0,
                    retry_after_ms: retry_after_ms(budget),
                });
            }
            let now = Instant::now();
            let conn = state
                .conns
                .get_mut(&self.id)
                .expect("registered connection");
            let not_before = match (&mut conn.bucket, self.inner.config.rate) {
                (Some(bucket), Some(rate)) => {
                    let elapsed = now.duration_since(bucket.refilled).as_secs_f64();
                    bucket.tokens = (bucket.tokens + elapsed * rate.per_sec).min(rate.burst);
                    bucket.refilled = now;
                    bucket.tokens -= 1.0;
                    if bucket.tokens >= 0.0 {
                        now
                    } else {
                        self.inner.counters.throttled.inc();
                        now + Duration::from_secs_f64(-bucket.tokens / rate.per_sec)
                    }
                }
                _ => now,
            };
            conn.queue.push_back(Ticket {
                job,
                tx,
                enqueued: now,
                not_before,
            });
            state.total_queued += 1;
            self.inner.counters.admitted.inc();
            self.inner.counters.depth.set(state.total_queued as i64);
        }
        self.inner.work.notify_one();
        loop {
            match rx.recv_timeout(tick) {
                Ok(result) => return result,
                Err(mpsc::RecvTimeoutError::Timeout) => on_tick(),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ServerError::Busy(
                        "command dropped during server shutdown".into(),
                    ))
                }
            }
        }
    }
}

impl Drop for ConnQueue {
    fn drop(&mut self) {
        let mut state = lock(&self.inner.state);
        // Leave any queued tickets where they are — workers still drain
        // them (the closed-loop handler cannot actually have one in
        // flight while dropping, but embedders might).
        if let Some(conn) = state.conns.get(&self.id) {
            if conn.queue.is_empty() {
                state.conns.remove(&self.id);
                state.order.retain(|&c| c != self.id);
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The retry-after hint: a fraction of the queue budget, floored so
/// clients never busy-spin.
fn retry_after_ms(budget: Duration) -> u64 {
    (budget.as_millis() as u64 / 4).max(50)
}

fn worker_loop(inner: &Inner) {
    let budget = inner.config.queue_budget;
    let mut state = lock(&inner.state);
    loop {
        let now = Instant::now();
        // Round-robin scan from the cursor for an eligible ticket.
        let mut picked: Option<Ticket> = None;
        let mut next_eligible: Option<Instant> = None;
        let n = state.order.len();
        for step in 0..n {
            let pos = (state.cursor + step) % n;
            let id = state.order[pos];
            let Some(conn) = state.conns.get_mut(&id) else {
                continue;
            };
            let Some(front) = conn.queue.front() else {
                continue;
            };
            if front.not_before <= now {
                picked = conn.queue.pop_front();
                state.total_queued -= 1;
                inner.counters.depth.set(state.total_queued as i64);
                state.cursor = (pos + 1) % n;
                break;
            }
            next_eligible = Some(match next_eligible {
                Some(t) => t.min(front.not_before),
                None => front.not_before,
            });
        }

        match picked {
            Some(ticket) => {
                let closed = state.closed;
                drop(state);
                let waited = ticket.enqueued.elapsed();
                inner.counters.queue_wait_ns.record_duration(waited);
                if closed || waited > budget {
                    inner.counters.shed.inc();
                    let _ = ticket.tx.send(Err(ServerError::Overloaded {
                        queued_ms: waited.as_millis() as u64,
                        retry_after_ms: retry_after_ms(budget),
                    }));
                } else {
                    // A panicking job must not kill the worker; the
                    // session layer's own quarantine makes this path
                    // cold.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(ticket.job))
                        .unwrap_or_else(|_| Err(ServerError::Busy("command panicked".into())));
                    inner.counters.executed.inc();
                    let _ = ticket.tx.send(result);
                }
                state = lock(&inner.state);
            }
            None => {
                if state.closed && state.total_queued == 0 {
                    return;
                }
                // Sleep until the earliest throttled ticket matures, new
                // work arrives, or a poll tick passes (covers shutdown).
                let wait = next_eligible
                    .map(|t| t.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(100))
                    .min(Duration::from_millis(100));
                let (s, _) = inner
                    .work
                    .wait_timeout(state, wait.max(Duration::from_millis(1)))
                    .unwrap_or_else(|p| {
                        let (g, t) = p.into_inner();
                        (g, t)
                    });
                state = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn queue(config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue::new(config)
    }

    /// Runs `job` on `conn` with nothing to do between ticks.
    fn run(conn: &ConnQueue, job: Job) -> Result<String, ServerError> {
        conn.run(job, Duration::from_millis(10), || {})
    }

    #[test]
    fn ticks_while_a_worker_runs_the_job() {
        let q = queue(AdmissionConfig::default());
        let conn = q.register();
        let mut ticks = 0;
        let job: Job = Box::new(|| {
            thread::sleep(Duration::from_millis(100));
            Ok("slow".into())
        });
        let out = conn.run(job, Duration::from_millis(10), || ticks += 1);
        assert_eq!(out.unwrap(), "slow");
        assert!(ticks >= 2, "{ticks} ticks in a 100 ms job at 10 ms");
        let out = conn.run(
            Box::new(|| Ok("fast".into())),
            Duration::from_secs(60),
            || panic!("a job answered at once must not tick"),
        );
        assert_eq!(out.unwrap(), "fast");
    }

    #[test]
    fn runs_jobs_and_counts() {
        let q = queue(AdmissionConfig {
            workers: 2,
            ..AdmissionConfig::default()
        });
        let conn = q.register();
        let out = run(&conn, Box::new(|| Ok("done".to_string()))).unwrap();
        assert_eq!(out, "done");
        let snap = q.snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.shed, 0);
        q.shutdown();
    }

    #[test]
    fn many_connections_all_admitted_none_refused() {
        // 64 closed-loop clients against 2 workers: everything queues,
        // nothing is refused — the acceptance criterion in miniature.
        let q = Arc::new(queue(AdmissionConfig {
            workers: 2,
            queue_budget: Duration::from_secs(30),
            ..AdmissionConfig::default()
        }));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..64 {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                let conn = q.register();
                for _ in 0..3 {
                    let out = run(&conn, Box::new(|| Ok("ok".to_string())))
                        .expect("no refusals under fair admission");
                    assert_eq!(out, "ok");
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 64 * 3);
        let snap = q.snapshot();
        assert_eq!(snap.executed, 64 * 3);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn round_robin_interleaves_a_greedy_connection() {
        // One worker; connection A floods 6 jobs (pipelined via threads),
        // connection B submits 1. B must not wait for all of A.
        let q = Arc::new(queue(AdmissionConfig {
            workers: 1,
            queue_budget: Duration::from_secs(30),
            ..AdmissionConfig::default()
        }));
        let order = Arc::new(Mutex::new(Vec::new()));
        let conn_a = Arc::new(q.register());
        let conn_b = q.register();

        // Stall the worker so A's flood queues up behind the stall.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            let conn_a = Arc::clone(&conn_a);
            thread::spawn(move || {
                run(
                    &conn_a,
                    Box::new(move || {
                        let (m, cv) = &*gate;
                        let mut open = lock(m);
                        while !*open {
                            open = cv.wait(open).unwrap_or_else(|p| p.into_inner());
                        }
                        Ok("stall".into())
                    }),
                )
                .unwrap();
            });
        }
        thread::sleep(Duration::from_millis(50));

        let mut floods = Vec::new();
        for i in 0..4 {
            let conn_a = Arc::clone(&conn_a);
            let order = Arc::clone(&order);
            floods.push(thread::spawn(move || {
                run(
                    &conn_a,
                    Box::new(move || {
                        lock(&order).push(format!("a{i}"));
                        Ok("a".into())
                    }),
                )
                .unwrap();
            }));
        }
        thread::sleep(Duration::from_millis(50));
        let order_b = Arc::clone(&order);
        let b = thread::spawn(move || {
            run(
                &conn_b,
                Box::new(move || {
                    lock(&order_b).push("b".to_string());
                    Ok("b".into())
                }),
            )
            .unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        for h in floods {
            h.join().unwrap();
        }
        b.join().unwrap();
        let order = lock(&order).clone();
        let b_pos = order.iter().position(|s| s == "b").expect("b ran");
        assert!(
            b_pos <= 1,
            "round-robin must run b after at most one of a's queued jobs, got {order:?}"
        );
    }

    #[test]
    fn deadline_sheds_with_retry_hint() {
        let q = queue(AdmissionConfig {
            workers: 1,
            queue_budget: Duration::from_millis(50),
            ..AdmissionConfig::default()
        });
        let conn = Arc::new(q.register());
        // Occupy the only worker well past the budget.
        let blocker = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                run(
                    &conn,
                    Box::new(|| {
                        thread::sleep(Duration::from_millis(300));
                        Ok("slow".into())
                    }),
                )
            })
        };
        thread::sleep(Duration::from_millis(30));
        let err =
            run(&conn, Box::new(|| Ok("too late".into()))).expect_err("must shed after the budget");
        match err {
            ServerError::Overloaded {
                queued_ms,
                retry_after_ms,
            } => {
                assert!(queued_ms >= 50, "waited {queued_ms} ms");
                assert!(retry_after_ms >= 50);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(q.snapshot().shed, 1);
        blocker.join().unwrap().unwrap();
    }

    #[test]
    fn token_bucket_delays_but_still_executes() {
        let q = queue(AdmissionConfig {
            workers: 2,
            queue_budget: Duration::from_secs(10),
            rate: Some(RateLimit {
                per_sec: 50.0,
                burst: 1.0,
            }),
            ..AdmissionConfig::default()
        });
        let conn = q.register();
        let t0 = Instant::now();
        for _ in 0..4 {
            run(&conn, Box::new(|| Ok("ok".into()))).unwrap();
        }
        // Burst 1 + 3 throttled at 50/s ⇒ at least ~60 ms of shaping.
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "bucket must shape the burst, took {:?}",
            t0.elapsed()
        );
        let snap = q.snapshot();
        assert_eq!(snap.executed, 4);
        assert_eq!(snap.shed, 0);
        assert!(snap.throttled >= 2, "snap: {snap:?}");
    }

    #[test]
    fn queue_capacity_refuses_with_overloaded_not_busy() {
        let q = queue(AdmissionConfig {
            workers: 1,
            queue_capacity: 1,
            queue_budget: Duration::from_secs(10),
            ..AdmissionConfig::default()
        });
        let conn = Arc::new(q.register());
        let blocker = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                run(
                    &conn,
                    Box::new(|| {
                        thread::sleep(Duration::from_millis(200));
                        Ok("slow".into())
                    }),
                )
            })
        };
        thread::sleep(Duration::from_millis(50));
        // Worker holds ticket 1; ticket 2 fills the capacity-1 queue.
        let conn2 = Arc::clone(&conn);
        let queued = thread::spawn(move || run(&conn2, Box::new(|| Ok("q".into()))));
        thread::sleep(Duration::from_millis(50));
        let err =
            run(&conn, Box::new(|| Ok("no room".into()))).expect_err("capacity overflow must shed");
        assert!(matches!(err, ServerError::Overloaded { .. }), "got {err}");
        blocker.join().unwrap().unwrap();
        queued.join().unwrap().unwrap();
    }
}
