//! Pluggable execution layer: every engine and incremental algorithm takes
//! an [`Executor`] that decides whether pair-parallel work runs inline or
//! on a reusable worker pool.
//!
//! The pool keeps its threads alive across calls (the interactive loop of
//! §6 submits many small batches), dispatches borrowed closures without
//! cloning any input, and propagates worker panics to the submitting
//! thread. The sharded driver in `robust.rs` is its one pair-parallel
//! caller.
//!
//! # Soundness of the lifetime erasure
//!
//! [`WorkerPool::run`] hands workers a raw pointer to a caller-borrowed
//! closure. That is sound because the submitting call blocks until every
//! job of the batch has completed (or panicked): no worker can observe the
//! closure after `run` returns, so the borrow outlives every use.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// How pair-parallel stages execute.
///
/// Cheap to clone: the pool variant shares one set of worker threads among
/// all clones.
#[derive(Clone)]
pub struct Executor {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    Serial,
    Pool(Arc<WorkerPool>),
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Serial => f.write_str("Executor::Serial"),
            Inner::Pool(p) => write!(f, "Executor::Pool({})", p.n_threads),
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// Runs everything inline on the calling thread.
    pub fn serial() -> Self {
        Executor {
            inner: Inner::Serial,
        }
    }

    /// Runs batches on a pool of `n_threads` persistent workers.
    ///
    /// `0` means one worker per available CPU; `1` collapses to
    /// [`Executor::serial`] (a one-worker pool would only add hand-off
    /// latency).
    pub fn pool(n_threads: usize) -> Self {
        let n_threads = if n_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            n_threads
        };
        if n_threads <= 1 {
            return Executor::serial();
        }
        Executor {
            inner: Inner::Pool(Arc::new(WorkerPool::new(n_threads))),
        }
    }

    /// The executor for a configured thread count: `<= 1` serial, otherwise
    /// a pool (`0` = auto).
    pub fn with_threads(n_threads: usize) -> Self {
        if n_threads == 1 {
            Executor::serial()
        } else {
            Executor::pool(n_threads)
        }
    }

    /// Number of threads that execute jobs (1 for serial).
    pub fn n_workers(&self) -> usize {
        match &self.inner {
            Inner::Serial => 1,
            Inner::Pool(p) => p.n_threads,
        }
    }

    /// True when jobs may run concurrently.
    pub fn is_parallel(&self) -> bool {
        matches!(self.inner, Inner::Pool(_))
    }

    /// Short label for bench/experiment output.
    pub fn label(&self) -> String {
        match &self.inner {
            Inner::Serial => "serial".to_string(),
            Inner::Pool(p) => format!("pool-{}", p.n_threads),
        }
    }

    /// Runs `job(0) .. job(n_jobs - 1)`, blocking until all complete.
    ///
    /// Serially in index order on [`Executor::serial`]; work-stealing by
    /// index on a pool. If any job panics, the panic is re-raised here
    /// after the batch drains. A nested call from inside a job (or any
    /// call while the pool is busy) runs inline rather than deadlocking.
    pub fn run_jobs(&self, n_jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        match &self.inner {
            Inner::Serial => {
                for i in 0..n_jobs {
                    job(i);
                }
            }
            Inner::Pool(p) => p.run(n_jobs, job),
        }
    }
}

/// Splits `n_items` into at most `n_shards` contiguous ranges of
/// near-equal size (empty ranges are never produced).
pub(crate) fn partition(n_items: usize, n_shards: usize) -> Vec<Range<usize>> {
    if n_items == 0 || n_shards == 0 {
        return Vec::new();
    }
    let n_shards = n_shards.min(n_items);
    let chunk = n_items.div_ceil(n_shards);
    (0..n_items)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(n_items))
        .collect()
}

/// Runs `job` once per shard (mutably, in parallel under `exec`) and hands
/// the shards back: build per-shard working sets, fan out, merge serially.
pub(crate) fn run_sharded<S: Send>(
    exec: &Executor,
    shards: Vec<S>,
    job: impl Fn(usize, &mut S) + Sync,
) -> Vec<S> {
    let slots: Vec<Mutex<S>> = shards.into_iter().map(Mutex::new).collect();
    exec.run_jobs(slots.len(), &|i| {
        // Each slot is locked by exactly one job; a poisoned lock only
        // means a previous panicking batch died inside this shard, and the
        // shard data is still the best available result.
        let mut shard = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        job(i, &mut shard);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// A set of persistent worker threads executing index-addressed batches.
struct WorkerPool {
    n_threads: usize,
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes workers: a batch was submitted or shutdown was requested.
    work_cv: Condvar,
    /// Wakes the submitter: the batch completed.
    done_cv: Condvar,
}

/// A borrowed job closure smuggled across threads; see the module docs for
/// why the erased lifetime is sound.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for JobPtr {}

struct PoolState {
    job: Option<JobPtr>,
    n_jobs: usize,
    next: usize,
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

impl WorkerPool {
    fn new(n_threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                n_jobs: 0,
                next: 0,
                completed: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..n_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rulem-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            n_threads,
            shared,
            workers: Mutex::new(workers),
        }
    }

    fn run(&self, n_jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        if n_jobs == 0 {
            return;
        }
        self.respawn_dead_workers();
        // Erase the borrow's lifetime; `run` blocks until the batch drains,
        // so no worker touches the pointer after the borrow ends.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                job as *const _,
            )
        });
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if st.job.is_some() {
                // Busy (nested or concurrent submission): run inline instead
                // of deadlocking on our own workers.
                drop(st);
                for i in 0..n_jobs {
                    job(i);
                }
                return;
            }
            st.job = Some(ptr);
            st.n_jobs = n_jobs;
            st.next = 0;
            st.completed = 0;
            st.panic = None;
        }
        self.shared.work_cv.notify_all();

        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while st.completed < st.n_jobs {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Replaces workers that died outside the per-job `catch_unwind` (e.g.
    /// a panic raised while dropping a panic payload), so a wounded pool
    /// regains its full capacity instead of silently shrinking — or, with
    /// every worker dead, deadlocking the next submission.
    fn respawn_dead_workers(&self) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for (w, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() {
                let shared = Arc::clone(&self.shared);
                let fresh = std::thread::Builder::new()
                    .name(format!("rulem-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread");
                let dead = std::mem::replace(slot, fresh);
                let _ = dead.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
        }
        self.work_cv_broadcast();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl WorkerPool {
    fn work_cv_broadcast(&self) {
        self.shared.work_cv.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (job, index) = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.next < st.n_jobs {
                        let i = st.next;
                        st.next += 1;
                        break (job, i);
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));

        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.completed += 1;
        if st.completed == st.n_jobs {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runs_in_order() {
        let exec = Executor::serial();
        let order = Mutex::new(Vec::new());
        exec.run_jobs(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(exec.n_workers(), 1);
        assert!(!exec.is_parallel());
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let exec = Executor::pool(4);
        assert_eq!(exec.n_workers(), 4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            // Repeated batches reuse the same workers.
            exec.run_jobs(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn pool_borrows_caller_state_without_cloning() {
        let exec = Executor::pool(3);
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        let ranges = partition(input.len(), 4);
        exec.run_jobs(ranges.len(), &|s| {
            let sum: u64 = input[ranges[s].clone()].iter().sum();
            *out[s].lock().unwrap() = sum;
        });
        let total: u64 = out.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn pool_propagates_panics() {
        let exec = Executor::pool(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_jobs(8, &|i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 5 exploded");
        // The pool survives and keeps working after a panicked batch.
        let count = AtomicUsize::new(0);
        exec.run_jobs(4, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_submission_falls_back_to_inline() {
        let exec = Executor::pool(2);
        let count = AtomicUsize::new(0);
        let inner_exec = exec.clone();
        exec.run_jobs(2, &|_| {
            inner_exec.run_jobs(3, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn with_threads_mapping() {
        assert!(!Executor::with_threads(1).is_parallel());
        assert_eq!(Executor::with_threads(9).n_workers(), 9);
        assert!(Executor::pool(0).n_workers() >= 1);
        assert!(!Executor::pool(1).is_parallel());
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        for n_items in [0usize, 1, 5, 16, 17, 100] {
            for n_shards in [1usize, 2, 4, 9, 32] {
                let ranges = partition(n_items, n_shards);
                assert!(ranges.len() <= n_shards);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(r.end > r.start, "non-empty");
                    expect = r.end;
                }
                assert_eq!(expect, n_items, "covers all items");
            }
        }
    }

    #[test]
    fn run_sharded_hands_back_mutated_shards() {
        let exec = Executor::pool(3);
        let shards: Vec<Vec<usize>> = vec![Vec::new(); 5];
        let shards = run_sharded(&exec, shards, |i, shard| {
            shard.push(i * 10);
        });
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard, &vec![i * 10]);
        }
    }

    // Matching-level tests: the pool must agree with a serial run
    // verdict-for-verdict.
    use crate::context::EvalContext;
    use crate::engine::run_memo;
    use crate::function::MatchingFunction;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;
    use em_similarity::{Measure, TokenScheme};
    use em_types::{CandidateSet, Record, Schema, Table};

    fn fixture(n: usize) -> (EvalContext, CandidateSet, MatchingFunction) {
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        for i in 0..n {
            a.push(Record::new(format!("a{i}"), [format!("widget model {i}")]));
            b.push(Record::new(
                format!("b{i}"),
                [format!("widget model {}", i % (n / 2 + 1))],
            ));
        }
        let mut ctx = EvalContext::from_tables(a, b);
        let f = ctx
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "name", "name")
            .unwrap();
        let g = ctx.feature(Measure::Levenshtein, "name", "name").unwrap();
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.99)).unwrap();
        func.add_rule(Rule::new().pred(g, CmpOp::Ge, 0.95).pred(f, CmpOp::Ge, 0.5))
            .unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        (ctx, cands, func)
    }

    #[test]
    fn pool_matching_agrees_with_serial() {
        let (ctx, cands, func) = fixture(12);
        let (serial, _) = run_memo(&func, &ctx, &cands, true, &Executor::serial());
        for threads in [2, 3, 8] {
            let (par, _) = run_memo(&func, &ctx, &cands, true, &Executor::pool(threads));
            assert_eq!(
                par.verdicts, serial.verdicts,
                "{threads}-thread run disagrees with serial"
            );
        }
    }

    #[test]
    fn empty_candidates() {
        let (ctx, _, func) = fixture(4);
        let (out, _) = run_memo(&func, &ctx, &CandidateSet::new(), false, &Executor::pool(4));
        assert!(out.verdicts.is_empty());
    }

    #[test]
    fn more_threads_than_pairs() {
        let (ctx, cands, func) = fixture(4);
        let small = cands.truncated(3);
        let (serial, _) = run_memo(&func, &ctx, &small, false, &Executor::serial());
        let (par, _) = run_memo(&func, &ctx, &small, false, &Executor::pool(16));
        assert_eq!(par.verdicts, serial.verdicts);
        assert_eq!(par.verdicts.len(), 3);
    }
}
