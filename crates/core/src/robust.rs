//! The robust pair-evaluation driver: budget checks, panic isolation,
//! quarantine-by-bisection, and the one sharded fan-out every engine, full
//! run and incremental delta goes through.
//!
//! [`drive_sharded`] cuts a pair list into shards, hands each shard its own
//! window of the dense memo, and runs the shards under the [`Executor`].
//! Within a shard, [`drive_pairs`] evaluates pairs in small chunks wrapped
//! in `catch_unwind`. A panicking chunk is bisected down to the offending
//! pair(s), which are quarantined — one toxic pair costs one pair, not the
//! session. Between chunks (and pairs) the [`BudgetChecker`] is polled, so a
//! deadline or cancellation stops the pass with the untouched indices
//! recorded for `resume()`.

use crate::budget::{BudgetChecker, Completion, EvalBudget, StopReason};
use crate::context::EvalContext;
use crate::engine::EvalStats;
use crate::executor::{partition, run_sharded, Executor};
use crate::incremental::{DeltaEvent, OpenRules, WorkerStats};
use crate::memo::{DenseMemo, MemoShard};
use em_types::{CandidateSet, PairIdx};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The pairs a driver pass covers: either a contiguous global range (full
/// runs) or an explicit index list (incremental deltas, resumes).
pub(crate) enum PairList<'a> {
    /// Contiguous global candidate indices.
    Range(Range<usize>),
    /// Explicit candidate indices, strictly ascending.
    Slice(&'a [usize]),
}

impl<'a> PairList<'a> {
    fn len(&self) -> usize {
        match self {
            PairList::Range(r) => r.len(),
            PairList::Slice(s) => s.len(),
        }
    }

    #[inline]
    fn get(&self, pos: usize) -> usize {
        match self {
            PairList::Range(r) => r.start + pos,
            PairList::Slice(s) => s[pos],
        }
    }

    /// The sub-list at positions `pos`.
    fn sub(&self, pos: Range<usize>) -> PairList<'a> {
        match self {
            PairList::Range(r) => PairList::Range(r.start + pos.start..r.start + pos.end),
            PairList::Slice(s) => PairList::Slice(&s[pos]),
        }
    }
}

/// Per-pair work plus the hooks the driver needs to undo a half-applied
/// pair after a panic.
///
/// `mark`/`rollback` bracket side effects that accumulate append-only (an
/// event log, a pending list): `mark` snapshots the length before a chunk,
/// `rollback` truncates back when the chunk panics, so bisection re-runs
/// are idempotent. Sinks whose writes are per-pair idempotent (memo cells,
/// verdict slots) can keep the no-op defaults.
pub(crate) trait PairSink {
    /// Evaluates one pair (global candidate index `i`).
    fn process(&mut self, i: usize);
    /// Snapshots rollback state before a chunk.
    fn mark(&mut self) -> usize {
        0
    }
    /// Restores the snapshot taken by [`PairSink::mark`].
    fn rollback(&mut self, _mark: usize) {}
}

/// A plain closure is a sink whose writes are per-pair idempotent.
impl<F: FnMut(usize)> PairSink for F {
    fn process(&mut self, i: usize) {
        self(i);
    }
}

/// What one driver pass accomplished.
#[derive(Debug, Default)]
pub(crate) struct DriveOutcome {
    /// Candidate indices whose evaluation panicked (quarantined).
    pub quarantined: Vec<usize>,
    /// Candidate indices never evaluated (budget tripped first), ascending.
    pub remaining: Vec<usize>,
    /// Why the pass stopped early, if it did.
    pub reason: Option<StopReason>,
    /// Pairs successfully evaluated (excludes quarantined and remaining).
    pub pairs_examined: usize,
}

/// Chunk size for the `catch_unwind` granularity. Small enough that a
/// bisection after a panic touches few pairs, large enough that the unwind
/// guard is amortized.
const CHUNK: usize = 32;

enum ChunkExit {
    Done,
    Stopped(usize, StopReason),
}

/// Evaluates `pairs` through `sink`, chunked under `catch_unwind`, polling
/// `checker` before every pair.
///
/// On a chunk panic the sink is rolled back and the chunk re-run by
/// bisection so exactly the offending pair(s) land in
/// [`DriveOutcome::quarantined`]; healthy neighbours are still evaluated.
/// On a budget stop the untouched tail lands in
/// [`DriveOutcome::remaining`]. `pairs_examined` counts each successfully
/// evaluated pair exactly once, no matter how bisection re-runs chunks.
pub(crate) fn drive_pairs<S: PairSink>(
    pairs: &PairList<'_>,
    checker: &mut BudgetChecker,
    sink: &mut S,
) -> DriveOutcome {
    let n = pairs.len();
    let mut out = DriveOutcome::default();
    let mut pos = 0;
    while pos < n {
        let end = (pos + CHUNK).min(n);
        let mark = sink.mark();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut p = pos;
            while p < end {
                if let Some(reason) = checker.should_stop() {
                    return ChunkExit::Stopped(p, reason);
                }
                sink.process(pairs.get(p));
                p += 1;
            }
            ChunkExit::Done
        }));
        match result {
            Ok(ChunkExit::Done) => {
                out.pairs_examined += end - pos;
                pos = end;
            }
            Ok(ChunkExit::Stopped(at, reason)) => {
                out.pairs_examined += at - pos;
                out.reason = Some(reason);
                for p in at..n {
                    out.remaining.push(pairs.get(p));
                }
                return out;
            }
            Err(_) => {
                // A pair in [pos, end) panicked mid-chunk: undo the chunk's
                // appended side effects, then re-run it by bisection to pin
                // down exactly which pair(s) are toxic.
                sink.rollback(mark);
                bisect(pairs, pos, end, sink, &mut out);
                pos = end;
            }
        }
    }
    out
}

/// Re-runs `[lo, hi)` halving on panic until single pairs are isolated.
/// Left half first, so append-only event logs stay in ascending pair order.
fn bisect<S: PairSink>(
    pairs: &PairList<'_>,
    lo: usize,
    hi: usize,
    sink: &mut S,
    out: &mut DriveOutcome,
) {
    if hi - lo == 1 {
        let i = pairs.get(lo);
        let mark = sink.mark();
        match catch_unwind(AssertUnwindSafe(|| sink.process(i))) {
            Ok(()) => out.pairs_examined += 1,
            Err(_) => {
                sink.rollback(mark);
                out.quarantined.push(i);
            }
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    for (a, b) in [(lo, mid), (mid, hi)] {
        let mark = sink.mark();
        let result = catch_unwind(AssertUnwindSafe(|| {
            for p in a..b {
                sink.process(pairs.get(p));
            }
        }));
        match result {
            Ok(()) => out.pairs_examined += b - a,
            Err(_) => {
                sink.rollback(mark);
                bisect(pairs, a, b, sink, out);
            }
        }
    }
}

/// Shards per worker when a pass runs on a pool. Affected lists are often
/// skewed — a rule edit touches clusters of similar pairs whose features
/// cost very different amounts — so cutting finer than one shard per worker
/// lets the pool's index-stealing rebalance the tail. A serial pass is one
/// shard.
const SHARDS_PER_WORKER: usize = 4;

/// One shard's working set, handed to the per-pair step.
pub(crate) struct Shard<'a> {
    /// The memo rows from this shard's first pair up to the next shard's
    /// (an empty window when the pass has no memo).
    pub memo: MemoShard<'a>,
    /// This shard's share of the work counters.
    pub stats: EvalStats,
    /// State mutations and reports, in pair order.
    pub events: Vec<DeltaEvent>,
    /// The cascade's last resolved 64-pair word of witnesses.
    pub open: OpenRules,
}

/// What one sharded pass produced.
#[derive(Default)]
pub(crate) struct Pass {
    /// The shards' event logs, concatenated in pair order.
    pub events: Vec<DeltaEvent>,
    /// Work counters summed over shards.
    pub stats: EvalStats,
    /// Work counters per worker: shard `s` is charged to worker
    /// `s % n_workers`, the order an idle pool claims shards in.
    pub worker_stats: Vec<WorkerStats>,
    /// Pairs evaluated (excludes quarantined and remaining).
    pub pairs_examined: usize,
    /// Whether every pair was evaluated, or which remain for a resume.
    pub completion: Completion,
    /// Pairs whose evaluation panicked, ascending.
    pub quarantined: Vec<usize>,
}

/// Runs `step` over every pair of `pairs`, fanned out under `exec`: the
/// one driver behind every engine, full run and incremental delta.
///
/// The list is cut into contiguous shards (one when serial,
/// [`SHARDS_PER_WORKER`] per worker on a pool). With a `memo`, each shard
/// gets the window of it that runs from the shard's first pair up to the
/// next shard's first pair, so the windows tile `0..n_pairs` and a step
/// writes its pair's cells in place. Without one (the engines that
/// memoize nothing) each shard gets an empty window. Each shard runs
/// through [`drive_pairs`] under its own [`BudgetChecker`]; a panicking
/// pair's events are rolled back and the pair quarantined.
///
/// # Panics
///
/// Panics when `memo` does not cover exactly the candidate set, or when a
/// [`PairList::Slice`] is not strictly ascending within it (a pair outside
/// its shard's window would otherwise be quarantined silently).
pub(crate) fn drive_sharded(
    exec: &Executor,
    ctx: &EvalContext,
    cands: &CandidateSet,
    pairs: PairList<'_>,
    mut memo: Option<&mut DenseMemo>,
    budget: &EvalBudget,
    step: impl Fn(&mut Shard<'_>, usize, PairIdx) + Sync,
) -> Pass {
    if let Some(memo) = &memo {
        assert_eq!(
            memo.n_pairs(),
            cands.len(),
            "state and candidate set must cover the same pairs"
        );
    }
    if let PairList::Slice(s) = pairs {
        assert!(
            s.windows(2).all(|w| w[0] < w[1]) && s.last().is_none_or(|&i| i < cands.len()),
            "pair list must be strictly ascending within the candidate set"
        );
    }
    let n_workers = exec.n_workers();
    let n_shards = if exec.is_parallel() {
        n_workers * SHARDS_PER_WORKER
    } else {
        1
    };
    let ranges = partition(pairs.len(), n_shards);
    let windows = match memo.as_deref_mut() {
        Some(memo) => {
            // Windows cannot grow the feature axis, so size it upfront.
            memo.ensure_features(ctx.registry().len());
            let mut starts: Vec<usize> = ranges.iter().map(|r| pairs.get(r.start)).collect();
            if let Some(first) = starts.first_mut() {
                *first = 0;
            }
            starts.push(memo.n_pairs());
            let tiles: Vec<Range<usize>> = starts.windows(2).map(|w| w[0]..w[1]).collect();
            memo.shard_views(&tiles)
        }
        None => ranges.iter().map(|_| MemoShard::default()).collect(),
    };
    let shards: Vec<_> = ranges
        .into_iter()
        .zip(windows)
        .map(|(range, memo)| {
            let shard = Shard {
                memo,
                stats: EvalStats::default(),
                events: Vec::new(),
                open: OpenRules::default(),
            };
            (range, shard, DriveOutcome::default())
        })
        .collect();

    struct Sink<'s, 'a, F> {
        shard: &'s mut Shard<'a>,
        cands: &'s CandidateSet,
        step: &'s F,
    }
    impl<F: Fn(&mut Shard<'_>, usize, PairIdx)> PairSink for Sink<'_, '_, F> {
        fn process(&mut self, i: usize) {
            (self.step)(self.shard, i, self.cands.pair(i));
        }
        // The event log is append-only, so truncating to the pre-chunk mark
        // undoes a panicked chunk exactly (memo writes are per-pair
        // idempotent and may stay).
        fn mark(&mut self) -> usize {
            self.shard.events.len()
        }
        fn rollback(&mut self, mark: usize) {
            self.shard.events.truncate(mark);
        }
    }
    let shards = run_sharded(exec, shards, |_, (range, shard, drive)| {
        let mut checker = budget.checker();
        let mut sink = Sink {
            shard,
            cands,
            step: &step,
        };
        *drive = drive_pairs(&pairs.sub(range.clone()), &mut checker, &mut sink);
    });

    let mut pass = Pass::default();
    let mut remaining = Vec::new();
    let mut reason = None;
    let mut new_stored = 0;
    for (s, (_, shard, drive)) in shards.into_iter().enumerate() {
        let worker = s % n_workers;
        if pass.worker_stats.len() <= worker {
            pass.worker_stats.push(WorkerStats {
                worker,
                ..WorkerStats::default()
            });
        }
        let ws = &mut pass.worker_stats[worker];
        ws.pairs_examined += drive.pairs_examined;
        ws.stats.absorb(&shard.stats);
        pass.stats.absorb(&shard.stats);
        pass.pairs_examined += drive.pairs_examined;
        new_stored += shard.memo.new_stored();
        if pass.events.is_empty() {
            pass.events = shard.events;
        } else {
            pass.events.extend(shard.events);
        }
        // Shards cover ascending disjoint pairs, so concatenation keeps
        // both lists ascending.
        pass.quarantined.extend(drive.quarantined);
        remaining.extend(drive.remaining);
        reason = reason.or(drive.reason);
    }
    if let Some(memo) = memo {
        memo.add_stored(new_stored);
    }
    if !remaining.is_empty() {
        pass.completion = Completion::Partial {
            remaining,
            reason: reason.unwrap_or(StopReason::Cancelled),
        };
    }
    pass
}

/// Installs (once, process-wide) a panic hook that suppresses the backtrace
/// spew for **injected** faults — panics whose payload contains
/// `"injected fault"` — and delegates every other panic to the previous
/// hook. Fault-injection tests deliberately panic hundreds of times; without
/// this the test output is unreadable.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, EvalBudget};

    /// A sink that records processed pairs in an event log and panics on a
    /// chosen set of pairs — exercising mark/rollback exactness.
    struct LogSink {
        log: Vec<usize>,
        poison: Vec<usize>,
        cancel_at: Option<(usize, CancelToken)>,
    }

    impl LogSink {
        fn new(poison: Vec<usize>) -> Self {
            LogSink {
                log: Vec::new(),
                poison,
                cancel_at: None,
            }
        }
    }

    impl PairSink for LogSink {
        fn process(&mut self, i: usize) {
            if let Some((at, token)) = &self.cancel_at {
                if i == *at {
                    token.cancel();
                }
            }
            if self.poison.contains(&i) {
                panic!("injected fault: poison pair {i}");
            }
            self.log.push(i);
        }
        fn mark(&mut self) -> usize {
            self.log.len()
        }
        fn rollback(&mut self, mark: usize) {
            self.log.truncate(mark);
        }
    }

    fn quiet<R>(f: impl FnOnce() -> R) -> R {
        // Driver tests inject panics on purpose; install (once, globally) a
        // hook that silences those payloads but delegates everything else.
        crate::robust::install_quiet_panic_hook();
        f()
    }

    #[test]
    fn clean_run_covers_everything() {
        let mut sink = LogSink::new(vec![]);
        let mut checker = EvalBudget::unlimited().checker();
        let out = drive_pairs(&PairList::Range(0..100), &mut checker, &mut sink);
        assert_eq!(out.pairs_examined, 100);
        assert!(out.quarantined.is_empty());
        assert!(out.remaining.is_empty());
        assert_eq!(out.reason, None);
        assert_eq!(sink.log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn poison_pairs_are_quarantined_exactly() {
        quiet(|| {
            let mut sink = LogSink::new(vec![7, 40, 41]);
            let mut checker = EvalBudget::unlimited().checker();
            let out = drive_pairs(&PairList::Range(0..100), &mut checker, &mut sink);
            assert_eq!(out.quarantined, vec![7, 40, 41]);
            assert_eq!(out.pairs_examined, 97);
            assert!(out.remaining.is_empty());
            let expected: Vec<usize> = (0..100).filter(|i| ![7, 40, 41].contains(i)).collect();
            assert_eq!(
                sink.log, expected,
                "healthy neighbours evaluated once, in order"
            );
        });
    }

    #[test]
    fn slice_list_maps_positions_to_indices() {
        quiet(|| {
            let idxs: Vec<usize> = (0..50).map(|i| i * 3).collect();
            let mut sink = LogSink::new(vec![21]); // = idxs[7]
            let mut checker = EvalBudget::unlimited().checker();
            let out = drive_pairs(&PairList::Slice(&idxs), &mut checker, &mut sink);
            assert_eq!(out.quarantined, vec![21]);
            assert_eq!(out.pairs_examined, 49);
        });
    }

    #[test]
    fn cancellation_reports_untouched_tail() {
        let token = CancelToken::new();
        let mut sink = LogSink::new(vec![]);
        sink.cancel_at = Some((9, token.clone()));
        let budget = EvalBudget::unlimited().with_token(token);
        let mut checker = budget.checker();
        let out = drive_pairs(&PairList::Range(0..100), &mut checker, &mut sink);
        // Pair 9 fires the token *during* its own evaluation, so it completes;
        // the check before pair 10 observes the cancellation.
        assert_eq!(out.reason, Some(StopReason::Cancelled));
        assert_eq!(out.pairs_examined, 10);
        assert_eq!(out.remaining, (10..100).collect::<Vec<_>>());
        assert_eq!(sink.log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pre_cancelled_budget_evaluates_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let mut sink = LogSink::new(vec![]);
        let mut checker = EvalBudget::unlimited().with_token(token).checker();
        let out = drive_pairs(&PairList::Range(0..10), &mut checker, &mut sink);
        assert_eq!(out.pairs_examined, 0);
        assert_eq!(out.remaining, (0..10).collect::<Vec<_>>());
        assert!(sink.log.is_empty());
    }

    #[test]
    fn rollback_leaves_no_duplicate_events() {
        quiet(|| {
            // Poison in the middle of a chunk: the chunk's first half is
            // rolled back then re-run by bisection — the log must still hold
            // each healthy pair exactly once.
            let mut sink = LogSink::new(vec![16]);
            let mut checker = EvalBudget::unlimited().checker();
            let out = drive_pairs(&PairList::Range(0..32), &mut checker, &mut sink);
            assert_eq!(out.quarantined, vec![16]);
            let expected: Vec<usize> = (0..32).filter(|&i| i != 16).collect();
            assert_eq!(sink.log, expected);
        });
    }

    // ---- the sharded driver: memo windows tile the pair axis -------------

    use crate::feature::FeatureId;
    use crate::memo::Memo;
    use em_types::{Record, Schema, Table};
    use std::sync::Mutex;

    /// What a pass of the cell-writing step left behind.
    struct Cells {
        pass: Pass,
        /// The distinct memo windows the step ran in, by start.
        windows: Vec<Range<usize>>,
        memo: DenseMemo,
    }

    /// Drives `pairs` of a 5×4 cartesian candidate set (20 pairs, one
    /// feature) at `threads` threads, with a step that writes each pair's
    /// cell, reports the pair matched, and records its window.
    fn drive_cells(threads: usize, pairs: PairList<'_>) -> Cells {
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        for i in 0..5 {
            a.push(Record::new(format!("a{i}"), [format!("x{i}")]));
        }
        for i in 0..4 {
            b.push(Record::new(format!("b{i}"), [format!("x{i}")]));
        }
        let mut ctx = EvalContext::from_tables(a, b);
        ctx.feature(em_similarity::Measure::Exact, "name", "name")
            .unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        let mut memo = DenseMemo::new(cands.len(), 0);
        let windows = Mutex::new(Vec::new());
        let exec = Executor::with_threads(threads);
        let budget = EvalBudget::unlimited();
        let pass = drive_sharded(
            &exec,
            &ctx,
            &cands,
            pairs,
            Some(&mut memo),
            &budget,
            |w, i, _| {
                w.memo.put(i, FeatureId(0), i as f64);
                w.events.push(DeltaEvent::Matched { i });
                windows.lock().unwrap().push(w.memo.pair_range());
            },
        );
        let mut windows = windows.into_inner().unwrap();
        windows.sort_by_key(|r| r.start);
        windows.dedup();
        Cells {
            pass,
            windows,
            memo,
        }
    }

    fn matched(pass: &Pass) -> Vec<usize> {
        let pair = |e: &DeltaEvent| match *e {
            DeltaEvent::Matched { i } => i,
            other => panic!("unexpected event {other:?}"),
        };
        pass.events.iter().map(pair).collect()
    }

    /// Every pair's cell holds its index, and no other cell is stored.
    fn assert_cells(memo: &DenseMemo, pairs: &[usize]) {
        assert_eq!(memo.n_features(), 1, "the feature axis was grown");
        assert_eq!(memo.stored(), pairs.len());
        for &i in pairs {
            assert_eq!(memo.get(i, FeatureId(0)), Some(i as f64));
        }
    }

    #[test]
    fn empty_pair_list_runs_no_shard() {
        let out = drive_cells(4, PairList::Slice(&[]));
        assert!(out.pass.events.is_empty());
        assert!(out.pass.worker_stats.is_empty());
        assert_eq!(out.pass.pairs_examined, 0);
        assert!(out.pass.completion.is_complete());
        assert!(out.windows.is_empty());
        assert_cells(&out.memo, &[]);
    }

    #[test]
    fn fewer_pairs_than_shards_get_one_window_each() {
        // 9 workers cut 36 shards; 20 pairs make 20 one-pair shards.
        let out = drive_cells(9, PairList::Range(0..20));
        let all: Vec<usize> = (0..20).collect();
        assert_eq!(matched(&out.pass), all, "events in pair order");
        let one_each: Vec<Range<usize>> = (0..20).map(|i| i..i + 1).collect();
        assert_eq!(out.windows, one_each);
        assert_eq!(out.pass.worker_stats.len(), 9);
        assert_eq!(out.pass.pairs_examined, 20);
        assert_cells(&out.memo, &all);
    }

    #[test]
    fn windows_of_an_inner_slice_tile_every_pair() {
        // Two workers cut up to 8 shards; 4 pairs make 4 shards whose
        // windows run from pair 0 to the last pair, not just the slice.
        let pairs = [3, 4, 8, 15];
        let out = drive_cells(2, PairList::Slice(&pairs));
        assert_eq!(matched(&out.pass), pairs);
        assert_eq!(out.windows, vec![0..4, 4..8, 8..15, 15..20]);
        assert_cells(&out.memo, &pairs);
        // Serially the one window is the whole memo.
        let out = drive_cells(1, PairList::Slice(&pairs));
        assert_eq!(out.windows, vec![0..20]);
        assert_cells(&out.memo, &pairs);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn repeated_pair_is_refused() {
        drive_cells(2, PairList::Slice(&[3, 8, 8, 12]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_pairs_are_refused() {
        drive_cells(1, PairList::Slice(&[8, 3]));
    }

    #[test]
    fn whole_range_poisoned_quarantines_all() {
        quiet(|| {
            let mut sink = LogSink::new((0..5).collect());
            let mut checker = EvalBudget::unlimited().checker();
            let out = drive_pairs(&PairList::Range(0..5), &mut checker, &mut sink);
            assert_eq!(out.quarantined, vec![0, 1, 2, 3, 4]);
            assert_eq!(out.pairs_examined, 0);
        });
    }
}
