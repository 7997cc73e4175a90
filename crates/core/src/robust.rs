//! The robust pair-evaluation driver: budget checks, panic isolation, and
//! quarantine-by-bisection.
//!
//! Every engine and incremental pass funnels its per-pair work through
//! [`drive_pairs`], which evaluates pairs in small chunks wrapped in
//! `catch_unwind`. A panicking chunk is bisected down to the offending
//! pair(s), which are quarantined — one toxic pair costs one pair, not the
//! session. Between chunks (and pairs) the [`BudgetChecker`] is polled, so a
//! deadline or cancellation stops the pass with the untouched indices
//! recorded for `resume()`.

use crate::budget::{BudgetChecker, StopReason};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The pairs a driver pass covers: either a contiguous global range (full
/// runs) or an explicit index list (incremental deltas, resumes).
pub(crate) enum PairList<'a> {
    /// Contiguous global candidate indices.
    Range(std::ops::Range<usize>),
    /// Explicit candidate indices, ascending.
    Slice(&'a [usize]),
}

impl PairList<'_> {
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

/// Folds per-shard outcomes (in ascending shard order) into a
/// [`Completion`], the concatenated quarantine list, and the total pairs
/// examined. Shards cover ascending disjoint index ranges, so plain
/// concatenation keeps both lists ascending.
pub(crate) fn fold_outcomes<I: IntoIterator<Item = DriveOutcome>>(
    outs: I,
) -> (crate::budget::Completion, Vec<usize>, usize) {
    let mut quarantined = Vec::new();
    let mut remaining = Vec::new();
    let mut reason = None;
    let mut examined = 0;
    for o in outs {
        quarantined.extend(o.quarantined);
        remaining.extend(o.remaining);
        if reason.is_none() {
            reason = o.reason;
        }
        examined += o.pairs_examined;
    }
    let completion = if remaining.is_empty() {
        crate::budget::Completion::Complete
    } else {
        crate::budget::Completion::Partial {
            remaining,
            reason: reason.unwrap_or(StopReason::Cancelled),
        }
    };
    (completion, quarantined, examined)
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
