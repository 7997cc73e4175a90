//! The robust evaluation driver: budget checks, panic isolation,
//! quarantine-by-bisection, and the one sharded fan-out every engine, full
//! run and incremental delta goes through.
//!
//! Its unit of work is the 64-pair word of the §6.1 bitmaps: a pass is a
//! list of `(word, mask)` units, each standing for the pairs `64 * word +
//! b` of the set bits `b` of `mask`. [`drive_sharded`] cuts the list into
//! shards of whole words, hands each shard its own window of the dense
//! memo, and runs the shards under the [`Executor`]. Within a shard,
//! [`drive_words`] hands the step one word at a time under `catch_unwind`,
//! polling the [`BudgetChecker`] before each. A panicking word is re-run by
//! halving its mask down to the offending pair(s), which are quarantined —
//! one toxic pair costs one pair, not the session. A deadline or
//! cancellation stops the pass between words, with the untouched pairs
//! recorded for `resume()`.

use crate::bitmap::word_pairs;
use crate::budget::{BudgetChecker, Completion, EvalBudget, StopReason};
use crate::context::EvalContext;
use crate::engine::EvalStats;
use crate::executor::{partition, run_sharded, Executor};
use crate::incremental::{DeltaEvent, WorkerStats};
use crate::memo::{DenseMemo, MemoShard};
use em_types::CandidateSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One unit of a pass: a word index of the pair axis and the mask of its
/// pairs to evaluate, never zero.
pub(crate) type Word = (usize, u64);

/// Per-word work plus the hooks the driver needs to undo a half-applied
/// word after a panic.
///
/// `mark`/`rollback` bracket side effects that accumulate append-only (an
/// event log): `mark` snapshots the length before a word, `rollback`
/// truncates back when it panics, so the re-runs of its halves are
/// idempotent. Sinks whose writes are per-pair idempotent (memo cells,
/// verdict slots) can keep the no-op defaults.
pub(crate) trait WordSink {
    /// Evaluates the pairs of `mask` in word `word`.
    fn process(&mut self, word: usize, mask: u64);
    /// Snapshots rollback state before a word.
    fn mark(&mut self) -> usize {
        0
    }
    /// Restores the snapshot taken by [`WordSink::mark`].
    fn rollback(&mut self, _mark: usize) {}
}

/// A plain closure is a sink whose writes are per-pair idempotent.
impl<F: FnMut(usize, u64)> WordSink for F {
    fn process(&mut self, word: usize, mask: u64) {
        self(word, mask);
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

/// Evaluates `words` through `sink`, one word at a time under
/// `catch_unwind`, polling `checker` before every word.
///
/// A panicking word is rolled back and re-run by halving its mask (see
/// [`run_word`]), so exactly the offending pair(s) land in
/// [`DriveOutcome::quarantined`] while healthy neighbours are still
/// evaluated. On a budget stop the pairs of the untouched words land in
/// [`DriveOutcome::remaining`]. `pairs_examined` counts each successfully
/// evaluated pair exactly once, however often its word was re-run.
pub(crate) fn drive_words<S: WordSink>(
    words: &[Word],
    checker: &mut BudgetChecker,
    sink: &mut S,
) -> DriveOutcome {
    let mut out = DriveOutcome::default();
    for (k, &(word, mask)) in words.iter().enumerate() {
        if let Some(reason) = checker.should_stop(mask.count_ones() as usize) {
            out.reason = Some(reason);
            out.remaining = words[k..]
                .iter()
                .flat_map(|&(w, m)| word_pairs(w, m))
                .collect();
            break;
        }
        run_word(word, mask, sink, &mut out);
    }
    out
}

/// Runs the pairs of `mask` in `word`; when that panics, undoes its
/// appended side effects and re-runs each half of the mask, lower pairs
/// first (so append-only event logs keep pair order), until the toxic
/// pairs stand alone and are quarantined.
fn run_word<S: WordSink>(word: usize, mask: u64, sink: &mut S, out: &mut DriveOutcome) {
    let mark = sink.mark();
    if catch_unwind(AssertUnwindSafe(|| sink.process(word, mask))).is_ok() {
        out.pairs_examined += mask.count_ones() as usize;
        return;
    }
    sink.rollback(mark);
    if mask.count_ones() == 1 {
        out.quarantined
            .push(word * 64 + mask.trailing_zeros() as usize);
        return;
    }
    // The upper half: the mask without its lower half of set bits.
    let mut upper = mask;
    for _ in 0..mask.count_ones() / 2 {
        upper &= upper - 1;
    }
    run_word(word, mask & !upper, sink, out);
    run_word(word, upper, sink, out);
}

/// Shards per worker when a pass runs on a pool. Affected lists are often
/// skewed — a rule edit touches clusters of similar pairs whose features
/// cost very different amounts — so cutting finer than one shard per worker
/// lets the pool's index-stealing rebalance the tail. A serial pass is one
/// shard.
const SHARDS_PER_WORKER: usize = 4;

/// One shard's working set, handed to the per-word step.
pub(crate) struct Shard<'a> {
    /// The memo's cells, in every column, from this shard's first word up
    /// to the next shard's (an empty window when the pass has no memo).
    pub memo: MemoShard<'a>,
    /// This shard's share of the work counters.
    pub stats: EvalStats,
    /// State mutations and reports, in word order.
    pub events: Vec<DeltaEvent>,
}

/// What one sharded pass produced.
#[derive(Default)]
pub(crate) struct Pass {
    /// The shards' event logs, concatenated in word order.
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

/// Runs `step` over every unit of `words`, fanned out under `exec`: the one
/// driver behind every engine, full run and incremental delta. A step gets
/// its shard, a word index and the mask of that word's pairs to evaluate.
///
/// The list is cut into contiguous runs of whole words (one shard when
/// serial, [`SHARDS_PER_WORKER`] per worker on a pool). With a `memo`,
/// each shard gets the window of it that runs from the shard's first
/// word up to the next shard's first word, so the windows tile
/// `0..n_pairs` and a step writes its pairs' cells in place. Without one
/// (the engines that memoize nothing) each shard gets an empty window.
/// Each shard runs through [`drive_words`] under its own
/// [`BudgetChecker`]; a panicking pair's events are rolled back and the
/// pair quarantined.
///
/// # Panics
///
/// Panics when `memo` does not cover exactly the candidate set, or when
/// `words` is not strictly ascending with nonzero masks within it (a pair
/// outside its shard's window would otherwise be quarantined silently).
pub(crate) fn drive_sharded(
    exec: &Executor,
    ctx: &EvalContext,
    cands: &CandidateSet,
    words: &[Word],
    mut memo: Option<&mut DenseMemo>,
    budget: &EvalBudget,
    step: impl Fn(&mut Shard<'_>, usize, u64) + Sync,
) -> Pass {
    if let Some(memo) = &memo {
        assert_eq!(
            memo.n_pairs(),
            cands.len(),
            "state and candidate set must cover the same pairs"
        );
    }
    let last_pair = |&(w, mask): &Word| w * 64 + 63 - mask.leading_zeros() as usize;
    assert!(
        words.windows(2).all(|u| u[0].0 < u[1].0)
            && words.iter().all(|&(_, mask)| mask != 0)
            && words.last().is_none_or(|u| last_pair(u) < cands.len()),
        "words must be strictly ascending, nonzero and within the candidate set"
    );
    let n_workers = exec.n_workers();
    let n_shards = if exec.is_parallel() {
        n_workers * SHARDS_PER_WORKER
    } else {
        1
    };
    let ranges = partition(words.len(), n_shards);
    let windows = match memo.as_deref_mut() {
        Some(memo) => {
            // Windows cannot grow the feature axis, so size it upfront.
            memo.ensure_features(ctx.registry().len());
            let mut starts: Vec<usize> = ranges.iter().map(|r| words[r.start].0 * 64).collect();
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
            };
            (range, shard, DriveOutcome::default())
        })
        .collect();

    struct Sink<'s, 'a, F> {
        shard: &'s mut Shard<'a>,
        step: &'s F,
    }
    impl<F: Fn(&mut Shard<'_>, usize, u64)> WordSink for Sink<'_, '_, F> {
        fn process(&mut self, word: usize, mask: u64) {
            (self.step)(self.shard, word, mask);
        }
        // The event log is append-only, so truncating to the pre-word mark
        // undoes a panicked word exactly (memo writes are per-pair
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
        let mut sink = Sink { shard, step: &step };
        *drive = drive_words(&words[range.clone()], &mut checker, &mut sink);
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
    use crate::bitmap::{all_words, words_of};
    use crate::budget::{CancelToken, EvalBudget};

    /// A sink that logs each evaluated pair, and panics on any word that
    /// holds a chosen pair — exercising mark/rollback exactness.
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

    impl WordSink for LogSink {
        fn process(&mut self, word: usize, mask: u64) {
            for i in word_pairs(word, mask) {
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

    /// Drives `words` through a [`LogSink`] poisoning `poison`.
    fn drive_log(words: &[Word], poison: Vec<usize>) -> (DriveOutcome, Vec<usize>) {
        let mut sink = LogSink::new(poison);
        let mut checker = EvalBudget::unlimited().checker();
        let out = drive_words(words, &mut checker, &mut sink);
        (out, sink.log)
    }

    #[test]
    fn clean_run_covers_everything() {
        let (out, log) = drive_log(&all_words(100), vec![]);
        assert_eq!(out.pairs_examined, 100);
        assert!(out.quarantined.is_empty());
        assert!(out.remaining.is_empty());
        assert_eq!(out.reason, None);
        assert_eq!(log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn poison_pairs_are_quarantined_exactly() {
        quiet(|| {
            let (out, log) = drive_log(&all_words(100), vec![7, 40, 41]);
            assert_eq!(out.quarantined, vec![7, 40, 41]);
            assert_eq!(out.pairs_examined, 97);
            assert!(out.remaining.is_empty());
            let expected: Vec<usize> = (0..100).filter(|i| ![7, 40, 41].contains(i)).collect();
            assert_eq!(log, expected, "healthy neighbours evaluated once, in order");
        });
    }

    #[test]
    fn poison_at_the_edges_of_words_is_quarantined_exactly() {
        quiet(|| {
            // Bits 0 and 63 of word 0 and bit 0 of word 1: each half of
            // word 0's mask down to one pair holds a toxic end.
            let poison = vec![0, 63, 64];
            let (out, log) = drive_log(&all_words(192), poison.clone());
            assert_eq!(out.quarantined, poison);
            assert_eq!(out.pairs_examined, 189);
            let expected: Vec<usize> = (0..192).filter(|i| !poison.contains(i)).collect();
            assert_eq!(
                log, expected,
                "every neighbour evaluated once, in pair order"
            );
        });
    }

    #[test]
    fn sparse_masks_map_bits_to_indices() {
        quiet(|| {
            let idxs: Vec<usize> = (0..50).map(|i| i * 3).collect();
            let (out, log) = drive_log(&words_of(idxs.iter().copied()), vec![21]);
            assert_eq!(out.quarantined, vec![21]);
            assert_eq!(out.pairs_examined, 49);
            let expected: Vec<usize> = idxs.into_iter().filter(|&i| i != 21).collect();
            assert_eq!(log, expected);
        });
    }

    #[test]
    fn cancellation_reports_untouched_tail() {
        let token = CancelToken::new();
        let mut sink = LogSink::new(vec![]);
        sink.cancel_at = Some((9, token.clone()));
        let budget = EvalBudget::unlimited().with_token(token);
        let mut checker = budget.checker();
        let out = drive_words(&all_words(100), &mut checker, &mut sink);
        // Pair 9 fires the token *during* its word, so the word completes;
        // the check before the next word observes the cancellation.
        assert_eq!(out.reason, Some(StopReason::Cancelled));
        assert_eq!(out.pairs_examined, 64);
        assert_eq!(out.remaining, (64..100).collect::<Vec<_>>());
        assert_eq!(sink.log, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_mid_word_leaves_exactly_the_later_words() {
        // Every other pair of 0..320 (five words), cancelled at pair 150,
        // in the middle of word 2.
        let pairs: Vec<usize> = (0..320).step_by(2).collect();
        let token = CancelToken::new();
        let mut sink = LogSink::new(vec![]);
        sink.cancel_at = Some((150, token.clone()));
        let budget = EvalBudget::unlimited().with_token(token);
        let mut checker = budget.checker();
        let out = drive_words(&words_of(pairs.iter().copied()), &mut checker, &mut sink);
        assert_eq!(out.reason, Some(StopReason::Cancelled));
        let (done, later): (Vec<usize>, Vec<usize>) = pairs.iter().partition(|&&i| i < 192);
        assert_eq!(sink.log, done, "word 2 finished");
        assert_eq!(out.pairs_examined, done.len());
        assert_eq!(out.remaining, later, "exactly the pairs of words 3 and 4");
    }

    #[test]
    fn pre_cancelled_budget_evaluates_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let mut sink = LogSink::new(vec![]);
        let mut checker = EvalBudget::unlimited().with_token(token).checker();
        let out = drive_words(&all_words(10), &mut checker, &mut sink);
        assert_eq!(out.pairs_examined, 0);
        assert_eq!(out.remaining, (0..10).collect::<Vec<_>>());
        assert!(sink.log.is_empty());
    }

    #[test]
    fn rollback_leaves_no_duplicate_events() {
        quiet(|| {
            // Poison in the middle of a word: the pairs before it are rolled
            // back then re-run in halves — the log must still hold each
            // healthy pair exactly once.
            let (out, log) = drive_log(&all_words(32), vec![16]);
            assert_eq!(out.quarantined, vec![16]);
            let expected: Vec<usize> = (0..32).filter(|&i| i != 16).collect();
            assert_eq!(log, expected);
        });
    }

    #[test]
    fn whole_range_poisoned_quarantines_all() {
        quiet(|| {
            let (out, _) = drive_log(&all_words(5), (0..5).collect());
            assert_eq!(out.quarantined, vec![0, 1, 2, 3, 4]);
            assert_eq!(out.pairs_examined, 0);
        });
    }

    // ---- the sharded driver: memo windows tile the pair axis -------------

    use crate::feature::FeatureId;
    use crate::memo::Memo;
    use em_types::{Record, Schema, Table};
    use std::sync::Mutex;

    /// Pairs of the cell-writing fixture: 40×32, twenty words.
    const N_PAIRS: usize = 1280;

    /// What a pass of the cell-writing step left behind.
    struct Cells {
        pass: Pass,
        /// The distinct memo windows the step ran in, by start.
        windows: Vec<Range<usize>>,
        memo: DenseMemo,
    }

    /// Drives `words` of a 40×32 cartesian candidate set (1,280 pairs, one
    /// feature) at `threads` threads, with a step that writes each pair's
    /// cell, reports the word's pairs matched, and records its window.
    fn drive_cells(threads: usize, words: &[Word]) -> Cells {
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        for i in 0..40 {
            a.push(Record::new(format!("a{i}"), [format!("x{i}")]));
        }
        for i in 0..32 {
            b.push(Record::new(format!("b{i}"), [format!("x{i}")]));
        }
        let mut ctx = EvalContext::from_tables(a, b);
        ctx.feature(em_similarity::Measure::Exact, "name", "name")
            .unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        assert_eq!(cands.len(), N_PAIRS);
        let mut memo = DenseMemo::new(cands.len(), 0);
        let windows = Mutex::new(Vec::new());
        let exec = Executor::with_threads(threads);
        let budget = EvalBudget::unlimited();
        let pass = drive_sharded(
            &exec,
            &ctx,
            &cands,
            words,
            Some(&mut memo),
            &budget,
            |w, word, mask| {
                for i in word_pairs(word, mask) {
                    w.memo.put(i, FeatureId(0), i as f64);
                }
                w.events.push(DeltaEvent::Matched { word, mask });
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
        let pairs = |e: &DeltaEvent| match *e {
            DeltaEvent::Matched { word, mask } => word_pairs(word, mask),
            other => panic!("unexpected event {other:?}"),
        };
        pass.events.iter().flat_map(pairs).collect()
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
    fn empty_word_list_runs_no_shard() {
        let out = drive_cells(4, &[]);
        assert!(out.pass.events.is_empty());
        assert!(out.pass.worker_stats.is_empty());
        assert_eq!(out.pass.pairs_examined, 0);
        assert!(out.pass.completion.is_complete());
        assert!(out.windows.is_empty());
        assert_cells(&out.memo, &[]);
    }

    #[test]
    fn fewer_words_than_shards_get_one_window_each() {
        // 9 workers cut 36 shards; 20 words make 20 one-word shards.
        let out = drive_cells(9, &all_words(N_PAIRS));
        let all: Vec<usize> = (0..N_PAIRS).collect();
        assert_eq!(matched(&out.pass), all, "events in pair order");
        let one_each: Vec<Range<usize>> = (0..20).map(|w| 64 * w..64 * w + 64).collect();
        assert_eq!(out.windows, one_each);
        assert_eq!(out.pass.worker_stats.len(), 9);
        assert_eq!(out.pass.pairs_examined, N_PAIRS);
        assert_cells(&out.memo, &all);
    }

    #[test]
    fn windows_of_an_inner_word_list_tile_every_pair() {
        // Two workers cut up to 8 shards; 4 words (3, 4, 8 and 17) make 4
        // shards whose windows run from pair 0 to the last pair, not just
        // the listed words.
        let pairs = [200, 260, 261, 520, 1100];
        let words = words_of(pairs);
        let out = drive_cells(2, &words);
        assert_eq!(matched(&out.pass), pairs);
        assert_eq!(out.windows, vec![0..256, 256..512, 512..1088, 1088..1280]);
        assert_cells(&out.memo, &pairs);
        // Serially the one window is the whole memo.
        let out = drive_cells(1, &words);
        assert_eq!(out.windows, vec![0..N_PAIRS]);
        assert_cells(&out.memo, &pairs);
    }

    #[test]
    fn windows_tile_the_pair_axis_at_every_thread_count() {
        // Every third pair, skipping words 5–9: fifteen sparse words.
        let pairs: Vec<usize> = (0..N_PAIRS)
            .step_by(3)
            .filter(|i| !(320..640).contains(i))
            .collect();
        let words = words_of(pairs.iter().copied());
        for threads in [1, 2, 4, 9] {
            let out = drive_cells(threads, &words);
            assert_eq!(matched(&out.pass), pairs, "events in pair order");
            assert_eq!(out.windows.first().map(|r| r.start), Some(0));
            assert_eq!(out.windows.last().map(|r| r.end), Some(N_PAIRS));
            for pair in out.windows.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "windows tile at {threads}");
                assert_eq!(pair[1].start % 64, 0, "cut on a word at {threads}");
            }
            assert_eq!(out.pass.pairs_examined, pairs.len());
            assert_cells(&out.memo, &pairs);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn repeated_word_is_refused() {
        drive_cells(2, &[(3, 1), (8, 1), (8, 2), (12, 1)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_words_are_refused() {
        drive_cells(1, &[(8, 1), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "within the candidate set")]
    fn pairs_past_the_candidate_set_are_refused() {
        drive_cells(1, &[(19, 1), (20, 1)]);
    }
}
