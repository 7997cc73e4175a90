//! Evaluation budgets: wall-clock deadlines and cooperative cancellation.
//!
//! The paper's premise is an *interactive* (<1 s) debug loop, so no edit may
//! block unboundedly. An [`EvalBudget`] bounds an evaluation pass with an
//! optional deadline and an optional [`CancelToken`] (wired to Ctrl-C in the
//! CLI). Incremental edits poll the budget through a [`BudgetChecker`]
//! before every 64-pair word; when it trips they stop early and report a
//! [`Completion::Partial`] with the untouched pair indices, which the session
//! stores so `resume()` can finish the remainder later. Full runs take no
//! budget: they always complete.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation flag.
///
/// Clones observe the same flag, so one token can be handed to a signal
/// handler (Ctrl-C) while the evaluation loop polls another clone.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Evaluation stops at the next budget check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called (and not cleared).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Re-arms the token so a stale cancellation does not abort later work.
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// Why an evaluation stopped before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

/// How often (in pairs) a [`BudgetChecker`] consults the wall clock.
///
/// At most one 64-pair word, so the clock is read before every full word
/// and a deadline is overrun by at most one word's evaluation; the cancel
/// token is checked on every call (an atomic load is nearly free).
const DEFAULT_CHECK_EVERY: usize = 16;

/// Bounds one evaluation pass: optional deadline, optional cancel token.
#[derive(Debug, Clone, Default)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    token: Option<CancelToken>,
    check_every: Option<usize>,
}

impl EvalBudget {
    /// A budget that never stops evaluation (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `ms` milliseconds from now.
    pub fn deadline_ms(ms: u64) -> Self {
        Self::unlimited().with_deadline(Duration::from_millis(ms))
    }

    /// Sets a deadline `d` from **now** (anchored at this call).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Overrides how many pairs pass between wall-clock checks (min 1).
    pub fn with_check_every(mut self, n: usize) -> Self {
        self.check_every = Some(n.max(1));
        self
    }

    /// True when this budget can actually stop anything.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.token.is_some()
    }

    /// A per-shard polling cursor over this budget.
    pub fn checker(&self) -> BudgetChecker {
        BudgetChecker {
            deadline: self.deadline,
            token: self.token.clone(),
            check_every: self.check_every.unwrap_or(DEFAULT_CHECK_EVERY),
            until_clock: 0, // the first call consults the clock
        }
    }
}

/// Per-worker polling state for an [`EvalBudget`].
///
/// Each shard builds its own checker so the countdown is thread-local; the
/// token is shared, the clock is global, so all shards stop promptly.
#[derive(Debug)]
pub struct BudgetChecker {
    deadline: Option<Instant>,
    token: Option<CancelToken>,
    check_every: usize,
    until_clock: usize,
}

impl BudgetChecker {
    /// Returns `Some(reason)` when evaluation should stop before the next
    /// `pairs` pairs.
    ///
    /// The cancel token is polled on every call; the wall clock on the
    /// first call and then once `check_every` pairs have been announced
    /// since it was last read (an `Instant::now()` per pair would dominate
    /// cheap features).
    #[inline]
    pub fn should_stop(&mut self, pairs: usize) -> Option<StopReason> {
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if self.until_clock > pairs {
                self.until_clock -= pairs;
            } else {
                self.until_clock = self.check_every;
                if Instant::now() >= deadline {
                    return Some(StopReason::Deadline);
                }
            }
        }
        None
    }
}

/// Whether an evaluation pass covered all requested pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Completion {
    /// Every requested pair was evaluated.
    #[default]
    Complete,
    /// The budget tripped; `remaining` holds the untouched candidate
    /// indices, in ascending order, for a later `resume()`.
    Partial {
        /// Candidate indices not yet evaluated.
        remaining: Vec<usize>,
        /// What tripped the budget.
        reason: StopReason,
    },
}

impl Completion {
    /// True when nothing is left to evaluate.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// The unevaluated candidate indices (empty when complete).
    pub fn remaining(&self) -> &[usize] {
        match self {
            Completion::Complete => &[],
            Completion::Partial { remaining, .. } => remaining,
        }
    }

    /// Why the pass stopped, if it did.
    pub fn reason(&self) -> Option<StopReason> {
        match self {
            Completion::Complete => None,
            Completion::Partial { reason, .. } => Some(*reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let mut c = EvalBudget::unlimited().checker();
        for _ in 0..10_000 {
            assert_eq!(c.should_stop(1), None);
        }
    }

    #[test]
    fn cancelled_token_stops_immediately() {
        let token = CancelToken::new();
        let budget = EvalBudget::unlimited().with_token(token.clone());
        let mut c = budget.checker();
        assert_eq!(c.should_stop(1), None);
        token.cancel();
        assert_eq!(c.should_stop(1), Some(StopReason::Cancelled));
        token.clear();
        assert_eq!(c.should_stop(1), None, "cleared token re-arms");
    }

    #[test]
    fn expired_deadline_stops_on_first_check() {
        let budget = EvalBudget::unlimited().with_deadline(Duration::ZERO);
        let mut c = budget.checker();
        assert_eq!(c.should_stop(1), Some(StopReason::Deadline));
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let budget = EvalBudget::unlimited().with_deadline(Duration::from_secs(3600));
        let mut c = budget.checker();
        for _ in 0..1000 {
            assert_eq!(c.should_stop(1), None);
        }
    }

    #[test]
    fn completion_accessors() {
        let c = Completion::Complete;
        assert!(c.is_complete());
        assert!(c.remaining().is_empty());
        assert_eq!(c.reason(), None);
        let p = Completion::Partial {
            remaining: vec![3, 4],
            reason: StopReason::Deadline,
        };
        assert!(!p.is_complete());
        assert_eq!(p.remaining(), &[3, 4]);
        assert_eq!(p.reason(), Some(StopReason::Deadline));
    }
}
