//! Static analysis of matching functions: an abstract-interpretation pass
//! over the rule program using a per-feature interval domain.
//!
//! The debugging loop of the paper finds rule defects by *running* the
//! rules and inspecting verdicts. A whole class of defects is decidable
//! from the rule text alone: contradictory predicates, rules shadowed by
//! looser rules, thresholds outside a measure's codomain, predicates made
//! vacuous by the blocking step. This module derives them statically, so
//! the analyst gets instant feedback on every edit before any evaluation
//! is spent. [`crate::simplify`] applies the fixes of the four kinds that
//! fire under codomain-free facts (unsatisfiable, redundant predicate,
//! duplicate, subsumed).
//!
//! ## The domain
//!
//! Each rule is a conjunction of `feature op threshold` predicates. Its
//! *normal form* assigns every referenced feature one [`Interval`]: the
//! intersection of all the rule's bounds on that feature, further
//! intersected with the feature's measure [`Codomain`] (`[0, 1]` for
//! similarities, `{0, 1}` for equality-style measures like `exact`).
//! Emptiness, implication, and equality of normal forms then decide the
//! diagnostics:
//!
//! | kind | severity | meaning |
//! |------|----------|---------|
//! | [`DiagnosticKind::UnsatisfiableRule`] | error | some interval is empty — the rule can never fire |
//! | [`DiagnosticKind::OutOfRangeThreshold`] | error / warning | threshold outside the codomain: the predicate can never hold (error) or always holds (warning) |
//! | [`DiagnosticKind::TautologicalPredicate`] | warning | threshold at the codomain floor for `>=` (or ceiling for `<=`) — the predicate accepts every possible value |
//! | [`DiagnosticKind::RedundantPredicate`] | warning | implied by a sibling predicate on the same feature |
//! | [`DiagnosticKind::DuplicateRule`] | warning | identical normal form to an earlier rule |
//! | [`DiagnosticKind::SubsumedRule`] | warning | another rule's intervals contain this rule's — it never changes the match set |
//! | [`DiagnosticKind::BlockingVacuousPredicate`] | info | the candidate join's guarantee already implies the predicate for every candidate pair |
//!
//! ## Fix-its and the soundness contract
//!
//! Every diagnostic carries an optional [`FixIt`] expressed in the session
//! edit grammar (drop predicate, drop rule, clamp threshold), so fixes
//! replay through the incremental engine like any analyst edit. A
//! diagnostic with [`Diagnostic::safe`] `== true` promises that applying
//! its fix-it leaves **all verdicts bitwise unchanged** (for
//! blocking-vacuous predicates: unchanged on the blocked candidate set)
//! **and** leaves every surviving rule's `M(r)` bitmap and every
//! surviving predicate's `U(p)` bitmap bitwise unchanged under the
//! early-exit engines. The second half is why evaluation *order* matters
//! to safety: a rule subsumed by an **earlier** rule never fires (safe to
//! drop), while one subsumed by a **later** rule re-attributes its
//! matches to the subsumer when dropped — verdict-equal but not
//! attribution-equal, so `safe == false`. Likewise a redundant predicate
//! is safe to drop only when an implying sibling is ordered before it.
//! That contract is enforced by the `analyze_soundness` proptest at the
//! workspace root, which applies safe fixes through the session edit path
//! at 1/2/4 threads and compares verdicts, `M(r)`/`U(p)` bitmaps, and
//! history counters.
//!
//! Diagnostics are deterministic and severity-ranked: sorted by severity
//! (errors first), then rule position in evaluation order, then predicate
//! position, then kind.
//!
//! ## Cost
//!
//! Every finding is either *local* to one rule (unsatisfiable rule and
//! the predicate-level kinds, which read that rule alone) or one rule's
//! *row* of the duplicate/subsumption relation: its first earlier rule
//! with an equal normal form, else its first strict subsumer. [`analyze`]
//! builds each normal form once, linear in the predicates, then fills
//! every row: O(rules²) tests of a 64-bit feature mask, and an interval
//! test only where the masks allow one. A rule's mask has bit `f % 64`
//! set for each feature `f` it constrains; a rule `g` constraining a
//! feature that `s` leaves free can neither equal nor contain `s`, so
//! `g.mask & !s.mask != 0` rules the pair out. The filter is exact: a
//! mod-64 collision only costs the interval test. A feature name is
//! formatted only for a finding that is reported.
//!
//! ## What an edit introduced
//!
//! An analyst edit changes one rule, so [`introduced`] computes its
//! advisories from that rule's two versions rather than from two
//! whole-program passes. In the order before the edit and the order
//! after it, it takes the edited rule's local findings and row, plus the
//! rows of every rule for which the edited rule is a *candidate* (an
//! earlier rule with an equal normal form, or a strict subsumer) in
//! either order, and returns the after-findings whose [`Diagnostic::key`]
//! is not among the before-findings. Its contract: equal, element for
//! element, to `new_diagnostics(&analyze(before), &analyze(after))`
//! ([`new_diagnostics`] stays as that oracle). It is exact because every
//! other rule's local findings depend on that rule alone, and the other
//! rules keep their relative order, so a row's pick can change only if
//! its candidate set gains or loses the edited rule. Its cost is the
//! normal forms plus O(rules) per recomputed row. The root
//! `lint_advisories` proptest pins the contract through every analyst
//! edit of the command executor.

use crate::context::EvalContext;
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::predicate::{CmpOp, PredId};
use crate::rule::{BoundRule, RuleId};
use em_similarity::{Codomain, JoinGuarantee};
use std::collections::HashMap;
use std::fmt;

/// Normalized bounds on one feature: the tightest lower bound (`Ge`/`Gt`)
/// and upper bound (`Le`/`Lt`) a rule imposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (`NEG_INFINITY` when unconstrained).
    pub lo: f64,
    /// True when the lower bound is open (`Gt` rather than `Ge`).
    pub lo_strict: bool,
    /// Upper bound (`INFINITY` when unconstrained).
    pub hi: f64,
    /// True when the upper bound is open (`Lt` rather than `Le`).
    pub hi_strict: bool,
}

impl Interval {
    /// The interval accepting every value.
    pub fn unconstrained() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            lo_strict: false,
            hi: f64::INFINITY,
            hi_strict: false,
        }
    }

    /// The closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval {
            lo,
            lo_strict: false,
            hi,
            hi_strict: false,
        }
    }

    /// The interval a single `op threshold` bound accepts.
    pub fn of_bound(op: CmpOp, threshold: f64) -> Self {
        let mut iv = Interval::unconstrained();
        iv.add_bound(op, threshold);
        iv
    }

    /// True when no value satisfies the bounds.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_strict || self.hi_strict))
    }

    /// Whether every value accepted by `self` is accepted by `other`
    /// (`self ⊆ other`, so `other` is implied by `self`).
    pub fn implies(&self, other: &Interval) -> bool {
        let lo_ok =
            self.lo > other.lo || (self.lo == other.lo && (self.lo_strict || !other.lo_strict));
        let hi_ok =
            self.hi < other.hi || (self.hi == other.hi && (self.hi_strict || !other.hi_strict));
        lo_ok && hi_ok
    }

    /// Whether `value` satisfies the bounds.
    pub fn contains(&self, value: f64) -> bool {
        let lo_ok = if self.lo_strict {
            value > self.lo
        } else {
            value >= self.lo
        };
        let hi_ok = if self.hi_strict {
            value < self.hi
        } else {
            value <= self.hi
        };
        lo_ok && hi_ok
    }

    /// Tightens the interval by one `op threshold` bound.
    pub fn add_bound(&mut self, op: CmpOp, t: f64) {
        match op {
            CmpOp::Ge if t > self.lo => {
                self.lo = t;
                self.lo_strict = false;
            }
            CmpOp::Gt if t > self.lo || (t == self.lo && !self.lo_strict) => {
                self.lo = t;
                self.lo_strict = true;
            }
            CmpOp::Le if t < self.hi => {
                self.hi = t;
                self.hi_strict = false;
            }
            CmpOp::Lt if t < self.hi || (t == self.hi && !self.hi_strict) => {
                self.hi = t;
                self.hi_strict = true;
            }
            _ => {}
        }
    }

    /// The interval restricted to a measure's codomain.
    ///
    /// For a binary codomain the result is *snapped* to the subset of the
    /// two endpoint values the interval accepts (`[1, 1]`, `[0, 0]`,
    /// `[0, 1]`, or empty), which is what makes `exact >= 0.3` and
    /// `exact >= 1` share one normal form.
    pub fn clamp_to(&self, cod: &Codomain) -> Interval {
        if cod.binary {
            return match (self.contains(cod.lo), self.contains(cod.hi)) {
                (true, true) => Interval::closed(cod.lo, cod.hi),
                (true, false) => Interval::closed(cod.lo, cod.lo),
                (false, true) => Interval::closed(cod.hi, cod.hi),
                // Canonical empty interval.
                (false, false) => Interval {
                    lo: cod.hi,
                    lo_strict: true,
                    hi: cod.lo,
                    hi_strict: true,
                },
            };
        }
        let mut out = *self;
        if out.lo < cod.lo {
            out.lo = cod.lo;
            out.lo_strict = false;
        }
        if out.hi > cod.hi {
            out.hi = cod.hi;
            out.hi_strict = false;
        }
        out
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_strict { '(' } else { '[' },
            self.lo,
            self.hi,
            if self.hi_strict { ')' } else { ']' },
        )
    }
}

/// The raw per-feature intervals of one rule (codomain not applied), in
/// first-appearance order of features.
fn rule_intervals(rule: &BoundRule) -> Vec<(FeatureId, Interval)> {
    // Room for the clamped copy `RuleNf::of` appends.
    let mut out: Vec<(FeatureId, Interval)> = Vec::with_capacity(2 * rule.preds.len());
    for bp in &rule.preds {
        let f = bp.pred.feature;
        let slot = match out.iter().position(|&(g, _)| g == f) {
            Some(slot) => slot,
            None => {
                out.push((f, Interval::unconstrained()));
                out.len() - 1
            }
        };
        out[slot].1.add_bound(bp.pred.op, bp.pred.threshold);
    }
    out
}

/// How bad a diagnostic is. Ordered so that sorting ascending puts the
/// most severe first: `Error < Warning < Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The rule program is defective: some rule or predicate can never
    /// have an effect the analyst intended (e.g. a rule that cannot fire).
    Error,
    /// Redundancy: removing the flagged element changes nothing.
    Warning,
    /// Advisory relative to the current candidate set (blocking).
    Info,
}

impl Severity {
    /// Stable lowercase label used in porcelain output.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The catalog of statically decidable rule defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticKind {
    /// Some feature's interval (after codomain clamping) is empty.
    UnsatisfiableRule,
    /// A threshold lies outside the measure's codomain.
    OutOfRangeThreshold,
    /// The predicate accepts every value the measure can produce.
    TautologicalPredicate,
    /// A sibling predicate on the same feature already implies this one.
    RedundantPredicate,
    /// Identical normal form to an earlier rule.
    DuplicateRule,
    /// Another rule fires whenever this one does.
    SubsumedRule,
    /// The blocking join's guarantee implies the predicate for every
    /// candidate pair.
    BlockingVacuousPredicate,
}

impl DiagnosticKind {
    /// Stable snake_case label used in porcelain output.
    pub fn label(&self) -> &'static str {
        match self {
            DiagnosticKind::UnsatisfiableRule => "unsatisfiable_rule",
            DiagnosticKind::OutOfRangeThreshold => "out_of_range_threshold",
            DiagnosticKind::TautologicalPredicate => "tautological_predicate",
            DiagnosticKind::RedundantPredicate => "redundant_predicate",
            DiagnosticKind::DuplicateRule => "duplicate_rule",
            DiagnosticKind::SubsumedRule => "subsumed_rule",
            DiagnosticKind::BlockingVacuousPredicate => "blocking_vacuous_predicate",
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A suggested repair, expressed in the session edit grammar so it can be
/// applied through the incremental engine (and undone) like any edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FixIt {
    /// Remove the whole rule (`rm r<k>`).
    DropRule(RuleId),
    /// Remove one predicate (`rmpred p<k>`).
    DropPredicate(PredId),
    /// Replace the predicate's threshold (`set p<k> <t>`).
    ClampThreshold(PredId, f64),
}

impl FixIt {
    /// The fix as a REPL/wire command line (the grammar of
    /// [`crate::command::parse`]).
    pub fn command_text(&self) -> String {
        match self {
            FixIt::DropRule(r) => format!("rm {r}"),
            FixIt::DropPredicate(p) => format!("rmpred {p}"),
            FixIt::ClampThreshold(p, t) => format!("set {p} {t}"),
        }
    }

    /// The fix as a parsed [`crate::command::Command`].
    pub fn to_command(&self) -> crate::command::Command {
        match *self {
            FixIt::DropRule(r) => crate::command::Command::RemoveRule(r),
            FixIt::DropPredicate(p) => crate::command::Command::RemovePredicate(p),
            FixIt::ClampThreshold(p, t) => crate::command::Command::SetThreshold(p, t),
        }
    }
}

impl fmt::Display for FixIt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.command_text())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// How bad it is.
    pub severity: Severity,
    /// The rule the finding is about.
    pub rule: RuleId,
    /// The rule's position in the evaluation order (0-based) — *where* in
    /// the rule program the problem is.
    pub rule_pos: usize,
    /// The predicate the finding is about, for predicate-level kinds.
    pub pred: Option<PredId>,
    /// The predicate's position within its rule (0-based).
    pub pred_pos: Option<usize>,
    /// The feature involved, when the finding is about one feature.
    pub feature: Option<FeatureId>,
    /// The other rule involved (the subsumer, or the first duplicate).
    pub other_rule: Option<RuleId>,
    /// Human-readable explanation.
    pub message: String,
    /// Suggested repair in the edit grammar, when one exists.
    pub fix: Option<FixIt>,
    /// When true, applying [`Diagnostic::fix`] is guaranteed to leave all
    /// verdicts bitwise unchanged (for blocking-vacuous findings:
    /// unchanged on the blocked candidate set).
    pub safe: bool,
}

impl Diagnostic {
    /// Identity of the finding modulo message text — used to tell which
    /// diagnostics an edit *introduced* (see [`introduced`] and
    /// [`new_diagnostics`]).
    pub fn key(&self) -> (DiagnosticKind, RuleId, Option<PredId>, Option<RuleId>) {
        (self.kind, self.rule, self.pred, self.other_rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)?;
        if let Some(fix) = &self.fix {
            write!(
                f,
                " (fix: `{fix}`{})",
                if self.safe { ", safe" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// The diagnostics in `after` whose [`Diagnostic::key`] does not appear in
/// `before` — what an edit introduced. This is the definition
/// [`introduced`] computes without the two whole-program passes.
pub fn new_diagnostics<'a>(before: &[Diagnostic], after: &'a [Diagnostic]) -> Vec<&'a Diagnostic> {
    let seen: std::collections::HashSet<_> = before.iter().map(|d| d.key()).collect();
    after.iter().filter(|d| !seen.contains(&d.key())).collect()
}

/// What the analyzer reads about features: each one's codomain, the
/// lower bound blocking guarantees for it, and its display name.
struct Facts<'a> {
    codomain_of: &'a dyn Fn(FeatureId) -> Codomain,
    guaranteed_min: &'a dyn Fn(FeatureId) -> Option<f64>,
    name_of: &'a dyn Fn(FeatureId) -> String,
}

/// Runs `f` over the facts of `ctx`: codomains from each feature's
/// measure, names from the context, and each guarantee resolved to the
/// features it bounds (same measure, and both attribute names equal to
/// the guaranteed attribute; the highest bound wins).
fn with_facts<R>(
    ctx: &EvalContext,
    guarantees: &[JoinGuarantee],
    f: impl FnOnce(&Facts<'_>) -> R,
) -> R {
    let reg = ctx.registry();
    let schema_a = ctx.table_a().schema();
    let schema_b = ctx.table_b().schema();
    let mut mins: HashMap<FeatureId, f64> = HashMap::new();
    for g in guarantees {
        for (fid, def) in reg.iter() {
            if def.measure == g.measure
                && schema_a.attr_name(def.attr_a) == Some(g.attr.as_str())
                && schema_b.attr_name(def.attr_b) == Some(g.attr.as_str())
            {
                let min = mins.entry(fid).or_insert(f64::NEG_INFINITY);
                if g.min_similarity > *min {
                    *min = g.min_similarity;
                }
            }
        }
    }
    f(&Facts {
        codomain_of: &|fid| {
            reg.try_def(fid)
                .map(|d| d.measure.codomain())
                .unwrap_or(Codomain::UNIT)
        },
        guaranteed_min: &|fid| mins.get(&fid).copied(),
        name_of: &|fid| ctx.feature_name(fid),
    })
}

/// Analyzes `func` against an evaluation context and the blocking step's
/// join guarantees.
///
/// Codomains come from each feature's measure in the context's registry;
/// `guarantees` (from `Blocker::guarantee()` in `em-blocking`) are matched
/// to features by measure and attribute names. Diagnostics come back
/// sorted by severity (errors first), then rule position, then predicate
/// position.
pub fn analyze(
    func: &MatchingFunction,
    ctx: &EvalContext,
    guarantees: &[JoinGuarantee],
) -> Vec<Diagnostic> {
    with_facts(ctx, guarantees, |facts| analyze_in(func, facts))
}

/// The context-free core of [`analyze`]: codomains, blocking bounds, and
/// feature names are supplied by the caller (tests use plain `f<k>`
/// names and all-`UNIT` codomains).
pub fn analyze_with(
    func: &MatchingFunction,
    codomain_of: impl Fn(FeatureId) -> Codomain,
    guaranteed_min: impl Fn(FeatureId) -> Option<f64>,
    name_of: impl Fn(FeatureId) -> String,
) -> Vec<Diagnostic> {
    let facts = Facts {
        codomain_of: &codomain_of,
        guaranteed_min: &guaranteed_min,
        name_of: &name_of,
    };
    analyze_in(func, &facts)
}

/// Every rule's local findings, then every rule's row, sorted.
fn analyze_in(func: &MatchingFunction, facts: &Facts<'_>) -> Vec<Diagnostic> {
    let nfs: Vec<RuleNf<'_>> = func
        .rules()
        .iter()
        .map(|rule| RuleNf::of(rule, facts))
        .collect();
    let order: Vec<&RuleNf<'_>> = nfs.iter().collect();
    let mut out = Vec::new();
    for (pos, nf) in nfs.iter().enumerate() {
        local_findings(nf, pos, facts, &mut out);
    }
    out.extend((0..order.len()).filter_map(|i| row_finding(i, &order)));
    sort_findings(&mut out);
    out
}

/// The findings an edit of rule `edited` introduced: equal, element for
/// element, to `new_diagnostics(&analyze(before), &analyze(after))` when
/// `after` differs from the function before the edit in rule `edited`
/// only (see the module docs for why).
///
/// `before_rule` is the rule's version before the edit and its position
/// then, or `None` when the edit added it; `after` lacks `edited` when the
/// edit removed it.
pub fn introduced(
    before_rule: Option<(&BoundRule, usize)>,
    after: &MatchingFunction,
    edited: RuleId,
    ctx: &EvalContext,
    guarantees: &[JoinGuarantee],
) -> Vec<Diagnostic> {
    with_facts(ctx, guarantees, |facts| {
        introduced_in(before_rule, after, edited, facts)
    })
}

fn introduced_in(
    before_rule: Option<(&BoundRule, usize)>,
    after: &MatchingFunction,
    edited: RuleId,
    facts: &Facts<'_>,
) -> Vec<Diagnostic> {
    let nfs: Vec<RuleNf<'_>> = after
        .rules()
        .iter()
        .map(|rule| RuleNf::of(rule, facts))
        .collect();
    let old = before_rule.map(|(rule, pos)| (RuleNf::of(rule, facts), pos));
    // The edited rule's position in each order. The "before" order is the
    // "after" order with the edited rule replaced, put back or taken out;
    // every other rule keeps its relative order.
    let at_after = after.rule_position(edited);
    let at_before = old.as_ref().map(|&(_, pos)| pos);
    let after_order: Vec<&RuleNf<'_>> = nfs.iter().collect();
    let mut before_order = after_order.clone();
    if let Some(at) = at_after {
        before_order.remove(at);
    }
    if let Some((nf, pos)) = &old {
        before_order.insert(*pos, nf);
    }

    let mut affected: Vec<RuleId> = Vec::new();
    for (order, at) in [(&before_order, at_before), (&after_order, at_after)] {
        let Some(at) = at else { continue };
        for (pos, s) in order.iter().enumerate() {
            if pos != at && order[at].is_candidate_for(at, s, pos) && !affected.contains(&s.rule.id)
            {
                affected.push(s.rule.id);
            }
        }
    }
    // The findings that can differ between the two orders: the edited
    // rule's own, and the rows of the affected rules.
    let touched = |order: &[&RuleNf<'_>], at: Option<usize>| {
        let mut out = Vec::new();
        if let Some(at) = at {
            local_findings(order[at], at, facts, &mut out);
        }
        for (pos, s) in order.iter().enumerate() {
            if Some(pos) == at || affected.contains(&s.rule.id) {
                out.extend(row_finding(pos, order));
            }
        }
        out
    };
    let before_keys: Vec<_> = touched(&before_order, at_before)
        .iter()
        .map(Diagnostic::key)
        .collect();
    let mut out = touched(&after_order, at_after);
    out.retain(|d| !before_keys.contains(&d.key()));
    sort_findings(&mut out);
    out
}

/// One rule's normal form: what the relation and the local findings read.
struct RuleNf<'r> {
    rule: &'r BoundRule,
    /// The raw intervals (codomain not applied) in first-appearance order,
    /// then the normal form: the same features' clamped intervals, sorted
    /// by feature id. One buffer, so a normal form costs one allocation.
    intervals: Vec<(FeatureId, Interval)>,
    /// Some clamped interval is empty: the rule can never fire.
    unsat: bool,
    /// Bit `f % 64` set for every feature `f` whose clamped interval is
    /// not [`Interval::unconstrained`].
    mask: u64,
}

/// How one rule's normal form relates to another's.
enum Cover {
    /// Equal normal forms.
    Equal,
    /// Strictly containing: the rule fires whenever the other does.
    Strict,
    /// Neither, or one of the two rules is unsatisfiable.
    No,
}

impl<'r> RuleNf<'r> {
    fn of(rule: &'r BoundRule, facts: &Facts<'_>) -> Self {
        let mut intervals = rule_intervals(rule);
        let n = intervals.len();
        for k in 0..n {
            let (f, iv) = intervals[k];
            intervals.push((f, iv.clamp_to(&(facts.codomain_of)(f))));
        }
        intervals[n..].sort_by_key(|&(f, _)| f);
        let normal = &intervals[n..];
        let unsat = normal.iter().any(|(_, iv)| iv.is_empty());
        let mask = normal
            .iter()
            .filter(|(_, iv)| *iv != Interval::unconstrained())
            .fold(0u64, |mask, (f, _)| mask | 1 << (f.0 % 64));
        RuleNf {
            rule,
            intervals,
            unsat,
            mask,
        }
    }

    /// Raw intervals (codomain not applied), first-appearance order.
    fn raw(&self) -> &[(FeatureId, Interval)] {
        &self.intervals[..self.intervals.len() / 2]
    }

    /// (feature, clamped interval) sorted by feature id.
    fn normal(&self) -> &[(FeatureId, Interval)] {
        &self.intervals[self.intervals.len() / 2..]
    }

    /// How this rule's normal form relates to `s`'s. Unsatisfiable rules
    /// are related to nothing: they already carry an error, and an empty
    /// rule is trivially contained in everything.
    fn covers(&self, s: &RuleNf<'_>) -> Cover {
        // A constrained interval is never implied by an unconstrained one.
        if self.unsat || s.unsat || self.mask & !s.mask != 0 {
            return Cover::No;
        }
        if self.normal() == s.normal() {
            return Cover::Equal;
        }
        // Features `self` leaves unconstrained are trivially implied.
        let implied = self.normal().iter().all(|(gf, giv)| {
            let siv = s.normal().iter().find(|(sf, _)| sf == gf);
            siv.map_or_else(Interval::unconstrained, |&(_, iv)| iv)
                .implies(giv)
        });
        if implied {
            Cover::Strict
        } else {
            Cover::No
        }
    }

    /// Whether this rule, at position `at`, can be picked in the row of
    /// `s` at `pos`: it is an earlier rule with an equal normal form, or a
    /// strict subsumer.
    fn is_candidate_for(&self, at: usize, s: &RuleNf<'_>, pos: usize) -> bool {
        match self.covers(s) {
            Cover::Equal => at < pos,
            Cover::Strict => true,
            Cover::No => false,
        }
    }
}

/// The rule-local findings: an unsatisfiable rule, then the
/// predicate-level kinds. They read the rule alone.
fn local_findings(nf: &RuleNf<'_>, pos: usize, facts: &Facts<'_>, out: &mut Vec<Diagnostic>) {
    let rule = nf.rule;
    if nf.unsat {
        let bad: Vec<String> = nf
            .normal()
            .iter()
            .filter(|(_, iv)| iv.is_empty())
            .map(|(f, _)| (facts.name_of)(*f))
            .collect();
        out.push(Diagnostic {
            kind: DiagnosticKind::UnsatisfiableRule,
            severity: Severity::Error,
            rule: rule.id,
            rule_pos: pos,
            pred: None,
            pred_pos: None,
            feature: nf
                .raw()
                .iter()
                .find(|(f, iv)| iv.clamp_to(&(facts.codomain_of)(*f)).is_empty())
                .map(|(f, _)| *f),
            other_rule: None,
            message: format!(
                "rule {} can never fire: contradictory bounds on {}",
                rule.id,
                bad.join(", ")
            ),
            // The rule never fires, so dropping it flips no verdict.
            fix: Some(FixIt::DropRule(rule.id)),
            safe: true,
        });
    }
    analyze_predicates(rule, pos, nf.raw(), facts, out);
}

/// Row `i` of the duplicate/subsumption relation over `order` (the rules
/// in evaluation order): rule `i`'s first earlier duplicate, else its
/// first strict subsumer.
fn row_finding(i: usize, order: &[&RuleNf<'_>]) -> Option<Diagnostic> {
    let s = order[i];
    let mut picked = None;
    for (j, g) in order.iter().enumerate() {
        if j > i && picked.is_some() {
            break; // no duplicate lies later, and the first subsumer is set
        }
        match g.covers(s) {
            // Duplicate beats subsumption; the earliest twin wins.
            Cover::Equal if j < i => {
                picked = Some((DiagnosticKind::DuplicateRule, j));
                break;
            }
            Cover::Strict if picked.is_none() => picked = Some((DiagnosticKind::SubsumedRule, j)),
            _ => {}
        }
    }
    let (kind, j) = picked?;
    let (s, other) = (s.rule.id, order[j].rule.id);
    Some(Diagnostic {
        kind,
        severity: Severity::Warning,
        rule: s,
        rule_pos: i,
        pred: None,
        pred_pos: None,
        feature: None,
        other_rule: Some(other),
        message: match kind {
            DiagnosticKind::DuplicateRule => {
                format!("rule {s} is identical to rule {other} (same normal form)")
            }
            _ if j < i => format!(
                "rule {s} is subsumed by earlier rule {other}: whenever {s} fires, {other} already fired"
            ),
            _ => format!(
                "rule {s} is subsumed by later rule {other} (dropping it re-attributes its \
                 matches to {other}, verdicts unchanged)"
            ),
        },
        fix: Some(FixIt::DropRule(s)),
        // Dropping is attribution-safe only when the subsumer comes
        // EARLIER in evaluation order: then the subsumed rule never
        // fires under early exit and removing it is a strict no-op.
        // A later subsumer still makes the drop verdict-safe, but
        // pairs it claimed re-attribute to the subsumer (`M(r)`
        // bitmaps shift), so it is not marked safe.
        safe: j < i,
    })
}

/// Deterministic, severity-ranked order. Rule-level findings sort before
/// predicate-level findings of the same rule.
fn sort_findings(out: &mut [Diagnostic]) {
    out.sort_by_key(|d| {
        (
            d.severity,
            d.rule_pos,
            d.pred_pos.map_or(-1, |p| p as i64),
            d.kind,
        )
    });
}

/// Predicate-level diagnostics for one rule: out-of-range thresholds,
/// tautologies, redundancy, and blocking-vacuous predicates.
fn analyze_predicates(
    rule: &BoundRule,
    pos: usize,
    raw: &[(FeatureId, Interval)],
    facts: &Facts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let single_pred = rule.preds.len() == 1;
    // Earlier same-feature duplicates, for keep-first redundancy.
    let mut seen_binding: Vec<(FeatureId, CmpOp, f64)> = Vec::new();

    for (ppos, bp) in rule.preds.iter().enumerate() {
        let f = bp.pred.feature;
        let (op, t) = (bp.pred.op, bp.pred.threshold);
        let cod = (facts.codomain_of)(f);
        // Formatted only for a finding that is reported.
        let name_of = || (facts.name_of)(f);
        let mk = |kind, severity, message, fix, safe| Diagnostic {
            kind,
            severity,
            rule: rule.id,
            rule_pos: pos,
            pred: Some(bp.id),
            pred_pos: Some(ppos),
            feature: Some(f),
            other_rule: None,
            message,
            fix,
            safe,
        };

        // 1. Out-of-range threshold: outside the codomain's value range.
        if t < cod.lo || t > cod.hi {
            let dead = matches!(op, CmpOp::Ge | CmpOp::Gt if t > cod.hi)
                || matches!(op, CmpOp::Le | CmpOp::Lt if t < cod.lo);
            let clamp = if t > cod.hi { cod.hi } else { cod.lo };
            // Clamping is semantics-preserving only when the predicate is
            // vacuous both before and after: `f >= t` with `t < lo`
            // clamps to `f >= lo` (still always true); the strict forms
            // would start excluding the endpoint.
            let clamp_safe = !dead && matches!(op, CmpOp::Ge | CmpOp::Le);
            let name = name_of();
            out.push(mk(
                DiagnosticKind::OutOfRangeThreshold,
                if dead { Severity::Error } else { Severity::Warning },
                format!(
                    "threshold {t} of {} ({name} {op} {t}) is outside {name}'s range [{}, {}]: the predicate {} holds",
                    bp.id,
                    cod.lo,
                    cod.hi,
                    if dead { "never" } else { "always" }
                ),
                Some(FixIt::ClampThreshold(bp.id, clamp)),
                clamp_safe,
            ));
            continue; // dead/vacuous already said it all for this predicate
        }

        // 2. Tautological predicate: threshold at the codomain floor for a
        // closed lower bound (or ceiling for a closed upper bound).
        if (op == CmpOp::Ge && t == cod.lo) || (op == CmpOp::Le && t == cod.hi) {
            let fix = (!single_pred).then_some(FixIt::DropPredicate(bp.id));
            let name = name_of();
            out.push(mk(
                DiagnosticKind::TautologicalPredicate,
                Severity::Warning,
                format!(
                    "{} ({name} {op} {t}) accepts every value in {name}'s range [{}, {}]{}",
                    bp.id,
                    cod.lo,
                    cod.hi,
                    if single_pred {
                        " — the rule matches every pair"
                    } else {
                        ""
                    }
                ),
                fix,
                fix.is_some(),
            ));
            continue;
        }

        // 3. Redundant predicate: the rule's raw interval on this feature
        // is just as tight without it (a sibling imposes an equal or
        // stricter same-direction bound). `simplify` removes exactly
        // these, outside unsatisfiable rules.
        let iv = raw
            .iter()
            .find(|(rf, _)| *rf == f)
            .map(|&(_, iv)| iv)
            .expect("feature has an interval");
        let binding = match op {
            CmpOp::Ge => iv.lo == t && !iv.lo_strict,
            CmpOp::Gt => iv.lo == t && iv.lo_strict,
            CmpOp::Le => iv.hi == t && !iv.hi_strict,
            CmpOp::Lt => iv.hi == t && iv.hi_strict,
        };
        let duplicate_binding = binding && seen_binding.contains(&(f, op, t));
        if binding && !duplicate_binding {
            seen_binding.push((f, op, t));
        }
        if !binding || duplicate_binding {
            // Dropping is *attribution*-safe (leaves the per-predicate
            // `U(p)` bitmaps of the survivors untouched, not just the
            // verdicts) only when an implying sibling is ordered BEFORE
            // this predicate: then every pair failing here already
            // short-circuited earlier, so this predicate never evaluated
            // false and its removal re-examines nothing.
            let implied_by_earlier = rule.preds[..ppos].iter().any(|q| {
                q.pred.feature == f
                    && Interval::of_bound(q.pred.op, q.pred.threshold)
                        .implies(&Interval::of_bound(op, t))
            });
            let name = name_of();
            out.push(mk(
                DiagnosticKind::RedundantPredicate,
                Severity::Warning,
                if duplicate_binding {
                    format!("{} ({name} {op} {t}) duplicates an earlier predicate", bp.id)
                } else if implied_by_earlier {
                    format!(
                        "{} ({name} {op} {t}) is implied by a stricter earlier sibling bound on {name}",
                        bp.id
                    )
                } else {
                    format!(
                        "{} ({name} {op} {t}) is implied by a stricter later sibling bound on {name} \
                         (dropping it shifts per-predicate attribution, not verdicts)",
                        bp.id
                    )
                },
                Some(FixIt::DropPredicate(bp.id)),
                implied_by_earlier,
            ));
            continue;
        }

        // 4. Blocking-vacuous: every candidate pair already satisfies the
        // predicate because the join guarantees `feature >= min`.
        if let Some(min) = (facts.guaranteed_min)(f) {
            let candidate_range = Interval::closed(min, cod.hi).clamp_to(&cod);
            let pred_iv = Interval::of_bound(op, t);
            if !candidate_range.is_empty() && candidate_range.implies(&pred_iv) {
                let fix = (!single_pred).then_some(FixIt::DropPredicate(bp.id));
                let name = name_of();
                out.push(mk(
                    DiagnosticKind::BlockingVacuousPredicate,
                    Severity::Info,
                    format!(
                        "{} ({name} {op} {t}) already holds for every candidate pair: blocking guarantees {name} >= {min}",
                        bp.id
                    ),
                    fix,
                    fix.is_some(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn f(i: u32) -> FeatureId {
        FeatureId(i)
    }

    /// Analyzer over all-UNIT codomains, no guarantees.
    fn lint(func: &MatchingFunction) -> Vec<Diagnostic> {
        analyze_with(func, |_| Codomain::UNIT, |_| None, |f| f.to_string())
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_function_has_no_diagnostics() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.8)
                .pred(f(1), CmpOp::Ge, 0.5),
        )
        .unwrap();
        func.add_rule(Rule::new().pred(f(2), CmpOp::Ge, 0.9))
            .unwrap();
        assert!(lint(&func).is_empty());
    }

    #[test]
    fn unsatisfiable_rule_flagged_with_safe_drop() {
        let mut func = MatchingFunction::new();
        let rid = func
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, 0.8)
                    .pred(f(0), CmpOp::Lt, 0.5),
            )
            .unwrap();
        let diags = lint(&func);
        assert_eq!(diags[0].kind, DiagnosticKind::UnsatisfiableRule);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].fix, Some(FixIt::DropRule(rid)));
        assert!(diags[0].safe);
    }

    #[test]
    fn codomain_makes_high_threshold_unsatisfiable() {
        // f >= 1.5 alone: raw interval non-empty, clamped interval empty.
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 1.5))
            .unwrap();
        let diags = lint(&func);
        assert!(
            kinds(&diags).contains(&DiagnosticKind::UnsatisfiableRule),
            "{diags:?}"
        );
        let oor = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::OutOfRangeThreshold)
            .expect("out-of-range also flagged");
        assert_eq!(oor.severity, Severity::Error);
        assert!(!oor.safe, "clamping a dead bound changes semantics");
        assert_eq!(
            oor.fix,
            Some(FixIt::ClampThreshold(func.rules()[0].preds[0].id, 1.0))
        );
    }

    #[test]
    fn below_floor_ge_is_vacuous_and_safely_clampable() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, -0.5)
                .pred(f(1), CmpOp::Ge, 0.7),
        )
        .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::OutOfRangeThreshold]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].safe, "Ge clamp to the floor stays vacuous");
        assert_eq!(
            diags[0].fix,
            Some(FixIt::ClampThreshold(func.rules()[0].preds[0].id, 0.0))
        );
        // The strict form is not safely clampable: f > 0 excludes 0.
        let mut func2 = MatchingFunction::new();
        func2
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Gt, -0.5)
                    .pred(f(1), CmpOp::Ge, 0.7),
            )
            .unwrap();
        let diags2 = lint(&func2);
        assert_eq!(kinds(&diags2), vec![DiagnosticKind::OutOfRangeThreshold]);
        assert!(!diags2[0].safe);
    }

    #[test]
    fn tautological_predicate_at_floor() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.0)
                .pred(f(1), CmpOp::Ge, 0.7),
        )
        .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::TautologicalPredicate]);
        let pid = func.rules()[0].preds[0].id;
        assert_eq!(diags[0].fix, Some(FixIt::DropPredicate(pid)));
        assert!(diags[0].safe);
    }

    #[test]
    fn tautological_single_predicate_has_no_fix() {
        // Dropping the only predicate is not expressible (EmptyRule), and
        // dropping the rule would change verdicts (it matches everything).
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.0))
            .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::TautologicalPredicate]);
        assert_eq!(diags[0].fix, None);
        assert!(!diags[0].safe);
        assert!(diags[0].message.contains("matches every pair"));
    }

    #[test]
    fn redundant_predicate_flagged() {
        // Loose bound AFTER the strict one: never evaluated false under
        // early exit, so dropping it is attribution-safe.
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.7)
                .pred(f(0), CmpOp::Ge, 0.5),
        )
        .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::RedundantPredicate]);
        let loose = func.rules()[0].preds[1].id;
        assert_eq!(diags[0].pred, Some(loose));
        assert_eq!(diags[0].fix, Some(FixIt::DropPredicate(loose)));
        assert!(diags[0].safe);
    }

    #[test]
    fn redundant_predicate_before_its_implier_is_not_attribution_safe() {
        // Loose bound BEFORE the strict one: it short-circuits some
        // pairs, so dropping it shifts `U(p)` attribution to the strict
        // sibling — still flagged, fix still offered, but not safe.
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(0), CmpOp::Ge, 0.7),
        )
        .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::RedundantPredicate]);
        let loose = func.rules()[0].preds[0].id;
        assert_eq!(diags[0].pred, Some(loose));
        assert_eq!(diags[0].fix, Some(FixIt::DropPredicate(loose)));
        assert!(!diags[0].safe);
        assert!(
            diags[0].message.contains("later sibling"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn rule_subsumed_by_later_rule_is_not_attribution_safe() {
        // r0 ⊆ r1 with the subsumer LATER: r0 fires first for its pairs,
        // so dropping it re-attributes those matches to r1. Verdict-safe
        // but not attribution-safe.
        let mut func = MatchingFunction::new();
        let tight = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.9))
            .unwrap();
        let loose = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.6))
            .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::SubsumedRule]);
        assert_eq!(diags[0].rule, tight);
        assert_eq!(diags[0].other_rule, Some(loose));
        assert_eq!(diags[0].fix, Some(FixIt::DropRule(tight)));
        assert!(!diags[0].safe);
        assert!(
            diags[0].message.contains("later rule"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn duplicate_binding_predicates_keep_first() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(0), CmpOp::Ge, 0.5),
        )
        .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::RedundantPredicate]);
        assert_eq!(diags[0].pred, Some(func.rules()[0].preds[1].id));
        assert!(diags[0].message.contains("duplicates"));
    }

    #[test]
    fn duplicate_rule_flags_the_later_one() {
        let mut func = MatchingFunction::new();
        let first = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let second = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::DuplicateRule]);
        assert_eq!(diags[0].rule, second);
        assert_eq!(diags[0].other_rule, Some(first));
        assert_eq!(diags[0].fix, Some(FixIt::DropRule(second)));
        assert!(diags[0].safe);
    }

    #[test]
    fn binary_codomain_unifies_equivalent_thresholds() {
        // On {0,1}-valued exact, `f >= 0.3` and `f >= 1` mean the same
        // thing — the clamped normal forms agree, so it's a duplicate.
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.3))
            .unwrap();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 1.0))
            .unwrap();
        let diags = analyze_with(&func, |_| Codomain::BINARY, |_| None, |f| f.to_string());
        assert_eq!(kinds(&diags), vec![DiagnosticKind::DuplicateRule]);
    }

    #[test]
    fn subsumed_rule_flagged_with_subsumer() {
        let mut func = MatchingFunction::new();
        let strict = func
            .add_rule(
                Rule::new()
                    .pred(f(0), CmpOp::Ge, 0.8)
                    .pred(f(1), CmpOp::Ge, 0.5),
            )
            .unwrap();
        let loose = func
            .add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.6))
            .unwrap();
        let diags = lint(&func);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::SubsumedRule]);
        assert_eq!(diags[0].rule, strict);
        assert_eq!(diags[0].other_rule, Some(loose));
        assert_eq!(diags[0].fix, Some(FixIt::DropRule(strict)));
    }

    #[test]
    fn band_rule_not_subsumed_by_half_open() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.3)
                .pred(f(0), CmpOp::Lt, 0.6),
        )
        .unwrap();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.3)
                .pred(f(1), CmpOp::Ge, 0.5),
        )
        .unwrap();
        assert!(lint(&func).is_empty());
    }

    #[test]
    fn blocking_guarantee_makes_predicate_vacuous() {
        let mut func = MatchingFunction::new();
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(1), CmpOp::Ge, 0.9),
        )
        .unwrap();
        // Blocking guarantees f0 >= 0.6 for every candidate pair.
        let diags = analyze_with(
            &func,
            |_| Codomain::UNIT,
            |fid| (fid == f(0)).then_some(0.6),
            |f| f.to_string(),
        );
        assert_eq!(
            kinds(&diags),
            vec![DiagnosticKind::BlockingVacuousPredicate]
        );
        assert_eq!(diags[0].severity, Severity::Info);
        let pid = func.rules()[0].preds[0].id;
        assert_eq!(diags[0].fix, Some(FixIt::DropPredicate(pid)));
        assert!(diags[0].safe);
        // A threshold above the guarantee is NOT vacuous.
        let diags = analyze_with(
            &func,
            |_| Codomain::UNIT,
            |fid| (fid == f(0)).then_some(0.4),
            |f| f.to_string(),
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn blocking_vacuous_single_predicate_has_no_fix() {
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let diags = analyze_with(&func, |_| Codomain::UNIT, |_| Some(0.6), |f| f.to_string());
        assert_eq!(
            kinds(&diags),
            vec![DiagnosticKind::BlockingVacuousPredicate]
        );
        assert_eq!(diags[0].fix, None);
        assert!(!diags[0].safe);
    }

    #[test]
    fn diagnostics_ordered_by_severity_then_position() {
        let mut func = MatchingFunction::new();
        // r0: redundant predicate (warning).
        func.add_rule(
            Rule::new()
                .pred(f(0), CmpOp::Ge, 0.5)
                .pred(f(0), CmpOp::Ge, 0.7),
        )
        .unwrap();
        // r1: unsatisfiable (error) — must sort first despite later rule.
        func.add_rule(
            Rule::new()
                .pred(f(1), CmpOp::Ge, 0.8)
                .pred(f(1), CmpOp::Lt, 0.2),
        )
        .unwrap();
        // r2: vacuous via guarantee (info) — must sort last.
        func.add_rule(
            Rule::new()
                .pred(f(2), CmpOp::Ge, 0.1)
                .pred(f(1), CmpOp::Ge, 0.9),
        )
        .unwrap();
        let diags = analyze_with(
            &func,
            |_| Codomain::UNIT,
            |fid| (fid == f(2)).then_some(0.3),
            |f| f.to_string(),
        );
        assert_eq!(
            kinds(&diags),
            vec![
                DiagnosticKind::UnsatisfiableRule,
                DiagnosticKind::RedundantPredicate,
                DiagnosticKind::BlockingVacuousPredicate,
            ]
        );
        // Determinism: same input, same output.
        let again = analyze_with(
            &func,
            |_| Codomain::UNIT,
            |fid| (fid == f(2)).then_some(0.3),
            |f| f.to_string(),
        );
        assert_eq!(diags, again);
    }

    #[test]
    fn fix_its_render_in_the_edit_grammar() {
        assert_eq!(FixIt::DropRule(RuleId(3)).command_text(), "rm r3");
        assert_eq!(FixIt::DropPredicate(PredId(7)).command_text(), "rmpred p7");
        assert_eq!(
            FixIt::ClampThreshold(PredId(2), 1.0).command_text(),
            "set p2 1"
        );
        // And they parse back through the shared grammar.
        for fix in [
            FixIt::DropRule(RuleId(3)),
            FixIt::DropPredicate(PredId(7)),
            FixIt::ClampThreshold(PredId(2), 1.0),
        ] {
            let parsed = crate::command::parse(&fix.command_text()).unwrap().unwrap();
            assert_eq!(parsed, fix.to_command());
        }
    }

    #[test]
    fn new_diagnostics_diff() {
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let before = lint(&func);
        assert!(before.is_empty());
        func.add_rule(Rule::new().pred(f(0), CmpOp::Ge, 0.5))
            .unwrap();
        let after = lint(&func);
        let fresh = new_diagnostics(&before, &after);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, DiagnosticKind::DuplicateRule);
        // Unchanged set diffs to nothing.
        assert!(new_diagnostics(&after, &after).is_empty());
    }

    #[test]
    fn mask_collisions_relate_nothing() {
        // f1 and f65 share mask bit 1, so the prefilter lets each pair
        // through; the interval test must still tell the features apart.
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f(1), CmpOp::Ge, 0.5))
            .unwrap();
        func.add_rule(Rule::new().pred(f(65), CmpOp::Ge, 0.5))
            .unwrap();
        func.add_rule(
            Rule::new()
                .pred(f(65), CmpOp::Ge, 0.2)
                .pred(f(1), CmpOp::Le, 0.3),
        )
        .unwrap();
        let nfs: Vec<_> = func
            .rules()
            .iter()
            .map(|r| RuleNf::of(r, &unit_facts()))
            .collect();
        assert!(nfs.iter().all(|nf| nf.mask == 1 << 1));
        for g in &nfs {
            for s in &nfs {
                if !std::ptr::eq(g, s) {
                    let related = !matches!(g.covers(s), Cover::No);
                    assert!(!related, "{} vs {}", g.rule.id, s.rule.id);
                }
            }
        }
        assert!(lint(&func).is_empty(), "{:?}", lint(&func));
    }

    fn unit_facts() -> Facts<'static> {
        Facts {
            codomain_of: &|_| Codomain::UNIT,
            guaranteed_min: &|_| None,
            name_of: &|f| f.to_string(),
        }
    }

    /// Binary codomains on every third feature, a blocking bound on f1.
    fn mixed_facts() -> Facts<'static> {
        Facts {
            codomain_of: &|f| {
                if f.0 % 3 == 0 {
                    Codomain::BINARY
                } else {
                    Codomain::UNIT
                }
            },
            guaranteed_min: &|f| (f.0 == 1).then_some(0.3),
            name_of: &|f| f.to_string(),
        }
    }

    /// A random rule over `features`, thresholds from a grid that reaches
    /// outside the unit interval and repeats across rules.
    fn random_rule(rng: &mut StdRng, features: &[u32]) -> Rule {
        let mut rule = Rule::new();
        for _ in 0..rng.gen_range(1..=3) {
            let op = [CmpOp::Ge, CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt][rng.gen_range(0..5)];
            let t = [-0.5, 0.0, 0.3, 0.5, 0.8, 1.0, 1.5][rng.gen_range(0..7)];
            rule = rule.pred(f(features[rng.gen_range(0..features.len())]), op, t);
        }
        rule
    }

    fn random_function(rng: &mut StdRng, features: &[u32], max_rules: usize) -> MatchingFunction {
        let mut func = MatchingFunction::new();
        for _ in 0..rng.gen_range(1..=max_rules) {
            func.add_rule(random_rule(rng, features)).unwrap();
        }
        func
    }

    /// The relation by brute force, with no mask: per rule, the first
    /// earlier rule with an equal normal form, else the first strict
    /// subsumer; unsatisfiable rules take no part.
    fn brute_force_rows(
        func: &MatchingFunction,
        codomain_of: impl Fn(FeatureId) -> Codomain,
    ) -> Vec<Option<(DiagnosticKind, RuleId)>> {
        let nfs: Vec<Vec<(FeatureId, Interval)>> = func
            .rules()
            .iter()
            .map(|rule| {
                let mut nf: Vec<_> = rule_intervals(rule)
                    .into_iter()
                    .map(|(f, iv)| (f, iv.clamp_to(&codomain_of(f))))
                    .collect();
                nf.sort_by_key(|&(f, _)| f);
                nf
            })
            .collect();
        let unsat = |j: usize| nfs[j].iter().any(|(_, iv)| iv.is_empty());
        let interval = |j: usize, f: FeatureId| {
            let found = nfs[j].iter().find(|&&(g, _)| g == f);
            found.map_or_else(Interval::unconstrained, |&(_, iv)| iv)
        };
        let contains =
            |g: usize, s: usize| nfs[g].iter().all(|&(f, iv)| interval(s, f).implies(&iv));
        (0..nfs.len())
            .map(|i| {
                if unsat(i) {
                    return None;
                }
                let mut others = (0..nfs.len()).filter(|&j| j != i && !unsat(j));
                let duplicate = others.clone().find(|&j| j < i && nfs[j] == nfs[i]);
                let subsumer = others.find(|&j| nfs[j] != nfs[i] && contains(j, i));
                let id = |j: usize| func.rules()[j].id;
                duplicate
                    .map(|j| (DiagnosticKind::DuplicateRule, id(j)))
                    .or(subsumer.map(|j| (DiagnosticKind::SubsumedRule, id(j))))
            })
            .collect()
    }

    #[test]
    fn prefiltered_rows_equal_brute_force_past_feature_63() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0a11);
        let mut related = 0;
        for _ in 0..400 {
            // Three ids with one residue mod 64, plus one anywhere below 200.
            let x = rng.gen_range(0..72);
            let features = [x, x + 64, x + 128, rng.gen_range(0..200)];
            let func = random_function(&mut rng, &features, 8);
            let facts = mixed_facts();
            let diags = analyze_in(&func, &facts);
            let rows: Vec<_> = func
                .rules()
                .iter()
                .map(|rule| {
                    diags
                        .iter()
                        .find(|d| {
                            d.rule == rule.id
                                && matches!(
                                    d.kind,
                                    DiagnosticKind::DuplicateRule | DiagnosticKind::SubsumedRule
                                )
                        })
                        .map(|d| (d.kind, d.other_rule.expect("a row names its other rule")))
                })
                .collect();
            let want = brute_force_rows(&func, facts.codomain_of);
            related += want.iter().flatten().count();
            assert_eq!(rows, want, "{func:?}");
        }
        assert!(related > 100, "the sweep relates too few rules: {related}");
    }

    #[test]
    fn introduced_equals_the_full_diff_for_every_edit_kind() {
        let mut rng = StdRng::seed_from_u64(0x0ed1_7ed1);
        let facts = mixed_facts();
        let mut kinds_seen = std::collections::BTreeSet::new();
        for case in 0..3000 {
            let features: Vec<u32> = (0..4).map(|_| rng.gen_range(0..6)).collect();
            let before = random_function(&mut rng, &features, 8);
            let mut after = before.clone();
            let rules = before.rules();
            let target = &rules[rng.gen_range(0..rules.len())];
            let edited = match rng.gen_range(0..6) {
                // Add a fresh rule, or a copy of an existing one.
                0 => after.add_rule(random_rule(&mut rng, &features)).unwrap(),
                1 => after
                    .add_rule(Rule::with(target.preds.iter().map(|bp| bp.pred)))
                    .unwrap(),
                2 => after.remove_rule(target.id).map(|r| r.id).unwrap(),
                3 => {
                    let pred = random_rule(&mut rng, &features).predicates()[0];
                    after.add_predicate(target.id, pred).unwrap();
                    target.id
                }
                4 if target.preds.len() > 1 => {
                    let bp = &target.preds[rng.gen_range(0..target.preds.len())];
                    after.remove_predicate(bp.id).unwrap();
                    target.id
                }
                _ => {
                    let bp = &target.preds[rng.gen_range(0..target.preds.len())];
                    let t = [-0.5, 0.0, 0.3, 0.5, 0.8, 1.0, 1.5][rng.gen_range(0..7)];
                    after.set_threshold(bp.id, t).unwrap();
                    target.id
                }
            };
            let before_rule = before
                .rule(edited)
                .map(|r| (r, before.rule_position(edited).unwrap()));
            let want: Vec<Diagnostic> =
                new_diagnostics(&analyze_in(&before, &facts), &analyze_in(&after, &facts))
                    .into_iter()
                    .cloned()
                    .collect();
            let got = introduced_in(before_rule, &after, edited, &facts);
            assert_eq!(got, want, "case {case}: {before:?} -> {after:?}");
            kinds_seen.extend(got.iter().map(|d| d.kind));
        }
        assert_eq!(kinds_seen.len(), 7, "kinds exercised: {kinds_seen:?}");
    }

    #[test]
    fn interval_display_and_contains() {
        let iv = Interval::of_bound(CmpOp::Ge, 0.5);
        assert_eq!(iv.to_string(), "[0.5, inf]");
        assert!(iv.contains(0.5));
        let iv = Interval::of_bound(CmpOp::Gt, 0.5);
        assert!(!iv.contains(0.5));
        assert!(iv.contains(0.6));
    }
}
