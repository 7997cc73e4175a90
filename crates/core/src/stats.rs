//! Sampling-based estimation of feature costs and predicate selectivities
//! (§4.4, §5.5 of the paper).
//!
//! The ordering algorithms need `cost(f)` (nanoseconds to compute feature
//! `f` for one pair), `sel(p)` (probability predicate `p` is true for a
//! random candidate pair), and `δ` (the memo lookup cost). All three are
//! estimated over a small random sample of the candidate pairs — the paper
//! found a 1 % sample sufficient, which our experiments confirm.

use crate::context::EvalContext;
use crate::feature::FeatureId;
use crate::function::MatchingFunction;
use crate::memo::{DenseMemo, Memo};
use crate::predicate::PredId;
use crate::rule::BoundRule;
use em_types::CandidateSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Default sample fraction (the paper's 1 %).
pub const DEFAULT_SAMPLE_FRACTION: f64 = 0.01;

/// Estimated statistics for one matching function over one candidate set.
#[derive(Debug, Clone, Default)]
pub struct FunctionStats {
    feature_cost: HashMap<FeatureId, f64>,
    pred_sel: HashMap<PredId, f64>,
    lookup_cost: f64,
}

impl FunctionStats {
    /// Builds statistics from explicit values — used by tests and by the
    /// cost-model validation experiments, where deterministic numbers are
    /// needed.
    pub fn synthetic(
        feature_cost: impl IntoIterator<Item = (FeatureId, f64)>,
        pred_sel: impl IntoIterator<Item = (PredId, f64)>,
        lookup_cost: f64,
    ) -> Self {
        FunctionStats {
            feature_cost: feature_cost.into_iter().collect(),
            pred_sel: pred_sel.into_iter().collect(),
            lookup_cost,
        }
    }

    /// Estimates statistics by evaluating every feature and predicate of
    /// `func` over a random `fraction` of `cands` (at least one pair, at
    /// most all of them).
    pub fn estimate(
        func: &MatchingFunction,
        ctx: &EvalContext,
        cands: &CandidateSet,
        fraction: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = cands.len();
        let sample_size = ((n as f64 * fraction).ceil() as usize).clamp(1, n.max(1));
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        indices.truncate(sample_size);

        let mut stats = FunctionStats {
            lookup_cost: measure_lookup_cost(),
            ..Default::default()
        };
        if n == 0 {
            return stats;
        }

        // Feature costs: wall-clock each feature over the sample through
        // `EvalContext::compute` — the call the engines make per pair — so
        // the cost model's α(f, r) inputs are the engines' per-pair cost.
        // Values are kept so selectivities reuse them.
        //
        // Kernels finish a small sample in microseconds, where a single
        // wall-clock reading is dominated by scheduler noise and the
        // resulting feature *ordering* flips from run to run (breaking the
        // determinism `optimize` callers observe). So: one untimed warm-up,
        // then repeat until enough time has accumulated, keeping the fastest
        // repetition — the standard noise-robust estimator.
        const MIN_MEASURE_NS: u128 = 50_000;
        const MAX_REPS: u32 = 64;
        let features = func.features();
        let pairs: Vec<_> = indices.iter().map(|&i| cands.pair(i)).collect();
        let mut values: HashMap<FeatureId, Vec<f64>> = HashMap::new();
        for &f in &features {
            let mut vals = vec![0.0; indices.len()];
            let fill = |vals: &mut [f64]| {
                for (slot, &pair) in vals.iter_mut().zip(&pairs) {
                    *slot = ctx.compute(f, pair);
                }
            };
            let warm_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fill(&mut vals);
            }))
            .is_ok();
            let per_eval = if warm_ok {
                let mut best = f64::INFINITY;
                let mut spent = 0u128;
                let mut reps = 0u32;
                while (spent < MIN_MEASURE_NS || reps < 3) && reps < MAX_REPS {
                    let start = Instant::now();
                    fill(&mut vals);
                    let elapsed = start.elapsed().as_nanos();
                    spent += elapsed;
                    best = best.min(elapsed as f64 / indices.len() as f64);
                    reps += 1;
                }
                best
            } else {
                // A panicking feature must not abort statistics estimation —
                // estimation is advisory. Re-score each pair individually,
                // 0.0 where it panics; matching itself quarantines such
                // pairs. One timed pass suffices: the catch_unwind framing
                // dwarfs timer noise.
                let start = Instant::now();
                for (slot, &i) in vals.iter_mut().zip(&indices) {
                    *slot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx.compute(f, cands.pair(i))
                    }))
                    .unwrap_or(0.0);
                }
                start.elapsed().as_nanos() as f64 / indices.len() as f64
            };
            let per_eval = per_eval.max(1.0);
            crate::obs::core_metrics()
                .kernel_ns_per_pair
                .record(per_eval as u64);
            stats.feature_cost.insert(f, per_eval);
            values.insert(f, vals);
        }

        // Predicate selectivities: fraction of the sample passing.
        for (_, bp) in func.predicates() {
            let vals = &values[&bp.pred.feature];
            let passed = vals.iter().filter(|&&v| bp.pred.eval(v)).count();
            stats
                .pred_sel
                .insert(bp.id, passed as f64 / vals.len() as f64);
        }

        stats
    }

    /// `cost(f)` in nanoseconds. Unknown features get a neutral 1000 ns.
    #[inline]
    pub fn cost(&self, f: FeatureId) -> f64 {
        self.feature_cost.get(&f).copied().unwrap_or(1_000.0)
    }

    /// `sel(p)` as a probability. Unknown predicates get 0.5.
    ///
    /// Selectivities are clamped away from exactly 0 and 1 so that cost
    /// formulas never fully erase a term the real data might still hit
    /// (the sample is small, after all).
    #[inline]
    pub fn sel(&self, p: PredId) -> f64 {
        self.pred_sel
            .get(&p)
            .copied()
            .unwrap_or(0.5)
            .clamp(0.001, 0.999)
    }

    /// The memo lookup cost `δ` in nanoseconds.
    #[inline]
    pub fn lookup_cost(&self) -> f64 {
        self.lookup_cost
    }

    /// Overrides the lookup cost (used by experiments comparing models).
    pub fn set_lookup_cost(&mut self, ns: f64) {
        self.lookup_cost = ns;
    }

    /// Inserts or overwrites a feature cost.
    pub fn set_cost(&mut self, f: FeatureId, ns: f64) {
        self.feature_cost.insert(f, ns);
    }

    /// Inserts or overwrites a predicate selectivity.
    pub fn set_sel(&mut self, p: PredId, sel: f64) {
        self.pred_sel.insert(p, sel);
    }

    /// True when statistics exist for every predicate of `func`.
    pub fn covers(&self, func: &MatchingFunction) -> bool {
        func.predicates().all(|(_, bp)| {
            self.pred_sel.contains_key(&bp.id) && self.feature_cost.contains_key(&bp.pred.feature)
        })
    }

    /// `sel(r)` under predicate independence: the product of the rule's
    /// predicate selectivities.
    pub fn rule_sel(&self, rule: &BoundRule) -> f64 {
        rule.preds.iter().map(|bp| self.sel(bp.id)).product()
    }
}

/// Measures the memo lookup cost `δ` by timing dense-memo probes.
fn measure_lookup_cost() -> f64 {
    const PROBES: usize = 4096;
    let mut memo = DenseMemo::new(64, 8);
    for p in 0..64 {
        for f in 0..8 {
            memo.put(p, FeatureId(f), 0.5);
        }
    }
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..PROBES {
        acc += memo
            .get(i % 64, FeatureId((i % 8) as u32))
            .unwrap_or_default();
    }
    let ns = start.elapsed().as_nanos() as f64 / PROBES as f64;
    // Keep the compiler from eliding the loop.
    std::hint::black_box(acc);
    ns.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::rule::Rule;
    use em_similarity::Measure;
    use em_types::{Record, Schema, Table};

    fn fixture() -> (EvalContext, CandidateSet, MatchingFunction) {
        let schema = Schema::new(["title"]);
        let mut a = Table::new("A", schema.clone());
        let mut b = Table::new("B", schema);
        for i in 0..20 {
            a.push(Record::new(format!("a{i}"), [format!("item number {i}")]));
            b.push(Record::new(format!("b{i}"), [format!("item number {i}")]));
        }
        let mut ctx = EvalContext::from_tables(a, b);
        let f = ctx.feature(Measure::Levenshtein, "title", "title").unwrap();
        let mut func = MatchingFunction::new();
        func.add_rule(Rule::new().pred(f, CmpOp::Ge, 0.97)).unwrap();
        let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
        (ctx, cands, func)
    }

    #[test]
    fn estimate_produces_full_coverage() {
        let (ctx, cands, func) = fixture();
        let stats = FunctionStats::estimate(&func, &ctx, &cands, 0.1, 42);
        assert!(stats.covers(&func));
        let f = func.features()[0];
        assert!(stats.cost(f) >= 1.0);
        assert!(stats.lookup_cost() >= 1.0);
    }

    #[test]
    fn selectivity_reflects_data() {
        let (ctx, cands, func) = fixture();
        // Full sample: exactly 20 of 400 pairs are near-identical titles.
        let stats = FunctionStats::estimate(&func, &ctx, &cands, 1.0, 1);
        let pid = func.predicates().next().unwrap().1.id;
        let sel = stats.sel(pid);
        // ~20/400 = 0.05; nearby titles ("item number 1" vs "item number 11")
        // also pass, so allow a generous band.
        assert!(sel > 0.01 && sel < 0.35, "sel = {sel}");
    }

    #[test]
    fn sample_fraction_clamps() {
        let (ctx, cands, func) = fixture();
        // A microscopic fraction still samples at least one pair.
        let stats = FunctionStats::estimate(&func, &ctx, &cands, 1e-9, 7);
        assert!(stats.covers(&func));
    }

    #[test]
    fn empty_candidates_no_panic() {
        let (ctx, _, func) = fixture();
        let stats = FunctionStats::estimate(&func, &ctx, &CandidateSet::new(), 0.01, 7);
        // Falls back to defaults.
        assert_eq!(stats.sel(PredId(0)), 0.5);
    }

    #[test]
    fn synthetic_accessors() {
        let stats = FunctionStats::synthetic([(FeatureId(0), 500.0)], [(PredId(0), 0.25)], 10.0);
        assert_eq!(stats.cost(FeatureId(0)), 500.0);
        assert_eq!(stats.sel(PredId(0)), 0.25);
        assert_eq!(stats.lookup_cost(), 10.0);
        // Defaults for unknowns.
        assert_eq!(stats.cost(FeatureId(9)), 1_000.0);
        assert_eq!(stats.sel(PredId(9)), 0.5);
    }

    #[test]
    fn sel_clamped_away_from_bounds() {
        let stats = FunctionStats::synthetic([], [(PredId(0), 0.0), (PredId(1), 1.0)], 1.0);
        assert!(stats.sel(PredId(0)) > 0.0);
        assert!(stats.sel(PredId(1)) < 1.0);
    }

    #[test]
    fn rule_sel_is_product() {
        let stats = FunctionStats::synthetic([], [(PredId(0), 0.5), (PredId(1), 0.4)], 1.0);
        let rule = BoundRule {
            id: crate::rule::RuleId(0),
            preds: vec![
                crate::rule::BoundPredicate {
                    id: PredId(0),
                    pred: crate::predicate::Predicate::at_least(FeatureId(0), 0.5),
                },
                crate::rule::BoundPredicate {
                    id: PredId(1),
                    pred: crate::predicate::Predicate::at_least(FeatureId(1), 0.5),
                },
            ],
        };
        assert!((stats.rule_sel(&rule) - 0.2).abs() < 1e-12);
    }
}
