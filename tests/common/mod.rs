//! Shared builders for the integration tests: seed-driven random
//! workloads exercising the full string-similarity pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rulem::core::{
    run_full, CmpOp, EvalContext, Executor, FeatureId, MatchState, MatchingFunction, Rule,
};
use rulem::similarity::{Measure, TokenScheme};
use rulem::types::{CandidateSet, Record, Schema, Table};

/// Phrase vocabulary with deliberate overlaps, typos, and near-duplicates.
const PHRASES: &[&str] = &[
    "apple ipod nano",
    "apple ipod touch",
    "aple ipod nano",
    "sony walkman",
    "sony walkman mp3",
    "bose soundlink",
    "garden hose",
    "john smith",
    "jon smith",
    "",
];

const CODES: &[&str] = &["MC037", "MC037LL", "NWZ-E384", "QC35", "12345", ""];

/// A random workload: two tables, a context with a feature menu, a
/// candidate set, and a random matching function — all from one seed.
///
/// (Allow dead code: each integration-test binary uses a different subset
/// of these fields and helpers.)
#[allow(dead_code)]
pub struct RandomWorkload {
    pub ctx: EvalContext,
    pub cands: CandidateSet,
    pub func: MatchingFunction,
    pub features: Vec<FeatureId>,
}

pub fn random_workload(seed: u64) -> RandomWorkload {
    workload_with_sides(seed, 2..8)
}

/// A random workload whose two tables hold 9–24 records each (81–576
/// pairs), so an edit's cascade crosses 64-pair words and, on a pool, shard
/// boundaries. Drawn the same way as [`random_workload`], with larger
/// tables.
#[allow(dead_code)]
pub fn wide_workload(seed: u64) -> RandomWorkload {
    workload_with_sides(seed, 9..25)
}

/// The workload of `seed` with each table's record count drawn from
/// `sides`.
fn workload_with_sides(seed: u64, sides: std::ops::Range<usize>) -> RandomWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(["title", "code"]);

    let make_table = |name: &str, n: usize, rng: &mut StdRng| {
        let mut t = Table::new(name, schema.clone());
        for i in 0..n {
            let title = PHRASES[rng.gen_range(0..PHRASES.len())];
            let code = CODES[rng.gen_range(0..CODES.len())];
            let values = vec![
                if title.is_empty() {
                    None
                } else {
                    Some(title.to_string())
                },
                if code.is_empty() {
                    None
                } else {
                    Some(code.to_string())
                },
            ];
            t.push(Record::with_missing(format!("{name}{i}"), values));
        }
        t
    };

    let n_a = rng.gen_range(sides.clone());
    let n_b = rng.gen_range(sides);
    let a = make_table("a", n_a, &mut rng);
    let b = make_table("b", n_b, &mut rng);
    let cands = CandidateSet::cartesian(&a, &b);
    let mut ctx = EvalContext::from_tables(a, b);

    let features = vec![
        ctx.feature(Measure::Exact, "code", "code").unwrap(),
        ctx.feature(Measure::JaroWinkler, "title", "title").unwrap(),
        ctx.feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap(),
        ctx.feature(Measure::Levenshtein, "code", "code").unwrap(),
        ctx.feature(Measure::Trigram, "title", "title").unwrap(),
    ];

    let mut func = MatchingFunction::new();
    let n_rules = rng.gen_range(1..6);
    for _ in 0..n_rules {
        let n_preds = rng.gen_range(1..4);
        let mut rule = Rule::new();
        for _ in 0..n_preds {
            let f = features[rng.gen_range(0..features.len())];
            let op = match rng.gen_range(0..4u8) {
                0 => CmpOp::Ge,
                1 => CmpOp::Gt,
                2 => CmpOp::Le,
                _ => CmpOp::Lt,
            };
            let t = (rng.gen_range(0..=10) as f64) / 10.0;
            rule = rule.pred(f, op, t);
        }
        func.add_rule(rule).unwrap();
    }

    RandomWorkload {
        ctx,
        cands,
        func,
        features,
    }
}

/// Reference verdicts: evaluate every rule and predicate directly.
#[allow(dead_code)]
pub fn reference_verdicts(w: &RandomWorkload) -> Vec<bool> {
    w.cands
        .iter()
        .map(|(_, pair)| w.func.eval_reference(|f| w.ctx.compute(f, pair)))
        .collect()
}

/// Checks the §6.1 exactness invariants a state holds after every edit:
///
/// * `unsound` — every `U(p)` bit is sound (`p` is false for that pair);
/// * `pointer` — the fired pointers and every `M(r)` equal a from-scratch
///   `run_full`;
/// * `witness` — every rule before a pair's fired rule (every rule, for an
///   unmatched pair) has a failure witness: a set `U(p)` bit for one of its
///   predicates.
///
/// The error names the first violation, prefixed by its invariant.
#[allow(dead_code)]
pub fn check_exact(
    func: &MatchingFunction,
    ctx: &EvalContext,
    cands: &CandidateSet,
    state: &MatchState,
) -> Result<(), String> {
    for (_, bp) in func.predicates() {
        for i in state
            .pred_bitmap(bp.id)
            .into_iter()
            .flat_map(|b| b.iter_ones())
        {
            let v = ctx.compute(bp.pred.feature, cands.pair(i));
            if bp.pred.eval(v) {
                return Err(format!(
                    "unsound: U({}) holds pair {i}, whose value {v} passes",
                    bp.id
                ));
            }
        }
    }
    let mut fresh = MatchState::new(cands.len(), ctx.registry().len());
    run_full(func, ctx, cands, &mut fresh, true, &Executor::serial());
    for i in 0..cands.len() {
        let (got, want) = (state.fired_rule(i), fresh.fired_rule(i));
        if got != want {
            return Err(format!(
                "pointer: pair {i} fired {got:?}, run_full fires {want:?}"
            ));
        }
    }
    for rule in func.rules() {
        let ones = |s: &MatchState| -> Vec<usize> {
            s.rule_bitmap(rule.id)
                .into_iter()
                .flat_map(|b| b.iter_ones())
                .collect()
        };
        if ones(state) != ones(&fresh) {
            return Err(format!("pointer: M({}) differs from run_full's", rule.id));
        }
    }
    for i in 0..cands.len() {
        let fired = state.fired_rule(i);
        for rule in func.rules().iter().take_while(|r| Some(r.id) != fired) {
            let witnessed = rule
                .preds
                .iter()
                .any(|bp| state.pred_bitmap(bp.id).is_some_and(|b| b.get(i)));
            if !witnessed {
                return Err(format!(
                    "witness: rule {} has none for pair {i} (fired {fired:?})",
                    rule.id
                ));
            }
        }
    }
    Ok(())
}
