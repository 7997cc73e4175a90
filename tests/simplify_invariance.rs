//! Simplification (`em_core::simplify`) is a pure logical rewrite: for any
//! matching function and any data, verdicts must be bit-identical before
//! and after, and the function can only shrink. Its exact output — which
//! rules and predicates survive, and the three report counts — is pinned
//! by a digest over a seeded sweep of random functions.

mod common;

use common::{random_workload, reference_verdicts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rulem::core::{analyze_with, BoundRule, DiagnosticKind, Executor};
use rulem::core::{run_memo, simplify, CmpOp, FeatureId, MatchingFunction, Rule};
use rulem::similarity::Codomain;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A random function over raw feature ids (1–5 of them, some colliding
/// mod 64), 1–8 rules of 1–4 predicates, all four operators, thresholds
/// from a grid that reaches outside `[0, 1]` and repeats across rules.
fn random_function(rng: &mut StdRng) -> MatchingFunction {
    const IDS: [u32; 6] = [0, 1, 2, 3, 64, 65];
    const GRID: [f64; 7] = [-0.5, 0.0, 0.3, 0.5, 0.8, 1.0, 1.5];
    const OPS: [CmpOp; 4] = [CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt];
    let features = &IDS[..rng.gen_range(1..=5)];
    let mut func = MatchingFunction::new();
    for _ in 0..rng.gen_range(1..=8) {
        let mut rule = Rule::new();
        for _ in 0..rng.gen_range(1..=4) {
            rule = rule.pred(
                FeatureId(features[rng.gen_range(0..features.len())]),
                OPS[rng.gen_range(0..4)],
                GRID[rng.gen_range(0..GRID.len())],
            );
        }
        func.add_rule(rule).unwrap();
    }
    func
}

/// Whether two predicates of `rule` bound one feature from the same side,
/// so one of them is redundant (the weaker, or the later of two equal).
fn has_redundant_predicate(rule: &BoundRule) -> bool {
    let lower = |op: CmpOp| matches!(op, CmpOp::Ge | CmpOp::Gt);
    rule.preds.iter().enumerate().any(|(k, p)| {
        rule.preds[k + 1..]
            .iter()
            .any(|q| q.pred.feature == p.pred.feature && lower(q.pred.op) == lower(p.pred.op))
    })
}

/// `simplify`'s exact output on 4,000 seeded random functions: every
/// surviving rule and predicate (ids, order, features, operators,
/// threshold bits) and the three report counts, folded into one FNV-1a
/// digest. Verdict preservation alone cannot see a `simplify` that keeps
/// more or removes less than before; this can. The sweep must reach the
/// cases where codomain-free simplification differs from lint under
/// `[0, 1]` codomains, and where the report's accounting is subtle.
#[test]
fn simplify_output_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    // [unsat only in [0, 1] and kept, redundant predicate of an unsat rule
    // not counted, redundant predicate of a subsumed rule counted, row
    // whose other rule is removed too]
    let mut reached = [0usize; 4];
    for _ in 0..4_000 {
        let original = random_function(&mut rng);
        let mut func = original.clone();
        let report = simplify(&mut func);

        digest.word(func.n_rules() as u64);
        for rule in func.rules() {
            digest.word(u64::from(rule.id.0));
            digest.word(rule.preds.len() as u64);
            for bp in &rule.preds {
                digest.word(bp.id.0);
                digest.word(u64::from(bp.pred.feature.0));
                digest.word(bp.pred.op as u64);
                digest.word(bp.pred.threshold.to_bits());
            }
        }
        digest.word(report.dominated_predicates.len() as u64);
        digest.word(report.unsatisfiable_rules.len() as u64);
        digest.word(report.subsumed_rules.len() as u64);

        let kept = |id| func.rule(id).is_some();
        let unit = analyze_with(&original, |_| Codomain::UNIT, |_| None, |f| f.to_string());
        reached[0] += unit
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UnsatisfiableRule && kept(d.rule))
            .count();
        for rule in original.rules() {
            if !has_redundant_predicate(rule) {
                continue;
            }
            let counted = rule
                .preds
                .iter()
                .any(|bp| report.dominated_predicates.contains(&bp.id));
            if report.unsatisfiable_rules.contains(&rule.id) {
                assert!(!counted, "rule {} is unsatisfiable: {report:?}", rule.id);
                reached[1] += 1;
            } else if report.subsumed_rules.iter().any(|&(s, _)| s == rule.id) {
                assert!(counted, "rule {} is subsumed: {report:?}", rule.id);
                reached[2] += 1;
            }
        }
        reached[3] += report
            .subsumed_rules
            .iter()
            .filter(|&&(_, other)| !kept(other))
            .count();
    }
    assert!(reached.iter().all(|&n| n > 0), "cases reached: {reached:?}");
    assert_eq!(format!("{:016x}", digest.0), "46d708164309bcce");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn simplify_preserves_verdicts(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let expected = reference_verdicts(&w);

        let mut func = w.func.clone();
        let report = simplify(&mut func);

        // Only shrinks.
        prop_assert!(func.n_rules() <= w.func.n_rules());
        prop_assert!(func.n_predicates() <= w.func.n_predicates());
        prop_assert_eq!(
            w.func.n_rules() - func.n_rules(),
            report.unsatisfiable_rules.len() + report.subsumed_rules.len()
        );

        // Verdicts identical (empty function matches nothing — also fine).
        let (out, _) = run_memo(&func, &w.ctx, &w.cands, true, &Executor::serial());
        prop_assert_eq!(&out.verdicts, &expected, "report: {:?}", report);
    }

    #[test]
    fn simplify_is_idempotent(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let mut func = w.func.clone();
        simplify(&mut func);
        let second = simplify(&mut func);
        prop_assert!(second.is_noop(), "second pass removed more: {:?}", second);
    }
}
