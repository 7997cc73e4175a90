//! Edit advisories equal the whole-program diff. Every analyst edit run
//! through `command::execute` reports the lint findings it introduced,
//! computed from the edited rule's two versions
//! (`em_core::analyze::introduced`). They must equal, element for element
//! (message, `safe`, fix, `rule_pos` and order),
//! `new_diagnostics(&analyze(before), &analyze(after))` over the whole
//! program, whatever edits, duplicates, reorders, undos and
//! simplifications came first.

mod common;

use common::random_workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rulem::core::command::{execute, Command, Outcome};
use rulem::core::persist::SessionStore;
use rulem::core::{
    new_diagnostics, DebugSession, Diagnostic, DiagnosticKind, OrderingAlgo, Rule, SessionConfig,
};
use rulem::similarity::{JoinGuarantee, Measure, TokenScheme};
use std::collections::BTreeSet;

/// Thresholds the edits draw from: below, at and above the unit
/// codomain's ends, and both sides of the blocking bound.
const GRID: [f64; 9] = [-0.5, 0.0, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5];

/// The workload of `seed` in an ephemeral store; even seeds declare that
/// blocking guarantees Jaccard on `title` ≥ 0.3.
fn build_store(seed: u64) -> SessionStore {
    let w = random_workload(seed);
    let mut s = DebugSession::with_context(w.ctx, w.cands, SessionConfig::default());
    if seed.is_multiple_of(2) {
        s.set_block_guarantees(vec![JoinGuarantee::new(
            Measure::Jaccard(TokenScheme::Whitespace),
            "title",
            0.3,
        )]);
    }
    for rule in w.func.rules() {
        s.add_rule(Rule::with(rule.preds.iter().map(|bp| bp.pred)))
            .expect("random rules are well-formed");
    }
    SessionStore::ephemeral(s)
}

/// A threshold from the grid, or one some predicate already uses, so that
/// rules come to share normal forms.
fn threshold(store: &SessionStore, rng: &mut StdRng) -> f64 {
    let func = store.session().function();
    let n = func.n_predicates();
    if n == 0 || rng.gen_bool(0.6) {
        GRID[rng.gen_range(0..GRID.len())]
    } else {
        let (_, bp) = func.predicates().nth(rng.gen_range(0..n)).unwrap();
        bp.pred.threshold
    }
}

/// One predicate in the rule language, on a random interned feature.
fn predicate_text(store: &SessionStore, rng: &mut StdRng) -> String {
    let ctx = store.session().context();
    let f = ctx
        .registry()
        .iter()
        .nth(rng.gen_range(0..ctx.registry().len()));
    let name = ctx.feature_name(f.expect("the workload interns features").0);
    let op = [">=", ">=", ">", "<=", "<"][rng.gen_range(0..5)];
    format!("{name} {op} {}", threshold(store, rng))
}

/// One random command: an analyst edit (an `add` of an existing rule's
/// text among them), `undo`, `optimize` or `simplify`.
fn random_command(store: &SessionStore, rng: &mut StdRng) -> Command {
    let session = store.session();
    let func = session.function();
    let rules = func.rules();
    if rules.is_empty() {
        let text = predicate_text(store, rng);
        return Command::AddRule(text);
    }
    let rule = &rules[rng.gen_range(0..rules.len())];
    let pred = rule.preds[rng.gen_range(0..rule.preds.len())].id;
    match rng.gen_range(0..14u8) {
        0 | 1 => {
            let n = rng.gen_range(1..=3);
            let preds: Vec<String> = (0..n).map(|_| predicate_text(store, rng)).collect();
            Command::AddRule(preds.join(" AND "))
        }
        2 | 3 => {
            let ctx = session.context();
            let preds: Vec<String> = rule
                .preds
                .iter()
                .map(|bp| {
                    let name = ctx.feature_name(bp.pred.feature);
                    format!("{name} {} {}", bp.pred.op, bp.pred.threshold)
                })
                .collect();
            Command::AddRule(preds.join(" AND "))
        }
        4 => Command::RemoveRule(rule.id),
        5 | 6 => Command::AddPredicate(rule.id, predicate_text(store, rng)),
        7 => Command::RemovePredicate(pred),
        8..=10 => Command::SetThreshold(pred, threshold(store, rng)),
        11 => Command::Undo,
        12 => Command::Optimize(
            [
                OrderingAlgo::Random(rng.gen()),
                OrderingAlgo::ByRank,
                OrderingAlgo::GreedyCost,
                OrderingAlgo::GreedyReduction,
            ][rng.gen_range(0..4)],
        ),
        _ => Command::Simplify,
    }
}

/// Runs `steps` random commands on the store of `seed`, checking every
/// analyst edit's advisories against the whole-program diff. Returns the
/// kinds the advisories reported.
fn drive(seed: u64, steps: usize) -> Result<BTreeSet<DiagnosticKind>, String> {
    let mut store = build_store(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11A7);
    let mut kinds = BTreeSet::new();
    let mut trace = Vec::new();
    for _ in 0..steps {
        let cmd = random_command(&store, &mut rng);
        trace.push(format!("{cmd:?}"));
        let before = store.session().analyze();
        let outcome = execute(&mut store, &[], &cmd);
        let Ok(Outcome::Change(change)) = outcome else {
            continue;
        };
        let want: Vec<Diagnostic> = match cmd {
            Command::Undo | Command::Resume => Vec::new(),
            _ => {
                let after = store.session().analyze();
                new_diagnostics(&before, &after)
                    .into_iter()
                    .cloned()
                    .collect()
            }
        };
        if change.advisories != want {
            return Err(format!(
                "seed {seed}: advisories {:#?}\n != the full diff {want:#?}\nafter {trace:?}",
                change.advisories
            ));
        }
        kinds.extend(want.iter().map(|d| d.kind));
    }
    Ok(kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn advisories_equal_the_full_before_after_diff(seed in 0u64..10_000, steps in 1usize..32) {
        let checked = drive(seed, steps);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn fixed_seeds_introduce_every_kind() {
    let mut kinds = BTreeSet::new();
    for seed in 0..24 {
        kinds.extend(drive(seed, 40).unwrap_or_else(|e| panic!("{e}")));
    }
    let all = [
        DiagnosticKind::UnsatisfiableRule,
        DiagnosticKind::OutOfRangeThreshold,
        DiagnosticKind::TautologicalPredicate,
        DiagnosticKind::RedundantPredicate,
        DiagnosticKind::DuplicateRule,
        DiagnosticKind::SubsumedRule,
        DiagnosticKind::BlockingVacuousPredicate,
    ];
    let missing: Vec<_> = all.iter().filter(|k| !kinds.contains(k)).collect();
    assert!(missing.is_empty(), "no advisory of kind {missing:?}");
}
