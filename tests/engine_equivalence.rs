//! The workspace's central correctness property: every engine of §4 —
//! rudimentary, precompute (both universes), early exit, dynamic memoing
//! (with and without check-cache-first), parallel — produces identical
//! verdicts, equal to direct reference evaluation of the DNF.

mod common;

use common::{random_workload, reference_verdicts, wide_workload, RandomWorkload};
use proptest::prelude::*;
use rulem::core::{
    run_early_exit, run_full, run_memo, run_memo_with, run_precompute, run_rudimentary,
    ChangeReport, CmpOp, DebugSession, Executor, FeatureId, MatchOutcome, MatchState,
    MatchingFunction, Memo, Predicate, Rule, SessionConfig, SparseMemo, Strategy,
};
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_engines_agree_with_reference(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let expected = reference_verdicts(&w);

        let rud = run_rudimentary(&w.func, &w.ctx, &w.cands, &Executor::serial());
        prop_assert_eq!(&rud.verdicts, &expected, "rudimentary");

        let ee = run_early_exit(&w.func, &w.ctx, &w.cands, &Executor::serial());
        prop_assert_eq!(&ee.verdicts, &expected, "early exit");

        let (ppr, _) = run_precompute(&w.func, &w.ctx, &w.cands, &w.func.features(), &Executor::serial());
        prop_assert_eq!(&ppr.verdicts, &expected, "production precompute");

        let (fpr, _) = run_precompute(&w.func, &w.ctx, &w.cands, &w.features, &Executor::serial());
        prop_assert_eq!(&fpr.verdicts, &expected, "full precompute");

        let (dm, _) = run_memo(&w.func, &w.ctx, &w.cands, false, &Executor::serial());
        prop_assert_eq!(&dm.verdicts, &expected, "memo");

        let (ccf, _) = run_memo(&w.func, &w.ctx, &w.cands, true, &Executor::serial());
        prop_assert_eq!(&ccf.verdicts, &expected, "memo + check-cache-first");

        let mut sparse = SparseMemo::new();
        let sp = run_memo_with(&w.func, &w.ctx, &w.cands, &mut sparse, true);
        prop_assert_eq!(&sp.verdicts, &expected, "sparse memo");

        let (par, _) = run_memo(&w.func, &w.ctx, &w.cands, true, &Executor::pool(3));
        prop_assert_eq!(&par.verdicts, &expected, "parallel");
    }

    #[test]
    fn work_hierarchy_holds(seed in 0u64..10_000) {
        // Early exit never computes more than rudimentary; memoing never
        // computes more than early exit.
        let w = random_workload(seed);
        let rud = run_rudimentary(&w.func, &w.ctx, &w.cands, &Executor::serial());
        let ee = run_early_exit(&w.func, &w.ctx, &w.cands, &Executor::serial());
        let (dm, _) = run_memo(&w.func, &w.ctx, &w.cands, false, &Executor::serial());
        prop_assert!(ee.stats.feature_computations <= rud.stats.feature_computations);
        prop_assert!(dm.stats.feature_computations <= ee.stats.feature_computations);
    }

    #[test]
    fn memo_computes_each_cell_at_most_once(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let (dm, memo) = run_memo(&w.func, &w.ctx, &w.cands, true, &Executor::serial());
        prop_assert_eq!(dm.stats.feature_computations as usize, memo.stored());
        let bound = w.cands.len() * w.func.features().len();
        prop_assert!(memo.stored() <= bound);
    }
}

#[test]
fn strategy_labels_are_distinct() {
    let labels: std::collections::HashSet<&str> = [
        Strategy::Rudimentary.label(),
        Strategy::EarlyExit.label(),
        Strategy::PrecomputeProduction.label(),
        Strategy::PrecomputeFull(vec![]).label(),
        Strategy::MemoEarlyExit {
            check_cache_first: true,
        }
        .label(),
    ]
    .into_iter()
    .collect();
    assert_eq!(labels.len(), 5);
}

/// Seeds of `random_workload` whose work is pinned in [`PINNED_WORK`].
const PINNED_SEEDS: [u64; 5] = [1, 7, 42, 311, 2024];

/// Every engine's work on [`PINNED_SEEDS`], one line per engine and thread
/// count: `EvalStats` (`fc` computations, `ml` memo lookups, `pe`
/// predicate evaluations, `re` rule evaluations), the match count, the
/// memo cells stored with a digest of their values, and for full runs a
/// digest of every `M(r)` and `U(p)`. Recorded when `check_cache_first =
/// false` full runs still went through a column-wise chunked drive, so
/// the per-pair drive is held to exactly that work.
const PINNED_WORK: &str = "\
1 rudimentary: fc=63 ml=0 pe=63 re=21 matches=7 -\n\
1 early_exit: fc=57 ml=0 pe=57 re=21 matches=7 -\n\
1 ppr: fc=42 ml=57 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 fpr: fc=105 ml=57 pe=57 re=21 matches=7 stored=105 cells=d98d156a329d9b88\n\
1 memo(ccf=false,t=1): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 memo(ccf=false,t=2): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 memo(ccf=false,t=4): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 memo(ccf=true,t=1): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 memo(ccf=true,t=2): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 memo(ccf=true,t=4): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 sparse(ccf=false): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 sparse(ccf=true): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae\n\
1 full(ccf=false,t=1): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
1 full(ccf=false,t=2): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
1 full(ccf=false,t=4): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
1 full(ccf=true,t=1): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
1 full(ccf=true,t=2): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
1 full(ccf=true,t=4): fc=42 ml=15 pe=57 re=21 matches=7 stored=42 cells=6c3fd60b399f74ae bitmaps=bb1b98db52ea95b2\n\
7 rudimentary: fc=70 ml=0 pe=70 re=30 matches=0 -\n\
7 early_exit: fc=40 ml=0 pe=40 re=30 matches=0 -\n\
7 ppr: fc=40 ml=40 pe=40 re=30 matches=0 stored=40 cells=f412cba316b11039\n\
7 fpr: fc=50 ml=40 pe=40 re=30 matches=0 stored=50 cells=6a5fea82caaab650\n\
7 memo(ccf=false,t=1): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 memo(ccf=false,t=2): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 memo(ccf=false,t=4): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 memo(ccf=true,t=1): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 memo(ccf=true,t=2): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 memo(ccf=true,t=4): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 sparse(ccf=false): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 sparse(ccf=true): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8\n\
7 full(ccf=false,t=1): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
7 full(ccf=false,t=2): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
7 full(ccf=false,t=4): fc=30 ml=10 pe=40 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
7 full(ccf=true,t=1): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
7 full(ccf=true,t=2): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
7 full(ccf=true,t=4): fc=30 ml=20 pe=50 re=30 matches=0 stored=30 cells=7f3756b0dbf247e8 bitmaps=1f3eb8b5e3dbd7e0\n\
42 rudimentary: fc=36 ml=0 pe=36 re=18 matches=8 -\n\
42 early_exit: fc=22 ml=0 pe=22 re=17 matches=8 -\n\
42 ppr: fc=36 ml=22 pe=22 re=17 matches=8 stored=36 cells=b117cd7b92c7590d\n\
42 fpr: fc=45 ml=22 pe=22 re=17 matches=8 stored=45 cells=a71508eec0240f4b\n\
42 memo(ccf=false,t=1): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 memo(ccf=false,t=2): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 memo(ccf=false,t=4): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 memo(ccf=true,t=1): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 memo(ccf=true,t=2): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 memo(ccf=true,t=4): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 sparse(ccf=false): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 sparse(ccf=true): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e\n\
42 full(ccf=false,t=1): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
42 full(ccf=false,t=2): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
42 full(ccf=false,t=4): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
42 full(ccf=true,t=1): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
42 full(ccf=true,t=2): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
42 full(ccf=true,t=4): fc=22 ml=0 pe=22 re=17 matches=8 stored=22 cells=4264c998bb0b385e bitmaps=0cbabeee95609902\n\
311 rudimentary: fc=210 ml=0 pe=210 re=84 matches=38 -\n\
311 early_exit: fc=98 ml=0 pe=98 re=49 matches=38 -\n\
311 ppr: fc=168 ml=98 pe=98 re=49 matches=38 stored=168 cells=cb833f85e4c9da20\n\
311 fpr: fc=210 ml=98 pe=98 re=49 matches=38 stored=210 cells=d12b88636032a9a5\n\
311 memo(ccf=false,t=1): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18\n\
311 memo(ccf=false,t=2): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18\n\
311 memo(ccf=false,t=4): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18\n\
311 memo(ccf=true,t=1): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca\n\
311 memo(ccf=true,t=2): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca\n\
311 memo(ccf=true,t=4): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca\n\
311 sparse(ccf=false): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18\n\
311 sparse(ccf=true): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca\n\
311 full(ccf=false,t=1): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18 bitmaps=9f97d563e6231691\n\
311 full(ccf=false,t=2): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18 bitmaps=9f97d563e6231691\n\
311 full(ccf=false,t=4): fc=93 ml=5 pe=98 re=49 matches=38 stored=93 cells=3535e2965c566c18 bitmaps=9f97d563e6231691\n\
311 full(ccf=true,t=1): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca bitmaps=5dd7f03990de41f1\n\
311 full(ccf=true,t=2): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca bitmaps=5dd7f03990de41f1\n\
311 full(ccf=true,t=4): fc=87 ml=7 pe=94 re=49 matches=38 stored=87 cells=ce1abbec5ba43fca bitmaps=5dd7f03990de41f1\n\
2024 rudimentary: fc=36 ml=0 pe=36 re=24 matches=9 -\n\
2024 early_exit: fc=15 ml=0 pe=15 re=15 matches=9 -\n\
2024 ppr: fc=36 ml=15 pe=15 re=15 matches=9 stored=36 cells=9aad752567104da0\n\
2024 fpr: fc=60 ml=15 pe=15 re=15 matches=9 stored=60 cells=ad985ee519b85698\n\
2024 memo(ccf=false,t=1): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 memo(ccf=false,t=2): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 memo(ccf=false,t=4): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 memo(ccf=true,t=1): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 memo(ccf=true,t=2): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 memo(ccf=true,t=4): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 sparse(ccf=false): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 sparse(ccf=true): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07\n\
2024 full(ccf=false,t=1): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b\n\
2024 full(ccf=false,t=2): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b\n\
2024 full(ccf=false,t=4): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b\n\
2024 full(ccf=true,t=1): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b\n\
2024 full(ccf=true,t=2): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b\n\
2024 full(ccf=true,t=4): fc=15 ml=0 pe=15 re=15 matches=9 stored=15 cells=53044200cb903b07 bitmaps=de1e5d8cc6faad8b";

/// FNV-1a over a stream of words: a dependency-free digest for pinning
/// memo cells and materialized bitmaps as literals.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `stored=<count> cells=<digest of every (pair, feature, value bits)>`.
fn memo_part(memo: &impl Memo, n_pairs: usize, n_features: usize) -> String {
    let mut words = Vec::new();
    for p in 0..n_pairs {
        for f in 0..n_features {
            if let Some(v) = memo.get(p, FeatureId(f as u32)) {
                words.extend([p as u64, f as u64, v.to_bits()]);
            }
        }
    }
    format!("stored={} cells={:016x}", memo.stored(), fnv(words))
}

/// Every `M(r)` of `func`'s rules: each rule id, then its pairs.
fn mr_words(func: &MatchingFunction, state: &MatchState) -> Vec<u64> {
    let mut bits = Vec::new();
    for rule in func.rules() {
        let ones = state
            .rule_bitmap(rule.id)
            .into_iter()
            .flat_map(|b| b.iter_ones());
        bits.extend(std::iter::once(u64::from(rule.id.0)).chain(ones.map(|i| i as u64)));
    }
    bits
}

/// Every `U(p)` of `func`'s predicates: each predicate id, then its pairs.
fn up_words(func: &MatchingFunction, state: &MatchState) -> Vec<u64> {
    let mut bits = Vec::new();
    for (_, bp) in func.predicates() {
        let ones = state
            .pred_bitmap(bp.id)
            .into_iter()
            .flat_map(|b| b.iter_ones());
        bits.extend(std::iter::once(bp.id.0).chain(ones.map(|i| i as u64)));
    }
    bits
}

/// A digest of every `M(r)` and `U(p)` of `func`'s rules and predicates.
fn bitmaps(func: &MatchingFunction, state: &MatchState) -> u64 {
    fnv(mr_words(func, state)
        .into_iter()
        .chain(up_words(func, state)))
}

/// A digest of every `M(r)` of the session, asserted equal to that of a
/// from-scratch `run_full` of its function.
fn mr_of(s: &DebugSession) -> u64 {
    let mr = fnv(mr_words(s.function(), s.state()));
    let (ctx, cands) = (s.context(), s.candidates());
    let mut fresh = MatchState::new(cands.len(), ctx.registry().len());
    run_full(
        s.function(),
        ctx,
        cands,
        &mut fresh,
        true,
        &Executor::serial(),
    );
    assert_eq!(
        mr,
        fnv(mr_words(s.function(), &fresh)),
        "M(r) differs from run_full's"
    );
    mr
}

fn work_line(seed: u64, engine: &str, out: &MatchOutcome, memo: &str) -> String {
    let s = out.stats;
    format!(
        "{seed} {engine}: fc={} ml={} pe={} re={} matches={} {memo}",
        s.feature_computations,
        s.memo_lookups,
        s.predicate_evals,
        s.rule_evals,
        out.n_matches()
    )
}

/// Every engine's work on one seeded workload, one line per engine.
fn render_work(seed: u64, w: RandomWorkload) -> Vec<String> {
    let (n, nf) = (w.cands.len(), w.ctx.registry().len());
    let serial = Executor::serial();
    let mut lines = Vec::new();
    let rud = run_rudimentary(&w.func, &w.ctx, &w.cands, &serial);
    lines.push(work_line(seed, "rudimentary", &rud, "-"));
    let ee = run_early_exit(&w.func, &w.ctx, &w.cands, &serial);
    lines.push(work_line(seed, "early_exit", &ee, "-"));
    for (name, universe) in [("ppr", w.func.features()), ("fpr", w.features.clone())] {
        let (out, memo) = run_precompute(&w.func, &w.ctx, &w.cands, &universe, &serial);
        lines.push(work_line(seed, name, &out, &memo_part(&memo, n, nf)));
    }
    for ccf in [false, true] {
        for threads in [1usize, 2, 4] {
            let (out, memo) = run_memo(&w.func, &w.ctx, &w.cands, ccf, &Executor::pool(threads));
            let name = format!("memo(ccf={ccf},t={threads})");
            lines.push(work_line(seed, &name, &out, &memo_part(&memo, n, nf)));
        }
    }
    for ccf in [false, true] {
        let mut sparse = SparseMemo::new();
        let out = run_memo_with(&w.func, &w.ctx, &w.cands, &mut sparse, ccf);
        let name = format!("sparse(ccf={ccf})");
        lines.push(work_line(seed, &name, &out, &memo_part(&sparse, n, nf)));
    }
    for ccf in [false, true] {
        for threads in [1usize, 2, 4] {
            let mut state = MatchState::new(n, nf);
            let exec = Executor::pool(threads);
            let full = run_full(&w.func, &w.ctx, &w.cands, &mut state, ccf, &exec);
            let out = MatchOutcome {
                verdicts: state.verdicts().to_vec(),
                stats: full.stats,
                elapsed: std::time::Duration::ZERO,
                quarantined: full.quarantined,
            };
            let memo = format!(
                "{} bitmaps={:016x}",
                memo_part(&state.memo, n, nf),
                bitmaps(&w.func, &state)
            );
            let name = format!("full(ccf={ccf},t={threads})");
            lines.push(work_line(seed, &name, &out, &memo));
        }
    }
    lines
}

#[test]
fn engine_work_is_pinned() {
    for (seeds, workload, pinned) in [
        (
            &PINNED_SEEDS[..],
            random_workload as fn(u64) -> RandomWorkload,
            PINNED_WORK,
        ),
        (&WIDE_SEEDS[..], wide_workload, PINNED_WIDE_WORK),
    ] {
        let got: Vec<String> = seeds
            .iter()
            .flat_map(|&seed| render_work(seed, workload(seed)))
            .collect();
        let want: Vec<&str> = pinned.lines().collect();
        assert_eq!(got.len(), want.len(), "one line per engine and seed");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
    }
}

/// One fixed edit script through a [`DebugSession`] on each of
/// [`PINNED_SEEDS`], one line per step: `n_changed`, `pairs_examined`,
/// the pairs left for a resume, and the step's `EvalStats`; then the memo
/// cells stored with a digest of their values, a digest of every `M(r)`
/// (`mr`) and one of every `U(p)` (`up`). Every thread count must render
/// exactly these lines, and after every completed step `M(r)` must equal
/// a from-scratch run's.
///
/// Work counters change by design when the delta algorithms do; verdicts
/// never do. A change that moves these lines re-captures them only with
/// every `changed=` column unchanged and the `M(r)` assertion passing.
const PINNED_DELTA_WORK: &str = "\
1 load: changed=3 examined=21 left=0 fc=24 ml=0 pe=24 re=21\n\
1 load: changed=0 examined=18 left=0 fc=18 ml=0 pe=18 re=18\n\
1 add rule: changed=0 examined=18 left=0 fc=18 ml=0 pe=18 re=18\n\
1 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
1 add predicate: changed=3 examined=3 left=0 fc=6 ml=9 pe=15 re=6\n\
1 undo: changed=3 examined=3 left=0 fc=0 ml=6 pe=6 re=3\n\
1 tighten: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
1 undo: changed=0 examined=18 left=0 fc=0 ml=18 pe=18 re=0\n\
1 relax: changed=0 examined=18 left=0 fc=18 ml=36 pe=54 re=18\n\
1 undo: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
1 remove predicate: changed=0 examined=18 left=0 fc=0 ml=18 pe=18 re=18\n\
1 undo: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
1 remove rule: changed=3 examined=3 left=0 fc=0 ml=0 pe=0 re=0\n\
1 undo: changed=3 examined=21 left=0 fc=0 ml=24 pe=24 re=21\n\
1 parked add rule: changed=0 examined=0 left=18 fc=0 ml=0 pe=0 re=0\n\
1 resume: changed=2 examined=18 left=0 fc=18 ml=0 pe=18 re=18\n\
1 end: stored=102 cells=baac52b0b23a996b mr=36ed72b4a6e455ae up=27443343688a889a\n\
7 load: changed=0 examined=10 left=0 fc=10 ml=0 pe=10 re=10\n\
7 load: changed=2 examined=10 left=0 fc=10 ml=0 pe=10 re=10\n\
7 add rule: changed=0 examined=8 left=0 fc=8 ml=0 pe=8 re=8\n\
7 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 add predicate: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 tighten: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 undo: changed=0 examined=10 left=0 fc=0 ml=10 pe=10 re=0\n\
7 relax: changed=0 examined=10 left=0 fc=10 ml=20 pe=30 re=10\n\
7 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 remove predicate: changed=0 examined=10 left=0 fc=0 ml=10 pe=10 re=10\n\
7 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 remove rule: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
7 undo: changed=0 examined=10 left=0 fc=0 ml=10 pe=10 re=10\n\
7 parked add rule: changed=0 examined=0 left=8 fc=0 ml=0 pe=0 re=0\n\
7 resume: changed=4 examined=8 left=0 fc=8 ml=0 pe=8 re=8\n\
7 end: stored=46 cells=cc1f3fa5e075df50 mr=95bafc010501190e up=27b701bd4fc84f80\n\
42 load: changed=3 examined=9 left=0 fc=12 ml=0 pe=12 re=9\n\
42 load: changed=0 examined=6 left=0 fc=6 ml=0 pe=6 re=6\n\
42 add rule: changed=0 examined=6 left=0 fc=6 ml=0 pe=6 re=6\n\
42 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
42 add predicate: changed=1 examined=3 left=0 fc=4 ml=3 pe=7 re=2\n\
42 undo: changed=1 examined=1 left=0 fc=0 ml=2 pe=2 re=1\n\
42 tighten: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
42 undo: changed=0 examined=6 left=0 fc=0 ml=6 pe=6 re=0\n\
42 relax: changed=0 examined=6 left=0 fc=6 ml=12 pe=18 re=6\n\
42 undo: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
42 remove predicate: changed=0 examined=6 left=0 fc=0 ml=6 pe=6 re=6\n\
42 undo: changed=0 examined=3 left=0 fc=0 ml=3 pe=3 re=0\n\
42 remove rule: changed=2 examined=3 left=0 fc=2 ml=0 pe=2 re=2\n\
42 undo: changed=2 examined=9 left=0 fc=0 ml=12 pe=12 re=9\n\
42 parked add rule: changed=0 examined=0 left=6 fc=0 ml=0 pe=0 re=0\n\
42 resume: changed=1 examined=6 left=0 fc=6 ml=0 pe=6 re=6\n\
42 end: stored=42 cells=469f1218468b52b0 mr=5eb9f58d16bc9b23 up=a75700382072da4a\n\
311 load: changed=6 examined=42 left=0 fc=48 ml=0 pe=48 re=42\n\
311 load: changed=1 examined=36 left=0 fc=36 ml=0 pe=36 re=36\n\
311 add rule: changed=0 examined=35 left=0 fc=35 ml=0 pe=35 re=35\n\
311 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
311 add predicate: changed=4 examined=6 left=0 fc=10 ml=12 pe=22 re=8\n\
311 undo: changed=4 examined=4 left=0 fc=0 ml=8 pe=8 re=4\n\
311 tighten: changed=0 examined=6 left=0 fc=0 ml=6 pe=6 re=0\n\
311 undo: changed=0 examined=36 left=0 fc=0 ml=36 pe=36 re=0\n\
311 relax: changed=0 examined=36 left=0 fc=20 ml=56 pe=76 re=20\n\
311 undo: changed=0 examined=6 left=0 fc=0 ml=6 pe=6 re=0\n\
311 remove predicate: changed=0 examined=20 left=0 fc=0 ml=20 pe=20 re=20\n\
311 undo: changed=0 examined=6 left=0 fc=0 ml=6 pe=6 re=0\n\
311 remove rule: changed=4 examined=6 left=0 fc=2 ml=0 pe=2 re=2\n\
311 undo: changed=4 examined=42 left=0 fc=0 ml=48 pe=48 re=42\n\
311 parked add rule: changed=0 examined=0 left=35 fc=0 ml=0 pe=0 re=0\n\
311 resume: changed=5 examined=35 left=0 fc=35 ml=0 pe=35 re=35\n\
311 end: stored=186 cells=66f2fe19b568d478 mr=c8f34ed6dc998540 up=5707b1de2904099b\n\
2024 load: changed=4 examined=12 left=0 fc=16 ml=0 pe=16 re=12\n\
2024 load: changed=2 examined=8 left=0 fc=8 ml=0 pe=8 re=8\n\
2024 add rule: changed=0 examined=6 left=0 fc=6 ml=0 pe=6 re=6\n\
2024 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
2024 add predicate: changed=2 examined=4 left=0 fc=6 ml=6 pe=12 re=4\n\
2024 undo: changed=2 examined=2 left=0 fc=0 ml=4 pe=4 re=2\n\
2024 tighten: changed=0 examined=4 left=0 fc=0 ml=4 pe=4 re=0\n\
2024 undo: changed=0 examined=8 left=0 fc=0 ml=8 pe=8 re=0\n\
2024 relax: changed=0 examined=8 left=0 fc=8 ml=16 pe=24 re=8\n\
2024 undo: changed=0 examined=4 left=0 fc=0 ml=4 pe=4 re=0\n\
2024 remove predicate: changed=0 examined=8 left=0 fc=0 ml=8 pe=8 re=8\n\
2024 undo: changed=0 examined=4 left=0 fc=0 ml=4 pe=4 re=0\n\
2024 remove rule: changed=2 examined=4 left=0 fc=2 ml=0 pe=2 re=2\n\
2024 undo: changed=2 examined=12 left=0 fc=0 ml=16 pe=16 re=12\n\
2024 parked add rule: changed=0 examined=0 left=6 fc=0 ml=0 pe=0 re=0\n\
2024 resume: changed=0 examined=6 left=0 fc=6 ml=0 pe=6 re=6\n\
2024 end: stored=52 cells=04862489342a3452 mr=1f77ae47ba8cdf8b up=84d89a890b1c0323";

/// Loads a two-rule program on the workload's tables, then runs add rule,
/// add predicate, tighten, relax, remove predicate and remove rule, each
/// followed by `undo`, and one add-rule edit parked by a zero deadline and
/// resumed with the deadline lifted.
fn render_delta_work(seed: u64, w: RandomWorkload, threads: usize) -> Vec<String> {
    let (n, nf, f) = (w.cands.len(), w.ctx.registry().len(), w.features);
    let config = SessionConfig {
        n_threads: threads,
        ..SessionConfig::default()
    };
    let mut s = DebugSession::with_context(w.ctx, w.cands, config);
    let mut lines = Vec::new();
    let mut step = |name: &str, r: &ChangeReport, s: &DebugSession| {
        if r.completion.is_complete() {
            mr_of(s);
        }
        let st = r.stats;
        lines.push(format!(
            "{seed} {name}: changed={} examined={} left={} fc={} ml={} pe={} re={}",
            r.n_changed(),
            r.pairs_examined,
            r.completion.remaining().len(),
            st.feature_computations,
            st.memo_lookups,
            st.predicate_evals,
            st.rule_evals
        ));
    };
    let edited = Rule::new()
        .pred(f[1], CmpOp::Ge, 0.7)
        .pred(f[2], CmpOp::Ge, 0.3);
    let (rid, r) = s.add_rule(edited).unwrap();
    step("load", &r, &s);
    let (_, r) = s.add_rule(Rule::new().pred(f[0], CmpOp::Ge, 1.0)).unwrap();
    step("load", &r, &s);
    let preds: Vec<_> = s.function().rule(rid).unwrap().preds.clone();
    let (jw, jaccard) = (preds[0].id, preds[1].id);

    let added = Rule::new()
        .pred(f[4], CmpOp::Ge, 0.5)
        .pred(f[3], CmpOp::Ge, 0.5);
    let (_, r) = s.add_rule(added).unwrap();
    step("add rule", &r, &s);
    step("undo", &s.undo().unwrap().unwrap(), &s);
    let (_, r) = s
        .add_predicate(rid, Predicate::new(f[3], CmpOp::Ge, 0.5))
        .unwrap();
    step("add predicate", &r, &s);
    step("undo", &s.undo().unwrap().unwrap(), &s);
    step("tighten", &s.set_threshold(jw, 0.9).unwrap(), &s);
    step("undo", &s.undo().unwrap().unwrap(), &s);
    step("relax", &s.set_threshold(jw, 0.4).unwrap(), &s);
    step("undo", &s.undo().unwrap().unwrap(), &s);
    step(
        "remove predicate",
        &s.remove_predicate(jaccard).unwrap(),
        &s,
    );
    step("undo", &s.undo().unwrap().unwrap(), &s);
    step("remove rule", &s.remove_rule(rid).unwrap(), &s);
    step("undo", &s.undo().unwrap().unwrap(), &s);

    s.set_deadline(Some(Duration::ZERO));
    let (_, r) = s.add_rule(Rule::new().pred(f[3], CmpOp::Ge, 0.3)).unwrap();
    step("parked add rule", &r, &s);
    s.set_deadline(None);
    step("resume", &s.resume().unwrap().unwrap(), &s);
    assert!(s.pending_resume().is_none(), "the resume finished the edit");

    let state = s.state();
    lines.push(format!(
        "{seed} end: {} mr={:016x} up={:016x}",
        memo_part(&state.memo, n, nf),
        mr_of(&s),
        fnv(up_words(s.function(), state))
    ));
    lines
}

/// Seeds of `wide_workload` (81–576 pairs, so 2–9 bitmap words) whose work
/// is pinned in [`PINNED_WIDE_WORK`] and [`PINNED_WIDE_DELTA_WORK`]: their
/// passes cross 64-pair words and, on a pool, shard cuts, which the 4–64
/// pairs of [`PINNED_SEEDS`] never do.
const WIDE_SEEDS: [u64; 3] = [4, 26, 35];

/// [`PINNED_WORK`]'s lines for [`WIDE_SEEDS`].
const PINNED_WIDE_WORK: &str = "\
4 rudimentary: fc=2052 ml=0 pe=2052 re=684 matches=20 -\n\
4 early_exit: fc=797 ml=0 pe=797 re=641 matches=20 -\n\
4 ppr: fc=855 ml=797 pe=797 re=641 matches=20 stored=855 cells=9818e88057c0349c\n\
4 fpr: fc=855 ml=797 pe=797 re=641 matches=20 stored=855 cells=9818e88057c0349c\n\
4 memo(ccf=false,t=1): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 memo(ccf=false,t=2): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 memo(ccf=false,t=4): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 memo(ccf=true,t=1): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 memo(ccf=true,t=2): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 memo(ccf=true,t=4): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 sparse(ccf=false): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 sparse(ccf=true): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996\n\
4 full(ccf=false,t=1): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
4 full(ccf=false,t=2): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
4 full(ccf=false,t=4): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
4 full(ccf=true,t=1): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
4 full(ccf=true,t=2): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
4 full(ccf=true,t=4): fc=398 ml=399 pe=797 re=641 matches=20 stored=398 cells=d694a74d0790b996 bitmaps=387dabc38fc6fe22\n\
26 rudimentary: fc=4560 ml=0 pe=4560 re=1520 matches=53 -\n\
26 early_exit: fc=2379 ml=0 pe=2379 re=1414 matches=53 -\n\
26 ppr: fc=1900 ml=2379 pe=2379 re=1414 matches=53 stored=1900 cells=01e65a0f8057a972\n\
26 fpr: fc=1900 ml=2379 pe=2379 re=1414 matches=53 stored=1900 cells=01e65a0f8057a972\n\
26 memo(ccf=false,t=1): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296\n\
26 memo(ccf=false,t=2): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296\n\
26 memo(ccf=false,t=4): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296\n\
26 memo(ccf=true,t=1): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559\n\
26 memo(ccf=true,t=2): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559\n\
26 memo(ccf=true,t=4): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559\n\
26 sparse(ccf=false): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296\n\
26 sparse(ccf=true): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559\n\
26 full(ccf=false,t=1): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296 bitmaps=342c5d5870209ebd\n\
26 full(ccf=false,t=2): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296 bitmaps=342c5d5870209ebd\n\
26 full(ccf=false,t=4): fc=1510 ml=869 pe=2379 re=1414 matches=53 stored=1510 cells=573238deb087d296 bitmaps=342c5d5870209ebd\n\
26 full(ccf=true,t=1): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559 bitmaps=36ae3a80b9d362e5\n\
26 full(ccf=true,t=2): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559 bitmaps=36ae3a80b9d362e5\n\
26 full(ccf=true,t=4): fc=1223 ml=737 pe=1960 re=1414 matches=53 stored=1223 cells=e2b6423270c1f559 bitmaps=36ae3a80b9d362e5\n\
35 rudimentary: fc=3080 ml=0 pe=3080 re=1100 matches=45 -\n\
35 early_exit: fc=1353 ml=0 pe=1353 re=952 matches=45 -\n\
35 ppr: fc=880 ml=1353 pe=1353 re=952 matches=45 stored=880 cells=66ed2fd25a648d64\n\
35 fpr: fc=1100 ml=1353 pe=1353 re=952 matches=45 stored=1100 cells=7ec1e7e96820edb8\n\
35 memo(ccf=false,t=1): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60\n\
35 memo(ccf=false,t=2): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60\n\
35 memo(ccf=false,t=4): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60\n\
35 memo(ccf=true,t=1): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8\n\
35 memo(ccf=true,t=2): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8\n\
35 memo(ccf=true,t=4): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8\n\
35 sparse(ccf=false): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60\n\
35 sparse(ccf=true): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8\n\
35 full(ccf=false,t=1): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60 bitmaps=a581b8eba2fe523d\n\
35 full(ccf=false,t=2): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60 bitmaps=a581b8eba2fe523d\n\
35 full(ccf=false,t=4): fc=660 ml=693 pe=1353 re=952 matches=45 stored=660 cells=44139bf245322a60 bitmaps=a581b8eba2fe523d\n\
35 full(ccf=true,t=1): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8 bitmaps=97e225fb0dd326fd\n\
35 full(ccf=true,t=2): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8 bitmaps=97e225fb0dd326fd\n\
35 full(ccf=true,t=4): fc=525 ml=820 pe=1345 re=952 matches=45 stored=525 cells=aacb75d05a4383a8 bitmaps=97e225fb0dd326fd";

/// [`PINNED_DELTA_WORK`]'s script on [`WIDE_SEEDS`], at every thread count.
const PINNED_WIDE_DELTA_WORK: &str = "\
4 load: changed=34 examined=171 left=0 fc=207 ml=0 pe=207 re=171\n\
4 load: changed=14 examined=137 left=0 fc=137 ml=0 pe=137 re=137\n\
4 add rule: changed=0 examined=123 left=0 fc=123 ml=0 pe=123 re=123\n\
4 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
4 add predicate: changed=27 examined=34 left=0 fc=61 ml=81 pe=142 re=54\n\
4 undo: changed=27 examined=27 left=0 fc=0 ml=54 pe=54 re=27\n\
4 tighten: changed=0 examined=34 left=0 fc=0 ml=34 pe=34 re=0\n\
4 undo: changed=0 examined=135 left=0 fc=0 ml=135 pe=135 re=0\n\
4 relax: changed=0 examined=135 left=0 fc=82 ml=217 pe=299 re=82\n\
4 undo: changed=0 examined=34 left=0 fc=0 ml=34 pe=34 re=0\n\
4 remove predicate: changed=2 examined=84 left=0 fc=0 ml=84 pe=84 re=84\n\
4 undo: changed=2 examined=36 left=0 fc=0 ml=40 pe=40 re=2\n\
4 remove rule: changed=29 examined=34 left=0 fc=7 ml=0 pe=7 re=7\n\
4 undo: changed=29 examined=171 left=0 fc=0 ml=207 pe=207 re=171\n\
4 parked add rule: changed=0 examined=0 left=123 fc=0 ml=0 pe=0 re=0\n\
4 resume: changed=18 examined=123 left=0 fc=123 ml=0 pe=123 re=123\n\
4 end: stored=740 cells=279f46e3878c352a mr=5abe65dfe03ed215 up=498bd983b0e1585e\n\
26 load: changed=79 examined=380 left=0 fc=471 ml=0 pe=471 re=380\n\
26 load: changed=54 examined=301 left=0 fc=301 ml=0 pe=301 re=301\n\
26 add rule: changed=0 examined=247 left=0 fc=247 ml=0 pe=247 re=247\n\
26 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
26 add predicate: changed=66 examined=79 left=0 fc=145 ml=198 pe=343 re=132\n\
26 undo: changed=66 examined=66 left=0 fc=0 ml=132 pe=132 re=66\n\
26 tighten: changed=0 examined=79 left=0 fc=0 ml=79 pe=79 re=0\n\
26 undo: changed=0 examined=289 left=0 fc=0 ml=289 pe=289 re=0\n\
26 relax: changed=0 examined=289 left=0 fc=244 ml=533 pe=777 re=244\n\
26 undo: changed=0 examined=79 left=0 fc=0 ml=79 pe=79 re=0\n\
26 remove predicate: changed=12 examined=256 left=0 fc=0 ml=256 pe=256 re=256\n\
26 undo: changed=12 examined=91 left=0 fc=0 ml=115 pe=115 re=12\n\
26 remove rule: changed=70 examined=79 left=0 fc=13 ml=0 pe=13 re=13\n\
26 undo: changed=70 examined=380 left=0 fc=0 ml=471 pe=471 re=380\n\
26 parked add rule: changed=0 examined=0 left=247 fc=0 ml=0 pe=0 re=0\n\
26 resume: changed=58 examined=247 left=0 fc=247 ml=0 pe=247 re=247\n\
26 end: stored=1668 cells=5e3abd7576f85f7e mr=d0258e61bb0212f7 up=dc2558b3e75cd712\n\
35 load: changed=26 examined=220 left=0 fc=255 ml=0 pe=255 re=220\n\
35 load: changed=25 examined=194 left=0 fc=194 ml=0 pe=194 re=194\n\
35 add rule: changed=0 examined=169 left=0 fc=169 ml=0 pe=169 re=169\n\
35 undo: changed=0 examined=0 left=0 fc=0 ml=0 pe=0 re=0\n\
35 add predicate: changed=18 examined=26 left=0 fc=44 ml=54 pe=98 re=36\n\
35 undo: changed=18 examined=18 left=0 fc=0 ml=36 pe=36 re=18\n\
35 tighten: changed=0 examined=26 left=0 fc=0 ml=26 pe=26 re=0\n\
35 undo: changed=0 examined=185 left=0 fc=0 ml=185 pe=185 re=0\n\
35 relax: changed=0 examined=185 left=0 fc=113 ml=298 pe=411 re=113\n\
35 undo: changed=0 examined=26 left=0 fc=0 ml=26 pe=26 re=0\n\
35 remove predicate: changed=5 examined=122 left=0 fc=0 ml=122 pe=122 re=122\n\
35 undo: changed=5 examined=35 left=0 fc=0 ml=57 pe=57 re=13\n\
35 remove rule: changed=21 examined=26 left=0 fc=8 ml=0 pe=8 re=8\n\
35 undo: changed=21 examined=220 left=0 fc=0 ml=255 pe=255 re=220\n\
35 parked add rule: changed=0 examined=0 left=169 fc=0 ml=0 pe=0 re=0\n\
35 resume: changed=26 examined=169 left=0 fc=169 ml=0 pe=169 re=169\n\
35 end: stored=952 cells=87d47d8877bef54b mr=ad6a5a8484b96436 up=c4821a253a500d18";

#[test]
fn delta_work_is_pinned() {
    for (seeds, workload, pinned) in [
        (
            &PINNED_SEEDS[..],
            random_workload as fn(u64) -> RandomWorkload,
            PINNED_DELTA_WORK,
        ),
        (&WIDE_SEEDS[..], wide_workload, PINNED_WIDE_DELTA_WORK),
    ] {
        let want: Vec<&str> = pinned.lines().collect();
        for threads in [1usize, 2, 4] {
            let got: Vec<String> = seeds
                .iter()
                .flat_map(|&seed| render_delta_work(seed, workload(seed), threads))
                .collect();
            assert_eq!(got.len(), want.len(), "one line per step and seed");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "at {threads} thread(s)");
            }
        }
    }
}
