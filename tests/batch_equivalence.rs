//! Engine-level equivalence of the prepared path: `run_memo` with
//! `check_cache_first = false` (every rule's predicates in stored order)
//! must produce exactly the reference verdicts, and must be invariant
//! across 1, 2, and 4 worker threads — verdicts, work counters, and memo
//! contents alike. The kernel-level law (prepared ≡ string path) lives in
//! `crates/similarity/tests/batch_equivalence.rs`; this file checks the
//! whole pipeline from `EvalContext` preparation through the memo.

mod common;

use common::{random_workload, reference_verdicts};
use proptest::prelude::*;
use rulem::core::{run_memo, Executor, Memo};
use rulem::similarity::Measure;
use rulem::types::{CandidateSet, Record, Schema, Table};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_drive_matches_reference_at_1_2_4_threads(seed in 0u64..10_000) {
        let w = random_workload(seed);
        let expected = reference_verdicts(&w);

        // Serial is the baseline the pools must match.
        let (serial, serial_memo) =
            run_memo(&w.func, &w.ctx, &w.cands, false, &Executor::serial());
        prop_assert_eq!(&serial.verdicts, &expected, "serial");

        for threads in [2usize, 4] {
            let (par, par_memo) =
                run_memo(&w.func, &w.ctx, &w.cands, false, &Executor::pool(threads));
            prop_assert_eq!(&par.verdicts, &expected, "{} threads", threads);
            // Early-exit order is fixed per pair, so the work done and the
            // memo cells filled are thread-count invariant.
            prop_assert_eq!(par.stats, serial.stats, "stats, {} threads", threads);
            prop_assert_eq!(
                par_memo.stored(),
                serial_memo.stored(),
                "memo cells, {} threads",
                threads
            );
        }
    }
}

/// NaN normalization happens at the memo boundary: `compute` hands every
/// engine the same total value, with a kernel's NaN landing as 0.0.
/// `NumericAbs` goes NaN when both sides overflow to infinity (∞ − ∞);
/// non-numeric text falls back to trimmed equality.
#[test]
fn batch_normalizes_nan_like_scalar() {
    let measure = Measure::NumericAbs { scale: 10.0 };
    let huge = "9".repeat(400); // parses to +∞
    let schema = Schema::new(["price"]);
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    a.push(Record::new("a0", ["12.5"]));
    a.push(Record::new("a1", ["not a number"]));
    a.push(Record::with_missing("a2", vec![None]));
    a.push(Record::new("a3", [huge.as_str()]));
    b.push(Record::new("b0", ["12.0"]));
    b.push(Record::new("b1", ["n/a"]));
    b.push(Record::new("b2", [huge.as_str()]));

    let mut ctx = rulem::core::EvalContext::from_tables(a, b);
    let f = ctx.feature(measure, "price", "price").unwrap();
    let price = ctx.table_a().schema().attr_id("price").unwrap();

    let mut kernel_nans = 0;
    let cands = CandidateSet::cartesian(ctx.table_a(), ctx.table_b());
    for (_, pair) in cands.iter() {
        let raw = match (
            ctx.table_a().value(pair.a, price),
            ctx.table_b().value(pair.b, price),
        ) {
            (Some(x), Some(y)) => measure.similarity_with(x, y, None),
            _ => 0.0,
        };
        kernel_nans += usize::from(raw.is_nan());
        let want = if raw.is_nan() { 0.0 } else { raw };
        let got = ctx.compute(f, pair);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pair {pair:?}: compute {got} != normalized kernel {want}"
        );
    }
    assert_eq!(kernel_nans, 1, "the fixture reaches the NaN case once");
}
