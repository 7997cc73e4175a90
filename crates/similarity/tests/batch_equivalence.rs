//! Property tests: for every measure, the prepared kernels are **bitwise**
//! equivalent to the string path (`Measure::similarity_with`) — over arbitrary
//! values including empty strings, missing values (`None`), Unicode
//! needing real lowercasing, and numeric text.
//!
//! The columns are built exactly the way `em-core`'s `EvalContext`
//! builds them (shared value arena, per-scheme token arena, text-rank
//! snapshot, id-keyed IDF over the concatenated corpus), so a failure
//! here is a failure of the engine's fast path, not a test artifact.

use em_similarity::{
    build_base_column, build_token_column, IdfTable, Measure, PreparedIdf, PreparedView,
    SimScratch, TokenChars, TokenScheme,
};
use em_types::{PairIdx, TokenArena, TokenColumn};
use proptest::prelude::*;

/// Attribute values mixing realistic tokens, Unicode, junk, numbers,
/// empties, and missing data.
fn arb_value() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        3 => "[a-z]{0,10}( [a-z]{1,8}){0,3}".prop_map(Some),
        2 => "[A-Za-z0-9 .,\\-]{0,24}".prop_map(Some),
        2 => "\\PC{0,10}".prop_map(Some), // arbitrary printable unicode
        1 => Just(Some(String::new())),
        1 => Just(Some("   ".to_string())),
        1 => "-?[0-9]{1,4}(\\.[0-9]{1,3})?".prop_map(Some),
        2 => Just(None),
    ]
}

fn all_measures() -> Vec<Measure> {
    let mut m = Measure::paper_menu();
    m.push(Measure::NumericAbs { scale: 10.0 });
    m.push(Measure::Overlap(TokenScheme::Whitespace));
    m.push(Measure::Jaccard(TokenScheme::Alnum));
    m.push(Measure::Dice(TokenScheme::QGram(2)));
    m
}

/// Owned prepared columns for one (measure, table A, table B) triple,
/// mirroring `EvalContext::ensure_prepared` + `ensure_corpus`.
struct Prepared {
    base_a: em_similarity::BaseColumn,
    base_b: em_similarity::BaseColumn,
    toks: Option<(TokenColumn, TokenColumn, Vec<u32>, TokenChars)>,
    idf: Option<(IdfTable, PreparedIdf)>,
}

fn prepare(measure: Measure, a_vals: &[Option<String>], b_vals: &[Option<String>]) -> Prepared {
    let mut value_arena = TokenArena::new();
    let base_a = build_base_column(a_vals.iter().map(|v| v.as_deref()), &mut value_arena);
    let base_b = build_base_column(b_vals.iter().map(|v| v.as_deref()), &mut value_arena);
    let mut arena = TokenArena::new();
    let toks = measure.token_scheme().map(|scheme| {
        let ta = build_token_column(scheme, a_vals.iter().map(|v| v.as_deref()), &mut arena);
        let tb = build_token_column(scheme, b_vals.iter().map(|v| v.as_deref()), &mut arena);
        let rank = arena.text_ranks();
        let mut chars = TokenChars::new();
        chars.extend_from(&arena);
        (ta, tb, rank, chars)
    });
    // Corpus = present values of column A then column B, like
    // `EvalContext::ensure_corpus`; the PreparedIdf is keyed by the same
    // arena the token columns intern into.
    let idf = measure.corpus_scheme().map(|scheme| {
        let docs = a_vals
            .iter()
            .flatten()
            .chain(b_vals.iter().flatten())
            .map(String::as_str);
        let table = IdfTable::build(docs, scheme);
        let pidf = PreparedIdf::build(&table, &arena);
        (table, pidf)
    });
    Prepared {
        base_a,
        base_b,
        toks,
        idf,
    }
}

impl Prepared {
    fn view(&self, measure: Measure) -> PreparedView<'_> {
        let (tok_a, tok_b, rank) = match &self.toks {
            Some((ta, tb, rank, _)) => (Some(ta), Some(tb), Some(rank.as_slice())),
            None => (None, None, None),
        };
        PreparedView {
            base_a: &self.base_a,
            base_b: &self.base_b,
            tok_a,
            tok_b,
            rank,
            token_chars: match &self.toks {
                Some((_, _, _, chars)) if measure.needs_token_chars() => Some(chars),
                _ => None,
            },
            idf: self.idf.as_ref().map(|(_, pidf)| pidf),
        }
    }
}

fn bits_equal(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// The core law: for every pair, `similarity_prepared` ≡ the string path
/// (`similarity_with`, 0.0 on missing values).
fn check_measure(
    measure: Measure,
    a_vals: &[Option<String>],
    b_vals: &[Option<String>],
) -> Result<(), TestCaseError> {
    let prep = prepare(measure, a_vals, b_vals);
    let view = prep.view(measure);
    let pairs = (0..a_vals.len() as u32)
        .flat_map(|a| (0..b_vals.len() as u32).map(move |b| PairIdx::new(a, b)));
    // One scratch across every pair, as each engine thread reuses one.
    let mut scratch = SimScratch::new();
    for pair in pairs {
        let prepared = measure.similarity_prepared(&view, pair, &mut scratch);
        let (va, vb) = (&a_vals[pair.a as usize], &b_vals[pair.b as usize]);
        let scalar = match (va, vb) {
            (Some(a), Some(b)) => measure.similarity_with(a, b, prep.idf.as_ref().map(|(t, _)| t)),
            _ => 0.0, // missing values score 0.0 by convention (§3)
        };
        prop_assert!(
            bits_equal(prepared, scalar),
            "{measure} prepared={prepared} scalar={scalar} on pair {pair:?}: \
             a={va:?} b={vb:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prepared_equals_string_path_bitwise(
        a_vals in prop::collection::vec(arb_value(), 1..6),
        b_vals in prop::collection::vec(arb_value(), 1..6),
    ) {
        for measure in all_measures() {
            check_measure(measure, &a_vals, &b_vals)?;
        }
    }

    #[test]
    fn prepared_equals_string_path_on_unicode_case_folds(
        a in "[ÀÁÇÈÉÑÖÜàáçèéñöüĞğİıŒœŠšŽžß]{1,12}",
        b in "[ÀÁÇÈÉÑÖÜàáçèéñöüĞğİıŒœŠšŽžß]{1,12}",
    ) {
        // Latin-1/Latin-Extended text exercises real (non-ASCII)
        // lowercasing in both the char columns and the string-path normalize.
        let a_vals = vec![Some(a)];
        let b_vals = vec![Some(b)];
        for measure in all_measures() {
            check_measure(measure, &a_vals, &b_vals)?;
        }
    }
}

#[test]
fn prepared_handles_all_missing() {
    let a_vals = vec![None, None];
    let b_vals = vec![None, Some(String::new())];
    for measure in all_measures() {
        check_measure(measure, &a_vals, &b_vals).unwrap();
    }
}
