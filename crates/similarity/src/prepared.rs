//! Prepared (columnar) evaluation: similarity kernels over arena-interned
//! token ids and pre-normalized character columns.
//!
//! The scalar path re-tokenizes, re-lowercases, and re-allocates on every
//! `Measure::similarity_with` call. The prepared path does that work **once
//! per record** at preparation time:
//!
//! - [`BaseColumn`]: per-record normalized chars, trimmed-value ids, Soundex
//!   codes, and parsed numbers — everything the non-token measures need.
//! - [`build_token_column`]: per-record interned token ids for one
//!   [`TokenScheme`] (original order + text-sorted, via
//!   [`em_types::TokenColumn`]).
//! - [`TokenChars`]: normalized per-token characters, indexed by token id,
//!   for the hybrid measures' inner Jaro-Winkler.
//! - [`PreparedIdf`]: IDF weights re-keyed from token text to token id.
//!
//! [`Measure::similarity_prepared`] then evaluates one pair from a
//! [`PreparedView`] with a reusable [`SimScratch`]; it is the only kernel
//! entry the engines call, one pair at a time. Every kernel mirrors its
//! string-path counterpart ([`Measure::similarity_with`]) operation for
//! operation — same formulas, same accumulation order (token *text* order,
//! which is why [`TokenColumn`] sorts by text) — so prepared and
//! string-path scores are **bitwise identical**, a property the
//! equivalence proptests pin down.

use crate::edit::{jaro_chars_scratch, jaro_winkler_chars, levenshtein_similarity_chars};
use crate::phonetic::soundex_code;
use crate::set::{cosine_from_counts, dice_from_counts, jaccard_from_counts, overlap_from_counts};
use crate::tfidf::IdfTable;
use crate::tokenize::{normalize_chars_into, TokenBuf, TokenScheme};
use crate::Measure;
use em_types::{CharColumn, PairIdx, TokenArena, TokenColumn};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sentinel id for a missing value in [`BaseColumn::exact`] / packed Soundex
/// code for "no ASCII letters".
const NONE_ID: u32 = u32::MAX;

/// Per-record columnar data for the non-token measures of one attribute
/// column: presence flags, normalized characters (edit family), trimmed-value
/// ids (Exact), packed Soundex codes, and parsed numbers (NumericAbs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BaseColumn {
    present: Vec<bool>,
    chars: CharColumn,
    exact: Vec<u32>,
    soundex: Vec<u32>,
    number: Vec<f64>,
}

impl BaseColumn {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when no records have been prepared.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Whether the record's value is present (non-missing).
    #[inline]
    pub fn present(&self, row: u32) -> bool {
        self.present[row as usize]
    }
}

/// Builds a [`BaseColumn`] from one attribute's values in row order.
///
/// `value_arena` interns *trimmed* values, so Exact equality becomes id
/// equality; share one arena across all columns of both tables.
pub fn build_base_column<'a>(
    values: impl IntoIterator<Item = Option<&'a str>>,
    value_arena: &mut TokenArena,
) -> BaseColumn {
    let mut col = BaseColumn::default();
    let mut chars = Vec::new();
    for v in values {
        match v {
            Some(s) => {
                col.present.push(true);
                normalize_chars_into(s, &mut chars);
                col.chars.push(chars.iter().copied());
                col.exact.push(value_arena.intern(s.trim()));
                col.soundex.push(pack_soundex(soundex_code(s).as_deref()));
                col.number
                    .push(crate::numeric::extract_number(s).unwrap_or(f64::NAN));
            }
            None => {
                col.present.push(false);
                col.chars.push(std::iter::empty());
                col.exact.push(NONE_ID);
                col.soundex.push(NONE_ID);
                col.number.push(f64::NAN);
            }
        }
    }
    col
}

/// Packs a 4-ASCII-char Soundex code into a `u32`; `None` (no ASCII letters)
/// packs to [`NONE_ID`], which no real code collides with (codes start with
/// an uppercase letter).
fn pack_soundex(code: Option<&str>) -> u32 {
    match code {
        Some(c) => {
            let b = c.as_bytes();
            debug_assert_eq!(b.len(), 4, "soundex codes are exactly 4 ASCII chars");
            u32::from_be_bytes([b[0], b[1], b[2], b[3]])
        }
        None => NONE_ID,
    }
}

/// Builds a [`TokenColumn`] for one attribute under one [`TokenScheme`],
/// interning through `arena`. Missing values become empty token lists (the
/// presence flag in [`BaseColumn`] drives the missing-value convention).
pub fn build_token_column<'a>(
    scheme: TokenScheme,
    values: impl IntoIterator<Item = Option<&'a str>>,
    arena: &mut TokenArena,
) -> TokenColumn {
    let mut col = TokenColumn::new();
    let mut buf = TokenBuf::new();
    let mut chars = Vec::new();
    let mut ids = Vec::new();
    for v in values {
        ids.clear();
        if let Some(s) = v {
            scheme.tokenize_into(s, &mut chars, &mut buf);
            for t in buf.iter() {
                ids.push(arena.intern(t));
            }
        }
        col.push_record(&ids, arena);
    }
    col
}

/// Normalized characters of each interned token, indexed by token id; the
/// hybrid measures' inner Jaro-Winkler runs on these slices. Extend after
/// the arena grows (ids are append-only, so rows never shift).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TokenChars {
    col: CharColumn,
}

impl TokenChars {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends rows for tokens interned since the last call.
    pub fn extend_from(&mut self, arena: &TokenArena) {
        let mut chars = Vec::new();
        for id in self.col.len() as u32..arena.len() as u32 {
            normalize_chars_into(arena.text(id), &mut chars);
            self.col.push(chars.iter().copied());
        }
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        self.col.len()
    }

    /// True when no tokens are covered.
    pub fn is_empty(&self) -> bool {
        self.col.is_empty()
    }

    /// The normalized characters of token `id`.
    #[inline]
    pub fn token(&self, id: u32) -> &[char] {
        self.col.slice(id)
    }
}

/// IDF weights re-keyed from token text to token id for O(1) array lookups.
///
/// Tokens interned after the table was built (or absent from the corpus) get
/// the exact out-of-corpus weight of [`IdfTable::weight`], so late arena
/// growth never changes scores.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PreparedIdf {
    weights: Vec<f64>,
    oov: f64,
}

impl PreparedIdf {
    /// Re-keys `idf` by the ids of `arena`.
    pub fn build(idf: &IdfTable, arena: &TokenArena) -> Self {
        let weights = (0..arena.len() as u32)
            .map(|id| idf.weight(arena.text(id)))
            .collect();
        PreparedIdf {
            weights,
            oov: idf.oov_weight(),
        }
    }

    /// The weight of token `id`.
    #[inline]
    pub fn weight(&self, id: u32) -> f64 {
        self.weights.get(id as usize).copied().unwrap_or(self.oov)
    }
}

/// Borrowed view of everything one measure needs to evaluate pairs over one
/// `(attribute A, attribute B)` feature: the two base columns, plus token
/// columns / rank snapshot / token chars / IDF weights when the measure
/// calls for them.
#[derive(Debug, Clone, Copy)]
pub struct PreparedView<'a> {
    /// Base column of the `A`-side attribute.
    pub base_a: &'a BaseColumn,
    /// Base column of the `B`-side attribute.
    pub base_b: &'a BaseColumn,
    /// Token column of the `A` side (token measures only).
    pub tok_a: Option<&'a TokenColumn>,
    /// Token column of the `B` side (token measures only).
    pub tok_b: Option<&'a TokenColumn>,
    /// Lexicographic rank per token id ([`TokenArena::text_ranks`] snapshot
    /// covering every id in the token columns).
    pub rank: Option<&'a [u32]>,
    /// Per-token normalized characters (hybrid measures only).
    pub token_chars: Option<&'a TokenChars>,
    /// Id-keyed IDF weights (corpus measures only; `None` degrades to
    /// unweighted statistics, like the scalar path).
    pub idf: Option<&'a PreparedIdf>,
}

/// Reusable scratch buffers for the prepared kernels; one per worker thread
/// keeps the steady-state allocation count at zero.
#[derive(Debug, Default)]
pub struct SimScratch {
    row: Vec<usize>,
    peq: HashMap<char, u64>,
    am: Vec<bool>,
    bm: Vec<bool>,
    wa: Vec<(u32, f64)>,
    wb: Vec<(u32, f64)>,
}

impl SimScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counts distinct tokens common to two text-sorted id slices (duplicates
/// retained in the slices, skipped by the merge). `rank` orders ids by text,
/// so the merge advances exactly like a merge over sorted token strings.
pub fn distinct_intersection(a: &[u32], b: &[u32], rank: &[u32]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            inter += 1;
            while i < a.len() && a[i] == x {
                i += 1;
            }
            while j < b.len() && b[j] == y {
                j += 1;
            }
        } else if rank[x as usize] < rank[y as usize] {
            i += 1;
        } else {
            j += 1;
        }
    }
    inter
}

/// Run-length encodes a text-sorted id slice into `(id, tf × idf)` entries —
/// the id-keyed image of `tfidf::weight_entries`, in the same text order.
fn fill_weight_entries(sorted: &[u32], idf: Option<&PreparedIdf>, out: &mut Vec<(u32, f64)>) {
    out.clear();
    let mut i = 0;
    while i < sorted.len() {
        let id = sorted[i];
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] == id {
            j += 1;
        }
        let iw = idf.map_or(1.0, |t| t.weight(id));
        out.push((id, (j - i) as f64 * iw));
        i = j;
    }
}

/// Euclidean norm of id-keyed weight entries, accumulated in entry order
/// (mirrors `tfidf::norm_entries`).
fn norm_id_entries(v: &[(u32, f64)]) -> f64 {
    v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
}

fn tfidf_prepared(
    sa: &[u32],
    sb: &[u32],
    rank: &[u32],
    idf: Option<&PreparedIdf>,
    scratch: &mut SimScratch,
) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    fill_weight_entries(sa, idf, &mut scratch.wa);
    fill_weight_entries(sb, idf, &mut scratch.wb);
    let (va, vb) = (&scratch.wa, &scratch.wb);
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < va.len() && j < vb.len() {
        let (x, y) = (va[i].0, vb[j].0);
        if x == y {
            dot += va[i].1 * vb[j].1;
            i += 1;
            j += 1;
        } else if rank[x as usize] < rank[y as usize] {
            i += 1;
        } else {
            j += 1;
        }
    }
    let denom = norm_id_entries(va) * norm_id_entries(vb);
    if denom == 0.0 {
        return 0.0;
    }
    (dot / denom).clamp(0.0, 1.0)
}

fn soft_tfidf_prepared(
    sa: &[u32],
    sb: &[u32],
    rank: &[u32],
    idf: Option<&PreparedIdf>,
    tc: &TokenChars,
    threshold: f64,
    scratch: &mut SimScratch,
) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    fill_weight_entries(sa, idf, &mut scratch.wa);
    fill_weight_entries(sb, idf, &mut scratch.wb);
    let SimScratch { wa, wb, am, bm, .. } = scratch;
    let denom = norm_id_entries(wa) * norm_id_entries(wb);
    if denom == 0.0 {
        return 0.0;
    }
    let dot_ab = directed_soft_dot_prepared(wa, wb, rank, tc, threshold, am, bm);
    let dot_ba = directed_soft_dot_prepared(wb, wa, rank, tc, threshold, am, bm);
    let s = (dot_ab.min(denom) + dot_ba.min(denom)) / (2.0 * denom);
    s.clamp(0.0, 1.0)
}

/// Id-keyed image of `hybrid::directed_soft_dot`: both entry vectors are in
/// token text order, so the exact-match binary search, best-match
/// tie-breaking, and accumulation order all coincide with the scalar path.
fn directed_soft_dot_prepared(
    va: &[(u32, f64)],
    vb: &[(u32, f64)],
    rank: &[u32],
    tc: &TokenChars,
    threshold: f64,
    am: &mut Vec<bool>,
    bm: &mut Vec<bool>,
) -> f64 {
    let mut dot = 0.0;
    for &(t, wa) in va {
        let rt = rank[t as usize];
        if let Ok(k) = vb.binary_search_by(|&(u, _)| rank[u as usize].cmp(&rt)) {
            dot += wa * vb[k].1;
            continue;
        }
        let mut best = 0.0f64;
        let mut best_w = 0.0f64;
        for &(u, wb) in vb {
            let s = jaro_winkler_chars(tc.token(t), tc.token(u), am, bm);
            if s >= threshold && s > best {
                best = s;
                best_w = wb;
            }
        }
        if best > 0.0 {
            dot += wa * best_w * best;
        }
    }
    dot
}

fn monge_elkan_prepared(
    ia: &[u32],
    ib: &[u32],
    tc: &TokenChars,
    am: &mut Vec<bool>,
    bm: &mut Vec<bool>,
) -> f64 {
    if ia.is_empty() && ib.is_empty() {
        return 1.0;
    }
    if ia.is_empty() || ib.is_empty() {
        return 0.0;
    }
    (directed_monge_elkan_prepared(ia, ib, tc, am, bm)
        + directed_monge_elkan_prepared(ib, ia, tc, am, bm))
        / 2.0
}

fn directed_monge_elkan_prepared(
    a: &[u32],
    b: &[u32],
    tc: &TokenChars,
    am: &mut Vec<bool>,
    bm: &mut Vec<bool>,
) -> f64 {
    let mut total = 0.0f64;
    for &t in a {
        let mut best = 0.0f64;
        for &u in b {
            best = best.max(jaro_winkler_chars(tc.token(t), tc.token(u), am, bm));
        }
        total += best;
    }
    total / a.len() as f64
}

impl Measure {
    /// The token scheme whose [`TokenColumn`]s this measure evaluates over,
    /// if any (`Trigram` resolves to `QGram(3)`).
    pub fn token_scheme(&self) -> Option<TokenScheme> {
        match *self {
            Measure::Cosine(s)
            | Measure::Jaccard(s)
            | Measure::Dice(s)
            | Measure::Overlap(s)
            | Measure::MongeElkan(s)
            | Measure::TfIdf(s) => Some(s),
            Measure::SoftTfIdf { scheme, .. } => Some(scheme),
            Measure::Trigram => Some(TokenScheme::QGram(3)),
            _ => None,
        }
    }

    /// Whether the prepared kernels need per-token characters (the hybrid
    /// measures' inner Jaro-Winkler).
    pub fn needs_token_chars(&self) -> bool {
        matches!(self, Measure::MongeElkan(_) | Measure::SoftTfIdf { .. })
    }

    /// Evaluates one pair from prepared columns, bitwise-equal to the scalar
    /// [`Measure::similarity_with`] on the same values.
    ///
    /// # Panics
    ///
    /// Panics when `v` lacks a component this measure requires (token
    /// columns, rank snapshot, token chars) — a construction bug, not a data
    /// condition.
    pub fn similarity_prepared(
        &self,
        v: &PreparedView<'_>,
        pair: PairIdx,
        scratch: &mut SimScratch,
    ) -> f64 {
        let (ra, rb) = (pair.a, pair.b);
        if !v.base_a.present(ra) || !v.base_b.present(rb) {
            return 0.0;
        }
        match *self {
            Measure::Exact => {
                if v.base_a.exact[ra as usize] == v.base_b.exact[rb as usize] {
                    1.0
                } else {
                    0.0
                }
            }
            Measure::Jaro => jaro_chars_scratch(
                v.base_a.chars.slice(ra),
                v.base_b.chars.slice(rb),
                &mut scratch.am,
                &mut scratch.bm,
            ),
            Measure::JaroWinkler => jaro_winkler_chars(
                v.base_a.chars.slice(ra),
                v.base_b.chars.slice(rb),
                &mut scratch.am,
                &mut scratch.bm,
            ),
            Measure::Levenshtein => levenshtein_similarity_chars(
                v.base_a.chars.slice(ra),
                v.base_b.chars.slice(rb),
                &mut scratch.row,
                &mut scratch.peq,
            ),
            Measure::Cosine(_)
            | Measure::Jaccard(_)
            | Measure::Dice(_)
            | Measure::Overlap(_)
            | Measure::Trigram => {
                let ta = v.tok_a.expect("prepared view missing A token column");
                let tb = v.tok_b.expect("prepared view missing B token column");
                let rank = v.rank.expect("prepared view missing rank snapshot");
                let inter = distinct_intersection(ta.sorted(ra), tb.sorted(rb), rank);
                let (na, nb) = (ta.unique(ra), tb.unique(rb));
                match *self {
                    Measure::Cosine(_) => cosine_from_counts(inter, na, nb),
                    Measure::Dice(_) => dice_from_counts(inter, na, nb),
                    Measure::Overlap(_) => overlap_from_counts(inter, na, nb),
                    _ => jaccard_from_counts(inter, na, nb),
                }
            }
            Measure::Soundex => {
                let (ca, cb) = (v.base_a.soundex[ra as usize], v.base_b.soundex[rb as usize]);
                if ca != NONE_ID && cb != NONE_ID {
                    if ca == cb {
                        1.0
                    } else {
                        0.0
                    }
                } else if ca == NONE_ID && cb == NONE_ID {
                    // Neither side has a code: the scalar path falls back to
                    // trimmed equality.
                    if v.base_a.exact[ra as usize] == v.base_b.exact[rb as usize] {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    0.0
                }
            }
            Measure::NumericAbs { scale } => {
                let (x, y) = (v.base_a.number[ra as usize], v.base_b.number[rb as usize]);
                if !x.is_nan() && !y.is_nan() {
                    let scale = scale.max(f64::MIN_POSITIVE);
                    (1.0 - (x - y).abs() / scale).clamp(0.0, 1.0)
                } else if v.base_a.exact[ra as usize] == v.base_b.exact[rb as usize] {
                    1.0
                } else {
                    0.0
                }
            }
            Measure::MongeElkan(_) => {
                let ta = v.tok_a.expect("prepared view missing A token column");
                let tb = v.tok_b.expect("prepared view missing B token column");
                let tc = v.token_chars.expect("prepared view missing token chars");
                monge_elkan_prepared(ta.ids(ra), tb.ids(rb), tc, &mut scratch.am, &mut scratch.bm)
            }
            Measure::TfIdf(_) => {
                let ta = v.tok_a.expect("prepared view missing A token column");
                let tb = v.tok_b.expect("prepared view missing B token column");
                let rank = v.rank.expect("prepared view missing rank snapshot");
                tfidf_prepared(ta.sorted(ra), tb.sorted(rb), rank, v.idf, scratch)
            }
            Measure::SoftTfIdf { threshold, .. } => {
                let ta = v.tok_a.expect("prepared view missing A token column");
                let tb = v.tok_b.expect("prepared view missing B token column");
                let rank = v.rank.expect("prepared view missing rank snapshot");
                let tc = v.token_chars.expect("prepared view missing token chars");
                soft_tfidf_prepared(
                    ta.sorted(ra),
                    tb.sorted(rb),
                    rank,
                    v.idf,
                    tc,
                    threshold,
                    scratch,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the full prepared state for two small columns under one scheme.
    struct Fixture {
        base_a: BaseColumn,
        base_b: BaseColumn,
        tok_a: TokenColumn,
        tok_b: TokenColumn,
        rank: Vec<u32>,
        token_chars: TokenChars,
        idf: Option<PreparedIdf>,
        idf_table: Option<IdfTable>,
    }

    impl Fixture {
        fn build(
            scheme: TokenScheme,
            a: &[Option<&str>],
            b: &[Option<&str>],
            with_idf: bool,
        ) -> Self {
            let mut value_arena = TokenArena::new();
            let base_a = build_base_column(a.iter().copied(), &mut value_arena);
            let base_b = build_base_column(b.iter().copied(), &mut value_arena);
            let mut arena = TokenArena::new();
            let tok_a = build_token_column(scheme, a.iter().copied(), &mut arena);
            let tok_b = build_token_column(scheme, b.iter().copied(), &mut arena);
            let mut token_chars = TokenChars::new();
            token_chars.extend_from(&arena);
            let idf_table = with_idf
                .then(|| IdfTable::build(a.iter().chain(b.iter()).filter_map(|v| *v), scheme));
            let idf = idf_table.as_ref().map(|t| PreparedIdf::build(t, &arena));
            Fixture {
                base_a,
                base_b,
                tok_a,
                tok_b,
                rank: arena.text_ranks(),
                token_chars,
                idf,
                idf_table,
            }
        }

        fn view(&self) -> PreparedView<'_> {
            PreparedView {
                base_a: &self.base_a,
                base_b: &self.base_b,
                tok_a: Some(&self.tok_a),
                tok_b: Some(&self.tok_b),
                rank: Some(&self.rank),
                token_chars: Some(&self.token_chars),
                idf: self.idf.as_ref(),
            }
        }
    }

    const VALUES_A: &[Option<&str>] = &[
        Some("Apple iPod Nano 16GB"),
        Some("sony walkman nwz"),
        None,
        Some(""),
        Some("  WH-1000XM4  "),
        Some("ÜBER straße 42"),
        Some("price: 1,299.99"),
    ];
    const VALUES_B: &[Option<&str>] = &[
        Some("apple ipod nano 16 gb"),
        Some("Sony Walkman NWZ-E463"),
        Some("anything"),
        Some(""),
        Some("WH1000 XM4 headphones"),
        Some("uber strasse 42"),
        Some("1299.99 USD"),
    ];

    #[test]
    fn prepared_matches_scalar_bitwise_over_menu() {
        for scheme in [
            TokenScheme::Whitespace,
            TokenScheme::Alnum,
            TokenScheme::QGram(3),
        ] {
            let fx = Fixture::build(scheme, VALUES_A, VALUES_B, true);
            let view = fx.view();
            let mut scratch = SimScratch::new();
            let mut measures = vec![
                Measure::Exact,
                Measure::Jaro,
                Measure::JaroWinkler,
                Measure::Levenshtein,
                Measure::Soundex,
                Measure::NumericAbs { scale: 100.0 },
                Measure::NumericAbs { scale: 0.0 },
                Measure::Cosine(scheme),
                Measure::Jaccard(scheme),
                Measure::Dice(scheme),
                Measure::Overlap(scheme),
                Measure::MongeElkan(scheme),
                Measure::TfIdf(scheme),
                Measure::SoftTfIdf {
                    scheme,
                    threshold: 0.9,
                },
            ];
            if scheme == TokenScheme::QGram(3) {
                measures.push(Measure::Trigram);
            }
            for m in measures {
                for ra in 0..VALUES_A.len() as u32 {
                    for rb in 0..VALUES_B.len() as u32 {
                        let got = m.similarity_prepared(&view, PairIdx::new(ra, rb), &mut scratch);
                        let want = match (VALUES_A[ra as usize], VALUES_B[rb as usize]) {
                            (Some(x), Some(y)) => m.similarity_with(x, y, fx.idf_table.as_ref()),
                            _ => 0.0,
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{m} ({scheme:?}) on pair ({ra},{rb}): {got} != {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_idf_oov_matches_table() {
        let idf = IdfTable::build(["apple ipod", "sony tv"], TokenScheme::Whitespace);
        let mut arena = TokenArena::new();
        let apple = arena.intern("apple");
        let pidf = PreparedIdf::build(&idf, &arena);
        // A token interned after the snapshot gets the exact OOV weight.
        let late = arena.intern("zzz-late");
        assert_eq!(pidf.weight(apple).to_bits(), idf.weight("apple").to_bits());
        assert_eq!(
            pidf.weight(late).to_bits(),
            idf.weight("zzz-late").to_bits()
        );
    }

    #[test]
    fn distinct_intersection_skips_duplicates() {
        let mut arena = TokenArena::new();
        let a_id = arena.intern("a");
        let b_id = arena.intern("b");
        let c_id = arena.intern("c");
        let rank = arena.text_ranks();
        // {a, b, b} vs {b, c}: one distinct common token.
        assert_eq!(
            distinct_intersection(&[a_id, b_id, b_id], &[b_id, c_id], &rank),
            1
        );
        assert_eq!(distinct_intersection(&[], &[a_id], &rank), 0);
        assert_eq!(distinct_intersection(&[a_id], &[a_id], &rank), 1);
    }

    #[test]
    fn base_column_packs_missing_and_numbers() {
        let mut arena = TokenArena::new();
        let col = build_base_column([Some(" 42 "), None, Some("n/a")], &mut arena);
        assert!(col.present(0));
        assert!(!col.present(1));
        assert_eq!(col.number[0], 42.0);
        assert!(col.number[1].is_nan());
        assert!(col.number[2].is_nan());
        // Trimmed-value ids: " 42 " interns as "42".
        assert_eq!(arena.get("42"), Some(col.exact[0]));
    }
}
