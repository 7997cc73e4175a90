//! Character-level edit measures: Levenshtein, Jaro, Jaro-Winkler.
//!
//! All operate on the normalized form (lowercased, whitespace-collapsed) of
//! their inputs, so `"IPod"` vs `"ipod"` scores 1.0.
//!
//! Two kernel families live here: the public `&str` API (normalizes, then
//! delegates) and `pub(crate)` scratch kernels over `&[char]` slices that the
//! prepared path calls with reused buffers. Levenshtein uses Myers'
//! bit-parallel algorithm when the shorter string fits in one 64-bit word
//! (the common case for attribute values) and falls back to the two-row
//! dynamic program otherwise; both produce the exact same integer distance.

use crate::tokenize::normalize;
use std::collections::HashMap;

/// Raw Levenshtein edit distance between the normalized forms of `a` and `b`.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    let mut row = Vec::new();
    let mut peq = HashMap::new();
    levenshtein_chars_scratch(&a, &b, &mut row, &mut peq)
}

/// Exact edit distance over char slices, reusing the caller's scratch.
///
/// `row` backs the DP fallback, `peq` the Myers pattern-bitmap table; both
/// are cleared here, so callers just hand over long-lived buffers.
pub(crate) fn levenshtein_chars_scratch(
    a: &[char],
    b: &[char],
    row: &mut Vec<usize>,
    peq: &mut HashMap<char, u64>,
) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    if short.len() <= 64 {
        levenshtein_myers(short, long, peq)
    } else {
        levenshtein_dp(short, long, row)
    }
}

/// Myers (1999) bit-parallel edit distance, Hyyrö's formulation: the DP
/// column for the pattern (shorter string, `m ≤ 64`) is kept as two bit
/// vectors of vertical deltas and advanced one text character per step.
fn levenshtein_myers(short: &[char], long: &[char], peq: &mut HashMap<char, u64>) -> usize {
    let m = short.len();
    debug_assert!((1..=64).contains(&m));
    peq.clear();
    for (i, &c) in short.iter().enumerate() {
        *peq.entry(c).or_insert(0) |= 1u64 << i;
    }
    let mut pv: u64 = if m == 64 { !0 } else { (1u64 << m) - 1 };
    let mut mv: u64 = 0;
    let mut score = m;
    let last = 1u64 << (m - 1);
    for c in long {
        let eq = peq.get(c).copied().unwrap_or(0);
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        }
        if mh & last != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Two-row dynamic program, O(|short|·|long|) time, O(|short|) space.
fn levenshtein_dp(short: &[char], long: &[char], row: &mut Vec<usize>) -> usize {
    row.clear();
    row.extend(0..=short.len());
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[short.len()]
}

/// Normalized Levenshtein similarity: `1 - dist / max(|a|, |b|)`.
///
/// Both strings empty ⇒ 1.0 (they are identical).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    let mut row = Vec::new();
    let mut peq = HashMap::new();
    levenshtein_similarity_chars(&a, &b, &mut row, &mut peq)
}

/// [`levenshtein_similarity`] over already-normalized char slices.
pub(crate) fn levenshtein_similarity_chars(
    a: &[char],
    b: &[char],
    row: &mut Vec<usize>,
    peq: &mut HashMap<char, u64>,
) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars_scratch(a, b, row, peq) as f64 / max_len as f64
}

/// Jaro similarity between the normalized forms of `a` and `b`.
///
/// Both empty ⇒ 1.0; exactly one empty ⇒ 0.0.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    jaro_chars_scratch(&a, &b, &mut Vec::new(), &mut Vec::new())
}

/// Jaro similarity over already-normalized char slices, reusing the caller's
/// match-flag buffers.
pub(crate) fn jaro_chars_scratch(
    a: &[char],
    b: &[char],
    a_matched: &mut Vec<bool>,
    b_matched: &mut Vec<bool>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);

    a_matched.clear();
    a_matched.resize(a.len(), false);
    b_matched.clear();
    b_matched.resize(b.len(), false);
    let mut matches = 0usize;

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }

    if matches == 0 {
        return 0.0;
    }

    // Count transpositions: matched characters out of relative order.
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if a_matched[i] {
            while !b_matched[j] {
                j += 1;
            }
            if ca != b[j] {
                transpositions += 1;
            }
            j += 1;
        }
    }
    let m = matches as f64;
    let t = (transpositions / 2) as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and a
/// common-prefix length capped at 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let an: Vec<char> = normalize(a).chars().collect();
    let bn: Vec<char> = normalize(b).chars().collect();
    jaro_winkler_chars(&an, &bn, &mut Vec::new(), &mut Vec::new())
}

/// [`jaro_winkler`] over already-normalized char slices.
pub(crate) fn jaro_winkler_chars(
    a: &[char],
    b: &[char],
    a_matched: &mut Vec<bool>,
    b_matched: &mut Vec<bool>,
) -> f64 {
    const PREFIX_SCALE: f64 = 0.1;
    const MAX_PREFIX: usize = 4;

    let j = jaro_chars_scratch(a, b, a_matched, b_matched);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * PREFIX_SCALE * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("", ""), 0);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", "abc"), 0);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_case_insensitive() {
        assert_eq!(levenshtein_distance("ABC", "abc"), 0);
    }

    #[test]
    fn levenshtein_similarity_range() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn myers_matches_dp_on_random_strings() {
        // Deterministic LCG so the suite needs no rand dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        let alphabet = ['a', 'b', 'c', 'ü'];
        let mut row = Vec::new();
        let mut peq = HashMap::new();
        for _ in 0..500 {
            let la = next(12);
            let lb = next(12);
            let a: Vec<char> = (0..la).map(|_| alphabet[next(4)]).collect();
            let b: Vec<char> = (0..lb).map(|_| alphabet[next(4)]).collect();
            let myers = levenshtein_chars_scratch(&a, &b, &mut row, &mut peq);
            let dp = levenshtein_dp(
                if a.len() <= b.len() { &a } else { &b },
                if a.len() <= b.len() { &b } else { &a },
                &mut Vec::new(),
            );
            assert_eq!(myers, dp, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn myers_word_boundary() {
        // Exactly 64 chars exercises the `m == 64` mask; 65+ takes the DP
        // fallback. Both must agree with known distances.
        let a64: String = "ab".repeat(32);
        let b64: String = format!("{}x", "ab".repeat(32).trim_end_matches('b'));
        assert_eq!(a64.chars().count(), 64);
        let d = levenshtein_distance(&a64, &b64);
        assert_eq!(d, 1, "single substitution at the top bit");
        let a65: String = "z".repeat(65);
        let b65: String = format!("{}y", "z".repeat(64));
        assert_eq!(levenshtein_distance(&a65, &b65), 1);
        assert_eq!(levenshtein_distance(&a65, &a65), 0);
    }

    #[test]
    fn jaro_textbook_values() {
        // Classic examples from the record-linkage literature.
        let s = jaro("martha", "marhta");
        assert!((s - 0.944444).abs() < 1e-4, "martha/marhta = {s}");
        let s = jaro("dixon", "dicksonx");
        assert!((s - 0.766667).abs() < 1e-4, "dixon/dicksonx = {s}");
        let s = jaro("dwayne", "duane");
        assert!((s - 0.822222).abs() < 1e-4, "dwayne/duane = {s}");
    }

    #[test]
    fn jaro_edges() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro("same", "same"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_textbook_values() {
        let s = jaro_winkler("martha", "marhta");
        assert!((s - 0.961111).abs() < 1e-4, "martha/marhta = {s}");
        let s = jaro_winkler("dixon", "dicksonx");
        assert!((s - 0.813333).abs() < 1e-4, "dixon/dicksonx = {s}");
    }

    #[test]
    fn jaro_winkler_dominates_jaro() {
        let pairs = [("prefix", "prefixx"), ("apple", "applesauce"), ("ab", "ba")];
        for (a, b) in pairs {
            assert!(jaro_winkler(a, b) >= jaro(a, b) - 1e-12);
        }
    }

    #[test]
    fn jaro_symmetric() {
        let pairs = [("martha", "marhta"), ("abcdef", "fedcba"), ("x", "xyz")];
        for (a, b) in pairs {
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
            assert!((jaro_winkler(a, b) - jaro_winkler(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
        assert!(jaro("東京都", "東京") > 0.8);
    }
}
