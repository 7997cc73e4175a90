//! Hybrid measures combining token- and character-level similarity:
//! Monge-Elkan and Soft TF-IDF.

use crate::edit::jaro_winkler;
use crate::tfidf::{norm_entries, weight_entries, IdfTable};

/// Monge-Elkan similarity with Jaro-Winkler as the inner measure,
/// symmetrized by averaging both directions.
///
/// `ME(A→B) = (1/|A|) Σ_{t∈A} max_{u∈B} jw(t, u)`, and we return
/// `(ME(A→B) + ME(B→A)) / 2` so the result is a commutative feature (the
/// paper requires commutative matching functions, §3).
pub fn monge_elkan(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    (directed_monge_elkan(a, b) + directed_monge_elkan(b, a)) / 2.0
}

fn directed_monge_elkan(a: &[String], b: &[String]) -> f64 {
    let total: f64 = a
        .iter()
        .map(|t| b.iter().map(|u| jaro_winkler(t, u)).fold(0.0f64, f64::max))
        .sum();
    total / a.len() as f64
}

/// Soft TF-IDF (Cohen, Ravikumar & Fienberg 2003), symmetrized.
///
/// Like TF-IDF cosine, but a token `t ∈ A` also matches the most similar
/// token `u ∈ B` with `jw(t, u) ≥ threshold`, contributing
/// `w(t,A) · w(u,B) · jw(t,u)` to the dot product. This makes the measure
/// robust to typos inside tokens while keeping corpus weighting.
pub fn soft_tfidf(a: &[String], b: &[String], idf: Option<&IdfTable>, threshold: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let va = weight_entries(a, idf);
    let vb = weight_entries(b, idf);
    let denom = norm_entries(&va) * norm_entries(&vb);
    if denom == 0.0 {
        return 0.0;
    }

    let dot_ab = directed_soft_dot(&va, &vb, threshold);
    let dot_ba = directed_soft_dot(&vb, &va, threshold);
    // Symmetrize; each directed dot is clamped to the norm product since a
    // single target token may be the best match of several source tokens,
    // which can push the raw directed dot past the Cauchy-Schwarz bound.
    let s = (dot_ab.min(denom) + dot_ba.min(denom)) / (2.0 * denom);
    s.clamp(0.0, 1.0)
}

/// Directed soft dot over text-sorted weight entries. Iteration order (and
/// therefore best-match tie-breaking and float accumulation order) is the
/// token text order on both sides, which the id-keyed prepared kernel
/// reproduces exactly.
fn directed_soft_dot(va: &[(&str, f64)], vb: &[(&str, f64)], threshold: f64) -> f64 {
    let mut dot = 0.0;
    for &(t, wa) in va {
        // Exact matches short-circuit the inner scan.
        if let Ok(k) = vb.binary_search_by(|&(u, _)| u.cmp(t)) {
            dot += wa * vb[k].1;
            continue;
        }
        let mut best = 0.0f64;
        let mut best_w = 0.0f64;
        for &(u, wb) in vb {
            let s = jaro_winkler(t, u);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::TokenScheme;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn monge_elkan_identical() {
        let a = toks(&["apple", "ipod"]);
        assert!((monge_elkan(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_tolerates_typos() {
        let a = toks(&["apple", "ipod", "nano"]);
        let b = toks(&["aple", "ipod", "nano"]);
        assert!(monge_elkan(&a, &b) > 0.9);
    }

    #[test]
    fn monge_elkan_empty() {
        assert_eq!(monge_elkan(&[], &[]), 1.0);
        assert_eq!(monge_elkan(&toks(&["a"]), &[]), 0.0);
    }

    #[test]
    fn monge_elkan_symmetric() {
        let a = toks(&["apple", "ipod", "nano", "16gb"]);
        let b = toks(&["apple", "touch"]);
        assert!((monge_elkan(&a, &b) - monge_elkan(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn soft_tfidf_equals_one_on_identical() {
        let idf = IdfTable::build(["apple ipod nano", "sony walkman"], TokenScheme::Whitespace);
        let a = toks(&["apple", "ipod", "nano"]);
        assert!((soft_tfidf(&a, &a, Some(&idf), 0.9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn soft_tfidf_bridges_typos() {
        let idf = IdfTable::build(
            ["apple ipod nano", "apple ipod touch", "sony walkman"],
            TokenScheme::Whitespace,
        );
        let clean = toks(&["apple", "ipod", "nano"]);
        let typo = toks(&["applee", "ipod", "nano"]); // doubled letter in "apple"
        let hard = crate::tfidf::tfidf_cosine(&clean, &typo, Some(&idf));
        let soft = soft_tfidf(&clean, &typo, Some(&idf), 0.9);
        assert!(
            soft > hard,
            "soft tf-idf ({soft}) should exceed hard tf-idf ({hard}) under typos"
        );
        assert!(soft > 0.9);
    }

    #[test]
    fn soft_tfidf_threshold_gates_matches() {
        let a = toks(&["apple"]);
        let b = toks(&["orange"]);
        // jw(apple, orange) is well below 0.9, so no soft match.
        assert_eq!(soft_tfidf(&a, &b, None, 0.9), 0.0);
        // With a liberal threshold, some similarity leaks through.
        assert!(soft_tfidf(&a, &b, None, 0.1) > 0.0);
    }

    #[test]
    fn soft_tfidf_symmetric() {
        let a = toks(&["apple", "ipod", "nano"]);
        let b = toks(&["aplle", "ipd", "touch"]);
        let s1 = soft_tfidf(&a, &b, None, 0.85);
        let s2 = soft_tfidf(&b, &a, None, 0.85);
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn soft_tfidf_in_unit_interval_under_duplicates() {
        // Multiple source tokens soft-matching one target token must not
        // push the score past 1.
        let a = toks(&["apple", "aplle", "appel"]);
        let b = toks(&["apple"]);
        let s = soft_tfidf(&a, &b, None, 0.8);
        assert!((0.0..=1.0).contains(&s), "got {s}");
    }

    #[test]
    fn soft_tfidf_empty() {
        assert_eq!(soft_tfidf(&[], &[], None, 0.9), 1.0);
        assert_eq!(soft_tfidf(&toks(&["a"]), &[], None, 0.9), 0.0);
    }
}
