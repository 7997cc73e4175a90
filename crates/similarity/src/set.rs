//! Set-based token similarities: Jaccard, set cosine, Dice, overlap.
//!
//! These all operate on the *sets* of tokens produced by a
//! [`crate::TokenScheme`] (duplicates within one string are collapsed, the
//! standard convention for EM features).

use std::collections::HashSet;

/// Computes `(|A ∩ B|, |A|, |B|)` for the token sets of `a` and `b`.
fn intersection_sizes(a: &[String], b: &[String]) -> (usize, usize, usize) {
    let sa: HashSet<&str> = a.iter().map(String::as_str).collect();
    let sb: HashSet<&str> = b.iter().map(String::as_str).collect();
    // Iterate the smaller set for the intersection count.
    let (small, big) = if sa.len() <= sb.len() {
        (&sa, &sb)
    } else {
        (&sb, &sa)
    };
    let inter = small.iter().filter(|t| big.contains(*t)).count();
    (inter, sa.len(), sb.len())
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`. Both token lists empty ⇒ 1.0.
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    let (inter, na, nb) = intersection_sizes(a, b);
    jaccard_from_counts(inter, na, nb)
}

/// [`jaccard`] from precomputed distinct-token counts. The prepared kernels
/// compute `(inter, na, nb)` by merging sorted interned slices and share the
/// float formula with the scalar path through these helpers, so both paths
/// produce bitwise-identical scores.
pub fn jaccard_from_counts(inter: usize, na: usize, nb: usize) -> f64 {
    let union = na + nb - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Set cosine `|A ∩ B| / sqrt(|A| · |B|)`. Both empty ⇒ 1.0; one empty ⇒ 0.0.
pub fn cosine_set(a: &[String], b: &[String]) -> f64 {
    let (inter, na, nb) = intersection_sizes(a, b);
    cosine_from_counts(inter, na, nb)
}

/// [`cosine_set`] from precomputed distinct-token counts.
pub fn cosine_from_counts(inter: usize, na: usize, nb: usize) -> f64 {
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    inter as f64 / ((na * nb) as f64).sqrt()
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`. Both empty ⇒ 1.0.
pub fn dice(a: &[String], b: &[String]) -> f64 {
    let (inter, na, nb) = intersection_sizes(a, b);
    dice_from_counts(inter, na, nb)
}

/// [`dice`] from precomputed distinct-token counts.
pub fn dice_from_counts(inter: usize, na: usize, nb: usize) -> f64 {
    if na + nb == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (na + nb) as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`. Both empty ⇒ 1.0; one
/// empty ⇒ 0.0.
pub fn overlap_coefficient(a: &[String], b: &[String]) -> f64 {
    let (inter, na, nb) = intersection_sizes(a, b);
    overlap_from_counts(inter, na, nb)
}

/// [`overlap_coefficient`] from precomputed distinct-token counts.
pub fn overlap_from_counts(inter: usize, na: usize, nb: usize) -> f64 {
    let min = na.min(nb);
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if min == 0 {
        return 0.0;
    }
    inter as f64 / min as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn jaccard_basics() {
        let a = toks(&["apple", "ipod", "nano"]);
        let b = toks(&["apple", "ipod", "touch"]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12); // 2 / 4
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &toks(&["x"])), 0.0);
    }

    #[test]
    fn jaccard_empty_conventions() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&toks(&["a"]), &[]), 0.0);
    }

    #[test]
    fn duplicates_collapse() {
        let a = toks(&["x", "x", "x"]);
        let b = toks(&["x"]);
        assert_eq!(jaccard(&a, &b), 1.0);
        assert_eq!(dice(&a, &b), 1.0);
    }

    #[test]
    fn cosine_set_basics() {
        let a = toks(&["a", "b", "c", "d"]);
        let b = toks(&["a"]);
        assert!((cosine_set(&a, &b) - 0.5).abs() < 1e-12); // 1/sqrt(4)
        assert_eq!(cosine_set(&[], &[]), 1.0);
        assert_eq!(cosine_set(&a, &[]), 0.0);
    }

    #[test]
    fn dice_basics() {
        let a = toks(&["a", "b"]);
        let b = toks(&["b", "c"]);
        assert!((dice(&a, &b) - 0.5).abs() < 1e-12); // 2·1 / 4
        assert_eq!(dice(&[], &[]), 1.0);
    }

    #[test]
    fn overlap_basics() {
        let a = toks(&["a", "b", "c"]);
        let b = toks(&["a", "b"]);
        assert_eq!(overlap_coefficient(&a, &b), 1.0); // subset
        assert_eq!(overlap_coefficient(&a, &[]), 0.0);
        assert_eq!(overlap_coefficient(&[], &[]), 1.0);
    }

    #[test]
    fn containment_ordering() {
        // overlap ≥ dice ≥ jaccard for any pair (standard inequality chain).
        let a = toks(&["a", "b", "c", "d", "e"]);
        let b = toks(&["c", "d", "e", "f"]);
        let j = jaccard(&a, &b);
        let d = dice(&a, &b);
        let o = overlap_coefficient(&a, &b);
        assert!(o >= d && d >= j, "o={o} d={d} j={j}");
    }
}
