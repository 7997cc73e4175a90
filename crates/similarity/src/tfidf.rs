//! Corpus-weighted similarity: IDF tables and TF-IDF cosine.

use crate::tokenize::TokenScheme;
use std::collections::HashMap;

/// Inverse-document-frequency statistics over a token corpus.
///
/// Built once per (attribute column, token scheme) from the records of both
/// input tables; queried millions of times during matching, so lookups are a
/// single hash probe.
#[derive(Debug, Clone, Default)]
pub struct IdfTable {
    /// ln((1 + N) / (1 + df)) + 1 per token.
    idf: HashMap<String, f64>,
    /// Number of documents the table was built from.
    n_docs: usize,
}

impl IdfTable {
    /// Builds IDF statistics from an iterator of documents.
    pub fn build<'a, I>(docs: I, scheme: TokenScheme) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut n_docs = 0usize;
        for doc in docs {
            n_docs += 1;
            let mut toks = scheme.tokenize(doc);
            toks.sort_unstable();
            toks.dedup();
            for t in toks {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        let idf = df
            .into_iter()
            .map(|(t, d)| {
                let w = ((1 + n_docs) as f64 / (1 + d) as f64).ln() + 1.0;
                (t, w)
            })
            .collect();
        IdfTable { idf, n_docs }
    }

    /// The IDF weight of `token`.
    ///
    /// Unknown (out-of-corpus) tokens get the maximum possible weight
    /// `ln(1 + N) + 1`, the smoothed weight of a token seen in zero
    /// documents.
    #[inline]
    pub fn weight(&self, token: &str) -> f64 {
        self.idf
            .get(token)
            .copied()
            .unwrap_or_else(|| self.oov_weight())
    }

    /// The weight assigned to out-of-corpus tokens: `ln(1 + N) + 1`.
    ///
    /// Exposed so prepared (token-id keyed) weight tables can reproduce the
    /// exact fallback for tokens interned after the table was built.
    #[inline]
    pub fn oov_weight(&self) -> f64 {
        ((1 + self.n_docs) as f64).ln() + 1.0
    }

    /// Number of distinct tokens with statistics.
    pub fn vocab_size(&self) -> usize {
        self.idf.len()
    }

    /// Number of documents used to build the table.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }
}

/// Builds the TF-IDF weight entries of a token bag (term frequency × IDF,
/// weight 1.0 per token when no table is supplied), **sorted by token text**
/// with one entry per distinct token.
///
/// Text order makes every downstream float accumulation deterministic: the
/// prepared kernels iterate id-keyed entries in the same text order, so the
/// two paths sum identical sequences and agree bitwise.
pub(crate) fn weight_entries<'a>(
    tokens: &'a [String],
    idf: Option<&IdfTable>,
) -> Vec<(&'a str, f64)> {
    let mut refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
    refs.sort_unstable();
    let mut out = Vec::with_capacity(refs.len());
    let mut i = 0;
    while i < refs.len() {
        let t = refs[i];
        let mut j = i + 1;
        while j < refs.len() && refs[j] == t {
            j += 1;
        }
        let iw = idf.map_or(1.0, |table| table.weight(t));
        out.push((t, (j - i) as f64 * iw));
        i = j;
    }
    out
}

/// Euclidean norm of a weight-entry vector, accumulated in entry order.
pub(crate) fn norm_entries(v: &[(&str, f64)]) -> f64 {
    v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
}

/// TF-IDF weighted cosine similarity between two token bags.
///
/// Both bags empty ⇒ 1.0; exactly one empty ⇒ 0.0. Without an [`IdfTable`]
/// this degenerates to plain term-frequency cosine. The dot product is a
/// sorted two-pointer merge, so the accumulation order is deterministic.
pub fn tfidf_cosine(a: &[String], b: &[String], idf: Option<&IdfTable>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let va = weight_entries(a, idf);
    let vb = weight_entries(b, idf);
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < va.len() && j < vb.len() {
        match va[i].0.cmp(vb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += va[i].1 * vb[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    let denom = norm_entries(&va) * norm_entries(&vb);
    if denom == 0.0 {
        return 0.0;
    }
    // Guard against floating-point drift pushing identical vectors past 1.
    (dot / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    fn products_idf() -> IdfTable {
        IdfTable::build(
            [
                "apple ipod nano 16gb silver",
                "apple ipod touch 32gb",
                "apple macbook pro",
                "sony walkman nwz",
                "sony bravia tv",
            ],
            TokenScheme::Whitespace,
        )
    }

    #[test]
    fn idf_weights_rarer_tokens_higher() {
        let idf = products_idf();
        // "apple" appears in 3 of 5 docs, "walkman" in 1.
        assert!(idf.weight("walkman") > idf.weight("apple"));
    }

    #[test]
    fn oov_token_gets_max_weight() {
        let idf = products_idf();
        assert!(idf.weight("zzzunknown") >= idf.weight("walkman"));
    }

    #[test]
    fn identical_bags_score_one() {
        let idf = products_idf();
        let a = toks(&["apple", "ipod", "nano"]);
        assert!((tfidf_cosine(&a, &a, Some(&idf)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_bags_score_zero() {
        let idf = products_idf();
        let a = toks(&["apple"]);
        let b = toks(&["sony"]);
        assert_eq!(tfidf_cosine(&a, &b, Some(&idf)), 0.0);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(tfidf_cosine(&[], &[], None), 1.0);
        assert_eq!(tfidf_cosine(&toks(&["a"]), &[], None), 0.0);
    }

    #[test]
    fn shared_rare_token_beats_shared_common_token() {
        let idf = products_idf();
        // Pairs share exactly one token and differ in one; the pair sharing
        // the *rare* token must score higher.
        let common = tfidf_cosine(&toks(&["apple", "x1"]), &toks(&["apple", "x2"]), Some(&idf));
        let rare = tfidf_cosine(
            &toks(&["walkman", "x1"]),
            &toks(&["walkman", "x2"]),
            Some(&idf),
        );
        assert!(
            rare > common,
            "rare-token pair {rare} should beat common-token pair {common}"
        );
    }

    #[test]
    fn term_frequency_counts() {
        // Without idf, repeated tokens raise tf weight.
        let a = toks(&["x", "x", "y"]);
        let b = toks(&["x"]);
        let s = tfidf_cosine(&a, &b, None);
        // dot = 2, |a| = sqrt(4+1), |b| = 1 → 2/sqrt(5)
        assert!((s - 2.0 / 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vocab_and_docs_counters() {
        let idf = products_idf();
        assert_eq!(idf.n_docs(), 5);
        assert!(idf.vocab_size() >= 10);
    }

    #[test]
    fn empty_corpus_table_usable() {
        let idf = IdfTable::build(std::iter::empty(), TokenScheme::Whitespace);
        assert_eq!(idf.n_docs(), 0);
        // weight falls back to ln(1)+1 = 1
        assert!((idf.weight("anything") - 1.0).abs() < 1e-12);
    }
}
