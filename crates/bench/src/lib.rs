//! # em-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§7). Each `exp_*` binary reproduces one artifact;
//! this library holds the shared workload builders.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_table2` | Table 2 — dataset statistics |
//! | `exp_table3` | Table 3 — feature computation costs |
//! | `exp_fig3a`  | Figure 3A/3B — engines vs #rules |
//! | `exp_fig3c`  | Figure 3C — orderings vs #rules |
//! | `exp_fig5a`  | Figure 5A — cost model predicted vs actual |
//! | `exp_fig5b`  | Figure 5B — runtime vs #candidate pairs |
//! | `exp_fig5c`  | Figure 5C — incremental add-rule |
//! | `exp_fig6`   | Figure 6 — per-edit incremental latency |
//! | `exp_memory` | §7.4 — materialization memory |
//!
//! Experiments default to `SCALE=0.1` of the paper's Table 2 sizes so the
//! whole suite completes in minutes; set the `SCALE` env var (e.g.
//! `SCALE=1.0`) for full-size runs. Seeds are fixed: every number printed
//! is reproducible.

use em_blocking::{Blocker, OverlapBlocker};
use em_core::{EvalContext, FeatureId, MatchingFunction, Rule};
use em_datagen::{Dataset, Domain};
use em_rulegen::{random_rules, ExtractConfig, ForestConfig, RandomRuleConfig};
use em_similarity::{Measure, TokenScheme};
use em_types::{CandidateSet, LabeledPair};
use std::time::{Duration, Instant};

/// Scale factor for dataset sizes, from the `SCALE` env var (default 0.1).
pub fn scale() -> f64 {
    std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

/// Seed for all experiment workloads.
pub const SEED: u64 = 0xEDB7_2017;

/// A fully prepared experiment workload: dataset, candidates, features,
/// labels, and a pool of learned + random rules to draw from.
pub struct Workload {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Evaluation context with the feature menu interned.
    pub ctx: EvalContext,
    /// Candidate pairs from the overlap blocker.
    pub cands: CandidateSet,
    /// The extended feature universe (Table 3 menu + extras).
    pub features: Vec<FeatureId>,
    /// Ground-truth labels for the candidates.
    pub labeled: Vec<LabeledPair>,
    /// The rule pool (forest-extracted first, random fill after).
    pub rule_pool: Vec<Rule>,
}

impl Workload {
    /// Builds the products workload (the paper's primary dataset) with a
    /// rule pool of `pool_size` rules.
    pub fn products(scale: f64, pool_size: usize) -> Self {
        Self::for_domain(Domain::Products, scale, pool_size)
    }

    /// Builds a workload for any domain.
    pub fn for_domain(domain: Domain, scale: f64, pool_size: usize) -> Self {
        let dataset = domain.generate(SEED, scale);
        let mut ctx = EvalContext::from_tables(dataset.table_a.clone(), dataset.table_b.clone());
        let features = feature_menu_extended(&mut ctx, domain);
        // Overlap ≥ 2 keeps the candidate-to-cross-product ratio in the
        // same regime as the paper's Table 2 (≈ 0.5 % for products).
        let cands = OverlapBlocker::new(domain.title_attr(), TokenScheme::Whitespace, 2)
            .block(&dataset.table_a, &dataset.table_b)
            .expect("blocking attribute exists");
        let labeled = dataset.label_candidates(&cands);

        // Rule pool: forest-extracted rules (the paper's 255 products rules
        // came from a random forest), topped up with seeded random rules
        // over the same menu if the forest yields fewer than `pool_size`.
        let mut rule_pool = em_rulegen::learn_rules(
            &ctx,
            &cands,
            &labeled,
            &features,
            &ForestConfig {
                n_trees: 128,
                seed: SEED,
                ..Default::default()
            },
            &ExtractConfig {
                min_purity: 0.85,
                min_support: 2,
                max_rules: pool_size,
            },
        );
        if rule_pool.len() < pool_size {
            let filler = random_rules(
                &features,
                &RandomRuleConfig {
                    n_rules: pool_size - rule_pool.len(),
                    ..Default::default()
                },
                SEED ^ 0xF111,
            );
            rule_pool.extend(filler);
        }

        Workload {
            dataset,
            ctx,
            cands,
            features,
            labeled,
            rule_pool,
        }
    }

    /// A matching function over the first `n` rules of a seeded shuffle of
    /// the pool — the paper's "randomly selected k rules" protocol.
    pub fn function_with_rules(&self, n: usize, seed: u64) -> MatchingFunction {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..self.rule_pool.len()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut func = MatchingFunction::new();
        for &i in order.iter().take(n) {
            func.add_rule(self.rule_pool[i].clone())
                .expect("pool rules are non-empty");
        }
        func
    }
}

/// Interns the Table 3 feature menu for a domain: the full cross of
/// measures over the domain's two most informative attributes.
pub fn feature_menu(ctx: &mut EvalContext, domain: Domain) -> Vec<FeatureId> {
    // (measure, attr_a, attr_b) triples mirroring Table 3's structure:
    // cheap equality/edit measures on the code-like attribute, token and
    // corpus measures on the title, plus cross-attribute features.
    let (title, code) = (domain.title_attr(), domain.code_attr());
    let ws = TokenScheme::Whitespace;
    let menu: Vec<(Measure, &str, &str)> = vec![
        (Measure::Exact, code, code),
        (Measure::Jaro, code, code),
        (Measure::JaroWinkler, code, code),
        (Measure::Levenshtein, code, code),
        (Measure::Cosine(ws), code, title),
        (Measure::Trigram, code, code),
        (Measure::Jaccard(TokenScheme::QGram(3)), code, title),
        (Measure::Soundex, code, code),
        (Measure::Jaccard(ws), title, title),
        (Measure::TfIdf(ws), code, title),
        (Measure::TfIdf(ws), title, title),
        (Measure::soft_tfidf(ws), code, title),
        (Measure::soft_tfidf(ws), title, title),
    ];
    menu.into_iter()
        .map(|(m, a, b)| {
            ctx.feature(m, a, b)
                .expect("menu attributes exist in the domain schema")
        })
        .collect()
}

/// The *extended* feature universe: the Table 3 menu plus additional
/// measures over the title/code attributes and exact/edit measures over
/// every remaining attribute — mirroring the paper's products setup where
/// the analyst chooses from 33 total features but the final rule set only
/// uses 32 of them. "Full precomputation" (FPR) precomputes this whole
/// universe; dynamic memoing only ever touches what rules reference.
pub fn feature_menu_extended(ctx: &mut EvalContext, domain: Domain) -> Vec<FeatureId> {
    let mut menu = feature_menu(ctx, domain);
    let (title, code) = (domain.title_attr(), domain.code_attr());
    let ws = TokenScheme::Whitespace;

    let extras: Vec<(Measure, &str, &str)> = vec![
        (Measure::Levenshtein, title, title),
        (Measure::JaroWinkler, title, title),
        (Measure::Trigram, title, title),
        (Measure::Dice(ws), title, title),
        (Measure::Overlap(ws), title, title),
        (Measure::MongeElkan(ws), title, title),
        (Measure::Jaccard(TokenScheme::Alnum), title, title),
        (Measure::Cosine(TokenScheme::QGram(3)), title, title),
        (Measure::Jaccard(TokenScheme::QGram(3)), code, code),
        (Measure::Cosine(ws), code, code),
        (Measure::soft_tfidf(ws), code, code),
    ];
    for (m, a, b) in extras {
        menu.push(ctx.feature(m, a, b).expect("attributes exist"));
    }

    // Exact + normalized-edit measures on every remaining attribute
    // (brand/category/price for products, cuisine/city for restaurants, …).
    let other_attrs: Vec<String> = ctx
        .table_a()
        .schema()
        .names()
        .iter()
        .filter(|n| n.as_str() != title && n.as_str() != code)
        .cloned()
        .collect();
    for attr in other_attrs {
        menu.push(
            ctx.feature(Measure::Exact, &attr, &attr)
                .expect("attr exists"),
        );
        menu.push(
            ctx.feature(Measure::Levenshtein, &attr, &attr)
                .expect("attr exists"),
        );
    }

    // Interning dedupes, but assert the universe is duplicate-free anyway.
    let distinct: std::collections::HashSet<_> = menu.iter().collect();
    debug_assert_eq!(distinct.len(), menu.len());
    menu
}

/// FNV-1a of `func`'s rule text, as 16 hex digits: names the program a
/// `BENCH_*.json` row measured.
pub fn program_hash(func: &MatchingFunction, ctx: &EvalContext) -> String {
    let text = em_core::parse::function_to_text(func, ctx);
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Times `f` over `reps` runs and returns the mean duration.
pub fn time_mean<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(reps > 0);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed() / reps as u32
}

/// Formats a duration as milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown table header (with separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_workload_builds() {
        let w = Workload::products(0.01, 20);
        assert!(
            w.features.len() >= 25,
            "extended menu: {}",
            w.features.len()
        );
        assert_eq!(w.rule_pool.len(), 20);
        assert!(!w.cands.is_empty());
        assert_eq!(w.labeled.len(), w.cands.len());
    }

    #[test]
    fn function_selection_is_seeded() {
        let w = Workload::products(0.01, 20);
        let f1 = w.function_with_rules(5, 1);
        let f2 = w.function_with_rules(5, 1);
        assert_eq!(f1.n_rules(), 5);
        assert_eq!(f1.n_predicates(), f2.n_predicates());
    }

    #[test]
    fn all_domains_build_menus() {
        for d in Domain::all() {
            let ds = d.generate(1, 0.005);
            let mut ctx = EvalContext::from_tables(ds.table_a, ds.table_b);
            let menu = feature_menu(&mut ctx, d);
            assert_eq!(menu.len(), 13, "{}", d.name());
            let mut ctx2 = EvalContext::from_tables(ctx.table_a().clone(), ctx.table_b().clone());
            let ext = feature_menu_extended(&mut ctx2, d);
            assert!(ext.len() > 13, "{} extended = {}", d.name(), ext.len());
        }
    }
}
