//! Rule extraction: positive root-to-leaf paths of a forest become CNF
//! matching rules.
//!
//! Each path is a conjunction of `feature < t` / `feature ≥ t` conditions —
//! exactly the shape of the paper's Figure 4 rules (note its mix of `≥` and
//! `<` predicates). Conditions on the same feature along one path are
//! merged (`f ≥ 0.3 ∧ f ≥ 0.7` → `f ≥ 0.7`).

use crate::forest::RandomForest;
use crate::tree::Node;
use em_core::{CmpOp, FeatureId, Predicate, Rule};
use std::collections::{BTreeMap, HashMap};

/// Extraction filters.
#[derive(Debug, Clone, Copy)]
pub struct ExtractConfig {
    /// Keep only leaves whose majority fraction is at least this.
    pub min_purity: f64,
    /// Keep only leaves with at least this many training samples.
    pub min_support: usize,
    /// Cap on the number of rules returned (0 = unlimited). Rules are
    /// ranked by leaf support, so the cap keeps the best-attested rules.
    pub max_rules: usize,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            min_purity: 0.9,
            min_support: 2,
            max_rules: 0,
        }
    }
}

/// One path condition: the tightest bounds seen for a feature.
#[derive(Debug, Clone, Copy, Default)]
struct Bounds {
    /// Tightest `≥` lower bound.
    lo: Option<f64>,
    /// Tightest `<` upper bound.
    hi: Option<f64>,
}

fn walk(
    node: &Node,
    features: &[FeatureId],
    path: &mut Vec<(usize, bool, f64)>, // (column, is_ge, threshold)
    out: &mut Vec<(Rule, usize)>,
    cfg: &ExtractConfig,
) {
    match node {
        Node::Leaf {
            label,
            purity,
            support,
        } => {
            if !*label || *purity < cfg.min_purity || *support < cfg.min_support {
                return;
            }
            // Merge per-feature bounds along the path.
            let mut bounds: HashMap<usize, Bounds> = HashMap::new();
            for &(col, is_ge, t) in path.iter() {
                let b = bounds.entry(col).or_default();
                if is_ge {
                    b.lo = Some(b.lo.map_or(t, |old: f64| old.max(t)));
                } else {
                    b.hi = Some(b.hi.map_or(t, |old: f64| old.min(t)));
                }
            }
            let mut cols: Vec<usize> = bounds.keys().copied().collect();
            cols.sort_unstable();
            let mut preds = Vec::new();
            for col in cols {
                let b = bounds[&col];
                if let Some(lo) = b.lo {
                    preds.push(Predicate::new(features[col], CmpOp::Ge, lo));
                }
                if let Some(hi) = b.hi {
                    preds.push(Predicate::new(features[col], CmpOp::Lt, hi));
                }
            }
            if !preds.is_empty() {
                out.push((Rule::with(preds), *support));
            }
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            path.push((*feature, false, *threshold));
            walk(left, features, path, out, cfg);
            path.pop();
            path.push((*feature, true, *threshold));
            walk(right, features, path, out, cfg);
            path.pop();
        }
    }
}

/// Extracts the positive rules of every tree in `forest`, deduplicated by
/// predicate signature and ordered by descending leaf support, then by
/// ascending length, then by signature — a total order, so the output (and
/// any `max_rules` cut of it) is the same in every process.
pub fn extract_rules(
    forest: &RandomForest,
    features: &[FeatureId],
    cfg: &ExtractConfig,
) -> Vec<Rule> {
    let mut raw: Vec<(Rule, usize)> = Vec::new();
    for tree in forest.trees() {
        let mut path = Vec::new();
        walk(tree.root(), features, &mut path, &mut raw, cfg);
    }

    // Dedup by predicate signature, keeping the max support. Survivors come
    // out in signature order, which the stable sort keeps among ties.
    let mut best: BTreeMap<String, (Rule, usize)> = BTreeMap::new();
    for (rule, support) in raw {
        let sig = rule
            .predicates()
            .iter()
            .map(|p| format!("{:?}|{:?}|{:.6}", p.feature, p.op, p.threshold))
            .collect::<Vec<_>>()
            .join("&");
        match best.get_mut(&sig) {
            Some((_, s)) if *s >= support => {}
            _ => {
                best.insert(sig, (rule, support));
            }
        }
    }

    let mut rules: Vec<(Rule, usize)> = best.into_values().collect();
    rules.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.len().cmp(&b.0.len())));
    if cfg.max_rules > 0 {
        rules.truncate(cfg.max_rules);
    }
    rules.into_iter().map(|(r, _)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use crate::fvector::FeatureMatrix;
    use crate::tree::TreeConfig;

    /// Positive iff x0 ≥ 0.5 AND x1 < 0.5 — a single conjunctive concept.
    fn concept_matrix() -> FeatureMatrix {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (x0, x1) = (i as f64 / 20.0, j as f64 / 20.0);
                rows.push(vec![x0, x1]);
                labels.push(x0 >= 0.5 && x1 < 0.5);
            }
        }
        FeatureMatrix::from_raw(rows, labels)
    }

    fn feature_ids() -> Vec<FeatureId> {
        vec![FeatureId(0), FeatureId(1)]
    }

    #[test]
    fn extracted_rules_capture_the_concept() {
        let m = concept_matrix();
        let forest = RandomForest::train(
            &m,
            &ForestConfig {
                n_trees: 4,
                features_per_split: 2, // no subsampling: exact concept
                seed: 5,
                tree: TreeConfig::default(),
            },
        );
        let rules = extract_rules(&forest, &feature_ids(), &ExtractConfig::default());
        assert!(!rules.is_empty());

        // The DNF of extracted rules must agree with the concept on a grid.
        let matches = |x0: f64, x1: f64| {
            rules.iter().any(|r| {
                r.predicates().iter().all(|p| {
                    let v = if p.feature == FeatureId(0) { x0 } else { x1 };
                    match p.op {
                        CmpOp::Ge => v >= p.threshold,
                        CmpOp::Gt => v > p.threshold,
                        CmpOp::Le => v <= p.threshold,
                        CmpOp::Lt => v < p.threshold,
                    }
                })
            })
        };
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..20 {
            for j in 0..20 {
                let (x0, x1) = (i as f64 / 20.0, j as f64 / 20.0);
                total += 1;
                if matches(x0, x1) == (x0 >= 0.5 && x1 < 0.5) {
                    agree += 1;
                }
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.95,
            "rules agree on {agree}/{total} grid points"
        );
    }

    #[test]
    fn rules_mix_ge_and_lt_operators() {
        let m = concept_matrix();
        let forest = RandomForest::train(
            &m,
            &ForestConfig {
                n_trees: 4,
                features_per_split: 2,
                seed: 5,
                tree: TreeConfig::default(),
            },
        );
        let rules = extract_rules(&forest, &feature_ids(), &ExtractConfig::default());
        let ops: std::collections::HashSet<_> = rules
            .iter()
            .flat_map(|r| r.predicates().iter().map(|p| p.op))
            .collect();
        assert!(ops.contains(&CmpOp::Ge), "expected ≥ predicates");
        assert!(
            ops.contains(&CmpOp::Lt),
            "expected < predicates (Figure 4 shape)"
        );
    }

    #[test]
    fn same_feature_bounds_merged() {
        let m = concept_matrix();
        let forest = RandomForest::train(
            &m,
            &ForestConfig {
                n_trees: 8,
                features_per_split: 1, // heavy subsampling → repeated features on paths
                seed: 9,
                tree: TreeConfig {
                    max_depth: 6,
                    ..Default::default()
                },
            },
        );
        let rules = extract_rules(&forest, &feature_ids(), &ExtractConfig::default());
        for r in &rules {
            // Per feature at most one ≥ and one < predicate after merging.
            let mut seen = std::collections::HashMap::new();
            for p in r.predicates() {
                let entry = seen
                    .entry((p.feature, matches!(p.op, CmpOp::Ge)))
                    .or_insert(0);
                *entry += 1;
                assert_eq!(*entry, 1, "unmerged duplicate bound in {r:?}");
            }
        }
    }

    #[test]
    fn extraction_order_is_canonical() {
        // A noisy 4-feature matrix on a coarse grid: many leaves, many
        // rules tied on (support, length).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mut rows, mut labels) = (Vec::new(), Vec::new());
        for _ in 0..600 {
            let x: Vec<f64> = (0..4)
                .map(|_| f64::from(rng.gen_range(0..10u8)) / 10.0)
                .collect();
            labels.push((x[0] + x[1] > x[2] + 0.4) != rng.gen_bool(0.15));
            rows.push(x);
        }
        let forest = RandomForest::train(
            &FeatureMatrix::from_raw(rows, labels),
            &ForestConfig {
                n_trees: 24,
                seed: 3,
                ..Default::default()
            },
        );
        let ids: Vec<FeatureId> = (0..4).map(FeatureId).collect();
        let cfg = ExtractConfig {
            min_purity: 0.6,
            min_support: 1,
            max_rules: 0,
        };
        let render = || -> Vec<String> {
            extract_rules(&forest, &ids, &cfg)
                .iter()
                .map(|r| format!("{:?}", r.predicates()))
                .collect()
        };
        let first = render();
        assert!(first.len() > 100, "{} rules", first.len());
        for _ in 0..16 {
            assert_eq!(render(), first, "extraction order differs between calls");
        }
    }

    #[test]
    fn max_rules_caps_output() {
        let m = concept_matrix();
        let forest = RandomForest::train(&m, &ForestConfig::default());
        let all = extract_rules(&forest, &feature_ids(), &ExtractConfig::default());
        let capped = extract_rules(
            &forest,
            &feature_ids(),
            &ExtractConfig {
                max_rules: 2,
                ..Default::default()
            },
        );
        assert!(capped.len() <= 2);
        assert!(all.len() >= capped.len());
    }

    #[test]
    fn purity_filter_drops_noisy_leaves() {
        let m = concept_matrix();
        let forest = RandomForest::train(&m, &ForestConfig::default());
        let strict = extract_rules(
            &forest,
            &feature_ids(),
            &ExtractConfig {
                min_purity: 1.0,
                min_support: 10,
                max_rules: 0,
            },
        );
        let loose = extract_rules(
            &forest,
            &feature_ids(),
            &ExtractConfig {
                min_purity: 0.5,
                min_support: 1,
                max_rules: 0,
            },
        );
        assert!(strict.len() <= loose.len());
    }
}
