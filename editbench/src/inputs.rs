//! Generated inputs: the dataset, the canonical rule pool, the seeded rule
//! program and the seeded op script. The program under test receives only
//! what these functions produce.

use em_blocking::{Blocker, OverlapBlocker};
use em_core::{CmpOp, EvalContext, FeatureId, MatchingFunction, Rule};
use em_datagen::Domain;
use em_rulegen::{extract_rules, ExtractConfig, FeatureMatrix, ForestConfig, RandomForest};
use em_similarity::TokenScheme;
use em_types::{CandidateSet, LabeledPair, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The dataset and forest are fixed, so every seed debugs the same data;
/// the workload seed picks the rule program and the op script.
const DATA_SEED: u64 = em_bench::SEED;

/// A generated products dataset with its blocked candidates, labels and
/// the untruncated rule pool a random forest yields on it.
pub struct Inputs {
    pub table_a: Table,
    pub table_b: Table,
    pub cands: CandidateSet,
    pub labels: Vec<LabeledPair>,
    /// Context with the whole feature menu interned.
    pub ctx: EvalContext,
    pub menu: Vec<FeatureId>,
    /// Every positive forest path as rule text, sorted and deduplicated:
    /// the extraction is taken whole because its own truncation breaks
    /// support ties in hash-map order.
    pub pool: Vec<String>,
    /// Every menu feature's value for every candidate pair (the forest's
    /// training matrix; row `i` is candidate `i`).
    pub matrix: FeatureMatrix,
}

impl Inputs {
    /// Products at `scale`, blocked on title-token overlap ≥ 2 (the
    /// experiments' and the demo server's pipeline), with a forest of
    /// `n_trees` trees.
    pub fn products(scale: f64, n_trees: usize) -> Inputs {
        let domain = Domain::Products;
        let ds = domain.generate(DATA_SEED, scale);
        let cands = OverlapBlocker::new(domain.title_attr(), TokenScheme::Whitespace, 2)
            .block(&ds.table_a, &ds.table_b)
            .expect("products has a title attribute");
        let labels = ds.label_candidates(&cands);
        let mut ctx = EvalContext::from_tables(ds.table_a.clone(), ds.table_b.clone());
        let menu = em_bench::feature_menu_extended(&mut ctx, domain);
        let matrix = FeatureMatrix::compute(&ctx, &cands, &labels, &menu);
        let forest = RandomForest::train(
            &matrix,
            &ForestConfig {
                n_trees,
                seed: DATA_SEED,
                ..Default::default()
            },
        );
        let extract = ExtractConfig {
            min_purity: 0.85,
            min_support: 2,
            max_rules: 0,
        };
        let mut pool: Vec<String> = extract_rules(&forest, &menu, &extract)
            .iter()
            .map(|r| rule_text(&ctx, r))
            .collect();
        pool.sort();
        pool.dedup();
        Inputs {
            table_a: ds.table_a,
            table_b: ds.table_b,
            cands,
            labels,
            ctx,
            menu,
            pool,
            matrix,
        }
    }

    /// Parses rule text against the menu context (no features are added:
    /// every pool rule uses menu features).
    pub fn parse(&self, text: &str) -> Rule {
        let mut ctx = self.ctx.clone();
        em_core::parse::parse_rule(text, &mut ctx).expect("pool rule text parses")
    }
}

/// Renders a rule the way `function_to_text` renders each line.
fn rule_text(ctx: &EvalContext, rule: &Rule) -> String {
    rule.predicates()
        .iter()
        .map(|p| format!("{} {} {}", ctx.feature_name(p.feature), p.op, p.threshold))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

/// One analyst's rule program and the pool material their edits draw on.
pub struct Program {
    /// The rules to load, in load order.
    pub rules: Vec<String>,
    /// Pool rules outside the program, for "add rule" edits.
    pub spare_rules: Vec<String>,
    /// Distinct predicates of the whole pool, for "add predicate" edits.
    pub spare_preds: Vec<String>,
}

impl Program {
    /// Draws `n` pool rules with `seed` (`stream` tells analysts apart).
    pub fn select(inputs: &Inputs, n: usize, seed: u64, stream: u64) -> Program {
        assert!(
            inputs.pool.len() > n,
            "pool has {} rules, need more than {n}",
            inputs.pool.len()
        );
        let mut order: Vec<usize> = (0..inputs.pool.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(mix(seed, stream)));
        let pick = |ix: &[usize]| ix.iter().map(|&i| inputs.pool[i].clone()).collect();
        let mut spare_preds: Vec<String> = inputs
            .pool
            .iter()
            .flat_map(|r| r.split(" AND ").map(str::to_string))
            .collect();
        spare_preds.sort();
        spare_preds.dedup();
        Program {
            rules: pick(&order[..n]),
            spare_rules: pick(&order[n..]),
            spare_preds,
        }
    }

    /// The rules as one rule-language text (what `function_text` returns
    /// after a clean load).
    pub fn text(&self) -> String {
        self.rules.iter().map(|r| format!("{r}\n")).collect()
    }
}

/// The six edit kinds of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    AddPredicate,
    RemovePredicate,
    Tighten,
    Relax,
    AddRule,
    RemoveRule,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::AddPredicate,
        Kind::RemovePredicate,
        Kind::Tighten,
        Kind::Relax,
        Kind::AddRule,
        Kind::RemoveRule,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AddPredicate => "add_predicate",
            Kind::RemovePredicate => "remove_predicate",
            Kind::Tighten => "tighten",
            Kind::Relax => "relax",
            Kind::AddRule => "add_rule",
            Kind::RemoveRule => "remove_rule",
        }
    }
}

/// A try edit addressed by rule and predicate *position*. Positions are
/// resolved to ids against the live function just before the edit is
/// issued, because re-adding a rule or predicate on undo mints new ids.
#[derive(Debug, Clone)]
pub enum Edit {
    AddPredicate {
        rule: usize,
        pred: String,
    },
    RemovePredicate {
        rule: usize,
        pred: usize,
    },
    SetThreshold {
        kind: Kind,
        rule: usize,
        pred: usize,
        threshold: f64,
    },
    AddRule {
        text: String,
    },
    RemoveRule {
        rule: usize,
    },
}

impl Edit {
    pub fn kind(&self) -> Kind {
        match self {
            Edit::AddPredicate { .. } => Kind::AddPredicate,
            Edit::RemovePredicate { .. } => Kind::RemovePredicate,
            Edit::SetThreshold { kind, .. } => *kind,
            Edit::AddRule { .. } => Kind::AddRule,
            Edit::RemoveRule { .. } => Kind::RemoveRule,
        }
    }

    /// The command line in the shared REPL/wire grammar.
    pub fn line(&self, func: &MatchingFunction) -> String {
        let rule = |pos: usize| &func.rules()[pos];
        match self {
            Edit::AddPredicate { rule: r, pred } => format!("addpred {} {pred}", rule(*r).id),
            Edit::RemovePredicate { rule: r, pred } => {
                format!("rmpred {}", rule(*r).preds[*pred].id)
            }
            Edit::SetThreshold {
                rule: r,
                pred,
                threshold,
                ..
            } => format!("set {} {threshold}", rule(*r).preds[*pred].id),
            Edit::AddRule { text } => format!("add {text}"),
            Edit::RemoveRule { rule: r } => format!("rm {}", rule(*r).id),
        }
    }
}

/// Loosening edits that let a rule match this share of all pairs more
/// count as ballooning: undoing one re-examines the grown M(r) with every
/// rule, which costs orders of magnitude more than any other op.
const BALLOON_SHARE: f64 = 0.025;

/// The candidate edits of one loosening kind, split by whether they
/// balloon M(r). Draws take the heavy stratum in the program's own share,
/// spread evenly (systematic sampling from a seeded phase), so each run
/// carries its program's natural rate of all-rules undo cascades rather
/// than a Poisson draw of them.
struct Strata {
    light: Vec<Edit>,
    heavy: Vec<Edit>,
    share: f64,
    phase: f64,
    drawn: u64,
    heavy_drawn: u64,
}

impl Strata {
    fn new(candidates: Grown, balloon: usize, rng: &mut StdRng) -> Strata {
        let total = candidates.len();
        let (heavy, light): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .partition(|(_, grown)| *grown >= balloon);
        Strata {
            share: heavy.len() as f64 / total.max(1) as f64,
            light: light.into_iter().map(|(e, _)| e).collect(),
            heavy: heavy.into_iter().map(|(e, _)| e).collect(),
            phase: rng.gen::<f64>(),
            drawn: 0,
            heavy_drawn: 0,
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> Edit {
        self.drawn += 1;
        let due = (self.drawn as f64 * self.share + self.phase).floor() as u64;
        let heavy = (due > self.heavy_drawn && !self.heavy.is_empty()) || self.light.is_empty();
        let from = if heavy {
            self.heavy_drawn += 1;
            &self.heavy
        } else {
            &self.light
        };
        from[rng.gen_range(0..from.len())].clone()
    }
}

/// Candidate edits, each with how many more pairs it lets its rule match.
type Grown = Vec<(Edit, usize)>;

/// Remove-predicate and relax candidates with their growth of M(r), from
/// the feature matrix (the rule alone, ignoring the others).
fn loosening_candidates(inputs: &Inputs, rules: &[Rule]) -> (Grown, Grown) {
    let col: std::collections::HashMap<FeatureId, usize> = inputs
        .menu
        .iter()
        .enumerate()
        .map(|(j, &f)| (f, j))
        .collect();
    let mut remove = Vec::new();
    let mut relax = Vec::new();
    for (r, rule) in rules.iter().enumerate() {
        let preds = rule.predicates();
        // Rows failing exactly one predicate, grouped by that predicate:
        // only those can join M(r) when one predicate loosens.
        let mut single: Vec<Vec<f64>> = vec![Vec::new(); preds.len()];
        for i in 0..inputs.matrix.len() {
            let row = inputs.matrix.row(i);
            let mut failing = preds
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.eval(row[col[&p.feature]]));
            if let (Some((j, p)), None) = (failing.next(), failing.next()) {
                single[j].push(row[col[&p.feature]]);
            }
        }
        for (j, p) in preds.iter().enumerate() {
            if preds.len() > 1 {
                remove.push((Edit::RemovePredicate { rule: r, pred: j }, single[j].len()));
            }
            for step in 1..=4 {
                if let Some(threshold) = moved(p, Kind::Relax, step) {
                    let mut relaxed = *p;
                    relaxed.threshold = threshold;
                    let grown = single[j].iter().filter(|&&v| relaxed.eval(v)).count();
                    relax.push((
                        Edit::SetThreshold {
                            kind: Kind::Relax,
                            rule: r,
                            pred: j,
                            threshold,
                        },
                        grown,
                    ));
                }
            }
        }
    }
    (remove, relax)
}

/// `p`'s threshold moved `step` × 0.05 stricter (tighten) or looser
/// (relax), kept in [0, 1]; `None` when clamping leaves it unchanged.
fn moved(p: &em_core::Predicate, kind: Kind, step: u32) -> Option<f64> {
    let stricter_up = matches!(p.op, CmpOp::Ge | CmpOp::Gt);
    let up = stricter_up == (kind == Kind::Tighten);
    let delta = 0.05 * f64::from(step);
    let t = if up {
        p.threshold + delta
    } else {
        p.threshold - delta
    };
    let threshold = (t.clamp(0.0, 1.0) * 1e4).round() / 1e4;
    (threshold != p.threshold).then_some(threshold)
}

/// An endless seeded stream of try edits over a fixed rule program. Each
/// block of six holds every kind once, in a seeded order, so every run
/// carries the same mix.
pub struct Script {
    rng: StdRng,
    rules: Vec<Rule>,
    spare_rules: Vec<String>,
    spare_preds: Vec<String>,
    remove: Strata,
    relax: Strata,
    block: Vec<Kind>,
}

impl Script {
    pub fn new(inputs: &Inputs, program: &Program, seed: u64, stream: u64) -> Script {
        let mut rng = StdRng::seed_from_u64(mix(seed, stream ^ 0x5C41_7000));
        let rules: Vec<Rule> = program.rules.iter().map(|t| inputs.parse(t)).collect();
        let balloon = (inputs.cands.len() as f64 * BALLOON_SHARE).ceil() as usize;
        let (remove, relax) = loosening_candidates(inputs, &rules);
        Script {
            remove: Strata::new(remove, balloon, &mut rng),
            relax: Strata::new(relax, balloon, &mut rng),
            rng,
            rules,
            spare_rules: program.spare_rules.clone(),
            spare_preds: program.spare_preds.clone(),
            block: Vec::new(),
        }
    }

    /// The share of remove-predicate and relax candidates that balloon.
    pub fn balloon_shares(&self) -> (f64, f64) {
        (self.remove.share, self.relax.share)
    }

    /// A uniform pair index for `explain` reads.
    pub fn pair(&mut self, n_pairs: usize) -> usize {
        self.rng.gen_range(0..n_pairs)
    }

    pub fn next_edit(&mut self) -> Edit {
        if self.block.is_empty() {
            self.block = Kind::ALL.to_vec();
            self.block.shuffle(&mut self.rng);
        }
        let kind = self.block.pop().expect("refilled above");
        let n = self.rules.len();
        match kind {
            Kind::AddPredicate => Edit::AddPredicate {
                rule: self.rng.gen_range(0..n),
                pred: self.spare_preds[self.rng.gen_range(0..self.spare_preds.len())].clone(),
            },
            Kind::RemovePredicate => self.remove.draw(&mut self.rng),
            Kind::Relax => self.relax.draw(&mut self.rng),
            Kind::Tighten => loop {
                let rule = self.rng.gen_range(0..n);
                let pred = self.rng.gen_range(0..self.rules[rule].len());
                let step = self.rng.gen_range(1..=4);
                if let Some(threshold) = moved(&self.rules[rule].predicates()[pred], kind, step) {
                    break Edit::SetThreshold {
                        kind,
                        rule,
                        pred,
                        threshold,
                    };
                }
            },
            Kind::AddRule => Edit::AddRule {
                text: self.spare_rules[self.rng.gen_range(0..self.spare_rules.len())].clone(),
            },
            Kind::RemoveRule => Edit::RemoveRule {
                rule: self.rng.gen_range(0..n),
            },
        }
    }
}
