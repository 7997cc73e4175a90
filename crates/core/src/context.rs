//! Evaluation context: the two tables, the feature registry, and prepared
//! corpus statistics.
//!
//! The context is what turns a `(FeatureId, PairIdx)` into a similarity
//! value. It owns the [`FeatureRegistry`] and lazily builds one
//! [`IdfTable`] per `(token scheme, attr_a, attr_b)` combination — the
//! corpus for a feature over `(A.x, B.y)` is all non-missing values of
//! `A.x` plus all non-missing values of `B.y`.
//!
//! Each feature's prepared columns are resolved once, when the feature is
//! interned (and again when its token scheme's arena grows), so
//! [`EvalContext::compute`] is an index into that table plus the kernel.

use crate::feature::{FeatureDef, FeatureId, FeatureRegistry};
use em_similarity::{
    build_base_column, build_token_column, BaseColumn, IdfTable, Measure, PreparedIdf,
    PreparedView, SimScratch, TokenChars, TokenScheme,
};
use em_types::{AttrId, PairIdx, Table, TokenArena, TokenColumn};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Key of a prepared IDF table.
type CorpusKey = (TokenScheme, AttrId, AttrId);

thread_local! {
    /// Per-thread kernel scratch for the prepared scalar path: each worker
    /// reuses one set of buffers across every `compute` call, so the
    /// steady-state per-pair allocation count is zero.
    static SIM_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Interned token state for one [`TokenScheme`]: the arena shared by every
/// column of that scheme, a lexicographic rank snapshot covering all interned
/// ids, per-token normalized chars, and the token columns per attribute.
#[derive(Debug, Clone, Default)]
struct SchemeColumns {
    arena: TokenArena,
    rank: Arc<Vec<u32>>,
    token_chars: Arc<TokenChars>,
    toks_a: HashMap<AttrId, Arc<TokenColumn>>,
    toks_b: HashMap<AttrId, Arc<TokenColumn>>,
}

impl SchemeColumns {
    /// Refreshes the derived snapshots after the arena grew.
    fn refresh(&mut self) {
        self.rank = Arc::new(self.arena.text_ranks());
        let mut tc = TokenChars::clone(&self.token_chars);
        tc.extend_from(&self.arena);
        self.token_chars = Arc::new(tc);
    }
}

/// Columnar state built once per attribute (and once per `(scheme,
/// attribute)`) at feature-registration time and reused by every evaluation.
#[derive(Debug, Clone, Default)]
struct PreparedState {
    /// Arena of trimmed attribute values shared by all base columns, so
    /// Exact equality is id equality across tables.
    value_arena: TokenArena,
    cols_a: HashMap<AttrId, Arc<BaseColumn>>,
    cols_b: HashMap<AttrId, Arc<BaseColumn>>,
    schemes: HashMap<TokenScheme, SchemeColumns>,
    pidf: HashMap<CorpusKey, Arc<PreparedIdf>>,
}

/// One feature's kernel inputs, resolved from [`PreparedState`] so that
/// evaluating a pair does no lookups: the measure plus every column its
/// [`PreparedView`] borrows.
#[derive(Debug, Clone)]
struct ResolvedFeature {
    measure: Measure,
    base_a: Arc<BaseColumn>,
    base_b: Arc<BaseColumn>,
    tok_a: Option<Arc<TokenColumn>>,
    tok_b: Option<Arc<TokenColumn>>,
    rank: Option<Arc<Vec<u32>>>,
    token_chars: Option<Arc<TokenChars>>,
    idf: Option<Arc<PreparedIdf>>,
}

impl ResolvedFeature {
    fn view(&self) -> PreparedView<'_> {
        PreparedView {
            base_a: &self.base_a,
            base_b: &self.base_b,
            tok_a: self.tok_a.as_deref(),
            tok_b: self.tok_b.as_deref(),
            rank: self.rank.as_deref().map(Vec::as_slice),
            token_chars: self.token_chars.as_deref(),
            idf: self.idf.as_deref(),
        }
    }
}

/// Everything needed to compute feature values for candidate pairs.
///
/// Tables are held behind `Arc` so the context (and states derived from it)
/// can be shared with worker threads by the parallel engine.
#[derive(Debug, Clone)]
pub struct EvalContext {
    table_a: Arc<Table>,
    table_b: Arc<Table>,
    registry: FeatureRegistry,
    idf: HashMap<CorpusKey, Arc<IdfTable>>,
    prepared: PreparedState,
    /// Indexed by [`FeatureId`]: one entry per interned feature.
    resolved: Vec<ResolvedFeature>,
    /// Test-only fault injection plan (see [`crate::fault`]).
    #[cfg(feature = "fault-inject")]
    fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl EvalContext {
    /// Creates a context over two tables with an empty feature registry.
    pub fn new(table_a: Arc<Table>, table_b: Arc<Table>) -> Self {
        EvalContext {
            table_a,
            table_b,
            registry: FeatureRegistry::new(),
            idf: HashMap::new(),
            prepared: PreparedState::default(),
            resolved: Vec::new(),
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }

    /// Installs a [`crate::fault::FaultPlan`] that intercepts every feature
    /// computation (test harness only).
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_plan(&mut self, plan: Arc<crate::fault::FaultPlan>) {
        self.fault = Some(plan);
    }

    /// Convenience constructor taking owned tables.
    pub fn from_tables(table_a: Table, table_b: Table) -> Self {
        Self::new(Arc::new(table_a), Arc::new(table_b))
    }

    /// Table `A`.
    pub fn table_a(&self) -> &Table {
        &self.table_a
    }

    /// Table `B`.
    pub fn table_b(&self) -> &Table {
        &self.table_b
    }

    /// The feature registry.
    pub fn registry(&self) -> &FeatureRegistry {
        &self.registry
    }

    /// Interns a feature by measure and attribute *names*, preparing corpus
    /// statistics if the measure needs them.
    ///
    /// Returns `None` when either attribute name does not exist in the
    /// corresponding schema.
    pub fn feature(&mut self, measure: Measure, attr_a: &str, attr_b: &str) -> Option<FeatureId> {
        let a = self.table_a.schema().attr_id(attr_a)?;
        let b = self.table_b.schema().attr_id(attr_b)?;
        Some(self.feature_by_ids(measure, a, b))
    }

    /// Interns a feature by attribute ids, preparing corpus statistics if
    /// the measure needs them.
    pub fn feature_by_ids(
        &mut self,
        measure: Measure,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> FeatureId {
        let def = FeatureDef::new(measure, attr_a, attr_b);
        let id = self.registry.intern(def);
        if id.index() < self.resolved.len() {
            return id;
        }
        if let Some(scheme) = measure.corpus_scheme() {
            self.ensure_corpus(scheme, attr_a, attr_b);
        }
        self.ensure_prepared(measure, attr_a, attr_b);
        let resolved = self.resolve(&def);
        self.resolved.push(resolved);
        id
    }

    /// Builds (or reuses) the columnar state a feature's kernels run on:
    /// base columns per attribute, token columns per `(scheme, attribute)`,
    /// per-token chars and id-keyed IDF weights where the measure needs
    /// them. Idempotent; growth of a scheme arena refreshes the rank and
    /// char snapshots so ids from *all* columns stay comparable, and
    /// re-resolves the scheme's features onto the new snapshots.
    fn ensure_prepared(&mut self, measure: Measure, attr_a: AttrId, attr_b: AttrId) {
        if !self.prepared.cols_a.contains_key(&attr_a) {
            let col = build_base_column(
                self.table_a.iter().map(|r| r.value(attr_a.index())),
                &mut self.prepared.value_arena,
            );
            self.prepared.cols_a.insert(attr_a, Arc::new(col));
        }
        if !self.prepared.cols_b.contains_key(&attr_b) {
            let col = build_base_column(
                self.table_b.iter().map(|r| r.value(attr_b.index())),
                &mut self.prepared.value_arena,
            );
            self.prepared.cols_b.insert(attr_b, Arc::new(col));
        }
        let Some(scheme) = measure.token_scheme() else {
            return;
        };
        let sc = self.prepared.schemes.entry(scheme).or_default();
        let mut grew = false;
        if !sc.toks_a.contains_key(&attr_a) {
            let before = sc.arena.len();
            let col = build_token_column(
                scheme,
                self.table_a.iter().map(|r| r.value(attr_a.index())),
                &mut sc.arena,
            );
            sc.toks_a.insert(attr_a, Arc::new(col));
            grew |= sc.arena.len() != before;
        }
        if !sc.toks_b.contains_key(&attr_b) {
            let before = sc.arena.len();
            let col = build_token_column(
                scheme,
                self.table_b.iter().map(|r| r.value(attr_b.index())),
                &mut sc.arena,
            );
            sc.toks_b.insert(attr_b, Arc::new(col));
            grew |= sc.arena.len() != before;
        }
        let refreshed = grew || sc.rank.len() != sc.arena.len();
        if refreshed {
            sc.refresh();
        }
        if let Some(cscheme) = measure.corpus_scheme() {
            let key = (cscheme, attr_a, attr_b);
            if !self.prepared.pidf.contains_key(&key) {
                // `ensure_corpus` ran first, and the corpus tokenizes the
                // same two columns just interned, so every token with a
                // document-frequency entry already has an arena id.
                if let Some(idf) = self.idf.get(&key) {
                    let pidf = PreparedIdf::build(idf, &sc.arena);
                    self.prepared.pidf.insert(key, Arc::new(pidf));
                }
            }
        }
        if refreshed {
            self.reresolve_scheme(scheme);
        }
    }

    /// Looks up every column feature `def` evaluates over. Runs when the
    /// feature is interned and when its scheme's snapshots are refreshed —
    /// never per pair.
    ///
    /// # Panics
    ///
    /// Panics when a column was not prepared (`ensure_prepared` and
    /// `ensure_corpus` run first, so this is a construction bug).
    fn resolve(&self, def: &FeatureDef) -> ResolvedFeature {
        let p = &self.prepared;
        let m = def.measure;
        let sc = m.token_scheme().map(|scheme| &p.schemes[&scheme]);
        ResolvedFeature {
            measure: m,
            base_a: Arc::clone(&p.cols_a[&def.attr_a]),
            base_b: Arc::clone(&p.cols_b[&def.attr_b]),
            tok_a: sc.map(|sc| Arc::clone(&sc.toks_a[&def.attr_a])),
            tok_b: sc.map(|sc| Arc::clone(&sc.toks_b[&def.attr_b])),
            rank: sc.map(|sc| Arc::clone(&sc.rank)),
            token_chars: sc
                .filter(|_| m.needs_token_chars())
                .map(|sc| Arc::clone(&sc.token_chars)),
            idf: m
                .corpus_scheme()
                .map(|cs| Arc::clone(&p.pidf[&(cs, def.attr_a, def.attr_b)])),
        }
    }

    /// Re-resolves every interned feature over `scheme` after its rank and
    /// char snapshots were replaced.
    fn reresolve_scheme(&mut self, scheme: TokenScheme) {
        for i in 0..self.resolved.len() {
            if self.resolved[i].measure.token_scheme() == Some(scheme) {
                let def = *self.registry.def(FeatureId(i as u32));
                self.resolved[i] = self.resolve(&def);
            }
        }
    }

    /// Adopts token columns a blocker already built (see
    /// `OverlapBlocker::block_prepared`), so evaluation skips re-tokenizing
    /// the blocking attribute. No-op if this scheme already has prepared
    /// state — its arena's id space would clash with the blocker's.
    pub fn adopt_token_columns(
        &mut self,
        scheme: TokenScheme,
        attr_a: AttrId,
        attr_b: AttrId,
        arena: TokenArena,
        col_a: TokenColumn,
        col_b: TokenColumn,
    ) {
        if self.prepared.schemes.contains_key(&scheme)
            || col_a.n_records() != self.table_a.len()
            || col_b.n_records() != self.table_b.len()
        {
            return;
        }
        let mut sc = SchemeColumns {
            arena,
            ..SchemeColumns::default()
        };
        sc.toks_a.insert(attr_a, Arc::new(col_a));
        sc.toks_b.insert(attr_b, Arc::new(col_b));
        sc.refresh();
        self.prepared.schemes.insert(scheme, sc);
    }

    /// The borrowed columnar view feature `fid`'s kernels run on, or `None`
    /// for an id this context did not issue.
    pub fn prepared_for(&self, fid: FeatureId) -> Option<PreparedView<'_>> {
        self.resolved.get(fid.index()).map(ResolvedFeature::view)
    }

    fn ensure_corpus(&mut self, scheme: TokenScheme, attr_a: AttrId, attr_b: AttrId) {
        let key = (scheme, attr_a, attr_b);
        if self.idf.contains_key(&key) {
            return;
        }
        let docs = self
            .table_a
            .column(attr_a)
            .chain(self.table_b.column(attr_b));
        let table = IdfTable::build(docs, scheme);
        self.idf.insert(key, Arc::new(table));
    }

    /// The prepared IDF table for a feature, if any.
    pub fn idf_for(&self, def: &FeatureDef) -> Option<&IdfTable> {
        let scheme = def.measure.corpus_scheme()?;
        self.idf
            .get(&(scheme, def.attr_a, def.attr_b))
            .map(|a| a.as_ref())
    }

    /// Computes the value of feature `fid` for candidate pair `pair`.
    ///
    /// Missing attribute values score 0.0 by convention (§3: predicates over
    /// missing data cannot support a match). A measure producing NaN is
    /// normalized to 0.0 here, so every engine — early-exit, exact, memoized
    /// or not — sees the identical, total value for the pair.
    pub fn compute(&self, fid: FeatureId, pair: PairIdx) -> f64 {
        let v = self.compute_raw(fid, pair);
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// The un-normalized similarity (may be NaN from a degenerate measure or
    /// an injected fault).
    ///
    /// # Panics
    ///
    /// Panics when `fid` was not issued by this context.
    #[inline]
    fn compute_raw(&self, fid: FeatureId, pair: PairIdx) -> f64 {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.fault {
            if let Some(v) = plan.on_compute(pair) {
                return v;
            }
        }
        let r = &self.resolved[fid.index()];
        SIM_SCRATCH.with(|s| {
            r.measure
                .similarity_prepared(&r.view(), pair, &mut s.borrow_mut())
        })
    }

    /// Human-readable name of a feature. Unknown ids render as `f<id>?`
    /// rather than panicking (ids can outlive registry snapshots).
    pub fn feature_name(&self, fid: FeatureId) -> String {
        match self.registry.try_def(fid) {
            Some(def) => def.display_name(self.table_a.schema(), self.table_b.schema()),
            None => format!("f{}?", fid.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_types::{Record, Schema};

    fn ctx() -> EvalContext {
        let schema = Schema::new(["title", "modelno"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
        a.push(Record::new("a2", ["sony walkman", "NWZ-E384"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod nano 16gb", "MC037"]));
        b.try_push(Record::with_missing(
            "b2",
            vec![Some("bose headphones".into()), None],
        ))
        .unwrap();
        EvalContext::from_tables(a, b)
    }

    #[test]
    fn compute_simple_feature() {
        let mut c = ctx();
        let f = c.feature(Measure::Exact, "modelno", "modelno").unwrap();
        assert_eq!(c.compute(f, PairIdx::new(0, 0)), 1.0);
        assert_eq!(c.compute(f, PairIdx::new(1, 0)), 0.0);
    }

    #[test]
    fn missing_value_scores_zero() {
        let mut c = ctx();
        let f = c.feature(Measure::Exact, "modelno", "modelno").unwrap();
        assert_eq!(c.compute(f, PairIdx::new(0, 1)), 0.0);
    }

    #[test]
    fn unknown_attr_rejected() {
        let mut c = ctx();
        assert!(c.feature(Measure::Exact, "nope", "modelno").is_none());
    }

    #[test]
    fn corpus_built_for_tfidf() {
        let mut c = ctx();
        let f = c
            .feature(Measure::TfIdf(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let def = *c.registry().def(f);
        let idf = c.idf_for(&def).expect("idf table should be prepared");
        // 2 titles in A + 2 in B = 4 documents.
        assert_eq!(idf.n_docs(), 4);
        let s = c.compute(f, PairIdx::new(0, 0));
        assert!(s > 0.5 && s <= 1.0, "tfidf(a1,b1) = {s}");
    }

    #[test]
    fn same_def_same_id() {
        let mut c = ctx();
        let f1 = c.feature(Measure::Jaro, "title", "title").unwrap();
        let f2 = c.feature(Measure::Jaro, "title", "title").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn feature_name_readable() {
        let mut c = ctx();
        let f = c.feature(Measure::Jaro, "title", "modelno").unwrap();
        assert_eq!(c.feature_name(f), "jaro(title, modelno)");
    }

    #[test]
    fn registered_features_have_prepared_views() {
        let mut c = ctx();
        for m in Measure::paper_menu() {
            let f = c.feature(m, "title", "title").unwrap();
            assert!(
                c.prepared_for(f).is_some(),
                "no prepared view for {}",
                m.name()
            );
        }
    }

    /// `compute` against the string path on every pair of `c`'s tables.
    fn assert_matches_string_path(c: &EvalContext, f: FeatureId) {
        let def = *c.registry().def(f);
        for a in 0..c.table_a().len() as u32 {
            for b in 0..c.table_b().len() as u32 {
                let pair = PairIdx::new(a, b);
                let want = match (
                    c.table_a().value(a, def.attr_a),
                    c.table_b().value(b, def.attr_b),
                ) {
                    (Some(x), Some(y)) => def.measure.similarity_with(x, y, c.idf_for(&def)),
                    _ => 0.0,
                };
                let got = c.compute(f, pair);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} on {pair:?}: {got} vs string path {want}",
                    c.feature_name(f)
                );
            }
        }
    }

    #[test]
    fn arena_growth_reresolves_earlier_features() {
        let mut c = ctx();
        let ws = TokenScheme::Whitespace;
        let soft = Measure::soft_tfidf(ws);
        let early = c.feature(soft, "title", "title").unwrap();
        assert_matches_string_path(&c, early);
        let before = c.prepared.schemes[&ws].arena.len();
        // A new attribute of the same scheme interns new tokens.
        let late = c.feature(soft, "modelno", "modelno").unwrap();
        assert!(c.prepared.schemes[&ws].arena.len() > before, "arena grew");
        assert_matches_string_path(&c, early);
        assert_matches_string_path(&c, late);
        // Both features now read the one current snapshot.
        let (e, l) = (
            c.prepared_for(early).unwrap(),
            c.prepared_for(late).unwrap(),
        );
        assert!(std::ptr::eq(e.rank.unwrap(), l.rank.unwrap()));
        assert!(std::ptr::eq(e.token_chars.unwrap(), l.token_chars.unwrap()));
    }

    #[test]
    fn adopted_blocking_columns_are_reused() {
        use em_similarity::build_token_column;
        let mut c = ctx();
        let attr = c.table_a().schema().attr_id("title").unwrap();
        let mut arena = TokenArena::new();
        let col_a = build_token_column(
            TokenScheme::Whitespace,
            c.table_a().iter().map(|r| r.value(attr.index())),
            &mut arena,
        );
        let col_b = build_token_column(
            TokenScheme::Whitespace,
            c.table_b().iter().map(|r| r.value(attr.index())),
            &mut arena,
        );
        c.adopt_token_columns(TokenScheme::Whitespace, attr, attr, arena, col_a, col_b);
        let f = c
            .feature(Measure::Jaccard(TokenScheme::Whitespace), "title", "title")
            .unwrap();
        let view = c.prepared_for(f).expect("adopted columns should serve");
        assert!(view.tok_a.is_some() && view.rank.is_some());
        assert_eq!(c.compute(f, PairIdx::new(0, 0)), {
            let ta: std::collections::HashSet<String> = TokenScheme::Whitespace
                .tokenize("apple ipod nano")
                .into_iter()
                .collect();
            let tb: std::collections::HashSet<String> = TokenScheme::Whitespace
                .tokenize("apple ipod nano 16gb")
                .into_iter()
                .collect();
            ta.intersection(&tb).count() as f64 / ta.union(&tb).count() as f64
        });
    }
}
