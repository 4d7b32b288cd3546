//! The shared explanation session: one model handle, one cache set, many
//! algorithms.
//!
//! Every explanation algorithm in this crate needs the same per-graph
//! state — a forward trace (label + embeddings + propagation operator) and
//! an influence analysis (Jacobian + diversity terms). Before the session
//! existed, each free function recomputed that state from scratch, so
//! running ApproxGVEX and StreamGVEX over the same database paid for every
//! forward pass twice. An [`ExplainSession`] owns the model handle, the
//! [`TraceCache`], and a per-graph [`InfluenceAnalysis`] memo exactly once;
//! the algorithms are reduced to [`SelectionStrategy`] implementations that
//! read through the session, so N algorithms × M graphs share one set of
//! caches.
//!
//! [`ExplainSession::explain`] is the one driver: it predicts and groups
//! the database, then asks the strategy for each label's view. The
//! strategy's label-group step fans its members out across the rayon pool
//! (§A.7, through [`crate::parallel::explain_members`]) and assembles the
//! view on the calling thread in member order, so every strategy yields
//! bitwise-identical views at any worker count. A caller that wants a
//! fixed worker count installs a pool around the call.
//!
//! Determinism: the per-graph influence memo is keyed by the same content
//! fingerprint the trace cache uses *plus the graph index*, because the
//! analysis RNG is seeded `cfg.seed ^ graph_index`. A memo hit therefore
//! returns exactly the analysis a recomputation would produce, and the
//! driver yields bitwise-identical views whether caches are cold or warm.

use crate::config::{ConfigError, Configuration};
use crate::psum::{coverage_stats, psum};
use crate::query::ViewIndex;
use crate::verify::VerificationReport;
use crate::view::{ExplanationSubgraph, ExplanationView, ExplanationViewSet};
use gvex_gnn::{graph_fingerprint, ForwardTrace, GcnModel, TraceCache};
use gvex_graph::{Graph, GraphDatabase, NodeId};
use gvex_influence::analysis::InfluenceAnalysis;
use gvex_iso::vf2::are_isomorphic;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default bound on memoized per-graph influence analyses (matches the
/// trace cache's default).
const DEFAULT_INFLUENCE_CAPACITY: usize = 64;

/// The cache set a session owns: memoized forward traces and per-graph
/// influence analyses. Shareable across sessions (and threads) via `Arc`,
/// so long-lived owners like [`crate::ViewMaintainer`] keep their warm
/// state across per-call session construction.
pub struct SessionCaches {
    traces: TraceCache,
    influence: Mutex<InfluenceMemo>,
}

struct InfluenceMemo {
    map: HashMap<(u64, usize), Arc<InfluenceAnalysis>>,
    /// FIFO insertion order for bounded eviction.
    order: VecDeque<(u64, usize)>,
    capacity: usize,
}

impl SessionCaches {
    /// Empty caches with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_INFLUENCE_CAPACITY)
    }

    /// Empty caches bounding both the trace cache and the influence memo to
    /// `capacity` entries (oldest-first eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            traces: TraceCache::with_capacity(capacity),
            influence: Mutex::new(InfluenceMemo {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// The shared forward-trace cache.
    pub fn traces(&self) -> &TraceCache {
        &self.traces
    }

    /// Number of memoized influence analyses.
    pub fn influence_len(&self) -> usize {
        self.influence.lock().expect("influence memo poisoned").map.len()
    }
}

impl Default for SessionCaches {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-graph node-selection algorithm over a shared [`ExplainSession`].
///
/// Implementations read the per-graph state (trace, influence analysis)
/// through the session instead of recomputing it, so any number of
/// strategies can run against one session without redundant work. The
/// provided [`Self::explain_label_group`] covers the common batch shape —
/// explain every group member, then summarize with `Psum` — and strategies
/// with their own assembly (streaming pattern maintenance) override it.
pub trait SelectionStrategy: Sync {
    /// Method name as printed in result tables ("ApproxGVEX",
    /// "StreamGVEX").
    fn name(&self) -> &'static str;

    /// Explains a single graph: selects `V_S`, induces the explanation
    /// subgraph, and reports the §2.2 property flags. `None` when the graph
    /// is empty or no selection satisfies the lower coverage bound.
    fn explain_graph(
        &self,
        sess: &ExplainSession<'_>,
        g: &Graph,
        graph_index: usize,
    ) -> Option<ExplanationSubgraph>;

    /// Builds one explanation view for label `l` over a label group (graph
    /// indices): explain each graph (fanned out, in member order), then
    /// summarize with `Psum`.
    fn explain_label_group(
        &self,
        sess: &ExplainSession<'_>,
        db: &GraphDatabase,
        label: usize,
        group: &[usize],
    ) -> ExplanationView {
        let subgraphs: Vec<ExplanationSubgraph> = {
            gvex_obs::span!("explain");
            crate::parallel::explain_members(sess.model(), db, group, |gi| {
                self.explain_graph(sess, db.graph(gi), gi)
            })
            .into_iter()
            .flatten()
            .collect()
        };
        sess.summarize(label, subgraphs)
    }
}

/// Shared state for one explanation workload: the model handle, a validated
/// configuration, and the cache set. Construct once, then run any number of
/// [`SelectionStrategy`] algorithms and graphs against it.
pub struct ExplainSession<'m> {
    model: &'m GcnModel,
    cfg: Configuration,
    caches: Arc<SessionCaches>,
}

impl<'m> ExplainSession<'m> {
    /// Creates a session, validating the configuration once up front (the
    /// strategies assume a valid configuration and never re-check).
    pub fn new(model: &'m GcnModel, cfg: Configuration) -> Result<Self, ConfigError> {
        Self::with_caches(model, cfg, Arc::new(SessionCaches::new()))
    }

    /// Creates a session over caller-owned caches, so warm state survives
    /// session construction (e.g. a maintainer building one session per
    /// maintenance call).
    pub fn with_caches(
        model: &'m GcnModel,
        cfg: Configuration,
        caches: Arc<SessionCaches>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self { model, cfg, caches })
    }

    /// The model under explanation.
    pub fn model(&self) -> &'m GcnModel {
        self.model
    }

    /// The validated configuration.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    /// The session's cache set (shareable via [`Self::with_caches`]).
    pub fn caches(&self) -> &Arc<SessionCaches> {
        &self.caches
    }

    /// The shared forward-trace cache (e.g. for
    /// [`crate::verify::verify_view_with`]).
    pub fn trace_cache(&self) -> &TraceCache {
        &self.caches.traces
    }

    /// Memoized full forward pass over `g`.
    pub fn trace(&self, g: &Graph) -> Arc<ForwardTrace> {
        self.caches.traces.trace(self.model, g)
    }

    /// Memoized classifier label of `g`.
    pub fn predict(&self, g: &Graph) -> usize {
        self.caches.traces.predict(self.model, g)
    }

    /// Memoized per-graph influence analysis (Jacobian + diversity state).
    ///
    /// Keyed by `(content fingerprint, graph_index)`: the analysis RNG is
    /// seeded `cfg.seed ^ graph_index`, so two structurally identical
    /// graphs at different database positions keep distinct entries and a
    /// hit is bitwise identical to a recomputation.
    pub fn influence(&self, g: &Graph, graph_index: usize) -> Arc<InfluenceAnalysis> {
        let key = (graph_fingerprint(g), graph_index);
        {
            let memo = self.caches.influence.lock().expect("influence memo poisoned");
            if let Some(hit) = memo.map.get(&key) {
                let hit = Arc::clone(hit);
                drop(memo);
                gvex_obs::counter!("core.session.influence_hits");
                return hit;
            }
        }
        gvex_obs::counter!("core.session.influence_misses");
        gvex_obs::counter!("core.session.influence_evictions", 0);
        // Compute outside the lock so concurrent misses on different graphs
        // don't serialize; a racing duplicate for the same key is dropped in
        // favor of the first insert (both are bitwise identical anyway).
        let trace = self.trace(g);
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ graph_index as u64);
        let analysis = Arc::new(InfluenceAnalysis::with_trace(
            self.model,
            g,
            &trace,
            self.cfg.theta,
            self.cfg.r,
            self.cfg.gamma,
            self.cfg.influence,
            &mut rng,
        ));
        let mut memo = self.caches.influence.lock().expect("influence memo poisoned");
        if let Some(existing) = memo.map.get(&key) {
            return Arc::clone(existing);
        }
        if memo.map.len() >= memo.capacity {
            if let Some(oldest) = memo.order.pop_front() {
                memo.map.remove(&oldest);
                gvex_obs::counter!("core.session.influence_evictions");
            }
        }
        memo.order.push_back(key);
        memo.map.insert(key, Arc::clone(&analysis));
        analysis
    }

    /// `ℳ(G_s) = label`: whether the selection's induced subgraph keeps the
    /// graph's label (the §2.2 "consistent" property, on a zero-copy view).
    pub fn selection_consistent(&self, g: &Graph, label: usize, sel: &[NodeId]) -> bool {
        selection_consistent(self.model, g, label, sel)
    }

    /// `ℳ(G \ G_s) ≠ label`: whether deleting the selection flips the
    /// prediction (the "counterfactual" property, on a zero-copy view).
    pub fn selection_counterfactual(&self, g: &Graph, label: usize, sel: &[NodeId]) -> bool {
        selection_counterfactual(self.model, g, label, sel)
    }

    /// The shared summarize step: run `Psum` over a label group's subgraphs
    /// and aggregate explainability (Eq. 2).
    pub fn summarize(&self, label: usize, subgraphs: Vec<ExplanationSubgraph>) -> ExplanationView {
        summarize(label, subgraphs, &self.cfg)
    }

    /// Assembles a view from pre-merged patterns: plugs coverage gaps with
    /// singleton patterns and recomputes edge loss — the completion step of
    /// the streaming label-group assembly.
    pub fn assemble_view(
        &self,
        label: usize,
        subgraphs: Vec<ExplanationSubgraph>,
        patterns: Vec<Graph>,
    ) -> ExplanationView {
        assemble_view(label, subgraphs, patterns, &self.cfg)
    }

    /// Explains the classification of node `target` in `g` (node-level
    /// GVEX, Table 1's "NC" task) under the session's model and
    /// configuration — the session-level entry point the serving daemon
    /// and CLI route node queries through.
    pub fn explain_node(
        &self,
        g: &Graph,
        target: NodeId,
    ) -> Option<crate::node_explain::NodeExplanationView> {
        let _req = gvex_obs::context::ReqScope::begin("session.explain_node");
        gvex_obs::counter!("core.session.node_explains");
        crate::node_explain::explain_node(self.model, g, target, &self.cfg)
    }

    /// Verifies a view against constraints C1–C3 through the session's
    /// shared trace cache.
    pub fn verify(&self, db: &GraphDatabase, view: &ExplanationView) -> VerificationReport {
        let _req = gvex_obs::context::ReqScope::begin("session.verify");
        crate::verify::verify_view_with(self.trace_cache(), self.model, db, view, &self.cfg)
    }

    /// Builds the queryable inverted index over a generated view set, using
    /// the session's matching semantics.
    pub fn index_views(&self, views: &ExplanationViewSet) -> ViewIndex {
        ViewIndex::build(views, self.cfg.matching)
    }

    /// The explain driver: one view per label of interest (Problem 1).
    /// Labels are the classifier's *assigned* labels on `db`; each label's
    /// group goes to the strategy's [`SelectionStrategy::explain_label_group`],
    /// which fans its members out across the current rayon pool.
    pub fn explain(
        &self,
        strategy: &dyn SelectionStrategy,
        db: &GraphDatabase,
        labels_of_interest: &[usize],
    ) -> ExplanationViewSet {
        // request scope first, span second: locals drop in reverse order, so
        // the span guard closes while the request tag is still active and the
        // request's attributed-span table sees `explain_db`
        let _req = gvex_obs::context::ReqScope::begin("session.explain");
        gvex_obs::span!("explain_db");
        let assigned = crate::parallel::predict_all(self.model, db);
        let groups = db.label_groups(&assigned);
        let views = labels_of_interest
            .iter()
            .map(|&l| strategy.explain_label_group(self, db, l, groups.group(l)))
            .collect();
        ExplanationViewSet { views }
    }
}

/// `ℳ(G_s) = label` on the zero-copy induced view (no subgraph clone).
pub(crate) fn selection_consistent(
    model: &GcnModel,
    g: &Graph,
    label: usize,
    sel: &[NodeId],
) -> bool {
    model.predict(g.view_of(sel)) == label
}

/// `ℳ(G \ G_s) ≠ label` on the zero-copy complement view.
pub(crate) fn selection_counterfactual(
    model: &GcnModel,
    g: &Graph,
    label: usize,
    sel: &[NodeId],
) -> bool {
    model.predict(g.view_without(sel)) != label
}

/// Shared summarize step: run `Psum` over a label group's subgraphs and
/// aggregate explainability (Eq. 2).
pub(crate) fn summarize(
    label: usize,
    subgraphs: Vec<ExplanationSubgraph>,
    cfg: &Configuration,
) -> ExplanationView {
    gvex_obs::span!("summarize");
    let graphs: Vec<&Graph> = subgraphs.iter().map(|s| &s.subgraph).collect();
    let ps = psum(&graphs, &cfg.mining, cfg.matching);
    let explainability = subgraphs.iter().map(|s| s.explainability).sum();
    ExplanationView {
        label,
        patterns: ps.patterns,
        subgraphs,
        edge_loss: ps.edge_loss,
        explainability,
    }
}

/// Merges `from` into `into`, dropping patterns isomorphic to one already
/// present (the "keep only P₁₁ or P₃₂" dedup).
pub(crate) fn merge_patterns(into: &mut Vec<Graph>, from: impl IntoIterator<Item = Graph>) {
    for p in from {
        if !into.iter().any(|q| are_isomorphic(q, &p)) {
            into.push(p);
        }
    }
}

/// View assembly from pre-merged patterns: covers any node the patterns
/// miss with a singleton, then recomputes edge loss — the streaming
/// label-group assembly's completion step.
pub(crate) fn assemble_view(
    label: usize,
    subgraphs: Vec<ExplanationSubgraph>,
    mut patterns: Vec<Graph>,
    cfg: &Configuration,
) -> ExplanationView {
    let graphs: Vec<&Graph> = subgraphs.iter().map(|s| &s.subgraph).collect();
    let (uncovered, _) = coverage_stats(&patterns, &graphs, cfg.matching);
    for (si, v) in uncovered {
        let t = graphs[si].node_type(v);
        let mut b = Graph::builder(graphs[si].is_directed());
        b.add_node(t, &[]);
        let singleton = b.build();
        if !patterns.iter().any(|q| are_isomorphic(q, &singleton)) {
            patterns.push(singleton);
        }
    }
    let (_, edge_loss) = coverage_stats(&patterns, &graphs, cfg.matching);
    let explainability = subgraphs.iter().map(|s| s.explainability).sum();
    ExplanationView { label, patterns, subgraphs, edge_loss, explainability }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{trainer, GcnConfig};

    fn motif_db() -> GraphDatabase {
        let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
        for i in 0..6 {
            let mut b = Graph::builder(false);
            for _ in 0..5 + (i % 2) {
                b.add_node(0, &[1.0, 0.0, 0.0]);
            }
            for v in 1..b.num_nodes() {
                b.add_edge(v - 1, v, 0);
            }
            db.push(b.build(), 0);
            let mut b = Graph::builder(false);
            for _ in 0..4 {
                b.add_node(0, &[1.0, 0.0, 0.0]);
            }
            let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
            let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
            for v in 1..4 {
                b.add_edge(v - 1, v, 0);
            }
            b.add_edge(3, m1, 0);
            b.add_edge(m1, m2, 0);
            db.push(b.build(), 1);
        }
        db
    }

    fn trained(db: &GraphDatabase) -> GcnModel {
        let split = trainer::Split {
            train: (0..db.len()).collect(),
            val: (0..db.len()).collect(),
            test: vec![],
        };
        let cfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
        let opts = trainer::TrainOptions {
            epochs: 60,
            lr: 0.01,
            seed: 1,
            patience: 0,
            ..Default::default()
        };
        trainer::train(db, cfg, &split, opts).0
    }

    #[test]
    fn session_rejects_invalid_configuration() {
        let db = motif_db();
        let model = trained(&db);
        let mut cfg = Configuration::paper_mut(4);
        cfg.bounds.clear();
        assert_eq!(ExplainSession::new(&model, cfg).err(), Some(ConfigError::NoBounds));
    }

    #[test]
    fn influence_memo_hits_and_matches_recompute() {
        let db = motif_db();
        let model = trained(&db);
        let sess = ExplainSession::new(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3))
            .expect("valid configuration");
        let g = db.graph(1);
        let a = sess.influence(g, 1);
        let b = sess.influence(g, 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        assert_eq!(sess.caches().influence_len(), 1);
        // a fresh session recomputes the same analysis bitwise
        let fresh = ExplainSession::new(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3))
            .unwrap()
            .influence(g, 1);
        let sel: Vec<usize> = (0..g.num_nodes().min(3)).collect();
        assert_eq!(a.score_of(&sel).to_bits(), fresh.score_of(&sel).to_bits());
    }

    #[test]
    fn influence_memo_distinguishes_graph_indices() {
        let db = motif_db();
        let model = trained(&db);
        let sess = ExplainSession::new(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3))
            .expect("valid configuration");
        let g = db.graph(1);
        let a = sess.influence(g, 1);
        let b = sess.influence(g, 3);
        assert!(!Arc::ptr_eq(&a, &b), "same graph at a different index is a distinct entry");
        assert_eq!(sess.caches().influence_len(), 2);
    }

    #[test]
    fn influence_memo_evicts_oldest_at_capacity() {
        let db = motif_db();
        let model = trained(&db);
        let caches = Arc::new(SessionCaches::with_capacity(2));
        let sess = ExplainSession::with_caches(
            &model,
            Configuration::uniform(0.05, 0.3, 0.5, 0, 3),
            caches,
        )
        .expect("valid configuration");
        for gi in 0..4 {
            let _ = sess.influence(db.graph(gi), gi);
        }
        assert_eq!(sess.caches().influence_len(), 2);
    }

    #[test]
    fn shared_caches_survive_session_reconstruction() {
        let db = motif_db();
        let model = trained(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 3);
        let caches = Arc::new(SessionCaches::new());
        {
            let sess =
                ExplainSession::with_caches(&model, cfg.clone(), Arc::clone(&caches)).unwrap();
            let _ = sess.influence(db.graph(0), 0);
        }
        assert_eq!(caches.influence_len(), 1, "warm state outlives the session");
        let sess = ExplainSession::with_caches(&model, cfg, caches).unwrap();
        let (hits_before, _) = sess.trace_cache().stats();
        let _ = sess.influence(db.graph(0), 0);
        let _ = hits_before;
        assert_eq!(sess.caches().influence_len(), 1);
    }
}
