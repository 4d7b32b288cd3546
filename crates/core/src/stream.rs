//! **StreamGVEX** — Algorithm 3: single-pass, anytime explanation views.
//!
//! The node set of each graph is consumed as a stream. Per arrival the
//! algorithm (1) incrementally extends the influence analysis
//! (`IncEVerify`), (2) decides via `VpExtend` + `IncUpdateVS` (Procedure 4)
//! whether the node joins the bounded selection cache `V_S` — swapping out
//! the cheapest resident only when the newcomer's gain is at least **twice**
//! the loss, the invariant behind the ¼-approximation of streaming
//! submodular maximization (Theorem 5.1) — and (3) maintains the pattern
//! set `𝒫_c` through `IncUpdateP` (Procedure 5), mining only patterns that
//! pass through the newly selected node (`IncPGen`) and swapping out
//! patterns that no longer contribute coverage.
//!
//! The explanation view is queryable at *any* prefix of the stream
//! ([`GraphStream::current_nodes`] / [`GraphStream::current_patterns`]),
//! with the approximation holding relative to the seen fraction.
//!
//! The algorithm is exposed as [`StreamStrategy`], a
//! [`SelectionStrategy`] over a shared [`ExplainSession`] (the initial
//! forward pass comes from the session's trace cache, and every `VpExtend`
//! probe runs on a zero-copy view). [`StreamStrategy::stream_graph`] streams
//! one graph in a caller-chosen node order; [`GraphStream`] exposes the
//! per-arrival state for anytime inspection. Through the session's driver
//! the graphs of a label group stream in parallel (§A.7), and their
//! pattern sets merge in member order, so the view is the same at any
//! worker count.

use crate::config::Configuration;
use crate::session::{ExplainSession, SelectionStrategy};
use crate::view::{ExplanationSubgraph, ExplanationView};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDatabase, NodeId};
use gvex_influence::analysis::StreamingInfluence;
use gvex_iso::coverage::covered_by_set;
use gvex_mining::inc_pgen;

/// Algorithm 3's single-pass swap selection as a session strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStrategy;

/// Streaming state for one graph: the selection cache, backup set, and
/// maintained pattern candidates.
pub struct GraphStream<'m> {
    model: &'m GcnModel,
    g: &'m Graph,
    graph_index: usize,
    label: usize,
    lower: usize,
    upper: usize,
    cfg: Configuration,
    inf: StreamingInfluence,
    selected: Vec<NodeId>,
    /// `V_u`: arrived nodes not currently selected.
    backup: Vec<NodeId>,
    /// `𝒫_c`: maintained pattern candidates.
    patterns: Vec<Graph>,
    /// Whether the current selection classifies as the target label (once
    /// true, VpExtend never lets it regress).
    is_consistent: bool,
    /// Whether the current selection already satisfies the counterfactual
    /// property (once true, VpExtend never lets it regress).
    is_counterfactual: bool,
}

impl<'m> GraphStream<'m> {
    /// Prepares streaming over `g` through a session: one memoized forward
    /// pass from the session's trace cache serves the label and the
    /// stream's embeddings/adjacency (no Jacobian precomputation happens
    /// here — that is the point of the streaming variant).
    pub fn with_session(sess: &ExplainSession<'m>, g: &'m Graph, graph_index: usize) -> Self {
        let model = sess.model();
        let cfg = sess.config().clone();
        let trace = sess.trace(g);
        let label = trace.label();
        let bound = cfg.bound(label);
        let inf = StreamingInfluence::with_trace(model, g, &trace, cfg.theta, cfg.r, cfg.gamma);
        Self {
            model,
            g,
            graph_index,
            label,
            lower: bound.lower,
            upper: bound.upper.min(g.num_nodes()).max(1),
            cfg,
            inf,
            selected: Vec::new(),
            backup: Vec::new(),
            patterns: Vec::new(),
            is_consistent: false,
            is_counterfactual: false,
        }
    }

    /// The label this stream explains.
    pub fn label(&self) -> usize {
        self.label
    }

    /// Anytime access: the currently selected nodes.
    pub fn current_nodes(&self) -> &[NodeId] {
        &self.selected
    }

    /// Anytime access: the currently maintained patterns.
    pub fn current_patterns(&self) -> &[Graph] {
        &self.patterns
    }

    /// Anytime explainability of the current selection on the seen stream.
    pub fn current_score(&self) -> f64 {
        self.inf.score_of(&self.selected)
    }

    /// Algorithm 3, lines 2–9: processes the arrival of node `v`.
    pub fn arrive(&mut self, v: NodeId) {
        if self.inf.has_seen(v) {
            return;
        }
        // line 3: IncEVerify — incremental influence update.
        self.inf.arrive(v);
        // line 5: V_u grows with every arrival.
        self.backup.push(v);

        // line 6: VpExtend — consistency of the extended selection.
        if !self.vp_extend(v) {
            return;
        }
        // line 7: IncUpdateVS.
        let joined = self.inc_update_vs(v);
        // lines 8–9: IncUpdateP only when v actually entered V_S.
        if joined {
            self.backup.retain(|&b| b != v);
            self.refresh_counterfactual();
            self.inc_update_p(v);
        }
    }

    /// `VpExtend` (Procedure 2) in the streaming setting, with the same
    /// tiered cold-start policy as ApproxGVEX's [`crate::GreedyStrategy`]: full pass always admits;
    /// a consistency-only extension admits while the selection is not yet
    /// counterfactual; an unconstrained extension admits only while even
    /// consistency has not been reached (a single pass cannot afford to be
    /// choosy on multi-class data). Established properties never regress.
    /// Both checks run on zero-copy views of `g`.
    fn vp_extend(&self, v: NodeId) -> bool {
        let mut trial = self.selected.clone();
        trial.push(v);
        if !crate::session::selection_consistent(self.model, self.g, self.label, &trial) {
            return !self.is_consistent;
        }
        crate::session::selection_counterfactual(self.model, self.g, self.label, &trial)
            || !self.is_counterfactual
    }

    /// Refreshes the property flags after `V_S` changed.
    fn refresh_counterfactual(&mut self) {
        if self.selected.is_empty() {
            self.is_consistent = false;
            self.is_counterfactual = false;
            return;
        }
        self.is_consistent =
            crate::session::selection_consistent(self.model, self.g, self.label, &self.selected);
        self.is_counterfactual = crate::session::selection_counterfactual(
            self.model,
            self.g,
            self.label,
            &self.selected,
        );
    }

    /// `IncUpdateVS` (Procedure 4). Returns whether `v` joined `V_S`.
    fn inc_update_vs(&mut self, v: NodeId) -> bool {
        // case (a): room left — just add.
        if self.selected.len() < self.upper {
            self.selected.push(v);
            return true;
        }
        // feasibility-climbing swap (checked *before* the pattern-coverage
        // skip — constraint C2 outranks case (b)'s redundancy filter):
        // while the selection is not yet consistent, replace whichever
        // resident yields the largest increase in target-label probability
        // when `v` takes its place. Probability hill-climbing is the
        // single-pass analogue of ApproxGVEX's tier-3 cold start.
        if !self.is_consistent {
            let cur_p = self.model.predict_proba(self.g.view_of(&self.selected))[self.label];
            let mut best: Option<(f32, usize)> = None;
            for idx in 0..self.selected.len() {
                let mut trial = self.selected.clone();
                trial[idx] = v;
                let p = self.model.predict_proba(self.g.view_of(&trial))[self.label];
                if best.is_none_or(|(bp, _)| p > bp) {
                    best = Some((p, idx));
                }
            }
            if let Some((p, idx)) = best {
                if p > cur_p + 1e-6 {
                    let evicted = self.selected[idx];
                    self.selected[idx] = v;
                    self.backup.push(evicted);
                    return true;
                }
            }
            return false;
        }

        // case (b): v is already represented — patterns cover it, or its
        // local neighborhood mines nothing new (ΔP = ∅).
        if self.covered_by_patterns(v) || self.delta_patterns(v).is_empty() {
            return false;
        }

        // case (c): greedy swap. v⁻ = argmin loss; accept only if the
        // newcomer's gain is at least twice the evictee's.
        let (v_minus_idx, _) = match self
            .selected
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut without = self.selected.clone();
                let removed = without.remove(i);
                let loss = self.inf.score_of(&self.selected) - self.inf.score_of(&without);
                ((i, removed), loss)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            Some(((i, r), _)) => ((i, r), ()),
            None => return false,
        };
        let (idx, v_minus) = v_minus_idx;
        let mut base = self.selected.clone();
        base.remove(idx);
        let base_score = self.inf.score_of(&base);
        let gain_new = {
            let mut with_v = base.clone();
            with_v.push(v);
            self.inf.score_of(&with_v) - base_score
        };
        let gain_old = {
            let mut with_old = base.clone();
            with_old.push(v_minus);
            self.inf.score_of(&with_old) - base_score
        };
        if gain_new >= 2.0 * gain_old {
            self.selected[idx] = v;
            self.backup.push(v_minus);
            true
        } else {
            false
        }
    }

    /// Whether the maintained patterns already cover `v` inside the current
    /// explanation subgraph extended by `v`.
    ///
    /// Needs an *owned* induced subgraph (the coverage matcher takes a
    /// `&Graph` target and the parent→local id mapping): this is one of the
    /// places where materialization is inherent, not an artifact.
    fn covered_by_patterns(&self, v: NodeId) -> bool {
        if self.patterns.is_empty() {
            return false;
        }
        let mut nodes = self.selected.clone();
        nodes.push(v);
        nodes.sort_unstable();
        let sub = self.g.induced_subgraph(&nodes);
        let local = match sub.from_parent(v) {
            Some(l) => l,
            None => return false,
        };
        covered_by_set(&self.patterns, &sub.graph, self.cfg.matching).nodes.contains(&local)
    }

    /// `IncPGen`: new patterns through `v`'s local neighborhood, not yet in
    /// `𝒫_c` (mining consumes an owned subgraph, like coverage above).
    fn delta_patterns(&self, v: NodeId) -> Vec<Graph> {
        let mut nodes = self.selected.clone();
        if !nodes.contains(&v) {
            nodes.push(v);
        }
        nodes.sort_unstable();
        let sub = self.g.induced_subgraph(&nodes);
        let Some(local) = sub.from_parent(v) else {
            return Vec::new();
        };
        inc_pgen(&sub.graph, local, &self.patterns, &self.cfg.mining)
            .into_iter()
            .map(|c| c.pattern)
            .collect()
    }

    /// `IncUpdateP` (Procedure 5): after `v` joined `V_S`, extend `𝒫_c`
    /// with the best new pattern(s) through `v` until `v` is covered, then
    /// evict patterns that contribute no node coverage, largest
    /// edge-miss weight `w(P)` first.
    fn inc_update_p(&mut self, v: NodeId) {
        if !self.covered_by_patterns(v) {
            let fresh = self.delta_patterns(v);
            // inc_pgen ranks by MDL: take the best candidates until coverage
            for p in fresh {
                self.patterns.push(p);
                if self.covered_by_patterns(v) {
                    break;
                }
            }
        }

        // Eviction pass: recompute each pattern's marginal node coverage on
        // the current subgraph; drop non-contributors (keeps 𝒫_c small —
        // the space-efficient "swapping" strategy).
        let sub = self.g.induced_subgraph(&self.selected).graph;
        let total_edges = sub.num_edges();
        let mut keep: Vec<Graph> = Vec::with_capacity(self.patterns.len());
        let mut covered = std::collections::HashSet::new();
        // consider patterns in ascending weight (descending edge coverage)
        let mut scored: Vec<(f64, Graph)> = self
            .patterns
            .drain(..)
            .map(|p| {
                let cov = gvex_iso::coverage::covered(&p, &sub, self.cfg.matching);
                let w = if total_edges == 0 {
                    0.0
                } else {
                    1.0 - cov.edges.len() as f64 / total_edges as f64
                };
                (w, p)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, p) in scored {
            let cov = gvex_iso::coverage::covered(&p, &sub, self.cfg.matching);
            let adds = cov.nodes.iter().any(|n| !covered.contains(n));
            if adds {
                covered.extend(cov.nodes);
                keep.push(p);
            }
        }
        self.patterns = keep;
    }

    /// Algorithm 3, line 10 + finalization: tops up to the lower bound from
    /// `V_u` and returns the explanation subgraph (with property flags) and
    /// the locally maintained patterns. `None` if the lower bound is
    /// unreachable or nothing was selected.
    pub fn finish(mut self) -> Option<(ExplanationSubgraph, Vec<Graph>)> {
        while self.selected.len() < self.lower && !self.backup.is_empty() {
            // best marginal gain first
            let (bi, _) = self
                .backup
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let mut with_b = self.selected.clone();
                    with_b.push(b);
                    (i, self.inf.score_of(&with_b))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))?;
            let v = self.backup.remove(bi);
            if !self.selected.contains(&v) {
                self.selected.push(v);
                self.inc_update_p(v);
            }
        }
        if self.selected.len() < self.lower || self.selected.is_empty() {
            return None;
        }
        self.selected.sort_unstable();
        let sub = self.g.induced_subgraph(&self.selected);
        let verdict =
            crate::verify::everify_with_label(self.model, self.g, self.label, &self.selected);
        let score = self.inf.score_of(&self.selected);
        let n = self.g.num_nodes();
        Some((
            ExplanationSubgraph {
                graph_index: self.graph_index,
                nodes: self.selected,
                subgraph: sub.graph,
                consistent: verdict.consistent,
                counterfactual: verdict.counterfactual,
                explainability: if n == 0 { 0.0 } else { score / n as f64 },
            },
            self.patterns,
        ))
    }
}

impl StreamStrategy {
    /// Streams one graph in the given node order (defaults to `0..n` when
    /// `order` is `None`) and returns its explanation subgraph + local
    /// patterns.
    pub fn stream_graph<'m>(
        &self,
        sess: &ExplainSession<'m>,
        g: &'m Graph,
        graph_index: usize,
        order: Option<&[NodeId]>,
    ) -> Option<(ExplanationSubgraph, Vec<Graph>)> {
        gvex_obs::span!("stream.explain_graph");
        if g.num_nodes() == 0 {
            return None;
        }
        let mut stream = GraphStream::with_session(sess, g, graph_index);
        match order {
            Some(o) => {
                for &v in o {
                    stream.arrive(v);
                }
            }
            None => {
                for v in 0..g.num_nodes() {
                    stream.arrive(v);
                }
            }
        }
        stream.finish()
    }
}

impl SelectionStrategy for StreamStrategy {
    fn name(&self) -> &'static str {
        "StreamGVEX"
    }

    fn explain_graph(
        &self,
        sess: &ExplainSession<'_>,
        g: &Graph,
        graph_index: usize,
    ) -> Option<ExplanationSubgraph> {
        self.stream_graph(sess, g, graph_index, None).map(|(s, _)| s)
    }

    /// Streaming overrides the default batch assembly: the member graphs
    /// stream in parallel, then their locally maintained patterns are
    /// merged in member order (deduplicated up to isomorphism) instead of
    /// re-mined, and the session's shared completion covers any
    /// cross-graph gaps with singleton patterns (streamed pattern
    /// maintenance is local to each graph, so gaps are possible).
    fn explain_label_group(
        &self,
        sess: &ExplainSession<'_>,
        db: &GraphDatabase,
        label: usize,
        group: &[usize],
    ) -> ExplanationView {
        let streamed = crate::parallel::explain_members(sess.model(), db, group, |gi| {
            self.stream_graph(sess, db.graph(gi), gi, None)
        });
        let mut subgraphs = Vec::new();
        let mut patterns: Vec<Graph> = Vec::new();
        for (sub, local) in streamed.into_iter().flatten() {
            subgraphs.push(sub);
            crate::session::merge_patterns(&mut patterns, local);
        }
        sess.assemble_view(label, subgraphs, patterns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{trainer, GcnConfig};

    fn motif_db() -> GraphDatabase {
        let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
        for i in 0..8 {
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

    fn trained_model(db: &GraphDatabase) -> GcnModel {
        let split = trainer::Split {
            train: (0..db.len()).collect(),
            val: (0..db.len()).collect(),
            test: vec![],
        };
        let cfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
        let opts = trainer::TrainOptions {
            epochs: 80,
            lr: 0.01,
            seed: 1,
            patience: 0,
            ..Default::default()
        };
        trainer::train(db, cfg, &split, opts).0
    }

    fn session(model: &GcnModel, cfg: Configuration) -> ExplainSession<'_> {
        ExplainSession::new(model, cfg).expect("valid configuration")
    }

    #[test]
    fn stream_respects_upper_bound() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3));
        let (sub, _) = StreamStrategy.stream_graph(&sess, db.graph(1), 1, None).unwrap();
        assert!(sub.len() <= 3 && !sub.is_empty());
    }

    #[test]
    fn anytime_access_mid_stream() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 4));
        let g = db.graph(1);
        let mut stream = GraphStream::with_session(&sess, g, 1);
        stream.arrive(0);
        stream.arrive(1);
        let mid = stream.current_nodes().len();
        assert!(mid <= 2);
        let mid_score = stream.current_score();
        for v in 2..g.num_nodes() {
            stream.arrive(v);
        }
        assert!(stream.current_score() >= mid_score - 1e-9, "anytime score must not regress");
    }

    #[test]
    fn patterns_maintained_during_stream() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 4));
        let g = db.graph(1);
        let mut stream = GraphStream::with_session(&sess, g, 1);
        for v in 0..g.num_nodes() {
            stream.arrive(v);
        }
        if !stream.current_nodes().is_empty() {
            assert!(
                !stream.current_patterns().is_empty(),
                "IncUpdateP should have produced patterns for a nonempty selection"
            );
        }
    }

    #[test]
    fn stream_view_patterns_cover_all_nodes() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
        let sess = session(&model, cfg.clone());
        let assigned = crate::parallel::predict_all(&model, &db);
        let groups = db.label_groups(&assigned);
        let view = StreamStrategy.explain_label_group(&sess, &db, 1, groups.group(1));
        for s in &view.subgraphs {
            assert!(crate::verify::pmatch(&view.patterns, &s.subgraph, &cfg));
        }
    }

    #[test]
    fn node_order_does_not_change_worst_case_validity() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3));
        let g = db.graph(1);
        let fwd: Vec<usize> = (0..g.num_nodes()).collect();
        let rev: Vec<usize> = (0..g.num_nodes()).rev().collect();
        let a = StreamStrategy.stream_graph(&sess, g, 1, Some(&fwd));
        let b = StreamStrategy.stream_graph(&sess, g, 1, Some(&rev));
        // both orders must produce a bounded, nonempty selection
        for res in [a, b] {
            let (sub, _) = res.unwrap();
            assert!(!sub.is_empty() && sub.len() <= 3);
        }
    }

    #[test]
    fn unsatisfiable_lower_bound_returns_none() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 50, 60));
        assert!(StreamStrategy.stream_graph(&sess, db.graph(0), 0, None).is_none());
    }

    #[test]
    fn stream_explain_builds_view_per_label() {
        let db = motif_db();
        let model = trained_model(&db);
        let sess = session(&model, Configuration::uniform(0.05, 0.3, 0.5, 0, 3));
        let set = sess.explain(&StreamStrategy, &db, &[0, 1]);
        assert_eq!(set.views.len(), 2);
        assert!(set.total_explainability() > 0.0);
    }
}
