//! Incremental view maintenance (Example 2.1).
//!
//! "Consider adding two more graphs {G₅, G₆} … Ideally, one wants to
//! efficiently maintain the explanation view by properly enlarging 𝒫 and
//! 𝒢ₛ *only when necessary*. For example, it suffices to keep only P₁₁ or
//! P₃₂ …" — when the classified database grows or shrinks, the view should
//! be patched, not regenerated:
//!
//! * [`ViewMaintainer::add_graph`] explains the new graph, appends its
//!   subgraph, and mines **only** the patterns needed to cover what the
//!   existing pattern set misses (deduplicating isomorphic candidates — the
//!   "keep only P₁₁ or P₃₂" behavior),
//! * [`ViewMaintainer::remove_graph`] drops the subgraph and garbage-collects
//!   patterns that no longer cover anything.

use crate::approx::GreedyStrategy;
use crate::config::Configuration;
use crate::psum::coverage_stats;
use crate::session::{ExplainSession, SelectionStrategy, SessionCaches};
use crate::view::ExplanationView;
use gvex_gnn::GcnModel;
use gvex_graph::Graph;
use gvex_iso::coverage::{covered, covered_by_set};
use gvex_iso::vf2::are_isomorphic;
use gvex_mining::pgen;
use std::sync::Arc;

/// Why a maintenance operation could not patch the view — the typed
/// counterpart of the old silent `None`/`false` returns, in the style of
/// [`crate::config::ConfigError`]. Callers that stream mutations at high
/// rate (gvex-ingest) need to distinguish "wrong view" from "graph has no
/// explanation" from "graph was never here".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainError {
    /// The classifier assigns the graph a different label than the view
    /// explains — it belongs in another view.
    LabelMismatch {
        /// The view's label.
        expected: usize,
        /// The label the classifier assigned.
        predicted: usize,
    },
    /// The graph yields no explanation subgraph under the coverage bound
    /// (Algorithm 1's `return ∅` case) — the view is unchanged.
    NotExplainable {
        /// Database index of the unexplainable graph.
        graph_index: usize,
    },
    /// No subgraph for this graph index is present in the view.
    GraphAbsent {
        /// The index that matched nothing.
        graph_index: usize,
    },
}

impl std::fmt::Display for MaintainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintainError::LabelMismatch { expected, predicted } => {
                write!(
                    f,
                    "graph classified as label {predicted}, but the view explains label {expected}"
                )
            }
            MaintainError::NotExplainable { graph_index } => {
                write!(f, "graph {graph_index} yields no explanation under the coverage bound")
            }
            MaintainError::GraphAbsent { graph_index } => {
                write!(f, "no explanation subgraph for graph {graph_index} in the view")
            }
        }
    }
}

impl std::error::Error for MaintainError {}

/// Incremental maintenance of one label's explanation view.
pub struct ViewMaintainer {
    cfg: Configuration,
    /// The session cache set, kept across maintenance rounds: repeated
    /// rounds touch the same graphs, and each label-check used to rebuild
    /// the propagation operator from scratch. Each call constructs a
    /// session over these caches, so the explain step shares traces and
    /// influence memos with prior rounds. (Cloning a maintainer starts a
    /// fresh cache.)
    caches: Arc<SessionCaches>,
}

impl Clone for ViewMaintainer {
    /// Clones the configuration but starts a fresh cache: a cloned owner
    /// (e.g. a maintainer handed to another thread) re-warms against its
    /// own workload.
    fn clone(&self) -> Self {
        Self::new(self.cfg.clone())
    }
}

impl std::fmt::Debug for ViewMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewMaintainer").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl ViewMaintainer {
    /// Creates a maintainer with the generation configuration.
    pub fn new(cfg: Configuration) -> Self {
        Self { cfg, caches: Arc::new(SessionCaches::new()) }
    }

    /// Memoized classifier label of `g` under the maintainer's shared
    /// caches — the routing step an ingest loop runs before picking which
    /// label's view to patch.
    pub fn predict(&self, model: &GcnModel, g: &Graph) -> usize {
        self.session(model).predict(g)
    }

    fn session<'m>(&self, model: &'m GcnModel) -> ExplainSession<'m> {
        ExplainSession::with_caches(model, self.cfg.clone(), Arc::clone(&self.caches))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a newly classified graph to the view. Returns how many *new*
    /// patterns were needed (0 when the existing pattern tier already
    /// covers the new explanation subgraph — the "only when necessary"
    /// case). Fails with [`MaintainError::LabelMismatch`] when the graph
    /// belongs to another view, or [`MaintainError::NotExplainable`] when
    /// no explanation exists under the coverage bound.
    pub fn add_graph(
        &self,
        model: &GcnModel,
        view: &mut ExplanationView,
        g: &Graph,
        graph_index: usize,
    ) -> Result<usize, MaintainError> {
        let sess = self.session(model);
        let predicted = sess.predict(g);
        if predicted != view.label {
            return Err(MaintainError::LabelMismatch { expected: view.label, predicted });
        }
        let sub = GreedyStrategy
            .explain_graph(&sess, g, graph_index)
            .ok_or(MaintainError::NotExplainable { graph_index })?;

        // which of the new subgraph's nodes do existing patterns miss?
        let cov = covered_by_set(&view.patterns, &sub.subgraph, self.cfg.matching);
        let mut added = 0;
        if !cov.covers_all_nodes(&sub.subgraph) {
            // mine candidates from the new subgraph only (IncPGen's scope)
            let cands = pgen(&[&sub.subgraph], &self.cfg.mining);
            let mut covered_now = cov.nodes.clone();
            // structural-first, then singletons, mirroring Psum's phases
            for structural_only in [true, false] {
                for c in &cands {
                    if covered_now.len() == sub.subgraph.num_nodes() {
                        break;
                    }
                    if structural_only && c.pattern.num_edges() == 0 {
                        continue;
                    }
                    if view.patterns.iter().any(|p| are_isomorphic(p, &c.pattern)) {
                        continue; // the P₁₁-or-P₃₂ dedup
                    }
                    let pc = covered(&c.pattern, &sub.subgraph, self.cfg.matching);
                    if pc.nodes.iter().any(|v| !covered_now.contains(v)) {
                        covered_now.extend(pc.nodes);
                        view.patterns.push(c.pattern.clone());
                        added += 1;
                    }
                }
            }
        }

        view.explainability += sub.explainability;
        view.subgraphs.push(sub);
        self.refresh_edge_loss(view);
        Ok(added)
    }

    /// Removes a graph's explanation from the view; garbage-collects
    /// patterns that no longer cover any node of any remaining subgraph.
    /// Fails with [`MaintainError::GraphAbsent`] when the view holds no
    /// subgraph for `graph_index`.
    pub fn remove_graph(
        &self,
        view: &mut ExplanationView,
        graph_index: usize,
    ) -> Result<(), MaintainError> {
        let before = view.subgraphs.len();
        view.subgraphs.retain(|s| s.graph_index != graph_index);
        if view.subgraphs.len() == before {
            return Err(MaintainError::GraphAbsent { graph_index });
        }
        view.explainability = view.subgraphs.iter().map(|s| s.explainability).sum();

        // drop patterns with no remaining coverage contribution
        let graphs: Vec<&Graph> = view.subgraphs.iter().map(|s| &s.subgraph).collect();
        let matching = self.cfg.matching;
        view.patterns
            .retain(|p| graphs.iter().any(|sg| !covered(p, sg, matching).nodes.is_empty()));
        self.refresh_edge_loss(view);
        Ok(())
    }

    fn refresh_edge_loss(&self, view: &mut ExplanationView) {
        let graphs: Vec<&Graph> = view.subgraphs.iter().map(|s| &s.subgraph).collect();
        let (_, edge_loss) = coverage_stats(&view.patterns, &graphs, self.cfg.matching);
        view.edge_loss = edge_loss;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{trainer, GcnConfig};
    use gvex_graph::GraphDatabase;

    fn motif_graph(chain: usize) -> Graph {
        let mut b = Graph::builder(false);
        for _ in 0..chain {
            b.add_node(0, &[1.0, 0.0, 0.0]);
        }
        let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
        let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
        for v in 1..chain {
            b.add_edge(v - 1, v, 0);
        }
        b.add_edge(chain - 1, m1, 0);
        b.add_edge(m1, m2, 0);
        b.build()
    }

    fn plain_graph(chain: usize) -> Graph {
        let mut b = Graph::builder(false);
        for _ in 0..chain {
            b.add_node(0, &[1.0, 0.0, 0.0]);
        }
        for v in 1..chain {
            b.add_edge(v - 1, v, 0);
        }
        b.build()
    }

    fn setup() -> (GraphDatabase, GcnModel, Configuration) {
        let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
        for i in 0..8 {
            db.push(plain_graph(5 + i % 2), 0);
            db.push(motif_graph(4 + i % 2), 1);
        }
        let split = trainer::Split {
            train: (0..db.len()).collect(),
            val: (0..db.len()).collect(),
            test: vec![],
        };
        let gcfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
        let opts = trainer::TrainOptions {
            epochs: 80,
            lr: 0.01,
            seed: 1,
            patience: 0,
            ..Default::default()
        };
        let (model, _) = trainer::train(&db, gcfg, &split, opts);
        (db, model, Configuration::uniform(0.05, 0.3, 0.5, 0, 4))
    }

    /// ApproxGVEX's view of the motif class (label 1).
    fn motif_view(db: &GraphDatabase, model: &GcnModel, cfg: &Configuration) -> ExplanationView {
        let sess = ExplainSession::new(model, cfg.clone()).expect("valid configuration");
        let assigned: Vec<usize> = db.graphs().iter().map(|g| model.predict(g)).collect();
        let groups = db.label_groups(&assigned);
        GreedyStrategy.explain_label_group(&sess, db, 1, groups.group(1))
    }

    #[test]
    fn adding_similar_graph_needs_no_new_patterns() {
        let (db, model, cfg) = setup();
        let mut view = motif_view(&db, &model, &cfg);
        let before = view.patterns.len();

        // a new motif graph isomorphic in structure to existing ones
        let new_graph = motif_graph(4);
        let added = ViewMaintainer::new(cfg)
            .add_graph(&model, &mut view, &new_graph, 999)
            .expect("new graph explainable");
        assert_eq!(added, 0, "existing patterns should already cover the newcomer");
        assert_eq!(view.patterns.len(), before);
        assert!(view.subgraph_for(999).is_some());
    }

    #[test]
    fn wrong_label_graph_rejected() {
        let (db, model, cfg) = setup();
        let mut view = motif_view(&db, &model, &cfg);
        // a plain (label 0) graph cannot join the label-1 view
        assert_eq!(
            ViewMaintainer::new(cfg).add_graph(&model, &mut view, &plain_graph(6), 998),
            Err(MaintainError::LabelMismatch { expected: 1, predicted: 0 })
        );
    }

    #[test]
    fn maintained_view_keeps_full_coverage() {
        let (db, model, cfg) = setup();
        let mut view = motif_view(&db, &model, &cfg);
        let maintainer = ViewMaintainer::new(cfg.clone());
        maintainer.add_graph(&model, &mut view, &motif_graph(7), 777).expect("maintainable");
        for s in &view.subgraphs {
            assert!(
                crate::verify::pmatch(&view.patterns, &s.subgraph, &cfg),
                "coverage broken after maintenance (graph {})",
                s.graph_index
            );
        }
    }

    #[test]
    fn remove_graph_garbage_collects() {
        let (db, model, cfg) = setup();
        let mut view = motif_view(&db, &model, &cfg);
        let maintainer = ViewMaintainer::new(cfg);
        let total = view.subgraphs.len();
        let first = view.subgraphs[0].graph_index;
        assert_eq!(maintainer.remove_graph(&mut view, first), Ok(()));
        assert_eq!(view.subgraphs.len(), total - 1);
        assert_eq!(
            maintainer.remove_graph(&mut view, first),
            Err(MaintainError::GraphAbsent { graph_index: first }),
            "double remove"
        );
        // removing everything empties the pattern tier too
        let remaining: Vec<usize> = view.subgraphs.iter().map(|s| s.graph_index).collect();
        for gi in remaining {
            maintainer.remove_graph(&mut view, gi).expect("present");
        }
        assert!(view.subgraphs.is_empty());
        assert!(view.patterns.is_empty(), "patterns must be garbage-collected");
        assert_eq!(view.explainability, 0.0);
    }
}
