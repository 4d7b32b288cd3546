//! A uniform interface over all explanation methods.
//!
//! The evaluation (§6) compares GVEX against four baselines on per-graph
//! explanation subgraphs. Every method — GVEX's two algorithms and each
//! baseline — implements [`Explainer`], so the metric and benchmark code is
//! written once. GVEX's algorithms join through [`GvexExplainer`], which
//! runs any [`SelectionStrategy`] under a configuration.

use crate::config::Configuration;
use crate::session::{ExplainSession, SelectionStrategy};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, NodeId};

/// A per-graph explanation: the selected node set (inducing the explanation
/// subgraph) in the input graph's id space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeExplanation {
    /// Selected nodes, sorted ascending.
    pub nodes: Vec<NodeId>,
}

impl NodeExplanation {
    /// Creates an explanation from (possibly unsorted) node ids.
    pub fn new(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        Self { nodes }
    }

    /// Number of selected nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The induced explanation subgraph.
    pub fn subgraph(&self, g: &Graph) -> Graph {
        g.induced_subgraph(&self.nodes).graph
    }

    /// The complement `G \ G_s` used by the counterfactual/fidelity checks.
    pub fn complement(&self, g: &Graph) -> Graph {
        g.remove_nodes(&self.nodes).graph
    }
}

/// Anything that can explain a single graph's classification by selecting
/// an important node subset of at most `max_nodes` nodes.
pub trait Explainer {
    /// Short method name used in result tables ("AG", "GE", "SX", …).
    fn name(&self) -> &'static str;

    /// Explains why `model` classifies `g` as it does, selecting at most
    /// `max_nodes` nodes.
    fn explain(&self, model: &GcnModel, g: &Graph, max_nodes: usize) -> NodeExplanation;
}

/// A GVEX [`SelectionStrategy`] under a configuration, as an
/// [`Explainer`]: `GvexExplainer::new(GreedyStrategy, cfg)` is ApproxGVEX,
/// `GvexExplainer::new(StreamStrategy, cfg)` is StreamGVEX. Each call caps
/// the configuration's coverage bounds at `max_nodes` and explains the
/// graph through a one-shot [`ExplainSession`]; the method name is the
/// strategy's.
#[derive(Clone, Debug)]
pub struct GvexExplainer<S> {
    strategy: S,
    cfg: Configuration,
}

impl<S: SelectionStrategy> GvexExplainer<S> {
    /// Pairs a strategy with the configuration it runs under.
    pub fn new(strategy: S, cfg: Configuration) -> Self {
        Self { strategy, cfg }
    }
}

impl<S: SelectionStrategy> Explainer for GvexExplainer<S> {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn explain(&self, model: &GcnModel, g: &Graph, max_nodes: usize) -> NodeExplanation {
        if max_nodes == 0 {
            return NodeExplanation::default();
        }
        let mut cfg = self.cfg.clone();
        for b in &mut cfg.bounds {
            b.upper = b.upper.min(max_nodes);
            b.lower = b.lower.min(b.upper);
        }
        let sess = ExplainSession::new(model, cfg).unwrap_or_else(|e| panic!("{e}"));
        match self.strategy.explain_graph(&sess, g, 0) {
            Some(sub) => NodeExplanation::new(sub.nodes),
            None => NodeExplanation::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyStrategy, StreamStrategy};
    use gvex_gnn::GcnConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_graph() -> Graph {
        let mut b = Graph::builder(false);
        for i in 0..5 {
            b.add_node(0, &[i as f32, 1.0]);
        }
        for i in 1..5 {
            b.add_edge(i - 1, i, 0);
        }
        b.build()
    }

    fn model() -> GcnModel {
        GcnModel::new(
            GcnConfig { input_dim: 2, hidden: 4, layers: 2, num_classes: 2 },
            &mut ChaCha8Rng::seed_from_u64(0),
        )
    }

    #[test]
    fn node_explanation_normalizes() {
        let e = NodeExplanation::new(vec![3, 1, 3, 2]);
        assert_eq!(e.nodes, vec![1, 2, 3]);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn subgraph_and_complement_partition_nodes() {
        let g = tiny_graph();
        let e = NodeExplanation::new(vec![0, 1]);
        assert_eq!(e.subgraph(&g).num_nodes() + e.complement(&g).num_nodes(), 5);
    }

    #[test]
    fn trait_impls_respect_max_nodes() {
        let g = tiny_graph();
        let m = model();
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 10);
        let ag: &dyn Explainer = &GvexExplainer::new(GreedyStrategy, cfg.clone());
        let sg: &dyn Explainer = &GvexExplainer::new(StreamStrategy, cfg);
        for ex in [ag, sg] {
            let res = ex.explain(&m, &g, 2);
            assert!(res.len() <= 2, "{} exceeded max_nodes", ex.name());
        }
    }

    #[test]
    fn adapter_names_are_the_paper_method_names() {
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 10);
        assert_eq!(GvexExplainer::new(GreedyStrategy, cfg.clone()).name(), "ApproxGVEX");
        assert_eq!(GvexExplainer::new(StreamStrategy, cfg).name(), "StreamGVEX");
    }
}
