//! Node-classification explanations (Table 1's "NC" task).
//!
//! For a node-level prediction, the relevant input is the target's
//! `k`-hop receptive field; an explanation view for node `v` is a
//! consistent + counterfactual subgraph of that ego network, summarized by
//! patterns — the same two-tier structure as the graph-level case, with
//! `EVerify` swapped for per-node inference:
//!
//! * consistent: `ℳ(ego[V_s], v) = ℳ(G, v)`,
//! * counterfactual: `ℳ(ego \ (V_s ∖ {v}), v) ≠ ℳ(G, v)` — deleting the
//!   explanation's context (the target itself must survive to be
//!   classified) flips the target's label.

use crate::config::Configuration;
use crate::psum::psum;
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, NodeId};
use gvex_influence::analysis::InfluenceAnalysis;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A node-level explanation view.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeExplanationView {
    /// The explained node (id in the original graph).
    pub target: NodeId,
    /// The target's predicted class.
    pub label: usize,
    /// Selected nodes (original-graph ids, sorted; always contains
    /// `target`).
    pub nodes: Vec<NodeId>,
    /// The induced explanation subgraph.
    pub subgraph: Graph,
    /// Summarizing patterns covering the subgraph's nodes.
    pub patterns: Vec<Graph>,
    /// Whether the §2.2 consistency property holds.
    pub consistent: bool,
    /// Whether the counterfactual property holds.
    pub counterfactual: bool,
    /// `(I + γD)/|ego|` over the target's receptive field.
    pub explainability: f64,
}

/// Explains the classification of node `target` in `g` (node-level GVEX).
///
/// Works inside the target's `k`-hop ego network (`k` = the model's layer
/// count — influence beyond it is exactly zero), running the same
/// verified greedy as ApproxGVEX ([`crate::GreedyStrategy`]) with per-node inference. Returns `None`
/// for out-of-range targets or unsatisfiable lower bounds.
pub fn explain_node(
    model: &GcnModel,
    g: &Graph,
    target: NodeId,
    cfg: &Configuration,
) -> Option<NodeExplanationView> {
    if target >= g.num_nodes() {
        return None;
    }
    let label = model.predict_node(g, target);
    let bound = cfg.bound(label);

    // receptive field
    let k = model.config().layers;
    let ego_nodes = g.k_hop_neighborhood(target, k);
    let ego = g.induced_subgraph(&ego_nodes);
    let local_target = ego.from_parent(target).expect("target is in its own ego net");
    let n = ego.graph.num_nodes();
    let upper = bound.upper.min(n).max(1);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ target as u64);
    let analysis = InfluenceAnalysis::new(
        model,
        &ego.graph,
        cfg.theta,
        cfg.r,
        cfg.gamma,
        cfg.influence,
        &mut rng,
    );

    // per-node verification on the ego network, probing zero-copy views of
    // the ego graph instead of materialized subgraph clones
    let consistent_with = |sel: &[NodeId]| -> bool {
        let sub = ego.graph.view_of(sel);
        let t = sub.from_parent(local_target).expect("target always selected");
        model.predict_node(&sub, t) == label
    };
    let counterfactual_with = |sel: &[NodeId]| -> bool {
        // remove the explanation's *context*; the target must survive
        let removed: Vec<NodeId> = sel.iter().copied().filter(|&v| v != local_target).collect();
        if removed.is_empty() {
            return false;
        }
        let rest = ego.graph.view_without(&removed);
        match rest.from_parent(local_target) {
            Some(t) => model.predict_node(&rest, t) != label,
            None => true,
        }
    };

    let mut selected = vec![local_target];
    let mut in_selected = vec![false; n];
    in_selected[local_target] = true;
    let mut state = analysis.empty_state();
    analysis.add(&mut state, local_target);
    let mut is_consistent = consistent_with(&selected);
    let mut is_counterfactual = false;

    while selected.len() < upper {
        let mut cands: Vec<(f64, NodeId)> =
            (0..n).filter(|&v| !in_selected[v]).map(|v| (analysis.gain(&state, v), v)).collect();
        cands.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut chosen = None;
        let mut fallback = None;
        for &(_, v) in cands.iter().take(16) {
            selected.push(v);
            let cons = consistent_with(&selected);
            let cf = cons && counterfactual_with(&selected);
            selected.pop();
            if cons && cf {
                chosen = Some((v, true, true));
                break;
            }
            if cons && fallback.is_none() {
                fallback = Some((v, true, false));
            }
        }
        let pick = chosen.or(if !is_counterfactual { fallback } else { None });
        match pick {
            Some((v, cons, cf)) => {
                selected.push(v);
                in_selected[v] = true;
                analysis.add(&mut state, v);
                is_consistent = cons;
                is_counterfactual |= cf;
            }
            None => break,
        }
    }
    if selected.len() < bound.lower {
        return None;
    }

    selected.sort_unstable();
    let sub = ego.graph.induced_subgraph(&selected);
    let ps = psum(&[&sub.graph], &cfg.mining, cfg.matching);
    // map back to original-graph ids
    let nodes: Vec<NodeId> = selected.iter().map(|&v| ego.to_parent(v)).collect();
    Some(NodeExplanationView {
        target,
        label,
        nodes,
        subgraph: sub.graph,
        patterns: ps.patterns,
        consistent: is_consistent,
        counterfactual: is_counterfactual,
        explainability: analysis.score(&state) / n.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{train_node_classifier, GcnConfig, NodeTrainOptions};

    fn community_graph() -> (Graph, Vec<usize>) {
        let mut b = Graph::builder(false);
        let mut labels = Vec::new();
        for c in 0..2usize {
            for i in 0..8 {
                let f = if c == 0 { [1.0, 0.1 * i as f32] } else { [0.0, 1.0] };
                b.add_node(c as u32, &f);
                labels.push(c);
            }
        }
        for c in 0..2 {
            let base = c * 8;
            for i in 0..8 {
                b.add_edge(base + i, base + (i + 1) % 8, 0);
                if i % 2 == 0 {
                    b.add_edge(base + i, base + (i + 3) % 8, 0);
                }
            }
        }
        b.add_edge(0, 8, 0);
        (b.build(), labels)
    }

    fn trained() -> (Graph, Vec<usize>, GcnModel) {
        let (g, labels) = community_graph();
        let cfg = GcnConfig { input_dim: 2, hidden: 8, layers: 2, num_classes: 2 };
        let nodes: Vec<usize> = (0..16).collect();
        let (model, acc) = train_node_classifier(
            &g,
            &labels,
            &nodes,
            cfg,
            NodeTrainOptions { epochs: 200, lr: 0.02, seed: 1 },
        );
        assert!(acc >= 0.9);
        (g, labels, model)
    }

    #[test]
    fn node_explanation_contains_target_and_respects_bound() {
        let (g, _, model) = trained();
        let cfg = Configuration::uniform(0.08, 0.25, 0.5, 0, 5);
        let view = explain_node(&model, &g, 3, &cfg).expect("explanation exists");
        assert!(view.nodes.contains(&3));
        assert!(view.nodes.len() <= 5);
        assert_eq!(view.label, model.predict_node(&g, 3));
        assert!(!view.patterns.is_empty());
    }

    #[test]
    fn node_explanation_stays_in_receptive_field() {
        let (g, _, model) = trained();
        let cfg = Configuration::uniform(0.08, 0.25, 0.5, 0, 8);
        let view = explain_node(&model, &g, 12, &cfg).unwrap();
        let ego = g.k_hop_neighborhood(12, model.config().layers);
        assert!(view.nodes.iter().all(|v| ego.contains(v)));
    }

    #[test]
    fn most_node_explanations_consistent() {
        let (g, _, model) = trained();
        let cfg = Configuration::uniform(0.08, 0.25, 0.5, 0, 6);
        let mut consistent = 0;
        let mut total = 0;
        for v in 0..g.num_nodes() {
            if let Some(view) = explain_node(&model, &g, v, &cfg) {
                total += 1;
                if view.consistent {
                    consistent += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(consistent * 2 >= total, "{consistent}/{total} consistent");
    }

    #[test]
    fn out_of_range_target_is_none() {
        let (g, _, model) = trained();
        let cfg = Configuration::uniform(0.08, 0.25, 0.5, 0, 5);
        assert!(explain_node(&model, &g, 999, &cfg).is_none());
    }

    #[test]
    fn patterns_cover_node_explanation() {
        let (g, _, model) = trained();
        let cfg = Configuration::uniform(0.08, 0.25, 0.5, 0, 6);
        let view = explain_node(&model, &g, 5, &cfg).unwrap();
        let cov = gvex_iso::coverage::covered_by_set(&view.patterns, &view.subgraph, cfg.matching);
        assert!(cov.covers_all_nodes(&view.subgraph));
    }
}
