//! Node and edge coverage of graphs by patterns (§2.1).
//!
//! A pattern `P` *covers* a node `v` (edge `e`) of `G` if some matching maps
//! a pattern node (edge) onto it. Coverage drives:
//!
//! * constraint **C1** — patterns must cover all nodes of the explanation
//!   subgraphs (the definition of a graph view),
//! * constraint **C3** — the configurable coverage range `[b_l, u_l]`,
//! * the `Psum` weights `w(P) = 1 − |P_{E_S}|/|E_S|` (edge-coverage loss).
//!
//! Everything here covers one target on the calling thread; callers that
//! cover many targets (`gvex_core::psum::coverage_stats`) fan them out
//! through `gvex_core::parallel`.

use crate::vf2::{for_each_embedding, MatchOptions};
use gvex_graph::{Graph, NodeId};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Which nodes/edges of a target graph a pattern (set) covers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Covered node ids.
    pub nodes: HashSet<NodeId>,
    /// Covered edges as canonical `(min, max)` pairs for undirected graphs,
    /// `(src, dst)` for directed ones.
    pub edges: HashSet<(NodeId, NodeId)>,
}

impl Coverage {
    /// Merges another coverage into this one.
    pub fn union_with(&mut self, other: &Coverage) {
        self.nodes.extend(other.nodes.iter().copied());
        self.edges.extend(other.edges.iter().copied());
    }

    /// True when every node of `g` is covered.
    pub fn covers_all_nodes(&self, g: &Graph) -> bool {
        self.nodes.len() == g.num_nodes()
    }

    /// Fraction of `g`'s edges covered (1.0 for an edgeless graph).
    pub fn edge_fraction(&self, g: &Graph) -> f64 {
        if g.num_edges() == 0 {
            return 1.0;
        }
        self.edges.len() as f64 / g.num_edges() as f64
    }
}

/// The key under which an edge is recorded: `(min, max)` for undirected
/// graphs, `(src, dst)` for directed ones. Public so consumers accumulating
/// coverage from raw embeddings (e.g. `Psum`'s embedding-reuse path) agree
/// with [`covered`] on edge identity.
pub fn canonical_edge(g: &Graph, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if g.is_directed() || u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Computes the nodes and edges of `target` covered by `pattern`.
///
/// Enumerates embeddings (bounded by `opts.max_embeddings`) and stops early
/// once every node and edge of `target` is covered.
pub fn covered(pattern: &Graph, target: &Graph, opts: MatchOptions) -> Coverage {
    let mut cov = Coverage::default();
    let total_nodes = target.num_nodes();
    let total_edges = target.num_edges();
    for_each_embedding(pattern, target, opts, |map| {
        for &t in map {
            cov.nodes.insert(t);
        }
        for (pu, pv, _) in pattern.edges() {
            cov.edges.insert(canonical_edge(target, map[pu], map[pv]));
        }
        if cov.nodes.len() == total_nodes && cov.edges.len() == total_edges {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    cov
}

/// Coverage of `target` by a *set* of patterns (union of per-pattern
/// coverage), as required by the graph-view definition (§2.1).
pub fn covered_by_set(patterns: &[Graph], target: &Graph, opts: MatchOptions) -> Coverage {
    gvex_obs::span!("iso.pmatch");
    let mut cov = Coverage::default();
    for p in patterns {
        cov.union_with(&covered(p, target, opts));
        if cov.nodes.len() == target.num_nodes() && cov.edges.len() == target.num_edges() {
            break;
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(types: &[u32], edges: &[(usize, usize)]) -> Graph {
        let mut b = Graph::builder(false);
        for &t in types {
            b.add_node(t, &[]);
        }
        for &(u, v) in edges {
            b.add_edge(u, v, 0);
        }
        b.build()
    }

    #[test]
    fn single_node_pattern_covers_typed_nodes_only() {
        let pat = g(&[1], &[]);
        let target = g(&[1, 0, 1], &[(0, 1), (1, 2)]);
        let cov = covered(&pat, &target, MatchOptions::default());
        assert_eq!(cov.nodes, HashSet::from([0, 2]));
        assert!(cov.edges.is_empty());
        assert!(!cov.covers_all_nodes(&target));
    }

    #[test]
    fn edge_pattern_covers_edges() {
        let pat = g(&[0, 0], &[(0, 1)]);
        let path = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let cov = covered(&pat, &path, MatchOptions::default());
        assert!(cov.covers_all_nodes(&path));
        assert_eq!(cov.edges, HashSet::from([(0, 1), (1, 2)]));
        assert_eq!(cov.edge_fraction(&path), 1.0);
    }

    #[test]
    fn pattern_set_union_covers_mixed_types() {
        let pat_a = g(&[0], &[]);
        let pat_b = g(&[1], &[]);
        let target = g(&[0, 1], &[(0, 1)]);
        let cov = covered_by_set(&[pat_a.clone(), pat_b], &target, MatchOptions::default());
        assert!(cov.covers_all_nodes(&target));
        // node patterns cover no edges
        assert_eq!(cov.edge_fraction(&target), 0.0);
        let partial = covered_by_set(&[pat_a], &target, MatchOptions::default());
        assert!(!partial.covers_all_nodes(&target));
    }

    #[test]
    fn edgeless_graph_edge_fraction_is_one() {
        let target = g(&[0], &[]);
        let cov = Coverage::default();
        assert_eq!(cov.edge_fraction(&target), 1.0);
    }

    #[test]
    fn early_stop_on_full_coverage_does_not_miss() {
        // big symmetric target: coverage should still be complete
        let pat = g(&[0, 0], &[(0, 1)]);
        let mut edges = Vec::new();
        for i in 0..10 {
            edges.push((i, (i + 1) % 10));
        }
        let ring = g(&[0; 10], &edges);
        let cov = covered(&pat, &ring, MatchOptions::default());
        assert!(cov.covers_all_nodes(&ring));
        assert_eq!(cov.edges.len(), 10);
    }
}
