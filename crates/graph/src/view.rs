//! Borrowed, zero-copy views over a parent graph's node subset.
//!
//! The explanation hot loops repeatedly score candidate selections by
//! running inference on the induced subgraph `G[Vs]` and its complement
//! `G \ Gs`. Materializing each of those as an owned [`Graph`] copies the
//! adjacency and the feature matrix per candidate; a [`GraphRef`] instead
//! carries the parent's [`CsrGraph`] plus an id remapping (two `Vec`s of
//! node ids), and consumers — GCN propagation, the Jacobian entry points,
//! the match targets — iterate the parent's adjacency through the mapping.
//!
//! The parent is always a `CsrGraph`, the one graph layout: an owned
//! [`Graph`] lends its columns ([`Graph::csr`]) and a memory-mapped `.gvex`
//! store lends its pages, and both run through the same accessors.
//!
//! Ownership rules:
//!
//! * a `GraphRef` never outlives its parent's columns (`'a` is that borrow:
//!   an owned graph, or the mapped bytes of a store);
//! * the node table is *interned at construction*: duplicates collapse to
//!   their first occurrence and the selection order defines the view's node
//!   ids, exactly like [`Graph::induced_subgraph`];
//! * [`GraphRef::to_graph`] and [`Graph::induced_subgraph`] share one
//!   materialization, so a materialized view is the owned subgraph it
//!   replaces, column for column.

use crate::csr::{CsrGraph, CsrNeighbors};
use crate::graph::{EdgeTypeId, Graph, InducedSubgraph, NodeId, NodeTypeId};
use gvex_linalg::Matrix;

/// A borrowed view of a (sub)set of a parent graph's nodes, with edges
/// restricted to the retained nodes. Cheap to construct and clone: the
/// full-graph view holds nothing but the parent's columns, and a subset
/// view adds two id-mapping vectors.
#[derive(Clone, Debug)]
pub struct GraphRef<'a> {
    parent: CsrGraph<'a>,
    sel: Selection,
}

#[derive(Clone, Debug)]
enum Selection {
    /// Every node of the parent, ids unchanged.
    Full,
    /// A node subset; selection order defines the view's node ids.
    Induced {
        /// `old_of_new[new_id] = old_id` in the parent graph.
        old_of_new: Vec<NodeId>,
        /// `new_of_old[old_id] = new_id`, or `usize::MAX` for dropped nodes.
        new_of_old: Vec<NodeId>,
    },
}

impl Selection {
    /// Interns `nodes` against a parent of `parent_nodes` nodes:
    /// duplicates collapse to their first occurrence, order defines the
    /// new ids.
    fn induced(parent_nodes: usize, nodes: &[NodeId]) -> Self {
        let mut old_of_new = Vec::with_capacity(nodes.len());
        let mut new_of_old = vec![usize::MAX; parent_nodes];
        for &v in nodes {
            assert!(v < parent_nodes, "node {v} out of range");
            if new_of_old[v] == usize::MAX {
                new_of_old[v] = old_of_new.len();
                old_of_new.push(v);
            }
        }
        Selection::Induced { old_of_new, new_of_old }
    }

    /// Every parent node *not* in `removed`, in ascending id order.
    fn complement(parent_nodes: usize, removed: &[NodeId]) -> Self {
        let mut new_of_old = vec![0usize; parent_nodes];
        for &v in removed {
            assert!(v < parent_nodes, "node {v} out of range");
            new_of_old[v] = usize::MAX;
        }
        let mut old_of_new = Vec::with_capacity(parent_nodes.saturating_sub(removed.len()));
        for (old, slot) in new_of_old.iter_mut().enumerate() {
            if *slot != usize::MAX {
                *slot = old_of_new.len();
                old_of_new.push(old);
            }
        }
        Selection::Induced { old_of_new, new_of_old }
    }
}

impl<'a> GraphRef<'a> {
    /// The full-graph view (identity mapping, allocation-free) of an owned
    /// graph or a store's columns.
    pub fn full(parent: impl Into<CsrGraph<'a>>) -> Self {
        Self { parent: parent.into(), sel: Selection::Full }
    }

    /// The view induced by `nodes` (order defines the view's ids;
    /// duplicates are ignored after the first occurrence).
    pub fn induced(parent: impl Into<CsrGraph<'a>>, nodes: &[NodeId]) -> Self {
        let parent = parent.into();
        Self { sel: Selection::induced(parent.num_nodes(), nodes), parent }
    }

    /// The complement view `G \ Gs`: every node *not* in `removed`, in
    /// ascending id order (the counterfactual test input, mirroring
    /// [`Graph::remove_nodes`]).
    pub fn complement(parent: impl Into<CsrGraph<'a>>, removed: &[NodeId]) -> Self {
        let parent = parent.into();
        Self { sel: Selection::complement(parent.num_nodes(), removed), parent }
    }

    /// Runs `f` over the view as one `CsrGraph`: a full view lends its
    /// parent's columns, a subset view is materialized once for the call.
    /// For consumers that need the view's own sorted adjacency (VF2 match
    /// targets, random walks).
    pub fn with_csr<R>(&self, f: impl FnOnce(CsrGraph<'_>) -> R) -> R {
        match self.sel {
            Selection::Full => f(self.parent),
            Selection::Induced { .. } => f(self.to_graph().csr()),
        }
    }

    /// Number of nodes in the view.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        match &self.sel {
            Selection::Full => self.parent.num_nodes(),
            Selection::Induced { old_of_new, .. } => old_of_new.len(),
        }
    }

    /// True when the view has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// Whether edges are directed (inherited from the parent).
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.parent.is_directed()
    }

    /// Feature dimensionality `D` (inherited from the parent).
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.parent.feature_dim()
    }

    /// Maps a view node id to the parent graph.
    #[inline]
    pub fn to_parent(&self, v: NodeId) -> NodeId {
        match &self.sel {
            Selection::Full => v,
            Selection::Induced { old_of_new, .. } => old_of_new[v],
        }
    }

    /// Maps a parent node id into the view, if retained.
    #[inline]
    pub fn from_parent(&self, old: NodeId) -> Option<NodeId> {
        match &self.sel {
            Selection::Full => (old < self.parent.num_nodes()).then_some(old),
            Selection::Induced { new_of_old, .. } => match new_of_old.get(old) {
                Some(&v) if v != usize::MAX => Some(v),
                _ => None,
            },
        }
    }

    /// The type `L(v)` of a view node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.parent.node_type(self.to_parent(v))
    }

    /// The feature row of a view node (borrowed from the parent's storage).
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> &'a [f32] {
        self.parent.feature_row(self.to_parent(v))
    }

    /// Out-neighbors of view node `v` in view id space, with edge types.
    /// For subset views, parent neighbors outside the view are skipped;
    /// order follows the parent's (old-id-sorted) adjacency.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors { iter: self.parent.neighbors(self.to_parent(v)), view: self }
    }

    /// In-neighbors of view node `v` in view id space, with edge types.
    pub fn in_neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors { iter: self.parent.in_neighbors(self.to_parent(v)), view: self }
    }

    /// Returns the type of the edge `u → v` (view ids) if present.
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        self.parent.edge_type(self.to_parent(u), self.to_parent(v))
    }

    /// The view's feature matrix as an owned `|view| × D` gather of the
    /// parent rows (one copy of the parent's column for the full view).
    /// Row contents are bitwise copies, so inference over the view
    /// reproduces inference over the materialized subgraph exactly.
    pub fn features_matrix(&self) -> Matrix {
        match &self.sel {
            Selection::Full => Matrix::from_vec(
                self.num_nodes(),
                self.feature_dim(),
                self.parent.features().to_vec(),
            ),
            Selection::Induced { old_of_new, .. } => {
                let mut m = Matrix::zeros(old_of_new.len(), self.feature_dim());
                for (new, &old) in old_of_new.iter().enumerate() {
                    m.set_row(new, self.parent.feature_row(old));
                }
                m
            }
        }
    }

    /// Materializes the view as an owned [`Graph`]: a column copy for the
    /// full view, the shared induced-subgraph construction otherwise.
    pub fn to_graph(&self) -> Graph {
        match &self.sel {
            Selection::Full => self.parent.to_graph(),
            Selection::Induced { old_of_new, new_of_old } => {
                self.parent.induced_graph(old_of_new, new_of_old)
            }
        }
    }

    /// Materializes a subset view together with its id mappings.
    fn into_induced(self) -> InducedSubgraph {
        let graph = self.to_graph();
        let Selection::Induced { old_of_new, new_of_old } = self.sel else {
            unreachable!("only subset views carry id mappings")
        };
        InducedSubgraph { graph, old_of_new, new_of_old }
    }
}

impl<'a> From<&'a Graph> for GraphRef<'a> {
    fn from(g: &'a Graph) -> Self {
        GraphRef::full(g)
    }
}

impl<'a> From<CsrGraph<'a>> for GraphRef<'a> {
    fn from(c: CsrGraph<'a>) -> Self {
        GraphRef::full(c)
    }
}

impl<'a> From<&GraphRef<'a>> for GraphRef<'a> {
    fn from(v: &GraphRef<'a>) -> Self {
        v.clone()
    }
}

/// Iterator over a view node's neighbors, filtering and remapping the
/// parent adjacency on the fly.
pub struct Neighbors<'v> {
    iter: CsrNeighbors<'v>,
    view: &'v GraphRef<'v>,
}

impl Iterator for Neighbors<'_> {
    type Item = (NodeId, EdgeTypeId);

    fn next(&mut self) -> Option<Self::Item> {
        for (old, t) in self.iter.by_ref() {
            if let Some(new) = self.view.from_parent(old) {
                return Some((new, t));
            }
        }
        None
    }
}

impl Graph {
    /// The full-graph zero-copy view of `self`.
    pub fn view(&self) -> GraphRef<'_> {
        GraphRef::full(self)
    }

    /// The zero-copy view induced by `nodes` (see [`GraphRef::induced`]).
    pub fn view_of(&self, nodes: &[NodeId]) -> GraphRef<'_> {
        GraphRef::induced(self, nodes)
    }

    /// The zero-copy complement view `G \ Gs` (see [`GraphRef::complement`]).
    pub fn view_without(&self, removed: &[NodeId]) -> GraphRef<'_> {
        GraphRef::complement(self, removed)
    }

    /// The node-induced subgraph on `nodes` (order defines the new ids).
    ///
    /// Duplicates in `nodes` are ignored after the first occurrence. The
    /// result keeps features and all edges between retained nodes, and
    /// records the old↔new id mapping (needed to map explanations back onto
    /// the original graph).
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> InducedSubgraph {
        self.view_of(nodes).into_induced()
    }

    /// The remainder `G \ Gs`: the subgraph induced by all nodes *not* in
    /// `removed` (the paper's counterfactual test input, §2.2).
    pub fn remove_nodes(&self, removed: &[NodeId]) -> InducedSubgraph {
        self.view_without(removed).into_induced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrColumns;

    fn diamond() -> Graph {
        // 0-1, 0-2, 1-3, 2-3, types 0,1,1,0
        let mut b = Graph::builder(false);
        b.add_node(0, &[1.0, 0.0]);
        b.add_node(1, &[0.0, 1.0]);
        b.add_node(1, &[0.5, 0.5]);
        b.add_node(0, &[2.0, 2.0]);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 0);
        b.add_edge(2, 3, 1);
        b.build()
    }

    /// The oracle the shared materialization is pinned against: rebuild
    /// the induced subgraph edge by edge through the builder.
    fn rebuilt(g: &Graph, nodes: &[NodeId]) -> Graph {
        let sub = g.induced_subgraph(nodes);
        let mut b = Graph::builder(g.is_directed());
        for &old in &sub.old_of_new {
            b.add_node(g.node_type(old), g.features().row(old));
        }
        for (u, v, t) in g.edges() {
            if let (Some(nu), Some(nv)) = (sub.from_parent(u), sub.from_parent(v)) {
                b.add_edge(nu, nv, t);
            }
        }
        b.build()
    }

    #[test]
    fn full_view_is_identity() {
        let g = diamond();
        let v = g.view();
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.to_parent(2), 2);
        assert_eq!(v.from_parent(3), Some(3));
        assert!(v.neighbors(0).eq(g.neighbors(0)));
        assert_eq!(v.features_matrix(), g.features().clone());
        assert_eq!(v.to_graph(), g);
    }

    #[test]
    fn induced_view_matches_induced_subgraph() {
        let g = diamond();
        for sel in [vec![1, 3, 2], vec![0], vec![3, 0], vec![1, 1, 2]] {
            let view = g.view_of(&sel);
            let sub = g.induced_subgraph(&sel);
            assert_eq!(view.num_nodes(), sub.graph.num_nodes());
            assert_eq!(view.to_graph(), sub.graph, "materialized view differs for {sel:?}");
            assert_eq!(sub.graph, rebuilt(&g, &sel), "builder oracle differs for {sel:?}");
            for v in 0..view.num_nodes() {
                assert_eq!(view.node_type(v), sub.graph.node_type(v));
                assert_eq!(view.feature_row(v), sub.graph.features().row(v));
                let mut nbrs: Vec<_> = view.neighbors(v).collect();
                nbrs.sort_unstable();
                assert!(nbrs.into_iter().eq(sub.graph.neighbors(v)), "node {v} of {sel:?}");
            }
        }
    }

    #[test]
    fn complement_view_matches_remove_nodes() {
        let g = diamond();
        for removed in [vec![], vec![1], vec![0, 3], vec![0, 1, 2, 3]] {
            let view = g.view_without(&removed);
            let rest = g.remove_nodes(&removed);
            assert_eq!(view.to_graph(), rest.graph, "complement differs for {removed:?}");
            assert_eq!(
                (0..view.num_nodes()).map(|v| view.to_parent(v)).collect::<Vec<_>>(),
                rest.old_of_new
            );
        }
    }

    #[test]
    fn edge_type_goes_through_parent() {
        let g = diamond();
        let v = g.view_of(&[0, 2]);
        assert_eq!(v.edge_type(0, 1), Some(1)); // old edge 0-2 has type 1
        assert_eq!(v.edge_type(1, 0), Some(1));
        let lone = g.view_of(&[0, 3]);
        assert_eq!(lone.edge_type(0, 1), None); // 0-3 not adjacent
    }

    #[test]
    fn with_csr_lends_full_views_and_materializes_subsets() {
        let g = diamond();
        let v: GraphRef = (&g).into();
        let lent = v.with_csr(|c| c.features().as_ptr());
        assert_eq!(lent, g.features().as_slice().as_ptr(), "full view must not copy");
        let sub = g.view_of(&[3, 1]);
        assert_eq!(sub.with_csr(|c| c.to_graph()), g.induced_subgraph(&[3, 1]).graph);
    }

    #[test]
    fn empty_selection_is_well_defined() {
        let g = diamond();
        let v = g.view_of(&[]);
        assert!(v.is_empty());
        assert_eq!(v.to_graph().num_nodes(), 0);
        assert_eq!(v.features_matrix().rows(), 0);
    }

    /// Views over a store's columns and over the owned graph agree on
    /// full, induced, and complement selections.
    #[test]
    fn database_columns_serve_the_same_views() {
        let g = diamond();
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&g);
        let csr = cols.graph(0);

        let full: GraphRef = csr.into();
        assert_eq!(full.to_graph(), g);
        assert_eq!(full.features_matrix(), g.features().clone());
        for sel in [vec![1, 3, 2], vec![0], vec![3, 0]] {
            let over_csr = GraphRef::induced(csr, &sel);
            assert_eq!(over_csr.to_graph(), g.induced_subgraph(&sel).graph, "selection {sel:?}");
            assert_eq!(GraphRef::complement(csr, &sel).to_graph(), g.remove_nodes(&sel).graph);
        }
    }
}
