//! Compressed sparse rows over flat columns: the one graph layout.
//!
//! Every graph is stored as the columns the `.gvex` store (crate
//! `gvex-store`) writes: node types, a row-major feature matrix, and CSR
//! adjacency (`indptr` / `targets` / `etypes`), plus in-direction arrays
//! only for directed graphs. An owned [`Graph`] holds one graph's columns;
//! [`CsrColumns`] holds a whole database's back to back, exactly as the
//! store lays them out. [`CsrGraph`] is the borrowed view over either — a
//! handful of pointer/length pairs, never a copy — and the one place the
//! read accessors (neighbors, degrees, edge lookups) are implemented:
//! [`Graph::csr`] lends an owned graph's columns, and the store lends its
//! mapped pages.
//!
//! Moving a graph between an owned `Graph` and database-wide columns copies
//! columns and rebases `indptr` ([`CsrColumns::push`],
//! [`CsrGraph::to_graph`]); nothing is re-sorted, so a round trip returns
//! the graph that was written, column for column.
//!
//! Invariants (the builder and `Graph`'s decoder establish them; the store
//! validates lengths and offsets at open):
//!
//! * `indptr` has `num_nodes + 1` non-decreasing entries, and
//!   `indptr[i] - indptr[0]` indexes into `targets` / `etypes`;
//! * `targets` holds *graph-local* node ids `< num_nodes`, strictly
//!   increasing within each node's range, never the node itself;
//! * the in-direction arrays are the transpose of the out-direction ones;
//!   for undirected graphs they alias them;
//! * `features.len() == num_nodes * feature_dim`.

use crate::graph::{EdgeTypeId, Graph, NodeId, NodeTypeId};
use gvex_linalg::Matrix;

/// One direction of CSR adjacency: `indptr` windows into parallel
/// `targets` / `etypes` arrays. `indptr` values may be *global* (file-wide)
/// edge offsets; the slice's first entry is the base the local ranges are
/// measured from, so a per-graph view is three subslices and no arithmetic
/// at construction time.
#[derive(Clone, Copy, Debug)]
pub struct CsrAdjacency<'a> {
    /// `num_nodes + 1` non-decreasing edge offsets.
    pub indptr: &'a [u64],
    /// Neighbor node ids (graph-local), concatenated per node.
    pub targets: &'a [u32],
    /// Edge type of each target, parallel to `targets`.
    pub etypes: &'a [u32],
}

impl<'a> CsrAdjacency<'a> {
    /// The `targets` / `etypes` index range of `v`'s row.
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let base = self.indptr[0];
        (self.indptr[v] - base) as usize..(self.indptr[v + 1] - base) as usize
    }

    /// Neighbor ids and edge types of `v` as parallel slices.
    #[inline]
    fn row(&self, v: NodeId) -> (&'a [u32], &'a [u32]) {
        let r = self.range(v);
        (&self.targets[r.clone()], &self.etypes[r])
    }
}

/// One direction of a single graph's owned adjacency, `indptr` from 0:
/// the storage behind [`Graph`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AdjColumns {
    pub(crate) indptr: Vec<u64>,
    pub(crate) targets: Vec<u32>,
    pub(crate) etypes: Vec<u32>,
}

impl AdjColumns {
    /// No rows yet: `indptr` holds only its leading 0.
    pub(crate) fn new() -> Self {
        Self { indptr: vec![0], targets: Vec::new(), etypes: Vec::new() }
    }

    /// Rows for `n` nodes from `(source, target, type)` triples sorted by
    /// source, then target.
    pub(crate) fn from_sorted(n: usize, entries: &[(NodeId, NodeId, EdgeTypeId)]) -> Self {
        let mut cols = Self::new();
        let mut at = 0;
        for u in 0..n {
            while at < entries.len() && entries[at].0 == u {
                cols.targets.push(entries[at].1 as u32);
                cols.etypes.push(entries[at].2);
                at += 1;
            }
            cols.indptr.push(at as u64);
        }
        cols
    }

    /// The transpose over `n` nodes (the in-rows of these out-rows); each
    /// row comes out sorted by source.
    pub(crate) fn transpose(&self, n: usize) -> Self {
        let mut indptr = vec![0u64; n + 1];
        for &v in &self.targets {
            indptr[v as usize + 1] += 1;
        }
        for v in 0..n {
            indptr[v + 1] += indptr[v];
        }
        let mut next: Vec<usize> = indptr[..n].iter().map(|&p| p as usize).collect();
        let mut targets = vec![0; self.targets.len()];
        let mut etypes = vec![0; self.targets.len()];
        for u in 0..n {
            for i in self.indptr[u] as usize..self.indptr[u + 1] as usize {
                let slot = &mut next[self.targets[i] as usize];
                targets[*slot] = u as u32;
                etypes[*slot] = self.etypes[i];
                *slot += 1;
            }
        }
        Self { indptr, targets, etypes }
    }

    /// The rows of `old_of_new`'s nodes in `adj`, keeping only neighbors
    /// `new_of_old` retains, renumbered and re-sorted by new id.
    fn induced(adj: CsrAdjacency<'_>, old_of_new: &[NodeId], new_of_old: &[NodeId]) -> Self {
        let mut cols = Self::new();
        let mut row: Vec<(u32, u32)> = Vec::new();
        for &old in old_of_new {
            let (targets, etypes) = adj.row(old);
            row.clear();
            for (&v, &t) in targets.iter().zip(etypes) {
                let new = new_of_old[v as usize];
                if new != usize::MAX {
                    row.push((new as u32, t));
                }
            }
            row.sort_unstable();
            cols.targets.extend(row.iter().map(|&(v, _)| v));
            cols.etypes.extend(row.iter().map(|&(_, t)| t));
            cols.indptr.push(cols.targets.len() as u64);
        }
        cols
    }

    /// The borrowed view of these rows.
    #[inline]
    pub(crate) fn as_csr(&self) -> CsrAdjacency<'_> {
        CsrAdjacency { indptr: &self.indptr, targets: &self.targets, etypes: &self.etypes }
    }
}

/// Appends `adj`'s rows to flat CSR arrays whose `indptr` already holds
/// its leading entry, rebasing the offsets onto the arrays' end.
fn append(
    indptr: &mut Vec<u64>,
    targets: &mut Vec<u32>,
    etypes: &mut Vec<u32>,
    adj: CsrAdjacency<'_>,
) {
    let (base, end) = (adj.indptr[0], targets.len() as u64);
    indptr.extend(adj.indptr[1..].iter().map(|&p| p - base + end));
    targets.extend_from_slice(adj.targets);
    etypes.extend_from_slice(adj.etypes);
}

/// A borrowed CSR graph: every field is a slice into storage owned
/// elsewhere (an owned [`Graph`] or a memory-mapped `.gvex` file). `Copy` —
/// passing one around costs a few pointer/length pairs.
#[derive(Clone, Copy, Debug)]
pub struct CsrGraph<'a> {
    pub(crate) directed: bool,
    pub(crate) feature_dim: usize,
    pub(crate) node_types: &'a [NodeTypeId],
    /// Row-major `num_nodes × feature_dim` feature matrix.
    pub(crate) features: &'a [f32],
    pub(crate) out: CsrAdjacency<'a>,
    /// Aliases `out` for undirected graphs.
    pub(crate) inn: CsrAdjacency<'a>,
}

impl<'a> CsrGraph<'a> {
    /// Assembles a borrowed graph from raw columnar slices.
    ///
    /// # Panics
    /// If the slice lengths are mutually inconsistent (`indptr` length,
    /// feature matrix size, targets/etypes parallelism). Deeper properties
    /// (sortedness, target range) are the storage layer's responsibility.
    pub fn new(
        directed: bool,
        node_types: &'a [NodeTypeId],
        features: &'a [f32],
        feature_dim: usize,
        out: CsrAdjacency<'a>,
        inn: CsrAdjacency<'a>,
    ) -> Self {
        let n = node_types.len();
        assert_eq!(out.indptr.len(), n + 1, "out indptr must have n+1 entries");
        assert_eq!(inn.indptr.len(), n + 1, "in indptr must have n+1 entries");
        assert_eq!(out.targets.len(), out.etypes.len(), "targets/etypes must be parallel");
        assert_eq!(inn.targets.len(), inn.etypes.len(), "targets/etypes must be parallel");
        assert_eq!(features.len(), n * feature_dim, "feature matrix size mismatch");
        Self { directed, feature_dim, node_types, features, out, inn }
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edges `|E|` (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.out.targets.len()
        } else {
            self.out.targets.len() / 2
        }
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_types.is_empty()
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The type `L(v)` of a node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v]
    }

    /// All node types, indexed by node id.
    #[inline]
    pub fn node_types(&self) -> &'a [NodeTypeId] {
        self.node_types
    }

    /// The whole feature matrix as one row-major slice.
    #[inline]
    pub fn features(&self) -> &'a [f32] {
        self.features
    }

    /// The feature row of node `v`, borrowed from the underlying storage.
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> &'a [f32] {
        &self.features[v * self.feature_dim..(v + 1) * self.feature_dim]
    }

    /// Out-neighbors of `v` with edge types, sorted by neighbor id. For
    /// undirected graphs this is simply the neighbor list.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> CsrNeighbors<'a> {
        let (t, e) = self.out.row(v);
        CsrNeighbors { targets: t.iter(), etypes: e.iter() }
    }

    /// In-neighbors of `v` with edge types, sorted by neighbor id (equals
    /// [`Self::neighbors`] for undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> CsrNeighbors<'a> {
        let (t, e) = self.inn.row(v);
        CsrNeighbors { targets: t.iter(), etypes: e.iter() }
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.out.indptr[v + 1] - self.out.indptr[v]) as usize
    }

    /// In-degree of `v` (equals [`Self::degree`] for undirected graphs).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.inn.indptr[v + 1] - self.inn.indptr[v]) as usize
    }

    /// The type of the edge `u → v` if present (binary search).
    #[inline]
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        let r = self.out.range(u);
        let i = self.out.targets[r.clone()].binary_search(&(v as u32)).ok()?;
        Some(self.out.etypes[r.start + i])
    }

    /// True if the edge `u → v` exists (`u — v` for undirected graphs).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_type(u, v).is_some()
    }

    /// Copies the columns into an owned [`Graph`], rebasing `indptr` to 0.
    /// The result equals the graph whose columns these are.
    pub fn to_graph(&self) -> Graph {
        let copy = |adj| {
            let mut cols = AdjColumns::new();
            append(&mut cols.indptr, &mut cols.targets, &mut cols.etypes, adj);
            cols
        };
        Graph {
            node_types: self.node_types.to_vec(),
            features: Matrix::from_vec(self.num_nodes(), self.feature_dim, self.features.to_vec()),
            out: copy(self.out),
            inn: self.directed.then(|| copy(self.inn)),
        }
    }

    /// The owned subgraph induced by an interned node mapping — the one
    /// materialization behind [`Graph::induced_subgraph`] and
    /// [`GraphRef::to_graph`](crate::GraphRef::to_graph).
    pub(crate) fn induced_graph(&self, old_of_new: &[NodeId], new_of_old: &[NodeId]) -> Graph {
        let mut features = Vec::with_capacity(old_of_new.len() * self.feature_dim);
        for &old in old_of_new {
            features.extend_from_slice(self.feature_row(old));
        }
        Graph {
            node_types: old_of_new.iter().map(|&v| self.node_types[v]).collect(),
            features: Matrix::from_vec(old_of_new.len(), self.feature_dim, features),
            out: AdjColumns::induced(self.out, old_of_new, new_of_old),
            inn: self.directed.then(|| AdjColumns::induced(self.inn, old_of_new, new_of_old)),
        }
    }
}

impl<'a> From<&'a Graph> for CsrGraph<'a> {
    fn from(g: &'a Graph) -> Self {
        g.csr()
    }
}

/// Iterator over a CSR node's neighbors, zipping the parallel target and
/// edge-type slices.
#[derive(Clone, Debug)]
pub struct CsrNeighbors<'a> {
    targets: std::slice::Iter<'a, u32>,
    etypes: std::slice::Iter<'a, u32>,
}

impl Iterator for CsrNeighbors<'_> {
    type Item = (NodeId, EdgeTypeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let v = self.targets.next()?;
        let t = self.etypes.next()?;
        Some((*v as NodeId, *t))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        let v = self.targets.nth(n)?;
        let t = self.etypes.nth(n)?;
        Some((*v as NodeId, *t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }
}

impl ExactSizeIterator for CsrNeighbors<'_> {}

/// Owned columnar CSR arrays for a whole graph database, in exactly the
/// layout the `.gvex` sections use. This is the *write-side* encoder:
/// [`CsrColumns::push`] appends a graph's columns, and
/// [`CsrColumns::graph`] hands back the borrowed [`CsrGraph`] over the
/// accumulated arrays.
#[derive(Clone, Debug, Default)]
pub struct CsrColumns {
    /// Cumulative node counts, one entry per graph plus the leading 0.
    pub node_ptr: Vec<u64>,
    /// Node types, concatenated across graphs.
    pub node_types: Vec<u32>,
    /// Row-major features, concatenated across graphs.
    pub features: Vec<f32>,
    /// Global out-edge offsets, `total_nodes + 1` entries.
    pub out_indptr: Vec<u64>,
    /// Graph-local out-neighbor ids.
    pub out_targets: Vec<u32>,
    /// Out-edge types, parallel to `out_targets`.
    pub out_etypes: Vec<u32>,
    /// Global in-edge offsets (empty for undirected databases).
    pub in_indptr: Vec<u64>,
    /// Graph-local in-neighbor ids (empty for undirected databases).
    pub in_targets: Vec<u32>,
    /// In-edge types (empty for undirected databases).
    pub in_etypes: Vec<u32>,
    /// Whether the graphs are directed (must be uniform per database).
    pub directed: bool,
    /// Feature dimensionality (uniform per database).
    pub feature_dim: usize,
}

impl CsrColumns {
    /// Starts an empty column set for graphs of the given directedness and
    /// feature dimensionality.
    pub fn new(directed: bool, feature_dim: usize) -> Self {
        let mut c = Self { directed, feature_dim, ..Self::default() };
        c.node_ptr.push(0);
        c.out_indptr.push(0);
        if directed {
            c.in_indptr.push(0);
        }
        c
    }

    /// Number of graphs pushed so far.
    pub fn num_graphs(&self) -> usize {
        self.node_ptr.len() - 1
    }

    /// Appends one graph's columns.
    ///
    /// # Panics
    /// If the graph's directedness or feature dimensionality differs from
    /// the column set's.
    pub fn push(&mut self, g: &Graph) {
        assert_eq!(g.is_directed(), self.directed, "mixed directedness in one database");
        assert_eq!(g.feature_dim(), self.feature_dim, "mixed feature dims in one database");
        let c = g.csr();
        self.node_types.extend_from_slice(c.node_types);
        self.features.extend_from_slice(c.features);
        append(&mut self.out_indptr, &mut self.out_targets, &mut self.out_etypes, c.out);
        if self.directed {
            append(&mut self.in_indptr, &mut self.in_targets, &mut self.in_etypes, c.inn);
        }
        self.node_ptr.push(self.node_types.len() as u64);
    }

    /// The borrowed [`CsrGraph`] over graph `i`'s slices.
    pub fn graph(&self, i: usize) -> CsrGraph<'_> {
        let n0 = self.node_ptr[i] as usize;
        let n1 = self.node_ptr[i + 1] as usize;
        let out = slice_adjacency(&self.out_indptr, &self.out_targets, &self.out_etypes, n0, n1);
        let inn = if self.directed {
            slice_adjacency(&self.in_indptr, &self.in_targets, &self.in_etypes, n0, n1)
        } else {
            out
        };
        CsrGraph::new(
            self.directed,
            &self.node_types[n0..n1],
            &self.features[n0 * self.feature_dim..n1 * self.feature_dim],
            self.feature_dim,
            out,
            inn,
        )
    }
}

/// Carves one graph's adjacency out of database-wide CSR arrays: the
/// `indptr` window keeps its global values (the first entry is the base),
/// while `targets`/`etypes` are cut down to the graph's own range. Shared
/// by [`CsrColumns::graph`] and the `.gvex` store reader.
pub fn slice_adjacency<'a>(
    indptr: &'a [u64],
    targets: &'a [u32],
    etypes: &'a [u32],
    n0: usize,
    n1: usize,
) -> CsrAdjacency<'a> {
    let window = &indptr[n0..=n1];
    let e0 = window[0] as usize;
    let e1 = window[n1 - n0] as usize;
    CsrAdjacency { indptr: window, targets: &targets[e0..e1], etypes: &etypes[e0..e1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
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

    fn chain_directed(n: usize) -> Graph {
        let mut b = Graph::builder(true);
        for i in 0..n {
            b.add_node(i as u32 % 3, &[i as f32]);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, (i % 2) as u32);
        }
        b.build()
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        for g in [diamond(), chain_directed(5), Graph::builder(false).build()] {
            let mut cols = CsrColumns::new(g.is_directed(), g.feature_dim());
            cols.push(&g);
            let back = cols.graph(0).to_graph();
            assert_eq!(back, g, "CSR round trip changed the graph");
        }
    }

    #[test]
    fn database_columns_match_the_owned_graph() {
        let g = diamond();
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&g);
        let c = cols.graph(0);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.feature_dim(), g.feature_dim());
        for v in 0..g.num_nodes() {
            assert_eq!(c.node_type(v), g.node_type(v));
            assert_eq!(c.feature_row(v), g.features().row(v));
            assert_eq!(c.degree(v), g.degree(v));
            assert!(c.neighbors(v).eq(g.neighbors(v)), "node {v}");
            assert!(c.in_neighbors(v).eq(g.in_neighbors(v)), "node {v} (in)");
        }
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(c.edge_type(u, v), g.edge_type(u, v), "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn directed_in_adjacency_is_separate() {
        let g = chain_directed(4);
        let mut cols = CsrColumns::new(true, 1);
        cols.push(&g);
        let c = cols.graph(0);
        assert!(c.has_edge(0, 1));
        assert!(!c.has_edge(1, 0));
        for v in 0..4 {
            assert!(c.in_neighbors(v).eq(g.in_neighbors(v)));
        }
        assert_eq!(c.to_graph(), g);
    }

    #[test]
    fn multiple_graphs_share_columns() {
        let a = diamond();
        let b = {
            let mut bb = Graph::builder(false);
            bb.add_node(2, &[9.0, 9.0]);
            bb.add_node(2, &[8.0, 8.0]);
            bb.add_edge(0, 1, 3);
            bb.build()
        };
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&a);
        cols.push(&b);
        assert_eq!(cols.num_graphs(), 2);
        assert_eq!(cols.graph(0).to_graph(), a);
        assert_eq!(cols.graph(1).to_graph(), b);
        // the second graph's targets are graph-local
        let nbrs: Vec<_> = cols.graph(1).neighbors(0).collect();
        assert_eq!(nbrs, vec![(1, 3)]);
    }

    #[test]
    fn transpose_sorts_in_rows_by_source() {
        let g = chain_directed(4);
        let back = g.inn.as_ref().unwrap().transpose(4);
        assert_eq!(back, g.out, "transposing twice restores the out rows");
    }

    #[test]
    fn neighbors_nth_skips_in_constant_steps() {
        let g = diamond();
        assert_eq!(g.neighbors(0).nth(1), Some((2, 1)));
        assert_eq!(g.neighbors(0).nth(2), None);
        assert_eq!(g.neighbors(0).len(), 2);
    }

    #[test]
    fn empty_graph_columns() {
        let g = Graph::builder(false).build();
        let mut cols = CsrColumns::new(false, 0);
        cols.push(&g);
        let c = cols.graph(0);
        assert!(c.is_empty());
        assert_eq!(c.num_edges(), 0);
    }
}
