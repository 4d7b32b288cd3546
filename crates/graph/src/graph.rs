//! The core typed, attributed graph structure.

use crate::csr::{AdjColumns, CsrGraph, CsrNeighbors};
use gvex_linalg::Matrix;
use serde::{Deserialize, Error, Serialize, Value};

/// Index of a node within one [`Graph`].
pub type NodeId = usize;
/// Interned node type (`L(v)` in the paper, e.g. an atom symbol).
pub type NodeTypeId = u32;
/// Interned edge type (`L(e)` in the paper, e.g. a bond kind).
pub type EdgeTypeId = u32;

/// A connected or disconnected attributed graph `G = (V, E, T, L)`.
///
/// Nodes are dense indices `0..n`. The graph owns its columns in the one
/// layout of [`crate::csr`] — the layout the `.gvex` store writes: node
/// types, a dense `|V| × D` feature matrix, and sorted CSR adjacency, with
/// in-direction rows only when directed. The read accessors are
/// implemented once, on the [`CsrGraph`] that [`Graph::csr`] lends; the
/// methods here forward to it. Every undirected edge is counted once in
/// [`Graph::num_edges`].
///
/// `D` may be zero for datasets without features, mirroring
/// REDDIT-BINARY / MALNET in Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub(crate) node_types: Vec<NodeTypeId>,
    pub(crate) features: Matrix,
    pub(crate) out: AdjColumns,
    /// In-direction rows; `None` for undirected graphs, whose in-rows are
    /// their out-rows.
    pub(crate) inn: Option<AdjColumns>,
}

impl Graph {
    /// Starts building a graph. See [`GraphBuilder`].
    pub fn builder(directed: bool) -> GraphBuilder {
        GraphBuilder::new(directed)
    }

    /// The borrowed CSR view of this graph's columns (a few slices).
    #[inline]
    pub fn csr(&self) -> CsrGraph<'_> {
        let out = self.out.as_csr();
        CsrGraph {
            directed: self.inn.is_some(),
            feature_dim: self.features.cols(),
            node_types: &self.node_types,
            features: self.features.as_slice(),
            out,
            inn: self.inn.as_ref().map_or(out, AdjColumns::as_csr),
        }
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.csr().is_directed()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.csr().num_nodes()
    }

    /// Number of edges `|E|` (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr().num_edges()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.csr().is_empty()
    }

    /// The type `L(v)` of a node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.csr().node_type(v)
    }

    /// All node types, indexed by node id.
    #[inline]
    pub fn node_types(&self) -> &[NodeTypeId] {
        self.csr().node_types()
    }

    /// The dense `|V| × D` feature matrix.
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.csr().feature_dim()
    }

    /// Out-neighbors of `v` with edge types (see [`CsrGraph::neighbors`]).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> CsrNeighbors<'_> {
        self.csr().neighbors(v)
    }

    /// In-neighbors of `v` with edge types (see [`CsrGraph::in_neighbors`]).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> CsrNeighbors<'_> {
        self.csr().in_neighbors(v)
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr().degree(v)
    }

    /// Returns the type of the edge `u → v` if present.
    #[inline]
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        self.csr().edge_type(u, v)
    }

    /// True if the edge `u → v` exists (`u — v` for undirected graphs).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.csr().has_edge(u, v)
    }

    /// Iterates over every edge once as `(u, v, type)`. For undirected
    /// graphs, yields each edge with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeTypeId)> + '_ {
        let directed = self.is_directed();
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| directed || u < v).map(move |(v, t)| (u, v, t))
        })
    }

    /// Average degree (2|E| / |V| for undirected graphs; |E| / |V| directed).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let ends = if self.is_directed() { self.num_edges() } else { 2 * self.num_edges() };
        ends as f64 / self.num_nodes() as f64
    }

    /// Connected components (ignoring edge direction), each sorted by id.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            comps.push(Vec::new());
            comp[start] = id;
            stack.push(start);
            while let Some(u) = stack.pop() {
                comps[id].push(u);
                for (v, _) in self.neighbors(u).chain(self.in_neighbors(u)) {
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        stack.push(v);
                    }
                }
            }
        }
        for c in &mut comps {
            c.sort_unstable();
        }
        comps
    }

    /// True if the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Nodes within `k` hops of `v` (ignoring direction), including `v`,
    /// sorted by id.
    pub fn k_hop_neighborhood(&self, v: NodeId, k: usize) -> Vec<NodeId> {
        let mut dist = vec![usize::MAX; self.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[v] = 0;
        queue.push_back(v);
        let mut out = vec![v];
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                continue;
            }
            for (w, _) in self.neighbors(u).chain(self.in_neighbors(u)) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Adjacency rows as JSON: per node, `[[neighbor, type], ...]`.
fn adjacency_value<'a>(rows: impl Iterator<Item = CsrNeighbors<'a>>) -> Value {
    let pair = |(v, t): (NodeId, EdgeTypeId)| Value::Array(vec![v.to_value(), t.to_value()]);
    Value::Array(rows.map(|row| Value::Array(row.map(pair).collect())).collect())
}

/// Decodes adjacency rows for `n` nodes, each strictly increasing, in
/// range, and free of self-loops.
fn decode_adjacency(v: &Value, n: usize) -> Result<AdjColumns, Error> {
    let Value::Array(rows) = v else { return Err(Error::wrong_type("array", v)) };
    if rows.len() != n {
        return Err(Error::custom(format!("adjacency has {} rows for {n} nodes", rows.len())));
    }
    let mut cols = AdjColumns::new();
    for (u, row) in rows.iter().enumerate() {
        let mut prev = None;
        for (w, t) in Vec::<(NodeId, EdgeTypeId)>::from_value(row)? {
            if w >= n || w == u || prev.is_some_and(|p| p >= w) {
                return Err(Error::custom(format!("node {u}: malformed neighbor {w}")));
            }
            prev = Some(w);
            cols.targets.push(w as u32);
            cols.etypes.push(t);
        }
        cols.indptr.push(cols.targets.len() as u64);
    }
    Ok(cols)
}

/// The JSON shape is `{directed, node_types, features, out_adj, in_adj,
/// num_edges}`, with per-node `[neighbor, type]` lists.
impl Serialize for Graph {
    fn to_value(&self) -> Value {
        let c = self.csr();
        let n = c.num_nodes();
        Value::Object(vec![
            ("directed".into(), c.is_directed().to_value()),
            ("node_types".into(), self.node_types.to_value()),
            ("features".into(), self.features.to_value()),
            ("out_adj".into(), adjacency_value((0..n).map(|v| c.neighbors(v)))),
            ("in_adj".into(), adjacency_value((0..n).map(|v| c.in_neighbors(v)))),
            ("num_edges".into(), c.num_edges().to_value()),
        ])
    }
}

/// Malformed adjacency — rows out of range or unsorted, in-rows that are
/// not the transpose of the out-rows, asymmetric undirected rows, or a
/// wrong edge count — is a decode error.
impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| v.get_field(name).ok_or_else(|| Error::missing_field(name));
        let directed = bool::from_value(field("directed")?)?;
        let node_types = Vec::<NodeTypeId>::from_value(field("node_types")?)?;
        let features = Matrix::from_value(field("features")?)?;
        let n = node_types.len();
        if u32::try_from(n).is_err() {
            return Err(Error::custom(format!("{n} nodes exceed u32 node ids")));
        }
        if features.rows() != n || features.as_slice().len() != n * features.cols() {
            return Err(Error::custom(format!("feature matrix does not fit {n} nodes")));
        }
        let out = decode_adjacency(field("out_adj")?, n)?;
        let inn = decode_adjacency(field("in_adj")?, n)?;
        if inn != out.transpose(n) || (!directed && inn != out) {
            return Err(Error::custom("in_adj is not the transpose of out_adj"));
        }
        let g = Graph { node_types, features, out, inn: directed.then_some(inn) };
        if usize::from_value(field("num_edges")?)? != g.num_edges() {
            return Err(Error::custom("num_edges disagrees with the adjacency"));
        }
        Ok(g)
    }
}

/// A node-induced subgraph together with its id mappings.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The extracted subgraph (ids are `0..k`).
    pub graph: Graph,
    /// `old_of_new[new_id] = old_id` in the parent graph.
    pub old_of_new: Vec<NodeId>,
    /// `new_of_old[old_id] = new_id`, or `usize::MAX` for dropped nodes.
    pub new_of_old: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Maps a node id of the subgraph back to the parent graph.
    #[inline]
    pub fn to_parent(&self, new_id: NodeId) -> NodeId {
        self.old_of_new[new_id]
    }

    /// Maps a parent node id into the subgraph, if retained.
    #[inline]
    pub fn from_parent(&self, old_id: NodeId) -> Option<NodeId> {
        match self.new_of_old.get(old_id) {
            Some(&v) if v != usize::MAX => Some(v),
            _ => None,
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use gvex_graph::Graph;
/// let mut b = Graph::builder(false);
/// let a = b.add_node(0, &[1.0]);
/// let c = b.add_node(1, &[0.0]);
/// b.add_edge(a, c, 0);
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 2);
/// assert!(g.has_edge(a, c) && g.has_edge(c, a));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    directed: bool,
    node_types: Vec<NodeTypeId>,
    features: Vec<f32>,
    feature_dim: Option<usize>,
    edges: Vec<(NodeId, NodeId, EdgeTypeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new(directed: bool) -> Self {
        Self {
            directed,
            node_types: Vec::new(),
            features: Vec::new(),
            feature_dim: None,
            edges: Vec::new(),
        }
    }

    /// Adds a node with type `t` and feature vector `feat`, returning its id.
    ///
    /// # Panics
    /// If `feat`'s length differs from previously added nodes'.
    pub fn add_node(&mut self, t: NodeTypeId, feat: &[f32]) -> NodeId {
        match self.feature_dim {
            None => self.feature_dim = Some(feat.len()),
            Some(d) => assert_eq!(d, feat.len(), "inconsistent feature dimension"),
        }
        self.node_types.push(t);
        self.features.extend_from_slice(feat);
        self.node_types.len() - 1
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Adds an edge `u → v` (`u — v` when undirected) with type `t`.
    /// Self-loops and duplicate edges are ignored at [`Self::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, t: EdgeTypeId) {
        assert!(
            u < self.node_types.len() && v < self.node_types.len(),
            "edge endpoint out of range"
        );
        self.edges.push((u, v, t));
    }

    /// Finalizes the graph: drops self-loops, sorts every row, and keeps
    /// the smallest edge type among duplicates of one edge.
    ///
    /// # Panics
    /// If the graph has more nodes than `u32` node ids can address.
    pub fn build(self) -> Graph {
        let n = self.node_types.len();
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        let mut entries = Vec::with_capacity(2 * self.edges.len());
        for (u, v, t) in self.edges {
            if u != v {
                entries.push((u, v, t));
                if !self.directed {
                    entries.push((v, u, t));
                }
            }
        }
        entries.sort_unstable();
        entries.dedup_by_key(|&mut (u, v, _)| (u, v));
        let out = AdjColumns::from_sorted(n, &entries);
        let inn = self.directed.then(|| out.transpose(n));
        let features = Matrix::from_vec(n, self.feature_dim.unwrap_or(0), self.features);
        Graph { node_types: self.node_types, features, out, inn }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2, types a,b,a
        let mut b = Graph::builder(false);
        let v0 = b.add_node(0, &[1.0, 0.0]);
        let v1 = b.add_node(1, &[0.0, 1.0]);
        let v2 = b.add_node(0, &[1.0, 0.0]);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v2, 0);
        b.build()
    }

    fn star_directed() -> Graph {
        let mut b = Graph::builder(true);
        for t in 0..4 {
            b.add_node(t, &[t as f32]);
        }
        b.add_edge(0, 1, 3);
        b.add_edge(2, 1, 4);
        b.add_edge(1, 3, 5);
        b.build()
    }

    #[test]
    fn builder_counts() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.feature_dim(), 2);
        assert!(!g.is_directed());
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let g = path3();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn duplicate_edges_and_self_loops_dropped() {
        let mut b = Graph::builder(false);
        let v0 = b.add_node(0, &[]);
        let v1 = b.add_node(0, &[]);
        b.add_edge(v0, v1, 5);
        b.add_edge(v1, v0, 2);
        b.add_edge(v0, v0, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        // the smallest type wins, in both directions
        assert_eq!((g.edge_type(0, 1), g.edge_type(1, 0)), (Some(2), Some(2)));
    }

    #[test]
    fn directed_adjacency() {
        let mut b = Graph::builder(true);
        let v0 = b.add_node(0, &[]);
        let v1 = b.add_node(0, &[]);
        b.add_edge(v0, v1, 3);
        let g = b.build();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_type(0, 1), Some(3));
        assert_eq!(g.in_neighbors(1).collect::<Vec<_>>(), vec![(0, 3)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0), (1, 2, 0)]);
        let d: Vec<_> = star_directed().edges().collect();
        assert_eq!(d, vec![(0, 1, 3), (1, 3, 5), (2, 1, 4)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path3();
        let sub = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
        assert_eq!(sub.graph.node_type(0), 1); // old node 1 had type b=1
        assert_eq!(sub.to_parent(1), 2);
        assert_eq!(sub.from_parent(0), None);
        assert_eq!(sub.from_parent(2), Some(1));
        // features carried over
        assert_eq!(sub.graph.features().row(0), &[0.0, 1.0]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = path3();
        let sub = g.induced_subgraph(&[1, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
    }

    /// Renumbering re-sorts rows, and in-rows stay the transpose.
    #[test]
    fn induced_subgraph_of_directed_graph_matches_rebuild() {
        let g = star_directed();
        let sub = g.induced_subgraph(&[3, 1, 0]).graph;
        let mut b = Graph::builder(true);
        for old in [3, 1, 0] {
            b.add_node(g.node_type(old), g.features().row(old));
        }
        b.add_edge(2, 1, 3);
        b.add_edge(1, 0, 5);
        assert_eq!(sub, b.build());
    }

    #[test]
    fn remove_nodes_is_complement() {
        let g = path3();
        let rest = g.remove_nodes(&[1]);
        assert_eq!(rest.graph.num_nodes(), 2);
        assert_eq!(rest.graph.num_edges(), 0); // removing center disconnects
        assert_eq!(rest.old_of_new, vec![0, 2]);
    }

    #[test]
    fn connected_components_found() {
        let g = path3();
        assert!(g.is_connected());
        let rest = g.remove_nodes(&[1]).graph;
        let comps = rest.connected_components();
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::builder(false).build();
        assert!(g.is_connected());
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn k_hop_neighborhood_radii() {
        let g = path3();
        assert_eq!(g.k_hop_neighborhood(0, 0), vec![0]);
        assert_eq!(g.k_hop_neighborhood(0, 1), vec![0, 1]);
        assert_eq!(g.k_hop_neighborhood(0, 2), vec![0, 1, 2]);
    }

    #[test]
    fn avg_degree_undirected() {
        let g = path3();
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn json_keeps_the_list_shape_and_round_trips() {
        let g = path3();
        let json = serde_json::to_string(&g).unwrap();
        assert!(json.contains(r#""out_adj":[[[1,0]],[[0,0],[2,0]],[[1,0]]]"#), "{json}");
        assert!(json.ends_with(r#""num_edges":2}"#), "{json}");
        for g in [path3(), star_directed(), Graph::builder(true).build()] {
            let back: Graph = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn malformed_adjacency_is_a_decode_error() {
        let json = serde_json::to_string(&path3()).unwrap();
        for (from, to) in [
            (r#""out_adj":[[[1,0]]"#, r#""out_adj":[[[7,0]]"#), // out of range
            (r#""out_adj":[[[1,0]]"#, r#""out_adj":[[[0,0]]"#), // self-loop
            (r#"[[0,0],[2,0]]"#, r#"[[2,0],[0,0]]"#),           // unsorted
            (r#""in_adj":[[[1,0]]"#, r#""in_adj":[[[1,9]]"#),   // not the transpose
            (r#""num_edges":2"#, r#""num_edges":3"#),
            (r#""out_adj":[[[1,0]],"#, r#""out_adj":["#), // row count
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "pattern {from} not found");
            assert!(serde_json::from_str::<Graph>(&bad).is_err(), "accepted {bad}");
        }
    }
}
