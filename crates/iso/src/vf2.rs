//! VF2-style backtracking subgraph isomorphism with type constraints.
//!
//! Two engines share one feasibility semantics and — by construction — one
//! enumeration order:
//!
//! * the **reference engine** ([`for_each_embedding_reference`]) scans
//!   neighbor lists per candidate, exactly the implementation the crate
//!   shipped with;
//! * the **bitset engine** ([`for_each_embedding_with_index`]) keeps, per
//!   search depth, the set of still-viable targets for the next pattern node
//!   as a [`BitSet`] *frontier*: start from the target's type row, subtract
//!   used nodes, then intersect (pattern edge) or subtract (induced
//!   non-edge) the neighbor rows of every already-mapped image. Feasibility
//!   collapses from an O(degree) scan per candidate to O(|V|/64) word ops
//!   per depth, pruning whole words before descent.
//!
//! Both engines accept candidates in ascending target-id order along the
//! same matching order, so they emit **identical embedding sequences** —
//! truncated enumerations included — and [`for_each_embedding`] can pick
//! whichever is cheaper for the target at hand.

use crate::index::MatchIndex;
use gvex_graph::{BitSet, CsrGraph, Graph, GraphRef, NodeId};
use std::ops::ControlFlow;

/// Matching semantics and search limits.
#[derive(Clone, Copy, Debug)]
pub struct MatchOptions {
    /// `true` (the paper's default): node-induced isomorphism — pattern
    /// non-edges must map to graph non-edges. `false`: plain subgraph
    /// (monomorphism) semantics.
    pub induced: bool,
    /// Hard cap on enumerated embeddings (guards against factorial blowup on
    /// symmetric patterns); `usize::MAX` disables the cap. A search cut
    /// short by the cap records the `iso.vf2.truncated` obs counter, since
    /// downstream coverage/support counts silently undercount past it.
    pub max_embeddings: usize,
}

impl Default for MatchOptions {
    fn default() -> Self {
        Self { induced: true, max_embeddings: 10_000 }
    }
}

/// Targets below this size are matched with the reference engine: building
/// bitset rows costs more than the neighbor-list scans it would save.
const INDEX_MIN_TARGET_NODES: usize = 32;

/// Precomputed matching order: pattern nodes arranged so each node after the
/// first has at least one earlier neighbor (when the pattern is connected),
/// which keeps the candidate frontier small.
pub(crate) fn matching_order(pattern: &Graph) -> Vec<NodeId> {
    let n = pattern.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    // start from the highest-degree node: most constrained first.
    while order.len() < n {
        let start = (0..n)
            .filter(|&v| !seen[v])
            .max_by_key(|&v| pattern.degree(v) + pattern.in_neighbors(v).len())
            .expect("unvisited node exists");
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            // Visit neighbors by descending degree, ties by ascending id.
            // Dedup by id *before* the degree sort: an undirected neighbor
            // appears in both adjacency lists, and `dedup` after a sort on
            // the degree key leaves duplicates that share a degree with an
            // interleaved node.
            let mut nbrs: Vec<NodeId> = pattern
                .neighbors(u)
                .chain(pattern.in_neighbors(u))
                .map(|(v, _)| v)
                .filter(|&v| !seen[v])
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs.sort_by_key(|&v| std::cmp::Reverse(pattern.degree(v)));
            for v in nbrs {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

struct Vf2<'a, F> {
    pattern: CsrGraph<'a>,
    target: CsrGraph<'a>,
    opts: MatchOptions,
    order: Vec<NodeId>,
    /// pattern node -> target node (usize::MAX = unmapped)
    map: Vec<NodeId>,
    used: Vec<bool>,
    found: usize,
    callback: F,
}

impl<'a, F: FnMut(&[NodeId]) -> ControlFlow<()>> Vf2<'a, F> {
    fn feasible(&self, p: NodeId, t: NodeId) -> bool {
        if self.pattern.node_type(p) != self.target.node_type(t) {
            return false;
        }
        // degree pruning: the image must have at least as many connections.
        if self.target.degree(t) < self.pattern.degree(p)
            || self.target.in_degree(t) < self.pattern.in_degree(p)
        {
            return false;
        }
        // out-edges of p to already-mapped nodes must exist with same type
        for (q, et) in self.pattern.neighbors(p) {
            let tq = self.map[q];
            if tq == usize::MAX {
                continue;
            }
            match self.target.edge_type(t, tq) {
                Some(tet) if tet == et => {}
                _ => return false,
            }
        }
        // in-edges (directed graphs; for undirected these repeat the above)
        if self.pattern.is_directed() {
            for (q, et) in self.pattern.in_neighbors(p) {
                let tq = self.map[q];
                if tq == usize::MAX {
                    continue;
                }
                match self.target.edge_type(tq, t) {
                    Some(tet) if tet == et => {}
                    _ => return false,
                }
            }
        }
        if self.opts.induced {
            // pattern NON-edges to mapped nodes must be absent in the target
            for (q, &tq) in self.map.iter().enumerate() {
                if tq == usize::MAX || q == p {
                    continue;
                }
                if self.pattern.edge_type(p, q).is_none() && self.target.has_edge(t, tq) {
                    return false;
                }
                if self.pattern.is_directed()
                    && self.pattern.edge_type(q, p).is_none()
                    && self.target.has_edge(tq, t)
                {
                    return false;
                }
            }
        }
        true
    }

    fn candidates(&self, p: NodeId) -> Vec<NodeId> {
        // prefer extending from a mapped pattern neighbor: candidates are the
        // image's neighbors, not the whole graph.
        for (q, _) in self.pattern.neighbors(p).chain(self.pattern.in_neighbors(p)) {
            let tq = self.map[q];
            if tq != usize::MAX {
                return self
                    .target
                    .neighbors(tq)
                    .chain(self.target.in_neighbors(tq))
                    .map(|(t, _)| t)
                    .filter(|&t| !self.used[t])
                    .collect();
            }
        }
        (0..self.target.num_nodes()).filter(|&t| !self.used[t]).collect()
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if self.found >= self.opts.max_embeddings {
            gvex_obs::counter!("iso.vf2.truncated");
            return ControlFlow::Break(());
        }
        if depth == self.order.len() {
            self.found += 1;
            return (self.callback)(&self.map);
        }
        let p = self.order[depth];
        let mut cands = self.candidates(p);
        cands.sort_unstable();
        cands.dedup();
        for t in cands {
            if self.used[t] || !self.feasible(p, t) {
                gvex_obs::counter!("iso.vf2.candidate_prunes");
                continue;
            }
            self.map[p] = t;
            self.used[t] = true;
            let flow = self.search(depth + 1);
            self.map[p] = usize::MAX;
            self.used[t] = false;
            flow?;
        }
        ControlFlow::Continue(())
    }
}

/// Shared feasibility context for the bitset engine and the incremental
/// extension path: everything needed to fill a frontier for one pattern
/// node and run the cheap residual checks on its bits.
struct FrontierCtx<'a> {
    pattern: CsrGraph<'a>,
    target: CsrGraph<'a>,
    index: &'a MatchIndex,
    induced: bool,
    /// `false` when every pattern edge and every target edge share one edge
    /// type: adjacency alone then implies type equality.
    check_edge_types: bool,
}

impl<'a> FrontierCtx<'a> {
    fn new(
        pattern: CsrGraph<'a>,
        target: CsrGraph<'a>,
        index: &'a MatchIndex,
        opts: MatchOptions,
    ) -> Self {
        debug_assert_eq!(index.num_nodes(), target.num_nodes());
        debug_assert_eq!(index.is_directed(), target.is_directed());
        let check_edge_types = match index.uniform_edge_type() {
            Some(t) => {
                (0..pattern.num_nodes()).any(|v| pattern.neighbors(v).any(|(_, et)| et != t))
            }
            None => pattern.num_edges() > 0,
        };
        FrontierCtx { pattern, target, index, induced: opts.induced, check_edge_types }
    }

    /// Fills `frontier` with every target node that has `p`'s type, is not
    /// in `used`, and is adjacency-consistent (and, in induced mode,
    /// non-adjacency-consistent) with every image in `map`.
    fn fill_frontier(&self, map: &[NodeId], used: &BitSet, p: NodeId, frontier: &mut BitSet) {
        match self.index.type_row(self.pattern.node_type(p)) {
            Some(row) => frontier.copy_from(row),
            None => {
                frontier.clear();
                return;
            }
        }
        frontier.difference_with(used);
        // The popcount bookkeeping below exists only for the prune counter;
        // keep it off the disabled path so observation stays zero-cost.
        let before = if gvex_obs::enabled() { frontier.count() } else { 0 };
        for (q, &tq) in map.iter().enumerate() {
            if tq == usize::MAX || q == p {
                continue;
            }
            // pattern edge p->q: the image must be adjacent to map[q];
            // induced non-edge: it must not be.
            if self.pattern.edge_type(p, q).is_some() {
                frontier.intersect_with(self.index.in_row(tq));
            } else if self.induced {
                frontier.difference_with(self.index.in_row(tq));
            }
            if self.pattern.is_directed() {
                if self.pattern.edge_type(q, p).is_some() {
                    frontier.intersect_with(self.index.out_row(tq));
                } else if self.induced {
                    frontier.difference_with(self.index.out_row(tq));
                }
            }
        }
        if gvex_obs::enabled() {
            let after = frontier.count();
            let pruned = before.saturating_sub(after);
            if pruned > 0 {
                gvex_obs::counter!("iso.vf2.frontier_prunes", pruned as u64);
            }
            gvex_obs::histogram!("iso.vf2.frontier_size", after as u64);
        }
    }

    /// The per-bit checks the frontier cannot express: degree lower bounds
    /// and (when needed) edge-type equality to mapped images.
    fn residual_ok(&self, map: &[NodeId], p: NodeId, t: NodeId) -> bool {
        if self.target.degree(t) < self.pattern.degree(p)
            || self.target.in_degree(t) < self.pattern.in_degree(p)
        {
            return false;
        }
        if self.check_edge_types {
            for (q, et) in self.pattern.neighbors(p) {
                let tq = map[q];
                if tq != usize::MAX && self.target.edge_type(t, tq) != Some(et) {
                    return false;
                }
            }
            if self.pattern.is_directed() {
                for (q, et) in self.pattern.in_neighbors(p) {
                    let tq = map[q];
                    if tq != usize::MAX && self.target.edge_type(tq, t) != Some(et) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

struct Vf2Bitset<'a, F> {
    ctx: FrontierCtx<'a>,
    opts: MatchOptions,
    order: Vec<NodeId>,
    /// pattern node -> target node (usize::MAX = unmapped)
    map: Vec<NodeId>,
    used: BitSet,
    /// One preallocated frontier per search depth, reused across siblings.
    frontiers: Vec<BitSet>,
    found: usize,
    callback: F,
}

impl<'a, F: FnMut(&[NodeId]) -> ControlFlow<()>> Vf2Bitset<'a, F> {
    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if self.found >= self.opts.max_embeddings {
            gvex_obs::counter!("iso.vf2.truncated");
            return ControlFlow::Break(());
        }
        if depth == self.order.len() {
            self.found += 1;
            return (self.callback)(&self.map);
        }
        let p = self.order[depth];
        let mut frontier = std::mem::replace(&mut self.frontiers[depth], BitSet::new(0));
        self.ctx.fill_frontier(&self.map, &self.used, p, &mut frontier);
        let mut flow = ControlFlow::Continue(());
        for t in frontier.iter() {
            if !self.ctx.residual_ok(&self.map, p, t) {
                continue;
            }
            self.map[p] = t;
            self.used.insert(t);
            let inner = self.search(depth + 1);
            self.map[p] = usize::MAX;
            self.used.remove(t);
            if inner.is_break() {
                flow = ControlFlow::Break(());
                break;
            }
        }
        self.frontiers[depth] = frontier;
        flow
    }
}

/// Calls `cb` with each embedding (`map[pattern_node] = target_node`) until
/// exhaustion, the embedding cap, or `cb` breaking. An empty pattern yields a
/// single empty embedding.
///
/// Dispatches to the bitset engine (building a throwaway [`MatchIndex`]) for
/// targets large enough to amortize the index; callers matching many
/// patterns against one target should build the index once and use
/// [`for_each_embedding_with_index`]. The engines emit identical embedding
/// sequences, so the dispatch is invisible.
pub fn for_each_embedding<'t>(
    pattern: &Graph,
    target: impl Into<CsrGraph<'t>>,
    opts: MatchOptions,
    cb: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    let target = target.into();
    if target.num_nodes() < INDEX_MIN_TARGET_NODES {
        for_each_embedding_reference(pattern, target, opts, cb);
    } else {
        let index = MatchIndex::build(target);
        for_each_embedding_with_index(pattern, target, &index, opts, cb);
    }
}

/// The original neighbor-list-scanning VF2, retained as the differential
/// baseline for the bitset engine.
pub fn for_each_embedding_reference<'t>(
    pattern: &Graph,
    target: impl Into<CsrGraph<'t>>,
    opts: MatchOptions,
    cb: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    let target = target.into();
    if pattern.num_nodes() > target.num_nodes() {
        return;
    }
    let order = matching_order(pattern);
    let mut vf2 = Vf2 {
        pattern: pattern.csr(),
        target,
        opts,
        order,
        map: vec![usize::MAX; pattern.num_nodes()],
        used: vec![false; target.num_nodes()],
        found: 0,
        callback: cb,
    };
    let _ = vf2.search(0);
}

/// The bitset-frontier engine, matching against a prebuilt [`MatchIndex`]
/// for `target`. Emits the same embeddings in the same order as
/// [`for_each_embedding_reference`].
pub fn for_each_embedding_with_index<'t>(
    pattern: &Graph,
    target: impl Into<CsrGraph<'t>>,
    index: &MatchIndex,
    opts: MatchOptions,
    cb: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    let target = target.into();
    if pattern.num_nodes() > target.num_nodes() {
        return;
    }
    let order = matching_order(pattern);
    let depths = order.len();
    let mut vf2 = Vf2Bitset {
        ctx: FrontierCtx::new(pattern.csr(), target, index, opts),
        opts,
        order,
        map: vec![usize::MAX; pattern.num_nodes()],
        used: BitSet::new(target.num_nodes()),
        frontiers: (0..depths).map(|_| BitSet::new(target.num_nodes())).collect(),
        found: 0,
        callback: cb,
    };
    let _ = vf2.search(0);
}

/// Result of [`extend_embeddings`]: the child pattern's embeddings and
/// whether `max_embeddings` cut enumeration short.
#[derive(Clone, Debug)]
pub struct Extension {
    /// Full child embeddings, one per (seed, frontier bit) acceptance.
    pub embeddings: Vec<Vec<NodeId>>,
    /// True when the cap stopped enumeration before exhaustion.
    pub truncated: bool,
}

/// Incremental matching (the paper's `IncPMatch` applied at mining time):
/// when `pattern` extends a parent pattern by the single node `new_node`,
/// every embedding of `pattern` restricts to an embedding of the parent —
/// so instead of searching from scratch, extend each recorded parent
/// embedding by one frontier fill.
///
/// Each seed is a child-space map with every parent node already assigned
/// and `seed[new_node] == usize::MAX`. Distinct seeds yield distinct child
/// embeddings (the restriction is injective), so no dedup is needed. The
/// enumeration is exhaustive **only if `seeds` holds *all* parent
/// embeddings** (untruncated); callers must fall back to a scratch search
/// otherwise.
pub fn extend_embeddings<'t>(
    pattern: &Graph,
    target: impl Into<CsrGraph<'t>>,
    index: &MatchIndex,
    seeds: &[Vec<NodeId>],
    new_node: NodeId,
    opts: MatchOptions,
) -> Extension {
    let target = target.into();
    let ctx = FrontierCtx::new(pattern.csr(), target, index, opts);
    let mut used = BitSet::new(target.num_nodes());
    let mut frontier = BitSet::new(target.num_nodes());
    let mut embeddings = Vec::new();
    let mut truncated = false;
    'seeds: for seed in seeds {
        debug_assert_eq!(seed.len(), pattern.num_nodes());
        debug_assert_eq!(seed[new_node], usize::MAX, "new_node must be unmapped in seeds");
        used.clear();
        for &t in seed {
            if t != usize::MAX {
                used.insert(t);
            }
        }
        ctx.fill_frontier(seed, &used, new_node, &mut frontier);
        for t in frontier.iter() {
            if !ctx.residual_ok(seed, new_node, t) {
                continue;
            }
            if embeddings.len() >= opts.max_embeddings {
                gvex_obs::counter!("iso.vf2.truncated");
                truncated = true;
                break 'seeds;
            }
            let mut emb = seed.clone();
            emb[new_node] = t;
            embeddings.push(emb);
        }
    }
    Extension { embeddings, truncated }
}

/// Like [`for_each_embedding`], but only yields embeddings whose image
/// contains the target node `anchor` — the incremental-matching primitive
/// (`IncPMatch`): when a node arrives, only embeddings through it are new.
pub fn for_each_embedding_anchored<'t>(
    pattern: &Graph,
    target: impl Into<CsrGraph<'t>>,
    anchor: NodeId,
    opts: MatchOptions,
    mut cb: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    for_each_embedding(pattern, target, opts, |map| {
        if map.contains(&anchor) {
            cb(map)
        } else {
            ControlFlow::Continue(())
        }
    });
}

/// First embedding of `pattern` in `target`, if any.
///
/// ```
/// use gvex_graph::Graph;
/// use gvex_iso::{find_one, MatchOptions};
/// // pattern: a type-1/type-2 edge; target: a path 0-1-2 with types 0,1,2
/// let mut b = Graph::builder(false);
/// let n = b.add_node(1, &[]);
/// let o = b.add_node(2, &[]);
/// b.add_edge(n, o, 0);
/// let pattern = b.build();
/// let mut b = Graph::builder(false);
/// for t in 0..3 { b.add_node(t, &[]); }
/// b.add_edge(0, 1, 0);
/// b.add_edge(1, 2, 0);
/// let target = b.build();
/// let emb = find_one(&pattern, &target, MatchOptions::default()).unwrap();
/// assert_eq!(emb, vec![1, 2]); // pattern node 0 -> target 1, node 1 -> target 2
/// ```
pub fn find_one<'a>(
    pattern: &Graph,
    target: impl Into<GraphRef<'a>>,
    opts: MatchOptions,
) -> Option<Vec<NodeId>> {
    let mut result = None;
    target.into().with_csr(|target| {
        for_each_embedding(pattern, target, opts, |map| {
            result = Some(map.to_vec());
            ControlFlow::Break(())
        })
    });
    result
}

/// All embeddings up to `opts.max_embeddings`. The target is a `&Graph` or
/// a borrowed [`GraphRef`] view; embeddings are reported in the target's
/// (view) id space.
pub fn enumerate<'a>(
    pattern: &Graph,
    target: impl Into<GraphRef<'a>>,
    opts: MatchOptions,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    target.into().with_csr(|target| {
        for_each_embedding(pattern, target, opts, |map| {
            out.push(map.to_vec());
            ControlFlow::Continue(())
        })
    });
    out
}

/// Whether `pattern` matches anywhere in `target` (a `&Graph` or a view).
pub fn matches<'a>(pattern: &Graph, target: impl Into<GraphRef<'a>>, opts: MatchOptions) -> bool {
    find_one(pattern, target, opts).is_some()
}

/// Exact graph isomorphism: same node/edge counts and a bijective induced
/// embedding. Used by the pattern miner to deduplicate candidates.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() {
        return false;
    }
    // sorted type multiset must agree
    let mut ta = a.node_types().to_vec();
    let mut tb = b.node_types().to_vec();
    ta.sort_unstable();
    tb.sort_unstable();
    if ta != tb {
        return false;
    }
    matches(a, b, MatchOptions { induced: true, max_embeddings: usize::MAX })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_graph::Graph;

    /// Builds an undirected graph from node types + edges (edge type 0).
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

    /// Enumerates with an explicit engine choice, for engine-equality tests.
    fn enumerate_with(
        pattern: &Graph,
        target: &Graph,
        opts: MatchOptions,
        bitset: bool,
    ) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let cb = |map: &[NodeId]| {
            out.push(map.to_vec());
            ControlFlow::Continue(())
        };
        if bitset {
            let index = MatchIndex::build(target);
            for_each_embedding_with_index(pattern, target, &index, opts, cb);
        } else {
            for_each_embedding_reference(pattern, target, opts, cb);
        }
        out
    }

    #[test]
    fn single_node_pattern_matches_same_type() {
        let pat = g(&[1], &[]);
        let target = g(&[0, 1, 1], &[(0, 1), (1, 2)]);
        let embs = enumerate(&pat, &target, MatchOptions::default());
        let mut hits: Vec<usize> = embs.iter().map(|m| m[0]).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn type_mismatch_never_matches() {
        let pat = g(&[5], &[]);
        let target = g(&[0, 1], &[(0, 1)]);
        assert!(!matches(&pat, &target, MatchOptions::default()));
    }

    #[test]
    fn edge_pattern_in_triangle() {
        let pat = g(&[0, 0], &[(0, 1)]);
        let tri = g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let embs = enumerate(&pat, &tri, MatchOptions::default());
        assert_eq!(embs.len(), 6); // 3 edges × 2 orientations
    }

    #[test]
    fn induced_path_does_not_match_triangle() {
        // induced P3 (no chord) cannot embed in K3
        let p3 = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let tri = g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        assert!(!matches(&p3, &tri, MatchOptions::default()));
        // but a non-induced match exists
        assert!(matches(&p3, &tri, MatchOptions { induced: false, max_embeddings: 10 }));
    }

    #[test]
    fn induced_path_matches_square() {
        let p3 = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let square = g(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(matches(&p3, &square, MatchOptions::default()));
    }

    #[test]
    fn edge_type_constrains_match() {
        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        b.add_node(0, &[]);
        b.add_edge(0, 1, 7); // pattern edge type 7
        let pat = b.build();

        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        b.add_node(0, &[]);
        b.add_edge(0, 1, 3); // different edge type
        let target = b.build();
        assert!(!matches(&pat, &target, MatchOptions::default()));

        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        b.add_node(0, &[]);
        b.add_edge(0, 1, 7);
        let target2 = b.build();
        assert!(matches(&pat, &target2, MatchOptions::default()));
    }

    #[test]
    fn directed_edge_direction_respected() {
        let mut b = Graph::builder(true);
        b.add_node(0, &[]);
        b.add_node(1, &[]);
        b.add_edge(0, 1, 0);
        let pat = b.build();

        let mut b = Graph::builder(true);
        b.add_node(1, &[]);
        b.add_node(0, &[]);
        b.add_edge(1, 0, 0); // type0 -> type1 (matches)
        let fwd = b.build();
        assert!(matches(&pat, &fwd, MatchOptions::default()));

        let mut b = Graph::builder(true);
        b.add_node(1, &[]);
        b.add_node(0, &[]);
        b.add_edge(0, 1, 0); // type1 -> type0 (wrong direction)
        let bwd = b.build();
        assert!(!matches(&pat, &bwd, MatchOptions::default()));
    }

    #[test]
    fn injectivity_enforced() {
        // two-node pattern cannot map onto a single target node
        let pat = g(&[0, 0], &[(0, 1)]);
        let single = g(&[0], &[]);
        assert!(!matches(&pat, &single, MatchOptions::default()));
    }

    #[test]
    fn embedding_cap_respected() {
        let pat = g(&[0], &[]);
        let big = g(&[0; 50], &[]);
        let embs = enumerate(&pat, &big, MatchOptions { induced: true, max_embeddings: 7 });
        assert_eq!(embs.len(), 7);
    }

    #[test]
    fn anchored_enumeration_filters() {
        let pat = g(&[0, 0], &[(0, 1)]);
        let path = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let mut count = 0;
        for_each_embedding_anchored(&pat, &path, 2, MatchOptions::default(), |m| {
            assert!(m.contains(&2));
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2); // (1,2) and (2,1)
    }

    #[test]
    fn isomorphism_positive_and_negative() {
        let tri1 = g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let tri2 = g(&[0, 0, 0], &[(2, 0), (0, 1), (2, 1)]);
        assert!(are_isomorphic(&tri1, &tri2));

        let p3 = g(&[0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(!are_isomorphic(&tri1, &p3));

        let tri_typed = g(&[0, 0, 1], &[(0, 1), (1, 2), (0, 2)]);
        assert!(!are_isomorphic(&tri1, &tri_typed));
    }

    #[test]
    fn isomorphism_distinguishes_same_degree_sequence() {
        // hexagon vs two triangles: same degree sequence, not isomorphic
        let hex = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_tri = g(&[0; 6], &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(!are_isomorphic(&hex, &two_tri));
    }

    #[test]
    fn empty_pattern_yields_one_empty_embedding() {
        let pat = g(&[], &[]);
        let target = g(&[0], &[]);
        let embs = enumerate(&pat, &target, MatchOptions::default());
        assert_eq!(embs, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn pattern_larger_than_target_never_matches() {
        let pat = g(&[0, 0], &[(0, 1)]);
        let target = g(&[0], &[]);
        assert!(enumerate(&pat, &target, MatchOptions::default()).is_empty());
    }

    #[test]
    fn matching_order_covers_each_node_once() {
        let star = g(&[0; 5], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let order = matching_order(&star);
        // Center first (highest degree), then leaves by ascending id: the
        // dedup-by-id fix makes the equal-degree tie order well-defined.
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        let ring = g(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut seen = matching_order(&ring);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn engines_emit_identical_sequences() {
        let square = g(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p3 = g(&[1, 0, 1], &[(0, 1), (1, 2)]);
        for induced in [true, false] {
            let opts = MatchOptions { induced, max_embeddings: usize::MAX };
            let reference = enumerate_with(&p3, &square, opts, false);
            let bitset = enumerate_with(&p3, &square, opts, true);
            assert!(!reference.is_empty());
            assert_eq!(reference, bitset, "induced={induced}");
        }
        // Truncated enumerations must agree too: same order, same prefix.
        let edge = g(&[0, 0], &[(0, 1)]);
        let opts = MatchOptions { induced: true, max_embeddings: 3 };
        assert_eq!(
            enumerate_with(&edge, &square, opts, false),
            enumerate_with(&edge, &square, opts, true)
        );
    }

    #[test]
    fn extension_matches_scratch_enumeration() {
        // parent: single type-0 node; child: type-0 -- type-1 edge.
        let parent = g(&[0], &[]);
        let child = g(&[0, 1], &[(0, 1)]);
        let target = g(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let index = MatchIndex::build(&target);
        let opts = MatchOptions::default();
        // Seeds: parent embeddings lifted into child space (child node 0 is
        // the parent node, child node 1 is new).
        let seeds: Vec<Vec<NodeId>> =
            enumerate(&parent, &target, opts).into_iter().map(|m| vec![m[0], usize::MAX]).collect();
        let ext = extend_embeddings(&child, &target, &index, &seeds, 1, opts);
        assert!(!ext.truncated);
        let mut extended = ext.embeddings;
        let mut scratch = enumerate(&child, &target, opts);
        extended.sort_unstable();
        scratch.sort_unstable();
        assert_eq!(extended, scratch);
    }

    #[test]
    fn extension_reports_truncation() {
        let parent = g(&[0], &[]);
        let child = g(&[0, 0], &[(0, 1)]);
        // 5-clique of type 0: 20 ordered edge embeddings.
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let target = g(&[0; 5], &edges);
        let index = MatchIndex::build(&target);
        let opts = MatchOptions { induced: true, max_embeddings: usize::MAX };
        let seeds: Vec<Vec<NodeId>> =
            enumerate(&parent, &target, opts).into_iter().map(|m| vec![m[0], usize::MAX]).collect();
        let capped = MatchOptions { induced: true, max_embeddings: 7 };
        let ext = extend_embeddings(&child, &target, &index, &seeds, 1, capped);
        assert!(ext.truncated);
        assert_eq!(ext.embeddings.len(), 7);
        let full = extend_embeddings(&child, &target, &index, &seeds, 1, opts);
        assert!(!full.truncated);
        assert_eq!(full.embeddings.len(), 20);
    }
}
