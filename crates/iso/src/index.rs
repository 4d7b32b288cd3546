//! Precomputed per-target match index for the bitset VF2 engine.
//!
//! Matching a pattern against a graph repeatedly (every mined candidate ×
//! every graph in the database, Algorithm 1's `PMatch` loop) pays for the
//! same neighbor-list scans over and over. A [`MatchIndex`] converts the
//! target once into fixed-width [`BitSet`] rows:
//!
//! * **adjacency rows** — `out_row(v)` / `in_row(v)` hold the (out-/in-)
//!   neighbors of `v` as bits, so "which targets are adjacent to every
//!   already-mapped image" is an O(words) intersection,
//! * **type rows** — `type_row(ty)` holds every node of type `ty`, the
//!   starting candidate set for a pattern node of that type,
//! * **uniform edge type** — when every target edge carries the same type,
//!   per-edge type checks can be skipped entirely (the common case for the
//!   paper's chemistry datasets, which are single-edge-type).
//!
//! Build cost is O(|V|²/64 + |E|) bits of work and O(|V|²/8) bytes of
//! memory, amortized across all patterns matched against the same target.

use gvex_graph::{BitSet, CsrGraph, EdgeTypeId, NodeId, NodeTypeId};

/// Bitset adjacency and candidate rows for one target graph.
#[derive(Clone, Debug)]
pub struct MatchIndex {
    num_nodes: usize,
    directed: bool,
    /// `out_rows[v]` = out-neighbors of `v` (all neighbors when undirected).
    out_rows: Vec<BitSet>,
    /// `in_rows[v]` = in-neighbors of `v`; empty when undirected (the
    /// symmetric `out_rows` serve both directions).
    in_rows: Vec<BitSet>,
    /// Candidate rows per node type, sorted by type id for binary search.
    type_rows: Vec<(NodeTypeId, BitSet)>,
    /// `Some(t)` iff the target has at least one edge and every edge has
    /// type `t`.
    uniform_edge_type: Option<EdgeTypeId>,
}

impl MatchIndex {
    /// Builds the index for `target` — a `&Graph` or a [`CsrGraph`]
    /// (the bitset rows are filled straight from its CSR rows).
    pub fn build<'a>(target: impl Into<CsrGraph<'a>>) -> MatchIndex {
        let target = target.into();
        let n = target.num_nodes();
        let mut out_rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        let mut in_rows: Vec<BitSet> = if target.is_directed() {
            (0..n).map(|_| BitSet::new(n)).collect()
        } else {
            Vec::new()
        };
        let mut uniform: Option<EdgeTypeId> = None;
        let mut mixed = false;
        for v in 0..n {
            for (u, et) in target.neighbors(v) {
                out_rows[v].insert(u);
                match uniform {
                    None => uniform = Some(et),
                    Some(t) if t != et => mixed = true,
                    Some(_) => {}
                }
            }
            if target.is_directed() {
                for (u, _) in target.in_neighbors(v) {
                    in_rows[v].insert(u);
                }
            }
        }
        let mut by_type: std::collections::BTreeMap<NodeTypeId, BitSet> = Default::default();
        for v in 0..n {
            by_type.entry(target.node_type(v)).or_insert_with(|| BitSet::new(n)).insert(v);
        }
        let directed = target.is_directed();
        MatchIndex {
            num_nodes: n,
            directed,
            out_rows,
            in_rows,
            type_rows: by_type.into_iter().collect(),
            uniform_edge_type: if mixed { None } else { uniform },
        }
    }

    /// Number of target nodes (the capacity of every row).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether the indexed target is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-neighbors of `v` as bits (all neighbors when undirected).
    #[inline]
    pub fn out_row(&self, v: NodeId) -> &BitSet {
        &self.out_rows[v]
    }

    /// In-neighbors of `v` as bits (all neighbors when undirected).
    #[inline]
    pub fn in_row(&self, v: NodeId) -> &BitSet {
        if self.directed {
            &self.in_rows[v]
        } else {
            &self.out_rows[v]
        }
    }

    /// All nodes of type `ty`, or `None` when the target has no such node.
    #[inline]
    pub fn type_row(&self, ty: NodeTypeId) -> Option<&BitSet> {
        self.type_rows.binary_search_by_key(&ty, |&(t, _)| t).ok().map(|i| &self.type_rows[i].1)
    }

    /// `Some(t)` iff every target edge has type `t` (and one exists).
    pub fn uniform_edge_type(&self) -> Option<EdgeTypeId> {
        self.uniform_edge_type
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_graph::Graph;

    fn g(types: &[u32], edges: &[(usize, usize, u32)], directed: bool) -> Graph {
        let mut b = Graph::builder(directed);
        for &t in types {
            b.add_node(t, &[]);
        }
        for &(u, v, et) in edges {
            b.add_edge(u, v, et);
        }
        b.build()
    }

    #[test]
    fn undirected_rows_are_symmetric() {
        let idx = MatchIndex::build(&g(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)], false));
        assert_eq!(idx.out_row(1).iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(idx.in_row(1).iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(idx.out_row(0).contains(1) && idx.in_row(2).contains(1));
    }

    #[test]
    fn directed_rows_split_directions() {
        let idx = MatchIndex::build(&g(&[0, 0, 0], &[(0, 1, 0), (2, 1, 0)], true));
        assert_eq!(idx.out_row(0).iter().collect::<Vec<_>>(), vec![1]);
        assert!(idx.out_row(1).is_empty());
        assert_eq!(idx.in_row(1).iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(idx.in_row(0).is_empty());
    }

    #[test]
    fn type_rows_partition_nodes() {
        let idx = MatchIndex::build(&g(&[2, 0, 2, 7], &[], false));
        assert_eq!(idx.type_row(2).unwrap().iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(idx.type_row(0).unwrap().iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(idx.type_row(7).unwrap().iter().collect::<Vec<_>>(), vec![3]);
        assert!(idx.type_row(1).is_none());
    }

    #[test]
    fn uniform_edge_type_detection() {
        let same = MatchIndex::build(&g(&[0, 0, 0], &[(0, 1, 3), (1, 2, 3)], false));
        assert_eq!(same.uniform_edge_type(), Some(3));
        let mixed = MatchIndex::build(&g(&[0, 0, 0], &[(0, 1, 3), (1, 2, 4)], false));
        assert_eq!(mixed.uniform_edge_type(), None);
        let none = MatchIndex::build(&g(&[0, 0], &[], false));
        assert_eq!(none.uniform_edge_type(), None);
    }
}
