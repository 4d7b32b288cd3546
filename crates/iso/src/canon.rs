//! Exact canonical codes for small typed graphs.
//!
//! The pattern miner deduplicates candidates by isomorphism. Pairwise
//! `are_isomorphic` scans make every insertion O(bucket × VF2); a canonical
//! code turns dedup into a hash lookup — two small graphs are isomorphic
//! **iff** their codes are equal — so each bucket needs at most one VF2
//! confirmation (kept only to guard the hash path, see `gvex-mining`).
//!
//! The code is the lexicographically least adjacency encoding over all
//! node orderings that respect a 1-WL color refinement: refine colors from
//! `(node type, out-degree, in-degree)` until stable, then try every
//! permutation *within* color classes (classes are isomorphism-invariant,
//! so the minimum over class-respecting orderings is graph-invariant and
//! complete). Graphs whose class sizes would exceed [`PERM_BUDGET`]
//! orderings — or with more than [`MAX_CANON_NODES`] nodes — return `None`
//! and the caller falls back to pairwise checks. Mined patterns are ≤ 6–8
//! nodes with mixed types, so the fallback is rare in practice.

use gvex_graph::{Graph, NodeId};

/// Largest graph the canonicalizer will attempt.
pub const MAX_CANON_NODES: usize = 10;

/// Cap on class-respecting orderings tried (7! covers a 7-node graph whose
/// refinement finds no structure at all).
pub const PERM_BUDGET: u64 = 5040;

/// The canonical code: equal iff the graphs are isomorphic. `None` when the
/// graph exceeds the node or permutation budget.
pub fn canonical_code(g: &Graph) -> Option<Vec<u64>> {
    let n = g.num_nodes();
    if n > MAX_CANON_NODES {
        return None;
    }
    if n == 0 {
        return Some(vec![0, 0, g.is_directed() as u64]);
    }
    let colors = refine_colors(g);

    // Group nodes into classes ordered by color (colors are ranks of
    // invariant keys, so the class order is itself invariant).
    let num_colors = colors.iter().max().unwrap() + 1;
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); num_colors];
    for (v, &c) in colors.iter().enumerate() {
        classes[c].push(v);
    }
    classes.retain(|c| !c.is_empty());

    let mut total: u64 = 1;
    for class in &classes {
        total = total.checked_mul(factorial(class.len()))?;
        if total > PERM_BUDGET {
            return None;
        }
    }

    let mut best: Option<Vec<u64>> = None;
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut scratch: Vec<u64> = Vec::new();
    for idx in 0..total {
        // Decode `idx` into one permutation per class (mixed-radix over the
        // class factorials), building the candidate node ordering.
        order.clear();
        let mut rem = idx;
        for class in &classes {
            let f = factorial(class.len());
            nth_permutation(class, rem % f, &mut order);
            rem /= f;
        }
        encode(g, &order, &mut scratch);
        if best.as_ref().is_none_or(|b| scratch < *b) {
            best = Some(scratch.clone());
        }
    }
    best
}

/// One neighbourhood signature entry: `(edge type, neighbour color,
/// direction flag)` — direction is 0 for out-edges, 1 for in-edges.
type SigEntry = (u64, usize, u8);

/// 1-WL color refinement seeded from `(type, out-degree, in-degree)`.
fn refine_colors(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let seed: Vec<(u64, usize, usize)> =
        (0..n).map(|v| (g.node_type(v) as u64, g.degree(v), g.in_neighbors(v).len())).collect();
    let mut colors = rank(&seed);
    loop {
        let keys: Vec<(usize, Vec<SigEntry>)> = (0..n)
            .map(|v| {
                let mut sig: Vec<SigEntry> =
                    g.neighbors(v).map(|(u, et)| (et as u64, colors[u], 0)).collect();
                if g.is_directed() {
                    sig.extend(g.in_neighbors(v).map(|(u, et)| (et as u64, colors[u], 1)));
                }
                sig.sort_unstable();
                (colors[v], sig)
            })
            .collect();
        let next = rank(&keys);
        if next == colors {
            return colors;
        }
        colors = next;
    }
}

/// Dense ranks of `keys` in sorted order (equal keys share a rank).
fn rank<K: Ord + Clone>(keys: &[K]) -> Vec<usize> {
    let mut sorted: Vec<K> = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    keys.iter().map(|k| sorted.binary_search(k).expect("key came from the same slice")).collect()
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// Appends the `k`-th lexicographic permutation of `items` to `out`
/// (factorial number system).
fn nth_permutation(items: &[NodeId], mut k: u64, out: &mut Vec<NodeId>) {
    let mut pool: Vec<NodeId> = items.to_vec();
    for i in (1..=pool.len()).rev() {
        let f = factorial(i - 1);
        let pick = (k / f) as usize;
        k %= f;
        out.push(pool.remove(pick));
    }
}

/// Serializes the graph under the node ordering `order`: header, node
/// types, then the (typed) adjacency matrix row-major. Fully determines the
/// graph up to the relabeling, so distinct graphs never share a minimum.
fn encode(g: &Graph, order: &[NodeId], out: &mut Vec<u64>) {
    out.clear();
    let n = order.len();
    out.push(n as u64);
    out.push(g.num_edges() as u64);
    out.push(g.is_directed() as u64);
    for &v in order {
        out.push(g.node_type(v) as u64 + 1);
    }
    let cell = |u: NodeId, v: NodeId| g.edge_type(u, v).map_or(0, |t| t as u64 + 1);
    if g.is_directed() {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    out.push(cell(order[i], order[j]));
                }
            }
        }
    } else {
        for i in 0..n {
            for j in (i + 1)..n {
                out.push(cell(order[i], order[j]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::are_isomorphic;

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
    fn relabeled_graphs_share_a_code() {
        let a = g(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = g(&[2, 0, 1], &[(1, 2), (2, 0)]);
        assert!(are_isomorphic(&a, &b));
        assert_eq!(canonical_code(&a).unwrap(), canonical_code(&b).unwrap());
    }

    #[test]
    fn hexagon_and_two_triangles_differ() {
        // Same degree sequence, same type multiset, not isomorphic — and
        // 1-WL alone cannot tell them apart, so this exercises the
        // permutation sweep.
        let hex = g(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let two_tri = g(&[0; 6], &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert_ne!(canonical_code(&hex).unwrap(), canonical_code(&two_tri).unwrap());
    }

    #[test]
    fn node_types_distinguish() {
        let a = g(&[0, 0, 1], &[(0, 1), (1, 2)]);
        let b = g(&[0, 1, 0], &[(0, 1), (1, 2)]);
        assert_ne!(canonical_code(&a).unwrap(), canonical_code(&b).unwrap());
    }

    #[test]
    fn edge_types_distinguish() {
        let mut b1 = Graph::builder(false);
        b1.add_node(0, &[]);
        b1.add_node(0, &[]);
        b1.add_edge(0, 1, 1);
        let mut b2 = Graph::builder(false);
        b2.add_node(0, &[]);
        b2.add_node(0, &[]);
        b2.add_edge(0, 1, 2);
        assert_ne!(canonical_code(&b1.build()).unwrap(), canonical_code(&b2.build()).unwrap());
    }

    #[test]
    fn directed_orientation_distinguishes() {
        let mut b1 = Graph::builder(true);
        b1.add_node(0, &[]);
        b1.add_node(1, &[]);
        b1.add_edge(0, 1, 0);
        let mut b2 = Graph::builder(true);
        b2.add_node(0, &[]);
        b2.add_node(1, &[]);
        b2.add_edge(1, 0, 0);
        assert_ne!(canonical_code(&b1.build()).unwrap(), canonical_code(&b2.build()).unwrap());
    }

    #[test]
    fn budget_overflow_returns_none() {
        // 11 nodes exceeds MAX_CANON_NODES outright.
        let big = g(&[0; 11], &[]);
        assert!(canonical_code(&big).is_none());
        // 9 isolated same-type nodes: one class of 9 → 9! > PERM_BUDGET.
        let nine = g(&[0; 9], &[]);
        assert!(canonical_code(&nine).is_none());
    }

    #[test]
    fn empty_graph_has_a_code() {
        assert!(canonical_code(&g(&[], &[])).is_some());
    }

    /// Exactness sweep: every pair of small random-ish graphs agrees with
    /// `are_isomorphic` on code equality.
    #[test]
    fn codes_agree_with_vf2_on_small_graphs() {
        let graphs = [
            g(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]),
            g(&[0, 0, 0, 0], &[(3, 2), (2, 1), (1, 0)]),
            g(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            g(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
            g(&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
            g(&[0, 1, 0, 0], &[(1, 0), (1, 2), (1, 3)]),
            g(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(&[0, 0, 0], &[(0, 1), (1, 2)]),
        ];
        for (i, a) in graphs.iter().enumerate() {
            for b in &graphs[i..] {
                let same_code = canonical_code(a).unwrap() == canonical_code(b).unwrap();
                assert_eq!(same_code, are_isomorphic(a, b));
            }
        }
    }
}
