//! Normalized adjacency construction and sparse–dense products (Eq. 1).
//!
//! GCN propagation multiplies node representations by
//! `Ã = D̂^{-1/2} Â D̂^{-1/2}` with `Â = A + I`. We materialize `Ã` as sparse
//! rows once per graph and reuse it across layers, training epochs, and the
//! Jacobian computation. Directed graphs (MALNET-style call graphs) are
//! symmetrized for propagation, matching PyG's default `GCNConv` treatment.

use gvex_graph::GraphRef;
use gvex_linalg::backend::{KernelBackend, SimdBackend};
use gvex_linalg::Matrix;
use rayon::prelude::*;

/// Neighborhood aggregation scheme — the message-passing variant the model
/// uses (§2.1 notes GNN variants share the same feature-learning paradigm;
/// GVEX is agnostic to which one is plugged in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Aggregation {
    /// GCN: symmetric normalization `D̂^{-1/2} Â D̂^{-1/2}` (Kipf & Welling).
    #[default]
    GcnNorm,
    /// GraphSAGE-style mean aggregation `D̂^{-1} Â` (Hamilton et al.).
    Mean,
    /// GIN-style sum aggregation `Â = A + I` (Xu et al.).
    Sum,
}

/// How entry weights are assigned while rows are built. The policy is
/// resolved before any row exists, so every aggregation scheme constructs
/// its operator directly instead of patching the GCN-normalized one.
enum WeightPolicy<'w> {
    /// `w(u, v) · deg^{-1/2}(u) · deg^{-1/2}(v)`; self loops stay unmasked
    /// at `deg^{-1}(u)` (Kipf & Welling normalization, optionally masked).
    SymNorm(&'w dyn Fn(usize, usize) -> f32),
    /// Every entry of row `u` — self loop included — weighs `1/(deg(u)+1)`
    /// (GraphSAGE-style mean).
    MeanRow,
    /// Every entry weighs 1 (GIN-style `Â = A + I`).
    UnitSum,
}

/// `Ã` stored as per-row `(col, weight)` lists, sorted by column.
#[derive(Clone, Debug, PartialEq)]
pub struct NormAdj {
    rows: Vec<Vec<(usize, f32)>>,
}

impl NormAdj {
    /// Builds `D̂^{-1/2} (A + Aᵀ + I) D̂^{-1/2}` for `g` — a `&Graph` or a
    /// borrowed [`GraphRef`] view (candidate subgraphs and complements build
    /// their operator straight off the parent adjacency, no owned copy).
    pub fn new<'a>(g: impl Into<GraphRef<'a>>) -> Self {
        Self::build(&g.into(), WeightPolicy::SymNorm(&|_, _| 1.0))
    }

    /// Builds the propagation operator for the chosen aggregation scheme.
    pub fn with_aggregation<'a>(g: impl Into<GraphRef<'a>>, aggregation: Aggregation) -> Self {
        let g = g.into();
        match aggregation {
            Aggregation::GcnNorm => Self::build(&g, WeightPolicy::SymNorm(&|_, _| 1.0)),
            Aggregation::Mean => Self::build(&g, WeightPolicy::MeanRow),
            Aggregation::Sum => Self::build(&g, WeightPolicy::UnitSum),
        }
    }

    /// Builds the normalized adjacency with a per-edge-**type** weight
    /// multiplier (self-loops stay unweighted). The substrate for
    /// edge-feature-aware propagation: bond types, call kinds, and other
    /// `L(e)` information modulate message passing.
    pub fn with_typed_edge_weights<'a>(
        g: impl Into<GraphRef<'a>>,
        w: impl Fn(gvex_graph::EdgeTypeId) -> f32,
    ) -> Self {
        let g = g.into();
        let mut adj = Self::build(&g, WeightPolicy::SymNorm(&|_, _| 1.0));
        for u in 0..adj.rows.len() {
            for e in adj.rows[u].iter_mut() {
                if e.0 == u {
                    continue; // self loop
                }
                // symmetrized directed graphs: the edge may exist either way
                let t = g.edge_type(u, e.0).or_else(|| g.edge_type(e.0, u));
                if let Some(t) = t {
                    e.1 *= w(t).max(0.0);
                }
            }
        }
        adj
    }

    /// Builds the normalized adjacency with a per-edge weight multiplier
    /// `w(u, v) ∈ [0, 1]` applied to the *unnormalized* entry, while the
    /// degree normalization stays that of the unmasked graph. This is the
    /// soft-mask semantics the GNNExplainer baseline differentiates through.
    pub fn with_edge_weights<'a>(
        g: impl Into<GraphRef<'a>>,
        w: impl Fn(usize, usize) -> f32,
    ) -> Self {
        Self::build(&g.into(), WeightPolicy::SymNorm(&w))
    }

    /// Single construction path: symmetrizes the neighbor sets, then fills
    /// each row with the entry weights the policy dictates.
    #[allow(clippy::needless_range_loop)] // index parallels a second structure; enumerate would obscure it
    fn build(g: &GraphRef<'_>, policy: WeightPolicy<'_>) -> Self {
        let n = g.num_nodes();
        // symmetrized neighbor sets (direction ignored for propagation)
        let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for u in 0..n {
            for (v, _) in g.neighbors(u) {
                nbrs[u].push(v);
                if g.is_directed() {
                    nbrs[v].push(u);
                }
            }
        }
        for l in &mut nbrs {
            l.sort_unstable();
            l.dedup();
        }
        // entry(u, v) covers self loops as v == u
        let entry: Box<dyn Fn(usize, usize) -> f32> = match policy {
            WeightPolicy::SymNorm(w) => {
                let deg_inv_sqrt: Vec<f32> =
                    (0..n).map(|u| 1.0 / ((nbrs[u].len() + 1) as f32).sqrt()).collect();
                Box::new(move |u, v| {
                    let mask = if u == v { 1.0 } else { w(u, v).clamp(0.0, 1.0) };
                    mask * deg_inv_sqrt[u] * deg_inv_sqrt[v]
                })
            }
            WeightPolicy::MeanRow => {
                let deg: Vec<usize> = nbrs.iter().map(Vec::len).collect();
                Box::new(move |u, _| 1.0 / (deg[u] + 1) as f32)
            }
            WeightPolicy::UnitSum => Box::new(|_, _| 1.0),
        };
        let mut rows = Vec::with_capacity(n);
        for u in 0..n {
            let mut row = Vec::with_capacity(nbrs[u].len() + 1);
            let mut pushed_self = false;
            for &v in &nbrs[u] {
                if !pushed_self && v > u {
                    row.push((u, entry(u, u)));
                    pushed_self = true;
                }
                row.push((v, entry(u, v)));
            }
            if !pushed_self {
                row.push((u, entry(u, u)));
            }
            rows.push(row);
        }
        Self { rows }
    }

    /// Concatenates per-graph operators into one block-diagonal operator:
    /// part `k`'s sparse rows are appended in order with every column index
    /// shifted by the running node offset, so `Ã_batch = diag(Ã_0 … Ã_{K-1})`
    /// without any padding. One [`Self::matmul`] over the stacked feature
    /// matrix then propagates every graph of the batch at once, and each
    /// stacked row is computed with exactly the per-graph accumulation
    /// order (the weights are moved bitwise).
    pub fn block_diagonal<'p>(parts: impl IntoIterator<Item = &'p NormAdj>) -> Self {
        let mut rows = Vec::new();
        let mut offset = 0usize;
        for part in parts {
            rows.extend(
                part.rows
                    .iter()
                    .map(|row| row.iter().map(|&(v, w)| (v + offset, w)).collect::<Vec<_>>()),
            );
            offset += part.rows.len();
        }
        Self { rows }
    }

    /// Number of stored nonzero entries (diagnostics and cost estimates).
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Number of rows (= nodes).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for a graph with no nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sparse row `u` as `(col, weight)` pairs.
    pub fn row(&self, u: usize) -> &[(usize, f32)] {
        &self.rows[u]
    }

    /// Dense product `Ã · X`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(x, &mut out);
        out
    }

    /// [`Self::matmul`] writing into a caller-owned output matrix (reshaped
    /// with its allocation reused), on the lane kernels of
    /// [`gvex_linalg::backend`]. The layer loops of the batched trainer use
    /// this to reuse one propagation scratch across epochs.
    pub fn matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows.len(), x.rows(), "NormAdj/matrix shape mismatch");
        SimdBackend.spmm_into(&self.rows, x, out);
    }

    /// Dense product `(I_B ⊗ Ã) · X`: applies `Ã` independently to each of
    /// the `X.rows() / len()` stacked `len()`-row blocks of `X`. This is the
    /// workhorse of the batched Jacobian, which propagates every
    /// forward-mode seed in one call. Blocks fan out across rayon workers;
    /// each output row has exactly one writer with a fixed accumulation
    /// order, so results are bitwise independent of the thread count. The
    /// per-row inner kernel accumulates neighbour contributions in
    /// registers with `mul_add`, as [`Self::matmul`] does.
    pub fn matmul_blocks(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_blocks_into(x, &mut out);
        out
    }

    /// [`Self::matmul_blocks`] writing into a caller-owned output matrix
    /// (reshaped with its allocation reused — see [`Matrix::reset_zeroed`]).
    ///
    /// Each block first takes a liveness census of its input rows: rows that
    /// are entirely zero — the overwhelming majority while a forward-mode
    /// Jacobian seed is still inside its `l`-hop neighbourhood — are dropped
    /// from every neighbour list before the kernel runs, and output rows
    /// with no live neighbour are skipped outright. Skipped contributions
    /// are exact zeros, so this changes results by at most the sign of a
    /// zero, and the per-block censuses keep the output bitwise independent
    /// of the rayon thread count. Blocks fan out only when the estimated
    /// work clears the fan-out threshold ([`rayon::should_fan_out`]);
    /// small products run on the calling thread, computing identical bits.
    pub fn matmul_blocks_into(&self, x: &Matrix, out: &mut Matrix) {
        let n = self.rows.len();
        assert!(n > 0, "empty operator");
        assert_eq!(x.rows() % n, 0, "NormAdj/block shape mismatch");
        let cols = x.cols();
        out.reset_zeroed(x.rows(), cols);
        let block_len = n * cols;
        if block_len == 0 {
            return;
        }
        let src = x.as_slice();
        let run_block = |(b, chunk): (usize, &mut [f32])| {
            let x_block = &src[b * block_len..(b + 1) * block_len];
            let live_in: Vec<bool> = (0..n)
                .map(|v| x_block[v * cols..(v + 1) * cols].iter().any(|&e| e != 0.0))
                .collect();
            let mut filtered: Vec<(usize, f32)> = Vec::new();
            for (u, row) in self.rows.iter().enumerate() {
                filtered.clear();
                filtered.extend(row.iter().filter(|&&(v, _)| live_in[v]));
                if filtered.is_empty() {
                    continue; // output row stays zero
                }
                let out_row = &mut chunk[u * cols..(u + 1) * cols];
                SimdBackend.spmm_row(out_row, x_block, &filtered, cols);
            }
        };
        // blocks × nnz × cols multiply-adds, assuming every row live
        let nnz: usize = self.rows.iter().map(Vec::len).sum();
        let est = (x.rows() / n) * nnz * cols;
        if rayon::should_fan_out(est) {
            out.as_mut_slice().par_chunks_mut(block_len).enumerate().for_each(run_block);
        } else {
            for pair in out.as_mut_slice().chunks_mut(block_len).enumerate() {
                run_block(pair);
            }
        }
    }

    /// Dense product `Ãᵀ · X`. `Ã` is symmetric whenever the edge-weight
    /// function was symmetric (always true for [`NormAdj::new`]), but the
    /// masked variant can be asymmetric, so backprop uses this explicitly.
    pub fn matmul_transpose(&self, x: &Matrix) -> Matrix {
        assert_eq!(self.rows.len(), x.rows(), "NormAdj/matrix shape mismatch");
        let mut out = Matrix::zeros(0, 0);
        SimdBackend.spmm_transpose_into(&self.rows, x, &mut out);
        out
    }

    /// The dense `n × n` matrix (tests and the exact Jacobian path only).
    pub fn to_dense(&self) -> Matrix {
        let n = self.rows.len();
        let mut m = Matrix::zeros(n, n);
        for (u, row) in self.rows.iter().enumerate() {
            for &(v, w) in row {
                m[(u, v)] = w;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_graph::Graph;

    fn edge_pair() -> Graph {
        let mut b = Graph::builder(false);
        let a = b.add_node(0, &[1.0]);
        let c = b.add_node(0, &[2.0]);
        b.add_edge(a, c, 0);
        b.build()
    }

    #[test]
    fn two_node_normalization() {
        // both nodes have deg 1 => \hat{D} = 2I, entries = 1/2.
        let adj = NormAdj::new(&edge_pair());
        let d = adj.to_dense();
        for r in 0..2 {
            for c in 0..2 {
                assert!((d[(r, c)] - 0.5).abs() < 1e-6, "entry ({r},{c}) = {}", d[(r, c)]);
            }
        }
    }

    #[test]
    fn rows_sum_to_at_most_one() {
        // D^{-1/2} Â D^{-1/2} row sums are ≤ 1, = 1 for regular graphs.
        let mut b = Graph::builder(false);
        for _ in 0..4 {
            b.add_node(0, &[0.0]);
        }
        // cycle: 2-regular
        for i in 0..4 {
            b.add_edge(i, (i + 1) % 4, 0);
        }
        let adj = NormAdj::new(&b.build());
        for u in 0..4 {
            let s: f32 = adj.row(u).iter().map(|&(_, w)| w).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn isolated_node_keeps_self_loop() {
        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        let adj = NormAdj::new(&b.build());
        assert_eq!(adj.row(0), &[(0, 1.0)]);
    }

    #[test]
    fn matmul_matches_dense() {
        let g = edge_pair();
        let adj = NormAdj::new(&g);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let sparse = adj.matmul(&x);
        let dense = adj.to_dense().matmul(&x);
        for i in 0..2 {
            for j in 0..2 {
                assert!((sparse[(i, j)] - dense[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matmul_blocks_applies_operator_per_block() {
        let g = edge_pair();
        let adj = NormAdj::new(&g);
        let top = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bot = Matrix::from_rows(&[&[5.0, -6.0], &[0.5, 8.0]]);
        let stacked = Matrix::from_rows(&[top.row(0), top.row(1), bot.row(0), bot.row(1)]);
        let got = adj.matmul_blocks(&stacked);
        let want = [adj.matmul(&top), adj.matmul(&bot)];
        for (block, want) in want.iter().enumerate() {
            for i in 0..2 {
                for j in 0..2 {
                    // FMA rounding in the chunked kernel vs. plain mul+add
                    assert!((got[(block * 2 + i, j)] - want[(i, j)]).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn matmul_transpose_matches_dense_transpose() {
        let g = edge_pair();
        let adj = NormAdj::with_edge_weights(&g, |u, _v| if u == 0 { 0.3 } else { 0.9 });
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let got = adj.matmul_transpose(&x);
        let want = adj.to_dense().transpose().matmul(&x);
        for i in 0..2 {
            assert!((got[(i, 0)] - want[(i, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    fn directed_graph_symmetrized() {
        let mut b = Graph::builder(true);
        let a = b.add_node(0, &[]);
        let c = b.add_node(0, &[]);
        b.add_edge(a, c, 0);
        let adj = NormAdj::new(&b.build());
        let d = adj.to_dense();
        assert!(d[(1, 0)] > 0.0, "reverse direction present after symmetrization");
        assert!((d[(0, 1)] - d[(1, 0)]).abs() < 1e-6);
    }

    #[test]
    fn mean_aggregation_rows_sum_to_one() {
        let g = edge_pair();
        let adj = NormAdj::with_aggregation(&g, Aggregation::Mean);
        for u in 0..2 {
            let s: f32 = adj.row(u).iter().map(|&(_, w)| w).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {u} sums to {s}");
        }
    }

    #[test]
    fn sum_aggregation_entries_are_unit() {
        let g = edge_pair();
        let adj = NormAdj::with_aggregation(&g, Aggregation::Sum);
        for u in 0..2 {
            assert!(adj.row(u).iter().all(|&(_, w)| w == 1.0));
            assert_eq!(adj.row(u).len(), 2); // neighbor + self loop
        }
    }

    #[test]
    fn block_diagonal_concatenates_with_offsets() {
        let g = edge_pair();
        let a = NormAdj::new(&g);
        let mut b = Graph::builder(false);
        b.add_node(0, &[3.0]);
        let single = NormAdj::new(&b.build());
        let empty = NormAdj::block_diagonal([]);
        assert!(empty.is_empty());
        let batch = NormAdj::block_diagonal([&a, &empty, &single, &a]);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.nnz(), a.nnz() * 2 + 1);
        // second copy of `a` lives at row offset 3
        assert_eq!(batch.row(3), &[(3, a.row(0)[0].1), (4, a.row(0)[1].1)]);
        // the batched product equals the per-part products, stacked
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[5.0], &[-1.0], &[4.0]]);
        let got = batch.matmul(&x);
        let parts = [
            a.matmul(&Matrix::from_rows(&[&[1.0], &[2.0]])),
            single.matmul(&Matrix::from_rows(&[&[5.0]])),
            a.matmul(&Matrix::from_rows(&[&[-1.0], &[4.0]])),
        ];
        let stacked: Vec<&[f32]> =
            parts.iter().flat_map(|p| (0..p.rows()).map(|r| p.row(r))).collect();
        for (r, want) in stacked.iter().enumerate() {
            assert_eq!(got.row(r), *want, "row {r}");
        }
    }

    #[test]
    fn gcn_aggregation_matches_new() {
        let g = edge_pair();
        assert_eq!(NormAdj::with_aggregation(&g, Aggregation::GcnNorm), NormAdj::new(&g));
    }

    #[test]
    fn zero_edge_weight_removes_entry_weight() {
        let g = edge_pair();
        let adj = NormAdj::with_edge_weights(&g, |_, _| 0.0);
        let d = adj.to_dense();
        assert_eq!(d[(0, 1)], 0.0);
        assert!(d[(0, 0)] > 0.0, "self loop survives masking");
    }
}
