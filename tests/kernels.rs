//! Fixed-seed pins of the kernels production runs.
//!
//! Production code calls one kernel set, the lane kernels of
//! `gvex_linalg::backend`. The scalar reference loops survive only as the
//! oracle reached through `backend(BackendKind::Scalar)`. Each test below
//! feeds the production call site (`Matrix::matmul`, `NormAdj`'s products,
//! the segmented readouts, `ops`, `Adam::step`) and the oracle the same
//! inputs at the shapes the GCN runs. The last test checks the whole
//! forward pass, per graph and batched, against a plain-loop GCN written
//! here. Tolerances follow DESIGN §12: bitwise for ReLU, the segmented
//! reductions and Adam; 1e-5 absolute otherwise.

use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::propagation::NormAdj;
use gvex::gnn::{GcnConfig, GcnModel, GraphBatch, Readout};
use gvex::graph::{Graph, GraphRef};
use gvex::linalg::backend::{backend, AdamParams, BackendKind, KernelBackend};
use gvex::linalg::{ops, segmented, Adam, Matrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn oracle() -> &'static dyn KernelBackend {
    backend(BackendKind::Scalar)
}

/// A `rows × cols` matrix of values in `[-0.5, 0.5)`, each entry exactly
/// zero with probability `zeros`.
fn random_matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize, zeros: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| if rng.gen_bool(zeros) { 0.0 } else { rng.gen_range(-0.5f32..0.5) })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The operator's rows in the oracle's input form.
fn rows_of(adj: &NormAdj) -> Vec<Vec<(usize, f32)>> {
    (0..adj.len()).map(|u| adj.row(u).to_vec()).collect()
}

/// The first `count` graphs of a small-scale dataset.
fn graphs(kind: DatasetKind, count: usize) -> Vec<Graph> {
    kind.generate(Scale::Small, 9).graphs().iter().take(count).cloned().collect()
}

#[test]
fn dense_matmul_matches_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // (rows, inner, cols, zero fraction): zero rows, degenerate and odd
    // shapes, one-hot-like features, hidden × hidden layers, the FC head
    let cases = [
        (0, 14, 16, 0.0),
        (1, 1, 1, 0.0),
        (7, 14, 16, 0.9),
        (23, 16, 16, 0.5),
        (33, 40, 29, 0.95),
        (30, 64, 2, 0.0),
        (65, 64, 63, 0.0),
        (70, 130, 67, 0.3),
        (128, 128, 128, 0.0),
    ];
    for (m, k, n, zeros) in cases {
        let a = random_matrix(&mut rng, m, k, zeros);
        let b = random_matrix(&mut rng, k, n, 0.0);
        let got = a.matmul(&b);
        let mut want = Matrix::zeros(0, 0);
        oracle().matmul_into(&a, &b, &mut want);
        assert_eq!(got.shape(), (m, n));
        assert_eq!(want.shape(), (m, n));
        let d = max_diff(got.as_slice(), want.as_slice());
        assert!(d < 1e-5, "matmul {m}x{k}x{n}: max diff {d:e}");
    }
    // rows that are entirely zero (forward-mode seed blocks)
    let mut a = random_matrix(&mut rng, 64, 40, 0.0);
    for r in (0..64).filter(|r| r % 4 != 0) {
        a.row_mut(r).fill(0.0);
    }
    let b = random_matrix(&mut rng, 40, 32, 0.0);
    let mut want = Matrix::zeros(0, 0);
    oracle().matmul_into(&a, &b, &mut want);
    assert!(max_diff(a.matmul(&b).as_slice(), want.as_slice()) < 1e-5, "row-sparse lhs");
}

#[test]
fn sparse_products_match_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut parts = Vec::new();
    for g in graphs(DatasetKind::Mutagenicity, 6).iter().chain(&graphs(DatasetKind::MalnetTiny, 2))
    {
        let n = g.num_nodes();
        for cols in [1, 14, 16, 33, 64] {
            let x = random_matrix(&mut rng, n, cols, 0.2);

            // CSR product (every layer's propagation)
            let adj = NormAdj::new(g);
            let mut want = Matrix::zeros(0, 0);
            oracle().spmm_into(&rows_of(&adj), &x, &mut want);
            let d = max_diff(adj.matmul(&x).as_slice(), want.as_slice());
            assert!(d < 1e-5, "spmm n={n} cols={cols}: {d:e}");

            // transposed product of an asymmetric (soft-masked) operator
            let masked = NormAdj::with_edge_weights(g, |u, v| if u < v { 0.3 } else { 0.9 });
            let mut want = Matrix::zeros(0, 0);
            oracle().spmm_transpose_into(&rows_of(&masked), &x, &mut want);
            let d = max_diff(masked.matmul_transpose(&x).as_slice(), want.as_slice());
            assert!(d < 1e-5, "transposed spmm n={n} cols={cols}: {d:e}");

            // block product over stacked Jacobian-seed-like blocks: mostly
            // dead rows, one block entirely zero
            let blocks = 3;
            let mut stacked = random_matrix(&mut rng, blocks * n, cols, 0.7);
            for r in 0..n {
                stacked.row_mut(r).fill(0.0);
            }
            let got = adj.matmul_blocks(&stacked);
            for b in 0..blocks {
                let block = Matrix::from_vec(
                    n,
                    cols,
                    stacked.as_slice()[b * n * cols..(b + 1) * n * cols].to_vec(),
                );
                let mut want = Matrix::zeros(0, 0);
                oracle().spmm_into(&rows_of(&adj), &block, &mut want);
                let d =
                    max_diff(&got.as_slice()[b * n * cols..(b + 1) * n * cols], want.as_slice());
                assert!(d < 1e-5, "block spmm n={n} cols={cols} block {b}: {d:e}");
            }
        }
        parts.push(NormAdj::new(g));
    }
    // the block-diagonal operator of a packed batch
    let batch = NormAdj::block_diagonal(parts.iter());
    let x = random_matrix(&mut rng, batch.len(), 16, 0.1);
    let mut want = Matrix::zeros(0, 0);
    oracle().spmm_into(&rows_of(&batch), &x, &mut want);
    assert!(max_diff(batch.matmul(&x).as_slice(), want.as_slice()) < 1e-5, "batched spmm");
}

#[test]
fn segmented_reductions_match_oracle_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    // segment lengths with empty segments (zero-node graphs in a batch)
    let lens = [5usize, 0, 1, 17, 3, 0, 30, 2];
    let mut offsets = vec![0usize];
    for len in lens {
        offsets.push(offsets.last().expect("nonempty") + len);
    }
    let rows = *offsets.last().expect("nonempty");
    let segments = lens.len();
    for cols in [1usize, 3, 8, 16, 17, 33, 64] {
        // a few distinct values, so per-column maxima tie often
        let levels = [-1.0f32, 0.0, 0.25, 0.5, 0.5, 1.0];
        let data = (0..rows * cols).map(|_| levels[rng.gen_range(0..levels.len())]).collect();
        let x = Matrix::from_vec(rows, cols, data);

        let (max, arg) = segmented::segmented_col_max(&x, &offsets);
        let mut want = Matrix::zeros(segments, cols);
        let mut want_arg = vec![0usize; segments * cols];
        oracle().segmented_col_max(&x, &offsets, &mut want, &mut want_arg);
        assert_eq!(bits(max.as_slice()), bits(want.as_slice()), "max cols={cols}");
        assert_eq!(arg, want_arg, "argmax ties cols={cols}");

        let mut want = Matrix::zeros(segments, cols);
        oracle().segmented_col_sum(&x, &offsets, &mut want);
        let sum = segmented::segmented_col_sum(&x, &offsets);
        assert_eq!(bits(sum.as_slice()), bits(want.as_slice()), "sum cols={cols}");

        let mut want = Matrix::zeros(segments, cols);
        oracle().segmented_col_mean(&x, &offsets, &mut want);
        let mean = segmented::segmented_col_mean(&x, &offsets);
        assert_eq!(bits(mean.as_slice()), bits(want.as_slice()), "mean cols={cols}");
    }
}

#[test]
fn relu_forward_and_backward_match_oracle_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for (rows, cols) in [(0, 16), (1, 1), (7, 16), (23, 33), (64, 128)] {
        let mut x = random_matrix(&mut rng, rows, cols, 0.2);
        if rows > 0 {
            x.row_mut(0)[0] = -0.0; // the sign of zero survives both kernels
        }
        let grad = random_matrix(&mut rng, rows, cols, 0.0);

        let mut want = x.as_slice().to_vec();
        oracle().relu(&mut want);
        assert_eq!(bits(ops::relu(&x).as_slice()), bits(&want), "relu {rows}x{cols}");

        let mut want = grad.as_slice().to_vec();
        oracle().relu_backward(x.as_slice(), &mut want);
        let got = ops::relu_backward(&x, &grad);
        assert_eq!(bits(got.as_slice()), bits(&want), "relu_backward {rows}x{cols}");
    }
}

#[test]
fn softmax_matches_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for width in [1usize, 2, 7, 8, 9, 16, 39] {
        let logits: Vec<f32> = (0..width).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let mut want = logits.clone();
        oracle().softmax_row(&mut want);
        assert!(max_diff(&ops::softmax(&logits), &want) < 1e-5, "softmax width {width}");

        let m = Matrix::from_vec(3, width, logits.repeat(3));
        let got = ops::softmax_rows(&m);
        for r in 0..3 {
            assert!(max_diff(got.row(r), &want) < 1e-5, "softmax_rows width {width}");
        }
    }
}

#[test]
fn adam_matches_oracle_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    // conv weights, the FC head and its bias, and an empty parameter
    for (rows, cols) in [(14, 16), (16, 16), (64, 2), (1, 2), (0, 3)] {
        let lr = 0.01;
        let mut param = random_matrix(&mut rng, rows, cols, 0.0);
        let mut opt = Adam::with_lr(rows, cols, lr);
        let mut want = param.as_slice().to_vec();
        let (mut m, mut v) = (vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]);
        for t in 1..=5i32 {
            let grad = random_matrix(&mut rng, rows, cols, 0.1);
            opt.step(&mut param, &grad);
            let hp = AdamParams {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                bias1: 1.0 - 0.9f32.powi(t),
                bias2: 1.0 - 0.999f32.powi(t),
                eps: 1e-8,
            };
            oracle().adam_update(&mut want, grad.as_slice(), &mut m, &mut v, &hp);
            assert_eq!(bits(param.as_slice()), bits(&want), "adam {rows}x{cols} step {t}");
        }
    }
}

/// The GCN forward as plain loops, straight from the model's definition:
/// `Ã = D̂^{-1/2}(A + Aᵀ + I)D̂^{-1/2}` built from the adjacency lists,
/// `H_i = ReLU(Ã·H_{i-1}·Θ_i)`, the readout over nodes, then
/// `logits = g·W_fc + b_fc`.
fn oracle_logits(model: &GcnModel, g: &Graph) -> Vec<f32> {
    let n = g.num_nodes();
    let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in 0..n {
        for (v, _) in g.neighbors(u) {
            nbrs[u].push(v);
            nbrs[v].push(u);
        }
    }
    for list in &mut nbrs {
        list.sort_unstable();
        list.dedup();
    }
    let scale: Vec<f32> = nbrs.iter().map(|l| 1.0 / ((l.len() + 1) as f32).sqrt()).collect();
    let mut h: Vec<Vec<f32>> = (0..n).map(|v| g.features().row(v).to_vec()).collect();
    for layer in 0..model.config().layers {
        let w = model.conv_weight(layer);
        let mut next = vec![vec![0.0f32; w.cols()]; n];
        for u in 0..n {
            let mut agg = vec![0.0f32; w.rows()];
            for &v in nbrs[u].iter().chain([u].iter()) {
                for (s, &x) in agg.iter_mut().zip(&h[v]) {
                    *s += scale[u] * scale[v] * x;
                }
            }
            for (j, out) in next[u].iter_mut().enumerate() {
                let z: f32 = agg.iter().enumerate().map(|(i, &a)| a * w[(i, j)]).sum();
                *out = z.max(0.0);
            }
        }
        h = next;
    }
    let pooled: Vec<f32> = (0..model.config().hidden)
        .map(|j| {
            let column = h.iter().map(|row| row[j]);
            match model.readout() {
                Readout::Max => column.fold(if n == 0 { 0.0 } else { f32::NEG_INFINITY }, f32::max),
                Readout::Mean => column.sum::<f32>() / n.max(1) as f32,
                Readout::Sum => column.sum(),
            }
        })
        .collect();
    let (w, b) = (model.fc_weight(), model.fc_bias());
    (0..w.cols())
        .map(|c| b[(0, c)] + pooled.iter().enumerate().map(|(j, &p)| p * w[(j, c)]).sum::<f32>())
        .collect()
}

#[test]
fn gcn_forward_matches_plain_loop_oracle() {
    for kind in [DatasetKind::Mutagenicity, DatasetKind::MalnetTiny] {
        let mut graphs = graphs(kind, 12);
        let dim = graphs[0].feature_dim();
        // a lone node: its only neighbour is its own self loop
        let mut lone = Graph::builder(graphs[0].is_directed());
        lone.add_node(0, &vec![0.5; dim]);
        graphs.push(lone.build());
        let views: Vec<GraphRef<'_>> = graphs.iter().map(|g| g.view()).collect();
        for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
            let cfg = GcnConfig { input_dim: dim, hidden: 16, layers: 3, num_classes: 2 };
            let model =
                GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(11)).with_readout(readout);
            let batched = model.forward_batch(&GraphBatch::pack(&model, &views));
            for (k, g) in graphs.iter().enumerate() {
                let want = oracle_logits(&model, g);
                let single = model.forward(g);
                let what = format!(
                    "{} graph {k} ({} nodes), {readout:?}",
                    kind.short_name(),
                    g.num_nodes()
                );
                assert!(max_diff(&single.logits, &want) < 1e-5, "forward logits: {what}");
                assert!(max_diff(batched.logits.row(k), &want) < 1e-5, "batched logits: {what}");
                let label = ops::argmax(&want);
                assert_eq!(single.label(), label, "forward label: {what}");
                assert_eq!(batched.label(k), label, "batched label: {what}");
            }
        }
    }
}
