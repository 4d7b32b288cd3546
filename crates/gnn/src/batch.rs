//! Block-diagonal batched execution: many small graphs, one kernel call.
//!
//! The databases of §6.1 hold thousands of graphs of a few dozen nodes;
//! executed one at a time, each forward pass multiplies matrices far too
//! small to amortize the tiled matmul kernels. A [`GraphBatch`] packs `K`
//! graphs into
//!
//! * one stacked feature matrix (`ΣNᵢ × D`, rows grouped per graph),
//! * one block-diagonal sparse operator `diag(Ã_0 … Ã_{K-1})`
//!   ([`NormAdj::block_diagonal`] — concatenated sparse rows with
//!   column-offset shifts, no padding), and
//! * a segment table `offsets` with `offsets[k]..offsets[k+1]` spanning
//!   graph `k`'s rows.
//!
//! [`GcnModel::forward_batch`] then runs the whole batch through each layer
//! with one SpMM and one dense matmul, reduces the readout per segment
//! ([`gvex_linalg::segmented`]), and applies the FC head to all `K` pooled
//! rows at once. [`GcnModel::backward_batch`] mirrors it: per-graph
//! cross-entropy rows, a segmented readout scatter, and one reverse sweep
//! whose weight-gradient products accumulate over the entire batch — the
//! substrate of `TrainOptions::batch_size` mini-batch training and of
//! [`GcnModel::classify_database`] database-wide inference.
//!
//! Per-graph rows of the batched SpMM are bitwise identical to the
//! per-graph [`NormAdj::matmul`] (both run the same
//! [`gvex_linalg::backend`] kernel); the *dense* products may tile differently
//! at batch shapes, so batched logits agree with the per-graph path to
//! FP rounding (≪ 1e-5, pinned by `tests/batched.rs`), not bitwise. The
//! per-graph path itself is untouched — `batch_size = 1` training and
//! `predict` remain bit-exact with the pre-batching code.

use crate::model::{GcnModel, Gradients};
use crate::propagation::NormAdj;
use gvex_graph::{GraphDatabase, GraphRef};
use gvex_linalg::{ops, segmented, Matrix};
use std::sync::Arc;

/// Database-wide inference chunk size: large enough that one fused
/// forward amortizes its per-call overhead over many graphs, small enough
/// to keep the block-diagonal operator cache-resident.
pub const DEFAULT_BATCH: usize = 32;

/// `K` graphs packed for one fused forward pass: stacked features, the
/// block-diagonal propagation operator, and the node-offset segment table.
#[derive(Clone, Debug)]
pub struct GraphBatch {
    /// `offsets[k]..offsets[k + 1]` are graph `k`'s rows; length `K + 1`.
    offsets: Vec<usize>,
    /// Stacked node features, `ΣNᵢ × D`.
    features: Matrix,
    /// `diag(Ã_0 … Ã_{K-1})`.
    adj: Arc<NormAdj>,
}

impl GraphBatch {
    /// Packs `graphs` under `model`'s propagation scheme (aggregation and
    /// edge gates respected — each block is exactly the operator the
    /// per-graph forward would build).
    pub fn pack(model: &GcnModel, graphs: &[GraphRef<'_>]) -> Self {
        let adjs: Vec<NormAdj> = graphs.iter().map(|g| model.propagation_operator(g)).collect();
        let block = NormAdj::block_diagonal(adjs.iter());
        Self::assemble(graphs, block, model.config().input_dim)
    }

    /// Packs `graphs` reusing cached per-graph operators (the training loop
    /// builds each graph's `NormAdj` once and re-batches refcounted clones
    /// every epoch). `adjs` must align with `graphs`.
    pub fn pack_with_operators(
        graphs: &[GraphRef<'_>],
        adjs: &[Arc<NormAdj>],
        input_dim: usize,
    ) -> Self {
        assert_eq!(graphs.len(), adjs.len(), "one operator per graph");
        let block = NormAdj::block_diagonal(adjs.iter().map(Arc::as_ref));
        Self::assemble(graphs, block, input_dim)
    }

    fn assemble(graphs: &[GraphRef<'_>], block: NormAdj, input_dim: usize) -> Self {
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        offsets.push(0usize);
        for g in graphs {
            offsets.push(offsets.last().expect("nonempty") + g.num_nodes());
        }
        let total = *offsets.last().expect("nonempty");
        assert_eq!(block.len(), total, "operator/graph node counts disagree");
        let mut features = Matrix::zeros(total, input_dim);
        for (k, g) in graphs.iter().enumerate() {
            if g.num_nodes() == 0 {
                continue; // zero-node graphs contribute an empty segment
            }
            assert_eq!(
                g.feature_dim(),
                input_dim,
                "graph {k}: feature dim {} != model input dim {input_dim}",
                g.feature_dim()
            );
            for v in 0..g.num_nodes() {
                features.set_row(offsets[k] + v, g.feature_row(v));
            }
        }
        gvex_obs::counter!("gnn.batch.graphs", graphs.len() as u64);
        gvex_obs::counter!("gnn.batch.nodes", total as u64);
        gvex_obs::histogram!("gnn.batch.graphs_per_batch", graphs.len() as u64);
        Self { offsets, features, adj: Arc::new(block) }
    }

    /// Number of graphs `K` in the batch.
    pub fn num_graphs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stacked node count `ΣNᵢ`.
    pub fn num_nodes(&self) -> usize {
        *self.offsets.last().expect("nonempty")
    }

    /// The segment table (length `K + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Graph `k`'s stacked-row range.
    pub fn segment(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k]..self.offsets[k + 1]
    }

    /// The block-diagonal propagation operator.
    pub fn adj(&self) -> &Arc<NormAdj> {
        &self.adj
    }
}

/// Everything computed during one batched forward pass — the batch-shaped
/// analogue of [`crate::model::ForwardTrace`], retained for the segmented
/// backward.
#[derive(Clone, Debug)]
pub struct BatchForwardTrace {
    /// Segment table copied from the batch (length `K + 1`).
    pub offsets: Vec<usize>,
    /// Block-diagonal operator used for propagation.
    pub adj: Arc<NormAdj>,
    /// Stacked activations per layer; `act[0]` is the stacked `X`.
    pub act: Vec<Matrix>,
    /// Stacked pre-activations per layer.
    pub pre: Vec<Matrix>,
    /// Per-graph pooled embeddings, `K × hidden`.
    pub pooled: Matrix,
    /// Max-readout argmax rows in *stacked* coordinates, flat `K × hidden`
    /// (entry `k * hidden + j`); empty for Mean/Sum readouts.
    pub pool_arg: Vec<usize>,
    /// Per-graph class logits, `K × |Ł|`.
    pub logits: Matrix,
}

impl BatchForwardTrace {
    /// Number of graphs in the batch.
    pub fn num_graphs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Predicted label of graph `k`.
    pub fn label(&self, k: usize) -> usize {
        ops::argmax(self.logits.row(k))
    }

    /// Predicted labels for the whole batch, in pack order.
    pub fn labels(&self) -> Vec<usize> {
        (0..self.num_graphs()).map(|k| self.label(k)).collect()
    }

    /// Softmax class probabilities of graph `k`.
    pub fn proba(&self, k: usize) -> Vec<f32> {
        ops::softmax(self.logits.row(k))
    }
}

impl GcnModel {
    /// Fused batched forward: one SpMM + one dense matmul per layer over
    /// the whole batch, a segmented readout, and the FC head applied to all
    /// `K` pooled rows at once.
    pub fn forward_batch(&self, batch: &GraphBatch) -> BatchForwardTrace {
        gvex_obs::span!("gnn.forward_batch");
        let cfg = self.config();
        let layers = cfg.layers;
        let mut act = Vec::with_capacity(layers + 1);
        let mut pre = Vec::with_capacity(layers);
        act.push(batch.features.clone());
        // one propagation scratch reused across layers (reshaped in place)
        let mut propagated = Matrix::zeros(0, 0);
        for i in 0..layers {
            batch.adj.matmul_into(act.last().expect("nonempty"), &mut propagated);
            let z = propagated.matmul(self.conv_weight(i));
            act.push(ops::relu(&z));
            pre.push(z);
        }
        let last = act.last().expect("nonempty");
        let k = batch.num_graphs();
        let (pooled, pool_arg) = if k == 0 {
            (Matrix::zeros(0, cfg.hidden), Vec::new())
        } else {
            match self.readout() {
                crate::model::Readout::Max => segmented::segmented_col_max(last, &batch.offsets),
                crate::model::Readout::Mean => {
                    (segmented::segmented_col_mean(last, &batch.offsets), Vec::new())
                }
                crate::model::Readout::Sum => {
                    (segmented::segmented_col_sum(last, &batch.offsets), Vec::new())
                }
            }
        };
        let mut logits = pooled.matmul(self.fc_weight());
        for r in 0..logits.rows() {
            for (slot, &b) in logits.row_mut(r).iter_mut().zip(self.fc_bias().row(0)) {
                *slot += b;
            }
        }
        BatchForwardTrace {
            offsets: batch.offsets.clone(),
            adj: Arc::clone(&batch.adj),
            act,
            pre,
            pooled,
            pool_arg,
            logits,
        }
    }

    /// Segmented backward over a batched trace: cross-entropy against one
    /// target per graph, readout gradients scattered per segment, and one
    /// reverse sweep of the convolution stack whose weight-gradient
    /// products accumulate over the entire batch. Returns **summed**
    /// gradients and loss (the mini-batch trainer scales by `1 / K` before
    /// its Adam step); `input` is the stacked `ΣNᵢ × D` feature gradient.
    pub fn backward_batch(&self, trace: &BatchForwardTrace, targets: &[usize]) -> Gradients {
        gvex_obs::span!("gnn.backward_batch");
        let k = trace.num_graphs();
        assert_eq!(targets.len(), k, "one target per batched graph");
        let cfg = self.config();
        let classes = cfg.num_classes;
        let hidden = cfg.hidden;

        // Per-graph cross-entropy rows.
        let mut loss = 0.0f32;
        let mut gl = Matrix::zeros(k, classes);
        for (g, &target) in targets.iter().enumerate() {
            let (l, grad) = ops::cross_entropy_with_grad(trace.logits.row(g), target);
            loss += l;
            gl.row_mut(g).copy_from_slice(&grad);
        }

        // FC head: the K-row products sum each graph's contribution.
        let fc_w_grad = trace.pooled.transpose().matmul(&gl);
        let fc_b_grad = gl.col_sum();
        let g_pooled = gl.matmul(&self.fc_weight().transpose()); // K × hidden

        // Readout backward, scattered per segment.
        let n = trace.offsets.last().copied().unwrap_or(0);
        let mut g_h = Matrix::zeros(n, hidden);
        for seg in 0..k {
            let (lo, hi) = (trace.offsets[seg], trace.offsets[seg + 1]);
            if lo == hi {
                continue; // empty graph: pooled row was zero, nothing to scatter
            }
            match self.readout() {
                crate::model::Readout::Max => {
                    for j in 0..hidden {
                        let row = trace.pool_arg[seg * hidden + j];
                        g_h[(row, j)] += g_pooled[(seg, j)];
                    }
                }
                crate::model::Readout::Mean => {
                    let inv = 1.0 / (hi - lo) as f32;
                    for r in lo..hi {
                        for j in 0..hidden {
                            g_h[(r, j)] = g_pooled[(seg, j)] * inv;
                        }
                    }
                }
                crate::model::Readout::Sum => {
                    for r in lo..hi {
                        for j in 0..hidden {
                            g_h[(r, j)] = g_pooled[(seg, j)];
                        }
                    }
                }
            }
        }

        // Convolution-stack backward — the batched mirror of the per-graph
        // sweep, over stacked activations: every transpose-matmul sums the
        // whole batch's contribution to the layer's weight gradient.
        let mut conv_grads = vec![Matrix::zeros(0, 0); cfg.layers];
        let mut propagated = Matrix::zeros(0, 0);
        for i in (0..cfg.layers).rev() {
            let g_z = ops::relu_backward(&trace.pre[i], &g_h);
            trace.adj.matmul_into(&trace.act[i], &mut propagated);
            conv_grads[i] = propagated.transpose().matmul(&g_z);
            let g_prop = g_z.matmul(&self.conv_weight(i).transpose());
            g_h = trace.adj.matmul_transpose(&g_prop);
        }

        Gradients { conv: conv_grads, fc_w: fc_w_grad, fc_b: fc_b_grad, input: g_h, loss }
    }

    /// Predicted labels for `graphs`, all packed into one batch (callers
    /// with unbounded inputs should chunk — see
    /// [`Self::classify_database`]). Order follows `graphs`.
    pub fn predict_batch(&self, graphs: &[GraphRef<'_>]) -> Vec<usize> {
        if graphs.is_empty() {
            return Vec::new();
        }
        self.forward_batch(&GraphBatch::pack(self, graphs)).labels()
    }

    /// Class probability distributions for `graphs`, batched like
    /// [`Self::predict_batch`].
    pub fn predict_proba_batch(&self, graphs: &[GraphRef<'_>]) -> Vec<Vec<f32>> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let trace = self.forward_batch(&GraphBatch::pack(self, graphs));
        (0..trace.num_graphs()).map(|k| trace.proba(k)).collect()
    }

    /// Classifier-assigned labels for every graph of `db`, computed in
    /// `batch_size`-graph blocks (0 ⇒ [`DEFAULT_BATCH`]). The batched
    /// database classification pass used by the trainer's accuracy
    /// evaluation and the explain pipeline.
    pub fn classify_database(&self, db: &GraphDatabase, batch_size: usize) -> Vec<usize> {
        let _req = gvex_obs::context::ReqScope::begin("gnn.classify_db");
        let chunk = if batch_size == 0 { DEFAULT_BATCH } else { batch_size };
        let mut out = Vec::with_capacity(db.len());
        let graphs = db.graphs();
        for block in graphs.chunks(chunk) {
            let views: Vec<GraphRef<'_>> = block.iter().map(|g| g.view()).collect();
            out.extend(self.predict_batch(&views));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GcnConfig, Readout};
    use crate::propagation::Aggregation;
    use gvex_graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chain(n: usize, dim: usize, tag: f32) -> Graph {
        let mut b = Graph::builder(false);
        for v in 0..n {
            let mut f = vec![0.0; dim];
            f[v % dim] = 1.0 + tag;
            b.add_node((v % 2) as u32, &f);
        }
        for v in 1..n {
            b.add_edge(v - 1, v, 0);
        }
        b.build()
    }

    fn model(seed: u64) -> GcnModel {
        let cfg = GcnConfig { input_dim: 3, hidden: 6, layers: 2, num_classes: 2 };
        GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn pack_segments_and_counts() {
        let m = model(0);
        let graphs = [chain(4, 3, 0.0), Graph::builder(false).build(), chain(2, 3, 0.5)];
        let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
        let batch = GraphBatch::pack(&m, &views);
        assert_eq!(batch.num_graphs(), 3);
        assert_eq!(batch.num_nodes(), 6);
        assert_eq!(batch.offsets(), &[0, 4, 4, 6]);
        assert_eq!(batch.segment(2), 4..6);
        assert_eq!(batch.adj().len(), 6);
    }

    #[test]
    fn batched_forward_matches_per_graph_logits() {
        for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
            let m = model(1).with_readout(readout);
            let graphs = [
                chain(5, 3, 0.0),
                chain(1, 3, 0.25),
                Graph::builder(false).build(),
                chain(7, 3, 1.0),
            ];
            let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
            let trace = m.forward_batch(&GraphBatch::pack(&m, &views));
            for (k, g) in graphs.iter().enumerate() {
                let want = m.forward(g).logits;
                for (a, b) in trace.logits.row(k).iter().zip(&want) {
                    assert!((a - b).abs() < 1e-5, "{readout:?} graph {k}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let m = model(2).with_aggregation(Aggregation::Mean);
        let graphs = [chain(3, 3, 0.0), chain(6, 3, 0.5), chain(2, 3, 1.5)];
        let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
        let batched = m.predict_batch(&views);
        let single: Vec<usize> = graphs.iter().map(|g| m.predict(g)).collect();
        assert_eq!(batched, single);
        assert!(m.predict_batch(&[]).is_empty());
    }

    fn batched_loss(m: &GcnModel, batch: &GraphBatch, targets: &[usize]) -> f32 {
        let trace = m.forward_batch(batch);
        targets
            .iter()
            .enumerate()
            .map(|(k, &t)| ops::cross_entropy_with_grad(trace.logits.row(k), t).0)
            .sum()
    }

    #[test]
    fn backward_batch_matches_summed_per_graph_gradients() {
        for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
            let m = model(5).with_readout(readout);
            let graphs = [chain(4, 3, 0.0), chain(2, 3, 0.5), chain(6, 3, 1.0)];
            let targets = [0usize, 1, 0];
            let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
            let batched =
                m.backward_batch(&m.forward_batch(&GraphBatch::pack(&m, &views)), &targets);

            let mut loss = 0.0f32;
            let mut conv: Vec<Matrix> = Vec::new();
            let mut fc_w = Matrix::zeros(0, 0);
            let mut fc_b = Matrix::zeros(0, 0);
            for (g, &t) in graphs.iter().zip(&targets) {
                let grads = m.backward(&m.forward(g), t);
                loss += grads.loss;
                if conv.is_empty() {
                    conv = grads.conv.clone();
                    fc_w = grads.fc_w.clone();
                    fc_b = grads.fc_b.clone();
                } else {
                    for (s, gm) in conv.iter_mut().zip(&grads.conv) {
                        s.add_scaled(gm, 1.0);
                    }
                    fc_w.add_scaled(&grads.fc_w, 1.0);
                    fc_b.add_scaled(&grads.fc_b, 1.0);
                }
            }

            let close = |a: &Matrix, b: &Matrix, what: &str| {
                assert_eq!(a.shape(), b.shape(), "{readout:?} {what} shape");
                for r in 0..a.rows() {
                    for (x, y) in a.row(r).iter().zip(b.row(r)) {
                        assert!((x - y).abs() < 1e-4, "{readout:?} {what}: {x} vs {y}");
                    }
                }
            };
            assert!((batched.loss - loss).abs() < 1e-4, "{readout:?} loss");
            for (i, (a, b)) in batched.conv.iter().zip(&conv).enumerate() {
                close(a, b, &format!("conv[{i}]"));
            }
            close(&batched.fc_w, &fc_w, "fc_w");
            close(&batched.fc_b, &fc_b, "fc_b");
        }
    }

    /// Numeric gradient check of the batched backward at batch size > 1:
    /// perturb one entry per parameter matrix and compare the batched-loss
    /// finite difference against the analytic batched gradient.
    #[test]
    fn batched_gradient_check() {
        let m = model(6);
        let graphs = [chain(3, 3, 0.0), chain(5, 3, 0.5), chain(2, 3, 1.0)];
        let targets = [1usize, 0, 1];
        let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
        let batch = GraphBatch::pack(&m, &views);
        let grads = m.backward_batch(&m.forward_batch(&batch), &targets);
        let grad_list: Vec<Matrix> =
            GcnModel::grads_in_order(&grads).into_iter().cloned().collect();

        // eps small enough that the probes stay on one side of every
        // ReLU kink for this fixture
        let eps = 1e-3f32;
        let tol = 1e-2f32;
        // one probe per parameter matrix: conv[0], conv[1], fc_w, fc_b
        for (pi, idx) in [(0usize, (1usize, 2usize)), (1, (2, 3)), (2, (0, 1)), (3, (0, 0))] {
            let mut mp = m.clone();
            mp.params_mut()[pi][idx] += eps;
            let mut mm = m.clone();
            mm.params_mut()[pi][idx] -= eps;
            let num = (batched_loss(&mp, &batch, &targets) - batched_loss(&mm, &batch, &targets))
                / (2.0 * eps);
            let ana = grad_list[pi][idx];
            assert!((num - ana).abs() < tol, "param {pi} {idx:?}: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn classify_database_respects_chunking() {
        let m = model(3);
        let mut db = GraphDatabase::new(vec!["a".into(), "b".into()]);
        for i in 0..7 {
            db.push(chain(2 + i % 4, 3, i as f32 * 0.1), i % 2);
        }
        let whole = m.classify_database(&db, 0);
        let tiny = m.classify_database(&db, 2);
        assert_eq!(whole, tiny, "chunk size must not change labels");
        let single: Vec<usize> = db.graphs().iter().map(|g| m.predict(g)).collect();
        assert_eq!(whole, single);
    }
}
