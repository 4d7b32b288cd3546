//! The GCN classifier: forward inference, readout, and backward gradients.

use crate::propagation::NormAdj;
use gvex_graph::{Graph, GraphRef};
use gvex_linalg::{init, ops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Architecture hyperparameters.
///
/// The paper uses `layers = 3`, `hidden = 128` (§6.1); the experiment harness
/// scales `hidden` down where CPU training time matters, which does not
/// change any code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Input feature dimensionality `D` (must be ≥ 1; featureless datasets
    /// get a constant default feature at generation time, as in §6.1).
    pub input_dim: usize,
    /// Hidden embedding width.
    pub hidden: usize,
    /// Number of graph-convolution layers `k`.
    pub layers: usize,
    /// Number of class labels `|Ł|`.
    pub num_classes: usize,
}

impl GcnConfig {
    /// The paper's architecture (3 × 128) for the given data dimensions.
    pub fn paper(input_dim: usize, num_classes: usize) -> Self {
        Self { input_dim, hidden: 128, layers: 3, num_classes }
    }

    /// A narrower architecture for CPU-bound experiments and tests.
    pub fn small(input_dim: usize, num_classes: usize) -> Self {
        Self { input_dim, hidden: 32, layers: 3, num_classes }
    }
}

/// Everything computed during one forward pass.
///
/// Kept around for (a) backprop during training, (b) layer-wise Jacobian
/// propagation in the influence analysis, and (c) last-layer embeddings for
/// the diversity measure `D(V_s)` (Eq. 6).
#[derive(Clone, Debug)]
pub struct ForwardTrace {
    /// Normalized adjacency used for propagation, shared with the caller:
    /// cached operators are passed as [`Arc`] clones, so retaining them in
    /// the trace costs a refcount bump instead of a deep copy per step.
    pub adj: Arc<NormAdj>,
    /// Activations per layer: `act[0] = X`, `act[i] = ReLU(Z_i)`; length `k + 1`.
    pub act: Vec<Matrix>,
    /// Pre-activations `Z_i = Ã · act[i-1] · Θ_i`; length `k`.
    pub pre: Vec<Matrix>,
    /// Max-pooled graph embedding, `1 × hidden`.
    pub pooled: Matrix,
    /// Row (node) index that supplied each pooled entry.
    pub pool_arg: Vec<usize>,
    /// Class logits.
    pub logits: Vec<f32>,
}

impl ForwardTrace {
    /// Last-layer node embeddings `X^k` (`|V| × hidden`).
    pub fn embeddings(&self) -> &Matrix {
        self.act.last().expect("trace always has activations")
    }

    /// Softmax class probabilities.
    pub fn proba(&self) -> Vec<f32> {
        ops::softmax(&self.logits)
    }

    /// Predicted class label.
    pub fn label(&self) -> usize {
        ops::argmax(&self.logits)
    }
}

/// Gradients of the loss with respect to every parameter, plus the input
/// features (used by the mask-learning baselines).
#[derive(Clone, Debug)]
pub struct Gradients {
    /// Per-layer convolution weight gradients.
    pub conv: Vec<Matrix>,
    /// FC head weight gradient.
    pub fc_w: Matrix,
    /// FC head bias gradient.
    pub fc_b: Matrix,
    /// Gradient with respect to the input feature matrix `X`.
    pub input: Matrix,
    /// Scalar loss value.
    pub loss: f32,
}

/// Graph-level readout over node embeddings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Readout {
    /// Element-wise max over nodes (the paper's classifier, §6.1).
    #[default]
    Max,
    /// Mean over nodes.
    Mean,
    /// Sum over nodes (GIN's readout).
    Sum,
}

/// A `k`-layer message-passing GNN with a configurable aggregation scheme
/// (GCN / SAGE-mean / GIN-sum), a pooling readout, and a linear
/// classification head:
///
/// ```text
/// H_0 = X
/// H_i = ReLU(Ã · H_{i-1} · Θ_i)        (Eq. 1; Ã per aggregation)
/// g   = readout_rows(H_k)
/// ŷ   = softmax(g · W_fc + b_fc)
/// ```
///
/// The default (`Aggregation::GcnNorm` + `Readout::Max`) is exactly the
/// paper's classifier; the variants exist to demonstrate GVEX's
/// model-agnosticism over the message-passing family.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GcnModel {
    cfg: GcnConfig,
    conv: Vec<Matrix>,
    fc_w: Matrix,
    fc_b: Matrix,
    #[serde(default)]
    aggregation: crate::propagation::Aggregation,
    #[serde(default)]
    readout: Readout,
    /// Learnable per-edge-type gate logits (`1 × T`); edge entries of the
    /// propagation operator are scaled by `2·σ(gate_t)` (init 0 ⇒ scale 1,
    /// i.e. a plain GCN). `None` = edge types ignored (the paper's model;
    /// gates implement its "impact of edge features" future work).
    #[serde(default)]
    edge_gates: Option<Matrix>,
}

impl GcnModel {
    /// Creates a model with Xavier-initialized weights.
    ///
    /// # Panics
    /// If any dimension of `cfg` is zero.
    pub fn new(cfg: GcnConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.input_dim > 0, "input_dim must be >= 1");
        assert!(cfg.hidden > 0 && cfg.layers > 0 && cfg.num_classes > 0);
        let mut conv = Vec::with_capacity(cfg.layers);
        let mut in_dim = cfg.input_dim;
        for _ in 0..cfg.layers {
            conv.push(init::xavier_uniform(rng, in_dim, cfg.hidden));
            in_dim = cfg.hidden;
        }
        let fc_w = init::xavier_uniform(rng, cfg.hidden, cfg.num_classes);
        let fc_b = Matrix::zeros(1, cfg.num_classes);
        Self {
            cfg,
            conv,
            fc_w,
            fc_b,
            aggregation: crate::propagation::Aggregation::GcnNorm,
            readout: Readout::Max,
            edge_gates: None,
        }
    }

    /// Enables learnable edge-type gates for `num_edge_types` types
    /// (builder-style). Gates start at logit 0 (scale 1.0 — exactly the
    /// plain GCN) and are trained alongside the other parameters.
    pub fn with_edge_gates(mut self, num_edge_types: usize) -> Self {
        assert!(num_edge_types > 0, "at least one edge type required");
        self.edge_gates = Some(Matrix::zeros(1, num_edge_types));
        self
    }

    /// Whether edge-type gates are enabled.
    pub fn has_edge_gates(&self) -> bool {
        self.edge_gates.is_some()
    }

    /// The current gate *scales* `2·σ(gate_t)` per edge type (empty when
    /// gates are disabled). Useful for inspecting what the model learned
    /// about edge features (e.g. aromatic vs. single bonds).
    pub fn edge_gate_scales(&self) -> Vec<f32> {
        match &self.edge_gates {
            Some(gates) => {
                gates.row(0).iter().map(|&g| 2.0 * gvex_linalg::ops::sigmoid(g)).collect()
            }
            None => Vec::new(),
        }
    }

    /// The propagation operator for `g` under this model's aggregation and
    /// edge gates. Accepts a `&Graph` or a borrowed [`GraphRef`] view.
    pub fn propagation_operator<'a>(&self, g: impl Into<GraphRef<'a>>) -> NormAdj {
        let g = g.into();
        match &self.edge_gates {
            Some(gates) => NormAdj::with_typed_edge_weights(g, |t| {
                let idx = (t as usize).min(gates.cols() - 1);
                2.0 * gvex_linalg::ops::sigmoid(gates[(0, idx)])
            }),
            None => NormAdj::with_aggregation(g, self.aggregation),
        }
    }

    /// Switches the neighborhood-aggregation scheme (builder-style).
    pub fn with_aggregation(mut self, aggregation: crate::propagation::Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Switches the graph readout (builder-style).
    pub fn with_readout(mut self, readout: Readout) -> Self {
        self.readout = readout;
        self
    }

    /// The aggregation scheme in use.
    pub fn aggregation(&self) -> crate::propagation::Aggregation {
        self.aggregation
    }

    /// The readout in use.
    pub fn readout(&self) -> Readout {
        self.readout
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.cfg
    }

    /// ~ scalar ops of one forward pass on `g`: `k` layers of a sparse
    /// product plus a dense product against the hidden weights.
    /// `gvex_core::parallel` prices its per-graph fan-outs with it.
    pub fn forward_cost(&self, g: &Graph) -> usize {
        let h = self.cfg.hidden.max(1);
        let k = self.cfg.layers.max(1);
        k * ((g.num_nodes() + 2 * g.num_edges()) * h + g.num_nodes() * h * h)
    }

    /// Convolution weight of layer `i` (read-only; the influence analysis
    /// needs weight norms for Jacobian bounds).
    pub fn conv_weight(&self, i: usize) -> &Matrix {
        &self.conv[i]
    }

    /// FC head weight (read-only).
    pub fn fc_weight(&self) -> &Matrix {
        &self.fc_w
    }

    /// FC head bias (read-only).
    pub fn fc_bias(&self) -> &Matrix {
        &self.fc_b
    }

    /// The raw gate logits (`1 × T`), if gates are enabled (read-only; the
    /// store serializes these bitwise alongside the other weights).
    pub fn edge_gates(&self) -> Option<&Matrix> {
        self.edge_gates.as_ref()
    }

    /// Reassembles a model from stored weights (the `.gvex` container's
    /// model section). Every matrix is adopted as-is — a round trip through
    /// `from_parts(cfg, conv, fc_w, fc_b, …)` of an existing model's
    /// accessors is bitwise identical to the original.
    ///
    /// # Panics
    /// If any weight shape disagrees with `cfg`.
    pub fn from_parts(
        cfg: GcnConfig,
        conv: Vec<Matrix>,
        fc_w: Matrix,
        fc_b: Matrix,
        aggregation: crate::propagation::Aggregation,
        readout: Readout,
        edge_gates: Option<Matrix>,
    ) -> Self {
        assert_eq!(conv.len(), cfg.layers, "layer count mismatch");
        let mut in_dim = cfg.input_dim;
        for (i, w) in conv.iter().enumerate() {
            assert_eq!(w.shape(), (in_dim, cfg.hidden), "conv[{i}] shape mismatch");
            in_dim = cfg.hidden;
        }
        assert_eq!(fc_w.shape(), (cfg.hidden, cfg.num_classes), "fc_w shape mismatch");
        assert_eq!(fc_b.shape(), (1, cfg.num_classes), "fc_b shape mismatch");
        if let Some(g) = &edge_gates {
            assert_eq!(g.rows(), 1, "edge gates must be 1 × T");
        }
        Self { cfg, conv, fc_w, fc_b, aggregation, readout, edge_gates }
    }

    /// Runs a full forward pass on `g` — a `&Graph` or a borrowed
    /// [`GraphRef`] view (candidate subgraphs / complements run inference
    /// without materializing an owned copy).
    ///
    /// The empty graph is well-defined: pooled embedding is zero, so the
    /// logits collapse to the bias — this is what the counterfactual check
    /// `ℳ(G \ G_s)` sees when an explanation covers the whole graph.
    pub fn forward<'a>(&self, g: impl Into<GraphRef<'a>>) -> ForwardTrace {
        let g = g.into();
        let adj = self.propagation_operator(&g);
        self.forward_with_adj(&g, adj)
    }

    /// Forward pass with a caller-provided (possibly soft-masked) adjacency.
    /// Accepts an owned [`NormAdj`] or an `Arc<NormAdj>` clone of a cached
    /// operator — the trainer and session loops pass the latter so the
    /// operator is borrowed by refcount, never deep-cloned per step.
    pub fn forward_with_adj<'a>(
        &self,
        g: impl Into<GraphRef<'a>>,
        adj: impl Into<Arc<NormAdj>>,
    ) -> ForwardTrace {
        self.forward_from_features(g.into().features_matrix(), adj)
    }

    /// Forward pass from explicit features (the masked path perturbs `X`).
    pub fn forward_from_features(&self, x: Matrix, adj: impl Into<Arc<NormAdj>>) -> ForwardTrace {
        gvex_obs::span!("gnn.forward");
        let adj = adj.into();
        // The empty graph may carry a 0-dim feature matrix; normalize its
        // shape so the layer algebra stays well-typed.
        let x = if x.rows() == 0 { Matrix::zeros(0, self.cfg.input_dim) } else { x };
        assert_eq!(
            x.cols(),
            self.cfg.input_dim,
            "feature dim {} != model input dim {}",
            x.cols(),
            self.cfg.input_dim
        );
        assert_eq!(x.rows(), adj.len(), "features/adjacency node count mismatch");
        let mut act = Vec::with_capacity(self.cfg.layers + 1);
        let mut pre = Vec::with_capacity(self.cfg.layers);
        act.push(x);
        for w in &self.conv {
            let propagated = adj.matmul(act.last().expect("nonempty"));
            let z = propagated.matmul(w);
            act.push(ops::relu(&z));
            pre.push(z);
        }
        let last = act.last().expect("nonempty");
        let (pooled, pool_arg) = match self.readout {
            Readout::Max => last.col_max(),
            Readout::Mean => (last.col_mean(), Vec::new()),
            Readout::Sum => (last.col_sum(), Vec::new()),
        };
        let logits_m = pooled.matmul(&self.fc_w).add(&self.fc_b);
        let logits = logits_m.row(0).to_vec();
        ForwardTrace { adj, act, pre, pooled, pool_arg, logits }
    }

    /// Predicted class label for `g` (a `&Graph` or a [`GraphRef`] view).
    pub fn predict<'a>(&self, g: impl Into<GraphRef<'a>>) -> usize {
        self.forward(g).label()
    }

    /// Class probability distribution for `g` (a `&Graph` or a view).
    pub fn predict_proba<'a>(&self, g: impl Into<GraphRef<'a>>) -> Vec<f32> {
        self.forward(g).proba()
    }

    /// Cross-entropy loss and full parameter/input gradients for one graph.
    pub fn backward(&self, trace: &ForwardTrace, target: usize) -> Gradients {
        self.backward_impl(trace, target, false).0
    }

    /// Like [`Self::backward`], additionally returning `∂L/∂Ã[u][v]` for
    /// every nonzero entry of the normalized adjacency, laid out parallel to
    /// `trace.adj`'s sparse rows. This is what the GNNExplainer baseline
    /// chains through its edge mask.
    pub fn backward_with_adj_grad(
        &self,
        trace: &ForwardTrace,
        target: usize,
    ) -> (Gradients, Vec<Vec<f32>>) {
        let (g, adj) = self.backward_impl(trace, target, true);
        (g, adj.expect("requested adjacency gradients"))
    }

    /// Backward pass for the node-classification head: `g_logits` is the
    /// `|V| × |Ł|` gradient of the loss with respect to the per-node logits
    /// (`node_logits`). Returns full parameter gradients (loss is reported
    /// as 0 — callers of this path accumulate their own losses).
    pub fn backward_node_logits(&self, trace: &ForwardTrace, g_logits: &Matrix) -> Gradients {
        let emb = trace.act.last().expect("trace has activations");
        assert_eq!(g_logits.rows(), emb.rows(), "one gradient row per node");
        let fc_w_grad = emb.transpose().matmul(g_logits);
        // bias receives the column sums
        let mut fc_b_grad = Matrix::zeros(1, g_logits.cols());
        for r in 0..g_logits.rows() {
            for c in 0..g_logits.cols() {
                fc_b_grad[(0, c)] += g_logits[(r, c)];
            }
        }
        let g_h = g_logits.matmul(&self.fc_w.transpose());
        let (conv, input) = self.conv_backward(trace, g_h, None);
        Gradients { conv, fc_w: fc_w_grad, fc_b: fc_b_grad, input, loss: 0.0 }
    }

    /// Like [`Self::backward`], additionally returning `∂L/∂gate_logits`
    /// (`1 × T`) for a trace produced under the gated propagation operator.
    /// `g` must be the graph the trace was computed on.
    #[allow(clippy::needless_range_loop)] // index parallels a second structure; enumerate would obscure it
    pub fn backward_edge_gates(
        &self,
        trace: &ForwardTrace,
        g: &Graph,
        target: usize,
    ) -> (Gradients, Matrix) {
        let gates = self.edge_gates.as_ref().expect("edge gates not enabled");
        let (grads, adj_grad) = self.backward_with_adj_grad(trace, target);
        let mut gate_grads = Matrix::zeros(1, gates.cols());
        // ungated entries give the normalization factors; the gated operator
        // shares its sparsity pattern with `NormAdj::new` by construction.
        let base = NormAdj::new(g);
        for u in 0..trace.adj.len() {
            for (k, &(v, _)) in trace.adj.row(u).iter().enumerate() {
                if v == u {
                    continue; // self loops are ungated
                }
                let Some(t) = g.edge_type(u, v).or_else(|| g.edge_type(v, u)) else {
                    continue;
                };
                let idx = (t as usize).min(gates.cols() - 1);
                let norm = base.row(u)[k].1;
                let s = ops::sigmoid(gates[(0, idx)]);
                // entry = 2σ(gate)·norm ⇒ ∂entry/∂gate = 2σ(1−σ)·norm
                gate_grads[(0, idx)] += adj_grad[u][k] * norm * 2.0 * s * (1.0 - s);
            }
        }
        (grads, gate_grads)
    }

    /// Mutable access to the gate logits (trainer only).
    pub(crate) fn edge_gates_mut(&mut self) -> Option<&mut Matrix> {
        self.edge_gates.as_mut()
    }

    /// Shared convolution-stack backward: from `g_h` (gradient w.r.t. the
    /// last layer's activations) down to per-layer weight gradients and the
    /// input-feature gradient. Optionally accumulates adjacency-entry
    /// gradients into `adj_grad`.
    #[allow(clippy::needless_range_loop)] // index parallels a second structure; enumerate would obscure it
    fn conv_backward(
        &self,
        trace: &ForwardTrace,
        mut g_h: Matrix,
        mut adj_grad: Option<&mut Vec<Vec<f32>>>,
    ) -> (Vec<Matrix>, Matrix) {
        let mut conv_grads = vec![Matrix::zeros(0, 0); self.conv.len()];
        for i in (0..self.conv.len()).rev() {
            let g_z = ops::relu_backward(&trace.pre[i], &g_h);
            let propagated = trace.adj.matmul(&trace.act[i]);
            conv_grads[i] = propagated.transpose().matmul(&g_z);
            let g_prop = g_z.matmul(&self.conv[i].transpose());
            if let Some(ag) = adj_grad.as_deref_mut() {
                for u in 0..trace.adj.len() {
                    let gp = g_prop.row(u);
                    for (slot, &(v, _)) in ag[u].iter_mut().zip(trace.adj.row(u)) {
                        let h = trace.act[i].row(v);
                        *slot += gp.iter().zip(h).map(|(a, b)| a * b).sum::<f32>();
                    }
                }
            }
            g_h = trace.adj.matmul_transpose(&g_prop);
        }
        (conv_grads, g_h)
    }

    fn backward_impl(
        &self,
        trace: &ForwardTrace,
        target: usize,
        want_adj_grad: bool,
    ) -> (Gradients, Option<Vec<Vec<f32>>>) {
        let (loss, grad_logits) = ops::cross_entropy_with_grad(&trace.logits, target);
        let gl = Matrix::from_vec(1, grad_logits.len(), grad_logits);

        // FC head.
        let fc_w_grad = trace.pooled.transpose().matmul(&gl);
        let fc_b_grad = gl.clone();
        let g_pooled = gl.matmul(&self.fc_w.transpose()); // 1 × hidden

        // Readout backward.
        let n = trace.act.last().expect("nonempty").rows();
        let hidden = self.cfg.hidden;
        let mut g_h = Matrix::zeros(n, hidden);
        if n > 0 {
            match self.readout {
                // max-pool: scatter each pooled gradient to its argmax row
                Readout::Max => {
                    for j in 0..hidden {
                        g_h[(trace.pool_arg[j], j)] += g_pooled[(0, j)];
                    }
                }
                // mean: every row receives g/n
                Readout::Mean => {
                    let inv = 1.0 / n as f32;
                    for r in 0..n {
                        for j in 0..hidden {
                            g_h[(r, j)] = g_pooled[(0, j)] * inv;
                        }
                    }
                }
                // sum: every row receives g
                Readout::Sum => {
                    for r in 0..n {
                        for j in 0..hidden {
                            g_h[(r, j)] = g_pooled[(0, j)];
                        }
                    }
                }
            }
        }

        let mut adj_grad: Option<Vec<Vec<f32>>> = want_adj_grad
            .then(|| (0..trace.adj.len()).map(|u| vec![0.0; trace.adj.row(u).len()]).collect());

        let (conv_grads, input) = self.conv_backward(trace, g_h, adj_grad.as_mut());

        (Gradients { conv: conv_grads, fc_w: fc_w_grad, fc_b: fc_b_grad, input, loss }, adj_grad)
    }

    /// Mutable views of every parameter matrix paired with the matching
    /// gradient, in a fixed order — the trainer zips these with its Adam
    /// states.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut v: Vec<&mut Matrix> = self.conv.iter_mut().collect();
        v.push(&mut self.fc_w);
        v.push(&mut self.fc_b);
        v
    }

    /// Parameter shapes in the same order as [`Self::params_mut`].
    pub(crate) fn param_shapes(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self.conv.iter().map(Matrix::shape).collect();
        v.push(self.fc_w.shape());
        v.push(self.fc_b.shape());
        v
    }

    /// Gradients in [`Self::params_mut`] order.
    pub(crate) fn grads_in_order(g: &Gradients) -> Vec<&Matrix> {
        let mut v: Vec<&Matrix> = g.conv.iter().collect();
        v.push(&g.fc_w);
        v.push(&g.fc_b);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn triangle() -> Graph {
        let mut b = Graph::builder(false);
        for i in 0..3 {
            let mut f = [0.0; 3];
            f[i] = 1.0;
            b.add_node(i as u32, &f);
        }
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(0, 2, 0);
        b.build()
    }

    fn model(seed: u64) -> GcnModel {
        let cfg = GcnConfig { input_dim: 3, hidden: 4, layers: 2, num_classes: 2 };
        GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn forward_shapes() {
        let m = model(0);
        let t = m.forward(&triangle());
        assert_eq!(t.act.len(), 3);
        assert_eq!(t.pre.len(), 2);
        assert_eq!(t.embeddings().shape(), (3, 4));
        assert_eq!(t.pooled.shape(), (1, 4));
        assert_eq!(t.logits.len(), 2);
        let p = t.proba();
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn forward_deterministic() {
        let m = model(1);
        let a = m.forward(&triangle());
        let b = m.forward(&triangle());
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn empty_graph_predicts_from_bias() {
        let m = model(2);
        let empty = Graph::builder(false).build();
        let t = m.forward(&empty);
        // pooled is zero => logits equal the (zero-initialized) bias.
        assert!(t.logits.iter().all(|&l| l == 0.0));
        assert_eq!(t.label(), 0);
    }

    /// Full end-to-end gradient check: numeric vs analytic for every
    /// parameter class and the input features.
    #[test]
    fn gradient_check() {
        let m = model(3);
        let g = triangle();
        let target = 1;
        let trace = m.forward(&g);
        let grads = m.backward(&trace, target);

        let eps = 1e-2_f32;
        let tol = 2e-2_f32;

        // conv weights
        for layer in 0..2 {
            for idx in [(0usize, 0usize), (1, 2), (2, 3)] {
                if idx.0 >= m.conv[layer].rows() || idx.1 >= m.conv[layer].cols() {
                    continue;
                }
                let mut mp = m.clone();
                mp.conv[layer][idx] += eps;
                let mut mm = m.clone();
                mm.conv[layer][idx] -= eps;
                let lp = loss_of(&mp, &g, target);
                let lm = loss_of(&mm, &g, target);
                let num = (lp - lm) / (2.0 * eps);
                let ana = grads.conv[layer][idx];
                assert!(
                    (num - ana).abs() < tol,
                    "conv[{layer}]{idx:?}: numeric {num} vs analytic {ana}"
                );
            }
        }

        // fc weight + bias
        let mut mp = m.clone();
        mp.fc_w[(0, 1)] += eps;
        let mut mm = m.clone();
        mm.fc_w[(0, 1)] -= eps;
        let num = (loss_of(&mp, &g, target) - loss_of(&mm, &g, target)) / (2.0 * eps);
        assert!((num - grads.fc_w[(0, 1)]).abs() < tol, "fc_w: {num} vs {}", grads.fc_w[(0, 1)]);

        let mut bp = m.clone();
        bp.fc_b[(0, 0)] += eps;
        let mut bm = m.clone();
        bm.fc_b[(0, 0)] -= eps;
        let num = (loss_of(&bp, &g, target) - loss_of(&bm, &g, target)) / (2.0 * eps);
        assert!((num - grads.fc_b[(0, 0)]).abs() < tol, "fc_b: {num} vs {}", grads.fc_b[(0, 0)]);
    }

    /// Numeric check of the input-feature gradient (drives mask learning).
    #[test]
    fn input_gradient_check() {
        let m = model(4);
        let g = triangle();
        let target = 0;
        let trace = m.forward(&g);
        let grads = m.backward(&trace, target);
        let adj = NormAdj::new(&g);
        let eps = 1e-2_f32;
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 2), (2, 0)] {
            let mut xp = g.features().clone();
            xp[(r, c)] += eps;
            let mut xm = g.features().clone();
            xm[(r, c)] -= eps;
            let lp = loss_of_features(&m, xp, adj.clone(), target);
            let lm = loss_of_features(&m, xm, adj.clone(), target);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.input[(r, c)];
            assert!((num - ana).abs() < 2e-2, "input ({r},{c}): {num} vs {ana}");
        }
    }

    fn loss_of(m: &GcnModel, g: &Graph, target: usize) -> f32 {
        let t = m.forward(g);
        gvex_linalg::ops::cross_entropy_with_grad(&t.logits, target).0
    }

    fn loss_of_features(m: &GcnModel, x: Matrix, adj: NormAdj, target: usize) -> f32 {
        let t = m.forward_from_features(x, adj);
        gvex_linalg::ops::cross_entropy_with_grad(&t.logits, target).0
    }

    /// Gradient check across every aggregation × readout combination: the
    /// backward pass must stay exact for all model variants.
    #[test]
    fn gradient_check_all_variants() {
        use crate::propagation::Aggregation;
        let g = triangle();
        let target = 1;
        let eps = 1e-2_f32;
        for aggregation in [Aggregation::GcnNorm, Aggregation::Mean, Aggregation::Sum] {
            for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
                let m = model(9).with_aggregation(aggregation).with_readout(readout);
                let trace = m.forward(&g);
                let grads = m.backward(&trace, target);
                for idx in [(0usize, 0usize), (1, 2)] {
                    let mut mp = m.clone();
                    mp.conv[0][idx] += eps;
                    let mut mm = m.clone();
                    mm.conv[0][idx] -= eps;
                    let num = (loss_of(&mp, &g, target) - loss_of(&mm, &g, target)) / (2.0 * eps);
                    let ana = grads.conv[0][idx];
                    assert!(
                        (num - ana).abs() < 5e-2,
                        "{aggregation:?}/{readout:?} conv[0]{idx:?}: numeric {num} vs analytic {ana}"
                    );
                }
            }
        }
    }

    /// Numeric gradient check for the edge-type gates.
    #[test]
    fn edge_gate_gradient_check() {
        // triangle with two edge types
        let mut b = Graph::builder(false);
        for i in 0..3 {
            let mut f = [0.0; 3];
            f[i] = 1.0;
            b.add_node(i as u32, &f);
        }
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 1);
        let g = b.build();
        let mut m = model(21).with_edge_gates(2);
        // move gates off the symmetric init point
        if let Some(gates) = m.edge_gates_mut() {
            gates[(0, 0)] = 0.4;
            gates[(0, 1)] = -0.3;
        }
        let target = 1;
        let trace = m.forward(&g);
        let (_, gate_grads) = m.backward_edge_gates(&trace, &g, target);
        let eps = 1e-2_f32;
        for t in 0..2 {
            let mut mp = m.clone();
            mp.edge_gates_mut().unwrap()[(0, t)] += eps;
            let mut mm = m.clone();
            mm.edge_gates_mut().unwrap()[(0, t)] -= eps;
            let lp = loss_of(&mp, &g, target);
            let lm = loss_of(&mm, &g, target);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gate_grads[(0, t)]).abs() < 2e-2,
                "gate {t}: numeric {num} vs analytic {}",
                gate_grads[(0, t)]
            );
        }
    }

    #[test]
    fn gates_at_zero_match_plain_gcn() {
        let g = triangle();
        let plain = model(22);
        let gated = plain.clone().with_edge_gates(3);
        let a = plain.forward(&g).logits;
        let b = gated.forward(&g).logits;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "gates at logit 0 must be the identity");
        }
        assert_eq!(gated.edge_gate_scales(), vec![1.0; 3]);
    }

    #[test]
    fn variant_forward_shapes_and_determinism() {
        use crate::propagation::Aggregation;
        let g = triangle();
        for aggregation in [Aggregation::Mean, Aggregation::Sum] {
            let m = model(10).with_aggregation(aggregation).with_readout(Readout::Mean);
            let a = m.forward(&g);
            let b = m.forward(&g);
            assert_eq!(a.logits, b.logits);
            assert_eq!(a.pooled.shape(), (1, 4));
        }
    }

    #[test]
    fn sum_readout_scales_with_size() {
        // duplicate-structure graphs: sum readout should roughly double
        let m = model(11).with_readout(Readout::Sum);
        let single = triangle();
        let mut b = Graph::builder(false);
        for rep in 0..2 {
            let base = rep * 3;
            for i in 0..3 {
                let mut f = [0.0; 3];
                f[i] = 1.0;
                b.add_node(i as u32, &f);
            }
            b.add_edge(base, base + 1, 0);
            b.add_edge(base + 1, base + 2, 0);
            b.add_edge(base, base + 2, 0);
        }
        let double = b.build();
        let p1 = m.forward(&single).pooled;
        let p2 = m.forward(&double).pooled;
        for j in 0..4 {
            assert!((p2[(0, j)] - 2.0 * p1[(0, j)]).abs() < 1e-4, "col {j}");
        }
    }

    #[test]
    #[should_panic(expected = "feature dim")]
    fn wrong_feature_dim_panics() {
        let m = model(5);
        let mut b = Graph::builder(false);
        b.add_node(0, &[1.0]); // dim 1, model expects 3
        let g = b.build();
        let _ = m.forward(&g);
    }
}
