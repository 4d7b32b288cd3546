//! Training loop: Adam, per-graph steps, 80/10/10 splits (§6.1).

use crate::batch::{GraphBatch, DEFAULT_BATCH};
use crate::model::{GcnConfig, GcnModel};
use crate::propagation::NormAdj;
use gvex_graph::{GraphDatabase, GraphRef};
use gvex_linalg::{Adam, Matrix};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Train/validation/test partition of graph indices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Split {
    /// Training graph indices.
    pub train: Vec<usize>,
    /// Validation graph indices.
    pub val: Vec<usize>,
    /// Test graph indices (explanations are generated for these, §6.1).
    pub test: Vec<usize>,
}

impl Split {
    /// The paper's 80/10/10 split, deterministic under `seed`.
    /// Small databases always keep at least one graph in each part when
    /// `db.len() >= 3`.
    pub fn paper(db: &GraphDatabase, seed: u64) -> Self {
        let mut idx: Vec<usize> = (0..db.len()).collect();
        idx.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let n = idx.len();
        let mut n_train = (n * 8) / 10;
        let mut n_val = n / 10;
        if n >= 3 {
            n_train = n_train.clamp(1, n - 2);
            n_val = n_val.clamp(1, n - n_train - 1);
        }
        let train = idx[..n_train].to_vec();
        let val = idx[n_train..n_train + n_val].to_vec();
        let test = idx[n_train + n_val..].to_vec();
        Self { train, val, test }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Best validation accuracy observed.
    pub best_val_accuracy: f32,
    /// Accuracy on the held-out test split with the returned weights.
    pub test_accuracy: f32,
    /// Number of epochs actually run.
    pub epochs: usize,
}

/// Training hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Number of passes over the training split. The paper uses 2000 epochs
    /// on GPU; our synthetic datasets separate in far fewer.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
    /// Stop early once this many epochs pass without val-accuracy improving
    /// (0 disables early stopping).
    pub patience: usize,
    /// Graphs per optimizer step. `0` or `1` (the default) keeps the
    /// original per-graph SGD-style schedule bit-for-bit; larger values
    /// pack each chunk of the shuffled order into a block-diagonal
    /// [`GraphBatch`], run one fused forward/backward, and apply one Adam
    /// step on the mean gradient. Ignored (treated as `1`) by edge-gated
    /// models, whose propagation operator changes every step. Absent from
    /// serialized options recorded before this field existed; `default`
    /// keeps those deserializable (as `0`, i.e. the per-graph schedule).
    #[serde(default)]
    pub batch_size: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self { epochs: 200, lr: 1e-3, seed: 0, patience: 40, batch_size: 1 }
    }
}

/// Trains a GCN classifier on `db` with ground-truth labels, returning the
/// weights that scored best on the validation split.
pub fn train(
    db: &GraphDatabase,
    cfg: GcnConfig,
    split: &Split,
    opts: TrainOptions,
) -> (GcnModel, TrainReport) {
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let model = GcnModel::new(cfg, &mut rng);
    // the shuffle rng continues from the init rng, keeping results
    // bit-identical with the pre-`train_model` API
    train_with_rng(db, model, split, opts, rng)
}

/// Trains a pre-built model (any aggregation/readout variant); used to
/// exercise GVEX's model-agnosticism across the message-passing family.
pub fn train_model(
    db: &GraphDatabase,
    model: GcnModel,
    split: &Split,
    opts: TrainOptions,
) -> (GcnModel, TrainReport) {
    let rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(1));
    train_with_rng(db, model, split, opts, rng)
}

fn train_with_rng(
    db: &GraphDatabase,
    model: GcnModel,
    split: &Split,
    opts: TrainOptions,
    mut rng: ChaCha8Rng,
) -> (GcnModel, TrainReport) {
    let mut model = model;

    // One Adam state per parameter matrix, matched by order.
    let mut adams: Vec<Adam> =
        model.param_shapes().into_iter().map(|(r, c)| Adam::with_lr(r, c, opts.lr)).collect();

    // Without edge gates the propagation operator is structure-only:
    // compute once per graph. With gates it changes every step and is
    // rebuilt per graph below.
    let gated = model.has_edge_gates();
    let mut gate_adam = gated.then(|| Adam::with_lr(1, model.edge_gate_scales().len(), opts.lr));
    let adj: Vec<Arc<NormAdj>> = if gated {
        Vec::new()
    } else {
        db.graphs()
            .iter()
            .map(|g| Arc::new(NormAdj::with_aggregation(g, model.aggregation())))
            .collect()
    };
    // edge gates rebuild the operator per step, so batching gains nothing
    let batched = opts.batch_size > 1 && !gated;

    let mut order = split.train.clone();
    let mut best = (0.0_f32, model.clone());
    let mut since_best = 0usize;
    let mut epoch_loss = Vec::with_capacity(opts.epochs);
    let mut ran = 0;

    for _epoch in 0..opts.epochs {
        gvex_obs::span!("gnn.train.epoch");
        gvex_obs::counter!("gnn.train.epochs");
        let epoch_clock = gvex_obs::enabled().then(std::time::Instant::now);
        ran += 1;
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        if batched {
            // Mini-batch schedule: each chunk of the shuffled order becomes
            // one block-diagonal batch, one fused forward/backward, and one
            // Adam step on the mean gradient.
            for chunk in order.chunks(opts.batch_size) {
                let kept: Vec<usize> =
                    chunk.iter().copied().filter(|&gi| db.graph(gi).num_nodes() > 0).collect();
                if kept.is_empty() {
                    continue;
                }
                let views: Vec<GraphRef<'_>> = kept.iter().map(|&gi| db.graph(gi).view()).collect();
                let ops: Vec<Arc<NormAdj>> = kept.iter().map(|&gi| Arc::clone(&adj[gi])).collect();
                let batch = GraphBatch::pack_with_operators(&views, &ops, model.config().input_dim);
                let trace = model.forward_batch(&batch);
                let targets: Vec<usize> = kept.iter().map(|&gi| db.truth()[gi]).collect();
                let grads = model.backward_batch(&trace, &targets);
                loss_sum += grads.loss;
                let inv = 1.0 / kept.len() as f32;
                let grad_list: Vec<Matrix> =
                    GcnModel::grads_in_order(&grads).into_iter().map(|g| g.scale(inv)).collect();
                for ((param, opt), grad) in
                    model.params_mut().into_iter().zip(&mut adams).zip(&grad_list)
                {
                    opt.step(param, grad);
                }
            }
        } else {
            for &gi in &order {
                let g = db.graph(gi);
                if g.num_nodes() == 0 {
                    continue;
                }
                let (grads, gate_grads) = if gated {
                    let trace = model.forward(g); // rebuilds the gated operator
                    let (grads, gate_grads) = model.backward_edge_gates(&trace, g, db.truth()[gi]);
                    (grads, Some(gate_grads))
                } else {
                    let trace = model.forward_with_adj(g, Arc::clone(&adj[gi]));
                    (model.backward(&trace, db.truth()[gi]), None)
                };
                loss_sum += grads.loss;
                let grad_list: Vec<gvex_linalg::Matrix> =
                    GcnModel::grads_in_order(&grads).into_iter().cloned().collect();
                for ((param, opt), grad) in
                    model.params_mut().into_iter().zip(&mut adams).zip(&grad_list)
                {
                    opt.step(param, grad);
                }
                if let (Some(gg), Some(opt)) = (gate_grads, gate_adam.as_mut()) {
                    if let Some(gates) = model.edge_gates_mut() {
                        opt.step(gates, &gg);
                    }
                }
            }
        }
        epoch_loss.push(loss_sum / split.train.len().max(1) as f32);
        if let Some(t0) = epoch_clock {
            gvex_obs::histogram!("gnn.train.epoch_ms", t0.elapsed().as_millis() as u64);
        }

        let val_acc = accuracy(&model, db, &split.val);
        if val_acc > best.0 {
            best = (val_acc, model.clone());
            since_best = 0;
        } else {
            // ties keep the *later* (more trained) weights — small val
            // splits otherwise freeze on a lucky early model — but still
            // count toward patience so training terminates.
            if val_acc == best.0 {
                best.1 = model.clone();
            }
            since_best += 1;
            if opts.patience > 0 && since_best >= opts.patience {
                break;
            }
        }
    }

    let (best_val_accuracy, best_model) = best;
    let test_accuracy = accuracy(&best_model, db, &split.test);
    (best_model, TrainReport { epoch_loss, best_val_accuracy, test_accuracy, epochs: ran })
}

/// Fraction of `indices` whose prediction matches the ground truth.
/// Graphs are classified in block-diagonal batches of [`DEFAULT_BATCH`]
/// (one fused forward per block).
pub fn accuracy(model: &GcnModel, db: &GraphDatabase, indices: &[usize]) -> f32 {
    if indices.is_empty() {
        return 0.0;
    }
    let correct: usize = indices
        .chunks(DEFAULT_BATCH)
        .map(|chunk| {
            let views: Vec<GraphRef<'_>> = chunk.iter().map(|&gi| db.graph(gi).view()).collect();
            model
                .predict_batch(&views)
                .into_iter()
                .zip(chunk)
                .filter(|&(p, &gi)| p == db.truth()[gi])
                .count()
        })
        .sum();
    correct as f32 / indices.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_graph::Graph;

    /// Two trivially separable classes: triangles of type-0 nodes with
    /// feature [1,0] vs paths of type-1 nodes with feature [0,1].
    fn toy_db(n_per_class: usize) -> GraphDatabase {
        let mut db = GraphDatabase::new(vec!["tri".into(), "path".into()]);
        for i in 0..n_per_class {
            let mut b = Graph::builder(false);
            let extra = i % 2; // small size variation
            for _ in 0..3 + extra {
                b.add_node(0, &[1.0, 0.0]);
            }
            b.add_edge(0, 1, 0);
            b.add_edge(1, 2, 0);
            b.add_edge(0, 2, 0);
            if extra == 1 {
                b.add_edge(2, 3, 0);
            }
            db.push(b.build(), 0);

            let mut b = Graph::builder(false);
            for _ in 0..3 + extra {
                b.add_node(1, &[0.0, 1.0]);
            }
            for v in 1..3 + extra {
                b.add_edge(v - 1, v, 0);
            }
            db.push(b.build(), 1);
        }
        db
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let db = toy_db(10);
        let s1 = Split::paper(&db, 42);
        let s2 = Split::paper(&db, 42);
        assert_eq!(s1.train, s2.train);
        let mut all = [s1.train.clone(), s1.val.clone(), s1.test.clone()].concat();
        all.sort_unstable();
        assert_eq!(all, (0..db.len()).collect::<Vec<_>>());
        assert!(!s1.train.is_empty() && !s1.val.is_empty() && !s1.test.is_empty());
    }

    #[test]
    fn training_separates_easy_classes() {
        let db = toy_db(10);
        let split = Split::paper(&db, 7);
        let cfg = GcnConfig { input_dim: 2, hidden: 8, layers: 2, num_classes: 2 };
        let opts =
            TrainOptions { epochs: 60, lr: 0.01, seed: 7, patience: 0, ..Default::default() };
        let (model, report) = train(&db, cfg, &split, opts);
        assert!(
            report.test_accuracy >= 0.99,
            "expected perfect separation, got {} (val {})",
            report.test_accuracy,
            report.best_val_accuracy
        );
        // loss should broadly decrease
        let first = report.epoch_loss[0];
        let last = *report.epoch_loss.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        let _ = model;
    }

    #[test]
    fn mini_batch_training_separates_easy_classes() {
        let db = toy_db(10);
        let split = Split::paper(&db, 7);
        let cfg = GcnConfig { input_dim: 2, hidden: 8, layers: 2, num_classes: 2 };
        let opts = TrainOptions { epochs: 120, lr: 0.02, seed: 7, patience: 0, batch_size: 4 };
        let (_, report) = train(&db, cfg, &split, opts);
        assert!(
            report.test_accuracy >= 0.99,
            "mini-batch training failed to separate easy classes: {} (val {})",
            report.test_accuracy,
            report.best_val_accuracy
        );
        let first = report.epoch_loss[0];
        let last = *report.epoch_loss.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn batch_size_zero_and_one_are_bitwise_identical() {
        let db = toy_db(8);
        let split = Split::paper(&db, 5);
        let cfg = GcnConfig { input_dim: 2, hidden: 6, layers: 2, num_classes: 2 };
        let base = TrainOptions { epochs: 30, lr: 0.01, seed: 5, patience: 0, batch_size: 1 };
        let (m1, r1) = train(&db, cfg, &split, base);
        // 0 is what pre-batching serialized options deserialize to; it must
        // take the same per-graph path as 1, bit for bit
        let (m0, r0) = train(&db, cfg, &split, TrainOptions { batch_size: 0, ..base });
        assert_eq!(r1.epoch_loss, r0.epoch_loss);
        assert_eq!(r1.test_accuracy, r0.test_accuracy);
        for gi in 0..db.len() {
            assert_eq!(m1.predict(db.graph(gi)), m0.predict(db.graph(gi)));
        }
    }

    #[test]
    fn early_stopping_stops() {
        let db = toy_db(6);
        let split = Split::paper(&db, 3);
        let cfg = GcnConfig { input_dim: 2, hidden: 4, layers: 2, num_classes: 2 };
        let opts =
            TrainOptions { epochs: 500, lr: 0.01, seed: 3, patience: 5, ..Default::default() };
        let (_, report) = train(&db, cfg, &split, opts);
        assert!(report.epochs < 500, "patience never triggered");
    }

    #[test]
    fn accuracy_empty_indices_is_zero() {
        let db = toy_db(3);
        let cfg = GcnConfig { input_dim: 2, hidden: 4, layers: 1, num_classes: 2 };
        let model = GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        assert_eq!(accuracy(&model, &db, &[]), 0.0);
    }
}
