//! Edge-feature support (the paper's first future-work item, §7):
//! a classification task where the *edge types* carry the class signal.
//! A plain GCN is structurally blind to edge types; the edge-gated model
//! must learn to separate the classes, and GVEX must be able to explain it.

use gvex::core::{Configuration, ExplainSession, GreedyStrategy, SelectionStrategy};
use gvex::gnn::{train_model, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::{Graph, GraphDatabase};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Two classes of identical topology and identical node features; only the
/// edge types differ (class 0: "single" bonds, class 1: "aromatic").
fn edge_type_db(n_per_class: usize) -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["single".into(), "aromatic".into()]);
    db.edge_types.intern("single");
    db.edge_types.intern("aromatic");
    for i in 0..n_per_class {
        for class in 0..2u32 {
            let mut b = Graph::builder(false);
            let len = 6 + i % 3;
            for _ in 0..len {
                b.add_node(0, &[1.0, 0.5]);
            }
            for v in 1..len {
                b.add_edge(v - 1, v, class);
            }
            b.add_edge(0, len - 1, class);
            db.push(b.build(), class as usize);
        }
    }
    db
}

fn train_variant(db: &GraphDatabase, gated: bool) -> (GcnModel, f32) {
    let split =
        Split { train: (0..db.len()).collect(), val: (0..db.len()).collect(), test: vec![] };
    let cfg = GcnConfig { input_dim: 2, hidden: 8, layers: 2, num_classes: 2 };
    let base = GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(3));
    let base = if gated { base.with_edge_gates(2) } else { base };
    let opts = TrainOptions { epochs: 150, lr: 0.02, seed: 3, patience: 0, ..Default::default() };
    let (model, _) = train_model(db, base, &split, opts);
    let all: Vec<usize> = (0..db.len()).collect();
    let acc = gvex::gnn::trainer::accuracy(&model, db, &all);
    (model, acc)
}

#[test]
fn plain_gcn_cannot_separate_edge_type_classes() {
    let db = edge_type_db(8);
    let (_, acc) = train_variant(&db, false);
    // the two classes are *identical* to an edge-type-blind model
    assert!(acc <= 0.6, "a plain GCN should be at chance on edge-type-only labels, got {acc}");
}

#[test]
fn edge_gated_model_separates_edge_type_classes() {
    let db = edge_type_db(8);
    let (model, acc) = train_variant(&db, true);
    assert!(acc >= 0.95, "edge-gated model stuck at {acc}");
    // the learned gates must actually differ between the two bond types
    let scales = model.edge_gate_scales();
    assert_eq!(scales.len(), 2);
    assert!(
        (scales[0] - scales[1]).abs() > 0.05,
        "gates did not differentiate edge types: {scales:?}"
    );
}

#[test]
fn gvex_explains_edge_gated_model() {
    let db = edge_type_db(8);
    let (model, acc) = train_variant(&db, true);
    assert!(acc >= 0.95);
    let sess = ExplainSession::new(&model, Configuration::paper_mut(4)).unwrap();
    let mut explained = 0;
    for gi in 0..4 {
        if let Some(sub) = GreedyStrategy.explain_graph(&sess, db.graph(gi), gi) {
            assert!(sub.len() <= 4 && !sub.is_empty());
            explained += 1;
        }
    }
    assert!(explained > 0, "GVEX failed to explain the gated model");
}
