//! Model-agnosticism (§1, Table 1's "MA" column): GVEX treats the
//! classifier as a black box, so swapping the GCN for SAGE-mean or GIN-sum
//! message passing — or a different readout — must not break explanation
//! generation. The paper claims applicability to "any GNN employing
//! message-passing" (§6.1); this test holds the repository to it.

use gvex::core::{
    Configuration, ExplainSession, GreedyStrategy, SelectionStrategy, StreamStrategy,
};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{
    train_model, trainer::TrainOptions, Aggregation, GcnConfig, GcnModel, Readout, Split,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn gvex_explains_every_message_passing_variant() {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 13);
    let split = Split::paper(&db, 13);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 100, lr: 0.01, seed: 13, patience: 0, ..Default::default() };

    for (aggregation, readout) in [
        (Aggregation::GcnNorm, Readout::Max), // the paper's classifier
        (Aggregation::Mean, Readout::Mean),   // GraphSAGE-flavored
        (Aggregation::Sum, Readout::Sum),     // GIN-flavored
    ] {
        let base = GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(13))
            .with_aggregation(aggregation)
            .with_readout(readout);
        let (model, report) = train_model(&db, base, &split, opts);
        assert!(
            report.best_val_accuracy >= 0.5,
            "{aggregation:?}/{readout:?} failed to learn at all"
        );

        let sess = ExplainSession::new(&model, Configuration::paper_mut(8)).unwrap();
        let mut explained = 0;
        for &gi in split.test.iter().take(4) {
            let g = db.graph(gi);
            if let Some(sub) = GreedyStrategy.explain_graph(&sess, g, gi) {
                assert!(sub.len() <= 8 && !sub.is_empty());
                explained += 1;
            }
            if let Some((sub, patterns)) = StreamStrategy.stream_graph(&sess, g, gi, None) {
                assert!(sub.len() <= 8);
                // streaming must keep maintaining patterns regardless of model
                let _ = patterns;
            }
        }
        assert!(explained > 0, "{aggregation:?}/{readout:?}: ApproxGVEX explained nothing");
    }
}

#[test]
fn variant_models_serialize_round_trip() {
    let cfg = GcnConfig { input_dim: 3, hidden: 4, layers: 2, num_classes: 2 };
    let model = GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(1))
        .with_aggregation(Aggregation::Mean)
        .with_readout(Readout::Sum);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: GcnModel = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.aggregation(), Aggregation::Mean);
    assert_eq!(back.readout(), Readout::Sum);
    // same predictions after round trip
    let mut b = gvex::graph::Graph::builder(false);
    for i in 0..3 {
        b.add_node(0, &[i as f32, 1.0, 0.0]);
    }
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 0);
    let g = b.build();
    assert_eq!(model.predict_proba(&g), back.predict_proba(&g));
}
