//! Failure-injection and degenerate-input tests: the stack must behave
//! sensibly (defined output or clean rejection, never a panic) on inputs a
//! downstream user will eventually feed it.

use gvex::core::NodeExplanation;
use gvex::core::{
    Configuration, ExplainSession, Explainer, GreedyStrategy, GvexExplainer, SelectionStrategy,
    StreamStrategy,
};
use gvex::gnn::{GcnConfig, GcnModel};
use gvex::graph::{Graph, GraphDatabase};
use gvex::influence::{InfluenceAnalysis, InfluenceMode};
use gvex::metrics::{fidelity_minus, fidelity_plus, sparsity};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn model(input_dim: usize, classes: usize) -> GcnModel {
    GcnModel::new(
        GcnConfig { input_dim, hidden: 4, layers: 2, num_classes: classes },
        &mut ChaCha8Rng::seed_from_u64(0),
    )
}

#[test]
fn single_node_graph_is_explainable() {
    let mut b = Graph::builder(false);
    b.add_node(0, &[1.0, 0.0]);
    let g = b.build();
    let m = model(2, 2);
    let sess = ExplainSession::new(&m, Configuration::uniform(0.1, 0.25, 0.5, 0, 5)).unwrap();
    if let Some(sub) = GreedyStrategy.explain_graph(&sess, &g, 0) {
        assert_eq!(sub.nodes, vec![0]);
    }
    let _ = StreamStrategy.explain_graph(&sess, &g, 0);
}

#[test]
fn disconnected_graph_handled() {
    let mut b = Graph::builder(false);
    for _ in 0..6 {
        b.add_node(0, &[1.0, 0.0]);
    }
    b.add_edge(0, 1, 0);
    b.add_edge(3, 4, 0); // two components + isolated nodes
    let g = b.build();
    let m = model(2, 2);
    let sess = ExplainSession::new(&m, Configuration::uniform(0.1, 0.25, 0.5, 0, 4)).unwrap();
    if let Some(sub) = GreedyStrategy.explain_graph(&sess, &g, 0) {
        assert!(sub.len() <= 4);
    }
}

#[test]
fn constant_features_do_not_crash_influence() {
    // identical embeddings → zero pairwise distances → balls must not
    // divide by zero
    let mut b = Graph::builder(false);
    for _ in 0..5 {
        b.add_node(0, &[1.0]);
    }
    for i in 1..5 {
        b.add_edge(i - 1, i, 0);
    }
    let g = b.build();
    let m = model(1, 2);
    let a = InfluenceAnalysis::new(
        &m,
        &g,
        0.1,
        0.25,
        0.5,
        InfluenceMode::Expected,
        &mut ChaCha8Rng::seed_from_u64(0),
    );
    let score = a.score_of(&[0, 2]);
    assert!(score.is_finite() && score >= 0.0);
}

#[test]
fn extreme_feature_magnitudes_stay_finite() {
    let mut b = Graph::builder(false);
    b.add_node(0, &[1e20, -1e20]);
    b.add_node(0, &[1e-20, 0.0]);
    b.add_edge(0, 1, 0);
    let g = b.build();
    let m = model(2, 2);
    let proba = m.predict_proba(&g);
    assert!(proba.iter().all(|p| p.is_finite()));
    assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-4);
}

#[test]
fn metrics_on_degenerate_explanations() {
    let mut b = Graph::builder(false);
    for i in 0..4 {
        b.add_node(0, &[i as f32, 1.0]);
    }
    b.add_edge(0, 1, 0);
    let g = b.build();
    let m = model(2, 2);
    for e in [
        NodeExplanation::default(),
        NodeExplanation::new((0..4).collect()),
        NodeExplanation::new(vec![2]),
    ] {
        assert!(fidelity_plus(&m, &g, &e).is_finite());
        assert!(fidelity_minus(&m, &g, &e).is_finite());
        let s = sparsity(&g, &e);
        assert!((0.0..=1.0).contains(&s));
    }
}

#[test]
fn empty_database_explain_yields_empty_views() {
    let db = GraphDatabase::new(vec!["a".into(), "b".into()]);
    let m = model(2, 2);
    let sess = ExplainSession::new(&m, Configuration::uniform(0.1, 0.25, 0.5, 0, 5)).unwrap();
    let set = sess.explain(&GreedyStrategy, &db, &[0, 1]);
    assert_eq!(set.views.len(), 2);
    assert!(set.views.iter().all(|v| v.subgraphs.is_empty()));
    assert_eq!(set.total_explainability(), 0.0);
}

#[test]
fn upper_bound_of_one_selects_single_node() {
    let mut b = Graph::builder(false);
    for i in 0..5 {
        b.add_node(0, &[i as f32, 1.0]);
    }
    for i in 1..5 {
        b.add_edge(i - 1, i, 0);
    }
    let g = b.build();
    let m = model(2, 2);
    let cfg = Configuration::uniform(0.1, 0.25, 0.5, 1, 1);
    let sess = ExplainSession::new(&m, cfg.clone()).unwrap();
    if let Some(sub) = GreedyStrategy.explain_graph(&sess, &g, 0) {
        assert_eq!(sub.len(), 1);
    }
    let e = GvexExplainer::new(GreedyStrategy, cfg).explain(&m, &g, 1);
    assert!(e.len() <= 1);
}

#[test]
fn mask_learning_on_edgeless_graph() {
    use gvex::baselines::GnnExplainer;
    let mut b = Graph::builder(false);
    for _ in 0..3 {
        b.add_node(0, &[1.0, 0.0]);
    }
    let g = b.build();
    let m = model(2, 2);
    let ge = GnnExplainer { epochs: 5, ..Default::default() };
    let e = ge.explain(&m, &g, 2);
    assert_eq!(e.len(), 2); // node fallback
}
