//! StreamGVEX vs ApproxGVEX: the streaming algorithm's anytime behavior and
//! its quality relative to the batch algorithm (Theorem 5.1's ¼ vs
//! Theorem 4.1's ½ approximation — in practice the paper reports "minor
//! quality gaps").

use gvex::core::stream::GraphStream;
use gvex::core::{
    Configuration, ExplainSession, GreedyStrategy, SelectionStrategy, StreamStrategy,
};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::graph::GraphDatabase;

fn trained() -> (GraphDatabase, gvex::gnn::GcnModel, Split) {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 7);
    let split = Split::paper(&db, 7);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 120, lr: 0.01, seed: 7, patience: 0, ..Default::default() };
    let (model, _) = train(&db, cfg, &split, opts);
    (db, model, split)
}

#[test]
fn stream_explainability_within_factor_of_batch() {
    let (db, model, split) = trained();
    // one session serves both algorithms: the forward traces are shared
    let sess = ExplainSession::new(&model, Configuration::paper_mut(8)).unwrap();
    let mut batch_total = 0.0;
    let mut stream_total = 0.0;
    let mut explained = 0;
    for &gi in &split.test {
        let g = db.graph(gi);
        if let (Some(b), Some(s)) =
            (GreedyStrategy.explain_graph(&sess, g, gi), StreamStrategy.explain_graph(&sess, g, gi))
        {
            batch_total += b.explainability;
            stream_total += s.explainability;
            explained += 1;
        }
    }
    assert!(explained > 0, "no graph explained by both algorithms");
    // streaming is guaranteed ≥ ¼-approx; relative to the batch greedy it
    // should stay within a constant factor (and usually much closer)
    assert!(
        stream_total >= 0.25 * batch_total,
        "stream {stream_total} too far below batch {batch_total}"
    );
}

#[test]
fn anytime_score_is_monotone_over_the_stream() {
    let (db, model, split) = trained();
    let gi = split.test[0];
    let g = db.graph(gi);
    let sess = ExplainSession::new(&model, Configuration::paper_mut(8)).unwrap();
    let mut stream = GraphStream::with_session(&sess, g, gi);
    let mut last = 0.0_f64;
    for v in 0..g.num_nodes() {
        stream.arrive(v);
        let score = stream.current_score();
        assert!(score >= last - 1e-9, "anytime score regressed at node {v}: {last} -> {score}");
        last = score;
    }
}

#[test]
fn prefix_of_stream_yields_valid_partial_view() {
    let (db, model, split) = trained();
    let gi = split.test[0];
    let g = db.graph(gi);
    let sess = ExplainSession::new(&model, Configuration::paper_mut(8)).unwrap();
    let mut stream = GraphStream::with_session(&sess, g, gi);
    // process only half the stream
    for v in 0..g.num_nodes() / 2 {
        stream.arrive(v);
    }
    let nodes = stream.current_nodes().to_vec();
    assert!(nodes.len() <= 8);
    // all selected nodes must have arrived in the prefix
    assert!(nodes.iter().all(|&v| v < g.num_nodes() / 2));
}

#[test]
fn stream_and_batch_bound_compliance_across_testset() {
    let (db, model, split) = trained();
    let sess = ExplainSession::new(&model, Configuration::paper_mut(6)).unwrap();
    for &gi in &split.test {
        let g = db.graph(gi);
        if let Some(b) = GreedyStrategy.explain_graph(&sess, g, gi) {
            assert!(b.len() <= 6 && !b.is_empty());
        }
        if let Some(s) = StreamStrategy.explain_graph(&sess, g, gi) {
            assert!(s.len() <= 6 && !s.is_empty());
        }
    }
}
