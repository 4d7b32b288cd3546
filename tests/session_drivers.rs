//! Session pins: `ExactStrategy` runs through the one explain driver and
//! yields the same views in a 1-thread and a 4-thread pool, and the
//! session-level verify/index entry points match the free functions.
//! (The fan-out pin for the approximate strategies, on a database that
//! clears the fan-out threshold, is `tests/explain_fanout.rs`.)
//! Outputs are compared through serialized JSON, which preserves every
//! `f64` bit.

use gvex::core::{
    index_views, verify_view, Configuration, ExactStrategy, ExplainSession, ExplanationViewSet,
    GreedyStrategy,
};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::{Graph, GraphDatabase};

fn motif_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
    let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.add_edge(chain - 1, m1, 0);
    b.add_edge(m1, m2, 0);
    b.build()
}

fn plain_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.build()
}

fn motif_db() -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for i in 0..6 {
        db.push(plain_graph(5 + i % 2), 0);
        db.push(motif_graph(4 + i % 2), 1);
    }
    db
}

fn trained(db: &GraphDatabase) -> GcnModel {
    let split =
        Split { train: (0..db.len()).collect(), val: (0..db.len()).collect(), test: vec![] };
    let cfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
    let opts = TrainOptions { epochs: 60, lr: 0.01, seed: 1, patience: 0, ..Default::default() };
    train(db, cfg, &split, opts).0
}

fn config() -> Configuration {
    Configuration::uniform(0.05, 0.3, 0.5, 0, 3)
}

fn json(set: &ExplanationViewSet) -> String {
    serde_json::to_string(set).expect("serializes")
}

#[test]
fn exact_strategy_is_driver_invariant() {
    let db = motif_db();
    let model = trained(&db);
    // tiny upper bound: ExactStrategy enumerates all subsets up to size 3;
    // a fresh session per run, so each computes from cold caches
    let explain = |threads: usize| {
        let sess = ExplainSession::new(&model, config()).unwrap();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| sess.explain(&ExactStrategy, &db, &[1]))
    };
    let one = explain(1);
    assert!(!one.views[0].subgraphs.is_empty(), "exact strategy found no explanations");
    assert_eq!(json(&explain(4)), json(&one), "exact strategy at 4 threads vs 1");
}

#[test]
fn query_index_through_session_matches_free_function() {
    let db = motif_db();
    let model = trained(&db);
    let sess = ExplainSession::new(&model, config()).unwrap();
    let views = sess.explain(&GreedyStrategy, &db, &[0, 1]);

    let free = index_views(&views);
    let through_session = sess.index_views(&views);
    assert_eq!(free.patterns().len(), through_session.patterns().len());
    for label in [0usize, 1] {
        assert_eq!(free.patterns_of_label(label), through_session.patterns_of_label(label));
        assert_eq!(
            free.discriminative_patterns(label),
            through_session.discriminative_patterns(label)
        );
    }
    for pid in 0..free.patterns().len() {
        assert_eq!(free.graphs_matching(pid), through_session.graphs_matching(pid));
    }
    // the index answers something non-trivial about the motif class
    assert!(!through_session.patterns_of_label(1).is_empty());
}

#[test]
fn session_verify_matches_free_verify() {
    let db = motif_db();
    let model = trained(&db);
    let cfg = config();
    let sess = ExplainSession::new(&model, cfg.clone()).unwrap();
    let views = sess.explain(&GreedyStrategy, &db, &[0, 1]);
    for view in &views.views {
        assert_eq!(sess.verify(&db, view), verify_view(&model, &db, view, &cfg));
    }
}
