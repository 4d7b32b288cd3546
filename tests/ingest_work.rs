//! The ingest work claim, counted instead of timed: a localized edit
//! through `IngestEngine::apply` re-explains exactly the edited graph — one
//! influence analysis per edit and no full view recompute. The counters are
//! process-global, so this binary holds this one test.
//!
//! Every edit produces graph content the engine has not seen before: an
//! edit that restored an earlier graph could hit the session's influence
//! memo and count nothing.

use gvex::core::{Configuration, ExplainSession, GreedyStrategy};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::graph::Graph;
use gvex::ingest::{IngestEngine, Op};

fn counter(name: &str) -> u64 {
    gvex::obs::metrics::counters().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
}

/// The first pair `u < v` of distinct, non-adjacent nodes.
fn missing_edge(g: &Graph) -> (usize, usize) {
    let n = g.num_nodes();
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("graph is not complete")
}

/// The first edge `u < v`.
fn some_edge(g: &Graph) -> (usize, usize) {
    (0..g.num_nodes())
        .find_map(|u| g.neighbors(u).map(|(v, _)| v).find(|&v| v > u).map(|v| (u, v)))
        .expect("graph has an edge")
}

#[test]
fn localized_edits_re_explain_only_the_edited_graph() {
    gvex::obs::set_enabled(true);
    assert!(gvex::obs::enabled(), "the root package compiles observation in");

    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 9);
    let split = Split::paper(&db, 9);
    let gcfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: 8,
        layers: 2,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 8, lr: 0.01, seed: 9, patience: 0, ..Default::default() };
    let (model, _) = train(&db, gcfg, &split, opts);
    let cfg = Configuration::paper_mut(4);
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let views = ExplainSession::new(&model, cfg.clone()).expect("valid configuration").explain(
        &GreedyStrategy,
        &db,
        &labels,
    );
    let mut engine = IngestEngine::new("MUT", 9, db, model, cfg, views, 0).expect("engine starts");

    let mut edits = 0;
    for graph in [0usize, 3, 5] {
        for step in 0..3 {
            let g = engine.db().graph(graph);
            // add, remove an original edge, add again: each state is new
            let op = if step == 1 {
                let (u, v) = some_edge(g);
                Op::RemoveEdge { graph, u, v }
            } else {
                let (u, v) = missing_edge(g);
                Op::AddEdge { graph, u, v, etype: 0 }
            };
            let misses = counter("core.session.influence_misses");
            let recomputed = counter("ingest.views_recomputed");
            engine.apply(&op).expect("edit applies");
            edits += 1;
            assert_eq!(
                counter("core.session.influence_misses"),
                misses + 1,
                "{op:?} must re-explain exactly the edited graph"
            );
            assert_eq!(
                counter("ingest.views_recomputed"),
                recomputed,
                "{op:?} must patch, not recompute a view"
            );
        }
    }
    assert_eq!(engine.stats().mutations_applied, edits);
    assert_eq!(engine.stats().views_recomputed, 0);
}
