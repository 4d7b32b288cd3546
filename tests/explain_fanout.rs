//! The explain driver fans out and stays bitwise identical: on a database
//! whose label groups clear the fan-out threshold, `ExplainSession::explain`
//! inside a 1-thread and a 4-thread pool yields the same views as a
//! sequential member-order oracle, for ApproxGVEX (`GreedyStrategy`) and
//! StreamGVEX (`StreamStrategy`). With observation on, the 4-thread runs
//! must record a parallel fan-out wherever the hardware has more than one
//! thread, so the pin cannot silently drop below the threshold. The
//! counters are process-global, so this binary holds this one test.
//!
//! Outputs are compared through serialized JSON, which preserves every
//! `f64` bit.

use gvex::core::{
    Configuration, ExplainSession, ExplanationView, ExplanationViewSet, GreedyStrategy,
    SelectionStrategy, StreamStrategy,
};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::{Graph, GraphDatabase};
use gvex::iso::vf2::are_isomorphic;

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

/// 4 + 4 graphs of 42 nodes: any split of them into assigned-label groups
/// leaves a group of at least 4, priced at 4·42³ ≈ 3·10⁵ scalar ops, above
/// `gvex_core::parallel::PAR_THRESHOLD` (2¹⁸).
fn fanout_database() -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for _ in 0..4 {
        db.push(plain_graph(42), 0);
        db.push(motif_graph(40), 1);
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

fn json(set: &ExplanationViewSet) -> String {
    serde_json::to_string(set).expect("serializes")
}

fn counter(name: &str) -> u64 {
    gvex::obs::metrics::counters().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
}

/// The sequential oracle: every member explained on the calling thread in
/// member order, then the strategy's assembly — `Psum` for the batch
/// strategy, the isomorphism-deduplicated pattern merge plus gap filling
/// for the streaming one.
fn oracle(sess: &ExplainSession<'_>, stream: bool, db: &GraphDatabase) -> ExplanationViewSet {
    let assigned = gvex::core::parallel::predict_all(sess.model(), db);
    let groups = db.label_groups(&assigned);
    let views: Vec<ExplanationView> = (0..db.num_classes())
        .map(|label| {
            let members = groups.group(label);
            if !stream {
                let subgraphs = members
                    .iter()
                    .filter_map(|&gi| GreedyStrategy.explain_graph(sess, db.graph(gi), gi))
                    .collect();
                return sess.summarize(label, subgraphs);
            }
            let mut subgraphs = Vec::new();
            let mut patterns: Vec<Graph> = Vec::new();
            for &gi in members {
                if let Some((sub, local)) =
                    StreamStrategy.stream_graph(sess, db.graph(gi), gi, None)
                {
                    subgraphs.push(sub);
                    for p in local {
                        if !patterns.iter().any(|q| are_isomorphic(q, &p)) {
                            patterns.push(p);
                        }
                    }
                }
            }
            sess.assemble_view(label, subgraphs, patterns)
        })
        .collect();
    ExplanationViewSet { views }
}

#[test]
fn explain_fans_out_identically_at_one_and_four_threads() {
    gvex::obs::set_enabled(true);
    assert!(gvex::obs::enabled(), "the root package compiles observation in");
    let multicore = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;

    let db = fanout_database();
    let model = trained(&db);
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let strategies: [(&dyn SelectionStrategy, bool); 2] =
        [(&GreedyStrategy, false), (&StreamStrategy, true)];
    for (strategy, stream) in strategies {
        let expected =
            json(&oracle(&ExplainSession::new(&model, cfg.clone()).unwrap(), stream, &db));
        assert!(expected.contains("\"subgraphs\":[{"), "{}: no explanations", strategy.name());
        for threads in [1usize, 4] {
            // a fresh session per run, so every run computes from cold caches
            let sess = ExplainSession::new(&model, cfg.clone()).unwrap();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let fanouts = counter("core.parallel.parallel");
            let views = pool.install(|| sess.explain(strategy, &db, &labels));
            let fanouts = counter("core.parallel.parallel") - fanouts;
            assert_eq!(json(&views), expected, "{} at {threads} threads", strategy.name());
            if threads == 1 {
                assert_eq!(fanouts, 0, "{}: a 1-thread pool fanned out", strategy.name());
            } else if multicore {
                assert!(fanouts > 0, "{}: the 4-thread run never fanned out", strategy.name());
            }
        }
    }
}
