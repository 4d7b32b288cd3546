//! Anytime streaming explanation (§5): process a node stream, interrupt it
//! midway, and inspect the explanation view maintained so far — the
//! workload StreamGVEX exists for.
//!
//! ```bash
//! cargo run --release --example streaming_anytime
//! ```

use gvex::core::stream::GraphStream;
use gvex::core::{Configuration, ExplainSession};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};

fn main() {
    let db = DatasetKind::Enzymes.generate(Scale::Small, 5);
    let split = Split::paper(&db, 5);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let (model, report) = train(
        &db,
        cfg,
        &split,
        TrainOptions { epochs: 200, lr: 0.01, seed: 5, patience: 0, ..Default::default() },
    );
    println!("classifier test accuracy: {:.3}", report.test_accuracy);

    let gi = split.test[0];
    let g = db.graph(gi);
    println!("\nstreaming the {} nodes of test graph #{gi}...", g.num_nodes());

    let session =
        ExplainSession::new(&model, Configuration::paper_mut(8)).expect("valid configuration");
    let mut stream = GraphStream::with_session(&session, g, gi);

    // Process the stream; after every quarter, peek at the anytime view.
    let n = g.num_nodes();
    for (i, v) in (0..n).enumerate() {
        stream.arrive(v);
        if (i + 1) % n.div_ceil(4) == 0 || i + 1 == n {
            println!(
                "  after {:>3}/{} arrivals: |V_S| = {}, |P_c| = {}, anytime f = {:.3}",
                i + 1,
                n,
                stream.current_nodes().len(),
                stream.current_patterns().len(),
                stream.current_score(),
            );
        }
    }

    match stream.finish() {
        Some((sub, patterns)) => {
            println!(
                "\nfinal explanation: {} nodes, consistent={}, counterfactual={}, {} patterns",
                sub.len(),
                sub.consistent,
                sub.counterfactual,
                patterns.len()
            );
        }
        None => println!("\nno explanation satisfying the coverage bound"),
    }
}
