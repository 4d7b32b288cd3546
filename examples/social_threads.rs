//! Social-network analysis (the paper's case study 2, Fig. 11): label-
//! specific, configurable explanations on REDDIT-style discussion threads,
//! comparing GVEX with a baseline explainer.
//!
//! ```bash
//! cargo run --release --example social_threads
//! ```

use gvex::baselines::GnnExplainer;
use gvex::core::{
    Configuration, CoverageBound, ExplainSession, Explainer, GreedyStrategy, GvexExplainer,
};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::metrics::{fidelity_minus, fidelity_plus, sparsity};

fn main() {
    let db = DatasetKind::RedditBinary.generate(Scale::Small, 11);
    let split = Split::paper(&db, 11);
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
        TrainOptions { epochs: 150, lr: 0.01, seed: 11, patience: 0, ..Default::default() },
    );
    println!("classifier test accuracy: {:.3}", report.test_accuracy);

    // Configurable coverage: the analyst wants detailed explanations for
    // question-answer threads (label 1) but only coarse ones for
    // online-discussion (label 0) — per-label bounds express exactly that.
    let config = Configuration::uniform(0.08, 0.25, 0.5, 0, 12)
        .with_bounds(vec![CoverageBound::new(0, 4), CoverageBound::new(2, 12)]);
    // ApproxGVEX behind the `Explainer` trait it shares with the baselines
    let gvex = GvexExplainer::new(GreedyStrategy, config.clone());
    let baseline = GnnExplainer { epochs: 40, ..Default::default() };

    println!("\nper-thread explanations (GVEX vs GNNExplainer):");
    println!(
        "{:>6} {:<18} {:>6} {:>8} {:>8} {:>9}",
        "thread", "class", "nodes", "F+", "F-", "sparsity"
    );
    for &gi in split.test.iter().take(6) {
        let g = db.graph(gi);
        let label = model.predict(g);
        let budget = if label == 1 { 12 } else { 4 };
        for (name, expl) in [
            ("GVEX", gvex.explain(&model, g, budget)),
            ("GNNExplainer", baseline.explain(&model, g, budget)),
        ] {
            println!(
                "{gi:>6} {:<18} {:>6} {:>8.3} {:>8.3} {:>9.3}",
                format!("{}/{name}", db.class_names[label]),
                expl.len(),
                fidelity_plus(&model, g, &expl),
                fidelity_minus(&model, g, &expl),
                sparsity(g, &expl),
            );
        }
    }

    // Label-specific views: star hubs vs biclique fragments.
    let session = ExplainSession::new(&model, config).expect("valid configuration");
    let views = session.explain(&GreedyStrategy, &db, &[0, 1]);
    for view in &views.views {
        let max_deg = view
            .patterns
            .iter()
            .flat_map(|p| (0..p.num_nodes()).map(|v| p.degree(v)))
            .max()
            .unwrap_or(0);
        println!(
            "\nlabel '{}': {} patterns (max pattern degree {}), compression {:.1}%",
            db.class_names[view.label],
            view.patterns.len(),
            max_deg,
            view.compression() * 100.0
        );
    }
}
