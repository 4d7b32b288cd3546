//! Drug-discovery scenario (the paper's Example 1.1 / Fig. 1): explain why a
//! GNN classifies specific compounds as mutagens, verify the counterfactual
//! property, and *query* the resulting view — "which toxicophores occur in
//! mutagens?".
//!
//! ```bash
//! cargo run --release --example drug_discovery
//! ```

use gvex::core::{everify, Configuration, ExplainSession, GreedyStrategy, SelectionStrategy};
use gvex::datasets::molecules::no2_pattern;
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::iso::{matches, MatchOptions};

fn main() {
    let db = DatasetKind::Mutagenicity.generate(Scale::Bench, 7);
    let split = Split::paper(&db, 7);
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
        TrainOptions { epochs: 150, lr: 0.01, seed: 7, patience: 0, ..Default::default() },
    );
    println!("classifier test accuracy: {:.3}", report.test_accuracy);

    // one session: the per-compound explanations and the view below share
    // its forward traces and influence analyses
    let session =
        ExplainSession::new(&model, Configuration::paper_mut(10)).expect("valid configuration");

    // A medical analyst asks "why are these two compounds mutagens?"
    let mutagens: Vec<usize> =
        split.test.iter().copied().filter(|&gi| model.predict(db.graph(gi)) == 1).take(2).collect();

    for &gi in &mutagens {
        let g = db.graph(gi);
        let sub = GreedyStrategy.explain_graph(&session, g, gi).expect("explanation exists");
        println!(
            "\ncompound #{gi}: {} atoms; explanation keeps {} atoms: {:?}",
            g.num_nodes(),
            sub.len(),
            sub.nodes.iter().map(|&v| db.node_types.name(g.node_type(v))).collect::<Vec<_>>()
        );
        // The paper's two defining properties of an explanation subgraph:
        let verdict = everify(&model, g, &sub.nodes);
        println!("  consistent (M(Gs) = mutagen):        {}", verdict.consistent);
        println!("  counterfactual (M(G\\Gs) != mutagen): {}", verdict.counterfactual);
    }

    // Build the full view for the mutagen class and query it.
    let view = {
        let assigned: Vec<usize> = db.graphs().iter().map(|g| model.predict(g)).collect();
        let groups = db.label_groups(&assigned);
        let test_mutagens: Vec<usize> =
            split.test.iter().copied().filter(|gi| groups.group(1).contains(gi)).collect();
        GreedyStrategy.explain_label_group(&session, &db, 1, &test_mutagens)
    };

    // Query 1: "which toxicophores occur in mutagens?" — scan the pattern
    // tier for the known NO2 toxicophore.
    let no2 = no2_pattern();
    let opts = MatchOptions { induced: false, max_embeddings: 100 };
    let hits = view
        .patterns
        .iter()
        .filter(|p| matches(&no2, *p, opts) || gvex::iso::are_isomorphic(p, &no2))
        .count();
    println!("\nquery: which patterns contain the NO2 toxicophore? -> {hits} pattern(s)");

    // Query 2: "which compounds match pattern P0?" — view-based access.
    if let Some(p0) = view.patterns.first() {
        let matched: Vec<usize> = view
            .subgraphs
            .iter()
            .filter(|s| matches(p0, &s.subgraph, MatchOptions::default()))
            .map(|s| s.graph_index)
            .collect();
        println!("query: which explanation subgraphs match P0? -> {matched:?}");
    }
}
