//! Case study 3 (Fig. 13, §A.9): explanation views for three ENZYMES
//! classes — different classes should yield visibly different subgraph
//! structures, and the recovered patterns should correlate with the planted
//! fold motifs.

use gvex_bench::harness::{format_pattern, gvex_config, prepare, write_json};
use gvex_core::{ExplainSession, GreedyStrategy};
use gvex_datasets::proteins::class_motif;
use gvex_datasets::{DatasetKind, Scale};
use gvex_iso::{matches, MatchOptions};
use serde::Serialize;

#[derive(Serialize)]
struct ClassView {
    class: usize,
    class_name: String,
    num_subgraphs: usize,
    patterns: Vec<String>,
    motif_recovered: bool,
}

fn main() {
    let prep = prepare(DatasetKind::Enzymes, Scale::Bench, 42);
    eprintln!("classifier accuracy {:.3}", prep.accuracy);
    let sess = ExplainSession::new(&prep.model, gvex_config(10)).expect("valid configuration");
    let opts = MatchOptions { induced: false, max_embeddings: 1000 };

    let mut out = Vec::new();
    println!("\nCase study 3 — ENZ explanation views for classes EC1..EC3\n");
    let set = sess.explain(&GreedyStrategy, &prep.db, &[0, 1, 2]);
    for view in &set.views {
        let motif = class_motif(view.label);
        // the planted motif is "recovered" when it matches inside some
        // explanation subgraph or some mined pattern contains it
        let in_subgraphs = view.subgraphs.iter().any(|s| matches(&motif, &s.subgraph, opts));
        let in_patterns = view.patterns.iter().any(|p| matches(&motif, p, opts));
        let recovered = in_subgraphs || in_patterns;
        println!(
            "class {} ({}): {} subgraphs, {} patterns, planted motif {}",
            view.label,
            prep.db.class_names[view.label],
            view.subgraphs.len(),
            view.patterns.len(),
            if recovered { "RECOVERED" } else { "missed" },
        );
        let patterns: Vec<String> =
            view.patterns.iter().map(|p| format_pattern(p, &prep.db.node_types)).collect();
        for (i, p) in patterns.iter().enumerate() {
            println!("  P{i}: {p}");
        }
        out.push(ClassView {
            class: view.label,
            class_name: prep.db.class_names[view.label].clone(),
            num_subgraphs: view.subgraphs.len(),
            patterns,
            motif_recovered: recovered,
        });
        println!();
    }
    write_json("case_enzymes.json", &out);
}
