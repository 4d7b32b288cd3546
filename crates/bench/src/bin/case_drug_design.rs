//! Case study 1 (Fig. 10): GNN-based drug design on MUT.
//!
//! Picks an NO2-bearing mutagen from the test split, runs every explainer at
//! the paper's Example 4.2 budget (u_l = 15), and checks who recovers the
//! real toxicophore — in the paper, GVEX finds NO₂ with a small
//! subgraph while GNNExplainer needs 14 atoms and the rest miss it.

use gvex_bench::harness::{format_pattern, gvex_config, prepare, roster, write_json};
use gvex_core::{ExplainSession, GreedyStrategy, SelectionStrategy};
use gvex_datasets::molecules::no2_pattern;
use gvex_datasets::{DatasetKind, Scale};
use gvex_iso::{matches, MatchOptions};
use serde::Serialize;

#[derive(Serialize)]
struct MethodRow {
    method: String,
    explanation_nodes: usize,
    found_no2: bool,
    found_nitro_fragment: bool,
    atoms: Vec<String>,
}

fn main() {
    let prep = prepare(DatasetKind::Mutagenicity, Scale::Bench, 42);
    eprintln!("classifier accuracy {:.3}", prep.accuracy);
    let no2 = no2_pattern();
    let opts = MatchOptions { induced: false, max_embeddings: 100 };

    // first correctly-classified test mutagen that actually carries the NO2
    // toxicophore (mutagens may carry the NH2 toxicophore instead)
    let target = prep
        .split
        .test
        .iter()
        .copied()
        .find(|&gi| {
            prep.db.truth()[gi] == 1
                && prep.model.predict(prep.db.graph(gi)) == 1
                && matches(&no2, prep.db.graph(gi), opts)
        })
        .expect("a correctly-classified NO2 mutagen exists in the test split");
    let g = prep.db.graph(target);
    println!(
        "\nCase study 1 — explaining mutagen #{target} ({} atoms, {} bonds)\n",
        g.num_nodes(),
        g.num_edges()
    );

    // the N-O "nitro fragment": the toxicophore core. Coverage-style
    // objectives (GVEX's Eq. 2) deduplicate the two chemically identical
    // oxygens — the second O adds no marginal influence once N and one O
    // are selected — while per-node attribution methods (Shapley-style)
    // credit both symmetrically. Reporting both criteria makes that
    // difference visible instead of hiding it.
    let nitro_fragment = {
        let mut b = gvex_graph::Graph::builder(false);
        let n = b.add_node(1, &[]);
        let o = b.add_node(2, &[]);
        b.add_edge(n, o, 0);
        b.build()
    };
    let mut rows = Vec::new();
    for ex in roster(15) {
        let expl = ex.explain(&prep.model, g, 15);
        let sub = expl.subgraph(g);
        let found = matches(&no2, &sub, opts);
        let found_fragment = matches(&nitro_fragment, &sub, opts);
        let atoms: Vec<String> =
            expl.nodes.iter().map(|&v| prep.db.node_types.name(g.node_type(v))).collect();
        println!(
            "{:<14} {:>2} atoms  NO2: {}  N-O: {}  [{}]",
            ex.name(),
            expl.len(),
            if found { "FOUND" } else { "miss " },
            if found_fragment { "FOUND" } else { "miss " },
            atoms.join(" ")
        );
        rows.push(MethodRow {
            method: ex.name().to_string(),
            explanation_nodes: expl.len(),
            found_no2: found,
            found_nitro_fragment: found_fragment,
            atoms,
        });
    }

    // GVEX's two-tier view: show the mined patterns for the mutagen class
    let sess = ExplainSession::new(&prep.model, gvex_config(15)).expect("valid configuration");
    let assigned: Vec<usize> = prep.db.graphs().iter().map(|g| prep.model.predict(g)).collect();
    let groups = prep.db.label_groups(&assigned);
    let mutagen_test: Vec<usize> =
        prep.split.test.iter().copied().filter(|gi| groups.group(1).contains(gi)).collect();
    let view = GreedyStrategy.explain_label_group(&sess, &prep.db, 1, &mutagen_test);
    println!("\nGVEX explanation view for label 'mutagen' ({} subgraphs):", view.subgraphs.len());
    let mut pattern_strs = Vec::new();
    for (i, p) in view.patterns.iter().enumerate() {
        let s = format_pattern(p, &prep.db.node_types);
        let is_no2 = gvex_iso::are_isomorphic(p, &no2);
        println!("  P{i}: {s}{}", if is_no2 { "   <-- the NO2 toxicophore" } else { "" });
        pattern_strs.push(s);
    }
    println!(
        "view: compression {:.3}, edge loss {:.4}, explainability {:.3}",
        view.compression(),
        view.edge_loss,
        view.explainability
    );

    write_json(
        "case_drug_design.json",
        &serde_json::json!({ "methods": rows, "gvex_patterns": pattern_strs,
            "compression": view.compression(), "edge_loss": view.edge_loss }),
    );
}
