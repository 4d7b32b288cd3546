//! Ablation (DESIGN.md §5): the influence-estimation mode behind `EVerify`.
//!
//! Compares the expected-Jacobian default against the realized Jacobian and
//! the Monte-Carlo walk surrogate on MUT: explanation fidelity and per-graph
//! analysis cost. The paper's choice (expected Jacobian ≅ k-step walks) is
//! justified if fidelity matches the exact mode at a fraction of its cost.

use gvex_bench::harness::{eval_method, prepare, timed, write_json};
use gvex_core::{Configuration, GreedyStrategy, GvexExplainer};
use gvex_datasets::{DatasetKind, Scale};
use gvex_influence::{InfluenceAnalysis, InfluenceMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    mode: String,
    fidelity_plus: f64,
    fidelity_minus: f64,
    sparsity: f64,
    explain_seconds: f64,
    analysis_seconds_per_graph: f64,
}

fn main() {
    let prep = prepare(DatasetKind::Mutagenicity, Scale::Bench, 42);
    eprintln!("classifier accuracy {:.3}", prep.accuracy);
    let modes = [
        ("expected", InfluenceMode::Expected),
        ("realized", InfluenceMode::Realized),
        ("monte_carlo_128", InfluenceMode::MonteCarlo { walks: 128 }),
    ];
    let mut rows = Vec::new();

    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>10} {:>12}",
        "mode", "F+", "F-", "sparsity", "explain(s)", "analysis(ms)"
    );
    for (name, mode) in modes {
        let cfg = Configuration::paper_mut(10).with_influence(mode);
        let cell = eval_method(
            &prep,
            &GvexExplainer::new(GreedyStrategy, cfg),
            10,
            Duration::from_secs(300),
        );

        // isolate the per-graph analysis cost
        let g = prep.db.graph(prep.split.test[0]);
        let (_, analysis_secs) = timed(|| {
            for _ in 0..5 {
                let _ = InfluenceAnalysis::new(
                    &prep.model,
                    g,
                    0.08,
                    0.25,
                    0.5,
                    mode,
                    &mut ChaCha8Rng::seed_from_u64(0),
                );
            }
        });
        let per_graph_ms = analysis_secs / 5.0 * 1000.0;
        println!(
            "{name:<16} {:>8.3} {:>8.3} {:>9.3} {:>10.3} {:>12.3}",
            cell.quality.fidelity_plus,
            cell.quality.fidelity_minus,
            cell.quality.sparsity,
            cell.seconds,
            per_graph_ms
        );
        rows.push(Row {
            mode: name.to_string(),
            fidelity_plus: cell.quality.fidelity_plus,
            fidelity_minus: cell.quality.fidelity_minus,
            sparsity: cell.quality.sparsity,
            explain_seconds: cell.seconds,
            analysis_seconds_per_graph: per_graph_ms / 1000.0,
        });
    }
    write_json("ablation_influence.json", &rows);
}
