//! Parameter study (§6.2, "we vary the parameters … various combinations of
//! (θ, r)" and γ): fidelity response on MUT across the explainability
//! thresholds. The paper's grid search lands on `(θ, r) = (0.08, 0.25)`,
//! `γ = 0.5`; this binary regenerates the sweep those numbers came from.

use gvex_bench::harness::{eval_method, prepare, write_json};
use gvex_core::{Configuration, GreedyStrategy, GvexExplainer};
use gvex_datasets::{DatasetKind, Scale};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct SweepPoint {
    theta: f32,
    r: f32,
    gamma: f32,
    fidelity_plus: f64,
    fidelity_minus: f64,
}

fn main() {
    let prep = prepare(DatasetKind::Mutagenicity, Scale::Bench, 42);
    eprintln!("classifier accuracy {:.3}", prep.accuracy);
    let budget = Duration::from_secs(120);
    let mut points = Vec::new();

    println!("\nFigure 7 — (θ, r) sweep on MUT (γ = 0.5, u_l = 10)\n");
    println!("{:>6} {:>6} {:>8} {:>8}", "theta", "r", "F+", "F-");
    for &theta in &[0.04_f32, 0.08, 0.16, 0.32] {
        for &r in &[0.1_f32, 0.25, 0.5] {
            let mut cfg = Configuration::uniform(theta, r, 0.5, 0, 10);
            cfg.seed = 42;
            let cell = eval_method(&prep, &GvexExplainer::new(GreedyStrategy, cfg), 10, budget);
            println!(
                "{theta:>6.2} {r:>6.2} {:>8.3} {:>8.3}",
                cell.quality.fidelity_plus, cell.quality.fidelity_minus
            );
            points.push(SweepPoint {
                theta,
                r,
                gamma: 0.5,
                fidelity_plus: cell.quality.fidelity_plus,
                fidelity_minus: cell.quality.fidelity_minus,
            });
        }
    }

    println!("\nγ sweep on MUT ((θ, r) = (0.08, 0.25), u_l = 10)\n");
    println!("{:>6} {:>8} {:>8}", "gamma", "F+", "F-");
    for &gamma in &[0.0_f32, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = Configuration::uniform(0.08, 0.25, gamma, 0, 10);
        cfg.seed = 42;
        let cell = eval_method(&prep, &GvexExplainer::new(GreedyStrategy, cfg), 10, budget);
        println!(
            "{gamma:>6.2} {:>8.3} {:>8.3}",
            cell.quality.fidelity_plus, cell.quality.fidelity_minus
        );
        points.push(SweepPoint {
            theta: 0.08,
            r: 0.25,
            gamma,
            fidelity_plus: cell.quality.fidelity_plus,
            fidelity_minus: cell.quality.fidelity_minus,
        });
    }

    write_json("fig7_param_sweep.json", &points);
}
