//! Contract test across every explainer (GVEX + the four baselines): the
//! shared `Explainer` interface must respect the node budget, be
//! deterministic under a fixed seed, and produce valid node ids — the
//! assumptions the metric and benchmark layers rely on.

use gvex::baselines::{GStarX, GcfExplainer, GnnExplainer, SubgraphX};
use gvex::core::{Configuration, Explainer, GreedyStrategy, GvexExplainer, StreamStrategy};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::graph::GraphDatabase;
use gvex::metrics::{evaluate, fidelity_plus};

fn trained() -> (GraphDatabase, gvex::gnn::GcnModel, Split) {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
    let split = Split::paper(&db, 42);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 100, lr: 0.01, seed: 42, patience: 0, ..Default::default() };
    let (model, _) = train(&db, cfg, &split, opts);
    (db, model, split)
}

fn roster() -> Vec<Box<dyn Explainer>> {
    let cfg = Configuration::paper_mut(10);
    vec![
        Box::new(GvexExplainer::new(GreedyStrategy, cfg.clone())),
        Box::new(GvexExplainer::new(StreamStrategy, cfg)),
        Box::new(GnnExplainer { epochs: 20, ..Default::default() }),
        Box::new(SubgraphX { iterations: 10, shapley_samples: 5, ..Default::default() }),
        Box::new(GStarX { samples_per_node: 6, ..Default::default() }),
        Box::new(GcfExplainer::default()),
    ]
}

#[test]
fn budget_and_validity() {
    let (db, model, split) = trained();
    for ex in roster() {
        for &gi in split.test.iter().take(3) {
            let g = db.graph(gi);
            for budget in [1usize, 5, 50] {
                let e = ex.explain(&model, g, budget);
                assert!(
                    e.len() <= budget.min(g.num_nodes()),
                    "{} exceeded budget {budget} on graph {gi}",
                    ex.name()
                );
                assert!(
                    e.nodes.iter().all(|&v| v < g.num_nodes()),
                    "{} produced invalid ids",
                    ex.name()
                );
                // sorted + deduped per NodeExplanation contract
                let mut sorted = e.nodes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, e.nodes);
            }
        }
    }
}

#[test]
fn determinism_under_fixed_seed() {
    let (db, model, split) = trained();
    let gi = split.test[0];
    let g = db.graph(gi);
    for ex in roster() {
        let a = ex.explain(&model, g, 8);
        let b = ex.explain(&model, g, 8);
        assert_eq!(a, b, "{} is nondeterministic", ex.name());
    }
}

#[test]
fn zero_budget_yields_empty() {
    let (db, model, split) = trained();
    let g = db.graph(split.test[0]);
    for ex in roster() {
        assert!(ex.explain(&model, g, 0).is_empty(), "{} ignored zero budget", ex.name());
    }
}

#[test]
fn metrics_pipeline_accepts_all_methods() {
    let (db, model, split) = trained();
    for ex in roster() {
        let pairs: Vec<_> = split
            .test
            .iter()
            .take(3)
            .map(|&gi| {
                let g = db.graph(gi);
                (g, ex.explain(&model, g, 8))
            })
            .collect();
        let q = evaluate(&model, &pairs);
        assert_eq!(q.count, 3);
        assert!(q.sparsity >= 0.0 && q.sparsity <= 1.0, "{} sparsity {}", ex.name(), q.sparsity);
        assert!(q.fidelity_plus.is_finite() && q.fidelity_minus.is_finite());
        // per-graph fidelity bounded by probability range
        for (g, e) in &pairs {
            let f = fidelity_plus(&model, g, e);
            assert!((-1.0..=1.0).contains(&f));
        }
    }
}
