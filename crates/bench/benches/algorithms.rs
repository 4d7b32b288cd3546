//! Criterion benchmarks of the end-to-end explanation algorithms: one
//! ApproxGVEX / StreamGVEX run per graph, and the baseline explainers at the
//! same node budget — the microscopic counterpart of Fig. 9(a,b).

use criterion::{criterion_group, criterion_main, Criterion};
use gvex_baselines::{GStarX, GcfExplainer, GnnExplainer, SubgraphX};
use gvex_core::{Configuration, Explainer, GreedyStrategy, GvexExplainer, StreamStrategy};
use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex_graph::GraphDatabase;
use std::hint::black_box;

fn setup() -> (GraphDatabase, GcnModel, usize) {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
    let split = Split::paper(&db, 42);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 40, lr: 0.01, seed: 42, patience: 0, ..Default::default() };
    let (model, _) = train(&db, cfg, &split, opts);
    let gi = split.test[0];
    (db, model, gi)
}

fn bench_explainers(c: &mut Criterion) {
    let (db, model, gi) = setup();
    let g = db.graph(gi);
    let cfg = Configuration::paper_mut(8);

    let mut group = c.benchmark_group("explain_one_graph");
    group.sample_size(10);
    let methods: Vec<Box<dyn Explainer>> = vec![
        Box::new(GvexExplainer::new(GreedyStrategy, cfg.clone())),
        Box::new(GvexExplainer::new(StreamStrategy, cfg)),
        Box::new(GnnExplainer { epochs: 30, ..Default::default() }),
        Box::new(SubgraphX { iterations: 15, shapley_samples: 5, ..Default::default() }),
        Box::new(GStarX { samples_per_node: 8, ..Default::default() }),
        Box::new(GcfExplainer::default()),
    ];
    for ex in &methods {
        group.bench_function(ex.name(), |b| b.iter(|| black_box(ex.explain(&model, g, 8))));
    }
    group.finish();
}

criterion_group!(benches, bench_explainers);
criterion_main!(benches);
