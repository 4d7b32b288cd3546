//! Criterion micro-benchmarks for GVEX's primitive operators — the cost
//! model terms of Theorem 4.1 (`EVerify` inference, Jacobian precompute,
//! `PMatch` isomorphism, `PGen` mining, `Psum` cover) plus the per-arrival
//! cost of the streaming algorithm, and the DESIGN.md §5 ablation of
//! influence estimation modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvex_core::psum::psum;
use gvex_core::stream::GraphStream;
use gvex_core::{Configuration, ExplainSession};
use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex_graph::{Graph, GraphDatabase};
use gvex_influence::{influence_matrix, InfluenceAnalysis, InfluenceMode};
use gvex_iso::{enumerate, MatchOptions};
use gvex_mining::{pgen, MiningConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn setup() -> (GraphDatabase, GcnModel) {
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
    (db, model)
}

fn bench_inference(c: &mut Criterion) {
    let (db, model) = setup();
    let g = db.graph(0);
    c.bench_function("everify_inference", |b| b.iter(|| black_box(model.predict(black_box(g)))));
}

fn bench_influence_modes(c: &mut Criterion) {
    let (db, model) = setup();
    let g = db.graph(0);
    let mut group = c.benchmark_group("influence_matrix");
    for (name, mode) in [
        ("expected", InfluenceMode::Expected),
        ("realized", InfluenceMode::Realized),
        ("monte_carlo_64", InfluenceMode::MonteCarlo { walks: 64 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            b.iter(|| black_box(influence_matrix(&model, g, mode, &mut rng)))
        });
    }
    group.finish();
}

fn bench_analysis_build(c: &mut Criterion) {
    let (db, model) = setup();
    let g = db.graph(0);
    c.bench_function("influence_analysis_build", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        b.iter(|| {
            black_box(InfluenceAnalysis::new(
                &model,
                g,
                0.08,
                0.25,
                0.5,
                InfluenceMode::Expected,
                &mut rng,
            ))
        })
    });
}

fn bench_vf2(c: &mut Criterion) {
    // a 6-ring pattern inside a 60-node molecule-like target
    let (db, _) = setup();
    let target = db.graph(1);
    let mut b = Graph::builder(false);
    let ring: Vec<usize> = (0..6).map(|_| b.add_node(0, &[])).collect();
    for i in 0..6 {
        b.add_edge(ring[i], ring[(i + 1) % 6], 1);
    }
    let pattern = b.build();
    c.bench_function("vf2_enumerate_ring", |b| {
        b.iter(|| {
            black_box(enumerate(
                &pattern,
                target,
                MatchOptions { induced: true, max_embeddings: 1000 },
            ))
        })
    });
}

fn bench_pgen_and_psum(c: &mut Criterion) {
    let (db, model) = setup();
    // explanation-sized subgraphs: top-8 nodes of three molecules
    let subs: Vec<Graph> = (0..3)
        .map(|i| {
            let g = db.graph(i);
            let nodes: Vec<usize> = (0..g.num_nodes().min(8)).collect();
            g.induced_subgraph(&nodes).graph
        })
        .collect();
    let refs: Vec<&Graph> = subs.iter().collect();
    let mining = MiningConfig::default();
    c.bench_function("pgen_three_subgraphs", |b| b.iter(|| black_box(pgen(&refs, &mining))));
    c.bench_function("psum_three_subgraphs", |b| {
        b.iter(|| black_box(psum(&refs, &mining, MatchOptions::default())))
    });
    let _ = model;
}

fn bench_stream_arrival(c: &mut Criterion) {
    let (db, model) = setup();
    let g = db.graph(0);
    let cfg = Configuration::paper_mut(8);
    c.bench_function("stream_full_graph", |b| {
        b.iter(|| {
            // a fresh session per run: the forward pass stays in the timing
            let sess = ExplainSession::new(&model, cfg.clone()).expect("valid configuration");
            let mut s = GraphStream::with_session(&sess, g, 0);
            for v in 0..g.num_nodes() {
                s.arrive(v);
            }
            black_box(s.current_score())
        })
    });
}

criterion_group!(
    benches,
    bench_inference,
    bench_influence_modes,
    bench_analysis_build,
    bench_vf2,
    bench_pgen_and_psum,
    bench_stream_arrival
);
criterion_main!(benches);
