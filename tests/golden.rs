//! Golden output digests: one FNV-1a-64 digest per synthetic dataset at
//! small scale over everything a user sees of an explanation run — the
//! serialized view set, a fixed sample of node answers, and the quality
//! metrics (Fidelity±, sparsity, compression, edge loss, bit for bit).
//!
//! A refactor that claims "same behaviour" keeps these constants
//! unchanged; an intended output change appears as a reviewed edit of
//! them. Floating-point kernels may round differently per backend, so the
//! table is chosen by the active `GVEX_BACKEND`.

use gvex::core::{Configuration, ExplainSession, GreedyStrategy, NodeExplanation};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::linalg::backend::{self, BackendKind};

/// Digests under the lane-kernel backend (the default, and `auto`).
const GOLDEN_SIMD: [(&str, u64); 7] = [
    ("MUT", 0x22a8_8698_b4b8_6a7c),
    ("RED", 0xd0b1_27ea_d548_ec83),
    ("ENZ", 0x0d54_9622_8369_8ddd),
    ("MAL", 0x203c_17ca_d1cc_819a),
    ("PCQ", 0x205f_2fde_95bd_1221),
    ("PRO", 0x2dbf_e198_bb4c_045e),
    ("SYN", 0x3c13_ff8a_f237_755d),
];

/// Digests under the scalar reference backend.
const GOLDEN_SCALAR: [(&str, u64); 7] = [
    ("MUT", 0x5e69_06cf_13aa_bd34),
    ("RED", 0x0611_f7af_e0a2_466e),
    ("ENZ", 0xf48c_4aa4_d063_fb76),
    ("MAL", 0x203c_17ca_d1cc_819a),
    ("PCQ", 0x6adb_08f3_b746_14e2),
    ("PRO", 0x952f_ba68_7b63_6bfb),
    ("SYN", 0xd3f3_9647_5c8c_a3df),
];

/// FNV-1a over a byte stream, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed-9 recipe of `determinism.rs`: train, explain every class,
/// answer nodes 0..3 of graph 0, and score the views' subgraphs.
fn digest(kind: DatasetKind) -> u64 {
    let db = kind.generate(Scale::Small, 9);
    let split = Split::paper(&db, 9);
    let gcfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: 8,
        layers: 2,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 8, lr: 0.01, seed: 9, patience: 0, ..Default::default() };
    let (model, _) = train(&db, gcfg, &split, opts);
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 3);
    let session = ExplainSession::new(&model, cfg).expect("valid configuration");

    let views = session.explain(&GreedyStrategy, &db, &labels);
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, serde_json::to_string(&views).unwrap().as_bytes());
    for target in 0..3 {
        let answer = session.explain_node(db.graph(0), target);
        h = fnv1a(h, serde_json::to_string(&answer).unwrap().as_bytes());
    }
    let pairs: Vec<_> = views
        .views
        .iter()
        .flat_map(|v| &v.subgraphs)
        .map(|s| (db.graph(s.graph_index), NodeExplanation::new(s.nodes.clone())))
        .collect();
    let q = gvex::metrics::evaluate(&model, &pairs);
    for x in [
        q.fidelity_plus,
        q.fidelity_minus,
        q.sparsity,
        gvex::metrics::mean_compression(&views.views),
        gvex::metrics::mean_edge_loss(&views.views),
    ] {
        h = fnv1a(h, &x.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn golden_digests_are_unchanged() {
    let kind = backend::active().kind();
    let table = match kind {
        BackendKind::Simd => GOLDEN_SIMD,
        BackendKind::Scalar => GOLDEN_SCALAR,
    };
    let mut drifted = Vec::new();
    for (dataset, (name, expected)) in DatasetKind::all().into_iter().zip(table) {
        assert_eq!(dataset.short_name(), name, "table order follows DatasetKind::all()");
        let got = digest(dataset);
        if got != expected {
            drifted.push(format!("(\"{name}\", 0x{got:016x}),"));
        }
    }
    assert!(
        drifted.is_empty(),
        "golden digests drifted under the {} backend:\n{}",
        kind.name(),
        drifted.join("\n")
    );
}
