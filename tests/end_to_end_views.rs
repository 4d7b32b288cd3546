//! End-to-end pipeline test: generate → train → explain → verify.
//!
//! This is the repository's "does the paper's loop actually close" test:
//! the views produced by ApproxGVEX must satisfy the graph-view (C1) and
//! coverage (C3) constraints of the view-verification problem, the planted
//! toxicophore must be recoverable, and the two-tier structure must
//! compress.

use gvex::core::{
    verify_view, Configuration, ExplainSession, ExplanationViewSet, GreedyStrategy,
    SelectionStrategy,
};
use gvex::datasets::molecules::no2_pattern;
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::GraphDatabase;
use gvex::iso::{matches, MatchOptions};

fn trained_mut() -> (GraphDatabase, gvex::gnn::GcnModel, Split) {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
    let split = Split::paper(&db, 42);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 120, lr: 0.01, seed: 42, patience: 0, ..Default::default() };
    let (model, _) = train(&db, cfg, &split, opts);
    (db, model, split)
}

/// A session under the paper's MUT configuration with bound `[0, upper]`.
fn session(model: &GcnModel, upper: usize) -> ExplainSession<'_> {
    ExplainSession::new(model, Configuration::paper_mut(upper)).expect("valid configuration")
}

/// ApproxGVEX's views for `labels` with bound `[0, upper]`.
fn approx_views(
    model: &GcnModel,
    db: &GraphDatabase,
    upper: usize,
    labels: &[usize],
) -> ExplanationViewSet {
    session(model, upper).explain(&GreedyStrategy, db, labels)
}

#[test]
fn views_satisfy_c1_and_c3() {
    let (db, model, _) = trained_mut();
    let cfg = Configuration::paper_mut(10);
    let set = approx_views(&model, &db, 10, &[0, 1]);
    assert_eq!(set.views.len(), 2);
    for view in &set.views {
        assert!(!view.subgraphs.is_empty(), "label {} got no subgraphs", view.label);
        let report = verify_view(&model, &db, view, &cfg);
        assert!(report.is_graph_view, "C1 violated for label {}", view.label);
        assert!(report.properly_covers, "C3 violated for label {}", view.label);
    }
}

#[test]
fn most_mutagen_subgraphs_are_consistent_and_counterfactual() {
    // Counterfactuality is only structurally achievable for the class whose
    // evidence can be *removed*: deleting atoms can destroy a toxicophore
    // (mutagen → nonmutagen) but cannot create one (nonmutagen stays
    // nonmutagen). The paper accordingly generates explanations "for one
    // label of user's interest" (§6.2) — here, the mutagen class.
    let (db, model, _) = trained_mut();
    let set = approx_views(&model, &db, 10, &[1]);
    let view = &set.views[0];
    let total = view.subgraphs.len();
    let valid = view.subgraphs.iter().filter(|s| s.is_valid_explanation()).count();
    assert!(total > 0);
    assert!(
        valid * 2 >= total,
        "only {valid}/{total} mutagen subgraphs satisfy both §2.2 properties"
    );
    // the nonmutagen view must still be *consistent* on a majority
    let set0 = approx_views(&model, &db, 10, &[0]);
    let view0 = &set0.views[0];
    let consistent = view0.subgraphs.iter().filter(|s| s.consistent).count();
    assert!(
        consistent * 2 >= view0.subgraphs.len(),
        "only {consistent}/{} nonmutagen subgraphs are consistent",
        view0.subgraphs.len()
    );
}

#[test]
fn mutagen_view_recovers_toxicophore() {
    let (db, model, _) = trained_mut();
    let set = approx_views(&model, &db, 10, &[1]);
    let view = &set.views[0];
    let no2 = no2_pattern();
    let opts = MatchOptions { induced: false, max_embeddings: 100 };
    // the NO2 motif must appear either inside some explanation subgraph or
    // as (part of) a mined pattern
    let in_sub = view.subgraphs.iter().any(|s| matches(&no2, &s.subgraph, opts));
    let in_pat = view.patterns.iter().any(|p| matches(&no2, p, opts));
    assert!(in_sub || in_pat, "NO2 toxicophore not recovered by the mutagen view");
}

#[test]
fn two_tier_structure_compresses() {
    let (db, model, _) = trained_mut();
    let set = approx_views(&model, &db, 10, &[0, 1]);
    for view in &set.views {
        assert!(
            view.compression() > 0.0,
            "patterns should be smaller than the subgraphs they summarize (label {})",
            view.label
        );
        assert!(view.edge_loss >= 0.0 && view.edge_loss <= 1.0);
    }
}

#[test]
fn objective_is_sum_of_view_explainabilities() {
    let (db, model, _) = trained_mut();
    let set = approx_views(&model, &db, 8, &[0, 1]);
    let manual: f64 = set.views.iter().map(|v| v.explainability).sum();
    assert!((set.total_explainability() - manual).abs() < 1e-12);
    assert!(manual > 0.0);
}

#[test]
fn tighter_upper_bound_gives_smaller_subgraphs() {
    let (db, model, split) = trained_mut();
    let gi = split.test[0];
    let size = |upper: usize| {
        GreedyStrategy
            .explain_graph(&session(&model, upper), db.graph(gi), gi)
            .map(|s| s.len())
            .unwrap_or(0)
    };
    let (small, large) = (size(4), size(16));
    assert!(small <= 4);
    assert!(large <= 16);
    assert!(small <= large);
}
