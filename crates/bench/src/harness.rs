//! Dataset preparation, explainer roster, fidelity grids, and result
//! persistence shared by every experiment binary.

use gvex_baselines::{GStarX, GcfExplainer, GnnExplainer, SubgraphX};
use gvex_core::{
    Configuration, ExplainSession, Explainer, ExplanationViewSet, GreedyStrategy, GvexExplainer,
    NodeExplanation, StreamStrategy,
};
use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::{
    train,
    trainer::{accuracy, TrainOptions},
    GcnConfig, GcnModel, Split,
};
use gvex_graph::GraphDatabase;
use gvex_metrics::{evaluate, ExplanationQuality};
use gvex_store::{write_store, BuildInput, Store};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A dataset with its trained classifier, ready for explanation runs.
pub struct Prepared {
    /// Which dataset this is.
    pub kind: DatasetKind,
    /// The generated database.
    pub db: GraphDatabase,
    /// The trained GCN.
    pub model: GcnModel,
    /// Train/val/test split (explanations run on `split.test`, §6.1).
    pub split: Split,
    /// Classifier accuracy over the whole database.
    pub accuracy: f32,
}

/// Per-dataset training hyperparameters that reach high accuracy on the
/// synthetic stand-ins (validated by `tests/train_all_datasets.rs`).
fn train_options(kind: DatasetKind) -> (TrainOptions, usize) {
    let (epochs, lr, hidden) = match kind {
        DatasetKind::Synthetic => (300, 0.005, 16),
        DatasetKind::Enzymes => (200, 0.01, 16),
        DatasetKind::Products => (150, 0.01, 16),
        DatasetKind::MalnetTiny => (150, 0.01, 16),
        _ => (150, 0.01, 16),
    };
    (TrainOptions { epochs, lr, seed: 42, patience: 0, ..Default::default() }, hidden)
}

/// Generates `kind` at `scale` and trains the classifier.
pub fn prepare(kind: DatasetKind, scale: Scale, seed: u64) -> Prepared {
    gvex_obs::span!("bench.prepare");
    let db = kind.generate(scale, seed);
    let split = Split::paper(&db, seed);
    let (opts, hidden) = train_options(kind);
    let cfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let (model, _) = train(&db, cfg, &split, opts);
    let all: Vec<usize> = (0..db.len()).collect();
    let acc = accuracy(&model, &db, &all);
    Prepared { kind, db, model, split, accuracy: acc }
}

/// Everything a cold start must redo when no `.gvex` database exists:
/// generate the dataset, train the classifier, and mine the explanation
/// views for every class (in a one-worker pool, the sequential reference).
pub fn prepare_with_views(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    upper: usize,
) -> (Prepared, ExplanationViewSet) {
    let prep = prepare(kind, scale, seed);
    let labels: Vec<usize> = (0..prep.db.num_classes()).collect();
    let sess = ExplainSession::new(&prep.model, gvex_config(upper)).expect("valid configuration");
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool builds");
    let views = pool.install(|| sess.explain(&GreedyStrategy, &prep.db, &labels));
    (prep, views)
}

/// Packs a prepared dataset, its trained classifier, and mined views into a
/// `.gvex` store at `path`. Returns the file length in bytes.
pub fn write_store_file(
    prep: &Prepared,
    views: &ExplanationViewSet,
    seed: u64,
    upper: usize,
    path: &Path,
) -> u64 {
    let json = views.to_json();
    let input = BuildInput {
        db: &prep.db,
        model: &prep.model,
        views_json: Some(&json),
        dataset: prep.kind.short_name(),
        seed,
        mining: Some(gvex_config(upper).mining),
        epoch: 0,
    };
    write_store(path, &input).unwrap_or_else(|e| panic!("write store {}: {e}", path.display()))
}

/// Warm start: reopens a `.gvex` store and rebuilds a [`Prepared`] (owned
/// database, deserialized model, split re-derived from the stored seed)
/// plus the stored view set. The owned copies make the result a drop-in
/// replacement for [`prepare`]; benches that want the zero-copy serve path
/// should hold the [`Store`] itself instead.
pub fn prepare_from_store(path: &Path) -> (Prepared, Option<ExplanationViewSet>) {
    gvex_obs::span!("bench.prepare_from_store");
    let store = Store::open(path).unwrap_or_else(|e| panic!("open store {}: {e}", path.display()));
    let kind = DatasetKind::from_short_name(&store.meta().dataset)
        .unwrap_or_else(|| panic!("unknown dataset {:?} in store", store.meta().dataset));
    let seed = store.meta().seed;
    let db = store.database();
    let model = store.model();
    let views =
        store.views_json().map(|s| ExplanationViewSet::from_json(s).expect("stored views decode"));
    let split = Split::paper(&db, seed);
    let all: Vec<usize> = (0..db.len()).collect();
    let acc = accuracy(&model, &db, &all);
    (Prepared { kind, db, model, split, accuracy: acc }, views)
}

/// The GVEX configuration used across experiments: the paper's MUT optimum
/// `(θ, r) = (0.08, 0.25)`, `γ = 0.5` (§6.2) with bound `[0, upper]`.
pub fn gvex_config(upper: usize) -> Configuration {
    Configuration::paper_mut(upper)
}

/// The six compared methods, in the paper's order: AG, SG, GE, SX, GX, GCF —
/// each at its reference implementation's default search budget.
pub fn roster(upper: usize) -> Vec<Box<dyn Explainer>> {
    vec![
        Box::new(GvexExplainer::new(GreedyStrategy, gvex_config(upper))),
        Box::new(GvexExplainer::new(StreamStrategy, gvex_config(upper))),
        Box::new(GnnExplainer::default()),
        Box::new(SubgraphX::default()),
        Box::new(GStarX::default()),
        Box::new(GcfExplainer::default()),
    ]
}

/// One cell of the fidelity grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridCell {
    /// Dataset abbreviation (MUT, ENZ, …).
    pub dataset: String,
    /// Explainer name.
    pub method: String,
    /// Upper coverage bound `u_l` (the explanation-size knob).
    pub u_l: usize,
    /// Aggregated quality over the test split.
    pub quality: ExplanationQuality,
    /// Wall-clock seconds for the whole test split.
    pub seconds: f64,
    /// Whether the method exceeded its per-dataset budget (the paper's
    /// "> 24 hours" marker, scaled down).
    pub timed_out: bool,
}

/// Evaluates one explainer over the test split at one budget.
pub fn eval_method(prep: &Prepared, ex: &dyn Explainer, u_l: usize, budget: Duration) -> GridCell {
    gvex_obs::span!("bench.eval_method");
    let start = Instant::now();
    let mut pairs: Vec<(&gvex_graph::Graph, NodeExplanation)> = Vec::new();
    let mut timed_out = false;
    for &gi in &prep.split.test {
        if start.elapsed() > budget {
            timed_out = true;
            break;
        }
        let g = prep.db.graph(gi);
        if g.num_nodes() == 0 {
            continue;
        }
        pairs.push((g, ex.explain(&prep.model, g, u_l)));
    }
    let seconds = start.elapsed().as_secs_f64();
    let quality = evaluate(&prep.model, &pairs);
    GridCell {
        dataset: prep.kind.short_name().to_string(),
        method: ex.name().to_string(),
        u_l,
        quality,
        seconds,
        timed_out,
    }
}

/// The full fidelity grid of Figs. 5, 6, 8(a), 9(a–c): datasets × methods ×
/// `u_l` values. Expensive — cached on disk keyed by the scale.
pub fn fidelity_grid(
    datasets: &[DatasetKind],
    uls: &[usize],
    scale: Scale,
    budget: Duration,
) -> Vec<GridCell> {
    let cache = result_path(&format!("_cache_fidelity_grid_{scale:?}.json"));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Ok(cells) = serde_json::from_str::<Vec<GridCell>>(&text) {
            eprintln!("[harness] loaded cached grid from {}", cache.display());
            return cells;
        }
    }
    let mut cells = Vec::new();
    for &kind in datasets {
        eprintln!("[harness] preparing {} ...", kind.short_name());
        let prep = prepare(kind, scale, 42);
        eprintln!("[harness]   classifier accuracy {:.3}", prep.accuracy);
        for &u in uls {
            for ex in roster(u) {
                let cell = eval_method(&prep, ex.as_ref(), u, budget);
                eprintln!(
                    "[harness]   {} u_l={} F+={:.3} F-={:.3} sparsity={:.3} ({:.2}s{})",
                    cell.method,
                    u,
                    cell.quality.fidelity_plus,
                    cell.quality.fidelity_minus,
                    cell.quality.sparsity,
                    cell.seconds,
                    if cell.timed_out { ", TIMEOUT" } else { "" }
                );
                cells.push(cell);
            }
        }
    }
    write_json(&format!("_cache_fidelity_grid_{scale:?}.json"), &cells);
    cells
}

/// Workspace-level `results/` path for an artifact.
pub fn result_path(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("results");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// Serializes `value` to `results/<name>` as pretty JSON.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = result_path(name);
    let text = serde_json::to_string_pretty(value).expect("serializable result");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[harness] wrote {}", path.display());
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Human-readable one-line rendering of a pattern graph for case studies:
/// `"N-O, N-O"` style edge list (or a bare node-type list when edgeless).
pub fn format_pattern(p: &gvex_graph::Graph, reg: &gvex_graph::TypeRegistry) -> String {
    if p.num_edges() == 0 {
        return (0..p.num_nodes()).map(|v| reg.name(p.node_type(v))).collect::<Vec<_>>().join(", ");
    }
    p.edges()
        .map(|(u, v, _)| format!("{}-{}", reg.name(p.node_type(u)), reg.name(p.node_type(v))))
        .collect::<Vec<_>>()
        .join(", ")
}
