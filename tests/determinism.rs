//! Thread-count determinism of the parallel explain pipeline.
//!
//! The fan-out across a label group's graphs (`gvex_core::parallel`, the
//! one module that fans out) gives every output exactly one writer with a
//! fixed accumulation order. These tests pin the consequence: the
//! explanation views (and the realized influence matrix underneath them)
//! are **bitwise identical** whether the pipeline runs in a 1-thread or a
//! 4-thread pool. The explain checks run on a database whose label groups
//! clear the fan-out threshold, so the 4-thread runs do fan out on
//! multi-core hardware (`tests/explain_fanout.rs` counts it).

use gvex::core::{
    Configuration, ExplainSession, ExplanationViewSet, GreedyStrategy, SelectionStrategy,
    StreamStrategy,
};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::{Graph, GraphDatabase};
use gvex::store::{write_store, BuildInput, Store};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn motif_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
    let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.add_edge(chain - 1, m1, 0);
    b.add_edge(m1, m2, 0);
    b.build()
}

fn plain_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.build()
}

fn toy_database() -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for i in 0..6 {
        db.push(plain_graph(5 + i % 3), 0);
        db.push(motif_graph(4 + i % 3), 1);
    }
    db
}

/// 4 + 4 graphs of 42 nodes: every split into assigned-label groups leaves
/// a group whose explain estimate clears `gvex_core::parallel::PAR_THRESHOLD`.
fn fanout_database() -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for _ in 0..4 {
        db.push(plain_graph(42), 0);
        db.push(motif_graph(40), 1);
    }
    db
}

fn trained(db: &GraphDatabase) -> GcnModel {
    let split =
        Split { train: (0..db.len()).collect(), val: (0..db.len()).collect(), test: vec![] };
    let gcfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
    let opts = TrainOptions { epochs: 40, lr: 0.01, seed: 1, patience: 0, ..Default::default() };
    train(db, gcfg, &split, opts).0
}

const STRATEGIES: [&dyn SelectionStrategy; 2] = [&GreedyStrategy, &StreamStrategy];

/// Views through the driver of a fresh session inside a pool of `threads`
/// workers, so every call recomputes from cold caches.
fn explain_cold(
    strategy: &dyn SelectionStrategy,
    model: &GcnModel,
    db: &GraphDatabase,
    labels: &[usize],
    cfg: &Configuration,
    threads: usize,
) -> String {
    let sess = ExplainSession::new(model, cfg.clone()).expect("valid configuration");
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
    let views: ExplanationViewSet = pool.install(|| sess.explain(strategy, db, labels));
    serde_json::to_string(&views).expect("serializable views")
}

#[test]
fn explain_database_identical_across_thread_counts() {
    let db = fanout_database();
    let model = trained(&db);
    let labels = vec![0usize, 1];
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
    for strategy in STRATEGIES {
        let serial = explain_cold(strategy, &model, &db, &labels, &cfg, 1);
        let parallel = explain_cold(strategy, &model, &db, &labels, &cfg, 4);
        assert_eq!(serial, parallel, "{}: views depend on thread count", strategy.name());
    }
}

/// Observation must never perturb the computation it measures: with spans,
/// counters, and histograms recording, the explanation views stay bitwise
/// identical to the unobserved baseline at both thread counts.
#[test]
fn explain_database_identical_with_observation_enabled() {
    let db = fanout_database();
    let model = trained(&db);
    let labels = vec![0usize, 1];
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);

    let baselines: Vec<String> =
        STRATEGIES.iter().map(|&s| explain_cold(s, &model, &db, &labels, &cfg, 1)).collect();

    // Only ever *enable* — the toggle is process-global and other tests in
    // this binary run concurrently with observation assumed off-or-on. The
    // trace ring records alongside: every span drop appends a begin/end
    // pair, and that too must leave the views untouched.
    gvex::obs::set_enabled(true);
    gvex::obs::trace::force_active(true);
    for (strategy, baseline) in STRATEGIES.into_iter().zip(&baselines) {
        let name = strategy.name();
        let observed_1 = explain_cold(strategy, &model, &db, &labels, &cfg, 1);
        let observed_4 = explain_cold(strategy, &model, &db, &labels, &cfg, 4);
        assert_eq!(baseline, &observed_1, "{name}: observation perturbed the serial pipeline");
        assert_eq!(baseline, &observed_4, "{name}: observation perturbed the parallel pipeline");
    }
    if gvex::obs::enabled() {
        // With the `obs` feature compiled in, the run must also have
        // recorded the pipeline. (No open-span assertion here: sibling
        // tests run concurrently and may legitimately hold spans open.)
        let spans = gvex::obs::span::snapshot();
        assert!(
            spans.iter().any(|s| s.path.starts_with("explain_db")),
            "no explain_db span recorded: {spans:?}"
        );
        // Every observed run was inside a `session.explain` request scope,
        // so the request registry attributes the work (counts, spans,
        // counters).
        let requests = gvex::obs::context::snapshot();
        let explain = requests
            .iter()
            .find(|r| r.name == "session.explain")
            .expect("session.explain request recorded");
        assert!(explain.count >= 4, "all four observed runs counted: {}", explain.count);
        assert!(explain.total_ns > 0);
        assert!(
            explain.spans.iter().any(|(path, _, _)| path.starts_with("explain_db")),
            "explain_db attributed to the request: {:?}",
            explain.spans
        );
        // The ring recorded the observed runs. (The strict matched-pair
        // assertion lives in `tests/obs_trace.rs` — its own process — and
        // in ci.sh's flushed-file check: here sibling tests may have pairs
        // mid-write while we snapshot, so only coarse balance is stable.)
        let events = gvex::obs::trace::events();
        assert!(!events.is_empty(), "trace ring recorded the observed runs");
        let begins = events.iter().filter(|e| e.begin).count() as i64;
        let ends = events.len() as i64 - begins;
        assert!((begins - ends).abs() <= 64, "ring wildly unbalanced: {begins} B vs {ends} E");
        assert_eq!(gvex::obs::trace::dropped() % 2, 0, "drops are counted in pairs");
    }
}

/// The batched engine under observation: mini-batch training and batched
/// database classification must be bitwise identical with spans, counters,
/// and histograms (including the per-epoch wall-clock histogram) recording.
#[test]
fn batched_execution_identical_with_observation_enabled() {
    let db = toy_database();
    let split =
        Split { train: (0..db.len()).collect(), val: (0..db.len()).collect(), test: vec![] };
    let gcfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
    let opts = TrainOptions { epochs: 40, lr: 0.01, seed: 1, patience: 0, batch_size: 4 };

    let (baseline_model, baseline_report) = train(&db, gcfg, &split, opts);
    let baseline_labels = baseline_model.classify_database(&db, 0);

    // Only ever *enable* — the toggle is process-global (see above).
    gvex::obs::set_enabled(true);
    let (observed_model, observed_report) = train(&db, gcfg, &split, opts);
    let observed_labels = observed_model.classify_database(&db, 0);

    assert_eq!(
        baseline_report.epoch_loss, observed_report.epoch_loss,
        "observation perturbed mini-batch training"
    );
    assert_eq!(baseline_labels, observed_labels, "observation perturbed batched inference");
    // chunk size must not change labels either, observed or not
    assert_eq!(observed_labels, observed_model.classify_database(&db, 3));
    if gvex::obs::enabled() {
        let counters = gvex::obs::metrics::counters();
        for name in ["gnn.batch.graphs", "gnn.batch.nodes"] {
            assert!(
                counters.iter().any(|(n, v)| n == name && *v > 0),
                "missing batch counter {name}: {counters:?}"
            );
        }
        assert!(
            gvex::obs::metrics::histograms().iter().any(|(n, _)| n == "gnn.train.epoch_ms"),
            "missing per-epoch wall-clock histogram"
        );
    }
}

/// Round-trip parity through the `.gvex` store: for every synthetic
/// dataset, a database + model written to disk and memory-mapped back must
/// reproduce the in-memory pipeline **bitwise** — the stored views come
/// back byte-identical, re-running the explainer from the store matches at
/// 1 and 4 threads, and every classification agrees both through the
/// materialized database and zero-copy off the mapped columns.
#[test]
fn store_served_explanations_identical_to_in_memory() {
    for kind in DatasetKind::all() {
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

        let mem_json = explain_cold(&GreedyStrategy, &model, &db, &labels, &cfg, 1);

        let path = std::env::temp_dir().join(format!(
            "gvex-det-{}-{}.gvex",
            kind.short_name(),
            std::process::id()
        ));
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: Some(&mem_json),
            dataset: kind.short_name(),
            seed: 9,
            mining: None,
            epoch: 0,
        };
        write_store(&path, &input).expect("store writes");
        let store = Store::open(&path).expect("store reopens");
        let sdb = store.database();
        let smodel = store.model();

        assert_eq!(
            store.views_json(),
            Some(mem_json.as_str()),
            "{}: stored views drifted",
            kind.short_name()
        );
        for threads in [1usize, 4] {
            let served = explain_cold(&GreedyStrategy, &smodel, &sdb, &labels, &cfg, threads);
            assert_eq!(
                mem_json,
                served,
                "{} @ {threads} threads: store-served explanations diverged",
                kind.short_name()
            );
        }

        let mem_labels = model.classify_database(&db, 0);
        assert_eq!(
            mem_labels,
            smodel.classify_database(&sdb, 0),
            "{}: classification diverged through the store",
            kind.short_name()
        );
        for i in 0..db.len() {
            assert_eq!(
                model.predict(db.graph(i)),
                smodel.predict(store.graph(i)),
                "{}: graph {i} prediction diverged zero-copy",
                kind.short_name()
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn realized_jacobian_identical_across_thread_counts() {
    let g = motif_graph(6);
    let model = GcnModel::new(
        GcnConfig { input_dim: 3, hidden: 8, layers: 3, num_classes: 2 },
        &mut ChaCha8Rng::seed_from_u64(11),
    );
    let narrow = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let wide = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let serial = narrow.install(|| gvex::influence::realized(&model, &g));
    let parallel = wide.install(|| gvex::influence::realized(&model, &g));
    assert_eq!(serial, parallel, "realized influence matrix depends on thread count");
}
