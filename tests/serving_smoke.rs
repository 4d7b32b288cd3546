//! Smoke of the serving stack on a small MUT database: live ingest with
//! incremental view maintenance, an epoch snapshot through the `.gvex`
//! store, and the daemon answering, caching, and committing a mutation.
//! The full suites (serve e2e, ingest differential) run under ci.sh; this
//! keeps one path through each in Tier-1.

use gvex::core::{Configuration, ExplainSession, GreedyStrategy};
use gvex::datasets::{DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex::ingest::{check_equivalent, generate, to_jsonl, GenProfile, IngestEngine};
use gvex::serve::{answer, Client, Request, ServeState, Server, ServerConfig};

#[test]
fn ingest_snapshot_and_daemon_round_trip() {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 9);
    let split = Split::paper(&db, 9);
    let gcfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: 8,
        layers: 2,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 8, lr: 0.01, seed: 9, patience: 0, ..Default::default() };
    let (model, _) = train(&db, gcfg, &split, opts);
    let cfg = Configuration::paper_mut(4);
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let views = ExplainSession::new(&model, cfg.clone()).expect("valid configuration").explain(
        &GreedyStrategy,
        &db,
        &labels,
    );

    // 16 localized mutations, an epoch every 4; the 17th goes to the daemon
    let muts = generate(&db, 17, 9, GenProfile::Localized);
    assert_eq!(muts.len(), 17);
    let mut engine = IngestEngine::new("MUT", 9, db, model, cfg, views, 0).expect("engine starts");
    for (i, m) in muts[..16].iter().enumerate() {
        engine.apply(&m.parse().expect("generated mutation parses")).expect("mutation applies");
        if (i + 1) % 4 == 0 {
            engine.publish_epoch();
        }
    }
    assert_eq!(engine.epoch(), 4);
    let full = engine.rebuilt(1);
    let eq = check_equivalent(&engine.views_set(), &full, engine.cfg());
    assert!(eq.ok, "incremental views diverged from a recompute: {}", eq.detail);

    // the snapshot carries the mutated graphs through the store's columns
    let path = std::env::temp_dir().join(format!("gvex-smoke-{}.gvex", std::process::id()));
    engine.snapshot(&path).expect("snapshot writes");
    let from_parts = ServeState::from_parts(
        "MUT",
        engine.db().clone(),
        engine.model().clone(),
        engine.views_set(),
    );
    let opened = ServeState::open(&path).expect("snapshot opens");
    assert_eq!(opened.fingerprint(), from_parts.fingerprint(), "store round trip drifted");

    let classes = opened.db().num_classes();
    let mut server = Server::bind(
        opened,
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..ServerConfig::for_classes(classes) },
    )
    .expect("daemon binds");
    let fresh = ServeState::open(&path).expect("snapshot reopens");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for req in [Request::explain(1, 4, false), Request::node(0, 0, 4), Request::query_label(1)] {
        let first = client.call(&req).expect("first call");
        assert!(first.ok, "{}: {}", req.kind, first.error);
        let second = client.call(&req).expect("second call");
        assert!(second.cached, "{}: repeat answer must come from the cache", req.kind);
        assert_eq!(second.body, first.body, "{}: cached body differs", req.kind);
        assert_eq!(second.body, answer(&fresh, &req).body, "{}: served != in-process", req.kind);
    }

    let commit = Request { upper: Some(4), ..Request::mutate(&to_jsonl(&muts[16..]), true) };
    let resp = client.call(&commit).expect("mutate call");
    assert!(resp.ok, "mutate failed: {}", resp.error);
    assert!(resp.body.contains("\"published\":true"), "{}", resp.body);
    assert_eq!(server.generation(), 1);

    // shutdown returns while the client still holds its idle connection;
    // it runs on a helper thread so a hang fails the test instead of
    // stalling the suite
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).ok();
    });
    let stopped = done_rx.recv_timeout(std::time::Duration::from_secs(10));
    assert!(stopped.is_ok(), "Server::shutdown blocked on a connected idle client");
    stopper.join().expect("shutdown thread panicked");
    drop(client);
    std::fs::remove_file(&path).ok();
}
