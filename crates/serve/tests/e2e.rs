//! End-to-end serving tests: the daemon must answer concurrent traffic
//! byte-for-byte identically to the sequential in-process pipeline, keep
//! the answer cache transparent, survive an in-flight reload, and reject
//! overload instead of queuing without bound.

use gvex_core::{Configuration, ExplainSession, GreedyStrategy};
use gvex_gnn::{trainer, GcnConfig, GcnModel};
use gvex_graph::{Graph, GraphDatabase};
use gvex_ingest::{to_jsonl, IngestEngine, Op};
use gvex_serve::protocol::{read_frame, write_frame};
use gvex_serve::state::DEFAULT_UPPER;
use gvex_serve::{answer, Client, Request, Response, ServeState, Server, ServerConfig};
use gvex_store::{write_store, BuildInput};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn motif_db() -> GraphDatabase {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for i in 0..6 {
        let mut b = Graph::builder(false);
        for _ in 0..5 + (i % 2) {
            b.add_node(0, &[1.0, 0.0, 0.0]);
        }
        for v in 1..b.num_nodes() {
            b.add_edge(v - 1, v, 0);
        }
        db.push(b.build(), 0);
        let mut b = Graph::builder(false);
        for _ in 0..4 {
            b.add_node(0, &[1.0, 0.0, 0.0]);
        }
        let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
        let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
        for v in 1..4 {
            b.add_edge(v - 1, v, 0);
        }
        b.add_edge(3, m1, 0);
        b.add_edge(m1, m2, 0);
        db.push(b.build(), 1);
    }
    db
}

fn trained(db: &GraphDatabase) -> GcnModel {
    let split = trainer::Split {
        train: (0..db.len()).collect(),
        val: (0..db.len()).collect(),
        test: vec![],
    };
    let cfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
    let opts =
        trainer::TrainOptions { epochs: 60, lr: 0.01, seed: 1, patience: 0, ..Default::default() };
    trainer::train(db, cfg, &split, opts).0
}

/// The `gvex serve` defaults for the two-class motif database.
fn serve_defaults() -> ServerConfig {
    ServerConfig::for_classes(2)
}

/// A state over the motif database with views mined exactly the way
/// `gvex db build --upper 4` would mine them.
fn motif_state() -> ServeState {
    let db = motif_db();
    let model = trained(&db);
    let views = {
        let session = ExplainSession::new(&model, Configuration::paper_mut(4)).unwrap();
        session.explain(&GreedyStrategy, &db, &[0, 1])
    };
    ServeState::from_parts("MOTIF", db, model, views)
}

/// The request mix every test serves: both explain classes, node
/// explanations, label + discriminative queries, stats.
fn workload() -> Vec<Request> {
    let mut reqs = vec![
        Request::stats(),
        Request::explain(0, 4, false),
        Request::explain(1, 4, false),
        Request::query_label(0),
        Request::query_label(1),
        Request { discriminative: Some(1), ..Request::query_label(1) },
        Request::node(1, 4, 4),
        Request::node(1, 5, 4),
        Request::node(3, 4, 4),
    ];
    // repeat the hot subset so the cache sees reuse
    reqs.push(Request::explain(1, 4, false));
    reqs.push(Request::query_label(0));
    reqs
}

/// Sequential ground truth: every request answered in-process, no server,
/// no cache.
fn sequential_bodies(state: &ServeState, reqs: &[Request]) -> Vec<String> {
    reqs.iter()
        .map(|r| {
            let resp = answer(state, r);
            assert!(resp.ok, "sequential answer failed: {}", resp.error);
            resp.body
        })
        .collect()
}

#[test]
fn served_answers_match_sequential_pipeline_at_1_and_4_workers() {
    let reqs = workload();
    let expected = sequential_bodies(&motif_state(), &reqs);
    for workers in [1usize, 4] {
        let server = Server::bind(
            motif_state(),
            "127.0.0.1:0",
            ServerConfig { workers, ..serve_defaults() },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for (req, want) in reqs.iter().zip(&expected) {
            let resp = client.call(req).unwrap();
            assert!(resp.ok, "serve failed at {workers} workers: {}", resp.error);
            assert_eq!(&resp.body, want, "body diverged at {workers} workers for {:?}", req.kind);
        }
    }
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers() {
    let reqs = workload();
    let expected = Arc::new(sequential_bodies(&motif_state(), &reqs));
    let reqs = Arc::new(reqs);
    for workers in [1usize, 4] {
        let server = Server::bind(
            motif_state(),
            "127.0.0.1:0",
            ServerConfig { workers, ..serve_defaults() },
        )
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let reqs = Arc::clone(&reqs);
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // each client walks the workload at a different phase so
                    // cache hits and misses interleave across clients
                    for i in 0..reqs.len() {
                        let at = (i + c) % reqs.len();
                        let resp = client.call(&reqs[at]).unwrap();
                        assert!(resp.ok, "client {c} failed: {}", resp.error);
                        assert_eq!(
                            resp.body, expected[at],
                            "client {c} got a divergent body at {workers} workers"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.cache_stats();
        assert!(stats.hits > 0, "concurrent repeat traffic never hit the cache");
    }
}

#[test]
fn cache_hits_are_transparent_and_flagged() {
    let server = Server::bind(motif_state(), "127.0.0.1:0", serve_defaults()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = Request::explain(1, 4, false);
    let first = client.call(&req).unwrap();
    let second = client.call(&req).unwrap();
    assert!(first.ok && second.ok);
    assert!(!first.cached, "first answer must be computed");
    assert!(second.cached, "second identical request must hit the cache");
    assert_eq!(first.body, second.body, "cache changed the bytes");
    // ping and stats bypass the cache
    let p1 = client.call(&Request::ping()).unwrap();
    let p2 = client.call(&Request::ping()).unwrap();
    assert!(!p1.cached && !p2.cached);
}

#[test]
fn default_upper_shares_the_cache_entry_of_the_explicit_default() {
    let server = Server::bind(motif_state(), "127.0.0.1:0", serve_defaults()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let explicit = Request::explain(1, DEFAULT_UPPER, false);
    let absent = Request { upper: None, ..explicit.clone() };
    let first = client.call(&absent).unwrap();
    let second = client.call(&explicit).unwrap();
    assert!(first.ok && second.ok);
    assert!(!first.cached, "first answer must be computed");
    assert!(second.cached, "upper {DEFAULT_UPPER} must hit the entry an absent upper filled");
    assert_eq!(first.body, second.body, "cache changed the bytes");
    // `upper: 0` also means the default
    let zero = client.call(&Request { upper: Some(0), ..explicit }).unwrap();
    assert!(zero.ok && zero.cached, "upper 0 must hit the default-upper entry");
    assert_eq!(zero.body, first.body);
}

#[test]
fn node_explanations_route_through_the_session_api() {
    let state = motif_state();
    let req = Request::node(1, 4, 4);
    let served = answer(&state, &req);
    assert!(served.ok, "{}", served.error);
    // ground truth: the same call made directly against the core API
    let session = ExplainSession::new(state.model(), Configuration::paper_mut(4)).unwrap();
    let direct = session.explain_node(state.db().graph(1), 4).expect("node view exists");
    assert_eq!(served.body, serde_json::to_string(&direct).unwrap());
    // out-of-range requests fail cleanly
    assert!(!answer(&state, &Request::node(99, 0, 4)).ok);
    assert!(!answer(&state, &Request::node(1, 99, 4)).ok);
}

fn temp_store_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gvex-serve-e2e-{}-{tag}-{n}.gvex", std::process::id()))
}

#[test]
fn reload_during_concurrent_traffic_keeps_answers_identical() {
    // build a store file so the server has a source to reload from
    let state = motif_state();
    let path = temp_store_path("reload");
    let views_json = state.views().to_json();
    write_store(
        &path,
        &BuildInput {
            db: state.db(),
            model: state.model(),
            views_json: Some(&views_json),
            dataset: "MOTIF",
            seed: 1,
            mining: None,
            epoch: 0,
        },
    )
    .unwrap();

    let opened = ServeState::open(&path).unwrap();
    assert_eq!(
        opened.fingerprint(),
        state.fingerprint(),
        "store round trip must preserve the content fingerprint"
    );

    let reqs = workload();
    let expected = Arc::new(sequential_bodies(&state, &reqs));
    let reqs = Arc::new(reqs);
    let server =
        Server::bind(opened, "127.0.0.1:0", ServerConfig { workers: 4, ..serve_defaults() })
            .unwrap();
    let addr = server.addr();

    let traffic: Vec<_> = (0..4)
        .map(|c| {
            let reqs = Arc::clone(&reqs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3 {
                    for i in 0..reqs.len() {
                        let at = (i + c) % reqs.len();
                        let resp = client.call(&reqs[at]).unwrap();
                        assert!(resp.ok, "client {c} round {round}: {}", resp.error);
                        assert_eq!(resp.body, expected[at], "answer diverged across reload");
                    }
                }
            })
        })
        .collect();

    // reload mid-traffic: same file, so same content fingerprint — cached
    // answers stay valid and the generation counter moves
    let mut control = Client::connect(addr).unwrap();
    let resp = control.call(&Request::reload("")).unwrap();
    assert!(resp.ok, "reload failed: {}", resp.error);
    for h in traffic {
        h.join().unwrap();
    }
    assert_eq!(server.generation(), 1);
    let after = Client::connect(addr).unwrap().call(&Request::stats()).unwrap();
    assert_eq!(after.generation, 1, "responses must carry the post-reload generation");
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutate_publishes_epochs_and_invalidates_only_affected_answers() {
    let state = motif_state();
    let fp0 = state.fingerprint();
    let db0 = state.db().clone();
    let model0 = state.model().clone();
    let views0 = state.views().clone();
    let server = Server::bind(state, "127.0.0.1:0", serve_defaults()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // warm the cache for both classes
    assert!(client.call(&Request::explain(0, 4, false)).unwrap().ok);
    assert!(client.call(&Request::explain(1, 4, false)).unwrap().ok);
    assert!(client.call(&Request::explain(1, 4, false)).unwrap().cached);

    // stream a mutation WITHOUT commit: it buffers in the ingest engine
    // and reads keep answering from the published state (bounded
    // staleness — nothing flips until the epoch publishes)
    let op = Op::AddEdge { graph: 0, u: 0, v: 2, etype: 0 };
    let jsonl = to_jsonl(&[op.to_wire()]);
    let resp = client.call(&Request { upper: Some(4), ..Request::mutate(&jsonl, false) }).unwrap();
    assert!(resp.ok, "mutate failed: {}", resp.error);
    assert!(resp.body.contains("\"applied\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"pending\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"published\":false"), "{}", resp.body);
    assert!(resp.body.contains(&format!("\"fingerprint\":{fp0}")), "{}", resp.body);
    assert!(
        client.call(&Request::explain(0, 4, false)).unwrap().cached,
        "pre-epoch answers must keep serving until the publish"
    );
    assert_eq!(server.generation(), 0);

    // commit: the epoch publishes through the same atomic swap a reload
    // uses and frees the dirty (old fingerprint, class) slots early — here
    // exactly the class-0 explain answer (graph 0 has truth 0). Class 1's
    // entry is not freed, but it is stranded all the same: every key
    // carries the global fingerprint, which each publish flips, so every
    // class misses after the epoch
    let resp = client.call(&Request { upper: Some(4), ..Request::commit() }).unwrap();
    assert!(resp.ok, "commit failed: {}", resp.error);
    assert!(resp.body.contains("\"published\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"epoch\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"invalidated\":1"), "{}", resp.body);
    assert!(!resp.body.contains(&format!("\"fingerprint\":{fp0}")), "fingerprint must flip");
    assert_eq!(server.generation(), 1);

    // the served post-epoch answer must equal the offline incremental
    // ground truth, byte for byte
    let mut oracle =
        IngestEngine::new("MOTIF", 0, db0, model0, Configuration::paper_mut(4), views0, 0).unwrap();
    oracle.apply(&op).unwrap();
    let oracle_state = ServeState::from_parts(
        "MOTIF",
        oracle.db().clone(),
        oracle.model().clone(),
        oracle.views_set(),
    );
    let want = answer(&oracle_state, &Request::explain(0, 4, false));
    assert!(want.ok, "{}", want.error);
    let got = client.call(&Request::explain(0, 4, false)).unwrap();
    assert!(got.ok, "{}", got.error);
    assert!(!got.cached, "post-epoch answer must be recomputed, not served stale");
    assert_eq!(got.body, want.body, "served post-epoch answer diverged from incremental oracle");
    assert!(client.call(&Request::explain(0, 4, false)).unwrap().cached, "then cached again");

    // a commit with nothing pending publishes nothing
    let resp = client.call(&Request { upper: Some(4), ..Request::commit() }).unwrap();
    assert!(resp.ok);
    assert!(resp.body.contains("\"published\":false"), "{}", resp.body);
    assert_eq!(server.generation(), 1);
}

#[test]
fn mutate_rejections_are_typed_and_reload_discards_pending_mutations() {
    let state = motif_state();
    let fp0 = state.fingerprint();
    let path = temp_store_path("mutate-reload");
    let views_json = state.views().to_json();
    write_store(
        &path,
        &BuildInput {
            db: state.db(),
            model: state.model(),
            views_json: Some(&views_json),
            dataset: "MOTIF",
            seed: 1,
            mining: None,
            epoch: 0,
        },
    )
    .unwrap();
    let opened = ServeState::open(&path).unwrap();
    let server = Server::bind(opened, "127.0.0.1:0", serve_defaults()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // malformed JSON applies nothing
    let resp = client.call(&Request::mutate("{not json", false)).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("bad mutation log"), "{}", resp.error);

    // a semantically invalid op is rejected with the ingest error text
    let bad = to_jsonl(&[Op::RemoveGraph { index: 999 }.to_wire()]);
    let resp = client.call(&Request { upper: Some(4), ..Request::mutate(&bad, false) }).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("out of range"), "{}", resp.error);

    // buffer a valid mutation, then reload: the pending mutation dies
    // with the engine and serving returns to the store's content
    let good = to_jsonl(&[Op::AddEdge { graph: 0, u: 0, v: 2, etype: 0 }.to_wire()]);
    let resp = client.call(&Request { upper: Some(4), ..Request::mutate(&good, false) }).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(resp.body.contains("\"pending\":1"), "{}", resp.body);
    let resp = client.call(&Request::reload("")).unwrap();
    assert!(resp.ok, "{}", resp.error);
    let resp = client.call(&Request { upper: Some(4), ..Request::commit() }).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(
        resp.body.contains("\"published\":false"),
        "reload must discard unpublished mutations: {}",
        resp.body
    );
    assert!(resp.body.contains(&format!("\"fingerprint\":{fp0}")), "{}", resp.body);
    std::fs::remove_file(&path).ok();
}

#[test]
fn epoch_interval_publishes_automatically() {
    let server = Server::bind(
        motif_state(),
        "127.0.0.1:0",
        ServerConfig { epoch_interval: 2, ..serve_defaults() },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let one = |g: usize| to_jsonl(&[Op::AddEdge { graph: g, u: 0, v: 2, etype: 0 }.to_wire()]);
    let resp = client.call(&Request { upper: Some(4), ..Request::mutate(&one(0), false) }).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(resp.body.contains("\"published\":false"), "{}", resp.body);
    // the second mutation fills the interval: publish without any commit
    let resp = client.call(&Request { upper: Some(4), ..Request::mutate(&one(2), false) }).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(resp.body.contains("\"published\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"pending\":0"), "{}", resp.body);
    assert_eq!(server.generation(), 1);
}

#[test]
fn full_queue_rejects_with_busy() {
    let server = Server::bind(
        motif_state(),
        "127.0.0.1:0",
        ServerConfig { workers: 1, queue_depth: 1, ..serve_defaults() },
    )
    .unwrap();
    let addr = server.addr();
    // occupy the only worker with an open connection mid-session
    let mut held = Client::connect(addr).unwrap();
    held.call(&Request::ping()).unwrap();
    // fill the one queue slot with a second idle connection
    let _queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    // the next arrival must be turned away at the door
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &Request::ping().encode()).unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("server must answer before closing");
    let resp = Response::decode(&frame).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error, "busy");
}

#[test]
fn shutdown_request_stops_the_server() {
    let server = Server::bind(motif_state(), "127.0.0.1:0", serve_defaults()).unwrap();
    let addr = server.addr();
    let resp = Client::connect(addr).unwrap().call(&Request::shutdown()).unwrap();
    assert!(resp.ok);
    server.join(); // must return, not hang
    assert!(
        Client::connect(addr).and_then(|mut c| c.call(&Request::ping())).is_err(),
        "server answered after shutdown"
    );
}
