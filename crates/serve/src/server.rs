//! The `gvex serve` daemon: a fixed worker pool over a bounded accept
//! queue, answering protocol frames against the current [`ServeState`].
//!
//! Concurrency model — plain `std` threads, no async runtime:
//!
//! * One **accept thread** owns the listener. Accepted connections go into
//!   a `sync_channel` of configured depth; when the queue is full the
//!   connection is answered with a `busy` failure and dropped instead of
//!   queuing without bound — admission control happens at accept time, so
//!   overload degrades into fast rejections rather than growing latency.
//! * `workers` **worker threads** share the queue's receiver behind a
//!   mutex. A worker serves one connection at a time, frame by frame,
//!   until the peer hangs up — so a connection's requests are answered in
//!   order, while distinct connections proceed in parallel. Each worker
//!   answers inside a one-worker rayon pool: parallelism is across
//!   requests, and a request's own fan-outs stay on its worker.
//! * The current state is an `Arc<ServeState>` behind an `RwLock`.
//!   **Reload** builds the next state off to the side (on the worker
//!   serving the reload request), then swaps the `Arc` — in-flight
//!   requests keep the generation they started with, new requests see the
//!   new one, and nothing blocks beyond the pointer swap.
//! * **Shutdown** sets a flag and self-connects to unblock the blocking
//!   `accept`; the accept thread exits, dropping the queue sender, which
//!   drains the workers. It also shuts down the read half of every live
//!   connection, so a worker waiting on an idle client sees end-of-stream
//!   instead of blocking the join forever. A request already being
//!   answered still gets its reply.
//! * **Mutate** requests feed an [`IngestEngine`] behind its own mutex:
//!   mutations patch the engine's private copy of the database and views
//!   incrementally, while reads keep answering from the last published
//!   `Arc<ServeState>` — bounded staleness, never a blocked read. When a
//!   request says `commit` (or enough mutations accumulate to fill the
//!   epoch interval) the engine's state is published through the same
//!   atomic swap reloads use, and only the `(old fingerprint, class)`
//!   answer-cache entries named by the epoch's dirty set are invalidated.

use crate::cache::{AnswerCache, CacheStats};
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::state::{answer, cache_key, config_for, ServeState};
use gvex_core::parallel::ThreadPoolBuilder;
use gvex_ingest::IngestEngine;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tunables for one server instance.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new arrivals
    /// are rejected with `busy`.
    pub queue_depth: usize,
    /// Answer-cache class shards.
    pub cache_shards: usize,
    /// Answer-cache entries per shard.
    pub cache_capacity: usize,
    /// Pending mutations that trigger an automatic epoch publish. A
    /// `mutate` request with `commit` publishes regardless; this bounds
    /// how stale reads can get when clients never commit.
    pub epoch_interval: usize,
}

impl ServerConfig {
    /// The `gvex serve` defaults for a database of `classes` classes: 4
    /// workers, a queue of 64, one 32-entry cache shard per class (the
    /// cache's isolation unit matches the answer space's natural
    /// partition), and an epoch every 8 pending mutations.
    pub fn for_classes(classes: usize) -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            cache_shards: classes.max(1),
            cache_capacity: 32,
            epoch_interval: 8,
        }
    }
}

struct Shared {
    state: RwLock<Arc<ServeState>>,
    cache: AnswerCache,
    shutdown: AtomicBool,
    generation: AtomicU64,
    addr: SocketAddr,
    /// Live ingest engine, created lazily by the first `mutate` request
    /// from a clone of the then-current state. `None` between ingest
    /// sessions; a `reload` drops it (with any unpublished mutations —
    /// reload means "go back to what the store says").
    ingest: Mutex<Option<IngestEngine>>,
    epoch_interval: usize,
    /// A handle on every connection a worker is serving, by id, so
    /// shutdown can wake workers blocked reading from idle clients. Each
    /// update is one insert or remove, so the map stays consistent even
    /// if a holder panicked; its lock is taken poisoned or not.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A running server. Dropping it shuts the daemon down and joins every
/// thread.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept thread and worker pool.
    pub fn bind(state: ServeState, addr: &str, cfg: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: RwLock::new(Arc::new(state)),
            cache: AnswerCache::new(cfg.cache_shards, cfg.cache_capacity),
            shutdown: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            addr: local,
            ingest: Mutex::new(None),
            epoch_interval: cfg.epoch_interval.max(1),
            live: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, &tx))
        };
        Ok(Self { shared, accept: Some(accept), workers })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current serving state.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.shared.state.read().expect("state lock poisoned"))
    }

    /// Reload generation (0 until the first reload).
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Answer-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Requests shutdown and joins every thread, without waiting for
    /// connected clients to hang up. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        begin_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until the server stops (i.e. a `shutdown` request arrives).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sets the shutdown flag, unblocks the blocking `accept`, and shuts down
/// the read half of every live connection: a worker waiting for an idle
/// client's next frame reads end-of-stream and returns, while replies
/// still in flight (the `shutdown` request's own included) go out.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.addr);
    for stream in shared.live.lock().unwrap_or_else(PoisonError::into_inner).values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

/// Registers a connection in [`Shared::live`] for as long as it is held.
struct LiveConn<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> LiveConn<'a> {
    fn register(shared: &'a Shared, stream: &TcpStream) -> Self {
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = stream.try_clone() {
            shared.live.lock().unwrap_or_else(PoisonError::into_inner).insert(id, handle);
        }
        Self { shared, id }
    }
}

impl Drop for LiveConn<'_> {
    fn drop(&mut self) {
        self.shared.live.lock().unwrap_or_else(PoisonError::into_inner).remove(&self.id);
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake connection, or a late arrival during shutdown
        }
        gvex_obs::counter!("serve.accepted");
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Admission control: reject at the door rather than queue
                // without bound. The client gets a definite answer. Drain
                // whatever request bytes already arrived first — closing a
                // socket with unread data makes the kernel RST the reply
                // out of the peer's receive buffer.
                gvex_obs::counter!("serve.rejected");
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(20)));
                let mut scratch = [0u8; 1024];
                let _ = io::Read::read(&mut stream, &mut scratch);
                let _ = write_frame(&mut stream, &Response::fail("busy").encode());
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
    // tx drops here: workers drain the queue, then their recv() fails and
    // they exit.
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    // Requests run in parallel across the workers; each request's own
    // fan-outs stay on its worker. A miss that fanned out spawned a thread
    // whose malloc arena kept session-cache entries, which raised peak RSS
    // and hit latency on the serving benchmark (DESIGN §15).
    let own_thread = ThreadPoolBuilder::new().num_threads(1).build().expect("pool builds");
    loop {
        // Hold the receiver lock only while waiting; handling runs
        // unlocked so workers serve distinct connections concurrently.
        let conn = { rx.lock().expect("accept queue poisoned").recv() };
        match conn {
            Ok(stream) => own_thread.install(|| handle_conn(shared, stream)),
            Err(_) => return, // sender gone: shutdown
        }
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    // Registered before the flag check: a shutdown either sees this
    // connection in the live set or has set the flag this check reads.
    let _live = LiveConn::register(shared, &stream);
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let _ = stream.set_nodelay(true);
    gvex_obs::counter!("serve.connections");
    loop {
        let bytes = match read_frame(&mut stream) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return, // peer closed between frames
            Err(_) => return,
        };
        let t0 = Instant::now();
        gvex_obs::counter!("serve.requests");
        let (resp, stop) = match Request::decode(&bytes) {
            Ok(req) => dispatch(shared, &req),
            Err(e) => (Response::fail(e), false),
        };
        let mut resp = resp;
        resp.generation = shared.generation.load(Ordering::SeqCst);
        gvex_obs::histogram!("serve.request_us", t0.elapsed().as_micros() as u64);
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return;
        }
        if stop {
            return;
        }
    }
}

/// Routes one request: control requests mutate the server, everything else
/// is answered against the current state (through the answer cache when
/// the kind is cacheable). Returns the response and whether the connection
/// should close.
fn dispatch(shared: &Shared, req: &Request) -> (Response, bool) {
    match req.kind.as_str() {
        "shutdown" => {
            gvex_obs::counter!("serve.shutdowns");
            begin_shutdown(shared);
            (Response::success("{\"stopping\":true}".to_string()), true)
        }
        "reload" => (do_reload(shared, &req.path), false),
        "mutate" => (do_mutate(shared, req), false),
        _ => {
            let state = Arc::clone(&shared.state.read().expect("state lock poisoned"));
            let resp = match cache_key(&state, req) {
                Some(key) => match shared.cache.get(&key) {
                    Some(body) => Response { ok: true, cached: true, body, ..Response::default() },
                    None => {
                        let resp = answer(&state, req);
                        if resp.ok {
                            shared.cache.put(key, resp.body.clone());
                        }
                        resp
                    }
                },
                None => answer(&state, req),
            };
            (resp, false)
        }
    }
}

fn do_reload(shared: &Shared, path: &str) -> Response {
    let _scope = gvex_obs::context::ReqScope::begin("serve.reload");
    let current = Arc::clone(&shared.state.read().expect("state lock poisoned"));
    match current.reload_target(path) {
        Ok(next) => {
            let fingerprint = next.fingerprint();
            *shared.state.write().expect("state lock poisoned") = Arc::new(next);
            // Unpublished mutations die with the old engine: reload means
            // "serve what the store says", not "merge".
            *shared.ingest.lock().expect("ingest lock poisoned") = None;
            let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
            gvex_obs::counter!("serve.reloads");
            Response::success(format!(
                "{{\"reloaded\":true,\"generation\":{generation},\"fingerprint\":{fingerprint}}}"
            ))
        }
        Err(e) => Response::fail(format!("reload failed: {e}")),
    }
}

/// Applies a `mutate` request's JSON Lines records to the ingest engine
/// and, when committing (explicitly or because the epoch interval filled),
/// publishes the engine's state as the new serving state.
///
/// The engine mutex serializes writers; readers never wait on it — they
/// keep answering from the published `Arc` until the swap, which is the
/// bounded-staleness contract. A rejected record fails the request but
/// keeps every record before it applied (the log is a sequence, not a
/// transaction); the error says how many were applied.
fn do_mutate(shared: &Shared, req: &Request) -> Response {
    let _scope = gvex_obs::context::ReqScope::begin("serve.mutate");
    gvex_obs::counter!("serve.mutations_rx");
    // Parse every record up front so a syntax error applies nothing.
    let ops = match gvex_ingest::parse_jsonl(&req.mutation) {
        Ok(records) => {
            let mut ops = Vec::with_capacity(records.len());
            for (i, record) in records.iter().enumerate() {
                match record.parse() {
                    Ok(op) => ops.push(op),
                    Err(e) => return Response::fail(format!("mutation record {}: {e}", i + 1)),
                }
            }
            ops
        }
        Err(e) => return Response::fail(format!("bad mutation log: {e}")),
    };
    let mut guard = shared.ingest.lock().expect("ingest lock poisoned");
    if guard.is_none() {
        let state = Arc::clone(&shared.state.read().expect("state lock poisoned"));
        let engine = IngestEngine::new(
            state.dataset(),
            state.seed(),
            state.db().clone(),
            state.model().clone(),
            config_for(req),
            state.views().clone(),
            state.epoch(),
        );
        match engine {
            Ok(engine) => *guard = Some(engine),
            Err(e) => return Response::fail(format!("cannot start ingest: {e}")),
        }
    }
    let engine = guard.as_mut().expect("engine initialized above");
    let mut applied = 0usize;
    for op in &ops {
        if let Err(e) = engine.apply(op) {
            return Response::fail(format!(
                "mutation {} rejected ({applied} earlier mutations stay applied): {e}",
                applied + 1
            ));
        }
        applied += 1;
    }
    let mut published = false;
    let mut invalidated = 0usize;
    let mut epoch = engine.epoch();
    let mut fingerprint = 0u64;
    if engine.pending() > 0 && (req.commit || engine.pending() >= shared.epoch_interval) {
        let summary = engine.publish_epoch();
        epoch = summary.epoch;
        let old = Arc::clone(&shared.state.read().expect("state lock poisoned"));
        let next = ServeState::from_parts(
            old.dataset(),
            engine.db().clone(),
            engine.model().clone(),
            engine.views_set(),
        )
        .with_source(old.source().map(std::path::Path::to_path_buf));
        fingerprint = next.fingerprint();
        *shared.state.write().expect("state lock poisoned") = Arc::new(next);
        shared.generation.fetch_add(1, Ordering::SeqCst);
        for &class in &summary.dirty_classes {
            invalidated += shared.cache.invalidate(old.fingerprint(), class);
        }
        gvex_obs::counter!("serve.epoch_publishes");
        published = true;
    }
    let pending = engine.pending();
    if !published {
        fingerprint = Arc::clone(&shared.state.read().expect("state lock poisoned")).fingerprint();
    }
    drop(guard);
    Response::success(format!(
        "{{\"applied\":{applied},\"pending\":{pending},\"epoch\":{epoch},\
         \"published\":{published},\"invalidated\":{invalidated},\"fingerprint\":{fingerprint}}}"
    ))
}
