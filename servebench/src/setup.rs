//! Set-up: from a generated dataset to a daemon answering pings, through
//! the same public calls `gvex db build` and `gvex serve` make, plus the
//! run metadata every result carries.
//!
//! The daemon under test runs in a child process (this binary with
//! `--daemon <store>`), so its peak memory is its own and not the
//! harness's. The child prints its address, answers `stats` lines on stdin
//! with its cache counters and peak memory, and shuts down when stdin
//! closes.

use gvex_core::{Configuration, ExplainSession, GreedyStrategy, SelectionStrategy};
use gvex_gnn::{train, trainer::TrainOptions, GcnConfig, Split};
use gvex_graph::GraphDatabase;
use gvex_ingest::{IngestEngine, IngestError};
use gvex_serve::state::DEFAULT_UPPER;
use gvex_serve::{CacheStats, Client, Request, ServeState, Server, ServerConfig};
use gvex_store::{write_store, BuildInput, Store};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Seed of the generated dataset and of training: the `gvex db build`
/// default. Fixed so every run serves the same store; the run's `--seed`
/// shapes the traffic instead.
pub const DATA_SEED: u64 = 42;

/// Coverage upper bound the store's views are mined with (`gvex db build`
/// default).
pub const BUILD_UPPER: usize = 10;

/// The `gvex serve` defaults: 4 workers, a 64-deep accept queue, one
/// 32-entry cache shard per class, an epoch every 8 pending mutations.
/// `ServerConfig::default()` is not used because it has 4 shards, which
/// would hold twice as many answers on a two-class dataset.
pub fn serve_config(classes: usize) -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_depth: 64,
        cache_shards: classes.max(1),
        cache_capacity: 32,
        epoch_interval: 8,
    }
}

/// The ingest engine the daemon seeds from its serving state on the first
/// `mutate` request (a request that leaves `upper` unset, as the writer's
/// do, maintains views under the default upper bound).
pub fn daemon_engine(state: &ServeState) -> Result<IngestEngine, IngestError> {
    IngestEngine::new(
        state.dataset(),
        0,
        state.db().clone(),
        state.model().clone(),
        Configuration::paper_mut(DEFAULT_UPPER),
        state.views().clone(),
        0,
    )
}

/// Timings of one set-up.
pub struct Build {
    /// Store file size.
    pub store_bytes: u64,
    /// Training, seconds.
    pub train_s: f64,
    /// View mining, seconds.
    pub mine_s: f64,
    /// `write_store`, seconds.
    pub write_s: f64,
    /// Daemon start (`ServeState::open`, bind) to the first answered ping,
    /// seconds.
    pub serve_s: f64,
    /// Dataset → first answered ping, seconds.
    pub total_s: f64,
}

/// Trains, mines, writes the store to `path`, starts a daemon on it with
/// the `gvex serve` defaults and waits for its first ping.
pub fn build(db: &GraphDatabase, path: &Path) -> Result<(Daemon, Build), String> {
    let t0 = Instant::now();
    let split = Split::paper(db, DATA_SEED);
    let cfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs: 150, lr: 0.01, seed: DATA_SEED, patience: 0, batch_size: 1 };
    let (model, _) = train(db, cfg, &split, opts);
    let t_train = Instant::now();

    let mining = Configuration::paper_mut(BUILD_UPPER);
    let session = ExplainSession::new(&model, mining.clone()).map_err(|e| e.to_string())?;
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let views = session.explain(&GreedyStrategy as &dyn SelectionStrategy, db, &labels).to_json();
    let t_mine = Instant::now();

    let input = BuildInput {
        db,
        model: &model,
        views_json: Some(&views),
        dataset: "MUT",
        seed: DATA_SEED,
        mining: Some(mining.mining),
        epoch: 0,
    };
    let store_bytes = write_store(path, &input).map_err(|e| e.to_string())?;
    let t_write = Instant::now();

    let daemon = Daemon::spawn(path)?;
    let pong = Client::connect(daemon.addr())
        .and_then(|mut c| c.call(&Request::ping()))
        .map_err(|e| format!("first ping: {e}"))?;
    if !pong.ok {
        return Err(format!("first ping refused: {}", pong.error));
    }
    let t_serve = Instant::now();
    let times = Build {
        store_bytes,
        train_s: (t_train - t0).as_secs_f64(),
        mine_s: (t_mine - t_train).as_secs_f64(),
        write_s: (t_write - t_mine).as_secs_f64(),
        serve_s: (t_serve - t_write).as_secs_f64(),
        total_s: (t_serve - t0).as_secs_f64(),
    };
    Ok((daemon, times))
}

/// The daemon's counters as its `stats` control line reports them.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    /// Answer-cache counters.
    pub cache: CacheStats,
    /// Peak resident set (`VmHWM`) of the daemon process, KiB.
    pub peak_kib: u64,
}

/// A daemon running in a child process. Dropping it closes the child's
/// stdin, which shuts the daemon down, and waits for the child to exit.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `servebench --daemon <store>` and reads the address it binds.
    pub fn spawn(store: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Self { child, stdin, stdout, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let line = daemon.line()?;
        daemon.addr =
            line.parse().map_err(|_| format!("daemon printed {line:?}, not an address"))?;
        Ok(daemon)
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon for its counters.
    pub fn stats(&mut self) -> Result<DaemonStats, String> {
        let stdin = self.stdin.as_mut().expect("stdin open until drop");
        stdin.write_all(b"stats\n").and_then(|()| stdin.flush()).map_err(|e| e.to_string())?;
        let line = self.line()?;
        let f: Vec<u64> = line.split_whitespace().filter_map(|x| x.parse().ok()).collect();
        let &[hits, misses, evictions, len, peak_kib] = f.as_slice() else {
            return Err(format!("daemon printed {line:?}, not its counters"));
        };
        let cache = CacheStats { hits, misses, evictions, len: len as usize };
        Ok(DaemonStats { cache, peak_kib })
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon exited".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("read from daemon: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The child side of [`Daemon`]: opens `store`, serves it with the
/// `gvex serve` defaults, prints the address, answers `stats` lines and
/// returns when stdin closes.
pub fn serve(store: &Path) -> Result<(), String> {
    let state = ServeState::open(store).map_err(|e| e.to_string())?;
    let classes = state.db().num_classes();
    let server = Server::bind(state, "127.0.0.1:0", serve_config(classes))
        .map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    let report = |out: &mut std::io::StdoutLock, line: String| {
        writeln!(out, "{line}").and_then(|()| out.flush()).map_err(|e| e.to_string())
    };
    report(&mut out, server.addr().to_string())?;
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(l) if l.trim() == "stats" => {
                let c = server.cache_stats();
                let peak = peak_rss_kib().unwrap_or(0);
                report(
                    &mut out,
                    format!("{} {} {} {} {peak}", c.hits, c.misses, c.evictions, c.len),
                )?;
            }
            _ => break,
        }
    }
    drop(server);
    Ok(())
}

/// Store-layer timings of one open, in milliseconds, and the mapped size.
pub struct StoreTimes {
    /// `Store::open`.
    pub open_ms: f64,
    /// `Store::database` (materializing owned graphs).
    pub materialize_ms: f64,
    /// `Store::mapped_len`, MiB.
    pub mapped_mb: f64,
    /// `ServeState::open`.
    pub state_open_ms: f64,
}

/// Times the store layer's public entry points on `path`.
pub fn store_times(path: &Path) -> Result<StoreTimes, String> {
    let t = Instant::now();
    let store = Store::open(path).map_err(|e| e.to_string())?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    black_box(store.database());
    let materialize_ms = t.elapsed().as_secs_f64() * 1e3;
    let mapped_mb = store.mapped_len() as f64 / (1 << 20) as f64;
    drop(store);
    let t = Instant::now();
    black_box(ServeState::open(path).map_err(|e| e.to_string())?);
    let state_open_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(StoreTimes { open_ms, materialize_ms, mapped_mb, state_open_ms })
}

/// A fixed integer loop, timed in milliseconds. Recorded at the start and
/// end of every run to show how fast the host was; never used to scale a
/// metric.
pub fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for i in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The checkout's git revision when it is a git work tree, else "unknown".
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
