//! Drives the daemons over TCP: warm-up, then the timed window. One
//! closed-loop client sends every operation in the plan's order and waits
//! for each answer before the next: reads on a connection to the daemon
//! under test, mutations on a second connection to the writer daemon.
//! Every operation becomes a [`Record`]; only the calls themselves are
//! timed.

use crate::setup::Daemon;
use crate::traffic::{Kind, Plan, Slot, Workload};
use gvex_serve::{read_frame, write_frame, CacheStats, Request, Response};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Part of the run an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// First answers of the cached keys and the engine-seeding commit.
    Warmup,
    /// The timed window.
    Window,
}

/// How an operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `ok`, served from the answer cache.
    Hit,
    /// `ok`, computed (mutations are always `Miss`).
    Miss,
    /// `ok = false` for a reason other than admission control.
    Failed,
    /// Refused with `busy`.
    Busy,
    /// The connection failed.
    Io,
}

/// One operation.
#[derive(Clone, Debug)]
pub struct Record {
    /// Run part.
    pub phase: Phase,
    /// The cycle slot it filled (warm-up reads count as `Hot` or `Hit`).
    pub slot: Slot,
    /// Request kind.
    pub kind: Kind,
    /// Catalog index (reads) or mutation index (writes).
    pub item: usize,
    /// When it was sent, from the run clock's origin.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
    /// How it ended.
    pub outcome: Outcome,
    /// Mutations: whether the commit published an epoch.
    pub published: bool,
}

impl Record {
    /// Send-to-answer latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }

    /// Whether the operation succeeded.
    pub fn ok(&self) -> bool {
        matches!(self.outcome, Outcome::Hit | Outcome::Miss)
    }
}

/// Everything a drive observed.
#[derive(Default)]
pub struct Observed {
    /// Every operation, in the order it was sent.
    pub records: Vec<Record>,
    /// First answer body of each catalog entry kept for checking.
    pub bodies: HashMap<usize, String>,
    /// Answers that differed from the kept first body of the same entry.
    pub body_mismatches: usize,
    /// Mutation slots the plan had no record left for.
    pub mutations_short: usize,
    /// When the window started, from the run clock's origin.
    pub window_start: Duration,
    /// Measured window length.
    pub window: Duration,
    /// Cache counters of the daemon under test at the window's start and
    /// end.
    pub cache_window: (CacheStats, CacheStats),
    /// Peak resident set of the daemon under test after the window, KiB.
    pub peak_kib: u64,
    /// The writer daemon's content fingerprint after the run.
    pub writer_fingerprint: Option<u64>,
}

/// Whether the first answer to `item` is kept, and later answers to it
/// compared against it: every cached key; the first three distinct explain
/// misses; and about one node miss in 32, at most 20.
fn keeps(slot: Slot, item: usize, seed: u64, kept: &mut [usize; 2]) -> bool {
    let pick = match slot {
        Slot::Hot | Slot::Hit => return true,
        Slot::Explain => kept[0] < 3,
        Slot::Node => {
            kept[1] < 20
                && (item as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed).is_multiple_of(32)
        }
        Slot::Mutate => return false,
    };
    if pick {
        kept[usize::from(slot == Slot::Node)] += 1;
    }
    pick
}

/// How long a caller polls for an answer before blocking. On a virtual
/// machine a blocked caller's idle vCPU halts, and waking it costs the
/// host's scheduling delay: tens to hundreds of microseconds that vary with
/// the host's load, as much as a whole cache hit. Polling (yielding between
/// polls) keeps that delay out of hits and of most node answers; anything
/// longer blocks, so polling never holds a vCPU against a computation for
/// more than this.
const SPIN: Duration = Duration::from_millis(2);

/// A reconnecting client speaking the daemon's frame protocol.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let res = exchange(stream, req);
        if res.is_err() {
            self.stream = None;
        }
        res
    }
}

fn exchange(stream: &mut TcpStream, req: &Request) -> io::Result<Response> {
    write_frame(stream, &req.encode())?;
    poll_readable(stream, SPIN)?;
    let bytes = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before responding")
    })?;
    Response::decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Polls `stream` for up to `spin` until a byte is readable, yielding the
/// CPU between polls.
fn poll_readable(stream: &TcpStream, spin: Duration) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let start = Instant::now();
    let mut byte = [0u8; 1];
    let res = loop {
        match stream.peek(&mut byte) {
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if start.elapsed() >= spin {
                    break Ok(());
                }
                std::thread::yield_now();
            }
            Err(e) => break Err(e),
        }
    };
    stream.set_nonblocking(false)?;
    res
}

fn classify(res: &io::Result<Response>) -> Outcome {
    match res {
        Err(_) => Outcome::Io,
        Ok(r) if r.ok && r.cached => Outcome::Hit,
        Ok(r) if r.ok => Outcome::Miss,
        Ok(r) if r.error == "busy" => Outcome::Busy,
        Ok(_) => Outcome::Failed,
    }
}

/// Reads one numeric field of a flat JSON answer body.
pub fn json_u64(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let start = body.find(&key)? + key.len();
    let digits: String = body[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

struct Client<'a> {
    plan: &'a Plan,
    seed: u64,
    t0: Instant,
    reader: Conn,
    writer: Conn,
    obs: Observed,
    kept: [usize; 2],
}

impl Client<'_> {
    fn read(&mut self, item: usize, slot: Slot, phase: Phase) {
        let req = &self.plan.catalog.templates[item];
        let sent = self.t0.elapsed();
        let res = self.reader.call(req);
        let done = self.t0.elapsed();
        if let Some(resp) = res.as_ref().ok().filter(|r| r.ok) {
            match self.obs.bodies.get(&item) {
                Some(first) => self.obs.body_mismatches += usize::from(*first != resp.body),
                None => {
                    if keeps(slot, item, self.seed, &mut self.kept) {
                        self.obs.bodies.insert(item, resp.body.clone());
                    }
                }
            }
        }
        let kind = self.plan.catalog.kinds[item];
        let outcome = classify(&res);
        self.obs.records.push(Record {
            phase,
            slot,
            kind,
            item,
            sent,
            done,
            outcome,
            published: false,
        });
    }

    /// Commits mutation `item` on the writer daemon.
    fn commit(&mut self, item: usize, phase: Phase) {
        let Some(jsonl) = self.plan.mutations.get(item) else {
            self.obs.mutations_short += 1;
            return;
        };
        let req = Request::mutate(jsonl, true);
        let sent = self.t0.elapsed();
        let res = self.writer.call(&req);
        let done = self.t0.elapsed();
        let published = res.as_ref().is_ok_and(|r| r.ok && r.body.contains("\"published\":true"));
        self.obs.records.push(Record {
            phase,
            slot: Slot::Mutate,
            kind: Kind::Mutate,
            item,
            sent,
            done,
            outcome: classify(&res),
            published,
        });
    }
}

/// Runs warm-up and the window: reads go to `daemon`, mutations to the
/// writer daemon at `writer`.
pub fn drive(
    daemon: &mut Daemon,
    writer: SocketAddr,
    plan: &Plan,
    window: Duration,
    seed: u64,
) -> Result<Observed, String> {
    let mut client = Client {
        plan,
        seed,
        t0: Instant::now(),
        reader: Conn::new(daemon.addr()),
        writer: Conn::new(writer),
        obs: Observed::default(),
        kept: [0, 0],
    };
    let warm_slot = if plan.workload == Workload::HotReads { Slot::Hot } else { Slot::Hit };
    for &item in &plan.warm {
        client.read(item, warm_slot, Phase::Warmup);
    }
    // seeds the writer daemon's ingest engine
    client.commit(0, Phase::Warmup);

    let mut ops = plan.ops.clone();
    let cache_start = daemon.stats()?.cache;
    let start = Instant::now();
    let end = start + window;
    while Instant::now() < end {
        let op = ops.next_op();
        match op.slot {
            Slot::Mutate => client.commit(op.item, Phase::Window),
            slot => client.read(op.item, slot, Phase::Window),
        }
    }
    let window_len = start.elapsed();
    let after = daemon.stats()?;

    let stats = client.writer.call(&Request::stats());
    let mut obs = client.obs;
    obs.window_start = start.duration_since(client.t0);
    obs.window = window_len;
    obs.cache_window = (cache_start, after.cache);
    obs.peak_kib = after.peak_kib;
    obs.writer_fingerprint =
        stats.ok().filter(|r| r.ok).and_then(|r| json_u64(&r.body, "fingerprint"));
    Ok(obs)
}
