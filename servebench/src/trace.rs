//! The traced run: replays a drive's operations in-process, calling each
//! layer's public entry point in the order the daemon calls it, with a span
//! around every call. Spans live in memory and are written out at the end.
//!
//! A span's self time is its duration minus the time its child spans cover.
//! Replayed answers are checked against the daemon's, so the replay cannot
//! silently drift from what was served.

use crate::drive::{Observed, Phase, Record};
use crate::traffic::{Kind, Plan};
use gvex_core::{
    parallel::predict_all, Configuration, ExplanationViewSet, GreedyStrategy, SelectionStrategy,
    StreamStrategy,
};
use gvex_ingest::IngestEngine;
use gvex_serve::state::{cache_key, DEFAULT_UPPER};
use gvex_serve::{answer, AnswerCache, Request, Response, ServeState};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point.
    pub name: &'static str,
    /// Start, nanoseconds from the tracer's origin.
    pub start: u64,
    /// End, nanoseconds from the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Replayed operation the span belongs to.
    pub op: usize,
}

/// In-memory span recorder. When off it records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        if self.on {
            let start = self.now();
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start, end: start, parent, op: self.op });
            self.stack.push(self.spans.len() - 1);
        }
    }

    fn end(&mut self) {
        if self.on {
            let id = self.stack.pop().expect("span ended without a begin");
            self.spans[id].end = self.now();
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Counts read at layer boundaries during the replay.
#[derive(Default)]
pub struct Counts {
    /// Session-pool checkouts, and how many got a warm cache set.
    pub leases: u64,
    /// Of which warm.
    pub warm_leases: u64,
    /// Trace-cache hits and misses summed over every lease.
    pub trace_hits: u64,
    /// See `trace_hits`.
    pub trace_misses: u64,
    /// Response frame bytes.
    pub resp_bytes: u64,
    /// Reads replayed.
    pub reads: u64,
    /// Ingest engine totals after the replay: views patched, recomputed.
    pub patched: u64,
    /// See `patched`.
    pub recomputed: u64,
    /// Replayed answers that differed from the daemon's kept answer.
    pub mismatches: u64,
}

/// Result of one replay pass.
pub struct Replay {
    /// Spans (empty when tracing was off).
    pub spans: Vec<Span>,
    /// Wall time per replayed operation, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Whether each replayed read was a cache hit.
    pub hit: Vec<bool>,
    /// Layer counts.
    pub counts: Counts,
}

/// The operations a traced run replays: warm-up and the first `prefix_s`
/// seconds of the window, in the order they were sent.
pub fn replay_ops(obs: &Observed, prefix_s: f64) -> Vec<&Record> {
    obs.records
        .iter()
        .filter(|r| {
            r.phase != Phase::Window || (r.sent - obs.window_start).as_secs_f64() < prefix_s
        })
        .collect()
}

/// Replays `ops` against fresh states opened from `store`, spans on or
/// off: reads against one state and answer cache, as the daemon under test
/// answered them; commits against a second state, cache and ingest engine,
/// as the writer daemon applied them.
pub fn replay(plan: &Plan, obs: &Observed, ops: &[&Record], store: &Path, traced: bool) -> Replay {
    let mut tracer = Tracer::new(traced);
    let state = ServeState::open(store).expect("store reopens for the replay");
    let cfg = crate::setup::serve_config(state.db().num_classes());
    let cache = AnswerCache::new(cfg.cache_shards, cfg.cache_capacity);
    let mut writer = Arc::new(ServeState::open(store).expect("store reopens for the replay"));
    let writer_cache = AnswerCache::new(cfg.cache_shards, cfg.cache_capacity);
    let mut engine: Option<IngestEngine> = None;
    let mut counts = Counts::default();
    let mut op_ns = Vec::with_capacity(ops.len());
    let mut hit = Vec::with_capacity(ops.len());
    for (i, r) in ops.iter().enumerate() {
        tracer.op = i;
        let t = Instant::now();
        tracer.begin("request");
        match r.kind {
            Kind::Mutate => {
                let jsonl = &plan.mutations[r.item];
                commit(&mut tracer, &mut writer, &mut engine, &writer_cache, jsonl);
                hit.push(false);
            }
            _ => {
                let req = &plan.catalog.templates[r.item];
                let (resp, was_hit) = read(&mut tracer, &state, &cache, req, &mut counts);
                counts.reads += 1;
                if let Some(kept) = obs.bodies.get(&r.item) {
                    counts.mismatches += u64::from(*kept != resp.body);
                }
                hit.push(was_hit);
            }
        }
        tracer.end();
        op_ns.push(t.elapsed().as_nanos() as u64);
    }
    if let Some(e) = &engine {
        counts.patched = e.stats().views_patched;
        counts.recomputed = e.stats().views_recomputed;
    }
    Replay { spans: tracer.spans, op_ns, hit, counts }
}

fn read(
    tracer: &mut Tracer,
    state: &ServeState,
    cache: &AnswerCache,
    req: &Request,
    counts: &mut Counts,
) -> (Response, bool) {
    let req = tracer
        .span("serve.protocol", || Request::decode(&req.encode()).expect("request round-trips"));
    let key = cache_key(state, &req);
    let cached = tracer.span("serve.cache", || key.as_ref().and_then(|k| cache.get(k)));
    let (resp, was_hit) = match cached {
        Some(body) => (Response { ok: true, cached: true, body, ..Response::default() }, true),
        None => {
            let resp = answer_traced(tracer, state, &req, counts);
            if let (true, Some(k)) = (resp.ok, key) {
                tracer.span("serve.cache", || cache.put(k, resp.body.clone()));
            }
            (resp, false)
        }
    };
    let frame = tracer.span("serve.protocol", || {
        let frame = resp.encode();
        Response::decode(&frame).expect("response round-trips");
        frame.len()
    });
    counts.resp_bytes += frame as u64;
    (resp, was_hit)
}

fn config_for(req: &Request) -> Configuration {
    let upper = match req.upper {
        Some(u) if u > 0 => u as usize,
        _ => DEFAULT_UPPER,
    };
    Configuration::paper_mut(upper)
}

/// `gvex_serve::answer`, opened up: the same calls in the same order, each
/// wrapped in a span. Kinds without inner layers go through `answer`.
fn answer_traced(
    tracer: &mut Tracer,
    state: &ServeState,
    req: &Request,
    counts: &mut Counts,
) -> Response {
    match req.kind.as_str() {
        "explain" if req.label.is_some() => {
            tracer.begin("serve.answer.explain");
            let resp = explain(tracer, state, req, counts);
            tracer.end();
            resp
        }
        "node" => {
            tracer.begin("serve.answer.node");
            let (Some(graph), Some(target)) = (req.graph, req.target) else {
                tracer.end();
                return answer(state, req);
            };
            let lease = state.pool().checkout();
            counts.leases += 1;
            counts.warm_leases += u64::from(lease.was_warm());
            let session = lease.session(state.model(), config_for(req)).expect("valid config");
            let g = state.db().graph(graph as usize);
            let view = tracer.span("core.node", || session.explain_node(g, target as usize));
            let resp = match view {
                Some(v) => {
                    Response::success(serde_json::to_string(&v).expect("node view serializes"))
                }
                None => answer(state, req),
            };
            tracer.end();
            resp
        }
        "query" => tracer.span("serve.answer.query", || answer(state, req)),
        _ => answer(state, req),
    }
}

fn explain(
    tracer: &mut Tracer,
    state: &ServeState,
    req: &Request,
    counts: &mut Counts,
) -> Response {
    let label = req.label.expect("single-class explain") as usize;
    if label >= state.db().num_classes() {
        return answer(state, req);
    }
    let lease = state.pool().checkout();
    counts.leases += 1;
    counts.warm_leases += u64::from(lease.was_warm());
    let (h0, m0) = lease.caches().traces().stats();
    let session = lease.session(state.model(), config_for(req)).expect("valid config");
    let db = state.db();
    let assigned = tracer.span("core.predict_all", || predict_all(state.model(), db));
    let groups = db.label_groups(&assigned);
    let group = groups.group(label);
    let view = if req.stream {
        // streaming assembles its own patterns per graph; it is one call
        tracer.span("core.explain_group", || {
            StreamStrategy.explain_label_group(&session, db, label, group)
        })
    } else {
        let mut subgraphs = Vec::with_capacity(group.len());
        for &gi in group {
            let sub = tracer.span("core.explain_graph", || {
                GreedyStrategy.explain_graph(&session, db.graph(gi), gi)
            });
            subgraphs.extend(sub);
        }
        tracer.span("core.summarize", || session.summarize(label, subgraphs))
    };
    let (h1, m1) = lease.caches().traces().stats();
    counts.trace_hits += h1 - h0;
    counts.trace_misses += m1 - m0;
    let set = ExplanationViewSet { views: vec![view] };
    Response::success(serde_json::to_string(&set.views[0]).expect("view serializes"))
}

/// The daemon's handling of a committing `mutate`, opened up: apply each
/// record, publish the epoch, rebuild the serving state from the engine's
/// parts and invalidate the dirty classes' cache entries.
fn commit(
    tracer: &mut Tracer,
    state: &mut Arc<ServeState>,
    engine: &mut Option<IngestEngine>,
    cache: &AnswerCache,
    jsonl: &str,
) {
    let ops: Vec<_> = gvex_ingest::parse_jsonl(jsonl)
        .expect("generated records parse")
        .iter()
        .map(|m| m.parse().expect("generated records validate"))
        .collect();
    let engine = engine.get_or_insert_with(|| {
        crate::setup::daemon_engine(state).expect("engine seeds from the serving state")
    });
    for op in &ops {
        tracer.span("ingest.apply", || engine.apply(op)).expect("generated records apply");
    }
    if engine.pending() == 0 {
        return;
    }
    let summary = tracer.span("ingest.publish", || engine.publish_epoch());
    let old = Arc::clone(state);
    let next = tracer.span("serve.state.rebuild", || {
        ServeState::from_parts(
            old.dataset(),
            engine.db().clone(),
            engine.model().clone(),
            engine.views_set(),
        )
    });
    *state = Arc::new(next);
    tracer.span("serve.cache", || {
        for &class in &summary.dirty_classes {
            cache.invalidate(old.fingerprint(), class);
        }
    });
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Per-name totals: calls, summed duration and summed self time (ns).
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// Writes the spans as JSON Lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start, s.end, s.op
        )?;
    }
    out.flush()
}
