//! [`ServeState`]: the immutable per-generation serving bundle, and
//! [`answer`]: the one request → response function every entry point
//! shares.
//!
//! A state is everything one generation of serving needs, owned and
//! read-only: the materialized database, the trained model, the mined
//! views with their query index, and a warm [`SessionPool`]. The daemon
//! holds the current state behind an `Arc` and *swaps the whole bundle
//! atomically* on reload — the pool travels with the model because trace
//! caches are tied to one model's weights (see [`SessionPool`]'s
//! contract), and the index travels with the views because it borrowed
//! nothing but must describe exactly them.
//!
//! Answers are rendered to JSON *here*, not at the socket layer, so the
//! CLI one-shot path, the bench harness's cold arm, and the daemon's
//! workers produce literally the same bytes for the same request — and the
//! answer cache can store those bytes verbatim.

use crate::cache::CacheKey;
use crate::protocol::{Request, Response};
use gvex_core::{
    index_views, Configuration, ExplanationViewSet, GreedyStrategy, SelectionStrategy, SessionPool,
    StreamStrategy, ViewIndex,
};
use gvex_gnn::{graph_fingerprint, GcnModel};
use gvex_graph::GraphDatabase;
use gvex_store::Store;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Coverage upper bound used when a request leaves `upper` unset — the
/// same default `gvex explain` applies.
pub const DEFAULT_UPPER: usize = 10;

/// Errors opening or rebuilding a serving state.
#[derive(Debug)]
pub enum ServeError {
    /// The store file failed to open or validate.
    Store(String),
    /// The store's view section is missing or unparseable.
    Views(String),
    /// Reload was asked to re-open a state that has no file source.
    NoSource,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Views(e) => write!(f, "views error: {e}"),
            ServeError::NoSource => write!(f, "state has no file source to reload from"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One generation of serving state. Construct via [`ServeState::open`] or
/// [`ServeState::from_parts`]; never mutated afterwards.
pub struct ServeState {
    source: Option<PathBuf>,
    dataset: String,
    seed: u64,
    epoch: u64,
    db: GraphDatabase,
    model: GcnModel,
    views: ExplanationViewSet,
    index: ViewIndex,
    pool: SessionPool,
    fingerprint: u64,
}

impl ServeState {
    /// Opens a `.gvex` store and materializes a serving state from it:
    /// owned database, owned model, deserialized views, query index, fresh
    /// session pool, and the store's generation seed and epoch.
    pub fn open(path: &Path) -> Result<Self, ServeError> {
        gvex_obs::span!("serve.state_open");
        let store = Store::open(path).map_err(|e| ServeError::Store(e.to_string()))?;
        let db = store.database();
        let model = store.model();
        let views = match store.views_json() {
            Some(json) => ExplanationViewSet::from_json(json).map_err(ServeError::Views)?,
            None => ExplanationViewSet::default(),
        };
        let meta = store.meta();
        let state =
            Self::assemble(Some(path.to_path_buf()), meta.dataset.clone(), db, model, views);
        Ok(Self { seed: meta.seed, epoch: meta.epoch, ..state })
    }

    /// Builds a serving state from already-materialized parts (generated
    /// datasets, tests, the non-`--db` CLI paths); its seed and epoch are 0.
    pub fn from_parts(
        dataset: &str,
        db: GraphDatabase,
        model: GcnModel,
        views: ExplanationViewSet,
    ) -> Self {
        Self::assemble(None, dataset.to_string(), db, model, views)
    }

    fn assemble(
        source: Option<PathBuf>,
        dataset: String,
        db: GraphDatabase,
        model: GcnModel,
        views: ExplanationViewSet,
    ) -> Self {
        // Index with the default matching semantics — the same choice
        // `gvex query` makes — so served query answers and CLI query
        // answers come from identical indexes.
        let index = index_views(&views);
        let fingerprint = content_fingerprint(&db, &model, &views);
        gvex_obs::counter!("serve.state_builds");
        Self {
            source,
            dataset,
            seed: 0,
            epoch: 0,
            db,
            model,
            views,
            index,
            pool: SessionPool::new(),
            fingerprint,
        }
    }

    /// Attaches a reload source to a state built from parts — the epoch
    /// publisher preserves the original store path across mutate swaps so
    /// a later `reload` request still knows where home is.
    pub fn with_source(mut self, source: Option<PathBuf>) -> Self {
        self.source = source;
        self
    }

    /// Rebuilds a state for a reload: from `path` when non-empty, else by
    /// re-opening this state's own source file.
    pub fn reload_target(&self, path: &str) -> Result<Self, ServeError> {
        let target = if path.is_empty() {
            self.source.clone().ok_or(ServeError::NoSource)?
        } else {
            PathBuf::from(path)
        };
        Self::open(&target)
    }

    /// The store file this state was opened from, if any.
    pub fn source(&self) -> Option<&Path> {
        self.source.as_deref()
    }

    /// Dataset label recorded in the store metadata.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Generation seed recorded in the store metadata (0 for states built
    /// from parts).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ingest epoch recorded in the store metadata (0 for states built
    /// from parts): a live ingest engine started on this state continues
    /// from it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The materialized graph database.
    pub fn db(&self) -> &GraphDatabase {
        &self.db
    }

    /// The trained classifier.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// The mined explanation views (possibly empty).
    pub fn views(&self) -> &ExplanationViewSet {
        &self.views
    }

    /// The query index over [`Self::views`].
    pub fn index(&self) -> &ViewIndex {
        &self.index
    }

    /// The state's warm session pool.
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Content fingerprint: a hash of the graphs, truth labels, model
    /// weights, and serialized views. Reload-stable — two states opened
    /// from byte-identical content fingerprint identically, so answer-cache
    /// entries survive a no-op reload.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

fn content_fingerprint(db: &GraphDatabase, model: &GcnModel, views: &ExplanationViewSet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for g in db.graphs() {
        graph_fingerprint(g).hash(&mut h);
    }
    db.truth().hash(&mut h);
    let cfg = model.config();
    (cfg.input_dim, cfg.hidden, cfg.layers, cfg.num_classes).hash(&mut h);
    for i in 0..cfg.layers {
        for w in model.conv_weight(i).as_slice() {
            w.to_bits().hash(&mut h);
        }
    }
    for w in model.fc_weight().as_slice() {
        w.to_bits().hash(&mut h);
    }
    for w in model.fc_bias().as_slice() {
        w.to_bits().hash(&mut h);
    }
    if let Some(g) = model.edge_gates() {
        for w in g.as_slice() {
            w.to_bits().hash(&mut h);
        }
    }
    views.to_json().hash(&mut h);
    h.finish()
}

/// The cache key for a request, or `None` when the request kind is not
/// cacheable (control requests, `ping`, `stats`).
pub fn cache_key(state: &ServeState, req: &Request) -> Option<CacheKey> {
    let fingerprint = state.fingerprint();
    match req.kind.as_str() {
        "explain" => Some(CacheKey {
            fingerprint,
            kind: 1,
            class: req.label.unwrap_or(u64::MAX),
            a: effective_upper(req) as u64,
            b: u64::from(req.stream),
        }),
        "node" => Some(CacheKey {
            fingerprint,
            kind: 2,
            class: req.graph.unwrap_or(u64::MAX),
            a: req.target.unwrap_or(u64::MAX),
            b: effective_upper(req) as u64,
        }),
        "query" => Some(CacheKey {
            fingerprint,
            kind: 3,
            class: req.label.or(req.discriminative).unwrap_or(u64::MAX),
            a: req.label.map_or(u64::MAX, |l| l + 1),
            b: req.discriminative.map_or(u64::MAX, |l| l + 1),
        }),
        _ => None,
    }
}

/// Answers one request against a state — the single implementation behind
/// the daemon's workers, `gvex request`, and the bench harness. Pure with
/// respect to the state's content: equal (state fingerprint, request)
/// pairs produce byte-identical bodies, which is the contract the answer
/// cache and the determinism tests rely on.
pub fn answer(state: &ServeState, req: &Request) -> Response {
    match req.kind.as_str() {
        "ping" => Response::success("{\"pong\":true}".to_string()),
        "stats" => answer_stats(state),
        "explain" => answer_explain(state, req),
        "node" => answer_node(state, req),
        "query" => answer_query(state, req),
        "reload" | "shutdown" => {
            Response::fail(format!("control request '{}' must go through a server", req.kind))
        }
        other => Response::fail(format!("unknown request kind '{other}'")),
    }
}

fn answer_stats(state: &ServeState) -> Response {
    let _req = gvex_obs::context::ReqScope::begin("serve.stats");
    let mut body = String::new();
    write!(
        body,
        "{{\"dataset\":{},\"graphs\":{},\"classes\":{},\"views\":{},\"patterns\":{},\"fingerprint\":{}}}",
        serde_json::to_string(&state.dataset().to_string()).expect("string serializes"),
        state.db().len(),
        state.db().num_classes(),
        state.views().views.len(),
        state.index().patterns().len(),
        state.fingerprint(),
    )
    .expect("writing to String cannot fail");
    Response::success(body)
}

/// The coverage upper bound a request is answered under: absent or 0 means
/// [`DEFAULT_UPPER`]. The cache key and the configuration both read it, so
/// requests that compute the same answer share one cache entry.
fn effective_upper(req: &Request) -> usize {
    match req.upper {
        Some(u) if u > 0 => u as usize,
        _ => DEFAULT_UPPER,
    }
}

pub(crate) fn config_for(req: &Request) -> Configuration {
    Configuration::paper_mut(effective_upper(req))
}

fn answer_explain(state: &ServeState, req: &Request) -> Response {
    let _req = gvex_obs::context::ReqScope::begin("serve.explain");
    gvex_obs::counter!("serve.requests.explain");
    let labels: Vec<usize> = match req.label {
        Some(l) => {
            if l as usize >= state.db().num_classes() {
                return Response::fail(format!("label {l} out of range"));
            }
            vec![l as usize]
        }
        None => (0..state.db().num_classes()).collect(),
    };
    let lease = state.pool().checkout();
    let session = match lease.session(state.model(), config_for(req)) {
        Ok(s) => s,
        Err(e) => return Response::fail(format!("invalid configuration: {e}")),
    };
    let strategy: &dyn SelectionStrategy =
        if req.stream { &StreamStrategy } else { &GreedyStrategy };
    let views = session.explain(strategy, state.db(), &labels);
    let body = if req.label.is_some() {
        serde_json::to_string(&views.views[0]).expect("view serializes")
    } else {
        views.to_json()
    };
    Response::success(body)
}

fn answer_node(state: &ServeState, req: &Request) -> Response {
    let _req = gvex_obs::context::ReqScope::begin("serve.node");
    gvex_obs::counter!("serve.requests.node");
    let (Some(graph), Some(target)) = (req.graph, req.target) else {
        return Response::fail("node request needs 'graph' and 'target'");
    };
    if graph as usize >= state.db().len() {
        return Response::fail(format!("graph {graph} out of range"));
    }
    let g = state.db().graph(graph as usize);
    let lease = state.pool().checkout();
    let session = match lease.session(state.model(), config_for(req)) {
        Ok(s) => s,
        Err(e) => return Response::fail(format!("invalid configuration: {e}")),
    };
    match session.explain_node(g, target as usize) {
        Some(view) => {
            Response::success(serde_json::to_string(&view).expect("node view serializes"))
        }
        None => Response::fail(format!("no explanation for node {target} of graph {graph}")),
    }
}

fn answer_query(state: &ServeState, req: &Request) -> Response {
    let _req = gvex_obs::context::ReqScope::begin("serve.query");
    gvex_obs::counter!("serve.requests.query");
    let idx = state.index();
    let mut body = String::new();
    write!(body, "{{\"patterns\":{},\"views\":{}", idx.patterns().len(), state.views().views.len())
        .expect("writing to String cannot fail");
    if let Some(l) = req.label {
        let pids = idx.patterns_of_label(l as usize);
        write!(body, ",\"label\":{l},\"label_patterns\":{}", join_usize(&pids))
            .expect("writing to String cannot fail");
        body.push_str(",\"matches\":[");
        let mut first = true;
        for pid in pids {
            for (g, s) in idx.graphs_matching(pid) {
                if !first {
                    body.push(',');
                }
                first = false;
                write!(body, "[{pid},{g},{s}]").expect("writing to String cannot fail");
            }
        }
        body.push(']');
    }
    if let Some(l) = req.discriminative {
        let pids = idx.discriminative_patterns(l as usize);
        write!(body, ",\"discriminative_label\":{l},\"discriminative\":{}", join_usize(&pids))
            .expect("writing to String cannot fail");
    }
    body.push('}');
    Response::success(body)
}

fn join_usize(vals: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("writing to String cannot fail");
    }
    out.push(']');
    out
}
