//! [`IngestEngine`]: a live database plus its explanation views, patched
//! in place by [`ViewMaintainer`] (IncPGen/IncPMatch) as mutations arrive.
//!
//! The engine owns one mutable copy of everything a `.gvex` store holds —
//! database, model, per-class views — and applies validated [`Op`]s at
//! high rate. Each mutation patches only the touched label's view
//! (subgraph re-explained, patterns extended/garbage-collected *only when
//! necessary*, per Example 2.1) instead of recomputing every view. Epochs
//! ([`IngestEngine::publish_epoch`]) batch mutations into a consistent
//! unit: the caller re-materializes serving state from
//! [`IngestEngine::views_set`] and invalidates the returned dirty classes,
//! which bounds staleness at one epoch interval.
//!
//! # Equivalence contract
//!
//! Under the default content-deterministic influence mode, the engine's
//! subgraph tier and explainability scores are **bitwise identical** to a
//! from-scratch [`rebuild_views`] over the mutated database; the pattern
//! tier is *a* valid cover (C3/PMatch holds for every subgraph) but may
//! name different representatives than scratch `Psum` — exactly the
//! paper's "it suffices to keep only P₁₁ or P₃₂" freedom.
//! [`check_equivalent`] pins all of this and is enforced by the proptest
//! differential suite and the `ingest` bench gate in ci.sh.

use crate::log::Op;
use gvex_core::parallel::ThreadPoolBuilder;
use gvex_core::{
    pmatch, Configuration, ExplainSession, ExplanationView, ExplanationViewSet, GreedyStrategy,
    MaintainError, ViewMaintainer,
};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDatabase};
use gvex_store::{write_store, BuildInput, StoreError};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Why a mutation could not be applied. The engine rejects the op and
/// stays consistent — a bad record in a replayed log never corrupts state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// Graph index past the end of the database.
    GraphOutOfRange {
        /// Requested index.
        index: usize,
        /// Current database size.
        len: usize,
    },
    /// Node id past the end of the target graph.
    NodeOutOfRange {
        /// Target graph.
        graph: usize,
        /// Requested node.
        node: usize,
        /// That graph's node count.
        len: usize,
    },
    /// `remove_edge` named an edge the graph does not have.
    EdgeAbsent {
        /// Target graph.
        graph: usize,
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// `add_edge` named an edge the graph already has.
    EdgeExists {
        /// Target graph.
        graph: usize,
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Self-loops are not representable.
    SelfLoop {
        /// Target graph.
        graph: usize,
        /// The offending node.
        node: usize,
    },
    /// `remove_node` would leave the graph empty.
    LastNode {
        /// Target graph.
        graph: usize,
    },
    /// `add_graph` carried an empty graph.
    EmptyGraph,
    /// `add_graph` truth label out of class range.
    TruthOutOfRange {
        /// The label.
        truth: usize,
        /// Number of classes.
        classes: usize,
    },
    /// `add_graph` payload features disagree with the database.
    FeatureDimMismatch {
        /// The database's feature dimensionality.
        expected: usize,
        /// The payload's.
        got: usize,
    },
    /// `add_graph` payload directedness disagrees with the database.
    DirectedMismatch,
    /// The view set handed to [`IngestEngine::new`] does not hold one
    /// view per class in label order.
    ViewsMismatch {
        /// Expected view count (= classes).
        expected: usize,
        /// What was provided.
        got: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::GraphOutOfRange { index, len } => {
                write!(f, "graph {index} out of range (database holds {len})")
            }
            IngestError::NodeOutOfRange { graph, node, len } => {
                write!(f, "node {node} out of range for graph {graph} ({len} nodes)")
            }
            IngestError::EdgeAbsent { graph, u, v } => {
                write!(f, "graph {graph} has no edge {u}-{v}")
            }
            IngestError::EdgeExists { graph, u, v } => {
                write!(f, "graph {graph} already has edge {u}-{v}")
            }
            IngestError::SelfLoop { graph, node } => {
                write!(f, "self-loop {node}-{node} rejected for graph {graph}")
            }
            IngestError::LastNode { graph } => {
                write!(f, "cannot remove the last node of graph {graph}")
            }
            IngestError::EmptyGraph => write!(f, "cannot ingest an empty graph"),
            IngestError::TruthOutOfRange { truth, classes } => {
                write!(f, "truth label {truth} out of range ({classes} classes)")
            }
            IngestError::FeatureDimMismatch { expected, got } => {
                write!(f, "feature dim {got} does not match database dim {expected}")
            }
            IngestError::DirectedMismatch => {
                write!(f, "payload directedness does not match the database")
            }
            IngestError::ViewsMismatch { expected, got } => {
                write!(
                    f,
                    "need one view per class in label order ({expected} classes, {got} views)"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Running totals the engine keeps (mirrored into `ingest.*` obs
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Mutations successfully applied.
    pub mutations_applied: u64,
    /// Epochs published.
    pub epochs_published: u64,
    /// Incremental view patches (maintainer add/remove operations).
    pub views_patched: u64,
    /// Full per-label view recomputes (the non-incremental fallback the
    /// differential/bench reference arms exercise).
    pub views_recomputed: u64,
}

/// What one [`IngestEngine::publish_epoch`] covered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSummary {
    /// The epoch number just published.
    pub epoch: u64,
    /// Mutations folded into this epoch.
    pub mutations: usize,
    /// Cache-key `class` values whose cached answers the publisher must
    /// invalidate: every dirtied class label, every mutated graph index
    /// (node-kind answers), and `u64::MAX` (whole-database answers).
    pub dirty_classes: Vec<u64>,
    /// Per-mutation staleness (apply → publish), milliseconds.
    pub staleness_ms: Vec<u64>,
}

/// A live database + views under incremental maintenance.
pub struct IngestEngine {
    dataset: String,
    seed: u64,
    db: GraphDatabase,
    model: GcnModel,
    cfg: Configuration,
    maintainer: ViewMaintainer,
    views: Vec<ExplanationView>,
    /// Classifier-assigned label per graph (routing table for patches).
    assigned: Vec<usize>,
    epoch: u64,
    dirty_classes: BTreeSet<usize>,
    dirty_graphs: BTreeSet<usize>,
    pending: Vec<Instant>,
    stats: IngestStats,
}

impl IngestEngine {
    /// Builds an engine over already-materialized parts. `views` must hold
    /// one view per class in label order (what [`rebuild_views`] and
    /// `gvex db build` produce); `epoch` seeds the epoch counter (a
    /// snapshot's `meta.epoch` when resuming, else 0).
    pub fn new(
        dataset: &str,
        seed: u64,
        db: GraphDatabase,
        model: GcnModel,
        cfg: Configuration,
        views: ExplanationViewSet,
        epoch: u64,
    ) -> Result<Self, IngestError> {
        let classes = db.num_classes();
        let labels_ok = views.views.len() == classes
            && views.views.iter().enumerate().all(|(l, v)| v.label == l);
        if !labels_ok {
            return Err(IngestError::ViewsMismatch { expected: classes, got: views.views.len() });
        }
        let maintainer = ViewMaintainer::new(cfg.clone());
        let assigned = db.graphs().iter().map(|g| maintainer.predict(&model, g)).collect();
        // counters registered up front so every replay reports both sides
        // of the patched-vs-recomputed split, even when one stays 0
        gvex_obs::counter!("ingest.views_patched", 0);
        gvex_obs::counter!("ingest.views_recomputed", 0);
        Ok(Self {
            dataset: dataset.to_string(),
            seed,
            db,
            model,
            cfg,
            maintainer,
            views: views.views,
            assigned,
            epoch,
            dirty_classes: BTreeSet::new(),
            dirty_graphs: BTreeSet::new(),
            pending: Vec::new(),
            stats: IngestStats::default(),
        })
    }

    /// The live database.
    pub fn db(&self) -> &GraphDatabase {
        &self.db
    }

    /// The (fixed) classifier.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// The maintenance configuration.
    pub fn cfg(&self) -> &Configuration {
        &self.cfg
    }

    /// The classifier-assigned label of each live graph.
    pub fn assigned(&self) -> &[usize] {
        &self.assigned
    }

    /// Last published epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mutations applied but not yet folded into a published epoch.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Running totals.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The current views, cloned into the serializable set form (label
    /// order, the same shape [`rebuild_views`] returns).
    pub fn views_set(&self) -> ExplanationViewSet {
        ExplanationViewSet { views: self.views.clone() }
    }

    /// Applies one validated mutation, patching the affected view
    /// incrementally. On error the engine is unchanged.
    pub fn apply(&mut self, op: &Op) -> Result<(), IngestError> {
        gvex_obs::span!("ingest.apply");
        match op {
            Op::AddGraph { graph, truth } => self.add_graph(graph.clone(), *truth)?,
            Op::RemoveGraph { index } => self.remove_graph(*index)?,
            _ => {
                let (gi, edited) = self.edited_graph(op)?;
                self.replace_edited(gi, edited);
            }
        }
        self.stats.mutations_applied += 1;
        gvex_obs::counter!("ingest.mutations_applied");
        self.pending.push(Instant::now());
        Ok(())
    }

    /// Publishes the pending mutations as one epoch: bumps the epoch
    /// counter, records per-mutation staleness, and returns the dirty
    /// class set the caller must invalidate when swapping serving state.
    pub fn publish_epoch(&mut self) -> EpochSummary {
        gvex_obs::span!("ingest.publish");
        self.epoch += 1;
        let now = Instant::now();
        let staleness_ms: Vec<u64> = self
            .pending
            .drain(..)
            .map(|t| u64::try_from(now.duration_since(t).as_millis()).unwrap_or(u64::MAX))
            .collect();
        for &ms in &staleness_ms {
            gvex_obs::histogram!("ingest.staleness_ms", ms);
        }
        let mut dirty: Vec<u64> = self.dirty_classes.iter().map(|&c| c as u64).collect();
        dirty.extend(self.dirty_graphs.iter().map(|&g| g as u64));
        if !staleness_ms.is_empty() {
            dirty.push(u64::MAX);
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.dirty_classes.clear();
        self.dirty_graphs.clear();
        self.stats.epochs_published += 1;
        gvex_obs::counter!("ingest.epochs_published");
        EpochSummary {
            epoch: self.epoch,
            mutations: staleness_ms.len(),
            dirty_classes: dirty,
            staleness_ms,
        }
    }

    /// Writes the engine's current content as a `.gvex` epoch snapshot —
    /// re-openable by `gvex serve --db` and `ServeState::open`, with
    /// `meta.epoch` recording the lifecycle position.
    pub fn snapshot(&self, path: &Path) -> Result<u64, StoreError> {
        gvex_obs::span!("ingest.snapshot");
        let views_json = self.views_set().to_json();
        let input = BuildInput {
            db: &self.db,
            model: &self.model,
            views_json: Some(&views_json),
            dataset: &self.dataset,
            seed: self.seed,
            mining: Some(self.cfg.mining),
            epoch: self.epoch,
        };
        write_store(path, &input)
    }

    /// From-scratch recompute of every view over the engine's current
    /// database — the reference arm of the differential and the bench.
    /// Runs in the caller's rayon pool (or at `GVEX_THREADS` workers).
    pub fn rebuilt(&mut self) -> ExplanationViewSet {
        self.stats.views_recomputed += self.db.num_classes() as u64;
        explain_all(&self.model, &self.db, &self.cfg)
    }

    fn note_patch(&mut self) {
        self.stats.views_patched += 1;
        gvex_obs::counter!("ingest.views_patched");
    }

    /// Re-sorts a view's subgraphs into database order and recomputes the
    /// aggregate score as the in-order sum — the exact order
    /// `summarize` uses, which keeps incremental scores bitwise equal to
    /// recomputed ones.
    fn normalize(&mut self, label: usize) {
        let view = &mut self.views[label];
        view.subgraphs.sort_by_key(|s| s.graph_index);
        view.explainability = view.subgraphs.iter().map(|s| s.explainability).sum();
    }

    fn check_graph(&self, index: usize) -> Result<(), IngestError> {
        if index >= self.db.len() {
            return Err(IngestError::GraphOutOfRange { index, len: self.db.len() });
        }
        Ok(())
    }

    fn check_node(&self, graph: usize, node: usize) -> Result<(), IngestError> {
        let len = self.db.graph(graph).num_nodes();
        if node >= len {
            return Err(IngestError::NodeOutOfRange { graph, node, len });
        }
        Ok(())
    }

    fn add_graph(&mut self, g: Graph, truth: usize) -> Result<(), IngestError> {
        if g.num_nodes() == 0 {
            return Err(IngestError::EmptyGraph);
        }
        if truth >= self.db.num_classes() {
            return Err(IngestError::TruthOutOfRange { truth, classes: self.db.num_classes() });
        }
        if !self.db.is_empty() {
            if g.feature_dim() != self.db.feature_dim() {
                return Err(IngestError::FeatureDimMismatch {
                    expected: self.db.feature_dim(),
                    got: g.feature_dim(),
                });
            }
            if g.is_directed() != self.db.graph(0).is_directed() {
                return Err(IngestError::DirectedMismatch);
            }
        }
        let gi = self.db.push(g, truth);
        let predicted = self.maintainer.predict(&self.model, self.db.graph(gi));
        self.assigned.push(predicted);
        self.patch_in(predicted, gi);
        self.dirty_classes.insert(predicted);
        self.dirty_graphs.insert(gi);
        Ok(())
    }

    fn remove_graph(&mut self, index: usize) -> Result<(), IngestError> {
        self.check_graph(index)?;
        let label = self.assigned[index];
        match self.maintainer.remove_graph(&mut self.views[label], index) {
            Ok(()) => self.note_patch(),
            Err(MaintainError::GraphAbsent { .. }) => {} // graph had no explanation
            Err(e) => unreachable!("remove_graph only reports absence: {e}"),
        }
        self.db.remove_graph(index);
        self.assigned.remove(index);
        // later graphs shifted down by one; views track database indices
        for view in &mut self.views {
            for s in &mut view.subgraphs {
                if s.graph_index > index {
                    s.graph_index -= 1;
                }
            }
        }
        self.normalize(label);
        self.dirty_classes.insert(label);
        self.dirty_graphs.insert(index);
        Ok(())
    }

    /// Builds the post-edit graph for an edge/node op without touching
    /// engine state (validation happens here; mutation in
    /// [`Self::replace_edited`]).
    fn edited_graph(&self, op: &Op) -> Result<(usize, Graph), IngestError> {
        match *op {
            Op::AddEdge { graph, u, v, etype } => {
                self.check_graph(graph)?;
                self.check_node(graph, u)?;
                self.check_node(graph, v)?;
                if u == v {
                    return Err(IngestError::SelfLoop { graph, node: u });
                }
                let g = self.db.graph(graph);
                if g.has_edge(u, v) {
                    return Err(IngestError::EdgeExists { graph, u, v });
                }
                Ok((graph, with_edge_added(g, u, v, etype)))
            }
            Op::RemoveEdge { graph, u, v } => {
                self.check_graph(graph)?;
                self.check_node(graph, u)?;
                self.check_node(graph, v)?;
                let g = self.db.graph(graph);
                if !g.has_edge(u, v) {
                    return Err(IngestError::EdgeAbsent { graph, u, v });
                }
                Ok((graph, with_edge_removed(g, u, v)))
            }
            Op::AddNode { graph, ntype, ref features, ref attach, etype } => {
                self.check_graph(graph)?;
                for &a in attach {
                    self.check_node(graph, a)?;
                }
                let g = self.db.graph(graph);
                if g.feature_dim() != features.len() {
                    return Err(IngestError::FeatureDimMismatch {
                        expected: g.feature_dim(),
                        got: features.len(),
                    });
                }
                Ok((graph, with_node_added(g, ntype, features, attach, etype)))
            }
            Op::RemoveNode { graph, node } => {
                self.check_graph(graph)?;
                self.check_node(graph, node)?;
                let g = self.db.graph(graph);
                if g.num_nodes() == 1 {
                    return Err(IngestError::LastNode { graph });
                }
                Ok((graph, with_node_removed(g, node)))
            }
            Op::AddGraph { .. } | Op::RemoveGraph { .. } => {
                unreachable!("graph-level ops handled by apply")
            }
        }
    }

    /// Swaps in an edited graph and re-routes its explanation: drop the
    /// old subgraph from the old label's view, re-explain under the (new)
    /// predicted label. The edit is localized — no other graph's
    /// explanation is touched.
    fn replace_edited(&mut self, gi: usize, edited: Graph) {
        let old_label = self.assigned[gi];
        match self.maintainer.remove_graph(&mut self.views[old_label], gi) {
            Ok(()) => self.note_patch(),
            Err(MaintainError::GraphAbsent { .. }) => {}
            Err(e) => unreachable!("remove_graph only reports absence: {e}"),
        }
        self.db.replace_graph(gi, edited);
        let new_label = self.maintainer.predict(&self.model, self.db.graph(gi));
        self.assigned[gi] = new_label;
        self.patch_in(new_label, gi);
        self.normalize(old_label);
        self.dirty_classes.insert(old_label);
        self.dirty_classes.insert(new_label);
        self.dirty_graphs.insert(gi);
    }

    /// Explains `db.graph(gi)` into the view for its predicted `label`.
    fn patch_in(&mut self, label: usize, gi: usize) {
        match self.maintainer.add_graph(&self.model, &mut self.views[label], self.db.graph(gi), gi)
        {
            Ok(_) => self.note_patch(),
            // Algorithm 1's `return ∅`: a recompute would omit it too.
            Err(MaintainError::NotExplainable { .. }) => {}
            Err(e) => unreachable!("graph routed to its predicted label: {e}"),
        }
        self.normalize(label);
    }
}

/// From-scratch view generation over `db` — the reference the incremental
/// engine is differentially pinned against, and the slow arm of the
/// `ingest` bench. Runs the session's driver inside a pool of `threads`
/// workers (0 = the default count); the views are the same at any count.
pub fn rebuild_views(
    model: &GcnModel,
    db: &GraphDatabase,
    cfg: &Configuration,
    threads: usize,
) -> ExplanationViewSet {
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
    pool.install(|| explain_all(model, db, cfg))
}

/// Every class's view of `db`, explained in the current pool.
fn explain_all(model: &GcnModel, db: &GraphDatabase, cfg: &Configuration) -> ExplanationViewSet {
    gvex_obs::counter!("ingest.views_recomputed", db.num_classes() as u64);
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let sess = ExplainSession::new(model, cfg.clone()).unwrap_or_else(|e| panic!("{e}"));
    sess.explain(&GreedyStrategy, db, &labels)
}

/// Outcome of [`check_equivalent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Equivalence {
    /// All checks passed.
    pub ok: bool,
    /// First failing check, for diagnostics ("" when ok).
    pub detail: String,
}

/// Pins the incremental-vs-recompute equivalence contract:
///
/// 1. same labels, same subgraph counts,
/// 2. subgraph tiers byte-identical (serialized in database order),
/// 3. per-view explainability scores bitwise equal,
/// 4. C3 holds crosswise: `inc`'s patterns cover every subgraph of
///    `full` (the pattern tiers may differ as covers, never in validity).
pub fn check_equivalent(
    inc: &ExplanationViewSet,
    full: &ExplanationViewSet,
    cfg: &Configuration,
) -> Equivalence {
    let fail = |detail: String| Equivalence { ok: false, detail };
    if inc.views.len() != full.views.len() {
        return fail(format!("view count {} vs {}", inc.views.len(), full.views.len()));
    }
    for (vi, vf) in inc.views.iter().zip(&full.views) {
        let l = vf.label;
        if vi.label != l {
            return fail(format!("label order {} vs {l}", vi.label));
        }
        if vi.subgraphs.len() != vf.subgraphs.len() {
            return fail(format!(
                "label {l}: {} subgraphs incremental vs {} recomputed",
                vi.subgraphs.len(),
                vf.subgraphs.len()
            ));
        }
        let si = serde_json::to_string(&vi.subgraphs).expect("subgraphs serialize");
        let sf = serde_json::to_string(&vf.subgraphs).expect("subgraphs serialize");
        if si != sf {
            return fail(format!("label {l}: subgraph tier differs"));
        }
        if vi.explainability.to_bits() != vf.explainability.to_bits() {
            return fail(format!(
                "label {l}: explainability {} vs {}",
                vi.explainability, vf.explainability
            ));
        }
        for s in &vf.subgraphs {
            if !pmatch(&vi.patterns, &s.subgraph, cfg) {
                return fail(format!(
                    "label {l}: incremental patterns fail to cover graph {}",
                    s.graph_index
                ));
            }
        }
    }
    Equivalence { ok: true, detail: String::new() }
}

fn copy_nodes(g: &Graph, skip: Option<usize>) -> (gvex_graph::GraphBuilder, Vec<usize>) {
    let mut b = Graph::builder(g.is_directed());
    let mut remap = vec![usize::MAX; g.num_nodes()];
    for (v, slot) in remap.iter_mut().enumerate() {
        if Some(v) == skip {
            continue;
        }
        *slot = b.add_node(g.node_type(v), g.features().row(v));
    }
    (b, remap)
}

/// `g` plus edge `u-v` of type `t`.
pub fn with_edge_added(g: &Graph, u: usize, v: usize, t: u32) -> Graph {
    let (mut b, _) = copy_nodes(g, None);
    for (a, c, et) in g.edges() {
        b.add_edge(a, c, et);
    }
    b.add_edge(u, v, t);
    b.build()
}

/// `g` without edge `u-v` (either endpoint order for undirected graphs).
pub fn with_edge_removed(g: &Graph, u: usize, v: usize) -> Graph {
    let (mut b, _) = copy_nodes(g, None);
    for (a, c, et) in g.edges() {
        let doomed = (a == u && c == v) || (!g.is_directed() && a == v && c == u);
        if !doomed {
            b.add_edge(a, c, et);
        }
    }
    b.build()
}

/// `g` plus one node of type `ntype` with `features`, attached to each
/// node of `attach` by an edge of type `etype`.
pub fn with_node_added(
    g: &Graph,
    ntype: u32,
    features: &[f32],
    attach: &[usize],
    etype: u32,
) -> Graph {
    let (mut b, _) = copy_nodes(g, None);
    for (a, c, et) in g.edges() {
        b.add_edge(a, c, et);
    }
    let newbie = b.add_node(ntype, features);
    for &a in attach {
        b.add_edge(a, newbie, etype);
    }
    b.build()
}

/// `g` without node `node` and its incident edges; later node ids shift
/// down by one.
pub fn with_node_removed(g: &Graph, node: usize) -> Graph {
    let (mut b, remap) = copy_nodes(g, Some(node));
    for (a, c, et) in g.edges() {
        if a != node && c != node {
            b.add_edge(remap[a], remap[c], et);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{trainer, GcnConfig};

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

    fn setup() -> (GraphDatabase, GcnModel, Configuration) {
        let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
        for i in 0..6 {
            db.push(plain_graph(5 + i % 2), 0);
            db.push(motif_graph(4 + i % 2), 1);
        }
        let split = trainer::Split {
            train: (0..db.len()).collect(),
            val: (0..db.len()).collect(),
            test: vec![],
        };
        let gcfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
        let opts = trainer::TrainOptions {
            epochs: 80,
            lr: 0.01,
            seed: 1,
            patience: 0,
            ..Default::default()
        };
        let (model, _) = trainer::train(&db, gcfg, &split, opts);
        (db, model, Configuration::uniform(0.05, 0.3, 0.5, 0, 4))
    }

    fn engine() -> (IngestEngine, Configuration) {
        let (db, model, cfg) = setup();
        let views = rebuild_views(&model, &db, &cfg, 1);
        let eng = IngestEngine::new("TEST", 7, db, model, cfg.clone(), views, 0).unwrap();
        (eng, cfg)
    }

    #[test]
    fn localized_edits_match_full_recompute() {
        let (mut eng, cfg) = engine();
        let ops = [
            Op::AddEdge { graph: 1, u: 0, v: 2, etype: 0 },
            Op::AddNode {
                graph: 3,
                ntype: 0,
                features: vec![1.0, 0.0, 0.0],
                attach: vec![1],
                etype: 0,
            },
            Op::RemoveEdge { graph: 1, u: 0, v: 2 },
        ];
        for op in &ops {
            eng.apply(op).expect("op applies");
        }
        let full = eng.rebuilt();
        let eq = check_equivalent(&eng.views_set(), &full, &cfg);
        assert!(eq.ok, "incremental != recompute: {}", eq.detail);
        assert_eq!(eng.stats().mutations_applied, 3);
        assert!(eng.stats().views_patched > 0);
    }

    #[test]
    fn graph_churn_matches_full_recompute() {
        let (mut eng, cfg) = engine();
        let newcomer = motif_graph(5);
        eng.apply(&Op::AddGraph { graph: newcomer, truth: 1 }).expect("add applies");
        assert_eq!(eng.db().len(), 13);
        eng.apply(&Op::RemoveGraph { index: 2 }).expect("remove applies");
        assert_eq!(eng.db().len(), 12);
        // indices in every view now reference the shifted database
        for view in &eng.views_set().views {
            for s in &view.subgraphs {
                assert!(s.graph_index < 12);
            }
        }
        let full = eng.rebuilt();
        let eq = check_equivalent(&eng.views_set(), &full, &cfg);
        assert!(eq.ok, "churn incremental != recompute: {}", eq.detail);
    }

    #[test]
    fn invalid_ops_are_typed_and_leave_state_alone() {
        let (mut eng, _) = engine();
        let before = eng.views_set().to_json();
        assert_eq!(
            eng.apply(&Op::RemoveGraph { index: 99 }),
            Err(IngestError::GraphOutOfRange { index: 99, len: 12 })
        );
        assert_eq!(
            eng.apply(&Op::AddEdge { graph: 0, u: 0, v: 1, etype: 0 }),
            Err(IngestError::EdgeExists { graph: 0, u: 0, v: 1 })
        );
        assert_eq!(
            eng.apply(&Op::AddEdge { graph: 0, u: 1, v: 1, etype: 0 }),
            Err(IngestError::SelfLoop { graph: 0, node: 1 })
        );
        assert_eq!(
            eng.apply(&Op::RemoveEdge { graph: 0, u: 0, v: 3 }),
            Err(IngestError::EdgeAbsent { graph: 0, u: 0, v: 3 })
        );
        assert_eq!(
            eng.apply(&Op::AddGraph { graph: plain_graph(2), truth: 9 }),
            Err(IngestError::TruthOutOfRange { truth: 9, classes: 2 })
        );
        assert_eq!(eng.stats().mutations_applied, 0);
        assert_eq!(eng.views_set().to_json(), before, "state mutated by a rejected op");
    }

    #[test]
    fn epochs_batch_mutations_and_report_dirty_classes() {
        let (mut eng, _) = engine();
        assert_eq!(eng.epoch(), 0);
        eng.apply(&Op::AddEdge { graph: 1, u: 0, v: 2, etype: 0 }).unwrap();
        eng.apply(&Op::AddEdge { graph: 0, u: 0, v: 2, etype: 0 }).unwrap();
        assert_eq!(eng.pending(), 2);
        let summary = eng.publish_epoch();
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.mutations, 2);
        assert_eq!(summary.staleness_ms.len(), 2);
        assert!(summary.dirty_classes.contains(&u64::MAX), "whole-db answers must invalidate");
        assert!(summary.dirty_classes.contains(&0) || summary.dirty_classes.contains(&1));
        assert_eq!(eng.pending(), 0);
        // an empty epoch publishes cleanly and dirties nothing
        let empty = eng.publish_epoch();
        assert_eq!((empty.epoch, empty.mutations), (2, 0));
        assert!(empty.dirty_classes.is_empty());
    }

    #[test]
    fn snapshot_round_trips_with_epoch() {
        let (mut eng, _) = engine();
        eng.apply(&Op::AddEdge { graph: 1, u: 0, v: 2, etype: 0 }).unwrap();
        eng.publish_epoch();
        let path =
            std::env::temp_dir().join(format!("gvex-ingest-snap-{}.gvex", std::process::id()));
        eng.snapshot(&path).expect("snapshot writes");
        let store = gvex_store::Store::open(&path).expect("snapshot reopens");
        assert_eq!(store.meta().epoch, 1);
        assert_eq!(store.num_graphs(), eng.db().len());
        let views = ExplanationViewSet::from_json(store.views_json().expect("views stored"))
            .expect("views decode");
        assert_eq!(views.to_json(), eng.views_set().to_json(), "views must round-trip bitwise");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn graph_edit_helpers_edit_precisely() {
        let g = motif_graph(4);
        let (n, m) = (g.num_nodes(), g.num_edges());
        let plus = with_edge_added(&g, 0, 2, 0);
        assert_eq!((plus.num_nodes(), plus.num_edges()), (n, m + 1));
        assert!(plus.has_edge(0, 2));
        let minus = with_edge_removed(&plus, 2, 0); // reversed endpoints: undirected
        assert_eq!(minus.num_edges(), m);
        assert!(!minus.has_edge(0, 2));
        let grown = with_node_added(&g, 1, &[0.5, 0.5, 0.0], &[0, 3], 0);
        assert_eq!((grown.num_nodes(), grown.num_edges()), (n + 1, m + 2));
        assert!(grown.has_edge(0, n) && grown.has_edge(3, n));
        let shrunk = with_node_removed(&g, 0);
        assert_eq!(shrunk.num_nodes(), n - 1);
        assert_eq!(shrunk.num_edges(), m - 1, "node 0 had one incident edge");
    }
}
