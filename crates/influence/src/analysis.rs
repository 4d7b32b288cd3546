//! Per-graph influence analysis: bitset masks, greedy-friendly scores, and
//! the incremental (streaming) variant.

use crate::bitset::BitSet;
use crate::jacobian::{influence_matrix_with_trace, InfluenceMode};
use gvex_gnn::propagation::NormAdj;
use gvex_gnn::{ForwardTrace, GcnModel};
use gvex_graph::{Graph, NodeId};
use gvex_linalg::ops::euclidean;
use gvex_linalg::Matrix;
use rand::Rng;

/// Running state of a greedy node selection: the influenced set and the
/// union of embedding balls over it. Lets `ApproxGVEX` evaluate marginal
/// gains in O(|V|/64) words instead of recomputing Eq. 2 from scratch.
#[derive(Clone, Debug)]
pub struct SelectionState {
    /// Nodes influenced by the selected set (Eq. 5's set).
    pub influenced: BitSet,
    /// Union of `r(v, d)` balls over the influenced nodes (Eq. 6's set).
    pub diversity: BitSet,
}

/// Precomputed influence masks and embedding balls for one graph.
///
/// * `masks[u]` = `{v : I₂(u, v) ≥ θ}` — who `u` influences,
/// * `balls[v]` = `{v' : d(X_v^k, X_{v'}^k) ≤ r}` — `v`'s embedding ball.
///
/// Its scoring methods ([`Self::gain`], [`Self::add`], [`Self::score_of`],
/// …) are the one implementation of `I(V_s) + γ·D(V_s)`;
/// [`StreamingInfluence`] fills a value of this type as nodes arrive and
/// scores through it.
#[derive(Clone, Debug)]
pub struct InfluenceAnalysis {
    masks: Vec<BitSet>,
    balls: Vec<BitSet>,
    gamma: f32,
    n: usize,
}

/// Builds embedding balls from last-layer embeddings.
///
/// The paper's Eq. 6 thresholds a "normalized Euclidean distance" at radius
/// `r`. We normalize by the graph's *maximum pairwise embedding distance*,
/// making `r ∈ [0, 1]` a scale-free knob: `r = 0.25` means "within a quarter
/// of the embedding spread" for any model width or activation magnitude.
fn build_balls(embeddings: &Matrix, r: f32) -> Vec<BitSet> {
    let n = embeddings.rows();
    let mut dist = vec![0.0_f32; n * n];
    let mut max_d = 0.0_f32;
    for v in 0..n {
        for w in v + 1..n {
            let d = euclidean(embeddings.row(v), embeddings.row(w));
            dist[v * n + w] = d;
            max_d = max_d.max(d);
        }
    }
    let radius = r * max_d;
    let mut balls = vec![BitSet::new(n); n];
    for v in 0..n {
        balls[v].insert(v);
        for w in v + 1..n {
            if dist[v * n + w] <= radius {
                balls[v].insert(w);
                balls[w].insert(v);
            }
        }
    }
    balls
}

/// Builds influence masks from a row-stochastic `I₂` matrix
/// (`i2[(v, u)]` = influence of `u` on `v`).
fn build_masks(i2: &Matrix, theta: f32) -> Vec<BitSet> {
    let n = i2.rows();
    let mut masks = vec![BitSet::new(n); n];
    for v in 0..n {
        for u in 0..n {
            if i2[(v, u)] >= theta {
                masks[u].insert(v);
            }
        }
    }
    masks
}

impl InfluenceAnalysis {
    /// Runs the full per-graph analysis: influence matrix (per `mode`), one
    /// forward pass for embeddings, then masks and balls for thresholds
    /// `(θ, r)` with diversity weight `γ` (the configuration of §3.2).
    pub fn new(
        model: &GcnModel,
        g: &Graph,
        theta: f32,
        r: f32,
        gamma: f32,
        mode: InfluenceMode,
        rng: &mut impl Rng,
    ) -> Self {
        Self::with_trace(model, g, &model.forward(g), theta, r, gamma, mode, rng)
    }

    /// Like [`InfluenceAnalysis::new`] but reusing an existing forward
    /// trace of `g`: the embeddings and (in the realized-Jacobian modes)
    /// the propagation operator and ReLU gates come from `trace`, so a
    /// caller that already ran inference pays for no further forward pass.
    #[allow(clippy::too_many_arguments)] // mirrors `new`, which mirrors §3.2's configuration
    pub fn with_trace(
        model: &GcnModel,
        g: &Graph,
        trace: &ForwardTrace,
        theta: f32,
        r: f32,
        gamma: f32,
        mode: InfluenceMode,
        rng: &mut impl Rng,
    ) -> Self {
        let i2 = influence_matrix_with_trace(model, g, trace, mode, rng);
        Self::from_parts(&i2, trace.embeddings(), theta, r, gamma)
    }

    /// Builds the analysis from precomputed pieces (tests, ablations).
    pub fn from_parts(i2: &Matrix, embeddings: &Matrix, theta: f32, r: f32, gamma: f32) -> Self {
        assert_eq!(i2.rows(), i2.cols(), "influence matrix must be square");
        assert_eq!(i2.rows(), embeddings.rows(), "embedding/influence size mismatch");
        let n = i2.rows();
        Self { masks: build_masks(i2, theta), balls: build_balls(embeddings, r), gamma, n }
    }

    /// Number of nodes in the analyzed graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The diversity weight `γ`.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Who node `u` influences.
    pub fn mask(&self, u: NodeId) -> &BitSet {
        &self.masks[u]
    }

    /// An empty selection state.
    pub fn empty_state(&self) -> SelectionState {
        SelectionState { influenced: BitSet::new(self.n), diversity: BitSet::new(self.n) }
    }

    /// `I(V_s) + γ·D(V_s)` for the current state.
    pub fn score(&self, st: &SelectionState) -> f64 {
        st.influenced.count() as f64 + self.gamma as f64 * st.diversity.count() as f64
    }

    /// Marginal gain of adding `u` to the selection, without mutating state.
    pub fn gain(&self, st: &SelectionState, u: NodeId) -> f64 {
        let new_infl = st.influenced.new_elements(&self.masks[u]);
        if new_infl == 0 {
            return 0.0;
        }
        // newly influenced nodes contribute their balls to the diversity set
        let mut div_union = st.diversity.clone();
        for v in self.masks[u].iter() {
            if !st.influenced.contains(v) {
                div_union.union_with(&self.balls[v]);
            }
        }
        let new_div = div_union.count() - st.diversity.count();
        new_infl as f64 + self.gamma as f64 * new_div as f64
    }

    /// Adds `u` to the selection state.
    pub fn add(&self, st: &mut SelectionState, u: NodeId) {
        for v in self.masks[u].iter() {
            if !st.influenced.contains(v) {
                st.diversity.union_with(&self.balls[v]);
            }
        }
        st.influenced.union_with(&self.masks[u]);
    }

    /// Builds the state for an explicit node set.
    pub fn state_of(&self, nodes: &[NodeId]) -> SelectionState {
        let mut st = self.empty_state();
        for &u in nodes {
            self.add(&mut st, u);
        }
        st
    }

    /// `I(V_s) + γ·D(V_s)` for an explicit node set (Eq. 2 numerator).
    pub fn score_of(&self, nodes: &[NodeId]) -> f64 {
        self.score(&self.state_of(nodes))
    }

    /// The paper's per-graph explainability term `(I + γD)/|V|`.
    pub fn explainability_of(&self, nodes: &[NodeId]) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.score_of(nodes) / self.n as f64
    }
}

/// Incremental influence maintenance for the streaming algorithm (§5).
///
/// The full analysis precomputes `Ã^k` at `O(|V|³)`; the streaming variant
/// (`IncEVerify`) instead computes, when node `v` *arrives*, only row `v` of
/// `Ã^k` — a sparse `k`-step propagation touching `v`'s `k`-hop
/// neighborhood — plus `v`'s embedding ball. Scores are therefore exact on
/// the seen fraction of the stream, the precondition of the anytime
/// ¼-approximation (Theorem 5.1). Scoring goes through the
/// [`InfluenceAnalysis`] it dereferences to, whose masks and balls it fills
/// as nodes arrive.
#[derive(Clone, Debug)]
pub struct StreamingInfluence {
    adj: std::sync::Arc<NormAdj>,
    embeddings: Matrix,
    theta: f32,
    r: f32,
    k: usize,
    /// Estimated maximum pairwise embedding distance (sampled at
    /// construction), the normalizer for the ball radius.
    dist_scale: f32,
    seen: BitSet,
    /// The scores over the seen stream: `masks[u]` accumulates `v`s as
    /// targets arrive (`v ∈ masks[u] ⇔ seen(v) ∧ I₂(u,v) ≥ θ`), and
    /// `balls[v]` is filled on arrival of `v` (over all nodes; the
    /// embedding space is known).
    scores: InfluenceAnalysis,
}

impl std::ops::Deref for StreamingInfluence {
    type Target = InfluenceAnalysis;

    fn deref(&self) -> &InfluenceAnalysis {
        &self.scores
    }
}

impl StreamingInfluence {
    /// Prepares the stream processor: one forward pass for embeddings plus
    /// the normalized adjacency. No Jacobian work happens here.
    pub fn new(model: &GcnModel, g: &Graph, theta: f32, r: f32, gamma: f32) -> Self {
        Self::with_trace(model, g, &model.forward(g), theta, r, gamma)
    }

    /// Like [`StreamingInfluence::new`] but reusing an existing forward
    /// trace of `g` (its adjacency and embeddings) instead of running
    /// another forward pass.
    pub fn with_trace(
        model: &GcnModel,
        g: &Graph,
        trace: &ForwardTrace,
        theta: f32,
        r: f32,
        gamma: f32,
    ) -> Self {
        let n = g.num_nodes();
        // deterministic pair sample estimating the max pairwise distance
        // (exact O(n^2) scanning would defeat the streaming cost model)
        let emb = trace.embeddings();
        let mut dist_scale = 0.0_f32;
        for i in 0..n.min(256) {
            let a = (i * 2654435761) % n.max(1);
            let b = (i * 40503 + 7) % n.max(1);
            if a != b {
                dist_scale = dist_scale.max(euclidean(emb.row(a), emb.row(b)));
            }
        }
        for v in 1..n.min(64) {
            dist_scale = dist_scale.max(euclidean(emb.row(0), emb.row(v)));
        }
        Self {
            adj: trace.adj.clone(),
            embeddings: trace.embeddings().clone(),
            dist_scale,
            theta,
            r,
            k: model.config().layers,
            seen: BitSet::new(n),
            scores: InfluenceAnalysis {
                masks: vec![BitSet::new(n); n],
                balls: vec![BitSet::new(n); n],
                gamma,
                n,
            },
        }
    }

    /// How many stream elements have arrived.
    pub fn seen_count(&self) -> usize {
        self.seen.count()
    }

    /// Whether `v` has arrived.
    pub fn has_seen(&self, v: NodeId) -> bool {
        self.seen.contains(v)
    }

    /// Processes the arrival of node `v`: computes row `v` of `Ã^k`
    /// (sparse), updates every source mask, and fills `v`'s embedding ball.
    /// Arrival is idempotent.
    pub fn arrive(&mut self, v: NodeId) {
        if self.seen.contains(v) {
            return;
        }
        self.seen.insert(v);
        let n = self.scores.n;

        // Sparse k-step propagation of e_v through Ã (symmetric rows).
        let mut row = vec![0.0_f32; n];
        let mut touched = vec![v];
        row[v] = 1.0;
        for _ in 0..self.k {
            let mut next = vec![0.0_f32; n];
            let mut next_touched = Vec::with_capacity(touched.len() * 4);
            for &i in &touched {
                let ri = row[i];
                for &(j, w) in self.adj.row(i) {
                    if next[j] == 0.0 {
                        next_touched.push(j);
                    }
                    next[j] += ri * w;
                }
            }
            row = next;
            next_touched.sort_unstable();
            next_touched.dedup();
            touched = next_touched;
        }
        let sum: f32 = touched.iter().map(|&j| row[j]).sum();
        if sum > 0.0 {
            for &u in &touched {
                if row[u] / sum >= self.theta {
                    self.scores.masks[u].insert(v);
                }
            }
        } else {
            self.scores.masks[v].insert(v);
        }

        // Embedding ball of v (radius normalized by the sampled spread).
        let ev = self.embeddings.row(v);
        let radius = self.r * self.dist_scale;
        for w in 0..n {
            if euclidean(ev, self.embeddings.row(w)) <= radius {
                self.scores.balls[v].insert(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::GcnConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path(n: usize) -> Graph {
        let mut b = Graph::builder(false);
        for i in 0..n {
            b.add_node(0, &[(i % 2) as f32, 1.0 - (i % 2) as f32]);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, 0);
        }
        b.build()
    }

    fn model() -> GcnModel {
        GcnModel::new(
            GcnConfig { input_dim: 2, hidden: 4, layers: 2, num_classes: 2 },
            &mut ChaCha8Rng::seed_from_u64(3),
        )
    }

    fn analysis(g: &Graph) -> InfluenceAnalysis {
        InfluenceAnalysis::new(
            &model(),
            g,
            0.05,
            0.5,
            0.5,
            InfluenceMode::Expected,
            &mut ChaCha8Rng::seed_from_u64(0),
        )
    }

    #[test]
    fn masks_contain_self() {
        let g = path(6);
        let a = analysis(&g);
        // with θ = 0.05 every node influences itself (self-loop weight is
        // the largest single entry on a path)
        for u in 0..6 {
            assert!(a.mask(u).contains(u), "node {u} does not influence itself");
        }
    }

    #[test]
    fn score_empty_is_zero() {
        let g = path(4);
        let a = analysis(&g);
        assert_eq!(a.score_of(&[]), 0.0);
        assert_eq!(a.explainability_of(&[]), 0.0);
    }

    #[test]
    fn gain_matches_score_delta() {
        let g = path(6);
        let a = analysis(&g);
        let mut st = a.empty_state();
        a.add(&mut st, 2);
        let before = a.score(&st);
        let gain = a.gain(&st, 4);
        a.add(&mut st, 4);
        let after = a.score(&st);
        assert!((gain - (after - before)).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_set_growth() {
        let g = path(8);
        let a = analysis(&g);
        let s1 = a.score_of(&[1]);
        let s2 = a.score_of(&[1, 5]);
        let s3 = a.score_of(&[1, 5, 7]);
        assert!(s1 <= s2 && s2 <= s3);
    }

    /// Submodularity spot check: gain of adding `u` to a subset is ≥ the
    /// gain of adding `u` to a superset (Lemma 3.3).
    #[test]
    fn submodular_gains() {
        let g = path(10);
        let a = analysis(&g);
        let small = a.state_of(&[0]);
        let large = a.state_of(&[0, 3, 6]);
        for u in [1usize, 4, 8] {
            assert!(
                a.gain(&small, u) + 1e-9 >= a.gain(&large, u),
                "node {u} violates submodularity"
            );
        }
    }

    #[test]
    fn streaming_matches_batch_after_full_arrival() {
        let g = path(7);
        let a = analysis(&g);
        let mut s = StreamingInfluence::new(&model(), &g, 0.05, 0.5, 0.5);
        // arbitrary arrival order
        for v in [3usize, 0, 6, 1, 5, 2, 4] {
            s.arrive(v);
        }
        for set in [vec![0], vec![2, 5], vec![0, 3, 6]] {
            let batch = a.score_of(&set);
            let stream = s.score_of(&set);
            assert!((batch - stream).abs() < 1e-9, "set {set:?}: batch {batch} vs stream {stream}");
        }
    }

    #[test]
    fn streaming_scores_grow_with_arrivals() {
        let g = path(7);
        let mut s = StreamingInfluence::new(&model(), &g, 0.05, 0.5, 0.5);
        s.arrive(3);
        let early = s.score_of(&[3]);
        for v in 0..7 {
            s.arrive(v);
        }
        let late = s.score_of(&[3]);
        assert!(late >= early);
        assert_eq!(s.seen_count(), 7);
    }

    #[test]
    fn streaming_arrival_idempotent() {
        let g = path(4);
        let mut s = StreamingInfluence::new(&model(), &g, 0.05, 0.5, 0.5);
        s.arrive(1);
        let once = s.score_of(&[1]);
        s.arrive(1);
        assert_eq!(s.score_of(&[1]), once);
        assert_eq!(s.seen_count(), 1);
        assert!(s.has_seen(1) && !s.has_seen(0));
    }

    #[test]
    fn diversity_weight_scales_score() {
        let g = path(6);
        let m = model();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a0 = InfluenceAnalysis::new(&m, &g, 0.05, 0.5, 0.0, InfluenceMode::Expected, &mut rng);
        let a1 = InfluenceAnalysis::new(&m, &g, 0.05, 0.5, 1.0, InfluenceMode::Expected, &mut rng);
        let set = vec![2usize, 4];
        assert!(a1.score_of(&set) >= a0.score_of(&set));
    }
}
