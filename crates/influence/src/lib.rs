//! Feature influence and neighborhood diversity (§3.1, Eqs. 3–6).
//!
//! GVEX scores candidate explanation subgraphs by how much *feature
//! influence* their nodes exert through the GNN's message passing, plus a
//! *diversity* bonus over the influenced nodes' embedding neighborhoods:
//!
//! ```text
//! I₁(v, u) = ‖E[∂X_v^k / ∂X_u^0]‖₁          (Eq. 3, expected Jacobian)
//! I₂(u, v) = I₁(v, u) / Σ_w I₁(v, w)         (Eq. 4, normalized)
//! I(V_s)   = |{v : ∃u ∈ V_s, I₂(u, v) ≥ θ}|  (Eq. 5, influenced set size)
//! D(V_s)   = |∪_{v influenced} r(v, d)|       (Eq. 6, embedding-ball union)
//! f        = (I(V_s) + γ·D(V_s)) / |V|        (Eq. 2, per-graph explainability)
//! ```
//!
//! Three ways to obtain `I₁` are provided by [`jacobian`]:
//!
//! * **expected Jacobian** (default) — Xu et al. (ICML'18) show the expected
//!   Jacobian of a ReLU GCN is proportional to the `k`-step propagation
//!   matrix `Ã^k`; since `I₂` normalizes per target node, the weight-norm
//!   proportionality constant cancels and `Ã^k` row-normalized *is* `I₂`.
//! * **realized Jacobian** — the true Jacobian under the trained weights and
//!   actual ReLU gates, via forward-mode propagation (the `O(|V|³)`-ish cost
//!   the paper quotes in Theorem 4.1); used for the ablation bench.
//! * **Monte-Carlo random walks** — the sampling surrogate the paper uses on
//!   its largest graphs (§6.2, PRO/SYN).
//!
//! [`analysis::InfluenceAnalysis`] precomputes, per graph, the influence
//! masks and embedding balls as [`BitSet`]s so the greedy selection
//! in `ApproxGVEX` gets O(|V|/64)-word marginal-gain evaluations, and
//! [`analysis::StreamingInfluence`] is the incremental (`IncEVerify`)
//! counterpart that reveals one node at a time (§5).

pub mod analysis;
pub mod jacobian;

/// The bitset now lives in `gvex-graph` (it also backs the match indexes in
/// `gvex-iso`); re-exported here so `gvex_influence::BitSet` and
/// `gvex_influence::bitset::*` keep working.
pub use gvex_graph::bitset;
pub use gvex_graph::BitSet;

pub use analysis::{InfluenceAnalysis, StreamingInfluence};
pub use jacobian::{
    influence_matrix, influence_matrix_with_trace, realized, realized_with_trace, InfluenceMode,
};
