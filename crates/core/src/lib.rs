//! GVEX core: explanation views and the two generation algorithms.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`config::Configuration`] — the user configuration
//!   `C = (θ, r, {[b_l, u_l]})` plus the diversity weight `γ` (§3.2),
//! * [`view`] — the two-tier explanation structure: explanation subgraphs
//!   (consistent + counterfactual, §2.2) summarized by graph patterns,
//! * [`verify`] — the view-verification primitives `EVerify` and `PMatch`
//!   (constraints **C1–C3**, Lemma 3.1),
//! * [`psum`] — procedure `Psum`: weighted greedy set cover of subgraph
//!   nodes by mined patterns with minimal edge-coverage loss
//!   (`H_{u_l}`-approximation, Lemma 4.3),
//! * [`approx`] — **ApproxGVEX** (Algorithm 1): the explain-and-summarize
//!   ½-approximation, as [`GreedyStrategy`],
//! * [`stream`] — **StreamGVEX** (Algorithm 3 + Procedures 4–5): the
//!   single-pass anytime ¼-approximation with swap-based maintenance, as
//!   [`StreamStrategy`],
//! * [`session`] — the shared [`session::ExplainSession`] owning the model
//!   handle, forward-trace cache, and per-graph influence memo, with every
//!   generation algorithm reduced to a [`session::SelectionStrategy`]
//!   run by one driver, [`session::ExplainSession::explain`] — the one way
//!   to run an explanation algorithm,
//! * [`parallel`] — the one module that fans out, across graphs (§A.7):
//!   the adaptive gate every strategy's label-group step explains its
//!   graphs through, batch prediction, and coverage matching over a
//!   view's subgraphs,
//! * [`explainer`] — the [`explainer::Explainer`] trait shared with the
//!   baseline explainers so the evaluation harness can treat every method
//!   uniformly; [`GvexExplainer`] plugs a strategy into it.

pub mod approx;
pub mod config;
pub mod exact;
pub mod explainer;
pub mod maintain;
pub mod node_explain;
pub mod parallel;
pub mod pool;
pub mod psum;
pub mod query;
pub mod session;
pub mod stream;
pub mod verify;
pub mod view;

pub use approx::GreedyStrategy;
pub use config::{ConfigError, Configuration, CoverageBound};
pub use exact::ExactStrategy;
pub use explainer::{Explainer, GvexExplainer, NodeExplanation};
pub use maintain::{MaintainError, ViewMaintainer};
pub use node_explain::{explain_node, NodeExplanationView};
pub use pool::{CachesLease, SessionPool};
pub use query::{index_views, ViewIndex};
pub use session::{ExplainSession, SelectionStrategy, SessionCaches};
pub use stream::StreamStrategy;
pub use verify::{everify, pmatch, verify_view, VerificationReport};
pub use view::{ExplanationSubgraph, ExplanationView, ExplanationViewSet};
