//! # GVEX — View-based Explanations for Graph Neural Networks
//!
//! Facade crate re-exporting the full GVEX stack. See the individual crates
//! for details; the typical entry points are:
//!
//! * [`datasets`] — generate a benchmark graph database,
//! * [`gnn`] — train the GCN classifier,
//! * [`core`] — produce explanation views: an `ExplainSession` runs
//!   ApproxGVEX (`GreedyStrategy`) or StreamGVEX (`StreamStrategy`),
//! * [`metrics`] — score them (fidelity, sparsity, compression),
//! * [`baselines`] — the four competitor explainers.
//!
//! ```no_run
//! use gvex::prelude::*;
//! ```

pub use gvex_baselines as baselines;
pub use gvex_core as core;
pub use gvex_datasets as datasets;
pub use gvex_gnn as gnn;
pub use gvex_graph as graph;
pub use gvex_influence as influence;
pub use gvex_ingest as ingest;
pub use gvex_iso as iso;
pub use gvex_linalg as linalg;
pub use gvex_metrics as metrics;
pub use gvex_mining as mining;
pub use gvex_obs as obs;
pub use gvex_serve as serve;
pub use gvex_store as store;

/// Convenient glob-import of the most common types.
pub mod prelude {
    pub use gvex_core::{
        Configuration, ExplainSession, ExplanationView, GreedyStrategy, SelectionStrategy,
        StreamStrategy,
    };
    pub use gvex_datasets::DatasetKind;
    pub use gvex_gnn::{GcnConfig, GcnModel, Split};
    pub use gvex_graph::{Graph, GraphDatabase};
    pub use gvex_metrics::ExplanationQuality;
}
