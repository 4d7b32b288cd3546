//! Parallel view generation (§A.7).
//!
//! Influence and diversity are computed independently per graph, so the
//! per-graph explain step parallelizes embarrassingly; the driver
//! ([`crate::ExplainSession::explain_parallel`]) fans the label group's
//! graphs across a rayon pool and summarizes afterwards (summarization is a
//! cross-graph step and stays sequential, matching the paper's
//! decomposition). This module keeps the shared machinery: the adaptive
//! fan-out gate, the cost estimators, and batch prediction.
//!
//! Fan-outs are **adaptive**: [`run_adaptive`] estimates the workload in
//! scalar operations and runs it sequentially when it falls below
//! `GVEX_PAR_THRESHOLD` — on small databases, spawning worker threads costs
//! more wall-clock than the explain work itself. Both branches preserve
//! input order, so results stay bitwise identical across thread counts and
//! threshold settings.

use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDatabase};
use rayon::prelude::*;

/// Cost-threshold switch for fan-outs: runs `f` over `items` sequentially
/// on the calling thread when `estimated_ops` (a rough scalar-operation
/// count for the whole workload) falls below the adaptive threshold or only
/// one worker is available, and across the rayon pool otherwise. Output
/// order equals input order in both branches, so the dispatch is invisible
/// to callers; the `core.parallel.{sequential,parallel}` counters record
/// which way it went.
pub fn run_adaptive<T, R>(
    items: Vec<T>,
    estimated_ops: usize,
    f: impl Fn(T) -> R + Sync + Send,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    if rayon::should_fan_out(estimated_ops) {
        gvex_obs::counter!("core.parallel.parallel");
        items.into_par_iter().map(f).collect()
    } else {
        gvex_obs::counter!("core.parallel.sequential");
        items.into_iter().map(f).collect()
    }
}

/// ~ scalar ops of explaining one graph: the influence matrix dominates
/// (`O(n³)`-ish whichever route computes it), plus the forward pass.
pub(crate) fn explain_cost(model: &GcnModel, g: &Graph) -> usize {
    let n = g.num_nodes();
    n * n * n + model.forward_cost(g)
}

/// Classifier-assigned labels for every graph of `db`. Graphs are packed
/// into block-diagonal batches of [`gvex_gnn::batch::DEFAULT_BATCH`] — one
/// fused forward per block — and the blocks run in parallel when the
/// database is large enough to pay for the fan-out. Blocks are collected in
/// index order, so the result is identical for any worker count.
pub fn predict_all(model: &GcnModel, db: &GraphDatabase) -> Vec<usize> {
    gvex_obs::span!("predict");
    let est: usize = db.graphs().iter().map(|g| model.forward_cost(g)).sum();
    let blocks: Vec<&[Graph]> = db.graphs().chunks(gvex_gnn::batch::DEFAULT_BATCH).collect();
    let labels = run_adaptive(blocks, est, |block| {
        let views: Vec<gvex_graph::GraphRef<'_>> = block.iter().map(|g| g.view()).collect();
        model.predict_batch(&views)
    });
    labels.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_adaptive_branches_agree() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let items: Vec<usize> = (0..97).collect();
            // estimate 0 forces the sequential branch, usize::MAX the
            // parallel one; outputs must be identical either way
            let seq = run_adaptive(items.clone(), 0, |x| x * 3 + 1);
            let par = run_adaptive(items, usize::MAX, |x| x * 3 + 1);
            assert_eq!(seq, par);
        });
    }
}
