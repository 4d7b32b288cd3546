//! Parallel view generation (§A.7) — the one module that fans out.
//!
//! Influence and diversity are computed independently per graph, so the
//! per-graph step of every strategy parallelizes embarrassingly: each
//! [`crate::SelectionStrategy::explain_label_group`] hands its members to
//! [`explain_members`], and the cross-graph step that follows (`Psum`, or
//! StreamGVEX's pattern merge) runs on the calling thread in member order,
//! matching the paper's decomposition. [`crate::ExplainSession::explain`]
//! is therefore the one driver; a caller that wants a fixed worker count
//! installs a [`ThreadPoolBuilder`] pool around it. The assigned-label pass
//! ([`predict_all`]) and coverage matching over a view's subgraphs
//! ([`crate::psum::coverage_stats`]) fan out per graph through the same
//! gate. Nothing below a graph — kernels, Jacobian seed blocks, walks —
//! fans out: those loops run on whichever worker owns the graph.
//!
//! Fan-outs are **adaptive**: [`run_adaptive`] estimates the workload in
//! scalar operations and runs it sequentially below [`PAR_THRESHOLD`] —
//! on small databases, spawning worker threads costs more wall-clock than
//! the explain work itself. Both branches preserve input order, so results
//! stay bitwise identical across thread counts.

use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDatabase};
use rayon::prelude::*;

/// The pool a caller installs around [`crate::ExplainSession::explain`]
/// to fix its worker count, re-exported so crates without their own rayon
/// dependency can do so.
pub use rayon::ThreadPoolBuilder;

/// Estimated scalar operations below which [`run_adaptive`] keeps a
/// region on the calling thread: roughly where spawning scoped worker
/// threads starts to cost more than it saves, measured on the explain
/// pipeline's fan-outs (the `explain_database` sections of
/// `BENCH_hotpaths.json`).
pub const PAR_THRESHOLD: usize = 1 << 18;

/// Cost-threshold switch for fan-outs: runs `f` over `items` across the
/// rayon pool when more than one worker is requested (by an installed
/// pool or `GVEX_THREADS`), the machine has more than one hardware thread
/// and `estimated_ops` (a rough scalar-operation count for the whole
/// workload) clears [`PAR_THRESHOLD`]; sequentially on the calling thread
/// otherwise. The fan-out uses at most as many workers as the hardware
/// has threads: CPU-bound workers beyond them only add spawns and
/// time-slicing. Output order equals input order in both branches, so the
/// dispatch is invisible to callers; the
/// `core.parallel.{sequential,parallel}` counters record which way it
/// went.
pub fn run_adaptive<T, R>(
    items: Vec<T>,
    estimated_ops: usize,
    f: impl Fn(T) -> R + Sync + Send,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let (requested, hardware) =
        (rayon::current_num_threads(), gvex_obs::env::default_parallelism());
    if requested > 1 && hardware > 1 && estimated_ops >= PAR_THRESHOLD {
        gvex_obs::counter!("core.parallel.parallel");
        let workers = requested.min(hardware);
        let pool = ThreadPoolBuilder::new().num_threads(workers).build().expect("pool builds");
        pool.install(|| items.into_par_iter().map(f).collect())
    } else {
        gvex_obs::counter!("core.parallel.sequential");
        items.into_iter().map(f).collect()
    }
}

/// ~ scalar ops of explaining one graph: the influence matrix dominates
/// (`O(n³)`-ish whichever route computes it), plus the forward pass.
fn explain_cost(model: &GcnModel, g: &Graph) -> usize {
    let n = g.num_nodes();
    n * n * n + model.forward_cost(g)
}

/// Runs the per-graph step `f` over a label group's members (database
/// indices) behind the adaptive gate, priced at [`explain_cost`] per
/// member. Results come back in member order at any worker count.
pub(crate) fn explain_members<R: Send>(
    model: &GcnModel,
    db: &GraphDatabase,
    group: &[usize],
    f: impl Fn(usize) -> R + Sync + Send,
) -> Vec<R> {
    let est = group.iter().map(|&gi| explain_cost(model, db.graph(gi))).sum();
    run_adaptive(group.to_vec(), est, f)
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
