//! Exact (exponential-time) solvers for tiny EVG instances, used to
//! validate the approximation guarantees empirically.
//!
//! EVG is Σ₂ᵖ-complete in general (Theorem 3.2), but the *selection core* —
//! maximize the monotone submodular `I(V_s) + γ·D(V_s)` under a range
//! cardinality constraint — is plain (NP-hard) subset optimization, solvable
//! by enumeration on small graphs. This module provides:
//!
//! * [`exact_selection`] — brute-force optimum over all node subsets within
//!   the coverage bound,
//! * [`greedy_selection`] — the un-gated greedy that ApproxGVEX's
//!   explanation phase reduces to when verification never rejects
//!   (½-approximation, Theorem 4.1),
//! * [`streaming_selection`] — the swap-rule streaming selector of
//!   Procedure 4 in isolation (¼-approximation, Theorem 5.1).
//!
//! `tests/approximation_ratio.rs` checks both bounds across random
//! instances.

use crate::session::{ExplainSession, SelectionStrategy};
use crate::view::ExplanationSubgraph;
use gvex_graph::{Graph, NodeId};
use gvex_influence::analysis::InfluenceAnalysis;

/// The brute-force optimum as a session strategy: selects the exact best
/// subset within the coverage bound. Exponential in the upper bound —
/// reserved for tiny graphs (approximation-ratio validation, ablations);
/// plugs into the session's driver like the approximate strategies.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactStrategy;

impl SelectionStrategy for ExactStrategy {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn explain_graph(
        &self,
        sess: &ExplainSession<'_>,
        g: &Graph,
        graph_index: usize,
    ) -> Option<ExplanationSubgraph> {
        gvex_obs::span!("exact.explain_graph");
        let n = g.num_nodes();
        if n == 0 {
            return None;
        }
        let trace = sess.trace(g);
        let label = trace.label();
        let bound = sess.config().bound(label);
        let analysis = sess.influence(g, graph_index);
        let (mut selected, score) = exact_selection(&analysis, bound.lower, bound.upper.min(n));
        if selected.len() < bound.lower || selected.is_empty() {
            return None;
        }
        selected.sort_unstable();
        let sub = g.induced_subgraph(&selected);
        let verdict = crate::verify::everify_with_label(sess.model(), g, label, &selected);
        Some(ExplanationSubgraph {
            graph_index,
            nodes: selected,
            subgraph: sub.graph,
            consistent: verdict.consistent,
            counterfactual: verdict.counterfactual,
            explainability: score / n as f64,
        })
    }
}

/// Brute-force optimal subset of size in `[lower, upper]` maximizing
/// `I + γ·D`. Exponential in `upper`; intended for `n ≤ 20`, `upper ≤ 6`.
pub fn exact_selection(
    analysis: &InfluenceAnalysis,
    lower: usize,
    upper: usize,
) -> (Vec<NodeId>, f64) {
    let n = analysis.num_nodes();
    let upper = upper.min(n);
    let mut best: (Vec<NodeId>, f64) = (Vec::new(), f64::NEG_INFINITY);
    let mut current: Vec<NodeId> = Vec::new();

    fn recurse(
        analysis: &InfluenceAnalysis,
        start: usize,
        lower: usize,
        upper: usize,
        current: &mut Vec<NodeId>,
        best: &mut (Vec<NodeId>, f64),
    ) {
        if current.len() >= lower {
            let score = analysis.score_of(current);
            if score > best.1 {
                *best = (current.clone(), score);
            }
        }
        if current.len() == upper {
            return;
        }
        for v in start..analysis.num_nodes() {
            current.push(v);
            recurse(analysis, v + 1, lower, upper, current, best);
            current.pop();
        }
    }

    recurse(analysis, 0, lower, upper, &mut current, &mut best);
    if best.1 == f64::NEG_INFINITY {
        (Vec::new(), 0.0)
    } else {
        best
    }
}

/// Plain greedy under the cardinality upper bound: repeatedly add the node
/// with the largest marginal gain. This is ApproxGVEX's explanation phase
/// with verification stripped — the object Theorem 4.1's ½ bound applies to.
pub fn greedy_selection(analysis: &InfluenceAnalysis, upper: usize) -> (Vec<NodeId>, f64) {
    let n = analysis.num_nodes();
    let mut state = analysis.empty_state();
    let mut selected: Vec<NodeId> = Vec::new();
    let mut in_sel = vec![false; n];
    while selected.len() < upper.min(n) {
        let best = (0..n)
            .filter(|&v| !in_sel[v])
            .map(|v| (analysis.gain(&state, v), v))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        match best {
            Some((gain, v)) if gain > 0.0 || selected.is_empty() => {
                analysis.add(&mut state, v);
                in_sel[v] = true;
                selected.push(v);
            }
            _ => break, // no remaining positive gain: monotone f is flat
        }
    }
    let score = analysis.score(&state);
    (selected, score)
}

/// The streaming swap-rule selector (Procedure 4 in isolation): nodes
/// arrive in `order`; the cache fills to `upper`, after which an arrival
/// replaces the cheapest resident only when its gain is at least
/// `2×` the evictee's — the invariant behind Theorem 5.1's anytime ¼ bound.
pub fn streaming_selection(
    analysis: &InfluenceAnalysis,
    order: &[NodeId],
    upper: usize,
) -> (Vec<NodeId>, f64) {
    let mut selected: Vec<NodeId> = Vec::new();
    for &v in order {
        if selected.len() < upper {
            selected.push(v);
            continue;
        }
        // v⁻ = argmin loss
        let (idx, _) = match (0..selected.len())
            .map(|i| {
                let mut without = selected.clone();
                without.remove(i);
                let loss = analysis.score_of(&selected) - analysis.score_of(&without);
                (i, loss)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            Some(x) => x,
            None => continue,
        };
        let mut base = selected.clone();
        let evicted = base.remove(idx);
        let base_score = analysis.score_of(&base);
        let gain_new = {
            let mut with_v = base.clone();
            with_v.push(v);
            analysis.score_of(&with_v) - base_score
        };
        let gain_old = {
            let mut with_old = base.clone();
            with_old.push(evicted);
            analysis.score_of(&with_old) - base_score
        };
        if gain_new >= 2.0 * gain_old {
            selected[idx] = v;
        }
    }
    let score = analysis.score_of(&selected);
    (selected, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_linalg::Matrix;

    /// Deterministic random-ish instance from a seed.
    fn instance(n: usize, seed: u64) -> InfluenceAnalysis {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51afd7ed558ccd);
            x ^= x >> 33;
            (x % 1000) as f32 / 1000.0
        };
        let mut i2 = Matrix::zeros(n, n);
        for v in 0..n {
            let mut sum = 0.0;
            for u in 0..n {
                let val = next() + 1e-3;
                i2[(v, u)] = val;
                sum += val;
            }
            for u in 0..n {
                i2[(v, u)] /= sum;
            }
        }
        let mut emb = Matrix::zeros(n, 3);
        for v in 0..n {
            for d in 0..3 {
                emb[(v, d)] = next();
            }
        }
        InfluenceAnalysis::from_parts(&i2, &emb, 0.12, 0.3, 0.5)
    }

    #[test]
    fn exact_at_least_greedy() {
        for seed in 0..6 {
            let a = instance(10, seed);
            let (_, opt) = exact_selection(&a, 0, 4);
            let (_, greedy) = greedy_selection(&a, 4);
            assert!(opt + 1e-9 >= greedy, "seed {seed}: opt {opt} < greedy {greedy}");
        }
    }

    #[test]
    fn greedy_achieves_half_of_optimum() {
        for seed in 0..10 {
            let a = instance(12, seed);
            let (_, opt) = exact_selection(&a, 0, 4);
            let (_, greedy) = greedy_selection(&a, 4);
            assert!(greedy >= 0.5 * opt - 1e-9, "seed {seed}: greedy {greedy} < ½·opt ({opt})");
        }
    }

    #[test]
    fn streaming_achieves_quarter_of_optimum() {
        for seed in 0..10 {
            let a = instance(12, seed);
            let order: Vec<usize> = (0..12).collect();
            let (_, opt) = exact_selection(&a, 0, 4);
            let (_, stream) = streaming_selection(&a, &order, 4);
            assert!(stream >= 0.25 * opt - 1e-9, "seed {seed}: stream {stream} < ¼·opt ({opt})");
        }
    }

    #[test]
    fn exact_respects_lower_bound() {
        let a = instance(8, 3);
        let (sel, _) = exact_selection(&a, 3, 5);
        assert!(sel.len() >= 3 && sel.len() <= 5);
    }

    #[test]
    fn empty_instance() {
        let a = InfluenceAnalysis::from_parts(
            &Matrix::zeros(0, 0),
            &Matrix::zeros(0, 3),
            0.1,
            0.3,
            0.5,
        );
        let (sel, score) = exact_selection(&a, 0, 3);
        assert!(sel.is_empty());
        assert_eq!(score, 0.0);
        let (gsel, _) = greedy_selection(&a, 3);
        assert!(gsel.is_empty());
    }
}
