//! Procedure `Psum` (§4): summarize explanation subgraphs into a small
//! pattern set that covers all their nodes while missing few edges.
//!
//! The optimization — pick `𝒫^l` with `∪ P_{V_S} = V_S` minimizing
//! `Σ w(P)` where `w(P) = 1 − |P_{E_S}|/|E_S|` — reduces to minimum weighted
//! set cover; the greedy "most new nodes per unit weight" rule used here is
//! the classic `H_{u_l}`-approximation (Lemma 4.3).

use gvex_graph::{Graph, NodeId};
use gvex_iso::coverage::{canonical_edge, covered_by_set, Coverage};
use gvex_iso::vf2::for_each_embedding_with_index;
use gvex_iso::{extend_embeddings, MatchIndex, MatchOptions};
use gvex_mining::{pgen, MiningConfig, PatternCandidate};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Output of `Psum`.
#[derive(Clone, Debug)]
pub struct PsumResult {
    /// Selected patterns, in greedy pick order.
    pub patterns: Vec<Graph>,
    /// Fraction of subgraph edges not covered by the selected patterns.
    pub edge_loss: f64,
    /// Whether full node coverage was achieved (always true when the
    /// candidate pool contains every node type as a singleton, which
    /// `PGen` guarantees).
    pub full_node_coverage: bool,
}

/// Per-candidate coverage across the whole subgraph set, in a global
/// `(subgraph index, node id)` space.
struct CandidateCoverage {
    pattern: Graph,
    nodes: HashSet<(usize, NodeId)>,
    edges: HashSet<(usize, NodeId, NodeId)>,
    weight: f64,
}

/// Embeddings memoized past this count are dropped: the memo exists to seed
/// child candidates, and unbounded retention would make memory proportional
/// to candidates × embeddings.
const REUSE_MEMO_CAP: usize = 1024;

/// Complete (untruncated) embeddings of one candidate in one subgraph,
/// retained to seed the candidate's one-node extensions.
struct EmbMemo {
    embeddings: Vec<Vec<NodeId>>,
}

/// Matches every candidate against one subgraph and returns per-candidate
/// coverage. Candidates are processed smallest-first so that a candidate
/// extending a parent by one node (the `PatternParent` link mined by
/// `PGen`) can seed its enumeration from the parent's recorded embeddings —
/// the paper's `IncPMatch` idea applied at mining time — instead of
/// searching from scratch. Both paths run the same engine over the same
/// [`MatchIndex`], and extension enumerates exactly the child's embedding
/// set, so coverage is independent of which path ran.
fn coverages_for_subgraph(
    cands: &[PatternCandidate],
    sg: &Graph,
    matching: MatchOptions,
) -> Vec<Coverage> {
    let index = MatchIndex::build(sg);
    let mut memo: Vec<Option<EmbMemo>> = (0..cands.len()).map(|_| None).collect();
    let mut out: Vec<Coverage> = vec![Coverage::default(); cands.len()];
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by_key(|&i| (cands[i].pattern.num_nodes(), i));
    for i in order {
        let cand = &cands[i];
        let seed = cand
            .parent
            .as_ref()
            .and_then(|par| memo[par.index].as_ref().map(|parent_memo| (par, parent_memo)));
        let (embeddings, complete) = match seed {
            Some((par, parent_memo)) => {
                gvex_obs::counter!("mining.pgen.embedding_reuse_hits");
                let n = cand.pattern.num_nodes();
                let seeds: Vec<Vec<NodeId>> = parent_memo
                    .embeddings
                    .iter()
                    .map(|pe| {
                        let mut m = vec![usize::MAX; n];
                        for (pn, &cn) in par.map.iter().enumerate() {
                            m[cn] = pe[pn];
                        }
                        m
                    })
                    .collect();
                let ext =
                    extend_embeddings(&cand.pattern, sg, &index, &seeds, par.removed, matching);
                (ext.embeddings, !ext.truncated)
            }
            None => {
                if cand.parent.is_some() {
                    gvex_obs::counter!("mining.pgen.embedding_reuse_misses");
                }
                let mut embs = Vec::new();
                for_each_embedding_with_index(&cand.pattern, sg, &index, matching, |m| {
                    embs.push(m.to_vec());
                    ControlFlow::Continue(())
                });
                // At exactly the cap the search may or may not have been
                // exhaustive; treat it as truncated to stay safe.
                let complete = embs.len() < matching.max_embeddings;
                (embs, complete)
            }
        };
        let cov = &mut out[i];
        for emb in &embeddings {
            for &t in emb {
                cov.nodes.insert(t);
            }
            for (pu, pv, _) in cand.pattern.edges() {
                cov.edges.insert(canonical_edge(sg, emb[pu], emb[pv]));
            }
        }
        // Only complete, reasonably-sized enumerations are safe seeds:
        // extending a truncated parent would silently drop embeddings.
        if complete && embeddings.len() <= REUSE_MEMO_CAP {
            memo[i] = Some(EmbMemo { embeddings });
        }
    }
    out
}

/// Per-candidate coverage across the whole subgraph set. Subgraphs are the
/// outer loop so each one's [`MatchIndex`] and embedding memo live exactly
/// as long as needed.
fn candidate_coverages(
    cands: Vec<PatternCandidate>,
    subgraphs: &[&Graph],
    total_edges: usize,
    matching: MatchOptions,
) -> Vec<CandidateCoverage> {
    let mut nodes: Vec<HashSet<(usize, NodeId)>> =
        (0..cands.len()).map(|_| HashSet::new()).collect();
    let mut edges: Vec<HashSet<(usize, NodeId, NodeId)>> =
        (0..cands.len()).map(|_| HashSet::new()).collect();
    for (si, sg) in subgraphs.iter().enumerate() {
        for (i, cov) in coverages_for_subgraph(&cands, sg, matching).into_iter().enumerate() {
            nodes[i].extend(cov.nodes.into_iter().map(|v| (si, v)));
            edges[i].extend(cov.edges.into_iter().map(|(u, v)| (si, u, v)));
        }
    }
    cands
        .into_iter()
        .zip(nodes)
        .zip(edges)
        .map(|((cand, nodes), edges)| {
            let weight =
                if total_edges == 0 { 0.0 } else { 1.0 - edges.len() as f64 / total_edges as f64 };
            CandidateCoverage { pattern: cand.pattern, nodes, edges, weight }
        })
        .collect()
}

/// Runs `Psum` over the explanation subgraphs of one view.
pub fn psum(subgraphs: &[&Graph], mining: &MiningConfig, matching: MatchOptions) -> PsumResult {
    gvex_obs::span!("psum");
    let total_nodes: usize = subgraphs.iter().map(|g| g.num_nodes()).sum();
    let total_edges: usize = subgraphs.iter().map(|g| g.num_edges()).sum();
    if total_nodes == 0 {
        return PsumResult { patterns: Vec::new(), edge_loss: 0.0, full_node_coverage: true };
    }

    let candidates: Vec<CandidateCoverage> =
        candidate_coverages(pgen(subgraphs, mining), subgraphs, total_edges, matching);

    let mut covered_nodes: HashSet<(usize, NodeId)> = HashSet::new();
    let mut covered_edges: HashSet<(usize, NodeId, NodeId)> = HashSet::new();
    let mut picked: Vec<usize> = Vec::new();
    let mut available: Vec<bool> = vec![true; candidates.len()];

    // Two-phase greedy. Phase 1 considers only *structural* patterns (≥ 1
    // edge): the paper's weight `w(P) = 1 − |P_{E_S}|/|E_S|` exists to keep
    // edge misses small, and letting singleton node patterns compete on raw
    // node coverage would saturate the node universe while covering no
    // edges at all. Phase 2 plugs any remaining uncovered nodes with
    // whatever still contributes (singletons included), guaranteeing the
    // node-coverage constraint.
    for structural_only in [true, false] {
        while covered_nodes.len() < total_nodes {
            // maximize newly covered nodes per unit weight; ties toward more
            // newly covered edges.
            let mut best: Option<(usize, f64, usize)> = None;
            for (i, c) in candidates.iter().enumerate() {
                if !available[i] || (structural_only && c.pattern.num_edges() == 0) {
                    continue;
                }
                let new_nodes = c.nodes.iter().filter(|p| !covered_nodes.contains(p)).count();
                if new_nodes == 0 {
                    available[i] = false;
                    continue;
                }
                let new_edges = c.edges.iter().filter(|e| !covered_edges.contains(e)).count();
                if structural_only && new_edges == 0 {
                    continue; // exhausted its structural contribution
                }
                let ratio = new_nodes as f64 / (c.weight + 1e-9);
                let better = match best {
                    None => true,
                    Some((_, best_ratio, best_edges)) => {
                        ratio > best_ratio + 1e-12
                            || ((ratio - best_ratio).abs() <= 1e-12 && new_edges > best_edges)
                    }
                };
                if better {
                    best = Some((i, ratio, new_edges));
                }
            }
            let Some((i, _, _)) = best else {
                break; // no candidate adds coverage in this phase
            };
            available[i] = false;
            covered_nodes.extend(candidates[i].nodes.iter().copied());
            covered_edges.extend(candidates[i].edges.iter().copied());
            picked.push(i);
        }
    }

    let edge_loss =
        if total_edges == 0 { 0.0 } else { 1.0 - covered_edges.len() as f64 / total_edges as f64 };
    let full = covered_nodes.len() == total_nodes;
    let mut patterns: Vec<Graph> = Vec::with_capacity(picked.len());
    let mut by_index: Vec<CandidateCoverage> = candidates.into_iter().collect();
    // drain in pick order without cloning patterns
    picked.sort_unstable_by_key(|&i| usize::MAX - i); // descending for swap_remove safety
    let mut ordered: Vec<(usize, Graph)> = Vec::with_capacity(picked.len());
    for i in picked {
        ordered.push((i, by_index.swap_remove(i).pattern));
    }
    ordered.sort_unstable_by_key(|&(i, _)| i);
    patterns.extend(ordered.into_iter().map(|(_, p)| p));

    PsumResult { patterns, edge_loss, full_node_coverage: full }
}

/// Joint coverage statistics of a pattern set over a set of subgraphs:
/// uncovered `(subgraph index, node)` pairs and the edge-coverage loss.
/// Used by the streaming algorithm's view assembly and by view
/// maintenance; the subgraphs fan out behind the
/// [`crate::parallel::run_adaptive`] gate.
pub fn coverage_stats(
    patterns: &[Graph],
    subgraphs: &[&Graph],
    matching: MatchOptions,
) -> (Vec<(usize, NodeId)>, f64) {
    let total_edges: usize = subgraphs.iter().map(|g| g.num_edges()).sum();
    let mut uncovered = Vec::new();
    let mut covered_edges = 0usize;
    // match enumeration is independent per subgraph, so it fans out across
    // them; the stats below fold the coverages back in subgraph order.
    // ~ per subgraph: each pattern explores O(n²) candidate pairs before
    // pruning; embedding enumeration beyond that is output-sensitive
    let est = subgraphs.iter().map(|g| patterns.len() * g.num_nodes() * g.num_nodes() * 16).sum();
    let coverages = crate::parallel::run_adaptive(subgraphs.to_vec(), est, |sg| {
        covered_by_set(patterns, sg, matching)
    });
    for (si, (sg, cov)) in subgraphs.iter().zip(&coverages).enumerate() {
        for v in 0..sg.num_nodes() {
            if !cov.nodes.contains(&v) {
                uncovered.push((si, v));
            }
        }
        covered_edges += cov.edges.len();
    }
    let edge_loss =
        if total_edges == 0 { 0.0 } else { 1.0 - covered_edges as f64 / total_edges as f64 };
    (uncovered, edge_loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(types: &[u32], edges: &[(usize, usize)]) -> Graph {
        let mut b = Graph::builder(false);
        for &t in types {
            b.add_node(t, &[]);
        }
        for &(u, v) in edges {
            b.add_edge(u, v, 0);
        }
        b.build()
    }

    fn default_mining() -> MiningConfig {
        MiningConfig::default()
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let res = psum(&[], &default_mining(), MatchOptions::default());
        assert!(res.patterns.is_empty());
        assert_eq!(res.edge_loss, 0.0);
        assert!(res.full_node_coverage);
    }

    #[test]
    fn single_edge_covered_by_edge_pattern() {
        let sub = g(&[0, 1], &[(0, 1)]);
        let res = psum(&[&sub], &default_mining(), MatchOptions::default());
        assert!(res.full_node_coverage);
        assert_eq!(res.edge_loss, 0.0);
        // one pattern (the edge itself) suffices
        assert_eq!(res.patterns.len(), 1);
        assert_eq!(res.patterns[0].num_edges(), 1);
    }

    #[test]
    fn repeated_motif_summarized_once() {
        // two identical subgraphs: a type-0/type-1 edge
        let a = g(&[0, 1], &[(0, 1)]);
        let b = g(&[0, 1], &[(0, 1)]);
        let res = psum(&[&a, &b], &default_mining(), MatchOptions::default());
        assert!(res.full_node_coverage);
        assert_eq!(res.edge_loss, 0.0);
        assert_eq!(res.patterns.len(), 1, "one pattern should cover both subgraphs");
    }

    #[test]
    fn edgeless_subgraph_covered_by_singletons() {
        let sub = g(&[0, 1, 2], &[]);
        let res = psum(&[&sub], &default_mining(), MatchOptions::default());
        assert!(res.full_node_coverage);
        assert_eq!(res.edge_loss, 0.0); // no edges to miss
        assert_eq!(res.patterns.len(), 3); // one singleton per type
    }

    #[test]
    fn edge_loss_reported_when_patterns_capped() {
        // a path of 4 distinctly-typed nodes, but patterns capped to 1 node:
        // only singleton patterns available → all 3 edges missed.
        let sub = g(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]);
        let mining = MiningConfig { max_pattern_nodes: 1, ..Default::default() };
        let res = psum(&[&sub], &mining, MatchOptions::default());
        assert!(res.full_node_coverage);
        assert!((res.edge_loss - 1.0).abs() < 1e-9);
        assert_eq!(res.patterns.len(), 4);
    }

    #[test]
    fn larger_patterns_reduce_edge_loss() {
        let sub = g(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]);
        let small = psum(
            &[&sub],
            &MiningConfig { max_pattern_nodes: 1, ..Default::default() },
            MatchOptions::default(),
        );
        let large = psum(
            &[&sub],
            &MiningConfig { max_pattern_nodes: 4, ..Default::default() },
            MatchOptions::default(),
        );
        assert!(large.edge_loss < small.edge_loss);
        assert_eq!(large.edge_loss, 0.0);
    }

    #[test]
    fn coverage_stats_reports_uncovered_nodes() {
        let sub = g(&[0, 1], &[(0, 1)]);
        // a pattern covering only the type-0 node
        let p = g(&[0], &[]);
        let refs = [&sub];
        let (uncovered, edge_loss) = coverage_stats(&[p], &refs, MatchOptions::default());
        assert_eq!(uncovered, vec![(0, 1)]);
        assert_eq!(edge_loss, 1.0);
        // full structural pattern covers everything
        let full = g(&[0, 1], &[(0, 1)]);
        let (uncovered, edge_loss) = coverage_stats(&[full], &refs, MatchOptions::default());
        assert!(uncovered.is_empty());
        assert_eq!(edge_loss, 0.0);
    }

    #[test]
    fn coverage_stats_edgeless_inputs() {
        let sub = g(&[0], &[]);
        let refs = [&sub];
        let (uncovered, edge_loss) = coverage_stats(&[], &refs, MatchOptions::default());
        assert_eq!(uncovered.len(), 1);
        assert_eq!(edge_loss, 0.0); // nothing to miss
    }

    #[test]
    fn structural_phase_preferred_over_singletons() {
        // a triangle plus an isolated typed node: phase 1 should pick the
        // triangle (or edges) for the connected part, singletons only for
        // the isolated node
        let sub = g(&[0, 0, 0, 5], &[(0, 1), (1, 2), (0, 2)]);
        let res = psum(&[&sub], &MiningConfig::default(), MatchOptions::default());
        assert!(res.full_node_coverage);
        // edges fully covered despite the singleton needed for node 3
        assert_eq!(res.edge_loss, 0.0);
        assert!(res.patterns.iter().any(|p| p.num_edges() > 0));
        assert!(res.patterns.iter().any(|p| p.num_nodes() == 1 && p.node_type(0) == 5));
    }

    #[test]
    fn patterns_cover_every_node_of_every_subgraph() {
        let a = g(&[0, 0, 1], &[(0, 1), (1, 2)]);
        let b = g(&[1, 1], &[(0, 1)]);
        let res = psum(&[&a, &b], &default_mining(), MatchOptions::default());
        assert!(res.full_node_coverage);
        for sg in [&a, &b] {
            let cov =
                gvex_iso::coverage::covered_by_set(&res.patterns, sg, MatchOptions::default());
            assert!(cov.covers_all_nodes(sg));
        }
    }
}
