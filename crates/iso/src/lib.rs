//! Graph pattern matching for GVEX (§2.1 "Graph Pattern Matching").
//!
//! The paper characterizes pattern semantics via **node-induced subgraph
//! isomorphism** [Floderus et al., TCS'15]: a matching `h` maps each pattern
//! node to a distinct graph node of the same type, pattern edges to graph
//! edges of the same type and — in induced mode — pattern *non-edges* to
//! graph non-edges.
//!
//! This crate provides:
//!
//! * [`vf2`] — a VF2-style backtracking matcher with type- and
//!   degree-based pruning, embedding enumeration, and anchored enumeration
//!   (all embeddings through one node) for incremental matching
//!   (`IncPMatch`, §5); two engines (neighbor-list reference and
//!   bitset-frontier) share one enumeration order,
//! * [`index`] — the per-target [`MatchIndex`] of bitset adjacency and
//!   type-candidate rows the frontier engine intersects,
//! * [`canon`] — exact canonical codes for small patterns, the hash key the
//!   miner buckets candidates under,
//! * [`coverage`] — node/edge coverage of a graph by one pattern or a
//!   pattern set, the primitive behind constraint **C1/C3** verification
//!   and the `Psum` set-cover weights,
//! * [`vf2::are_isomorphic`] — full graph isomorphism, used by the miner to
//!   confirm canonical-bucket collisions.
//!
//! Patterns are ordinary [`gvex_graph::Graph`] values whose features are
//! ignored; only node/edge types constrain matching.

pub mod canon;
pub mod coverage;
pub mod index;
pub mod vf2;

pub use canon::canonical_code;
pub use coverage::{covered, covered_by_set, Coverage};
pub use index::MatchIndex;
pub use vf2::{
    are_isomorphic, enumerate, extend_embeddings, find_one, for_each_embedding,
    for_each_embedding_reference, for_each_embedding_with_index, matches, Extension, MatchOptions,
};
