//! Attributed graph substrate for GVEX (§2.1 of the paper).
//!
//! The paper works over a *graph database* `𝒢 = {G₁ … G_m}` where each graph
//! `G = (V, E, T, L)` carries node features `T(v)` and node/edge *types*
//! `L(·)` (distinct from the task's class labels). This crate provides:
//!
//! * [`Graph`] — a typed graph owning its CSR columns and a dense feature
//!   matrix, in the one layout the `.gvex` store writes; [`CsrGraph`] is the
//!   borrowed view every read accessor is implemented on,
//! * subgraph algebra: node-induced subgraphs ([`Graph::induced_subgraph`]),
//!   node removal `G \ Gs` ([`Graph::remove_nodes`]), connected components,
//!   and k-hop neighborhoods — the primitives the explanation algorithms and
//!   verifiers are built from,
//! * [`GraphRef`] — borrowed zero-copy views of a node subset, so hot loops
//!   score candidate subgraphs and complements without materializing them,
//! * [`GraphDatabase`] — the collection the classifier and explainers run
//!   over, with label groups `𝒢^l`,
//! * [`TypeRegistry`] — string interning for human-readable node/edge types
//!   (e.g. atom symbols), keeping the hot graph structures numeric,
//! * [`BitSet`] — the fixed-capacity word-level set underneath both the
//!   influence masks (`gvex-influence`) and the match indexes (`gvex-iso`).

pub mod bitset;
pub mod csr;
pub mod db;
pub mod graph;
pub mod registry;
pub mod traversal;
pub mod view;

pub use bitset::BitSet;
pub use csr::{CsrAdjacency, CsrColumns, CsrGraph, CsrNeighbors};
pub use db::{GlobalNodeId, GraphDatabase, LabelGroups};
pub use graph::{EdgeTypeId, Graph, GraphBuilder, InducedSubgraph, NodeId, NodeTypeId};
pub use registry::TypeRegistry;
pub use view::GraphRef;
