//! `gvex-store`: the `.gvex` memory-mapped columnar container.
//!
//! The paper's two-tier views are *precomputed once, queried many times* —
//! but a pipeline that regenerates graphs, retrains the GNN, and re-mines
//! views on every invocation pays the whole cold start each time. This
//! crate makes the precomputation durable: one versioned, checksummed,
//! little-endian binary file holds the graph database as flat CSR columns,
//! the trained model weights, and the serialized views, each section on a
//! 64-byte boundary so the mapped bytes feed the SIMD kernels directly.
//!
//! * [`writer::write_store`] builds the file (`gvex db build`);
//! * [`Store::open`] memory-maps it (hand-rolled `mmap` where the platform
//!   has the syscall wrapper, one aligned heap read elsewhere) and
//!   validates header, table, and section CRCs with O(1) allocation
//!   w.r.t. data size;
//! * [`Store::graph`] serves borrowed [`gvex_graph::CsrGraph`]s straight
//!   off the mapping — zero copies on the read path — while
//!   [`Store::database`] / [`Store::model`] / [`Store::views_json`]
//!   materialize owned values bitwise identical to what was stored.
//!
//! Format details live in [`format`]; failure modes in [`error`]
//! (corruption is typed data, never a panic). See DESIGN.md §14.

pub mod crc;
pub mod error;
pub mod format;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use error::StoreError;
pub use format::{SectionEntry, SectionId, HEADER_LEN, MAGIC, SECTION_ALIGN, VERSION};
pub use reader::Store;
pub use writer::{write_store, BuildInput};

use gvex_gnn::{Aggregation, GcnConfig, Readout};
use gvex_mining::MiningConfig;
use serde::{Deserialize, Serialize};

/// JSON metadata stored in the [`SectionId::Meta`] section: everything
/// needed to reinterpret the raw columns and reconstruct registries,
/// split, and model shapes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreMeta {
    /// Dataset label (e.g. `"MUT"`); informational plus CLI round trips.
    pub dataset: String,
    /// Whether the graphs are directed (decides the in-adjacency sections).
    pub directed: bool,
    /// Number of graphs in the database.
    pub num_graphs: usize,
    /// Feature dimensionality `D`.
    pub feature_dim: usize,
    /// Class label names, in class-id order.
    pub class_names: Vec<String>,
    /// Node type names in id order — re-interning them into a fresh
    /// [`gvex_graph::TypeRegistry`] reproduces the original exactly.
    pub node_type_names: Vec<String>,
    /// Edge type names in id order.
    pub edge_type_names: Vec<String>,
    /// Seed the dataset and paper split were generated from.
    pub seed: u64,
    /// Model architecture and weight-blob shape information.
    pub model: ModelMeta,
    /// Mining bounds the stored views were produced under, if any.
    pub mining: Option<MiningConfig>,
    /// Ingest epoch this snapshot captures (0 = original batch build;
    /// files written before epochs existed read back as 0).
    #[serde(default)]
    pub epoch: u64,
}

/// Shape/architecture metadata for the weight blob in
/// [`SectionId::Model`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Layer dimensions.
    pub config: GcnConfig,
    /// Neighborhood aggregation scheme.
    pub aggregation: Aggregation,
    /// Graph readout.
    pub readout: Readout,
    /// Edge-gate count `T` (0 = gates disabled).
    pub edge_gate_types: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::GcnModel;
    use gvex_graph::{Graph, GraphDatabase};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;

    fn toy_db() -> GraphDatabase {
        let mut db = GraphDatabase::new(vec!["neg".into(), "pos".into()]);
        let c = db.node_types.intern("C");
        let n = db.node_types.intern("N");
        db.edge_types.intern("single");
        db.edge_types.intern("double");
        for i in 0..6 {
            let mut b = Graph::builder(false);
            let k = 3 + i % 3;
            for v in 0..k {
                let t = if v % 2 == 0 { c } else { n };
                b.add_node(t, &[v as f32, (i * k) as f32, 1.0]);
            }
            for v in 1..k {
                b.add_edge(v - 1, v, (v % 2) as u32);
            }
            if i % 2 == 0 && k > 2 {
                b.add_edge(0, k - 1, 1);
            }
            db.push(b.build(), i % 2);
        }
        db
    }

    fn toy_model(db: &GraphDatabase) -> GcnModel {
        let cfg = GcnConfig { input_dim: db.feature_dim(), hidden: 8, layers: 2, num_classes: 2 };
        GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(7))
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gvex-store-unit-{}-{name}.gvex", std::process::id()))
    }

    #[test]
    fn round_trip_database_model_views() {
        let db = toy_db();
        let model = toy_model(&db);
        let views = "{\"answer\":42}".to_string();
        let path = tmp("roundtrip");
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: Some(&views),
            dataset: "TOY",
            seed: 11,
            mining: Some(MiningConfig::default()),
            epoch: 0,
        };
        let len = write_store(&path, &input).unwrap();
        assert_eq!(len % SECTION_ALIGN as u64, 0);

        let store = Store::open(&path).unwrap();
        assert_eq!(store.num_graphs(), db.len());
        assert_eq!(store.meta().dataset, "TOY");
        assert_eq!(store.meta().seed, 11);
        assert_eq!(store.meta().mining, Some(MiningConfig::default()));
        assert_eq!(store.views_json(), Some(views.as_str()));

        // Zero-copy graphs match the owned ones node for node.
        for i in 0..db.len() {
            assert_eq!(store.graph(i).to_graph(), *db.graph(i), "graph {i}");
        }
        // Materialized database is bitwise identical (registries included).
        let back = store.database();
        assert_eq!(back.truth(), db.truth());
        assert_eq!(back.class_names, db.class_names);
        for i in 0..db.node_types.len() as u32 {
            assert_eq!(back.node_types.name(i), db.node_types.name(i));
        }
        for i in 0..db.edge_types.len() as u32 {
            assert_eq!(back.edge_types.name(i), db.edge_types.name(i));
        }
        // Model weights round-trip bitwise.
        let m2 = store.model();
        assert_eq!(serde_json::to_string(&m2).unwrap(), serde_json::to_string(&model).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_with_edge_gates_round_trips() {
        let db = toy_db();
        let model = toy_model(&db).with_edge_gates(2);
        let path = tmp("gates");
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: None,
            dataset: "TOY",
            seed: 1,
            mining: None,
            epoch: 0,
        };
        write_store(&path, &input).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.views_json().is_none());
        assert_eq!(store.meta().model.edge_gate_types, 2);
        let m2 = store.model();
        assert!(m2.has_edge_gates());
        assert_eq!(serde_json::to_string(&m2).unwrap(), serde_json::to_string(&model).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn predictions_from_mapped_graphs_match_owned() {
        let db = toy_db();
        let model = toy_model(&db);
        let path = tmp("predict");
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: None,
            dataset: "TOY",
            seed: 1,
            mining: None,
            epoch: 0,
        };
        write_store(&path, &input).unwrap();
        let store = Store::open(&path).unwrap();
        let m2 = store.model();
        for i in 0..db.len() {
            let owned = model.forward(db.graph(i)).logits;
            let mapped = m2.forward(store.graph(i)).logits;
            assert_eq!(owned, mapped, "graph {i}: mapped inference must be bitwise identical");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_is_o1_allocation_surface() {
        // Proxy for the O(1)-allocation claim that stays valid across
        // allocator changes: the Store's owned state is bounded by the
        // section count and metadata, not the data payload.
        let db = toy_db();
        let model = toy_model(&db);
        let path = tmp("o1");
        let big_views = format!("{{\"pad\":\"{}\"}}", "x".repeat(1 << 16));
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: Some(&big_views),
            dataset: "TOY",
            seed: 1,
            mining: None,
            epoch: 0,
        };
        write_store(&path, &input).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.sections().len() <= 13);
        assert_eq!(store.views_json().map(str::len), Some(big_views.len()));
        std::fs::remove_file(&path).ok();
    }
}
