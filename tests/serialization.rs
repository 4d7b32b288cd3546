//! Serialization round trips: the CLI's persistence paths (models and
//! views as JSON, databases as TU files) must preserve behavior, not just
//! structure.

use gvex::core::{index_views, Configuration, ExplainSession, ExplanationViewSet, GreedyStrategy};
use gvex::datasets::{read_tu_dataset, write_tu_dataset, DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::GraphDatabase;
use gvex::store::{crc::crc32, format::ENTRY_LEN, BuildInput, SectionId, Store, StoreError};
use gvex::store::{write_store, HEADER_LEN, MAGIC, VERSION};
use std::sync::OnceLock;

#[test]
fn model_json_round_trip_preserves_predictions() {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 21);
    let split = Split::paper(&db, 21);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let (model, _) = train(
        &db,
        cfg,
        &split,
        TrainOptions { epochs: 60, lr: 0.01, seed: 21, patience: 0, ..Default::default() },
    );
    let json = serde_json::to_string(&model).expect("model serializes");
    let back: GcnModel = serde_json::from_str(&json).expect("model parses");
    for g in db.graphs().iter().take(10) {
        assert_eq!(model.predict_proba(g), back.predict_proba(g));
    }
}

#[test]
fn views_json_round_trip_is_queryable() {
    let db = DatasetKind::Mutagenicity.generate(Scale::Small, 22);
    let split = Split::paper(&db, 22);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let (model, _) = train(
        &db,
        cfg,
        &split,
        TrainOptions { epochs: 60, lr: 0.01, seed: 22, patience: 0, ..Default::default() },
    );
    let sess = ExplainSession::new(&model, Configuration::paper_mut(8)).unwrap();
    let views = sess.explain(&GreedyStrategy, &db, &[1]);
    let json = serde_json::to_string(&views).expect("views serialize");
    let back: ExplanationViewSet = serde_json::from_str(&json).expect("views parse");

    assert_eq!(back.views.len(), views.views.len());
    assert_eq!(back.total_explainability(), views.total_explainability());
    // the deserialized views must be indexable and answer the same queries
    let idx_a = index_views(&views);
    let idx_b = index_views(&back);
    assert_eq!(idx_a.patterns().len(), idx_b.patterns().len());
    for pid in 0..idx_a.patterns().len() {
        assert_eq!(idx_a.graphs_matching(pid), idx_b.graphs_matching(pid));
    }
}

#[test]
fn tu_round_trip_preserves_classifier_behavior() {
    let db = DatasetKind::Pcqm4m.generate(Scale::Small, 23);
    let dir = std::env::temp_dir().join(format!("gvex-ser-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_tu_dataset(&db, &dir, "PCQ").expect("export");
    let back = read_tu_dataset(&dir, "PCQ").expect("import");

    // train on the original, predict identically on the round-tripped copy
    let split = Split::paper(&db, 23);
    let cfg = GcnConfig {
        input_dim: db.feature_dim(),
        hidden: 8,
        layers: 2,
        num_classes: db.num_classes(),
    };
    let (model, _) = train(
        &db,
        cfg,
        &split,
        TrainOptions { epochs: 40, lr: 0.01, seed: 23, patience: 0, ..Default::default() },
    );
    for (a, b) in db.graphs().iter().zip(back.graphs()).take(12) {
        assert_eq!(model.predict(a), model.predict(b));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// `.gvex` store: the binary container must fail *typed* on every kind of
// damage (no panics, no UB, no silently-wrong data) and round-trip bitwise
// when intact.
// ---------------------------------------------------------------------------

struct StoreFixture {
    /// A valid `.gvex` file, byte for byte.
    bytes: Vec<u8>,
    db: GraphDatabase,
    model: GcnModel,
}

/// Trains one small model and serializes it once for all store tests.
fn store_fixture() -> &'static StoreFixture {
    static FIXTURE: OnceLock<StoreFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = DatasetKind::Mutagenicity.generate(Scale::Small, 31);
        let split = Split::paper(&db, 31);
        let cfg = GcnConfig {
            input_dim: db.feature_dim(),
            hidden: 8,
            layers: 2,
            num_classes: db.num_classes(),
        };
        let (model, _) = train(
            &db,
            cfg,
            &split,
            TrainOptions { epochs: 12, lr: 0.01, seed: 31, patience: 0, ..Default::default() },
        );
        let path = std::env::temp_dir().join(format!("gvex-ser-store-{}.gvex", std::process::id()));
        let input = BuildInput {
            db: &db,
            model: &model,
            views_json: None,
            dataset: "MUT",
            seed: 31,
            mining: None,
            epoch: 0,
        };
        write_store(&path, &input).expect("store writes");
        let bytes = std::fs::read(&path).expect("store file reads back");
        let _ = std::fs::remove_file(&path);
        StoreFixture { bytes, db, model }
    })
}

/// Writes (possibly doctored) store bytes to a fresh temp file and opens it.
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<Store, StoreError> {
    let path =
        std::env::temp_dir().join(format!("gvex-ser-store-{tag}-{}.gvex", std::process::id()));
    std::fs::write(&path, bytes).expect("doctored store writes");
    let out = Store::open(&path);
    let _ = std::fs::remove_file(&path);
    out
}

/// Decodes the section table of a valid store image:
/// `(id, offset_field_position, offset, len)` per section.
fn section_table(bytes: &[u8]) -> Vec<(u32, usize, u64, u64)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = HEADER_LEN + i * ENTRY_LEN;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            (id, at + 8, offset, len)
        })
        .collect()
}

/// Recomputes the table CRC (header bytes 24..28) after doctoring an entry.
fn repatch_table_crc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table = &bytes[HEADER_LEN..HEADER_LEN + count * ENTRY_LEN];
    let crc = crc32(table);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn store_round_trip_preserves_predictions_and_labels() {
    let fx = store_fixture();
    let store = open_bytes("roundtrip", &fx.bytes).expect("intact store opens");
    assert_eq!(store.num_graphs(), fx.db.len());
    let labels: Vec<u32> = fx.db.truth().iter().map(|&l| l as u32).collect();
    assert_eq!(store.labels(), &labels[..]);
    let mapped_model = store.model();
    for i in 0..store.num_graphs().min(10) {
        // bitwise: the mapped columns and deserialized weights must be the
        // exact bytes that went in
        assert_eq!(
            fx.model.predict_proba(fx.db.graph(i)),
            mapped_model.predict_proba(store.graph(i)),
            "graph {i} diverged through the store"
        );
    }
}

#[test]
fn store_truncated_file_is_typed() {
    let fx = store_fixture();
    // header promises `file_len` bytes; give it half
    let cut = &fx.bytes[..fx.bytes.len() / 2];
    match open_bytes("trunc", cut) {
        Err(StoreError::Truncated { needed, actual }) => {
            assert_eq!(needed, fx.bytes.len() as u64);
            assert_eq!(actual, cut.len() as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // even the header itself missing must not panic
    assert!(matches!(open_bytes("trunc-hdr", &fx.bytes[..10]), Err(StoreError::Truncated { .. })));
}

#[test]
fn store_bad_magic_is_typed() {
    let fx = store_fixture();
    let mut bytes = fx.bytes.clone();
    bytes[..MAGIC.len()].copy_from_slice(b"NOTGVEX!");
    assert!(matches!(open_bytes("magic", &bytes), Err(StoreError::BadMagic)));
}

#[test]
fn store_wrong_version_is_typed() {
    let fx = store_fixture();
    let mut bytes = fx.bytes.clone();
    bytes[8..12].copy_from_slice(&(VERSION + 7).to_le_bytes());
    match open_bytes("version", &bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, VERSION + 7);
            assert_eq!(supported, VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn store_corrupted_section_payload_is_typed() {
    let fx = store_fixture();
    let features = SectionId::Features as u32;
    let (_, _, offset, len) = *section_table(&fx.bytes)
        .iter()
        .find(|(id, ..)| *id == features)
        .expect("features section present");
    assert!(len > 0);
    let mut bytes = fx.bytes.clone();
    bytes[offset as usize + len as usize / 2] ^= 0xA5;
    match open_bytes("crc", &bytes) {
        Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "features"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn store_corrupted_table_is_typed() {
    let fx = store_fixture();
    let mut bytes = fx.bytes.clone();
    // flip a bit inside the section table without re-patching its CRC
    bytes[HEADER_LEN + 4] ^= 0x01;
    match open_bytes("table", &bytes) {
        Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "table"),
        other => panic!("expected table ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn store_out_of_range_neighbor_is_typed() {
    let fx = store_fixture();
    let targets = SectionId::OutTargets as u32;
    let (_, field_at, offset, len) = *section_table(&fx.bytes)
        .iter()
        .find(|(id, ..)| *id == targets)
        .expect("out_targets section present");
    assert!(len >= 4);
    let mut bytes = fx.bytes.clone();
    // point graph 0's first neighbor far outside the graph, then make the
    // section and table CRCs agree so the row check itself is what fires
    let at = offset as usize;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&bytes[at..at + len as usize]);
    bytes[field_at + 16..field_at + 20].copy_from_slice(&crc.to_le_bytes());
    repatch_table_crc(&mut bytes);
    match open_bytes("neighbor", &bytes) {
        Err(StoreError::Malformed(msg)) => assert!(msg.contains("out_targets"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn store_misaligned_section_is_typed() {
    let fx = store_fixture();
    let features = SectionId::Features as u32;
    let (_, field_at, offset, _) = *section_table(&fx.bytes)
        .iter()
        .find(|(id, ..)| *id == features)
        .expect("features section present");
    let mut bytes = fx.bytes.clone();
    // knock the offset off its 64-byte alignment, then make the table CRC
    // agree so the alignment check itself is what fires
    bytes[field_at..field_at + 8].copy_from_slice(&(offset + 1).to_le_bytes());
    repatch_table_crc(&mut bytes);
    match open_bytes("align", &bytes) {
        Err(StoreError::Misaligned { section, offset: got }) => {
            assert_eq!(section, "features");
            assert_eq!(got, offset + 1);
        }
        other => panic!("expected Misaligned, got {other:?}"),
    }
}
