//! Hot-path benchmark — writes `BENCH_hotpaths.json` at the workspace root
//! so successive PRs have a perf trajectory to beat.
//!
//! Races use interleaved min-of-N timing, the robust estimator on a noisy
//! shared box.
//!
//! 1. Disabled-observability overhead: a 256³ matmul raced with and
//!    without a `gvex_obs` span/counter around each call while observation
//!    is off (target: ratio ≈ 1.0, i.e. statistically zero), plus the
//!    direct per-op cost of a full disabled macro set.
//! 2. VF2 subgraph matching: the bitset candidate-frontier engine (with a
//!    prebuilt [`MatchIndex`]) vs the retained reference engine, racing a
//!    6-node typed path pattern against a ~200-node target (target ≥ 3×).
//!    Both engines must report the same embedding count.
//! 3. End-to-end explain wall time through the session's parallel driver
//!    (a fresh session per timed call, so every run pays the cold work) on
//!    a small motif database, at 1 and 4 threads (identical output by
//!    construction; the adaptive fan-out gate must keep the 4-thread run
//!    from regressing on a workload this small), then on a larger database
//!    whose workload clears the fan-out threshold and fans out on
//!    multi-core hardware (on a single-core container the gate's hardware
//!    clamp keeps both sizes sequential, so the ratio stays ≈ 1.0 there
//!    too); reported under the `explain_database` /
//!    `explain_database_large` keys the ci.sh gates read.
//!    A final run repeats the small 4-thread explain with observation
//!    *enabled*, checks the output is bitwise identical, exercises the
//!    bitset matcher / truncation cap / embedding-reuse paths so their
//!    counters are present, verifies the views through a shared
//!    `TraceCache`, and emits the obs run report (`OBS_report.json`) as
//!    the phase breakdown for this benchmark.
//! 4. Session reuse: several selectors over one session's shared influence
//!    analyses vs a fresh session per selector call (target ≥ 1.5×).
//! 5. Block-diagonal batched execution: database-wide inference through
//!    one fused forward (`GraphBatch` + `forward_batch`) vs per-graph
//!    passes with the same precomputed operators (target ≥ 2× at batch
//!    32), and mini-batch training (`batch_size = 16`) vs per-graph
//!    steps over identical epochs (target ≥ 1.5×).
//! 6. Kernel races (`gvex_linalg::backend`): the production call sites
//!    (`Matrix::matmul_into`, `NormAdj::matmul_into`,
//!    `segmented::segmented_col_sum`, all on the lane kernels) raced
//!    against the scalar oracle handle on the same inputs — 256³ dense
//!    matmul, block-diagonal SpMM on a packed operator, and the segmented
//!    column-sum readout (targets ≥ 1.5×, ≥ 1.5×, ≥ 1.2×).
//! 7. Store serving (`gvex-store`): a full cold start (generate the MUT
//!    dataset, train the classifier, mine every class's views) raced
//!    against the warm path (memory-map the `.gvex` container, parse the
//!    stored views, classify every graph zero-copy off the mapped CSR
//!    columns). CI gates warm ≥ 10× faster with identical selections and
//!    labels; `db_open` additionally reports the bare `Store::open` cost.
//! 8. Serving QPS (`gvex-serve`): a warm daemon (4 workers, answer cache)
//!    replaying a fixed Zipfian request mix from 4 concurrent clients vs
//!    the same requests each paying a full per-request `ServeState::open`.
//!    CI gates warm ≥ 10× the cold throughput with byte-identical bodies;
//!    client-side p50/p99 latencies ride along. A second arm replays the
//!    same Zipfian reads while a writer streams `mutate` batches with
//!    commits — p50/p99 under live ingest, epochs observed via the
//!    generation counter.
//! 9. Ingest (`gvex-ingest`): a localized mutation stream applied against
//!    the benchmark store with incremental view maintenance
//!    (`IngestEngine::apply`, per-mutation refresh latency recorded) vs
//!    the same stream where every update pays a full per-class view
//!    recompute. CI gates incremental ≥ 10× on updates/s and requires the
//!    final incremental state to be equivalent to a from-scratch rebuild
//!    (the differential pin).

use gvex_bench::harness;
use gvex_core::exact::{greedy_selection, streaming_selection};
use gvex_core::verify::verify_view_with;
use gvex_core::{Configuration, ExplainSession, ExplanationViewSet, GreedyStrategy};
use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::propagation::NormAdj;
use gvex_gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, GraphBatch, Split, TraceCache};
use gvex_graph::{Graph, GraphDatabase, GraphRef};
use gvex_ingest::GenProfile;
use gvex_iso::{
    for_each_embedding, for_each_embedding_reference, for_each_embedding_with_index, MatchIndex,
    MatchOptions,
};
use gvex_linalg::backend::{backend, BackendKind};
use gvex_linalg::segmented::segmented_col_sum;
use gvex_linalg::Matrix;
use gvex_mining::MiningConfig;
use gvex_store::Store;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct ObsOverheadBench {
    /// Matmul dimension used for the raced pair.
    size: usize,
    /// Min-of-N seconds for the bare kernel call.
    baseline_secs: f64,
    /// Min-of-N seconds with a disabled span + counter around each call.
    instrumented_secs: f64,
    /// `instrumented / baseline`; ≈ 1.0 means statistically zero overhead.
    overhead_ratio: f64,
    /// Direct amortized cost of one disabled span! + counter! + histogram!
    /// set, in nanoseconds.
    disabled_macro_set_ns: f64,
    /// Min-of-N seconds with observation *enabled* (span + counter +
    /// histogram live, trace ring off).
    obs_on_secs: f64,
    /// Same with the trace ring also recording a begin/end pair per span.
    obs_on_trace_secs: f64,
    /// `obs_on_trace / obs_on`; CI gates this at ≤ 2× — the ring write must
    /// stay in the noise next to the observed kernel.
    trace_ring_ratio: f64,
}

#[derive(Serialize)]
struct Vf2Bench {
    target_nodes: usize,
    target_edges: usize,
    pattern_nodes: usize,
    /// Embeddings enumerated per run (identical for both engines).
    embeddings: usize,
    reference_secs: f64,
    bitset_secs: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ExplainBench {
    graphs: usize,
    labels: usize,
    secs_1_thread: f64,
    secs_4_threads: f64,
    /// 4-thread run repeated with observation enabled.
    obs_secs_4_threads: f64,
    /// Whether the obs-enabled run produced bitwise-identical views.
    obs_identical: bool,
}

/// The parallel explain driver on a workload big enough to clear the adaptive
/// fan-out threshold (the small [`ExplainBench`] stays below it).
#[derive(Serialize)]
struct ExplainScaleBench {
    graphs: usize,
    avg_nodes: f64,
    secs_1_thread: f64,
    secs_4_threads: f64,
    /// Whether the two thread counts produced bitwise-identical views.
    identical: bool,
}

/// Session-reuse amortization: the same influence analyses consumed by
/// several selection algorithms per graph, through one shared
/// [`ExplainSession`] (each Jacobian differentiated once) vs. a fresh
/// session per selector call (each call recomputes it).
#[derive(Serialize)]
struct ExplainSessionBench {
    graphs: usize,
    /// Selector variants run per graph.
    algorithms: usize,
    /// Min-of-N seconds with a fresh session (fresh caches) per call.
    per_call_secs: f64,
    /// Min-of-N seconds with one session shared across all calls.
    session_secs: f64,
    speedup: f64,
    /// Whether both arms produced identical selections.
    identical: bool,
}

/// Database-wide inference: one graph at a time through the per-graph
/// forward vs the whole set packed into one block-diagonal batch. Both arms
/// reuse precomputed operators (per-graph adjacencies / the packed layout),
/// so the race isolates the fused-execution win (stacked dense products,
/// segmented readout, one FC head application) from operator construction.
#[derive(Serialize)]
struct BatchedForwardBench {
    graphs: usize,
    avg_nodes: f64,
    /// Min-of-N seconds classifying every graph individually.
    per_graph_secs: f64,
    /// Min-of-N seconds classifying the prebuilt batch in one fused pass.
    batched_secs: f64,
    speedup: f64,
    /// Whether both arms assigned identical labels.
    identical: bool,
}

/// Mini-batch training epochs: `batch_size = 1` (per-graph steps) vs
/// `batch_size = 16` (block-diagonal fused steps) over the same database,
/// epochs, and seed.
#[derive(Serialize)]
struct BatchedTrainBench {
    graphs: usize,
    epochs: usize,
    batch_size: usize,
    /// Min-of-N seconds for the per-graph training run.
    per_graph_secs: f64,
    /// Min-of-N seconds for the mini-batch training run.
    batched_secs: f64,
    speedup: f64,
}

/// One hot kernel raced at its production call site (the lane kernels)
/// against the scalar oracle handle on the same inputs.
#[derive(Serialize)]
struct BackendKernelBench {
    /// Human-readable problem shape, e.g. `"256x256x256"`.
    shape: String,
    /// Min-of-N seconds for the scalar oracle.
    backend_scalar_secs: f64,
    /// Min-of-N seconds for the production call site.
    backend_simd_secs: f64,
    speedup: f64,
}

/// Bare `Store::open` on a freshly written `.gvex` container: header,
/// section table, and per-section CRC validation over the mapped bytes,
/// with O(1) allocation regardless of payload size.
#[derive(Serialize)]
struct DbOpenBench {
    /// `.gvex` file length in bytes.
    file_bytes: u64,
    /// Sections in the container's table.
    sections: usize,
    /// How the bytes were brought in: `"mmap"` or the `"read"` fallback.
    mapping: String,
    /// Min-of-N seconds for `Store::open` alone.
    open_secs: f64,
    /// Mapped megabytes validated and served per second of open time.
    mapped_mb_per_s: f64,
}

/// One-shot cold start (generate + train + mine) vs min-of-N warm serve
/// (open the store, parse the stored views, classify every graph straight
/// off the mapped CSR columns). CI gates the speedup at ≥ 10×.
#[derive(Serialize)]
struct ServeFromDbBench {
    graphs: usize,
    /// One-shot seconds for the no-database path: dataset generation,
    /// classifier training, and single-threaded view mining.
    cold_secs: f64,
    /// Min-of-N seconds for open + view parse + database classification.
    warm_secs: f64,
    speedup: f64,
    /// Store-served view selections and predicted labels are identical to
    /// the in-memory ones (checked both zero-copy and via the harness's
    /// owned `prepare_from_store` path).
    identical: bool,
}

/// Sustained serving over TCP: an in-process `gvex serve` daemon with a
/// warm session pool and answer cache, driven by concurrent clients
/// replaying a Zipfian explain/node/query mix, vs answering a sample of
/// the same requests with a per-request cold start (open the store, build
/// the serving state, answer once, throw it away). CI gates the
/// throughput ratio at ≥ 10× and requires byte-identical answers.
#[derive(Serialize)]
struct ServeQpsBench {
    /// Requests replayed against the warm daemon.
    requests: usize,
    /// Concurrent client connections.
    clients: usize,
    /// Daemon worker threads.
    workers: usize,
    /// Warm daemon throughput (requests/s over the full replay).
    warm_qps: f64,
    /// Client-observed median round-trip, microseconds.
    warm_p50_us: f64,
    /// Client-observed 99th-percentile round-trip, microseconds.
    warm_p99_us: f64,
    /// Requests answered by the per-request cold-start arm.
    cold_requests: usize,
    /// Cold-start throughput (requests/s).
    cold_qps: f64,
    /// `warm_qps / cold_qps`.
    speedup: f64,
    /// Answer-cache hits during the warm replay.
    cache_hits: u64,
    /// Answer-cache misses during the warm replay.
    cache_misses: u64,
    /// Every concurrent response body matched the sequential in-process
    /// answer byte for byte.
    identical: bool,
    /// Read requests answered during the mixed read/write replay.
    mixed_requests: usize,
    /// Mutations streamed by the writer during the mixed replay.
    mixed_mutations: usize,
    /// Epochs the daemon published under the mixed load (generation delta).
    mixed_epochs: u64,
    /// Read throughput under live ingest (requests/s).
    mixed_qps: f64,
    /// Client-observed median read round-trip under ingest, microseconds.
    mixed_p50_us: f64,
    /// Client-observed 99th-percentile read round-trip under ingest.
    mixed_p99_us: f64,
}

/// A localized mutation stream against the benchmark store: incremental
/// view maintenance per update vs a full per-class recompute per update.
/// CI gates the updates/s ratio at ≥ 10× and the differential pin.
#[derive(Serialize)]
struct IngestBench {
    /// Graphs in the mutated database.
    graphs: usize,
    /// Mutations applied by the incremental arm.
    mutations: usize,
    /// Epochs published while applying them (every 8 mutations).
    epochs: u64,
    /// Maintainer patch operations performed.
    views_patched: u64,
    /// Seconds for the whole incremental stream.
    incremental_secs: f64,
    /// Incremental throughput (mutations folded into live views per second).
    incremental_updates_per_s: f64,
    /// Median per-mutation view-refresh latency, microseconds.
    refresh_p50_us: f64,
    /// 99th-percentile per-mutation view-refresh latency, microseconds.
    refresh_p99_us: f64,
    /// Updates the recompute arm paid for (each one a full re-mine).
    full_updates: usize,
    /// Seconds for the recompute arm.
    full_secs: f64,
    /// Recompute throughput (updates/s).
    full_updates_per_s: f64,
    /// `incremental_updates_per_s / full_updates_per_s`.
    speedup: f64,
    /// The incremental end state is equivalent to a from-scratch rebuild:
    /// byte-identical subgraph tiers, bitwise-equal scores, and patterns
    /// that cover every recomputed subgraph.
    differential_ok: bool,
}

#[derive(Serialize)]
struct Report {
    obs_overhead: ObsOverheadBench,
    vf2_match: Vf2Bench,
    explain_database: ExplainBench,
    explain_database_large: ExplainScaleBench,
    explain_session: ExplainSessionBench,
    batched_forward: BatchedForwardBench,
    batched_train_epoch: BatchedTrainBench,
    simd_matmul: BackendKernelBench,
    simd_spmm: BackendKernelBench,
    simd_segmented: BackendKernelBench,
    db_open: DbOpenBench,
    serve_from_db: ServeFromDbBench,
    serve_qps: ServeQpsBench,
    ingest: IngestBench,
}

/// Interleaved min-of-`rounds` timing of two closures: `a` and `b` alternate
/// within every round, so slow drift (thermal, noisy neighbours) hits both
/// equally instead of biasing whichever ran second.
fn race<A, B>(rounds: usize, mut a: A, mut b: B) -> (f64, f64)
where
    A: FnMut(),
    B: FnMut(),
{
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let t = Instant::now();
        a();
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

/// An `n`-node connected graph with average degree ≈ 9 (ring plus random
/// chords) and three node types — the connectivity of a small social /
/// interaction graph, where influence reaches most of the graph within
/// the model's receptive field.
fn ring_graph(n: usize, dim: usize) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut b = Graph::builder(false);
    for v in 0..n {
        let feats: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        b.add_node((v % 3) as u32, &feats);
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, 0);
        for _ in 0..4 {
            let u = rng.gen_range(0..n);
            if u != v {
                b.add_edge(v, u, 0);
            }
        }
    }
    b.build()
}

/// Races the matmul hot loop bare vs. wrapped in a *disabled* span +
/// counter — the exact macro set the instrumented kernels execute when
/// `GVEX_OBS` is off. The kernel itself carries its own internal obs calls
/// in both closures, so the race isolates the marginal cost of one more
/// disabled macro layer.
fn bench_obs_overhead() -> ObsOverheadBench {
    // Force the runtime toggle off regardless of the environment: this
    // bench exists to prove the *disabled* path costs nothing.
    gvex_obs::set_enabled(false);
    const N: usize = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let a = random_matrix(N, N, &mut rng);
    let b = random_matrix(N, N, &mut rng);
    black_box(a.matmul(&b));
    let (baseline_secs, instrumented_secs) = race(
        15,
        || {
            black_box(a.matmul(black_box(&b)));
        },
        || {
            gvex_obs::span!("obs_overhead.matmul");
            gvex_obs::counter!("obs_overhead.calls");
            black_box(a.matmul(black_box(&b)));
        },
    );

    // Direct per-op cost of a full disabled macro set, amortized.
    const REPS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..REPS {
        gvex_obs::span!("obs_overhead.op");
        gvex_obs::counter!("obs_overhead.ops");
        gvex_obs::histogram!("obs_overhead.hist", black_box(i));
    }
    let disabled_macro_set_ns = t.elapsed().as_nanos() as f64 / REPS as f64;

    // Enabled-path cost, raced with and without the trace ring. Each arm
    // sets the trace mode itself (one relaxed store) so the alternation
    // stays symmetric; a bench-scoped request tags the recorded spans so
    // this block also exercises per-request attribution under load.
    gvex_obs::set_enabled(true);
    let (obs_on_secs, obs_on_trace_secs) = race(
        15,
        || {
            gvex_obs::trace::force_active(false);
            let _req = gvex_obs::context::ReqScope::begin("bench.obs_overhead");
            gvex_obs::span!("obs_overhead.matmul_on");
            gvex_obs::counter!("obs_overhead.calls_on");
            black_box(a.matmul(black_box(&b)));
        },
        || {
            gvex_obs::trace::force_active(true);
            let _req = gvex_obs::context::ReqScope::begin("bench.obs_overhead");
            gvex_obs::span!("obs_overhead.matmul_trace");
            gvex_obs::counter!("obs_overhead.calls_trace");
            black_box(a.matmul(black_box(&b)));
        },
    );
    // Leave no residue for the explain bench's emitted report: wipe the
    // ring and every registry this block populated, and restore both
    // toggles to off.
    gvex_obs::trace::force_active(false);
    gvex_obs::trace::clear();
    gvex_obs::reset();
    gvex_obs::set_enabled(false);

    ObsOverheadBench {
        size: N,
        baseline_secs,
        instrumented_secs,
        overhead_ratio: instrumented_secs / baseline_secs,
        disabled_macro_set_ns,
        obs_on_secs,
        obs_on_trace_secs,
        trace_ring_ratio: obs_on_trace_secs / obs_on_secs,
    }
}

/// A 6-node typed path whose type sequence follows the ring graph's
/// `v % 3` labeling, so it embeds along the ring and its chords.
fn path_pattern() -> Graph {
    let mut b = Graph::builder(false);
    for i in 0..6 {
        b.add_node((i % 3) as u32, &[]);
    }
    for i in 1..6 {
        b.add_edge(i - 1, i, 0);
    }
    b.build()
}

fn bench_vf2() -> Vf2Bench {
    const N: usize = 192;
    let target = ring_graph(N, 2);
    let pattern = path_pattern();
    // Monomorphism semantics with a high cap: the interesting cost is the
    // feasibility checks per search node, not induced non-edge filtering.
    let opts = MatchOptions { induced: false, max_embeddings: 1_000_000 };
    let index = MatchIndex::build(&target);
    let count_ref = || {
        let mut n = 0usize;
        for_each_embedding_reference(&pattern, &target, opts, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    };
    let count_bitset = || {
        let mut n = 0usize;
        for_each_embedding_with_index(&pattern, &target, &index, opts, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    };
    let (embeddings, bitset_count) = (count_ref(), count_bitset());
    assert_eq!(embeddings, bitset_count, "engines disagree on the embedding set");
    let (reference_secs, bitset_secs) = race(
        9,
        || {
            black_box(count_ref());
        },
        || {
            black_box(count_bitset());
        },
    );
    Vf2Bench {
        target_nodes: N,
        target_edges: target.num_edges(),
        pattern_nodes: pattern.num_nodes(),
        embeddings,
        reference_secs,
        bitset_secs,
        speedup: reference_secs / bitset_secs,
    }
}

fn motif_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
    let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.add_edge(chain - 1, m1, 0);
    b.add_edge(m1, m2, 0);
    b.build()
}

fn plain_graph(chain: usize) -> Graph {
    let mut b = Graph::builder(false);
    for _ in 0..chain {
        b.add_node(0, &[1.0, 0.0, 0.0]);
    }
    for v in 1..chain {
        b.add_edge(v - 1, v, 0);
    }
    b.build()
}

fn bench_explain() -> (ExplainBench, ExplainScaleBench) {
    let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for i in 0..10 {
        db.push(plain_graph(6 + i % 3), 0);
        db.push(motif_graph(5 + i % 3), 1);
    }
    let split =
        Split { train: (0..db.len()).collect(), val: (0..db.len()).collect(), test: vec![] };
    let gcfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
    let opts = TrainOptions { epochs: 80, lr: 0.01, seed: 1, patience: 0, ..Default::default() };
    let (model, _) = train(&db, gcfg, &split, opts);
    let labels: Vec<usize> = vec![0, 1];
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
    // ApproxGVEX through the parallel driver of a fresh session, so every
    // call pays the full cold work (forward passes, influence analyses)
    let explain = |db: &GraphDatabase, threads: usize| -> ExplanationViewSet {
        ExplainSession::new(&model, cfg.clone()).expect("valid configuration").explain_parallel(
            &GreedyStrategy,
            db,
            &labels,
            threads,
        )
    };

    // Interleaved min-of-9 (same estimator as the kernel benches): the
    // runs are short enough that slow drift would otherwise dominate the
    // thread-count ratio the CI gates.
    let (secs_1, secs_4) = race(
        9,
        || {
            black_box(explain(&db, 1));
        },
        || {
            black_box(explain(&db, 4));
        },
    );
    let baseline = explain(&db, 4);

    // Repeat with observation enabled: the output must stay bitwise
    // identical, and the collected spans/counters become this benchmark's
    // phase breakdown (emitted to stderr + OBS_report.json).
    gvex_obs::set_enabled(true);
    let t = Instant::now();
    let observed = explain(&db, 4);
    let obs_secs_4 = t.elapsed().as_secs_f64();
    // Verify the views through one shared trace cache, twice: the second
    // pass re-sees every member graph, so the report carries a non-trivial
    // trace-cache hit rate alongside the PMatch/VF2 counters.
    let cache = TraceCache::new();
    for view in observed.views.iter().chain(observed.views.iter()) {
        black_box(verify_view_with(&cache, &model, &db, view, &cfg));
    }
    // Exercise the bitset matcher, the truncation cap, and Psum's
    // embedding-reuse path while observation is on: the tiny database
    // above matches through the reference engine only (targets < 32
    // nodes), so without this the counters those paths record —
    // `iso.vf2.frontier_prunes`, `iso.vf2.truncated`,
    // `mining.pgen.embedding_reuse_hits` — would be absent from the
    // emitted report.
    let big_target = ring_graph(64, 2);
    let mut capped = 0usize;
    for_each_embedding(
        &path_pattern(),
        &big_target,
        MatchOptions { induced: false, max_embeddings: 8 },
        |_| {
            capped += 1;
            ControlFlow::Continue(())
        },
    );
    black_box(capped);
    let mined_from = [motif_graph(6), motif_graph(7)];
    let refs: Vec<&Graph> = mined_from.iter().collect();
    black_box(gvex_core::psum::psum(&refs, &MiningConfig::default(), MatchOptions::default()));
    gvex_obs::report::emit();
    gvex_obs::set_enabled(false);
    let obs_identical = serde_json::to_string(&baseline).expect("views serialize")
        == serde_json::to_string(&observed).expect("views serialize");

    let small = ExplainBench {
        graphs: db.len(),
        labels: labels.len(),
        secs_1_thread: secs_1,
        secs_4_threads: secs_4,
        obs_secs_4_threads: obs_secs_4,
        obs_identical,
    };

    // Larger database: fewer but much bigger graphs, so the estimated
    // explain cost clears the fan-out threshold and the fan-out spawns
    // workers wherever the hardware has them (the same trained model
    // explains both databases).
    let mut large = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
    for _ in 0..4 {
        large.push(plain_graph(42), 0);
        large.push(motif_graph(40), 1);
    }
    let (large_1, large_4) = race(
        7,
        || {
            black_box(explain(&large, 1));
        },
        || {
            black_box(explain(&large, 4));
        },
    );
    let first = explain(&large, 1);
    let second = explain(&large, 4);
    let identical = serde_json::to_string(&first).expect("views serialize")
        == serde_json::to_string(&second).expect("views serialize");
    let avg_nodes = large.graphs().iter().map(|g| g.num_nodes() as f64).sum::<f64>()
        / large.len().max(1) as f64;
    let scale = ExplainScaleBench {
        graphs: large.len(),
        avg_nodes,
        secs_1_thread: large_1,
        secs_4_threads: large_4,
        identical,
    };
    (small, scale)
}

/// One selector variant: the un-gated greedy, or the streaming swap rule
/// over a forward / reverse arrival order. All three consume the same
/// [`gvex_influence::analysis::InfluenceAnalysis`], which is the expensive
/// part — exactly the sharing a session exists to capture.
fn run_selector(a: &gvex_influence::analysis::InfluenceAnalysis, k: usize, n: usize) -> Vec<usize> {
    match k {
        0 => greedy_selection(a, 5).0,
        1 => {
            let fwd: Vec<usize> = (0..n).collect();
            streaming_selection(a, &fwd, 5).0
        }
        _ => {
            let rev: Vec<usize> = (0..n).rev().collect();
            streaming_selection(a, &rev, 5).0
        }
    }
}

fn bench_explain_session() -> ExplainSessionBench {
    const GRAPHS: usize = 8;
    const ALGOS: usize = 3;
    let graphs: Vec<Graph> = (0..GRAPHS).map(|i| ring_graph(40 + i, 8)).collect();
    let model = GcnModel::new(
        GcnConfig { input_dim: 8, hidden: 32, layers: 3, num_classes: 2 },
        &mut ChaCha8Rng::seed_from_u64(7),
    );
    let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 5);

    // Per-call arm: what the free-function era did — every algorithm
    // invocation rebuilds its own analysis (GRAPHS × ALGOS Jacobians).
    let per_call = || -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            for k in 0..ALGOS {
                let sess = ExplainSession::new(&model, cfg.clone()).expect("valid configuration");
                let a = sess.influence(g, gi);
                out.push(run_selector(&a, k, g.num_nodes()));
            }
        }
        out
    };
    // Session arm: one session for the whole batch; the influence memo
    // differentiates each graph once (GRAPHS Jacobians), every later
    // selector call on the same graph is a cache hit.
    let session_arm = || -> Vec<Vec<usize>> {
        let sess = ExplainSession::new(&model, cfg.clone()).expect("valid configuration");
        let mut out = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            for k in 0..ALGOS {
                let a = sess.influence(g, gi);
                out.push(run_selector(&a, k, g.num_nodes()));
            }
        }
        out
    };

    let identical = per_call() == session_arm();
    let (per_call_secs, session_secs) = race(
        5,
        || {
            black_box(per_call());
        },
        || {
            black_box(session_arm());
        },
    );
    ExplainSessionBench {
        graphs: GRAPHS,
        algorithms: ALGOS,
        per_call_secs,
        session_secs,
        speedup: per_call_secs / session_secs,
        identical,
    }
}

fn bench_batched_forward() -> BatchedForwardBench {
    const K: usize = 32;
    let cfg = GcnConfig { input_dim: 8, hidden: 32, layers: 3, num_classes: 2 };
    let model = GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(21));
    let graphs: Vec<Graph> = (0..K).map(|i| ring_graph(6 + i % 4, 8)).collect();
    let views: Vec<GraphRef> = graphs.iter().map(|g| g.view()).collect();
    // shared operators: both arms skip adjacency construction, so the race
    // measures execution shape only
    let adjs: Vec<std::sync::Arc<NormAdj>> = graphs
        .iter()
        .map(|g| std::sync::Arc::new(NormAdj::with_aggregation(g, model.aggregation())))
        .collect();

    let per_graph = || -> Vec<usize> {
        views
            .iter()
            .zip(&adjs)
            .map(|(v, adj)| model.forward_with_adj(v, std::sync::Arc::clone(adj)).label())
            .collect()
    };
    // the packed layout is operator construction too (feature copy +
    // block-diagonal concatenation) — prebuilt like the per-graph arm's
    // adjacency operators, so the race is execution shape vs execution shape
    let batch = GraphBatch::pack_with_operators(&views, &adjs, model.config().input_dim);
    let batched = || -> Vec<usize> { model.forward_batch(&batch).labels() };
    let identical = per_graph() == batched();
    let (per_graph_secs, batched_secs) = race(
        25,
        || {
            black_box(per_graph());
        },
        || {
            black_box(batched());
        },
    );
    let avg_nodes = graphs.iter().map(|g| g.num_nodes() as f64).sum::<f64>() / graphs.len() as f64;
    BatchedForwardBench {
        graphs: K,
        avg_nodes,
        per_graph_secs,
        batched_secs,
        speedup: per_graph_secs / batched_secs,
        identical,
    }
}

fn bench_batched_train() -> BatchedTrainBench {
    const GRAPHS: usize = 48;
    const EPOCHS: usize = 4;
    const BATCH: usize = 16;
    let mut db = GraphDatabase::new(vec!["even".into(), "odd".into()]);
    for i in 0..GRAPHS {
        db.push(ring_graph(8 + i % 6, 8), i % 2);
    }
    let split = Split { train: (0..db.len()).collect(), val: vec![0, 1], test: vec![] };
    let gcfg = GcnConfig { input_dim: 8, hidden: 32, layers: 3, num_classes: 2 };
    let base = TrainOptions { epochs: EPOCHS, lr: 0.01, seed: 9, patience: 0, batch_size: 1 };
    let mini = TrainOptions { batch_size: BATCH, ..base };
    // warm-up: page in both code paths before timing
    black_box(train(&db, gcfg, &split, base));
    black_box(train(&db, gcfg, &split, mini));
    let (per_graph_secs, batched_secs) = race(
        7,
        || {
            black_box(train(&db, gcfg, &split, base));
        },
        || {
            black_box(train(&db, gcfg, &split, mini));
        },
    );
    BatchedTrainBench {
        graphs: GRAPHS,
        epochs: EPOCHS,
        batch_size: BATCH,
        per_graph_secs,
        batched_secs,
        speedup: per_graph_secs / batched_secs,
    }
}

fn bench_simd_matmul() -> BackendKernelBench {
    const N: usize = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let a = random_matrix(N, N, &mut rng);
    let b = random_matrix(N, N, &mut rng);
    let scalar = backend(BackendKind::Scalar);
    // one output scratch per arm (reused across rounds, like the trainer)
    let mut out_s = Matrix::zeros(0, 0);
    let mut out_v = Matrix::zeros(0, 0);
    scalar.matmul_into(&a, &b, &mut out_s);
    a.matmul_into(&b, &mut out_v);
    let (scalar_secs, simd_secs) = race(
        7,
        || {
            scalar.matmul_into(&a, black_box(&b), &mut out_s);
            black_box(&out_s);
        },
        || {
            a.matmul_into(black_box(&b), &mut out_v);
            black_box(&out_v);
        },
    );
    BackendKernelBench {
        shape: format!("{N}x{N}x{N}"),
        backend_scalar_secs: scalar_secs,
        backend_simd_secs: simd_secs,
        speedup: scalar_secs / simd_secs,
    }
}

fn bench_simd_spmm() -> BackendKernelBench {
    // a training-shaped workload: 24 medium graphs packed into one
    // block-diagonal operator, propagated against hidden-width features
    const BLOCKS: usize = 24;
    const COLS: usize = 64;
    let graphs: Vec<Graph> = (0..BLOCKS).map(|i| ring_graph(60 + i % 9, 4)).collect();
    let adjs: Vec<NormAdj> = graphs.iter().map(NormAdj::new).collect();
    let block = NormAdj::block_diagonal(adjs.iter());
    let total = block.len();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let x = random_matrix(total, COLS, &mut rng);
    // the oracle takes the operator as plain row lists
    let rows: Vec<Vec<(usize, f32)>> = (0..total).map(|u| block.row(u).to_vec()).collect();
    let scalar = backend(BackendKind::Scalar);
    let mut out_s = Matrix::zeros(0, 0);
    let mut out_v = Matrix::zeros(0, 0);
    scalar.spmm_into(&rows, &x, &mut out_s);
    block.matmul_into(&x, &mut out_v);
    let (scalar_secs, simd_secs) = race(
        15,
        || {
            scalar.spmm_into(&rows, black_box(&x), &mut out_s);
            black_box(&out_s);
        },
        || {
            block.matmul_into(black_box(&x), &mut out_v);
            black_box(&out_v);
        },
    );
    BackendKernelBench {
        shape: format!("{BLOCKS} blocks, {total}x{COLS}"),
        backend_scalar_secs: scalar_secs,
        backend_simd_secs: simd_secs,
        speedup: scalar_secs / simd_secs,
    }
}

fn bench_simd_segmented() -> BackendKernelBench {
    // readout-shaped: many small segments over a cache-resident stacked
    // matrix, repeated enough times per round to rise above timer noise.
    // The production wrapper allocates its zeroed output per call, so the
    // oracle arm allocates one too.
    const ROWS: usize = 4096;
    const COLS: usize = 32;
    const REPS: usize = 40;
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    let x = random_matrix(ROWS, COLS, &mut rng);
    let mut offsets = vec![0usize];
    while *offsets.last().expect("nonempty") < ROWS {
        let next = (offsets.last().expect("nonempty") + rng.gen_range(8..48)).min(ROWS);
        offsets.push(next);
    }
    let segments = offsets.len() - 1;
    let scalar = backend(BackendKind::Scalar);
    let (scalar_secs, simd_secs) = race(
        25,
        || {
            for _ in 0..REPS {
                let mut out = Matrix::zeros(segments, COLS);
                scalar.segmented_col_sum(black_box(&x), &offsets, &mut out);
                black_box(&out);
            }
        },
        || {
            for _ in 0..REPS {
                black_box(segmented_col_sum(black_box(&x), &offsets));
            }
        },
    );
    BackendKernelBench {
        shape: format!("{ROWS}x{COLS}, {segments} segments"),
        backend_scalar_secs: scalar_secs / REPS as f64,
        backend_simd_secs: simd_secs / REPS as f64,
        speedup: scalar_secs / simd_secs,
    }
}

/// One view's selections: its label plus each subgraph's
/// `(graph_index, node ids)`.
type ViewSignature = (usize, Vec<(usize, Vec<usize>)>);

/// The explain-view selections as comparable data.
fn selection_signature(set: &gvex_core::ExplanationViewSet) -> Vec<ViewSignature> {
    set.views
        .iter()
        .map(|v| (v.label, v.subgraphs.iter().map(|s| (s.graph_index, s.nodes.clone())).collect()))
        .collect()
}

/// Builds the benchmark store at `path` and measures open/serve costs.
/// The file is left in place for [`bench_serve_qps`]; `main` removes it.
fn bench_store(path: &std::path::Path) -> (DbOpenBench, ServeFromDbBench) {
    let (kind, scale, seed, upper) = (DatasetKind::Mutagenicity, Scale::Small, 42u64, 4usize);

    // Cold start, one shot: everything a fresh process must redo when no
    // database file exists.
    let t = Instant::now();
    let (prep, views_mem) = harness::prepare_with_views(kind, scale, seed, upper);
    let cold_secs = t.elapsed().as_secs_f64();

    let file_bytes = harness::write_store_file(&prep, &views_mem, seed, upper, path);

    // In-memory reference outputs for the parity check.
    let refs: Vec<GraphRef> = prep.db.graphs().iter().map(|g| g.view()).collect();
    let labels_mem = prep.model.predict_batch(&refs);
    let sel_mem = selection_signature(&views_mem);

    // Warm serve: open the container, parse the stored views, classify the
    // whole database zero-copy off the mapped columns.
    let serve = || {
        let store = Store::open(path).expect("reopen benchmark store");
        let views = gvex_core::ExplanationViewSet::from_json(
            store.views_json().expect("benchmark store embeds views"),
        )
        .expect("stored views decode");
        let model = store.model();
        let refs: Vec<GraphRef> =
            (0..store.num_graphs()).map(|i| GraphRef::from(store.graph(i))).collect();
        let labels = model.predict_batch(&refs);
        (selection_signature(&views), labels)
    };
    let mut warm_secs = f64::INFINITY;
    let mut served = None;
    for _ in 0..5 {
        let t = Instant::now();
        let out = serve();
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
        served = Some(out);
    }
    let (sel_store, labels_store) = served.expect("serve ran");

    // The harness-level warm path (owned copies) must agree as well.
    let (prep2, views2) = harness::prepare_from_store(path);
    let refs2: Vec<GraphRef> = prep2.db.graphs().iter().map(|g| g.view()).collect();
    let owned_identical = views2.map(|v| selection_signature(&v) == sel_mem).unwrap_or(false)
        && prep2.model.predict_batch(&refs2) == labels_mem;
    let identical = sel_store == sel_mem && labels_store == labels_mem && owned_identical;

    // Bare open, min-of-N.
    let probe = Store::open(path).expect("reopen benchmark store");
    let sections = probe.sections().len();
    let mapping = probe.mapping_kind().to_string();
    let mapped = probe.mapped_len();
    drop(probe);
    let mut open_secs = f64::INFINITY;
    for _ in 0..9 {
        let t = Instant::now();
        black_box(Store::open(path).expect("reopen benchmark store"));
        open_secs = open_secs.min(t.elapsed().as_secs_f64());
    }

    (
        DbOpenBench {
            file_bytes,
            sections,
            mapping,
            open_secs,
            mapped_mb_per_s: mapped as f64 / 1e6 / open_secs.max(1e-9),
        },
        ServeFromDbBench {
            graphs: prep.db.len(),
            cold_secs,
            warm_secs,
            speedup: cold_secs / warm_secs.max(1e-9),
            identical,
        },
    )
}

/// Zipfian(1) pick over `n` ranks: rank `i` drawn with weight `1/(i+1)`.
fn zipf_pick(rng: &mut ChaCha8Rng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty rank table");
    let u = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= u)
}

fn bench_serve_qps(path: &std::path::Path) -> ServeQpsBench {
    use gvex_serve::{answer, Client, Request, ServeState, Server, ServerConfig};

    const REQUESTS: usize = 240;
    const CLIENTS: usize = 4;
    const WORKERS: usize = 4;
    const COLD_REQUESTS: usize = 8;

    // Request templates ranked by popularity: explains first (hot), then
    // label queries, discriminative queries, and a tail of node requests.
    let probe = ServeState::open(path).expect("benchmark store opens");
    let classes = probe.db().num_classes();
    let mut templates: Vec<Request> = Vec::new();
    for l in 0..classes {
        templates.push(Request::explain(l, 4, false));
    }
    for l in 0..classes {
        templates.push(Request::query_label(l));
    }
    for l in 0..classes {
        templates.push(Request { discriminative: Some(l as u64), ..Request::query_label(l) });
    }
    for g in 0..probe.db().len().min(6) {
        templates.push(Request::node(g, 0, 4));
    }

    // Fixed Zipfian replay: every arm answers exactly this sequence.
    let mut cumulative = Vec::with_capacity(templates.len());
    let mut acc = 0.0;
    for i in 0..templates.len() {
        acc += 1.0 / (i + 1) as f64;
        cumulative.push(acc);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let schedule: Vec<usize> = (0..REQUESTS).map(|_| zipf_pick(&mut rng, &cumulative)).collect();

    // Sequential in-process ground truth (also warms nothing: fresh state).
    let expected: Vec<String> = {
        let state = ServeState::open(path).expect("benchmark store opens");
        templates
            .iter()
            .map(|r| {
                let resp = answer(&state, r);
                assert!(resp.ok, "sequential answer failed: {}", resp.error);
                resp.body
            })
            .collect()
    };

    // Warm arm: one daemon, CLIENTS concurrent connections replaying the
    // schedule round-robin, per-call latency recorded client-side.
    let state = ServeState::open(path).expect("benchmark store opens");
    let defaults = ServerConfig::for_classes(state.db().num_classes());
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig { workers: WORKERS, ..defaults })
        .expect("bind benchmark server");
    let addr = server.addr();
    let templates = std::sync::Arc::new(templates);
    let schedule = std::sync::Arc::new(schedule);
    let expected = std::sync::Arc::new(expected);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let templates = std::sync::Arc::clone(&templates);
            let schedule = std::sync::Arc::clone(&schedule);
            let expected = std::sync::Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut latencies_us = Vec::new();
                let mut identical = true;
                for i in (c..schedule.len()).step_by(CLIENTS) {
                    let at = schedule[i];
                    let t = Instant::now();
                    let resp = client.call(&templates[at]).expect("request answered");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(resp.ok, "warm request failed: {}", resp.error);
                    identical &= resp.body == expected[at];
                }
                (latencies_us, identical)
            })
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(REQUESTS);
    let mut identical = true;
    for h in handles {
        let (lat, ok) = h.join().expect("client thread");
        latencies_us.extend(lat);
        identical &= ok;
    }
    let warm_secs = t0.elapsed().as_secs_f64();
    let cache = server.cache_stats();
    drop(server);
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];

    // Cold arm: the same leading slice of the schedule, each request paying
    // a full state open (what serving without a daemon would cost).
    let t0 = Instant::now();
    for &at in schedule.iter().take(COLD_REQUESTS) {
        let state = ServeState::open(path).expect("benchmark store opens");
        let resp = answer(&state, &templates[at]);
        assert!(resp.ok, "cold request failed: {}", resp.error);
        identical &= resp.body == expected[at];
    }
    let cold_secs = t0.elapsed().as_secs_f64();

    // Mixed read/write arm: a fresh daemon over the same store, the same
    // CLIENTS readers replaying the schedule while a writer streams
    // localized mutations with per-batch commits. Bodies legitimately flip
    // when an epoch publishes mid-replay, so readers assert `ok` rather
    // than byte equality; what this arm measures is read latency while the
    // ingest engine patches views and swaps states underneath.
    const MIXED_MUTATIONS: usize = 12;
    const MIXED_BATCH: usize = 3;
    let state = ServeState::open(path).expect("benchmark store opens");
    let muts = gvex_ingest::generate(state.db(), MIXED_MUTATIONS, 11, GenProfile::Localized);
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig { workers: WORKERS, ..defaults })
        .expect("bind mixed benchmark server");
    let addr = server.addr();
    let t0 = Instant::now();
    let writer = {
        let muts = muts.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            for chunk in muts.chunks(MIXED_BATCH) {
                let jsonl = gvex_ingest::to_jsonl(chunk);
                let req = Request { upper: Some(4), ..Request::mutate(&jsonl, true) };
                let resp = client.call(&req).expect("mutate answered");
                assert!(resp.ok, "mixed-arm mutate failed: {}", resp.error);
            }
        })
    };
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let templates = std::sync::Arc::clone(&templates);
            let schedule = std::sync::Arc::clone(&schedule);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut latencies_us = Vec::new();
                for i in (c..schedule.len()).step_by(CLIENTS) {
                    let t = Instant::now();
                    let resp = client.call(&templates[schedule[i]]).expect("request answered");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(resp.ok, "mixed-arm read failed: {}", resp.error);
                }
                latencies_us
            })
        })
        .collect();
    let mut mixed_us = Vec::with_capacity(REQUESTS);
    for h in handles {
        mixed_us.extend(h.join().expect("mixed reader thread"));
    }
    writer.join().expect("mixed writer thread");
    let mixed_secs = t0.elapsed().as_secs_f64();
    let mixed_epochs = server.generation();
    drop(server);
    mixed_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mpct = |p: f64| mixed_us[((mixed_us.len() - 1) as f64 * p) as usize];

    let warm_qps = REQUESTS as f64 / warm_secs.max(1e-9);
    let cold_qps = COLD_REQUESTS as f64 / cold_secs.max(1e-9);
    ServeQpsBench {
        requests: REQUESTS,
        clients: CLIENTS,
        workers: WORKERS,
        warm_qps,
        warm_p50_us: pct(0.50),
        warm_p99_us: pct(0.99),
        cold_requests: COLD_REQUESTS,
        cold_qps,
        speedup: warm_qps / cold_qps.max(1e-9),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        identical,
        mixed_requests: REQUESTS,
        mixed_mutations: MIXED_MUTATIONS,
        mixed_epochs,
        mixed_qps: REQUESTS as f64 / mixed_secs.max(1e-9),
        mixed_p50_us: mpct(0.50),
        mixed_p99_us: mpct(0.99),
    }
}

/// Incremental view maintenance vs full recompute over a localized
/// mutation stream against the benchmark store. The incremental arm folds
/// every mutation into the live views through `IngestEngine::apply`
/// (publishing an epoch every 8); the recompute arm pays a full
/// `rebuild_views` per update — what serving fresh views without IncPGen /
/// IncPMatch would cost. Ends with the differential pin: the incremental
/// end state must be equivalent to a from-scratch rebuild.
fn bench_ingest(path: &std::path::Path) -> IngestBench {
    use gvex_ingest::{check_equivalent, rebuild_views, IngestEngine};

    const MUTATIONS: usize = 48;
    const FULL_UPDATES: usize = 3;
    const EPOCH_INTERVAL: usize = 8;

    let store = Store::open(path).expect("benchmark store opens");
    let db = store.database();
    let model = store.model();
    let views = gvex_core::ExplanationViewSet::from_json(
        store.views_json().expect("benchmark store embeds views"),
    )
    .expect("stored views decode");
    let cfg = harness::gvex_config(4);
    let muts = gvex_ingest::generate(&db, MUTATIONS, 5, GenProfile::Localized);
    let ops: Vec<_> = muts.iter().map(|m| m.parse().expect("generated mutations parse")).collect();

    // Incremental arm: per-mutation refresh latency + end-to-end stream.
    let mut engine = IngestEngine::new(
        &store.meta().dataset,
        store.meta().seed,
        db.clone(),
        model.clone(),
        cfg.clone(),
        views.clone(),
        0,
    )
    .expect("engine boots from store content");
    let mut refresh_us = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    for op in &ops {
        let t = Instant::now();
        engine.apply(op).expect("generated mutation applies");
        refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        if engine.pending() >= EPOCH_INTERVAL {
            black_box(engine.publish_epoch());
        }
    }
    if engine.pending() > 0 {
        black_box(engine.publish_epoch());
    }
    let incremental_secs = t0.elapsed().as_secs_f64();
    refresh_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| refresh_us[((refresh_us.len() - 1) as f64 * p) as usize];

    // Recompute arm: the same leading updates, each paying a full re-mine
    // of every class's views on the evolved database.
    let mut scratch = IngestEngine::new(
        &store.meta().dataset,
        store.meta().seed,
        db.clone(),
        model.clone(),
        cfg.clone(),
        views.clone(),
        0,
    )
    .expect("engine boots from store content");
    let t0 = Instant::now();
    for op in ops.iter().take(FULL_UPDATES) {
        scratch.apply(op).expect("generated mutation applies");
        black_box(rebuild_views(scratch.model(), scratch.db(), scratch.cfg(), 1));
    }
    let full_secs = t0.elapsed().as_secs_f64();

    // Differential pin: incremental end state ≡ from-scratch rebuild.
    let full = rebuild_views(engine.model(), engine.db(), engine.cfg(), 1);
    let eq = check_equivalent(&engine.views_set(), &full, engine.cfg());
    if !eq.ok {
        eprintln!("[hotpaths]   ingest differential FAILED: {}", eq.detail);
    }

    let stats = engine.stats();
    let incremental_updates_per_s = MUTATIONS as f64 / incremental_secs.max(1e-9);
    let full_updates_per_s = FULL_UPDATES as f64 / full_secs.max(1e-9);
    IngestBench {
        graphs: engine.db().len(),
        mutations: MUTATIONS,
        epochs: stats.epochs_published,
        views_patched: stats.views_patched,
        incremental_secs,
        incremental_updates_per_s,
        refresh_p50_us: pct(0.50),
        refresh_p99_us: pct(0.99),
        full_updates: FULL_UPDATES,
        full_secs,
        full_updates_per_s,
        speedup: incremental_updates_per_s / full_updates_per_s.max(1e-9),
        differential_ok: eq.ok,
    }
}

fn main() {
    eprintln!("[hotpaths] disabled-observability overhead ...");
    let obs = bench_obs_overhead();
    eprintln!(
        "[hotpaths]   ratio {:.4} (baseline {:.4}s vs instrumented {:.4}s), \
         disabled macro set {:.2} ns/op",
        obs.overhead_ratio, obs.baseline_secs, obs.instrumented_secs, obs.disabled_macro_set_ns
    );
    eprintln!(
        "[hotpaths]   obs on {:.4}s, obs on + trace ring {:.4}s, ratio {:.4} {}",
        obs.obs_on_secs,
        obs.obs_on_trace_secs,
        obs.trace_ring_ratio,
        if obs.trace_ring_ratio <= 2.0 { "(<= 2x gate met)" } else { "(ABOVE 2x gate)" }
    );

    eprintln!("[hotpaths] vf2 subgraph matching, 192-node target ...");
    let vf2 = bench_vf2();
    eprintln!(
        "[hotpaths]   {} embeddings: reference {:.4}s, bitset {:.4}s, speedup {:.2}x {}",
        vf2.embeddings,
        vf2.reference_secs,
        vf2.bitset_secs,
        vf2.speedup,
        if vf2.speedup >= 3.0 { "(>= 3x target met)" } else { "(BELOW 3x target)" }
    );

    eprintln!("[hotpaths] explain end-to-end (parallel driver) ...");
    let (explain, explain_large) = bench_explain();
    eprintln!(
        "[hotpaths]   {} graphs: {:.2}s @1 thread, {:.2}s @4 threads, {:.2}s @4 threads+obs ({})",
        explain.graphs,
        explain.secs_1_thread,
        explain.secs_4_threads,
        explain.obs_secs_4_threads,
        if explain.obs_identical { "output identical" } else { "OUTPUT DIVERGED" }
    );
    eprintln!(
        "[hotpaths]   {} large graphs (avg {:.0} nodes): {:.2}s @1 thread, {:.2}s @4 threads ({})",
        explain_large.graphs,
        explain_large.avg_nodes,
        explain_large.secs_1_thread,
        explain_large.secs_4_threads,
        if explain_large.identical { "output identical" } else { "OUTPUT DIVERGED" }
    );

    eprintln!("[hotpaths] explain-session reuse ...");
    let session = bench_explain_session();
    eprintln!(
        "[hotpaths]   {} graphs x {} algorithms: per-call {:.3}s, session {:.3}s, \
         speedup {:.2}x {} ({})",
        session.graphs,
        session.algorithms,
        session.per_call_secs,
        session.session_secs,
        session.speedup,
        if session.speedup >= 1.5 { "(>= 1.5x target met)" } else { "(BELOW 1.5x target)" },
        if session.identical { "selections identical" } else { "SELECTIONS DIVERGED" }
    );

    eprintln!("[hotpaths] batched block-diagonal forward ...");
    let batched_forward = bench_batched_forward();
    eprintln!(
        "[hotpaths]   {} graphs (avg {:.0} nodes): per-graph {:.5}s, batched {:.5}s, \
         speedup {:.2}x {} ({})",
        batched_forward.graphs,
        batched_forward.avg_nodes,
        batched_forward.per_graph_secs,
        batched_forward.batched_secs,
        batched_forward.speedup,
        if batched_forward.speedup >= 2.0 { "(>= 2x target met)" } else { "(BELOW 2x target)" },
        if batched_forward.identical { "labels identical" } else { "LABELS DIVERGED" }
    );

    eprintln!("[hotpaths] mini-batch training epochs ...");
    let batched_train = bench_batched_train();
    eprintln!(
        "[hotpaths]   {} graphs x {} epochs: batch 1 {:.4}s, batch {} {:.4}s, speedup {:.2}x {}",
        batched_train.graphs,
        batched_train.epochs,
        batched_train.per_graph_secs,
        batched_train.batch_size,
        batched_train.batched_secs,
        batched_train.speedup,
        if batched_train.speedup >= 1.5 { "(>= 1.5x target met)" } else { "(BELOW 1.5x target)" }
    );

    eprintln!("[hotpaths] kernel race, oracle vs production: dense matmul ...");
    let simd_matmul = bench_simd_matmul();
    eprintln!(
        "[hotpaths]   {}: oracle {:.4}s, production {:.4}s, speedup {:.2}x {}",
        simd_matmul.shape,
        simd_matmul.backend_scalar_secs,
        simd_matmul.backend_simd_secs,
        simd_matmul.speedup,
        if simd_matmul.speedup >= 1.5 { "(>= 1.5x target met)" } else { "(BELOW 1.5x target)" }
    );

    eprintln!("[hotpaths] kernel race, oracle vs production: block-diagonal spmm ...");
    let simd_spmm = bench_simd_spmm();
    eprintln!(
        "[hotpaths]   {}: oracle {:.4}s, production {:.4}s, speedup {:.2}x {}",
        simd_spmm.shape,
        simd_spmm.backend_scalar_secs,
        simd_spmm.backend_simd_secs,
        simd_spmm.speedup,
        if simd_spmm.speedup >= 1.5 { "(>= 1.5x target met)" } else { "(BELOW 1.5x target)" }
    );

    eprintln!("[hotpaths] kernel race, oracle vs production: segmented readout ...");
    let simd_segmented = bench_simd_segmented();
    eprintln!(
        "[hotpaths]   {}: oracle {:.4}s, production {:.4}s, speedup {:.2}x {}",
        simd_segmented.shape,
        simd_segmented.backend_scalar_secs,
        simd_segmented.backend_simd_secs,
        simd_segmented.speedup,
        if simd_segmented.speedup >= 1.2 { "(>= 1.2x target met)" } else { "(BELOW 1.2x target)" }
    );

    eprintln!("[hotpaths] store: cold start vs serve-from-db ...");
    let store_path =
        std::env::temp_dir().join(format!("gvex-hotpaths-{}.gvex", std::process::id()));
    let (db_open, serve_from_db) = bench_store(&store_path);
    eprintln!(
        "[hotpaths]   open {:.3} ms ({} bytes, {} sections via {}), {:.0} MB/s",
        db_open.open_secs * 1e3,
        db_open.file_bytes,
        db_open.sections,
        db_open.mapping,
        db_open.mapped_mb_per_s
    );
    eprintln!(
        "[hotpaths]   {} graphs: cold {:.2}s, warm {:.4}s, speedup {:.0}x {} ({})",
        serve_from_db.graphs,
        serve_from_db.cold_secs,
        serve_from_db.warm_secs,
        serve_from_db.speedup,
        if serve_from_db.speedup >= 10.0 { "(>= 10x target met)" } else { "(BELOW 10x target)" },
        if serve_from_db.identical { "output identical" } else { "OUTPUT DIVERGED" }
    );

    eprintln!("[hotpaths] serve: daemon QPS under Zipfian mix vs per-request cold start ...");
    let serve_qps = bench_serve_qps(&store_path);
    eprintln!(
        "[hotpaths]   {} reqs x {} clients @ {} workers: warm {:.0} qps \
         (p50 {:.0} us, p99 {:.0} us), cold {:.1} qps, speedup {:.0}x {} ({})",
        serve_qps.requests,
        serve_qps.clients,
        serve_qps.workers,
        serve_qps.warm_qps,
        serve_qps.warm_p50_us,
        serve_qps.warm_p99_us,
        serve_qps.cold_qps,
        serve_qps.speedup,
        if serve_qps.speedup >= 10.0 { "(>= 10x target met)" } else { "(BELOW 10x target)" },
        if serve_qps.identical { "bodies identical" } else { "BODIES DIVERGED" }
    );
    eprintln!(
        "[hotpaths]   mixed read/write: {:.0} qps (p50 {:.0} us, p99 {:.0} us) \
         under {} mutations / {} epochs",
        serve_qps.mixed_qps,
        serve_qps.mixed_p50_us,
        serve_qps.mixed_p99_us,
        serve_qps.mixed_mutations,
        serve_qps.mixed_epochs
    );

    eprintln!("[hotpaths] ingest: incremental view maintenance vs full recompute ...");
    let ingest = bench_ingest(&store_path);
    let _ = std::fs::remove_file(&store_path);
    eprintln!(
        "[hotpaths]   {} mutations: incremental {:.0} updates/s \
         (refresh p50 {:.0} us, p99 {:.0} us), full {:.2} updates/s, speedup {:.0}x {} ({})",
        ingest.mutations,
        ingest.incremental_updates_per_s,
        ingest.refresh_p50_us,
        ingest.refresh_p99_us,
        ingest.full_updates_per_s,
        ingest.speedup,
        if ingest.speedup >= 10.0 { "(>= 10x target met)" } else { "(BELOW 10x target)" },
        if ingest.differential_ok { "differential ok" } else { "DIFFERENTIAL FAILED" }
    );

    let report = Report {
        obs_overhead: obs,
        vf2_match: vf2,
        explain_database: explain,
        explain_database_large: explain_large,
        explain_session: session,
        batched_forward,
        batched_train_epoch: batched_train,
        simd_matmul,
        simd_spmm,
        simd_segmented,
        db_open,
        serve_from_db,
        serve_qps,
        ingest,
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpaths.json");
    let text = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[hotpaths] wrote {}", path.display());
}
