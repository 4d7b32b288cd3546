//! Differential pinning of the `simd` backend against the `scalar`
//! reference backend.
//!
//! Every kernel of [`gvex_linalg::backend::KernelBackend`] is raced through
//! both statically-known backend handles (never the process-global active
//! backend — these tests run concurrently with others) across ragged
//! shapes, empty matrices, and column counts that are not multiples of the
//! lane widths. The tolerance policy under test:
//!
//! * **bitwise**: `relu`, `relu_backward`, the segmented reductions
//!   (values *and* argmax tie-breaks), and the Adam update — their lane
//!   kernels preserve per-element operations and per-column accumulation
//!   order exactly;
//! * **≤ 1e-5 absolute** on unit-scale inputs: the matmuls, sparse
//!   products, and softmax normalization, which reassociate sums or fuse
//!   multiply-adds.

use gvex_linalg::backend::{backend, AdamParams, BackendKind, KernelBackend};
use gvex_linalg::Matrix;
use proptest::collection;
use proptest::prelude::*;

const SCALAR: BackendKind = BackendKind::Scalar;
const SIMD: BackendKind = BackendKind::Simd;

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// A `rows × cols` matrix of unit-scale values with a sprinkling of exact
/// zeros (so the matmul census paths and liveness filters get exercised).
fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    collection::vec(-1.0f32..1.0, rows * cols).prop_map(move |data| {
        // squash ~a quarter of the draws to exact zero
        let data = data.into_iter().map(|v| if v < -0.5 { 0.0 } else { v }).collect();
        Matrix::from_vec(rows, cols, data)
    })
}

/// Sparse operator rows over `n` columns: per row, a small column-sorted
/// deduplicated set of `(col, weight)` terms. Rows may be empty.
fn arb_sparse_rows(n: usize) -> impl Strategy<Value = Vec<Vec<(usize, f32)>>> {
    collection::vec(collection::vec((0..n, -1.0f32..1.0), 0..7), n).prop_map(|rows| {
        rows.into_iter()
            .map(|mut row| {
                row.sort_by_key(|e| e.0);
                row.dedup_by_key(|e| e.0);
                row
            })
            .collect()
    })
}

/// A segment-offsets table summing to `rows` (empty segments included).
fn arb_offsets(rows: usize) -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..4, 1..5).prop_map(move |lens| {
        let mut offsets = vec![0usize];
        for l in lens {
            offsets.push((offsets.last().unwrap() + l).min(rows));
        }
        // table must end exactly at rows
        offsets.push(rows);
        offsets
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_differential(case in (1usize..17, 1usize..49, 1usize..41)
        .prop_flat_map(|(m, k, n)| (arb_matrix(m, k), arb_matrix(k, n))))
    {
        let (lhs, rhs) = case;
        let mut a = Matrix::zeros(0, 0);
        let mut b = Matrix::zeros(0, 0);
        backend(SCALAR).matmul_into(&lhs, &rhs, &mut a);
        backend(SIMD).matmul_into(&lhs, &rhs, &mut b);
        prop_assert!(
            max_abs_diff(a.as_slice(), b.as_slice()) < 1e-5,
            "matmul {}x{}x{} diverged", lhs.rows(), lhs.cols(), rhs.cols()
        );
    }

    #[test]
    fn spmm_differential(case in (1usize..12, 1usize..35)
        .prop_flat_map(|(n, cols)| (arb_sparse_rows(n), arb_matrix(n, cols))))
    {
        let (rows, x) = case;
        let mut a = Matrix::zeros(0, 0);
        let mut b = Matrix::zeros(0, 0);
        backend(SCALAR).spmm_into(&rows, &x, &mut a);
        backend(SIMD).spmm_into(&rows, &x, &mut b);
        prop_assert_eq!(a.shape(), x.shape());
        prop_assert_eq!(b.shape(), x.shape());
        prop_assert!(max_abs_diff(a.as_slice(), b.as_slice()) < 1e-5);

        let mut ta = Matrix::zeros(0, 0);
        let mut tb = Matrix::zeros(0, 0);
        backend(SCALAR).spmm_transpose_into(&rows, &x, &mut ta);
        backend(SIMD).spmm_transpose_into(&rows, &x, &mut tb);
        prop_assert!(max_abs_diff(ta.as_slice(), tb.as_slice()) < 1e-5);
    }

    #[test]
    fn spmm_row_differential(case in (1usize..10, 1usize..35)
        .prop_flat_map(|(n, cols)| (arb_sparse_rows(n), arb_matrix(n, cols))))
    {
        let (rows, x) = case;
        let cols = x.cols();
        // stale garbage in the output: spmm_row must fully overwrite
        let mut a = vec![f32::NAN; cols];
        let mut b = vec![f32::NAN; cols];
        for terms in &rows {
            backend(SCALAR).spmm_row(&mut a, x.as_slice(), terms, cols);
            backend(SIMD).spmm_row(&mut b, x.as_slice(), terms, cols);
            prop_assert!(max_abs_diff(&a, &b) < 1e-5);
            if terms.is_empty() {
                prop_assert!(a.iter().all(|&v| v == 0.0));
                prop_assert!(b.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn segmented_reductions_bitwise(case in (0usize..14, 1usize..35)
        .prop_flat_map(|(rows, cols)| (arb_matrix(rows, cols), arb_offsets(rows))))
    {
        let (x, offsets) = case;
        let segments = offsets.len() - 1;
        let cols = x.cols();

        let mut sum_a = Matrix::zeros(segments, cols);
        let mut sum_b = Matrix::zeros(segments, cols);
        backend(SCALAR).segmented_col_sum(&x, &offsets, &mut sum_a);
        backend(SIMD).segmented_col_sum(&x, &offsets, &mut sum_b);
        prop_assert_eq!(&sum_a, &sum_b); // same per-column order: bitwise

        let mut mean_a = Matrix::zeros(segments, cols);
        let mut mean_b = Matrix::zeros(segments, cols);
        backend(SCALAR).segmented_col_mean(&x, &offsets, &mut mean_a);
        backend(SIMD).segmented_col_mean(&x, &offsets, &mut mean_b);
        prop_assert_eq!(&mean_a, &mean_b);

        let mut max_a = Matrix::zeros(segments, cols);
        let mut max_b = Matrix::zeros(segments, cols);
        let mut arg_a = vec![0usize; segments * cols];
        let mut arg_b = vec![0usize; segments * cols];
        backend(SCALAR).segmented_col_max(&x, &offsets, &mut max_a, &mut arg_a);
        backend(SIMD).segmented_col_max(&x, &offsets, &mut max_b, &mut arg_b);
        prop_assert_eq!(&max_a, &max_b);
        prop_assert_eq!(arg_a, arg_b); // identical strict-> tie-breaking
    }

    #[test]
    fn relu_kernels_bitwise(vals in collection::vec(-2.0f32..2.0, 0..70)) {
        let mut a = vals.clone();
        let mut b = vals.clone();
        backend(SCALAR).relu(&mut a);
        backend(SIMD).relu(&mut b);
        prop_assert_eq!(&a, &b);

        let pre = vals.clone();
        let mut ga: Vec<f32> = vals.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut gb = ga.clone();
        backend(SCALAR).relu_backward(&pre, &mut ga);
        backend(SIMD).relu_backward(&pre, &mut gb);
        prop_assert_eq!(ga, gb);
    }

    #[test]
    fn softmax_row_within_tolerance(row in collection::vec(-8.0f32..8.0, 1..40)) {
        let mut a = row.clone();
        let mut b = row.clone();
        backend(SCALAR).softmax_row(&mut a);
        backend(SIMD).softmax_row(&mut b);
        prop_assert!(max_abs_diff(&a, &b) < 1e-5);
        let sum: f32 = b.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5, "simd softmax sums to {sum}");
    }

    #[test]
    fn adam_update_bitwise(
        n in 0usize..70,
        seed_p in -1.0f32..1.0,
        seed_g in -1.0f32..1.0,
        t in 1i32..50,
    ) {
        // deterministic but varied slices derived from the seeds
        let p0: Vec<f32> = (0..n).map(|i| seed_p * (i as f32 * 0.37 - 1.0)).collect();
        let g: Vec<f32> = (0..n).map(|i| seed_g * ((i as f32 * 0.11).sin())).collect();
        let m0: Vec<f32> = (0..n).map(|i| 0.01 * i as f32).collect();
        let v0: Vec<f32> = (0..n).map(|i| 0.02 + 0.001 * i as f32).collect();
        let hp = AdamParams {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            bias1: 1.0 - 0.9f32.powi(t),
            bias2: 1.0 - 0.999f32.powi(t),
            eps: 1e-8,
        };
        let (mut pa, mut ma, mut va) = (p0.clone(), m0.clone(), v0.clone());
        let (mut pb, mut mb, mut vb) = (p0, m0, v0);
        backend(SCALAR).adam_update(&mut pa, &g, &mut ma, &mut va, &hp);
        backend(SIMD).adam_update(&mut pb, &g, &mut mb, &mut vb, &hp);
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(ma, mb);
        prop_assert_eq!(va, vb);
    }
}

/// The backend trait objects a test might hold are `'static` and shareable.
#[test]
fn handles_are_static_and_distinct() {
    let s: &'static dyn KernelBackend = backend(SCALAR);
    let v: &'static dyn KernelBackend = backend(SIMD);
    assert_eq!(s.kind(), SCALAR);
    assert_eq!(v.kind(), SIMD);
}

/// The dispatch census under a pinned scalar backend: every kernel's
/// `.scalar` census cell increments, and the one-shot
/// `linalg.backend.selected.*` counter names scalar — the assertions
/// `ci.sh` relies on when it re-runs the suite under `GVEX_BACKEND=scalar`.
/// This binary's other tests only use the statically-known handles, so the
/// process-global active backend (and the one-shot) belong to this test.
#[test]
fn scalar_dispatch_census_is_recorded() {
    use gvex_linalg::backend::{dispatch, refresh_from_env, set_active, Kernel};
    gvex_obs::set_enabled(true);
    if !gvex_obs::enabled() {
        return; // obs feature compiled out: the census is legitimately absent
    }
    let value = |name: &str| {
        gvex_obs::metrics::counters().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
    };
    let kernels = [
        (Kernel::Matmul, "matmul"),
        (Kernel::Spmm, "spmm"),
        (Kernel::SpmmBlocks, "spmm_blocks"),
        (Kernel::SpmmTranspose, "spmm_transpose"),
        (Kernel::SegmentedSum, "segmented_sum"),
        (Kernel::SegmentedMean, "segmented_mean"),
        (Kernel::SegmentedMax, "segmented_max"),
        (Kernel::Relu, "relu"),
        (Kernel::ReluBackward, "relu_backward"),
        (Kernel::Softmax, "softmax"),
        (Kernel::Adam, "adam"),
    ];
    set_active(SCALAR);
    let before: Vec<u64> = kernels
        .iter()
        .map(|(_, n)| value(&format!("linalg.backend.dispatch.{n}.scalar")))
        .collect();
    for (k, _) in kernels {
        assert_eq!(dispatch(k).kind(), SCALAR);
    }
    for (i, (_, n)) in kernels.iter().enumerate() {
        let name = format!("linalg.backend.dispatch.{n}.scalar");
        assert_eq!(value(&name), before[i] + 1, "{name} did not increment");
    }
    refresh_from_env();
    // The one-shot fired exactly once, and — because the first observed
    // dispatch in this process was pinned scalar — it named scalar.
    let counters = gvex_obs::metrics::counters();
    let selected: Vec<_> =
        counters.iter().filter(|(n, _)| n.starts_with("linalg.backend.selected.")).collect();
    assert_eq!(selected.len(), 1, "one-shot selected counter: {selected:?}");
    assert_eq!(selected[0].0, "linalg.backend.selected.scalar");
    assert_eq!(selected[0].1, 1);
}

/// Degenerate shapes: empty operands must produce empty (or zero) outputs
/// without panicking on either backend.
#[test]
fn empty_shapes_are_safe() {
    for kind in [SCALAR, SIMD] {
        let b = backend(kind);
        let mut out = Matrix::zeros(3, 3);
        b.matmul_into(&Matrix::zeros(0, 5), &Matrix::zeros(5, 4), &mut out);
        assert_eq!(out.shape(), (0, 4));
        b.matmul_into(&Matrix::zeros(4, 0), &Matrix::zeros(0, 2), &mut out);
        assert_eq!(out.shape(), (4, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        b.spmm_into(&[], &Matrix::zeros(0, 7), &mut out);
        assert_eq!(out.shape(), (0, 7));
        let mut seg = Matrix::zeros(1, 2);
        let mut arg = vec![9usize; 2];
        b.segmented_col_max(&Matrix::zeros(0, 2), &[0, 0], &mut seg, &mut arg);
        assert_eq!(arg, vec![0, 0], "empty segment pins argmax to its offset");
        b.relu(&mut []);
        b.adam_update(
            &mut [],
            &[],
            &mut [],
            &mut [],
            &AdamParams { lr: 1e-3, beta1: 0.9, beta2: 0.999, bias1: 0.1, bias2: 0.001, eps: 1e-8 },
        );
    }
}
