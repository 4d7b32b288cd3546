//! Segmented column reductions over row-stacked matrices.
//!
//! The batched GNN engine packs `K` graphs into one tall matrix whose rows
//! are grouped by an *offsets table*: segment `k` owns rows
//! `offsets[k]..offsets[k + 1]`. The graph-level readout then becomes a
//! segmented reduction — one output row per segment — instead of `K`
//! separate pooling calls. Each reduction scans rows in ascending order
//! with the same accumulation scheme as the per-matrix [`Matrix::col_max`]
//! / [`Matrix::col_mean`] / [`Matrix::col_sum`], so segment `k`'s output
//! row equals the per-graph reduction of the same rows up to the usual
//! single-pass rounding.
//!
//! Empty segments (zero-node graphs riding in a batch) reduce to a zero
//! row, matching what the per-graph readout produces for the empty graph.

use crate::backend::{KernelBackend, SimdBackend};
use crate::matrix::Matrix;

/// Validates the offsets table against the stacked matrix: monotone
/// non-decreasing, starting at 0 and ending at `x.rows()`.
fn check_offsets(x: &Matrix, offsets: &[usize]) -> usize {
    assert!(offsets.len() >= 2, "offsets table needs at least one segment");
    assert_eq!(offsets[0], 0, "offsets must start at 0");
    assert_eq!(*offsets.last().expect("nonempty"), x.rows(), "offsets must end at x.rows()");
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be non-decreasing");
    offsets.len() - 1
}

/// Per-segment column max with argmax tracking: returns a `K × cols` matrix
/// and a flat `K * cols` vector of *global* (stacked) row indices — entry
/// `k * cols + j` is the row that supplied `out[(k, j)]`. Empty segments
/// yield a zero row and argmax `offsets[k]` (never dereferenced by
/// backprop, which skips empty segments).
pub fn segmented_col_max(x: &Matrix, offsets: &[usize]) -> (Matrix, Vec<usize>) {
    let segments = check_offsets(x, offsets);
    let cols = x.cols();
    let mut out = Matrix::zeros(segments, cols);
    let mut arg = vec![0usize; segments * cols];
    SimdBackend.segmented_col_max(x, offsets, &mut out, &mut arg);
    (out, arg)
}

/// Per-segment column sum as a `K × cols` matrix (empty segments are zero).
pub fn segmented_col_sum(x: &Matrix, offsets: &[usize]) -> Matrix {
    let segments = check_offsets(x, offsets);
    let mut out = Matrix::zeros(segments, x.cols());
    SimdBackend.segmented_col_sum(x, offsets, &mut out);
    out
}

/// Per-segment column mean as a `K × cols` matrix (empty segments are
/// zero). Accumulates like [`segmented_col_sum`], then scales each segment
/// row by `1 / segment_len` — the same sum-then-scale order as
/// [`Matrix::col_mean`].
pub fn segmented_col_mean(x: &Matrix, offsets: &[usize]) -> Matrix {
    let segments = check_offsets(x, offsets);
    let mut out = Matrix::zeros(segments, x.cols());
    SimdBackend.segmented_col_mean(x, offsets, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stacked() -> (Matrix, Vec<usize>) {
        // three segments: 2 rows, 0 rows (empty graph), 3 rows
        let x = Matrix::from_rows(&[
            &[1.0, -2.0],
            &[3.0, 0.5],
            &[-1.0, 4.0],
            &[2.0, 2.0],
            &[0.0, -3.0],
        ]);
        (x, vec![0, 2, 2, 5])
    }

    #[test]
    fn max_matches_per_segment_col_max() {
        let (x, offsets) = stacked();
        let (out, arg) = segmented_col_max(&x, &offsets);
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(out.row(0), &[3.0, 0.5]);
        assert_eq!(out.row(1), &[0.0, 0.0]); // empty segment
        assert_eq!(out.row(2), &[2.0, 4.0]);
        // global argmax rows: segment 0 -> rows 1,1; segment 2 -> rows 3,2
        assert_eq!(&arg[0..2], &[1, 1]);
        assert_eq!(&arg[2..4], &[2, 2]); // empty segment pins to its offset
        assert_eq!(&arg[4..6], &[3, 2]);
    }

    #[test]
    fn sum_and_mean_match_per_segment_reductions() {
        let (x, offsets) = stacked();
        let sum = segmented_col_sum(&x, &offsets);
        assert_eq!(sum.row(0), &[4.0, -1.5]);
        assert_eq!(sum.row(1), &[0.0, 0.0]);
        assert_eq!(sum.row(2), &[1.0, 3.0]);
        let mean = segmented_col_mean(&x, &offsets);
        assert_eq!(mean.row(0), &[2.0, -0.75]);
        assert_eq!(mean.row(1), &[0.0, 0.0]);
        assert_eq!(mean.row(2), &[1.0 / 3.0, 1.0]);
    }

    #[test]
    fn single_segment_equals_whole_matrix_reductions() {
        let (x, _) = stacked();
        let offsets = vec![0, x.rows()];
        let (max, arg) = segmented_col_max(&x, &offsets);
        let (want_max, want_arg) = x.col_max();
        assert_eq!(max.row(0), want_max.row(0));
        assert_eq!(arg, want_arg);
        assert_eq!(segmented_col_sum(&x, &offsets).row(0), x.col_sum().row(0));
        assert_eq!(segmented_col_mean(&x, &offsets).row(0), x.col_mean().row(0));
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn bad_offsets_panic() {
        let (x, _) = stacked();
        let _ = segmented_col_sum(&x, &[0, 3]);
    }

    mod prop {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        /// Random segment lengths (empty segments included) + cols + flat
        /// values filling the stacked matrix.
        fn arb_stacked() -> impl Strategy<Value = (Vec<usize>, usize, Vec<f32>)> {
            (collection::vec(0usize..5, 1..6), 1usize..5).prop_flat_map(|(lens, cols)| {
                let total: usize = lens.iter().sum();
                collection::vec(-10.0f32..10.0, total * cols)
                    .prop_map(move |vals| (lens.clone(), cols, vals))
            })
        }

        fn build(lens: &[usize], cols: usize, vals: &[f32]) -> (Matrix, Vec<usize>) {
            let total: usize = lens.iter().sum();
            let mut x = Matrix::zeros(total, cols);
            for r in 0..total {
                x.row_mut(r).copy_from_slice(&vals[r * cols..(r + 1) * cols]);
            }
            let mut offsets = vec![0usize];
            for &l in lens {
                offsets.push(offsets.last().unwrap() + l);
            }
            (x, offsets)
        }

        /// The rows of one segment as a standalone matrix.
        fn segment_matrix(x: &Matrix, lo: usize, hi: usize) -> Matrix {
            let mut m = Matrix::zeros(hi - lo, x.cols());
            for (i, r) in (lo..hi).enumerate() {
                m.row_mut(i).copy_from_slice(x.row(r));
            }
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The segmented reductions scan rows in the same order with the
            // same accumulation scheme as the per-matrix ones, so each
            // segment's output row is *bitwise* equal to pooling that
            // segment alone — the invariant that makes batched readout
            // interchangeable with per-graph readout.
            #[test]
            fn segments_match_per_graph_pooling(case in arb_stacked()) {
                let (lens, cols, vals) = case;
                let (x, offsets) = build(&lens, cols, &vals);
                let (max, arg) = segmented_col_max(&x, &offsets);
                let sum = segmented_col_sum(&x, &offsets);
                let mean = segmented_col_mean(&x, &offsets);
                for k in 0..lens.len() {
                    let (lo, hi) = (offsets[k], offsets[k + 1]);
                    if lo == hi {
                        prop_assert!(max.row(k).iter().all(|&v| v == 0.0));
                        prop_assert!(sum.row(k).iter().all(|&v| v == 0.0));
                        prop_assert!(mean.row(k).iter().all(|&v| v == 0.0));
                        prop_assert!(arg[k * cols..(k + 1) * cols].iter().all(|&a| a == lo));
                        continue;
                    }
                    let seg = segment_matrix(&x, lo, hi);
                    let (want_max, want_arg) = seg.col_max();
                    prop_assert_eq!(max.row(k), want_max.row(0));
                    // segmented argmax is in stacked coordinates
                    let local: Vec<usize> =
                        arg[k * cols..(k + 1) * cols].iter().map(|&a| a - lo).collect();
                    prop_assert_eq!(local, want_arg);
                    prop_assert_eq!(sum.row(k), seg.col_sum().row(0));
                    prop_assert_eq!(mean.row(k), seg.col_mean().row(0));
                }
            }
        }
    }
}
