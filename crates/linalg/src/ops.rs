//! Element-wise activations, softmax, and the classification loss.
//!
//! These are the only non-linear pieces the GCN classifier needs. Each
//! forward operation comes with the matching backward (VJP) used by the
//! trainer and by the mask-learning baseline explainers.

use crate::backend::{KernelBackend, SimdBackend};
use crate::matrix::Matrix;

/// The stable-exp core shared by every softmax in the crate (and the fused
/// cross-entropy): shifts `row` by its maximum and exponentiates in place,
/// returning `(max, sum)`. The shift and the left-to-right sum order are
/// fixed, so all callers agree bitwise on the exponentials; only how they
/// normalize afterwards may differ.
pub(crate) fn stable_exp_in_place(row: &mut [f32]) -> (f32, f32) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    (max, sum)
}

/// ReLU applied element-wise, returning a new matrix.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    SimdBackend.relu(out.as_mut_slice());
    out
}

/// Backward pass of ReLU: `grad_in = grad_out ⊙ 1[x > 0]`.
///
/// `x` is the *pre-activation* input that was fed to [`relu`].
pub fn relu_backward(x: &Matrix, grad_out: &Matrix) -> Matrix {
    assert_eq!(x.shape(), grad_out.shape(), "relu_backward shape mismatch");
    let mut g = grad_out.clone();
    SimdBackend.relu_backward(x.as_slice(), g.as_mut_slice());
    g
}

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        SimdBackend.softmax_row(out.row_mut(r));
    }
    out
}

/// Cross-entropy loss of a single logit row against a target class.
///
/// Returns `(loss, grad_logits)` where `grad_logits = softmax(z) - onehot(y)`
/// — the standard fused softmax/cross-entropy gradient. Uses the shared
/// [`stable_exp_in_place`] core, so its probabilities match the scalar
/// softmax bitwise.
pub fn cross_entropy_with_grad(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(target < logits.len(), "target class out of range");
    let mut grad = logits.to_vec();
    let (max, sum) = stable_exp_in_place(&mut grad);
    let log_sum = sum.ln() + max;
    let loss = log_sum - logits[target];
    for e in &mut grad {
        *e /= sum;
    }
    grad[target] -= 1.0;
    (loss, grad)
}

/// Softmax over a single slice (probability distribution over classes).
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    SimdBackend.softmax_row(&mut out);
    out
}

/// Index of the maximum element; ties break toward the lower index.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    sq_euclidean(a, b).sqrt()
}

/// Euclidean distance normalized by `sqrt(dim)` so thresholds are comparable
/// across embedding widths.
pub fn normalized_euclidean(a: &[f32], b: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    euclidean(a, b) / (a.len() as f32).sqrt()
}

/// The "normalized Euclidean distance" of Eq. 6: Euclidean distance between
/// the *unit-normalized* vectors, bounded in `[0, 2]` — so a single radius
/// threshold `r` is meaningful regardless of embedding magnitude or width.
/// Zero vectors normalize to zero (distance to anything is that thing's
/// unit norm).
pub fn unit_normalized_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    let mut d = 0.0;
    for (x, y) in a.iter().zip(b) {
        let xa = if na > 0.0 { x / na } else { 0.0 };
        let yb = if nb > 0.0 { y / nb } else { 0.0 };
        d += (xa - yb) * (xa - yb);
    }
    d.sqrt()
}

/// Sigmoid (used by the GNNExplainer baseline's soft masks).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&x), Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let g = Matrix::from_rows(&[&[5.0, 5.0, 5.0]]);
        assert_eq!(relu_backward(&x, &g), Matrix::from_rows(&[&[0.0, 0.0, 5.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // second row is uniform despite huge logits (stability check)
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let (loss, grad) = cross_entropy_with_grad(&[0.0, 0.0], 0);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!((grad[0] - (-0.5)).abs() < 1e-6);
        assert!((grad[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_numerical_check() {
        let logits = [0.3_f32, -1.2, 2.0];
        let target = 2;
        let (_, grad) = cross_entropy_with_grad(&logits, target);
        let eps = 1e-3_f32;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let (lp, _) = cross_entropy_with_grad(&plus, target);
            let (lm, _) = cross_entropy_with_grad(&minus, target);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-2,
                "grad[{i}]: analytic {} vs numeric {num}",
                grad[i]
            );
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn distances() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert!(
            (normalized_euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0 / 2.0_f32.sqrt()).abs() < 1e-6
        );
        assert_eq!(normalized_euclidean(&[], &[]), 0.0);
    }

    #[test]
    fn unit_normalized_distance_bounds() {
        // identical directions → 0 regardless of magnitude
        assert!(unit_normalized_distance(&[1.0, 0.0], &[5.0, 0.0]).abs() < 1e-6);
        // opposite directions → 2 (the max)
        assert!((unit_normalized_distance(&[1.0, 0.0], &[-3.0, 0.0]) - 2.0).abs() < 1e-6);
        // orthogonal → sqrt(2)
        let d = unit_normalized_distance(&[1.0, 0.0], &[0.0, 2.0]);
        assert!((d - 2.0_f32.sqrt()).abs() < 1e-6);
        // zero vector: distance equals the other's unit norm (1)
        assert!((unit_normalized_distance(&[0.0, 0.0], &[0.0, 7.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_bounds() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }
}
