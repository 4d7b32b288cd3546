//! The Adam optimizer (Kingma & Ba, ICLR'15).
//!
//! The paper trains its GCN classifier with Adam at learning rate `1e-3`
//! (§6.1); this is a faithful single-tensor implementation with bias
//! correction. One [`Adam`] instance tracks first/second-moment state for one
//! parameter matrix.

use crate::backend::{AdamParams, KernelBackend, SimdBackend};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Adam optimizer state for a single parameter matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// First-moment (mean) estimate.
    m: Matrix,
    /// Second-moment (uncentered variance) estimate.
    v: Matrix,
    /// Step counter for bias correction.
    t: u32,
}

impl Adam {
    /// Creates Adam state for a parameter of the given shape with the
    /// paper's defaults (`lr = 1e-3`, `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_lr(rows, cols, 1e-3)
    }

    /// Creates Adam state with a custom learning rate.
    pub fn with_lr(rows: usize, cols: usize, lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
        }
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one Adam update to `param` given gradient `grad`.
    ///
    /// The element-wise update runs on the lane kernels of
    /// [`crate::backend`]; the per-element formula is fixed, so they match
    /// the scalar oracle bitwise.
    pub fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), self.m.shape(), "Adam shape mismatch");
        assert_eq!(param.shape(), grad.shape(), "Adam gradient shape mismatch");
        self.t += 1;
        let hp = AdamParams {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            bias1: 1.0 - self.beta1.powi(self.t as i32),
            bias2: 1.0 - self.beta2.powi(self.t as i32),
            eps: self.eps,
        };
        SimdBackend.adam_update(
            param.as_mut_slice(),
            grad.as_slice(),
            self.m.as_mut_slice(),
            self.v.as_mut_slice(),
            &hp,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = x² from x = 5 should converge toward 0.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut x = Matrix::from_rows(&[&[5.0]]);
        let mut opt = Adam::with_lr(1, 1, 0.1);
        for _ in 0..500 {
            let grad = x.scale(2.0); // d/dx x^2
            opt.step(&mut x, &grad);
        }
        assert!(x[(0, 0)].abs() < 1e-2, "did not converge: {}", x[(0, 0)]);
    }

    /// First step with bias correction moves by exactly lr in the gradient
    /// direction (property of Adam at t=1 with any gradient magnitude).
    #[test]
    fn first_step_magnitude_is_lr() {
        let mut x = Matrix::from_rows(&[&[0.0]]);
        let mut opt = Adam::with_lr(1, 1, 0.05);
        let grad = Matrix::from_rows(&[&[123.0]]);
        opt.step(&mut x, &grad);
        assert!((x[(0, 0)] + 0.05).abs() < 1e-4, "step was {}", x[(0, 0)]);
    }

    #[test]
    fn zero_gradient_is_stationary() {
        let mut x = Matrix::from_rows(&[&[1.5, -2.5]]);
        let before = x.clone();
        let mut opt = Adam::new(1, 2);
        opt.step(&mut x, &Matrix::zeros(1, 2));
        assert_eq!(x, before);
    }

    #[test]
    #[should_panic(expected = "Adam shape mismatch")]
    fn shape_mismatch_panics() {
        let mut x = Matrix::zeros(2, 2);
        let mut opt = Adam::new(1, 2);
        opt.step(&mut x, &Matrix::zeros(2, 2));
    }
}
