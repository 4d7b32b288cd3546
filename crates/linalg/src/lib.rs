//! Dense linear algebra and optimization primitives for GVEX.
//!
//! The GVEX reproduction implements its GCN classifier from scratch; this
//! crate provides the small, allocation-conscious numeric kernel it is built
//! on:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the handful of BLAS-like
//!   operations a message-passing GNN needs (matmul, transpose, row ops),
//! * [`backend`] — the autovectorized lane kernels every hot kernel runs
//!   on, and the scalar reference loops kept as their test oracle,
//! * [`kernels`] — shared register-accumulating row kernels for the sparse
//!   propagation and batched-Jacobian hot paths,
//! * [`ops`] — element-wise activations, row-wise softmax, and the
//!   cross-entropy loss with its gradient,
//! * [`segmented`] — per-segment column reductions over row-stacked
//!   matrices (the readout of the block-diagonal batched GNN engine),
//! * [`init`] — Xavier/Glorot and uniform initializers,
//! * [`adam::Adam`] — the Adam optimizer used to train the classifier
//!   (Kingma & Ba, ICLR'15), matching the paper's training setup (§6.1).
//!
//! Everything is deterministic given a seeded RNG, which the dataset
//! generators and experiment harness rely on.

pub mod adam;
pub mod backend;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod segmented;

pub use adam::Adam;
pub use matrix::Matrix;
