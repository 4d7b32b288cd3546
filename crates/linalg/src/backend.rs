//! The kernel set and its test oracle.
//!
//! Every hot kernel in the numeric stack — dense matmul, the sparse
//! propagation products, segmented readout reductions, activations, and the
//! Adam update — is one method of [`KernelBackend`]. Two implementations
//! exist, with different jobs:
//!
//! * [`SimdBackend`] — tiled / register-blocked lane kernels built on safe
//!   fixed-width chunking (`chunks_exact` + `f32::mul_add`), which the
//!   compiler autovectorizes; no `unsafe`, no intrinsics, no new
//!   dependencies. This is the one kernel set production code calls: the
//!   wrappers in [`crate::matrix`], [`crate::ops`], [`crate::segmented`],
//!   [`crate::adam`] and the propagation operator in `gvex-gnn` call it
//!   statically, with no runtime selection.
//! * [`ScalarBackend`] — the plain reference loops, simple enough to audit
//!   by eye. It is the *oracle* the lane kernels are tested against
//!   (`crates/linalg/tests/backend.rs`, `tests/kernels.rs`) and the
//!   reference arm of the hotpaths kernel races; nothing in production
//!   calls it. Tests reach it through [`backend`]`(BackendKind::Scalar)`.
//!
//! # Tolerance policy
//!
//! `relu` / `relu_backward`, the segmented reductions (including argmax
//! ties), and the Adam update are **bitwise identical** to the oracle:
//! their lane kernels keep the per-element operation and per-column
//! accumulation order unchanged. The matmuls, sparse products, and softmax
//! normalization reassociate sums or fuse multiply-adds, so they agree with
//! the oracle to ≤ 1e-5 absolute on unit-scale inputs.

use crate::matrix::Matrix;
use crate::{matrix, ops};

/// Alignment (bytes) that keeps any slice handed to the lane kernels on a
/// full cache line / widest-vector boundary. On-disk containers that want
/// their mapped `f32`/`u32` columns to feed [`SimdBackend`] without a
/// realignment copy must place sections on this boundary (`gvex-store`
/// aligns every section to it and rejects files that don't).
pub const SIMD_ALIGN: usize = 64;

/// Identity of a kernel set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Plain reference loops — the test oracle.
    Scalar,
    /// Tiled / register-blocked lane kernels — what production runs.
    Simd,
}

impl BackendKind {
    /// The lower-case name run metadata records.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

/// Hyper-parameters of one Adam update step, bias-correction terms
/// precomputed by the caller (`bias1 = 1 - β₁ᵗ`, `bias2 = 1 - β₂ᵗ`).
#[derive(Clone, Copy, Debug)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// `1 - β₁ᵗ` at the current step.
    pub bias1: f32,
    /// `1 - β₂ᵗ` at the current step.
    pub bias2: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
}

/// The hot-kernel surface of the numeric stack. Orchestration (shape
/// checks, sparsity censuses) stays with the callers; implementations
/// provide the inner arithmetic.
pub trait KernelBackend: Send + Sync {
    /// Which kernel set this is.
    fn kind(&self) -> BackendKind;

    /// Dense product `lhs · rhs` into `out` (reshaped and overwritten,
    /// allocation reused). Shapes are validated by the caller.
    fn matmul_into(&self, lhs: &Matrix, rhs: &Matrix, out: &mut Matrix);

    /// Sparse × dense product: `out[u] = Σ_{(v, w) ∈ rows[u]} w · x[v]`,
    /// with `out` reshaped to `x`'s shape and overwritten.
    fn spmm_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix);

    /// The per-row primitive of the sparse products: overwrites
    /// `out_row` (length `cols`) with `Σ (r, s) ∈ terms: s · src_row(r)`
    /// where `src_row(r) = src[r·cols .. (r+1)·cols]`. Empty `terms` writes
    /// zeros.
    fn spmm_row(&self, out_row: &mut [f32], src: &[f32], terms: &[(usize, f32)], cols: usize);

    /// Transposed sparse × dense product: scatters `w · x[u]` into
    /// `out[v]` for every `(v, w) ∈ rows[u]`; `out` is reshaped to `x`'s
    /// shape and overwritten.
    fn spmm_transpose_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix);

    /// Per-segment column sums into the pre-shaped `K × cols` matrix `out`
    /// (zeroed by the caller; empty segments stay zero). Offsets are
    /// validated by the caller.
    fn segmented_col_sum(&self, x: &Matrix, offsets: &[usize], out: &mut Matrix);

    /// Per-segment column means: sums like [`Self::segmented_col_sum`],
    /// then scales each segment row by `1 / len` — the same sum-then-scale
    /// order as `Matrix::col_mean`, shared across backends.
    fn segmented_col_mean(&self, x: &Matrix, offsets: &[usize], out: &mut Matrix) {
        self.segmented_col_sum(x, offsets, out);
        for k in 0..out.rows() {
            let len = offsets[k + 1] - offsets[k];
            if len > 0 {
                let inv = 1.0 / len as f32;
                for v in out.row_mut(k) {
                    *v *= inv;
                }
            }
        }
    }

    /// Per-segment column max with global argmax rows into the pre-shaped
    /// `out` / `arg` (entry `k·cols + j`). Ties break toward the lower row;
    /// empty segments yield a zero row with argmax pinned to `offsets[k]`.
    /// Bitwise identical across backends (comparison order per column is
    /// fixed).
    fn segmented_col_max(&self, x: &Matrix, offsets: &[usize], out: &mut Matrix, arg: &mut [usize]);

    /// In-place ReLU. Bitwise identical across backends.
    fn relu(&self, x: &mut [f32]);

    /// In-place ReLU VJP: zeroes `grad` wherever the pre-activation was
    /// `<= 0`. Bitwise identical across backends.
    fn relu_backward(&self, pre: &[f32], grad: &mut [f32]);

    /// In-place numerically-stable softmax of one row. All backends share
    /// the stable-exp core (`ops::stable_exp_in_place`); only the sum /
    /// normalization may reassociate.
    fn softmax_row(&self, row: &mut [f32]);

    /// One Adam update over flattened parameter / gradient / moment slices
    /// (equal lengths, validated by the caller). Bitwise identical across
    /// backends — the per-element formula is fixed.
    fn adam_update(
        &self,
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        hp: &AdamParams,
    );
}

/// The kernel set for `kind`: tests hold the [`ScalarBackend`] oracle next
/// to the production [`SimdBackend`] through these handles.
pub fn backend(kind: BackendKind) -> &'static dyn KernelBackend {
    match kind {
        BackendKind::Scalar => &ScalarBackend,
        BackendKind::Simd => &SimdBackend,
    }
}

/// The kernel set production code runs — always [`SimdBackend`]; run
/// metadata reads its [`KernelBackend::kind`].
pub fn active() -> &'static dyn KernelBackend {
    &SimdBackend
}

/// The plain reference loops: element-at-a-time arithmetic in a fixed
/// order, with a per-element zero skip in the matmul. The test oracle that
/// [`SimdBackend`] is pinned against; production never calls it.
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn matmul_into(&self, lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        matrix::matmul_into_scalar(lhs, rhs, out);
    }

    fn spmm_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix) {
        let cols = x.cols();
        out.reset_zeroed(x.rows(), cols);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for (u, row) in rows.iter().enumerate() {
            let out_row = &mut dst[u * cols..(u + 1) * cols];
            for &(v, w) in row {
                for (o, &xv) in out_row.iter_mut().zip(&src[v * cols..(v + 1) * cols]) {
                    *o += w * xv;
                }
            }
        }
    }

    fn spmm_row(&self, out_row: &mut [f32], src: &[f32], terms: &[(usize, f32)], cols: usize) {
        out_row.fill(0.0);
        for &(r, s) in terms {
            for (o, &xv) in out_row.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                *o += s * xv;
            }
        }
    }

    fn spmm_transpose_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix) {
        let cols = x.cols();
        out.reset_zeroed(x.rows(), cols);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for (u, row) in rows.iter().enumerate() {
            let x_row = &src[u * cols..(u + 1) * cols];
            for &(v, w) in row {
                let out_row = &mut dst[v * cols..(v + 1) * cols];
                for (o, &xu) in out_row.iter_mut().zip(x_row) {
                    *o += w * xu;
                }
            }
        }
    }

    fn segmented_col_sum(&self, x: &Matrix, offsets: &[usize], out: &mut Matrix) {
        for k in 0..out.rows() {
            for i in offsets[k]..offsets[k + 1] {
                let src = x.row(i);
                for (o, &v) in out.row_mut(k).iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
    }

    fn segmented_col_max(
        &self,
        x: &Matrix,
        offsets: &[usize],
        out: &mut Matrix,
        arg: &mut [usize],
    ) {
        let cols = x.cols();
        for k in 0..out.rows() {
            let (lo, hi) = (offsets[k], offsets[k + 1]);
            let arg_row = &mut arg[k * cols..(k + 1) * cols];
            arg_row.fill(lo);
            if lo == hi {
                continue;
            }
            out.row_mut(k).copy_from_slice(x.row(lo));
            for i in lo + 1..hi {
                let src = x.row(i);
                let dst = out.row_mut(k);
                for j in 0..cols {
                    if src[j] > dst[j] {
                        dst[j] = src[j];
                        arg_row[j] = i;
                    }
                }
            }
        }
    }

    fn relu(&self, x: &mut [f32]) {
        for v in x {
            *v = v.max(0.0);
        }
    }

    fn relu_backward(&self, pre: &[f32], grad: &mut [f32]) {
        for (g, &p) in grad.iter_mut().zip(pre) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    fn softmax_row(&self, row: &mut [f32]) {
        let (_, sum) = ops::stable_exp_in_place(row);
        // sum >= 1 because exp(max - max) = 1 contributes, so no div-by-zero.
        for v in row {
            *v /= sum;
        }
    }

    fn adam_update(
        &self,
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        hp: &AdamParams,
    ) {
        for (((p, g), mi), vi) in param.iter_mut().zip(grad).zip(m).zip(v) {
            adam_one(p, *g, mi, vi, hp);
        }
    }
}

/// Tiled / register-blocked lane kernels: fixed-width chunks (`[f32; W]`
/// blocks via `chunks_exact`) accumulated in registers with `f32::mul_add`,
/// which the compiler lowers to vector FMA under `-C target-cpu=native`.
/// Safe Rust only — bounds-checked slices, no intrinsics. The kernels
/// production code calls.
pub struct SimdBackend;

impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn matmul_into(&self, lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        matrix::matmul_into_tiled(lhs, rhs, out);
    }

    fn spmm_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix) {
        let cols = x.cols();
        // every output row is fully overwritten below, so skip the memset
        out.reset_reused(x.rows(), cols);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for (u, row) in rows.iter().enumerate() {
            let out_row = &mut dst[u * cols..(u + 1) * cols];
            crate::kernels::accumulate_row_sum(out_row, src, row, cols);
        }
    }

    fn spmm_row(&self, out_row: &mut [f32], src: &[f32], terms: &[(usize, f32)], cols: usize) {
        crate::kernels::accumulate_row_sum(out_row, src, terms, cols);
    }

    fn spmm_transpose_into(&self, rows: &[Vec<(usize, f32)>], x: &Matrix, out: &mut Matrix) {
        let cols = x.cols();
        out.reset_zeroed(x.rows(), cols);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for (u, row) in rows.iter().enumerate() {
            let x_row = &src[u * cols..(u + 1) * cols];
            for &(v, w) in row {
                let out_row = &mut dst[v * cols..(v + 1) * cols];
                axpy_row(out_row, x_row, w);
            }
        }
    }

    fn segmented_col_sum(&self, x: &Matrix, offsets: &[usize], out: &mut Matrix) {
        let cols = x.cols();
        let src = x.as_slice();
        for k in 0..out.rows() {
            let (lo, hi) = (offsets[k], offsets[k + 1]);
            if lo == hi {
                continue;
            }
            let out_row = out.row_mut(k);
            let mut c = seg_sum_chunk::<16>(src, cols, lo, hi, out_row, 0);
            c = seg_sum_chunk::<4>(src, cols, lo, hi, out_row, c);
            while c < cols {
                let mut acc = 0.0f32;
                for i in lo..hi {
                    acc += src[i * cols + c];
                }
                out_row[c] = acc;
                c += 1;
            }
        }
    }

    fn segmented_col_max(
        &self,
        x: &Matrix,
        offsets: &[usize],
        out: &mut Matrix,
        arg: &mut [usize],
    ) {
        let cols = x.cols();
        let src = x.as_slice();
        for k in 0..out.rows() {
            let (lo, hi) = (offsets[k], offsets[k + 1]);
            let arg_row = &mut arg[k * cols..(k + 1) * cols];
            arg_row.fill(lo);
            if lo == hi {
                continue;
            }
            let out_row = out.row_mut(k);
            let mut c = seg_max_chunk::<8>(src, cols, lo, hi, out_row, arg_row, 0);
            while c < cols {
                let mut best = src[lo * cols + c];
                let mut best_i = lo;
                for i in lo + 1..hi {
                    let v = src[i * cols + c];
                    if v > best {
                        best = v;
                        best_i = i;
                    }
                }
                out_row[c] = best;
                arg_row[c] = best_i;
                c += 1;
            }
        }
    }

    fn relu(&self, x: &mut [f32]) {
        let mut chunks = x.chunks_exact_mut(16);
        for chunk in &mut chunks {
            for v in chunk {
                *v = v.max(0.0);
            }
        }
        for v in chunks.into_remainder() {
            *v = v.max(0.0);
        }
    }

    fn relu_backward(&self, pre: &[f32], grad: &mut [f32]) {
        let mut g_chunks = grad.chunks_exact_mut(16);
        let mut p_chunks = pre.chunks_exact(16);
        for (gc, pc) in (&mut g_chunks).zip(&mut p_chunks) {
            for (g, &p) in gc.iter_mut().zip(pc) {
                // branchless select so the lanes stay independent
                *g = if p > 0.0 { *g } else { 0.0 };
            }
        }
        for (g, &p) in g_chunks.into_remainder().iter_mut().zip(p_chunks.remainder()) {
            *g = if p > 0.0 { *g } else { 0.0 };
        }
    }

    fn softmax_row(&self, row: &mut [f32]) {
        // the stable-exp core is shared with the scalar backend (and the
        // row max is order-independent, so the shift is bitwise identical);
        // only the normalization differs: one reciprocal, lane multiplies
        let (_, _) = ops::stable_exp_in_place(row);
        let mut acc = [0.0f32; 8];
        let mut chunks = row.chunks_exact(8);
        for chunk in &mut chunks {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        let mut sum: f32 = acc.iter().sum();
        for &v in chunks.remainder() {
            sum += v;
        }
        let inv = 1.0 / sum;
        for v in row {
            *v *= inv;
        }
    }

    fn adam_update(
        &self,
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        hp: &AdamParams,
    ) {
        let n = param.len();
        let mut c = 0;
        while c + 8 <= n {
            for i in c..c + 8 {
                adam_one(&mut param[i], grad[i], &mut m[i], &mut v[i], hp);
            }
            c += 8;
        }
        for i in c..n {
            adam_one(&mut param[i], grad[i], &mut m[i], &mut v[i], hp);
        }
    }
}

/// One Adam parameter update — the exact per-element formula, shared by
/// both backends so they stay bitwise identical.
#[inline(always)]
fn adam_one(p: &mut f32, g: f32, m: &mut f32, v: &mut f32, hp: &AdamParams) {
    *m = hp.beta1 * *m + (1.0 - hp.beta1) * g;
    *v = hp.beta2 * *v + (1.0 - hp.beta2) * g * g;
    let m_hat = *m / hp.bias1;
    let v_hat = *v / hp.bias2;
    *p -= hp.lr * m_hat / (v_hat.sqrt() + hp.eps);
}

/// `out_row += w · x_row`, accumulated in 8-wide register chunks with
/// `mul_add` (the transpose-SpMM scatter step).
#[inline]
fn axpy_row(out_row: &mut [f32], x_row: &[f32], w: f32) {
    let mut o_chunks = out_row.chunks_exact_mut(8);
    let mut x_chunks = x_row.chunks_exact(8);
    for (oc, xc) in (&mut o_chunks).zip(&mut x_chunks) {
        for (o, &xv) in oc.iter_mut().zip(xc) {
            *o = xv.mul_add(w, *o);
        }
    }
    for (o, &xv) in o_chunks.into_remainder().iter_mut().zip(x_chunks.remainder()) {
        *o = xv.mul_add(w, *o);
    }
}

/// One segmented-sum pass at chunk width `W`: `W` column accumulators stay
/// in registers across the whole segment, storing each output chunk once.
/// Per-column accumulation order is unchanged (ascending rows), so results
/// are bitwise equal to the scalar loop.
#[inline]
fn seg_sum_chunk<const W: usize>(
    src: &[f32],
    cols: usize,
    lo: usize,
    hi: usize,
    out_row: &mut [f32],
    mut c: usize,
) -> usize {
    while c + W <= cols {
        let mut acc = [0.0f32; W];
        for i in lo..hi {
            let chunk = &src[i * cols + c..i * cols + c + W];
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        out_row[c..c + W].copy_from_slice(&acc);
        c += W;
    }
    c
}

/// One segmented-max pass at chunk width `W`, tracking per-lane argmax.
/// Same strict-`>` comparison per column in ascending row order as the
/// scalar loop, so values *and* tie-broken argmax rows are bitwise equal.
#[inline]
fn seg_max_chunk<const W: usize>(
    src: &[f32],
    cols: usize,
    lo: usize,
    hi: usize,
    out_row: &mut [f32],
    arg_row: &mut [usize],
    mut c: usize,
) -> usize {
    while c + W <= cols {
        let mut best = [0.0f32; W];
        best.copy_from_slice(&src[lo * cols + c..lo * cols + c + W]);
        let mut best_i = [lo; W];
        for i in lo + 1..hi {
            let chunk = &src[i * cols + c..i * cols + c + W];
            for ((b, bi), &v) in best.iter_mut().zip(best_i.iter_mut()).zip(chunk) {
                if v > *b {
                    *b = v;
                    *bi = i;
                }
            }
        }
        out_row[c..c + W].copy_from_slice(&best);
        arg_row[c..c + W].copy_from_slice(&best_i);
        c += W;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_handles_report_their_kind() {
        assert_eq!(backend(BackendKind::Scalar).kind(), BackendKind::Scalar);
        assert_eq!(backend(BackendKind::Simd).kind(), BackendKind::Simd);
        assert_eq!(active().kind(), BackendKind::Simd);
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Simd.name(), "simd");
    }
}
