//! A minimal row-major dense matrix.
//!
//! The GNN workloads in this repository only ever touch small-to-medium dense
//! matrices (node features × hidden width, hidden × hidden weights), so a
//! plain contiguous `Vec<f32>` with explicit loops is both simpler and — with
//! the blocked multiply below — fast enough to train the paper's classifier
//! on CPU in seconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Rows of the packed RHS tile (LHS inner-dimension block).
const TILE_K: usize = 64;
/// Columns of the packed RHS tile and of the register micro-kernel. The
/// `TILE_K × NR` pack (8 KiB) sits in L1 while whole row blocks stream
/// against it.
const NR: usize = 32;
/// Output rows per micro-kernel step: an `MR × NR` f32 accumulator block
/// stays resident in SIMD registers across an entire k-tile.
const MR: usize = 4;
/// A live (nonzero) LHS row averaging fewer than one nonzero entry in
/// `ELEM_SKIP_DEN` takes the exact per-element zero-skip path (one-hot
/// feature matrices), where skipping beats vectorizing.
const ELEM_SKIP_DEN: usize = 8;
/// When at least one LHS row in `ROW_SKIP_DEN` is entirely zero, dead rows
/// are dropped up front and only live rows run through the micro-kernel
/// (forward-mode Jacobian seed blocks, gated activations).
const ROW_SKIP_DEN: usize = 8;

/// How [`Matrix::matmul`] treats the left operand, decided per call by a
/// one-pass sparsity census.
#[derive(Clone, Copy)]
enum LhsMode<'a> {
    /// Every row through the register micro-kernel.
    Dense,
    /// Only rows flagged live are computed; dead rows stay zero.
    RowSkip(&'a [bool]),
    /// Per-element zero skip with exact (non-FMA) arithmetic.
    ElemSkip,
}

/// Row-major dense `f32` matrix.
///
/// Indexing is `(row, col)`. All shape mismatches panic: shapes in the GNN
/// stack are static properties of the architecture, so a mismatch is a
/// programming error, not a runtime condition to recover from.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the contents of `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Reshapes `self` to `rows × cols` with every entry zero, reusing the
    /// existing allocation whenever its capacity suffices. This is what lets
    /// hot loops ping-pong a few scratch matrices instead of paying for a
    /// fresh zeroed allocation (and its page faults) per iteration.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes `self` to `rows × cols` **without clearing**: entries carry
    /// arbitrary stale values and every one must be written before it is
    /// read. The support-tracked batched Jacobian uses this to skip the
    /// full-matrix memset on scratch whose dead regions are provably never
    /// touched.
    pub fn reset_reused(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`.
    ///
    /// ```
    /// use gvex_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
    /// assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[11.0]]));
    /// ```
    ///
    /// The tiled kernel blocks the inner dimension (`TILE_K`) and the output
    /// columns (`NR`), packing each RHS tile into a contiguous scratch buffer
    /// that is reused across every output row. Full-width row blocks go
    /// through an `MR × NR` register micro-kernel whose inner step is a
    /// fused multiply-add (`f32::mul_add`), so results can differ from the
    /// scalar oracle's reference loops by the usual FMA rounding (≪ 1e-5
    /// relative; the differential property tests pin this). Accumulation
    /// order over `k` is the same ascending order as the reference kernel.
    /// The product runs on the calling thread: parallelism lives a level up,
    /// across graphs (`gvex_core::parallel`). The per-element zero skip of
    /// the reference kernel is kept only where it still wins: a one-pass
    /// census classifies the LHS, entirely-zero rows are skipped outright
    /// (forward-mode Jacobian seed blocks are mostly dead rows), and only
    /// when the live rows are themselves ultra-sparse (fewer than one
    /// nonzero in [`ELEM_SKIP_DEN`] entries — one-hot feature matrices)
    /// does the exact per-element zero-skip loop replace the micro-kernel.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul`] writing into a caller-owned output matrix, which is
    /// reshaped (allocation reused where possible) and overwritten. Hot loops
    /// that multiply in place every iteration — the batched Jacobian above
    /// all — use this to avoid re-faulting fresh zero pages per product.
    ///
    /// Runs the tiled micro-kernel described on [`Self::matmul`].
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        matmul_into_tiled(self, rhs, out);
    }

    /// Transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += scale * rhs` (AXPY).
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += scale * b;
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// L1 norm (sum of absolute values) of row `r`.
    pub fn row_l1(&self, r: usize) -> f32 {
        self.row(r).iter().map(|v| v.abs()).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute entry, 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Column-wise max over rows: returns a `1 × cols` matrix together with
    /// the argmax row index per column (needed for max-pool backprop).
    ///
    /// For an empty matrix (0 rows) returns zeros with argmax indices of 0.
    pub fn col_max(&self) -> (Matrix, Vec<usize>) {
        let mut out = Matrix::zeros(1, self.cols);
        let mut arg = vec![0usize; self.cols];
        if self.rows == 0 {
            return (out, arg);
        }
        out.row_mut(0).copy_from_slice(self.row(0));
        for i in 1..self.rows {
            for j in 0..self.cols {
                let v = self[(i, j)];
                if v > out[(0, j)] {
                    out[(0, j)] = v;
                    arg[j] = i;
                }
            }
        }
        (out, arg)
    }

    /// Column-wise sum over rows as a `1 × cols` matrix (zeros if no rows).
    /// One accumulation pass in row order — the Sum readout uses this
    /// directly instead of un-scaling a mean.
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for i in 0..self.rows {
            for (o, &v) in out.row_mut(0).iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        out
    }

    /// Column-wise mean over rows as a `1 × cols` matrix (zeros if no rows).
    pub fn col_mean(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(0, j)] += self[(i, j)];
            }
        }
        let inv = 1.0 / self.rows as f32;
        out.map_inplace(|v| v * inv);
        out
    }

    /// Extracts the sub-matrix formed by the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.set_row(i, self.row(r));
        }
        out
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// The reference product — naive i-k-j loops with the per-element zero
/// skip — written into `out` (reshaped, allocation reused). This is the
/// scalar oracle's matmul, the ground truth the tiled kernel is tested
/// against. Shapes are validated by the callers.
pub(crate) fn matmul_into_scalar(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    out.reset_zeroed(lhs.rows, rhs.cols);
    for i in 0..lhs.rows {
        let a_row = lhs.row(i);
        let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue; // feature matrices are often one-hot / sparse
            }
            let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
}

/// The tiled / register-blocked product behind [`Matrix::matmul_into`]
/// and the lane kernel set: the one-pass sparsity census and mode
/// selection documented on [`Matrix::matmul`], writing into
/// `out` (reshaped, allocation reused). Shapes are validated by the
/// callers.
pub(crate) fn matmul_into_tiled(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    out.reset_zeroed(lhs.rows, rhs.cols);
    if lhs.rows == 0 || lhs.cols == 0 || rhs.cols == 0 {
        return;
    }
    // Sparsity census: one pass over the LHS (the cost of reading it
    // once, which the product pays many times over anyway).
    let mut nnz = 0usize;
    let mut row_live = vec![false; lhs.rows];
    for (i, live) in row_live.iter_mut().enumerate() {
        let row = &lhs.data[i * lhs.cols..(i + 1) * lhs.cols];
        let row_nnz = row.iter().filter(|&&v| v != 0.0).count();
        nnz += row_nnz;
        *live = row_nnz != 0;
    }
    let live_rows = row_live.iter().filter(|&&l| l).count();
    if live_rows == 0 {
        return;
    }
    let mode = if nnz * ELEM_SKIP_DEN <= live_rows * lhs.cols {
        LhsMode::ElemSkip
    } else if (lhs.rows - live_rows) * ROW_SKIP_DEN >= lhs.rows {
        LhsMode::RowSkip(&row_live)
    } else {
        LhsMode::Dense
    };
    gvex_obs::span!("linalg.matmul");
    gvex_obs::counter!(match mode {
        LhsMode::ElemSkip => "linalg.matmul.dispatch.elem_skip",
        LhsMode::RowSkip(_) => "linalg.matmul.dispatch.row_skip",
        LhsMode::Dense => "linalg.matmul.dispatch.dense",
    });
    matmul_rows(lhs, rhs, &mut out.data, mode);
}

/// Computes `lhs * rhs` into `out`, the zeroed row-major output buffer.
///
/// Walks column tiles then `k` tiles, packing each `kw × jw` RHS tile into
/// `pack` once and streaming every computed row of the block against it.
/// `k` tiles are visited in ascending order, so per-entry accumulation
/// order equals the naive kernel's. Under [`LhsMode::RowSkip`] only the
/// live rows are visited (in ascending order) — dead rows keep their
/// zeros, exactly as the reference kernel's zero skip would leave them.
fn matmul_rows(lhs: &Matrix, rhs: &Matrix, out: &mut [f32], mode: LhsMode<'_>) {
    let n = rhs.cols;
    let rows = lhs.rows;
    // Indices of the rows to compute under row skipping; Dense and
    // ElemSkip visit every row without materializing a list.
    let live: Vec<usize> = match mode {
        LhsMode::RowSkip(mask) => (0..rows).filter(|&i| mask[i]).collect(),
        _ => Vec::new(),
    };
    let row_skip = matches!(mode, LhsMode::RowSkip(_));
    let elem_skip = matches!(mode, LhsMode::ElemSkip);
    let mut pack = [0.0f32; TILE_K * NR];
    for j0 in (0..n).step_by(NR) {
        let jw = NR.min(n - j0);
        for k0 in (0..lhs.cols).step_by(TILE_K) {
            let kw = TILE_K.min(lhs.cols - k0);
            for kk in 0..kw {
                let src = (k0 + kk) * n + j0;
                pack[kk * jw..kk * jw + jw].copy_from_slice(&rhs.data[src..src + jw]);
            }
            // Register micro-kernel: MR output rows accumulate into an
            // MR × NR block that is loaded and stored once per k-tile
            // instead of once per k, removing the output-row memory
            // traffic that bounds the naive kernel. `pos` counts micro-
            // kernel-consumed rows (positions into `live` under row skip,
            // plain row indices otherwise).
            let mut pos = 0;
            if !elem_skip && jw == NR {
                if row_skip {
                    while pos + MR <= live.len() {
                        let rows: &[usize] = &live[pos..pos + MR];
                        let mut acc = [[0.0f32; NR]; MR];
                        for (acc_row, &ri) in acc.iter_mut().zip(rows) {
                            let o = ri * n + j0;
                            acc_row.copy_from_slice(&out[o..o + NR]);
                        }
                        for kk in 0..kw {
                            let b_row: &[f32; NR] =
                                pack[kk * NR..kk * NR + NR].try_into().expect("NR-wide tile row");
                            for (acc_row, &ri) in acc.iter_mut().zip(rows) {
                                let a = lhs.data[ri * lhs.cols + k0 + kk];
                                for (o, &b) in acc_row.iter_mut().zip(b_row) {
                                    *o = a.mul_add(b, *o);
                                }
                            }
                        }
                        for (acc_row, &ri) in acc.iter().zip(rows) {
                            let o = ri * n + j0;
                            out[o..o + NR].copy_from_slice(acc_row);
                        }
                        pos += MR;
                    }
                } else {
                    while pos + MR <= rows {
                        let mut acc = [[0.0f32; NR]; MR];
                        for (r, acc_row) in acc.iter_mut().enumerate() {
                            let o = (pos + r) * n + j0;
                            acc_row.copy_from_slice(&out[o..o + NR]);
                        }
                        for kk in 0..kw {
                            let b_row: &[f32; NR] =
                                pack[kk * NR..kk * NR + NR].try_into().expect("NR-wide tile row");
                            for (r, acc_row) in acc.iter_mut().enumerate() {
                                let a = lhs.data[(pos + r) * lhs.cols + k0 + kk];
                                for (o, &b) in acc_row.iter_mut().zip(b_row) {
                                    *o = a.mul_add(b, *o);
                                }
                            }
                        }
                        for (r, acc_row) in acc.iter().enumerate() {
                            let o = (pos + r) * n + j0;
                            out[o..o + NR].copy_from_slice(acc_row);
                        }
                        pos += MR;
                    }
                }
            }
            // Remainder rows, ragged right edge, and the element-skip path
            // all take the straightforward row-at-a-time loop.
            let scalar_row = |ri: usize, out: &mut [f32], pack: &[f32]| {
                let a_base = ri * lhs.cols + k0;
                let a_row = &lhs.data[a_base..a_base + kw];
                let out_row = &mut out[ri * n + j0..ri * n + j0 + jw];
                if elem_skip {
                    for (kk, &a) in a_row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let b_row = &pack[kk * jw..kk * jw + jw];
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                } else {
                    for (kk, &a) in a_row.iter().enumerate() {
                        let b_row = &pack[kk * jw..kk * jw + jw];
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                }
            };
            if row_skip {
                for &ri in &live[pos..] {
                    scalar_row(ri, out, &pack);
                }
            } else {
                for ri in pos..rows {
                    scalar_row(ri, out, &pack);
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_inverse() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let b = Matrix::from_rows(&[&[3.0, 1.0], &[-1.0, 2.0]]);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_rows(&[&[2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 5.0]]);
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[8.0, 15.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[4.0, 6.0]]));
    }

    #[test]
    fn col_max_tracks_argmax() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[5.0, 2.0], &[3.0, 3.0]]);
        let (m, arg) = a.col_max();
        assert_eq!(m, Matrix::from_rows(&[&[5.0, 9.0]]));
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn col_max_empty_matrix() {
        let a = Matrix::zeros(0, 3);
        let (m, arg) = a.col_max();
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(arg, vec![0, 0, 0]);
    }

    #[test]
    fn col_mean_averages_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.col_mean(), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn col_sum_adds_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.col_sum(), Matrix::from_rows(&[&[4.0, 8.0]]));
        assert_eq!(Matrix::zeros(0, 2).col_sum(), Matrix::zeros(1, 2));
    }

    #[test]
    fn select_rows_reorders() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.select_rows(&[2, 0]), Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.row_l1(0), 7.0);
        assert!((a.frobenius() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 3.0]]));
    }

    /// Deterministic pseudo-random matrix for kernel tests.
    fn lcg_matrix(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Matrix {
        let mut state = seed | 1;
        let data = (0..rows * cols)
            .map(|idx| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if zero_every > 0 && idx % zero_every == 0 {
                    0.0
                } else {
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The scalar backend's product: the oracle every other kernel is
    /// pinned against.
    fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        crate::backend::backend(crate::backend::BackendKind::Scalar).matmul_into(a, b, &mut out);
        out
    }

    /// Max absolute element difference between two same-shaped matrices.
    fn max_diff(a: &Matrix, b: &Matrix) -> f32 {
        assert_eq!(a.shape(), b.shape());
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
    }

    #[test]
    fn tiled_matmul_matches_reference_on_odd_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (3, 7, 5), (65, 64, 63), (70, 130, 67), (128, 1, 9), (160, 160, 160)]
        {
            let a = lcg_matrix(m, k, 7, 3);
            let b = lcg_matrix(k, n, 13, 0);
            let tiled = a.matmul(&b);
            let naive = scalar_matmul(&a, &b);
            // entries are O(1) sums of ≤130 products of values in [-0.5, 0.5],
            // so 1e-5 absolute comfortably covers FMA rounding differences
            assert!(
                max_diff(&tiled, &naive) < 1e-5,
                "tiled kernel diverged from reference at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn one_hot_lhs_takes_exact_elem_skip_path() {
        // one nonzero per row (density 1/40 < 1/8) trips the element-skip
        // heuristic; that path keeps the reference's exact zero-skip
        // arithmetic, so the products agree bitwise
        let mut a = Matrix::zeros(33, 40);
        for i in 0..33 {
            a[(i, (i * 7) % 40)] = (i as f32 + 1.0) * 0.25;
        }
        let b = lcg_matrix(40, 29, 11, 0);
        assert_eq!(a.matmul(&b), scalar_matmul(&a, &b));
    }

    #[test]
    fn row_sparse_lhs_skips_dead_rows() {
        // 3/4 of rows all-zero with dense live rows: the row-skip mode runs
        // live rows through the FMA micro-kernel and leaves dead rows zero
        let dense = lcg_matrix(64, 40, 5, 0);
        let mut a = Matrix::zeros(64, 40);
        for i in (0..64).step_by(4) {
            for j in 0..40 {
                a[(i, j)] = dense[(i, j)];
            }
        }
        let b = lcg_matrix(40, 64, 11, 0);
        let got = a.matmul(&b);
        assert!(max_diff(&got, &scalar_matmul(&a, &b)) < 1e-5);
        for i in 0..64 {
            if i % 4 != 0 {
                assert!(got.row(i).iter().all(|&v| v == 0.0), "dead row {i} must stay zero");
            }
        }
    }

    #[test]
    fn half_zero_dense_rows_stay_on_fast_path() {
        // 1/2 zeros scattered inside otherwise-live rows used to force the
        // scalar skip loop; the census now keeps such matrices on the
        // micro-kernel (within FMA rounding of the reference)
        let a = lcg_matrix(33, 40, 5, 2);
        let b = lcg_matrix(40, 29, 11, 0);
        assert!(max_diff(&a.matmul(&b), &scalar_matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn reset_zeroed_reuses_and_clears() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let cap = m.data.capacity();
        m.reset_zeroed(1, 3);
        assert_eq!(m.shape(), (1, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.data.capacity(), cap, "shrinking reshape must keep the allocation");
    }

    #[test]
    fn matmul_into_matches_matmul_across_reuse() {
        // reuse one output buffer across differently shaped products; each
        // call must fully overwrite whatever the previous one left behind
        let mut out = Matrix::zeros(0, 0);
        for &(m, k, n) in &[(5, 7, 6), (3, 2, 4), (8, 8, 8)] {
            let a = lcg_matrix(m, k, 9, 3);
            let b = lcg_matrix(k, n, 17, 0);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, a.matmul(&b));
        }
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a[(0, 1)] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
