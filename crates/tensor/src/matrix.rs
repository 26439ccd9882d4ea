//! Row-major f32 matrix with the kernels a feed-forward model needs.
//!
//! All three matrix products route through the blocked kernels in
//! [`crate::gemm`]; the pre-engine naive loops survive as `*_ref` reference
//! oracles for differential tests and the naive-vs-blocked benchmark.

use crate::gemm::{self, Epilogue};

/// A dense row-major matrix of `f32`. The `Default` is the empty `0×0`
/// matrix, the usual starting state for a reusable scratch buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
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

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Fills with zeros in place (reusing the allocation).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Reshapes to `rows × cols` and zero-fills, reusing the allocation
    /// when it is already large enough. Lets a hot loop keep one scratch
    /// matrix instead of allocating per batch.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes to `rows × cols` **without** clearing, reusing the
    /// allocation: elements that were already there keep whatever they held
    /// and only a grown tail is zero-filled. For a buffer whose every
    /// element the caller is about to overwrite — the output of a product
    /// or of an element-wise pass — where [`Matrix::reset`]'s memset is dead
    /// work. A reader that relies on zeros wants `reset`.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Bytes of backing storage currently reserved (capacity, not length).
    /// The `DenseTape` arena-bytes gauge sums this over its buffers to
    /// assert steady-state allocations stay flat after warmup.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Reserves backing storage for at least `elems` scalars without
    /// changing the matrix shape. Lets arena owners bring a buffer to its
    /// steady-state capacity up front (e.g. both ping-pong gradient buffers
    /// on the first batch) so later [`Matrix::reset`] calls never allocate.
    pub fn ensure_capacity(&mut self, elems: usize) {
        if self.data.capacity() < elems {
            self.data.reserve(elems - self.data.len());
        }
    }

    /// `out = self · other` — shapes `(m×k)·(k×n) → (m×n)`, blocked kernel,
    /// reusing `out`'s allocation.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reshape(m, n);
        gemm::gemm_nn(m, k, n, &self.data, &other.data, &[], Epilogue::Store, &mut out.data);
    }

    /// `out = self · other + bias` (bias broadcast over rows), fused —
    /// the accumulator tile is *seeded* with the bias, one pass over `out`.
    pub fn matmul_bias_into(&self, other: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), other.cols, "bias length mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reshape(m, n);
        gemm::gemm_nn(m, k, n, &self.data, &other.data, bias, Epilogue::Bias, &mut out.data);
    }

    /// `out = max(self · other + bias, 0)` — fused dense-layer forward.
    /// Bit-for-bit equal to [`Self::matmul_bias_into`] followed by a ReLU
    /// clamp (the clamp is the epilogue of the same kernel).
    pub fn matmul_bias_relu_into(&self, other: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), other.cols, "bias length mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reshape(m, n);
        gemm::gemm_nn(m, k, n, &self.data, &other.data, bias, Epilogue::BiasRelu, &mut out.data);
    }

    /// `out = selfᵀ · other` — shapes `(k×m)ᵀ·(k×n) → (m×n)`, reusing
    /// `out`'s allocation.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.reshape(m, n);
        gemm::gemm_tn(m, k, n, &self.data, &other.data, Epilogue::Store, &mut out.data);
    }

    /// `out += selfᵀ · other` — accumulating weight-gradient GEMM
    /// (`dW += Xᵀ·dY`). `out` must already have shape `cols × other.cols`.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        assert_eq!((out.rows, out.cols), (m, n), "t_matmul_acc out shape mismatch");
        gemm::gemm_tn(m, k, n, &self.data, &other.data, Epilogue::Accumulate, &mut out.data);
    }

    /// `out = self · otherᵀ` — shapes `(m×k)·(n×k)ᵀ → (m×n)`, the
    /// input-gradient product (`dY · Wᵀ`), reusing `out`'s allocation.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.reshape(m, n);
        gemm::gemm_nt(m, k, n, &self.data, &other.data, Epilogue::Store, &mut out.data);
    }

    /// Naive-loop `self · other` — the pre-engine kernel, kept as the
    /// reference oracle for differential tests and benches.
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        gemm::reference::matmul(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// Naive-loop `selfᵀ · other` reference oracle.
    pub fn t_matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        gemm::reference::t_matmul(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// Naive-loop `self · otherᵀ` reference oracle.
    pub fn matmul_t_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        gemm::reference::matmul_t(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// **Accumulates** column sums into `out` (`out[j] += Σ_r self[r][j]`)
    /// — callers that want plain sums must zero `out` first. The
    /// accumulate form lets `Dense::backward_into` feed `grad_b` directly.
    ///
    /// # Panics
    /// Panics if `out.len() != cols`.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums_into length mismatch");
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{bits, poisoned};

    #[test]
    fn zeros_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn from_vec_checks_shape() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut c = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut c);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_equals_transpose_matmul() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        // aᵀ·b where aᵀ is (2×3)
        let mut c = Matrix::zeros(0, 0);
        a.t_matmul_into(&b, &mut c);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(c.data(), &[6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        // a·bᵀ → (2×2): row0·row0 = 1+3 = 4; row0·row1 = 2
        let mut c = Matrix::zeros(0, 0);
        a.matmul_t_into(&b, &mut c);
        assert_eq!(c.data(), &[4., 2., 10., 5.]);
    }

    #[test]
    fn bias_and_col_sums() {
        // The bias through the fused kernel (identity weights), then plain
        // column sums into a zeroed accumulator.
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let eye = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let mut out = Matrix::zeros(0, 0);
        m.matmul_bias_into(&eye, &[10., 20.], &mut out);
        assert_eq!(out.data(), &[11., 22., 13., 24.]);
        let mut sums = vec![0.0f32; 2];
        out.col_sums_into(&mut sums);
        assert_eq!(sums, vec![24., 46.]);
    }

    #[test]
    fn clear_reuses_allocation() {
        let mut m = Matrix::from_vec(1, 2, vec![1., 2.]);
        m.clear();
        assert_eq!(m.data(), &[0., 0.]);
    }

    #[test]
    fn norm() {
        let m = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!((m.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::zeros(0, 0));
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matches_naive_reference() {
        // The differential pin at the Matrix level: blocked kernels vs the
        // kept naive oracles, relative error ≤ 1e-5 over tail-heavy shapes.
        for &(m, k, n) in &[(7usize, 13usize, 11usize), (16, 8, 24), (1, 5, 1), (9, 1, 17)] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into(&b, &mut out);
            for (x, y) in out.data().iter().zip(a.matmul_ref(&b).data()) {
                assert!((x - y).abs() / x.abs().max(1.0) <= 1e-5);
            }
            let at = rand_matrix(k, m, 3);
            at.t_matmul_into(&b, &mut out);
            for (x, y) in out.data().iter().zip(at.t_matmul_ref(&b).data()) {
                assert!((x - y).abs() / x.abs().max(1.0) <= 1e-5);
            }
            let bt = rand_matrix(n, k, 4);
            a.matmul_t_into(&bt, &mut out);
            for (x, y) in out.data().iter().zip(a.matmul_t_ref(&bt).data()) {
                assert!((x - y).abs() / x.abs().max(1.0) <= 1e-5);
            }
        }
    }

    #[test]
    fn fused_bias_relu_is_clamped_fused_bias() {
        let a = rand_matrix(6, 9, 5);
        let b = rand_matrix(9, 11, 6);
        let bias: Vec<f32> = rand_matrix(1, 11, 7).data().to_vec();
        let mut plain = Matrix::zeros(0, 0);
        let mut fused = Matrix::zeros(0, 0);
        a.matmul_bias_into(&b, &bias, &mut plain);
        a.matmul_bias_relu_into(&b, &bias, &mut fused);
        for (&f, &p) in fused.data().iter().zip(plain.data()) {
            assert_eq!(f.to_bits(), p.max(0.0).to_bits());
        }
        assert!(plain.data().iter().any(|&x| x < 0.0), "want negatives");
    }

    #[test]
    fn t_matmul_acc_accumulates() {
        let a = rand_matrix(8, 5, 8);
        let b = rand_matrix(8, 7, 9);
        let mut once = Matrix::zeros(0, 0);
        a.t_matmul_into(&b, &mut once);
        let mut acc = once.clone();
        a.t_matmul_acc(&b, &mut acc);
        for (&x, &y) in acc.data().iter().zip(once.data()) {
            assert!((x - 2.0 * y).abs() < 1e-5);
        }
    }

    #[test]
    fn col_sums_into_accumulates() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut out = vec![10.0f32, 20.0];
        m.col_sums_into(&mut out);
        assert_eq!(out, vec![14., 26.]);
    }

    #[test]
    fn reshape_keeps_contents_and_zero_fills_growth() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let before = m.capacity_bytes();
        m.reshape(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert_eq!(m.data(), &[1., 2., 3.], "a shrink keeps what was there");
        assert_eq!(m.capacity_bytes(), before, "and the allocation");
        m.reshape(3, 2);
        assert_eq!(m.data(), &[1., 2., 3., 0., 0., 0.], "only the grown tail is filled");
    }

    /// Every overwriting `*_into` kernel skips the zero-fill of its output
    /// (`reshape`, not `reset`), so each must write every element: the same
    /// bits into a larger and into a smaller NaN-filled buffer as into a
    /// fresh one. The shapes hit partial row tiles, every rung of the column
    /// ladder and its padded remainder, the depth-chunk seam, the empty and
    /// the single-step depth, and the single-column kernels.
    #[test]
    fn into_kernels_overwrite_poisoned_wrongly_shaped_buffers() {
        for &(m, k, n) in &[
            (7usize, 13usize, 11usize),
            (9, 1, 17),
            (5, 11, 1),
            (12, 9, 1),
            (3, 0, 5),
            (4, 0, 1),
            (10, 260, 57),
            (1, 6, 33),
        ] {
            let a = rand_matrix(m, k, 11);
            let b = rand_matrix(k, n, 12);
            let at = rand_matrix(k, m, 13);
            let bt = rand_matrix(n, k, 14);
            let bias: Vec<f32> = rand_matrix(1, n, 15).data().to_vec();
            type Kernel<'a> = &'a dyn Fn(&mut Matrix);
            let kernels: [(&str, Kernel); 5] = [
                ("matmul_into", &|out| a.matmul_into(&b, out)),
                ("matmul_bias_into", &|out| a.matmul_bias_into(&b, &bias, out)),
                ("matmul_bias_relu_into", &|out| a.matmul_bias_relu_into(&b, &bias, out)),
                ("t_matmul_into", &|out| at.t_matmul_into(&b, out)),
                ("matmul_t_into", &|out| a.matmul_t_into(&bt, out)),
            ];
            for (name, kernel) in kernels {
                let mut fresh = Matrix::zeros(0, 0);
                kernel(&mut fresh);
                for (rows, cols) in [(m + 3, n + 2), (m / 2, n)] {
                    let mut dirty = poisoned(rows, cols);
                    kernel(&mut dirty);
                    let what = format!("{name} {m}x{k}x{n} into {rows}x{cols}");
                    let shape = |m: &Matrix| (m.rows(), m.cols());
                    assert_eq!(shape(&fresh), shape(&dirty), "{what}");
                    assert_eq!(bits(fresh.data()), bits(dirty.data()), "{what}");
                }
            }
        }
    }

    #[test]
    fn capacity_bytes_tracks_backing_store() {
        let mut m = Matrix::zeros(4, 4);
        let before = m.capacity_bytes();
        assert!(before >= 16 * 4);
        m.reset(2, 2); // shrink reuses the allocation
        assert_eq!(m.capacity_bytes(), before);
    }
}
