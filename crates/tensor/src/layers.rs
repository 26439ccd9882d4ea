//! Neural-network layers with explicit backward passes.
//!
//! One calling convention: every pass is in place. The caller owns every
//! activation and gradient buffer (see [`crate::DenseTape`]) and passes a
//! layer's forward input back to its backward pass explicitly, so a layer
//! caches nothing but what only it can know (a ReLU keep-mask) and a
//! steady-state batch allocates nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::row_dots;
use crate::matrix::Matrix;
use crate::tape::DenseTape;

/// Fully connected layer `Y = X·W + b`, Kaiming-uniform initialised, with
/// an optional fused ReLU epilogue (`Y = max(X·W + b, 0)`).
///
/// The fused form is a dense layer followed by a ReLU: same math, same
/// parameter count and visit order (ReLU has no parameters), one kernel
/// pass instead of two full passes over the activation.
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    relu: bool,
    /// ReLU keep-mask of the most recent forward (`out > 0`), reused.
    mask: Vec<bool>,
    /// Reused scratch for the masked upstream gradient (ReLU backward).
    masked: Matrix,
}

impl Dense {
    /// New layer mapping `in_dim → out_dim`, deterministic in `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / in_dim as f32).sqrt();
        let data: Vec<f32> = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            w: Matrix::from_vec(in_dim, out_dim, data),
            b: vec![0.0; out_dim],
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            relu: false,
            mask: Vec::new(),
            masked: Matrix::zeros(0, 0),
        }
    }

    /// New layer with the fused ReLU epilogue.
    pub fn new_relu(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut d = Self::new(in_dim, out_dim, seed);
        d.relu = true;
        d
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Whether the fused ReLU epilogue is enabled.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// Forward pass for a batch (`rows` = batch size): writes the output
    /// into `out` (resized via [`Matrix::reshape`], so a reused `out` does
    /// not reallocate). Does NOT cache the input — callers keeping
    /// activations on a tape pass it back to [`Dense::backward_into`].
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        if self.relu {
            input.matmul_bias_relu_into(&self.w, &self.b, out);
            // Keep-mask from the clamped output: out > 0 ⟺ pre-act > 0.
            self.mask.clear();
            self.mask.extend(out.data().iter().map(|&x| x > 0.0));
        } else {
            input.matmul_bias_into(&self.w, &self.b, out);
        }
    }

    /// Backward pass: `input` is the same matrix given to the matching
    /// [`Dense::forward_into`]; accumulates parameter gradients and writes
    /// `dL/d-input` into `grad_in`.
    pub fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        // dW += Xᵀ·dY ; db += colsum(dY) ; dX = dY·Wᵀ — with dY masked
        // first when the ReLU epilogue is fused in.
        let dy: &Matrix = if self.relu {
            assert_eq!(
                grad_out.data().len(),
                self.mask.len(),
                "backward shape mismatch"
            );
            self.masked.reshape(grad_out.rows(), grad_out.cols());
            for ((m, &g), &keep) in self
                .masked
                .data_mut()
                .iter_mut()
                .zip(grad_out.data())
                .zip(&self.mask)
            {
                *m = if keep { g } else { 0.0 };
            }
            &self.masked
        } else {
            grad_out
        };
        input.t_matmul_acc(dy, &mut self.grad_w);
        dy.col_sums_into(&mut self.grad_b);
        dy.matmul_t_into(&self.w, grad_in);
    }

    /// Visits `(params, grads)` buffer pairs in a stable order. Used by
    /// optimizers and by dense-parameter AllReduce.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.data_mut(), self.grad_w.data_mut());
        f(&mut self.b, &mut self.grad_b);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.clear();
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// GEMM flops (2 per multiply-add) of one *forward* pass over `rows`
    /// samples; backward costs ≈ 2× this. Feeds the `dense.gemm_flops`
    /// telemetry counter.
    pub fn flops(&self, rows: usize) -> u64 {
        2 * rows as u64 * self.w.rows() as u64 * self.w.cols() as u64
    }
}

/// DCN cross layer: `x_{l+1} = x_0 ⊙ (x_l·w) + b + x_l` (Wang et al. 2017).
///
/// `x_0` is the layer-0 input of the cross network; both passes take it by
/// reference alongside the layer's own input.
pub struct CrossLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

impl CrossLayer {
    /// New cross layer of width `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (1.0 / dim as f32).sqrt();
        Self {
            w: (0..dim).map(|_| rng.gen_range(-bound..bound)).collect(),
            b: vec![0.0; dim],
            grad_w: vec![0.0; dim],
            grad_b: vec![0.0; dim],
        }
    }

    /// In-place forward with `x0` passed by reference:
    /// `out = x0 ⊙ (input·w) + b + input`.
    pub fn forward_with_x0(&mut self, x0: &Matrix, input: &Matrix, out: &mut Matrix) {
        assert_eq!(x0.rows(), input.rows(), "x0/batch mismatch");
        assert_eq!(x0.cols(), input.cols(), "cross width mismatch");
        let rows = input.rows();
        let dim = input.cols();
        out.reshape(rows, dim);
        // Eight rows at a time: their dots advance together (one chain per
        // row, ascending j — `row_dots`), then the element-wise pass runs
        // while the rows are still in cache.
        for r0 in (0..rows).step_by(8) {
            let r1 = rows.min(r0 + 8);
            // `-0.0` is what `Iterator::sum` seeds an f32 sum with.
            let mut dots = [-0.0f32; 8];
            row_dots(dim, &input.data()[r0 * dim..], dim, &self.w, 0, &mut dots[..r1 - r0]);
            for (r, &dot) in (r0..r1).zip(&dots) {
                let lanes = out.row_mut(r).iter_mut().zip(x0.row(r)).zip(&self.b).zip(input.row(r));
                for (((o, &x0j), &bj), &xlj) in lanes {
                    *o = x0j * dot + bj + xlj;
                }
            }
        }
    }

    /// In-place backward with `x0` and the forward `input` by reference.
    /// Accumulates `grad_w`/`grad_b`, writes `dL/d-input` into `grad_in`.
    ///
    /// (x0 is an input from the embedding side; its gradient flows through
    /// `grad_in` of the *first* cross layer, where `x_l = x_0`.)
    pub fn backward_with_x0(
        &mut self,
        x0: &Matrix,
        input: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
    ) {
        let rows = grad_out.rows();
        let dim = grad_out.cols();
        grad_in.reshape(rows, dim);
        // Eight rows at a time, as in the forward pass.
        for r0 in (0..rows).step_by(8) {
            let r1 = rows.min(r0 + 8);
            // s = Σ_j g_j·x0_j  (scalar per row)
            let mut s = [-0.0f32; 8];
            let (g, x0) = (&grad_out.data()[r0 * dim..], &x0.data()[r0 * dim..]);
            row_dots(dim, g, dim, x0, dim, &mut s[..r1 - r0]);
            for (r, &s) in (r0..r1).zip(&s) {
                let g = grad_out.row(r);
                // dL/db_j = Σ_r g_j — a column sum, rows ascending.
                for (gb, &gj) in self.grad_b.iter_mut().zip(g) {
                    *gb += gj;
                }
                // dL/dxl_j = g_j (identity) + s·w_j (through the dot product)
                for ((gi, &gj), &wj) in grad_in.row_mut(r).iter_mut().zip(g).zip(&self.w) {
                    *gi = gj + s * wj;
                }
                // dL/dw_j = s·xl_j
                for (gw, &xlj) in self.grad_w.iter_mut().zip(input.row(r)) {
                    *gw += s * xlj;
                }
            }
        }
    }

    /// Visits `(params, grads)` buffer pairs in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Flops of one forward pass over `rows` samples: dot (2·dim) +
    /// scale-add output (2·dim) per row.
    pub fn flops(&self, rows: usize) -> u64 {
        4 * rows as u64 * self.w.len() as u64
    }
}

/// A sequential stack of [`Dense`] layers.
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds `in_dim → hidden[0] → … → hidden[n-1] → 1` with ReLU after
    /// each hidden layer (fused into the [`Dense`] kernel), ending in a
    /// single logit column.
    pub fn new(in_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut mlp = Self::without_head(in_dim, hidden, seed);
        let dim = hidden.last().copied().unwrap_or(in_dim);
        let head_seed = seed.wrapping_add(hidden.len() as u64);
        mlp.layers.push(Dense::new(dim, 1, head_seed));
        mlp
    }

    /// The hidden stack of [`Mlp::new`] without its logit head: the output
    /// is the last hidden activation (DCN's deep tower, which feeds a
    /// combiner). Layer `i` is seeded with `seed + i`, as in `new`.
    pub fn without_head(in_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut dim = in_dim;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(Dense::new_relu(dim, h, seed.wrapping_add(i as u64)));
            dim = h;
        }
        Self { layers }
    }

    /// Allocation-free forward: every layer's activation lands in
    /// `tape.acts[i]` (the logits end up at [`DenseTape::output`]). Nothing
    /// is cached inside the layers — pair with [`Mlp::backward_tape`].
    pub fn forward_tape(&mut self, input: &Matrix, tape: &mut DenseTape) {
        let n = self.layers.len();
        tape.ensure_acts(n);
        for i in 0..n {
            let (before, rest) = tape.acts.split_at_mut(i);
            let src: &Matrix = if i == 0 { input } else { &before[i - 1] };
            self.layers[i].forward_into(src, &mut rest[0]);
            let rows = src.rows();
            tape.add_flops(self.layers[i].flops(rows));
        }
    }

    /// Allocation-free backward matching the preceding
    /// [`Mlp::forward_tape`] on the same `input` and `tape`: ping-pongs the
    /// upstream gradient through the tape's two gradient buffers (swapped
    /// by pointer) and writes `dL/d-input` into `grad_in`.
    pub fn backward_tape(
        &mut self,
        input: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        tape: &mut DenseTape,
    ) {
        let n = self.layers.len();
        assert!(tape.acts.len() >= n, "forward_tape before backward_tape");
        // Presize BOTH ping-pong buffers to the largest intermediate
        // gradient. With an odd number of swaps per batch the buffers trade
        // roles across batches; without this, one of them would first grow
        // on batch 2 and trip the post-warmup-growth counter.
        let max_elems = (1..n)
            .map(|i| tape.acts[i - 1].rows() * tape.acts[i - 1].cols())
            .max()
            .unwrap_or(0);
        tape.g_a.ensure_capacity(max_elems);
        tape.g_b.ensure_capacity(max_elems);
        for i in (0..n).rev() {
            let rows = if i == 0 { input.rows() } else { tape.acts[i - 1].rows() };
            tape.add_flops(2 * self.layers[i].flops(rows));
            if i == 0 {
                let src: &Matrix = if n == 1 { grad_out } else { &tape.g_a };
                self.layers[0].backward_into(input, src, grad_in);
            } else if i == n - 1 {
                self.layers[i].backward_into(&tape.acts[i - 1], grad_out, &mut tape.g_b);
                std::mem::swap(&mut tape.g_a, &mut tape.g_b);
            } else {
                // Invariant: the upstream gradient lives in g_a; write the
                // new one into g_b, then swap (pointer swap, no copy).
                self.layers[i].backward_into(&tape.acts[i - 1], &tape.g_a, &mut tape.g_b);
                std::mem::swap(&mut tape.g_a, &mut tape.g_b);
            }
        }
    }

    /// Visits all `(param, grad)` buffers in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total scalar parameter count (the dense payload AllReduce moves).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Copies all parameters into one flat vector (AllReduce staging).
    pub fn flatten_params(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Overwrites parameters from a flat vector produced by
    /// [`Mlp::flatten_params`].
    ///
    /// # Panics
    /// Panics if `flat.len() != num_params()`.
    pub fn load_params(&mut self, flat: &[f32]) {
        let mut cursor = 0usize;
        self.visit_params(&mut |p, _| {
            p.copy_from_slice(&flat[cursor..cursor + p.len()]);
            cursor += p.len();
        });
        assert_eq!(cursor, flat.len(), "flat parameter length mismatch");
    }

    /// Overwrites gradient buffers from a flat vector (post-AllReduce).
    pub fn load_grads(&mut self, flat: &[f32]) {
        let mut cursor = 0usize;
        self.visit_params(&mut |_, g| {
            g.copy_from_slice(&flat[cursor..cursor + g.len()]);
            cursor += g.len();
        });
        assert_eq!(cursor, flat.len(), "flat gradient length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{bits, fill, fill_zeroish, poisoned};

    fn finite_diff_check(
        mut fwd: impl FnMut(&Matrix) -> f32,
        input: &Matrix,
        analytic: &Matrix,
        eps: f32,
        tol: f32,
    ) {
        for i in 0..input.data().len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let num = (fwd(&plus) - fwd(&minus)) / (2.0 * eps);
            let ana = analytic.data()[i];
            assert!(
                (num - ana).abs() < tol.max(0.05 * num.abs()),
                "grad[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn dense_forward_known() {
        let mut d = Dense::new(2, 2, 1);
        d.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        d.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let mut y = Matrix::zeros(0, 0);
        d.forward_into(&x, &mut y);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_backward_gradcheck() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        // Loss = sum of outputs; dL/dY = ones.
        let mut layer = Dense::new(3, 2, 7);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let (mut y, mut grad_in) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        layer.forward_into(&x, &mut y);
        layer.backward_into(&x, &ones, &mut grad_in);
        finite_diff_check(
            move |inp| {
                layer.forward_into(inp, &mut y);
                y.data().iter().sum()
            },
            &x,
            &grad_in,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn dense_weight_grad_accumulates() {
        let mut layer = Dense::new(2, 1, 3);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        let (mut y, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for _ in 0..2 {
            layer.forward_into(&x, &mut y);
            layer.backward_into(&x, &g, &mut gx);
        }
        // dW = x·g accumulated twice.
        assert_eq!(layer.grad_w.data(), &[2.0, 4.0]);
        layer.zero_grad();
        assert_eq!(layer.grad_w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        // The fused epilogue over an identity layer is a bare ReLU.
        let mut r = Dense::new_relu(4, 4, 1);
        r.w.clear();
        for i in 0..4 {
            r.w.set(i, i, 1.0);
        }
        let x = Matrix::from_vec(1, 4, vec![-1.0, 2.0, 0.0, 3.0]);
        let (mut y, mut gi) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        r.forward_into(&x, &mut y);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 3.0]);
        let g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        r.backward_into(&x, &g, &mut gi);
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn cross_layer_identity_component() {
        let mut c = CrossLayer::new(3, 5);
        c.w = vec![0.0; 3];
        c.b = vec![0.0; 3];
        let x0 = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let mut y = Matrix::zeros(0, 0);
        c.forward_with_x0(&x0, &x0, &mut y);
        // With w = 0: y = x0 (identity passthrough).
        assert_eq!(y.data(), x0.data());
    }

    #[test]
    fn cross_layer_gradcheck() {
        let x0 = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.9, 0.1, -0.4]);
        let xl = Matrix::from_vec(2, 3, vec![1.0, 0.5, -0.2, -1.1, 0.8, 0.6]);
        let mut c = CrossLayer::new(3, 11);
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let (mut y, mut grad_in) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        c.forward_with_x0(&x0, &xl, &mut y);
        c.backward_with_x0(&x0, &xl, &ones, &mut grad_in);
        finite_diff_check(
            move |inp| {
                c.forward_with_x0(&x0, inp, &mut y);
                y.data().iter().sum()
            },
            &xl,
            &grad_in,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn mlp_shapes_and_params() {
        let mut mlp = Mlp::new(8, &[16, 4], 1);
        let x = Matrix::zeros(3, 8);
        let mut tape = DenseTape::new();
        mlp.forward_tape(&x, &mut tape);
        let y = tape.output();
        assert_eq!(y.rows(), 3);
        assert_eq!(y.cols(), 1);
        assert_eq!(mlp.num_params(), 8 * 16 + 16 + 16 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn mlp_flatten_roundtrip() {
        let mut mlp = Mlp::new(4, &[8], 42);
        let flat = mlp.flatten_params();
        assert_eq!(flat.len(), mlp.num_params());
        let mut mlp2 = Mlp::new(4, &[8], 43);
        mlp2.load_params(&flat);
        assert_eq!(mlp2.flatten_params(), flat);
    }

    #[test]
    fn mlp_gradient_descends_loss() {
        // One step of plain SGD on a tiny regression problem must reduce loss.
        let mut mlp = Mlp::new(2, &[8], 9);
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let target = [0.0f32, 1.0, 1.0, 0.0];
        let mut tape = DenseTape::new();
        let loss = |m: &mut Mlp, tape: &mut DenseTape| -> f32 {
            m.forward_tape(&x, tape);
            tape.output()
                .data()
                .iter()
                .zip(&target)
                .map(|(&p, &t)| (p - t) * (p - t))
                .sum::<f32>()
        };
        let before = loss(&mut mlp, &mut tape);
        // dL/dy = 2(y−t), from the forward pass `loss` just ran.
        let g = Matrix::from_vec(
            4,
            1,
            tape.output()
                .data()
                .iter()
                .zip(&target)
                .map(|(&p, &t)| 2.0 * (p - t))
                .collect(),
        );
        mlp.zero_grad();
        mlp.backward_tape(&x, &g, &mut Matrix::zeros(0, 0), &mut tape);
        mlp.visit_params(&mut |p, gr| {
            for (pi, gi) in p.iter_mut().zip(gr.iter()) {
                *pi -= 0.01 * gi;
            }
        });
        let after = loss(&mut mlp, &mut tape);
        assert!(after < before, "loss {before} -> {after}");
    }

    fn zeroish(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_vec(rows, cols, fill_zeroish(rows * cols, seed))
    }

    /// The cross layer's passes as they were before the dots went eight
    /// rows at a time: one scalar chain per row. Kept as the oracle.
    fn cross_forward_scalar(c: &CrossLayer, x0: &Matrix, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), input.cols());
        for r in 0..input.rows() {
            let xl = input.row(r);
            let dot: f32 = xl.iter().zip(&c.w).map(|(&x, &w)| x * w).sum();
            let x0r = x0.row(r);
            let o = out.row_mut(r);
            for j in 0..input.cols() {
                o[j] = x0r[j] * dot + c.b[j] + xl[j];
            }
        }
        out
    }

    fn cross_backward_scalar(
        c: &mut CrossLayer,
        x0: &Matrix,
        input: &Matrix,
        grad_out: &Matrix,
    ) -> Matrix {
        let mut grad_in = Matrix::zeros(grad_out.rows(), grad_out.cols());
        grad_out.col_sums_into(&mut c.grad_b);
        for r in 0..grad_out.rows() {
            let g = grad_out.row(r);
            let xl = input.row(r);
            let s: f32 = g.iter().zip(x0.row(r)).map(|(&gj, &x0j)| gj * x0j).sum();
            let gi = grad_in.row_mut(r);
            for j in 0..grad_out.cols() {
                gi[j] = g[j] + s * c.w[j];
                c.grad_w[j] += s * xl[j];
            }
        }
        grad_in
    }

    #[test]
    fn cross_layer_matches_scalar_chains_bitwise() {
        // Row counts around the eight-row groups, widths around the
        // four-step blocks, signed zeros throughout, two accumulating
        // backward passes.
        let mut negative_zero_dots = 0;
        for rows in [1usize, 3, 4, 7, 8, 9, 17] {
            for dim in [1usize, 2, 3, 4, 5, 8, 22, 67] {
                let x0 = zeroish(rows, dim, 51);
                let xl = zeroish(rows, dim, 52);
                let g = zeroish(rows, dim, 53);
                let mut fast = CrossLayer::new(dim, 9);
                fast.w = zeroish(1, dim, 54).data().to_vec();
                fast.b = fill(dim, 55);
                let mut slow = CrossLayer::new(dim, 9);
                slow.w = fast.w.clone();
                slow.b = fast.b.clone();

                let mut out = Matrix::zeros(0, 0);
                fast.forward_with_x0(&x0, &xl, &mut out);
                let want = cross_forward_scalar(&slow, &x0, &xl);
                assert_eq!(bits(out.data()), bits(want.data()), "forward {rows}x{dim}");

                for pass in 0..2 {
                    let mut grad_in = Matrix::zeros(0, 0);
                    fast.backward_with_x0(&x0, &xl, &g, &mut grad_in);
                    let want = cross_backward_scalar(&mut slow, &x0, &xl, &g);
                    let case = format!("backward {rows}x{dim} pass {pass}");
                    assert_eq!(bits(grad_in.data()), bits(want.data()), "{case} grad_in");
                    assert_eq!(bits(&fast.grad_w), bits(&slow.grad_w), "{case} grad_w");
                    assert_eq!(bits(&fast.grad_b), bits(&slow.grad_b), "{case} grad_b");
                }
                negative_zero_dots += (0..rows)
                    .filter(|&r| {
                        let dot: f32 = xl.row(r).iter().zip(&fast.w).map(|(&x, &w)| x * w).sum();
                        dot.to_bits() == 1 << 31
                    })
                    .count();
            }
        }
        assert!(negative_zero_dots > 0, "the inputs must drive some dots to -0.0");
    }

    /// Both passes of `fresh` into fresh buffers and of its twin `dirty` into
    /// NaN-filled, wrongly shaped ones: same outputs, same parameter
    /// gradients. `passes` runs a layer forward into its first buffer and
    /// backward into its second, and returns the parameter gradients.
    fn assert_overwrites<L>(
        what: &str,
        (mut fresh, mut dirty): (L, L),
        (x, g): (&Matrix, &Matrix),
        passes: impl Fn(&mut L, &mut Matrix, &mut Matrix) -> Vec<f32>,
    ) {
        let (mut y_fresh, mut y_dirty) =
            (Matrix::zeros(0, 0), poisoned(x.rows() + 2, g.cols() + 3));
        let (mut gx_fresh, mut gx_dirty) = (Matrix::zeros(0, 0), poisoned(x.rows() / 2, x.cols()));
        let grads_fresh = passes(&mut fresh, &mut y_fresh, &mut gx_fresh);
        let grads_dirty = passes(&mut dirty, &mut y_dirty, &mut gx_dirty);
        assert_eq!(y_fresh, y_dirty, "{what} forward");
        assert_eq!(gx_fresh, gx_dirty, "{what} backward");
        assert_eq!(bits(&grads_fresh), bits(&grads_dirty), "{what} parameter gradients");
    }

    /// Every layer pass skips the zero-fill of its output (`reshape`, not
    /// `reset`), so each must write every element.
    #[test]
    fn layer_passes_overwrite_poisoned_wrongly_shaped_buffers() {
        let (rows, dim) = (11usize, 13usize);
        let x = Matrix::from_vec(rows, dim, fill(rows * dim, 61));

        // Dense with and without the fused ReLU, and the logit-shaped layer.
        for (out_dim, relu) in [(9usize, false), (9, true), (1, false), (1, true)] {
            let g = Matrix::from_vec(rows, out_dim, fill(rows * out_dim, 63));
            let make = || match relu {
                true => Dense::new_relu(dim, out_dim, 5),
                false => Dense::new(dim, out_dim, 5),
            };
            let mut dirty = make();
            dirty.masked = poisoned(rows + 1, out_dim + 1);
            let what = format!("dense {out_dim} relu={relu}");
            assert_overwrites(&what, (make(), dirty), (&x, &g), |d, y, gx| {
                d.forward_into(&x, y);
                d.backward_into(&x, &g, gx);
                let mut flat = Vec::new();
                d.visit_params(&mut |_, g| flat.extend_from_slice(g));
                flat
            });
        }

        let g = Matrix::from_vec(rows, dim, fill(rows * dim, 64));
        let x0 = Matrix::from_vec(rows, dim, fill(rows * dim, 62));
        let cross = || CrossLayer::new(dim, 3);
        assert_overwrites("cross", (cross(), cross()), (&x, &g), |c, y, gx| {
            c.forward_with_x0(&x0, &x, y);
            c.backward_with_x0(&x0, &x, &g, gx);
            let mut flat = Vec::new();
            c.visit_params(&mut |_, g| flat.extend_from_slice(g));
            flat
        });
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn load_params_length_checked() {
        // Mlp(2,[2]) has 9 parameters; an over-long flat vector must be
        // rejected after the buffers are consumed.
        let mut mlp = Mlp::new(2, &[2], 0);
        mlp.load_params(&[0.0; 10]);
    }
}
