//! Neural-network layers with explicit backward passes.
//!
//! Two calling conventions coexist:
//!
//! * the **in-place API** (`forward_into`/`backward_into`) is the hot path:
//!   the caller owns every activation and gradient buffer (see
//!   [`crate::DenseTape`]) and passes the layer's forward input back to
//!   `backward_into` explicitly, so a steady-state batch allocates nothing;
//! * the **legacy API** (`forward`/`backward`) allocates its outputs and
//!   caches a clone of the input inside the layer — kept for tests and
//!   one-shot evaluation, implemented on top of the in-place methods.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::row_dots;
use crate::matrix::Matrix;
use crate::tape::DenseTape;

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass for a batch (`rows` = batch size).
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Backward pass: takes `dL/d-output`, accumulates parameter gradients
    /// internally, returns `dL/d-input`.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// In-place forward: writes the batch output into `out` (resized via
    /// [`Matrix::reshape`], so a reused `out` does not reallocate). Does NOT
    /// cache the input — callers keeping activations on a tape pass it back
    /// to [`Layer::backward_into`].
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix);

    /// In-place backward: `input` is the same matrix given to the matching
    /// [`Layer::forward_into`]; accumulates parameter gradients and writes
    /// `dL/d-input` into `grad_in`.
    fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix);

    /// Visits `(params, grads)` buffer pairs in a stable order. Used by
    /// optimizers and by dense-parameter AllReduce.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Zeroes accumulated gradients.
    fn zero_grad(&mut self);

    /// GEMM flops (2 per multiply-add) of one *forward* pass over `rows`
    /// samples; backward costs ≈ 2× this. Feeds the `dense.gemm_flops`
    /// telemetry counter. Parameter-free layers report 0.
    fn flops(&self, rows: usize) -> u64 {
        let _ = rows;
        0
    }
}

/// Fully connected layer `Y = X·W + b`, Kaiming-uniform initialised, with
/// an optional fused ReLU epilogue (`Y = max(X·W + b, 0)`).
///
/// The fused form replaces a `Dense` + [`Relu`] pair: same math, same
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
    input: Option<Matrix>,
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
            input: None,
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
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input, &mut out);
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self.input.take().expect("backward called before forward");
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(&input, grad_out, &mut grad_in);
        self.input = Some(input);
        grad_in
    }

    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        if self.relu {
            input.matmul_bias_relu_into(&self.w, &self.b, out);
            // Keep-mask from the clamped output: out > 0 ⟺ pre-act > 0.
            self.mask.clear();
            self.mask.extend(out.data().iter().map(|&x| x > 0.0));
        } else {
            input.matmul_bias_into(&self.w, &self.b, out);
        }
    }

    fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
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

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.data_mut(), self.grad_w.data_mut());
        f(&mut self.b, &mut self.grad_b);
    }

    fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    fn zero_grad(&mut self) {
        self.grad_w.clear();
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn flops(&self, rows: usize) -> u64 {
        2 * rows as u64 * self.w.rows() as u64 * self.w.cols() as u64
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input, &mut out);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        // ReLU backward needs only the mask, not the forward input.
        let empty = Matrix::zeros(0, 0);
        self.backward_into(&empty, grad_out, &mut out);
        out
    }

    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        out.reshape(input.rows(), input.cols());
        self.mask.clear();
        self.mask.reserve(input.data().len());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            let keep = x > 0.0;
            self.mask.push(keep);
            *o = if keep { x } else { 0.0 };
        }
    }

    fn backward_into(&mut self, _input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        assert_eq!(
            grad_out.data().len(),
            self.mask.len(),
            "backward shape mismatch"
        );
        grad_in.reshape(grad_out.rows(), grad_out.cols());
        for ((gi, &g), &keep) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(&self.mask)
        {
            *gi = if keep { g } else { 0.0 };
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn num_params(&self) -> usize {
        0
    }

    fn zero_grad(&mut self) {}
}

/// DCN cross layer: `x_{l+1} = x_0 ⊙ (x_l·w) + b + x_l` (Wang et al. 2017).
///
/// `x_0` is the layer-0 input of the cross network; the layer receives it at
/// construction time of each forward pass via [`CrossLayer::set_x0`].
pub struct CrossLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    x0: Option<Matrix>,
    input: Option<Matrix>,
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
            x0: None,
            input: None,
        }
    }

    /// Provides the cross-network input `x_0` for the current batch. Must be
    /// called before `forward`. (The in-place methods take `x0` by reference
    /// instead — no per-batch clone.)
    pub fn set_x0(&mut self, x0: Matrix) {
        self.x0 = Some(x0);
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
}

impl Layer for CrossLayer {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input, &mut out);
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self.input.take().expect("forward before backward");
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(&input, grad_out, &mut grad_in);
        self.input = Some(input);
        grad_in
    }

    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let x0 = self.x0.take().expect("set_x0 before forward");
        self.forward_with_x0(&x0, input, out);
        self.x0 = Some(x0);
    }

    fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        let x0 = self.x0.take().expect("x0 cached");
        self.backward_with_x0(&x0, input, grad_out, grad_in);
        self.x0 = Some(x0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }

    fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn zero_grad(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn flops(&self, rows: usize) -> u64 {
        // dot (2·dim) + scale-add output (2·dim) per row.
        4 * rows as u64 * self.w.len() as u64
    }
}

/// A sequential stack of layers ending in a single logit column.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
}

impl Mlp {
    /// Builds `in_dim → hidden[0] → … → hidden[n-1] → 1` with ReLU after
    /// each hidden layer (fused into the [`Dense`] kernel).
    pub fn new(in_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut dim = in_dim;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(Box::new(Dense::new_relu(dim, h, seed.wrapping_add(i as u64))));
            dim = h;
        }
        layers.push(Box::new(Dense::new(
            dim,
            1,
            seed.wrapping_add(hidden.len() as u64),
        )));
        Self { layers }
    }

    /// Builds from explicit layers (used by DCN's combined tower).
    pub fn from_layers(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Forward through the stack.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Backward through the stack; returns `dL/d-input`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
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

    /// Copies all gradients into one flat vector.
    pub fn flatten_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |_, g| out.extend_from_slice(g));
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
        let y = d.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_backward_gradcheck() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        // Loss = sum of outputs; dL/dY = ones.
        let mut layer = Dense::new(3, 2, 7);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let _ = layer.forward(&x);
        let grad_in = layer.backward(&ones);
        let w = layer.w.clone();
        let b = layer.b.clone();
        finite_diff_check(
            move |inp| {
                let mut probe = Dense::new(3, 2, 0);
                probe.w = w.clone();
                probe.b = b.clone();
                probe.forward(inp).data().iter().sum()
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
        let _ = layer.forward(&x);
        let _ = layer.backward(&g);
        let _ = layer.forward(&x);
        let _ = layer.backward(&g);
        // dW = x·g accumulated twice.
        assert_eq!(layer.grad_w.data(), &[2.0, 4.0]);
        layer.zero_grad();
        assert_eq!(layer.grad_w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 2.0, 0.0, 3.0]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 3.0]);
        let g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        let gi = r.backward(&g);
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn cross_layer_identity_component() {
        let mut c = CrossLayer::new(3, 5);
        c.w = vec![0.0; 3];
        c.b = vec![0.0; 3];
        let x0 = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        c.set_x0(x0.clone());
        let y = c.forward(&x0);
        // With w = 0: y = x0 (identity passthrough).
        assert_eq!(y.data(), x0.data());
    }

    #[test]
    fn cross_layer_gradcheck() {
        let x0 = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.9, 0.1, -0.4]);
        let xl = Matrix::from_vec(2, 3, vec![1.0, 0.5, -0.2, -1.1, 0.8, 0.6]);
        let mut c = CrossLayer::new(3, 11);
        let w = c.w.clone();
        let b = c.b.clone();
        c.set_x0(x0.clone());
        let _ = c.forward(&xl);
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let grad_in = c.backward(&ones);
        finite_diff_check(
            move |inp| {
                let mut probe = CrossLayer::new(3, 0);
                probe.w = w.clone();
                probe.b = b.clone();
                probe.set_x0(x0.clone());
                probe.forward(inp).data().iter().sum()
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
        let y = mlp.forward(&x);
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
        let loss = |m: &mut Mlp| -> f32 {
            let y = m.forward(&x);
            y.data()
                .iter()
                .zip(&target)
                .map(|(&p, &t)| (p - t) * (p - t))
                .sum::<f32>()
        };
        let before = loss(&mut mlp);
        // dL/dy = 2(y−t)
        let y = mlp.forward(&x);
        let g = Matrix::from_vec(
            4,
            1,
            y.data()
                .iter()
                .zip(&target)
                .map(|(&p, &t)| 2.0 * (p - t))
                .collect(),
        );
        mlp.zero_grad();
        let _ = mlp.backward(&g);
        mlp.visit_params(&mut |p, gr| {
            for (pi, gi) in p.iter_mut().zip(gr.iter()) {
                *pi -= 0.01 * gi;
            }
        });
        let after = loss(&mut mlp);
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
    /// gradients.
    fn assert_overwrites(
        what: &str,
        mut fresh: impl Layer,
        mut dirty: impl Layer,
        x: &Matrix,
        g: &Matrix,
    ) {
        let (mut y_fresh, mut y_dirty) =
            (Matrix::zeros(0, 0), poisoned(x.rows() + 2, g.cols() + 3));
        fresh.forward_into(x, &mut y_fresh);
        dirty.forward_into(x, &mut y_dirty);
        assert_eq!(y_fresh, y_dirty, "{what} forward");
        let (mut gx_fresh, mut gx_dirty) = (Matrix::zeros(0, 0), poisoned(x.rows() / 2, x.cols()));
        fresh.backward_into(x, g, &mut gx_fresh);
        dirty.backward_into(x, g, &mut gx_dirty);
        assert_eq!(gx_fresh, gx_dirty, "{what} backward");
        let grads = |layer: &mut dyn Layer| {
            let mut flat = Vec::new();
            layer.visit_params(&mut |_, g| flat.extend_from_slice(g));
            bits(&flat)
        };
        assert_eq!(grads(&mut fresh), grads(&mut dirty), "{what} parameter gradients");
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
            assert_overwrites(&format!("dense {out_dim} relu={relu}"), make(), dirty, &x, &g);
        }

        let g = Matrix::from_vec(rows, dim, fill(rows * dim, 64));
        assert_overwrites("relu", Relu::new(), Relu::new(), &x, &g);

        let cross = || {
            let mut c = CrossLayer::new(dim, 3);
            c.set_x0(Matrix::from_vec(rows, dim, fill(rows * dim, 62)));
            c
        };
        assert_overwrites("cross", cross(), cross(), &x, &g);
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
