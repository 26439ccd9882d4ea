//! Neural-network layers with explicit backward passes.
//!
//! One calling convention: every pass is in place. The caller owns every
//! activation and gradient buffer (see [`crate::DenseTape`]) and passes a
//! layer's forward input back to its backward pass explicitly, so a layer
//! caches nothing but what only it can know (a ReLU keep-mask) and a
//! steady-state batch allocates nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::{gemm_tn, rank1, row_dots, Epilogue};
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

    /// The weights, row-major `in_dim × out_dim` (for a one-column layer,
    /// the weight of each input in order).
    pub fn weights(&self) -> &[f32] {
        self.w.data()
    }

    /// Forward of a one-column linear layer over the column concatenation
    /// `[parts₀ ; parts₁ ; …]`, without forming it: each row's logit is
    /// seeded with the bias and continues one chain, ascending, through
    /// the parts in order — the bits of [`Dense::forward_into`] on the
    /// concatenation.
    pub fn forward_concat_into(&self, parts: &[&Matrix], out: &mut Matrix) {
        let rows = self.check_concat(parts);
        out.reshape(rows, 1);
        out.data_mut().fill(self.b[0]);
        let mut w = self.w.data();
        for part in parts {
            let (wp, rest) = w.split_at(part.cols());
            row_dots(part.cols(), part.data(), part.cols(), wp, 0, out.data_mut());
            w = rest;
        }
    }

    /// The parameter half of [`Dense::backward_into`] for a one-column
    /// linear layer over the concatenation of `parts`: `dW += [parts]ᵀ·dY`
    /// part by part, `db += Σ dY`. The input gradient `dY·Wᵀ` is rank 1,
    /// so it is not formed here: the consumer builds it from `dY` and
    /// [`Dense::weights`] where it is used ([`Matrix::add_outer`],
    /// [`Matrix::set_outer`], [`CrossTower::backward`]).
    pub fn backward_concat_params(&mut self, parts: &[&Matrix], grad_out: &Matrix) {
        let rows = self.check_concat(parts);
        assert_eq!((grad_out.rows(), grad_out.cols()), (rows, 1), "logit gradient shape mismatch");
        let mut offset = 0;
        for part in parts {
            let gw = &mut self.grad_w.data_mut()[offset..offset + part.cols()];
            gemm_tn(part.cols(), rows, 1, part.data(), grad_out.data(), Epilogue::Accumulate, gw);
            offset += part.cols();
        }
        grad_out.col_sums_into(&mut self.grad_b);
    }

    /// Rows of `parts`, after checking that they are a one-column linear
    /// layer's input split by columns.
    fn check_concat(&self, parts: &[&Matrix]) -> usize {
        assert!(!self.relu && self.out_dim() == 1, "concatenated passes need a one-column linear layer");
        let rows = parts.first().map_or(0, |p| p.rows());
        assert!(parts.iter().all(|p| p.rows() == rows), "concatenated parts disagree on rows");
        let width: usize = parts.iter().map(|p| p.cols()).sum();
        assert_eq!(width, self.in_dim(), "concatenated width mismatch");
        rows
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

/// One layer of a [`CrossTower`]: `x_{l+1} = x_0 ⊙ (x_l·w) + b + x_l`.
struct CrossLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

impl CrossLayer {
    fn new(dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (1.0 / dim as f32).sqrt();
        Self {
            w: (0..dim).map(|_| rng.gen_range(-bound..bound)).collect(),
            b: vec![0.0; dim],
            grad_w: vec![0.0; dim],
            grad_b: vec![0.0; dim],
        }
    }
}

/// Rows a [`CrossTower`] pass carries through every layer before it moves
/// on: two groups of `row_dots`, and at DCN's widest tower (1,408) a block
/// of `x_0`, its activations and its gradient still fit in L2.
const CROSS_BLOCK: usize = 8;

/// DCN's cross network (Wang et al. 2017): layers
/// `x_{l+1} = x_0 ⊙ (x_l·w_l) + b_l + x_l`, `x_0` the tower's input.
///
/// Both passes sweep the batch once, eight rows at a time, and run every
/// layer on a block while it is in cache. The forward pass writes
/// only the top activation `x_L` and the `L × batch` dots `x_l·w_l`; the
/// backward pass rebuilds a block's `x_1 … x_{L-1}` from `x_0` and those
/// dots (the same expression on the same operands, so the same bits).
/// Every per-element sum keeps its order: the dots are `row_dots` chains
/// seeded with `-0.0` (what `Iterator::sum` seeds with), and `grad_w`/
/// `grad_b` accumulate over rows in ascending order, block after block.
pub struct CrossTower {
    layers: Vec<CrossLayer>,
    /// Backward's per-block scratch: `x_1 … x_{L-1}`, then the upstream
    /// gradient, [`CROSS_BLOCK`] rows each.
    scratch: Vec<f32>,
}

impl CrossTower {
    /// `depth` layers of width `dim`; layer `i` is seeded with `seed + i`.
    ///
    /// # Panics
    /// Panics if `depth` is 0.
    pub fn new(dim: usize, depth: usize, seed: u64) -> Self {
        assert!(depth > 0, "a cross tower needs at least one layer");
        Self {
            layers: (0..depth).map(|i| CrossLayer::new(dim, seed.wrapping_add(i as u64))).collect(),
            scratch: Vec::new(),
        }
    }

    /// Width of every layer.
    fn dim(&self) -> usize {
        self.layers[0].w.len()
    }

    /// Number of layers.
    fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass: writes the top activation `x_L` into `out`
    /// (`rows × dim`) and layer `l`'s dot `x_l·w_l` of row `r` into
    /// `dots[l][r]` (`depth × rows`), the two things backward needs.
    ///
    /// # Panics
    /// Panics unless `x0` is `dim` wide.
    pub fn forward(&self, x0: &Matrix, out: &mut Matrix, dots: &mut Matrix) {
        let (rows, dim) = (x0.rows(), self.dim());
        assert_eq!(x0.cols(), dim, "cross tower x0 width mismatch");
        out.reshape(rows, dim);
        dots.reshape(self.depth(), rows);
        for r0 in (0..rows).step_by(CROSS_BLOCK) {
            let r1 = rows.min(r0 + CROSS_BLOCK);
            let x0b = &x0.data()[r0 * dim..r1 * dim];
            let xb = &mut out.data_mut()[r0 * dim..r1 * dim];
            for (l, layer) in self.layers.iter().enumerate() {
                let d = &mut dots.row_mut(l)[r0..r1];
                d.fill(-0.0);
                // Layer 0 reads x_0; every later layer updates the block in
                // place (its dot has already read the whole row).
                row_dots(dim, if l == 0 { x0b } else { &*xb }, dim, &layer.w, 0, d);
                for ((x, x0r), &dot) in xb.chunks_exact_mut(dim).zip(x0b.chunks_exact(dim)).zip(&*d) {
                    if l == 0 {
                        cross_row(x, x0r, dot, &layer.b, x0r);
                    } else {
                        // `cross_row`'s sum: its last addition commutes.
                        for ((o, &x0j), &bj) in x.iter_mut().zip(x0r).zip(&layer.b) {
                            *o += x0j * dot + bj;
                        }
                    }
                }
            }
        }
    }

    /// Backward pass after [`CrossTower::forward`] on the same `x0`, whose
    /// `dots` it takes back. The tower feeds a one-column linear head, so
    /// the upstream gradient of `x_L` is the rank-1 `dY·wᵀ` (`dY` =
    /// `grad_top`, `w` = `w_top`, the head's weights over `x_L`): each
    /// block forms its rows as `gemm::rank1` does and never stores
    /// them. Accumulates every layer's `grad_w`/`grad_b` and **adds** the
    /// gradient of `x_0` into `grad_in` (`rows × dim`), which holds the
    /// input gradient of the other towers.
    ///
    /// `x_0` enters every layer twice, as the multiplicand and (bottom layer
    /// only) as `x_l`, so with `g_{l+1} = dL/dx_{l+1}` its gradient is
    /// `Σ_l g_{l+1} ⊙ (x_l·w_l) + g_1 + (g_1·x_0)·w_0`. Each row's terms are
    /// added into `grad_in` as the layers are walked top-down, the
    /// multiplicand term of layer `l` before `g_{l+1}` is overwritten, and
    /// the bottom layer's two terms last.
    ///
    /// # Panics
    /// Panics unless every operand's rows and widths match `x0`'s batch,
    /// the tower's width and its depth.
    pub fn backward(
        &mut self,
        x0: &Matrix,
        dots: &Matrix,
        grad_top: &[f32],
        w_top: &[f32],
        grad_in: &mut Matrix,
    ) {
        let (rows, dim, depth) = (x0.rows(), self.dim(), self.depth());
        assert_eq!(x0.cols(), dim, "cross tower x0 width mismatch");
        assert_eq!((dots.rows(), dots.cols()), (depth, rows), "cross tower dots shape mismatch");
        assert_eq!(grad_top.len(), rows, "cross tower upstream rows mismatch");
        assert_eq!(w_top.len(), dim, "cross tower head width mismatch");
        assert_eq!((grad_in.rows(), grad_in.cols()), (rows, dim), "cross tower grad_in shape mismatch");
        let slot = CROSS_BLOCK * dim;
        self.scratch.resize(depth * slot, 0.0);
        let (xs, g) = self.scratch.split_at_mut((depth - 1) * slot);
        for r0 in (0..rows).step_by(CROSS_BLOCK) {
            let r1 = rows.min(r0 + CROSS_BLOCK);
            let n = (r1 - r0) * dim;
            let x0b = &x0.data()[r0 * dim..r1 * dim];
            // x_1 … x_{L-1} of the block, slot l - 1 holding x_l.
            for l in 1..depth {
                let (done, next) = xs.split_at_mut((l - 1) * slot);
                let prev = if l == 1 { x0b } else { &done[(l - 2) * slot..][..n] };
                let rows_l = next[..n].chunks_exact_mut(dim).zip(x0b.chunks_exact(dim));
                let dots_l = &dots.row(l - 1)[r0..r1];
                for (((x, x0r), xp), &dot) in rows_l.zip(prev.chunks_exact(dim)).zip(dots_l) {
                    cross_row(x, x0r, dot, &self.layers[l - 1].b, xp);
                }
            }
            let g = &mut g[..n];
            for (gr, &dy) in g.chunks_exact_mut(dim).zip(&grad_top[r0..r1]) {
                for (gj, &wj) in gr.iter_mut().zip(w_top) {
                    *gj = rank1(dy, wj);
                }
            }
            for (l, layer) in self.layers.iter_mut().enumerate().rev() {
                let xl = if l == 0 { x0b } else { &xs[(l - 1) * slot..][..n] };
                // s = Σ_j g_j·x0_j per row: the scalar every partial
                // derivative of this layer goes through.
                let mut s = [-0.0f32; CROSS_BLOCK];
                row_dots(dim, g, dim, x0b, dim, &mut s[..r1 - r0]);
                let rows_l = g.chunks_exact_mut(dim).zip(xl.chunks_exact(dim));
                for (i, ((gr, xr), &dot)) in rows_l.zip(&dots.row(l)[r0..r1]).enumerate() {
                    let s = s[i];
                    // dL/db = g; dL/dw = s·x_l; dL/dx_l = g + s·w; and
                    // dL/dx_0 gains g·dot, x_0 being the multiplicand.
                    let params = layer.grad_b.iter_mut().zip(&mut layer.grad_w).zip(&layer.w);
                    let gi = grad_in.row_mut(r0 + i);
                    if l > 0 {
                        for ((((gb, gw), &wj), (gj, &xj)), o) in params.zip(gr.iter_mut().zip(xr)).zip(gi) {
                            *gb += *gj;
                            *gw += s * xj;
                            *o += *gj * dot;
                            *gj += s * wj;
                        }
                    } else {
                        for ((((gb, gw), &wj), (&gj, &xj)), o) in params.zip(gr.iter().zip(xr)).zip(gi) {
                            *gb += gj;
                            *gw += s * xj;
                            *o = *o + gj * dot + (gj + s * wj);
                        }
                    }
                }
            }
        }
    }

    /// Visits `(params, grads)` buffer pairs in a stable order: each
    /// layer's `w` then `b`, bottom layer first.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            f(&mut layer.w, &mut layer.grad_w);
            f(&mut layer.b, &mut layer.grad_b);
        }
    }

    /// Flops of one forward pass over `rows` samples: per layer and row, a
    /// dot (2·dim) and the scale-add output (2·dim).
    pub fn flops(&self, rows: usize) -> u64 {
        4 * rows as u64 * self.dim() as u64 * self.depth() as u64
    }
}

/// One cross layer on one row: `out[j] = x0[j]·dot + b[j] + xl[j]`.
#[inline(always)]
fn cross_row(out: &mut [f32], x0: &[f32], dot: f32, b: &[f32], xl: &[f32]) {
    for (((o, &x0j), &bj), &xlj) in out.iter_mut().zip(x0).zip(b).zip(xl) {
        *o = x0j * dot + bj + xlj;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{gradcheck, gradcheck_params};
    use crate::testdata::{bits, fill, fill_zeroish, poisoned};

    /// `Σ_e dy_e·y_e` in f64: the loss whose gradient over `y` is `dy`.
    fn weighted_sum(dy: &[f32], y: &[f32]) -> f64 {
        dy.iter().zip(y).map(|(&d, &v)| d as f64 * v as f64).sum()
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
        // dX, dW and db of a linear layer under L = Σ dY ⊙ Y.
        let x = Matrix::from_vec(3, 4, fill(12, 1));
        let dy = Matrix::from_vec(3, 2, fill(6, 2));
        let mut layer = Dense::new(4, 2, 7);
        let (mut y, mut grad_in) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        layer.forward_into(&x, &mut y);
        layer.backward_into(&x, &dy, &mut grad_in);
        let loss = |layer: &mut Dense, x: &Matrix, y: &mut Matrix| {
            layer.forward_into(x, y);
            weighted_sum(dy.data(), y.data())
        };
        let probe = |p: &[f32]| Matrix::from_vec(3, 4, p.to_vec());
        gradcheck(|p| loss(&mut layer, &probe(p), &mut y), x.data(), grad_in.data(), 1e-2, 1e-4, 1e-3);
        let params_loss = |l: &mut Dense| loss(l, &x, &mut y);
        gradcheck_params(&mut layer, Dense::visit_params, params_loss, 1e-2, 1e-4, 1e-3);
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
        // With every w = 0 and b = 0 each layer passes x_l through.
        let mut t = CrossTower::new(3, 3, 5);
        for layer in &mut t.layers {
            layer.w = vec![0.0; 3];
            layer.b = vec![0.0; 3];
        }
        let x0 = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (mut y, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        t.forward(&x0, &mut y, &mut dots);
        assert_eq!(y.data(), x0.data());
    }

    #[test]
    fn cross_layer_gradcheck() {
        // The input x_0 and every parameter of three layers under a
        // one-column head, L = Σ_r dy_r·(x_L[r]·w_top), against central
        // differences: 11 rows, ragged against the eight-row blocks.
        let (rows, dim) = (11usize, 5usize);
        let x0 = Matrix::from_vec(rows, dim, fill(rows * dim, 3));
        let (dy, w_top) = (fill(rows, 4), fill(dim, 5));
        let mut t = CrossTower::new(dim, 3, 11);
        for (l, layer) in t.layers.iter_mut().enumerate() {
            layer.b = fill(dim, 6 + l as u64);
        }
        let (mut out, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut grad_in = Matrix::zeros(rows, dim);
        t.forward(&x0, &mut out, &mut dots);
        t.backward(&x0, &dots, &dy, &w_top, &mut grad_in);
        let loss = |t: &CrossTower, x0: &Matrix, out: &mut Matrix, dots: &mut Matrix| {
            t.forward(x0, out, dots);
            (0..rows)
                .map(|r| dy[r] as f64 * weighted_sum(&w_top, out.row(r)))
                .sum::<f64>()
        };
        let probe = |p: &[f32]| Matrix::from_vec(rows, dim, p.to_vec());
        let x0_loss = |p: &[f32]| loss(&t, &probe(p), &mut out, &mut dots);
        gradcheck(x0_loss, x0.data(), grad_in.data(), 1e-2, 1e-4, 1e-3);
        let params_loss = |t: &mut CrossTower| loss(t, &x0, &mut out, &mut dots);
        gradcheck_params(&mut t, CrossTower::visit_params, params_loss, 1e-2, 1e-4, 1e-3);
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

    /// One layer's backward: returns `dL/dx_l` and adds the multiplicand
    /// term `g·(x_l·w)` of `dL/dx_0` into `grad_x0`.
    fn cross_backward_scalar(
        c: &mut CrossLayer,
        x0: &Matrix,
        input: &Matrix,
        grad_out: &Matrix,
        grad_x0: &mut Matrix,
    ) -> Matrix {
        let mut grad_in = Matrix::zeros(grad_out.rows(), grad_out.cols());
        grad_out.col_sums_into(&mut c.grad_b);
        for r in 0..grad_out.rows() {
            let g = grad_out.row(r);
            let xl = input.row(r);
            let dot: f32 = xl.iter().zip(&c.w).map(|(&x, &w)| x * w).sum();
            let s: f32 = g.iter().zip(x0.row(r)).map(|(&gj, &x0j)| gj * x0j).sum();
            let gi = grad_in.row_mut(r);
            for j in 0..grad_out.cols() {
                gi[j] = g[j] + s * c.w[j];
                c.grad_w[j] += s * xl[j];
                grad_x0.row_mut(r)[j] += g[j] * dot;
            }
        }
        grad_in
    }

    /// A tower of signed-zero-heavy weights and random biases, the same
    /// tower on every call.
    fn zeroish_tower(dim: usize, depth: usize) -> CrossTower {
        let mut t = CrossTower::new(dim, depth, 9);
        for (l, layer) in t.layers.iter_mut().enumerate() {
            layer.w = fill_zeroish(dim, 54 + l as u64);
            layer.b = fill(dim, 55 + l as u64);
        }
        t
    }

    #[test]
    fn cross_layer_matches_scalar_chains_bitwise() {
        // The tower against the one-layer scalar oracles chained: row
        // counts around the blocks and their four-row groups, widths around
        // the four-step blocks, one layer and three, signed zeros
        // throughout, upstream products that underflow, and two
        // accumulating backward passes.
        let mut negative_zero_dots = 0;
        for depth in [1usize, 3] {
            for rows in [1usize, 3, 4, 7, 8, 9, 17] {
                for dim in [1usize, 2, 3, 4, 5, 8, 22, 67] {
                    let case = format!("depth {depth} {rows}x{dim}");
                    let x0 = zeroish(rows, dim, 51);
                    let (mut fast, mut slow) = (zeroish_tower(dim, depth), zeroish_tower(dim, depth));
                    let mut dy = fill_zeroish(rows, 56);
                    dy[0] = -f32::from_bits(1);
                    let w_top = fill_zeroish(dim, 57);

                    let (mut out, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    fast.forward(&x0, &mut out, &mut dots);
                    let mut xs = vec![x0.clone()];
                    for layer in &slow.layers {
                        xs.push(cross_forward_scalar(layer, &x0, &xs[xs.len() - 1]));
                    }
                    assert_eq!(bits(out.data()), bits(xs[depth].data()), "{case} forward");
                    for (l, layer) in slow.layers.iter().enumerate() {
                        let want: Vec<f32> = (0..rows)
                            .map(|r| xs[l].row(r).iter().zip(&layer.w).map(|(&x, &w)| x * w).sum())
                            .collect();
                        assert_eq!(bits(dots.row(l)), bits(&want), "{case} dots of layer {l}");
                        negative_zero_dots += want.iter().filter(|d| d.to_bits() == 1 << 31).count();
                    }

                    for pass in 0..2 {
                        let base = zeroish(rows, dim, 58 + pass);
                        let mut grad_in = base.clone();
                        fast.backward(&x0, &dots, &dy, &w_top, &mut grad_in);
                        let top = (0..rows * dim).map(|e| dy[e / dim].mul_add(w_top[e % dim], 0.0));
                        let mut g = Matrix::from_vec(rows, dim, top.collect());
                        let mut want = base.clone();
                        for l in (0..depth).rev() {
                            g = cross_backward_scalar(&mut slow.layers[l], &x0, &xs[l], &g, &mut want);
                        }
                        // The bottom layer's x_l term lands last.
                        let want: Vec<f32> = want.data().iter().zip(g.data()).map(|(w, g)| w + g).collect();
                        let case = format!("{case} pass {pass}");
                        assert_eq!(bits(grad_in.data()), bits(&want), "{case} grad_in");
                        for (l, (f, s)) in fast.layers.iter().zip(&slow.layers).enumerate() {
                            assert_eq!(bits(&f.grad_w), bits(&s.grad_w), "{case} grad_w of layer {l}");
                            assert_eq!(bits(&f.grad_b), bits(&s.grad_b), "{case} grad_b of layer {l}");
                        }
                    }
                }
            }
        }
        assert!(negative_zero_dots > 0, "the inputs must drive some dots to -0.0");
    }

    #[test]
    fn dense_concat_passes_match_the_concatenation_bitwise() {
        // A one-column head over [a ; b] split by columns, against the same
        // head over the concatenated matrix: logits, weight and bias
        // gradients, and the rank-1 input gradient.
        for (rows, wa, wb) in [(37usize, 13usize, 8usize), (8, 1, 5), (3, 6, 0)] {
            let (a, b) = (zeroish(rows, wa, 71), zeroish(rows, wb, 72));
            let cat = Matrix::from_vec(
                rows,
                wa + wb,
                (0..rows).flat_map(|r| a.row(r).iter().chain(b.row(r)).copied()).collect(),
            );
            let mut dy = zeroish(rows, 1, 73);
            dy.data_mut()[rows - 1] = -f32::from_bits(1);
            let (mut split, mut whole) = (Dense::new(wa + wb, 1, 74), Dense::new(wa + wb, 1, 74));
            let (mut y_split, mut y_whole) = (poisoned(1, 1), Matrix::zeros(0, 0));
            let mut gx = Matrix::zeros(0, 0);
            split.forward_concat_into(&[&a, &b], &mut y_split);
            whole.forward_into(&cat, &mut y_whole);
            let case = format!("{rows} rows, {wa} + {wb} wide");
            assert_eq!(bits(y_split.data()), bits(y_whole.data()), "{case} logits");
            for _ in 0..2 {
                split.backward_concat_params(&[&a, &b], &dy);
                whole.backward_into(&cat, &dy, &mut gx);
            }
            assert_eq!(bits(split.grad_w.data()), bits(whole.grad_w.data()), "{case} grad_w");
            assert_eq!(bits(&split.grad_b), bits(&whole.grad_b), "{case} grad_b");
            let mut outer = poisoned(2, 2);
            outer.set_outer(dy.data(), split.weights());
            assert_eq!(bits(outer.data()), bits(gx.data()), "{case} input gradient");
        }
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

        // The cross tower: its activation and dots into poisoned buffers,
        // its backward over NaN-filled scratch. Backward adds into
        // `grad_in`, so both start from the same one.
        let (dy, w_top) = (fill(rows, 63), fill(dim, 64));
        let passes = |t: &mut CrossTower, out: &mut Matrix, dots: &mut Matrix| {
            t.forward(&x, out, dots);
            let mut grad_in = x.clone();
            t.backward(&x, dots, &dy, &w_top, &mut grad_in);
            let mut flat = grad_in.data().to_vec();
            t.visit_params(&mut |_, g| flat.extend_from_slice(g));
            flat
        };
        let mut dirty = CrossTower::new(dim, 3, 3);
        dirty.scratch = vec![f32::NAN; 4 * CROSS_BLOCK * dim];
        let (mut out_fresh, mut dots_fresh) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut out_dirty, mut dots_dirty) = (poisoned(rows + 2, dim + 3), poisoned(1, 2));
        let fresh = passes(&mut CrossTower::new(dim, 3, 3), &mut out_fresh, &mut dots_fresh);
        let dirty = passes(&mut dirty, &mut out_dirty, &mut dots_dirty);
        assert_eq!(out_fresh, out_dirty, "cross forward");
        assert_eq!(dots_fresh, dots_dirty, "cross dots");
        assert_eq!(bits(&fresh), bits(&dirty), "cross backward");
    }

    /// A valid backward call on a two-layer tower, 5 wide over 3 rows, with
    /// the operand named `bad` swapped for one of the wrong shape.
    fn cross_backward_with(bad: &str) {
        let mut t = CrossTower::new(5, 2, 1);
        let x0 = Matrix::from_vec(3, 5, fill(15, 2));
        let (mut out, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        t.forward(&x0, &mut out, &mut dots);
        let (mut x, mut dy, mut w, mut grad_in) = (x0, vec![1.0; 3], vec![1.0; 5], Matrix::zeros(3, 5));
        match bad {
            "x0" => x = Matrix::zeros(3, 4),
            "dots" => dots = Matrix::zeros(3, 3),
            "grad_top" => dy.push(1.0),
            "w_top" => w.truncate(4),
            "grad_in" => grad_in = Matrix::zeros(2, 5),
            _ => unreachable!(),
        }
        t.backward(&x, &dots, &dy, &w, &mut grad_in);
    }

    #[test]
    #[should_panic(expected = "cross tower x0 width mismatch")]
    fn cross_tower_forward_checks_x0_width() {
        let (mut out, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        CrossTower::new(5, 2, 1).forward(&Matrix::zeros(3, 6), &mut out, &mut dots);
    }

    #[test]
    #[should_panic(expected = "cross tower x0 width mismatch")]
    fn cross_tower_backward_checks_x0_width() {
        cross_backward_with("x0");
    }

    #[test]
    #[should_panic(expected = "cross tower dots shape mismatch")]
    fn cross_tower_backward_checks_dots_shape() {
        cross_backward_with("dots");
    }

    #[test]
    #[should_panic(expected = "cross tower upstream rows mismatch")]
    fn cross_tower_backward_checks_upstream_rows() {
        cross_backward_with("grad_top");
    }

    #[test]
    #[should_panic(expected = "cross tower head width mismatch")]
    fn cross_tower_backward_checks_head_width() {
        cross_backward_with("w_top");
    }

    #[test]
    #[should_panic(expected = "cross tower grad_in shape mismatch")]
    fn cross_tower_backward_checks_grad_in_shape() {
        cross_backward_with("grad_in");
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
