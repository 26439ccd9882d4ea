//! Factorization-machine second-order interaction (DeepFM's FM component)
//! and DIN-style target attention pooling.
//!
//! Both operate on *field-structured* input: a batch row is `F` field
//! embeddings of dimension `d` laid out contiguously (`F·d` floats), exactly
//! the layout the embedding layer produces.

use crate::matrix::Matrix;

/// Second-order FM interaction:
/// `y = 0.5 · Σ_d [ (Σ_f v_{f,d})² − Σ_f v_{f,d}² ]` — one scalar per row
/// (Rendle 2010; the pairwise-interaction term of DeepFM).
pub struct FmInteraction {
    fields: usize,
    dim: usize,
    /// Cached per-row per-dim field sums from the forward pass.
    sums: Vec<f32>,
}

impl FmInteraction {
    /// Creates the layer for `fields` fields of `dim` dims.
    pub fn new(fields: usize, dim: usize) -> Self {
        assert!(fields > 0 && dim > 0);
        Self {
            fields,
            dim,
            sums: Vec::new(),
        }
    }

    /// Forward pass: input `(batch × F·d)` → output `(batch × 1)`, written
    /// into `out`. Caches only the per-row field sums, not the input; pair
    /// with [`FmInteraction::backward_into`].
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.fields * self.dim, "input width mismatch");
        let batch = input.rows();
        out.reset(batch, 1);
        self.sums.clear();
        self.sums.resize(batch * self.dim, 0.0);
        for r in 0..batch {
            let row = input.row(r);
            let sums = &mut self.sums[r * self.dim..(r + 1) * self.dim];
            let mut sq_sum = 0.0f32;
            for f in 0..self.fields {
                let v = &row[f * self.dim..(f + 1) * self.dim];
                for (s, &x) in sums.iter_mut().zip(v) {
                    *s += x;
                    sq_sum += x * x;
                }
            }
            let sum_sq: f32 = sums.iter().map(|&s| s * s).sum();
            out.set(r, 0, 0.5 * (sum_sq - sq_sum));
        }
    }

    /// Backward pass: `dL/dv_{f,d} = g · (Σ_f' v_{f',d} − v_{f,d})`, written
    /// into `grad_in`. `input` is the matrix passed to the matching
    /// [`FmInteraction::forward_into`].
    pub fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        assert_eq!(grad_out.cols(), 1, "grad must be a column");
        let batch = input.rows();
        grad_in.reset(batch, self.fields * self.dim);
        for r in 0..batch {
            let g = grad_out.get(r, 0);
            let row = input.row(r);
            let sums = &self.sums[r * self.dim..(r + 1) * self.dim];
            let gi = grad_in.row_mut(r);
            for f in 0..self.fields {
                for (d, &sum_d) in sums.iter().enumerate() {
                    let idx = f * self.dim + d;
                    gi[idx] = g * (sum_d - row[idx]);
                }
            }
        }
    }
}

/// DIN-style target attention: field 0 is the *target item*; the remaining
/// `F−1` fields are *behaviours*. Attention weights are a softmax of scaled
/// dot products between the target and each behaviour; the output is
/// `[target ; Σ_f α_f · behaviour_f]` of width `2·d`.
pub struct TargetAttention {
    fields: usize,
    dim: usize,
    /// Cached softmax weights per row (`batch × (F−1)`).
    alphas: Vec<f32>,
    /// Reused per-row scratch: raw scores (forward), `dL/dα` and softmax
    /// score gradients (backward).
    scores: Vec<f32>,
    dalpha: Vec<f32>,
    dscore: Vec<f32>,
}

impl TargetAttention {
    /// Creates the layer for `fields ≥ 2` fields of `dim` dims.
    pub fn new(fields: usize, dim: usize) -> Self {
        assert!(fields >= 2, "attention needs a target and ≥1 behaviour");
        assert!(dim > 0);
        Self {
            fields,
            dim,
            alphas: Vec::new(),
            scores: Vec::new(),
            dalpha: Vec::new(),
            dscore: Vec::new(),
        }
    }

    /// Output width (`2·dim`).
    pub fn out_dim(&self) -> usize {
        2 * self.dim
    }

    /// Forward: input `(batch × F·d)` → `(batch × 2·d)`, written into
    /// `out`. Caches only the attention weights, not the input; pair with
    /// [`TargetAttention::backward_into`].
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.fields * self.dim, "input width mismatch");
        let batch = input.rows();
        let b_fields = self.fields - 1;
        let scale = 1.0 / (self.dim as f32).sqrt();
        out.reset(batch, 2 * self.dim);
        self.alphas.clear();
        self.alphas.resize(batch * b_fields, 0.0);
        self.scores.clear();
        self.scores.resize(b_fields, 0.0);
        for r in 0..batch {
            let row = input.row(r);
            let target = &row[..self.dim];
            // Scaled dot-product scores → softmax.
            let mut max_score = f32::MIN;
            let scores = &mut self.scores[..];
            for f in 0..b_fields {
                let v = &row[(f + 1) * self.dim..(f + 2) * self.dim];
                let dot: f32 = target.iter().zip(v).map(|(&a, &b)| a * b).sum();
                scores[f] = dot * scale;
                max_score = max_score.max(scores[f]);
            }
            let mut z = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max_score).exp();
                z += *s;
            }
            let alphas = &mut self.alphas[r * b_fields..(r + 1) * b_fields];
            for (a, s) in alphas.iter_mut().zip(scores.iter()) {
                *a = s / z;
            }
            // Pooled behaviour vector.
            let o = out.row_mut(r);
            o[..self.dim].copy_from_slice(target);
            for f in 0..b_fields {
                let v = &row[(f + 1) * self.dim..(f + 2) * self.dim];
                for d in 0..self.dim {
                    o[self.dim + d] += alphas[f] * v[d];
                }
            }
        }
    }

    /// Backward: gradients flow to the target (direct + through the
    /// attention scores) and to every behaviour (weighted + score paths).
    /// `input` is the matrix passed to the matching
    /// [`TargetAttention::forward_into`].
    pub fn backward_into(&mut self, input: &Matrix, grad_out: &Matrix, grad_in: &mut Matrix) {
        let batch = input.rows();
        let b_fields = self.fields - 1;
        let dim = self.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        grad_in.reset(batch, self.fields * dim);
        self.dalpha.clear();
        self.dalpha.resize(b_fields, 0.0);
        self.dscore.clear();
        self.dscore.resize(b_fields, 0.0);
        for r in 0..batch {
            let row = input.row(r);
            let g = grad_out.row(r);
            let g_target_direct = &g[..dim];
            let g_pooled = &g[dim..];
            let alphas = &self.alphas[r * b_fields..(r + 1) * b_fields];

            // dL/dα_f = g_pooled · v_f
            let dalpha = &mut self.dalpha[..];
            for f in 0..b_fields {
                let v = &row[(f + 1) * dim..(f + 2) * dim];
                dalpha[f] = g_pooled.iter().zip(v).map(|(&a, &b)| a * b).sum();
            }
            // Softmax backward: ds_f = α_f (dα_f − Σ_k α_k dα_k)
            let inner: f32 = alphas.iter().zip(dalpha.iter()).map(|(&a, &da)| a * da).sum();
            let dscore = &mut self.dscore[..];
            for (ds, (&a, &da)) in dscore.iter_mut().zip(alphas.iter().zip(dalpha.iter())) {
                *ds = a * (da - inner);
            }

            let (gi_target, gi_rest) = grad_in.row_mut(r).split_at_mut(dim);
            // Target gradient: direct path + score path (score = scale·t·v).
            gi_target.copy_from_slice(g_target_direct);
            for f in 0..b_fields {
                let v = &row[(f + 1) * dim..(f + 2) * dim];
                for d in 0..dim {
                    gi_target[d] += dscore[f] * scale * v[d];
                }
            }
            // Behaviour gradients: pooled path (α_f·g_pooled) + score path
            // (dscore_f·scale·target).
            let target = &row[..dim];
            for f in 0..b_fields {
                let gv = &mut gi_rest[f * dim..(f + 1) * dim];
                for d in 0..dim {
                    gv[d] = alphas[f] * g_pooled[d] + dscore[f] * scale * target[d];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradcheck(
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
    fn fm_known_value() {
        // 2 fields, dim 2: v0 = (1,2), v1 = (3,4).
        // sums = (4,6); sum_sq = 16+36 = 52; sq_sum = 1+4+9+16 = 30.
        // y = 0.5(52−30) = 11.
        let mut fm = FmInteraction::new(2, 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = Matrix::zeros(0, 0);
        fm.forward_into(&x, &mut y);
        assert_eq!(y.get(0, 0), 11.0);
    }

    #[test]
    fn fm_single_field_is_zero() {
        // With one field there are no pairwise interactions.
        let mut fm = FmInteraction::new(1, 3);
        let x = Matrix::from_vec(1, 3, vec![2.0, -1.0, 0.5]);
        let mut y = Matrix::zeros(0, 0);
        fm.forward_into(&x, &mut y);
        assert!(y.get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn fm_gradcheck() {
        let mut fm = FmInteraction::new(3, 2);
        let x = Matrix::from_vec(2, 6, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1, 1.0, 0.2, -0.4, 0.8, 0.6, -0.9]);
        let (mut y, mut grad) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        fm.forward_into(&x, &mut y);
        let g = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        fm.backward_into(&x, &g, &mut grad);
        gradcheck(
            |inp| {
                fm.forward_into(inp, &mut y);
                y.data().iter().sum()
            },
            &x,
            &grad,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn attention_shapes_and_weights_sum_to_one() {
        let mut att = TargetAttention::new(4, 3);
        let x = Matrix::from_vec(2, 12, (0..24).map(|i| (i as f32) * 0.1 - 1.0).collect());
        let mut y = Matrix::zeros(0, 0);
        att.forward_into(&x, &mut y);
        assert_eq!(y.cols(), 6);
        assert_eq!(y.rows(), 2);
        for r in 0..2 {
            let alphas = &att.alphas[r * 3..(r + 1) * 3];
            let sum: f32 = alphas.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(alphas.iter().all(|&a| a >= 0.0));
        }
        // Target passes through unchanged.
        assert_eq!(&y.row(0)[..3], &x.row(0)[..3]);
    }

    #[test]
    fn attention_prefers_similar_behaviour() {
        // Behaviour 0 equals the target; behaviour 1 is opposite. α_0 > α_1.
        let mut att = TargetAttention::new(3, 2);
        let x = Matrix::from_vec(1, 6, vec![1.0, 0.5, 1.0, 0.5, -1.0, -0.5]);
        att.forward_into(&x, &mut Matrix::zeros(0, 0));
        assert!(att.alphas[0] > att.alphas[1]);
    }

    #[test]
    fn attention_gradcheck() {
        let mut att = TargetAttention::new(3, 2);
        let x = Matrix::from_vec(2, 6, vec![0.4, -0.2, 0.9, 0.1, -0.5, 0.7, -0.3, 0.8, 0.2, -0.6, 0.5, 0.3]);
        let (mut y, mut grad) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        att.forward_into(&x, &mut y);
        let g = Matrix::from_vec(2, 4, vec![1.0; 8]);
        att.backward_into(&x, &g, &mut grad);
        gradcheck(
            |inp| {
                att.forward_into(inp, &mut y);
                y.data().iter().sum()
            },
            &x,
            &grad,
            1e-3,
            1e-2,
        );
    }

    #[test]
    #[should_panic(expected = "attention needs a target")]
    fn attention_needs_two_fields() {
        TargetAttention::new(1, 4);
    }
}
