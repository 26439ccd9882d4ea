//! Dense-parameter optimizer.
//!
//! Plain SGD steps the DNN weights (the AllReduce-synchronised part of the
//! hybrid architecture). Per-row optimizer state belongs to the sparse side
//! (`hetgmp-embedding`'s `SparseOpt`).

/// An optimizer over a fixed sequence of parameter buffers; kept as a trait
/// because the benchmark's frozen replay calls `begin_step` and `update`.
pub trait DenseOptimizer: Send {
    /// Begins a step; called once before the per-buffer updates of a step.
    fn begin_step(&mut self) {}

    /// Updates the `slot`-th parameter buffer in the model's stable
    /// visitation order.
    fn update(&mut self, slot: usize, params: &mut [f32], grads: &[f32]);
}

/// Plain stochastic gradient descent: `p ← p − lr·g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl DenseOptimizer for Sgd {
    fn update(&mut self, _slot: usize, params: &mut [f32], grads: &[f32]) {
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_converges() {
        // Minimise f(x) = (x − 3)² from x = 0.
        let mut o = Sgd::new(0.1);
        let mut x = [0.0f32];
        for _ in 0..100 {
            o.begin_step();
            let g = [2.0 * (x[0] - 3.0)];
            o.update(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }
}
