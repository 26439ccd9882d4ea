//! Binary cross-entropy with logits.

use crate::matrix::Matrix;

/// Numerically-stable BCE-with-logits: writes `dL/dlogits` into a
/// caller-owned `grad` matrix (resized via [`Matrix::reset`], reusing its
/// allocation) and returns the mean loss. The gradient is already divided
/// by the batch size (so optimizers see the mean-loss gradient).
///
/// Stable form: `max(z,0) − z·y + ln(1 + e^{−|z|})`; gradient `σ(z) − y`.
///
/// # Panics
/// Panics if `logits` is not a single-column matrix matching `labels`.
pub fn bce_with_logits_into(logits: &Matrix, labels: &[f32], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.cols(), 1, "logits must be a column");
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    let n = labels.len().max(1) as f32;
    grad.reset(logits.rows(), 1);
    let mut loss = 0.0f32;
    for (i, (&z, &y)) in logits.data().iter().zip(labels).enumerate() {
        loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        let sig = 1.0 / (1.0 + (-z).exp());
        grad.data_mut()[i] = (sig - y) / n;
    }
    loss / n
}

/// The logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_logit_loss_is_ln2() {
        let logits = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = bce_with_logits_into(&logits, &[0.0, 1.0], &mut grad);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
        // grad = (σ(0) − y)/n = (0.5 − y)/2
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((grad.get(1, 0) + 0.25).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_low_loss() {
        let logits = Matrix::from_vec(2, 1, vec![10.0, -10.0]);
        let loss = bce_with_logits_into(&logits, &[1.0, 0.0], &mut Matrix::zeros(0, 0));
        assert!(loss < 1e-3);
    }

    #[test]
    fn confident_wrong_high_loss() {
        let logits = Matrix::from_vec(1, 1, vec![10.0]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = bce_with_logits_into(&logits, &[0.0], &mut grad);
        assert!(loss > 9.0);
        assert!(grad.get(0, 0) > 0.99);
    }

    #[test]
    fn stable_for_large_magnitude() {
        let logits = Matrix::from_vec(2, 1, vec![500.0, -500.0]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = bce_with_logits_into(&logits, &[1.0, 0.0], &mut grad);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Logits of both signs against both labels; the gradient is the
        // mean loss's.
        let (z, y) = ([0.7f32, -1.3, 2.5, -0.2], [1.0f32, 0.0, 0.0, 1.0]);
        let logits = |z: &[f32]| Matrix::from_vec(4, 1, z.to_vec());
        let mut g = Matrix::zeros(0, 0);
        bce_with_logits_into(&logits(&z), &y, &mut g);
        let mut scratch = Matrix::zeros(0, 0);
        let loss = |p: &[f32]| bce_with_logits_into(&logits(p), &y, &mut scratch) as f64;
        crate::gradcheck::gradcheck(loss, &z, g.data(), 1e-2, 1e-4, 1e-3);
    }

    #[test]
    fn sigmoid_basic() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
