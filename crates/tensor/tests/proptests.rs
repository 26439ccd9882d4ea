//! Property tests for the tensor substrate.

use hetgmp_tensor::{auc, bce_with_logits_into, Matrix, Mlp};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    a.matmul_into(b, &mut out);
    out
}

proptest! {
    #[test]
    fn matmul_identity(a in matrix(4, 4)) {
        let mut eye = Matrix::zeros(4, 4);
        for i in 0..4 {
            eye.set(i, i, 1.0);
        }
        let out = matmul(&a, &eye);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        // a·(b + c) == a·b + a·c
        let mut bc = b.clone();
        for (x, y) in bc.data_mut().iter_mut().zip(c.data()) {
            *x += y;
        }
        let lhs = matmul(&a, &bc);
        let ab = matmul(&a, &b);
        let ac = matmul(&a, &c);
        for i in 0..lhs.data().len() {
            let rhs = ab.data()[i] + ac.data()[i];
            prop_assert!((lhs.data()[i] - rhs).abs() < 1e-3,
                "{} vs {}", lhs.data()[i], rhs);
        }
    }

    #[test]
    fn transpose_variants_consistent(a in matrix(3, 5), b in matrix(3, 4)) {
        // aᵀ·b  computed directly == explicit transpose then matmul.
        let mut t = Matrix::zeros(0, 0);
        a.t_matmul_into(&b, &mut t);
        // Build aᵀ explicitly.
        let mut at = Matrix::zeros(5, 3);
        for r in 0..3 {
            for c in 0..5 {
                at.set(c, r, a.get(r, c));
            }
        }
        let expected = matmul(&at, &b);
        for (x, y) in t.data().iter().zip(expected.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn auc_invariant_under_monotone_transform(
        scores in prop::collection::vec(-10.0f32..10.0, 4..60),
        labels_bits in prop::collection::vec(prop::bool::ANY, 4..60),
    ) {
        let n = scores.len().min(labels_bits.len());
        let scores = &scores[..n];
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let base = auc(scores, &labels);
        // Strictly increasing transform (sigmoid-ish) must preserve AUC.
        let transformed: Vec<f32> = scores.iter().map(|&s| 1.0 / (1.0 + (-0.5 * s).exp())).collect();
        let t = auc(&transformed, &labels);
        prop_assert!((base - t).abs() < 1e-9, "{base} vs {t}");
        prop_assert!((0.0..=1.0).contains(&base));
    }

    #[test]
    fn auc_complement_symmetry(
        scores in prop::collection::vec(-5.0f32..5.0, 4..40),
        labels_bits in prop::collection::vec(prop::bool::ANY, 4..40),
    ) {
        // Flipping labels and negating scores preserves AUC.
        let n = scores.len().min(labels_bits.len());
        let scores = &scores[..n];
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let flipped_labels: Vec<f32> = labels.iter().map(|&l| 1.0 - l).collect();
        let negated: Vec<f32> = scores.iter().map(|&s| -s).collect();
        let a1 = auc(scores, &labels);
        let a2 = auc(&negated, &flipped_labels);
        prop_assert!((a1 - a2).abs() < 1e-9, "{a1} vs {a2}");
    }

    #[test]
    fn bce_gradient_sign_matches_error(z in -8.0f32..8.0, y in prop::bool::ANY) {
        let label = if y { 1.0f32 } else { 0.0 };
        let logits = Matrix::from_vec(1, 1, vec![z]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = bce_with_logits_into(&logits, &[label], &mut grad);
        prop_assert!(loss >= 0.0);
        let p = 1.0 / (1.0 + (-z).exp());
        // grad sign equals sign of (p − y).
        prop_assert!((grad.get(0, 0) - (p - label)).abs() < 1e-5);
    }

    #[test]
    fn blocked_gemm_matches_naive_reference(a in matrix(5, 11), b in matrix(11, 9)) {
        // The blocked engine vs the pre-blocking naive kernel, on a shape
        // with both row and column tail loops in play.
        let blocked = matmul(&a, &b);
        let naive = a.matmul_ref(&b);
        for (x, y) in blocked.data().iter().zip(naive.data()) {
            let tol = 1e-5 * y.abs().max(1.0);
            prop_assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_bias_relu_equals_unfused_composition(
        a in matrix(6, 10),
        b in matrix(10, 7),
        bias in prop::collection::vec(-2.0f32..2.0, 7),
    ) {
        // matmul_bias_relu must be bit-for-bit the clamp of matmul_bias:
        // the fused kernel seeds the accumulator with the bias and clamps in
        // the write phase, so the pre-clamp value goes through the exact
        // same f32 operation sequence as the bias-only kernel.
        let mut with_bias = Matrix::zeros(0, 0);
        a.matmul_bias_into(&b, &bias, &mut with_bias);
        let mut fused = Matrix::zeros(0, 0);
        a.matmul_bias_relu_into(&b, &bias, &mut fused);
        for (f, u) in fused.data().iter().zip(with_bias.data()) {
            prop_assert_eq!(f.to_bits(), u.max(0.0).to_bits(), "{} vs {}", f, u);
        }
    }

    #[test]
    fn mlp_param_roundtrip(seed in 0u64..1000) {
        let mut mlp = Mlp::new(6, &[10, 4], seed);
        let flat = mlp.flatten_params();
        let mut other = Mlp::new(6, &[10, 4], seed.wrapping_add(1));
        other.load_params(&flat);
        prop_assert_eq!(other.flatten_params(), flat);
    }
}
