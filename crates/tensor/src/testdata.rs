//! Deterministic inputs and comparisons shared by the crate's bit-exactness
//! tests.

use crate::matrix::Matrix;

/// `len` values in `[-0.5, 0.5)` from a fixed LCG.
pub(crate) fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5
        })
        .collect()
}

/// Values that make signed zeros matter: a third exact zeros of either
/// sign (so products, partial sums and whole sums come out `-0.0`), the
/// rest random with a few exact ±1.
pub(crate) fn fill_zeroish(len: usize, seed: u64) -> Vec<f32> {
    fill(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match (v.to_bits() >> 5) % 6 {
            0 => 0.0,
            1 => -0.0,
            _ if i % 7 == 0 => v.signum(),
            _ => v,
        })
        .collect()
}

pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A buffer no kernel may rely on: all NaN, so an element a kernel fails to
/// write — or reads as a seed — shows. Callers give it the wrong shape too.
pub(crate) fn poisoned(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, vec![f32::NAN; rows * cols])
}
