//! Zipf-distributed sampling over ranked items.
//!
//! `P(rank = k) ∝ 1 / k^s` for `k ∈ 1..=n`. Implemented with a precomputed
//! cumulative table and binary search: O(n) setup, O(log n) per sample,
//! exact distribution. Our per-field vocabularies are at most a few hundred
//! thousand entries, so the table is cheap; the same sampler is reused across
//! all draws from a field.

use rand::Rng;

/// A Zipf sampler over `0..n` (returns zero-based item indices; item 0 is the
/// most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` items with exponent `s ≥ 0`.
    ///
    /// `s = 0` is the uniform distribution; larger `s` is more skewed
    /// (CTR feature popularity is typically `s ≈ 1`).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s >= 0.0 && s.is_finite(), "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the tail.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false — the constructor rejects `n == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one item index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of item `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_probabilities() {
        let z = Zipf::new(100, 1.2);
        for k in 1..100 {
            assert!(z.pmf(k - 1) >= z.pmf(k));
        }
        assert!(z.pmf(0) > 0.1);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 0.9);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_within_range_and_skewed() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!(k < 50);
            counts[k] += 1;
        }
        // Rank-0 item should dominate rank-25 item heavily.
        assert!(
            counts[0] > counts[25] * 5,
            "{} vs {}",
            counts[0],
            counts[25]
        );
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let expected = z.pmf(k);
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "k={k} observed={observed} expected={expected}"
            );
        }
    }

    #[test]
    fn single_item() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.pmf(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zero_items_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid Zipf exponent")]
    fn negative_exponent_panics() {
        Zipf::new(5, -1.0);
    }
}
