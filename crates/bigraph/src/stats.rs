//! Access-pattern statistics over the bigraph (paper §4).
//!
//! These quantify the two properties HET-GMP exploits:
//! * **skewness** — the embedding degree distribution is power-law-like; we
//!   report a Gini coefficient, the top-k% mass, and a log-log slope fit;
//! * **locality** — most of an embedding's accesses come from a small set of
//!   samples; together with co-occurrence clustering this drives partitioning.

use crate::bigraph::Bigraph;

/// Summary of a degree (access-frequency) distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices measured.
    pub count: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Gini coefficient of the degree distribution in `[0, 1]`;
    /// 0 = perfectly even, →1 = extremely skewed.
    pub gini: f64,
    /// Fraction of total accesses captured by the hottest 1% of vertices.
    pub top1pct_mass: f64,
    /// Fraction of total accesses captured by the hottest 10% of vertices.
    pub top10pct_mass: f64,
    /// Estimated power-law exponent from a least-squares fit of
    /// `log(degree) ~ log(rank)`; `None` when there are too few distinct
    /// positive degrees to fit.
    pub powerlaw_alpha: Option<f64>,
}

impl DegreeStats {
    /// Computes stats from a list of degrees.
    pub fn from_degrees(degrees: &[usize]) -> Self {
        let count = degrees.len();
        if count == 0 {
            return Self {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                gini: 0.0,
                top1pct_mass: 0.0,
                top10pct_mass: 0.0,
                powerlaw_alpha: None,
            };
        }
        let mut sorted = degrees.to_vec();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().map(|&d| d as u64).sum();
        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        let mean = total as f64 / count as f64;

        // Gini via the sorted formula: G = (2 Σ i·x_i)/(n Σ x_i) − (n+1)/n.
        let gini = if total == 0 {
            0.0
        } else {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
                .sum();
            (2.0 * weighted) / (count as f64 * total as f64) - (count as f64 + 1.0) / count as f64
        };

        let top_mass = |fraction: f64| -> f64 {
            if total == 0 {
                return 0.0;
            }
            let k = ((count as f64 * fraction).ceil() as usize).max(1);
            let hot: u64 = sorted.iter().rev().take(k).map(|&d| d as u64).sum();
            hot as f64 / total as f64
        };

        // Power-law exponent: fit log(degree) = c − α·log(rank) over the
        // positive-degree vertices ranked hottest-first.
        let positive: Vec<f64> = sorted
            .iter()
            .rev()
            .filter(|&&d| d > 0)
            .map(|&d| d as f64)
            .collect();
        let powerlaw_alpha = if positive.len() >= 10 {
            let xs: Vec<f64> = (1..=positive.len()).map(|r| (r as f64).ln()).collect();
            let ys: Vec<f64> = positive.iter().map(|d| d.ln()).collect();
            let n = xs.len() as f64;
            let sx: f64 = xs.iter().sum();
            let sy: f64 = ys.iter().sum();
            let sxx: f64 = xs.iter().map(|x| x * x).sum();
            let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
            let denom = n * sxx - sx * sx;
            if denom.abs() < f64::EPSILON {
                None
            } else {
                let slope = (n * sxy - sx * sy) / denom;
                Some(-slope)
            }
        } else {
            None
        };

        Self {
            count,
            min,
            max,
            mean,
            gini,
            top1pct_mass: top_mass(0.01),
            top10pct_mass: top_mass(0.10),
            powerlaw_alpha,
        }
    }

    /// Stats of the embedding (access-frequency) side of a bigraph.
    pub fn embeddings(g: &Bigraph) -> Self {
        let degrees: Vec<usize> = (0..g.num_embeddings() as u32)
            .map(|e| g.emb_frequency(e))
            .collect();
        Self::from_degrees(&degrees)
    }

    /// Stats of the sample side of a bigraph.
    pub fn samples(g: &Bigraph) -> Self {
        let degrees: Vec<usize> = (0..g.num_samples() as u32)
            .map(|s| g.sample_degree(s))
            .collect();
        Self::from_degrees(&degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_degrees() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.gini, 0.0);
        assert!(s.powerlaw_alpha.is_none());
    }

    #[test]
    fn uniform_degrees_gini_zero() {
        let s = DegreeStats::from_degrees(&[5; 100]);
        assert!(s.gini.abs() < 1e-9, "gini = {}", s.gini);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Flat distribution: fitted slope ≈ 0 → alpha ≈ 0.
        assert!(s.powerlaw_alpha.expect("enough points").abs() < 1e-9);
    }

    #[test]
    fn skewed_degrees_high_gini() {
        let mut degrees = vec![1usize; 99];
        degrees.push(10_000);
        let s = DegreeStats::from_degrees(&degrees);
        assert!(s.gini > 0.9, "gini = {}", s.gini);
        assert!(s.top1pct_mass > 0.9);
    }

    #[test]
    fn powerlaw_alpha_recovered() {
        // degrees ∝ rank^{-1.0}
        let degrees: Vec<usize> = (1..=1000).map(|r| (100_000 / r) as usize).collect();
        let s = DegreeStats::from_degrees(&degrees);
        let alpha = s.powerlaw_alpha.expect("fit");
        assert!((alpha - 1.0).abs() < 0.05, "alpha = {alpha}");
    }

    #[test]
    fn top_mass_monotone() {
        let degrees: Vec<usize> = (1..=500).collect();
        let s = DegreeStats::from_degrees(&degrees);
        assert!(s.top10pct_mass >= s.top1pct_mass);
        assert!(s.top10pct_mass <= 1.0);
    }

    #[test]
    fn bigraph_stats() {
        let g = Bigraph::from_samples(4, &[vec![0, 1], vec![0, 2], vec![0, 3]]);
        let e = DegreeStats::embeddings(&g);
        assert_eq!(e.count, 4);
        assert_eq!(e.max, 3); // embedding 0
        let s = DegreeStats::samples(&g);
        assert_eq!(s.mean, 2.0);
    }
}
