//! In-memory CTR dataset, train/test split, and bigraph export.

use hetgmp_bigraph::Bigraph;

/// A materialised CTR dataset.
///
/// Samples are stored row-major: sample `i` occupies
/// `features[i*num_fields .. (i+1)*num_fields]`, each entry a **global**
/// feature id (embedding-table row). Labels are `0.0` / `1.0`.
#[derive(Debug, Clone)]
pub struct CtrDataset {
    /// Dataset name (propagated from the spec).
    pub name: String,
    /// Number of fields per sample.
    pub num_fields: usize,
    /// Total number of features (embedding rows).
    pub num_features: usize,
    /// Flattened `num_samples × num_fields` feature-id matrix.
    pub features: Vec<u32>,
    /// Click labels, one per sample.
    pub labels: Vec<f32>,
    /// Latent cluster of each sample (generator metadata; useful for
    /// verifying that partitioning recovers the planted structure).
    pub clusters: Vec<u16>,
}

impl CtrDataset {
    /// Number of samples.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.labels.len()
    }

    /// Feature ids of sample `i`.
    #[inline]
    pub fn sample(&self, i: usize) -> &[u32] {
        &self.features[i * self.num_fields..(i + 1) * self.num_fields]
    }

    /// Label of sample `i`.
    #[inline]
    pub fn label(&self, i: usize) -> f32 {
        self.labels[i]
    }

    /// Base click-through rate (mean label).
    pub fn ctr(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().map(|&l| l as f64).sum::<f64>() / self.labels.len() as f64
    }

    /// Exports the access pattern as a [`Bigraph`] (paper §5.1): one sample
    /// vertex per row, one embedding vertex per feature, an edge per lookup.
    pub fn to_bigraph(&self) -> Bigraph {
        let edges: Vec<(u32, u32)> = (0..self.num_samples())
            .flat_map(|i| self.sample(i).iter().map(move |&f| (i as u32, f)))
            .collect();
        Bigraph::from_edges(self.num_samples(), self.num_features, &edges)
    }

    /// Splits into train/test by holding out every `1/test_fraction`-th
    /// sample (deterministic, preserves cluster mixture).
    ///
    /// # Panics
    /// Panics unless `0.0 < test_fraction < 1.0`.
    pub fn split(&self, test_fraction: f64) -> TrainTestSplit {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0,1), got {test_fraction}"
        );
        let stride = (1.0 / test_fraction).round().max(2.0) as usize;
        let mut train = Vec::new();
        let mut test = Vec::new();
        for i in 0..self.num_samples() {
            if i % stride == stride - 1 {
                test.push(i as u32);
            } else {
                train.push(i as u32);
            }
        }
        TrainTestSplit { train, test }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.features.len() * 4 + self.labels.len() * 4 + self.clusters.len() * 2
    }
}

/// Train/test index lists produced by [`CtrDataset::split`].
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training-sample indices.
    pub train: Vec<u32>,
    /// Held-out test-sample indices.
    pub test: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CtrDataset {
        CtrDataset {
            name: "toy".into(),
            num_fields: 2,
            num_features: 6,
            features: vec![0, 3, 1, 4, 2, 5, 0, 4],
            labels: vec![1.0, 0.0, 1.0, 0.0],
            clusters: vec![0, 0, 1, 1],
        }
    }

    #[test]
    fn sample_access() {
        let d = toy();
        assert_eq!(d.num_samples(), 4);
        assert_eq!(d.sample(0), &[0, 3]);
        assert_eq!(d.sample(3), &[0, 4]);
        assert_eq!(d.label(2), 1.0);
        assert_eq!(d.ctr(), 0.5);
    }

    #[test]
    fn bigraph_export() {
        let d = toy();
        let g = d.to_bigraph();
        assert_eq!(g.num_samples(), 4);
        assert_eq!(g.num_embeddings(), 6);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.emb_frequency(0), 2);
        assert_eq!(g.emb_frequency(4), 2);
    }

    #[test]
    fn split_deterministic_disjoint() {
        let d = toy();
        let s = d.split(0.25);
        assert_eq!(s.train.len() + s.test.len(), 4);
        for t in &s.test {
            assert!(!s.train.contains(t));
        }
        let s2 = d.split(0.25);
        assert_eq!(s.train, s2.train);
    }

    #[test]
    #[should_panic(expected = "test_fraction")]
    fn split_rejects_bad_fraction() {
        toy().split(1.5);
    }
}
