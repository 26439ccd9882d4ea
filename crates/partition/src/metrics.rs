//! Partition quality metrics — the quantities Tables 3 and Figures 8/9
//! report.

use hetgmp_bigraph::Bigraph;

use crate::types::Partition;

/// Quality metrics of a partition relative to a bigraph.
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    /// Remote embedding fetches per epoch: for each sample on worker `k`,
    /// each accessed embedding with **no replica on `k`** counts one fetch.
    /// This is Table 3's "Communication" column.
    pub remote_fetches: u64,
    /// Total embedding accesses per epoch (`|E|`).
    pub total_accesses: u64,
    /// `fetch_matrix[k][p]` = embeddings fetched by worker `k` from worker
    /// `p` per epoch (Figure 9(b)'s heatmap).
    pub fetch_matrix: Vec<Vec<u64>>,
    /// Samples per partition.
    pub samples_per_partition: Vec<usize>,
    /// Primary embeddings per partition.
    pub primaries_per_partition: Vec<usize>,
    /// Replica slots (primary + secondary) per partition.
    pub replicas_per_partition: Vec<usize>,
    /// Mean replicas per embedding.
    pub replication_factor: f64,
}

impl PartitionMetrics {
    /// Computes all metrics in one pass over the edges. Every edge adds 0
    /// or 1 to its (worker, primary) counter, with no branch on locality: on
    /// a random partition that branch goes either way about half the time.
    pub fn compute(g: &Bigraph, part: &Partition) -> Self {
        let n = part.num_partitions();
        let mut counts = vec![0u64; n * n];
        for s in 0..g.num_samples() as u32 {
            let k = part.sample_owner(s);
            let row = &mut counts[k as usize * n..(k as usize + 1) * n];
            for &x in g.embeddings_of(s) {
                row[part.primary_of(x) as usize] += u64::from(!part.is_local(x, k));
            }
        }
        let remote = counts.iter().sum();
        let fetch_matrix = counts.chunks_exact(n).map(<[u64]>::to_vec).collect();
        Self {
            remote_fetches: remote,
            total_accesses: g.num_edges() as u64,
            fetch_matrix,
            samples_per_partition: part.samples_per_partition(),
            primaries_per_partition: part.primaries_per_partition(),
            replicas_per_partition: part.replicas_per_partition(),
            replication_factor: part.replication_factor(),
        }
    }

    /// Fraction of accesses that are remote.
    pub fn remote_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        self.remote_fetches as f64 / self.total_accesses as f64
    }

    /// Communication reduction relative to a baseline metric (Table 3's
    /// "Reduction" column): `1 − self/baseline`.
    pub fn reduction_vs(&self, baseline: &PartitionMetrics) -> f64 {
        if baseline.remote_fetches == 0 {
            return 0.0;
        }
        1.0 - self.remote_fetches as f64 / baseline.remote_fetches as f64
    }

    /// Load-imbalance ratio of samples: `max/mean` (1.0 = perfect).
    pub fn sample_imbalance(&self) -> f64 {
        imbalance(&self.samples_per_partition)
    }

    /// Cross-machine fetch count given each worker's machine index
    /// (hierarchical-partitioning analysis of Figure 9).
    pub fn cross_machine_fetches(&self, machine_of: &[usize]) -> u64 {
        let n = self.fetch_matrix.len();
        assert_eq!(machine_of.len(), n, "machine map length mismatch");
        let mut total = 0u64;
        for k in 0..n {
            for p in 0..n {
                if machine_of[k] != machine_of[p] {
                    total += self.fetch_matrix[k][p];
                }
            }
        }
        total
    }
}

fn imbalance(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let max = *counts.iter().max().expect("non-empty") as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Bigraph {
        // 4 samples, 4 embeddings; samples 0,1 use embs {0,1}; 2,3 use {2,3}.
        Bigraph::from_samples(4, &[vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3]])
    }

    #[test]
    fn perfect_partition_no_remote() {
        let g = graph();
        let p = Partition::new(2, vec![0, 0, 1, 1], vec![0, 0, 1, 1]);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.remote_fetches, 0);
        assert_eq!(m.remote_fraction(), 0.0);
        assert_eq!(m.total_accesses, 8);
    }

    #[test]
    fn crossed_partition_all_remote() {
        let g = graph();
        let p = Partition::new(2, vec![0, 0, 1, 1], vec![1, 1, 0, 0]);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.remote_fetches, 8);
        assert_eq!(m.remote_fraction(), 1.0);
        assert_eq!(m.fetch_matrix[0][1], 4);
        assert_eq!(m.fetch_matrix[1][0], 4);
    }

    #[test]
    fn replicas_make_accesses_local() {
        let g = graph();
        let mut p = Partition::new(2, vec![0, 0, 1, 1], vec![1, 1, 0, 0]);
        p.add_replica(0, 0);
        p.add_replica(1, 0);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.remote_fetches, 4); // partition 1's fetches remain
        assert!((m.replication_factor - 1.5).abs() < 1e-12);
        assert_eq!(m.replicas_per_partition, vec![4, 2]);
    }

    #[test]
    fn reduction_vs_baseline() {
        let g = graph();
        let bad =
            PartitionMetrics::compute(&g, &Partition::new(2, vec![0, 0, 1, 1], vec![1, 1, 0, 0]));
        let good =
            PartitionMetrics::compute(&g, &Partition::new(2, vec![0, 0, 1, 1], vec![0, 0, 1, 1]));
        assert!((good.reduction_vs(&bad) - 1.0).abs() < 1e-12);
        assert_eq!(bad.reduction_vs(&bad), 0.0);
    }

    #[test]
    fn imbalance_ratio() {
        let g = graph();
        let p = Partition::new(2, vec![0, 0, 0, 1], vec![0, 1, 0, 1]);
        let m = PartitionMetrics::compute(&g, &p);
        assert!((m.sample_imbalance() - 1.5).abs() < 1e-12); // 3 vs mean 2
    }

    #[test]
    fn cross_machine_counting() {
        let g = graph();
        let p = Partition::new(2, vec![0, 0, 1, 1], vec![1, 1, 0, 0]);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.cross_machine_fetches(&[0, 0]), 0);
        assert_eq!(m.cross_machine_fetches(&[0, 1]), 8);
    }
}
