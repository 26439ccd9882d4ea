//! The unified partitioner interface.
//!
//! Every partitioning algorithm in this crate — the paper's Algorithm 1 and
//! the Table 3 baselines — is invocable through one trait:
//! `partition(graph, topology) → Partition`. Callers (the Table 3 runner,
//! the trainer's strategy layer, the CLI) dispatch through `&dyn
//! Partitioner` and never need algorithm-specific plumbing. The topology
//! is the only source of the communication weight matrix: Algorithm 1
//! derives it from the topology it partitions for
//! ([`Topology::weight_matrix`], or uniform weights when
//! [`HybridConfig::hierarchical`](crate::HybridConfig::hierarchical) is
//! off), and no config carries one.
//!
//! ```
//! use hetgmp_bigraph::Bigraph;
//! use hetgmp_cluster::Topology;
//! use hetgmp_partition::{HybridPartitioner, HybridConfig, Partitioner, RandomPartitioner};
//!
//! let g = Bigraph::from_samples(4, &[vec![0, 1], vec![2, 3]]);
//! let topo = Topology::nvlink_island(2);
//! let algos: Vec<Box<dyn Partitioner>> = vec![
//!     Box::new(RandomPartitioner::default()),
//!     Box::new(HybridPartitioner::new(HybridConfig::default())),
//! ];
//! for algo in &algos {
//!     let part = algo.partition(&g, &topo);
//!     assert_eq!(part.num_partitions(), topo.num_workers());
//! }
//! ```

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::Topology;

use crate::bicut::bicut_partition;
use crate::hybrid::HybridPartitioner;
use crate::random::random_partition;
use crate::types::Partition;

/// A bigraph partitioning algorithm.
///
/// Implementations must return a partition over exactly
/// `topo.num_workers()` parts covering every vertex of `g`. An algorithm
/// that weighs cut edges by link takes the weights from `topo`; nothing
/// else supplies them.
pub trait Partitioner {
    /// Human-readable algorithm name (Table 3 row label).
    fn name(&self) -> &str;

    /// Partitions `g` across the workers of `topo`.
    fn partition(&self, g: &Bigraph, topo: &Topology) -> Partition;
}

/// The paper's `Random` baseline: uniform assignment of samples and
/// embeddings.
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    /// Assignment seed.
    pub seed: u64,
}

impl Default for RandomPartitioner {
    fn default() -> Self {
        Self { seed: 0x9E7 }
    }
}

impl Partitioner for RandomPartitioner {
    fn name(&self) -> &str {
        "random"
    }

    fn partition(&self, g: &Bigraph, topo: &Topology) -> Partition {
        random_partition(g, topo.num_workers(), self.seed)
    }
}

/// The BiCut bipartite-graph baseline (Chen et al. 2015), Table 3's
/// strongest external competitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct BiCutPartitioner;

impl Partitioner for BiCutPartitioner {
    fn name(&self) -> &str {
        "bicut"
    }

    fn partition(&self, g: &Bigraph, topo: &Topology) -> Partition {
        bicut_partition(g, topo.num_workers())
    }
}

impl Partitioner for HybridPartitioner {
    fn name(&self) -> &str {
        "hybrid (Algorithm 1)"
    }

    /// Runs Algorithm 1 with the weight matrix `topo` implies.
    fn partition(&self, g: &Bigraph, topo: &Topology) -> Partition {
        self.partition_rounds(g, topo).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridConfig;
    use crate::vertexcut::ReplicationBudget;

    fn graph() -> Bigraph {
        let rows: Vec<Vec<u32>> = (0..40)
            .map(|i| vec![(i % 7) as u32, 7 + (i % 5) as u32])
            .collect();
        Bigraph::from_samples(12, &rows)
    }

    #[test]
    fn all_algorithms_dispatch_through_the_trait() {
        let g = graph();
        let topo = Topology::nvlink_island(4);
        let algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RandomPartitioner::default()),
            Box::new(BiCutPartitioner),
            Box::new(HybridPartitioner::new(HybridConfig::default())),
        ];
        for algo in &algos {
            let part = algo.partition(&g, &topo);
            assert_eq!(part.num_partitions(), 4, "{}", algo.name());
            assert!(part.validate(&g).is_ok(), "{}", algo.name());
        }
    }

    /// On a homogeneous island every link weighs the same, so the
    /// topology's matrix and the uniform one are the same bits: hierarchical
    /// and non-hierarchical runs agree, and the trait call is exactly
    /// `partition_rounds`, down to owners, primaries and replica masks.
    #[test]
    fn trait_hybrid_matches_inherent_with_weights() {
        let g = graph();
        let topo = Topology::nvlink_island(4);
        let run = |hierarchical: bool| {
            let cfg = HybridConfig {
                hierarchical,
                replication: Some(ReplicationBudget::PerPartitionSlots(2)),
                ..HybridConfig::default()
            };
            let p = HybridPartitioner::new(cfg);
            let via_trait = Partitioner::partition(&p, &g, &topo);
            let (direct, _) = p.partition_rounds(&g, &topo);
            assert_same(&g, &via_trait, &direct);
            direct
        };
        let hierarchical = run(true);
        assert!((0..g.num_embeddings() as u32).any(|e| hierarchical.replica_count(e) > 1));
        assert_same(&g, &hierarchical, &run(false));
    }

    fn assert_same(g: &Bigraph, a: &Partition, b: &Partition) {
        for s in 0..g.num_samples() as u32 {
            assert_eq!(a.sample_owner(s), b.sample_owner(s), "sample {s}");
        }
        for e in 0..g.num_embeddings() as u32 {
            assert_eq!(a.primary_of(e), b.primary_of(e), "primary of {e}");
            for k in 0..a.num_partitions() as u32 {
                assert_eq!(a.is_local(e, k), b.is_local(e, k), "replica of {e} on {k}");
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RandomPartitioner::default()),
            Box::new(BiCutPartitioner),
            Box::new(HybridPartitioner::new(HybridConfig::default())),
        ];
        let mut names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}
