#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-partition
//!
//! HET-GMP's hybrid graph partitioning (paper §5.2, Algorithm 1) plus the
//! baselines it is evaluated against (Table 3).
//!
//! Partitioning decides, for every sample vertex and every embedding vertex
//! of the bigraph, which worker owns it — and which hot embeddings get
//! *replicated* (vertex-cut) on additional workers. The goal is the paper's:
//! minimise remote embedding fetches per epoch while keeping samples,
//! embeddings and communication balanced across workers.
//!
//! Algorithms:
//! * [`random`] — uniform random assignment (the paper's `Random` baseline
//!   and the initialiser of Algorithm 1);
//! * [`onedee`] — **1D edge-cut**: iterative greedy sweeps assigning each
//!   vertex to the partition minimising the score
//!   `δg = δc − δb` (Eq. 2–5), with bandwidth-weighted edge-cuts for
//!   heterogeneous interconnects;
//! * [`vertexcut`] — **2D vertex-cut**: greedy replication of hot embeddings
//!   by the priority `δp(x, G_i) = count(x,i) / Σ_v count(v,i)` (Eq. 6)
//!   under a per-worker memory budget;
//! * [`hybrid`] — Algorithm 1: random init → `T` 1D rounds → 2D replication;
//! * [`bicut`] — the BiCut bipartite partitioner (Chen et al. 2015), the
//!   strongest external baseline in Table 3;
//! * [`cooccurrence`] — balanced clustering of the embedding co-occurrence
//!   graph (stand-in for METIS in the Figure 3 reproduction);
//! * [`metrics`] — remote-fetch counts, pairwise traffic matrices, balance
//!   and replication statistics used by Tables 3 and Figures 8–9.

pub mod bicut;
pub mod cooccurrence;
pub mod hybrid;
pub mod metrics;
pub mod onedee;
pub mod partitioner;
pub mod random;
#[cfg(test)]
mod reference;
pub mod types;
pub mod vertexcut;

pub use bicut::bicut_partition;
pub use cooccurrence::cluster_cooccurrence;
pub use hybrid::{migration_cost, HybridConfig, HybridPartitioner, RoundStats};
pub use metrics::PartitionMetrics;
pub use onedee::OneDeeConfig;
pub use partitioner::{BiCutPartitioner, Partitioner, RandomPartitioner};
pub use random::random_partition;
pub use types::Partition;
pub use vertexcut::{replicate_hot_embeddings, ReplicationBudget};
