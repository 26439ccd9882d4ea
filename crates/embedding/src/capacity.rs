//! Capacity planning: which embedding-model sizes fit a cluster?
//!
//! The paper's headline capacity claim (§7.4): *"Currently, with 24 GPUs
//! (32 GB), we support around 10¹¹ float parameters in the embedding
//! table."* This module reproduces that arithmetic as a first-class API —
//! given a worker count, per-worker memory and a replication budget, how
//! many rows/parameters fit, and does a given model fit?

/// Inputs to the capacity computation.
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// Number of workers (GPUs).
    pub num_workers: usize,
    /// Usable memory per worker, bytes (after reserving activations etc.).
    pub memory_per_worker: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Bytes per scalar parameter (4 for f32).
    pub bytes_per_param: u64,
    /// Fraction of rows replicated as secondaries (vertex-cut budget);
    /// secondaries also need stale-gradient buffers (2× the row).
    pub replication_fraction: f64,
    /// Optimizer state multiplier: 1.0 = none (SGD), 2.0 = Adagrad
    /// (one accumulator per weight).
    pub optimizer_state_factor: f64,
}

impl CapacityPlan {
    /// The paper's cluster-B setup: 24 × V100 32 GB, Adagrad-free SGD
    /// accounting, top-1% replication, dimension `dim`.
    pub fn paper_cluster_b(dim: usize) -> Self {
        Self {
            num_workers: 24,
            // 32 GB minus ~2 GB working space per GPU.
            memory_per_worker: 30 * (1 << 30),
            dim,
            bytes_per_param: 4,
            replication_fraction: 0.01,
            optimizer_state_factor: 1.0,
        }
    }

    /// Bytes needed by one primary row.
    fn primary_row_bytes(&self) -> f64 {
        self.dim as f64 * self.bytes_per_param as f64 * self.optimizer_state_factor
    }

    /// Bytes needed by one secondary row (value + stale-gradient buffer,
    /// per §6 "Secondary embeddings require extra space for stale
    /// gradients").
    fn secondary_row_bytes(&self) -> f64 {
        2.0 * self.dim as f64 * self.bytes_per_param as f64
    }

    /// Maximum number of embedding rows the cluster can hold.
    pub fn max_rows(&self) -> u64 {
        let total_memory = self.memory_per_worker as f64 * self.num_workers as f64;
        // rows × primary + rows × replication × workers-ish secondaries:
        // each replicated row has on average `replication_fraction ×
        // num_workers` secondaries spread over the cluster.
        let per_row = self.primary_row_bytes()
            + self.replication_fraction * self.num_workers as f64 * self.secondary_row_bytes();
        (total_memory / per_row) as u64
    }

    /// Maximum number of scalar embedding parameters (`rows × dim`).
    pub fn max_params(&self) -> u64 {
        self.max_rows() * self.dim as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_claim_reproduced() {
        // 24 × 30 GB at dim 128 with 1% replication and SGD-only state:
        // the paper claims ~10^11 parameters.
        let plan = CapacityPlan::paper_cluster_b(128);
        let params = plan.max_params();
        assert!(
            params > 5e10 as u64 && params < 3e11 as u64,
            "max params {params:.3e} not in the 10^11 ballpark"
        );
    }

    #[test]
    fn replication_costs_capacity() {
        let mut plan = CapacityPlan::paper_cluster_b(64);
        let without = {
            plan.replication_fraction = 0.0;
            plan.max_rows()
        };
        plan.replication_fraction = 0.05;
        let with = plan.max_rows();
        assert!(with < without);
    }

    #[test]
    fn adagrad_halves_capacity() {
        let mut plan = CapacityPlan::paper_cluster_b(64);
        plan.replication_fraction = 0.0;
        let sgd = plan.max_rows();
        plan.optimizer_state_factor = 2.0;
        let adagrad = plan.max_rows();
        assert!((sgd as f64 / adagrad as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn more_workers_more_capacity() {
        let mut plan = CapacityPlan::paper_cluster_b(64);
        plan.replication_fraction = 0.0;
        let at24 = plan.max_params();
        plan.num_workers = 8;
        let at8 = plan.max_params();
        assert!(at24 > 2 * at8);
    }
}
