//! Communication and computation cost model.
//!
//! Time in this simulation is *charged*, not measured: workers run real
//! training math, and each operation (embedding fetch, gradient write-back,
//! AllReduce round, forward/backward pass, host↔device copy) advances the
//! worker's [`crate::SimClock`] by the amount this model predicts. The model
//! is deliberately simple — α-β (latency + size/bandwidth) per message plus a
//! FLOP-rate compute term — because the paper's phenomena are bandwidth
//! phenomena.

use std::sync::Arc;

use crate::fault::{FaultSchedule, RetryPolicy};
use crate::topology::{LinkClass, Topology, WorkerId};

/// Compute-side constants for one simulated accelerator.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    /// Sustained FLOP/s for dense math (fp32). RTX TITAN ≈ 16 TFLOP/s,
    /// V100 ≈ 14 TFLOP/s fp32; we use a common 14e12 default.
    pub flops_per_second: f64,
    /// Fixed per-batch kernel-launch/framework overhead, seconds.
    pub per_batch_overhead: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self {
            flops_per_second: 14e12,
            per_batch_overhead: 30e-6,
        }
    }
}

impl ComputeModel {
    /// Time to execute `flops` floating point operations.
    #[inline]
    pub fn compute_time(&self, flops: f64) -> f64 {
        self.per_batch_overhead + flops / self.flops_per_second
    }
}

/// Full cost model: a [`Topology`] plus a [`ComputeModel`].
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The interconnect.
    pub topology: Topology,
    /// The accelerator compute model.
    pub compute: ComputeModel,
    /// Injected link faults, consulted by the `*_at` variants. `None`
    /// means every link is permanently healthy.
    faults: Option<Arc<FaultSchedule>>,
}

impl CostModel {
    /// Creates a cost model with default compute constants.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            compute: ComputeModel::default(),
            faults: None,
        }
    }

    /// Attaches a fault schedule: the time-aware transfer methods
    /// ([`CostModel::transfer_time_at`], [`CostModel::allreduce_time_at`])
    /// then honour link degradations and partitions active at the queried
    /// simulated instant.
    pub fn with_faults(mut self, faults: Arc<FaultSchedule>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// α-β time for one message of `bytes` from `src` to `dst`.
    pub fn transfer_time(&self, src: WorkerId, dst: WorkerId, bytes: u64) -> f64 {
        let link = self.topology.link(src, dst);
        link.latency() + bytes as f64 / link.bandwidth()
    }

    /// [`CostModel::transfer_time`] evaluated at simulated instant `now`,
    /// honouring any attached [`FaultSchedule`]. A degraded link multiplies
    /// the healthy α-β time; a partitioned link first costs a bounded
    /// exponential-backoff retry wait ([`RetryPolicy`]) until the partition
    /// heals, then the transfer at whatever slowdown is active at that
    /// point. Without a schedule this is exactly `transfer_time`.
    pub fn transfer_time_at(&self, src: WorkerId, dst: WorkerId, bytes: u64, now: f64) -> f64 {
        let base = self.transfer_time(src, dst, bytes);
        let Some(f) = &self.faults else { return base };
        if src == dst {
            return base;
        }
        if let Some(heal) = f.partition_heal_time(src, dst, now) {
            let policy = RetryPolicy::with_base(self.topology.link(src, dst).latency());
            let wait = policy.wait_for_heal(heal - now);
            return wait + f.degrade_factor(src, dst, now + wait) * base;
        }
        f.degrade_factor(src, dst, now) * base
    }

    /// Time for a message over an explicit link class (e.g. the CPU
    /// parameter-server host link used by the TF-PS / Parallax baselines).
    pub fn link_transfer_time(&self, link: LinkClass, bytes: u64) -> f64 {
        link.latency() + bytes as f64 / link.bandwidth()
    }

    /// AllReduce time for `bytes` of dense parameters across all workers:
    /// bandwidth term from the ring bound (`2·(N−1)/N · bytes` over the
    /// bottleneck link) plus a tree-depth latency term (`2·⌈log₂N⌉·α`) —
    /// NCCL pipelines ring chunks and switches to tree algorithms for
    /// latency-bound sizes, so charging the full `2(N−1)·α` serial-ring
    /// latency would be far too pessimistic.
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        let n = self.topology.num_workers();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.topology.bottleneck_bandwidth();
        let bw_term = 2.0 * (n as f64 - 1.0) / n as f64 * bytes as f64 / bw;
        let depth = (n as f64).log2().ceil();
        let lat_term = 2.0 * depth * self.worst_latency();
        bw_term + lat_term
    }

    /// [`CostModel::allreduce_time`] evaluated at simulated instant `now`.
    /// The ring spans every link, so the collective runs at the worst
    /// active slowdown across worker pairs, and a partition anywhere stalls
    /// the whole ring until its heal (every worker blocks in a collective).
    pub fn allreduce_time_at(&self, bytes: u64, now: f64) -> f64 {
        let base = self.allreduce_time(bytes);
        let Some(f) = &self.faults else { return base };
        let n = self.topology.num_workers();
        let mut wait: f64 = 0.0;
        let mut factor: f64 = 1.0;
        for a in 0..n {
            for b in a + 1..n {
                if let Some(heal) = f.partition_heal_time(a, b, now) {
                    wait = wait.max(heal - now);
                }
            }
        }
        let resume = now + wait;
        for a in 0..n {
            for b in a + 1..n {
                factor = factor.max(f.degrade_factor(a, b, resume));
            }
        }
        wait + factor * base
    }

    /// AllGather time for `bytes` contributed per worker: `(N−1)` steps each
    /// moving `bytes` over the bottleneck link. Sparse AllReduce degenerates
    /// to this primitive (paper §3, "degenerates to inefficient AllGather").
    pub fn allgather_time(&self, bytes_per_worker: u64) -> f64 {
        let n = self.topology.num_workers();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.topology.bottleneck_bandwidth();
        let steps = n - 1;
        steps as f64 * (self.worst_latency() + bytes_per_worker as f64 / bw)
    }

    fn worst_latency(&self) -> f64 {
        let n = self.topology.num_workers();
        let mut worst: f64 = 0.0;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    worst = worst.max(self.topology.link(a, b).latency());
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn compute_time_scales_with_flops() {
        let c = ComputeModel::default();
        let t1 = c.compute_time(1e9);
        let t2 = c.compute_time(2e9);
        assert!(t2 > t1);
        assert!(t1 > c.per_batch_overhead);
    }

    #[test]
    fn transfer_time_depends_on_link() {
        let m = CostModel::new(Topology::cluster_b_scaled(16));
        let nvlink = m.transfer_time(0, 1, 1 << 20);
        let qpi = m.transfer_time(0, 4, 1 << 20);
        let eth = m.transfer_time(0, 8, 1 << 20);
        assert!(nvlink < qpi && qpi < eth);
        // Local transfer is effectively free but not negative.
        let local = m.transfer_time(3, 3, 1 << 20);
        assert!(local >= 0.0 && local < nvlink);
    }

    #[test]
    fn allreduce_zero_for_single_worker() {
        let m = CostModel::new(Topology::cluster_b_scaled(1));
        assert_eq!(m.allreduce_time(1 << 30), 0.0);
        assert_eq!(m.allgather_time(1 << 30), 0.0);
    }

    #[test]
    fn allreduce_bottlenecked_by_slowest_link() {
        let fast = CostModel::new(Topology::nvlink_island(8));
        let slow = CostModel::new(Topology::cluster_b_scaled(16));
        let bytes = 64 << 20;
        assert!(slow.allreduce_time(bytes) > fast.allreduce_time(bytes));
    }

    #[test]
    fn allgather_more_expensive_than_allreduce_for_same_payload() {
        // AllGather moves the full per-worker payload each step; ring
        // AllReduce moves 1/N per step. For N ≥ 3 and sizeable payloads,
        // AllGather of B/worker costs more than AllReduce of B total.
        let m = CostModel::new(Topology::pcie_island(8));
        let bytes = 32 << 20;
        assert!(m.allgather_time(bytes) > m.allreduce_time(bytes));
    }

    #[test]
    fn allreduce_scales_sublinearly_with_workers() {
        // Ring AllReduce total time approaches 2·B/bw regardless of N.
        let m4 = CostModel::new(Topology::pcie_island(4));
        let m8 = CostModel::new(Topology::pcie_island(8));
        let bytes = 256 << 20;
        let t4 = m4.allreduce_time(bytes);
        let t8 = m8.allreduce_time(bytes);
        assert!((t8 - t4).abs() / t4 < 0.35, "t4={t4} t8={t8}");
    }

    #[test]
    fn host_link_transfer() {
        let m = CostModel::new(Topology::pcie_island(4));
        let t = m.link_transfer_time(LinkClass::HostPcie, 1 << 20);
        assert!(t > 0.0);
    }

    #[test]
    fn faultless_at_variants_match_base() {
        let m = CostModel::new(Topology::pcie_island(4));
        assert_eq!(m.transfer_time_at(0, 1, 1 << 20, 5.0), m.transfer_time(0, 1, 1 << 20));
        assert_eq!(m.allreduce_time_at(1 << 20, 5.0), m.allreduce_time(1 << 20));
    }

    #[test]
    fn degraded_link_slows_transfers_only_in_window() {
        let f = FaultSchedule::parse("degrade@0-1:1.0:1.0:8", 4, 0).unwrap();
        let m = CostModel::new(Topology::pcie_island(4)).with_faults(Arc::new(f));
        let healthy = m.transfer_time(0, 1, 1 << 20);
        assert_eq!(m.transfer_time_at(0, 1, 1 << 20, 0.5), healthy);
        assert_eq!(m.transfer_time_at(0, 1, 1 << 20, 1.5), 8.0 * healthy);
        assert_eq!(m.transfer_time_at(0, 1, 1 << 20, 2.5), healthy);
        // Other pairs unaffected.
        assert_eq!(m.transfer_time_at(2, 3, 1 << 20, 1.5), m.transfer_time(2, 3, 1 << 20));
        // The collective sees the worst pair.
        assert!(m.allreduce_time_at(1 << 20, 1.5) > m.allreduce_time(1 << 20));
    }

    #[test]
    fn partitioned_link_charges_backoff_until_heal() {
        let f = FaultSchedule::parse("partition@0-1:0.0:0.5", 4, 0).unwrap();
        let m = CostModel::new(Topology::pcie_island(4)).with_faults(Arc::new(f));
        let healthy = m.transfer_time(0, 1, 1 << 20);
        let t = m.transfer_time_at(0, 1, 1 << 20, 0.1);
        // Must at least wait out the 0.4 s of remaining outage, then pay the
        // healthy transfer.
        assert!(t >= 0.4 + healthy, "t = {t}");
        // After the heal the link is healthy again.
        assert_eq!(m.transfer_time_at(0, 1, 1 << 20, 0.6), healthy);
        // An allreduce during the outage parks the whole ring.
        assert!(m.allreduce_time_at(1 << 20, 0.1) >= 0.4);
    }
}
