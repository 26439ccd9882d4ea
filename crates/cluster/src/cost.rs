//! Communication and computation cost model.
//!
//! Time in this simulation is *charged*, not measured: workers run real
//! training math, and each operation (embedding fetch, gradient write-back,
//! AllReduce round, forward/backward pass, host↔device copy) advances the
//! worker's [`crate::SimClock`] by the amount this model predicts. The model
//! is deliberately simple — α-β (latency + size/bandwidth) per message plus a
//! FLOP-rate compute term — because the paper's phenomena are bandwidth
//! phenomena.
//!
//! ## Grouped issue
//!
//! A worker issues one phase's point-to-point transfers together, as grouped
//! `ncclSend`/`ncclRecv` calls do ([`CostModel::group_schedule_at`]). Each
//! transfer occupies one link resource of the issuing worker:
//!
//! | link class | resource |
//! |---|---|
//! | NVLink | the link to that peer (one per peer pair) |
//! | PCIe | the worker's PCIe port |
//! | QPI | the worker's socket uplink |
//! | Ethernet | the worker's machine NIC |
//! | local | none: free |
//!
//! Transfers on one resource queue behind each other: the resource pays the
//! largest latency among them once, plus every transfer's bytes over its
//! bandwidth. Distinct resources run side by side, so the group takes as
//! long as its busiest resource. Faults scale each transfer's own terms as
//! [`CostModel::transfer_time_at`] does, so a group of one transfer costs
//! exactly what that method returns.

use std::sync::Arc;

use crate::fault::{FaultSchedule, RetryPolicy};
use crate::topology::{LinkClass, Topology, WorkerId};

/// One point-to-point transfer of a grouped issue: `bytes` between the
/// issuing worker and `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The worker at the other end.
    pub peer: WorkerId,
    /// Payload bytes.
    pub bytes: u64,
}

/// Where one transfer sits in its group's schedule, in seconds from the
/// group's issue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slot {
    /// When the transfer starts occupying its resource.
    pub start: f64,
    /// How long it occupies it (the resource's latency is carried by the
    /// transfer that pays it).
    pub secs: f64,
}

/// The time one group kept one link resource busy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBusy {
    /// The resource's link class.
    pub class: LinkClass,
    /// The one latency the resource paid: the largest fault-scaled α among
    /// its transfers, plus any partition wait that came with it.
    pub latency: f64,
    /// Σ fault-scaled bytes/β over its transfers.
    pub bandwidth: f64,
    /// Transfers queued on it.
    pub transfers: u64,
}

/// A grouped issue, scheduled: see the module docs for the rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSchedule {
    /// The group's time: its busiest resource's.
    pub secs: f64,
    /// One slot per transfer, in the order the transfers were given.
    pub slots: Vec<Slot>,
    /// One entry per resource used, in order of first use.
    pub busy: Vec<LinkBusy>,
}

/// A link resource of the issuing worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resource {
    /// NVLink: one link per peer pair.
    Peer(WorkerId),
    /// Everything else is one port per class: the PCIe port, the socket's
    /// QPI uplink, the machine's NIC.
    Port(LinkClass),
}

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

    /// A transfer's two terms at simulated instant `now`, scaled the way
    /// [`CostModel::transfer_time_at`] scales their sum: the latency (with
    /// any partition wait) and the bytes over the bandwidth.
    fn terms_at(&self, src: WorkerId, dst: WorkerId, bytes: u64, now: f64) -> (f64, f64) {
        let link = self.topology.link(src, dst);
        let (latency, bandwidth) = (link.latency(), bytes as f64 / link.bandwidth());
        let Some(f) = self.faults.as_ref().filter(|_| src != dst) else {
            return (latency, bandwidth);
        };
        if let Some(heal) = f.partition_heal_time(src, dst, now) {
            let wait = RetryPolicy::with_base(latency).wait_for_heal(heal - now);
            let k = f.degrade_factor(src, dst, now + wait);
            return (wait + k * latency, k * bandwidth);
        }
        let k = f.degrade_factor(src, dst, now);
        (k * latency, k * bandwidth)
    }

    /// Schedules `transfers`, issued together by `src` at simulated instant
    /// `now`, under the grouped-issue rule of the module docs.
    ///
    /// On each resource the transfer with the largest latency (the first
    /// one, among equals) goes first and costs its full
    /// [`CostModel::transfer_time_at`]; the others follow it in the order
    /// given, each costing its bytes over its bandwidth. A transfer to `src`
    /// itself is free and uses no resource.
    pub fn group_schedule_at(
        &self,
        src: WorkerId,
        transfers: &[Transfer],
        now: f64,
    ) -> GroupSchedule {
        let mut sched = GroupSchedule {
            secs: 0.0,
            slots: vec![Slot::default(); transfers.len()],
            busy: Vec::new(),
        };
        let mut keys: Vec<Resource> = Vec::new();
        // Per resource: its first-paying transfer and that transfer's
        // latency and full time.
        let mut payers: Vec<(usize, f64, f64)> = Vec::new();
        // Per transfer: its resource and bandwidth term.
        let mut placed: Vec<Option<(usize, f64)>> = Vec::with_capacity(transfers.len());
        for (i, t) in transfers.iter().enumerate() {
            let class = self.topology.link(src, t.peer);
            if class == LinkClass::Local {
                placed.push(None);
                continue;
            }
            let key = match class {
                LinkClass::NvLink => Resource::Peer(t.peer),
                other => Resource::Port(other),
            };
            let (latency, bandwidth) = self.terms_at(src, t.peer, t.bytes, now);
            let r = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                payers.push((i, f64::NEG_INFINITY, 0.0));
                sched.busy.push(LinkBusy {
                    class,
                    latency: 0.0,
                    bandwidth: 0.0,
                    transfers: 0,
                });
                keys.len() - 1
            });
            if latency > payers[r].1 {
                payers[r] = (i, latency, self.transfer_time_at(src, t.peer, t.bytes, now));
            }
            let busy = &mut sched.busy[r];
            busy.bandwidth += bandwidth;
            busy.transfers += 1;
            placed.push(Some((r, bandwidth)));
        }
        let mut ends: Vec<f64> = payers.iter().map(|&(_, _, total)| total).collect();
        for (r, &(payer, latency, total)) in payers.iter().enumerate() {
            sched.slots[payer] = Slot {
                start: 0.0,
                secs: total,
            };
            sched.busy[r].latency = latency;
        }
        for (i, p) in placed.into_iter().enumerate() {
            if let Some((r, bandwidth)) = p.filter(|&(r, _)| payers[r].0 != i) {
                sched.slots[i] = Slot {
                    start: ends[r],
                    secs: bandwidth,
                };
                ends[r] += bandwidth;
            }
        }
        sched.secs = ends.into_iter().fold(0.0, f64::max);
        sched
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
    }

    #[test]
    fn allreduce_bottlenecked_by_slowest_link() {
        let fast = CostModel::new(Topology::nvlink_island(8));
        let slow = CostModel::new(Topology::cluster_b_scaled(16));
        let bytes = 64 << 20;
        assert!(slow.allreduce_time(bytes) > fast.allreduce_time(bytes));
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
        assert_eq!(
            m.transfer_time_at(0, 1, 1 << 20, 5.0),
            m.transfer_time(0, 1, 1 << 20)
        );
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
        assert_eq!(
            m.transfer_time_at(2, 3, 1 << 20, 1.5),
            m.transfer_time(2, 3, 1 << 20)
        );
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

    const MB: u64 = 1 << 20;

    fn to(peers: &[WorkerId], bytes: u64) -> Vec<Transfer> {
        peers.iter().map(|&peer| Transfer { peer, bytes }).collect()
    }

    /// α + n·bytes/β on one link class.
    fn queued(class: LinkClass, n: u64, bytes: u64) -> f64 {
        class.latency() + (n * bytes) as f64 / class.bandwidth()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1e-9)
    }

    #[test]
    fn group_nvlink_island_runs_every_peer_side_by_side() {
        let m = CostModel::new(Topology::nvlink_island(4));
        let g = m.group_schedule_at(0, &to(&[1, 2, 3], MB), 0.0);
        // Three links, one transfer each: the group costs one transfer.
        assert_eq!(g.secs, m.transfer_time(0, 1, MB));
        assert_eq!(g.busy.len(), 3);
        assert!(g.slots.iter().all(|s| s.start == 0.0 && s.secs == g.secs));
    }

    #[test]
    fn group_pcie_island_queues_on_the_port() {
        let m = CostModel::new(Topology::pcie_island(4));
        let g = m.group_schedule_at(0, &to(&[1, 2, 3], MB), 0.0);
        assert!(close(g.secs, queued(LinkClass::Pcie3, 3, MB)), "{}", g.secs);
        assert_eq!(g.busy.len(), 1);
        let busy = g.busy[0];
        assert_eq!((busy.class, busy.transfers), (LinkClass::Pcie3, 3));
        assert_eq!(busy.latency, LinkClass::Pcie3.latency());
        // The first transfer pays the latency; the others stream behind it.
        assert_eq!(
            g.slots[0],
            Slot {
                start: 0.0,
                secs: m.transfer_time(0, 1, MB)
            }
        );
        assert_eq!(g.slots[1].start, g.slots[0].secs);
        assert!(close(g.slots[2].start + g.slots[2].secs, g.secs));
        // Never slower than issuing the three one after another.
        assert!(g.secs < 3.0 * m.transfer_time(0, 1, MB));
    }

    #[test]
    fn group_qpi_dual_socket_overlaps_port_and_uplink() {
        let m = CostModel::new(Topology::qpi_dual_socket(8));
        let g = m.group_schedule_at(0, &to(&[1, 4, 5], MB), 0.0);
        let pcie = queued(LinkClass::Pcie3, 1, MB);
        let qpi = queued(LinkClass::Qpi, 2, MB);
        assert!(close(g.secs, pcie.max(qpi)));
        assert_eq!(g.busy.len(), 2);
        // The PCIe and QPI transfers start together.
        assert_eq!(g.slots[0].start, 0.0);
        assert_eq!(g.slots[1].start, 0.0);
        assert!(g.slots[2].start > 0.0);
    }

    #[test]
    fn group_cluster_a_is_bound_by_the_nic() {
        let m = CostModel::new(Topology::cluster_a(2));
        let g = m.group_schedule_at(0, &to(&[1, 4, 8, 9], MB), 0.0);
        let nic = queued(LinkClass::Ethernet1G, 2, MB);
        assert!(close(g.secs, nic));
        let classes: Vec<LinkClass> = g.busy.iter().map(|b| b.class).collect();
        assert_eq!(
            classes,
            [LinkClass::Pcie3, LinkClass::Qpi, LinkClass::Ethernet1G]
        );
    }

    #[test]
    fn group_cluster_b_gives_each_nvlink_peer_its_own_link() {
        let m = CostModel::new(Topology::cluster_b(2));
        // Two NVLink peers, one QPI peer, one Ethernet peer: four resources.
        let g = m.group_schedule_at(0, &to(&[1, 2, 4, 8], 4096), 0.0);
        assert_eq!(g.busy.len(), 4);
        assert!(g.slots.iter().all(|s| s.start == 0.0));
        assert_eq!(g.secs, m.transfer_time(0, 8, 4096));
    }

    #[test]
    fn group_cluster_b_scaled_shares_one_nic_across_machines() {
        let m = CostModel::new(Topology::cluster_b_scaled(24));
        // Peers on two other machines still leave through worker 0's NIC.
        let g = m.group_schedule_at(0, &to(&[8, 16, 3], MB), 0.0);
        assert!(close(g.secs, queued(LinkClass::Ethernet10G, 2, MB)));
        assert_eq!(
            g.slots[2],
            Slot {
                start: 0.0,
                secs: m.transfer_time(0, 3, MB)
            }
        );
        // A one-transfer group costs exactly the transfer.
        let one = m.group_schedule_at(0, &to(&[16], MB), 0.0);
        assert_eq!(one.secs, m.transfer_time(0, 16, MB));
    }

    #[test]
    fn group_of_one_matches_transfer_time_at_under_faults() {
        let f = FaultSchedule::parse("degrade@0-1:1.0:1.0:8; partition@0-2:0.0:0.5", 4, 0).unwrap();
        let m = CostModel::new(Topology::pcie_island(4)).with_faults(Arc::new(f));
        for (peer, now) in [(1, 0.5), (1, 1.5), (2, 0.1), (2, 0.7), (3, 1.5)] {
            let g = m.group_schedule_at(0, &to(&[peer], 12_345), now);
            assert_eq!(
                g.secs,
                m.transfer_time_at(0, peer, 12_345, now),
                "peer {peer} at {now}"
            );
            assert_eq!(
                g.slots[0],
                Slot {
                    start: 0.0,
                    secs: g.secs
                }
            );
        }
        // A degraded transfer scales only its own terms: grouped with a
        // healthy one, the port pays the slow latency once plus both
        // transfers' bytes, the slow ones eight times over.
        let g = m.group_schedule_at(0, &to(&[3, 1], MB), 1.5);
        let bw = MB as f64 / LinkClass::Pcie3.bandwidth();
        let expect = 8.0 * LinkClass::Pcie3.latency() + 9.0 * bw;
        assert!(close(g.secs, expect), "{} vs {expect}", g.secs);
        // The degraded transfer has the larger latency, so it goes first.
        assert_eq!(g.slots[1].start, 0.0);
        // During the partition the wait is latency the port pays once.
        let g = m.group_schedule_at(0, &to(&[2, 3], MB), 0.1);
        assert!(g.secs >= 0.4 + bw, "{}", g.secs);
        assert!(g.busy[0].latency >= 0.4);
    }

    #[test]
    fn group_local_and_empty_are_free() {
        let m = CostModel::new(Topology::pcie_island(2));
        assert_eq!(m.group_schedule_at(1, &[], 0.0), GroupSchedule::default());
        let g = m.group_schedule_at(1, &to(&[1], MB), 0.0);
        assert_eq!(
            (g.secs, g.slots[0], g.busy.len()),
            (0.0, Slot::default(), 0)
        );
    }
}
