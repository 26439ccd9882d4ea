#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-cluster
//!
//! Simulated GPU-cluster substrate for the HET-GMP reproduction.
//!
//! The paper evaluates on two real clusters:
//!
//! * **Cluster A** — nodes of 8× RTX TITAN (24 GB) on PCIe 3.0, 1 Gb Ethernet;
//! * **Cluster B** — nodes of 8× Tesla V100 (32 GB) with NVLink, 10 Gb
//!   Ethernet (QPI across sockets).
//!
//! No GPUs are available here, so this crate provides the *substitute*: an
//! explicit interconnect model. Every experiment in the paper is, at heart, a
//! statement about communication volume crossing links of uneven bandwidth —
//! so we model workers, machines, link classes ([`LinkClass`]), a bandwidth
//! matrix, per-message latency, and a deterministic per-worker simulated
//! clock ([`SimClock`]). Training math runs for real on CPU threads;
//! *time* is charged against this model, preserving the relative ordering and
//! crossover points the paper reports (who wins, by what factor, and where
//! scaling collapses) even though absolute seconds differ from the testbed.
//!
//! The partitioner's heterogeneity-aware weighted edge-cut (paper §5.2) takes
//! its weight matrix directly from [`Topology::weight_matrix`].

pub mod cost;
pub mod fault;
pub mod simclock;
pub mod topology;

pub use cost::{ComputeModel, CostModel, GroupSchedule, LinkBusy, Slot, Transfer};
pub use fault::{FaultSchedule, RetryPolicy, WorkerFault, WorkerFaultKind};
pub use simclock::{SimClock, TimeBreakdown, TimeCategory};
pub use topology::{LinkClass, Topology, WorkerId};
