#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-comms
//!
//! Thread-based communication substrate standing in for NCCL (paper §6).
//!
//! HET-GMP's real implementation exchanges embeddings over NCCL p2p and
//! synchronises dense parameters with ring AllReduce. Here workers are OS
//! threads in one process, so "communication" is shared-memory hand-off —
//! but the *pattern* and the *byte accounting* are faithful. There is no
//! point-to-point channel: a worker reads and updates a remote row through
//! the shared `RowStore` (`hetgmp-embedding`), and the exchange NCCL p2p
//! would have carried is charged to the cost model and recorded as traffic
//! from the embedding worker's per-peer byte reports:
//!
//! * [`AllReduceGroup`] — a reusable sum-AllReduce across `n` worker
//!   threads (barrier semantics identical to NCCL's collective call); the
//!   cost model in `hetgmp-cluster` charges it with the standard ring bound
//!   `2·(N−1)/N · bytes` over the bottleneck link;
//! * [`TrafficClass`] — the Figure 8 traffic classes, whose per-worker
//!   byte and message counters (`traffic.*`, recorded by the charge path
//!   in `hetgmp-core`) the Figure 1/8 communication breakdowns are read
//!   from.

pub mod allreduce;
pub mod quant;
pub mod traffic;

pub use allreduce::AllReduceGroup;
pub use quant::{DenseQuantizer, ErrorFeedback, SyncFormat, DENSE_CHUNK};
pub use traffic::TrafficClass;
