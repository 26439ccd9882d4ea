#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-embedding
//!
//! The distributed embedding table of HET-GMP (paper §5.2–5.3, §6).
//!
//! Layout follows Figure 6: every embedding row has exactly one **primary**
//! replica (authoritative, "always up-to-date": every update is written back
//! to it) on the partition chosen by the 1D edge-cut, and may have
//! **secondary** replicas (created by 2D vertex-cut) that are allowed to go
//! stale within the bounded-asynchrony protocol:
//!
//! * **intra-embedding synchronisation** — before a worker reads its
//!   secondary copy of `x`, the copy must be within `s` updates of the
//!   primary (missed *other-worker* updates), else it is re-fetched;
//! * **inter-embedding synchronisation** — the embeddings co-accessed by one
//!   sample must be mutually fresh: for a pair `(x_i, x_j)` with access
//!   frequencies `p_i ≥ p_j`, the *normalised* clock gap
//!   `|c_i · p_j/p_i − c_j|` must not exceed `s` (clock normalisation
//!   eliminates the bias from uneven access frequencies, §5.3), else the
//!   staler secondary is synchronised.
//!
//! Components:
//! * [`ShardedTable`] — the global primary store: lock-striped rows +
//!   per-row atomic update clocks; safe for concurrent worker threads
//!   (stands in for the paper's CUDA embedding tables + NCCL p2p);
//!   [`TieredTable`] is the same store past its RAM budget, both behind
//!   [`RowStore`];
//! * one embedding worker — a worker's view combining the store, the
//!   [`Partition`](hetgmp_partition::Partition) and its own replicas: `read`
//!   with staleness checks, `apply_gradients` with local reduction and
//!   primary write-back — at once, or routed by owner through a
//!   [`WriteExchange`] and applied by each row's primary holder (§6) —
//!   returning a [`ReadReport`]/[`UpdateReport`] of every byte that would
//!   have crossed the interconnect. It knows the
//!   whole bounded-staleness protocol and is generic over a small replica
//!   policy holding what the two designs decide differently. Both are
//!   reached through [`EmbeddingWorker`]:
//!   * [`WorkerEmbedding`] — HET-GMP: the static vertex-cut secondaries in a
//!     [`SecondaryCache`] (base-clock / local-update bookkeeping plus the
//!     "extra space for stale gradients", §6), under both checks, with
//!     deferred write-backs;
//!   * [`CachedWorkerEmbedding`] — HET (arXiv 2112.07221): rows admitted
//!     dynamically into an [`LfuCache`], under the intra check only, with
//!     eager write-backs;
//! * [`SparseOpt`] — per-row SGD / Adagrad applied at the primary.

use std::sync::Arc;

use hetgmp_telemetry::{ProtocolAuditor, Recorder, TraceCollector};

pub mod cache;
mod cached_worker;
pub mod capacity;
pub mod checkpoint;
mod index;
pub mod lfu;
mod replica;
pub mod report;
pub mod sparse_optim;
pub mod store;
pub mod table;
pub mod tiered;
mod worker;
pub mod writeback;

pub use cache::SecondaryCache;
pub use cached_worker::CachedWorkerEmbedding;
pub use capacity::CapacityPlan;
pub use checkpoint::{
    load_run, load_table, run_encoded_len, save_run, save_table, table_encoded_len,
    CheckpointError, RunState, WorkerState,
};
pub use lfu::LfuCache;
pub use replica::WorkerEmbedding;
pub use report::{ReadReport, UpdateReport};
pub use sparse_optim::SparseOpt;
pub use store::{CapacityStats, ReadPath, ReadPathStats, RowStore};
pub use table::{BatchScratch, ShardedTable};
pub use tiered::{TieredConfig, TieredTable};
pub use worker::StalenessBound;
pub use writeback::WriteExchange;

pub use hetgmp_comms::SyncFormat;

use replica::ReplicaPolicy;
use worker::Worker;

/// A worker-side embedding interface: batch reads under some consistency
/// discipline plus gradient application. One worker implements it, under
/// either replica policy — statically replicated ([`WorkerEmbedding`],
/// HET-GMP) or dynamically cached ([`CachedWorkerEmbedding`], HET-style) —
/// so trainers hold a `Box<dyn EmbeddingWorker>` and swap designs.
pub trait EmbeddingWorker: Send {
    /// Reads a batch of samples' rows into `out` (sample-major).
    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport;
    /// Applies per-lookup gradients aligned with the previous read.
    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport;
    /// The route half of [`EmbeddingWorker::apply_gradients`]: bins the
    /// batch's reduced gradients into this worker's outboxes of `exchange`
    /// by primary owner, touching no shared state, and returns the same
    /// report. The owners apply them after the step's reads-done rendezvous
    /// ([`WriteExchange::apply_owned`]).
    fn route_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
        exchange: &WriteExchange,
    ) -> UpdateReport;
    /// Flushes any deferred state (epoch/evaluation barriers).
    fn flush_all(&mut self, opt: &SparseOpt) -> UpdateReport;
    /// Refreshes every worker-local replica / cached row from the
    /// authoritative table. Called at epoch barriers *after* all workers
    /// have flushed, so the in-memory state entering the next epoch is
    /// exactly what a checkpoint resume reconstructs (resumed runs warm-
    /// load replicas from the restored table). Returns the number of rows
    /// re-fetched; the caller charges their transfer.
    fn sync_replicas(&mut self) -> u64;
    /// Attaches a telemetry recorder for `embedding.*` metrics.
    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>);
    /// Attaches a protocol auditor observing every staleness decision.
    fn attach_auditor(&mut self, auditor: Arc<ProtocolAuditor>);
    /// Attaches a trace collector for per-batch decision instants.
    fn attach_tracer(&mut self, tracer: Arc<TraceCollector>);
    /// Discards any state lost with the worker's device (pending deferred
    /// gradients, stale replicas) and re-primes local replicas from the
    /// authoritative table, as crash recovery does after the table has been
    /// rolled back to a checkpoint. Returns the number of rows re-fetched
    /// (the caller charges their transfer to the simulated clock).
    fn recover_from_crash(&mut self) -> u64;
    /// Reports which telemetry hooks are attached as
    /// `(recorder, auditor, tracer)` — used by debug assertions to verify
    /// that hooks survive every construction/injection path.
    fn hooks_attached(&self) -> (bool, bool, bool);
    /// Selects the wire format for inter-worker embedding payloads and
    /// whether lossy gradient pushes carry per-row error feedback. Call
    /// before training (right after construction) so warm-loaded replicas
    /// go through the same format as steady-state fetches.
    fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool);
    /// Selects which table read path `read_batch` uses: lock-free seqlock
    /// snapshots (the default) or the locked escape hatch. Both are
    /// bit-identical; call before training so every fetch goes through the
    /// chosen path.
    fn set_read_path(&mut self, path: ReadPath);
}

impl<'a, P: ReplicaPolicy<'a>> EmbeddingWorker for Worker<'a, P> {
    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        Worker::read_batch(self, samples, out)
    }
    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        Worker::apply_gradients(self, samples, grads, opt)
    }
    fn route_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
        exchange: &WriteExchange,
    ) -> UpdateReport {
        Worker::route_gradients(self, samples, grads, opt, exchange)
    }
    fn flush_all(&mut self, opt: &SparseOpt) -> UpdateReport {
        Worker::flush_all(self, opt)
    }
    fn sync_replicas(&mut self) -> u64 {
        Worker::sync_all(self) as u64
    }
    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        Worker::attach_recorder(self, recorder)
    }
    fn attach_auditor(&mut self, auditor: Arc<ProtocolAuditor>) {
        Worker::attach_auditor(self, auditor)
    }
    fn attach_tracer(&mut self, tracer: Arc<TraceCollector>) {
        Worker::attach_tracer(self, tracer)
    }
    fn recover_from_crash(&mut self) -> u64 {
        Worker::recover_from_crash(self)
    }
    fn hooks_attached(&self) -> (bool, bool, bool) {
        Worker::hooks_attached(self)
    }
    fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        Worker::set_sync_format(self, format, error_feedback)
    }
    fn set_read_path(&mut self, path: ReadPath) {
        Worker::set_read_path(self, path)
    }
}
