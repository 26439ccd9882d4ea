//! The seam between the embedding worker and its replica set.
//!
//! The paper presents HET-GMP as HET (arXiv 2112.07221) plus three things.
//! HET already reads per-embedding clock-bounded replicas (the *intra*-
//! embedding check of §5.3); HET-GMP picks the replicas statically by the
//! 2D vertex-cut instead of admitting them dynamically (§4), adds the
//! *inter*-embedding check with normalised clocks (§5.3) and buffers stale
//! gradients on the secondaries (§6). The protocol lives once, in
//! [`Worker`]; a [`ReplicaPolicy`] holds the replicas and the seven
//! decisions about them that the two designs make differently:
//!
//! 1. whether an access is counted before a row is classified
//!    ([`ReplicaPolicy::touch`]);
//! 2. what a miss — remote primary, no replica — does besides fetching
//!    ([`ReplicaPolicy::miss`] before the batched fetch,
//!    [`ReplicaPolicy::fill`] when it lands);
//! 3. how a re-fetched stale replica is re-installed
//!    ([`ReplicaPolicy::refresh`]);
//! 4. whether a stale replica has a deferred gradient to flush when it is
//!    re-fetched ([`ReplicaPolicy::take_pending`]);
//! 5. whether the replicas take part in the inter-embedding pass
//!    ([`ReplicaPolicy::frequencies`]);
//! 6. whether write-backs to replicated rows may be deferred
//!    ([`ReplicaPolicy::DEFERS`], [`ReplicaPolicy::defer`]);
//! 7. which counters and trace arguments describe a read
//!    ([`ReplicaPolicy::record_read`], [`ReplicaPolicy::read_mix`]).
//!
//! The worker is generic over the policy, so each of these is a direct,
//! inlinable call: no `dyn` dispatch and no policy lookup per embedding id.
//! This module holds the static policy, [`StaticReplicas`]; the dynamic one
//! is in `cached_worker`.

use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, Recorder};

use crate::cache::SecondaryCache;
use crate::report::ReadReport;
use crate::store::RowStore;
use crate::worker::{StalenessBound, Worker};

/// A worker's replica set and the decisions about it; see the module docs
/// for the seven. The first five methods are the replica set itself, which
/// both designs answer the same way from their own cache.
pub trait ReplicaPolicy<'a>: Send {
    /// (6) Whether write-backs to replicated rows may wait in the replica's
    /// stale-gradient buffer (§6). An eager policy writes back every batch
    /// and none of the deferral methods below is ever called on it.
    const DEFERS: bool = false;

    /// The slot of this worker's replica of `e`, if it holds one.
    fn slot_of(&self, e: u32) -> Option<usize>;
    /// The effective clock (`base + own updates`) of the replica in `slot`.
    fn clock_at(&self, slot: usize) -> u64;
    /// Copies the replica of `e` into `out`.
    fn read(&self, e: u32, out: &mut [f32]);
    /// Mirrors an update this worker wrote back to `e`'s primary: applies
    /// `delta` to the replica and counts one own update.
    fn mirror(&mut self, e: u32, delta: &[f32]);
    /// Appends the ids currently replicated, ascending.
    fn replicated(&self, out: &mut Vec<u32>);

    /// (1) Notes an access to `e`: once per batch, before it is classified.
    fn touch(&mut self, _e: u32) {}
    /// (2) `e` has a remote primary and no replica here; its fetch is
    /// queued. Runs at classification time, in batch order.
    fn miss(&mut self, _e: u32, _table: &dyn RowStore) {}
    /// (2) The row fetched for a miss on `e` has landed.
    fn fill(&mut self, _e: u32, _row: &[f32]) {}
    /// (3) The row re-fetched for the stale replica of `e` has landed,
    /// observed at `clock`; a deferring policy adds its own pending updates
    /// to `row` first ([`SecondaryCache::sync`]).
    fn refresh(&mut self, e: u32, row: &mut [f32], clock: u64);
    /// (4) Moves `e`'s deferred gradient into `out` and advances the
    /// replica's clock by the one merged update it is about to become;
    /// false, leaving `out` alone, when nothing is pending.
    fn take_pending(&mut self, _e: u32, _out: &mut [f32]) -> bool {
        false
    }
    /// (5) The access frequencies `p_i` that normalise clocks in the
    /// inter-embedding pass; `None` keeps the replicas out of it.
    fn frequencies(&self) -> Option<&'a [u64]> {
        None
    }
    /// (6) Applies `delta` to the replica of `e` without advancing its clock
    /// and adds `grad` to its stale-gradient buffer; returns how many
    /// gradients now wait there.
    fn defer(&mut self, _e: u32, _delta: &[f32], _grad: &[f32]) -> u64 {
        unreachable!("an eager policy defers nothing")
    }
    /// (6) The rows holding a deferred gradient, ascending.
    fn rows_with_pending(&self) -> Vec<u32> {
        Vec::new()
    }
    /// (6) How many rows hold a deferred gradient.
    fn pending_rows(&self) -> usize {
        0
    }
    /// (7) Counts one batch read into the policy's own `embedding.*`
    /// metrics, beside the four every policy shares.
    fn record_read(&self, recorder: &dyn Recorder, report: &ReadReport);
    /// (7) How the read trace event names the replica-served and the fetched
    /// lookups of a batch, after `local_primary`.
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2];
}

/// HET-GMP's replica set: the secondaries the 2D vertex-cut placed on this
/// worker (§4), fixed for the run, each with a stale-gradient buffer (§6).
pub struct StaticReplicas<'a> {
    cache: SecondaryCache,
    /// Per-embedding access frequency `p_i` (bigraph degree).
    freq: &'a [u64],
    /// Rows currently holding a deferred (pending) gradient.
    pending_rows: usize,
}

impl<'a> ReplicaPolicy<'a> for StaticReplicas<'a> {
    const DEFERS: bool = true;

    #[inline]
    fn slot_of(&self, e: u32) -> Option<usize> {
        self.cache.slot_of(e)
    }
    #[inline]
    fn clock_at(&self, slot: usize) -> u64 {
        self.cache.clock_at(slot)
    }
    #[inline]
    fn read(&self, e: u32, out: &mut [f32]) {
        self.cache.read(e, out);
    }
    #[inline]
    fn mirror(&mut self, e: u32, delta: &[f32]) {
        self.cache.apply_local_delta(e, delta);
    }
    fn replicated(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(self.cache.rows());
    }
    #[inline]
    fn refresh(&mut self, e: u32, row: &mut [f32], clock: u64) {
        self.cache.sync(e, row, clock);
    }
    #[inline]
    fn take_pending(&mut self, e: u32, out: &mut [f32]) -> bool {
        let taken = self.cache.take_pending(e, out);
        self.pending_rows -= taken as usize;
        taken
    }
    #[inline]
    fn frequencies(&self) -> Option<&'a [u64]> {
        Some(self.freq)
    }
    #[inline]
    fn defer(&mut self, e: u32, delta: &[f32], grad: &[f32]) -> u64 {
        let pending = self.cache.accumulate_pending(e, delta, grad) as u64;
        if pending == 1 {
            self.pending_rows += 1;
        }
        pending
    }
    fn rows_with_pending(&self) -> Vec<u32> {
        self.cache.rows_with_pending()
    }
    fn pending_rows(&self) -> usize {
        self.pending_rows
    }
    fn record_read(&self, recorder: &dyn Recorder, report: &ReadReport) {
        recorder.counter_add(names::EMBED_SYNC_INTER, report.inter_syncs);
    }
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2] {
        [
            ("local_fresh", report.local_fresh),
            ("remote", report.remote_fetches),
        ]
    }
}

/// The HET-GMP worker: static vertex-cut replicas under the intra- and
/// inter-embedding checks, with deferred write-backs.
pub type WorkerEmbedding<'a> = Worker<'a, StaticReplicas<'a>>;

impl<'a> Worker<'a, StaticReplicas<'a>> {
    /// Creates the worker view and warm-loads its secondary replicas from
    /// the primaries with one batched read (on a tiered table a per-row
    /// read is up to one page fault per replica). Initial placement traffic
    /// is not charged, matching the paper's measurement of steady-state
    /// iterations. `freq` is the per-embedding access frequency (bigraph
    /// degree) that normalises clocks; zero frequencies are treated as one.
    pub fn new(
        worker: u32,
        table: &'a dyn RowStore,
        part: &'a Partition,
        freq: &'a [u64],
        bound: StalenessBound,
    ) -> Self {
        assert_eq!(
            freq.len(),
            table.num_rows(),
            "frequency table length mismatch"
        );
        let secondaries: Vec<u32> = (0..part.num_embeddings() as u32)
            .filter(|&e| part.is_secondary(e, worker))
            .collect();
        let replicas = StaticReplicas {
            cache: SecondaryCache::new(table.dim(), &secondaries),
            freq,
            pending_rows: 0,
        };
        let mut this = Self::with_policy(worker, table, part, bound, replicas);
        this.sync_all();
        this
    }

    /// Number of secondary replicas held.
    pub fn num_secondaries(&self) -> usize {
        self.policy.cache.len()
    }

    /// Gradients waiting in the stale-gradient buffer of this worker's
    /// replica of `e` (0 when it holds none).
    pub fn pending_count(&self, e: u32) -> u32 {
        self.policy.cache.pending_count(e)
    }
}
