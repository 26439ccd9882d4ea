//! A worker's clocked replica rows, and the seam between them and the
//! embedding worker.
//!
//! The paper presents HET-GMP as HET (arXiv 2112.07221) plus three things.
//! HET already reads per-embedding clock-bounded replicas (the *intra*-
//! embedding check of §5.3); HET-GMP picks the replicas statically by the
//! 2D vertex-cut instead of admitting them dynamically (§4), adds the
//! *inter*-embedding check with normalised clocks (§5.3) and buffers stale
//! gradients on the secondaries (§6).
//!
//! The replica both designs keep is written once, here: [`Replicas`], a
//! set of rows, each with the primary's clock when it was last synced and
//! the count of this worker's own updates since (§5.2 Fig. 6). A design
//! adds only its own per-row state `D`: the stale-gradient buffer of the
//! `SecondaryCache` (HET-GMP) or the admission statistics of the
//! `LfuCache` (HET). The protocol lives once, in [`Worker`]. Each replica
//! set is its own [`ReplicaPolicy`], the decisions the two designs make
//! differently:
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
//! 5. whether the replicas take part in the inter-embedding pass: the
//!    worker is built with the access frequencies that normalise clocks
//!    (HET-GMP) or without them (HET), so this one lives in [`Worker`];
//! 6. whether write-backs to replicated rows may be deferred
//!    ([`ReplicaPolicy::DEFERS`], [`ReplicaPolicy::defer`]);
//! 7. which counters and trace arguments describe a read
//!    ([`ReplicaPolicy::record_read`], [`ReplicaPolicy::read_mix`]).
//!
//! The worker is generic over the design, so each of these is a direct,
//! inlinable call: no `dyn` dispatch and no policy lookup per embedding id.

use hetgmp_partition::Partition;
use hetgmp_telemetry::Recorder;

use crate::cache::{SecondaryCache, StaleGradients};
use crate::index::IdSlots;
use crate::report::ReadReport;
use crate::store::RowStore;
use crate::worker::{StalenessBound, Worker};

/// The decisions about a replica set that the two designs make
/// differently; see the module docs for the seven.
pub trait ReplicaPolicy: Send {
    /// (6) Whether write-backs to replicated rows may wait in the replica's
    /// stale-gradient buffer (§6). An eager policy writes back every batch
    /// and none of the deferral methods below is ever called on it.
    const DEFERS: bool = false;

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
    fn record_read(&self, recorder: &Recorder, report: &ReadReport);
    /// (7) How the read trace event names the replica-served and the fetched
    /// lookups of a batch, after `local_primary`.
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2];
}

/// One worker's replica rows. Each row tracks:
/// * `base_clock` — the primary's clock when the row was last synchronised;
/// * `local_updates` — updates this worker applied (and wrote back) since
///   the sync; the replica's *effective clock* is `base_clock +
///   local_updates`, so the staleness gap `primary_clock − effective_clock`
///   counts exactly the **other workers'** updates this copy has missed.
///
/// A row lives in a slot, and slots are never freed: a row leaves its slot
/// only when another claims it, so the occupied slots are always
/// `0..len()`. `D` is the state one design keeps beside its rows
/// ([`SecondaryCache`], [`LfuCache`](crate::LfuCache)).
#[derive(Debug, Clone)]
pub struct Replicas<D> {
    pub(crate) dim: usize,
    /// Row id → slot: a dense array, one indexed load per lookup.
    slots: IdSlots,
    /// Slot → row id.
    ids: Vec<u32>,
    data: Vec<f32>,
    base_clock: Vec<u64>,
    local_updates: Vec<u64>,
    /// The design's own state.
    pub(crate) design: D,
}

impl<D> Replicas<D> {
    /// An empty set of rows of `dim` floats, with room for `capacity`.
    pub(crate) fn with_capacity(dim: usize, capacity: usize, design: D) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            slots: IdSlots::default(),
            ids: Vec::with_capacity(capacity),
            data: Vec::with_capacity(capacity * dim),
            base_clock: Vec::with_capacity(capacity),
            local_updates: Vec::with_capacity(capacity),
            design,
        }
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row ids held, in slot order (ascending for a
    /// [`SecondaryCache`]).
    pub fn rows(&self) -> &[u32] {
        &self.ids
    }

    /// True when `row` has a slot here.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        self.slots.get(row).is_some()
    }

    /// `row`'s slot, for callers that resolve a row once and then read its
    /// clock many times ([`Replicas::clock_at`]). A slot holds its row
    /// until another claims it.
    #[inline]
    pub(crate) fn slot_of(&self, row: u32) -> Option<usize> {
        self.slots.get(row)
    }

    /// The effective clock (`base + local`) of the row in `slot`.
    #[inline]
    pub(crate) fn clock_at(&self, slot: usize) -> u64 {
        self.base_clock[slot] + self.local_updates[slot]
    }

    /// The row's effective clock (`base + local`), or `None` if absent.
    pub fn effective_clock(&self, row: u32) -> Option<u64> {
        self.slot_of(row).map(|i| self.clock_at(i))
    }

    /// Reads the held value into `out`. Returns false if absent.
    #[inline]
    pub fn read(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "buffer length != dim");
        match self.slot_of(row) {
            Some(i) => {
                out.copy_from_slice(&self.data[i * self.dim..(i + 1) * self.dim]);
                true
            }
            None => false,
        }
    }

    /// Applies a local delta to the held copy (mirroring the update this
    /// worker wrote back to the primary) and counts it as the replica's
    /// own. Returns false (no-op) if the row is absent.
    #[inline]
    pub fn apply_local_delta(&mut self, row: u32, delta: &[f32]) -> bool {
        match self.slot_of(row) {
            Some(i) => {
                self.add_at(i, delta);
                self.count_own_update(i);
                true
            }
            None => false,
        }
    }

    /// Overwrites the held value after a sync with the primary, resetting
    /// the staleness bookkeeping to `primary_clock`.
    ///
    /// # Panics
    /// Panics if `row` has no slot.
    #[inline]
    pub fn install(&mut self, row: u32, values: &[f32], primary_clock: u64) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        let i = self.slot_of(row).expect("row not in cache");
        self.claim(i, row, primary_clock).copy_from_slice(values);
    }

    /// Puts `row` in `slot` — its own, another row's (which leaves), or
    /// `len()` for a new one — synced at `primary_clock` with no own
    /// updates, and returns its values for the caller to write.
    pub(crate) fn claim(&mut self, slot: usize, row: u32, primary_clock: u64) -> &mut [f32] {
        if slot == self.len() {
            self.ids.push(row);
            self.data.resize((slot + 1) * self.dim, 0.0);
            self.base_clock.push(0);
            self.local_updates.push(0);
            self.slots.insert(row, slot);
        } else if self.ids[slot] != row {
            self.slots.remove(self.ids[slot]);
            self.slots.insert(row, slot);
            self.ids[slot] = row;
        }
        self.base_clock[slot] = primary_clock;
        self.local_updates[slot] = 0;
        self.values_mut(slot)
    }

    /// The values of the row in `slot`.
    #[inline]
    pub(crate) fn values_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Adds `delta` to the row in `slot`, leaving its clock alone.
    #[inline]
    pub(crate) fn add_at(&mut self, slot: usize, delta: &[f32]) {
        assert_eq!(delta.len(), self.dim, "delta length != dim");
        let row = self.values_mut(slot);
        row.iter_mut().zip(delta).for_each(|(d, &x)| *d += x);
    }

    /// Counts one update of this worker's own into the clock of the row in
    /// `slot`.
    #[inline]
    pub(crate) fn count_own_update(&mut self, slot: usize) {
        self.local_updates[slot] += 1;
    }
}

/// The HET-GMP worker: static vertex-cut replicas under the intra- and
/// inter-embedding checks, with deferred write-backs.
pub type WorkerEmbedding<'a> = Worker<'a, StaleGradients>;

impl<'a> Worker<'a, StaleGradients> {
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
        let replicas = SecondaryCache::new(table.dim(), &secondaries);
        let mut this = Self::with_replicas(worker, table, part, bound, replicas, Some(freq));
        this.sync_all();
        this
    }

    /// Number of secondary replicas held.
    pub fn num_secondaries(&self) -> usize {
        self.replicas.len()
    }

    /// Gradients waiting in the stale-gradient buffer of this worker's
    /// replica of `e` (0 when it holds none).
    pub fn pending_count(&self, e: u32) -> u32 {
        self.replicas.pending_count(e)
    }
}
