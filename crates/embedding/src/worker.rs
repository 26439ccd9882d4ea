//! The embedding worker: one worker's view of the distributed embedding
//! table — reads with bounded asynchrony (intra- and inter-embedding
//! synchronisation, §5.3) and gradient write-back (§6 "Decentralized
//! Communication").
//!
//! [`Worker`] is the only place that knows the protocol: resolve, classify
//! (local primary / replica under the intra check / remote), one batched
//! fetch and its landing, the inter-embedding pass, scatter; reduce, route
//! (direct / deferred / wire) by primary owner, mirror; flush, re-prime,
//! crash recovery; wire format, error feedback and the telemetry hooks.
//! The apply half of a write-back is one batched `apply_grads` call, by
//! this worker ([`Worker::apply_gradients`]) or by each row's owner after
//! the step's rendezvous (the `writeback` module); nothing else writes the
//! table, a sync's flush included.
//! What the two designs it serves disagree on — which rows are replicated
//! and when — is the [`ReplicaPolicy`] of their replica set, chosen at
//! compile time; whether replicas take part in the inter-embedding pass is
//! whether the worker holds the access frequencies that normalise clocks.
//!
//! Cost model: resolving and classifying a batch is O(lookups), the
//! inter-embedding check is O(Σ replicas-per-sample²), and no id is ever
//! hashed — every id → slot map on this path is a dense array (see the
//! `index` module), the wire's error-feedback residuals included
//! ([`ErrorFeedback`] keeps a dense index over one residual arena).

use std::sync::Arc;

use hetgmp_comms::{ErrorFeedback, SyncFormat};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, Json, ProtocolAuditor, Recorder, TraceCollector};

use crate::index::{BatchIndex, ABSENT};
#[cfg(test)]
use crate::replica::WorkerEmbedding;
use crate::replica::{ReplicaPolicy, Replicas};
use crate::report::{ReadReport, Traffic, UpdateReport};
use crate::sparse_optim::SparseOpt;
use crate::store::{ReadPath, RowStore};
use crate::table::BatchScratch;
#[cfg(test)]
use crate::table::ShardedTable;
use crate::writeback::WriteExchange;

/// One field of the sample under the inter-embedding check that is served
/// from a secondary replica.
#[derive(Debug, Clone, Copy)]
struct SampleReplica {
    id: u32,
    /// The replica's slot in the worker's replica set.
    cache_slot: u32,
    /// The id's index among the batch's unique ids.
    uniq: u32,
}

/// How a row of the batched fetch lands once the read returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Landing {
    /// A local primary: scattered exactly as read, never replicated.
    Local,
    /// A remote row this worker holds no replica of: it crosses the
    /// interconnect, and the policy may keep it ([`ReplicaPolicy::fill`]).
    Miss,
    /// A stale replica: it crosses the interconnect and is re-installed at
    /// the clock the read observed ([`ReplicaPolicy::refresh`]).
    Refresh,
}

/// Reusable hot-path scratch: every buffer the per-batch gather/update path
/// needs, allocated once per worker and recycled so steady-state iterations
/// allocate nothing, together with the passes that touch no replica:
/// resolving lookups to unique ids, the segment-grouped fetch, the scatter and
/// the local reduction.
#[derive(Default)]
struct HotScratch {
    /// Shard-grouping permutation for the batched table API.
    batch: BatchScratch,
    /// The batch resolver: id → index among the batch's unique ids, in
    /// first-appearance order. Re-stamped by every read and every apply.
    index: BatchIndex,
    /// Unique index of every lookup of the batch being read, sample-major.
    lookups: Vec<u32>,
    /// Resolved rows of the batch being read, one `dim` slice per unique id.
    rows: Vec<f32>,
    /// Per unique id of the batch being read: the slot of its replica,
    /// [`ABSENT`] for local primaries and remote rows (which take part in no
    /// later decision).
    replica_slots: Vec<u32>,
    /// The replica-served fields of the sample under the inter-embedding
    /// check, in field order.
    sample_replicas: Vec<SampleReplica>,
    /// Rows to fetch from the primary table this batch.
    fetch_ids: Vec<u32>,
    /// Destination offset in `rows` for each fetch.
    fetch_slots: Vec<usize>,
    /// What to do with each fetched row when it lands.
    fetch_landing: Vec<Landing>,
    /// Contiguous staging for batched reads (fetch-order, `dim` per row).
    fetch_buf: Vec<f32>,
    /// Clocks observed by the batched read, fetch-order.
    fetch_clocks: Vec<u64>,
    /// One-row scratch for pending-gradient flushes.
    row_buf: Vec<f32>,
    /// The step's sync flushes, in the order taken; [`Worker::route`]
    /// emits them ahead of the batch. Gradients aligned in `stash_grads`.
    stash_ids: Vec<u32>,
    stash_grads: Vec<f32>,
    /// One-row scratch for local mirror deltas.
    delta_buf: Vec<f32>,
    /// Reduced (summed) gradients, one `dim` slice per unique id in
    /// first-appearance order (`index` maps an id to its slice).
    reduce_buf: Vec<f32>,
    /// Unique ids of the batch, sorted for deterministic application.
    reduce_ids: Vec<u32>,
    /// Rows `apply_gradients` routed to its single batched `apply_grads`
    /// call (the trainer's steps route into a `WriteExchange` instead).
    apply_ids: Vec<u32>,
    /// Gradients aligned with `apply_ids`.
    apply_buf: Vec<f32>,
    /// Clocks returned by the batched apply.
    apply_clocks: Vec<u64>,
}

impl HotScratch {
    /// Scratch for a worker over a `num_rows × dim` table.
    fn new(num_rows: usize, dim: usize) -> Self {
        Self {
            index: BatchIndex::new(num_rows),
            row_buf: vec![0.0f32; dim],
            ..Self::default()
        }
    }

    /// Starts resolving a new batch to read.
    fn begin_read(&mut self) {
        self.index.begin();
        self.lookups.clear();
        self.rows.clear();
        self.replica_slots.clear();
        self.fetch_ids.clear();
        self.fetch_slots.clear();
        self.fetch_landing.clear();
    }

    /// Resolves the next lookup of the batch being read. On an id's first
    /// appearance returns the offset in `rows` of the zeroed `dim` slice the
    /// caller must fill; a repeat resolves to the same slice and returns
    /// `None`.
    #[inline]
    fn resolve(&mut self, e: u32, dim: usize) -> Option<usize> {
        if let Some(k) = self.index.get(e) {
            self.lookups.push(k as u32);
            return None;
        }
        let k = self.rows.len() / dim;
        self.index.insert(e, k);
        self.lookups.push(k as u32);
        self.rows.resize((k + 1) * dim, 0.0);
        Some(k * dim)
    }

    /// Queues row `e` for the batched fetch: it is read into `rows[slot..]`
    /// and then lands as `landing` says.
    #[inline]
    fn plan_fetch(&mut self, e: u32, slot: usize, landing: Landing) {
        self.fetch_ids.push(e);
        self.fetch_slots.push(slot);
        self.fetch_landing.push(landing);
    }

    /// One segment-grouped read of `fetch_ids` into `fetch_buf` and
    /// `fetch_clocks`. Returns the number of rows read.
    fn fetch(&mut self, table: &dyn RowStore, path: ReadPath) -> usize {
        let n = self.fetch_ids.len();
        self.fetch_buf.clear();
        self.fetch_buf.resize(n * table.dim(), 0.0);
        self.fetch_clocks.clear();
        self.fetch_clocks.resize(n, 0);
        if n > 0 {
            let Self {
                batch,
                fetch_ids: ids,
                fetch_buf: buf,
                fetch_clocks: clocks,
                ..
            } = self;
            match path {
                ReadPath::Snapshot => table.read_rows_snapshot(ids, buf, clocks, batch),
                ReadPath::Locked => table.read_rows(ids, buf, clocks, batch),
            }
        }
        n
    }

    /// Copies every lookup's resolved row into the caller's buffer,
    /// sample-major.
    fn scatter(&self, out: &mut [f32], dim: usize) {
        for (dst, &k) in out.chunks_exact_mut(dim).zip(&self.lookups) {
            let k = k as usize;
            dst.copy_from_slice(&self.rows[k * dim..(k + 1) * dim]);
        }
    }

    /// Local reduction: sums the per-lookup gradients of each unique row
    /// into `reduce_buf` (one `dim` slice per id, lookups added in batch
    /// order — no per-row `Vec` on the hot path) and leaves the unique ids
    /// in `reduce_ids`, sorted for deterministic application.
    fn reduce(&mut self, samples: &[&[u32]], grads: &[f32], dim: usize) {
        self.index.begin();
        self.reduce_ids.clear();
        self.reduce_buf.clear();
        let ids = samples.iter().flat_map(|s| s.iter());
        for (&e, g) in ids.zip(grads.chunks_exact(dim)) {
            match self.index.get(e) {
                Some(k) => {
                    for (a, &x) in self.reduce_buf[k * dim..(k + 1) * dim].iter_mut().zip(g) {
                        *a += x;
                    }
                }
                None => {
                    self.index.insert(e, self.reduce_ids.len());
                    self.reduce_ids.push(e);
                    self.reduce_buf.extend_from_slice(g);
                }
            }
        }
        self.reduce_ids.sort_unstable();
    }
}

/// The staleness bound `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessBound {
    /// Tolerate clock gaps up to `s` updates; `Bounded(0)` degenerates to
    /// fully-synchronous reads (always re-fetch secondaries).
    Bounded(u64),
    /// Never synchronise secondaries on read (ASP, the `s = ∞` column of
    /// Table 2) — replicas drift until explicitly re-synced.
    Infinite,
}

impl StalenessBound {
    /// Whether a clock gap — raw (intra) or normalised (inter) — is within
    /// the bound.
    #[inline]
    fn tolerates(&self, gap: f64) -> bool {
        match *self {
            StalenessBound::Bounded(s) => gap <= s as f64,
            StalenessBound::Infinite => true,
        }
    }
}

/// The wire format of inter-worker embedding payloads, and what the lossy
/// formats carry beside it.
struct Wire {
    /// [`SyncFormat::F32`] reproduces the uncompressed protocol bit-for-bit.
    format: SyncFormat,
    /// Whether lossy gradient pushes carry error feedback.
    feedback_on: bool,
    /// Per-row quantization residuals (push direction only).
    feedback: ErrorFeedback,
    /// Cached `format.row_wire_bytes(dim)`.
    row_bytes: u64,
}

impl Wire {
    /// The wire over a `num_rows × dim` table.
    fn new(format: SyncFormat, feedback_on: bool, num_rows: usize, dim: usize) -> Self {
        let feedback = if feedback_on && !format.is_lossless() {
            ErrorFeedback::with_capacity(num_rows)
        } else {
            ErrorFeedback::new()
        };
        Self {
            format,
            feedback_on,
            feedback,
            row_bytes: format.row_wire_bytes(dim),
        }
    }

    /// Sends the gradient of row `e` through the wire format (with error
    /// feedback when enabled) *before* it reaches the primary, so a local
    /// mirror of the transported value tracks what the primary actually
    /// received. True when the format is lossy — the row then counts into
    /// the `comms.quant.*` metrics.
    #[inline]
    fn push(&mut self, e: u32, grad: &mut [f32]) -> bool {
        if self.format.is_lossless() {
            return false;
        }
        if self.feedback_on {
            self.feedback.compensate_and_transport(self.format, e, grad);
        } else {
            self.format.transport(grad);
        }
        true
    }
}

/// One worker's embedding-table interface, generic over the design `D` of
/// its replica set ([`Replicas`], which is its own [`ReplicaPolicy`]);
/// reached through the two names
/// [`WorkerEmbedding`](crate::WorkerEmbedding) (static vertex-cut replicas,
/// HET-GMP) and [`CachedWorkerEmbedding`](crate::CachedWorkerEmbedding)
/// (dynamic LFU cache, HET).
///
/// Owns the worker's replicas; shares the global primary store
/// ([`crate::ShardedTable`] or any other [`RowStore`]) with all other
/// workers. Every operation reports the bytes, per peer, that would have
/// crossed the interconnect so the trainer can charge simulated time and
/// reproduce the paper's traffic breakdowns.
pub struct Worker<'a, D> {
    worker: u32,
    table: &'a dyn RowStore,
    part: &'a Partition,
    bound: StalenessBound,
    /// The replica set, and every decision about it that the two designs
    /// make differently.
    pub(crate) replicas: Replicas<D>,
    /// The access frequencies `p_i` that normalise clocks in the
    /// inter-embedding pass; `None` keeps the replicas out of it.
    freq: Option<&'a [u64]>,
    /// Batched-path scratch (batch resolver, fetch staging, reduction).
    scratch: HotScratch,
    wire: Wire,
    /// Which table read path fetches go through (snapshot by default;
    /// both paths return bit-identical bytes).
    read_path: ReadPath,
    recorder: Option<Arc<Recorder>>,
    auditor: Option<Arc<ProtocolAuditor>>,
    tracer: Option<Arc<TraceCollector>>,
}

impl<'a, D> Worker<'a, D>
where
    Replicas<D>: ReplicaPolicy,
{
    /// The worker view over `replicas`, which the caller re-primes
    /// ([`Worker::sync_all`]) if it starts non-empty. `freq` is `Some` when
    /// the replicas take part in the inter-embedding pass.
    pub(crate) fn with_replicas(
        worker: u32,
        table: &'a dyn RowStore,
        part: &'a Partition,
        bound: StalenessBound,
        replicas: Replicas<D>,
        freq: Option<&'a [u64]>,
    ) -> Self {
        assert_eq!(
            part.num_embeddings(),
            table.num_rows(),
            "partition/table mismatch"
        );
        Self {
            worker,
            table,
            part,
            bound,
            replicas,
            freq,
            scratch: HotScratch::new(table.num_rows(), table.dim()),
            wire: Wire::new(SyncFormat::F32, true, table.num_rows(), table.dim()),
            read_path: ReadPath::default(),
            recorder: None,
            auditor: None,
            tracer: None,
        }
    }

    /// Selects the wire format for inter-worker embedding payloads, and
    /// whether per-row error feedback compensates lossy quantization on the
    /// gradient-push direction. Re-primes every replica through the new
    /// format so cached state matches what a fresh fetch delivers. Call
    /// before training; checkpoint-resumed runs reconstruct the same state
    /// because residuals are cleared at every full sync.
    pub fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        self.wire = Wire::new(
            format,
            error_feedback,
            self.table.num_rows(),
            self.table.dim(),
        );
        if !format.is_lossless() {
            self.sync_all();
        }
    }

    /// Selects which table read path fetches use. Bit-identical either way
    /// (a consistent snapshot returns exactly the locked read's bytes), so
    /// this can be flipped at any batch boundary.
    pub fn set_read_path(&mut self, path: ReadPath) {
        self.read_path = path;
    }

    /// Counts `rows` quantized payload rows into the `comms.quant.*`
    /// metrics (no-op for lossless formats).
    fn note_quant(&self, rows: u64) {
        if rows == 0 || self.wire.format.is_lossless() {
            return;
        }
        if let Some(r) = &self.recorder {
            let raw = (self.table.dim() * 4) as u64;
            r.counter_add(names::COMMS_QUANT_ROWS, rows);
            r.counter_add(
                names::COMMS_QUANT_BYTES_SAVED,
                rows * raw.saturating_sub(self.wire.row_bytes),
            );
        }
    }

    /// Accounts one embedding row exchanged with `e`'s primary — a fetch,
    /// a sync or a write-back — into `report`: its wire bytes, attributed to
    /// the primary's partition, and one metadata entry.
    #[inline]
    fn count_remote_row(&self, e: u32, report: &mut impl Traffic) {
        report.add_remote_row(
            self.part.primary_of(e),
            self.wire.row_bytes,
            self.part.num_partitions(),
        );
    }

    /// Publishes a deferring policy's backlog of stale-gradient rows.
    fn record_pending(&self) {
        if let (true, Some(r)) = (Replicas::<D>::DEFERS, &self.recorder) {
            r.gauge_set(
                names::EMBED_PENDING_ROWS,
                self.replicas.pending_rows() as f64,
            );
        }
    }

    /// Attaches a telemetry recorder; reads, syncs, deferrals and flushes
    /// are counted into the `embedding.*` metrics from then on.
    pub fn attach_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Attaches a protocol auditor; every intra/inter staleness decision is
    /// reported to it (`protocol.gap.*` histograms, violation counting).
    pub fn attach_auditor(&mut self, auditor: Arc<ProtocolAuditor>) {
        self.auditor = Some(auditor);
    }

    /// Attaches a trace collector; per-batch read/sync/deferral decision
    /// instants are emitted on this worker's track at the `sync` level.
    pub fn attach_tracer(&mut self, tracer: Arc<TraceCollector>) {
        self.tracer = Some(tracer);
    }

    /// The effective clock (`base + local updates`) of this worker's
    /// replica of `e`; `None` when it holds none.
    pub fn replica_clock(&self, e: u32) -> Option<u64> {
        self.replicas.effective_clock(e)
    }

    /// The intra-embedding check (§5.3): whether the replica of `e` in
    /// `cache_slot` may be served as it is. Bounded reads exchange the clock
    /// ("send sparse indexes and clocks ... small compared with the
    /// embedding"); the entry is accounted here for a fresh replica and with
    /// the re-fetch for a stale one.
    fn replica_is_fresh(&self, e: u32, cache_slot: usize, report: &mut ReadReport) -> bool {
        let bounded = !matches!(self.bound, StalenessBound::Infinite);
        // ASP never checks and never syncs; it peeks at the primary's clock
        // only for the audit, which then sees the drift ASP permits.
        if !bounded && self.auditor.is_none() {
            return true;
        }
        let local_clock = self.replicas.clock_at(cache_slot);
        let gap = self.table.clock(e).saturating_sub(local_clock) as f64;
        let fresh = self.bound.tolerates(gap);
        if let Some(a) = &self.auditor {
            // A tolerated read is served at the raw gap; an intra sync
            // re-fetches, serving gap 0.
            let served = if fresh { gap } else { 0.0 };
            a.observe_intra(self.recorder.as_deref(), gap, served);
        }
        if fresh && bounded {
            report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
        }
        fresh
    }

    /// Reads the embeddings for a batch of samples under the bounded-
    /// asynchrony protocol. `samples` gives each sample's embedding ids;
    /// `out` receives the rows concatenated in sample-major order
    /// (`Σ len(sample) × dim` floats).
    pub fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        let dim = self.table.dim();
        let total: usize = samples.iter().map(|s| s.len()).sum();
        assert_eq!(out.len(), total * dim, "output buffer size mismatch");

        debug_assert!(
            self.scratch.stash_ids.is_empty(),
            "a sync flush was never routed"
        );
        let mut report = ReadReport::default();
        self.scratch.begin_read();

        // Pass 1 — resolve every lookup to its unique id and classify each
        // unique id once, strictly in batch order (the policy's access
        // counts and admissions are stateful): local primary, replica (with
        // the intra-embedding staleness check), or remote fetch. Rows that
        // need the primary table are *collected* during classification and
        // fetched afterwards in one segment-grouped `read_rows` call, so a
        // batch pays one lock per segment touched instead of one per row.
        for sample in samples {
            for &e in *sample {
                let Some(slot) = self.scratch.resolve(e, dim) else {
                    continue;
                };
                self.replicas.touch(e);
                let mut replica = ABSENT;
                if self.part.primary_of(e) == self.worker {
                    self.scratch.plan_fetch(e, slot, Landing::Local);
                    report.local_primary += 1;
                } else if let Some(cache_slot) = self.replicas.slot_of(e) {
                    replica = cache_slot as u32;
                    if self.replica_is_fresh(e, cache_slot, &mut report) {
                        self.replicas
                            .read(e, &mut self.scratch.rows[slot..slot + dim]);
                        report.local_fresh += 1;
                    } else {
                        self.scratch.plan_fetch(e, slot, Landing::Refresh);
                        report.intra_syncs += 1;
                        self.count_remote_row(e, &mut report);
                    }
                } else {
                    // No local replica: model-parallel remote read.
                    self.scratch.plan_fetch(e, slot, Landing::Miss);
                    report.remote_fetches += 1;
                    self.count_remote_row(e, &mut report);
                    self.replicas.miss(e, self.table);
                }
                self.scratch.replica_slots.push(replica);
            }
        }

        // One segment-grouped fetch for everything that needs the primary
        // table, scattered into the resolved-row scratch. Bit-identical to
        // per-row reads: no read writes the table, so the fetch order
        // cannot reach a byte.
        let nfetch = self.scratch.fetch(self.table, self.read_path);
        self.land(true, &mut report);
        if let Some(r) = &self.recorder {
            r.counter_add(names::HOTPATH_BATCH_READ_ROWS, nfetch as u64);
        }

        // Pass 2 — inter-embedding synchronisation, for a worker whose
        // replicas take part in it.
        if let Some(freq) = self.freq {
            if !matches!(self.bound, StalenessBound::Infinite) {
                self.sync_inter(samples, freq, &mut report);
            }
        }

        // Pass 3 — scatter resolved rows into the caller's buffer.
        self.scratch.scatter(out, dim);
        self.note_quant(report.remote_total());
        if let Some(r) = &self.recorder {
            r.counter_add(names::EMBED_READ_LOCAL_PRIMARY, report.local_primary);
            r.counter_add(names::EMBED_READ_LOCAL_FRESH, report.local_fresh);
            r.counter_add(names::EMBED_READ_REMOTE, report.remote_fetches);
            r.counter_add(names::EMBED_SYNC_INTRA, report.intra_syncs);
            self.replicas.record_read(r.as_ref(), &report);
        }
        self.record_pending();
        if let Some(t) = &self.tracer {
            let w = self.worker as usize;
            let [served, fetched] = Replicas::<D>::read_mix(&report);
            t.worker_instant(
                w,
                names::TRACE_READ,
                &[
                    ("local_primary", Json::U64(report.local_primary)),
                    (served.0, Json::U64(served.1)),
                    (fetched.0, Json::U64(fetched.1)),
                ],
            );
            for (kind, count) in [("intra", report.intra_syncs), ("inter", report.inter_syncs)] {
                if count > 0 {
                    t.worker_instant(
                        w,
                        names::TRACE_SYNC,
                        &[("kind", Json::from(kind)), ("count", Json::U64(count))],
                    );
                }
            }
        }
        report
    }

    /// Lands the batched fetch: a row that crossed the interconnect goes
    /// through the wire format (local-primary reads stay exact), the policy
    /// keeps what it replicates — a stale replica re-installed at the clock
    /// the read observed plus its own updates, their flush stashed; a missed
    /// row offered for admission — and `scatter` copies it into its slot.
    fn land(&mut self, scatter: bool, report: &mut ReadReport) {
        let dim = self.table.dim();
        for k in 0..self.scratch.fetch_ids.len() {
            let s = &mut self.scratch;
            let (e, landing) = (s.fetch_ids[k], s.fetch_landing[k]);
            let row = &mut s.fetch_buf[k * dim..(k + 1) * dim];
            if landing != Landing::Local {
                self.wire.format.transport(row);
            }
            match landing {
                Landing::Local => {}
                Landing::Miss => self.replicas.fill(e, row),
                Landing::Refresh => self.replicas.refresh(e, row, s.fetch_clocks[k]),
            }
            if scatter {
                s.rows[s.fetch_slots[k]..][..dim].copy_from_slice(row);
            }
            if landing == Landing::Refresh {
                self.stash_flush(e, report);
            }
        }
    }

    /// The inter-embedding pass (§5.3): within each sample, all pairs of
    /// *secondary* replicas must be mutually fresh under the clock
    /// normalised by the access frequencies `freq` (primaries and
    /// just-fetched rows are fresh by construction). Only the sample's
    /// replica-served fields are gathered — one indexed load per field — and
    /// paired, in field order; a sample with fewer than two costs O(fields).
    fn sync_inter(&mut self, samples: &[&[u32]], freq: &[u64], report: &mut ReadReport) {
        let dim = self.table.dim();
        // Zero frequencies are treated as one.
        let freq_of = |e: u32| freq[e as usize].max(1);
        let mut first = 0usize;
        for sample in samples {
            {
                let HotScratch {
                    lookups,
                    replica_slots,
                    sample_replicas,
                    ..
                } = &mut self.scratch;
                sample_replicas.clear();
                let uniqs = &lookups[first..first + sample.len()];
                first += sample.len();
                for (&id, &uniq) in sample.iter().zip(uniqs) {
                    let cache_slot = replica_slots[uniq as usize];
                    if cache_slot != ABSENT {
                        sample_replicas.push(SampleReplica {
                            id,
                            cache_slot,
                            uniq,
                        });
                    }
                }
            }
            let n = self.scratch.sample_replicas.len();
            for i in 0..n {
                for j in i + 1..n {
                    let a = self.scratch.sample_replicas[i];
                    let b = self.scratch.sample_replicas[j];
                    if a.id == b.id {
                        continue;
                    }
                    // Read per pair: a sync earlier in this sample moved
                    // its victim's clock.
                    let ca = self.replicas.clock_at(a.cache_slot as usize);
                    let cb = self.replicas.clock_at(b.cache_slot as usize);
                    // Orient so p_hot ≥ p_cold (paper: assume p_i ≥ p_j).
                    let (hot, cold, c_hot, c_cold) = if freq_of(a.id) >= freq_of(b.id) {
                        (a, b, ca, cb)
                    } else {
                        (b, a, cb, ca)
                    };
                    let p_hot = freq_of(hot.id) as f64;
                    let p_cold = freq_of(cold.id) as f64;
                    let gap = (c_hot as f64 * (p_cold / p_hot) - c_cold as f64).abs();
                    let tolerated = self.bound.tolerates(gap);
                    if let Some(a) = &self.auditor {
                        // A tolerated pair is served at the raw gap; a pair
                        // that triggers (or needs no) sync is content-fresh
                        // afterwards, so its served gap is 0.
                        let served = if tolerated { gap } else { 0.0 };
                        a.observe_inter(self.recorder.as_deref(), gap, served);
                    }
                    if tolerated {
                        continue;
                    }
                    // Sync whichever replica lags its own primary more. If
                    // neither lags, the normalised gap is a property of the
                    // *global* update counts (the primaries themselves
                    // differ in progress) — no replica sync can shrink it,
                    // so fetching would be a pure no-op cost.
                    let lag_hot = self.table.clock(hot.id).saturating_sub(c_hot);
                    let lag_cold = self.table.clock(cold.id).saturating_sub(c_cold);
                    if lag_hot == 0 && lag_cold == 0 {
                        continue;
                    }
                    let victim = if lag_hot >= lag_cold { hot } else { cold };
                    let slot = victim.uniq as usize * dim;
                    let buf = &mut self.scratch.rows[slot..slot + dim];
                    let clock = match self.read_path {
                        ReadPath::Snapshot => self.table.read_row_snapshot(victim.id, buf),
                        ReadPath::Locked => self.table.read_row(victim.id, buf),
                    };
                    self.wire.format.transport(buf);
                    self.replicas.refresh(victim.id, buf, clock);
                    self.stash_flush(victim.id, report);
                    report.inter_syncs += 1;
                    self.count_remote_row(victim.id, report);
                }
            }
        }
    }

    /// Applies per-lookup gradients for a batch. `samples` and `grads` are
    /// aligned with the corresponding [`Worker::read_batch`] call (`grads`
    /// is sample-major, `Σ len(sample) × dim` floats).
    ///
    /// Performs the paper's local reduction first (summing duplicate rows in
    /// the batch), then writes every reduced gradient to the row's primary;
    /// local replicas receive the same SGD-style delta and count a local
    /// update (their "stale gradient" copy).
    ///
    /// This is [`Worker::route_gradients`] with the apply half run at once,
    /// by this worker, for every owner — one segment-grouped `apply_grads`
    /// call. Concurrent callers must order themselves.
    pub fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        let mut ids = std::mem::take(&mut self.scratch.apply_ids);
        let mut buf = std::mem::take(&mut self.scratch.apply_buf);
        ids.clear();
        buf.clear();
        let report = self.route(samples, grads, opt, |_, e, g| {
            ids.push(e);
            buf.extend_from_slice(g);
        });
        if !ids.is_empty() {
            let HotScratch {
                batch,
                apply_clocks,
                ..
            } = &mut self.scratch;
            apply_clocks.clear();
            apply_clocks.resize(ids.len(), 0);
            self.table.apply_grads(&ids, &buf, opt, apply_clocks, batch);
        }
        self.scratch.apply_ids = ids;
        self.scratch.apply_buf = buf;
        report
    }

    /// The route half of the owner-ordered write phase (see the `writeback`
    /// module): reduces the batch's per-lookup gradients, decides each
    /// row's fate and bins what must reach a primary into this worker's
    /// outboxes of `exchange`, by owner. Touches no shared state — the
    /// owners apply after the step's reads-done rendezvous
    /// ([`WriteExchange::apply_owned`]) — and reports exactly what
    /// [`Worker::apply_gradients`] would.
    pub fn route_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
        exchange: &WriteExchange,
    ) -> UpdateReport {
        let mut out = exchange.route_from(self.worker as usize);
        self.route(samples, grads, opt, |owner, e, g| {
            out.push(owner as usize, e, g)
        })
    }

    /// The one routing implementation: the stashed sync flushes, then local
    /// reduction, then for every unique row in ascending id either
    /// `emit(owner, row, gradient)` — a local primary, an immediate
    /// write-back through the wire, or a deferred row's merged flush once
    /// it hits its budget — or a deferral into the replica's stale-gradient
    /// buffer. Emits each batch row at most once.
    fn route(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
        mut emit: impl FnMut(u32, u32, &[f32]),
    ) -> UpdateReport {
        let dim = self.table.dim();
        let total: usize = samples.iter().map(|s| s.len()).sum();
        assert_eq!(grads.len(), total * dim, "gradient buffer size mismatch");

        self.emit_stash(&mut emit);
        self.scratch.reduce(samples, grads, dim);

        let mut report = UpdateReport::default();
        let lr = opt.learning_rate();
        // Taken out so routing can call `&mut self` flushes alongside them.
        let ids = std::mem::take(&mut self.scratch.reduce_ids);
        let mut reduce_buf = std::mem::take(&mut self.scratch.reduce_buf);
        let mut delta = std::mem::take(&mut self.scratch.delta_buf);
        delta.clear();
        delta.resize(dim, 0.0);
        // Deferral budget: under a policy that defers, with a positive
        // staleness bound, gradients for locally-replicated rows are
        // *accumulated* in the secondary's stale-gradient buffer (paper §6)
        // and flushed as one merged write-back — this is what shrinks write
        // traffic as `s` grows (Figure 8's 2-D columns). The budget honours
        // the bound: a worker deferring `k` updates makes every *other*
        // replica miss up to `k` updates, and with `N−1` peers deferring
        // symmetrically a replica can miss `(N−1)·k`; keeping that within
        // `s` gives `k ≤ max(1, s/N)`.
        let n = self.part.num_partitions() as u64;
        let defer_threshold: Option<u64> = match self.bound {
            _ if !Replicas::<D>::DEFERS => None,
            StalenessBound::Bounded(0) => None,
            StalenessBound::Bounded(s) => Some((s / n).max(1)),
            StalenessBound::Infinite => Some(u64::MAX),
        };
        // Rows are distinct after reduction, so the order they are emitted
        // in cannot reach a stored bit; a row's stashed sync flush went
        // first, and its owner applies the two in that order.
        let mut wire_rows = 0u64;
        let mut flushed = 0u64;
        for &e in &ids {
            let slot = self.scratch.index.slot(e) * dim;
            let g = &mut reduce_buf[slot..slot + dim];
            let owner = self.part.primary_of(e);
            if owner == self.worker {
                emit(owner, e, g);
                report.local_updates += 1;
                continue;
            }
            let replicated = self.replicas.contains(e);
            if let (Some(threshold), true) = (defer_threshold, replicated) {
                // Mirror locally (uncounted — the clock advances at flush),
                // defer the primary write-back.
                for (d, &x) in delta.iter_mut().zip(g.iter()) {
                    *d = -lr * x;
                }
                let pending = self.replicas.defer(e, &delta, g);
                report.deferred += 1;
                if pending >= threshold && self.take_flush(e, &mut report) {
                    emit(owner, e, &self.scratch.row_buf);
                    report.remote_writebacks += 1;
                    flushed += 1;
                }
                continue;
            }
            // Immediate write-back (no replica, s = 0, or an eager policy),
            // through the wire; the local mirror applies the transported
            // value.
            if self.wire.push(e, g) {
                wire_rows += 1;
            }
            report.remote_writebacks += 1;
            self.count_remote_row(e, &mut report);
            if replicated {
                for (d, &x) in delta.iter_mut().zip(g.iter()) {
                    *d = -lr * x;
                }
                self.replicas.apply_local_delta(e, &delta);
            }
            emit(owner, e, g);
        }
        self.note_quant(wire_rows);
        if let Some(r) = &self.recorder {
            let direct = report.local_updates + report.remote_writebacks;
            r.counter_add(names::HOTPATH_BATCH_APPLY_ROWS, direct - flushed);
            r.counter_add(names::EMBED_UPDATE_DIRECT, direct);
            if Replicas::<D>::DEFERS {
                r.counter_add(names::EMBED_UPDATE_DEFERRED, report.deferred);
            }
        }
        self.record_pending();
        self.scratch.delta_buf = delta;
        self.scratch.reduce_buf = reduce_buf;
        self.scratch.reduce_ids = ids;
        if let Some(t) = &self.tracer {
            if report.deferred > 0 {
                t.worker_instant(
                    self.worker as usize,
                    names::TRACE_DEFER,
                    &[
                        ("deferred", Json::U64(report.deferred)),
                        (
                            "pending_rows",
                            Json::U64(self.replicas.pending_rows() as u64),
                        ),
                    ],
                );
            }
        }
        report
    }

    /// Emits the stashed sync flushes, in the order taken, and empties them.
    fn emit_stash(&mut self, emit: &mut impl FnMut(u32, u32, &[f32])) {
        let dim = self.table.dim();
        let HotScratch {
            stash_ids,
            stash_grads,
            ..
        } = &mut self.scratch;
        for (&e, g) in stash_ids.iter().zip(stash_grads.chunks_exact(dim)) {
            emit(self.part.primary_of(e), e, g);
        }
        stash_ids.clear();
        stash_grads.clear();
    }

    /// Moves row `e`'s pending gradient — one merged update — through the
    /// wire into `scratch.row_buf` and accounts the write-back into
    /// `report`. False when nothing was pending.
    fn take_flush(&mut self, e: u32, report: &mut impl Traffic) -> bool {
        let buf = &mut self.scratch.row_buf;
        if !self.replicas.take_pending(e, buf) {
            return false;
        }
        self.wire.push(e, buf);
        if let Some(r) = &self.recorder {
            r.counter_add(names::EMBED_FLUSH_ROWS, 1);
        }
        self.note_quant(1);
        self.count_remote_row(e, report);
        true
    }

    /// A sync re-installed row `e`: its pending gradient, if any, leaves
    /// now (the read `report` counts it) and waits in the stash.
    fn stash_flush(&mut self, e: u32, report: &mut ReadReport) {
        if self.take_flush(e, report) {
            let s = &mut self.scratch;
            s.stash_ids.push(e);
            s.stash_grads.extend_from_slice(&s.row_buf);
            if let Some(r) = &self.recorder {
                r.counter_add(names::EMBED_FLUSH_SYNC, 1);
            }
        }
    }

    /// Routes the stash, then every pending deferred gradient, into `exchange`
    /// (epoch and evaluation barriers). Returns the write-backs' accounting.
    pub fn flush_all(&mut self, exchange: &WriteExchange) -> UpdateReport {
        let mut out = exchange.route_from(self.worker as usize);
        self.emit_stash(&mut |owner, e, g| out.push(owner as usize, e, g));
        let mut report = UpdateReport::default();
        for e in self.replicas.rows_with_pending() {
            if self.take_flush(e, &mut report) {
                out.push(self.part.primary_of(e) as usize, e, &self.scratch.row_buf);
                report.remote_writebacks += 1;
            }
        }
        self.record_pending();
        report
    }

    /// Re-primes every replica the worker currently holds from the
    /// authoritative table, through the wire format (evaluation and epoch
    /// barriers, a change of format, crash recovery). Returns the rows
    /// synced from each primary owner, indexed by partition.
    pub fn sync_all(&mut self) -> Vec<u64> {
        // One segment-grouped read: a re-prime runs at a barrier, where
        // the locked batch read is all any store needs.
        self.scratch.fetch_ids.clear();
        self.scratch
            .fetch_ids
            .extend_from_slice(self.replicas.rows());
        // In ascending id, whatever the slot order.
        self.scratch.fetch_ids.sort_unstable();
        self.scratch.fetch_landing.clear();
        self.scratch
            .fetch_landing
            .resize(self.scratch.fetch_ids.len(), Landing::Refresh);
        let n = self.scratch.fetch(self.table, ReadPath::Locked);
        // (At a barrier `flush_all` ran first: nothing is pending.)
        self.land(false, &mut ReadReport::default());
        // A full refresh is a sync point: error-feedback residuals are
        // superseded by the re-prime, and clearing them here makes a
        // checkpoint-resumed run (fresh residuals) bit-match an
        // uninterrupted one.
        self.wire.feedback.clear();
        self.note_quant(n as u64);
        let mut per_owner = vec![0u64; self.part.num_partitions()];
        for &e in &self.scratch.fetch_ids {
            per_owner[self.part.primary_of(e) as usize] += 1;
        }
        per_owner
    }

    /// Crash recovery: pending deferred gradients lived in (simulated)
    /// device memory and die with the worker — they are *discarded*, not
    /// flushed — then every replica is re-primed from the authoritative
    /// table (which the trainer has already rolled back to the checkpoint).
    /// Returns the rows re-fetched from each primary owner.
    pub fn recover_from_crash(&mut self) -> Vec<u64> {
        for e in self.replicas.rows_with_pending() {
            self.replicas.take_pending(e, &mut self.scratch.row_buf);
        }
        self.scratch.stash_ids.clear();
        self.scratch.stash_grads.clear();
        self.record_pending();
        self.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 workers, 4 embeddings (dim 2). Primaries: 0,1 on worker 0; 2,3 on
    /// worker 1. Worker 0 holds a secondary of 2; worker 1 a secondary of 0.
    fn setup(_table: &ShardedTable) -> Partition {
        let mut p = Partition::new(2, vec![0, 1], vec![0, 0, 1, 1]);
        p.add_replica(2, 0);
        p.add_replica(0, 1);
        p
    }

    fn freq4() -> Vec<u64> {
        vec![10, 5, 10, 5]
    }

    /// The barrier flush over `setup`'s two workers: `w` routes, both
    /// owners apply.
    fn flush(w: &mut WorkerEmbedding, table: &ShardedTable, opt: &SparseOpt) -> UpdateReport {
        let exchange = WriteExchange::new(2);
        let report = w.flush_all(&exchange);
        for owner in 0..2 {
            exchange.apply_owned(owner, table, opt);
        }
        report
    }

    #[test]
    fn local_primary_reads_free() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[0, 1]];
        let mut out = vec![0.0; 4];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.local_primary, 2);
        assert_eq!(r.remote_total(), 0);
        assert_eq!(r.data_bytes, 0);
    }

    #[test]
    fn secondary_fresh_within_bound() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(5));
        assert_eq!(w0.num_secondaries(), 1);
        // Another worker updates embedding 2 three times (gap 3 ≤ 5).
        for _ in 0..3 {
            table.apply_grad(2, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        }
        let samples: Vec<&[u32]> = vec![&[2]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.local_fresh, 1);
        assert_eq!(r.intra_syncs, 0);
        assert!(r.meta_bytes > 0); // clock check still exchanged metadata
                                   // Cache value is the stale (pre-update) one: 0.0.
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn intra_sync_fires_beyond_bound() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(2));
        for _ in 0..3 {
            table.apply_grad(2, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        }
        let samples: Vec<&[u32]> = vec![&[2]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 1);
        assert!(r.data_bytes > 0);
        assert!((out[0] + 0.3).abs() < 1e-6); // fresh value −3·0.1
                                              // Second read is fresh again.
        let r2 = w0.read_batch(&samples, &mut out);
        assert_eq!(r2.local_fresh, 1);
        assert_eq!(r2.intra_syncs, 0);
    }

    #[test]
    fn s_zero_always_syncs() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        table.apply_grad(2, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        let samples: Vec<&[u32]> = vec![&[2]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 1);
    }

    #[test]
    fn infinite_never_syncs() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Infinite);
        for _ in 0..1000 {
            table.apply_grad(2, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        }
        let samples: Vec<&[u32]> = vec![&[2]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.local_fresh, 1);
        assert_eq!(r.remote_total(), 0);
        assert_eq!(r.meta_bytes, 0);
        assert_eq!(out, vec![0.0, 0.0]); // arbitrarily stale
    }

    #[test]
    fn remote_fetch_when_no_replica() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        // Worker 0 has no replica of embedding 3.
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[3]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.remote_fetches, 1);
        assert_eq!(r.data_bytes, 8);
    }

    #[test]
    fn duplicate_ids_resolved_once() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[3, 3], &[3]];
        let mut out = vec![0.0; 6];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.remote_fetches, 1, "batch dedup failed");
        assert_eq!(r.lookups(), 1);
    }

    #[test]
    fn inter_sync_on_divergent_replicas() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let mut part = Partition::new(2, vec![0, 1], vec![1, 1, 1, 1]);
        part.add_replica(0, 0);
        part.add_replica(2, 0);
        // freq: emb0 hot (100), emb2 cold (1).
        let freq = vec![100, 1, 1, 1];
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(3));
        // Other worker updates emb0 120 times; worker 0's secondary of 0 has
        // effective clock 0 → intra gap 120 (would sync via intra anyway);
        // to isolate the inter check, first sync emb0, then update emb2 a
        // few times beyond its normalised allowance.
        for _ in 0..120 {
            table.apply_grad(0, &[0.1, 0.0], &SparseOpt::sgd(0.1));
        }
        w0.sync_all(); // emb0 clock 120, emb2 clock 0
                       // Now: c_hot(emb0)=120, p_hot=100; c_cold(emb2)=0, p_cold=1.
                       // Normalised gap = |120·(1/100) − 0| = 1.2 ≤ 3 → fresh.
        let samples: Vec<&[u32]> = vec![&[0, 2]];
        let mut out = vec![0.0; 4];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.inter_syncs, 0, "{r:?}");
        // Update emb0 another 400 times and emb2 twice (within its intra
        // bound): the normalised pair gap is 5.2 > 3 → the inter check
        // fires, and emb2 (the replica that actually lags its primary) is
        // the sync victim.
        for _ in 0..400 {
            table.apply_grad(0, &[0.1, 0.0], &SparseOpt::sgd(0.1));
        }
        for _ in 0..2 {
            table.apply_grad(2, &[0.1, 0.0], &SparseOpt::sgd(0.1));
        }
        // emb0's intra gap is 400 > 3 so it syncs intra first; emb2's gap of
        // 2 passes intra; the pair check compares 520/100 ≈ 5.2 vs emb2's 0
        // → inter sync of emb2.
        let r2 = w0.read_batch(&samples, &mut out);
        assert_eq!(r2.intra_syncs, 1);
        assert_eq!(r2.inter_syncs, 1, "{r2:?}");
        // A pair that is inconsistent only in *global* progress (both
        // replicas fresh) must NOT trigger wasted syncs.
        let r3 = w0.read_batch(&samples, &mut out);
        assert_eq!(r3.inter_syncs, 0, "{r3:?}");
    }

    #[test]
    fn apply_gradients_reduces_and_routes() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(10));
        // Sample 0 uses emb 0 twice and emb 3 once.
        let samples: Vec<&[u32]> = vec![&[0, 0, 3]];
        let grads = vec![1.0, 0.0, 1.0, 0.0, 2.0, 2.0];
        let r = w0.apply_gradients(&samples, &grads, &SparseOpt::sgd(0.1));
        assert_eq!(r.local_updates, 1); // emb 0 (primary on worker 0)
        assert_eq!(r.remote_writebacks, 1); // emb 3 (primary on worker 1)
                                            // emb0 received the *reduced* gradient (1+1, 0+0) in one update.
        assert_eq!(table.clock(0), 1);
        let mut row = vec![0.0; 2];
        table.read_row(0, &mut row);
        assert!((row[0] + 0.2).abs() < 1e-6);
    }

    #[test]
    fn own_updates_do_not_count_as_staleness() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        // Worker 0 updates its own secondary (emb 2) repeatedly; with s = 0,
        // reads must still be local because the replica mirrors its own
        // write-backs (gap counts only *missed* updates).
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![1.0, 1.0];
        for _ in 0..5 {
            w0.apply_gradients(&samples, &grads, &SparseOpt::sgd(0.1));
        }
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 0, "{r:?}");
        assert_eq!(r.local_fresh, 1);
        // And the mirrored value matches the primary exactly (SGD mirror).
        let mut primary = vec![0.0; 2];
        table.read_row(2, &mut primary);
        assert_eq!(out, primary);
    }

    #[test]
    fn deferred_writeback_batches_updates() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        // s = 6 over 2 partitions: deferral budget = s/N = 3 batches, then
        // the pending gradients flush as ONE merged primary update.
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(6));
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![1.0, 0.0];
        let opt = SparseOpt::sgd(0.1);
        let r1 = w0.apply_gradients(&samples, &grads, &opt);
        assert_eq!(r1.deferred, 1);
        assert_eq!(r1.remote_writebacks, 0);
        assert_eq!(r1.data_bytes, 0);
        assert_eq!(
            table.clock(2),
            0,
            "primary must not see deferred updates yet"
        );
        let r2 = w0.apply_gradients(&samples, &grads, &opt);
        assert_eq!(r2.remote_writebacks, 0);
        let r3 = w0.apply_gradients(&samples, &grads, &opt);
        assert_eq!(
            r3.remote_writebacks, 1,
            "third update hits the flush threshold"
        );
        assert!(r3.data_bytes > 0);
        assert_eq!(table.clock(2), 1, "flush is one merged update");
        let mut row = vec![0.0; 2];
        table.read_row(2, &mut row);
        assert!((row[0] + 0.3).abs() < 1e-6, "merged gradient 3·1.0·lr");
        // Local mirror matches the primary exactly (SGD).
        let mut out = vec![0.0; 2];
        w0.read_batch(&samples, &mut out);
        assert_eq!(out, row);
    }

    #[test]
    fn flush_all_drains_pending() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(100));
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![2.0, 0.0];
        let opt = SparseOpt::sgd(0.1);
        w0.apply_gradients(&samples, &grads, &opt);
        w0.apply_gradients(&samples, &grads, &opt);
        let rep = flush(&mut w0, &table, &opt);
        assert_eq!(rep.remote_writebacks, 1);
        assert_eq!(table.clock(2), 1);
        let mut row = vec![0.0; 2];
        table.read_row(2, &mut row);
        assert!((row[0] + 0.4).abs() < 1e-6);
        // Nothing left to flush.
        assert_eq!(flush(&mut w0, &table, &opt).remote_writebacks, 0);
    }

    #[test]
    fn intra_sync_flushes_pending_first() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(2));
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![1.0, 0.0];
        let opt = SparseOpt::sgd(0.1);
        // One deferred local update, then three updates by another worker →
        // intra gap exceeds 2 → sync; the served value must still include
        // our pending update.
        w0.apply_gradients(&samples, &grads, &opt);
        for _ in 0..3 {
            table.apply_grad(2, &[1.0, 0.0], &opt);
        }
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 1);
        // Value includes all four updates: −0.4.
        assert!((out[0] + 0.4).abs() < 1e-6, "got {}", out[0]);
    }

    #[test]
    fn sync_leaves_the_table_alone_and_routes_its_flush() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let opt = SparseOpt::adagrad(0.1);
        // s = 4 over 2 workers: a budget of 2, so one update stays pending.
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(4));
        let samples: Vec<&[u32]> = vec![&[2]];
        w0.apply_gradients(&samples, &[0.5, -1.0], &opt);
        assert_eq!(w0.pending_count(2), 1);
        let mut mirror = [0.0f32; 2];
        w0.replicas.read(2, &mut mirror); // the pending delta, on a zero row
        for _ in 0..5 {
            table.apply_grad(2, &[1.0, 0.25], &opt);
        }
        let mut primary = [0.0f32; 2];
        let clock = table.read_row(2, &mut primary);

        let mut out = [0.0f32; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 1);
        // The read wrote nothing: the primary is as the peer left it.
        let mut after = [0.0f32; 2];
        assert_eq!(table.read_row(2, &mut after), clock);
        assert_eq!(after, primary);
        // It served the fetched primary plus its own pending delta, and the
        // replica counts the flush in flight as its own update.
        assert_eq!(out, [primary[0] + mirror[0], primary[1] + mirror[1]]);
        assert_eq!(w0.pending_count(2), 0);
        assert_eq!(w0.replica_clock(2), Some(clock + 1));

        // The flush travels with the step's write-back to the owner, ahead
        // of the batch's own (deferred again) gradient.
        let exchange = WriteExchange::new(2);
        let up = w0.route_gradients(&samples, &[0.5, -1.0], &opt, &exchange);
        assert_eq!(up.deferred, 1);
        assert_eq!(table.clock(2), clock, "routing touches nothing shared");
        assert_eq!(exchange.apply_owned(1, &table, &opt), 1);
        assert_eq!(table.clock(2), clock + 1);
        assert_eq!(Some(table.clock(2)), w0.replica_clock(2));
    }

    #[test]
    fn inter_sync_victim_routes_its_flush() {
        // Worker 0 replicates the hot row 0 and the cold row 2, both owned
        // by worker 1; s = 4 gives a budget of 2, so one update of row 2
        // stays pending.
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let mut part = Partition::new(2, vec![0, 1], vec![1, 1, 1, 1]);
        part.add_replica(0, 0);
        part.add_replica(2, 0);
        let freq = vec![100, 1, 1, 1];
        let opt = SparseOpt::sgd(0.1);
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(4));
        w0.apply_gradients(&[&[2]], &[1.0, -1.0], &opt);
        assert_eq!(w0.pending_count(2), 1);
        // Row 0 runs 600 updates ahead (intra sync), row 2 two (fresh):
        // the pair's normalised gap 600/100 − 0 = 6 > 4 makes row 2, the
        // replica that lags its primary, the victim.
        for _ in 0..600 {
            table.apply_grad(0, &[0.1, 0.0], &opt);
        }
        for _ in 0..2 {
            table.apply_grad(2, &[0.25, 0.5], &opt);
        }
        let mut primary = [0.0f32; 2];
        table.read_row(2, &mut primary);
        let samples: Vec<&[u32]> = vec![&[0, 2]];
        let mut out = vec![0.0; 4];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!((r.intra_syncs, r.inter_syncs), (1, 1), "{r:?}");
        assert_eq!(table.clock(2), 2, "the sync wrote nothing");
        assert_eq!(out[2..], [primary[0] - 0.1, primary[1] + 0.1]);
        assert_eq!(w0.replica_clock(2), Some(3));
        // A write phase with nothing of its own still carries the flush.
        let exchange = WriteExchange::new(2);
        w0.route_gradients(&[], &[], &opt, &exchange);
        assert_eq!(exchange.apply_owned(1, &table, &opt), 1);
        assert_eq!(Some(table.clock(2)), w0.replica_clock(2));
    }

    #[test]
    fn recover_from_crash_discards_pending_and_refreshes() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(100));
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![1.0, 0.0];
        let opt = SparseOpt::sgd(0.1);
        // Two deferred updates die with the "device"; a peer's update lands
        // at the primary.
        w0.apply_gradients(&samples, &grads, &opt);
        w0.apply_gradients(&samples, &grads, &opt);
        table.apply_grad(2, &[1.0, 0.0], &opt);
        let refreshed = w0.recover_from_crash();
        assert_eq!(refreshed, [0, 1]); // one secondary replica re-primed, from its owner
                                       // The discarded gradients never reach the primary...
        assert_eq!(table.clock(2), 1);
        // ...and the local replica now mirrors the primary exactly.
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.local_fresh, 1);
        let mut primary = vec![0.0; 2];
        table.read_row(2, &mut primary);
        assert_eq!(out, primary);
        // Nothing pending remains.
        assert_eq!(flush(&mut w0, &table, &opt).remote_writebacks, 0);
    }

    #[test]
    fn pending_rows_gauge_counts_the_rows_holding_gradients() {
        // Worker 0 replicates every row it does not own. s = 8 over two
        // workers is a budget of 4, so gradients wait a few batches; peers'
        // bursts make reads sync (and flush) some of them.
        let (rows, dim) = (48usize, 2usize);
        let mut state = 0x5EED_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let primaries: Vec<u32> = (0..rows).map(|_| below(2) as u32).collect();
        let mut part = Partition::new(2, vec![0, 1], primaries.clone());
        for e in (0..rows as u32).filter(|&e| primaries[e as usize] != 0) {
            part.add_replica(e, 0);
        }
        let freq = vec![1u64; rows];
        let opt = SparseOpt::sgd(0.1);
        let table = ShardedTable::new(rows, dim, 0.1, 7);
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(8));
        let recorder = Arc::new(hetgmp_telemetry::Recorder::new());
        w0.attach_recorder(recorder.clone());
        let check = |w: &WorkerEmbedding, what: &str, step: usize| -> usize {
            let holding = (0..rows as u32).filter(|&e| w.pending_count(e) > 0).count();
            let gauge = recorder.snapshot().gauge(names::EMBED_PENDING_ROWS);
            assert_eq!(gauge, Some(holding as f64), "after {what}, step {step}");
            holding
        };
        let (mut most, mut discarded) = (0, 0);
        for step in 0..200 {
            for _ in 0..below(4) {
                let e = below(rows) as u32;
                for _ in 0..1 + below(12) {
                    table.apply_grad(e, &[0.25, -0.5], &opt);
                }
            }
            let ids: Vec<u32> = (0..1 + below(12)).map(|_| below(rows) as u32).collect();
            let samples: Vec<&[u32]> = vec![&ids];
            let mut out = vec![0.0f32; ids.len() * dim];
            w0.read_batch(&samples, &mut out);
            let holding = check(&w0, "read", step);
            most = most.max(holding);
            let exchange = WriteExchange::new(2);
            let what = match below(8) {
                0 => {
                    w0.flush_all(&exchange);
                    "flush_all"
                }
                1 => {
                    discarded += holding;
                    w0.recover_from_crash();
                    "recover_from_crash"
                }
                _ => {
                    let grads: Vec<f32> = (0..ids.len() * dim)
                        .map(|_| below(2001) as f32 / 1000.0 - 1.0)
                        .collect();
                    w0.route_gradients(&samples, &grads, &opt, &exchange);
                    "route"
                }
            };
            for owner in 0..2 {
                exchange.apply_owned(owner, &table, &opt);
            }
            most = most.max(check(&w0, what, step));
        }
        assert!(most > 1, "at most {most} rows ever held gradients");
        assert!(discarded > 0, "no crash discarded a gradient");
    }

    #[test]
    fn sync_format_changes_wire_accounting() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(10));
        w0.set_sync_format(SyncFormat::Int8, true);
        let samples: Vec<&[u32]> = vec![&[3]];
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.remote_fetches, 1);
        assert_eq!(r.data_bytes, 2 + 4, "dim int8 payload + one f32 scale");
    }

    #[test]
    fn lossy_mirror_tracks_transported_writeback() {
        // s = 0 → immediate write-backs; the mirror applies the
        // *transported* gradient, so it matches the primary bit-for-bit
        // even under int8 with error feedback.
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        w0.set_sync_format(SyncFormat::Int8, true);
        let samples: Vec<&[u32]> = vec![&[2]];
        let grads = vec![0.37, -1.21];
        for _ in 0..5 {
            w0.apply_gradients(&samples, &grads, &SparseOpt::sgd(0.1));
        }
        let mut out = vec![0.0; 2];
        let r = w0.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 0, "{r:?}");
        let mut primary = vec![0.0; 2];
        table.read_row(2, &mut primary);
        assert_eq!(out, primary);
    }

    #[test]
    fn error_feedback_preserves_tiny_gradients() {
        // A gradient far below one int8 step still lands eventually when
        // feedback accumulates residuals; without feedback every push
        // quantizes to zero... unless the row's own max sets the scale.
        // Use a row whose second component pins the scale.
        use hetgmp_comms::ErrorFeedback;
        let mut fb = ErrorFeedback::new();
        let mut acc = 0.0f64;
        for _ in 0..200 {
            let mut g = vec![0.001f32, 1.0];
            fb.compensate_and_transport(SyncFormat::Int8, 7, &mut g);
            acc += g[0] as f64;
        }
        assert!((acc - 0.2).abs() < 0.01, "accumulated {acc}");
    }

    #[test]
    fn batch_resolver_generation_wrap_is_invisible() {
        // Two workers over twin tables run the same read/apply sequence; one
        // starts its resolver three batches short of the u32 wrap, so stamps
        // written before the wrap are still in the index after it.
        let tables = [
            ShardedTable::new(4, 2, 0.1, 9),
            ShardedTable::new(4, 2, 0.1, 9),
        ];
        let part = setup(&tables[0]);
        let freq = freq4();
        let mut workers: Vec<_> = tables
            .iter()
            .map(|t| WorkerEmbedding::new(0, t, &part, &freq, StalenessBound::Bounded(1)))
            .collect();
        workers[1].scratch.index.set_generation(u32::MAX - 3);
        let batches: [&[u32]; 4] = [&[0, 2, 2, 3], &[1], &[3, 1, 0], &[2, 0]];
        let opt = SparseOpt::sgd(0.1);
        for ids in batches.iter().cycle().take(12) {
            let samples = [*ids];
            let grads = vec![0.25f32; ids.len() * 2];
            let mut outs = [vec![0.0f32; ids.len() * 2], vec![0.0f32; ids.len() * 2]];
            let reads: Vec<_> = workers
                .iter_mut()
                .zip(outs.iter_mut())
                .map(|(w, out)| w.read_batch(&samples, out))
                .collect();
            assert_eq!(reads[0], reads[1]);
            assert_eq!(outs[0], outs[1]);
            let updates: Vec<_> = workers
                .iter_mut()
                .map(|w| w.apply_gradients(&samples, &grads, &opt))
                .collect();
            assert_eq!(updates[0], updates[1]);
        }
        for e in 0..4 {
            assert_eq!(tables[0].clock(e), tables[1].clock(e));
        }
    }

    #[test]
    fn sync_all_refreshes() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let freq = freq4();
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Infinite);
        table.apply_grad(2, &[1.0, 0.0], &SparseOpt::sgd(0.5));
        assert_eq!(w0.sync_all(), [0, 1]);
        let samples: Vec<&[u32]> = vec![&[2]];
        let mut out = vec![0.0; 2];
        w0.read_batch(&samples, &mut out);
        assert!((out[0] + 0.5).abs() < 1e-6);
    }
}
