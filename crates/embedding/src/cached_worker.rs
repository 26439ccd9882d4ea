//! A HET-style worker view: dynamic LFU caching instead of static
//! vertex-cut replicas.
//!
//! This is the predecessor architecture the paper compares against in
//! spirit (§3: HET's "embedding-cache-enabled architecture with
//! fine-grained consistency"): rows are cached on first use by observed
//! frequency, consistency is per-embedding clock-bounded (*intra* only — the
//! graph-based *inter*-embedding synchronisation is exactly what HET-GMP
//! adds on top). Sharing `ReadReport`/`UpdateReport` with
//! [`crate::WorkerEmbedding`] makes the two designs directly comparable on
//! one substrate (see the `cache_comparison` ablation in `hetgmp-core`).

use std::sync::Arc;

use hetgmp_comms::{ErrorFeedback, SyncFormat};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, Json, ProtocolAuditor, Recorder, TraceCollector};

use crate::lfu::LfuCache;
use crate::report::{ReadReport, UpdateReport, META_ENTRY_BYTES};
use crate::sparse_optim::SparseOpt;
use crate::store::{ReadPath, RowStore};
#[cfg(test)]
use crate::table::ShardedTable;
use crate::worker::{HotScratch, StalenessBound};

/// What to do with a fetched row once the shard-grouped read lands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FillAction {
    /// Scatter to the output only (local primary).
    None,
    /// Re-install into the cache at the observed clock (staleness sync).
    Refresh,
    /// Fill a row already admitted with placeholder data.
    Admit,
}

/// One worker's dynamically-cached embedding interface.
pub struct CachedWorkerEmbedding<'a> {
    worker: u32,
    table: &'a dyn RowStore,
    part: &'a Partition,
    bound: StalenessBound,
    cache: LfuCache,
    scratch: HotScratch,
    /// Per-fetch cache action, aligned with `scratch.fetch_ids`.
    fill_actions: Vec<FillAction>,
    /// Wire format for inter-worker embedding payloads.
    format: SyncFormat,
    /// Whether lossy gradient pushes carry error feedback.
    feedback_on: bool,
    /// Per-row quantization residuals (push direction only).
    feedback: ErrorFeedback,
    /// Cached `format.row_wire_bytes(dim)`.
    row_bytes: u64,
    /// Which table read path the fill planner's fetches go through.
    read_path: ReadPath,
    recorder: Option<Arc<dyn Recorder>>,
    auditor: Option<Arc<ProtocolAuditor>>,
    tracer: Option<Arc<TraceCollector>>,
}

impl<'a> CachedWorkerEmbedding<'a> {
    /// Creates the view with an empty cache of `capacity` rows.
    pub fn new(
        worker: u32,
        table: &'a dyn RowStore,
        part: &'a Partition,
        capacity: usize,
        bound: StalenessBound,
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
            cache: LfuCache::new(table.dim(), capacity),
            scratch: HotScratch::new(table.num_rows(), table.dim()),
            fill_actions: Vec::new(),
            format: SyncFormat::F32,
            feedback_on: true,
            feedback: ErrorFeedback::new(),
            row_bytes: SyncFormat::F32.row_wire_bytes(table.dim()),
            read_path: ReadPath::default(),
            recorder: None,
            auditor: None,
            tracer: None,
        }
    }

    /// Selects which table read path the LFU fill planner's fetches use.
    /// Bit-identical either way (a consistent snapshot returns exactly the
    /// locked read's bytes).
    pub fn set_read_path(&mut self, path: ReadPath) {
        self.read_path = path;
    }

    /// Selects the wire format for inter-worker embedding payloads (see
    /// `WorkerEmbedding::set_sync_format`). Re-primes any already-cached
    /// rows through the new format.
    pub fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        self.format = format;
        self.feedback_on = error_feedback;
        self.feedback.clear();
        self.row_bytes = format.row_wire_bytes(self.table.dim());
        if !format.is_lossless() {
            self.recover_from_crash();
        }
    }

    /// Counts `rows` quantized payload rows into the `comms.quant.*`
    /// metrics (no-op for lossless formats).
    fn note_quant(&self, rows: u64) {
        if rows == 0 || self.format.is_lossless() {
            return;
        }
        if let Some(r) = &self.recorder {
            let raw = (self.table.dim() * 4) as u64;
            r.counter_add(names::COMMS_QUANT_ROWS, rows);
            r.counter_add(
                names::COMMS_QUANT_BYTES_SAVED,
                rows * raw.saturating_sub(self.row_bytes),
            );
        }
    }

    /// Attaches a telemetry recorder; reads, cache hits/misses and updates
    /// are counted into the `embedding.*` metrics from then on.
    pub fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Attaches a protocol auditor; the per-row intra staleness decisions
    /// (this design's only consistency check) are reported to it.
    pub fn attach_auditor(&mut self, auditor: Arc<ProtocolAuditor>) {
        self.auditor = Some(auditor);
    }

    /// Attaches a trace collector; per-batch read-mix instants are emitted
    /// on this worker's track at the `sync` level.
    pub fn attach_tracer(&mut self, tracer: Arc<TraceCollector>) {
        self.tracer = Some(tracer);
    }

    /// Rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.cache.len()
    }

    /// Crash recovery: re-primes every cached row from the authoritative
    /// table (the dynamic cache holds no deferred gradients — write-backs
    /// are eager — so nothing is lost, but cached values may predate a
    /// table rollback). Returns the number of rows re-fetched.
    pub fn recover_from_crash(&mut self) -> u64 {
        let dim = self.table.dim();
        let format = self.format;
        self.scratch.fetch_ids.clear();
        self.scratch.fetch_ids.extend(self.cache.cached_ids());
        // One shard-grouped (locked) read for the whole cache: recovery
        // runs at a barrier, so there is no contention to dodge and the
        // amortised lock path is the cheap one.
        let n = self.scratch.fetch(self.table, ReadPath::Locked);
        let HotScratch {
            fetch_ids,
            fetch_buf,
            fetch_clocks,
            ..
        } = &mut self.scratch;
        for (k, row) in fetch_buf.chunks_exact_mut(dim).enumerate() {
            format.transport(row);
            self.cache.refresh(fetch_ids[k], row, fetch_clocks[k]);
        }
        // A full re-prime supersedes any error-feedback residuals.
        self.feedback.clear();
        self.note_quant(n as u64);
        n as u64
    }

    /// Which telemetry hooks are attached: `(recorder, auditor, tracer)`.
    pub fn hooks_attached(&self) -> (bool, bool, bool) {
        (
            self.recorder.is_some(),
            self.auditor.is_some(),
            self.tracer.is_some(),
        )
    }

    /// Reads a batch under intra-embedding bounded staleness with dynamic
    /// admission.
    pub fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        let dim = self.table.dim();
        let total: usize = samples.iter().map(|s| s.len()).sum();
        assert_eq!(out.len(), total * dim, "output buffer size mismatch");
        let mut report = ReadReport::default();
        self.scratch.begin_read();

        // Classification runs strictly in batch order — LFU touches and
        // admission decisions are stateful, so they stay at decision time —
        // while the primary-table reads are collected and fetched in one
        // shard-grouped call. Missed rows are admitted with placeholder data
        // (identical victim selection) and filled when the fetch lands.
        self.fill_actions.clear();
        for sample in samples {
            for &e in *sample {
                let Some(slot) = self.scratch.resolve(e, dim) else {
                    continue;
                };
                self.cache.touch(e);
                if self.part.primary_of(e) == self.worker {
                    self.scratch.fetch_ids.push(e);
                    self.scratch.fetch_slots.push(slot);
                    self.fill_actions.push(FillAction::None);
                    report.local_primary += 1;
                } else if self.cache.contains(e) {
                    let fresh = match self.bound {
                        StalenessBound::Infinite => {
                            if let Some(a) = &self.auditor {
                                // ASP drift: served as-is at the raw gap.
                                let gap = self.table.clock(e).saturating_sub(
                                    self.cache.effective_clock(e).expect("cached"),
                                ) as f64;
                                a.observe_intra(self.recorder.as_deref(), gap, gap);
                            }
                            true
                        }
                        StalenessBound::Bounded(_) => {
                            report.meta_bytes += META_ENTRY_BYTES;
                            let gap = self
                                .table
                                .clock(e)
                                .saturating_sub(self.cache.effective_clock(e).expect("cached"));
                            let fresh =
                                matches!(self.bound, StalenessBound::Bounded(s) if gap <= s);
                            if let Some(a) = &self.auditor {
                                let served = if fresh { gap as f64 } else { 0.0 };
                                a.observe_intra(self.recorder.as_deref(), gap as f64, served);
                            }
                            fresh
                        }
                    };
                    if fresh {
                        self.cache
                            .read(e, &mut self.scratch.rows[slot..slot + dim]);
                        report.local_fresh += 1;
                    } else {
                        self.scratch.fetch_ids.push(e);
                        self.scratch.fetch_slots.push(slot);
                        self.fill_actions.push(FillAction::Refresh);
                        report.intra_syncs += 1;
                        report.data_bytes += self.row_bytes;
                        report.add_src_bytes(
                            self.part.primary_of(e),
                            self.row_bytes,
                            self.part.num_partitions(),
                        );
                        report.messages += 1;
                    }
                } else {
                    self.scratch.fetch_ids.push(e);
                    self.scratch.fetch_slots.push(slot);
                    self.fill_actions.push(FillAction::Admit);
                    report.remote_fetches += 1;
                    report.data_bytes += self.row_bytes;
                    report.add_src_bytes(
                        self.part.primary_of(e),
                        self.row_bytes,
                        self.part.num_partitions(),
                    );
                    report.meta_bytes += META_ENTRY_BYTES;
                    report.messages += 1;
                    // Dynamic admission: the fetch already paid the traffic.
                    // Admission happens *now* (placeholder values, clock as
                    // observed here) so LFU victim selection matches the
                    // per-row order exactly; the data fills in below.
                    let clock = self.table.clock(e);
                    self.scratch.row_buf.fill(0.0);
                    self.cache.admit(e, &self.scratch.row_buf, clock);
                }
            }
        }

        // One shard-grouped fetch, scattered to the output scratch; synced
        // rows re-install at the clock observed by the read, admitted rows
        // fill their placeholder (a no-op if a later admission in the same
        // batch already evicted them).
        let nfetch = self.scratch.fetch(self.table, self.read_path);
        {
            let format = self.format;
            let HotScratch {
                rows,
                fetch_ids,
                fetch_slots,
                fetch_buf,
                fetch_clocks,
                ..
            } = &mut self.scratch;
            for (k, row) in fetch_buf.chunks_exact_mut(dim).enumerate() {
                let slot = fetch_slots[k];
                // Refresh/Admit rows crossed the interconnect; local
                // primaries (None) stay exact.
                if self.fill_actions[k] != FillAction::None {
                    format.transport(row);
                }
                rows[slot..slot + dim].copy_from_slice(row);
                match self.fill_actions[k] {
                    FillAction::None => {}
                    // A later admission in the same batch may have evicted a
                    // sync victim — the per-row order refreshed it first and
                    // evicted it after, landing in the same final state.
                    FillAction::Refresh => {
                        if self.cache.contains(fetch_ids[k]) {
                            self.cache.refresh(fetch_ids[k], row, fetch_clocks[k]);
                        }
                    }
                    FillAction::Admit => {
                        self.cache.fill(fetch_ids[k], row);
                    }
                }
            }
        }
        if let Some(r) = &self.recorder {
            r.counter_add(names::HOTPATH_BATCH_READ_ROWS, nfetch as u64);
        }
        self.note_quant(report.intra_syncs + report.remote_fetches);

        self.scratch.scatter(out, dim);
        if let Some(r) = &self.recorder {
            r.counter_add(names::EMBED_READ_LOCAL_PRIMARY, report.local_primary);
            r.counter_add(names::EMBED_READ_LOCAL_FRESH, report.local_fresh);
            r.counter_add(names::EMBED_READ_REMOTE, report.remote_fetches);
            r.counter_add(names::EMBED_SYNC_INTRA, report.intra_syncs);
            // For the dynamic cache a fresh or refreshed row is a hit; only a
            // full fetch-and-admit is a miss.
            r.counter_add(
                names::EMBED_CACHE_HIT,
                report.local_fresh + report.intra_syncs,
            );
            r.counter_add(names::EMBED_CACHE_MISS, report.remote_fetches);
        }
        if let Some(t) = &self.tracer {
            let w = self.worker as usize;
            t.worker_instant(
                w,
                names::TRACE_READ,
                &[
                    ("local_primary", Json::U64(report.local_primary)),
                    ("cache_hit", Json::U64(report.local_fresh + report.intra_syncs)),
                    ("cache_miss", Json::U64(report.remote_fetches)),
                ],
            );
            if report.intra_syncs > 0 {
                t.worker_instant(
                    w,
                    names::TRACE_SYNC,
                    &[("kind", Json::from("intra")), ("count", Json::U64(report.intra_syncs))],
                );
            }
        }
        report
    }

    /// Applies per-lookup gradients (local reduction, immediate write-back —
    /// HET pushes updates eagerly; deferred stale-gradient buffers are the
    /// HET-GMP refinement).
    pub fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        let dim = self.table.dim();
        let total: usize = samples.iter().map(|s| s.len()).sum();
        assert_eq!(grads.len(), total * dim, "gradient buffer size mismatch");

        self.scratch.reduce(samples, grads, dim);

        let mut report = UpdateReport::default();
        // HET writes back eagerly: every reduced gradient hits the primary
        // table, so the whole batch goes through one shard-grouped apply.
        let HotScratch {
            batch,
            index,
            reduce_buf,
            reduce_ids,
            apply_buf,
            apply_clocks,
            ..
        } = &mut self.scratch;
        apply_buf.clear();
        let mut wire_rows = 0u64;
        for &e in reduce_ids.iter() {
            let slot = index.slot(e) * dim;
            let start = apply_buf.len();
            apply_buf.extend_from_slice(&reduce_buf[slot..slot + dim]);
            // Remote-primary gradients cross the wire: transport them (with
            // error feedback when enabled) before they reach the primary.
            // Local-primary rows apply exactly.
            if self.part.primary_of(e) != self.worker && !self.format.is_lossless() {
                let wire = &mut apply_buf[start..];
                if self.feedback_on {
                    self.feedback.compensate_and_transport(self.format, e, wire);
                } else {
                    self.format.transport(wire);
                }
                wire_rows += 1;
            }
        }
        apply_clocks.clear();
        apply_clocks.resize(reduce_ids.len(), 0);
        self.table
            .apply_grads(reduce_ids, apply_buf, opt, apply_clocks, batch);
        let lr = opt.learning_rate();
        let delta = &mut self.scratch.row_buf;
        for (k, &e) in self.scratch.reduce_ids.iter().enumerate() {
            // The mirror applies the transported gradient (what the primary
            // actually received), read back out of the apply staging.
            let g = &self.scratch.apply_buf[k * dim..(k + 1) * dim];
            if self.part.primary_of(e) == self.worker {
                report.local_updates += 1;
            } else {
                report.remote_writebacks += 1;
                report.data_bytes += self.row_bytes;
                report.add_dst_bytes(
                    self.part.primary_of(e),
                    self.row_bytes,
                    self.part.num_partitions(),
                );
                report.meta_bytes += META_ENTRY_BYTES;
                report.messages += 1;
            }
            if self.cache.contains(e) {
                for (d, &x) in delta.iter_mut().zip(g) {
                    *d = -lr * x;
                }
                self.cache.apply_local_delta(e, delta);
            }
        }
        self.note_quant(wire_rows);
        if let Some(r) = &self.recorder {
            // HET-style eager write-back: nothing is deferred.
            r.counter_add(
                names::EMBED_UPDATE_DIRECT,
                report.local_updates + report.remote_writebacks,
            );
            r.counter_add(
                names::HOTPATH_BATCH_APPLY_ROWS,
                self.scratch.reduce_ids.len() as u64,
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(_table: &ShardedTable) -> Partition {
        Partition::new(2, vec![0, 1], vec![1, 1, 1, 1])
    }

    #[test]
    fn caches_after_first_fetch() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let mut w = CachedWorkerEmbedding::new(0, &table, &part, 2, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[0]];
        let mut out = vec![0.0; 2];
        let r1 = w.read_batch(&samples, &mut out);
        assert_eq!(r1.remote_fetches, 1);
        assert_eq!(w.cached_rows(), 1);
        let r2 = w.read_batch(&samples, &mut out);
        assert_eq!(r2.remote_fetches, 0);
        assert_eq!(r2.local_fresh, 1);
    }

    #[test]
    fn staleness_forces_refresh() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let mut w = CachedWorkerEmbedding::new(0, &table, &part, 2, StalenessBound::Bounded(1));
        let samples: Vec<&[u32]> = vec![&[0]];
        let mut out = vec![0.0; 2];
        w.read_batch(&samples, &mut out);
        for _ in 0..3 {
            table.apply_grad(0, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        }
        let r = w.read_batch(&samples, &mut out);
        assert_eq!(r.intra_syncs, 1);
        assert!((out[0] + 0.3).abs() < 1e-6);
    }

    #[test]
    fn capacity_bounds_cache() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let mut w = CachedWorkerEmbedding::new(0, &table, &part, 1, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[0, 1, 2, 3]];
        let mut out = vec![0.0; 8];
        w.read_batch(&samples, &mut out);
        assert_eq!(w.cached_rows(), 1);
    }

    #[test]
    fn updates_route_and_mirror() {
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let part = setup(&table);
        let mut w = CachedWorkerEmbedding::new(0, &table, &part, 4, StalenessBound::Bounded(10));
        let samples: Vec<&[u32]> = vec![&[0]];
        let mut out = vec![0.0; 2];
        w.read_batch(&samples, &mut out); // admit
        let r = w.apply_gradients(&samples, &[1.0, 0.0], &SparseOpt::sgd(0.1));
        assert_eq!(r.remote_writebacks, 1);
        // Cached mirror matches primary.
        w.read_batch(&samples, &mut out);
        let mut primary = vec![0.0; 2];
        table.read_row(0, &mut primary);
        assert_eq!(out, primary);
    }
}
