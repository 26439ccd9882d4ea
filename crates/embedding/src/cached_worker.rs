//! HET's replica set: dynamic LFU caching instead of static vertex-cut
//! replicas.
//!
//! This is the predecessor architecture the paper compares against in
//! spirit (§3: HET's "embedding-cache-enabled architecture with
//! fine-grained consistency"): rows are cached on first use by observed
//! frequency, consistency is per-embedding clock-bounded (*intra* only — the
//! graph-based *inter*-embedding synchronisation is exactly what HET-GMP
//! adds on top) and write-backs are eager. Everything else is the one
//! [`Worker`], so the two designs are directly comparable on one substrate
//! (see the `cache_comparison` ablation in `hetgmp-core`).

use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, Recorder};

use crate::lfu::LfuCache;
use crate::replica::ReplicaPolicy;
use crate::report::ReadReport;
#[cfg(test)]
use crate::sparse_optim::SparseOpt;
use crate::store::RowStore;
#[cfg(test)]
use crate::table::ShardedTable;
use crate::worker::{StalenessBound, Worker};

/// HET's replica set: an [`LfuCache`] that admits remote rows by observed
/// access frequency. It takes no part in the inter-embedding pass and
/// defers nothing.
pub struct LfuReplicas {
    cache: LfuCache,
    /// The zero row a miss is admitted with until its fetch lands.
    placeholder: Vec<f32>,
}

impl<'a> ReplicaPolicy<'a> for LfuReplicas {
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
        out.extend(self.cache.cached_ids());
    }
    /// LFU touches are stateful, so they run in batch order, local
    /// primaries included.
    #[inline]
    fn touch(&mut self, e: u32) {
        self.cache.touch(e);
    }
    /// Dynamic admission: the fetch already pays the traffic. The row is
    /// admitted *now* — placeholder values, clock as observed here — so LFU
    /// victim selection matches the per-row order exactly; the data fills in
    /// when the batched fetch lands.
    #[inline]
    fn miss(&mut self, e: u32, table: &dyn RowStore) {
        let clock = table.clock(e);
        self.cache.admit(e, &self.placeholder, clock);
    }
    /// A no-op when the admission was declined.
    #[inline]
    fn fill(&mut self, e: u32, row: &[f32]) {
        self.cache.fill(e, row);
    }
    /// Were a later admission in the same batch to evict a sync victim, the
    /// per-row order would have refreshed it first and evicted it after,
    /// landing in the same final state as skipping it here. (The strict LFU
    /// rule cannot in fact evict a row the batch has just touched — see
    /// `tests/worker_differential.rs` — so the test is defensive.)
    #[inline]
    fn refresh(&mut self, e: u32, row: &[f32], clock: u64) {
        if self.cache.contains(e) {
            self.cache.refresh(e, row, clock);
        }
    }
    /// For the dynamic cache a fresh or refreshed row is a hit; only a full
    /// fetch-and-admit is a miss.
    fn record_read(&self, recorder: &dyn Recorder, report: &ReadReport) {
        recorder.counter_add(
            names::EMBED_CACHE_HIT,
            report.local_fresh + report.intra_syncs,
        );
        recorder.counter_add(names::EMBED_CACHE_MISS, report.remote_fetches);
    }
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2] {
        [
            ("cache_hit", report.local_fresh + report.intra_syncs),
            ("cache_miss", report.remote_fetches),
        ]
    }
}

/// The HET-style worker: a dynamic LFU cache under the intra-embedding
/// check only, with eager write-backs.
pub type CachedWorkerEmbedding<'a> = Worker<'a, LfuReplicas>;

impl<'a> Worker<'a, LfuReplicas> {
    /// Creates the view with an empty cache of `capacity` rows.
    pub fn new(
        worker: u32,
        table: &'a dyn RowStore,
        part: &'a Partition,
        capacity: usize,
        bound: StalenessBound,
    ) -> Self {
        let replicas = LfuReplicas {
            cache: LfuCache::new(table.dim(), capacity),
            placeholder: vec![0.0; table.dim()],
        };
        Self::with_policy(worker, table, part, bound, replicas)
    }

    /// Rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.policy.cache.len()
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
