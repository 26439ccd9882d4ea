//! HET's worker: dynamic LFU caching instead of static vertex-cut
//! replicas.
//!
//! This is the predecessor architecture the paper compares against in
//! spirit (§3: HET's "embedding-cache-enabled architecture with
//! fine-grained consistency"): rows are cached on first use by observed
//! frequency, consistency is per-embedding clock-bounded (*intra* only — the
//! worker is built without the access frequencies the graph-based
//! *inter*-embedding synchronisation needs, which is exactly what HET-GMP
//! adds on top) and write-backs are eager. Everything else is the one
//! [`Worker`], so the two designs are directly comparable on one substrate
//! (see the `cache_comparison` ablation in `hetgmp-core`).

use hetgmp_partition::Partition;

use crate::lfu::{LfuAdmission, LfuCache};
#[cfg(test)]
use crate::sparse_optim::SparseOpt;
use crate::store::RowStore;
#[cfg(test)]
use crate::table::ShardedTable;
use crate::worker::{StalenessBound, Worker};

/// The HET-style worker: a dynamic [`LfuCache`] under the intra-embedding
/// check only, with eager write-backs.
pub type CachedWorkerEmbedding<'a> = Worker<'a, LfuAdmission>;

impl<'a> Worker<'a, LfuAdmission> {
    /// Creates the view with an empty cache of `capacity` rows.
    pub fn new(
        worker: u32,
        table: &'a dyn RowStore,
        part: &'a Partition,
        capacity: usize,
        bound: StalenessBound,
    ) -> Self {
        let replicas = LfuCache::new(table.dim(), capacity);
        Self::with_replicas(worker, table, part, bound, replicas, None)
    }

    /// Rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.replicas.len()
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
