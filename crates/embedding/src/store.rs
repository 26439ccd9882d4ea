//! The storage abstraction behind the primary embedding store.
//!
//! [`RowStore`] is the one surface of the primary store — per-row and
//! batched reads/updates/writes, clocks, checkpoint restore hooks — as an
//! object-safe trait, so the trainer, the workers, the LFU cache and
//! checkpointing are all written against `&dyn RowStore` and do not care
//! whether rows live in RAM ([`crate::ShardedTable`]) or partly in spill files
//! ([`crate::TieredTable`]). Each store defines every method once, in its
//! `impl RowStore`; both keep their rows in the same row core
//! (`table::Rows`).

use crate::sparse_optim::SparseOpt;
use crate::table::BatchScratch;

/// Which table read path the embedding hot loop uses. Both return
/// bit-identical bytes for the same rows. On [`crate::ShardedTable`] both are the
/// same batched read, one lock per segment touched; on
/// [`crate::TieredTable`] the snapshot arm serves resident pages first and
/// counts them apart from faulted rows. Not part of the config digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// [`RowStore::read_rows_snapshot`] (the default).
    #[default]
    Snapshot,
    /// [`RowStore::read_rows`], the differential oracle.
    Locked,
}

impl ReadPath {
    /// Report spelling of the path.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReadPath::Snapshot => "snapshot",
            ReadPath::Locked => "locked",
        }
    }
}

/// Outcome counters of the snapshot read path, drained into the
/// `hotpath.read.*` metrics at end of run. All-zero for a store without a
/// snapshot structure ([`crate::ShardedTable`]) and under [`ReadPath::Locked`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Rows served from a resident page of a tiered store.
    pub snapshot_rows: u64,
    /// Read attempts retried. Always 0: no store has a read that can tear.
    pub retries: u64,
    /// Rows a tiered store served through a page fault.
    pub fallback_rows: u64,
}

/// Buffer-manager counters and byte accounting of a spillable store.
/// All-zero for fully resident stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CapacityStats {
    /// Cold pages loaded back from spill files (page faults).
    pub fault_loads: u64,
    /// Resident pages evicted to stay inside the RAM budget.
    pub evictions: u64,
    /// Dirty evictions that wrote the page back to its spill file.
    pub writebacks: u64,
    /// Bytes of pages currently resident in RAM.
    pub resident_bytes: u64,
    /// Bytes of pages whose authoritative copy is currently on disk.
    /// Disjoint from `resident_bytes` by construction.
    pub spilled_bytes: u64,
    /// Configured RAM budget, bytes (0 = unbounded / not a tiered store).
    pub budget_bytes: u64,
}

/// The primary embedding store as seen by its clients: `num_rows × dim`
/// f32 rows with per-row update clocks, batched access via
/// [`BatchScratch`], and checkpoint restore hooks. Implementations must be
/// safe for concurrent worker threads (`Sync`) and bit-identical to
/// [`crate::ShardedTable`] for the same operation sequence — the differential
/// suite in `tests/tiered_differential.rs` enforces that.
pub trait RowStore: Sync {
    /// Embedding dimension.
    fn dim(&self) -> usize;
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Current update clock of `row`.
    fn clock(&self, row: u32) -> u64;
    /// Reads `row` into `out`; returns the row's clock, read under the
    /// same lock as the values.
    ///
    /// # Panics
    /// Panics if `out.len() != dim` or `row` out of range.
    fn read_row(&self, row: u32, out: &mut [f32]) -> u64;
    /// Batched [`RowStore::read_row`]: reads `rows[k]` into
    /// `out[k*dim..(k+1)*dim]` and stores each row's clock in `clocks[k]`,
    /// taking each lock once per batch instead of once per row.
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len() * dim`, `clocks.len() !=
    /// rows.len()`, or any row is out of range.
    fn read_rows(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    );
    /// Applies one gradient `grad` to `row` under `opt`, ticks the row's
    /// clock, and returns the new clock value.
    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64;
    /// Batched [`RowStore::apply_grad`]: applies `grads[k*dim..(k+1)*dim]`
    /// to `rows[k]` under `opt`, storing each new clock in `clocks[k]`.
    /// Duplicate rows apply in the caller's order, bit-identical to a
    /// per-row loop.
    ///
    /// # Panics
    /// Panics if `grads.len() != rows.len() * dim`, `clocks.len() !=
    /// rows.len()`, or any row is out of range.
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    );
    /// Overwrites `row` with explicit values (tests and model checkpoint
    /// restore). Does not advance the clock.
    fn write_row(&self, row: u32, values: &[f32]);
    /// Batched [`RowStore::write_row`]: overwrites `rows[k]` with
    /// `values[k*dim..(k+1)*dim]`; duplicate rows write in the caller's
    /// order (last write wins).
    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch);
    /// Overwrites `row` with explicit values *and* clock — checkpoint
    /// restore and crash-recovery rollback, where the row must rejoin the
    /// protocol exactly as it was saved. The stored clock replaces the
    /// current one and may move backwards: rolling back lost updates
    /// shrinks the clock, and staleness gaps are computed with saturating
    /// subtraction precisely so replicas that observed the lost updates
    /// read as "fresh", not as violations.
    fn restore_row(&self, row: u32, values: &[f32], clock: u64);
    /// True if any optimizer (Adagrad) state has been allocated.
    fn has_optimizer_state(&self) -> bool;
    /// Reads `row`'s Adagrad accumulator; `false` + zero-fill when the
    /// accumulator is implicitly zero.
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool;
    /// Overwrites `row`'s Adagrad accumulator, allocating as needed
    /// (checkpoint restore and crash rollback: optimizer state must move
    /// with the values it produced, or a restored Adagrad run re-takes the
    /// early large steps and diverges from the uninterrupted one).
    fn restore_accum(&self, row: u32, values: &[f32]);
    /// Sum of all clocks — total updates applied.
    fn total_updates(&self) -> u64;
    /// Approximate **resident** heap footprint, bytes. Spilled pages are
    /// excluded — they are reported by [`RowStore::spilled_bytes`], so RAM
    /// accounting never double-counts partitions that live on disk.
    fn heap_bytes(&self) -> usize;
    /// Data-path lock acquisitions since construction. One per-row call
    /// costs one acquisition; one batched call costs one per *distinct
    /// segment or page touched* — the quantity the batched API amortises.
    fn lock_acquisitions(&self) -> u64;
    /// Bytes whose authoritative copy currently lives in spill files.
    /// 0 for fully resident stores.
    fn spilled_bytes(&self) -> u64 {
        0
    }
    /// Buffer-manager counters; all-zero for fully resident stores.
    fn capacity_stats(&self) -> CapacityStats {
        CapacityStats::default()
    }

    // --- snapshot reads ------------------------------------------------
    //
    // The defaults delegate to the locked reads, which is all
    // `ShardedTable` needs; `TieredTable` overrides them to serve resident
    // pages first and count them apart from faults.

    /// [`RowStore::read_row`] through the store's snapshot structure, if it
    /// has one; bit-identical to the locked read either way.
    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        self.read_row(row, out)
    }

    /// Batched [`RowStore::read_row_snapshot`].
    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        self.read_rows(rows, out, clocks, scratch)
    }

    /// Outcome counters of the snapshot read path since construction.
    fn read_path_stats(&self) -> ReadPathStats {
        ReadPathStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ShardedTable;

    #[test]
    fn sharded_table_coerces_to_row_store() {
        let t = ShardedTable::new(16, 4, 0.1, 7);
        let store: &dyn RowStore = &t;
        assert_eq!(store.dim(), 4);
        assert_eq!(store.num_rows(), 16);
        assert_eq!(store.spilled_bytes(), 0);
        assert_eq!(store.capacity_stats(), CapacityStats::default());
        let mut out = vec![0.0; 4];
        let c = store.read_row(3, &mut out);
        assert_eq!(c, 0);
        let c2 = store.apply_grad(3, &[1.0; 4], &SparseOpt::sgd(0.1));
        assert_eq!(c2, 1);
        assert_eq!(store.total_updates(), 1);
    }
}
