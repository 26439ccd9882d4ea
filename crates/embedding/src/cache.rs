//! A worker's secondary-replica cache.
//!
//! Holds the stale-tolerant copies created by vertex-cut replication. Each
//! cached row tracks:
//! * `base_clock` — the primary's clock when the row was last synchronised;
//! * `local_updates` — updates this worker applied (and wrote back) since
//!   the sync; the replica's *effective clock* is `base_clock +
//!   local_updates`, so the staleness gap `primary_clock − effective_clock`
//!   counts exactly the **other workers'** updates this copy has missed.

use crate::index::IdSlots;

/// Secondary replicas for one worker.
#[derive(Debug, Clone)]
pub struct SecondaryCache {
    dim: usize,
    /// Row id → slot: a dense array, one indexed load per lookup.
    slots: IdSlots,
    /// Slot → row id, ascending — slot order *is* id order, so walking the
    /// slots visits replicas in the order flushes and refreshes must run.
    rows: Vec<u32>,
    data: Vec<f32>,
    base_clock: Vec<u64>,
    local_updates: Vec<u64>,
    /// Deferred ("stale") gradients awaiting write-back to the primary
    /// (paper §6: "Secondary embeddings require extra space for stale
    /// gradients").
    pending_grad: Vec<f32>,
    /// Number of batch gradients accumulated in `pending_grad` per slot.
    pending_count: Vec<u32>,
}

impl SecondaryCache {
    /// Allocates a cache for the given replica row ids (from the partition's
    /// secondary list for this worker), in any order.
    pub fn new(dim: usize, rows: &[u32]) -> Self {
        assert!(dim > 0, "dim must be positive");
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let mut slots = IdSlots::default();
        for (i, &r) in rows.iter().enumerate() {
            slots.insert(r, i);
        }
        Self {
            dim,
            data: vec![0.0; rows.len() * dim],
            base_clock: vec![0; rows.len()],
            local_updates: vec![0; rows.len()],
            pending_grad: vec![0.0; rows.len() * dim],
            pending_count: vec![0; rows.len()],
            slots,
            rows,
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cached row ids, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// True when `row` has a slot in this cache.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        self.slots.get(row).is_some()
    }

    /// `row`'s slot, for callers that resolve a row once and then read its
    /// clock many times ([`SecondaryCache::clock_at`]). Slots never move.
    #[inline]
    pub(crate) fn slot_of(&self, row: u32) -> Option<usize> {
        self.slots.get(row)
    }

    /// The effective clock (`base + local`) of the replica in `slot`.
    #[inline]
    pub(crate) fn clock_at(&self, slot: usize) -> u64 {
        self.base_clock[slot] + self.local_updates[slot]
    }

    /// The replica's effective clock (`base + local`), or `None` if absent.
    pub fn effective_clock(&self, row: u32) -> Option<u64> {
        self.slots.get(row).map(|i| self.clock_at(i))
    }

    /// Reads the cached value into `out`. Returns false if absent.
    #[inline]
    pub fn read(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "buffer length != dim");
        match self.slots.get(row) {
            Some(i) => {
                out.copy_from_slice(&self.data[i * self.dim..(i + 1) * self.dim]);
                true
            }
            None => false,
        }
    }

    /// Overwrites the cached value after a sync with the primary, resetting
    /// the staleness bookkeeping to `primary_clock`.
    ///
    /// # Panics
    /// Panics if `row` has no slot.
    #[inline]
    pub fn install(&mut self, row: u32, values: &[f32], primary_clock: u64) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        let i = self.slots.get(row).expect("row not in cache");
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(values);
        self.base_clock[i] = primary_clock;
        self.local_updates[i] = 0;
    }

    /// Applies a local delta to the cached copy (mirroring the update this
    /// worker wrote back to the primary) and bumps `local_updates`.
    ///
    /// Returns false (no-op) if the row is not cached.
    #[inline]
    pub fn apply_local_delta(&mut self, row: u32, delta: &[f32]) -> bool {
        self.apply_delta_inner(row, delta, true)
    }

    /// Applies a local delta *without* advancing the effective clock — used
    /// for deferred updates whose primary write-back has not happened yet
    /// (the clock advances at flush time via [`SecondaryCache::note_flush`]).
    #[inline]
    pub fn apply_local_delta_uncounted(&mut self, row: u32, delta: &[f32]) -> bool {
        self.apply_delta_inner(row, delta, false)
    }

    #[inline]
    fn apply_delta_inner(&mut self, row: u32, delta: &[f32], count: bool) -> bool {
        assert_eq!(delta.len(), self.dim, "delta length != dim");
        match self.slots.get(row) {
            Some(i) => {
                for (d, &x) in self.data[i * self.dim..(i + 1) * self.dim]
                    .iter_mut()
                    .zip(delta)
                {
                    *d += x;
                }
                if count {
                    self.local_updates[i] += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Accumulates a deferred gradient for `row`; returns the new pending
    /// count. The caller is responsible for flushing via
    /// [`SecondaryCache::take_pending`] when its staleness budget is spent.
    ///
    /// # Panics
    /// Panics if `row` has no slot.
    #[inline]
    pub fn accumulate_pending(&mut self, row: u32, grad: &[f32]) -> u32 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        let i = self.slots.get(row).expect("row not in cache");
        for (p, &g) in self.pending_grad[i * self.dim..(i + 1) * self.dim]
            .iter_mut()
            .zip(grad)
        {
            *p += g;
        }
        self.pending_count[i] += 1;
        self.pending_count[i]
    }

    /// Number of deferred gradients pending for `row` (0 if none or absent).
    pub fn pending_count(&self, row: u32) -> u32 {
        self.slots.get(row).map_or(0, |i| self.pending_count[i])
    }

    /// Moves the accumulated pending gradient for `row` into `out` and
    /// clears it; returns false (leaving `out` untouched) when nothing is
    /// pending.
    #[inline]
    pub fn take_pending(&mut self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "buffer length != dim");
        let Some(i) = self.slots.get(row) else {
            return false;
        };
        if self.pending_count[i] == 0 {
            return false;
        }
        let src = &mut self.pending_grad[i * self.dim..(i + 1) * self.dim];
        out.copy_from_slice(src);
        src.iter_mut().for_each(|x| *x = 0.0);
        self.pending_count[i] = 0;
        true
    }

    /// Records that `row`'s pending updates were flushed as one merged
    /// primary update (the replica's effective clock advances by one, in
    /// step with the primary's tick from the flush).
    #[inline]
    pub fn note_flush(&mut self, row: u32) {
        if let Some(i) = self.slots.get(row) {
            self.local_updates[i] += 1;
        }
    }

    /// Rows that currently hold pending gradients, ascending.
    pub fn rows_with_pending(&self) -> Vec<u32> {
        self.rows
            .iter()
            .zip(&self.pending_count)
            .filter(|&(_, &n)| n > 0)
            .map(|(&r, _)| r)
            .collect()
    }

    /// Heap footprint, bytes: per replica the values, the pending gradient,
    /// two clocks, the pending count and the row id; plus the id → slot
    /// index, which costs 4 bytes per *table* row up to the largest
    /// replicated id, whether replicated or not.
    pub fn heap_bytes(&self) -> usize {
        (self.data.len() + self.pending_grad.len()) * 4
            + self.base_clock.len() * 16
            + self.pending_count.len() * 4
            + self.rows.len() * 4
            + self.slots.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache() {
        let c = SecondaryCache::new(4, &[]);
        assert!(c.is_empty());
        assert!(!c.contains(0));
        assert_eq!(c.effective_clock(0), None);
        let mut buf = vec![0.0; 4];
        assert!(!c.read(0, &mut buf));
    }

    #[test]
    fn install_and_read() {
        let mut c = SecondaryCache::new(2, &[5, 9]);
        assert_eq!(c.len(), 2);
        c.install(5, &[1.0, 2.0], 7);
        let mut buf = vec![0.0; 2];
        assert!(c.read(5, &mut buf));
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(c.effective_clock(5), Some(7));
        assert_eq!(c.effective_clock(9), Some(0)); // never synced
    }

    #[test]
    fn local_delta_bumps_effective_clock() {
        let mut c = SecondaryCache::new(2, &[3]);
        c.install(3, &[1.0, 1.0], 10);
        assert!(c.apply_local_delta(3, &[-0.5, 0.5]));
        let mut buf = vec![0.0; 2];
        c.read(3, &mut buf);
        assert_eq!(buf, vec![0.5, 1.5]);
        assert_eq!(c.effective_clock(3), Some(11));
        // Re-install resets local updates.
        c.install(3, &[0.0, 0.0], 20);
        assert_eq!(c.effective_clock(3), Some(20));
    }

    #[test]
    fn delta_on_missing_row_is_noop() {
        let mut c = SecondaryCache::new(2, &[1]);
        assert!(!c.apply_local_delta(2, &[1.0, 1.0]));
    }

    #[test]
    fn pending_accumulates_and_drains() {
        let mut c = SecondaryCache::new(2, &[4]);
        assert_eq!(c.pending_count(4), 0);
        assert_eq!(c.accumulate_pending(4, &[1.0, 2.0]), 1);
        assert_eq!(c.accumulate_pending(4, &[0.5, -1.0]), 2);
        let mut buf = vec![0.0; 2];
        assert!(c.take_pending(4, &mut buf));
        assert_eq!(buf, vec![1.5, 1.0]);
        assert_eq!(c.pending_count(4), 0);
        assert!(!c.take_pending(4, &mut buf));
        assert_eq!(c.pending_count(9), 0); // absent row
    }

    #[test]
    fn note_flush_advances_effective_clock() {
        let mut c = SecondaryCache::new(2, &[1]);
        c.install(1, &[0.0, 0.0], 5);
        c.note_flush(1);
        assert_eq!(c.effective_clock(1), Some(6));
    }

    #[test]
    fn rows_with_pending_sorted() {
        let mut c = SecondaryCache::new(1, &[9, 2, 5]);
        c.accumulate_pending(9, &[1.0]);
        c.accumulate_pending(2, &[1.0]);
        assert_eq!(c.rows_with_pending(), vec![2, 9]);
    }

    #[test]
    fn heap_bytes_counts_the_index() {
        // Two replicas of dim 2: values and pending gradient (8 B each), two
        // clocks, a pending count and a row id per replica; and the index,
        // one `u32` per table row up to id 9.
        let c = SecondaryCache::new(2, &[5, 9]);
        assert_eq!(c.heap_bytes(), 2 * (8 + 8 + 16 + 4 + 4) + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "row not in cache")]
    fn install_missing_panics() {
        let mut c = SecondaryCache::new(2, &[1]);
        c.install(2, &[0.0, 0.0], 0);
    }
}
