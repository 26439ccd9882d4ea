//! HET-GMP's replica set: the secondaries the 2D vertex-cut placed on this
//! worker (§4), fixed for the run, each with a stale-gradient buffer (§6:
//! "Secondary embeddings require extra space for stale gradients").

use hetgmp_telemetry::{names, Recorder};

use crate::replica::{ReplicaPolicy, Replicas};
use crate::report::ReadReport;

/// Secondary replicas for one worker: clocked replica rows, slots in
/// ascending id order, each with its deferred gradients.
pub type SecondaryCache = Replicas<StaleGradients>;

/// What a [`SecondaryCache`] keeps beside each replica: the deferred
/// ("stale") gradients awaiting write-back to the primary.
#[derive(Debug, Clone)]
pub struct StaleGradients {
    /// The summed deferred gradients, `dim` per slot.
    grad: Vec<f32>,
    /// The local deltas those gradients applied to the replica, which a
    /// sync keeps ([`SecondaryCache::sync`]).
    delta: Vec<f32>,
    /// Number of batch gradients accumulated in `grad` per slot.
    count: Vec<u32>,
    /// Slots whose `count` is above 0.
    pending_rows: usize,
}

impl SecondaryCache {
    /// Allocates a cache for the given replica row ids (from the partition's
    /// secondary list for this worker), in any order.
    pub fn new(dim: usize, rows: &[u32]) -> Self {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let n = rows.len();
        let pending = StaleGradients {
            grad: vec![0.0; n * dim],
            delta: vec![0.0; n * dim],
            count: vec![0; n],
            pending_rows: 0,
        };
        let mut cache = Replicas::with_capacity(dim, n, pending);
        for r in rows {
            cache.claim(cache.len(), r, 0);
        }
        cache
    }

    /// Defers one update of `row`: applies `delta` to the cached copy
    /// *without* advancing the clock and adds `grad` to the pending
    /// gradient. Returns the new pending count; the caller flushes via
    /// [`SecondaryCache::take_pending`] when its staleness budget is spent.
    ///
    /// # Panics
    /// Panics if `row` has no slot.
    #[inline]
    pub fn accumulate_pending(&mut self, row: u32, delta: &[f32], grad: &[f32]) -> u32 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        let i = self.slot_of(row).expect("row not in cache");
        self.add_at(i, delta);
        let p = &mut self.design;
        for (k, (&x, &g)) in (i * self.dim..).zip(delta.iter().zip(grad)) {
            p.delta[k] += x;
            p.grad[k] += g;
        }
        p.count[i] += 1;
        if p.count[i] == 1 {
            p.pending_rows += 1;
        }
        p.count[i]
    }

    /// Number of deferred gradients pending for `row` (0 if none or absent).
    pub fn pending_count(&self, row: u32) -> u32 {
        self.slot_of(row).map_or(0, |i| self.design.count[i])
    }

    /// Moves `row`'s pending gradient into `out` — one merged update bound
    /// for the primary, counted as the replica's own — and drops its delta,
    /// which the copy already holds. Returns false, leaving `out` untouched,
    /// when nothing is pending.
    #[inline]
    pub fn take_pending(&mut self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "buffer length != dim");
        let Some(i) = self.slot_of(row) else {
            return false;
        };
        let p = &mut self.design;
        if p.count[i] == 0 {
            return false;
        }
        let span = i * self.dim..(i + 1) * self.dim;
        out.copy_from_slice(&p.grad[span.clone()]);
        p.grad[span.clone()].fill(0.0);
        p.delta[span].fill(0.0);
        p.count[i] = 0;
        p.pending_rows -= 1;
        self.count_own_update(i);
        true
    }

    /// Re-installs `row` from `values`, the primary as a sync observed it at
    /// `primary_clock`, keeping this worker's deferred updates: their delta
    /// is added to `values` (what the replica now serves), and the pending
    /// gradient stays for the caller to take as the flush it now sends.
    ///
    /// # Panics
    /// Panics if `row` has no slot.
    pub fn sync(&mut self, row: u32, values: &mut [f32], primary_clock: u64) {
        let i = self.slot_of(row).expect("row not in cache");
        if self.design.count[i] > 0 {
            let delta = &self.design.delta[i * self.dim..(i + 1) * self.dim];
            values.iter_mut().zip(delta).for_each(|(v, &d)| *v += d);
        }
        self.install(row, values, primary_clock);
    }

    /// Rows that currently hold pending gradients, ascending.
    pub fn rows_with_pending(&self) -> Vec<u32> {
        self.rows()
            .iter()
            .zip(&self.design.count)
            .filter(|&(_, &n)| n > 0)
            .map(|(&r, _)| r)
            .collect()
    }
}

impl ReplicaPolicy for SecondaryCache {
    const DEFERS: bool = true;

    #[inline]
    fn refresh(&mut self, e: u32, row: &mut [f32], clock: u64) {
        self.sync(e, row, clock);
    }
    #[inline]
    fn take_pending(&mut self, e: u32, out: &mut [f32]) -> bool {
        SecondaryCache::take_pending(self, e, out)
    }
    #[inline]
    fn defer(&mut self, e: u32, delta: &[f32], grad: &[f32]) -> u64 {
        self.accumulate_pending(e, delta, grad) as u64
    }
    fn rows_with_pending(&self) -> Vec<u32> {
        SecondaryCache::rows_with_pending(self)
    }
    fn pending_rows(&self) -> usize {
        self.design.pending_rows
    }
    fn record_read(&self, recorder: &Recorder, report: &ReadReport) {
        recorder.counter_add(names::EMBED_SYNC_INTER, report.inter_syncs);
    }
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2] {
        [
            ("local_fresh", report.local_fresh),
            ("remote", report.remote_fetches),
        ]
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
        assert_eq!(c.accumulate_pending(4, &[-0.1, -0.2], &[1.0, 2.0]), 1);
        assert_eq!(c.accumulate_pending(4, &[-0.05, 0.1], &[0.5, -1.0]), 2);
        // The deltas reach the copy at once, the clock does not move.
        let mut buf = vec![0.0; 2];
        c.read(4, &mut buf);
        assert_eq!(buf, vec![-0.1 + -0.05, -0.2 + 0.1]);
        assert_eq!(c.effective_clock(4), Some(0));
        assert!(c.take_pending(4, &mut buf));
        assert_eq!(buf, vec![1.5, 1.0]);
        assert_eq!(c.pending_count(4), 0);
        assert!(!c.take_pending(4, &mut buf));
        assert_eq!(c.pending_count(9), 0); // absent row
    }

    #[test]
    fn take_pending_advances_effective_clock() {
        let mut c = SecondaryCache::new(2, &[1]);
        c.install(1, &[0.0, 0.0], 5);
        c.accumulate_pending(1, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(c.effective_clock(1), Some(5));
        c.take_pending(1, &mut [0.0; 2]);
        assert_eq!(c.effective_clock(1), Some(6));
    }

    #[test]
    fn sync_keeps_the_pending_delta() {
        let mut c = SecondaryCache::new(2, &[1, 2]);
        c.accumulate_pending(1, &[-0.25, 0.5], &[1.0, -2.0]);
        c.accumulate_pending(1, &[-0.25, 0.0], &[1.0, 0.0]);
        // The primary moved on to 3.0 at clock 7: the replica serves it plus
        // its own two updates, which then leave as one merged flush.
        let mut row = [3.0f32, 3.0];
        c.sync(1, &mut row, 7);
        assert_eq!(row, [2.5, 3.5]);
        let mut buf = [0.0f32; 2];
        c.read(1, &mut buf);
        assert_eq!(buf, row);
        assert_eq!(c.effective_clock(1), Some(7));
        assert!(c.take_pending(1, &mut buf));
        assert_eq!(buf, [2.0, -2.0]);
        assert_eq!(c.effective_clock(1), Some(8));
        // Nothing pending: a plain re-install.
        let mut row = [1.0f32, 1.0];
        c.sync(2, &mut row, 4);
        assert_eq!(row, [1.0, 1.0]);
        assert_eq!(c.effective_clock(2), Some(4));
    }

    #[test]
    fn rows_with_pending_sorted() {
        let mut c = SecondaryCache::new(1, &[9, 2, 5]);
        c.accumulate_pending(9, &[0.0], &[1.0]);
        c.accumulate_pending(2, &[0.0], &[1.0]);
        assert_eq!(c.rows_with_pending(), vec![2, 9]);
    }

    #[test]
    #[should_panic(expected = "row not in cache")]
    fn install_missing_panics() {
        let mut c = SecondaryCache::new(2, &[1]);
        c.install(2, &[0.0, 0.0], 0);
    }
}
