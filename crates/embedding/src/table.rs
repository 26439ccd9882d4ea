//! The global primary store: segments of plain embedding rows, one lock each,
//! and the row core both stores share.
//!
//! This is the simulation substitute for the paper's per-GPU CUDA embedding
//! tables connected by NCCL p2p: primaries live in one shared, thread-safe
//! structure, and *who pays for an access* is decided by the caller (the
//! [`crate::WorkerEmbedding`] view consults the partition and reports bytes
//! that would have crossed the interconnect).
//!
//! # The row core
//!
//! `Rows` is the one row body: `dim` floats per slot, lazily allocated
//! Adagrad accumulators, and the per-slot read, write, update and
//! accumulator operations. `init_rng` and `draw_row` are the one
//! initial-value generator, and `tick` the one clock rule. This table's
//! segments and [`crate::TieredTable`]'s pages both hold `Rows`, so the two
//! stores run the same FP operation sequence by construction.
//!
//! # Layout: segments and placement
//!
//! A table is a set of **segments** plus a placement that maps each row to
//! a `(segment, slot)`. A segment is one `RwLock` over its `Rows` and one
//! update clock per slot, which [`RowStore::clock`] reads without the lock.
//! A batched call groups its rows by segment and takes one guard per
//! segment touched.
//!
//! * [`ShardedTable::new`] stripes rows round-robin over 256 segments:
//!   segment `row % 256`, slot `row / 256`, computed from the row id and
//!   never stored. The KG trainer, the benchmark replay and most tests use
//!   it.
//! * [`ShardedTable::with_partition`] gives each primary owner one segment
//!   holding its rows in ascending id order. The trainer's write phase has
//!   every owner apply only its own rows, side by side after the reads-done
//!   barrier, so on this layout two owners never meet on a lock or on a
//!   cache line, and one owner's apply takes one lock per source.
//!
//! The placement moves no bit. Every row draws its initial values from its
//! stripe's generator whatever segment it lands in, and every operation is
//! per row, in the caller's order within a segment.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use hetgmp_partition::Partition;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sparse_optim::SparseOpt;
use crate::store::RowStore;

/// Initial-value streams: row `r` takes the next `dim` values of stream
/// `r % STRIPES`, whatever store or layout holds it. Also the segment count
/// of the striped layout, so hot rows spread across locks.
pub(crate) const STRIPES: usize = 256;
/// `log2(STRIPES)`: a row id is its own striped location code.
const STRIPE_BITS: u32 = 8;

/// The generator of stripe `stripe`'s initial values.
pub(crate) fn init_rng(seed: u64, stripe: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stripe as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Draws one row's initial values, uniform in `[-init_scale, init_scale]`,
/// from its stripe's generator.
#[inline]
pub(crate) fn draw_row(rng: &mut StdRng, init_scale: f32, out: &mut [f32]) {
    for v in out {
        *v = rng.gen_range(-init_scale..=init_scale);
    }
}

/// Ticks `clock` and returns its new value. The caller holds the lock that
/// guards the row's values, so a load and a store suffice. The `Release`
/// store pairs with [`RowStore::clock`]'s `Acquire` load: a thread that
/// sees the new clock also sees the update it counts.
#[inline]
pub(crate) fn tick(clock: &AtomicU64) -> u64 {
    let next = clock.load(Ordering::Relaxed) + 1;
    clock.store(next, Ordering::Release);
    next
}

/// Rows of `dim` floats and their Adagrad accumulators: a segment of this
/// table, or a resident page of the tiered store. Every per-slot operation
/// takes `dim` from the length of the slice it is given.
pub(crate) struct Rows {
    /// `dim` floats per slot.
    pub(crate) values: Vec<f32>,
    /// Adagrad accumulators, indexed like `values`, allocated on the
    /// first Adagrad update.
    pub(crate) accum: Option<Vec<f32>>,
}

impl Rows {
    #[inline]
    fn span(slot: usize, dim: usize) -> Range<usize> {
        slot * dim..(slot + 1) * dim
    }

    /// Copies the row at `slot` into `out`.
    #[inline]
    pub(crate) fn read(&self, slot: usize, out: &mut [f32]) {
        out.copy_from_slice(&self.values[Self::span(slot, out.len())]);
    }

    /// Overwrites the row at `slot` with `values`.
    #[inline]
    pub(crate) fn write(&mut self, slot: usize, values: &[f32]) {
        self.values[Self::span(slot, values.len())].copy_from_slice(values);
    }

    /// Applies one gradient to the row at `slot`: the single update body
    /// of both stores, per-row and batched alike.
    #[inline]
    pub(crate) fn apply(&mut self, slot: usize, grad: &[f32], opt: &SparseOpt) {
        let row = Self::span(slot, grad.len());
        match *opt {
            SparseOpt::Sgd { lr } => {
                for (p, &g) in self.values[row].iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
            SparseOpt::Adagrad { lr, eps } => {
                let len = self.values.len();
                let acc = self.accum.get_or_insert_with(|| vec![0.0; len]);
                for ((p, &g), a) in self.values[row.clone()]
                    .iter_mut()
                    .zip(grad)
                    .zip(&mut acc[row])
                {
                    *a += g * g;
                    *p -= lr * g / (a.sqrt() + eps);
                }
            }
        }
    }

    /// Copies the accumulator of `slot` into `out`. Returns `false` (and
    /// zero-fills `out`) while no accumulator is allocated: it is
    /// implicitly zero.
    pub(crate) fn read_accum(&self, slot: usize, out: &mut [f32]) -> bool {
        match &self.accum {
            Some(a) => {
                out.copy_from_slice(&a[Self::span(slot, out.len())]);
                true
            }
            None => {
                out.fill(0.0);
                false
            }
        }
    }

    /// Overwrites the accumulator of `slot`, allocating zeroed
    /// accumulators first if there are none.
    pub(crate) fn restore_accum(&mut self, slot: usize, values: &[f32]) {
        let len = self.values.len();
        let accum = self.accum.get_or_insert_with(|| vec![0.0; len]);
        accum[Self::span(slot, values.len())].copy_from_slice(values);
    }
}

/// One lock's worth of rows, on its own cache line so two owners' lock
/// words never false-share.
#[repr(align(64))]
struct Segment {
    rows: RwLock<Rows>,
    /// Update clock per slot. Read without the lock; written only by the
    /// holder of the write lock.
    clocks: Vec<AtomicU64>,
}

/// The authoritative embedding table: `num_rows × dim` f32, with a per-row
/// update clock counting applied gradient updates (the `c_i` of §5.3).
/// Every operation but construction and the three-argument
/// [`ShardedTable::read_rows_snapshot`] goes through [`RowStore`].
pub struct ShardedTable {
    dim: usize,
    num_rows: usize,
    segments: Vec<Segment>,
    /// Location code per row, `slot << segment_bits | segment`, for
    /// owner-placed tables. `None` on the striped layout, where the row id
    /// is its own code.
    placement: Option<Vec<u32>>,
    segment_bits: u32,
    /// Data-path segment lock acquisitions (reads, updates, writes — both
    /// the per-row and the batched API). The `hotpath.*` metrics and the
    /// benchmark ledger read this to show how much the batched path
    /// amortises.
    lock_acquisitions: AtomicU64,
}

/// Reusable scratch for the batched table API ([`RowStore::read_rows`],
/// [`RowStore::apply_grads`], [`RowStore::write_rows`]). Callers keep one
/// per worker so grouping a batch by segment or page allocates nothing
/// once the buffer has warmed up.
#[derive(Default)]
pub struct BatchScratch {
    /// Permutation of `0..rows.len()` ordered by `(bucket, original index)`:
    /// bucket-grouped, original order preserved within a bucket so duplicate
    /// rows apply in exactly the order the caller gave them.
    perm: Vec<u32>,
    /// Per-bucket counters/offsets for the counting sort.
    offsets: Vec<u32>,
}

impl BatchScratch {
    /// Counting sort of `0..rows.len()` by `bucket_of(rows[i])`, stable
    /// within a bucket: original indices land in submission order, which is
    /// what keeps duplicate-row applies bit-identical to a per-row loop.
    /// O(n + num_buckets) per batch; read the result via
    /// [`BatchScratch::groups`]. Shared by [`ShardedTable`] (bucket =
    /// segment) and the tiered store (bucket = page).
    pub(crate) fn group_by(
        &mut self,
        rows: &[u32],
        num_buckets: usize,
        bucket_of: impl Fn(u32) -> usize,
    ) {
        assert!(
            rows.len() <= u32::MAX as usize,
            "batch too large for u32 permutation"
        );
        self.offsets.clear();
        self.offsets.resize(num_buckets, 0);
        for &row in rows {
            self.offsets[bucket_of(row)] += 1;
        }
        let mut start = 0u32;
        for off in self.offsets.iter_mut() {
            let count = *off;
            *off = start;
            start += count;
        }
        self.perm.clear();
        self.perm.resize(rows.len(), 0);
        for (i, &row) in rows.iter().enumerate() {
            let off = &mut self.offsets[bucket_of(row)];
            self.perm[*off as usize] = i as u32;
            *off += 1;
        }
    }

    /// The non-empty groups of the last [`BatchScratch::group_by`],
    /// ascending by bucket: `(bucket, its slice of the permutation)`.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        // The scatter pass left each bucket's *end* in `offsets`.
        let mut start = 0;
        self.offsets
            .iter()
            .enumerate()
            .filter_map(move |(bucket, &end)| {
                let group = &self.perm[start..end as usize];
                start = end as usize;
                (!group.is_empty()).then_some((bucket, group))
            })
    }
}

impl ShardedTable {
    /// Creates a striped table initialised uniformly in
    /// `[-init_scale, init_scale]`, deterministic in `seed`.
    pub fn new(num_rows: usize, dim: usize, init_scale: f32, seed: u64) -> Self {
        let lens = (0..STRIPES)
            .map(|s| num_rows.saturating_sub(s).div_ceil(STRIPES))
            .collect();
        Self::build(num_rows, dim, init_scale, seed, lens, STRIPE_BITS, None)
    }

    /// Creates a table with one segment per primary owner of `partition`,
    /// holding the same initial bits as [`ShardedTable::new`] with the same
    /// arguments.
    ///
    /// # Panics
    /// Panics if `partition` does not place exactly `num_rows` embeddings.
    pub fn with_partition(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        partition: &Partition,
    ) -> Self {
        assert_eq!(
            partition.num_embeddings(),
            num_rows,
            "partition places a different number of rows"
        );
        let owners = partition.num_partitions();
        let bits = u32::BITS - (owners as u32 - 1).leading_zeros();
        assert!(
            (num_rows as u64) << bits <= 1 << u32::BITS,
            "{num_rows} rows over {owners} owners overflow a u32 location code"
        );
        let mut lens = vec![0usize; owners];
        let placement = (0..num_rows as u32)
            .map(|row| {
                let owner = partition.primary_of(row);
                let slot = &mut lens[owner as usize];
                *slot += 1;
                (*slot as u32 - 1) << bits | owner
            })
            .collect();
        Self::build(num_rows, dim, init_scale, seed, lens, bits, Some(placement))
    }

    /// A table of segments holding `lens[s]` rows each, placed by
    /// `placement` (see [`ShardedTable::locate`]), every row drawn from its
    /// stripe's generator, stripe by stripe.
    fn build(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        lens: Vec<usize>,
        segment_bits: u32,
        placement: Option<Vec<u32>>,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        let mut table = Self {
            dim,
            num_rows,
            segments: Vec::new(),
            placement,
            segment_bits,
            lock_acquisitions: AtomicU64::new(0),
        };
        let mut segments: Vec<Rows> = lens
            .iter()
            .map(|&n| Rows {
                values: vec![0.0; n * dim],
                accum: None,
            })
            .collect();
        for stripe in 0..STRIPES {
            let mut rng = init_rng(seed, stripe);
            for row in (stripe..num_rows).step_by(STRIPES) {
                let (segment, slot) = table.locate(row as u32);
                draw_row(
                    &mut rng,
                    init_scale,
                    &mut segments[segment].values[Rows::span(slot, dim)],
                );
            }
        }
        table.segments = segments
            .into_iter()
            .zip(lens)
            .map(|(rows, n)| Segment {
                rows: RwLock::new(rows),
                clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        table
    }

    /// `(segment, slot)` of `row`.
    #[inline]
    fn locate(&self, row: u32) -> (usize, usize) {
        let code = match &self.placement {
            Some(codes) => codes[row as usize],
            None => row,
        };
        let segment = code & ((1 << self.segment_bits) - 1);
        (segment as usize, (code >> self.segment_bits) as usize)
    }

    #[inline]
    fn check_row(&self, row: u32) {
        assert!((row as usize) < self.num_rows, "row {row} out of range");
    }

    fn read_segment(&self, segment: usize) -> RwLockReadGuard<'_, Rows> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.segments[segment].rows.read()
    }

    fn write_segment(&self, segment: usize) -> RwLockWriteGuard<'_, Rows> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.segments[segment].rows.write()
    }

    /// Orders `scratch` by `(segment, original index)` and validates every
    /// row index. Within a segment the caller's order is preserved, so a
    /// batch with duplicate rows applies them in exactly the sequence a
    /// per-row loop would.
    fn group_by_segment(&self, rows: &[u32], scratch: &mut BatchScratch) {
        for &row in rows {
            self.check_row(row);
        }
        scratch.group_by(rows, self.segments.len(), |row| self.locate(row).0);
    }

    /// [`RowStore::read_rows`] for callers that keep no
    /// [`BatchScratch`]; it groups through a fresh one.
    ///
    /// # Panics
    /// As [`RowStore::read_rows`].
    pub fn read_rows_snapshot(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64]) {
        self.read_rows(rows, out, clocks, &mut BatchScratch::default())
    }
}

impl RowStore for ShardedTable {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn num_rows(&self) -> usize {
        self.num_rows
    }

    #[inline]
    fn clock(&self, row: u32) -> u64 {
        let (segment, slot) = self.locate(row);
        self.segments[segment].clocks[slot].load(Ordering::Acquire)
    }

    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        let held = self.read_segment(segment);
        held.read(slot, out);
        self.segments[segment].clocks[slot].load(Ordering::Relaxed)
    }

    /// One lock per segment touched; bit-identical to a per-row loop (rows
    /// are disjoint slices).
    fn read_rows(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(
            out.len(),
            rows.len() * self.dim,
            "output buffer length != rows * dim"
        );
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        self.group_by_segment(rows, scratch);
        let dim = self.dim;
        for (segment, group) in scratch.groups() {
            let held = self.read_segment(segment);
            let seg_clocks = &self.segments[segment].clocks;
            for &k in group {
                let k = k as usize;
                let slot = self.locate(rows[k]).1;
                clocks[k] = seg_clocks[slot].load(Ordering::Relaxed);
                held.read(slot, &mut out[k * dim..(k + 1) * dim]);
            }
        }
    }

    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        let mut held = self.write_segment(segment);
        held.apply(slot, grad, opt);
        tick(&self.segments[segment].clocks[slot])
    }

    /// One lock per segment touched; within a segment, rows apply in the
    /// caller's order, so duplicate rows (and the resulting Adagrad
    /// accumulator sequence) are bit-identical to a per-row loop.
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(
            grads.len(),
            rows.len() * self.dim,
            "gradients length != rows * dim"
        );
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        self.group_by_segment(rows, scratch);
        let dim = self.dim;
        for (segment, group) in scratch.groups() {
            let mut held = self.write_segment(segment);
            let seg_clocks = &self.segments[segment].clocks;
            for &k in group {
                let k = k as usize;
                let slot = self.locate(rows[k]).1;
                held.apply(slot, &grads[k * dim..(k + 1) * dim], opt);
                clocks[k] = tick(&seg_clocks[slot]);
            }
        }
    }

    fn write_row(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        self.write_segment(segment).write(slot, values);
    }

    /// One lock per segment touched; duplicate rows write in the caller's
    /// order (last write wins, same as a per-row loop).
    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        assert_eq!(
            values.len(),
            rows.len() * self.dim,
            "values length != rows * dim"
        );
        self.group_by_segment(rows, scratch);
        let dim = self.dim;
        for (segment, group) in scratch.groups() {
            let mut held = self.write_segment(segment);
            for &k in group {
                let k = k as usize;
                held.write(self.locate(rows[k]).1, &values[k * dim..(k + 1) * dim]);
            }
        }
    }

    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        let mut held = self.write_segment(segment);
        held.write(slot, values);
        self.segments[segment].clocks[slot].store(clock, Ordering::Release);
    }

    fn has_optimizer_state(&self) -> bool {
        self.segments.iter().any(|s| s.rows.read().accum.is_some())
    }

    /// Which rows share a segment depends on the layout, so only the values
    /// are layout-independent, not the returned flag.
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        self.segments[segment].rows.read().read_accum(slot, out)
    }

    fn restore_accum(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.check_row(row);
        let (segment, slot) = self.locate(row);
        self.segments[segment]
            .rows
            .write()
            .restore_accum(slot, values);
    }

    fn total_updates(&self) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| &s.clocks)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .segments
            .iter()
            .map(|s| {
                let held = s.rows.read();
                let floats = held.values.len() + held.accum.as_ref().map_or(0, Vec::len);
                floats * 4 + s.clocks.len() * 8
            })
            .sum();
        rows + self.placement.as_ref().map_or(0, |codes| codes.len() * 4)
    }

    fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn init_deterministic_and_bounded() {
        let t1 = ShardedTable::new(100, 8, 0.1, 42);
        let t2 = ShardedTable::new(100, 8, 0.1, 42);
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        for row in [0u32, 57, 99] {
            t1.read_row(row, &mut a);
            t2.read_row(row, &mut b);
            assert_eq!(a, b);
            assert!(a.iter().all(|&x| x.abs() <= 0.1));
        }
    }

    #[test]
    fn sgd_update_moves_row() {
        let t = ShardedTable::new(10, 4, 0.0, 1);
        let grad = vec![1.0, -1.0, 0.5, 0.0];
        assert_eq!(t.clock(3), 0);
        let c = t.apply_grad(3, &grad, &SparseOpt::Sgd { lr: 0.1 });
        assert_eq!(c, 1);
        let mut row = vec![0.0; 4];
        let seen = t.read_row(3, &mut row);
        assert_eq!(seen, 1);
        assert_eq!(row, vec![-0.1, 0.1, -0.05, 0.0]);
        // Other rows untouched.
        t.read_row(2, &mut row);
        assert_eq!(row, vec![0.0; 4]);
        assert_eq!(t.clock(2), 0);
    }

    #[test]
    fn adagrad_adapts_step() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let opt = SparseOpt::Adagrad { lr: 1.0, eps: 1e-8 };
        t.apply_grad(0, &[1.0, 0.0], &opt);
        let mut row = vec![0.0; 2];
        t.read_row(0, &mut row);
        let first_step = -row[0];
        assert!((first_step - 1.0).abs() < 1e-4); // 1/sqrt(1)
        t.apply_grad(0, &[1.0, 0.0], &opt);
        t.read_row(0, &mut row);
        let second_step = -row[0] - first_step;
        assert!(second_step < first_step); // accumulated curvature shrinks steps
    }

    #[test]
    fn write_row_does_not_tick_clock() {
        let t = ShardedTable::new(4, 2, 0.5, 9);
        t.write_row(1, &[7.0, 8.0]);
        let mut row = vec![0.0; 2];
        assert_eq!(t.read_row(1, &mut row), 0);
        assert_eq!(row, vec![7.0, 8.0]);
    }

    #[test]
    fn restore_row_sets_values_and_clock() {
        let t = ShardedTable::new(4, 2, 0.0, 9);
        let opt = SparseOpt::Sgd { lr: 0.1 };
        for _ in 0..5 {
            t.apply_grad(1, &[1.0, 1.0], &opt);
        }
        assert_eq!(t.clock(1), 5);
        // Roll back to a checkpointed state: clock may move backwards.
        t.restore_row(1, &[7.0, 8.0], 2);
        let mut row = vec![0.0; 2];
        assert_eq!(t.read_row(1, &mut row), 2);
        assert_eq!(row, vec![7.0, 8.0]);
    }

    #[test]
    fn total_updates_counts_all() {
        let t = ShardedTable::new(8, 2, 0.0, 1);
        let opt = SparseOpt::Sgd { lr: 0.1 };
        t.apply_grad(0, &[1.0, 1.0], &opt);
        t.apply_grad(0, &[1.0, 1.0], &opt);
        t.apply_grad(5, &[1.0, 1.0], &opt);
        assert_eq!(t.total_updates(), 3);
    }

    #[test]
    fn concurrent_updates_all_applied() {
        let t = Arc::new(ShardedTable::new(64, 4, 0.0, 3));
        let opt = SparseOpt::Sgd { lr: 1.0 };
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        t.apply_grad(i % 64, &[1.0, 0.0, 0.0, 0.0], &opt);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.total_updates(), 4000);
        // Per thread, rows 0..40 receive 16 updates and rows 40..64 receive
        // 15 (1000 = 15×64 + 40); each update moves coord 0 by −1.
        let mut row = vec![0.0; 4];
        for r in 0..64u32 {
            t.read_row(r, &mut row);
            let expected = if r < 40 { -64.0 } else { -60.0 };
            assert!((row[0] - expected).abs() < 1e-3, "row {r}: {}", row[0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let mut row = vec![0.0; 2];
        t.read_row(4, &mut row);
    }

    #[test]
    #[should_panic(expected = "dim")]
    fn wrong_buffer_length_panics() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let mut row = vec![0.0; 3];
        t.read_row(0, &mut row);
    }

    #[test]
    fn read_rows_matches_per_row_loop() {
        let t = ShardedTable::new(600, 8, 0.1, 7);
        let rows: Vec<u32> = vec![0, 599, 257, 1, 257, 42, 300];
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; rows.len() * 8];
        let mut clocks = vec![0u64; rows.len()];
        t.read_rows(&rows, &mut out, &mut clocks, &mut scratch);
        let mut expect = vec![0.0f32; 8];
        for (k, &r) in rows.iter().enumerate() {
            let c = t.read_row(r, &mut expect);
            assert_eq!(&out[k * 8..(k + 1) * 8], &expect[..], "row {r}");
            assert_eq!(clocks[k], c, "row {r} clock");
        }
    }

    #[test]
    fn snapshot_reads_match_locked_reads_bitwise() {
        let t = ShardedTable::new(600, 8, 0.1, 7);
        let opt = SparseOpt::Adagrad { lr: 0.5, eps: 1e-8 };
        for r in [0u32, 3, 257, 599] {
            t.apply_grad(r, &[0.25; 8], &opt);
        }
        let rows: Vec<u32> = vec![0, 599, 257, 1, 257, 42, 300, 3];
        let mut out = vec![0.0f32; rows.len() * 8];
        let mut clocks = vec![0u64; rows.len()];
        t.read_rows_snapshot(&rows, &mut out, &mut clocks);
        let mut expect = vec![0.0f32; 8];
        for (k, &r) in rows.iter().enumerate() {
            let c = t.read_row(r, &mut expect);
            assert_eq!(
                out[k * 8..(k + 1) * 8]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {r}"
            );
            assert_eq!(clocks[k], c, "row {r} clock");
        }
    }

    /// Rows `0..num_rows` over `owners` primaries, dealt out unevenly.
    fn owners_of(num_rows: usize, owners: u32) -> Partition {
        let primary = (0..num_rows as u32)
            .map(|r| (r * 7 + r / 3) % owners)
            .collect();
        Partition::new(owners as usize, vec![0], primary)
    }

    #[test]
    fn batched_read_takes_one_lock_per_segment() {
        let striped = ShardedTable::new(1024, 4, 0.1, 1);
        let owned = ShardedTable::with_partition(1024, 4, 0.1, 1, &owners_of(1024, 4));
        let rows: Vec<u32> = (0..512u32).collect(); // every segment of both
        let mut out = vec![0.0f32; rows.len() * 4];
        let mut clocks = vec![0u64; rows.len()];
        for (table, segments) in [(&striped, 256), (&owned, 4)] {
            let before = table.lock_acquisitions();
            table.read_rows_snapshot(&rows, &mut out, &mut clocks);
            assert_eq!(table.lock_acquisitions() - before, segments);
        }
        // One owner's rows are one segment: one lock, however many rows.
        let part = owners_of(1024, 4);
        let mine: Vec<u32> = (0..1024u32).filter(|&r| part.primary_of(r) == 2).collect();
        let before = owned.lock_acquisitions();
        let opt = SparseOpt::adagrad(0.1);
        let grads = vec![0.5f32; mine.len() * 4];
        let mut clocks = vec![0u64; mine.len()];
        owned.apply_grads(
            &mine,
            &grads,
            &opt,
            &mut clocks,
            &mut BatchScratch::default(),
        );
        assert_eq!(owned.lock_acquisitions() - before, 1);
    }

    #[test]
    fn owner_placement_starts_with_the_striped_bits() {
        let striped = ShardedTable::new(700, 3, 0.1, 5);
        let owned = ShardedTable::with_partition(700, 3, 0.1, 5, &owners_of(700, 3));
        let (mut a, mut b) = ([0.0f32; 3], [0.0f32; 3]);
        for row in 0..700 {
            striped.read_row(row, &mut a);
            owned.read_row(row, &mut b);
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "row {row}");
        }
        // Exact segments, plus four bytes of location code per row.
        assert_eq!(owned.heap_bytes(), 700 * (3 * 4 + 8 + 4));
    }

    #[test]
    fn apply_grads_bit_identical_to_per_row_loop() {
        // Duplicate rows included on purpose: the batched path must preserve
        // the caller's order within a segment so accumulator sequences match.
        let rows: Vec<u32> = vec![3, 259, 3, 514, 2, 3, 258];
        let dim = 4;
        let grads: Vec<f32> = (0..rows.len() * dim)
            .map(|i| (i as f32) * 0.3 - 2.0)
            .collect();
        for opt in [
            SparseOpt::Sgd { lr: 0.07 },
            SparseOpt::Adagrad { lr: 0.5, eps: 1e-8 },
        ] {
            let batched = ShardedTable::new(600, dim, 0.1, 99);
            let serial = ShardedTable::new(600, dim, 0.1, 99);
            let mut scratch = BatchScratch::default();
            let mut clocks = vec![0u64; rows.len()];
            batched.apply_grads(&rows, &grads, &opt, &mut clocks, &mut scratch);
            let mut serial_clocks = vec![0u64; rows.len()];
            for (k, &r) in rows.iter().enumerate() {
                serial_clocks[k] = serial.apply_grad(r, &grads[k * dim..(k + 1) * dim], &opt);
            }
            let mut a = vec![0.0f32; dim];
            let mut b = vec![0.0f32; dim];
            for r in 0..600u32 {
                batched.read_row(r, &mut a);
                serial.read_row(r, &mut b);
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "row {r} data"
                );
                let ha = batched.read_accum(r, &mut a);
                let hb = serial.read_accum(r, &mut b);
                assert_eq!(ha, hb);
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "row {r} accum"
                );
                assert_eq!(batched.clock(r), serial.clock(r), "row {r} clock");
            }
            // A duplicated row's clocks reflect sequential application. Row 3
            // appears at positions 0, 2, 5.
            assert_eq!(
                [clocks[0], clocks[2], clocks[5]],
                [serial_clocks[0], serial_clocks[2], serial_clocks[5]]
            );
        }
    }

    #[test]
    fn write_rows_last_write_wins() {
        let t = ShardedTable::new(300, 2, 0.0, 1);
        let rows = vec![5u32, 261, 5];
        let values = vec![1.0f32, 2.0, 9.0, 9.0, 3.0, 4.0];
        let mut scratch = BatchScratch::default();
        t.write_rows(&rows, &values, &mut scratch);
        let mut out = vec![0.0f32; 2];
        t.read_row(5, &mut out);
        assert_eq!(out, vec![3.0, 4.0]); // duplicate applied in caller order
        t.read_row(261, &mut out);
        assert_eq!(out, vec![9.0, 9.0]);
        assert_eq!(t.clock(5), 0, "write_rows must not tick clocks");
    }

    #[test]
    fn batched_ops_amortise_lock_acquisitions() {
        let t = ShardedTable::new(1024, 4, 0.0, 1);
        let rows: Vec<u32> = (0..512u32).collect(); // 256 stripes, 2 rows each
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; rows.len() * 4];
        let mut clocks = vec![0u64; rows.len()];
        let before = t.lock_acquisitions();
        t.read_rows(&rows, &mut out, &mut clocks, &mut scratch);
        assert_eq!(t.lock_acquisitions() - before, 256);
        let before = t.lock_acquisitions();
        for &r in &rows {
            t.read_row(r, &mut out[..4]);
        }
        assert_eq!(t.lock_acquisitions() - before, 512);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_rows_out_of_range_panics() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let mut out = vec![0.0f32; 4];
        let mut clocks = vec![0u64; 2];
        t.read_rows(&[0, 4], &mut out, &mut clocks, &mut BatchScratch::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_rows_snapshot_out_of_range_panics() {
        let t = ShardedTable::new(4, 2, 0.0, 1);
        let mut out = vec![0.0f32; 4];
        let mut clocks = vec![0u64; 2];
        t.read_rows_snapshot(&[0, 4], &mut out, &mut clocks);
    }

    #[test]
    fn heap_bytes_reasonable() {
        let t = ShardedTable::new(1000, 16, 0.1, 1);
        // Values and clocks exactly: the striped layout stores no map.
        assert_eq!(t.heap_bytes(), 1000 * (16 * 4 + 8));
    }
}
