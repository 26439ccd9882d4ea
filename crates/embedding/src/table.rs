//! The global primary store: lock-striped embedding rows + atomic clocks.
//!
//! This is the simulation substitute for the paper's per-GPU CUDA embedding
//! tables connected by NCCL p2p: primaries live in one shared, thread-safe
//! structure, and *who pays for an access* is decided by the caller (the
//! [`crate::WorkerEmbedding`] view consults the partition and reports bytes
//! that would have crossed the interconnect).
//!
//! # Storage layout and the seqlock read path
//!
//! Row data lives *outside* the stripe locks, as f32 bit patterns behind
//! relaxed atomics (`data[shard]` is a `Vec<AtomicU32>`). The per-stripe
//! `RwLock` still serializes writers against each other and against the
//! locked read path, and guards the (lazily allocated) Adagrad
//! accumulators — but the read-mostly hot path never takes it. Instead,
//! every stripe carries a cache-line-padded **seqlock** word: writers bump
//! it to odd before mutating a row and back to even after, and
//! [`ShardedTable::read_rows_snapshot`] copies the row between two version
//! reads, retrying if the version was odd or moved. A consistent snapshot
//! read returns exactly the bytes the locked read would have, so switching
//! read paths cannot change results — only who waits on whom.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sparse_optim::SparseOpt;
use crate::store::ReadPathStats;

/// Number of lock stripes. Rows are distributed round-robin (`row % SHARDS`)
/// so hot rows spread across stripes.
const SHARDS: usize = 256;

/// Snapshot read attempts per row before giving up and taking the stripe
/// read lock. A writer parked mid-mutation (descheduled between the odd and
/// even bumps) would otherwise spin readers forever; the fallback bounds the
/// wait and is counted separately so the telemetry shows how often it fires.
const MAX_SNAPSHOT_ATTEMPTS: u64 = 8;

/// Per-stripe lock-protected state. Row *values* are not here — they live in
/// [`ShardedTable::data`] so the snapshot read path can copy them without
/// forming a reference that aliases a writer's exclusive borrow.
struct Shard {
    /// Adagrad accumulators (`rows_per_shard * dim`, indexed like the data
    /// stripe), allocated lazily on first Adagrad update. Only ever read or
    /// written under the stripe lock; the snapshot path never touches them.
    accum: Option<Vec<f32>>,
}

/// One seqlock version word, padded to its own cache line so reader
/// validation loads on one stripe never false-share with writer bumps on a
/// neighbouring stripe.
#[repr(align(64))]
struct SeqWord(AtomicU64);

/// The authoritative embedding table: `num_rows × dim` f32, with a per-row
/// update clock counting applied gradient updates (the `c_i` of §5.3).
pub struct ShardedTable {
    dim: usize,
    num_rows: usize,
    /// Row values per stripe, `dim` floats per row (stored as f32 bits),
    /// indexed by `(row / SHARDS) * dim`. Mutated only while holding the
    /// stripe's write lock *and* inside an odd seqlock window; readable
    /// either under the read lock or via a validated snapshot copy.
    data: Vec<Vec<AtomicU32>>,
    shards: Vec<RwLock<Shard>>,
    /// Per-stripe seqlock version words: even = quiescent, odd = a row
    /// mutation is in flight somewhere in the stripe.
    seqs: Vec<SeqWord>,
    clocks: Vec<AtomicU64>,
    /// Data-path shard lock acquisitions (reads, updates, writes — both the
    /// per-row and the batched API). The `hotpath.*` metrics and the bench
    /// harness read this to show how much the batched path amortises.
    lock_acquisitions: AtomicU64,
    /// Rows served lock-free by the snapshot path (`hotpath.read.snapshot`).
    snapshot_rows: AtomicU64,
    /// Snapshot attempts retried after observing a torn version word
    /// (`hotpath.read.retries`).
    read_retries: AtomicU64,
    /// Rows the snapshot path handed to the locked fallback after
    /// [`MAX_SNAPSHOT_ATTEMPTS`] (`hotpath.read.fallback`).
    fallback_rows: AtomicU64,
}

/// Reusable scratch for the batched table API ([`ShardedTable::read_rows`],
/// [`ShardedTable::apply_grads`], [`ShardedTable::write_rows`]). Callers keep
/// one per worker so grouping a batch by shard allocates nothing once the
/// buffer has warmed up.
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
    /// O(n + num_buckets) per batch; the tiered store reads the result via
    /// [`BatchScratch::groups`]. Shared by [`ShardedTable`] (bucket = lock
    /// stripe) and the tiered store (bucket = page).
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
        self.offsets.iter().enumerate().filter_map(move |(bucket, &end)| {
            let group = &self.perm[start..end as usize];
            start = end as usize;
            (!group.is_empty()).then_some((bucket, group))
        })
    }
}

impl ShardedTable {
    /// Creates a table initialised uniformly in `[-init_scale, init_scale]`,
    /// deterministic in `seed`.
    pub fn new(num_rows: usize, dim: usize, init_scale: f32, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        let rows_per_shard = num_rows.div_ceil(SHARDS);
        let mut shards = Vec::with_capacity(SHARDS);
        let mut data = Vec::with_capacity(SHARDS);
        let mut seqs = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let mut rng = StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let stripe: Vec<AtomicU32> = (0..rows_per_shard * dim)
                .map(|_| AtomicU32::new(rng.gen_range(-init_scale..=init_scale).to_bits()))
                .collect();
            data.push(stripe);
            shards.push(RwLock::new(Shard { accum: None }));
            seqs.push(SeqWord(AtomicU64::new(0)));
        }
        let clocks = (0..num_rows).map(|_| AtomicU64::new(0)).collect();
        Self {
            dim,
            num_rows,
            data,
            shards,
            seqs,
            clocks,
            lock_acquisitions: AtomicU64::new(0),
            snapshot_rows: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            fallback_rows: AtomicU64::new(0),
        }
    }

    /// Total data-path shard lock acquisitions since construction. One
    /// per-row call costs one acquisition; one batched call costs one per
    /// *distinct shard touched* — the quantity the hot path amortises. The
    /// snapshot read path costs zero except when it falls back.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Outcome counters of the snapshot read path since construction.
    pub fn read_path_stats(&self) -> ReadPathStats {
        ReadPathStats {
            snapshot_rows: self.snapshot_rows.load(Ordering::Relaxed),
            retries: self.read_retries.load(Ordering::Relaxed),
            fallback_rows: self.fallback_rows.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn count_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens an odd seqlock window on `shard`. Must be called with the
    /// stripe write lock held (writers are mutually serialized, so the
    /// version word cleanly alternates odd/even). The release fence orders
    /// the odd store before the row stores that follow it.
    #[inline]
    fn begin_row_write(&self, shard: usize) {
        self.seqs[shard].0.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Closes the seqlock window opened by [`ShardedTable::begin_row_write`];
    /// the release bump orders the row stores before the even store.
    #[inline]
    fn end_row_write(&self, shard: usize) {
        self.seqs[shard].0.fetch_add(1, Ordering::Release);
    }

    /// Copies one row out of a data stripe. Element loads are relaxed: the
    /// caller either holds the stripe lock (no concurrent writer exists) or
    /// is inside a seqlock read that validates the copy afterwards.
    #[inline]
    fn load_row(data: &[AtomicU32], slot: usize, out: &mut [f32]) {
        let cells = &data[slot..slot + out.len()];
        for (o, cell) in out.iter_mut().zip(cells) {
            *o = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Orders `scratch.perm` by `(shard, original index)` and validates every
    /// row index. Within a shard the caller's order is preserved, so a batch
    /// with duplicate rows applies them in exactly the sequence a per-row
    /// loop would.
    fn group_by_shard(&self, rows: &[u32], scratch: &mut BatchScratch) {
        for &row in rows {
            assert!((row as usize) < self.num_rows, "row {row} out of range");
        }
        scratch.group_by(rows, SHARDS, |row| row as usize % SHARDS);
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    #[inline]
    fn locate(&self, row: u32) -> (usize, usize) {
        let shard = row as usize % SHARDS;
        let slot = (row as usize / SHARDS) * self.dim;
        (shard, slot)
    }

    /// Current update clock of `row`.
    #[inline]
    pub fn clock(&self, row: u32) -> u64 {
        self.clocks[row as usize].load(Ordering::Acquire)
    }

    /// Reads `row` into `out`; returns the row's clock observed *before* the
    /// read (a consistent-enough snapshot for staleness bookkeeping).
    ///
    /// # Panics
    /// Panics if `out.len() != dim` or `row` out of range.
    pub fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        assert!((row as usize) < self.num_rows, "row {row} out of range");
        let clock = self.clock(row);
        let (shard, slot) = self.locate(row);
        self.count_lock();
        let _guard = self.shards[shard].read();
        Self::load_row(&self.data[shard], slot, out);
        clock
    }

    /// Batched [`ShardedTable::read_row`]: reads `rows[k]` into
    /// `out[k*dim..(k+1)*dim]` and stores each row's pre-read clock in
    /// `clocks[k]`, taking each shard lock once per batch instead of once
    /// per row. Bit-identical to a per-row loop (rows are disjoint slices).
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len() * dim`, `clocks.len() !=
    /// rows.len()`, or any row is out of range.
    pub fn read_rows(
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
        self.group_by_shard(rows, scratch);
        let dim = self.dim;
        let mut i = 0;
        while i < scratch.perm.len() {
            let shard = rows[scratch.perm[i] as usize] as usize % SHARDS;
            self.count_lock();
            let _guard = self.shards[shard].read();
            let data = &self.data[shard];
            while i < scratch.perm.len() {
                let k = scratch.perm[i] as usize;
                let row = rows[k];
                if row as usize % SHARDS != shard {
                    break;
                }
                clocks[k] = self.clock(row);
                let slot = (row as usize / SHARDS) * dim;
                Self::load_row(data, slot, &mut out[k * dim..(k + 1) * dim]);
                i += 1;
            }
        }
    }

    /// One seqlock read attempt loop for `row`. Returns `(clock, retries,
    /// fell_back)`; on fallback the row was served by the locked
    /// [`ShardedTable::read_row`] (which counts its lock acquisition).
    #[inline]
    fn snapshot_row(&self, row: u32, out: &mut [f32]) -> (u64, u64, bool) {
        let (shard, slot) = self.locate(row);
        let seq = &self.seqs[shard].0;
        let data = &self.data[shard];
        let mut retries = 0u64;
        loop {
            let v1 = seq.load(Ordering::Acquire);
            if v1 & 1 == 0 {
                let clock = self.clock(row);
                Self::load_row(data, slot, out);
                // Order the row loads before the validation load; paired
                // with the writer's release bumps, `v2 == v1` proves no
                // mutation overlapped the copy.
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == v1 {
                    return (clock, retries, false);
                }
            }
            retries += 1;
            if retries >= MAX_SNAPSHOT_ATTEMPTS {
                let clock = self.read_row(row, out);
                return (clock, retries, true);
            }
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn note_read_stats(&self, snapshots: u64, retries: u64, fallbacks: u64) {
        if snapshots > 0 {
            self.snapshot_rows.fetch_add(snapshots, Ordering::Relaxed);
        }
        if retries > 0 {
            self.read_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if fallbacks > 0 {
            self.fallback_rows.fetch_add(fallbacks, Ordering::Relaxed);
        }
    }

    /// Lock-free [`ShardedTable::read_row`]: copies `row` via the stripe
    /// seqlock, retrying torn reads and falling back to the locked path
    /// after `MAX_SNAPSHOT_ATTEMPTS` (8). A successful snapshot returns
    /// exactly the bytes the locked read would have returned at the same
    /// instant, so the two paths are interchangeable bit-for-bit.
    ///
    /// # Panics
    /// Panics if `out.len() != dim` or `row` out of range.
    pub fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        assert!((row as usize) < self.num_rows, "row {row} out of range");
        let (clock, retries, fell_back) = self.snapshot_row(row, out);
        self.note_read_stats(!fell_back as u64, retries, fell_back as u64);
        clock
    }

    /// Batched [`ShardedTable::read_row_snapshot`]: zero lock acquisitions
    /// on the happy path and — unlike [`ShardedTable::read_rows`] — no
    /// shard grouping pass either: rows are copied in the caller's order
    /// straight out of the stripes, validated per row by the seqlock.
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len() * dim`, `clocks.len() !=
    /// rows.len()`, or any row is out of range.
    pub fn read_rows_snapshot(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64]) {
        assert_eq!(
            out.len(),
            rows.len() * self.dim,
            "output buffer length != rows * dim"
        );
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        for &row in rows {
            assert!((row as usize) < self.num_rows, "row {row} out of range");
        }
        let dim = self.dim;
        let (mut snapshots, mut retries, mut fallbacks) = (0u64, 0u64, 0u64);
        for (k, &row) in rows.iter().enumerate() {
            let (clock, r, fell_back) = self.snapshot_row(row, &mut out[k * dim..(k + 1) * dim]);
            clocks[k] = clock;
            retries += r;
            if fell_back {
                fallbacks += 1;
            } else {
                snapshots += 1;
            }
        }
        self.note_read_stats(snapshots, retries, fallbacks);
    }

    /// Applies one gradient `grad` to `row` under `opt`, increments the
    /// row's clock, and returns the new clock value.
    pub fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        assert!((row as usize) < self.num_rows, "row {row} out of range");
        let (shard, slot) = self.locate(row);
        {
            self.count_lock();
            let mut guard = self.shards[shard].write();
            self.begin_row_write(shard);
            Self::apply_in_shard(&self.data[shard], &mut guard.accum, slot, self.dim, grad, opt);
            self.end_row_write(shard);
        }
        self.clocks[row as usize].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The single-row update body shared by [`ShardedTable::apply_grad`] and
    /// [`ShardedTable::apply_grads`], so the two paths are the same FP
    /// operation sequence by construction. Caller holds the stripe write
    /// lock and an open seqlock window.
    #[inline]
    fn apply_in_shard(
        data: &[AtomicU32],
        accum: &mut Option<Vec<f32>>,
        slot: usize,
        dim: usize,
        grad: &[f32],
        opt: &SparseOpt,
    ) {
        match *opt {
            SparseOpt::Sgd { lr } => {
                for (cell, &g) in data[slot..slot + dim].iter().zip(grad) {
                    let p = f32::from_bits(cell.load(Ordering::Relaxed));
                    cell.store((p - lr * g).to_bits(), Ordering::Relaxed);
                }
            }
            SparseOpt::Adagrad { lr, eps } => {
                if accum.is_none() {
                    *accum = Some(vec![0.0; data.len()]);
                }
                let acc = accum.as_mut().expect("accumulator allocated above");
                let acc = &mut acc[slot..slot + dim];
                for ((cell, &g), a) in data[slot..slot + dim].iter().zip(grad).zip(acc.iter_mut()) {
                    *a += g * g;
                    let p = f32::from_bits(cell.load(Ordering::Relaxed));
                    cell.store((p - lr * g / (a.sqrt() + eps)).to_bits(), Ordering::Relaxed);
                }
            }
        }
    }

    /// Batched [`ShardedTable::apply_grad`]: applies `grads[k*dim..(k+1)*dim]`
    /// to `rows[k]` under `opt`, ticking each row's clock and storing the new
    /// clock in `clocks[k]`. Each shard lock is taken once per batch; within
    /// a shard, rows apply in the caller's order, so duplicate rows (and the
    /// resulting Adagrad accumulator sequence) are bit-identical to a
    /// per-row loop over `apply_grad`. The seqlock window opens and closes
    /// around each row, so snapshot readers only ever retry the row being
    /// mutated, not the whole batch.
    ///
    /// # Panics
    /// Panics if `grads.len() != rows.len() * dim`, `clocks.len() !=
    /// rows.len()`, or any row is out of range.
    pub fn apply_grads(
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
        self.group_by_shard(rows, scratch);
        let dim = self.dim;
        let mut i = 0;
        while i < scratch.perm.len() {
            let shard = rows[scratch.perm[i] as usize] as usize % SHARDS;
            self.count_lock();
            let mut guard = self.shards[shard].write();
            let data = &self.data[shard];
            while i < scratch.perm.len() {
                let k = scratch.perm[i] as usize;
                let row = rows[k];
                if row as usize % SHARDS != shard {
                    break;
                }
                let slot = (row as usize / SHARDS) * dim;
                self.begin_row_write(shard);
                Self::apply_in_shard(
                    data,
                    &mut guard.accum,
                    slot,
                    dim,
                    &grads[k * dim..(k + 1) * dim],
                    opt,
                );
                self.end_row_write(shard);
                clocks[k] = self.clocks[row as usize].fetch_add(1, Ordering::AcqRel) + 1;
                i += 1;
            }
        }
    }

    /// Overwrites `row` with explicit values (used by tests and by model
    /// checkpoint restore). Does not advance the clock.
    pub fn write_row(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        let (shard, slot) = self.locate(row);
        self.count_lock();
        let _guard = self.shards[shard].write();
        self.begin_row_write(shard);
        for (cell, &v) in self.data[shard][slot..slot + self.dim].iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
        self.end_row_write(shard);
    }

    /// Batched [`ShardedTable::write_row`]: overwrites `rows[k]` with
    /// `values[k*dim..(k+1)*dim]`, one shard lock per batch per shard. Does
    /// not advance clocks. Duplicate rows write in the caller's order (last
    /// write wins, same as a per-row loop).
    ///
    /// # Panics
    /// Panics if `values.len() != rows.len() * dim` or any row is out of
    /// range.
    pub fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        assert_eq!(
            values.len(),
            rows.len() * self.dim,
            "values length != rows * dim"
        );
        self.group_by_shard(rows, scratch);
        let dim = self.dim;
        let mut i = 0;
        while i < scratch.perm.len() {
            let shard = rows[scratch.perm[i] as usize] as usize % SHARDS;
            self.count_lock();
            let _guard = self.shards[shard].write();
            let data = &self.data[shard];
            while i < scratch.perm.len() {
                let k = scratch.perm[i] as usize;
                let row = rows[k];
                if row as usize % SHARDS != shard {
                    break;
                }
                let slot = (row as usize / SHARDS) * dim;
                self.begin_row_write(shard);
                for (cell, &v) in data[slot..slot + dim]
                    .iter()
                    .zip(&values[k * dim..(k + 1) * dim])
                {
                    cell.store(v.to_bits(), Ordering::Relaxed);
                }
                self.end_row_write(shard);
                i += 1;
            }
        }
    }

    /// Overwrites `row` with explicit values *and* clock — checkpoint
    /// restore and crash-recovery rollback, where the row must rejoin the
    /// protocol exactly as it was saved. Unlike [`ShardedTable::write_row`],
    /// the stored clock replaces the current one (it may move backwards:
    /// rolling back lost updates shrinks the clock, and staleness gaps are
    /// computed with saturating subtraction precisely so replicas that
    /// observed the lost updates read as "fresh", not as violations).
    pub fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        self.write_row(row, values);
        self.clocks[row as usize].store(clock, Ordering::Release);
    }

    /// True if any shard holds allocated optimizer (Adagrad) state.
    pub fn has_optimizer_state(&self) -> bool {
        self.shards.iter().any(|s| s.read().accum.is_some())
    }

    /// Reads `row`'s Adagrad accumulator into `out`. Returns `false` (and
    /// zero-fills `out`) if the row's shard has never taken an Adagrad
    /// update — the accumulator is implicitly zero.
    ///
    /// # Panics
    /// Panics if `out.len() != dim` or `row` out of range.
    pub fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        assert!((row as usize) < self.num_rows, "row {row} out of range");
        let (shard, slot) = self.locate(row);
        let guard = self.shards[shard].read();
        match &guard.accum {
            Some(a) => {
                out.copy_from_slice(&a[slot..slot + self.dim]);
                true
            }
            None => {
                out.fill(0.0);
                false
            }
        }
    }

    /// Overwrites `row`'s Adagrad accumulator, allocating shard state as
    /// needed (checkpoint restore and crash rollback: optimizer state must
    /// move with the values it produced, or a restored Adagrad run re-takes
    /// the early large steps and diverges from the uninterrupted one).
    pub fn restore_accum(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        assert!((row as usize) < self.num_rows, "row {row} out of range");
        let (shard, slot) = self.locate(row);
        let mut guard = self.shards[shard].write();
        if guard.accum.is_none() {
            guard.accum = Some(vec![0.0; self.data[shard].len()]);
        }
        let accum = guard.accum.as_mut().expect("accumulator allocated above");
        accum[slot..slot + self.dim].copy_from_slice(values);
    }

    /// Sum of all clocks — total updates applied to the table.
    pub fn total_updates(&self) -> u64 {
        self.clocks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Approximate heap footprint, bytes.
    pub fn heap_bytes(&self) -> usize {
        let data: usize = self.data.iter().map(|stripe| stripe.len() * 4).sum();
        let accum: usize = self
            .shards
            .iter()
            .map(|s| s.read().accum.as_ref().map_or(0, Vec::len) * 4)
            .sum();
        data + accum + self.clocks.len() * 8
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

    #[test]
    fn snapshot_reads_take_no_locks() {
        let t = ShardedTable::new(1024, 4, 0.1, 1);
        let rows: Vec<u32> = (0..512u32).collect();
        let mut out = vec![0.0f32; rows.len() * 4];
        let mut clocks = vec![0u64; rows.len()];
        let before = t.lock_acquisitions();
        t.read_rows_snapshot(&rows, &mut out, &mut clocks);
        assert_eq!(t.lock_acquisitions() - before, 0);
        let stats = t.read_path_stats();
        assert_eq!(stats.snapshot_rows, 512);
        assert_eq!(stats.fallback_rows, 0);
        // Uncontended reads never observe a torn version.
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn apply_grads_bit_identical_to_per_row_loop() {
        // Duplicate rows included on purpose: the batched path must preserve
        // the caller's order within a shard so accumulator sequences match.
        let rows: Vec<u32> = vec![3, 259, 3, 514, 2, 3, 258];
        let dim = 4;
        let grads: Vec<f32> = (0..rows.len() * dim).map(|i| (i as f32) * 0.3 - 2.0).collect();
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
        let rows: Vec<u32> = (0..512u32).collect(); // 256 shards, 2 rows each
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
        // Shard padding rounds up; at least rows*dim*4 bytes.
        assert!(t.heap_bytes() >= 1000 * 16 * 4);
    }
}
