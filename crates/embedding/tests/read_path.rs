//! Read-path contract tests: the snapshot path must never expose a torn row
//! under concurrent writers, must be *bit-identical* to the locked path
//! under arbitrary op interleavings, and the fill planners must never hand
//! duplicate row ids to a batched read.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use hetgmp_embedding::{
    BatchScratch, CachedWorkerEmbedding, ReadPath, ReadPathStats, RowStore, ShardedTable,
    SparseOpt, StalenessBound, TieredConfig, TieredTable, WorkerEmbedding,
};
use hetgmp_partition::Partition;
use proptest::prelude::*;

// --- torn-read stress ---------------------------------------------------

/// A writer keeps overwriting rows with *uniform* values (all `dim`
/// coordinates equal) while readers hammer the batched read. Any torn read
/// — a copy straddling a row mutation — would surface as a row whose
/// coordinates disagree, because every consistent version of every row is
/// uniform by construction. Writer and readers start together on a barrier
/// and every reader reads at least once before it checks `stop`, so the
/// stress is never vacuous however fast the writer finishes.
#[test]
fn snapshot_reads_never_observe_torn_rows() {
    const ROWS: usize = 512;
    const DIM: usize = 8;
    const READERS: usize = 3;
    // init_scale 0.0: every row starts uniform (all zeros).
    let table = ShardedTable::new(ROWS, DIM, 0.0, 7);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            let opt = SparseOpt::sgd(1.0);
            let mut scratch = BatchScratch::default();
            let mut clocks = vec![0u64; 4];
            for i in 0..30_000u32 {
                let row = i % ROWS as u32;
                let val = i as f32;
                table.write_row(row, &[val; DIM]);
                // A batched apply mutates many rows under one held write
                // lock: a uniform gradient keeps the rows uniform.
                if i % 64 == 0 {
                    let rows = [row, (row + 17) % ROWS as u32, row, (row + 63) % ROWS as u32];
                    let grads = [1.0f32; 4 * DIM];
                    table.apply_grads(&rows, &grads, &opt, &mut clocks, &mut scratch);
                }
            }
            stop.store(true, Ordering::Release);
        });
        for _ in 0..READERS {
            s.spawn(|| {
                let all: Vec<u32> = (0..ROWS as u32).collect();
                let mut out = vec![0.0f32; ROWS * DIM];
                let mut clocks = vec![0u64; ROWS];
                let mut row_buf = vec![0.0f32; DIM];
                start.wait();
                loop {
                    table.read_rows_snapshot(&all, &mut out, &mut clocks);
                    for (k, chunk) in out.chunks_exact(DIM).enumerate() {
                        let first = chunk[0].to_bits();
                        assert!(
                            chunk.iter().all(|v| v.to_bits() == first),
                            "torn row {k}: {chunk:?}"
                        );
                    }
                    let probe = clocks[0] as u32 % ROWS as u32;
                    table.read_row_snapshot(probe, &mut row_buf);
                    let first = row_buf[0].to_bits();
                    assert!(
                        row_buf.iter().all(|v| v.to_bits() == first),
                        "torn row {probe}: {row_buf:?}"
                    );
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
    });
    // The counters stay consistent (a fallback also counts a lock).
    let stats = table.read_path_stats();
    assert!(stats.fallback_rows <= table.lock_acquisitions());
}

// --- differential proptest: snapshot ≡ locked ---------------------------

#[derive(Debug, Clone)]
enum Op {
    ApplyGrads(Vec<u32>),
    WriteRows(Vec<u32>),
    ApplyGrad(u32),
    RestoreRow(u32, u64),
}

fn op_strategy(num_rows: usize) -> impl Strategy<Value = Op> {
    let row = 0..num_rows as u32;
    prop_oneof![
        prop::collection::vec(row.clone(), 1..32).prop_map(Op::ApplyGrads),
        prop::collection::vec(row.clone(), 1..32).prop_map(Op::WriteRows),
        row.clone().prop_map(Op::ApplyGrad),
        (row, 0u64..100).prop_map(|(r, c)| Op::RestoreRow(r, c)),
    ]
}

fn grad_at(step: usize, pos: usize, coord: usize) -> f32 {
    let x = (step * 7919 + pos * 104729 + coord * 31) as u32;
    (x.wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// After every op, a snapshot read of the whole table must be
    /// bit-identical — data *and* clocks — to the locked read. This is the
    /// determinism contract that lets `--read-path` stay out of the config
    /// digest.
    #[test]
    fn snapshot_reads_bit_equal_locked_reads(
        num_rows in 2usize..400,
        dim in 1usize..16,
        seed in 0u64..u64::MAX,
        ops in prop::collection::vec(op_strategy(400), 1..12),
        opt_is_adagrad in prop::bool::ANY,
    ) {
        let opt = if opt_is_adagrad {
            SparseOpt::Adagrad { lr: 0.3, eps: 1e-8 }
        } else {
            SparseOpt::Sgd { lr: 0.1 }
        };
        let table = ShardedTable::new(num_rows, dim, 0.1, seed);
        let mut scratch = BatchScratch::default();
        let all: Vec<u32> = (0..num_rows as u32).collect();
        let mut snap = vec![0.0f32; num_rows * dim];
        let mut snap_clocks = vec![0u64; num_rows];
        let mut locked = vec![0.0f32; num_rows * dim];
        let mut locked_clocks = vec![0u64; num_rows];
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::ApplyGrads(rows) => {
                    let rows: Vec<u32> =
                        rows.iter().map(|r| r % num_rows as u32).collect();
                    let grads: Vec<f32> = (0..rows.len() * dim)
                        .map(|i| grad_at(step, i / dim, i % dim))
                        .collect();
                    let mut clocks = vec![0u64; rows.len()];
                    table.apply_grads(&rows, &grads, &opt, &mut clocks, &mut scratch);
                }
                Op::WriteRows(rows) => {
                    let rows: Vec<u32> =
                        rows.iter().map(|r| r % num_rows as u32).collect();
                    let values: Vec<f32> = (0..rows.len() * dim)
                        .map(|i| grad_at(step + 13, i / dim, i % dim))
                        .collect();
                    table.write_rows(&rows, &values, &mut scratch);
                }
                Op::ApplyGrad(row) => {
                    let row = row % num_rows as u32;
                    let grad: Vec<f32> =
                        (0..dim).map(|c| grad_at(step, 0, c)).collect();
                    table.apply_grad(row, &grad, &opt);
                }
                Op::RestoreRow(row, clock) => {
                    let row = row % num_rows as u32;
                    let values: Vec<f32> =
                        (0..dim).map(|c| grad_at(step + 29, 0, c)).collect();
                    table.restore_row(row, &values, *clock);
                }
            }
            table.read_rows_snapshot(&all, &mut snap, &mut snap_clocks);
            table.read_rows(&all, &mut locked, &mut locked_clocks, &mut scratch);
            prop_assert_eq!(
                snap.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                locked.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(&snap_clocks, &locked_clocks);
            // Per-row path agrees too.
            let probe = (step as u32 * 31) % num_rows as u32;
            let mut a = vec![0.0f32; dim];
            let mut b = vec![0.0f32; dim];
            let ca = table.read_row_snapshot(probe, &mut a);
            let cb = table.read_row(probe, &mut b);
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
        // The in-memory table neither retries a read nor falls back.
        let stats = table.read_path_stats();
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.fallback_rows, 0);
    }
}

// --- tiered store: resident pages vs buffer-manager fallback ------------

#[test]
fn tiered_snapshot_matches_locked_and_counts_locks() {
    let (num_rows, dim) = (256usize, 8usize);
    // Budget two pages of 32 rows: most reads fault.
    let cfg = TieredConfig {
        budget_bytes: 2 * 32 * dim * 4,
        dir: None,
        rows_per_page: 32,
    };
    let tiered = TieredTable::new(num_rows, dim, 0.1, 42, cfg);
    let opt = SparseOpt::sgd(0.05);
    for r in (0..num_rows as u32).step_by(7) {
        tiered.apply_grad(r, &vec![0.5; dim], &opt);
    }
    let rows: Vec<u32> = (0..num_rows as u32).rev().collect();
    let mut scratch = BatchScratch::default();
    let mut snap = vec![0.0f32; num_rows * dim];
    let mut snap_clocks = vec![0u64; num_rows];
    let locks_before = tiered.lock_acquisitions();
    RowStore::read_rows_snapshot(&tiered, &rows, &mut snap, &mut snap_clocks, &mut scratch);
    // Satellite: the tiered fallback path counts its lock acquisitions, so
    // `hotpath.lock_acquisitions` is not silently 0 under `--storage tiered`.
    assert!(tiered.lock_acquisitions() > locks_before);
    let stats = RowStore::read_path_stats(&tiered);
    assert_eq!(stats.snapshot_rows + stats.fallback_rows, num_rows as u64);
    assert!(stats.fallback_rows > 0, "tight budget must fault");
    assert_eq!(stats.retries, 0);
    // Bit-identical to the locked batched read.
    let mut locked = vec![0.0f32; num_rows * dim];
    let mut locked_clocks = vec![0u64; num_rows];
    tiered.read_rows(&rows, &mut locked, &mut locked_clocks, &mut scratch);
    assert_eq!(
        snap.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        locked.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(snap_clocks, locked_clocks);
}

// --- fill planners never pass duplicate ids to a batched read -----------

/// A `RowStore` wrapper recording the id list of every batched read, so the
/// dedup invariant is pinned at the store boundary rather than inferred
/// from traffic counters.
struct CountingStore<'a> {
    inner: &'a ShardedTable,
    batched_reads: Mutex<Vec<Vec<u32>>>,
    per_row_reads: AtomicUsize,
}

impl<'a> CountingStore<'a> {
    fn new(inner: &'a ShardedTable) -> Self {
        Self {
            inner,
            batched_reads: Mutex::new(Vec::new()),
            per_row_reads: AtomicUsize::new(0),
        }
    }
}

impl RowStore for CountingStore<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn clock(&self, row: u32) -> u64 {
        self.inner.clock(row)
    }
    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        self.per_row_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_row(row, out)
    }
    fn read_rows(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        self.batched_reads.lock().unwrap().push(rows.to_vec());
        self.inner.read_rows(rows, out, clocks, scratch)
    }
    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        _scratch: &mut BatchScratch,
    ) {
        self.batched_reads.lock().unwrap().push(rows.to_vec());
        self.inner.read_rows_snapshot(rows, out, clocks)
    }
    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        self.inner.apply_grad(row, grad, opt)
    }
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        self.inner.apply_grads(rows, grads, opt, clocks, scratch)
    }
    fn write_row(&self, row: u32, values: &[f32]) {
        self.inner.write_row(row, values)
    }
    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        self.inner.write_rows(rows, values, scratch)
    }
    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        self.inner.restore_row(row, values, clock)
    }
    fn has_optimizer_state(&self) -> bool {
        self.inner.has_optimizer_state()
    }
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        self.inner.read_accum(row, out)
    }
    fn restore_accum(&self, row: u32, values: &[f32]) {
        self.inner.restore_accum(row, values)
    }
    fn total_updates(&self) -> u64 {
        self.inner.total_updates()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn lock_acquisitions(&self) -> u64 {
        self.inner.lock_acquisitions()
    }
    fn read_path_stats(&self) -> ReadPathStats {
        self.inner.read_path_stats()
    }
}

impl CountingStore<'_> {
    fn assert_all_reads_deduped(&self) {
        let calls = self.batched_reads.lock().unwrap();
        assert!(!calls.is_empty(), "expected at least one batched read");
        for (i, call) in calls.iter().enumerate() {
            let mut sorted = call.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                call.len(),
                "batched read {i} carried duplicate row ids: {call:?}"
            );
        }
    }
}

#[test]
fn lfu_fill_planner_dedups_rows_before_batched_read() {
    let table = ShardedTable::new(16, 4, 0.1, 5);
    let store = CountingStore::new(&table);
    // All rows primary on worker 1: every unique id worker 0 touches must
    // reach the store exactly once per batch.
    let part = Partition::new(2, vec![0, 1], vec![1; 16]);
    for path in [ReadPath::Snapshot, ReadPath::Locked] {
        let mut w = CachedWorkerEmbedding::new(0, &store, &part, 8, StalenessBound::Bounded(10));
        w.set_read_path(path);
        // Duplicate hot keys within and across samples.
        let samples: Vec<&[u32]> = vec![&[7, 7, 9, 7], &[9, 7, 2]];
        let mut out = vec![0.0f32; 7 * 4];
        w.read_batch(&samples, &mut out);
        // Recovery re-primes the cache through one batched, deduped read.
        w.recover_from_crash();
    }
    store.assert_all_reads_deduped();
}

#[test]
fn replica_worker_dedups_rows_before_batched_read() {
    let table = ShardedTable::new(16, 4, 0.1, 5);
    let store = CountingStore::new(&table);
    let part = Partition::new(2, vec![0, 1], vec![1; 16]);
    let freq = vec![1u64; 16];
    let mut w = WorkerEmbedding::new(0, &store, &part, &freq, StalenessBound::Bounded(10));
    let samples: Vec<&[u32]> = vec![&[3, 3, 11, 3], &[11, 3, 5]];
    let mut out = vec![0.0f32; 7 * 4];
    w.read_batch(&samples, &mut out);
    store.assert_all_reads_deduped();
}

#[test]
fn replica_worker_warm_loads_through_one_batched_read() {
    let table = ShardedTable::new(16, 4, 0.1, 5);
    let opt = SparseOpt::sgd(0.3);
    for r in 0..16u32 {
        table.apply_grad(r, &[r as f32; 4], &opt);
    }
    let store = CountingStore::new(&table);
    let mut part = Partition::new(2, vec![0, 1], vec![1; 16]);
    let secondaries = [2u32, 5, 11, 14];
    for &e in &secondaries {
        part.add_replica(e, 0);
    }
    let freq = vec![1u64; 16];
    let mut w = WorkerEmbedding::new(0, &store, &part, &freq, StalenessBound::Infinite);
    // Set-up is exactly one deduplicated batched read of the secondaries —
    // on a tiered table a per-row warm-load is a page fault per replica.
    assert_eq!(
        *store.batched_reads.lock().unwrap(),
        vec![secondaries.to_vec()]
    );
    assert_eq!(store.per_row_reads.load(Ordering::Relaxed), 0);
    // The replicas hold the primaries' bits: under an infinite bound they
    // are served from the cache, with no further table read.
    let samples: Vec<&[u32]> = vec![&secondaries];
    let mut out = vec![0.0f32; secondaries.len() * 4];
    w.read_batch(&samples, &mut out);
    assert_eq!(store.batched_reads.lock().unwrap().len(), 1);
    let mut expect = vec![0.0f32; 4];
    for (k, &e) in secondaries.iter().enumerate() {
        table.read_row(e, &mut expect);
        assert_eq!(
            out[k * 4..(k + 1) * 4]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "replica of row {e}"
        );
    }
}

#[test]
fn replica_worker_sync_all_is_one_batched_read_of_exactly_the_replicas() {
    let table = ShardedTable::new(64, 4, 0.1, 5);
    let store = CountingStore::new(&table);
    let mut part = Partition::new(2, vec![0, 1], vec![1; 64]);
    // Added out of order: the refresh still reads them ascending, and
    // touches none of the other sixty rows.
    let secondaries = [41u32, 2, 63, 17];
    for &e in &secondaries {
        part.add_replica(e, 0);
    }
    let freq = vec![1u64; 64];
    let mut w = WorkerEmbedding::new(0, &store, &part, &freq, StalenessBound::Bounded(10));
    store.batched_reads.lock().unwrap().clear();
    assert_eq!(w.sync_all().iter().sum::<u64>(), secondaries.len() as u64);
    assert_eq!(
        *store.batched_reads.lock().unwrap(),
        vec![vec![2u32, 17, 41, 63]]
    );
    assert_eq!(store.per_row_reads.load(Ordering::Relaxed), 0);
}
