//! Performance of the distributed embedding table: bounded-async reads,
//! gradient write-back, the underlying sharded store, how its two read
//! paths scale with threads, and the spillable tier's fault path.

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_data::Zipf;
use hetgmp_embedding::{
    BatchScratch, RowStore, ShardedTable, SparseOpt, StalenessBound, TieredConfig, TieredTable,
    WorkerEmbedding,
};
use hetgmp_partition::Partition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 20_000;
const DIM: usize = 16;
const FIELDS: usize = 26;
const BATCH: usize = 256;

fn setup() -> (ShardedTable, Partition, Vec<u64>, Vec<Vec<u32>>) {
    let table = ShardedTable::new(ROWS, DIM, 0.05, 1);
    let mut rng = StdRng::seed_from_u64(9);
    let emb_primary: Vec<u32> = (0..ROWS).map(|_| rng.gen_range(0..4)).collect();
    let mut part = Partition::new(4, vec![0; 1], emb_primary);
    // Replicate the 200 hottest rows on worker 0.
    for e in 0..200u32 {
        part.add_replica(e, 0);
    }
    // Zipf-ish access pattern.
    let freq: Vec<u64> = (0..ROWS).map(|i| (ROWS / (i + 1)) as u64).collect();
    let samples: Vec<Vec<u32>> = (0..BATCH)
        .map(|_| {
            (0..FIELDS)
                .map(|_| {
                    let r: f64 = rng.gen::<f64>();
                    ((r * r * ROWS as f64) as u32).min(ROWS as u32 - 1)
                })
                .collect()
        })
        .collect();
    (table, part, freq, samples)
}

fn bench(c: &mut Criterion) {
    let (table, part, freq, samples) = setup();
    let sample_refs: Vec<&[u32]> = samples.iter().map(Vec::as_slice).collect();
    let total: usize = sample_refs.iter().map(|s| s.len()).sum();
    let mut group = c.benchmark_group("embedding");
    group.sample_size(20);

    group.bench_function("table_read_row", |b| {
        let mut buf = vec![0.0f32; DIM];
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % ROWS as u32;
            table.read_row(i, &mut buf)
        });
    });

    group.bench_function("table_apply_grad", |b| {
        let grad = vec![0.01f32; DIM];
        let opt = SparseOpt::adagrad(0.05);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % ROWS as u32;
            table.apply_grad(i, &grad, &opt)
        });
    });

    // Batched table API vs the per-row loops above: same rows, one shard
    // lock per group instead of one per row.
    let batch_rows: Vec<u32> = (0..BATCH as u32).map(|i| (i * 37) % ROWS as u32).collect();

    group.bench_function("table_read_rows_batched", |b| {
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; BATCH * DIM];
        let mut clocks = vec![0u64; BATCH];
        b.iter(|| table.read_rows(&batch_rows, &mut out, &mut clocks, &mut scratch));
    });

    group.bench_function("table_apply_grads_batched", |b| {
        let mut scratch = BatchScratch::default();
        let grads = vec![0.01f32; BATCH * DIM];
        let opt = SparseOpt::adagrad(0.05);
        let mut clocks = vec![0u64; BATCH];
        b.iter(|| table.apply_grads(&batch_rows, &grads, &opt, &mut clocks, &mut scratch));
    });

    group.bench_function("read_batch_s100", |b| {
        let mut w = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(100));
        let mut out = vec![0.0f32; total * DIM];
        b.iter(|| w.read_batch(&sample_refs, &mut out));
    });

    group.bench_function("read_batch_s0", |b| {
        let mut w = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        let mut out = vec![0.0f32; total * DIM];
        b.iter(|| w.read_batch(&sample_refs, &mut out));
    });

    group.bench_function("apply_gradients", |b| {
        let mut w = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(100));
        let grads = vec![0.001f32; total * DIM];
        let opt = SparseOpt::adagrad(0.05);
        b.iter(|| w.apply_gradients(&sample_refs, &grads, &opt));
    });

    group.finish();
}

/// Rows of the read-scaling table.
const SCALING_ROWS: usize = 200_000;
/// Rows per read: small batches are where the locked path's per-call lock
/// and shard grouping dominate, which is what the snapshot path removes.
const READ_BATCH: usize = 128;
/// Read batches per thread per iteration.
const SCALING_BATCHES: usize = 256;
/// Thread 0 also applies a gradient to every this-many-th batch's rows, so
/// both paths meet the same writer and the snapshot path's retry and
/// fallback run instead of an uncontended best case.
const WRITE_EVERY: usize = 16;

/// The read path's thread scaling: one Zipf-skewed, read-mostly workload
/// through the locked batched read (`read_rows`) and the seqlock snapshot
/// read (`read_rows_snapshot`) at 1, 2 and 4 threads sharing one table.
/// This is the measurement that keeps `ReadPath` a runtime choice.
fn read_scaling(c: &mut Criterion) {
    const SEED: u64 = 0xB45E11 ^ 0xC0FFEE;
    let zipf = Zipf::new(SCALING_ROWS, 1.05);
    let per_thread: Vec<Vec<Vec<u32>>> = (0..4u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(SEED ^ t.wrapping_mul(0x9E3779B9));
            (0..SCALING_BATCHES)
                .map(|_| (0..READ_BATCH).map(|_| zipf.sample(&mut rng) as u32).collect())
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let grads: Vec<f32> = (0..READ_BATCH * DIM).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let opt = SparseOpt::adagrad(0.05);
    let table = ShardedTable::new(SCALING_ROWS, DIM, 0.05, 1);

    let mut group = c.benchmark_group("embedding");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        for (path, snapshot) in [("locked", false), ("snapshot", true)] {
            group.bench_function(format!("read_rows_{path}_{threads}t"), |b| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for (t, batches) in per_thread[..threads].iter().enumerate() {
                            let (table, grads, opt) = (&table, &grads, &opt);
                            scope.spawn(move || {
                                let mut scratch = BatchScratch::default();
                                let mut out = vec![0.0f32; READ_BATCH * DIM];
                                let mut clocks = vec![0u64; READ_BATCH];
                                for (i, batch) in batches.iter().enumerate() {
                                    if snapshot {
                                        table.read_rows_snapshot(batch, &mut out, &mut clocks);
                                    } else {
                                        table.read_rows(batch, &mut out, &mut clocks, &mut scratch);
                                    }
                                    criterion::black_box(&out);
                                    if t == 0 && i % WRITE_EVERY == 0 {
                                        table.apply_grads(
                                            batch,
                                            grads,
                                            opt,
                                            &mut clocks,
                                            &mut scratch,
                                        );
                                    }
                                }
                            });
                        }
                    })
                });
            });
        }
    }
    group.finish();
}

/// Rows and width of the tiered sweep's table, and its RAM budget: the
/// geometry of the `avazu_tiered` benchmark workload, where two pages with
/// Adagrad accumulators fit.
const TIERED_ROWS: usize = 3_500;
const TIERED_DIM: usize = 32;
const TIERED_BUDGET: usize = 120 << 10;

/// The spillable tier's fault path: one `read_rows` and one Adagrad
/// `apply_grads` over every row of a table 3.7x over its budget, so each
/// sweep loads and writes back most pages.
fn tiered_sweep(c: &mut Criterion) {
    let table = TieredTable::new(
        TIERED_ROWS,
        TIERED_DIM,
        0.05,
        1,
        TieredConfig {
            budget_bytes: TIERED_BUDGET,
            ..TieredConfig::default()
        },
    );
    let rows: Vec<u32> = (0..TIERED_ROWS as u32).collect();
    let grads = vec![0.01f32; TIERED_ROWS * TIERED_DIM];
    let opt = SparseOpt::adagrad(0.05);
    let mut scratch = BatchScratch::default();
    let mut out = vec![0.0f32; TIERED_ROWS * TIERED_DIM];
    let mut clocks = vec![0u64; TIERED_ROWS];

    let mut group = c.benchmark_group("embedding");
    group.sample_size(20);
    group.bench_function("tiered_sweep", |b| {
        b.iter(|| {
            table.read_rows(&rows, &mut out, &mut clocks, &mut scratch);
            criterion::black_box(&out);
            table.apply_grads(&rows, &grads, &opt, &mut clocks, &mut scratch);
        });
    });
    group.finish();
}

criterion_group!(benches, bench, read_scaling, tiered_sweep);
criterion_main!(benches);
