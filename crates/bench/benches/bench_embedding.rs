//! Performance of the distributed embedding table: bounded-async reads,
//! gradient write-back, the underlying segmented store, its read and
//! owner-apply phases at two threads, and the spillable tier's fault path.

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_data::Zipf;
use std::sync::Barrier;

use hetgmp_embedding::{
    BatchScratch, RowStore, ShardedTable, SparseOpt, StalenessBound, TieredConfig, TieredTable,
    WorkerEmbedding, WriteExchange,
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

    // Batched table API vs the per-row loops above: same rows, one segment
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

/// Rows of the owner-phase table: `company_fetch`'s 92k-row vocabulary.
const PHASE_ROWS: usize = 92_000;
/// Owners, one thread each, as in `company_fetch`.
const PHASE_OWNERS: usize = 2;
/// Zipf draws per owner batch; about 3.9k distinct rows after dedup.
const PHASE_DRAWS: usize = 8_192;
/// Batches per owner per iteration.
const PHASE_BATCHES: usize = 8;

/// The in-memory table as the trainer drives it: two owners, one thread
/// each, on a table with one segment per owner. Each step is a read phase
/// (every owner reads its batch's distinct rows), a barrier, the routing
/// of an Adagrad gradient per row to its primary owner, a barrier, and the
/// owner apply (`WriteExchange::apply_owned`).
fn owner_phases(c: &mut Criterion) {
    let zipf = Zipf::new(PHASE_ROWS, 1.05);
    let batches: Vec<Vec<Vec<u32>>> = (0..PHASE_OWNERS as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(0x0A5E ^ t.wrapping_mul(0x9E3779B9));
            (0..PHASE_BATCHES)
                .map(|_| {
                    let mut ids: Vec<u32> = (0..PHASE_DRAWS)
                        .map(|_| zipf.sample(&mut rng) as u32)
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                })
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let primary = (0..PHASE_ROWS)
        .map(|_| rng.gen_range(0..PHASE_OWNERS as u32))
        .collect();
    let part = Partition::new(PHASE_OWNERS, vec![0], primary);
    let table = ShardedTable::with_partition(PHASE_ROWS, DIM, 0.05, 1, &part);
    let exchange = WriteExchange::new(PHASE_OWNERS);
    let opt = SparseOpt::adagrad(0.05);
    let grad = [0.01f32; DIM];

    let mut group = c.benchmark_group("embedding");
    group.sample_size(20);
    group.bench_function(format!("owner_phases_{PHASE_OWNERS}t"), |b| {
        b.iter(|| {
            let fence = Barrier::new(PHASE_OWNERS);
            std::thread::scope(|scope| {
                for (owner, mine) in batches.iter().enumerate() {
                    let (table, part, exchange, opt, fence) =
                        (&table, &part, &exchange, &opt, &fence);
                    scope.spawn(move || {
                        let mut scratch = BatchScratch::default();
                        let longest = mine.iter().map(Vec::len).max().unwrap_or(0);
                        let mut out = vec![0.0f32; longest * DIM];
                        let mut clocks = vec![0u64; longest];
                        for ids in mine {
                            let n = ids.len();
                            table.read_rows(
                                ids,
                                &mut out[..n * DIM],
                                &mut clocks[..n],
                                &mut scratch,
                            );
                            criterion::black_box(&out);
                            {
                                let mut routing = exchange.route_from(owner);
                                for &row in ids {
                                    routing.push(part.primary_of(row) as usize, row, &grad);
                                }
                            }
                            fence.wait();
                            exchange.apply_owned(owner, table, opt);
                            fence.wait();
                        }
                    });
                }
            })
        });
    });
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

criterion_group!(benches, bench, owner_phases, tiered_sweep);
criterion_main!(benches);
