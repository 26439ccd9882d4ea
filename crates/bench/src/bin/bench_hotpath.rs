//! Hot-path perf baseline: batched vs per-row embedding-table ops, plus a
//! fixed-seed end-to-end training throughput run.
//!
//! Emits `BENCH_hotpath.json` (schema checked by
//! `scripts/check_bench_schema.sh`):
//!
//! ```text
//! { "config": {...},
//!   "per_row":  { "rows_per_sec", "lock_acquisitions", "wall_secs" },
//!   "batched":  { "rows_per_sec", "lock_acquisitions", "wall_secs" },
//!   "speedup":  batched.rows_per_sec / per_row.rows_per_sec,
//!   "read_scaling": { "read_batch", "batches", "write_every",
//!                     "speedup_at_4", "threads": [ per-thread-count
//!                     locked-vs-snapshot rows/s + retry/fallback stats ] },
//!   "worker_read": { "fields", "samples", "batches", "write_every",
//!                    "distinct_rows_per_batch", "worker_us_per_batch",
//!                    "table_us_per_batch", "worker_over_table" },
//!   "end_to_end": { "samples_per_sec", "lock_acquisitions",
//!                   "samples_processed", "wall_secs", "final_auc" } }
//! ```
//!
//! The microbench drives *identical* fixed-seed workloads (same row ids,
//! same gradients, same optimizer) through the per-row loop and the batched
//! API, with several threads sharing one table as the trainer does — the
//! differential proptests guarantee the two paths produce bit-identical
//! tables, so the comparison is purely mechanical overhead: lock traffic
//! under contention and per-call bookkeeping. `--smoke` shrinks everything
//! to run in a few seconds for CI schema checks.

use std::time::Instant;

use hetgmp_cluster::Topology;
use hetgmp_core::strategy::StrategyConfig;
use hetgmp_core::trainer::{Trainer, TrainerConfig};
use hetgmp_data::{generate, DatasetSpec, Zipf};
use hetgmp_embedding::{
    BatchScratch, ReadPathStats, ShardedTable, SparseOpt, StalenessBound, WorkerEmbedding,
};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, Json, RunManifest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xB45E11;

struct MicroConfig {
    rows: usize,
    dim: usize,
    batch: usize,
    batches: usize,
    /// Worker threads hammering one shared table — the trainer's actual
    /// shape, and where per-row locking pays for contention.
    threads: usize,
    /// Measurement repetitions over the same workload (fresh table each).
    reps: usize,
}

/// One side's measurement: wall time and lock traffic for the whole
/// workload, repeated `reps` times over fresh tables.
struct Measure {
    rows_per_sec: f64,
    lock_acquisitions: u64,
    wall_secs: f64,
}

/// The fixed-seed workload: per-thread Zipf-skewed row id batches
/// (embedding access patterns are power-law; skew also creates the shard
/// collisions batching amortises) and deterministic gradients. Both sides
/// of the comparison consume the identical workload.
struct Workload {
    /// `per_thread[t]` = that thread's batches of row ids.
    per_thread: Vec<Vec<Vec<u32>>>,
    grads: Vec<f32>,
    opt: SparseOpt,
}

fn build_workload(cfg: &MicroConfig) -> Workload {
    let zipf = Zipf::new(cfg.rows, 1.05);
    let per_thread: Vec<Vec<Vec<u32>>> = (0..cfg.threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9E3779B9));
            (0..cfg.batches)
                .map(|_| {
                    (0..cfg.batch)
                        .map(|_| zipf.sample(&mut rng) as u32)
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let grads: Vec<f32> = (0..cfg.batch * cfg.dim)
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    Workload {
        per_thread,
        grads,
        opt: SparseOpt::adagrad(0.05),
    }
}

/// Runs `per_thread_work` once per thread against one shared fresh table,
/// `reps` times, keeping the best wall time (and the lock count, which is
/// identical across reps).
fn run_contended<F>(cfg: &MicroConfig, per_thread_work: F) -> Measure
where
    F: Fn(&ShardedTable, usize) + Sync,
{
    let mut best = f64::INFINITY;
    let mut locks = 0;
    for _ in 0..cfg.reps {
        let table = ShardedTable::new(cfg.rows, cfg.dim, 0.05, SEED);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..cfg.threads {
                let table = &table;
                let work = &per_thread_work;
                scope.spawn(move || work(table, t));
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        locks = table.lock_acquisitions();
    }
    // 2 table ops per workload row (one read + one apply).
    let total_rows = (cfg.batch * cfg.batches * cfg.threads * 2) as f64;
    Measure {
        rows_per_sec: total_rows / best.max(1e-12),
        lock_acquisitions: locks,
        wall_secs: best,
    }
}

fn run_per_row(cfg: &MicroConfig, w: &Workload) -> Measure {
    run_contended(cfg, |table, t| {
        let mut row = vec![0.0f32; cfg.dim];
        for batch in &w.per_thread[t] {
            for &r in batch {
                std::hint::black_box(table.read_row(r, &mut row));
            }
            for (k, &r) in batch.iter().enumerate() {
                table.apply_grad(r, &w.grads[k * cfg.dim..(k + 1) * cfg.dim], &w.opt);
            }
        }
    })
}

fn run_batched(cfg: &MicroConfig, w: &Workload) -> Measure {
    run_contended(cfg, |table, t| {
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; cfg.batch * cfg.dim];
        let mut clocks = vec![0u64; cfg.batch];
        for batch in &w.per_thread[t] {
            table.read_rows(batch, &mut out, &mut clocks, &mut scratch);
            std::hint::black_box(&out);
            table.apply_grads(batch, &w.grads, &w.opt, &mut clocks, &mut scratch);
        }
    })
}

/// Contended read-scaling sweep: the identical read-mostly workload (small
/// read batches, a light writer on thread 0 every `write_every` batches)
/// driven through the locked batched read and the seqlock snapshot read at
/// 1/2/4 threads. Small batches are where the locked path's per-call lock +
/// shard-grouping overhead dominates, so this isolates exactly what the
/// snapshot path removes; the writer pressure is identical on both sides
/// and exercises the retry/fallback machinery instead of an uncontended
/// best case.
fn run_read_scaling(cfg: &MicroConfig, smoke: bool) -> (Json, f64) {
    const READ_BATCH: usize = 128;
    const WRITE_EVERY: usize = 16;
    let batches = if smoke { 400 } else { 4_000 };
    let thread_counts = [1usize, 2, 4];
    let max_threads = *thread_counts.iter().max().unwrap();

    let zipf = Zipf::new(cfg.rows, 1.05);
    let per_thread: Vec<Vec<Vec<u32>>> = (0..max_threads)
        .map(|t| {
            let mut rng =
                StdRng::seed_from_u64(SEED ^ 0xC0FFEE ^ (t as u64).wrapping_mul(0x9E3779B9));
            (0..batches)
                .map(|_| (0..READ_BATCH).map(|_| zipf.sample(&mut rng) as u32).collect())
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xC0FFEE);
    let grads: Vec<f32> = (0..READ_BATCH * cfg.dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let opt = SparseOpt::adagrad(0.05);

    let run_side = |threads: usize, snapshot: bool| -> (Measure, ReadPathStats) {
        let mut best = f64::INFINITY;
        let mut locks = 0;
        let mut stats = ReadPathStats::default();
        for _ in 0..cfg.reps {
            let table = ShardedTable::new(cfg.rows, cfg.dim, 0.05, SEED);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (table, per_thread, grads, opt) = (&table, &per_thread, &grads, &opt);
                    scope.spawn(move || {
                        let mut scratch = BatchScratch::default();
                        let mut out = vec![0.0f32; READ_BATCH * cfg.dim];
                        let mut clocks = vec![0u64; READ_BATCH];
                        for (i, batch) in per_thread[t].iter().enumerate() {
                            if snapshot {
                                table.read_rows_snapshot(batch, &mut out, &mut clocks);
                            } else {
                                table.read_rows(batch, &mut out, &mut clocks, &mut scratch);
                            }
                            std::hint::black_box(&out);
                            if t == 0 && i % WRITE_EVERY == 0 {
                                table.apply_grads(batch, grads, opt, &mut clocks, &mut scratch);
                            }
                        }
                    });
                }
            });
            best = best.min(start.elapsed().as_secs_f64());
            locks = table.lock_acquisitions();
            stats = table.read_path_stats();
        }
        let total_rows = (READ_BATCH * batches * threads) as f64;
        (
            Measure {
                rows_per_sec: total_rows / best.max(1e-12),
                lock_acquisitions: locks,
                wall_secs: best,
            },
            stats,
        )
    };

    let mut points = Vec::new();
    let mut speedup_at_4 = 0.0;
    for &threads in &thread_counts {
        let (locked, _) = run_side(threads, false);
        let (snap, stats) = run_side(threads, true);
        let speedup = snap.rows_per_sec / locked.rows_per_sec.max(1e-12);
        if threads == max_threads {
            speedup_at_4 = speedup;
        }
        eprintln!(
            "read-scaling {threads}t: locked {:.2e} rows/s ({} locks) | snapshot {:.2e} rows/s \
             ({} locks, {} retries, {} fallback) | {speedup:.2}x",
            locked.rows_per_sec,
            locked.lock_acquisitions,
            snap.rows_per_sec,
            snap.lock_acquisitions,
            stats.retries,
            stats.fallback_rows,
        );
        points.push(Json::obj([
            ("threads", Json::U64(threads as u64)),
            ("locked_rows_per_sec", Json::F64(locked.rows_per_sec)),
            ("snapshot_rows_per_sec", Json::F64(snap.rows_per_sec)),
            ("speedup", Json::F64(speedup)),
            ("snapshot_rows", Json::U64(stats.snapshot_rows)),
            ("retries", Json::U64(stats.retries)),
            ("fallback_rows", Json::U64(stats.fallback_rows)),
            ("locked_lock_acquisitions", Json::U64(locked.lock_acquisitions)),
            ("snapshot_lock_acquisitions", Json::U64(snap.lock_acquisitions)),
        ]));
    }
    // Scalar fields precede the per-thread array so schema greps that
    // match within `"read_scaling":{...` stay simple.
    let json = Json::obj([
        ("read_batch", Json::U64(READ_BATCH as u64)),
        ("batches", Json::U64(batches as u64)),
        ("write_every", Json::U64(WRITE_EVERY as u64)),
        ("speedup_at_4", Json::F64(speedup_at_4)),
        ("threads", Json::Arr(points)),
    ]);
    (json, speedup_at_4)
}

/// The worker layer against its own ceiling: what `WorkerEmbedding::
/// read_batch` costs per batch next to one snapshot read of the same
/// distinct rows — everything above 1x is the worker deciding what to read
/// (resolving lookups, staleness checks, the inter-embedding pass, the
/// scatter), not the table reading it. Company-shaped batches (43 fields x
/// 256 samples) on two partitions: worker 0 owns nine rows in ten and
/// replicates the hottest remote ones (Zipf rank is the row id); a remote
/// writer touches every `WRITE_EVERY`-th batch's rows, untimed, so
/// replicas go stale and both sync kinds fire.
fn run_worker_read(cfg: &MicroConfig, smoke: bool) -> Json {
    const FIELDS: usize = 43;
    const SAMPLES: usize = 256;
    const WRITE_EVERY: usize = 16;
    let batches = if smoke { 32 } else { 256 };

    let remote = |e: usize| e % 10 == 9;
    let mut part =
        Partition::new(2, vec![0, 1], (0..cfg.rows).map(|e| remote(e) as u32).collect());
    for e in (0..cfg.rows / 50).filter(|&e| remote(e)) {
        part.add_replica(e as u32, 0);
    }
    let freq: Vec<u64> = (0..cfg.rows).map(|e| (cfg.rows / (e + 1)).max(1) as u64).collect();

    let zipf = Zipf::new(cfg.rows, 1.05);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x43F1E1D5);
    let ids: Vec<Vec<u32>> = (0..batches)
        .map(|_| (0..SAMPLES * FIELDS).map(|_| zipf.sample(&mut rng) as u32).collect())
        .collect();
    let distinct: Vec<Vec<u32>> = ids
        .iter()
        .map(|batch| {
            let mut rows = batch.clone();
            rows.sort_unstable();
            rows.dedup();
            rows
        })
        .collect();
    let max_distinct = distinct.iter().map(Vec::len).max().unwrap_or(0);
    let grads = vec![0.01f32; max_distinct * cfg.dim];
    let opt = SparseOpt::adagrad(0.05);

    let mut worker_us = Vec::with_capacity(cfg.reps);
    let mut table_us = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        let table = ShardedTable::new(cfg.rows, cfg.dim, 0.05, SEED);
        let mut worker =
            WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(100));
        worker.reserve_batch(SAMPLES, FIELDS);
        let mut out = vec![0.0f32; SAMPLES * FIELDS * cfg.dim];
        let mut rows_out = vec![0.0f32; max_distinct * cfg.dim];
        let mut clocks = vec![0u64; max_distinct];
        let mut scratch = BatchScratch::default();
        let (mut worker_secs, mut table_secs) = (0.0f64, 0.0f64);
        for (i, batch) in ids.iter().enumerate() {
            let samples: Vec<&[u32]> = batch.chunks_exact(FIELDS).collect();
            let rows = &distinct[i];
            let n = rows.len();
            if i % WRITE_EVERY == 0 {
                let g = &grads[..n * cfg.dim];
                table.apply_grads(rows, g, &opt, &mut clocks[..n], &mut scratch);
            }
            let start = Instant::now();
            std::hint::black_box(worker.read_batch(&samples, &mut out));
            worker_secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            table.read_rows_snapshot(rows, &mut rows_out[..n * cfg.dim], &mut clocks[..n]);
            table_secs += start.elapsed().as_secs_f64();
            std::hint::black_box((&out, &rows_out));
        }
        worker_us.push(worker_secs * 1e6 / batches as f64);
        table_us.push(table_secs * 1e6 / batches as f64);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (worker, table) = (median(&mut worker_us), median(&mut table_us));
    let over = worker / table.max(1e-9);
    let mean_distinct = distinct.iter().map(Vec::len).sum::<usize>() as f64 / batches as f64;
    eprintln!(
        "worker-read: read_batch {worker:.0} us/batch | snapshot read of the same \
         {mean_distinct:.0} distinct rows {table:.0} us/batch | {over:.2}x"
    );
    Json::obj([
        ("fields", Json::U64(FIELDS as u64)),
        ("samples", Json::U64(SAMPLES as u64)),
        ("batches", Json::U64(batches as u64)),
        ("write_every", Json::U64(WRITE_EVERY as u64)),
        ("distinct_rows_per_batch", Json::F64(mean_distinct)),
        ("worker_us_per_batch", Json::F64(worker)),
        ("table_us_per_batch", Json::F64(table)),
        ("worker_over_table", Json::F64(over)),
    ])
}

fn measure_json(m: &Measure) -> Json {
    Json::obj([
        ("rows_per_sec", Json::F64(m.rows_per_sec)),
        ("lock_acquisitions", Json::U64(m.lock_acquisitions)),
        ("wall_secs", Json::F64(m.wall_secs)),
    ])
}

fn end_to_end(smoke: bool) -> (Json, RunManifest) {
    let mut spec = DatasetSpec::avazu_like(if smoke { 0.02 } else { 0.08 });
    spec.cluster_affinity = 0.9;
    let data = generate(&spec);
    let r = Trainer::new(
        &data,
        Topology::pcie_island(4),
        StrategyConfig::het_gmp(100),
        TrainerConfig {
            epochs: if smoke { 1 } else { 3 },
            dim: 16,
            batch_size: 256,
            hidden: vec![32, 16],
            seed: SEED,
            ..Default::default()
        },
    )
    .run();
    let manifest = r.manifest.clone();
    let e2e = Json::obj([
        (
            "samples_per_sec",
            Json::F64(r.telemetry.gauge(names::HOTPATH_SAMPLES_PER_SEC).unwrap_or(0.0)),
        ),
        (
            "lock_acquisitions",
            Json::F64(r.telemetry.gauge(names::HOTPATH_LOCK_ACQUISITIONS).unwrap_or(0.0)),
        ),
        ("samples_processed", Json::U64(r.samples_processed)),
        (
            "batched_read_rows",
            Json::U64(r.telemetry.counter(names::HOTPATH_BATCH_READ_ROWS)),
        ),
        (
            "batched_apply_rows",
            Json::U64(r.telemetry.counter(names::HOTPATH_BATCH_APPLY_ROWS)),
        ),
        ("final_auc", Json::F64(r.final_auc)),
    ]);
    (e2e, manifest)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let cfg = if smoke {
        MicroConfig { rows: 20_000, dim: 16, batch: 1024, batches: 50, threads: 4, reps: 2 }
    } else {
        MicroConfig { rows: 200_000, dim: 16, batch: 4096, batches: 100, threads: 4, reps: 5 }
    };
    let w = build_workload(&cfg);
    eprintln!(
        "hotpath microbench: {} rows x dim {}, {} threads x {} batches of {} ({} reps){}",
        cfg.rows,
        cfg.dim,
        cfg.threads,
        cfg.batches,
        cfg.batch,
        cfg.reps,
        if smoke { " [smoke]" } else { "" },
    );
    let per_row = run_per_row(&cfg, &w);
    let batched = run_batched(&cfg, &w);
    let speedup = batched.rows_per_sec / per_row.rows_per_sec.max(1e-12);
    eprintln!(
        "per-row {:.2e} rows/s ({} locks) | batched {:.2e} rows/s ({} locks) | speedup {:.2}x",
        per_row.rows_per_sec,
        per_row.lock_acquisitions,
        batched.rows_per_sec,
        batched.lock_acquisitions,
        speedup,
    );
    let (read_scaling, speedup_at_4) = run_read_scaling(&cfg, smoke);
    eprintln!("read-scaling: snapshot/locked speedup at 4 threads {speedup_at_4:.2}x");
    let worker_read = run_worker_read(&cfg, smoke);
    eprintln!("end-to-end fixed-seed training run...");
    let (e2e, manifest) = end_to_end(smoke);

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("seed", Json::U64(SEED)),
                ("rows", Json::U64(cfg.rows as u64)),
                ("dim", Json::U64(cfg.dim as u64)),
                ("batch", Json::U64(cfg.batch as u64)),
                ("batches", Json::U64(cfg.batches as u64)),
                ("threads", Json::U64(cfg.threads as u64)),
                ("reps", Json::U64(cfg.reps as u64)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        ("per_row", measure_json(&per_row)),
        ("batched", measure_json(&batched)),
        ("speedup", Json::F64(speedup)),
        ("read_scaling", read_scaling),
        ("worker_read", worker_read),
        ("end_to_end", e2e),
        // The end-to-end training run's identity stamp (the microbench
        // shares its build and seed).
        ("manifest", manifest.to_json()),
    ]);
    // Smoke runs land in a sibling file so CI schema checks never overwrite
    // the committed full-run baseline.
    let path = if smoke { "BENCH_hotpath.smoke.json" } else { "BENCH_hotpath.json" };
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_hotpath json");
    println!("wrote {path} (speedup {speedup:.2}x)");
}
