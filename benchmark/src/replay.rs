//! The layer replay: the benchmark builds the objects the trainer builds,
//! through the same public constructors, and drives the trainer's per-step
//! call sequence with a span around every call into a layer. Nothing in
//! the program is instrumented; every span is recorded here, from outside.
//!
//! The sequence mirrors `core::pipeline::run_epoch_sequential` for CTR
//! (fence, assemble, read, forward/backward, fence, rank-ordered
//! write-back, dense sync) and `core::kg::run_kg_worker_epoch` for TransE
//! (read, apply, relation AllReduce — table operations only, the margin
//! loss lives inside `KgTrainer::run`). What the replay cannot call — the
//! private simulated-time charging and telemetry — is what
//! `core.replay.vs_e2e` measures.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_comms::{AllReduceGroup, DenseQuantizer};
use hetgmp_core::models::ModelTape;
use hetgmp_core::strategy::CacheDesign;
use hetgmp_core::{CtrModel, StorageMode};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{
    load_run, save_run, BatchScratch, CachedWorkerEmbedding, CapacityStats, EmbeddingWorker,
    LfuCache, ReadPathStats, ReadReport, RowStore, RunState, ShardedTable, SparseOpt, TieredConfig,
    TieredTable, UpdateReport, WorkerEmbedding, WorkerState,
};
use hetgmp_partition::Partition;
use hetgmp_tensor::{bce_with_logits_into, DenseOptimizer, Matrix, Sgd};

use crate::span::{self, span, Span};
use crate::workloads::{Data, Family, Workload};

/// A `RowStore` that records a span around every data-moving call, so a
/// worker's read or write-back splits into its own time and the store's.
/// Clock and shape accessors pass straight through: they are per-lookup
/// atomics, cheaper than the two clock reads a span costs.
struct SpannedStore<'a>(&'a dyn RowStore);

const STORE_READ: &str = "embedding.store.read";
const STORE_APPLY: &str = "embedding.store.apply";
const STORE_WRITE: &str = "embedding.store.write";

impl RowStore for SpannedStore<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn num_rows(&self) -> usize {
        self.0.num_rows()
    }
    fn clock(&self, row: u32) -> u64 {
        self.0.clock(row)
    }
    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        span(STORE_READ, || self.0.read_row(row, out))
    }
    fn read_rows(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64], s: &mut BatchScratch) {
        span(STORE_READ, || self.0.read_rows(rows, out, clocks, s))
    }
    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        span(STORE_APPLY, || self.0.apply_grad(row, grad, opt))
    }
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        s: &mut BatchScratch,
    ) {
        span(STORE_APPLY, || {
            self.0.apply_grads(rows, grads, opt, clocks, s)
        })
    }
    fn write_row(&self, row: u32, values: &[f32]) {
        span(STORE_WRITE, || self.0.write_row(row, values))
    }
    fn write_rows(&self, rows: &[u32], values: &[f32], s: &mut BatchScratch) {
        span(STORE_WRITE, || self.0.write_rows(rows, values, s))
    }
    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        self.0.restore_row(row, values, clock)
    }
    fn has_optimizer_state(&self) -> bool {
        self.0.has_optimizer_state()
    }
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        self.0.read_accum(row, out)
    }
    fn restore_accum(&self, row: u32, values: &[f32]) {
        self.0.restore_accum(row, values)
    }
    fn total_updates(&self) -> u64 {
        self.0.total_updates()
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
    fn lock_acquisitions(&self) -> u64 {
        self.0.lock_acquisitions()
    }
    fn spilled_bytes(&self) -> u64 {
        self.0.spilled_bytes()
    }
    fn capacity_stats(&self) -> CapacityStats {
        self.0.capacity_stats()
    }
    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        span(STORE_READ, || self.0.read_row_snapshot(row, out))
    }
    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        s: &mut BatchScratch,
    ) {
        span(STORE_READ, || {
            self.0.read_rows_snapshot(rows, out, clocks, s)
        })
    }
    fn read_path_stats(&self) -> ReadPathStats {
        self.0.read_path_stats()
    }
}

/// What the dense half of a step does between the embedding read and the
/// write-back, and how it synchronises afterwards.
trait DenseSide: Send {
    /// Forward, loss and backward over `input`; leaves `dL/d-input` in
    /// `grad_input`.
    fn compute(&mut self, batch_idx: &[u32], input: &Matrix, grad_input: &mut Matrix);
    /// The step's collective(s) and the optimizer step.
    fn sync(&mut self, group: &AllReduceGroup);
    /// GEMM flops executed so far.
    fn flops(&self) -> u64;
}

/// `dense_compute` + `sync_dense` of the CTR trainer (BSP, unfused).
struct CtrDense<'d> {
    dataset: &'d CtrDataset,
    model: CtrModel,
    tape: ModelTape,
    labels: Vec<f32>,
    grad_logits: Matrix,
    dense_grads: Vec<f32>,
    quant: DenseQuantizer,
    sgd: Sgd,
    grad_clip: Option<f32>,
}

impl DenseSide for CtrDense<'_> {
    fn compute(&mut self, batch_idx: &[u32], input: &Matrix, grad_input: &mut Matrix) {
        span("tensor.fwd", || {
            self.model.forward_tape(input, &mut self.tape);
            self.labels.clear();
            self.labels
                .extend(batch_idx.iter().map(|&i| self.dataset.label(i as usize)));
            black_box(bce_with_logits_into(
                self.tape.logits(),
                &self.labels,
                &mut self.grad_logits,
            ));
        });
        span("tensor.bwd", || {
            self.model.zero_grad();
            self.model
                .backward_tape(input, &self.grad_logits, grad_input, &mut self.tape);
            self.tape.end_batch();
        });
    }

    fn sync(&mut self, group: &AllReduceGroup) {
        span("comms.quant.transport", || {
            self.model.flatten_grads_into(&mut self.dense_grads);
            self.quant.transport(&mut self.dense_grads);
        });
        span("comms.allreduce", || {
            group.allreduce_mean(&mut self.dense_grads)
        });
        span("tensor.optim", || {
            if let Some(clip) = self.grad_clip {
                let norm = self.dense_grads.iter().map(|g| g * g).sum::<f32>().sqrt();
                if norm > clip {
                    let scale = clip / norm;
                    self.dense_grads.iter_mut().for_each(|g| *g *= scale);
                }
            }
            self.model.load_grads(&self.dense_grads);
            self.sgd.begin_step();
            let mut slot = 0usize;
            let sgd = &mut self.sgd;
            self.model.visit_params(&mut |p, g| {
                sgd.update(slot, p, g);
                slot += 1;
            });
        });
        // The BSP barrier on simulated clocks.
        span("comms.allreduce", || group.allreduce_max(&mut [0.0f32]));
    }

    fn flops(&self) -> u64 {
        self.tape.flops()
    }
}

/// The collectives of a TransE step; gradients are a fixed synthetic
/// buffer because the margin loss is private to `core::kg`.
struct KgDense {
    rel_grad: Vec<f32>,
}

impl DenseSide for KgDense {
    fn compute(&mut self, _batch_idx: &[u32], _input: &Matrix, _grad_input: &mut Matrix) {}

    fn sync(&mut self, group: &AllReduceGroup) {
        span("comms.allreduce", || {
            group.allreduce_mean(&mut self.rel_grad)
        });
        span("comms.allreduce", || group.allreduce_max(&mut [0.0f32]));
    }

    fn flops(&self) -> u64 {
        0
    }
}

/// Where a sample's lookups come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    Ctr(&'a CtrDataset),
    Kg(&'a [[u32; 3]]),
}

impl<'a> Source<'a> {
    fn sample(self, idx: u32) -> &'a [u32] {
        match self {
            Source::Ctr(d) => d.sample(idx as usize),
            Source::Kg(rows) => &rows[idx as usize],
        }
    }
}

/// Everything the replay measured.
pub struct ReplayReport {
    /// One span log per worker thread.
    pub logs: Vec<Vec<Span>>,
    /// Wall seconds of the step loop (slowest worker).
    pub wall_s: f64,
    /// Samples pushed through, all workers.
    pub samples: u64,
    /// `Bigraph::from_samples` wall seconds.
    pub bigraph_build_s: f64,
    /// Partitioner wall seconds.
    pub partition_s: f64,
    /// Edges of the partitioned bigraph.
    pub edges: usize,
    /// Merged read accounting of every step.
    pub read: ReadReport,
    /// Merged write-back accounting of every step.
    pub update: UpdateReport,
    /// GEMM flops executed by the dense side, all workers.
    pub gemm_flops: u64,
    /// Dense-gradient elements per AllReduce (0 for KG).
    pub dense_len: usize,
    /// Per-batch microseconds a stand-alone LFU spent admitting and filling
    /// rows on the same id stream; empty unless the workload uses the LFU.
    pub lfu_fill_us: Vec<f64>,
    /// Pages of the tiered table (0 when the table is in memory).
    pub tiered_pages: usize,
    /// Single-thread in-memory table ceilings at this batch shape, rows/s.
    pub table_read_rows_per_s: f64,
    pub table_apply_rows_per_s: f64,
    /// Run-checkpoint throughput of the replayed table, MB/s.
    pub ckpt_save_mb_per_s: f64,
    pub ckpt_load_mb_per_s: f64,
}

/// Drives `steps` trainer steps per worker over `data` and reports what
/// each layer cost.
pub fn replay(workload: &Workload, data: &Data, steps: usize) -> ReplayReport {
    // ---- The trainer's set-up, through the same public constructors. ------
    let Workload {
        topology,
        strategy,
        family,
    } = workload;
    let (n, seed, batch_size) = (workload.workers(), workload.seed(), workload.batch_size());
    let train = workload.train_split(data);
    // Per training sample, the rows the bigraph links it to; then table
    // shape, init scale and sparse optimizer, as each trainer sets them.
    let (graph_rows, num_rows, dim, init_scale, embed_opt) = match (family, data) {
        (Family::Ctr { config, .. }, Data::Ctr(d)) => {
            let rows: Vec<Vec<u32>> = train
                .iter()
                .map(|&i| d.sample(i as usize).to_vec())
                .collect();
            (rows, d.num_features, config.dim, 0.05, config.embed_opt)
        }
        (Family::Kg { config, .. }, Data::Kg(kg)) => {
            let rows = train
                .iter()
                .map(|&i| {
                    let (h, _, t) = kg.triples[i as usize];
                    if h == t {
                        vec![h]
                    } else {
                        vec![h, t]
                    }
                })
                .collect();
            (rows, kg.num_entities, config.dim, 0.1, config.entity_opt)
        }
        _ => unreachable!("data generated by another workload"),
    };
    // Head, tail and a corrupted tail per triple, as the KG loop looks them
    // up (the corruption is any entity).
    let kg_rows: Vec<[u32; 3]> = match data {
        Data::Ctr(_) => Vec::new(),
        Data::Kg(kg) => kg
            .triples
            .iter()
            .enumerate()
            .map(|(i, &(h, _, t))| {
                let neg = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                [h, t, (neg % kg.num_entities as u64) as u32]
            })
            .collect(),
    };
    let source = match data {
        Data::Ctr(d) => Source::Ctr(d),
        Data::Kg(_) => Source::Kg(&kg_rows),
    };
    let sample_of = |idx: u32| source.sample(idx);
    let fields = sample_of(train[0]).len();

    let t = Instant::now();
    let graph = Bigraph::from_samples(num_rows, &graph_rows);
    let bigraph_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let partition: Partition = strategy
        .partition
        .partitioner(seed)
        .partition(&graph, topology);
    let partition_s = t.elapsed().as_secs_f64();
    let freq: Vec<u64> = (0..graph.num_embeddings() as u32)
        .map(|e| graph.emb_frequency(e) as u64)
        .collect();
    let shards: Vec<Vec<u32>> = partition
        .samples_by_partition()
        .into_iter()
        .map(|local| local.into_iter().map(|s| train[s as usize]).collect())
        .collect();

    let mut tiered_pages = 0;
    let table: Box<dyn RowStore> = match family {
        Family::Ctr { config, .. } if workload.is_tiered() => {
            let StorageMode::Tiered { budget_bytes, dir } = &config.storage else {
                unreachable!("is_tiered checked the storage mode");
            };
            let tier = TieredConfig {
                budget_bytes: *budget_bytes,
                dir: dir.clone(),
                ..TieredConfig::default()
            };
            let t = TieredTable::new(num_rows, dim, init_scale, seed, tier);
            tiered_pages = t.num_pages();
            Box::new(t)
        }
        _ => Box::new(ShardedTable::new(num_rows, dim, init_scale, seed)),
    };
    let store = SpannedStore(table.as_ref());

    // The KG trainer always uses the static replicas.
    let lfu_capacity = match (family, strategy.cache) {
        (Family::Ctr { .. }, CacheDesign::DynamicLfu { capacity_fraction }) => {
            Some((graph.num_embeddings() as f64 * capacity_fraction) as usize)
        }
        _ => None,
    };
    let mut workers: Vec<Box<dyn EmbeddingWorker + '_>> = (0..n as u32)
        .map(|w| -> Box<dyn EmbeddingWorker + '_> {
            match lfu_capacity {
                Some(capacity) => Box::new(CachedWorkerEmbedding::new(
                    w,
                    &store,
                    &partition,
                    capacity,
                    strategy.staleness,
                )),
                None => Box::new(WorkerEmbedding::new(
                    w,
                    &store,
                    &partition,
                    &freq,
                    strategy.staleness,
                )),
            }
        })
        .collect();
    let mut dense_len = 0;
    let mut dense: Vec<Box<dyn DenseSide + '_>> = (0..n)
        .map(|_| -> Box<dyn DenseSide + '_> {
            match (family, data) {
                (Family::Ctr { config, .. }, Data::Ctr(d)) => {
                    let mut model =
                        CtrModel::new(config.model, d.num_fields, dim, &config.hidden, seed);
                    dense_len = model.num_dense_params();
                    Box::new(CtrDense {
                        dataset: d,
                        model,
                        tape: ModelTape::new(),
                        labels: Vec::new(),
                        grad_logits: Matrix::zeros(0, 0),
                        dense_grads: Vec::new(),
                        quant: DenseQuantizer::new(config.sync_format, config.sync_error_feedback),
                        sgd: Sgd::new(config.dense_lr),
                        grad_clip: config.grad_clip,
                    })
                }
                (Family::Kg { .. }, Data::Kg(kg)) => Box::new(KgDense {
                    rel_grad: vec![0.0; kg.num_relations * dim],
                }),
                _ => unreachable!("data generated by another workload"),
            }
        })
        .collect();
    if let Family::Ctr { config, .. } = family {
        for emb in workers.iter_mut() {
            emb.set_sync_format(config.sync_format, config.sync_error_feedback);
            emb.set_read_path(config.read_path);
        }
    }
    // The CTR loop fences reads from write-backs and serialises the
    // write-backs by rank; the KG loop does neither.
    let fenced = matches!(family, Family::Ctr { .. });

    // ---- The step loop, one thread per worker. -----------------------------
    let group = AllReduceGroup::new(n);
    let origin = Instant::now();
    struct WorkerOut {
        log: Vec<Span>,
        wall_s: f64,
        read: ReadReport,
        update: UpdateReport,
        samples: u64,
        lfu_fill_us: Vec<f64>,
    }
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(dense.iter_mut())
            .enumerate()
            .map(|(w, (emb, dense))| {
                let shard = &shards[w];
                let (group, partition, sample_of) = (&group, &partition, &sample_of);
                scope.spawn(move || {
                    let bs = batch_size.min(shard.len().max(1));
                    let mut cursor = 0usize;
                    let mut batch_idx: Vec<u32> = Vec::with_capacity(bs);
                    let mut sample_slices: Vec<&[u32]> = Vec::with_capacity(bs);
                    let mut input = Matrix::zeros(0, 0);
                    let mut grad_input = Matrix::zeros(bs, fields * dim);
                    grad_input.data_mut().fill(0.01);
                    let mut out = WorkerOut {
                        log: Vec::new(),
                        wall_s: 0.0,
                        read: ReadReport::default(),
                        update: UpdateReport::default(),
                        samples: 0,
                        lfu_fill_us: Vec::new(),
                    };
                    // The LFU layer on its own: the same touch / admit /
                    // fill sequence `CachedWorkerEmbedding::read_batch`
                    // issues, on the same id stream, outside the step spans.
                    let mut lfu = lfu_capacity.map(|c| LfuCache::new(dim, c));
                    let row = vec![0.0f32; dim];
                    span::begin(origin, w as u32);
                    group.barrier();
                    let loop_start = Instant::now();
                    for step in 0..steps {
                        span::set_step(step as u32);
                        span("core.step", || {
                            if fenced {
                                span("comms.barrier", || group.barrier());
                            }
                            span("data.assemble", || {
                                batch_idx.clear();
                                if !shard.is_empty() {
                                    for _ in 0..bs {
                                        batch_idx.push(shard[cursor % shard.len()]);
                                        cursor += 1;
                                    }
                                }
                                sample_slices.clear();
                                sample_slices.extend(batch_idx.iter().map(|&i| sample_of(i)));
                            });
                            let actual = sample_slices.len();
                            if actual > 0 {
                                let rep = span("embedding.worker.read", || {
                                    input.reset(actual, fields * dim);
                                    emb.read_batch(&sample_slices, input.data_mut())
                                });
                                out.read.merge(&rep);
                                dense.compute(&batch_idx, &input, &mut grad_input);
                            }
                            if fenced {
                                span("comms.barrier", || group.barrier());
                            }
                            let mut apply = |emb: &mut dyn EmbeddingWorker| {
                                if actual > 0 {
                                    let rep = span("embedding.worker.apply", || {
                                        emb.apply_gradients(
                                            &sample_slices,
                                            grad_input.data(),
                                            &embed_opt,
                                        )
                                    });
                                    out.update.merge(&rep);
                                }
                            };
                            if fenced {
                                for rank in 0..n {
                                    if rank == w {
                                        apply(&mut **emb);
                                    }
                                    span("comms.barrier", || group.barrier());
                                }
                            } else {
                                apply(&mut **emb);
                            }
                            dense.sync(group);
                            out.samples += actual as u64;
                        });
                        if let Some(lfu) = lfu.as_mut() {
                            let mut fill_ns = 0u128;
                            for &e in sample_slices.iter().flat_map(|s| s.iter()) {
                                lfu.touch(e);
                                if partition.primary_of(e) != w as u32 && !lfu.contains(e) {
                                    let t = Instant::now();
                                    lfu.admit(e, &row, 0);
                                    lfu.fill(e, &row);
                                    fill_ns += t.elapsed().as_nanos();
                                }
                            }
                            out.lfu_fill_us.push(fill_ns as f64 * 1e-3);
                        }
                    }
                    out.wall_s = loop_start.elapsed().as_secs_f64();
                    out.log = span::finish();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let gemm_flops = dense.iter().map(|d| d.flops()).sum();
    drop(workers);

    // ---- Table ceilings and checkpoint throughput, single-threaded. --------
    let shard = &shards[0];
    let ceiling_batches: Vec<Vec<u32>> = shard
        .chunks(batch_size.min(shard.len().max(1)))
        .take(steps.clamp(1, 64))
        .map(|chunk| {
            let mut ids: Vec<u32> = chunk
                .iter()
                .flat_map(|&i| sample_of(i).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let (table_read_rows_per_s, table_apply_rows_per_s) = table_ceilings(
        &ShardedTable::new(num_rows, dim, init_scale, seed),
        &ceiling_batches,
        &embed_opt,
    );
    let (ckpt_save_mb_per_s, ckpt_load_mb_per_s) = checkpoint_rates(table.as_ref(), n, dense_len);

    let mut report = ReplayReport {
        logs: Vec::with_capacity(n),
        wall_s: 0.0,
        samples: 0,
        bigraph_build_s,
        partition_s,
        edges: graph.num_edges(),
        read: ReadReport::default(),
        update: UpdateReport::default(),
        gemm_flops,
        dense_len,
        lfu_fill_us: Vec::new(),
        tiered_pages,
        table_read_rows_per_s,
        table_apply_rows_per_s,
        ckpt_save_mb_per_s,
        ckpt_load_mb_per_s,
    };
    for out in outs {
        report.wall_s = report.wall_s.max(out.wall_s);
        report.samples += out.samples;
        report.read.merge(&out.read);
        report.update.merge(&out.update);
        report.lfu_fill_us.extend(out.lfu_fill_us);
        report.logs.push(out.log);
    }
    report
}

/// Rows per second one thread reads and updates in `table`, batch by batch
/// over `batches` of distinct row ids.
fn table_ceilings(table: &ShardedTable, batches: &[Vec<u32>], opt: &SparseOpt) -> (f64, f64) {
    let dim = table.dim();
    let longest = batches.iter().map(Vec::len).max().unwrap_or(0);
    let total_rows: usize = batches.iter().map(Vec::len).sum();
    let mut scratch = BatchScratch::default();
    let mut buf = vec![0.0f32; longest * dim];
    let mut clocks = vec![0u64; longest];
    let t = Instant::now();
    for ids in batches {
        table.read_rows_snapshot(ids, &mut buf[..ids.len() * dim], &mut clocks[..ids.len()]);
    }
    black_box(&buf);
    let read_s = t.elapsed().as_secs_f64();
    buf.fill(0.01);
    let t = Instant::now();
    for ids in batches {
        let n = ids.len();
        table.apply_grads(ids, &buf[..n * dim], opt, &mut clocks[..n], &mut scratch);
    }
    let apply_s = t.elapsed().as_secs_f64();
    (total_rows as f64 / read_s, total_rows as f64 / apply_s)
}

/// MB/s of `save_run` and `load_run` of `table`, with `workers` dense
/// models of `dense_len` parameters, through a file in the temp dir.
fn checkpoint_rates(table: &dyn RowStore, workers: usize, dense_len: usize) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!("replay-{}.hgmr", std::process::id()));
    let state = RunState {
        epoch: 1,
        workers: (0..workers)
            .map(|_| WorkerState {
                sim_time: 0.0,
                cursor: 0,
                dense_params: vec![0.0; dense_len],
            })
            .collect(),
    };
    let t = Instant::now();
    let file = File::create(&path).expect("temp dir is writable");
    let bytes =
        save_run(table, &state, BufWriter::new(file)).expect("checkpoint of a live table saves");
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let file = File::open(&path).expect("checkpoint just written");
    load_run(table, BufReader::new(file)).expect("checkpoint just written loads");
    let load_s = t.elapsed().as_secs_f64();
    // Best effort: the parent removes the whole temp dir afterwards.
    let _ = std::fs::remove_file(&path);
    let mb = bytes as f64 / 1e6;
    (mb / save_s, mb / load_s)
}

/// Blocked-GEMM throughput at the shapes of the model's dense tower
/// (`batch x in` times `in x out` per layer), GFLOP/s, flop-weighted.
pub fn gemm_ceiling_gflops(batch: usize, dims: &[usize]) -> f64 {
    let mut flops = 0.0;
    let mut secs = 0.0;
    for pair in dims.windows(2) {
        let (k, n) = (pair[0], pair[1]);
        let a = Matrix::from_vec(batch, k, vec![0.5; batch * k]);
        let b = Matrix::from_vec(k, n, vec![0.25; k * n]);
        let mut out = Matrix::zeros(batch, n);
        let per_call = 2.0 * (batch * k * n) as f64;
        // ~20 MFLOP per shape keeps the whole ceiling in the milliseconds.
        let reps = ((2e7 / per_call) as usize).clamp(3, 1000);
        a.matmul_into(&b, &mut out);
        let t = Instant::now();
        for _ in 0..reps {
            black_box(&a).matmul_into(black_box(&b), &mut out);
        }
        black_box(&out);
        secs += t.elapsed().as_secs_f64();
        flops += per_call * reps as f64;
    }
    if secs > 0.0 {
        flops / secs / 1e9
    } else {
        0.0
    }
}
