//! The distributed trainer: real multi-threaded training with simulated
//! interconnect time.
//!
//! Workers are OS threads executing *real* training math — embedding
//! lookups through the bounded-asynchrony protocol, exact forward/backward
//! passes, gradient write-back, dense AllReduce — while *time* is charged to
//! per-worker `SimClock`s from the `hetgmp-cluster` cost model. This keeps
//! quality effects honest (staleness genuinely degrades AUC) and makes
//! performance effects reproducible and hardware-independent (communication
//! volume is exact; time = volume over modelled links).
//!
//! Timing model per iteration (matching the paper's §6 execution):
//! `compute` (FLOPs/rate) + `embedding comm` (per-source α-β over the real
//! links; overlapped with compute on Hetu-backbone systems) + `metadata` +
//! `dense sync` (ring AllReduce bound for BSP — which is also a simulated-
//! clock barrier — or host-link push/pull for PS systems, no barrier).
//!
//! ASP baselines (TF-PS, Parallax): the paper observes they fail to reach
//! the AUC targets *within the time window*. Here their gradient math is
//! mean-combined like BSP (keeping the substrate shared) but no clock
//! barrier is applied and every sparse access pays the CPU host link — so
//! they are time-starved exactly as measured in Figure 7.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::{FaultSchedule, LinkClass, TimeBreakdown, TimeCategory, Topology};
use hetgmp_comms::{SyncFormat, TrafficClass};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{
    load_run, save_run, BatchScratch, CachedWorkerEmbedding, CapacityStats, EmbeddingWorker,
    ReadPath, RowStore, RunState, ShardedTable, SparseOpt, StalenessBound, TieredConfig,
    TieredTable, WorkerEmbedding, WorkerState,
};
use hetgmp_partition::{Partition, PartitionMetrics, Partitioner};
use hetgmp_telemetry::{
    names, AuditMode, AuditSummary, HetGmpError, Json, MetricsRegistry, ProtocolAuditor,
    RunManifest, TelemetrySnapshot, TraceCollector,
};
use hetgmp_tensor::loss::sigmoid;
use hetgmp_tensor::{auc, log_loss, Matrix};

use crate::charge::{charge, publish_links, Phases, Transfer};
use crate::models::{CtrModel, ModelKind, ModelTape};
use crate::pipeline::{run_worker_epoch, RunCtx, StepModel, WorkerRun};
use crate::strategy::{CacheDesign, EmbedHome, StrategyConfig};

/// Where the primary embedding table keeps its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageMode {
    /// Fully RAM-resident [`ShardedTable`], one segment per primary owner
    /// (the default).
    Memory,
    /// Spillable [`TieredTable`]: hot pages stay in RAM within
    /// `budget_bytes`, cold pages live in a checksummed spill file. Training
    /// results are bit-identical to [`StorageMode::Memory`] — only where
    /// the bytes live (and the `capacity.*` fault telemetry) changes.
    Tiered {
        /// RAM budget for resident pages, bytes.
        budget_bytes: usize,
        /// Spill-file directory; `None` uses a private temp directory that
        /// is removed when the table is dropped.
        dir: Option<PathBuf>,
    },
}

/// Trainer hyper-parameters (model + schedule).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Model architecture.
    pub model: ModelKind,
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Deep-tower hidden sizes.
    pub hidden: Vec<usize>,
    /// Mini-batch size per worker.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Sparse optimizer for the embedding table.
    pub embed_opt: SparseOpt,
    /// Dense-parameter learning rate (plain SGD on the DNN).
    pub dense_lr: f32,
    /// Fraction of samples held out for testing.
    pub test_fraction: f64,
    /// Cap on evaluated test samples (evaluation cost control).
    pub max_eval_samples: usize,
    /// Stop early once test AUC reaches this target (Figure 7's convergence
    /// thresholds: ~0.76 Avazu, ~0.80 Criteo).
    pub auc_target: Option<f64>,
    /// Global-norm gradient clip for the dense parameters (`None` disables).
    /// DCN's cross layers can diverge without it on wide inputs — the same
    /// reason production CTR systems clip.
    pub grad_clip: Option<f32>,
    /// Per-worker compute slowdown factors (1.0 = nominal; 4.0 = a 4×
    /// straggler). `None` = homogeneous accelerators.
    pub compute_scales: Option<Vec<f64>>,
    /// Heterogeneity-aware load balancing (paper §3: a "heterogeneity aware
    /// load-balancer design considering both computation and
    /// communications"): give each worker a batch size proportional to its
    /// speed so BSP iterations finish together despite uneven accelerators.
    pub hetero_aware_batching: bool,
    /// RNG seed (model init, shuffling).
    pub seed: u64,
    /// Write a run checkpoint every this many epochs (0 disables
    /// checkpointing). Requires `checkpoint_dir`.
    pub checkpoint_every: usize,
    /// Directory receiving `ckpt-epoch-<N>.hgmr` run-checkpoint files.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume training from this run-checkpoint file: the embedding table
    /// (values + clocks), dense models, shard cursors and simulated clocks
    /// are restored and the epoch loop continues after the checkpointed
    /// epoch. The dataset, topology, strategy and hyper-parameters must
    /// match the run that wrote the checkpoint.
    pub resume_from: Option<PathBuf>,
    /// Wire format for inter-worker embedding payloads and the dense
    /// AllReduce (`f32` default = bit-exact identity transport). Lossy
    /// formats decode-on-arrival, so replicas hold exactly what a real
    /// receiver would; traffic counters and the cost model charge
    /// compressed bytes.
    pub sync_format: SyncFormat,
    /// Per-row error feedback on lossy gradient pushes (EF-SGD style).
    /// Ignored under `f32`; on by default.
    pub sync_error_feedback: bool,
    /// Primary-table storage tier: RAM-only, or spillable under a budget.
    pub storage: StorageMode,
    /// Which table read path the embedding hot loop uses (see
    /// [`ReadPath`]). On the in-memory table both arms are the same locked
    /// batch read; on the tiered one the snapshot arm counts resident rows
    /// apart from faulted ones. Bit-identical results either way, so this
    /// is deliberately *not* part of the config digest.
    pub read_path: ReadPath,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Wdl,
            dim: 16,
            hidden: vec![64, 32],
            batch_size: 256,
            epochs: 3,
            embed_opt: SparseOpt::adagrad(0.05),
            dense_lr: 0.05,
            test_fraction: 0.1,
            max_eval_samples: 8192,
            auc_target: None,
            grad_clip: Some(5.0),
            compute_scales: None,
            hetero_aware_batching: false,
            seed: 42,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
            sync_format: SyncFormat::F32,
            sync_error_feedback: true,
            storage: StorageMode::Memory,
            read_path: ReadPath::default(),
        }
    }
}

impl TrainerConfig {
    /// Rejects a configuration [`Trainer::try_run`] cannot train, naming
    /// the offending field in a [`HetGmpError::Config`] (exit code 78):
    /// `dim`, `batch_size` or a hidden size of 0, no hidden layer, a
    /// `test_fraction` outside `(0, 1)`, `compute_scales` that are not one
    /// finite positive factor per worker (`workers` is the topology's
    /// count), a dense step that climbs or turns NaN, checkpointing half
    /// configured, or a tiered store with no RAM budget. `epochs: 0` is
    /// legal: the run sets up, evaluates nothing and returns.
    pub fn validate(&self, workers: usize) -> Result<(), HetGmpError> {
        if self.dim == 0 {
            return Err(HetGmpError::config(
                "dim",
                "embedding dimension must be positive",
            ));
        }
        if self.hidden.is_empty() {
            return Err(HetGmpError::config(
                "hidden",
                "at least one hidden layer is required",
            ));
        }
        if self.hidden.contains(&0) {
            return Err(HetGmpError::config(
                "hidden",
                "hidden layer sizes must be positive",
            ));
        }
        if !(self.test_fraction > 0.0 && self.test_fraction < 1.0) {
            return Err(HetGmpError::config(
                "test_fraction",
                format!(
                    "must lie strictly between 0 and 1, got {}",
                    self.test_fraction
                ),
            ));
        }
        if self.batch_size == 0 {
            return Err(HetGmpError::config("batch_size", "must be positive"));
        }
        // A slowdown factor divides the simulated compute rate and, under
        // heterogeneity-aware batching, a batch size.
        if let Some(scales) = &self.compute_scales {
            if scales.len() != workers {
                return Err(HetGmpError::config(
                    "compute_scales",
                    format!("{} slowdown factors for {workers} workers", scales.len()),
                ));
            }
            if scales.iter().any(|&s| !s.is_finite() || s <= 0.0) {
                return Err(HetGmpError::config(
                    "compute_scales",
                    "every slowdown factor must be positive and finite",
                ));
            }
        }
        // The dense step scales every gradient by `clip / norm` once the
        // norm exceeds `clip`, then steps by `-dense_lr`: a clip that is not
        // a finite positive number, or a rate that is not a finite
        // non-negative one, climbs the loss or turns the parameters into NaN.
        if !(self.dense_lr.is_finite() && self.dense_lr >= 0.0) {
            return Err(HetGmpError::config(
                "dense_lr",
                format!("must be finite and non-negative, got {}", self.dense_lr),
            ));
        }
        if let Some(clip) = self.grad_clip {
            if !(clip.is_finite() && clip > 0.0) {
                return Err(HetGmpError::config(
                    "grad_clip",
                    format!("must be None or finite and positive, got {clip}"),
                ));
            }
        }
        if self.checkpoint_every > 0 && self.checkpoint_dir.is_none() {
            return Err(HetGmpError::config(
                "checkpoint_dir",
                "checkpoint_every > 0 but checkpoint_dir is unset",
            ));
        }
        if self.checkpoint_dir.is_some() && self.checkpoint_every == 0 {
            return Err(HetGmpError::config(
                "checkpoint_every",
                "checkpoint_dir is set but checkpoint_every is 0 (checkpointing disabled)",
            ));
        }
        if let StorageMode::Tiered {
            budget_bytes: 0, ..
        } = self.storage
        {
            return Err(HetGmpError::config(
                "storage",
                "tiered storage needs a positive RAM budget",
            ));
        }
        Ok(())
    }
}

/// One evaluation point on the convergence curve (Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct EvalPoint {
    /// Epoch index (1-based, at the epoch's end).
    pub epoch: usize,
    /// Simulated wall-clock seconds (max over workers).
    pub sim_time: f64,
    /// Test AUC.
    pub auc: f64,
    /// Test log-loss.
    pub log_loss: f64,
    /// Mean training BCE loss over the epoch's batches — the objective `F`
    /// of the paper's Theorem 1 (the quantity that provably decreases).
    pub train_loss: f64,
}

/// Everything measured in one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Strategy display name.
    pub strategy: String,
    /// Convergence curve (one point per epoch).
    pub curve: Vec<EvalPoint>,
    /// Final test AUC.
    pub final_auc: f64,
    /// Total simulated seconds (max over workers).
    pub sim_time: f64,
    /// Simulated seconds until `auc_target` was reached, if it was.
    pub time_to_target: Option<f64>,
    /// Samples processed (including wrap-around re-visits).
    pub samples_processed: u64,
    /// Throughput in samples / simulated second.
    pub throughput: f64,
    /// Merged per-category time across workers.
    pub breakdown: TimeBreakdown,
    /// Per-worker time breakdowns.
    pub per_worker: Vec<TimeBreakdown>,
    /// Total traffic bytes by class (embed data / keys+clocks / allreduce).
    pub traffic_bytes: [u64; 3],
    /// Partition quality metrics (remote fetch statistics; `None` for
    /// CPU-PS systems where the GPU partition is meaningless).
    pub partition_metrics: Option<PartitionMetrics>,
    /// Unified metrics from every component of the run: traffic classes,
    /// time categories, embedding protocol events, partitioner rounds.
    pub telemetry: TelemetrySnapshot,
    /// Bounded-async protocol audit summary (`None` unless auditing was
    /// enabled with [`Trainer::with_audit`]).
    pub audit: Option<AuditSummary>,
    /// Batches whose training loss came back non-finite (NaN/∞). Non-zero
    /// means the run diverged; the CLI treats it as a data error.
    pub nonfinite_batches: u64,
    /// The run's identity stamp (seed, config digest, shape, build):
    /// written into every artifact this run produces so `inspect diff` can
    /// flag cross-run comparisons whose configurations differ.
    pub manifest: RunManifest,
    /// Tiered-storage buffer-manager stats (`None` for RAM-only runs).
    pub capacity: Option<CapacityStats>,
}

/// The manifest's digest input: the strategy and every hyper-parameter
/// that shapes the math or the schedule. Workspace-volatile fields
/// (checkpoint/resume paths) and the seed are excluded — the seed is its
/// own manifest field, and two runs of the same experiment must digest
/// identically regardless of where they write or resume from.
fn config_digest_text(strategy: &StrategyConfig, cfg: &TrainerConfig) -> String {
    // The spill directory is workspace-volatile like the checkpoint paths,
    // so only the storage tier and its budget enter the digest.
    let storage = match &cfg.storage {
        StorageMode::Memory => "memory".to_string(),
        StorageMode::Tiered { budget_bytes, .. } => format!("tiered:{budget_bytes}"),
    };
    format!(
        "{strategy:?}|model={:?}|dim={}|hidden={:?}|batch={}|epochs={}|opt={:?}|lr={}|test={}|\
         eval={}|target={:?}|clip={:?}|scales={:?}|hetero={}|ckpt_every={}|\
         sync_format={}|sync_ef={}|storage={storage}",
        cfg.model,
        cfg.dim,
        cfg.hidden,
        cfg.batch_size,
        cfg.epochs,
        cfg.embed_opt,
        cfg.dense_lr,
        cfg.test_fraction,
        cfg.max_eval_samples,
        cfg.auc_target,
        cfg.grad_clip,
        cfg.compute_scales,
        cfg.hetero_aware_batching,
        cfg.checkpoint_every,
        cfg.sync_format,
        cfg.sync_error_feedback,
    )
}

/// Test samples evaluated per forward pass, and per batched table read.
const EVAL_CHUNK: usize = 512;

/// The set-up both trainers share, from the training rows to the epoch
/// length: the bigraph over the training samples, its partition, each
/// embedding's access count, each worker's shard of dataset indices and
/// the iterations per epoch.
pub(crate) struct Placement {
    pub(crate) graph: Bigraph,
    pub(crate) partition: Partition,
    pub(crate) freq: Vec<u64>,
    pub(crate) shards: Vec<Vec<u32>>,
    pub(crate) iters_per_epoch: usize,
}

impl Placement {
    /// Partitions the samples `train` (dataset indices, whose embedding ids
    /// `row` returns) over `topology` with `partitioner`.
    pub(crate) fn build<R: AsRef<[u32]>>(
        num_embeddings: usize,
        train: &[u32],
        row: impl Fn(u32) -> R,
        partitioner: &dyn Partitioner,
        topology: &Topology,
        batch_size: usize,
    ) -> Self {
        // The row list lives only as long as the build.
        let graph = {
            let rows: Vec<R> = train.iter().map(|&i| row(i)).collect();
            Bigraph::from_samples(num_embeddings, &rows)
        };
        let partition = partitioner.partition(&graph, topology);
        let freq: Vec<u64> = (0..graph.num_embeddings() as u32)
            .map(|e| graph.emb_frequency(e) as u64)
            .collect();
        let shards: Vec<Vec<u32>> = partition
            .samples_by_partition()
            .into_iter()
            .map(|local| local.into_iter().map(|s| train[s as usize]).collect())
            .collect();
        // Iterations per epoch follow the *mean* shard size (workers with
        // smaller shards wrap around; persistent cursors even out coverage
        // across epochs). Using the max would let residual imbalance from
        // the partitioner's slack inflate every worker's iteration count.
        let n = topology.num_workers();
        let mean_shard =
            (shards.iter().map(Vec::len).sum::<usize>() as f64 / n as f64).round() as usize;
        let iters_per_epoch = mean_shard.max(1).div_ceil(batch_size).max(1);
        Self {
            graph,
            partition,
            freq,
            shards,
            iters_per_epoch,
        }
    }
}

/// The latest simulated clock over `workers`.
pub(crate) fn sim_time<M>(workers: &[WorkerRun<'_, M>]) -> f64 {
    workers.iter().map(|me| me.clock.now()).fold(0.0, f64::max)
}

/// The distributed trainer for one (dataset, topology, strategy) triple.
pub struct Trainer<'d> {
    dataset: &'d CtrDataset,
    topology: Topology,
    strategy: StrategyConfig,
    pub(crate) config: TrainerConfig,
    tracer: Option<Arc<TraceCollector>>,
    audit: AuditMode,
    faults: Option<Arc<FaultSchedule>>,
}

impl<'d> Trainer<'d> {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics if the topology has no workers or the dataset is empty.
    pub fn new(
        dataset: &'d CtrDataset,
        topology: Topology,
        strategy: StrategyConfig,
        config: TrainerConfig,
    ) -> Self {
        assert!(topology.num_workers() >= 1, "need at least one worker");
        assert!(dataset.num_samples() > 0, "empty dataset");
        Self {
            dataset,
            topology,
            strategy,
            config,
            tracer: None,
            audit: AuditMode::Off,
            faults: None,
        }
    }

    /// Attaches a trace collector: the run emits Chrome-trace events
    /// (epoch/batch spans per worker, link transfers, partitioner rounds,
    /// protocol decisions at sync detail level) into `tracer`. Build the
    /// collector with one slot per worker in this trainer's topology;
    /// [`Trainer::try_run`] rejects a smaller one.
    pub fn with_tracer(mut self, tracer: Arc<TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables the runtime protocol auditor: every staleness decision is
    /// checked against the strategy's [`StalenessBound`]. `Count` tallies
    /// violations into the result's [`AuditSummary`]; `Strict` additionally
    /// aborts training at the next iteration boundary after a violation.
    pub fn with_audit(mut self, mode: AuditMode) -> Self {
        self.audit = mode;
        self
    }

    /// Injects a deterministic fault schedule: workers crash or stall and
    /// links degrade at the scheduled simulated times. Crash recovery rolls
    /// the failed worker back to the last checkpoint image and charges the
    /// restore, replica refresh and replay to its simulated clock as
    /// `time.fault_secs`. The schedule must cover this trainer's worker
    /// count.
    pub fn with_faults(mut self, faults: Arc<FaultSchedule>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs training and returns the measurements.
    ///
    /// # Panics
    /// Panics on configuration or checkpoint I/O errors; use
    /// [`Trainer::try_run`] to handle them.
    pub fn run(&self) -> TrainResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("training run failed: {e}"))
    }

    /// Runs training and returns the measurements, or an error when the
    /// configuration is invalid ([`TrainerConfig::validate`],
    /// [`StrategyConfig::validate`], a fault schedule for another worker
    /// count, a trace collector with fewer tracks than workers) or
    /// checkpoint I/O fails. Every check runs before any work.
    ///
    /// The run goes in phases: set-up (partition, table, workers, resume),
    /// then per epoch the workers' epoch on one thread each, the barrier,
    /// the periodic checkpoint and the evaluation, then finish.
    pub fn try_run(&self) -> Result<TrainResult, HetGmpError> {
        let cfg = &self.config;
        let n = self.topology.num_workers();
        cfg.validate(n)?;
        self.strategy.validate()?;
        let faults = self.fault_schedule()?;
        if let Some(t) = &self.tracer {
            if t.num_workers() < n {
                return Err(HetGmpError::config(
                    "tracer",
                    format!(
                        "trace collector has {} worker tracks but topology has {n}",
                        t.num_workers()
                    ),
                ));
            }
            t.attach_manifest(self.manifest());
        }

        // ---- Set-up ----------------------------------------------------------
        let registry = MetricsRegistry::new(n);
        let split = self.dataset.split(cfg.test_fraction);
        let placement = Placement::build(
            self.dataset.num_features,
            &split.train,
            |i| self.dataset.sample(i as usize),
            self.strategy
                .partition
                .partitioner_instrumented(cfg.seed, Some(registry.global()), self.tracer.clone())
                .as_ref(),
            &self.topology,
            cfg.batch_size,
        );
        let partition_metrics = match self.strategy.embed_home {
            EmbedHome::Gpu => Some(PartitionMetrics::compute(
                &placement.graph,
                &placement.partition,
            )),
            EmbedHome::CpuPs => None,
        };
        let table = self.open_table(&registry, &placement.partition)?;
        let auditor = self.auditor();
        let mut workers = self.workers(&*table, &placement, &registry, auditor.as_ref());
        let mut run = RunCtx::new(
            cfg,
            &self.strategy,
            self.dataset,
            &*table,
            &placement,
            &self.topology,
            registry,
        );
        run.cost = run.cost.with_faults(Arc::clone(&faults));
        (run.faults, run.tracer, run.auditor) = (faults, self.tracer.as_deref(), auditor);
        let start_epoch = self.resume(&run, &mut workers)?;

        // ---- Epochs ----------------------------------------------------------
        // The run image crashes roll back to, replaced at every checkpoint;
        // only kept when the schedule can crash.
        let mut image = run.faults.has_crashes().then(|| CrashImage {
            bytes: encode_run(&run, &mut workers, start_epoch - 1),
            write_secs: 0.0,
        });
        let mut curve: Vec<EvalPoint> = Vec::with_capacity(cfg.epochs);
        // The evaluation's dense arena, warm after the first chunk.
        let mut eval_tape = ModelTape::new();
        let mut time_to_target: Option<f64> = None;
        // Wall-clock throughput baseline (hotpath.*): simulated time measures
        // the modelled cluster; wall time measures this implementation.
        let wall_start = Instant::now();
        for epoch in start_epoch..=cfg.epochs {
            if !train_epoch(&run, &mut workers, epoch, image.as_ref()) {
                break;
            }
            barrier(&run, &mut workers);
            if cfg.checkpoint_every > 0 && epoch % cfg.checkpoint_every == 0 {
                checkpoint(&run, &mut workers, epoch, &mut image)?;
            }
            let point = self.evaluate_epoch(&run, &mut workers, epoch, &split.test, &mut eval_tape);
            curve.push(point);
            if cfg.auc_target.is_some_and(|target| point.auc >= target) {
                time_to_target = Some(point.sim_time);
                break;
            }
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();
        Ok(self.finish(
            &run,
            &workers,
            curve,
            time_to_target,
            wall_secs,
            partition_metrics,
        ))
    }

    /// The injected fault schedule (an empty one without
    /// [`Trainer::with_faults`]), which must cover the topology's workers.
    fn fault_schedule(&self) -> Result<Arc<FaultSchedule>, HetGmpError> {
        let n = self.topology.num_workers();
        let faults = self
            .faults
            .clone()
            .unwrap_or_else(|| Arc::new(FaultSchedule::empty(n)));
        if faults.num_workers() != n {
            return Err(HetGmpError::config(
                "faults",
                format!(
                    "fault schedule covers {} workers but topology has {n}",
                    faults.num_workers()
                ),
            ));
        }
        Ok(faults)
    }

    /// The protocol auditor [`Trainer::with_audit`] asked for, checking
    /// against the strategy's staleness bound.
    fn auditor(&self) -> Option<Arc<ProtocolAuditor>> {
        self.audit.is_on().then(|| {
            let bound = match self.strategy.staleness {
                StalenessBound::Bounded(s) => s as f64,
                StalenessBound::Infinite => f64::INFINITY,
            };
            Arc::new(ProtocolAuditor::new(bound, self.audit))
        })
    }

    /// The run's identity stamp: seed, config digest, worker count, build.
    fn manifest(&self) -> RunManifest {
        let mut manifest = RunManifest::new(
            self.config.seed,
            RunManifest::digest_of(&config_digest_text(&self.strategy, &self.config)),
            self.topology.num_workers(),
        );
        manifest.gemm_isa = Some(hetgmp_tensor::gemm::kernel_tier().to_string());
        manifest
    }

    /// A dense model replica; every worker's starts identical.
    fn new_model(&self) -> CtrModel {
        let cfg = &self.config;
        CtrModel::new(
            cfg.model,
            self.dataset.num_fields,
            cfg.dim,
            &cfg.hidden,
            cfg.seed,
        )
    }

    /// Opens the primary table in the configured storage tier. In memory,
    /// each primary owner of `partition` gets its own segment, so the write
    /// phase's owners never share a lock. A tiered table reports its faults
    /// to the run's recorder and tracer.
    fn open_table(
        &self,
        registry: &MetricsRegistry,
        partition: &Partition,
    ) -> Result<Box<dyn RowStore>, HetGmpError> {
        let cfg = &self.config;
        let rows = self.dataset.num_features;
        Ok(match &cfg.storage {
            StorageMode::Memory => Box::new(ShardedTable::with_partition(
                rows, cfg.dim, 0.05, cfg.seed, partition,
            )),
            StorageMode::Tiered { budget_bytes, dir } => {
                let tiered = TieredConfig {
                    budget_bytes: *budget_bytes,
                    dir: dir.clone(),
                    ..TieredConfig::default()
                };
                let t = TieredTable::try_new(rows, cfg.dim, 0.05, cfg.seed, tiered)?;
                t.attach_recorder(registry.global());
                if let Some(tr) = &self.tracer {
                    t.attach_tracer(Arc::clone(tr));
                }
                Box::new(t)
            }
        })
    }

    /// Every worker's persistent state: the one embedding worker, under the
    /// replica policy the strategy names — static vertex-cut replicas
    /// (HET-GMP) or a dynamic LFU cache (HET-style) — with its hooks, and
    /// its model, buffers, clock, cursors, profiler and batch size.
    fn workers<'t>(
        &self,
        table: &'t dyn RowStore,
        placement: &'t Placement,
        registry: &MetricsRegistry,
        auditor: Option<&Arc<ProtocolAuditor>>,
    ) -> Vec<WorkerRun<'t, CtrModel>> {
        let cfg = &self.config;
        let n = self.topology.num_workers();
        let (partition, staleness) = (&placement.partition, self.strategy.staleness);
        // Compute scales and (optionally) speed-proportional batch sizes so
        // a straggler's BSP iteration takes as long as its peers'.
        let scales: Vec<f64> = cfg.compute_scales.clone().unwrap_or_else(|| vec![1.0; n]);
        let mean_speed = scales.iter().map(|&s| 1.0 / s).sum::<f64>() / n as f64;
        (0..n)
            .map(|w| {
                let mut emb: Box<dyn EmbeddingWorker + 't> = match self.strategy.cache {
                    CacheDesign::StaticVertexCut => Box::new(WorkerEmbedding::new(
                        w as u32,
                        table,
                        partition,
                        &placement.freq,
                        staleness,
                    )),
                    CacheDesign::DynamicLfu { capacity_fraction } => {
                        let capacity =
                            (placement.graph.num_embeddings() as f64 * capacity_fraction) as usize;
                        Box::new(CachedWorkerEmbedding::new(
                            w as u32, table, partition, capacity, staleness,
                        ))
                    }
                };
                // Select the wire format before attaching telemetry: the
                // replica re-prime a lossy format triggers is initial
                // placement, not steady-state traffic, so it stays
                // uncharged and unmetered like the rest of placement.
                emb.set_sync_format(cfg.sync_format, cfg.sync_error_feedback);
                // Route the hot-loop fetches through the configured read
                // path. Both paths return bit-identical rows, so this never
                // perturbs the training trajectory.
                emb.set_read_path(cfg.read_path);
                emb.attach_recorder(registry.worker(w));
                if let Some(a) = auditor {
                    emb.attach_auditor(Arc::clone(a));
                }
                if let Some(t) = &self.tracer {
                    emb.attach_tracer(Arc::clone(t));
                }
                let batch_size = if cfg.hetero_aware_batching {
                    let speed = 1.0 / scales[w];
                    ((cfg.batch_size as f64 * speed / mean_speed).round() as usize).max(1)
                } else {
                    cfg.batch_size
                };
                let model = self.new_model();
                WorkerRun::new(w, emb, model, registry.worker(w), scales[w], batch_size)
            })
            .collect()
    }

    /// Restores [`TrainerConfig::resume_from`] into the table and every
    /// worker — replicas, dense model, shard cursor, simulated clock, fault
    /// cursor — and returns the first epoch to train (1 without a checkpoint).
    fn resume(
        &self,
        run: &RunCtx<'_, CtrModel>,
        workers: &mut [WorkerRun<'_, CtrModel>],
    ) -> Result<usize, HetGmpError> {
        let Some(path) = &self.config.resume_from else {
            return Ok(1);
        };
        let bytes = std::fs::read(path).map_err(|e| HetGmpError::io(path.clone(), e))?;
        let state =
            load_run(run.table, bytes.as_slice()).map_err(|e| e.into_workspace(path.clone()))?;
        let Some(next_epoch) = usize::try_from(state.epoch)
            .ok()
            .and_then(|e| e.checked_add(1))
        else {
            return Err(HetGmpError::checkpoint(path.clone(), "corrupt epoch"));
        };
        if next_epoch > self.config.epochs {
            return Err(HetGmpError::config(
                "epochs",
                format!(
                    "checkpoint is at epoch {} but the run trains {} epochs; \
                     nothing is left to train",
                    state.epoch, self.config.epochs
                ),
            ));
        }
        if state.workers.len() != workers.len() {
            return Err(HetGmpError::config(
                "resume_from",
                format!(
                    "checkpoint has {} workers but topology has {}",
                    state.workers.len(),
                    workers.len()
                ),
            ));
        }
        for (me, ws) in workers.iter_mut().zip(&state.workers) {
            let num_dense = me.model.num_dense_params();
            if ws.dense_params.len() != num_dense {
                return Err(HetGmpError::config(
                    "resume_from",
                    format!(
                        "checkpoint dense model has {} parameters but this \
                         configuration has {num_dense}",
                        ws.dense_params.len(),
                    ),
                ));
            }
            // Checked here rather than in the shared decoder, which crash
            // rollback also reads through.
            if let Some(i) = ws.dense_params.iter().position(|p| !p.is_finite()) {
                return Err(HetGmpError::checkpoint(
                    path.clone(),
                    format!("worker {} dense parameter {i} is not finite", me.w),
                ));
            }
            me.model.load_params(&ws.dense_params);
            // Re-prime the replicas (warm-loaded from the fresh table) from
            // the restored one, uncharged like the warm load.
            me.emb.sync_replicas();
            me.cursor = ws.cursor as usize;
            // Seeding the resumed clock is a free forward jump: the time
            // before the checkpoint was already charged by the original run.
            me.clock.wait_until(ws.sim_time);
            // Skip fault events the original run already took.
            let events = run.faults.worker_faults(me.w);
            while me.fstate.next < events.len() && events[me.fstate.next].at <= ws.sim_time {
                me.fstate.next += 1;
            }
        }
        Ok(next_epoch)
    }

    /// Evaluates the epoch's models on the test split and records the
    /// curve point.
    fn evaluate_epoch(
        &self,
        run: &RunCtx<'_, CtrModel>,
        workers: &mut [WorkerRun<'_, CtrModel>],
        epoch: usize,
        test: &[u32],
        tape: &mut ModelTape,
    ) -> EvalPoint {
        let sim_time = sim_time(workers);
        let models = workers.iter_mut().map(|me| &mut me.model);
        let (auc_v, ll) = self.evaluate(models, run.table, test, tape);
        let batches = run.loss_batches.load(Ordering::Relaxed).max(1);
        let train_loss = run.loss_sum_micro.load(Ordering::Relaxed) as f64 / 1e6 / batches as f64;
        run.registry.global().gauge_set(names::TRAIN_AUC, auc_v);
        run.registry
            .global()
            .gauge_set(names::TRAIN_SIM_TIME, sim_time);
        EvalPoint {
            epoch,
            sim_time,
            auc: auc_v,
            log_loss: ll,
            train_loss,
        }
    }

    /// Evaluates test AUC/log-loss with the mean dense model and the fresh
    /// global embedding table, one [`EVAL_CHUNK`] of samples at a time
    /// through `tape` (each chunk closes with [`ModelTape::end_batch`]).
    fn evaluate<'m>(
        &self,
        models: impl IntoIterator<Item = &'m mut CtrModel>,
        table: &dyn RowStore,
        test: &[u32],
        tape: &mut ModelTape,
    ) -> (f64, f64) {
        let cfg = &self.config;
        // Mean dense parameters (identical under BSP; averaged under ASP).
        let mut models = models.into_iter();
        let mut mean = models.next().expect("at least one worker").flatten_params();
        let mut n = 1usize;
        for model in models {
            for (m, x) in mean.iter_mut().zip(model.flatten_params()) {
                *m += x;
            }
            n += 1;
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut eval_model = self.new_model();
        eval_model.load_params(&mean);

        let take = test.len().min(cfg.max_eval_samples);
        let mut scores = Vec::with_capacity(take);
        let mut labels = Vec::with_capacity(take);
        let fields = self.dataset.num_fields;
        let dim = cfg.dim;
        let mut rows: Vec<u32> = Vec::new();
        let mut clocks: Vec<u64> = Vec::new();
        let mut scratch = BatchScratch::default();
        let mut input = Matrix::zeros(0, 0);
        for chunk in test[..take].chunks(EVAL_CHUNK) {
            // One batched read per chunk, gathered straight into the input
            // matrix: a sample's fields are `fields x dim` contiguous
            // there, which is the layout `read_rows` fills — every element,
            // so the reused buffer is reshaped, not cleared.
            input.reshape(chunk.len(), fields * dim);
            rows.clear();
            for &idx in chunk {
                rows.extend_from_slice(self.dataset.sample(idx as usize));
                labels.push(self.dataset.label(idx as usize));
            }
            clocks.resize(rows.len(), 0);
            table.read_rows(&rows, input.data_mut(), &mut clocks, &mut scratch);
            eval_model.forward_tape(&input, tape);
            tape.end_batch();
            scores.extend(tape.logits().data().iter().map(|&z| sigmoid(z)));
        }
        (auc(&scores, &labels), log_loss(&scores, &labels))
    }

    /// Records the run's closing telemetry and assembles the result.
    fn finish(
        &self,
        run: &RunCtx<'_, CtrModel>,
        workers: &[WorkerRun<'_, CtrModel>],
        curve: Vec<EvalPoint>,
        time_to_target: Option<f64>,
        wall_secs: f64,
        partition_metrics: Option<PartitionMetrics>,
    ) -> TrainResult {
        let per_worker: Vec<TimeBreakdown> =
            workers.iter().map(|me| *me.clock.breakdown()).collect();
        let mut breakdown = TimeBreakdown::default();
        for b in &per_worker {
            breakdown = breakdown.merged(b);
        }
        let sim_time = sim_time(workers);
        let samples_total = run.samples.load(Ordering::Relaxed);
        let final_auc = curve.last().map_or(0.5, |p| p.auc);
        let global = run.registry.global();
        global.counter_add(names::TRAIN_SAMPLES, samples_total);
        global.gauge_set(names::TRAIN_SIM_TIME, sim_time);
        global.gauge_set(names::TRAIN_AUC, final_auc);
        global.gauge_set(
            names::HOTPATH_SAMPLES_PER_SEC,
            if wall_secs > 0.0 {
                samples_total as f64 / wall_secs
            } else {
                0.0
            },
        );
        let capacity = record_closing_gauges(run, workers);
        let telemetry = run.registry.snapshot();
        TrainResult {
            strategy: self.strategy.name.clone(),
            final_auc,
            sim_time,
            time_to_target,
            samples_processed: samples_total,
            throughput: if sim_time > 0.0 {
                samples_total as f64 / sim_time
            } else {
                0.0
            },
            breakdown,
            per_worker,
            traffic_bytes: TrafficClass::all().map(|c| telemetry.counter(c.bytes_metric())),
            partition_metrics,
            telemetry,
            audit: run.auditor.as_ref().map(|a| a.summary()),
            nonfinite_batches: run.nonfinite.load(Ordering::Relaxed),
            manifest: self.manifest(),
            capacity,
            curve,
        }
    }
}

/// One epoch on every worker, one thread each, then the stage-profiler
/// flush. Returns `false` when a strict audit tripped: every worker then
/// left at the same iteration boundary and the run is abandoned without
/// evaluating.
pub(crate) fn train_epoch<M: StepModel>(
    run: &RunCtx<'_, M>,
    workers: &mut [WorkerRun<'_, M>],
    epoch: usize,
    image: Option<&CrashImage>,
) -> bool {
    run.loss_sum_micro.store(0, Ordering::Relaxed);
    run.loss_batches.store(0, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for me in workers.iter_mut() {
            scope.spawn(move || run_worker_epoch(run, me, epoch, image));
        }
    });
    // Per-stage histograms leave the workers once per epoch — one merge
    // per (stage, kind) per worker, off the hot path.
    for me in workers.iter_mut() {
        me.profiler.flush(me.recorder.as_ref());
    }
    !run.auditor.as_ref().is_some_and(|a| a.is_tripped())
}

/// The epoch barrier, in three passes: every worker routes its deferred
/// secondary gradients (charged as one group, by destination); every owner
/// applies them, as a step's write phase does, so the evaluation (and the
/// next epoch) sees every update; each worker re-primes its local replicas
/// from the now-final table (one group, by primary owner). The state
/// entering the next epoch is then what a checkpoint resume reconstructs
/// (resumed workers re-prime replicas from the restored table), so a
/// resumed run replays the uninterrupted run's math.
pub(crate) fn barrier<M: StepModel>(run: &RunCtx<'_, M>, workers: &mut [WorkerRun<'_, M>]) {
    for me in workers.iter_mut() {
        let rep = me.emb.flush_all(&run.exchange);
        let flush = Transfer::exchange(
            &rep.data_bytes_by_dst,
            &rep.meta_bytes_by_dst,
            run.row_bytes,
        );
        let wire = run.wire(&me.recorder);
        charge(
            &wire,
            me.w,
            &mut me.clock,
            &mut me.links,
            Phases::Barrier("flush", &flush),
        );
    }
    for me in workers.iter() {
        run.exchange
            .apply_owned(me.w, run.table, &run.cfg.embed_opt);
    }
    for me in workers.iter_mut() {
        let reprime = Transfer::rows(&me.emb.sync_replicas(), run.row_bytes);
        let wire = run.wire(&me.recorder);
        charge(
            &wire,
            me.w,
            &mut me.clock,
            &mut me.links,
            Phases::Barrier("reprime", &reprime),
        );
    }
}

/// The run's `HGMR` encoding after `epoch`: the table plus each worker's
/// simulated clock, shard cursor and dense model.
fn encode_run(
    run: &RunCtx<'_, CtrModel>,
    workers: &mut [WorkerRun<'_, CtrModel>],
    epoch: usize,
) -> Vec<u8> {
    let state = RunState {
        epoch: epoch as u64,
        workers: workers
            .iter_mut()
            .map(|me| WorkerState {
                sim_time: me.clock.now(),
                cursor: me.cursor as u64,
                dense_params: me.model.flatten_params(),
            })
            .collect(),
    };
    let mut bytes = Vec::new();
    save_run(run.table, &state, &mut bytes)
        .expect("a run encodes into memory: every worker's dense model has one shape");
    bytes
}

/// Writes `ckpt-epoch-<epoch>.hgmr`. Runs after the barrier, so nothing is
/// pending and the file captures an exact, resumable state; the same
/// bytes then become the crash image, if the run keeps one.
fn checkpoint(
    run: &RunCtx<'_, CtrModel>,
    workers: &mut [WorkerRun<'_, CtrModel>],
    epoch: usize,
    image: &mut Option<CrashImage>,
) -> Result<(), HetGmpError> {
    let dir = (run.cfg.checkpoint_dir.as_ref())
        .expect("TrainerConfig::validate pairs checkpoint_every with a checkpoint_dir");
    std::fs::create_dir_all(dir).map_err(|e| HetGmpError::io(dir.clone(), e))?;
    let encoded = encode_run(run, workers, epoch);
    let path = dir.join(format!("ckpt-epoch-{epoch}.hgmr"));
    std::fs::write(&path, &encoded).map_err(|e| HetGmpError::io(path.clone(), e))?;
    let bytes = encoded.len() as u64;
    // Every worker streams its shard of the image over the host link in
    // parallel; charge each one its share.
    let io_t = run
        .cost
        .link_transfer_time(LinkClass::HostPcie, bytes / workers.len().max(1) as u64);
    let ckpt_start = sim_time(workers);
    for me in workers.iter_mut() {
        me.clock.advance(TimeCategory::HostIo, io_t);
    }
    let global = run.registry.global();
    global.counter_add(names::CHECKPOINT_SAVES, 1);
    global.counter_add(names::CHECKPOINT_BYTES, bytes);
    if let Some(t) = run.tracer {
        t.driver_span(
            names::TRACE_CHECKPOINT,
            ckpt_start,
            io_t,
            &[
                ("epoch", Json::U64(epoch as u64)),
                ("bytes", Json::U64(bytes)),
            ],
        );
    }
    // Future crashes roll back to this image instead of the earlier one.
    if let Some(image) = image {
        *image = CrashImage {
            bytes: encoded,
            write_secs: io_t,
        };
    }
    Ok(())
}

/// The run's closing gauges beyond the training curve: lock and read-path
/// accounting, tiered capacity, the dense engine's work and arena, the
/// communication overlap and the profilers' own cost. Returns the store's
/// capacity stats when it has a RAM budget (`None` for RAM-only runs).
pub(crate) fn record_closing_gauges<M: StepModel>(
    run: &RunCtx<'_, M>,
    workers: &[WorkerRun<'_, M>],
) -> Option<CapacityStats> {
    let global = run.registry.global();
    let table = run.table;
    global.gauge_set(
        names::HOTPATH_LOCK_ACQUISITIONS,
        table.lock_acquisitions() as f64,
    );
    // Read-path accounting: how many rows a tiered store's snapshot path
    // served from resident pages and how many through a fault (all zero
    // in memory, where no read tears and so none retries). The mode gauge
    // lets `inspect report` state which path the run used without parsing
    // argv.
    let rp = table.read_path_stats();
    global.counter_add(names::HOTPATH_READ_SNAPSHOT, rp.snapshot_rows);
    global.counter_add(names::HOTPATH_READ_RETRIES, rp.retries);
    global.counter_add(names::HOTPATH_READ_FALLBACK, rp.fallback_rows);
    global.gauge_set(
        names::HOTPATH_READ_MODE,
        match run.cfg.read_path {
            ReadPath::Snapshot => 1.0,
            ReadPath::Locked => 0.0,
        },
    );
    // Capacity telemetry (tiered runs only, so `inspect report` can gate
    // its capacity section on `capacity.budget_bytes`): the buffer-manager
    // counters accumulated through the attached recorder during the run;
    // the resident/spilled byte split is set here — disjoint by
    // construction, so RAM accounting never double-counts partitions whose
    // authoritative copy is on disk.
    let cs = table.capacity_stats();
    let capacity = (cs.budget_bytes > 0).then(|| {
        global.gauge_set(names::CAPACITY_RESIDENT_BYTES, cs.resident_bytes as f64);
        global.gauge_set(names::CAPACITY_SPILLED_BYTES, cs.spilled_bytes as f64);
        global.gauge_set(names::CAPACITY_BUDGET_BYTES, cs.budget_bytes as f64);
        cs
    });
    // Dense-engine telemetry, aggregated over every slot's tape: real GEMM
    // work done, arena high-water mark, steady-state allocation violations
    // (must stay 0), and dense-path-only throughput.
    let tapes = || workers.iter().map(|me| &me.slot.tape);
    global.counter_add(
        names::DENSE_GEMM_FLOPS,
        tapes().map(|t| t.flops()).sum::<u64>(),
    );
    global.gauge_set(
        names::DENSE_ARENA_BYTES,
        tapes().map(|t| t.arena_bytes()).sum::<usize>() as f64,
    );
    global.gauge_set(
        names::DENSE_TAPE_GROWTH,
        tapes().map(|t| t.post_warmup_growth()).sum::<u64>() as f64,
    );
    let dense_secs: f64 = tapes().map(|t| t.dense_secs).sum();
    let dense_samples: u64 = tapes().map(|t| t.dense_samples).sum();
    global.gauge_set(
        names::DENSE_SAMPLES_PER_SEC,
        if dense_secs > 0.0 {
            dense_samples as f64 / dense_secs
        } else {
            0.0
        },
    );
    // How much overlappable simulated communication hid behind compute
    // (`strategy.overlap`).
    let hidden: f64 = workers.iter().map(|me| me.clock.hidden_secs()).sum();
    let overlappable: f64 = workers.iter().map(|me| me.clock.overlappable_secs()).sum();
    global.gauge_set(
        names::PIPELINE_OVERLAP_RATIO,
        if overlappable > 0.0 {
            hidden / overlappable
        } else {
            0.0
        },
    );
    // Busy seconds per link class, latency and bandwidth apart.
    publish_links(global.as_ref(), workers.iter().map(|me| me.links));
    // What the profilers cost this run: their own bookkeeping plus the
    // calibrated price of every timestamp the stage loops took. The
    // benchmark ledger reports it as `telemetry.profiler_overhead_pct`.
    global.gauge_set(
        names::TELEMETRY_OVERHEAD_SECS,
        workers
            .iter()
            .map(|me| me.profiler.overhead_secs())
            .sum::<f64>(),
    );
    capacity
}

/// What a crash rolls back to: the `HGMR` bytes of the last checkpoint
/// (of the run's start before the first one), and the simulated seconds
/// each worker spent writing them, which a recovery does not replay.
/// Dense parameters are not read back: a recovering worker copies them
/// from any live peer (replicated under BSP), which is charged but needs
/// no data.
pub(crate) struct CrashImage {
    pub(crate) bytes: Vec<u8>,
    pub(crate) write_secs: f64,
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;
    use hetgmp_data::{generate, DatasetSpec};

    fn tiny_dataset() -> CtrDataset {
        let mut spec = DatasetSpec::tiny();
        spec.num_samples = 512;
        generate(&spec)
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig {
            epochs: 2,
            batch_size: 64,
            dim: 8,
            hidden: vec![16],
            max_eval_samples: 256,
            ..Default::default()
        }
    }

    #[test]
    fn het_gmp_trains_and_improves_auc() {
        let data = tiny_dataset();
        let trainer = Trainer::new(
            &data,
            Topology::pcie_island(4),
            StrategyConfig::het_gmp(100),
            TrainerConfig {
                epochs: 4,
                ..fast_config()
            },
        );
        let result = trainer.run();
        assert_eq!(result.curve.len(), 4);
        assert!(result.final_auc > 0.6, "AUC {}", result.final_auc);
        assert!(result.sim_time > 0.0);
        assert!(result.throughput > 0.0);
        // Simulated time increases monotonically along the curve.
        for wpair in result.curve.windows(2) {
            assert!(wpair[1].sim_time >= wpair[0].sim_time);
        }
    }

    #[test]
    fn baselines_run_all_strategies() {
        let data = tiny_dataset();
        for strat in [
            StrategyConfig::tf_ps(),
            StrategyConfig::parallax(),
            StrategyConfig::hugectr(),
            StrategyConfig::het_mp(),
            StrategyConfig::het_gmp_asp(),
        ] {
            let trainer = Trainer::new(
                &data,
                Topology::pcie_island(2),
                strat.clone(),
                fast_config(),
            );
            let r = trainer.run();
            assert!(r.sim_time > 0.0, "{}: no time charged", strat.name);
            assert!(r.samples_processed > 0);
        }
    }

    #[test]
    fn het_gmp_communicates_less_than_het_mp() {
        // Needs a dataset with real locality/skew for partitioning to bite;
        // tiny()'s 120-row table is too dense to separate the systems.
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let topo = Topology::pcie_island(4);
        let mp = Trainer::new(&data, topo.clone(), StrategyConfig::het_mp(), fast_config()).run();
        let gmp = Trainer::new(&data, topo, StrategyConfig::het_gmp(100), fast_config()).run();
        assert!(
            gmp.traffic_bytes[0] < mp.traffic_bytes[0],
            "embed traffic: gmp {} vs mp {}",
            gmp.traffic_bytes[0],
            mp.traffic_bytes[0]
        );
    }

    #[test]
    fn cpu_ps_slower_than_gpu_mp() {
        // Needs enough unique rows per batch (and a representative embedding
        // width) for the shared host link to become the bottleneck, as in
        // the paper's Figure 7.
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let topo = Topology::pcie_island(4);
        let cfg = TrainerConfig {
            dim: 32,
            batch_size: 128,
            ..fast_config()
        };
        let tf = Trainer::new(&data, topo.clone(), StrategyConfig::tf_ps(), cfg.clone()).run();
        let mp = Trainer::new(&data, topo, StrategyConfig::het_mp(), cfg).run();
        assert!(
            tf.throughput < mp.throughput,
            "tf {} vs mp {}",
            tf.throughput,
            mp.throughput
        );
    }

    #[test]
    fn het_dynamic_cache_trains() {
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let topo = Topology::pcie_island(4);
        let het = Trainer::new(
            &data,
            topo.clone(),
            StrategyConfig::het_cache(100, 0.02),
            fast_config(),
        )
        .run();
        assert!(het.final_auc > 0.6, "AUC {}", het.final_auc);
        // The cache adapts: HET moves fewer embedding bytes than the
        // cache-less HugeCTR on the same placement.
        let hc = Trainer::new(&data, topo, StrategyConfig::hugectr(), fast_config()).run();
        assert!(
            het.traffic_bytes[0] < hc.traffic_bytes[0],
            "HET {} !< HugeCTR {}",
            het.traffic_bytes[0],
            hc.traffic_bytes[0]
        );
    }

    #[test]
    fn single_worker_no_comm() {
        let data = tiny_dataset();
        let r = Trainer::new(
            &data,
            Topology::cluster_b_scaled(1),
            StrategyConfig::het_mp(),
            fast_config(),
        )
        .run();
        assert_eq!(r.traffic_bytes[0], 0, "single worker should be all-local");
        assert!(r.breakdown.compute > 0.0);
    }

    #[test]
    fn strict_audit_bsp_has_zero_violations() {
        use hetgmp_telemetry::AuditMode;
        let data = tiny_dataset();
        // BSP (s = 0): every read must be served perfectly fresh; a correct
        // protocol implementation never violates the bound.
        let r = Trainer::new(
            &data,
            Topology::pcie_island(4),
            StrategyConfig::het_gmp(0),
            fast_config(),
        )
        .with_audit(AuditMode::Strict)
        .run();
        let audit = r.audit.expect("audit enabled");
        assert_eq!(audit.total_violations(), 0, "{}", audit.render());
        assert!(audit.strict_failure.is_none());
        assert!(
            audit.intra_reads + audit.inter_checks > 0,
            "auditor saw no decisions"
        );
        assert_eq!(audit.bound, 0.0);
        // The full curve ran: strict mode did not abort.
        assert_eq!(r.curve.len(), 2);
    }

    #[test]
    fn audit_asp_observes_drift_without_violations() {
        use hetgmp_telemetry::AuditMode;
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let r = Trainer::new(
            &data,
            Topology::pcie_island(4),
            StrategyConfig::het_gmp_asp(),
            fast_config(),
        )
        .with_audit(AuditMode::Count)
        .run();
        let audit = r.audit.expect("audit enabled");
        // s = ∞ admits every gap: no read can violate it…
        assert_eq!(audit.total_violations(), 0);
        // …but secondaries genuinely drift from their primaries.
        assert!(
            audit.max_intra_gap > 0.0,
            "ASP run showed no staleness drift: {}",
            audit.render()
        );
        assert!(audit.bound.is_infinite());
    }

    #[test]
    fn traced_run_covers_workers_and_links() {
        use hetgmp_telemetry::{TraceCollector, TraceLevel, TraceTrack};
        let data = tiny_dataset();
        let tracer = Arc::new(TraceCollector::new(2, TraceLevel::Sync));
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .with_tracer(Arc::clone(&tracer))
        .run();
        assert!(r.sim_time > 0.0);
        let events = tracer.events();
        for w in 0..2 {
            assert!(
                events
                    .iter()
                    .any(|e| e.track == TraceTrack::Worker(w) && e.name == names::TRACE_BATCH),
                "no batch spans for worker {w}"
            );
            assert!(events
                .iter()
                .any(|e| e.track == TraceTrack::Worker(w) && e.name == names::TRACE_EPOCH));
        }
        // Two workers on one PCIe island exchange embedding bytes. Link
        // spans are laid out from each group's schedule: on the worker's one
        // PCIe port a group's keys and clocks queue behind its rows.
        let arg = |e: &hetgmp_telemetry::TraceEvent, key: &str| {
            e.args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.render())
        };
        let transfers: Vec<_> = events
            .iter()
            .filter(|e| {
                e.track == TraceTrack::Link("pcie3".into()) && e.name == names::TRACE_LINK_TRANSFER
            })
            .collect();
        let of_class = |class: &str| {
            let class = Json::from(class).render();
            transfers
                .iter()
                .filter(move |e| arg(e, "class").as_ref() == Some(&class))
        };
        assert!(
            of_class("embed_data").next().is_some(),
            "no link transfer spans"
        );
        assert!(
            of_class("keys_clocks").any(|m| of_class("embed_data").any(|d| {
                (arg(d, "worker"), arg(d, "dir")) == (arg(m, "worker"), arg(m, "dir"))
                    && (d.ts_us + d.dur_us - m.ts_us).abs() < 1e-9
            })),
            "no metadata span queued behind its group's rows"
        );
        // On a dual-socket machine a group's PCIe and QPI transfers start
        // together: the port and the uplink are separate resources.
        let tracer = Arc::new(TraceCollector::new(4, TraceLevel::Batch));
        Trainer::new(
            &data,
            Topology::qpi_dual_socket(4),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .with_tracer(Arc::clone(&tracer))
        .run();
        let starts = |label: &str| -> Vec<(Option<String>, u64)> {
            let events = tracer.events();
            events
                .iter()
                .filter(|e| {
                    e.track == TraceTrack::Link(label.into())
                        && e.name == names::TRACE_LINK_TRANSFER
                })
                .map(|e| (arg(e, "worker"), e.ts_us.to_bits()))
                .collect()
        };
        let qpi = starts("qpi");
        assert!(!qpi.is_empty(), "no QPI transfers");
        assert!(
            starts("pcie3").iter().any(|s| qpi.contains(s)),
            "no PCIe and QPI transfer issued together"
        );
        // Algorithm 1's rounds land on the driver track.
        assert!(events
            .iter()
            .any(|e| e.track == TraceTrack::Driver && e.name == names::TRACE_PARTITION_ROUND));
        // Durations are simulated time: every batch span fits in the run.
        for e in events.iter().filter(|e| e.name == names::TRACE_BATCH) {
            assert!(e.dur_us >= 0.0 && e.ts_us + e.dur_us <= r.sim_time * 1e6 + 1.0);
        }
    }

    #[test]
    fn time_to_target_recorded() {
        let data = tiny_dataset();
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            TrainerConfig {
                epochs: 8,
                auc_target: Some(0.55),
                ..fast_config()
            },
        )
        .run();
        assert!(r.time_to_target.is_some(), "target never reached");
        // Early stop: fewer curve points than epochs.
        assert!(r.curve.len() <= 8);
    }

    /// A hand-built config `try_run` cannot train is a config error naming
    /// the field (exit code 78), returned before any work: not a panic deep
    /// inside the run, and not a run that trains on a value it ignores.
    /// `compute_scales`, a checkpoint period without a directory, the LFU
    /// fraction and the dense step have tests of their own below.
    #[test]
    fn hand_built_configs_are_config_errors_not_panics() {
        let data = tiny_dataset();
        let cfg = |f: fn(&mut TrainerConfig)| {
            let mut c = fast_config();
            f(&mut c);
            c
        };
        let gmp = StrategyConfig::het_gmp(100);
        let cases: Vec<(&str, TrainerConfig, StrategyConfig)> = vec![
            ("dim", cfg(|c| c.dim = 0), gmp.clone()),
            ("hidden", cfg(|c| c.hidden = vec![]), gmp.clone()),
            ("hidden", cfg(|c| c.hidden = vec![0]), gmp.clone()),
            ("hidden", cfg(|c| c.hidden = vec![16, 0]), gmp.clone()),
            ("batch_size", cfg(|c| c.batch_size = 0), gmp.clone()),
            ("test_fraction", cfg(|c| c.test_fraction = 0.0), gmp.clone()),
            ("test_fraction", cfg(|c| c.test_fraction = 1.0), gmp.clone()),
            (
                "storage",
                cfg(|c| {
                    c.storage = StorageMode::Tiered {
                        budget_bytes: 0,
                        dir: None,
                    }
                }),
                gmp.clone(),
            ),
            (
                "checkpoint_every",
                cfg(|c| c.checkpoint_dir = Some(PathBuf::from("/tmp/ckpts"))),
                gmp.clone(),
            ),
            (
                "partition.rounds",
                fast_config(),
                gmp.clone().with_rounds(0),
            ),
            (
                "name",
                fast_config(),
                StrategyConfig {
                    name: String::new(),
                    ..gmp.clone()
                },
            ),
        ];
        for (field, config, strategy) in cases {
            let label = format!("{field}: {config:?} / {strategy:?}");
            let err = Trainer::new(&data, Topology::pcie_island(2), strategy, config)
                .try_run()
                .expect_err(&label);
            assert_eq!(err.exit_code(), 78, "{label}: {err}");
            match &err {
                HetGmpError::Config { param, .. } => assert_eq!(param, field, "{label}: {err}"),
                other => panic!("{label}: not a config error: {other}"),
            }
        }

        // What the checks accept: a complete hand-built config, and
        // checkpointing with both of its fields.
        let ok = TrainerConfig {
            test_fraction: 0.2,
            seed: 7,
            ..fast_config()
        };
        assert!(ok.validate(2).is_ok());
        let ckpt = TrainerConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpts")),
            ..ok
        };
        assert!(ckpt.validate(2).is_ok());
    }

    #[test]
    fn builder_validates_hyper_parameters() {
        let ok = TrainerConfig {
            dim: 8,
            hidden: vec![16],
            batch_size: 64,
            epochs: 2,
            test_fraction: 0.2,
            seed: 7,
            ..Default::default()
        };
        assert!(ok.validate(2).is_ok());

        let with = |f: fn(&mut TrainerConfig)| {
            let mut c = TrainerConfig::default();
            f(&mut c);
            c.validate(2)
        };
        let err = with(|c| c.dim = 0).unwrap_err();
        assert!(err.to_string().contains("dim"), "{err}");
        assert_eq!(err.exit_code(), 78);
        assert!(with(|c| c.hidden = vec![]).is_err());
        assert!(with(|c| c.hidden = vec![16, 0]).is_err());
        assert!(with(|c| c.test_fraction = 0.0).is_err());
        assert!(with(|c| c.test_fraction = 1.0).is_err());
        assert!(with(|c| c.batch_size = 0).is_err());
        assert!(with(|c| c.compute_scales = Some(vec![1.0, 0.0])).is_err());
    }

    #[test]
    fn too_small_trace_collector_is_a_config_error() {
        use hetgmp_telemetry::{TraceCollector, TraceLevel};
        let data = tiny_dataset();
        let tracer = Arc::new(TraceCollector::new(1, TraceLevel::Batch));
        let err = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .with_tracer(Arc::clone(&tracer))
        .try_run()
        .unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
        assert!(err.to_string().contains("tracer"), "{err}");
        assert!(tracer.is_empty(), "a rejected run recorded events");
    }

    #[test]
    fn builder_validates_checkpoint_fields() {
        // Period without a directory (and vice versa) is a config error.
        let err = TrainerConfig {
            checkpoint_every: 2,
            ..Default::default()
        }
        .validate(2)
        .unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
        assert!(TrainerConfig {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpts")),
            ..Default::default()
        }
        .validate(2)
        .is_err());
        assert!(TrainerConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpts")),
            ..Default::default()
        }
        .validate(2)
        .is_ok());
    }

    #[test]
    fn hand_built_config_missing_checkpoint_dir_is_an_error_not_a_panic() {
        // A checkpoint period without a directory is a config error before
        // any work, not a panic at the first checkpoint boundary.
        let data = tiny_dataset();
        let err = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            TrainerConfig {
                checkpoint_every: 1,
                checkpoint_dir: None,
                ..fast_config()
            },
        )
        .try_run()
        .unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
        assert!(err.to_string().contains("checkpoint_dir"), "{err}");
    }

    #[test]
    fn hand_built_lfu_fraction_is_an_error_not_a_zero_slot_cache() {
        // NaN and negatives cast to a zero-slot cache and trained silently;
        // a huge fraction aborted inside the cache's allocation.
        let data = tiny_dataset();
        for fraction in [f64::NAN, -0.5, 0.0, 1.5] {
            let err = Trainer::new(
                &data,
                Topology::pcie_island(2),
                StrategyConfig::het_cache(100, fraction),
                fast_config(),
            )
            .try_run()
            .unwrap_err();
            assert_eq!(err.exit_code(), 78, "{fraction}: {err}");
            assert!(
                err.to_string().contains("cache.capacity_fraction"),
                "{fraction}: {err}"
            );
        }
    }

    #[test]
    fn hand_built_compute_scales_are_an_error_not_a_panic() {
        // The count is checked against the topology's workers, and every
        // factor must be positive and finite.
        let data = tiny_dataset();
        for (scales, needle) in [
            (vec![1.0, 2.0, 4.0], "3 slowdown factors for 2 workers"),
            (vec![1.0, 0.0], "positive and finite"),
            (vec![f64::NAN, 1.0], "positive and finite"),
        ] {
            let err = Trainer::new(
                &data,
                Topology::pcie_island(2),
                StrategyConfig::het_gmp(100),
                TrainerConfig {
                    compute_scales: Some(scales),
                    ..fast_config()
                },
            )
            .try_run()
            .unwrap_err();
            assert_eq!(err.exit_code(), 78, "{err}");
            assert!(err.to_string().contains("compute_scales"), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn dense_step_hyper_parameters_are_checked() {
        // A negative clip flipped every dense step uphill (and an all-zero
        // gradient to NaN), a NaN clip disabled clipping, and a NaN,
        // infinite or negative rate diverged — all silently. A zero rate
        // freezes the dense model and is allowed.
        let data = tiny_dataset();
        for v in [f32::NAN, -1.0, 0.0, f32::INFINITY] {
            let lr = TrainerConfig {
                dense_lr: v,
                ..fast_config()
            };
            let clip = TrainerConfig {
                grad_clip: Some(v),
                ..fast_config()
            };
            for (field, cfg, ok) in [("dense_lr", lr, v == 0.0), ("grad_clip", clip, false)] {
                let run = Trainer::new(
                    &data,
                    Topology::pcie_island(2),
                    StrategyConfig::het_gmp(100),
                    TrainerConfig { epochs: 0, ..cfg },
                )
                .try_run();
                match run.err() {
                    None => assert!(ok, "{field} = {v} was accepted"),
                    Some(err) => {
                        assert!(!ok, "{field} = {v}: {err}");
                        assert_eq!(err.exit_code(), 78, "{err}");
                        assert!(err.to_string().contains(field), "{err}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_records_hotpath_baseline_metrics() {
        let data = tiny_dataset();
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .run();
        assert!(r.telemetry.counter(names::HOTPATH_BATCH_READ_ROWS) > 0);
        assert!(r.telemetry.counter(names::HOTPATH_BATCH_APPLY_ROWS) > 0);
        assert!(
            r.telemetry
                .gauge(names::HOTPATH_LOCK_ACQUISITIONS)
                .unwrap_or(0.0)
                > 0.0,
            "lock gauge missing"
        );
        assert!(
            r.telemetry
                .gauge(names::HOTPATH_SAMPLES_PER_SEC)
                .unwrap_or(0.0)
                > 0.0,
            "throughput gauge missing"
        );
        // Zero steady-state allocations, end to end: no worker's tape grew
        // after its first batch.
        assert_eq!(r.telemetry.gauge(names::DENSE_TAPE_GROWTH), Some(0.0));
    }

    #[test]
    fn fault_schedule_must_match_topology() {
        let data = tiny_dataset();
        let faults = Arc::new(FaultSchedule::empty(3));
        let err = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .with_faults(faults)
        .try_run()
        .unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
    }

    #[test]
    fn normal_run_has_no_nonfinite_batches() {
        let data = tiny_dataset();
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .run();
        assert_eq!(r.nonfinite_batches, 0);
    }

    #[test]
    fn faulted_bsp_run_recovers_and_audits_clean() {
        use hetgmp_telemetry::AuditMode;
        let data = tiny_dataset();
        // One stall on worker 0 at t=0 and one crash on worker 1 shortly
        // after training starts, under the strictest protocol setting
        // (BSP, strict audit): the run must complete its full curve with
        // zero violations, and the downtime must appear as fault time.
        let faults =
            Arc::new(FaultSchedule::parse("stall@0:0.0:0.003; crash@1:0.000001", 2, 42).unwrap());
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            fast_config(),
        )
        .with_audit(AuditMode::Strict)
        .with_faults(faults)
        .run();
        let audit = r.audit.expect("audit enabled");
        assert_eq!(audit.total_violations(), 0, "{}", audit.render());
        assert!(audit.strict_failure.is_none());
        assert_eq!(r.curve.len(), 2, "faulted run did not complete");
        assert!(r.breakdown.fault > 0.0, "no fault time charged");
        assert_eq!(r.telemetry.counter(names::FAULT_CRASHES), 1);
        assert_eq!(r.telemetry.counter(names::FAULT_STALLS), 1);
        assert!(r.telemetry.gauge(names::FAULT_RECOVERY_SECS).unwrap_or(0.0) > 0.0);
        // Faults slow the run down but never change the math's correctness.
        assert!(
            r.final_auc > 0.55,
            "AUC collapsed under faults: {}",
            r.final_auc
        );
    }

    #[test]
    fn faulted_run_emits_fault_trace_events() {
        use hetgmp_telemetry::{TraceCollector, TraceLevel, TraceTrack};
        let data = tiny_dataset();
        let tracer = Arc::new(TraceCollector::new(2, TraceLevel::Sync));
        let faults =
            Arc::new(FaultSchedule::parse("stall@0:0.0:0.002; crash@1:0.000001", 2, 42).unwrap());
        Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .with_tracer(Arc::clone(&tracer))
        .with_faults(faults)
        .run();
        let events = tracer.events();
        assert!(events
            .iter()
            .any(|e| e.track == TraceTrack::Worker(0) && e.name == names::TRACE_FAULT_STALL));
        assert!(events
            .iter()
            .any(|e| e.track == TraceTrack::Worker(1) && e.name == names::TRACE_FAULT_CRASH));
        assert!(events
            .iter()
            .any(|e| e.track == TraceTrack::Worker(1) && e.name == names::TRACE_FAULT_RECOVERY));
    }

    #[test]
    fn checkpointed_run_writes_resumable_files() {
        let dir = std::env::temp_dir().join(format!("hetgmp-trainer-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = tiny_dataset();
        let cfg = TrainerConfig {
            checkpoint_every: 1,
            checkpoint_dir: Some(dir.clone()),
            ..fast_config()
        };
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            cfg,
        )
        .run();
        assert_eq!(r.telemetry.counter(names::CHECKPOINT_SAVES), 2);
        assert!(r.telemetry.counter(names::CHECKPOINT_BYTES) > 0);
        for epoch in 1..=2 {
            let path = dir.join(format!("ckpt-epoch-{epoch}.hgmr"));
            assert!(path.is_file(), "missing {}", path.display());
        }
        // Resume from epoch 1's checkpoint: the resumed run replays epoch 2
        // from identical state (the epoch barrier re-primes replicas to
        // exactly what a resume warm-loads, and the intra-iteration phase
        // fences plus order-independent AllReduce make the math replayable),
        // so the final AUC must agree within the acceptance tolerance.
        let resumed = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            TrainerConfig {
                resume_from: Some(dir.join("ckpt-epoch-1.hgmr")),
                ..fast_config()
            },
        )
        .run();
        assert_eq!(resumed.curve.len(), 1, "resume should only run epoch 2");
        assert_eq!(resumed.curve[0].epoch, 2);
        assert!(
            (resumed.final_auc - r.final_auc).abs() < 0.01,
            "resumed {} vs uninterrupted {}",
            resumed.final_auc,
            r.final_auc
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serves reads from an in-memory table and records how it was asked.
    /// Evaluation only reads, so the mutating half is unreachable.
    struct ReadCounter {
        inner: ShardedTable,
        batched_reads: std::sync::Mutex<Vec<usize>>,
        per_row_reads: AtomicU64,
    }

    impl RowStore for ReadCounter {
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
            self.batched_reads.lock().unwrap().push(rows.len());
            self.inner.read_rows(rows, out, clocks, scratch)
        }
        fn apply_grad(&self, _: u32, _: &[f32], _: &SparseOpt) -> u64 {
            unreachable!("evaluation only reads")
        }
        fn apply_grads(
            &self,
            _: &[u32],
            _: &[f32],
            _: &SparseOpt,
            _: &mut [u64],
            _: &mut BatchScratch,
        ) {
            unreachable!("evaluation only reads")
        }
        fn write_row(&self, _: u32, _: &[f32]) {
            unreachable!("evaluation only reads")
        }
        fn write_rows(&self, _: &[u32], _: &[f32], _: &mut BatchScratch) {
            unreachable!("evaluation only reads")
        }
        fn restore_row(&self, _: u32, _: &[f32], _: u64) {
            unreachable!("evaluation only reads")
        }
        fn has_optimizer_state(&self) -> bool {
            self.inner.has_optimizer_state()
        }
        fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
            self.inner.read_accum(row, out)
        }
        fn restore_accum(&self, _: u32, _: &[f32]) {
            unreachable!("evaluation only reads")
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
    }

    #[test]
    fn evaluate_reads_one_batch_per_chunk_and_no_single_rows() {
        let mut spec = DatasetSpec::tiny();
        spec.num_samples = 4096;
        let data = generate(&spec);
        let cfg = TrainerConfig {
            max_eval_samples: 2 * EVAL_CHUNK + 76,
            test_fraction: 0.3,
            ..fast_config()
        };
        let test = data.split(cfg.test_fraction).test;
        assert!(test.len() > cfg.max_eval_samples, "eval must be capped");
        let store = ReadCounter {
            inner: ShardedTable::new(data.num_features, cfg.dim, 0.05, cfg.seed),
            batched_reads: std::sync::Mutex::new(Vec::new()),
            per_row_reads: AtomicU64::new(0),
        };
        let mut models = [CtrModel::new(
            cfg.model,
            data.num_fields,
            cfg.dim,
            &cfg.hidden,
            cfg.seed,
        )];
        let trainer = Trainer::new(
            &data,
            Topology::pcie_island(1),
            StrategyConfig::het_gmp(0),
            cfg,
        );
        let mut tape = ModelTape::new();
        let (auc_v, ll) = trainer.evaluate(models.iter_mut(), &store, &test, &mut tape);
        assert!(auc_v.is_finite() && ll.is_finite());
        // ceil(take / EVAL_CHUNK) batched reads, each a whole chunk's
        // fields, and not one per-row read: on a tiered table every
        // per-row read of a cold page is a page fault.
        let fields = data.num_fields;
        assert_eq!(
            *store.batched_reads.lock().unwrap(),
            vec![EVAL_CHUNK * fields, EVAL_CHUNK * fields, 76 * fields]
        );
        assert_eq!(store.per_row_reads.load(Ordering::Relaxed), 0);

        // Two full chunks and a short one on one tape and one input matrix:
        // nothing grows after the first full chunk, and the reused buffers
        // return the bits a fresh tape and a fresh input per chunk return.
        assert_eq!(tape.post_warmup_growth(), 0);
        let dim = trainer.config.dim;
        let (mut scores, mut labels) = (Vec::new(), Vec::new());
        for chunk in test[..trainer.config.max_eval_samples].chunks(EVAL_CHUNK) {
            let mut input = Matrix::zeros(chunk.len(), fields * dim);
            for (&idx, sample) in chunk.iter().zip(input.data_mut().chunks_mut(fields * dim)) {
                for (&row, out) in data.sample(idx as usize).iter().zip(sample.chunks_mut(dim)) {
                    store.inner.read_row(row, out);
                }
                labels.push(data.label(idx as usize));
            }
            let mut fresh = ModelTape::new();
            models[0].forward_tape(&input, &mut fresh);
            scores.extend(fresh.logits().data().iter().map(|&z| sigmoid(z)));
        }
        assert_eq!(auc(&scores, &labels).to_bits(), auc_v.to_bits());
        assert_eq!(log_loss(&scores, &labels).to_bits(), ll.to_bits());
    }
}
