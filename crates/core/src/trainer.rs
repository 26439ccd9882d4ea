//! The distributed trainer: real multi-threaded training with simulated
//! interconnect time.
//!
//! Workers are OS threads executing *real* training math — embedding
//! lookups through the bounded-asynchrony protocol, exact forward/backward
//! passes, gradient write-back, dense AllReduce — while *time* is charged to
//! per-worker [`SimClock`]s from the `hetgmp-cluster` cost model. This keeps
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

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::{
    CostModel, FaultSchedule, LinkClass, SimClock, TimeBreakdown, TimeCategory, Topology,
};
use hetgmp_comms::{AllReduceGroup, SyncFormat, TrafficClass, TrafficLedger};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{
    load_run, run_encoded_len, save_run, BatchScratch, CachedWorkerEmbedding, CapacityStats,
    EmbeddingWorker, ReadPath, RowStore, RunState, ShardedTable, SparseOpt, StalenessBound,
    TieredConfig, TieredTable, WorkerEmbedding, WorkerState, WriteExchange,
};
use hetgmp_partition::{Partition, PartitionMetrics};
use hetgmp_telemetry::{
    names, AuditMode, AuditSummary, HetGmpError, Json, MetricsRegistry, ProtocolAuditor, Recorder,
    RunManifest, TelemetrySnapshot, TraceCollector,
};
use hetgmp_tensor::loss::sigmoid;
use hetgmp_tensor::{auc, log_loss, Matrix};

use crate::models::{CtrModel, ModelKind, ModelTape};
use crate::pipeline::{mean_link_time, run_worker_epoch, StageProfiler, StepCtx, WorkerEpoch};
use crate::strategy::{CacheDesign, EmbedHome, StrategyConfig};

/// Where the primary embedding table keeps its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageMode {
    /// Fully RAM-resident [`ShardedTable`] (the default).
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
    /// receiver would; the ledger and cost model charge compressed bytes.
    pub sync_format: SyncFormat,
    /// Per-row error feedback on lossy gradient pushes (EF-SGD style).
    /// Ignored under `f32`; on by default.
    pub sync_error_feedback: bool,
    /// Primary-table storage tier: RAM-only, or spillable under a budget.
    pub storage: StorageMode,
    /// Buffer-aware batch ordering: before each epoch the trainer replays
    /// the deterministic batch assembly to predict the page touch sequence
    /// and hands it to the tiered store as Belady-style eviction hints.
    /// Fewer page faults on over-budget tables; training results are
    /// bit-identical on or off (the plan only picks eviction victims — it
    /// never reorders work or touches values). No-op under
    /// [`StorageMode::Memory`]. On by default.
    pub batch_ordering: bool,
    /// Which table read path the embedding hot loop uses: lock-free seqlock
    /// snapshots (the default) or the locked escape hatch. Bit-identical
    /// results either way — a consistent snapshot returns exactly the bytes
    /// the locked read would have — so this is deliberately *not* part of
    /// the config digest.
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
            batch_ordering: true,
            read_path: ReadPath::default(),
        }
    }
}

impl TrainerConfig {
    /// A validating builder starting from [`TrainerConfig::default`].
    /// Unlike struct-literal construction, [`TrainerConfigBuilder::build`]
    /// rejects invalid hyper-parameters (`dim == 0`, empty `hidden`,
    /// `test_fraction` outside `(0, 1)`) with a [`HetGmpError::Config`]
    /// instead of panicking deep inside training. `Trainer::try_run`
    /// repeats the checks a struct literal would bypass on the dense step
    /// (`dense_lr`, `grad_clip`) and on `compute_scales`.
    pub fn builder() -> TrainerConfigBuilder {
        TrainerConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`TrainerConfig`] — see [`TrainerConfig::builder`].
#[derive(Debug, Clone)]
pub struct TrainerConfigBuilder {
    cfg: TrainerConfig,
}

impl TrainerConfigBuilder {
    /// Model architecture.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.cfg.model = model;
        self
    }

    /// Embedding dimension `d` (must be positive).
    pub fn dim(mut self, dim: usize) -> Self {
        self.cfg.dim = dim;
        self
    }

    /// Deep-tower hidden sizes (must be non-empty).
    pub fn hidden(mut self, hidden: Vec<usize>) -> Self {
        self.cfg.hidden = hidden;
        self
    }

    /// Mini-batch size per worker (must be positive).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Sparse optimizer for the embedding table.
    pub fn embed_opt(mut self, opt: SparseOpt) -> Self {
        self.cfg.embed_opt = opt;
        self
    }

    /// Dense-parameter learning rate (finite, non-negative).
    pub fn dense_lr(mut self, lr: f32) -> Self {
        self.cfg.dense_lr = lr;
        self
    }

    /// Held-out test fraction (must lie strictly between 0 and 1).
    pub fn test_fraction(mut self, f: f64) -> Self {
        self.cfg.test_fraction = f;
        self
    }

    /// Cap on evaluated test samples.
    pub fn max_eval_samples(mut self, n: usize) -> Self {
        self.cfg.max_eval_samples = n;
        self
    }

    /// Early-stop AUC target.
    pub fn auc_target(mut self, target: Option<f64>) -> Self {
        self.cfg.auc_target = target;
        self
    }

    /// Dense gradient clip (`None` disables; otherwise finite, positive).
    pub fn grad_clip(mut self, clip: Option<f32>) -> Self {
        self.cfg.grad_clip = clip;
        self
    }

    /// Per-worker compute slowdown factors.
    pub fn compute_scales(mut self, scales: Option<Vec<f64>>) -> Self {
        self.cfg.compute_scales = scales;
        self
    }

    /// Heterogeneity-aware load balancing.
    pub fn hetero_aware_batching(mut self, on: bool) -> Self {
        self.cfg.hetero_aware_batching = on;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Checkpoint period in epochs (0 disables).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.cfg.checkpoint_every = every;
        self
    }

    /// Directory for run checkpoints.
    pub fn checkpoint_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cfg.checkpoint_dir = dir;
        self
    }

    /// Run-checkpoint file to resume from.
    pub fn resume_from(mut self, path: Option<PathBuf>) -> Self {
        self.cfg.resume_from = path;
        self
    }

    /// Wire format for inter-worker embedding payloads and the dense
    /// AllReduce. `f32` (the default) is the bit-exact identity transport.
    pub fn sync_format(mut self, format: SyncFormat) -> Self {
        self.cfg.sync_format = format;
        self
    }

    /// Enables/disables per-row error feedback on lossy gradient pushes.
    pub fn sync_error_feedback(mut self, on: bool) -> Self {
        self.cfg.sync_error_feedback = on;
        self
    }

    /// Primary-table storage tier (RAM-only, or spillable under a budget).
    pub fn storage(mut self, mode: StorageMode) -> Self {
        self.cfg.storage = mode;
        self
    }

    /// Enables/disables buffer-aware batch ordering for tiered storage.
    pub fn batch_ordering(mut self, on: bool) -> Self {
        self.cfg.batch_ordering = on;
        self
    }

    /// Selects the embedding hot-loop read path (seqlock snapshot by
    /// default, or the locked escape hatch).
    pub fn read_path(mut self, path: ReadPath) -> Self {
        self.cfg.read_path = path;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TrainerConfig, HetGmpError> {
        let c = &self.cfg;
        if c.dim == 0 {
            return Err(HetGmpError::config("dim", "embedding dimension must be positive"));
        }
        if c.hidden.is_empty() {
            return Err(HetGmpError::config("hidden", "at least one hidden layer is required"));
        }
        if c.hidden.contains(&0) {
            return Err(HetGmpError::config("hidden", "hidden layer sizes must be positive"));
        }
        if !(c.test_fraction > 0.0 && c.test_fraction < 1.0) {
            return Err(HetGmpError::config(
                "test_fraction",
                format!("must lie strictly between 0 and 1, got {}", c.test_fraction),
            ));
        }
        if c.batch_size == 0 {
            return Err(HetGmpError::config("batch_size", "must be positive"));
        }
        if let Some(scales) = &c.compute_scales {
            check_compute_scales(scales)?;
        }
        check_dense_step(c.dense_lr, c.grad_clip)?;
        if c.checkpoint_every > 0 && c.checkpoint_dir.is_none() {
            return Err(HetGmpError::config(
                "checkpoint_every",
                "periodic checkpointing requires a checkpoint_dir",
            ));
        }
        if c.checkpoint_dir.is_some() && c.checkpoint_every == 0 {
            return Err(HetGmpError::config(
                "checkpoint_dir",
                "checkpoint_dir is set but checkpoint_every is 0 (checkpointing disabled)",
            ));
        }
        if let StorageMode::Tiered { budget_bytes, .. } = &c.storage {
            if *budget_bytes == 0 {
                return Err(HetGmpError::config(
                    "storage",
                    "tiered storage needs a positive RAM budget",
                ));
            }
        }
        Ok(self.cfg)
    }
}

/// A slowdown factor divides the simulated compute rate and, under
/// heterogeneity-aware batching, a batch size.
fn check_compute_scales(scales: &[f64]) -> Result<(), HetGmpError> {
    if scales.iter().any(|&s| !s.is_finite() || s <= 0.0) {
        return Err(HetGmpError::config(
            "compute_scales",
            "every slowdown factor must be positive and finite",
        ));
    }
    Ok(())
}

/// The dense step scales every gradient by `clip / norm` once the norm
/// exceeds `clip`, then steps by `-dense_lr`: a clip that is not a finite
/// positive number, or a rate that is not a finite non-negative one, climbs
/// the loss or turns the parameters into NaN.
fn check_dense_step(dense_lr: f32, grad_clip: Option<f32>) -> Result<(), HetGmpError> {
    if !(dense_lr.is_finite() && dense_lr >= 0.0) {
        return Err(HetGmpError::config(
            "dense_lr",
            format!("must be finite and non-negative, got {dense_lr}"),
        ));
    }
    if let Some(clip) = grad_clip {
        if !(clip.is_finite() && clip > 0.0) {
            return Err(HetGmpError::config(
                "grad_clip",
                format!("must be None or finite and positive, got {clip}"),
            ));
        }
    }
    Ok(())
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
         sync_format={}|sync_ef={}|storage={storage}|ordering={}",
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
        cfg.batch_ordering,
    )
}

/// The run's primary store behind one dispatch point: in-memory or tiered.
/// Everything downstream (workers, checkpoints, evaluation) borrows it as
/// `&dyn RowStore` and cannot tell the difference.
enum StorageTable {
    Memory(ShardedTable),
    Tiered(TieredTable),
}

impl StorageTable {
    fn as_store(&self) -> &dyn RowStore {
        match self {
            StorageTable::Memory(t) => t,
            StorageTable::Tiered(t) => t,
        }
    }
}

/// Test samples evaluated per forward pass, and per batched table read.
const EVAL_CHUNK: usize = 512;

/// Replays the epoch's deterministic batch assembly (the same cursor
/// arithmetic as the pipeline's `assemble_batch`) to predict the order in
/// which the tiered table's pages will be touched: step-major across
/// workers, one entry per distinct page per batch in ascending-page order —
/// exactly the order `read_rows`'s page grouping visits them. The tiered
/// store turns this into Belady-style eviction hints; the plan never
/// changes *what* is computed, only which resident page is evicted on a
/// fault, so results are bit-identical with the plan on or off.
fn plan_epoch_pages(
    table: &TieredTable,
    dataset: &CtrDataset,
    shards: &[Vec<u32>],
    cursors: &[usize],
    batch_sizes: &[usize],
    iters: usize,
) -> Vec<u32> {
    let mut cur: Vec<usize> = cursors.to_vec();
    let mut plan: Vec<u32> = Vec::new();
    let mut pages: Vec<u32> = Vec::new();
    for _ in 0..iters {
        for (w, shard) in shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let bs = batch_sizes[w].min(shard.len());
            pages.clear();
            for _ in 0..bs {
                let idx = shard[cur[w] % shard.len()];
                cur[w] += 1;
                for &e in dataset.sample(idx as usize) {
                    pages.push(table.page_of_row(e));
                }
            }
            pages.sort_unstable();
            pages.dedup();
            plan.extend_from_slice(&pages);
        }
    }
    plan
}

/// The distributed trainer for one (dataset, topology, strategy) triple.
pub struct Trainer<'d> {
    dataset: &'d CtrDataset,
    topology: Topology,
    strategy: StrategyConfig,
    config: TrainerConfig,
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
    /// collector with one slot per worker in this trainer's topology.
    pub fn with_tracer(mut self, tracer: Arc<TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Overrides the wire format for embedding and dense-gradient payloads
    /// ([`TrainerConfig::sync_format`]) and lossy-push error feedback
    /// ([`TrainerConfig::sync_error_feedback`]). `None` keeps the config's
    /// value. This is the experiment runners' hook path, so one CLI flag
    /// applies a single wire format to every run in an experiment.
    pub fn with_sync_format(
        mut self,
        format: Option<SyncFormat>,
        error_feedback: Option<bool>,
    ) -> Self {
        if let Some(f) = format {
            self.config.sync_format = f;
        }
        if let Some(ef) = error_feedback {
            self.config.sync_error_feedback = ef;
        }
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

    /// Builds the partition this strategy would train with (also used by
    /// partition-only experiments). Dispatches through the unified
    /// [`hetgmp_partition::Partitioner`] interface.
    pub fn build_partition(&self, graph: &Bigraph) -> Partition {
        self.strategy
            .partition
            .partitioner(self.config.seed)
            .partition(graph, &self.topology)
    }

    /// [`Trainer::build_partition`] with `partition.*` telemetry recorded
    /// into `recorder`.
    fn build_partition_recorded(
        &self,
        graph: &Bigraph,
        recorder: Arc<dyn Recorder>,
    ) -> Partition {
        self.strategy
            .partition
            .partitioner_instrumented(self.config.seed, Some(recorder), self.tracer.clone())
            .partition(graph, &self.topology)
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
    /// fault schedule does not match the topology or checkpoint I/O fails.
    pub fn try_run(&self) -> Result<TrainResult, HetGmpError> {
        let cfg = &self.config;
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
        // TrainerBuilder validates the factors, but TrainerConfig's fields
        // are public and only here is the worker count known.
        if let Some(scales) = &cfg.compute_scales {
            if scales.len() != n {
                return Err(HetGmpError::config(
                    "compute_scales",
                    format!("{} slowdown factors for {n} workers", scales.len()),
                ));
            }
            check_compute_scales(scales)?;
        }
        check_dense_step(cfg.dense_lr, cfg.grad_clip)?;
        // Likewise `StrategyConfig::het_cache` and a literal `CacheDesign`
        // never pass through `StrategyBuilder::build`.
        self.strategy.cache.validate()?;
        let mut manifest = RunManifest::new(
            cfg.seed,
            RunManifest::digest_of(&config_digest_text(&self.strategy, cfg)),
            n,
        );
        manifest.gemm_isa = Some(hetgmp_tensor::gemm::kernel_tier().to_string());
        if let Some(t) = &self.tracer {
            t.attach_manifest(manifest.clone());
        }
        let cost = CostModel::new(self.topology.clone()).with_faults(Arc::clone(&faults));
        // One registry for the whole run: the partitioner records globally,
        // each worker thread records into its own recorder (no hot-path
        // contention), and the final snapshot merges everything.
        let registry = MetricsRegistry::new(n);
        let auditor = if self.audit.is_on() {
            let bound = match self.strategy.staleness {
                StalenessBound::Bounded(s) => s as f64,
                StalenessBound::Infinite => f64::INFINITY,
            };
            Some(Arc::new(ProtocolAuditor::new(bound, self.audit)))
        } else {
            None
        };

        // ---- Data & partition ------------------------------------------------
        let split = self.dataset.split(cfg.test_fraction);
        let train_rows: Vec<Vec<u32>> = split
            .train
            .iter()
            .map(|&i| self.dataset.sample(i as usize).to_vec())
            .collect();
        let graph = Bigraph::from_samples(self.dataset.num_features, &train_rows);
        let partition = self.build_partition_recorded(&graph, registry.global());
        let partition_metrics = match self.strategy.embed_home {
            EmbedHome::Gpu => Some(PartitionMetrics::compute(&graph, &partition, None)),
            EmbedHome::CpuPs => None,
        };
        let freq: Vec<u64> = (0..graph.num_embeddings() as u32)
            .map(|e| graph.emb_frequency(e) as u64)
            .collect();

        // Worker shards (dataset indices).
        let shards: Vec<Vec<u32>> = partition
            .samples_by_partition()
            .into_iter()
            .map(|local| local.into_iter().map(|s| split.train[s as usize]).collect())
            .collect();
        // Iterations per epoch follow the *mean* shard size (workers with
        // smaller shards wrap around; persistent cursors even out coverage
        // across epochs). Using the max would let residual imbalance from
        // the partitioner's slack inflate every worker's iteration count.
        let mean_shard =
            (shards.iter().map(Vec::len).sum::<usize>() as f64 / n as f64).round() as usize;
        let iters_per_epoch = mean_shard.max(1).div_ceil(cfg.batch_size).max(1);

        // ---- Shared state ----------------------------------------------------
        let table = match &cfg.storage {
            StorageMode::Memory => StorageTable::Memory(ShardedTable::new(
                self.dataset.num_features,
                cfg.dim,
                0.05,
                cfg.seed,
            )),
            StorageMode::Tiered { budget_bytes, dir } => {
                let t = TieredTable::try_new(
                    self.dataset.num_features,
                    cfg.dim,
                    0.05,
                    cfg.seed,
                    TieredConfig {
                        budget_bytes: *budget_bytes,
                        dir: dir.clone(),
                        ..TieredConfig::default()
                    },
                )?;
                t.attach_recorder(registry.global());
                if let Some(tr) = &self.tracer {
                    t.attach_tracer(Arc::clone(tr));
                }
                StorageTable::Tiered(t)
            }
        };
        let group = AllReduceGroup::new(n);
        let exchange = WriteExchange::new(n);
        let mut ledger = TrafficLedger::from_registry(&registry);
        if let Some(t) = &self.tracer {
            ledger.attach_tracer(Arc::clone(t));
        }
        let ledger = ledger;
        let samples_processed = AtomicU64::new(0);
        // Training-loss accumulators (fixed-point micro-units so plain
        // atomics suffice).
        let loss_sum_micro = AtomicU64::new(0);
        let loss_batches = AtomicU64::new(0);

        // Per-worker persistent state: the one embedding worker, under the
        // replica policy the strategy names — static vertex-cut replicas
        // (HET-GMP) or a dynamic LFU cache (HET-style).
        let mut embeddings: Vec<Box<dyn EmbeddingWorker + '_>> = (0..n as u32)
            .map(|w| -> Box<dyn EmbeddingWorker + '_> {
                match self.strategy.cache {
                    CacheDesign::StaticVertexCut => Box::new(WorkerEmbedding::new(
                        w,
                        table.as_store(),
                        &partition,
                        &freq,
                        self.strategy.staleness,
                    )),
                    CacheDesign::DynamicLfu { capacity_fraction } => {
                        let capacity =
                            (graph.num_embeddings() as f64 * capacity_fraction) as usize;
                        Box::new(CachedWorkerEmbedding::new(
                            w,
                            table.as_store(),
                            &partition,
                            capacity,
                            self.strategy.staleness,
                        ))
                    }
                }
            })
            .collect();
        for (w, emb) in embeddings.iter_mut().enumerate() {
            // Select the wire format before attaching telemetry: the
            // replica re-prime that a lossy format triggers is initial
            // placement, not steady-state traffic, so it stays uncharged
            // and unmetered like construction-time placement does.
            emb.set_sync_format(cfg.sync_format, cfg.sync_error_feedback);
            // Route the hot-loop fetches through the seqlock snapshot path
            // (or the locked escape hatch). Both paths return bit-identical
            // rows, so this never perturbs the training trajectory.
            emb.set_read_path(cfg.read_path);
            emb.attach_recorder(registry.worker(w));
            if let Some(a) = &auditor {
                emb.attach_auditor(Arc::clone(a));
            }
            if let Some(t) = &self.tracer {
                emb.attach_tracer(Arc::clone(t));
            }
            // Hooks must survive every construction path (a regression here
            // once silently dropped the auditor when a cache design rebuilt
            // its inner worker).
            debug_assert_eq!(
                emb.hooks_attached(),
                (true, auditor.is_some(), self.tracer.is_some()),
                "telemetry hooks dropped on worker {w}"
            );
        }
        let mut models: Vec<CtrModel> = (0..n)
            .map(|_| {
                CtrModel::new(
                    cfg.model,
                    self.dataset.num_fields,
                    cfg.dim,
                    &cfg.hidden,
                    cfg.seed, // identical init across workers
                )
            })
            .collect();
        // One batch slot per worker: every per-batch buffer (tape arena,
        // embedding input, gradients) lives inside it for the whole run
        // (zero steady-state allocations).
        let mut slots: Vec<StepCtx> = (0..n).map(|_| StepCtx::new()).collect();
        // Per-worker stage profilers persist across epochs (their timer
        // calibration is paid once) and flush into the worker recorders at
        // every epoch boundary.
        let mut profilers: Vec<StageProfiler> = (0..n).map(|_| StageProfiler::new()).collect();
        let dense_bytes = cfg.sync_format.dense_wire_bytes(models[0].num_dense_params());
        let flops_per_sample = models[0].flops_per_sample();
        // Per-worker compute scales and (optionally) speed-proportional
        // batch sizes so a straggler's BSP iteration takes as long as its
        // peers'.
        let compute_scales: Vec<f64> =
            cfg.compute_scales.clone().unwrap_or_else(|| vec![1.0; n]);
        let batch_sizes: Vec<usize> = if cfg.hetero_aware_batching {
            let speeds: Vec<f64> = compute_scales.iter().map(|&s| 1.0 / s).collect();
            let mean_speed = speeds.iter().sum::<f64>() / n as f64;
            speeds
                .iter()
                .map(|&sp| ((cfg.batch_size as f64 * sp / mean_speed).round() as usize).max(1))
                .collect()
        } else {
            vec![cfg.batch_size; n]
        };
        let mut clocks: Vec<SimClock> = (0..n)
            .map(|w| SimClock::with_recorder(registry.worker(w)))
            .collect();
        let mut cursors: Vec<usize> = vec![0; n];
        let mut fault_states: Vec<WorkerFaultState> =
            (0..n).map(|_| WorkerFaultState::default()).collect();
        let nonfinite = AtomicU64::new(0);
        let num_dense = models[0].num_dense_params();

        // ---- Resume ----------------------------------------------------------
        let mut start_epoch = 1usize;
        if let Some(path) = &cfg.resume_from {
            let file = File::open(path).map_err(|e| HetGmpError::io(path.clone(), e))?;
            let state = load_run(table.as_store(), &mut BufReader::new(file))
                .map_err(|e| e.into_workspace(path.clone()))?;
            if state.workers.len() != n {
                return Err(HetGmpError::config(
                    "resume_from",
                    format!(
                        "checkpoint has {} workers but topology has {n}",
                        state.workers.len()
                    ),
                ));
            }
            for (w, ws) in state.workers.iter().enumerate() {
                if ws.dense_params.len() != num_dense {
                    return Err(HetGmpError::config(
                        "resume_from",
                        format!(
                            "checkpoint dense model has {} parameters but this \
                             configuration has {num_dense}",
                            ws.dense_params.len()
                        ),
                    ));
                }
                models[w].load_params(&ws.dense_params);
                cursors[w] = ws.cursor as usize;
                // Seeding the resumed clock is a free forward jump: the time
                // before the checkpoint was already charged by the original
                // run.
                clocks[w].wait_until(ws.sim_time);
                // Skip fault events the original run already took.
                let events = faults.worker_faults(w);
                while fault_states[w].next < events.len()
                    && events[fault_states[w].next].at <= ws.sim_time
                {
                    fault_states[w].next += 1;
                }
            }
            start_epoch = state.epoch as usize + 1;
        }

        // In-memory image crashes roll back to; refreshed at every
        // checkpoint save. Only materialised when the schedule can crash.
        let mut ckpt_image: Option<Arc<CheckpointImage>> = faults
            .has_crashes()
            .then(|| Arc::new(CheckpointImage::capture(table.as_store(), &clocks, num_dense)));

        let worker_recorders: Vec<Arc<dyn Recorder>> = (0..n)
            .map(|w| registry.worker(w) as Arc<dyn Recorder>)
            .collect();

        let strategy = &self.strategy;
        let dataset = self.dataset;
        let topology = &self.topology;
        let cost_ref = &cost;
        let group_ref = &group;
        let exchange_ref = &exchange;
        let ledger_ref = &ledger;
        let samples_ctr = &samples_processed;
        let loss_sum_ref = &loss_sum_micro;
        let loss_batches_ref = &loss_batches;
        let tracer_ref: Option<&TraceCollector> = self.tracer.as_deref();
        let auditor_ref: Option<&ProtocolAuditor> = auditor.as_deref();
        let faults_ref: &FaultSchedule = &faults;
        let nonfinite_ref = &nonfinite;
        let table_ref: &dyn RowStore = table.as_store();
        let partition_ref = &partition;

        // ---- Epoch loop ------------------------------------------------------
        let mut curve: Vec<EvalPoint> = Vec::with_capacity(cfg.epochs);
        // The evaluation's dense arena, warm after the first epoch's first
        // chunk.
        let mut eval_tape = ModelTape::new();
        let mut time_to_target: Option<f64> = None;
        // Wall-clock throughput baseline (hotpath.*): simulated time measures
        // the modelled cluster; wall time measures this implementation.
        let wall_start = Instant::now();
        for epoch in start_epoch..=cfg.epochs {
            loss_sum_micro.store(0, Ordering::Relaxed);
            loss_batches.store(0, Ordering::Relaxed);
            // Buffer-aware batch ordering: hand the tiered store this
            // epoch's predicted page touch sequence before the workers
            // start. Pure eviction policy — see `plan_epoch_pages`.
            if cfg.batch_ordering {
                if let StorageTable::Tiered(tt) = &table {
                    let plan = plan_epoch_pages(
                        tt,
                        dataset,
                        &shards,
                        &cursors,
                        &batch_sizes,
                        iters_per_epoch,
                    );
                    tt.set_epoch_plan(&plan);
                }
            }
            std::thread::scope(|scope| {
                // Move disjoint &mut of per-worker state into threads.
                for (w, (((((emb, model), (clock, cursor)), fstate), slot), profiler)) in
                    embeddings
                        .iter_mut()
                        .zip(models.iter_mut())
                        .zip(clocks.iter_mut().zip(cursors.iter_mut()))
                        .zip(fault_states.iter_mut())
                        .zip(slots.iter_mut())
                        .zip(profilers.iter_mut())
                        .enumerate()
                {
                    let shard = &shards[w];
                    let compute_scale = compute_scales[w];
                    let batch_size = batch_sizes[w];
                    let image = ckpt_image.clone();
                    let recorder = Arc::clone(&worker_recorders[w]);
                    scope.spawn(move || {
                        run_worker_epoch(WorkerEpoch {
                            w,
                            shard,
                            dataset,
                            emb: &mut **emb,
                            model,
                            slot,
                            clock,
                            cursor,
                            iters: iters_per_epoch,
                            epoch,
                            cfg,
                            strategy,
                            topology,
                            cost: cost_ref,
                            group: group_ref,
                            exchange: exchange_ref,
                            ledger: ledger_ref,
                            dense_bytes,
                            flops_per_sample,
                            samples: samples_ctr,
                            loss_sum_micro: loss_sum_ref,
                            loss_batches: loss_batches_ref,
                            compute_scale,
                            batch_size,
                            tracer: tracer_ref,
                            auditor: auditor_ref,
                            table: table_ref,
                            partition: partition_ref,
                            faults: faults_ref,
                            fstate,
                            image,
                            nonfinite: nonfinite_ref,
                            recorder,
                            profiler,
                        });
                    });
                }
            });

            // Per-stage histograms leave the workers once per epoch — one
            // merge per (stage, kind) per worker, off the hot path.
            for (w, prof) in profilers.iter_mut().enumerate() {
                prof.flush(worker_recorders[w].as_ref());
            }

            // The epoch's plan is spent; the barrier work below (flushes,
            // replica refresh, checkpointing, evaluation) runs on plain LRU.
            if let StorageTable::Tiered(tt) = &table {
                tt.clear_epoch_plan();
            }

            // Strict audit: a tripped auditor aborted every worker at the
            // last iteration boundary; abandon the run without evaluating.
            if auditor.as_ref().is_some_and(|a| a.is_tripped()) {
                break;
            }

            // ---- Evaluation barrier -----------------------------------------
            // Flush deferred secondary gradients so the evaluation (and the
            // next epoch) sees every update; charge the write-backs.
            for (w, (emb, clock)) in embeddings.iter_mut().zip(clocks.iter_mut()).enumerate() {
                let rep = emb.flush_all(&cfg.embed_opt);
                if rep.data_bytes > 0 {
                    let mut t = 0.0;
                    for (dst, &bytes) in rep.data_bytes_by_dst.iter().enumerate() {
                        if bytes > 0 {
                            t += cost.transfer_time_at(w, dst, bytes, clock.now());
                        }
                    }
                    clock.advance(TimeCategory::EmbedComm, t);
                    ledger.record(w, TrafficClass::EmbedData, rep.data_bytes, rep.messages);
                    ledger.record(w, TrafficClass::KeysClocks, rep.meta_bytes, rep.messages);
                }
            }
            // Second pass, after *every* worker has flushed: re-prime local
            // replicas from the now-final table. This makes the state
            // entering the next epoch identical to what a checkpoint resume
            // reconstructs (resumed workers warm-load replicas from the
            // restored table), so a resumed run replays the uninterrupted
            // run's math.
            for (w, (emb, clock)) in embeddings.iter_mut().zip(clocks.iter_mut()).enumerate() {
                let refreshed = emb.sync_replicas();
                if refreshed > 0 {
                    let bytes = refreshed.saturating_mul(cfg.sync_format.row_wire_bytes(cfg.dim));
                    clock.advance(TimeCategory::EmbedComm, mean_link_time(w, &cost, bytes));
                    ledger.record(w, TrafficClass::EmbedData, bytes, refreshed);
                }
            }

            // ---- Periodic checkpoint ----------------------------------------
            // Written at the epoch boundary, after the flush above: nothing is
            // pending, so the file captures an exact, resumable state.
            if cfg.checkpoint_every > 0 && epoch % cfg.checkpoint_every == 0 {
                // TrainerBuilder validates this pairing, but TrainerConfig's
                // fields are public — a hand-built config can reach here with
                // no directory, and that must surface as a config error, not
                // a panic.
                let dir = cfg.checkpoint_dir.as_ref().ok_or_else(|| {
                    HetGmpError::config(
                        "checkpoint_dir",
                        "checkpoint_every > 0 but checkpoint_dir is unset",
                    )
                })?;
                std::fs::create_dir_all(dir).map_err(|e| HetGmpError::io(dir.clone(), e))?;
                let state = RunState {
                    epoch: epoch as u64,
                    workers: (0..n)
                        .map(|w| WorkerState {
                            sim_time: clocks[w].now(),
                            cursor: cursors[w] as u64,
                            dense_params: models[w].flatten_params(),
                        })
                        .collect(),
                };
                let path = dir.join(format!("ckpt-epoch-{epoch}.hgmr"));
                let file = File::create(&path).map_err(|e| HetGmpError::io(path.clone(), e))?;
                let mut writer = BufWriter::new(file);
                let bytes = save_run(table.as_store(), &state, &mut writer)
                    .map_err(|e| e.into_workspace(path.clone()))?;
                // Every worker streams its shard of the image over the host
                // link in parallel; charge each one its share.
                let io_t =
                    cost.link_transfer_time(LinkClass::HostPcie, bytes / n.max(1) as u64);
                let ckpt_start = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
                for clock in clocks.iter_mut() {
                    clock.advance(TimeCategory::HostIo, io_t);
                }
                registry.global().counter_add(names::CHECKPOINT_SAVES, 1);
                registry.global().counter_add(names::CHECKPOINT_BYTES, bytes);
                if let Some(t) = &self.tracer {
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
                // Future crashes roll back to this image instead of the
                // start-of-run one.
                if ckpt_image.is_some() {
                    ckpt_image = Some(Arc::new(CheckpointImage::capture(
                        table.as_store(),
                        &clocks,
                        num_dense,
                    )));
                }
            }

            let sim_time = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
            let (auc_v, ll) =
                self.evaluate(&mut models, table.as_store(), &split.test, &mut eval_tape);
            let batches = loss_batches.load(Ordering::Relaxed).max(1);
            let train_loss =
                loss_sum_micro.load(Ordering::Relaxed) as f64 / 1e6 / batches as f64;
            curve.push(EvalPoint {
                epoch,
                sim_time,
                auc: auc_v,
                log_loss: ll,
                train_loss,
            });
            registry.global().gauge_set(names::TRAIN_AUC, auc_v);
            registry.global().gauge_set(names::TRAIN_SIM_TIME, sim_time);
            if let Some(target) = cfg.auc_target {
                if auc_v >= target && time_to_target.is_none() {
                    time_to_target = Some(sim_time);
                    break;
                }
            }
        }

        let per_worker: Vec<TimeBreakdown> = clocks.iter().map(|c| *c.breakdown()).collect();
        let mut breakdown = TimeBreakdown::default();
        for b in &per_worker {
            breakdown = breakdown.merged(b);
        }
        let sim_time = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
        let samples_total = samples_processed.load(Ordering::Relaxed);
        let final_auc = curve.last().map_or(0.5, |p| p.auc);
        registry
            .global()
            .counter_add(names::TRAIN_SAMPLES, samples_total);
        registry.global().gauge_set(names::TRAIN_SIM_TIME, sim_time);
        registry.global().gauge_set(names::TRAIN_AUC, final_auc);
        let wall_secs = wall_start.elapsed().as_secs_f64();
        registry.global().gauge_set(
            names::HOTPATH_SAMPLES_PER_SEC,
            if wall_secs > 0.0 {
                samples_total as f64 / wall_secs
            } else {
                0.0
            },
        );
        registry.global().gauge_set(
            names::HOTPATH_LOCK_ACQUISITIONS,
            table.as_store().lock_acquisitions() as f64,
        );
        // Read-path accounting: how many row reads the seqlock snapshot
        // path served, how often a torn version word forced a retry, and
        // how many rows fell back to the locked path (contention or a
        // tiered page fault). The mode gauge lets `inspect report` state
        // which path the run used without parsing argv.
        let rp = table.as_store().read_path_stats();
        registry
            .global()
            .counter_add(names::HOTPATH_READ_SNAPSHOT, rp.snapshot_rows);
        registry
            .global()
            .counter_add(names::HOTPATH_READ_RETRIES, rp.retries);
        registry
            .global()
            .counter_add(names::HOTPATH_READ_FALLBACK, rp.fallback_rows);
        registry.global().gauge_set(
            names::HOTPATH_READ_MODE,
            match cfg.read_path {
                ReadPath::Snapshot => 1.0,
                ReadPath::Locked => 0.0,
            },
        );
        // Capacity telemetry (tiered runs only, so `inspect report` can
        // gate its capacity section on `capacity.budget_bytes`): the
        // buffer-manager counters accumulated through the attached recorder
        // during the run; the resident/spilled byte split is set here —
        // disjoint by construction, so RAM accounting never double-counts
        // partitions whose authoritative copy is on disk.
        let capacity = match &table {
            StorageTable::Tiered(tt) => {
                let cs = tt.capacity_stats();
                registry
                    .global()
                    .gauge_set(names::CAPACITY_RESIDENT_BYTES, cs.resident_bytes as f64);
                registry
                    .global()
                    .gauge_set(names::CAPACITY_SPILLED_BYTES, cs.spilled_bytes as f64);
                registry
                    .global()
                    .gauge_set(names::CAPACITY_BUDGET_BYTES, cs.budget_bytes as f64);
                Some(cs)
            }
            StorageTable::Memory(_) => None,
        };
        // Dense-engine telemetry, aggregated over every slot's tape: real
        // GEMM work done, arena high-water mark, steady-state allocation
        // violations (must stay 0), and dense-path-only throughput.
        registry.global().counter_add(
            names::DENSE_GEMM_FLOPS,
            slots.iter().map(|s| s.tape.flops()).sum::<u64>(),
        );
        registry.global().gauge_set(
            names::DENSE_ARENA_BYTES,
            slots.iter().map(|s| s.tape.arena_bytes()).sum::<usize>() as f64,
        );
        registry.global().gauge_set(
            names::DENSE_TAPE_GROWTH,
            slots.iter().map(|s| s.tape.post_warmup_growth()).sum::<u64>() as f64,
        );
        let dense_secs: f64 = slots.iter().map(|s| s.tape.dense_secs).sum();
        let dense_samples: u64 = slots.iter().map(|s| s.tape.dense_samples).sum();
        registry.global().gauge_set(
            names::DENSE_SAMPLES_PER_SEC,
            if dense_secs > 0.0 {
                dense_samples as f64 / dense_secs
            } else {
                0.0
            },
        );
        // How much overlappable simulated communication hid behind compute
        // (`strategy.overlap`).
        let hidden: f64 = clocks.iter().map(|c| c.hidden_secs()).sum();
        let overlappable: f64 = clocks.iter().map(|c| c.overlappable_secs()).sum();
        registry.global().gauge_set(
            names::PIPELINE_OVERLAP_RATIO,
            if overlappable > 0.0 { hidden / overlappable } else { 0.0 },
        );
        // What the profilers cost this run: their own bookkeeping plus the
        // calibrated price of every timestamp the stage loops took.
        // `bench_dense` asserts this stays under 2% of hot-path wall time.
        registry.global().gauge_set(
            names::TELEMETRY_OVERHEAD_SECS,
            profilers.iter().map(StageProfiler::overhead_secs).sum::<f64>(),
        );
        Ok(TrainResult {
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
            traffic_bytes: [
                ledger.total_bytes(TrafficClass::EmbedData),
                ledger.total_bytes(TrafficClass::KeysClocks),
                ledger.total_bytes(TrafficClass::AllReduce),
            ],
            partition_metrics,
            telemetry: registry.snapshot(),
            audit: auditor.as_ref().map(|a| a.summary()),
            nonfinite_batches: nonfinite.load(Ordering::Relaxed),
            manifest,
            capacity,
            curve,
        })
    }

    /// Evaluates test AUC/log-loss with the mean dense model and the fresh
    /// global embedding table, one [`EVAL_CHUNK`] of samples at a time
    /// through `tape` (each chunk closes with [`ModelTape::end_batch`]).
    fn evaluate(
        &self,
        models: &mut [CtrModel],
        table: &dyn RowStore,
        test: &[u32],
        tape: &mut ModelTape,
    ) -> (f64, f64) {
        let cfg = &self.config;
        let n = models.len();
        // Mean dense parameters (identical under BSP; averaged under ASP).
        let mut mean = models[0].flatten_params();
        for model in models.iter_mut().skip(1) {
            for (m, x) in mean.iter_mut().zip(model.flatten_params()) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut eval_model = CtrModel::new(
            cfg.model,
            self.dataset.num_fields,
            cfg.dim,
            &cfg.hidden,
            cfg.seed,
        );
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
}

/// Per-worker fault-injection cursor and accumulated downtime, persistent
/// across epochs (the schedule is consumed once per run).
#[derive(Debug, Default)]
pub(crate) struct WorkerFaultState {
    /// Index of the next unconsumed event in `faults.worker_faults(w)`.
    pub(crate) next: usize,
    /// Total stall seconds charged so far (gauge source).
    pub(crate) stall_secs: f64,
    /// Total crash-recovery seconds charged so far (gauge source).
    pub(crate) recovery_secs: f64,
}

/// In-memory copy of the last checkpoint: per-row values + clocks of the
/// whole embedding table and each worker's simulated time at capture. Crash
/// recovery rolls the crashed worker's primary rows back to this image.
/// Dense parameters are *not* stored: a recovering worker copies them from
/// any live peer (replicated under BSP), which is charged but needs no data.
pub(crate) struct CheckpointImage {
    pub(crate) clocks: Vec<u64>,
    pub(crate) values: Vec<f32>,
    /// Per-row Adagrad accumulators at capture time (`None` if the table
    /// held no optimizer state yet, i.e. the accumulators were all zero).
    /// Rollback must restore these alongside the values: an accumulator
    /// that kept post-crash curvature would shrink the replayed steps and
    /// diverge from the uninterrupted run.
    pub(crate) accums: Option<Vec<f32>>,
    pub(crate) sim_times: Vec<f64>,
    /// Serialized size of the equivalent on-disk checkpoint; used to charge
    /// restore transfer time.
    pub(crate) bytes: u64,
}

impl CheckpointImage {
    fn capture(table: &dyn RowStore, clocks: &[SimClock], dense_len: usize) -> Self {
        let rows = table.num_rows();
        let dim = table.dim();
        let mut row_clocks = Vec::with_capacity(rows);
        let mut values = vec![0.0f32; rows * dim];
        for r in 0..rows as u32 {
            let c = table.read_row(r, &mut values[r as usize * dim..(r as usize + 1) * dim]);
            row_clocks.push(c);
        }
        let accums = table.has_optimizer_state().then(|| {
            let mut a = vec![0.0f32; rows * dim];
            for r in 0..rows as u32 {
                table.read_accum(r, &mut a[r as usize * dim..(r as usize + 1) * dim]);
            }
            a
        });
        Self {
            clocks: row_clocks,
            values,
            accums,
            sim_times: clocks.iter().map(|c| c.now()).collect(),
            bytes: run_encoded_len(table, clocks.len(), dense_len),
        }
    }
}

#[cfg(test)]
mod tests {
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
    fn builder_validates_hyper_parameters() {
        let ok = TrainerConfig::builder()
            .dim(8)
            .hidden(vec![16])
            .batch_size(64)
            .epochs(2)
            .test_fraction(0.2)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(ok.dim, 8);
        assert_eq!(ok.hidden, vec![16]);
        assert_eq!(ok.test_fraction, 0.2);

        let err = TrainerConfig::builder().dim(0).build().unwrap_err();
        assert!(err.to_string().contains("dim"), "{err}");
        assert_eq!(err.exit_code(), 78);
        assert!(TrainerConfig::builder().hidden(vec![]).build().is_err());
        assert!(TrainerConfig::builder().hidden(vec![16, 0]).build().is_err());
        assert!(TrainerConfig::builder().test_fraction(0.0).build().is_err());
        assert!(TrainerConfig::builder().test_fraction(1.0).build().is_err());
        assert!(TrainerConfig::builder().batch_size(0).build().is_err());
        assert!(TrainerConfig::builder()
            .compute_scales(Some(vec![1.0, 0.0]))
            .build()
            .is_err());
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
        let gmp = Trainer::new(
            &data,
            topo,
            StrategyConfig::het_gmp(100),
            fast_config(),
        )
        .run();
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
        assert!(audit.intra_reads + audit.inter_checks > 0, "auditor saw no decisions");
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
        // Two workers on one PCIe island exchange embedding bytes.
        assert!(
            events
                .iter()
                .any(|e| matches!(&e.track, TraceTrack::Link(_))
                    && e.name == names::TRACE_LINK_TRANSFER),
            "no link transfer spans"
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

    #[test]
    fn builder_validates_checkpoint_fields() {
        // Period without a directory (and vice versa) is a config error.
        let err = TrainerConfig::builder()
            .checkpoint_every(2)
            .build()
            .unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
        assert!(TrainerConfig::builder()
            .checkpoint_dir(Some(PathBuf::from("/tmp/ckpts")))
            .build()
            .is_err());
        assert!(TrainerConfig::builder()
            .checkpoint_every(2)
            .checkpoint_dir(Some(PathBuf::from("/tmp/ckpts")))
            .build()
            .is_ok());
    }

    #[test]
    fn hand_built_config_missing_checkpoint_dir_is_an_error_not_a_panic() {
        // TrainerConfig's fields are public, so a caller can bypass
        // TrainerBuilder's validation entirely; the trainer must still
        // surface the broken pairing as a config error, not a panic at the
        // first checkpoint boundary.
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
            assert!(err.to_string().contains("cache.capacity_fraction"), "{fraction}: {err}");
        }
    }

    #[test]
    fn hand_built_compute_scales_are_an_error_not_a_panic() {
        // Only `try_run` knows the worker count, and a struct literal
        // bypasses the builder's check of the factors themselves.
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
                let built = TrainerConfig::builder()
                    .dense_lr(cfg.dense_lr)
                    .grad_clip(cfg.grad_clip)
                    .build();
                let run = Trainer::new(
                    &data,
                    Topology::pcie_island(2),
                    StrategyConfig::het_gmp(100),
                    TrainerConfig { epochs: 0, ..cfg },
                )
                .try_run();
                for err in [built.err(), run.err()] {
                    match err {
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
            r.telemetry.gauge(names::HOTPATH_LOCK_ACQUISITIONS).unwrap_or(0.0) > 0.0,
            "lock gauge missing"
        );
        assert!(
            r.telemetry.gauge(names::HOTPATH_SAMPLES_PER_SEC).unwrap_or(0.0) > 0.0,
            "throughput gauge missing"
        );
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
        let faults = Arc::new(
            FaultSchedule::parse("stall@0:0.0:0.003; crash@1:0.000001", 2, 42).unwrap(),
        );
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
        assert!(r.final_auc > 0.55, "AUC collapsed under faults: {}", r.final_auc);
    }

    #[test]
    fn faulted_run_emits_fault_trace_events() {
        use hetgmp_telemetry::{TraceCollector, TraceLevel, TraceTrack};
        let data = tiny_dataset();
        let tracer = Arc::new(TraceCollector::new(2, TraceLevel::Sync));
        let faults = Arc::new(
            FaultSchedule::parse("stall@0:0.0:0.002; crash@1:0.000001", 2, 42).unwrap(),
        );
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
        let dir = std::env::temp_dir().join(format!(
            "hetgmp-trainer-ckpt-{}",
            std::process::id()
        ));
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
        fn read_rows(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64], scratch: &mut BatchScratch) {
            self.batched_reads.lock().unwrap().push(rows.len());
            self.inner.read_rows(rows, out, clocks, scratch)
        }
        fn apply_grad(&self, _: u32, _: &[f32], _: &SparseOpt) -> u64 {
            unreachable!("evaluation only reads")
        }
        fn apply_grads(&self, _: &[u32], _: &[f32], _: &SparseOpt, _: &mut [u64], _: &mut BatchScratch) {
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
        let mut models = vec![CtrModel::new(
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
        let (auc_v, ll) = trainer.evaluate(&mut models, &store, &test, &mut tape);
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
