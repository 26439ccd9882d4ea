//! The batch runtime: one worker's inner training loop — the paper's
//! read → compute → write-back → AllReduce step (§5) — as one straight-line
//! schedule over a reusable [`StepCtx`].
//!
//! Both trainers run it: what differs between a CTR model and TransE sits
//! behind `StepModel`, and everything else is one code path.
//!
//! ## The step
//!
//! ```text
//!   Fetch ──► Compute ──► Push ──► Sync
//!   (embedding      (dense       (gradient      (dense AllReduce
//!    read)           fwd/bwd)     write-back)    + BSP barrier)
//! ```
//!
//! Per iteration (`run_worker_epoch`):
//!
//! 1. *only when the run's fault schedule names a worker fault*: fire due
//!    faults, then one `barrier()` so a crash rollback is visible before
//!    any peer reads;
//! 2. assemble the batch and `read_batch` it;
//! 3. the model's backward (`StepModel::backward`);
//! 4. route the write-back (`route_gradients`), outside any fence: reduce,
//!    encode and bin the batch's gradient rows by primary owner into this
//!    rank's outboxes of the [`WriteExchange`] — nothing shared is touched;
//! 5. the reads-done `barrier()` — no gradient lands while a peer reads,
//!    and every rank's outboxes are published;
//! 6. apply: each rank applies the rows routed to *its own* primaries,
//!    sources in ascending rank, in one batched call — all owners side by
//!    side, on disjoint rows ([`WriteExchange::apply_owned`]). This is the
//!    paper's §6 write path: a gradient travels to the worker holding the
//!    primary, which applies it;
//! 7. charge the batch's simulated time;
//! 8. dense sync: under BSP one [`AllReduceGroup::fused_mean_max`] carries
//!    the gradient mean and the post-charge clock together, then the
//!    model takes its local step (`StepModel::dense_step`). Every rank
//!    enters it only after applying its own rows, so returning from it
//!    happens-after the last write — it is the writes-done rendezvous for
//!    the next iteration's reads and routing;
//! 9. the strict-audit abort vote.
//!
//! A fault-free, unaudited BSP step is therefore one barrier and one
//! collective.
//!
//! ## Determinism contract
//!
//! On fault-free runs, losses, AUC, traffic and checkpoints are
//! **bit-identical** run to run and across storage tier, read path and
//! checkpoint resume, at any worker count and staleness bound:
//!
//! * reads-before-writes holds within an iteration (step 5) and
//!   writes-before-reads across iterations (step 8); no read writes the
//!   table — a sync that re-fetches a replica holding deferred gradients
//!   routes their flush with step 4's write-back;
//! * every row sees its write-backs in canonical source-rank-ascending
//!   order (step 6): updates to one row do not commute under Adagrad, so
//!   their order is part of the result; updates to different rows commute,
//!   so nothing else about the write phase's order is;
//! * the collective sums each element's contributions in ascending value
//!   order, independent of arrival order;
//! * a worker's dense math runs on its own thread through the sequential
//!   kernels, one fixed summation order per output element.
//!
//! None of the rendezvous charges simulated time; they only pin which of
//! the protocol's legal interleavings the host threads realize.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hetgmp_cluster::{
    CostModel, FaultSchedule, LinkClass, SimClock, TimeCategory, Topology, WorkerFaultKind,
};
use hetgmp_comms::{AllReduceGroup, DenseQuantizer};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{
    load_run_rows, EmbeddingWorker, ReadReport, RowStore, UpdateReport, WriteExchange,
};
use hetgmp_telemetry::{
    names, HistogramSummary, Json, MetricsRegistry, ProtocolAuditor, Recorder, TraceCollector,
};
use hetgmp_tensor::{bce_with_logits_into, DenseOptimizer, Matrix, Sgd};

use crate::charge::{charge, Dense, LinkTallies, Phases, Transfer, Wire};
use crate::models::{CtrModel, ModelTape};
use crate::strategy::{DenseSync, EmbedHome, StrategyConfig};
use crate::trainer::{CrashImage, Placement, TrainerConfig};

/// The four stages of a step, in execution order — the labels the
/// [`StageProfiler`] attributes wall and simulated time to
/// (`names::PIPELINE_STAGES` in the same order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStage {
    /// Batch assembly + embedding read into `input`.
    Fetch,
    /// Dense forward/backward on the tape.
    Compute,
    /// Embedding-gradient write-back to the shared table.
    Push,
    /// Dense gradient synchronisation (AllReduce / PS push-pull).
    Sync,
}

/// One worker's complete per-batch working set, empty at first and reused
/// by every iteration — the hot loop allocates nothing once warm (the
/// `dense.*` gauges assert zero steady-state growth of the tape).
#[derive(Default)]
pub struct StepCtx {
    /// Dataset indices of this batch's samples, in cursor order.
    pub(crate) batch_idx: Vec<u32>,
    /// Per-sample labels, filled by the CTR backward.
    pub(crate) labels: Vec<f32>,
    /// Flat embedding input (`batch × ids·dim`), filled during Fetch.
    pub(crate) input: Matrix,
    /// Loss gradient w.r.t. the logits.
    pub(crate) grad_logits: Matrix,
    /// Gradient w.r.t. the embedding input (consumed by Push).
    pub(crate) grad_input: Matrix,
    /// The CTR model's forward/backward arena — all model-internal scratch.
    pub(crate) tape: ModelTape,
    /// Traffic report of this batch's embedding read.
    pub(crate) read_report: ReadReport,
}

/// What a step asks of a worker's model replica, statically dispatched:
/// the batch, backward into the `grad_input` rows, the dense parameters'
/// flat gradient and local step, and the flops per sample. [`CtrModel`]
/// and `core::kg`'s TransE implement it.
pub(crate) trait StepModel: Send {
    /// What the run's samples are read from.
    type Data: Sync;
    /// Embedding ids per sample: the width of an `input` row, in rows.
    fn ids_per_sample(data: &Self::Data) -> usize;
    /// Pushes the id list of every sample in `batch` (dataset indices) onto
    /// `samples`. Lists the data does not hold are built in `ids`.
    fn samples<'s>(
        &mut self,
        data: &'s Self::Data,
        batch: &[u32],
        ids: &'s mut Vec<u32>,
        samples: &mut Vec<&'s [u32]>,
    );
    /// Backward from the rows in `slot.input` into `slot.grad_input` and
    /// the dense gradient; returns the batch's training loss.
    fn backward(&mut self, data: &Self::Data, slot: &mut StepCtx) -> f32;
    /// The dense parameters' local gradient, flattened into `out`.
    fn flatten_grads_into(&mut self, out: &mut Vec<f32>);
    /// One local step on the dense parameters with the reduced gradient.
    fn dense_step(&mut self, cfg: &TrainerConfig, grads: &mut [f32]);
    /// Flops of one sample's forward and backward.
    fn flops_per_sample(&mut self) -> f64;
}

impl StepModel for CtrModel {
    type Data = CtrDataset;

    fn ids_per_sample(data: &CtrDataset) -> usize {
        data.num_fields
    }

    fn samples<'s>(
        &mut self,
        data: &'s CtrDataset,
        batch: &[u32],
        _ids: &'s mut Vec<u32>,
        samples: &mut Vec<&'s [u32]>,
    ) {
        samples.extend(batch.iter().map(|&i| data.sample(i as usize)));
    }

    /// Dense forward/backward on the slot's tape, blocked kernels: zero
    /// allocations once warm (the `dense.*` gauges assert it).
    fn backward(&mut self, data: &CtrDataset, slot: &mut StepCtx) -> f32 {
        let StepCtx {
            batch_idx,
            labels,
            input,
            grad_logits,
            grad_input,
            tape,
            ..
        } = slot;
        let dense_start = Instant::now();
        self.forward_tape(input, tape);
        labels.clear();
        labels.extend(batch_idx.iter().map(|&i| data.label(i as usize)));
        let batch_loss = bce_with_logits_into(tape.logits(), labels, grad_logits);
        self.zero_grad();
        self.backward_tape(input, grad_logits, grad_input, tape);
        tape.dense_secs += dense_start.elapsed().as_secs_f64();
        tape.end_batch();
        batch_loss
    }

    fn flatten_grads_into(&mut self, out: &mut Vec<f32>) {
        CtrModel::flatten_grads_into(self, out);
    }

    /// Global-norm clip, then one SGD step (`p -= lr·g`) per parameter
    /// buffer on its slice of the reduced vector, in `visit_params` order.
    fn dense_step(&mut self, cfg: &TrainerConfig, grads: &mut [f32]) {
        if let Some(clip) = cfg.grad_clip {
            let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > clip {
                let scale = clip / norm;
                for g in grads.iter_mut() {
                    *g *= scale;
                }
            }
        }
        let mut sgd = Sgd::new(cfg.dense_lr);
        sgd.begin_step();
        let (mut slot, mut cursor) = (0usize, 0usize);
        self.visit_params(&mut |p, _| {
            sgd.update(slot, p, &grads[cursor..cursor + p.len()]);
            slot += 1;
            cursor += p.len();
        });
        assert_eq!(cursor, grads.len(), "flat gradient length mismatch");
    }

    fn flops_per_sample(&mut self) -> f64 {
        CtrModel::flops_per_sample(self)
    }
}

/// Per-stage attribution profiler: bounded-memory wall and simulated-time
/// histograms for each [`BatchStage`] of the batch loop, plus a
/// self-measurement of its own cost.
///
/// The hot loop never touches the recorder: stage durations accumulate
/// into plain stack arrays (`pending_*`), fold into local
/// [`HistogramSummary`]s once per batch, and merge into the worker's
/// recorder once per epoch ([`Recorder::histogram_merge`]) — so the
/// steady-state cost per batch is a handful of `Instant` reads and eight
/// histogram folds. That cost is itself measured: `finish_batch` times its
/// own bookkeeping and adds a calibrated per-read cost for every timestamp
/// the loop took, accumulating `overhead_secs` (exported as the
/// `telemetry.overhead_secs` gauge, which the benchmark ledger reports as
/// `telemetry.profiler_overhead_pct`).
///
/// Wall attribution: `fetch` is assembly + embedding read; `write_back` is
/// routing plus this rank's own-row apply (the reads-done barrier between
/// them belongs to no stage); `sync` is the dense collective.
/// Simulated attribution follows the cost model's charges: `fetch` = the
/// embedding read's comm seconds, `write_back` = the gradient write-back's
/// comm seconds, `compute` = the batch's compute charge, `sync` = the
/// dense-sync charge (metadata stays in `time.meta_comm_secs`).
pub struct StageProfiler {
    wall: [HistogramSummary; 4],
    sim: [HistogramSummary; 4],
    pending_wall: [f64; 4],
    pending_sim: [f64; 4],
    overhead_secs: f64,
    /// Calibrated wall cost of one `Instant::now()` read.
    timer_read_secs: f64,
    /// Timer reads taken by the loop since the last `finish_batch`.
    stamps: u32,
    /// Pre-rendered metric names, so the flush never formats.
    wall_names: [String; 4],
    sim_names: [String; 4],
}

impl StageProfiler {
    /// A profiler with a freshly calibrated timer cost (a few µs, once per
    /// worker per run).
    pub fn new() -> Self {
        let metric = |stage: &str, kind: &str| {
            format!("{}{stage}.{kind}_secs", names::PIPELINE_STAGE_PREFIX)
        };
        let stage_names = names::PIPELINE_STAGES;
        Self {
            wall: [HistogramSummary::empty(); 4],
            sim: [HistogramSummary::empty(); 4],
            pending_wall: [0.0; 4],
            pending_sim: [0.0; 4],
            overhead_secs: 0.0,
            timer_read_secs: Self::calibrate_timer(),
            stamps: 0,
            wall_names: stage_names.map(|s| metric(s, "wall")),
            sim_names: stage_names.map(|s| metric(s, "sim")),
        }
    }

    /// Measures the cost of one `Instant::now()` by timing a short burst.
    fn calibrate_timer() -> f64 {
        const READS: u32 = 512;
        let t0 = Instant::now();
        for _ in 0..READS {
            std::hint::black_box(Instant::now());
        }
        t0.elapsed().as_secs_f64() / f64::from(READS)
    }

    fn slot(stage: BatchStage) -> usize {
        match stage {
            BatchStage::Fetch => 0,
            BatchStage::Compute => 1,
            BatchStage::Push => 2,
            BatchStage::Sync => 3,
        }
    }

    /// Takes a stage-start timestamp (counted toward the overhead).
    pub fn start(&mut self) -> Instant {
        self.stamps += 1;
        Instant::now()
    }

    /// Credits the wall time since `since` to `stage`.
    pub fn wall(&mut self, stage: BatchStage, since: Instant) {
        self.stamps += 1;
        self.pending_wall[Self::slot(stage)] += since.elapsed().as_secs_f64();
    }

    /// Credits `secs` of simulated time to `stage`.
    pub fn sim(&mut self, stage: BatchStage, secs: f64) {
        self.pending_sim[Self::slot(stage)] += secs;
    }

    /// The simulated seconds credited so far this batch, in stage order
    /// `[fetch, compute, write_back, sync]` (feeds the per-stage trace
    /// spans).
    pub fn pending_sim(&self) -> [f64; 4] {
        self.pending_sim
    }

    /// Folds the batch's pending stage times into the histograms and
    /// charges the profiler's own bookkeeping to `overhead_secs`.
    pub fn finish_batch(&mut self) {
        let t0 = Instant::now();
        for i in 0..4 {
            self.wall[i].observe(self.pending_wall[i]);
            self.sim[i].observe(self.pending_sim[i]);
            self.pending_wall[i] = 0.0;
            self.pending_sim[i] = 0.0;
        }
        // Own cost: this fold, its two timer reads, and every stage stamp
        // the loop took since the previous fold.
        self.overhead_secs +=
            t0.elapsed().as_secs_f64() + f64::from(self.stamps + 2) * self.timer_read_secs;
        self.stamps = 0;
    }

    /// Merges the accumulated histograms into `recorder` and resets them
    /// (called once per epoch; merges are additive across epochs and
    /// workers).
    pub fn flush(&mut self, recorder: &Recorder) {
        for i in 0..4 {
            recorder.histogram_merge(&self.wall_names[i], &self.wall[i]);
            recorder.histogram_merge(&self.sim_names[i], &self.sim[i]);
            self.wall[i] = HistogramSummary::empty();
            self.sim[i] = HistogramSummary::empty();
        }
    }

    /// Wall seconds the profiler has charged to itself so far.
    pub fn overhead_secs(&self) -> f64 {
        self.overhead_secs
    }
}

impl Default for StageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// What every worker thread of a run reads and none owns: the
/// configuration, the samples, the shared table and partition, the
/// collectives, the cost model, the run's hooks and its counters. The
/// driver builds it once per run (the set-up of [`crate::Trainer::try_run`]
/// or [`crate::KgTrainer::try_run`]) and every worker thread borrows it,
/// every epoch.
pub(crate) struct RunCtx<'a, M: StepModel> {
    pub(crate) cfg: &'a TrainerConfig,
    pub(crate) strategy: &'a StrategyConfig,
    pub(crate) data: &'a M::Data,
    /// The primary store, RAM-only or tiered.
    pub(crate) table: &'a dyn RowStore,
    /// The partition, each worker's shard and the epoch's length.
    pub(crate) placement: &'a Placement,
    pub(crate) cost: CostModel,
    pub(crate) faults: Arc<FaultSchedule>,
    /// One registry for the whole run: the partitioner records globally,
    /// each worker into its own recorder, and the final snapshot merges
    /// everything.
    pub(crate) registry: MetricsRegistry,
    pub(crate) group: AllReduceGroup,
    pub(crate) exchange: WriteExchange,
    pub(crate) tracer: Option<&'a TraceCollector>,
    pub(crate) auditor: Option<Arc<ProtocolAuditor>>,
    /// Wire bytes of one embedding row.
    pub(crate) row_bytes: u64,
    /// Samples processed, over the whole run.
    pub(crate) samples: AtomicU64,
    /// The epoch's training loss (fixed-point micro-units, so plain atomics
    /// suffice) and the batches it sums over; reset every epoch.
    pub(crate) loss_sum_micro: AtomicU64,
    pub(crate) loss_batches: AtomicU64,
    /// Batches whose loss came back non-finite, over the whole run.
    pub(crate) nonfinite: AtomicU64,
}

impl<'a, M: StepModel> RunCtx<'a, M> {
    /// A run over `placement` on `topology`, with no faults or hooks.
    pub(crate) fn new(
        cfg: &'a TrainerConfig,
        strategy: &'a StrategyConfig,
        data: &'a M::Data,
        table: &'a dyn RowStore,
        placement: &'a Placement,
        topology: &Topology,
        registry: MetricsRegistry,
    ) -> Self {
        let n = topology.num_workers();
        Self {
            cfg,
            strategy,
            data,
            table,
            placement,
            cost: CostModel::new(topology.clone()),
            faults: Arc::new(FaultSchedule::empty(n)),
            registry,
            group: AllReduceGroup::new(n),
            exchange: WriteExchange::new(n),
            tracer: None,
            auditor: None,
            row_bytes: cfg.sync_format.row_wire_bytes(cfg.dim),
            samples: AtomicU64::new(0),
            loss_sum_micro: AtomicU64::new(0),
            loss_batches: AtomicU64::new(0),
            nonfinite: AtomicU64::new(0),
        }
    }

    /// What the run's traffic is charged against, counted into the
    /// charging worker's `recorder`.
    pub(crate) fn wire<'w>(&'w self, recorder: &'w Recorder) -> Wire<'w> {
        Wire {
            cost: &self.cost,
            recorder,
            tracer: self.tracer,
            host_ps: matches!(self.strategy.embed_home, EmbedHome::CpuPs),
            row_bytes: self.row_bytes,
        }
    }
}

/// What one worker keeps from epoch to epoch. Every worker owns one; the
/// driver hands each thread its own for the epoch and takes it back at the
/// barrier.
pub(crate) struct WorkerRun<'t, M> {
    /// The worker's rank.
    pub(crate) w: usize,
    /// The one embedding worker, under the strategy's replica policy.
    pub(crate) emb: Box<dyn EmbeddingWorker + 't>,
    /// The worker's model replica (identical init on every worker).
    pub(crate) model: M,
    /// Every per-batch buffer, reused by every step.
    pub(crate) slot: StepCtx,
    pub(crate) clock: SimClock,
    /// Busy link seconds of every group this worker issued.
    pub(crate) links: LinkTallies,
    /// Position in the shard; wraps around (KG re-draws it every epoch).
    pub(crate) cursor: usize,
    pub(crate) fstate: WorkerFaultState,
    /// Stage histograms, flushed into `recorder` at every epoch's end (the
    /// timer calibration is paid once per run).
    pub(crate) profiler: StageProfiler,
    pub(crate) recorder: Arc<Recorder>,
    /// Slowdown factor of this worker's accelerator (1.0 = nominal).
    pub(crate) compute_scale: f64,
    pub(crate) batch_size: usize,
}

impl<'t, M> WorkerRun<'t, M> {
    /// Worker `w` at the run's start, recording into `recorder`.
    pub(crate) fn new(
        w: usize,
        emb: Box<dyn EmbeddingWorker + 't>,
        model: M,
        recorder: Arc<Recorder>,
        compute_scale: f64,
        batch_size: usize,
    ) -> Self {
        Self {
            w,
            emb,
            model,
            slot: StepCtx::default(),
            clock: SimClock::with_recorder(Arc::clone(&recorder)),
            links: Default::default(),
            cursor: 0,
            fstate: WorkerFaultState::default(),
            profiler: StageProfiler::new(),
            recorder,
            compute_scale,
            batch_size,
        }
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

/// Runs one worker's epoch: the nine-step schedule of the module docs.
/// `image` is the run image a crash rolls back to (present whenever the
/// schedule can crash).
pub(crate) fn run_worker_epoch<M: StepModel>(
    run: &RunCtx<'_, M>,
    me: &mut WorkerRun<'_, M>,
    epoch: usize,
    image: Option<&CrashImage>,
) {
    let (cfg, group) = (run.cfg, &run.group);
    let shard = &run.placement.shards[me.w];
    let width = M::ids_per_sample(run.data) * cfg.dim;
    let flops_per_sample = me.model.flops_per_sample();
    let epoch_start = me.clock.now();
    // Whether *any* worker can fault this run decides — uniformly across
    // workers, so the rendezvous schedules agree — whether the
    // per-iteration fault fence is needed at all.
    let have_faults =
        (0..group.num_participants()).any(|p| !run.faults.worker_faults(p).is_empty());

    // The step's sample id lists, and the lists the data does not hold.
    let mut spare: Vec<&[u32]> = Vec::with_capacity(me.batch_size);
    let mut ids: Vec<u32> = Vec::new();
    let mut dense_grads: Vec<f32> = Vec::new();
    // Dense-gradient wire transport. Per-epoch so its error-feedback
    // residuals reset at the same barrier replica resync does — a
    // checkpoint-resumed run bit-matches an uninterrupted one.
    let mut dense_quant = DenseQuantizer::new(cfg.sync_format, cfg.sync_error_feedback);

    for _ in 0..run.placement.iters_per_epoch {
        // ---- (1) Injected faults, at the iteration boundary. ---------------
        if have_faults {
            process_due_faults(run, me, image);
            // A crash rollback must be fully visible before any peer reads
            // the shared table this iteration, or same-seed runs diverge on
            // the rollback/read race.
            group.barrier();
        }

        // Publish the worker's simulated position so instants emitted deeper
        // in the stack (protocol decisions, traffic charges) land at this
        // batch's timestamp on the timeline.
        if let Some(t) = run.tracer {
            t.set_worker_time(me.w, me.clock.now());
        }
        let batch_start = me.clock.now();
        // ---- (2) Assemble the batch and read its embeddings. ---------------
        let t_fetch = me.profiler.start();
        assemble_batch(&mut me.slot, shard, &mut me.cursor, me.batch_size);
        let mut samples = recycle(spare);
        me.model
            .samples(run.data, &me.slot.batch_idx, &mut ids, &mut samples);
        let actual = samples.len();
        // (Degenerate empty-shard corner: skip the math, still join every
        // rendezvous so peers don't deadlock.)
        let have_grad = actual > 0;
        if have_grad {
            me.slot.input.reset(actual, width);
            me.slot.read_report = me.emb.read_batch(&samples, me.slot.input.data_mut());
        }
        me.profiler.wall(BatchStage::Fetch, t_fetch);
        // ---- (3) The model's backward. -------------------------------------
        if have_grad {
            let t_compute = me.profiler.start();
            let loss = me.model.backward(run.data, &mut me.slot);
            if loss.is_finite() {
                let micro = (loss.max(0.0) as f64 * 1e6) as u64;
                run.loss_sum_micro.fetch_add(micro, Ordering::Relaxed);
                run.loss_batches.fetch_add(1, Ordering::Relaxed);
            } else {
                // `max(0.0)` on a NaN would silently yield 0.0 and bury the
                // divergence in the epoch's mean loss; count it instead.
                run.nonfinite.fetch_add(1, Ordering::Relaxed);
                me.recorder.counter_add(names::TRAIN_LOSS_NONFINITE, 1);
            }
            me.profiler.wall(BatchStage::Compute, t_compute);
        }

        // ---- (4) Route the write-back, outside any fence. ------------------
        // Reduce, encode and bin by primary owner; only this rank's
        // outboxes are written.
        let t_route = me.profiler.start();
        let up_report = have_grad.then(|| {
            let grads = me.slot.grad_input.data();
            me.emb
                .route_gradients(&samples, grads, &cfg.embed_opt, &run.exchange)
        });
        spare = recycle(samples);
        me.profiler.wall(BatchStage::Push, t_route);

        // ---- (5) Reads-done fence. -----------------------------------------
        // Every worker's reads drain before any gradient lands in the shared
        // table, so a read never races a peer's same-iteration write-back;
        // and every outbox is published before any owner drains.
        group.barrier();
        // ---- (6) Apply the rows this rank owns, sources in rank order. -----
        // Updates to one row do not commute under Adagrad (the g² accumulator
        // changes the next step), so each row's canonical source order is
        // what makes same-seed runs — and checkpoint resumes — reproducible;
        // owners never share a row, so they need no order among themselves.
        let t_apply = me.profiler.start();
        run.exchange.apply_owned(me.w, run.table, &cfg.embed_opt);
        me.profiler.wall(BatchStage::Push, t_apply);

        // ---- (7) Charge simulated time. ------------------------------------
        if let Some(up_report) = &up_report {
            charge_batch(run, me, actual, flops_per_sample, up_report);
        }

        // ---- (8) Dense sync; also the writes-done rendezvous. --------------
        let t_sync = me.profiler.start();
        let sync_t = sync_dense(run, me, &mut dense_grads, &mut dense_quant);
        me.profiler.wall(BatchStage::Sync, t_sync);
        me.profiler.sim(BatchStage::Sync, sync_t);

        if let Some(t) = run.tracer {
            trace_stage_spans(t, me.w, batch_start, me.profiler.pending_sim());
            t.worker_span(
                me.w,
                names::TRACE_BATCH,
                batch_start,
                me.clock.now() - batch_start,
                &[("samples", Json::U64(actual as u64))],
            );
        }
        me.profiler.finish_batch();

        // ---- (9) Strict audit. ---------------------------------------------
        // Agree collectively on whether the auditor tripped so every worker
        // leaves at the same iteration boundary (a unilateral break would
        // strand its peers in the next collective).
        if let Some(a) = &run.auditor {
            if group.agree(a.is_tripped()) {
                break;
            }
        }
    }

    if let Some(t) = run.tracer {
        t.worker_span(
            me.w,
            names::TRACE_EPOCH,
            epoch_start,
            me.clock.now() - epoch_start,
            &[("epoch", Json::U64(epoch as u64))],
        );
    }
}

// ---------------------------------------------------------------------------
// Stage bodies.
// ---------------------------------------------------------------------------

/// Empties `v` for borrows of another lifetime, keeping its allocation (a
/// `vec::IntoIter` collects in place): a step's samples die with the step.
fn recycle<'b>(mut v: Vec<&[u32]>) -> Vec<&'b [u32]> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// Fills the slot's batch from the local shard, wrap-around over the
/// persistent cursor (an empty shard yields an empty batch).
fn assemble_batch(slot: &mut StepCtx, shard: &[u32], cursor: &mut usize, batch_size: usize) {
    let bs = batch_size.min(shard.len().max(1));
    slot.batch_idx.clear();
    if !shard.is_empty() {
        for _ in 0..bs {
            slot.batch_idx.push(shard[*cursor % shard.len()]);
            *cursor += 1;
        }
    }
    slot.read_report = ReadReport::default();
}

/// Charges one batch's simulated time (compute, input pipeline, embedding
/// comm, metadata) and records its traffic through [`charge`].
fn charge_batch<M: StepModel>(
    run: &RunCtx<'_, M>,
    me: &mut WorkerRun<'_, M>,
    actual: usize,
    flops_per_sample: f64,
    up_report: &UpdateReport,
) {
    let cost = &run.cost;
    let clock = &mut me.clock;
    // The straggler factor scales arithmetic throughput, not the
    // fixed launch overhead (a slow accelerator still dispatches
    // kernels at normal latency).
    let flops = flops_per_sample * actual as f64;
    let compute_t = cost.compute.per_batch_overhead
        + (flops / cost.compute.flops_per_second) * me.compute_scale;
    clock.advance(TimeCategory::Compute, compute_t);
    me.profiler.sim(BatchStage::Compute, compute_t);

    // Input pipeline (overlapped behind compute).
    let input_bytes = (actual * M::ids_per_sample(run.data) * 4) as u64;
    clock.advance_overlapped(
        TimeCategory::HostIo,
        cost.link_transfer_time(LinkClass::HostPcie, input_bytes),
        compute_t,
    );

    let wire = run.wire(&me.recorder);
    let (read, write) = wire.step(&me.slot.read_report, up_report);
    let overlap = run.strategy.overlap.then_some(compute_t);
    let step = Phases::Step {
        read: &read,
        write: &write,
        overlap,
    };
    let comm = charge(&wire, me.w, clock, &mut me.links, step);
    me.profiler.sim(BatchStage::Fetch, comm.data[0]);
    me.profiler.sim(BatchStage::Push, comm.data[1]);
    run.samples.fetch_add(actual as u64, Ordering::Relaxed);
}

/// Dense gradient synchronisation: the collective's charge, mean-AllReduce,
/// the model's local step and the BSP clock barrier. Returns the
/// dense-sync seconds charged.
///
/// Every system charges first. Under BSP the step then issues **one**
/// [`AllReduceGroup::fused_mean_max`] whose f64 max lane carries the
/// post-charge clock: the AllReduce is a barrier in simulated time too, and
/// everyone leaves with the latest clock. ASP systems do not barrier —
/// their simulated clocks drift freely — but the OS threads still
/// rendezvous at the plain mean collective (math-level combining without a
/// time barrier). The gradient mean is bitwise the same either way.
fn sync_dense<M: StepModel>(
    run: &RunCtx<'_, M>,
    me: &mut WorkerRun<'_, M>,
    dense_grads: &mut Vec<f32>,
    quant: &mut DenseQuantizer,
) -> f64 {
    let (strategy, cfg, w) = (run.strategy, run.cfg, me.w);
    let is_bsp = matches!(strategy.dense_sync, DenseSync::AllReduce)
        && matches!(strategy.embed_home, EmbedHome::Gpu);
    me.model.flatten_grads_into(dense_grads);
    // The local gradient crosses the wire once per collective, before the
    // reduction.
    quant.transport(dense_grads);
    let bytes = cfg.sync_format.dense_wire_bytes(dense_grads.len());
    let dense = match strategy.dense_sync {
        DenseSync::AllReduce => Dense::Ring(bytes),
        // Push gradients + pull parameters over the shared host link.
        DenseSync::PsAsync => Dense::HostPs(bytes),
    };
    let t = charge(
        &run.wire(&me.recorder),
        w,
        &mut me.clock,
        &mut me.links,
        Phases::Dense(dense),
    )
    .total();
    if is_bsp {
        let (max_clock, _) = run.group.fused_mean_max(dense_grads, me.clock.now(), false);
        me.model.dense_step(cfg, dense_grads);
        me.clock.wait_until(max_clock);
    } else {
        run.group.allreduce_mean(dense_grads);
        me.model.dense_step(cfg, dense_grads);
    }
    t
}

/// Consumes every fault event due at the worker's current simulated time.
/// Faults fire inside the affected worker's own thread, between
/// collectives: the worker never abandons a rendezvous, so peers are
/// never stranded — they simply absorb the downtime through the BSP
/// simulated-time barrier.
fn process_due_faults<M: StepModel>(
    run: &RunCtx<'_, M>,
    me: &mut WorkerRun<'_, M>,
    image: Option<&CrashImage>,
) {
    let (w, faults, tracer, table) = (me.w, &run.faults, run.tracer, run.table);
    let (clock, fstate, recorder, links) =
        (&mut me.clock, &mut me.fstate, &me.recorder, &mut me.links);
    while let Some(f) = faults.worker_faults(w).get(fstate.next) {
        if f.at > clock.now() {
            break;
        }
        fstate.next += 1;
        match f.kind {
            WorkerFaultKind::Stall { duration } => {
                let start = clock.now();
                clock.advance(TimeCategory::Fault, duration);
                fstate.stall_secs += duration;
                recorder.counter_add(names::FAULT_STALLS, 1);
                recorder.gauge_set(names::FAULT_STALL_SECS, fstate.stall_secs);
                if let Some(t) = tracer {
                    t.worker_span(
                        w,
                        names::TRACE_FAULT_STALL,
                        start,
                        duration,
                        &[("duration_secs", Json::F64(duration))],
                    );
                }
            }
            WorkerFaultKind::Crash => {
                let crash_time = clock.now();
                if let Some(t) = tracer {
                    t.set_worker_time(w, crash_time);
                    t.worker_instant(w, names::TRACE_FAULT_CRASH, &[]);
                }
                let image = image.expect("crash schedules always keep a crash image");
                // The device's state is gone. Every primary row of this
                // worker whose clock moved since the image goes back to it
                // (clocks move backwards; peers' saturating gap math reads
                // them as fresh, so the staleness invariant holds), then
                // worker-local pendings are discarded and replicas
                // re-primed.
                let (mut rolled, mut lost) = (0u64, 0u64);
                let saved = load_run_rows(table, image.bytes.as_slice(), |e, ck| {
                    if run.placement.partition.primary_of(e) != w as u32 || table.clock(e) == ck {
                        return false;
                    }
                    rolled += 1;
                    lost += table.clock(e).saturating_sub(ck);
                    true
                })
                .expect("the crash image decodes: this run encoded it");
                let refreshed = me.emb.recover_from_crash();
                // Recovery cost: restart, restore this worker's shard of
                // the image over the host link, re-fetch refreshed
                // replicas from their owners as one group (recorded like a
                // barrier re-prime), and replay the work done since the
                // image was captured.
                let cost = &run.cost;
                let shard = image.bytes.len() as u64 / cost.topology.num_workers().max(1) as u64;
                let restore_t = cost.link_transfer_time(LinkClass::HostPcie, shard);
                let reprime = Transfer::rows(&refreshed, run.row_bytes);
                let refresh_t = charge(
                    &run.wire(recorder),
                    w,
                    clock,
                    links,
                    Phases::Recovery(&reprime),
                )
                .total();
                let refreshed: u64 = refreshed.iter().sum();
                let taken = saved.workers[w].sim_time + image.write_secs;
                let replay_t = (crash_time - taken).max(0.0);
                let recovery_t = faults.restart_overhead() + restore_t + refresh_t + replay_t;
                clock.advance(TimeCategory::Fault, recovery_t);
                fstate.recovery_secs += recovery_t;
                recorder.counter_add(names::FAULT_CRASHES, 1);
                recorder.counter_add(names::FAULT_LOST_UPDATES, lost);
                recorder.counter_add(names::FAULT_RESTORED_ROWS, rolled + refreshed);
                recorder.gauge_set(names::FAULT_RECOVERY_SECS, fstate.recovery_secs);
                if let Some(t) = tracer {
                    t.worker_span(
                        w,
                        names::TRACE_FAULT_RECOVERY,
                        crash_time,
                        recovery_t,
                        &[
                            ("lost_updates", Json::U64(lost)),
                            ("restored_rows", Json::U64(rolled + refreshed)),
                        ],
                    );
                }
            }
        }
    }
}

/// Emits per-stage sub-spans (`trace.stage.<stage>`) under the batch span:
/// the batch's simulated stage seconds laid end-to-end from `batch_start`,
/// in pipeline order fetch → compute → write_back → sync. An approximation
/// by construction — overlapped charges genuinely overlap on the clock —
/// but it makes the batch's composition visible on the timeline. Gated at
/// [`hetgmp_telemetry::TraceLevel::Sync`] so default (`batch`-level) traces stay lean.
fn trace_stage_spans(tracer: &TraceCollector, w: usize, batch_start: f64, sim: [f64; 4]) {
    if !tracer.enabled(hetgmp_telemetry::TraceLevel::Sync) {
        return;
    }
    let mut at = batch_start;
    for (i, stage) in names::PIPELINE_STAGES.iter().enumerate() {
        if sim[i] > 0.0 {
            tracer.worker_span(
                w,
                &format!("{}{stage}", names::TRACE_STAGE_PREFIX),
                at,
                sim[i],
                &[],
            );
            at += sim[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hetgmp_cluster::{FaultSchedule, Topology};
    use hetgmp_data::{generate, DatasetSpec};
    use hetgmp_telemetry::AuditMode;

    use crate::strategy::StrategyConfig;
    use crate::trainer::{Trainer, TrainerConfig};

    use super::*;

    fn tiny_dataset() -> hetgmp_data::CtrDataset {
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
    fn strict_audit_crash_run_recovers_clean() {
        // The fault contract: a crash (with rollback) plus a stall under
        // BSP + strict audit completes the full curve with zero violations,
        // and the collective abort vote keeps every worker leaving at the
        // same iteration boundary (a deadlock here would hang the test).
        let data = tiny_dataset();
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
        assert_eq!(r.telemetry.counter(names::FAULT_CRASHES), 1);
        assert_eq!(r.telemetry.counter(names::FAULT_STALLS), 1);
        assert!(r.breakdown.fault > 0.0, "no fault time charged");
        assert!(r.final_auc > 0.55, "AUC collapsed: {}", r.final_auc);
    }
}
