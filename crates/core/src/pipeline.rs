//! The batch runtime: one worker's inner training loop — the paper's
//! read → compute → write-back → AllReduce step (§5) — as one straight-line
//! schedule over a reusable [`StepCtx`].
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
//! 3. dense forward/backward;
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
//!    the gradient mean and the post-charge clock together. Every rank
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
    CostModel, FaultSchedule, LinkClass, SimClock, TimeCategory, WorkerFaultKind,
};
use hetgmp_comms::{AllReduceGroup, DenseQuantizer, TrafficLedger};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{EmbeddingWorker, ReadReport, RowStore, UpdateReport, WriteExchange};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{
    names, HistogramSummary, Json, MetricsRegistry, ProtocolAuditor, Recorder, TraceCollector,
};
use hetgmp_tensor::{bce_with_logits_into, DenseOptimizer, Matrix, Sgd};

use crate::charge::{charge, Dense, LinkTallies, Phases, Transfer, Wire};
use crate::models::{CtrModel, ModelTape};
use crate::strategy::{DenseSync, EmbedHome, StrategyConfig};
use crate::trainer::{CheckpointImage, StorageTable, TrainerConfig};

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

/// One worker's complete per-batch working set, allocated once per run and
/// reused by every iteration — the hot loop allocates nothing once warm
/// (the `dense.*` gauges assert zero steady-state growth of the tape).
pub struct StepCtx {
    /// Dataset indices of this batch's samples, in cursor order.
    pub(crate) batch_idx: Vec<u32>,
    /// Per-sample labels, filled during Compute.
    pub(crate) labels: Vec<f32>,
    /// Flat embedding input (`batch × fields·dim`), filled during Fetch.
    pub(crate) input: Matrix,
    /// Loss gradient w.r.t. the logits.
    pub(crate) grad_logits: Matrix,
    /// Gradient w.r.t. the embedding input (consumed by Push).
    pub(crate) grad_input: Matrix,
    /// Dense forward/backward arena — all model-internal scratch.
    pub(crate) tape: ModelTape,
    /// Traffic report of this batch's embedding read.
    pub(crate) read_report: ReadReport,
}

impl StepCtx {
    /// Empty buffers; everything grows to its steady-state size during the
    /// first batches.
    pub fn new() -> Self {
        Self {
            batch_idx: Vec::new(),
            labels: Vec::new(),
            input: Matrix::zeros(0, 0),
            grad_logits: Matrix::zeros(0, 0),
            grad_input: Matrix::zeros(0, 0),
            tape: ModelTape::new(),
            read_report: ReadReport::default(),
        }
    }
}

impl Default for StepCtx {
    fn default() -> Self {
        Self::new()
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
        self.overhead_secs += t0.elapsed().as_secs_f64()
            + f64::from(self.stamps + 2) * self.timer_read_secs;
        self.stamps = 0;
    }

    /// Merges the accumulated histograms into `recorder` and resets them
    /// (called once per epoch; merges are additive across epochs and
    /// workers).
    pub fn flush(&mut self, recorder: &dyn Recorder) {
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
/// configuration, the shared table and partition, the collectives, the
/// cost model, the run's hooks and its counters. The driver builds it once
/// per run ([`crate::Trainer::try_run`]'s set-up) and every worker thread
/// borrows it, every epoch.
pub(crate) struct RunCtx<'a> {
    pub(crate) cfg: &'a TrainerConfig,
    pub(crate) strategy: &'a StrategyConfig,
    pub(crate) dataset: &'a CtrDataset,
    /// The primary store, RAM-only or tiered.
    pub(crate) storage: &'a StorageTable,
    pub(crate) partition: &'a Partition,
    /// Each worker's training shard (dataset indices).
    pub(crate) shards: &'a [Vec<u32>],
    pub(crate) iters_per_epoch: usize,
    pub(crate) cost: CostModel,
    pub(crate) faults: Arc<FaultSchedule>,
    /// One registry for the whole run: the partitioner records globally,
    /// each worker into its own recorder, and the final snapshot merges
    /// everything.
    pub(crate) registry: MetricsRegistry,
    pub(crate) group: AllReduceGroup,
    pub(crate) exchange: WriteExchange,
    pub(crate) ledger: TrafficLedger,
    pub(crate) tracer: Option<&'a TraceCollector>,
    pub(crate) auditor: Option<Arc<ProtocolAuditor>>,
    /// Dense parameters per model replica, and their wire bytes per sync.
    pub(crate) num_dense: usize,
    pub(crate) dense_bytes: u64,
    pub(crate) flops_per_sample: f64,
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

impl<'a> RunCtx<'a> {
    /// The primary store, whichever tier holds it.
    pub(crate) fn table(&self) -> &'a dyn RowStore {
        self.storage.as_store()
    }

    /// What the run's traffic is charged against.
    pub(crate) fn wire(&self) -> Wire<'_> {
        Wire {
            cost: &self.cost,
            ledger: Some(&self.ledger),
            tracer: self.tracer,
            host_ps: matches!(self.strategy.embed_home, EmbedHome::CpuPs),
            row_bytes: self.row_bytes,
        }
    }
}

/// What one worker keeps from epoch to epoch. Every worker owns one; the
/// driver hands each thread its own for the epoch and takes it back at the
/// barrier.
pub(crate) struct WorkerRun<'t> {
    /// The worker's rank.
    pub(crate) w: usize,
    /// The one embedding worker, under the strategy's replica policy.
    pub(crate) emb: Box<dyn EmbeddingWorker + 't>,
    /// The worker's dense replica (identical init on every worker).
    pub(crate) model: CtrModel,
    /// Every per-batch buffer, reused by every step.
    pub(crate) slot: StepCtx,
    pub(crate) clock: SimClock,
    /// Busy link seconds of every group this worker issued.
    pub(crate) links: LinkTallies,
    /// Position in the shard; wraps around, persists across epochs.
    pub(crate) cursor: usize,
    pub(crate) fstate: WorkerFaultState,
    /// Stage histograms, flushed into `recorder` at every epoch's end (the
    /// timer calibration is paid once per run).
    pub(crate) profiler: StageProfiler,
    pub(crate) recorder: Arc<dyn Recorder>,
    /// Slowdown factor of this worker's accelerator (1.0 = nominal).
    pub(crate) compute_scale: f64,
    pub(crate) batch_size: usize,
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
/// `image` is the checkpoint a crash rolls back to (present whenever the
/// schedule can crash).
pub(crate) fn run_worker_epoch(
    run: &RunCtx<'_>,
    me: &mut WorkerRun<'_>,
    epoch: usize,
    image: Option<&CheckpointImage>,
) {
    let (cfg, dataset, group) = (run.cfg, run.dataset, &run.group);
    let shard = &run.shards[me.w];
    let dim = cfg.dim;
    let fields = dataset.num_fields;
    let epoch_start = me.clock.now();
    // Whether *any* worker can fault this run decides — uniformly across
    // workers, so the rendezvous schedules agree — whether the
    // per-iteration fault fence is needed at all.
    let have_faults =
        (0..group.num_participants()).any(|p| !run.faults.worker_faults(p).is_empty());

    let mut sample_slices: Vec<&[u32]> = Vec::with_capacity(me.batch_size);
    let mut dense_grads: Vec<f32> = Vec::new();
    // Stateless SGD on the replicated dense parameters.
    let mut sgd = Sgd::new(cfg.dense_lr);
    // Dense-gradient wire transport. Per-epoch so its error-feedback
    // residuals reset at the same barrier replica resync does — a
    // checkpoint-resumed run bit-matches an uninterrupted one.
    let mut dense_quant = DenseQuantizer::new(cfg.sync_format, cfg.sync_error_feedback);

    for _ in 0..run.iters_per_epoch {
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
        sample_slices.clear();
        sample_slices.extend(me.slot.batch_idx.iter().map(|&i| dataset.sample(i as usize)));
        let actual = sample_slices.len();
        // (Degenerate empty-shard corner: skip the math, still join every
        // rendezvous so peers don't deadlock.)
        let have_grad = actual > 0;
        if have_grad {
            me.slot.input.reset(actual, fields * dim);
            me.slot.read_report = me.emb.read_batch(&sample_slices, me.slot.input.data_mut());
        }
        me.profiler.wall(BatchStage::Fetch, t_fetch);
        // ---- (3) Dense forward/backward (real math, blocked kernels). ------
        if have_grad {
            let t_compute = me.profiler.start();
            dense_compute(run, me);
            me.profiler.wall(BatchStage::Compute, t_compute);
        }

        // ---- (4) Route the write-back, outside any fence. ------------------
        // Reduce, encode and bin by primary owner; only this rank's
        // outboxes are written.
        let t_route = me.profiler.start();
        let up_report = have_grad.then(|| {
            let grads = me.slot.grad_input.data();
            me.emb.route_gradients(&sample_slices, grads, &cfg.embed_opt, &run.exchange)
        });
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
        run.exchange.apply_owned(me.w, run.table(), &cfg.embed_opt);
        me.profiler.wall(BatchStage::Push, t_apply);

        // ---- (7) Charge simulated time. ------------------------------------
        if let Some(up_report) = &up_report {
            charge_batch(run, me, actual, up_report);
        }

        // ---- (8) Dense sync; also the writes-done rendezvous. --------------
        let t_sync = me.profiler.start();
        let sync_t = sync_dense(run, me, &mut dense_grads, &mut dense_quant, &mut sgd);
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

/// Dense forward/backward on the slot's tape — real math, blocked kernels.
/// Everything between entry and `end_batch` reuses tape buffers — zero
/// allocations once warm (the `dense.*` gauges assert it).
fn dense_compute(run: &RunCtx<'_>, me: &mut WorkerRun<'_>) {
    let StepCtx {
        batch_idx,
        labels,
        input,
        grad_logits,
        grad_input,
        tape,
        ..
    } = &mut me.slot;
    let model = &mut me.model;
    let dense_start = Instant::now();
    model.forward_tape(input, tape);
    labels.clear();
    labels.extend(batch_idx.iter().map(|&i| run.dataset.label(i as usize)));
    let batch_loss = bce_with_logits_into(tape.logits(), labels, grad_logits);
    if batch_loss.is_finite() {
        run.loss_sum_micro
            .fetch_add((batch_loss.max(0.0) as f64 * 1e6) as u64, Ordering::Relaxed);
        run.loss_batches.fetch_add(1, Ordering::Relaxed);
    } else {
        // `max(0.0)` on a NaN would silently yield 0.0 and bury the
        // divergence in the epoch's mean loss; count it instead.
        run.nonfinite.fetch_add(1, Ordering::Relaxed);
        me.recorder.counter_add(names::TRAIN_LOSS_NONFINITE, 1);
    }
    model.zero_grad();
    model.backward_tape(input, grad_logits, grad_input, tape);
    tape.dense_secs += dense_start.elapsed().as_secs_f64();
    tape.end_batch();
}

/// Charges one batch's simulated time (compute, input pipeline, embedding
/// comm, metadata) and records its traffic through [`charge`].
fn charge_batch(run: &RunCtx<'_>, me: &mut WorkerRun<'_>, actual: usize, up_report: &UpdateReport) {
    let cost = &run.cost;
    let clock = &mut me.clock;
    // The straggler factor scales arithmetic throughput, not the
    // fixed launch overhead (a slow accelerator still dispatches
    // kernels at normal latency).
    let flops = run.flops_per_sample * actual as f64;
    let compute_t = cost.compute.per_batch_overhead
        + (flops / cost.compute.flops_per_second) * me.compute_scale;
    clock.advance(TimeCategory::Compute, compute_t);
    me.profiler.sim(BatchStage::Compute, compute_t);

    // Input pipeline (overlapped behind compute).
    let input_bytes = (actual * run.dataset.num_fields * 4) as u64;
    clock.advance_overlapped(
        TimeCategory::HostIo,
        cost.link_transfer_time(LinkClass::HostPcie, input_bytes),
        compute_t,
    );

    let wire = run.wire();
    let (read, write) = wire.step(&me.slot.read_report, up_report);
    let overlap = run.strategy.overlap.then_some(compute_t);
    let step = Phases::Step { read: &read, write: &write, overlap };
    let comm = charge(&wire, me.w, clock, &mut me.links, step);
    me.profiler.sim(BatchStage::Fetch, comm.data[0]);
    me.profiler.sim(BatchStage::Push, comm.data[1]);
    run.samples.fetch_add(actual as u64, Ordering::Relaxed);
}

/// Dense gradient synchronisation: the collective's charge, mean-AllReduce,
/// clip, SGD step and the BSP clock barrier. Returns the dense-sync seconds
/// charged.
///
/// Every system charges first. Under BSP the step then issues **one**
/// [`AllReduceGroup::fused_mean_max`] whose f64 max lane carries the
/// post-charge clock: the AllReduce is a barrier in simulated time too, and
/// everyone leaves with the latest clock. ASP systems do not barrier —
/// their simulated clocks drift freely — but the OS threads still
/// rendezvous at the plain mean collective (math-level combining without a
/// time barrier). The gradient mean is bitwise the same either way.
fn sync_dense(
    run: &RunCtx<'_>,
    me: &mut WorkerRun<'_>,
    dense_grads: &mut Vec<f32>,
    quant: &mut DenseQuantizer,
    sgd: &mut Sgd,
) -> f64 {
    let (strategy, grad_clip, w) = (run.strategy, run.cfg.grad_clip, me.w);
    let is_bsp = matches!(strategy.dense_sync, DenseSync::AllReduce)
        && matches!(strategy.embed_home, EmbedHome::Gpu);
    me.model.flatten_grads_into(dense_grads);
    // The local gradient crosses the wire once per collective, before the
    // reduction.
    quant.transport(dense_grads);
    let dense = match strategy.dense_sync {
        DenseSync::AllReduce => Dense::Ring(run.dense_bytes),
        // Push gradients + pull parameters over the shared host link.
        DenseSync::PsAsync => Dense::HostPs(run.dense_bytes),
    };
    let t = charge(&run.wire(), w, &mut me.clock, &mut me.links, Phases::Dense(dense)).total();
    if is_bsp {
        let (max_clock, _) = run.group.fused_mean_max(dense_grads, me.clock.now(), false);
        clip_and_step(&mut me.model, dense_grads, sgd, grad_clip);
        me.clock.wait_until(max_clock);
    } else {
        run.group.allreduce_mean(dense_grads);
        clip_and_step(&mut me.model, dense_grads, sgd, grad_clip);
    }
    t
}

/// Global-norm clip, then one SGD step on the (replicated) dense
/// parameters — same math as the former inline loop (`p -= lr·g`), routed
/// through the optimizer abstraction's slot protocol. Each parameter
/// buffer is stepped with its slice of the reduced flat vector, taken by
/// cursor in `visit_params` order; the model's own gradient buffers keep
/// the local gradient until the next `zero_grad`.
fn clip_and_step(
    model: &mut CtrModel,
    dense_grads: &mut [f32],
    sgd: &mut Sgd,
    grad_clip: Option<f32>,
) {
    if let Some(clip) = grad_clip {
        let norm = dense_grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > clip {
            let scale = clip / norm;
            for g in dense_grads.iter_mut() {
                *g *= scale;
            }
        }
    }
    sgd.begin_step();
    let (mut slot, mut cursor) = (0usize, 0usize);
    model.visit_params(&mut |p, _| {
        sgd.update(slot, p, &dense_grads[cursor..cursor + p.len()]);
        slot += 1;
        cursor += p.len();
    });
    assert_eq!(cursor, dense_grads.len(), "flat gradient length mismatch");
}

/// Consumes every fault event due at the worker's current simulated time.
/// Faults fire inside the affected worker's own thread, between
/// collectives: the worker never abandons a rendezvous, so peers are
/// never stranded — they simply absorb the downtime through the BSP
/// simulated-time barrier.
fn process_due_faults(run: &RunCtx<'_>, me: &mut WorkerRun<'_>, image: Option<&CheckpointImage>) {
    let (w, faults, tracer, table) = (me.w, &run.faults, run.tracer, run.table());
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
                let image = image.expect("crash schedules always capture a checkpoint image");
                // The device's state is gone. Roll this worker's primary
                // rows back to the checkpoint image (clocks move
                // backwards; peers' saturating gap math reads them as
                // fresh, so the staleness invariant holds), then discard
                // worker-local pendings and re-prime replicas.
                let dim = table.dim();
                let zero_accum = vec![0.0f32; dim];
                let roll_accums = table.has_optimizer_state();
                let mut lost = 0u64;
                let mut rolled = 0u64;
                for e in 0..table.num_rows() as u32 {
                    if run.partition.primary_of(e) != w as u32 {
                        continue;
                    }
                    let cur = table.clock(e);
                    let ck = image.clocks[e as usize];
                    if cur != ck {
                        table.restore_row(
                            e,
                            &image.values[e as usize * dim..(e as usize + 1) * dim],
                            ck,
                        );
                        // Optimizer state rolls back with the values it
                        // produced (a `None` capture means it was zero).
                        if roll_accums {
                            table.restore_accum(
                                e,
                                image.accums.as_ref().map_or(&zero_accum[..], |a| {
                                    &a[e as usize * dim..(e as usize + 1) * dim]
                                }),
                            );
                        }
                        rolled += 1;
                        lost += cur.saturating_sub(ck);
                    }
                }
                let refreshed = me.emb.recover_from_crash();
                // Recovery cost: restart, restore this worker's shard of
                // the image over the host link, re-fetch refreshed
                // replicas from their owners as one group (recorded like a
                // barrier re-prime), and replay the work done since the
                // image was captured.
                let cost = &run.cost;
                let n_workers = cost.topology.num_workers() as u64;
                let restore_t = cost
                    .link_transfer_time(LinkClass::HostPcie, image.bytes / n_workers.max(1));
                let reprime = Transfer::rows(&refreshed, run.row_bytes);
                let refresh_t =
                    charge(&run.wire(), w, clock, links, Phases::Recovery(&reprime)).total();
                let refreshed: u64 = refreshed.iter().sum();
                let replay_t = (crash_time - image.sim_times[w]).max(0.0);
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
/// [`TraceLevel::Sync`] so default (`batch`-level) traces stay lean.
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
        assert_eq!(r.telemetry.counter(names::FAULT_CRASHES), 1);
        assert_eq!(r.telemetry.counter(names::FAULT_STALLS), 1);
        assert!(r.breakdown.fault > 0.0, "no fault time charged");
        assert!(r.final_auc > 0.55, "AUC collapsed: {}", r.final_auc);
    }
}
