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
//! **bit-identical** across storage tier, read path and checkpoint
//! resume, at any worker count where no read-phase flush fires (`s = 0`,
//! HET-MP, the LFU cache; ROADMAP item 1 tracks the read-phase flush race
//! that breaks run-to-run repeatability at `s > 0` with three or more
//! workers):
//!
//! * reads-before-writes holds within an iteration (step 5) and
//!   writes-before-reads across iterations (step 8);
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
use hetgmp_comms::{AllReduceGroup, DenseQuantizer, TrafficClass, TrafficLedger};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{EmbeddingWorker, ReadReport, RowStore, UpdateReport, WriteExchange};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, HistogramSummary, Json, ProtocolAuditor, Recorder, TraceCollector};
use hetgmp_tensor::{bce_with_logits_into, DenseOptimizer, Matrix, Sgd};

use crate::models::{CtrModel, ModelTape};
use crate::strategy::{DenseSync, EmbedHome, StrategyConfig};
use crate::trainer::{CheckpointImage, TrainerConfig, WorkerFaultState};

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

/// All the borrowed context one worker needs for one epoch.
pub(crate) struct WorkerEpoch<'a, 'b, 'd> {
    pub(crate) w: usize,
    pub(crate) shard: &'a [u32],
    pub(crate) dataset: &'d CtrDataset,
    pub(crate) emb: &'a mut (dyn EmbeddingWorker + 'b),
    pub(crate) model: &'a mut CtrModel,
    pub(crate) slot: &'a mut StepCtx,
    pub(crate) clock: &'a mut SimClock,
    pub(crate) cursor: &'a mut usize,
    pub(crate) iters: usize,
    pub(crate) epoch: usize,
    pub(crate) cfg: &'a TrainerConfig,
    pub(crate) strategy: &'a StrategyConfig,
    pub(crate) topology: &'a Topology,
    pub(crate) cost: &'a CostModel,
    pub(crate) group: &'a AllReduceGroup,
    pub(crate) exchange: &'a WriteExchange,
    pub(crate) ledger: &'a TrafficLedger,
    pub(crate) dense_bytes: u64,
    pub(crate) flops_per_sample: f64,
    pub(crate) samples: &'a AtomicU64,
    pub(crate) loss_sum_micro: &'a AtomicU64,
    pub(crate) loss_batches: &'a AtomicU64,
    pub(crate) compute_scale: f64,
    pub(crate) batch_size: usize,
    pub(crate) tracer: Option<&'a TraceCollector>,
    pub(crate) auditor: Option<&'a ProtocolAuditor>,
    pub(crate) table: &'a dyn RowStore,
    pub(crate) partition: &'a Partition,
    pub(crate) faults: &'a FaultSchedule,
    pub(crate) fstate: &'a mut WorkerFaultState,
    pub(crate) image: Option<Arc<CheckpointImage>>,
    pub(crate) nonfinite: &'a AtomicU64,
    pub(crate) recorder: Arc<dyn Recorder>,
    pub(crate) profiler: &'a mut StageProfiler,
}

/// Runs one worker's epoch: the nine-step schedule of the module docs.
pub(crate) fn run_worker_epoch(ctx: WorkerEpoch<'_, '_, '_>) {
    let WorkerEpoch {
        w,
        shard,
        dataset,
        emb,
        model,
        slot,
        clock,
        cursor,
        iters,
        epoch,
        cfg,
        strategy,
        topology,
        cost,
        group,
        exchange,
        ledger,
        dense_bytes,
        flops_per_sample,
        samples,
        loss_sum_micro,
        loss_batches,
        compute_scale,
        batch_size,
        tracer,
        auditor,
        table,
        partition,
        faults,
        fstate,
        image,
        nonfinite,
        recorder,
        profiler,
    } = ctx;
    let dim = cfg.dim;
    let fields = dataset.num_fields;
    let epoch_start = clock.now();
    // Whether *any* worker can fault this run decides — uniformly across
    // workers, so the rendezvous schedules agree — whether the
    // per-iteration fault fence is needed at all.
    let have_faults =
        (0..group.num_participants()).any(|p| !faults.worker_faults(p).is_empty());

    let mut sample_slices: Vec<&[u32]> = Vec::with_capacity(batch_size);
    let mut dense_grads: Vec<f32> = Vec::new();
    // Stateless SGD on the replicated dense parameters.
    let mut sgd = Sgd::new(cfg.dense_lr);
    // Dense-gradient wire transport. Per-epoch so its error-feedback
    // residuals reset at the same barrier replica resync does — a
    // checkpoint-resumed run bit-matches an uninterrupted one.
    let mut dense_quant = DenseQuantizer::new(cfg.sync_format, cfg.sync_error_feedback);
    let row_bytes = cfg.sync_format.row_wire_bytes(dim);

    for _ in 0..iters {
        // ---- (1) Injected faults, at the iteration boundary. ---------------
        if have_faults {
            process_due_faults(
                w, faults, fstate, clock, &recorder, tracer, image.as_deref(), table, partition,
                emb, cost, row_bytes,
            );
            // A crash rollback must be fully visible before any peer reads
            // the shared table this iteration, or same-seed runs diverge on
            // the rollback/read race.
            group.barrier();
        }

        // Publish the worker's simulated position so instants emitted deeper
        // in the stack (protocol decisions, traffic charges) land at this
        // batch's timestamp on the timeline.
        if let Some(t) = tracer {
            t.set_worker_time(w, clock.now());
        }
        let batch_start = clock.now();
        // ---- (2) Assemble the batch and read its embeddings. ---------------
        let t_fetch = profiler.start();
        assemble_batch(slot, shard, cursor, batch_size);
        sample_slices.clear();
        sample_slices.extend(slot.batch_idx.iter().map(|&i| dataset.sample(i as usize)));
        let actual = sample_slices.len();
        // (Degenerate empty-shard corner: skip the math, still join every
        // rendezvous so peers don't deadlock.)
        let have_grad = actual > 0;
        if have_grad {
            slot.input.reset(actual, fields * dim);
            slot.read_report = emb.read_batch(&sample_slices, slot.input.data_mut());
        }
        profiler.wall(BatchStage::Fetch, t_fetch);
        // ---- (3) Dense forward/backward (real math, blocked kernels). ------
        if have_grad {
            let t_compute = profiler.start();
            dense_compute(
                slot, model, dataset, loss_sum_micro, loss_batches, nonfinite, &recorder,
            );
            profiler.wall(BatchStage::Compute, t_compute);
        }

        // ---- (4) Route the write-back, outside any fence. ------------------
        // Reduce, encode and bin by primary owner; only this rank's
        // outboxes are written.
        let t_route = profiler.start();
        let up_report = have_grad.then(|| {
            emb.route_gradients(&sample_slices, slot.grad_input.data(), &cfg.embed_opt, exchange)
        });
        profiler.wall(BatchStage::Push, t_route);

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
        let t_apply = profiler.start();
        exchange.apply_owned(w, table, &cfg.embed_opt);
        profiler.wall(BatchStage::Push, t_apply);

        // ---- (7) Charge simulated time. ------------------------------------
        if let Some(up_report) = &up_report {
            charge_batch(
                w, actual, fields, compute_scale, flops_per_sample, strategy, cost, clock,
                ledger, tracer, samples, &slot.read_report, up_report, row_bytes, profiler,
            );
        }

        // ---- (8) Dense sync; also the writes-done rendezvous. --------------
        let t_sync = profiler.start();
        let sync_t = sync_dense(
            w, model, &mut dense_grads, &mut dense_quant, &mut sgd, cfg.grad_clip, strategy,
            topology, cost, group, ledger, clock, tracer, dense_bytes,
        );
        profiler.wall(BatchStage::Sync, t_sync);
        profiler.sim(BatchStage::Sync, sync_t);

        if let Some(t) = tracer {
            trace_stage_spans(t, w, batch_start, profiler.pending_sim());
            t.worker_span(
                w,
                names::TRACE_BATCH,
                batch_start,
                clock.now() - batch_start,
                &[("samples", Json::U64(actual as u64))],
            );
        }
        profiler.finish_batch();

        // ---- (9) Strict audit. ---------------------------------------------
        // Agree collectively on whether the auditor tripped so every worker
        // leaves at the same iteration boundary (a unilateral break would
        // strand its peers in the next collective).
        if let Some(a) = auditor {
            if group.agree(a.is_tripped()) {
                break;
            }
        }
    }

    if let Some(t) = tracer {
        t.worker_span(
            w,
            names::TRACE_EPOCH,
            epoch_start,
            clock.now() - epoch_start,
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
fn dense_compute(
    slot: &mut StepCtx,
    model: &mut CtrModel,
    dataset: &CtrDataset,
    loss_sum_micro: &AtomicU64,
    loss_batches: &AtomicU64,
    nonfinite: &AtomicU64,
    recorder: &Arc<dyn Recorder>,
) {
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
    model.forward_tape(input, tape);
    labels.clear();
    labels.extend(batch_idx.iter().map(|&i| dataset.label(i as usize)));
    let batch_loss = bce_with_logits_into(tape.logits(), labels, grad_logits);
    if batch_loss.is_finite() {
        loss_sum_micro.fetch_add((batch_loss.max(0.0) as f64 * 1e6) as u64, Ordering::Relaxed);
        loss_batches.fetch_add(1, Ordering::Relaxed);
    } else {
        // `max(0.0)` on a NaN would silently yield 0.0 and bury the
        // divergence in the epoch's mean loss; count it instead.
        nonfinite.fetch_add(1, Ordering::Relaxed);
        recorder.counter_add(names::TRAIN_LOSS_NONFINITE, 1);
    }
    model.zero_grad();
    model.backward_tape(input, grad_logits, grad_input, tape);
    tape.dense_secs += dense_start.elapsed().as_secs_f64();
    tape.end_batch();
}

/// Charges one batch's simulated time (compute, input pipeline, embedding
/// comm, metadata) and records its traffic.
#[allow(clippy::too_many_arguments)]
fn charge_batch(
    w: usize,
    actual: usize,
    fields: usize,
    compute_scale: f64,
    flops_per_sample: f64,
    strategy: &StrategyConfig,
    cost: &CostModel,
    clock: &mut SimClock,
    ledger: &TrafficLedger,
    tracer: Option<&TraceCollector>,
    samples: &AtomicU64,
    read_report: &ReadReport,
    up_report: &UpdateReport,
    row_bytes: u64,
    profiler: &mut StageProfiler,
) {
    // The straggler factor scales arithmetic throughput, not the
    // fixed launch overhead (a slow accelerator still dispatches
    // kernels at normal latency).
    let flops = flops_per_sample * actual as f64;
    let compute_t = cost.compute.per_batch_overhead
        + (flops / cost.compute.flops_per_second) * compute_scale;
    clock.advance(TimeCategory::Compute, compute_t);
    profiler.sim(BatchStage::Compute, compute_t);

    // Input pipeline (overlapped behind compute).
    let input_bytes = (actual * fields * 4) as u64;
    clock.advance_overlapped(
        TimeCategory::HostIo,
        cost.link_transfer_time(LinkClass::HostPcie, input_bytes),
        compute_t,
    );

    let comm = charge_embedding_comm(
        w, strategy, cost, read_report, up_report, row_bytes, tracer, clock.now(),
    );
    let embed_t = comm.read + comm.write_back;
    let meta_t = comm.meta;
    profiler.sim(BatchStage::Fetch, comm.read);
    profiler.sim(BatchStage::Push, comm.write_back);
    if strategy.overlap {
        clock.advance_overlapped(TimeCategory::EmbedComm, embed_t, compute_t);
    } else {
        clock.advance(TimeCategory::EmbedComm, embed_t);
    }
    clock.advance(TimeCategory::MetaComm, meta_t);

    ledger.record(
        w,
        TrafficClass::EmbedData,
        read_report.data_bytes + up_report.data_bytes,
        read_report.messages + up_report.messages,
    );
    ledger.record(
        w,
        TrafficClass::KeysClocks,
        read_report.meta_bytes + up_report.meta_bytes,
        read_report.messages + up_report.messages,
    );
    samples.fetch_add(actual as u64, Ordering::Relaxed);
}

/// Dense gradient synchronisation: mean-AllReduce, clip, SGD step, charges,
/// and the BSP clock barrier. Returns the dense-sync seconds charged.
///
/// Under BSP the step charges first and then issues **one**
/// [`AllReduceGroup::fused_mean_max`] whose f64 max lane carries the
/// post-charge clock: the AllReduce is a barrier in simulated time too, and
/// everyone leaves with the latest clock. ASP systems do not barrier —
/// their simulated clocks drift freely — but the OS threads still
/// rendezvous at the plain mean collective (math-level combining without a
/// time barrier). The gradient mean is bitwise the same either way.
#[allow(clippy::too_many_arguments)]
fn sync_dense(
    w: usize,
    model: &mut CtrModel,
    dense_grads: &mut Vec<f32>,
    quant: &mut DenseQuantizer,
    sgd: &mut Sgd,
    grad_clip: Option<f32>,
    strategy: &StrategyConfig,
    topology: &Topology,
    cost: &CostModel,
    group: &AllReduceGroup,
    ledger: &TrafficLedger,
    clock: &mut SimClock,
    tracer: Option<&TraceCollector>,
    dense_bytes: u64,
) -> f64 {
    let is_bsp = matches!(strategy.dense_sync, DenseSync::AllReduce)
        && matches!(strategy.embed_home, EmbedHome::Gpu);
    model.flatten_grads_into(dense_grads);
    // The local gradient crosses the wire once per collective, before the
    // reduction.
    quant.transport(dense_grads);
    let charge_allreduce = |clock: &mut SimClock| {
        let t = cost.allreduce_time_at(dense_bytes, clock.now());
        trace_allreduce_span(tracer, topology, w, clock.now(), t, dense_bytes);
        clock.advance(TimeCategory::AllReduceComm, t);
        ledger.record(w, TrafficClass::AllReduce, allreduce_bytes(dense_bytes, topology), 1);
        t
    };
    if is_bsp {
        let t = charge_allreduce(clock);
        let (max_clock, _) = group.fused_mean_max(dense_grads, clock.now(), false);
        clip_and_step(model, dense_grads, sgd, grad_clip);
        clock.wait_until(max_clock);
        return t;
    }

    group.allreduce_mean(dense_grads);
    clip_and_step(model, dense_grads, sgd, grad_clip);
    match strategy.dense_sync {
        DenseSync::AllReduce => charge_allreduce(clock),
        DenseSync::PsAsync => {
            // Push gradients + pull parameters over the shared host link.
            let n = topology.num_workers() as u64;
            let t = cost.link_transfer_time(LinkClass::HostPcie, 2 * dense_bytes * n);
            if let Some(tr) = tracer {
                tr.link_span(
                    LinkClass::HostPcie.label(),
                    names::TRACE_ALLREDUCE,
                    clock.now(),
                    t,
                    &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(2 * dense_bytes))],
                );
            }
            clock.advance(TimeCategory::AllReduceComm, t);
            ledger.record(w, TrafficClass::AllReduce, 2 * dense_bytes, 2);
            t
        }
    }
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

/// The ring's bottleneck hop names the AllReduce span's track.
fn trace_allreduce_span(
    tracer: Option<&TraceCollector>,
    topology: &Topology,
    w: usize,
    start: f64,
    t: f64,
    dense_bytes: u64,
) {
    if let Some(tr) = tracer {
        let n = topology.num_workers();
        let label = if n > 1 {
            topology.link(w, (w + 1) % n).label()
        } else {
            LinkClass::Local.label()
        };
        tr.link_span(
            label,
            names::TRACE_ALLREDUCE,
            start,
            t,
            &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(dense_bytes))],
        );
    }
}

/// Consumes every fault event due at the worker's current simulated time.
/// Faults fire inside the affected worker's own thread, between
/// collectives: the worker never abandons a rendezvous, so peers are
/// never stranded — they simply absorb the downtime through the BSP
/// simulated-time barrier.
#[allow(clippy::too_many_arguments)]
fn process_due_faults(
    w: usize,
    faults: &FaultSchedule,
    fstate: &mut WorkerFaultState,
    clock: &mut SimClock,
    recorder: &Arc<dyn Recorder>,
    tracer: Option<&TraceCollector>,
    image: Option<&CheckpointImage>,
    table: &dyn RowStore,
    partition: &Partition,
    emb: &mut dyn EmbeddingWorker,
    cost: &CostModel,
    row_bytes: u64,
) {
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
                    if partition.primary_of(e) != w as u32 {
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
                let refreshed = emb.recover_from_crash();
                // Recovery cost: restart, restore this worker's shard of
                // the image over the host link, re-fetch refreshed
                // replicas from peers, and replay the work done since the
                // image was captured.
                let n_workers = cost.topology.num_workers() as u64;
                let restore_t = cost
                    .link_transfer_time(LinkClass::HostPcie, image.bytes / n_workers.max(1));
                let refresh_t =
                    mean_link_time(w, cost, refreshed.saturating_mul(row_bytes));
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

/// Ring AllReduce wire bytes: `2·(N−1)/N · payload` per worker.
pub(crate) fn allreduce_bytes(dense_bytes: u64, topology: &Topology) -> u64 {
    let n = topology.num_workers() as u64;
    if n <= 1 {
        0
    } else {
        2 * (n - 1) * dense_bytes / n
    }
}

/// One batch's embedding-communication seconds, split by direction so the
/// stage profiler can attribute them: `read` belongs to the Fetch stage,
/// `write_back` to Push, `meta` to neither (it stays `time.meta_comm`).
/// The total charge is exactly `read + write_back` — the split never
/// changes what the clock advances by.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EmbedCommTimes {
    pub(crate) read: f64,
    pub(crate) write_back: f64,
    pub(crate) meta: f64,
}

/// Converts the per-source byte breakdowns into per-direction embedding
/// and metadata seconds ([`EmbedCommTimes`]) for worker `w` under the given
/// strategy. When a tracer is attached, each per-peer transfer also becomes
/// a `trace.link.transfer` span on the link-class track, laid out
/// sequentially from `start_secs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge_embedding_comm(
    w: usize,
    strategy: &StrategyConfig,
    cost: &CostModel,
    read: &ReadReport,
    up: &UpdateReport,
    row_bytes: u64,
    tracer: Option<&TraceCollector>,
    start_secs: f64,
) -> EmbedCommTimes {
    match strategy.embed_home {
        EmbedHome::CpuPs => {
            // Every lookup/update crosses the host link, regardless of the
            // GPU partition: charge the full working set. The parameter
            // server's host link is a *shared* resource: N workers pulling
            // simultaneously each see 1/N of its bandwidth — this contention
            // is precisely why the paper's CPU-PS baselines (TF, Parallax)
            // fall behind GPU model parallelism (Figure 7).
            let n = cost.topology.num_workers() as u64;
            let lookups = read.lookups();
            let updates = up.updates();
            let dim_bytes = if lookups + updates > 0 {
                // data_bytes only counts remote rows; reconstruct full rows
                // from counts via bytes-per-row of the remote ones, falling
                // back to the configured wire size when everything was local.
                estimate_row_bytes(read, up, row_bytes)
            } else {
                0
            };
            let total_bytes = (lookups + updates) * dim_bytes * n;
            let t = cost.link_transfer_time(LinkClass::HostPcie, total_bytes);
            if let Some(tr) = tracer {
                if total_bytes > 0 {
                    tr.link_span(
                        LinkClass::HostPcie.label(),
                        names::TRACE_LINK_TRANSFER,
                        start_secs,
                        t,
                        &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(total_bytes))],
                    );
                }
            }
            let meta_bytes = (lookups + updates) * 12 * n;
            let mt = cost.link_transfer_time(LinkClass::HostPcie, meta_bytes);
            // The shared-link charge was computed over the combined working
            // set; apportion it by row count for stage attribution only
            // (lookups are Fetch work, updates are Push work).
            let read_frac = if lookups + updates > 0 {
                lookups as f64 / (lookups + updates) as f64
            } else {
                0.0
            };
            EmbedCommTimes {
                read: t * read_frac,
                write_back: t * (1.0 - read_frac),
                meta: mt,
            }
        }
        EmbedHome::Gpu => {
            let mut t = 0.0;
            for (src, &bytes) in read.data_bytes_by_src.iter().enumerate() {
                if bytes > 0 {
                    let dt = cost.transfer_time_at(w, src, bytes, start_secs + t);
                    if let Some(tr) = tracer {
                        tr.link_span(
                            cost.topology.link(w, src).label(),
                            names::TRACE_LINK_TRANSFER,
                            start_secs + t,
                            dt,
                            &[
                                ("dir", Json::from("read")),
                                ("worker", Json::U64(w as u64)),
                                ("peer", Json::U64(src as u64)),
                                ("bytes", Json::U64(bytes)),
                            ],
                        );
                    }
                    t += dt;
                }
            }
            let read_t = t;
            for (dst, &bytes) in up.data_bytes_by_dst.iter().enumerate() {
                if bytes > 0 {
                    let dt = cost.transfer_time_at(w, dst, bytes, start_secs + t);
                    if let Some(tr) = tracer {
                        tr.link_span(
                            cost.topology.link(w, dst).label(),
                            names::TRACE_LINK_TRANSFER,
                            start_secs + t,
                            dt,
                            &[
                                ("dir", Json::from("writeback")),
                                ("worker", Json::U64(w as u64)),
                                ("peer", Json::U64(dst as u64)),
                                ("bytes", Json::U64(bytes)),
                            ],
                        );
                    }
                    t += dt;
                }
            }
            // Latency is charged per (batch, peer) round-trip inside
            // `transfer_time` above — real systems coalesce a batch's rows
            // into one request per peer, so per-row latency would be wrong.
            // Metadata crosses the same fabric; charge it at the worker's
            // mean link bandwidth.
            let meta = read.meta_bytes + up.meta_bytes;
            let mt = if meta > 0 {
                mean_link_time(w, cost, meta)
            } else {
                0.0
            };
            EmbedCommTimes {
                read: read_t,
                write_back: t - read_t,
                meta: mt,
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

/// Bytes per embedding row, estimated from whichever report carried data;
/// `fallback` (the configured per-row wire size) covers all-local batches.
fn estimate_row_bytes(read: &ReadReport, up: &UpdateReport, fallback: u64) -> u64 {
    let remote_rows = read.remote_total() + up.remote_writebacks;
    match (read.data_bytes + up.data_bytes).checked_div(remote_rows) {
        Some(b) if remote_rows > 0 => b,
        _ => fallback,
    }
}

/// α-β time for `bytes` over worker `w`'s average non-local link.
pub(crate) fn mean_link_time(w: usize, cost: &CostModel, bytes: u64) -> f64 {
    let n = cost.topology.num_workers();
    if n <= 1 {
        return 0.0;
    }
    let mut total = 0.0;
    for p in 0..n {
        if p != w {
            total += cost.transfer_time(w, p, bytes / (n as u64 - 1).max(1));
        }
    }
    total / (n - 1) as f64
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
