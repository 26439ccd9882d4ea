#![forbid(unsafe_code)]

//! Unified telemetry for the HET-GMP workspace.
//!
//! Every instrumented component — the traffic ledger, simulated clocks,
//! embedding workers, partitioners, the trainer — writes named metrics
//! through one small [`Recorder`] trait:
//!
//! * **counters** — monotonic `u64` totals (bytes sent, cache hits),
//! * **gauges** — last-write-wins `f64` levels (simulated clock, scores),
//! * **histograms** — `f64` observation streams with count/sum/min/max,
//! * **spans** — RAII wall-clock timers feeding a histogram on drop.
//!
//! [`NoopRecorder`] is the default sink and costs nothing; a
//! [`MetricsRegistry`] hands each worker its own [`MemoryRecorder`] so the
//! hot path never contends, and merges everything into a
//! [`TelemetrySnapshot`] on demand. Snapshots export as JSONL
//! ([`JsonlWriter`]) or a pretty table
//! ([`TelemetrySnapshot::render_table`]).
//!
//! Beside the aggregate pipeline sit two event-level observers: a
//! [`TraceCollector`] of typed [`TraceEvent`]s in bounded per-worker ring
//! buffers, exported as Chrome trace-event JSON (`chrome://tracing` /
//! Perfetto), and a [`ProtocolAuditor`] that turns the bounded-async
//! staleness guarantee into a checked runtime invariant.
//!
//! Metric names are dotted paths; the taxonomy (names, units, labels) is
//! documented in `TELEMETRY.md` at the repository root.
//!
//! This crate is also the home of [`HetGmpError`], the workspace-wide
//! error type mapped to process exit codes by the CLI.

pub mod audit;
pub mod error;
pub mod export;
pub mod json;
pub mod manifest;
pub mod memory;
pub mod recorder;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use audit::{AuditMode, AuditSummary, ProtocolAuditor};
pub use error::HetGmpError;
pub use export::JsonlWriter;
pub use json::Json;
pub use manifest::RunManifest;
pub use memory::MemoryRecorder;
pub use recorder::{NoopRecorder, Recorder, SimTimeCell, SpanGuard};
pub use registry::MetricsRegistry;
pub use snapshot::{HistogramSummary, TelemetrySnapshot};
pub use trace::{TraceCollector, TraceEvent, TraceLevel, TraceTrack};

/// Canonical metric names used across the workspace, so call sites and
/// tests never drift apart on spelling. See `TELEMETRY.md` for semantics.
pub mod names {
    /// Bytes moved per traffic class; suffixed by class label:
    /// `embed_data`, `keys_clocks`, `allreduce`.
    pub const TRAFFIC_BYTES_PREFIX: &str = "traffic.bytes.";
    /// Messages per traffic class; same suffixes as bytes.
    pub const TRAFFIC_MESSAGES_PREFIX: &str = "traffic.messages.";

    /// Simulated seconds per time category; suffixed by category:
    /// `compute`, `embed_comm`, `meta_comm`, `allreduce_comm`, `host_io`.
    pub const TIME_PREFIX: &str = "time.";

    /// Embedding reads served by the worker's own primary rows.
    pub const EMBED_READ_LOCAL_PRIMARY: &str = "embedding.read.local_primary";
    /// Embedding reads served by fresh-enough local replicas.
    pub const EMBED_READ_LOCAL_FRESH: &str = "embedding.read.local_fresh";
    /// Embedding reads that had to fetch from a remote primary.
    pub const EMBED_READ_REMOTE: &str = "embedding.read.remote";
    /// Intra-embedding (replica refresh) synchronisations.
    pub const EMBED_SYNC_INTRA: &str = "embedding.sync.intra";
    /// Inter-embedding (staleness bound) synchronisations.
    pub const EMBED_SYNC_INTER: &str = "embedding.sync.inter";
    /// Gradient updates deferred into the pending buffer.
    pub const EMBED_UPDATE_DEFERRED: &str = "embedding.update.deferred";
    /// Gradient updates applied straight to the primary.
    pub const EMBED_UPDATE_DIRECT: &str = "embedding.update.direct";
    /// Pending-buffer rows flushed to primaries.
    pub const EMBED_FLUSH_ROWS: &str = "embedding.flush.rows";
    /// LFU cache hits (dynamic-cache workers only).
    pub const EMBED_CACHE_HIT: &str = "embedding.cache.hit";
    /// LFU cache misses (dynamic-cache workers only).
    pub const EMBED_CACHE_MISS: &str = "embedding.cache.miss";
    /// Rows currently waiting in the pending buffer (gauge).
    pub const EMBED_PENDING_ROWS: &str = "embedding.pending_rows";

    /// Embedding payload rows sent through a lossy wire format.
    pub const COMMS_QUANT_ROWS: &str = "comms.quant.rows";
    /// Interconnect bytes saved by quantization vs raw f32 rows.
    pub const COMMS_QUANT_BYTES_SAVED: &str = "comms.quant.bytes_saved";

    /// Partitioner refinement rounds executed.
    pub const PARTITION_ROUNDS: &str = "partition.rounds";
    /// Vertices moved across all refinement rounds.
    pub const PARTITION_MOVES: &str = "partition.moves";
    /// Remote-fetch score after each round (histogram; one observation
    /// per round, so `min` is the best score reached).
    pub const PARTITION_ROUND_SCORE: &str = "partition.round.remote_fetches";
    /// Score improvement per round, in remote fetches removed (histogram).
    pub const PARTITION_ROUND_IMPROVEMENT: &str = "partition.round.improvement";
    /// Replicas created by hot-embedding replication.
    pub const PARTITION_REPLICAS_CREATED: &str = "partition.replicas.created";
    /// Replication budget, in replica slots (gauge).
    pub const PARTITION_REPLICATION_BUDGET: &str = "partition.replication.budget";
    /// Wall-clock seconds spent partitioning (histogram via span).
    pub const PARTITION_WALL_SECS: &str = "partition.wall_secs";

    /// Samples processed by the trainer.
    pub const TRAIN_SAMPLES: &str = "train.samples";
    /// Simulated seconds at the end of training (gauge).
    pub const TRAIN_SIM_TIME: &str = "train.sim_time_secs";
    /// Evaluation AUC after each epoch (gauge; last write = final AUC).
    pub const TRAIN_AUC: &str = "train.auc";

    /// Current simulated time in seconds (gauge, written by `SimClock`).
    pub const CLOCK_NOW: &str = "clock.now_secs";

    /// Raw intra-embedding clock gap observed at each read (histogram).
    pub const PROTOCOL_GAP_INTRA: &str = "protocol.gap.intra";
    /// Raw inter-embedding normalised clock gap per check (histogram).
    pub const PROTOCOL_GAP_INTER: &str = "protocol.gap.inter";
    /// Reads served with an intra gap above the staleness bound.
    pub const PROTOCOL_VIOLATION_INTRA: &str = "protocol.violation.intra";
    /// Reads served with an inter gap above the staleness bound.
    pub const PROTOCOL_VIOLATION_INTER: &str = "protocol.violation.inter";

    /// Trace span: one trainer epoch on a worker's timeline.
    pub const TRACE_EPOCH: &str = "trace.epoch";
    /// Trace span: one training batch (assemble + read + compute + sync).
    pub const TRACE_BATCH: &str = "trace.batch";
    /// Trace span: occupancy of an interconnect link by one transfer.
    pub const TRACE_LINK_TRANSFER: &str = "trace.link.transfer";
    /// Trace span: dense-gradient all-reduce on the link timeline.
    pub const TRACE_ALLREDUCE: &str = "trace.allreduce";
    /// Trace span: one partitioner refinement round (driver timeline).
    pub const TRACE_PARTITION_ROUND: &str = "trace.partition.round";
    /// Trace instant: per-batch embedding read mix (sync level).
    pub const TRACE_READ: &str = "trace.read";
    /// Trace instant: intra/inter synchronisation decision (sync level).
    pub const TRACE_SYNC: &str = "trace.sync";
    /// Trace instant: gradient-deferral decision (sync level).
    pub const TRACE_DEFER: &str = "trace.defer";
    /// Trace instant: traffic-ledger charge (sync level).
    pub const TRACE_TRAFFIC: &str = "trace.traffic";

    /// Counter: batches whose loss came back non-finite (NaN/∞). Non-zero
    /// means the run diverged; the CLI fails such runs.
    pub const TRAIN_LOSS_NONFINITE: &str = "train.loss.nonfinite";

    /// Counter: injected worker crashes taken.
    pub const FAULT_CRASHES: &str = "fault.crashes";
    /// Counter: injected worker stalls taken.
    pub const FAULT_STALLS: &str = "fault.stalls";
    /// Gauge: total stall downtime charged to simulated clocks, seconds.
    pub const FAULT_STALL_SECS: &str = "fault.stall_secs";
    /// Gauge: total crash-recovery time (restore + replay + restart
    /// overhead) charged to simulated clocks, seconds.
    pub const FAULT_RECOVERY_SECS: &str = "fault.recovery_secs";
    /// Counter: embedding updates rolled back (lost work) across crashes.
    pub const FAULT_LOST_UPDATES: &str = "fault.lost_updates";
    /// Counter: embedding rows restored from checkpoint during recovery.
    pub const FAULT_RESTORED_ROWS: &str = "fault.restored_rows";

    /// Counter: run checkpoints written.
    pub const CHECKPOINT_SAVES: &str = "checkpoint.saves";
    /// Counter: total checkpoint bytes written.
    pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes";

    /// Trace instant: an injected crash takes a worker down.
    pub const TRACE_FAULT_CRASH: &str = "trace.fault.crash";
    /// Trace span: an injected stall parks a worker.
    pub const TRACE_FAULT_STALL: &str = "trace.fault.stall";
    /// Trace span: crash recovery (checkpoint restore + replay).
    pub const TRACE_FAULT_RECOVERY: &str = "trace.fault.recovery";
    /// Trace span: writing a run checkpoint (driver timeline).
    pub const TRACE_CHECKPOINT: &str = "trace.checkpoint";

    /// Counter: embedding rows fetched through the batched (shard-grouped)
    /// read path.
    pub const HOTPATH_BATCH_READ_ROWS: &str = "hotpath.batch.read_rows";
    /// Counter: embedding rows updated through the batched (shard-grouped)
    /// apply path.
    pub const HOTPATH_BATCH_APPLY_ROWS: &str = "hotpath.batch.apply_rows";
    /// Gauge: total data-path shard lock acquisitions on the primary table
    /// over the run (what batching amortises).
    pub const HOTPATH_LOCK_ACQUISITIONS: &str = "hotpath.lock_acquisitions";
    /// Gauge: end-to-end training throughput in samples per *wall-clock*
    /// second (the perf-baseline number; simulated-time throughput lives in
    /// `train.*`).
    pub const HOTPATH_SAMPLES_PER_SEC: &str = "hotpath.samples_per_sec";
    /// Counter: embedding rows served lock-free by the seqlock snapshot
    /// read path (consistent copy on the first or a retried attempt).
    pub const HOTPATH_READ_SNAPSHOT: &str = "hotpath.read.snapshot";
    /// Counter: snapshot read attempts discarded because the row's seqlock
    /// version word was torn (odd, or changed across the copy).
    pub const HOTPATH_READ_RETRIES: &str = "hotpath.read.retries";
    /// Counter: rows the snapshot path handed to the locked fallback —
    /// retry budget exhausted under write pressure, or a tiered page fault.
    pub const HOTPATH_READ_FALLBACK: &str = "hotpath.read.fallback";
    /// Gauge: read path selected for the run's hot loop (1 = seqlock
    /// snapshot, 0 = locked escape hatch).
    pub const HOTPATH_READ_MODE: &str = "hotpath.read.mode";

    /// Counter: floating-point operations executed by the blocked dense
    /// kernels (2 per multiply-add; backward counted as 2× forward).
    pub const DENSE_GEMM_FLOPS: &str = "dense.gemm_flops";
    /// Gauge: high-water bytes reserved by the per-worker dense tape arenas
    /// (activations, gradient ping-pong buffers, model scratch), summed over
    /// workers. Flat after warmup by construction.
    pub const DENSE_ARENA_BYTES: &str = "dense.arena_bytes";
    /// Gauge: tape-buffer growth events after the first batch, summed over
    /// workers — the "zero steady-state allocations" contract; must be 0.
    pub const DENSE_TAPE_GROWTH: &str = "dense.tape.post_warmup_growth";
    /// Gauge: dense-path-only throughput — samples through forward + loss +
    /// backward per wall-clock second spent in that section (excludes
    /// embedding reads, collectives, and simulated-time bookkeeping;
    /// end-to-end throughput lives in `hotpath.samples_per_sec`).
    pub const DENSE_SAMPLES_PER_SEC: &str = "dense.samples_per_sec";

    /// Retired with the prefetch stage and emitted by nothing; the name is
    /// reserved because `benchmark/src/child.rs` still reads it (as 0).
    pub const PIPELINE_STALL_SECS: &str = "pipeline.stall_secs";
    /// Gauge: fraction of overlappable simulated communication hidden
    /// behind compute windows, aggregated over workers (deterministic —
    /// derived from `SimClock` charges, not wall time).
    pub const PIPELINE_OVERLAP_RATIO: &str = "pipeline.overlap_ratio";

    /// Per-stage attribution histograms, suffixed
    /// `<stage>.wall_secs` / `<stage>.sim_secs` where `<stage>` is one of
    /// [`PIPELINE_STAGES`]: wall-clock and simulated seconds one batch
    /// spent in that pipeline stage.
    pub const PIPELINE_STAGE_PREFIX: &str = "pipeline.stage.";
    /// The stage labels of the batch pipeline, in execution order:
    /// embedding fetch, dense compute, gradient write-back, dense sync.
    pub const PIPELINE_STAGES: [&str; 4] = ["fetch", "compute", "write_back", "sync"];
    /// Gauge (seconds): wall time the telemetry/profiling machinery itself
    /// consumed on the hot path (stage timestamps + histogram folds),
    /// summed over workers. `bench_dense` asserts this stays under 2% of
    /// the hot-path wall time.
    pub const TELEMETRY_OVERHEAD_SECS: &str = "telemetry.overhead_secs";
    /// Trace spans: per-stage sub-spans of a batch on the worker timeline
    /// (sync trace level only), suffixed by the [`PIPELINE_STAGES`] label.
    pub const TRACE_STAGE_PREFIX: &str = "trace.stage.";

    /// Counter: tiered-store page faults — cold pages loaded back from
    /// their spill-file slots into the resident buffer pool.
    pub const CAPACITY_FAULT_LOADS: &str = "capacity.fault.loads";
    /// Counter: resident pages evicted by the tiered buffer manager to
    /// stay inside the RAM budget.
    pub const CAPACITY_FAULT_EVICTIONS: &str = "capacity.fault.evictions";
    /// Counter: dirty page evictions that had to write the page back to
    /// its spill-file slot (clean evictions just drop the copy).
    pub const CAPACITY_FAULT_WRITEBACKS: &str = "capacity.fault.writebacks";
    /// Histogram (wall seconds): cost of one page fault — slot read,
    /// checksum, and decode into page buffers.
    pub const CAPACITY_FAULT_LOAD_SECS: &str = "capacity.fault.load_secs";
    /// Histogram (wall seconds): cost of one dirty write-back — encode,
    /// checksum, and slot write.
    pub const CAPACITY_FAULT_WRITEBACK_SECS: &str = "capacity.fault.writeback_secs";
    /// Counter: bytes of page images read from the spill file by faults.
    pub const CAPACITY_SPILL_BYTES_READ: &str = "capacity.spill.bytes_read";
    /// Counter: bytes of page images written to the spill file by dirty
    /// write-backs.
    pub const CAPACITY_SPILL_BYTES_WRITTEN: &str = "capacity.spill.bytes_written";
    /// Gauge: bytes of embedding pages resident in RAM at the end of the
    /// run (tiered store only; the in-memory store reports everything via
    /// `hotpath.*`).
    pub const CAPACITY_RESIDENT_BYTES: &str = "capacity.resident_bytes";
    /// Gauge: bytes of embedding pages whose authoritative copy lives in a
    /// spill file at the end of the run. Disjoint from
    /// `capacity.resident_bytes` — the two sum to the table's footprint,
    /// so RAM accounting never double-counts spilled partitions.
    pub const CAPACITY_SPILLED_BYTES: &str = "capacity.spilled_bytes";
    /// Gauge: configured RAM budget for the tiered store's resident pool,
    /// bytes.
    pub const CAPACITY_BUDGET_BYTES: &str = "capacity.budget_bytes";
    /// Trace span: one tiered-store page fault (load or write-back) on the
    /// driver timeline.
    pub const TRACE_CAPACITY_FAULT: &str = "trace.capacity.fault";
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate-level contract: recorders are object-safe and swap-able.
    #[test]
    fn recorders_are_object_safe() {
        let recorders: Vec<Box<dyn Recorder>> =
            vec![Box::new(NoopRecorder), Box::new(MemoryRecorder::new())];
        for r in &recorders {
            r.counter_add(names::EMBED_CACHE_HIT, 1);
            r.gauge_set(names::TRAIN_AUC, 0.5);
            r.histogram_observe("h", 1.0);
        }
    }

    #[test]
    fn traffic_prefix_constants_compose() {
        let r = MemoryRecorder::new();
        let name = format!("{}embed_data", names::TRAFFIC_BYTES_PREFIX);
        r.counter_add(&name, 64);
        assert_eq!(r.snapshot().counter_prefix_sum(names::TRAFFIC_BYTES_PREFIX), 64);
    }
}
