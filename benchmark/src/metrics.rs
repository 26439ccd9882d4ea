//! The metric names, units and directions the benchmark reports. The same
//! lists are in `BENCHMARK.json`; a unit test keeps the two in step.

/// An end-to-end metric: what a user of the trainer would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced pass; no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported with `--trace 0`, in this order.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("train_samples_per_s", "samples/s", "higher", 0.25),
    e2e("sim_samples_per_s", "samples/s", "higher", 0.06),
    e2e("wire_bytes_per_sample", "bytes", "lower", 0.18),
    e2e("cpu_s_per_ksample", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("final_quality", "ratio", "higher", 0.06),
];

/// Worker counts of the Fig. 10 ladder.
pub const LADDER: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// Reported with `--trace 1`, in this order.
pub const PER_LAYER: [PerLayer; 76] = [
    layer("data.assemble_us_per_batch", "us", "lower"),
    layer("bigraph.build_s", "s", "lower"),
    layer("partition.hybrid_s", "s", "lower"),
    layer("partition.edges_per_s", "1/s", "higher"),
    layer("partition.remote_fraction", "ratio", "lower"),
    layer("partition.replication_factor", "ratio", "lower"),
    layer("partition.sample_imbalance", "ratio", "lower"),
    layer("embedding.worker.read_us_per_batch", "us", "lower"),
    layer("embedding.worker.read_us_per_batch.tail", "us", "lower"),
    layer("embedding.worker.apply_us_per_batch", "us", "lower"),
    layer("embedding.worker.apply_us_per_batch.tail", "us", "lower"),
    layer("embedding.worker.local_hit_ratio", "ratio", "higher"),
    layer("embedding.worker.sync_rows_per_batch", "count", "lower"),
    layer("embedding.worker.deferred_ratio", "ratio", "higher"),
    layer("embedding.lfu.hit_ratio", "ratio", "higher"),
    layer("embedding.lfu.fill_us_per_batch", "us", "lower"),
    layer("embedding.table.read_rows_per_s", "1/s", "higher"),
    layer("embedding.table.apply_rows_per_s", "1/s", "higher"),
    layer("embedding.lock_acquisitions_per_batch", "count", "lower"),
    layer("embedding.read.fallback_ratio", "ratio", "lower"),
    layer("embedding.read.retries", "count", "lower"),
    layer("embedding.tiered.fault_loads_per_epoch", "count", "lower"),
    layer("embedding.tiered.writebacks_per_epoch", "count", "lower"),
    layer("embedding.tiered.refault_ratio", "ratio", "lower"),
    layer("embedding.tiered.read_us_per_batch", "us", "lower"),
    layer("embedding.tiered.apply_us_per_batch", "us", "lower"),
    layer("embedding.checkpoint.save_mb_per_s", "MB/s", "higher"),
    layer("embedding.checkpoint.load_mb_per_s", "MB/s", "higher"),
    layer("tensor.fwd_us_per_batch", "us", "lower"),
    layer("tensor.fwd_us_per_batch.tail", "us", "lower"),
    layer("tensor.bwd_us_per_batch", "us", "lower"),
    layer("tensor.bwd_us_per_batch.tail", "us", "lower"),
    layer("tensor.achieved_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm_gflops", "GFLOP/s", "higher"),
    layer("tensor.achieved_over_ceiling", "ratio", "higher"),
    layer("comms.allreduce_us_per_call", "us", "lower"),
    layer("comms.allreduce_us_per_call.tail", "us", "lower"),
    layer("comms.allreduce_calls_per_step", "count", "lower"),
    layer("comms.bytes_per_sample.embed_data", "bytes", "lower"),
    layer("comms.bytes_per_sample.keys_clocks", "bytes", "lower"),
    layer("comms.bytes_per_sample.allreduce", "bytes", "lower"),
    layer("comms.messages_per_step", "count", "lower"),
    layer("comms.quant.transport_mb_per_s", "MB/s", "higher"),
    layer("comms.quant.bytes_saved_ratio", "ratio", "higher"),
    layer("core.stage_share.fetch", "ratio", "lower"),
    layer("core.stage_share.compute", "ratio", "lower"),
    layer("core.stage_share.write_back", "ratio", "lower"),
    layer("core.stage_share.sync", "ratio", "lower"),
    layer("core.pipeline.overlap_ratio", "ratio", "higher"),
    layer("core.pipeline.stall_s", "s", "lower"),
    layer("core.replay.coverage", "ratio", "higher"),
    layer("core.replay.residual_share", "ratio", "lower"),
    layer("core.replay.vs_e2e", "ratio", "lower"),
    layer("cluster.sim_share.compute", "ratio", "lower"),
    layer("cluster.sim_share.embed_comm", "ratio", "lower"),
    layer("cluster.sim_share.meta_comm", "ratio", "lower"),
    layer("cluster.sim_share.allreduce_comm", "ratio", "lower"),
    layer("cluster.sim_share.host_io", "ratio", "lower"),
    layer("cluster.sim_samples_per_s.w1", "samples/s", "higher"),
    layer("cluster.sim_samples_per_s.w2", "samples/s", "higher"),
    layer("cluster.sim_samples_per_s.w4", "samples/s", "higher"),
    layer("cluster.sim_samples_per_s.w8", "samples/s", "higher"),
    layer("cluster.sim_samples_per_s.w16", "samples/s", "higher"),
    layer("cluster.sim_samples_per_s.w24", "samples/s", "higher"),
    layer("cluster.wire_bytes_per_sample.w1", "bytes", "lower"),
    layer("cluster.wire_bytes_per_sample.w2", "bytes", "lower"),
    layer("cluster.wire_bytes_per_sample.w4", "bytes", "lower"),
    layer("cluster.wire_bytes_per_sample.w8", "bytes", "lower"),
    layer("cluster.wire_bytes_per_sample.w16", "bytes", "lower"),
    layer("cluster.wire_bytes_per_sample.w24", "bytes", "lower"),
    layer("cluster.scaling_eff.w8", "ratio", "higher"),
    layer("cluster.scaling_eff.w24", "ratio", "higher"),
    layer("telemetry.trace_overhead_pct", "%", "lower"),
    layer("telemetry.profiler_overhead_pct", "%", "lower"),
    layer("telemetry.audit_violations", "count", "lower"),
    layer("core.replay.samples_per_s", "samples/s", "higher"),
];

/// Unit of the metric called `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
