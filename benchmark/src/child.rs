//! What one benchmark process measures: either the end-to-end metrics of a
//! workload (telemetry hooks off) or its per-layer metrics (the traced
//! pass). Each runs in a process of its own so that peak RSS, allocator
//! state and spill files of one run never leak into the next.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hetgmp_cluster::Topology;
use hetgmp_core::{KgTrainerConfig, StrategyConfig, TrainResult, Trainer, TrainerConfig};
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_partition::PartitionMetrics;
use hetgmp_telemetry::{names, AuditMode, TraceCollector, TraceLevel};

use crate::metrics::{END_TO_END, LADDER, PER_LAYER};
use crate::replay::{gemm_ceiling_gflops, replay};
use crate::span::{per_step_us, self_seconds_by_name, to_jsonl};
use crate::stats::{median, tail};
use crate::workloads::{Data, Family, RunOutcome, Workload};

/// What a child hands back: the contract's result line, as a value.
pub struct Measurement {
    /// Every correctness check passed.
    pub correct: bool,
    /// Batches attempted over the measured runs.
    pub attempted: u64,
    /// Batches of runs that errored, diverged or failed a check.
    pub failed: u64,
    /// Metric name to value, in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Quality floors: a run below them is wrong, whatever its speed. They sit
/// well under the worst seed seen while sizing (AUC 0.676, MRR 0.573,
/// retention 0.968) because the planted signal differs from seed to seed.
const AUC_FLOOR: f64 = 0.60;
const MRR_FLOOR: f64 = 0.40;
const RETENTION_FLOOR: f64 = 0.90;

/// Zero-epoch runs are timed for `setup_s` until they add up to this many
/// seconds, at least 5 and at most 25 of them; their median is reported.
const SETUP_BUDGET_S: f64 = 1.0;

/// User plus system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name; in clock ticks, 100 per second on every Linux target
    // this runs on.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a full run of a workload must report to count as correct.
struct Checks {
    expected_samples: u64,
    quality_floor: f64,
    tiered: bool,
}

impl Checks {
    fn of(workload: &Workload, expected_samples: u64, smoke: bool) -> Self {
        Self {
            expected_samples,
            // A smoke run is too short to learn anything; it checks the
            // plumbing.
            quality_floor: match workload.family {
                _ if smoke => 0.0,
                Family::Ctr { .. } => AUC_FLOOR,
                Family::Kg { .. } => MRR_FLOOR,
            },
            tiered: workload.is_tiered(),
        }
    }

    fn pass(&self, out: &RunOutcome) -> bool {
        out.nonfinite == 0
            && out.samples == self.expected_samples
            && out.quality >= self.quality_floor
            && (!self.tiered || out.capacity.is_some_and(|c| c.fault_loads > 0))
    }
}

/// The end-to-end pass: warm-up, timed set-ups, a single-worker reference
/// for quality retention, then full runs until `seconds` have been
/// measured. Medians over the repeated runs are reported.
pub fn measure_e2e(workload: &Workload, data: &Data, seconds: f64, smoke: bool) -> Measurement {
    let epochs = workload.epochs();
    let (batches_per_run, expected_samples) = workload.expected(data);
    let checks = Checks::of(workload, expected_samples, smoke);

    // One discarded set-up warms the allocator and the page cache.
    workload.run(data, 0).expect("warm-up set-up runs");
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        workload.run(data, 0).expect("set-up runs");
        setups.push(t.elapsed().as_secs_f64());
        let enough = setups.len() >= 5 && setups.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if smoke || enough || setups.len() == 25 {
            break;
        }
    }
    let setup_s = median(&setups);

    // The same model trained with no distribution effects, on the same
    // data: what final quality is measured against.
    let reference = workload
        .reference()
        .run(data, epochs)
        .expect("single-worker reference runs");

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut rates = Vec::new();
    let mut good: Vec<RunOutcome> = Vec::new();
    let cpu_start = cpu_seconds();
    let window = Instant::now();
    loop {
        let t = Instant::now();
        let result = workload.run(data, epochs);
        let wall = t.elapsed().as_secs_f64();
        attempted += batches_per_run;
        match result {
            Ok(out) if checks.pass(&out) => {
                rates.push(out.samples as f64 / (wall - setup_s));
                good.push(out);
            }
            Ok(out) => {
                eprintln!("run failed its checks: {out:?} (expected {expected_samples} samples)");
                failed += batches_per_run;
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                failed += batches_per_run;
            }
        }
        // Stop when the next run would end further past the window than
        // stopping now falls short of it.
        let elapsed = window.elapsed().as_secs_f64();
        if smoke || elapsed + wall / 2.0 >= seconds {
            break;
        }
    }
    let cpu_s = cpu_seconds() - cpu_start;

    if good.is_empty() {
        return Measurement {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        };
    }
    let med = |f: &dyn Fn(&RunOutcome) -> f64| median(&good.iter().map(f).collect::<Vec<_>>());
    let total_samples: u64 = attempted / batches_per_run * expected_samples;
    let retention = med(&|o| o.quality / reference.quality);
    let values = [
        median(&rates),
        med(&|o| o.samples as f64 / o.sim_time),
        med(&|o| o.wire_bytes as f64 / o.samples as f64),
        cpu_s / (total_samples as f64 / 1000.0),
        setup_s,
        peak_rss_mib(),
        retention,
    ];
    eprintln!(
        "{} full runs ({} ok), run wall - setup: min {:.4}s max {:.4}s; setup_s: n {} min {:.4}s max {:.4}s; \
         reference quality {:.4}, quality min {:.4} max {:.4}",
        attempted / batches_per_run,
        good.len(),
        rates.iter().map(|r| expected_samples as f64 / r).fold(f64::INFINITY, f64::min),
        rates.iter().map(|r| expected_samples as f64 / r).fold(0.0, f64::max),
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        reference.quality,
        good.iter().map(|o| o.quality).fold(f64::INFINITY, f64::min),
        good.iter().map(|o| o.quality).fold(0.0, f64::max),
    );
    Measurement {
        correct: failed == 0 && (smoke || retention >= RETENTION_FLOOR),
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
    }
}

/// Per-layer values under construction: unset names report 0 (the layer
/// does no work on this workload), unknown names are a bug.
struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn set_partition(&mut self, pm: &PartitionMetrics) {
        self.set("partition.remote_fraction", pm.remote_fraction());
        self.set("partition.replication_factor", pm.replication_factor);
        self.set("partition.sample_imbalance", pm.sample_imbalance());
    }

    /// Median under `name`, tail under `name.tail`.
    fn set_timing(&mut self, name: &'static str, series: &[f64]) {
        if series.is_empty() {
            return;
        }
        let p50 = median(series);
        self.set(name, p50);
        let (pct, value) = tail(series).unwrap_or((50.0, p50));
        self.set(
            layer_name(name, ".tail").expect("timings have a tail"),
            value,
        );
        eprintln!(
            "{name}: p50 {p50:.1} us, p{pct:.1} {value:.1} us, n {}",
            series.len()
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced pass: the layer replay (source a), one traced and audited
/// run next to an untraced one (source b), and the worker ladder.
pub fn measure_layers(
    name: &str,
    workload: &Workload,
    data: &Data,
    smoke: bool,
    out_dir: &std::path::Path,
) -> Measurement {
    let mut v = LayerValues(BTreeMap::new());
    let epochs = workload.epochs();
    let (batches_per_run, expected_samples) = workload.expected(data);
    let checks = Checks::of(workload, expected_samples, smoke);
    let n = workload.workers() as f64;
    let worker_steps = batches_per_run as f64 / n;

    // ---- (a) layer replay --------------------------------------------------
    let steps = if smoke { 10 } else { 200 };
    let rep = replay(workload, data, steps);
    let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
    std::fs::write(&trace_path, to_jsonl(&rep.logs)).expect("benchmark/out is writable");
    let by_name = self_seconds_by_name(&rep.logs);
    let root_total: f64 = rep
        .logs
        .iter()
        .flatten()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    let residual = by_name.get("core.step").copied().unwrap_or(0.0);
    v.set(
        "core.replay.coverage",
        ratio(root_total - residual, root_total),
    );
    v.set("core.replay.residual_share", ratio(residual, root_total));
    let replay_rate = ratio(rep.samples as f64, rep.wall_s);
    v.set("core.replay.samples_per_s", replay_rate);
    for (layer, secs) in &by_name {
        eprintln!(
            "replay self time {layer}: {:.1}% ",
            100.0 * ratio(*secs, root_total)
        );
    }

    let logs = &rep.logs;
    v.set(
        "data.assemble_us_per_batch",
        median_or_zero(&per_step_us(logs, &["data.assemble"])),
    );
    v.set("bigraph.build_s", rep.bigraph_build_s);
    v.set("partition.hybrid_s", rep.partition_s);
    v.set(
        "partition.edges_per_s",
        ratio(rep.edges as f64, rep.partition_s),
    );
    v.set_timing(
        "embedding.worker.read_us_per_batch",
        &per_step_us(logs, &["embedding.worker.read"]),
    );
    v.set_timing(
        "embedding.worker.apply_us_per_batch",
        &per_step_us(logs, &["embedding.worker.apply"]),
    );
    let r = &rep.read;
    v.set(
        "embedding.worker.local_hit_ratio",
        ratio((r.local_primary + r.local_fresh) as f64, r.lookups() as f64),
    );
    let batches = (steps * workload.workers()) as f64;
    v.set(
        "embedding.worker.sync_rows_per_batch",
        (r.intra_syncs + r.inter_syncs) as f64 / batches,
    );
    let u = &rep.update;
    v.set(
        "embedding.worker.deferred_ratio",
        ratio(u.deferred as f64, (u.deferred + u.updates()) as f64),
    );
    v.set(
        "embedding.lfu.fill_us_per_batch",
        median_or_zero(&rep.lfu_fill_us),
    );
    v.set("embedding.table.read_rows_per_s", rep.table_read_rows_per_s);
    v.set(
        "embedding.table.apply_rows_per_s",
        rep.table_apply_rows_per_s,
    );
    if workload.is_tiered() {
        v.set(
            "embedding.tiered.read_us_per_batch",
            median_or_zero(&per_step_us(logs, &["embedding.store.read"])),
        );
        v.set(
            "embedding.tiered.apply_us_per_batch",
            median_or_zero(&per_step_us(
                logs,
                &["embedding.store.apply", "embedding.store.write"],
            )),
        );
    }
    v.set("embedding.checkpoint.save_mb_per_s", rep.ckpt_save_mb_per_s);
    v.set("embedding.checkpoint.load_mb_per_s", rep.ckpt_load_mb_per_s);
    v.set_timing(
        "tensor.fwd_us_per_batch",
        &per_step_us(logs, &["tensor.fwd"]),
    );
    v.set_timing(
        "tensor.bwd_us_per_batch",
        &per_step_us(logs, &["tensor.bwd"]),
    );
    let allreduce: Vec<f64> = logs
        .iter()
        .flatten()
        .filter(|s| s.name == "comms.allreduce")
        .map(|s| s.duration_ns() as f64 * 1e-3)
        .collect();
    v.set(
        "comms.allreduce_calls_per_step",
        allreduce.len() as f64 / batches,
    );
    v.set_timing("comms.allreduce_us_per_call", &allreduce);
    if let (Family::Ctr { config, .. }, Data::Ctr(d)) = (&workload.family, data) {
        let dense_secs: f64 = ["tensor.fwd", "tensor.bwd"]
            .iter()
            .filter_map(|k| by_name.get(k))
            .sum();
        let achieved = ratio(rep.gemm_flops as f64, dense_secs) / 1e9;
        let mut dims = vec![d.num_fields * config.dim];
        dims.extend(&config.hidden);
        let ceiling = gemm_ceiling_gflops(config.batch_size, &dims);
        v.set("tensor.achieved_gflops", achieved);
        v.set("tensor.gemm_gflops", ceiling);
        v.set("tensor.achieved_over_ceiling", ratio(achieved, ceiling));
        if !config.sync_format.is_lossless() {
            let secs: f64 = logs
                .iter()
                .flatten()
                .filter(|s| s.name == "comms.quant.transport")
                .map(|s| s.duration_ns() as f64 * 1e-9)
                .sum();
            let mb = batches * rep.dense_len as f64 * 4.0 / 1e6;
            v.set("comms.quant.transport_mb_per_s", ratio(mb, secs));
        }
    }

    // ---- (b) in situ: untraced run, then traced + audited run ---------------
    let t = Instant::now();
    workload.run(data, 0).expect("set-up runs");
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plain = workload.run(data, epochs);
    let plain_wall = t.elapsed().as_secs_f64();
    let mut correct = matches!(&plain, Ok(o) if checks.pass(o));
    let e2e_rate = ratio(expected_samples as f64, plain_wall - setup_s);
    v.set("core.replay.vs_e2e", ratio(replay_rate, e2e_rate));

    match (&workload.family, data) {
        (Family::Ctr { config, .. }, Data::Ctr(d)) => {
            let tracer = Arc::new(TraceCollector::new(workload.workers(), TraceLevel::Batch));
            let t = Instant::now();
            let traced = workload
                .ctr_trainer(d, config.clone())
                .with_tracer(tracer)
                .with_audit(AuditMode::Strict)
                .try_run();
            let traced_wall = t.elapsed().as_secs_f64();
            match traced {
                Ok(r) => {
                    correct &= checks.pass(&RunOutcome::from_ctr(&r));
                    in_situ(
                        &mut v,
                        &r,
                        traced_wall,
                        plain_wall,
                        worker_steps,
                        epochs,
                        rep.tiered_pages,
                    );
                }
                Err(e) => {
                    eprintln!("traced run failed: {e}");
                    correct = false;
                }
            }
        }
        (Family::Kg { config, .. }, Data::Kg(kg)) => {
            // `KgTrainer::run` exposes its partition quality and nothing
            // else; take it from a set-up-only run.
            let r = workload
                .kg_trainer(
                    kg,
                    KgTrainerConfig {
                        epochs: 0,
                        ..config.clone()
                    },
                )
                .run();
            v.set_partition(&r.partition_metrics);
        }
        _ => unreachable!("data generated by another workload"),
    }

    // ---- (b) the Fig. 10 ladder: simulated time and bytes only --------------
    ladder(&mut v, workload.seed(), smoke);

    let audit_clean =
        v.0.get("telemetry.audit_violations")
            .is_none_or(|&n| n == 0.0);
    let correct = correct && audit_clean;
    Measurement {
        correct,
        attempted: 2 * batches_per_run,
        failed: if correct { 0 } else { 2 * batches_per_run },
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, v.0.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
    }
}

/// The per-layer metric called `prefix` + `suffix`, if there is one.
fn layer_name(prefix: &str, suffix: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix(prefix) == Some(suffix))
}

fn median_or_zero(series: &[f64]) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        median(series)
    }
}

/// Per-layer metrics read from the public fields of a traced, audited run.
fn in_situ(
    v: &mut LayerValues,
    r: &TrainResult,
    traced_wall: f64,
    plain_wall: f64,
    worker_steps: f64,
    epochs: usize,
    tiered_pages: usize,
) {
    let tel = &r.telemetry;
    let samples = r.samples_processed as f64;
    if let Some(pm) = &r.partition_metrics {
        v.set_partition(pm);
    }
    let hit = tel.counter(names::EMBED_CACHE_HIT) as f64;
    let miss = tel.counter(names::EMBED_CACHE_MISS) as f64;
    v.set("embedding.lfu.hit_ratio", ratio(hit, hit + miss));
    let workers = r.per_worker.len() as f64;
    v.set(
        "embedding.lock_acquisitions_per_batch",
        tel.gauge(names::HOTPATH_LOCK_ACQUISITIONS).unwrap_or(0.0) / (worker_steps * workers),
    );
    let snapshot = tel.counter(names::HOTPATH_READ_SNAPSHOT) as f64;
    let fallback = tel.counter(names::HOTPATH_READ_FALLBACK) as f64;
    v.set(
        "embedding.read.fallback_ratio",
        ratio(fallback, snapshot + fallback),
    );
    v.set(
        "embedding.read.retries",
        tel.counter(names::HOTPATH_READ_RETRIES) as f64,
    );
    if let Some(c) = &r.capacity {
        v.set(
            "embedding.tiered.fault_loads_per_epoch",
            c.fault_loads as f64 / epochs as f64,
        );
        v.set(
            "embedding.tiered.writebacks_per_epoch",
            c.writebacks as f64 / epochs as f64,
        );
        v.set(
            "embedding.tiered.refault_ratio",
            ratio(c.fault_loads as f64, tiered_pages as f64),
        );
    }
    for (i, class) in ["embed_data", "keys_clocks", "allreduce"]
        .into_iter()
        .enumerate()
    {
        let name = layer_name("comms.bytes_per_sample.", class).expect("a metric per class");
        v.set(name, r.traffic_bytes[i] as f64 / samples);
    }
    v.set(
        "comms.messages_per_step",
        tel.counter_prefix_sum(names::TRAFFIC_MESSAGES_PREFIX) as f64 / (worker_steps * workers),
    );
    let saved = tel.counter(names::COMMS_QUANT_BYTES_SAVED) as f64;
    v.set(
        "comms.quant.bytes_saved_ratio",
        ratio(saved, saved + r.traffic_bytes[0] as f64),
    );
    let stage_secs: Vec<f64> = names::PIPELINE_STAGES
        .iter()
        .map(|s| {
            tel.histogram(&format!("{}{s}.wall_secs", names::PIPELINE_STAGE_PREFIX))
                .sum
        })
        .collect();
    let stage_total: f64 = stage_secs.iter().sum();
    for (stage, secs) in names::PIPELINE_STAGES.iter().zip(&stage_secs) {
        let name = layer_name("core.stage_share.", stage).expect("a metric per stage");
        v.set(name, ratio(*secs, stage_total));
    }
    v.set(
        "core.pipeline.overlap_ratio",
        tel.gauge(names::PIPELINE_OVERLAP_RATIO).unwrap_or(0.0),
    );
    v.set(
        "core.pipeline.stall_s",
        tel.gauge(names::PIPELINE_STALL_SECS).unwrap_or(0.0),
    );
    let b = &r.breakdown;
    let sim_total = b.total();
    v.set("cluster.sim_share.compute", ratio(b.compute, sim_total));
    v.set(
        "cluster.sim_share.embed_comm",
        ratio(b.embed_comm, sim_total),
    );
    v.set("cluster.sim_share.meta_comm", ratio(b.meta_comm, sim_total));
    v.set(
        "cluster.sim_share.allreduce_comm",
        ratio(b.allreduce_comm, sim_total),
    );
    v.set("cluster.sim_share.host_io", ratio(b.host_io, sim_total));
    v.set(
        "telemetry.trace_overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
    );
    // The profilers' seconds are summed over worker threads that run side
    // by side, so the base is thread-seconds.
    v.set(
        "telemetry.profiler_overhead_pct",
        100.0
            * ratio(
                tel.gauge(names::TELEMETRY_OVERHEAD_SECS).unwrap_or(0.0),
                traced_wall * workers,
            ),
    );
    v.set(
        "telemetry.audit_violations",
        r.audit
            .as_ref()
            .map_or(0.0, |a| a.total_violations() as f64),
    );
}

/// Fig. 10's ladder on `avazu_like`, `cluster_b_scaled(n)`, one epoch. The
/// host has fewer cores than the ladder has workers, so only simulated
/// time and bytes are reported.
fn ladder(v: &mut LayerValues, seed: u64, smoke: bool) {
    let mut spec = DatasetSpec::avazu_like(if smoke { 0.05 } else { 0.25 });
    spec.cluster_affinity = 0.9;
    spec.seed = seed;
    let data = generate(&spec);
    let mut base = 0.0;
    for workers in LADDER {
        let config = TrainerConfig {
            epochs: 1,
            seed,
            ..TrainerConfig::default()
        };
        let r = Trainer::new(
            &data,
            Topology::cluster_b_scaled(workers),
            StrategyConfig::het_gmp(100),
            config,
        )
        .run();
        let rate = r.throughput;
        if workers == 1 {
            base = rate;
        }
        let wire = r.traffic_bytes.iter().sum::<u64>() as f64 / r.samples_processed as f64;
        let rung = format!("w{workers}");
        let find = |prefix: &str| layer_name(prefix, &rung);
        v.set(
            find("cluster.sim_samples_per_s.").expect("a metric per rung"),
            rate,
        );
        v.set(
            find("cluster.wire_bytes_per_sample.").expect("a metric per rung"),
            wire,
        );
        if let Some(name) = find("cluster.scaling_eff.") {
            v.set(name, ratio(rate, base * workers as f64));
        }
    }
}
