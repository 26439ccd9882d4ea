//! Ablations beyond the paper's tables (referenced in its §7.2 prose):
//!
//! * **staleness vs throughput** — larger `s` trades sync traffic for
//!   throughput (complementing Table 2, which reports quality only);
//! * **replication budget sweep** — remote traffic vs replica memory as the
//!   vertex-cut budget grows (quantifying the "top 1 %" design point);
//! * **balance hyper-parameters** — effect of the α/β/γ soft-balance weights
//!   on cut quality and load balance;
//! * **static vs dynamic caching** — HET-GMP's graph-planned vertex-cut
//!   replicas against the predecessor HET's dynamic LFU cache at equal
//!   memory, replaying the same access stream through both;
//! * **re-partitioning under drift** — keep, redo, or warm-start refine a
//!   partition after the access pattern moves;
//! * **straggler tolerance** — uniform vs speed-proportional batches with
//!   one slow worker.

use std::fmt;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::Topology;
use hetgmp_data::{generate, CtrDataset, DatasetSpec};
use hetgmp_embedding::{CachedWorkerEmbedding, ShardedTable, WorkerEmbedding};
use hetgmp_embedding::StalenessBound;
use hetgmp_partition::{
    migration_cost, HybridConfig, HybridPartitioner, OneDeeConfig, PartitionMetrics,
    ReplicationBudget,
};

use hetgmp_telemetry::{Json, JsonlWriter};

use crate::experiments::{emit, render_table, Hooks};
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// Staleness-vs-throughput sweep result.
#[derive(Debug, Clone)]
pub struct StalenessThroughput {
    /// `(s label, throughput samples/s, sync traffic bytes)` rows.
    pub rows: Vec<(String, f64, u64)>,
}

/// Sweeps staleness and measures throughput + embedding traffic.
pub fn staleness_throughput(data: &CtrDataset, s_values: &[u64]) -> StalenessThroughput {
    staleness_throughput_instrumented(data, s_values, None, &Hooks::default())
}

/// Like [`staleness_throughput`], optionally appending one telemetry
/// snapshot per staleness setting (event `ablation.staleness`) and
/// threading observability [`Hooks`] through every trainer run; audited
/// runs carry an `audit` object in their JSONL records.
pub fn staleness_throughput_instrumented(
    data: &CtrDataset,
    s_values: &[u64],
    mut telemetry: Option<&mut JsonlWriter>,
    hooks: &Hooks,
) -> StalenessThroughput {
    let topo = Topology::pcie_island(8);
    let mut rows = Vec::new();
    for &s in s_values {
        let trainer = hooks.apply(Trainer::new(
            data,
            topo.clone(),
            StrategyConfig::het_gmp(s),
            TrainerConfig {
                model: ModelKind::Wdl,
                epochs: 1,
                dim: 16,
                batch_size: 256,
                hidden: vec![64, 32],
                ..Default::default()
            },
        ));
        let r = trainer.run();
        if let Some(w) = telemetry.as_deref_mut() {
            let mut extra = vec![
                ("staleness", Json::U64(s)),
                ("throughput", Json::F64(r.throughput)),
            ];
            extra.extend(hooks.audit_extra(&r));
            emit(w, "ablation.staleness", &extra, &r.telemetry);
        }
        rows.push((format!("s={s}"), r.throughput, r.traffic_bytes[0]));
    }
    StalenessThroughput { rows }
}

impl fmt::Display for StalenessThroughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — staleness vs throughput (WDL, 8 GPUs PCIe)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(s, tp, bytes)| vec![s.clone(), format!("{tp:.0}"), bytes.to_string()])
            .collect();
        write!(
            f,
            "{}",
            render_table(&["staleness", "samples/s", "embed bytes"], &rows)
        )
    }
}

/// Replication-budget sweep result.
#[derive(Debug, Clone)]
pub struct ReplicationSweep {
    /// `(budget fraction, remote fetches, replication factor)` rows.
    pub rows: Vec<(f64, u64, f64)>,
}

/// Sweeps the vertex-cut budget on a bigraph (8 partitions).
pub fn replication_sweep(graph: &Bigraph, fractions: &[f64]) -> ReplicationSweep {
    let mut rows = Vec::new();
    for &frac in fractions {
        let cfg = HybridConfig {
            rounds: 3,
            replication: if frac > 0.0 {
                Some(ReplicationBudget::FractionOfEmbeddings(frac))
            } else {
                None
            },
            ..Default::default()
        };
        let (part, _) =
            HybridPartitioner::new(cfg).partition_rounds(graph, &Topology::nvlink_island(8));
        let m = PartitionMetrics::compute(graph, &part);
        rows.push((frac, m.remote_fetches, m.replication_factor));
    }
    ReplicationSweep { rows }
}

impl fmt::Display for ReplicationSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — vertex-cut replication budget (8 partitions)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(frac, remote, rf)| {
                vec![
                    format!("{:.1}%", frac * 100.0),
                    remote.to_string(),
                    format!("{rf:.3}"),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["budget", "remote fetches", "replication factor"], &rows)
        )
    }
}

/// Balance hyper-parameter sweep result.
#[derive(Debug, Clone)]
pub struct BalanceSweep {
    /// `(label, remote fetches, sample imbalance max/mean)` rows.
    pub rows: Vec<(String, u64, f64)>,
}

/// Sweeps α/β/γ settings on a bigraph (8 partitions, 3 rounds, no
/// replication so partition quality is isolated).
pub fn balance_sweep(graph: &Bigraph) -> BalanceSweep {
    let settings = vec![
        ("alpha=0 beta=0 gamma=0", (0.0, 0.0, 0.0)),
        ("alpha=1 beta=1 gamma=0", (1.0, 1.0, 0.0)),
        ("alpha=1 beta=1 gamma=1", (1.0, 1.0, 1.0)),
        ("alpha=4 beta=4 gamma=1", (4.0, 4.0, 1.0)),
    ];
    let mut rows = Vec::new();
    for (label, (alpha, beta, gamma)) in settings {
        let cfg = HybridConfig {
            rounds: 3,
            replication: None,
            onedee: OneDeeConfig {
                alpha,
                beta,
                gamma,
                ..Default::default()
            },
            ..Default::default()
        };
        let (part, _) =
            HybridPartitioner::new(cfg).partition_rounds(graph, &Topology::nvlink_island(8));
        let m = PartitionMetrics::compute(graph, &part);
        rows.push((label.to_string(), m.remote_fetches, m.sample_imbalance()));
    }
    BalanceSweep { rows }
}

impl fmt::Display for BalanceSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — balance hyper-parameters (8 partitions)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, remote, imb)| {
                vec![label.clone(), remote.to_string(), format!("{imb:.3}")]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["setting", "remote fetches", "sample imbalance"], &rows)
        )
    }
}

/// Static (vertex-cut) vs dynamic (LFU) caching comparison.
#[derive(Debug, Clone)]
pub struct CacheComparison {
    /// `(design label, remote row transfers, bytes)` after one epoch replay.
    pub rows: Vec<(String, u64, u64)>,
}

/// Replays one epoch of batched reads through (a) HET-GMP's statically
/// replicated worker and (b) a HET-style LFU-cached worker with the same
/// per-worker cache capacity, on the same partition, and reports the remote
/// traffic each design generated.
pub fn cache_comparison(data: &CtrDataset, batch_size: usize) -> CacheComparison {
    let n = 8usize;
    let dim = 16usize;
    let graph = data.to_bigraph();
    let (part, _) = HybridPartitioner::new(HybridConfig::default())
        .partition_rounds(&graph, &Topology::nvlink_island(n));
    let freq: Vec<u64> = (0..graph.num_embeddings() as u32)
        .map(|e| graph.emb_frequency(e) as u64)
        .collect();
    // Equal memory: the LFU capacity equals the static design's secondary
    // count on each worker.
    let replicas = part.replicas_per_partition();
    let primaries = part.primaries_per_partition();
    let table = ShardedTable::new(graph.num_embeddings(), dim, 0.05, 1);
    let shards = part.samples_by_partition();

    let mut static_report = hetgmp_embedding::ReadReport::default();
    let mut dynamic_report = hetgmp_embedding::ReadReport::default();
    for w in 0..n as u32 {
        let capacity = replicas[w as usize] - primaries[w as usize];
        let mut stat =
            WorkerEmbedding::new(w, &table, &part, &freq, StalenessBound::Bounded(100));
        let mut dyn_w = CachedWorkerEmbedding::new(
            w,
            &table,
            &part,
            capacity,
            StalenessBound::Bounded(100),
        );
        let shard = &shards[w as usize];
        for chunk in shard.chunks(batch_size) {
            let samples: Vec<&[u32]> = chunk
                .iter()
                .map(|&s| graph.embeddings_of(s))
                .collect();
            let total: usize = samples.iter().map(|s| s.len()).sum();
            let mut out = vec![0.0f32; total * dim];
            static_report.merge(&stat.read_batch(&samples, &mut out));
            dynamic_report.merge(&dyn_w.read_batch(&samples, &mut out));
        }
    }
    CacheComparison {
        rows: vec![
            (
                "static vertex-cut (HET-GMP)".into(),
                static_report.remote_total(),
                static_report.data_bytes,
            ),
            (
                "dynamic LFU (HET-style)".into(),
                dynamic_report.remote_total(),
                dynamic_report.data_bytes,
            ),
        ],
    }
}

impl fmt::Display for CacheComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — static vertex-cut replicas vs dynamic LFU cache (equal memory)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, remote, bytes)| vec![l.clone(), remote.to_string(), bytes.to_string()])
            .collect();
        write!(
            f,
            "{}",
            render_table(&["design", "remote transfers", "bytes"], &rows)
        )
    }
}

/// Straggler tolerance via heterogeneity-aware batching.
#[derive(Debug, Clone)]
pub struct StragglerReport {
    /// `(setting, throughput samples/s)` rows.
    pub rows: Vec<(String, f64)>,
}

/// One worker runs `factor`× slower than its peers; compares uniform
/// batching (BSP stalls on the straggler every iteration) against
/// speed-proportional batching (paper §3's heterogeneity-aware
/// load-balancer for *computation*). `hooks` apply to every trainer run.
pub fn straggler_tolerance(data: &CtrDataset, factor: f64, hooks: &Hooks) -> StragglerReport {
    let topo = Topology::pcie_island(8);
    let mut scales = vec![1.0; 8];
    scales[0] = factor;
    let mut rows = Vec::new();
    for (label, scales_opt, aware) in [
        ("homogeneous".to_string(), None, false),
        (format!("{factor}x straggler, uniform batches"), Some(scales.clone()), false),
        (format!("{factor}x straggler, aware batching"), Some(scales), true),
    ] {
        let trainer = hooks.apply(Trainer::new(
            data,
            topo.clone(),
            StrategyConfig::het_gmp(100),
            TrainerConfig {
                model: ModelKind::Wdl,
                epochs: 1,
                // Compute-bound configuration: wide embeddings + a deep
                // tower so the FLOP term (the part a straggler slows)
                // dominates the fixed overhead.
                dim: 64,
                hidden: vec![512, 256],
                compute_scales: scales_opt,
                hetero_aware_batching: aware,
                ..Default::default()
            },
        ));
        rows.push((label, trainer.run().throughput));
    }
    StragglerReport { rows }
}

impl fmt::Display for StragglerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — straggler tolerance (WDL, 8 GPUs, 1 slow worker)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, tp)| vec![l.clone(), format!("{tp:.0}")])
            .collect();
        write!(f, "{}", render_table(&["setting", "samples/s"], &rows))
    }
}

/// Re-partitioning under access-pattern drift.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// `(policy, remote fetches on the drifted workload, rows migrated)`.
    pub rows: Vec<(String, u64, usize)>,
}

/// Simulates access-pattern drift: partition for yesterday's traffic, then
/// compare three policies on today's — keep the stale partition, re-run
/// Algorithm 1 from scratch (best cut, full migration), or warm-start
/// refine from the old placement (`HybridPartitioner::partition_from`).
pub fn repartition_drift(scale: f64) -> DriftReport {
    let mut spec = DatasetSpec::criteo_like(scale);
    let old_data = generate(&spec);
    let yesterday = old_data.to_bigraph();
    // Drift: 60 % of today's traffic repeats yesterday's pattern, 40 % is
    // fresh draws (new seed shifts which cluster slices and hot rows
    // dominate) — realistic day-over-day drift rather than total turnover.
    spec.seed ^= 0xD21F7;
    let new_data = generate(&spec);
    let keep = old_data.num_samples() * 6 / 10;
    let mut rows: Vec<Vec<u32>> = (0..keep)
        .map(|i| old_data.sample(i).to_vec())
        .collect();
    rows.extend(
        (keep..new_data.num_samples()).map(|i| new_data.sample(i).to_vec()),
    );
    let today = hetgmp_bigraph::Bigraph::from_samples(old_data.num_features, &rows);

    let cfg = HybridConfig {
        replication: None,
        ..Default::default()
    };
    let topo = Topology::nvlink_island(8);
    let partitioner = HybridPartitioner::new(cfg);
    let (old, _) = partitioner.partition_rounds(&yesterday, &topo);

    let stale = PartitionMetrics::compute(&today, &old);

    let (fresh, _) = HybridPartitioner::new(HybridConfig {
        replication: None,
        seed: 0xF2E5,
        ..Default::default()
    })
    .partition_rounds(&today, &topo);
    let fresh_m = PartitionMetrics::compute(&today, &fresh);

    let (warm, _) = partitioner.partition_from(&today, old.clone(), &topo);
    let warm_m = PartitionMetrics::compute(&today, &warm);

    DriftReport {
        rows: vec![
            ("keep stale partition".into(), stale.remote_fetches, 0),
            (
                "re-partition from scratch".into(),
                fresh_m.remote_fetches,
                migration_cost(&old, &fresh),
            ),
            (
                "warm-start refinement".into(),
                warm_m.remote_fetches,
                migration_cost(&old, &warm),
            ),
        ],
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — re-partitioning under access drift (criteo-like, 8 partitions)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(p, remote, moved)| vec![p.clone(), remote.to_string(), moved.to_string()])
            .collect();
        write!(
            f,
            "{}",
            render_table(&["policy", "remote fetches", "rows migrated"], &rows)
        )
    }
}

/// Every ablation, in the order `het-gmp experiment ablation` prints them.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Staleness vs throughput.
    pub staleness: StalenessThroughput,
    /// Vertex-cut replication budget.
    pub replication: ReplicationSweep,
    /// Soft-balance hyper-parameters.
    pub balance: BalanceSweep,
    /// Static vertex-cut replicas vs the dynamic LFU cache.
    pub cache: CacheComparison,
    /// Re-partitioning under access drift.
    pub drift: DriftReport,
    /// One 4× straggler, uniform vs speed-proportional batches.
    pub straggler: StragglerReport,
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}",
            self.staleness, self.replication, self.balance, self.cache, self.drift, self.straggler
        )
    }
}

/// Runs every ablation at the given scale (criteo-like), optionally
/// appending telemetry records — one snapshot per staleness setting (event
/// `ablation.staleness`) and one plain record per replication-sweep row
/// (event `ablation.replication` — partitioning only, no trainer, so the
/// row fields are the full story) — and threading observability [`Hooks`]
/// through every trainer run.
pub fn run_instrumented(
    scale: f64,
    mut telemetry: Option<&mut JsonlWriter>,
    hooks: &Hooks,
) -> AblationReport {
    let data = generate(&DatasetSpec::criteo_like(scale));
    let graph = data.to_bigraph();
    let staleness = staleness_throughput_instrumented(
        &data,
        &[0, 10, 100, 1000],
        telemetry.as_deref_mut(),
        hooks,
    );
    let replication = replication_sweep(&graph, &[0.0, 0.005, 0.01, 0.05, 0.2]);
    if let Some(w) = telemetry {
        for &(frac, remote, factor) in &replication.rows {
            let record = Json::Obj(vec![
                ("event".into(), Json::from("ablation.replication")),
                ("budget_fraction".into(), Json::F64(frac)),
                ("remote_fetches".into(), Json::U64(remote)),
                ("replication_factor".into(), Json::F64(factor)),
            ]);
            if let Err(e) = w.write_record(&record) {
                eprintln!("telemetry: {e}");
            }
        }
    }
    AblationReport {
        staleness,
        replication,
        balance: balance_sweep(&graph),
        cache: cache_comparison(&data, 256),
        drift: repartition_drift(scale),
        straggler: straggler_tolerance(&data, 4.0, hooks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_budget_monotone() {
        let data = generate(&DatasetSpec::avazu_like(0.04));
        let graph = data.to_bigraph();
        let sweep = replication_sweep(&graph, &[0.0, 0.01, 0.1]);
        assert_eq!(sweep.rows.len(), 3);
        // More budget → fewer remote fetches, more replicas.
        assert!(sweep.rows[1].1 <= sweep.rows[0].1);
        assert!(sweep.rows[2].1 <= sweep.rows[1].1);
        assert!(sweep.rows[2].2 > sweep.rows[0].2);
        assert!(sweep.to_string().contains("budget"));
    }

    #[test]
    fn staleness_increases_throughput() {
        let data = generate(&DatasetSpec::avazu_like(0.04));
        let sweep = staleness_throughput(&data, &[0, 1000]);
        let (_, tp0, bytes0) = &sweep.rows[0];
        let (_, tp1k, bytes1k) = &sweep.rows[1];
        // Looser staleness can only reduce sync traffic.
        assert!(bytes1k <= bytes0, "traffic s=1000 {bytes1k} !<= s=0 {bytes0}");
        // And throughput should not meaningfully degrade (small wobble from
        // scheduling noise is fine; the byte reduction above is the claim).
        assert!(*tp1k >= tp0 * 0.85, "throughput regressed: {tp0} -> {tp1k}");
        assert!(sweep.to_string().contains("staleness"));
    }

    #[test]
    fn aware_batching_absorbs_stragglers() {
        // A strong straggler (10x) so the compute term dominates the
        // iteration and the BSP stall is unmistakable.
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let report = straggler_tolerance(&data, 10.0, &Hooks::default());
        let homogeneous = report.rows[0].1;
        let uniform = report.rows[1].1;
        let aware = report.rows[2].1;
        assert!(uniform < homogeneous * 0.7, "uniform {uniform} vs homo {homogeneous}");
        // Speed-proportional batching recovers a large share of it.
        assert!(aware > uniform * 1.3, "aware {aware} vs uniform {uniform}");
        assert!(report.to_string().contains("straggler"));
    }

    #[test]
    fn warm_repartitioning_pareto_dominates() {
        let report = repartition_drift(0.05);
        assert_eq!(report.rows.len(), 3);
        let stale = report.rows[0].1;
        let (fresh_remote, fresh_moved) = (report.rows[1].1, report.rows[1].2);
        let (warm_remote, warm_moved) = (report.rows[2].1, report.rows[2].2);
        // Refinement recovers most of the from-scratch cut quality…
        assert!(warm_remote < stale, "warm {warm_remote} !< stale {stale}");
        assert!(
            (warm_remote as f64) < 1.3 * fresh_remote as f64,
            "warm {warm_remote} vs fresh {fresh_remote}"
        );
        // …while migrating far fewer rows.
        assert!(
            warm_moved * 2 < fresh_moved,
            "warm moved {warm_moved} vs fresh {fresh_moved}"
        );
        assert!(report.to_string().contains("drift"));
    }

    #[test]
    fn dynamic_cache_competitive_with_static() {
        let data = generate(&DatasetSpec::avazu_like(0.05));
        let cmp = cache_comparison(&data, 128);
        assert_eq!(cmp.rows.len(), 2);
        let static_remote = cmp.rows[0].1;
        let dynamic_remote = cmp.rows[1].1;
        assert!(static_remote > 0 && dynamic_remote > 0);
        // The dynamic cache pays cold-start fetches but adapts; both designs
        // should land within a small factor of each other at equal memory.
        let ratio = dynamic_remote as f64 / static_remote as f64;
        assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
        assert!(cmp.to_string().contains("LFU"));
    }

    #[test]
    fn balance_weights_trade_cut_for_balance() {
        let data = generate(&DatasetSpec::avazu_like(0.04));
        let graph = data.to_bigraph();
        let sweep = balance_sweep(&graph);
        assert_eq!(sweep.rows.len(), 4);
        // The hard cap bounds imbalance in every setting.
        for (label, _, imb) in &sweep.rows {
            assert!(*imb <= 1.2 + 1e-9, "{label}: imbalance {imb}");
        }
        assert!(sweep.to_string().contains("balance"));
    }
}
