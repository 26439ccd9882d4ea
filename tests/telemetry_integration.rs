//! Cross-crate telemetry integration, end to end through a real training
//! run: `TrainResult::traffic_bytes` is the merged snapshot's per-class
//! byte totals, the sync-level `trace.traffic` instants add up to the same
//! totals, and the JSONL export carries those exact numbers.

use std::sync::Arc;

use het_gmp::cluster::Topology;
use het_gmp::comms::TrafficClass;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{Trainer, TrainerConfig};
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::telemetry::{names, Json, JsonlWriter, TraceCollector, TraceLevel};

fn fixed_seed_run(strategy: StrategyConfig) -> het_gmp::core::trainer::TrainResult {
    fixed_seed_trainer(strategy, |t| t)
}

/// The fixed-seed 4-worker run, with `hooks` applied to its trainer.
fn fixed_seed_trainer(
    strategy: StrategyConfig,
    hooks: impl FnOnce(Trainer<'_>) -> Trainer<'_>,
) -> het_gmp::core::trainer::TrainResult {
    let mut spec = DatasetSpec::tiny();
    spec.num_samples = 512;
    let data = generate(&spec);
    let cfg = TrainerConfig {
        dim: 8,
        hidden: vec![16],
        batch_size: 64,
        epochs: 1,
        seed: 1234,
        ..TrainerConfig::default()
    };
    hooks(Trainer::new(&data, Topology::pcie_island(4), strategy, cfg)).run()
}

fn fixed_seed_result() -> het_gmp::core::trainer::TrainResult {
    fixed_seed_run(StrategyConfig::het_gmp(10))
}

/// Each design publishes its own read counters and no other's: HET-GMP's
/// inter-embedding syncs and stale-gradient backlog, HET's cache hits and
/// misses, which are the shared read counters regrouped.
#[test]
fn each_design_publishes_its_own_counters() {
    let gmp = fixed_seed_run(StrategyConfig::het_gmp(10)).telemetry;
    assert!(gmp.counters.contains_key(names::EMBED_SYNC_INTER));
    assert!(gmp.gauges.contains_key(names::EMBED_PENDING_ROWS));
    assert!(!gmp.counters.contains_key(names::EMBED_CACHE_HIT));
    assert!(!gmp.counters.contains_key(names::EMBED_CACHE_MISS));

    let het = fixed_seed_run(StrategyConfig::het_cache(10, 0.1)).telemetry;
    let hit = het.counter(names::EMBED_CACHE_HIT);
    let miss = het.counter(names::EMBED_CACHE_MISS);
    assert!(hit > 0 && miss > 0, "hit {hit}, miss {miss}");
    assert_eq!(
        hit,
        het.counter(names::EMBED_READ_LOCAL_FRESH) + het.counter(names::EMBED_SYNC_INTRA)
    );
    assert_eq!(miss, het.counter(names::EMBED_READ_REMOTE));
    assert!(!het.counters.contains_key(names::EMBED_SYNC_INTER));
    assert!(!het.gauges.contains_key(names::EMBED_PENDING_ROWS));
}

/// The Figure 8 parity check: `TrainResult::traffic_bytes` and the
/// `traffic.bytes.*` counters of `TrainResult::telemetry`, the merged
/// recorder snapshot, must agree exactly on the same run.
#[test]
fn fig8_traffic_classes_agree_between_snapshot_and_ledger() {
    let r = fixed_seed_result();
    for (i, class) in TrafficClass::all().into_iter().enumerate() {
        assert_eq!(
            r.telemetry.counter(class.bytes_metric()),
            r.traffic_bytes[i],
            "class {} diverged between snapshot and ledger",
            class.metric_suffix()
        );
    }
    // A 4-worker partitioned run genuinely moves embedding bytes — the
    // equality above is not vacuous.
    assert!(r.traffic_bytes[0] > 0, "no embedding traffic recorded");
    assert!(r.traffic_bytes[2] > 0, "no all-reduce traffic recorded");
}

/// Every traffic count the charge path records also drops a
/// `trace.traffic` instant on the charging worker's track at sync trace
/// level: summed per class, their bytes are `TrainResult::traffic_bytes`.
#[test]
fn trace_traffic_instants_add_up_to_the_traffic_totals() {
    let tracer = Arc::new(TraceCollector::new(4, TraceLevel::Sync));
    let r = fixed_seed_trainer(StrategyConfig::het_gmp(10), |t| {
        t.with_tracer(Arc::clone(&tracer))
    });
    assert_eq!(
        tracer.dropped(),
        0,
        "the ring dropped events; the sums would be partial"
    );
    let mut traced = [0u64; 3];
    for e in tracer
        .events()
        .iter()
        .filter(|e| e.name == names::TRACE_TRAFFIC)
    {
        let arg = |k: &str| &e.args.iter().find(|(n, _)| n == k).expect("traffic arg").1;
        let class = arg("class").as_str().expect("class label");
        let i = TrafficClass::all()
            .iter()
            .position(|c| c.metric_suffix() == class)
            .expect("a known class");
        traced[i] += arg("bytes").as_u64().expect("byte count");
    }
    assert_eq!(traced, r.traffic_bytes);
    assert!(traced.iter().all(|&b| b > 0), "{traced:?}");
}

/// The JSONL export carries the exact per-class byte totals (the
/// acceptance path for `train --telemetry out.jsonl`).
#[test]
fn jsonl_export_carries_exact_traffic_totals() {
    let r = fixed_seed_result();
    let dir = std::env::temp_dir().join(format!("hetgmp-tele-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.jsonl");

    let mut w = JsonlWriter::create(&path).unwrap();
    w.write_snapshot("final", &[("auc", Json::F64(r.final_auc))], &r.telemetry)
        .unwrap();
    w.flush().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let line = text.lines().next().expect("one record");
    assert!(line.starts_with(r#"{"event":"final""#), "{line}");
    for (i, class) in TrafficClass::all().into_iter().enumerate() {
        let needle = format!(r#""{}":{}"#, class.bytes_metric(), r.traffic_bytes[i]);
        assert!(line.contains(&needle), "missing {needle} in {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
