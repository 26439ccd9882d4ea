//! End-to-end integration: dataset → bigraph → partition → distributed
//! training → experiment reports, across every public crate.

use het_gmp::bigraph::DegreeStats;
use het_gmp::cluster::Topology;
use het_gmp::core::models::ModelKind;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{Trainer, TrainerConfig};
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::partition::{HybridConfig, HybridPartitioner, PartitionMetrics};

fn dataset() -> het_gmp::data::CtrDataset {
    let mut spec = DatasetSpec::avazu_like(0.04);
    spec.cluster_affinity = 0.9;
    generate(&spec)
}

#[test]
fn pipeline_dataset_to_partition_to_training() {
    let data = dataset();
    let graph = data.to_bigraph();

    // The generator plants the paper's two graph properties.
    let stats = DegreeStats::embeddings(&graph);
    assert!(stats.gini > 0.5, "skewness missing: gini {}", stats.gini);

    // Algorithm 1 produces a valid partition that beats random.
    let (part, rounds) = HybridPartitioner::new(HybridConfig::default())
        .partition_rounds(&graph, &Topology::nvlink_island(8));
    assert!(part.validate(&graph).is_ok());
    assert!(rounds.len() == 3);
    let ours = PartitionMetrics::compute(&graph, &part);
    let random =
        PartitionMetrics::compute(&graph, &het_gmp::partition::random_partition(&graph, 8, 1));
    assert!(ours.remote_fetches < random.remote_fetches);

    // Training on that partition learns (AUC above chance) and accounts
    // communication consistently with the partition metrics.
    let trainer = Trainer::new(
        &data,
        Topology::pcie_island(8),
        StrategyConfig::het_gmp(100),
        TrainerConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    let result = trainer.run();
    assert!(result.final_auc > 0.58, "AUC {}", result.final_auc);
    assert!(result.traffic_bytes[0] > 0, "no embedding traffic recorded");
    assert!(result.breakdown.compute > 0.0);
    assert!(result.sim_time > 0.0);
}

#[test]
fn all_five_systems_complete_and_order_sanely() {
    let data = dataset();
    let topo = Topology::pcie_island(4);
    let cfg = TrainerConfig {
        epochs: 2,
        dim: 32,
        batch_size: 128,
        ..Default::default()
    };
    let mut results = Vec::new();
    for strat in [
        StrategyConfig::tf_ps(),
        StrategyConfig::parallax(),
        StrategyConfig::hugectr(),
        StrategyConfig::het_mp(),
        StrategyConfig::het_gmp(100),
    ] {
        let r = Trainer::new(&data, topo.clone(), strat, cfg.clone()).run();
        results.push(r);
    }
    // GPU systems are faster than CPU-PS systems (paper Figure 7's gap).
    let time = |name: &str| {
        results
            .iter()
            .find(|r| r.strategy.starts_with(name))
            .map(|r| r.sim_time)
            .expect("system ran")
    };
    assert!(time("HET-GMP") < time("TF-PS"));
    assert!(time("HugeCTR") < time("Parallax"));
    // Every system actually learned *something* (AUC above coin flip).
    for r in &results {
        assert!(r.final_auc > 0.52, "{} AUC {}", r.strategy, r.final_auc);
    }
}

#[test]
fn dcn_and_wdl_both_train_distributed() {
    let data = dataset();
    for model in [ModelKind::Wdl, ModelKind::Dcn] {
        let r = Trainer::new(
            &data,
            Topology::pcie_island(4),
            StrategyConfig::het_gmp(10),
            TrainerConfig {
                model,
                epochs: 2,
                ..Default::default()
            },
        )
        .run();
        assert!(
            r.final_auc > 0.55,
            "{} AUC {}",
            model.name(),
            r.final_auc
        );
    }
}

#[test]
fn experiment_reports_render() {
    // Smoke-run each experiment at minimal scale and verify the rendering
    // contains its table/figure header (the bench binaries rely on this).
    let fig3 = het_gmp::core::experiments::cooccurrence::run(0.02);
    assert!(fig3[0].to_string().contains("Figure 3"));
    let t3 = het_gmp::core::experiments::partitioners::run(0.02);
    assert!(t3[0].to_string().contains("Table 3"));
    let fig1 = het_gmp::core::experiments::overhead::run(0.02);
    assert!(fig1.to_string().contains("Figure 1"));
}
