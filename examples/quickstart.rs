//! Quickstart: generate a small CTR dataset, partition its bigraph with
//! HET-GMP's hybrid algorithm, and train Wide & Deep on a simulated 4-GPU
//! server.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use het_gmp::cluster::Topology;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{Trainer, TrainerConfig};
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::partition::PartitionMetrics;

fn main() {
    // 1. A synthetic Avazu-shaped dataset (22 fields, Zipf-skewed features,
    //    planted co-access locality + a logistic ground truth).
    let spec = DatasetSpec::avazu_like(0.05);
    let data = generate(&spec);
    println!(
        "dataset: {} — {} samples x {} fields, {} features, CTR {:.3}",
        data.name,
        data.num_samples(),
        data.num_fields,
        data.num_features,
        data.ctr()
    );

    // 2. The bigraph view (paper §5.1) and its skewness.
    let graph = data.to_bigraph();
    let stats = het_gmp::bigraph::DegreeStats::embeddings(&graph);
    println!(
        "bigraph: {} edges; embedding degree gini {:.2}, hottest 1% of rows \
         serve {:.0}% of lookups",
        graph.num_edges(),
        stats.gini,
        stats.top1pct_mass * 100.0
    );

    // 3. Train HET-GMP (hybrid partitioning + bounded asynchrony, s = 100)
    //    on a simulated 4-GPU PCIe server, against the HET-MP baseline.
    //    `run` checks the config before any work (`try_run` returns the
    //    error instead of panicking).
    let topo = Topology::pcie_island(4);
    let config = TrainerConfig {
        epochs: 3,
        ..TrainerConfig::default()
    };
    for strat in [StrategyConfig::het_mp(), StrategyConfig::het_gmp(100)] {
        let trainer = Trainer::new(&data, topo.clone(), strat, config.clone());
        let result = trainer.run();
        let pm: &PartitionMetrics = result.partition_metrics.as_ref().expect("GPU strategy");
        println!(
            "\n{}\n  final AUC {:.4} | {:.0} samples/s (simulated) | \
             remote fetches/epoch {} | replication factor {:.3}",
            result.strategy,
            result.final_auc,
            result.throughput,
            pm.remote_fetches,
            pm.replication_factor
        );
        for point in &result.curve {
            println!(
                "    epoch {}: sim {:.4}s  AUC {:.4}",
                point.epoch, point.sim_time, point.auc
            );
        }
    }
}
