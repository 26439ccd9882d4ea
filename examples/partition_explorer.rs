//! Partition explorer: run every partitioning algorithm on one dataset's
//! bigraph and compare cut quality, balance, replication and the
//! worker-pair fetch heatmap (the Table 3 / Figure 9(b) view).
//!
//! ```sh
//! cargo run --release --example partition_explorer [partitions] [scale]
//! ```

use het_gmp::cluster::Topology;
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::partition::{
    bicut_partition, random_partition, HybridConfig, HybridPartitioner, Partition,
    PartitionMetrics, ReplicationBudget,
};

fn describe(name: &str, part: &Partition, graph: &het_gmp::bigraph::Bigraph) {
    let m = PartitionMetrics::compute(graph, part);
    println!(
        "{name:<22} remote/epoch {:>9}  ({:.1}% of accesses)  sample-imbalance {:.3}  replication {:.3}",
        m.remote_fetches,
        m.remote_fraction() * 100.0,
        m.sample_imbalance(),
        m.replication_factor,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.1);

    let data = generate(&DatasetSpec::criteo_like(scale));
    let graph = data.to_bigraph();
    println!(
        "{}: {} samples, {} embeddings, {} edges — partitioning into {n}\n",
        data.name,
        graph.num_samples(),
        graph.num_embeddings(),
        graph.num_edges()
    );

    let topo = Topology::nvlink_island(n);
    describe("random", &random_partition(&graph, n, 7), &graph);
    describe("bicut", &bicut_partition(&graph, n), &graph);

    for rounds in [1usize, 3, 5] {
        let (part, stats) = HybridPartitioner::new(HybridConfig {
            rounds,
            replication: None,
            ..Default::default()
        })
        .partition_rounds(&graph, &topo);
        describe(&format!("hybrid-1D ({rounds} rounds)"), &part, &graph);
        if rounds == 5 {
            for s in &stats {
                println!(
                    "    round {}: moved {:>6} vertices, remote {:>9}, {:.3}s",
                    s.round, s.moved, s.remote_fetches, s.elapsed_secs
                );
            }
        }
    }

    let (part, _) = HybridPartitioner::new(HybridConfig {
        rounds: 3,
        replication: Some(ReplicationBudget::FractionOfEmbeddings(0.01)),
        ..Default::default()
    })
    .partition_rounds(&graph, &topo);
    describe("hybrid-2D (top 1%)", &part, &graph);

    // Fetch heatmap for the final hybrid partition.
    let m = PartitionMetrics::compute(&graph, &part);
    println!("\nworker-pair fetch heatmap (rows: reading worker):");
    for row in &m.fetch_matrix {
        let cells: Vec<String> = row.iter().map(|c| format!("{c:>8}")).collect();
        println!("  {}", cells.join(""));
    }
}
