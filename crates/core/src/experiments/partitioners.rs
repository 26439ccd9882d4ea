//! **Table 3** — partitioning-algorithm comparison: per-epoch remote
//! embedding communication, reduction vs. random, and partitioning time for
//! Random / BiCut / Ours (1, 3, 5 rounds), 8 partitions, all datasets.
//!
//! Paper shape (Company): BiCut −13.5 %; Ours −37.3 % (1 round), −59.7 %
//! (3), −63.8 % (5); partitioning time grows with rounds but stays
//! negligible (< 2 %) next to training time.

use std::fmt;
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::Topology;
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_partition::{
    BiCutPartitioner, HybridConfig, HybridPartitioner, PartitionMetrics, Partitioner,
    RandomPartitioner,
};

use crate::experiments::render_table;

/// One algorithm's row for one dataset.
#[derive(Debug, Clone)]
pub struct PartitionerRow {
    /// Algorithm label.
    pub algorithm: String,
    /// Remote embedding fetches per epoch (Table 3 "Communication").
    pub communication: u64,
    /// Reduction vs. the random baseline.
    pub reduction: f64,
    /// Partitioning wall-clock seconds (real, not simulated — this is CPU
    /// work the paper also measures in real seconds).
    pub time_secs: f64,
}

/// Table 3 for one dataset.
#[derive(Debug, Clone)]
pub struct PartitionerReport {
    /// Dataset label.
    pub dataset: String,
    /// Rows in the paper's order.
    pub rows: Vec<PartitionerRow>,
}

/// Algorithm 1 with `rounds` 1D sweeps, as Table 3 runs it.
fn ours(rounds: usize) -> HybridPartitioner {
    HybridPartitioner::new(HybridConfig {
        rounds,
        replication: None, // Table 3 measures pure partitioning quality
        ..Default::default()
    })
}

/// The Table 3 line-up, every algorithm behind the unified
/// [`Partitioner`] interface.
fn algorithms() -> Vec<(String, Box<dyn Partitioner>)> {
    let mut algos: Vec<(String, Box<dyn Partitioner>)> = vec![
        ("Random".into(), Box::new(RandomPartitioner { seed: 7 })),
        ("BiCut".into(), Box::new(BiCutPartitioner)),
    ];
    for rounds in [1usize, 3, 5] {
        algos.push((
            format!("Ours ({rounds} round{})", if rounds > 1 { "s" } else { "" }),
            Box::new(ours(rounds)),
        ));
    }
    algos
}

/// Runs Table 3 on one bigraph with 8 partitions. Every row is produced
/// through the same `Partitioner::partition(graph, topology)` call — the
/// runner knows nothing algorithm-specific.
pub fn run_graph(graph: &Bigraph, dataset: &str) -> PartitionerReport {
    let topo = Topology::nvlink_island(8);
    let mut rows = Vec::new();
    let mut random_metrics: Option<PartitionMetrics> = None;
    for (label, algo) in algorithms() {
        let t0 = Instant::now();
        let part = algo.partition(graph, &topo);
        let time_secs = t0.elapsed().as_secs_f64();
        let m = PartitionMetrics::compute(graph, &part);
        let reduction = random_metrics
            .as_ref()
            .map_or(0.0, |base| m.reduction_vs(base));
        if random_metrics.is_none() {
            // First row is the Random baseline the others are measured
            // against.
            random_metrics = Some(m.clone());
        }
        rows.push(PartitionerRow {
            algorithm: label,
            communication: m.remote_fetches,
            reduction,
            time_secs,
        });
    }

    PartitionerReport {
        dataset: dataset.to_string(),
        rows,
    }
}

/// Runs Table 3 over all three datasets at the given scale.
pub fn run(scale: f64) -> Vec<PartitionerReport> {
    DatasetSpec::paper_presets(scale)
        .iter()
        .map(|spec| {
            let data = generate(spec);
            let graph = data.to_bigraph();
            run_graph(&graph, &spec.name)
        })
        .collect()
}

impl fmt::Display for PartitionerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3 — partitioning algorithms ({})", self.dataset)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.clone(),
                    r.communication.to_string(),
                    format!("{:.1}%", r.reduction * 100.0),
                    format!("{:.3}", r.time_secs),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["algorithm", "communication", "reduction", "time (s)"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let mut spec = DatasetSpec::avazu_like(0.05);
        spec.cluster_affinity = 0.9;
        let data = generate(&spec);
        let graph = data.to_bigraph();
        let report = run_graph(&graph, "avazu-like");
        assert_eq!(report.rows.len(), 5);
        let comm = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.algorithm.starts_with(name))
                .map(|r| r.communication)
                .expect("row")
        };
        // Paper ordering: Random > BiCut > Ours(1) ≥ Ours(3) ≥ Ours(5).
        assert!(comm("BiCut") < comm("Random"));
        assert!(comm("Ours (1") < comm("BiCut"));
        assert!(comm("Ours (3") <= comm("Ours (1"));
        assert!(comm("Ours (5") <= comm("Ours (3"));
        // Reduction at 5 rounds is substantial (paper: 63-68 %).
        let r5 = report
            .rows
            .iter()
            .find(|r| r.algorithm.starts_with("Ours (5"))
            .unwrap();
        // The scaled-down synthetic data is denser per feature than the
        // real datasets (tiny fields are unsplittable without replication),
        // so the bar is slightly below the paper's 63-68 %; the orderings
        // above are the reproduced shape.
        assert!(r5.reduction > 0.3, "reduction {:.2}", r5.reduction);
        // Work grows with rounds (the Time column, which is too noisy to
        // assert): the 5-round run starts with the 1-round run's sweep,
        // then makes four more, which still move vertices, and its last
        // round ends on the communication the table reports.
        let topo = Topology::nvlink_island(8);
        let (_, one) = ours(1).partition_rounds(&graph, &topo);
        let (_, five) = ours(5).partition_rounds(&graph, &topo);
        assert_eq!((one.len(), five.len()), (1, 5));
        assert_eq!(
            (five[0].moved, five[0].remote_fetches),
            (one[0].moved, one[0].remote_fetches)
        );
        assert!(five[1..].iter().map(|r| r.moved).sum::<usize>() > 0);
        assert_eq!(one[0].remote_fetches, comm("Ours (1"));
        assert_eq!(five[4].remote_fetches, comm("Ours (5"));
        assert!(report.to_string().contains("Table 3"));
    }
}
