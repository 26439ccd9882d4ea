//! **Figure 9** — heterogeneity-aware (hierarchical) partitioning:
//! throughput under random / non-hierarchical / hierarchical 1-D
//! partitioning on 16 workers across 2 machines (no replication), plus the
//! worker×worker embedding-fetch heatmap.
//!
//! Paper shape: hierarchical > non-hierarchical > random throughput on all
//! datasets; the fetch matrix is uniform for random, block-diagonal-ish for
//! non-hierarchical, and strongly machine-block-diagonal for hierarchical.

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, CtrDataset, DatasetSpec};

use crate::experiments::render_table;
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// One policy's measurement.
#[derive(Debug, Clone)]
pub struct HierarchyRun {
    /// Policy label.
    pub policy: String,
    /// Samples per simulated second.
    pub throughput: f64,
    /// Worker×worker embedding-fetch counts per epoch.
    pub fetch_matrix: Vec<Vec<u64>>,
    /// Fetches crossing machines per epoch.
    pub cross_machine: u64,
}

/// Figure 9 for one dataset.
#[derive(Debug, Clone)]
pub struct HierarchyReport {
    /// Dataset label.
    pub dataset: String,
    /// Runs in order: random, non-hierarchical, hierarchical.
    pub runs: Vec<HierarchyRun>,
}

pub(super) fn policies(topo: &Topology) -> Vec<(String, StrategyConfig)> {
    vec![
        ("random".into(), StrategyConfig::het_mp()),
        (
            // Homogeneous weights: locality-aware but topology-oblivious.
            "non-hierarchical".into(),
            StrategyConfig::het_gmp(0).with_replication(None),
        ),
        (
            // Weighted edge-cut from the real topology (paper: inter-machine
            // cost 10× intra-machine).
            "hierarchical".into(),
            StrategyConfig::het_gmp(0)
                .with_replication(None)
                .with_weight_matrix(Some(topo.weight_matrix())),
        ),
    ]
}

/// Runs Figure 9 on one dataset (16 workers / 2 machines, as in the paper).
pub fn run_dataset(data: &CtrDataset, label: &str) -> HierarchyReport {
    let topo = Topology::cluster_b(2); // 2 machines × 8 GPUs, 10 GbE
    let mut runs = Vec::new();
    for (policy, strat) in policies(&topo) {
        let trainer = Trainer::new(
            data,
            topo.clone(),
            strat,
            TrainerConfig {
                model: ModelKind::Wdl,
                epochs: 1,
                dim: 32,
                batch_size: 512,
                hidden: vec![64, 32],
                ..Default::default()
            },
        );
        let r = trainer.run();
        let pm = r.partition_metrics.as_ref().expect("GPU strategy");
        let machine_of: Vec<usize> = (0..topo.num_workers())
            .map(|w| topo.machine_of(w))
            .collect();
        runs.push(HierarchyRun {
            policy,
            throughput: r.throughput,
            fetch_matrix: pm.fetch_matrix.clone(),
            cross_machine: pm.cross_machine_fetches(&machine_of),
        });
    }
    HierarchyReport {
        dataset: label.to_string(),
        runs,
    }
}

/// Runs Figure 9(a) over all three datasets at the given scale.
pub fn run(scale: f64) -> Vec<HierarchyReport> {
    DatasetSpec::paper_presets(scale)
        .iter()
        .map(|spec| {
            let data = generate(spec);
            run_dataset(&data, &spec.name)
        })
        .collect()
}

impl fmt::Display for HierarchyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9(a) — throughput by partitioning policy ({})", self.dataset)?;
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.0}", r.throughput),
                    format!("{}", r.cross_machine),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(&["policy", "samples/s", "cross-machine fetches"], &rows)
        )?;
        writeln!(f, "Figure 9(b) — worker-pair fetch heatmap (rows: reader)")?;
        for r in &self.runs {
            writeln!(f, "  [{}]", r.policy)?;
            for row in &r.fetch_matrix {
                let cells: Vec<String> = row.iter().map(|c| format!("{c:>6}")).collect();
                writeln!(f, "    {}", cells.join(" "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_reduces_cross_machine_traffic() {
        let mut spec = DatasetSpec::avazu_like(0.04);
        spec.cluster_affinity = 0.9;
        let data = generate(&spec);
        let report = run_dataset(&data, "avazu-like");
        assert_eq!(report.runs.len(), 3);
        let random = &report.runs[0];
        let hier = &report.runs[2];
        assert!(
            hier.cross_machine < random.cross_machine,
            "hier {} !< random {}",
            hier.cross_machine,
            random.cross_machine
        );
        // Throughput ordering (the paper's headline for Fig 9a).
        assert!(
            hier.throughput > random.throughput,
            "hier {} !> random {}",
            hier.throughput,
            random.throughput
        );
        assert!(report.to_string().contains("Figure 9"));
    }
}
