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
use hetgmp_partition::HybridConfig;
use hetgmp_telemetry::Json;

use crate::experiments::{render_table, Hooks};
use crate::models::ModelKind;
use crate::strategy::{PartitionPolicy, StrategyConfig};
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

pub(super) fn policies() -> Vec<(String, StrategyConfig)> {
    // Pure 1D edge-cut (no replication), weighted or not by the topology.
    let one_d = |hierarchical: bool| StrategyConfig {
        partition: PartitionPolicy::Hybrid(HybridConfig {
            hierarchical,
            replication: None,
            ..HybridConfig::default()
        }),
        ..StrategyConfig::het_gmp(0)
    };
    vec![
        ("random".into(), StrategyConfig::het_mp()),
        // Uniform weights: locality-aware but topology-oblivious.
        ("non-hierarchical".into(), one_d(false)),
        // Weighted edge-cut from the real topology (paper: inter-machine
        // cost 10× intra-machine).
        ("hierarchical".into(), one_d(true)),
    ]
}

/// Runs Figure 9 on one dataset (16 workers / 2 machines, as in the
/// paper), one `fig9` record per policy.
pub fn run_dataset(data: &CtrDataset, label: &str, hooks: &mut Hooks) -> HierarchyReport {
    let topo = Topology::cluster_b(2); // 2 machines × 8 GPUs, 10 GbE
    let mut runs = Vec::new();
    for (policy, strat) in policies() {
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
        let r = hooks.train("fig9", trainer, |_| {
            vec![
                ("dataset", Json::from(label)),
                ("policy", Json::from(policy.as_str())),
            ]
        });
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
pub fn run(scale: f64, hooks: &mut Hooks) -> Vec<HierarchyReport> {
    DatasetSpec::paper_presets(scale)
        .iter()
        .map(|spec| run_dataset(&generate(spec), &spec.name, hooks))
        .collect()
}

impl fmt::Display for HierarchyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9(a) — throughput by partitioning policy ({})",
            self.dataset
        )?;
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

    /// The paper's Figure 9 claim, on fetch counts, which are exact:
    /// hierarchical < non-hierarchical < random cross-machine fetches on
    /// every dataset, and hierarchical faster than random. Hierarchical is
    /// at least as fast as non-hierarchical on criteo-like and
    /// company-like only: on avazu-like the weights barely move the cut
    /// (EXPERIMENTS.md, Figure 9) and it is slightly slower.
    #[test]
    fn hierarchical_reduces_cross_machine_traffic() {
        for mut spec in DatasetSpec::paper_presets(0.04) {
            spec.cluster_affinity = 0.9;
            let report = run_dataset(&generate(&spec), &spec.name, &mut Hooks::default());
            let [random, flat, hier] = &report.runs[..] else {
                panic!("{}: {} runs", spec.name, report.runs.len());
            };
            let label = format!(
                "{}: cross-machine fetches random {}, non-hierarchical {}, hierarchical {}",
                spec.name, random.cross_machine, flat.cross_machine, hier.cross_machine
            );
            assert!(hier.cross_machine < flat.cross_machine, "{label}");
            assert!(flat.cross_machine < random.cross_machine, "{label}");
            assert!(
                hier.throughput > random.throughput,
                "{}: hier {} !> random {}",
                spec.name,
                hier.throughput,
                random.throughput
            );
            if spec.name != "avazu-like" {
                assert!(
                    hier.throughput >= flat.throughput,
                    "{}: hier {} < non-hier {}",
                    spec.name,
                    hier.throughput,
                    flat.throughput
                );
            }
            assert!(report.to_string().contains("Figure 9"));
        }
    }
}
