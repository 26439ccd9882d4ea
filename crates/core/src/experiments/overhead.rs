//! **Figure 1** — communication share of WDL training time on a
//! HugeCTR-style GPU model-parallel system under three interconnects
//! (4-GPU NVLink, 4-GPU PCIe, 8-GPU QPI) over the three datasets.
//!
//! Paper values: NVLink 50/39/30 %, PCIe 89/84/79 %, QPI 91/87/83 % for
//! Avazu/Criteo/Company. The reproduction must show the same two gradients:
//! slower interconnect ⇒ larger share, and (at fixed interconnect) the
//! share ordering across datasets.

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_telemetry::Json;

use crate::experiments::{render_table, Hooks};
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// One measured cell of Figure 1.
#[derive(Debug, Clone)]
pub struct OverheadCell {
    /// Topology label ("4-GPU NVLink", …).
    pub topology: String,
    /// Dataset label.
    pub dataset: String,
    /// Communication time / epoch time, in `[0, 1]`.
    pub comm_fraction: f64,
}

/// Full Figure 1 result.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// All cells, topology-major.
    pub cells: Vec<OverheadCell>,
}

/// Runs Figure 1 at the given dataset scale, one `fig1` record per cell.
pub fn run(scale: f64, hooks: &mut Hooks) -> OverheadReport {
    let topologies = vec![
        Topology::nvlink_island(4),
        Topology::pcie_island(4),
        Topology::qpi_dual_socket(8),
    ];
    let specs = DatasetSpec::paper_presets(scale);
    let mut cells = Vec::new();
    for topo in &topologies {
        for spec in &specs {
            let data = generate(spec);
            let trainer = Trainer::new(
                &data,
                topo.clone(),
                StrategyConfig::hugectr(),
                TrainerConfig {
                    epochs: 1,
                    dim: 32,
                    batch_size: 256,
                    hidden: vec![64, 32],
                    ..Default::default()
                },
            );
            let result = hooks.train("fig1", trainer, |_| {
                vec![
                    ("topology", Json::from(topo.name.as_str())),
                    ("dataset", Json::from(spec.name.as_str())),
                ]
            });
            cells.push(OverheadCell {
                topology: topo.name.clone(),
                dataset: spec.name.clone(),
                comm_fraction: result.breakdown.comm_fraction(),
            });
        }
    }
    OverheadReport { cells }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 — communication time / epoch time (WDL on HugeCTR-style MP)"
        )?;
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.topology.clone(),
                    c.dataset.clone(),
                    format!("{:.1}%", c.comm_fraction * 100.0),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["topology", "dataset", "comm share"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_interconnect_larger_share() {
        let report = run(0.02, &mut Hooks::default());
        let share = |topo: &str, ds: &str| {
            report
                .cells
                .iter()
                .find(|c| c.topology.contains(topo) && c.dataset.contains(ds))
                .map(|c| c.comm_fraction)
                .expect("cell present")
        };
        for ds in ["avazu", "criteo", "company"] {
            assert!(
                share("NVLink", ds) < share("PCIe", ds),
                "{ds}: NVLink {} !< PCIe {}",
                share("NVLink", ds),
                share("PCIe", ds)
            );
        }
        // The PCIe share must be substantial (paper: ~80-90%).
        assert!(share("PCIe", "criteo") > 0.4);
        // Rendering works.
        let text = report.to_string();
        assert!(text.contains("comm share"));
    }
}
