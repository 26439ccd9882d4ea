//! **Figure 10** — scalability: total WDL throughput vs. GPU count
//! (1, 2, 4, 8, 16, 24) on cluster B for HET-GMP and HugeCTR, on
//! Criteo-like and Company-like data.
//!
//! Paper shape: HugeCTR's throughput *collapses* when the GPU count crosses
//! interconnect boundaries (4 → 8 adds QPI, 8 → 16 adds Ethernet) while
//! HET-GMP keeps scaling (hierarchical placement + replication + bounded
//! staleness absorb the slow links); HET-GMP is up to 27.5× faster at 16
//! GPUs. The Company panel starts at 2 GPUs ("too large to be stored on a
//! single GPU").

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, CtrDataset, DatasetSpec};

use crate::experiments::render_table;
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// One (system, #GPUs) measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// System name.
    pub system: String,
    /// Number of workers.
    pub gpus: usize,
    /// Total throughput, samples per simulated second.
    pub throughput: f64,
}

/// Figure 10 for one dataset.
#[derive(Debug, Clone)]
pub struct ScalabilityReport {
    /// Dataset label.
    pub dataset: String,
    /// All points.
    pub points: Vec<ScalePoint>,
}

/// The systems compared: HugeCTR, and HET-GMP partitioning by the
/// topology's link weights.
pub(super) fn systems() -> Vec<StrategyConfig> {
    vec![StrategyConfig::hugectr(), StrategyConfig::het_gmp(100)]
}

/// Runs one dataset's panel over the given GPU counts.
pub fn run_dataset(data: &CtrDataset, label: &str, gpu_counts: &[usize]) -> ScalabilityReport {
    let mut points = Vec::new();
    for &n in gpu_counts {
        let topo = Topology::cluster_b_scaled(n);
        for strat in systems() {
            let name = if strat.name.starts_with("HET-GMP") {
                "HET-GMP".to_string()
            } else {
                strat.name.clone()
            };
            let trainer = Trainer::new(
                data,
                topo.clone(),
                strat,
                TrainerConfig {
                    model: ModelKind::Wdl,
                    epochs: 1,
                    // Wide embeddings + lean dense tower: the paper's
                    // workloads move far more embedding than dense bytes
                    // (the premise of Figures 1/8); matching that ratio is
                    // what exposes HugeCTR's collapse on slow links.
                    dim: 64,
                    // Paper-scale global batches amortise per-iteration
                    // fixed costs; small batches would let the AllReduce
                    // latency floor mask the embedding-traffic story.
                    batch_size: 1024,
                    hidden: vec![32, 16],
                    ..Default::default()
                },
            );
            let r = trainer.run();
            points.push(ScalePoint {
                system: name,
                gpus: n,
                throughput: r.throughput,
            });
        }
    }
    ScalabilityReport {
        dataset: label.to_string(),
        points,
    }
}

/// Runs Figure 10 (Criteo-like from 1 GPU, Company-like from 2) at `scale`.
///
/// The scale is clamped to ≥ 0.4: below that, 16–24 workers see shards of a
/// few hundred samples and the ladder degenerates to one iteration per
/// epoch, which measures fixed costs rather than scaling.
pub fn run(scale: f64) -> Vec<ScalabilityReport> {
    let scale = scale.max(0.4);
    let criteo = generate(&DatasetSpec::criteo_like(scale));
    let company = generate(&DatasetSpec::company_like(scale));
    vec![
        run_dataset(&criteo, "criteo-like", &[1, 2, 4, 8, 16, 24]),
        run_dataset(&company, "company-like", &[2, 4, 8, 16, 24]),
    ]
}

impl ScalabilityReport {
    /// Throughput of `system` at `gpus`.
    pub fn throughput(&self, system: &str, gpus: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.system == system && p.gpus == gpus)
            .map(|p| p.throughput)
    }

    /// Max HET-GMP / HugeCTR throughput ratio over shared GPU counts.
    pub fn max_speedup(&self) -> f64 {
        let mut best = 0.0f64;
        for p in &self.points {
            if p.system == "HET-GMP" {
                if let Some(hc) = self.throughput("HugeCTR", p.gpus) {
                    if hc > 0.0 {
                        best = best.max(p.throughput / hc);
                    }
                }
            }
        }
        best
    }
}

impl fmt::Display for ScalabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10 — total throughput vs #GPUs ({}); max speedup {:.1}x",
            self.dataset,
            self.max_speedup()
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.system.clone(),
                    p.gpus.to_string(),
                    format!("{:.0}", p.throughput),
                ]
            })
            .collect();
        write!(f, "{}", render_table(&["system", "#GPUs", "samples/s"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hugectr_collapses_past_interconnect_boundaries() {
        // Needs enough samples that 16 workers run several iterations each,
        // and a representative embedding width so link bandwidth (not the
        // fixed per-batch overhead) dominates. Magnitudes are compressed
        // relative to the paper (see EXPERIMENTS.md: scaled vocabularies
        // make batch dedup disproportionately favour the random baseline),
        // but the shape — HugeCTR collapsing across the Ethernet boundary
        // while HET-GMP stays ahead at every point — must hold.
        let mut spec = DatasetSpec::company_like(0.4);
        spec.cluster_affinity = 0.9;
        let data = generate(&spec);
        let report = run_dataset(&data, "company-like", &[4, 16]);
        let hc4 = report.throughput("HugeCTR", 4).unwrap();
        let hc16 = report.throughput("HugeCTR", 16).unwrap();
        // Paper: HugeCTR throughput *collapses* crossing to Ethernet.
        assert!(
            hc16 < 0.6 * hc4,
            "HugeCTR should collapse: 4 GPUs {hc4} -> 16 GPUs {hc16}"
        );
        // HET-GMP ahead at both scales.
        let gmp4 = report.throughput("HET-GMP", 4).unwrap();
        let gmp16 = report.throughput("HET-GMP", 16).unwrap();
        assert!(gmp4 > hc4, "4 GPUs: HET-GMP {gmp4} !> HugeCTR {hc4}");
        assert!(gmp16 > hc16, "16 GPUs: HET-GMP {gmp16} !> HugeCTR {hc16}");
        assert!(report.max_speedup() > 1.0);
        assert!(report.to_string().contains("Figure 10"));
    }
}
