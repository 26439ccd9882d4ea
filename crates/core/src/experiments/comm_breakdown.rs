//! **Figure 8** — per-iteration communication breakdown for HET-GMP under
//! four partitioning/staleness settings: random, 1-D only, 2-D (s = 10),
//! 2-D (s = 100), for both WDL and DCN.
//!
//! Paper shape: embeddings + gradients dominate under random partitioning;
//! 1-D cuts them sharply; 2-D with larger `s` cuts further (up to 87.5 % on
//! Company); keys/clocks are comparatively small; DCN carries a larger
//! AllReduce share than WDL (more dense parameters).

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, CtrDataset, DatasetSpec};
use hetgmp_telemetry::Json;

use crate::experiments::{render_table, Hooks};
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// One bar of Figure 8.
#[derive(Debug, Clone)]
pub struct BreakdownBar {
    /// Setting label ("random", "1-D", "2-D (s=10)", "2-D (s=100)").
    pub setting: String,
    /// Average bytes per iteration: embeddings + gradients.
    pub embed_bytes: f64,
    /// Average bytes per iteration: keys + clocks metadata.
    pub meta_bytes: f64,
    /// Average bytes per iteration: dense AllReduce.
    pub allreduce_bytes: f64,
}

/// One panel (model × dataset).
#[derive(Debug, Clone)]
pub struct BreakdownPanel {
    /// Workload label.
    pub workload: String,
    /// Bars in the paper's column order.
    pub bars: Vec<BreakdownBar>,
}

/// Full Figure 8.
#[derive(Debug, Clone)]
pub struct BreakdownReport {
    /// All panels.
    pub panels: Vec<BreakdownPanel>,
}

fn settings() -> Vec<(String, StrategyConfig)> {
    vec![
        ("random".into(), StrategyConfig::het_mp()),
        (
            "1-D".into(),
            StrategyConfig::het_gmp(0).with_replication(None),
        ),
        ("2-D (s=10)".into(), StrategyConfig::het_gmp(10)),
        ("2-D (s=100)".into(), StrategyConfig::het_gmp(100)),
    ]
}

fn run_panel(
    model: ModelKind,
    data: &CtrDataset,
    label: &str,
    hooks: &mut Hooks,
) -> BreakdownPanel {
    let topo = Topology::pcie_island(8);
    let mut bars = Vec::new();
    for (setting, strat) in settings() {
        let trainer = Trainer::new(
            data,
            topo.clone(),
            strat,
            TrainerConfig {
                model,
                epochs: 1,
                dim: 16,
                batch_size: 256,
                hidden: vec![64, 32],
                ..Default::default()
            },
        );
        let r = hooks.train("fig8", trainer, |_| {
            vec![
                ("workload", Json::from(label)),
                ("setting", Json::from(setting.as_str())),
            ]
        });
        // Average per iteration ≈ per epoch totals / iterations; iterations
        // ≈ samples / (batch × workers). Report per-iteration bytes.
        let iters = (r.samples_processed as f64 / (256.0 * 8.0)).max(1.0);
        bars.push(BreakdownBar {
            setting,
            embed_bytes: r.traffic_bytes[0] as f64 / iters,
            meta_bytes: r.traffic_bytes[1] as f64 / iters,
            allreduce_bytes: r.traffic_bytes[2] as f64 / iters,
        });
    }
    BreakdownPanel {
        workload: label.to_string(),
        bars,
    }
}

/// Runs Figure 8 (both models × all datasets) at the given scale, one
/// `fig8` record per bar.
pub fn run(scale: f64, hooks: &mut Hooks) -> BreakdownReport {
    let mut panels = Vec::new();
    for model in [ModelKind::Wdl, ModelKind::Dcn] {
        for spec in DatasetSpec::paper_presets(scale) {
            let data = generate(&spec);
            panels.push(run_panel(
                model,
                &data,
                &format!("{}-{}", model.name(), spec.name),
                hooks,
            ));
        }
    }
    BreakdownReport { panels }
}

impl BreakdownPanel {
    /// Embedding-communication reduction of the last bar vs. the first
    /// (paper: up to 87.5 % on Company).
    pub fn embed_reduction(&self) -> f64 {
        let first = self.bars.first().map_or(0.0, |b| b.embed_bytes);
        let last = self.bars.last().map_or(0.0, |b| b.embed_bytes);
        if first == 0.0 {
            0.0
        } else {
            1.0 - last / first
        }
    }
}

impl fmt::Display for BreakdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for panel in &self.panels {
            writeln!(
                f,
                "Figure 8 panel — {} (embed reduction {:.1}%)",
                panel.workload,
                panel.embed_reduction() * 100.0
            )?;
            let rows: Vec<Vec<String>> = panel
                .bars
                .iter()
                .map(|b| {
                    vec![
                        b.setting.clone(),
                        format!("{:.0}", b.embed_bytes),
                        format!("{:.0}", b.meta_bytes),
                        format!("{:.0}", b.allreduce_bytes),
                    ]
                })
                .collect();
            writeln!(
                f,
                "{}",
                render_table(
                    &[
                        "setting",
                        "embeds&grads B/iter",
                        "keys&clocks B/iter",
                        "allreduce B/iter"
                    ],
                    &rows
                )
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_reduces_embed_traffic() {
        let data = generate(&DatasetSpec::avazu_like(0.04));
        let panel = run_panel(ModelKind::Wdl, &data, "WDL-test", &mut Hooks::default());
        assert_eq!(panel.bars.len(), 4);
        let random = panel.bars[0].embed_bytes;
        let oned = panel.bars[1].embed_bytes;
        let s100 = panel.bars[3].embed_bytes;
        assert!(oned < random, "1-D {oned} !< random {random}");
        assert!(s100 < oned, "2-D(s=100) {s100} !< 1-D {oned}");
        assert!(panel.embed_reduction() > 0.2);
        // Metadata is small relative to embedding payload under random.
        assert!(panel.bars[0].meta_bytes < panel.bars[0].embed_bytes);
    }

    #[test]
    fn dcn_has_more_allreduce_than_wdl() {
        let data = generate(&DatasetSpec::avazu_like(0.03));
        let wdl = run_panel(ModelKind::Wdl, &data, "WDL", &mut Hooks::default());
        let dcn = run_panel(ModelKind::Dcn, &data, "DCN", &mut Hooks::default());
        assert!(
            dcn.bars[0].allreduce_bytes > wdl.bars[0].allreduce_bytes,
            "dcn {} vs wdl {}",
            dcn.bars[0].allreduce_bytes,
            wdl.bars[0].allreduce_bytes
        );
    }
}
