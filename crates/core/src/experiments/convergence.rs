//! **Figure 7(a–f)** — end-to-end convergence: test AUC over (simulated)
//! time for WDL/DCN × the three datasets, comparing TF-PS, Parallax,
//! HugeCTR, HET-MP and HET-GMP (s = 0, 10, 100).
//!
//! Paper shape: the ASP CPU-PS systems (TF, Parallax) never reach the AUC
//! thresholds in the window; HugeCTR ≈ HET-MP; HET-GMP reaches the target
//! 1.64–2.66× faster than HugeCTR and 1.2–3.56× faster than HET-MP at
//! `s = 100`.

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_telemetry::Json;

use crate::experiments::{render_table, Hooks};
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{EvalPoint, Trainer, TrainerConfig};

/// One system's convergence curve on one workload.
#[derive(Debug, Clone)]
pub struct ConvergenceRun {
    /// System name.
    pub system: String,
    /// AUC-vs-time curve.
    pub curve: Vec<EvalPoint>,
    /// Final AUC.
    pub final_auc: f64,
    /// Simulated time to reach the workload's AUC target (post-hoc).
    pub time_to_target: Option<f64>,
}

/// Figure 7 for one (model, dataset) pair.
#[derive(Debug, Clone)]
pub struct ConvergencePanel {
    /// "WDL-avazu-like" etc.
    pub workload: String,
    /// The post-hoc AUC target used for time-to-target.
    pub auc_target: f64,
    /// All systems' runs.
    pub runs: Vec<ConvergenceRun>,
}

impl ConvergencePanel {
    /// Speedup of `a` over `b` in time-to-target (`None` when either system
    /// missed the target).
    pub fn speedup(&self, a: &str, b: &str) -> Option<f64> {
        let t = |name: &str| {
            self.runs
                .iter()
                .find(|r| r.system.starts_with(name))
                .and_then(|r| r.time_to_target)
        };
        Some(t(b)? / t(a)?)
    }
}

/// The full Figure 7: six panels.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// All panels (WDL/DCN × datasets).
    pub panels: Vec<ConvergencePanel>,
}

/// The systems compared in Figure 7.
pub(super) fn systems() -> Vec<StrategyConfig> {
    vec![
        StrategyConfig::tf_ps(),
        StrategyConfig::parallax(),
        StrategyConfig::hugectr(),
        StrategyConfig::het_mp(),
        // "Even if we remove the staleness tolerance (i.e., s = 0), the
        // hybrid graph partitioning still makes HET-GMP outperform" — the
        // s = 0 variant is pure hybrid partitioning; replicas that must be
        // re-validated on every read would only add sync churn.
        StrategyConfig::het_gmp(0).with_replication(None),
        StrategyConfig::het_gmp(10),
        StrategyConfig::het_gmp(100),
    ]
}

/// Epochs every Figure 7 run trains.
const EPOCHS: usize = 3;

/// Runs one panel, one `fig7` record per system.
pub fn run_panel(model: ModelKind, spec: &DatasetSpec, hooks: &mut Hooks) -> ConvergencePanel {
    let data = generate(spec);
    let topo = Topology::pcie_island(8); // cluster A node, as in the paper
    let workload = format!("{}-{}", model.name(), spec.name);
    let mut runs = Vec::new();
    for strat in systems() {
        let trainer = Trainer::new(
            &data,
            topo.clone(),
            strat.clone(),
            TrainerConfig {
                model,
                epochs: EPOCHS,
                // dim 32: enough embedding bytes per lookup that the
                // communication differences the figure is about are visible
                // over the fixed per-iteration costs.
                dim: 32,
                batch_size: 256,
                hidden: vec![64, 32],
                ..Default::default()
            },
        );
        let result = hooks.train("fig7", trainer, |r| {
            vec![
                ("workload", Json::from(workload.as_str())),
                ("system", Json::from(r.strategy.as_str())),
            ]
        });
        runs.push(ConvergenceRun {
            system: result.strategy.clone(),
            final_auc: result.final_auc,
            curve: result.curve,
            time_to_target: None,
        });
    }
    // Post-hoc target: just below the best GPU system's final AUC, so the
    // winner reaches it and time-to-target is measurable for all systems
    // that got close (mirrors the paper's fixed 76 %/80 % thresholds).
    let best = runs.iter().map(|r| r.final_auc).fold(f64::MIN, f64::max);
    let target = best - 0.005;
    for run in &mut runs {
        run.time_to_target = run
            .curve
            .iter()
            .find(|p| p.auc >= target)
            .map(|p| p.sim_time);
    }
    ConvergencePanel {
        workload,
        auc_target: target,
        runs,
    }
}

/// Runs all six panels at the given dataset scale.
pub fn run(scale: f64, hooks: &mut Hooks) -> ConvergenceReport {
    let mut panels = Vec::new();
    for model in [ModelKind::Wdl, ModelKind::Dcn] {
        for spec in DatasetSpec::paper_presets(scale) {
            panels.push(run_panel(model, &spec, hooks));
        }
    }
    ConvergenceReport { panels }
}

impl fmt::Display for ConvergencePanel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 panel — {} (AUC target {:.4})",
            self.workload, self.auc_target
        )?;
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.system.clone(),
                    format!("{:.4}", r.final_auc),
                    r.time_to_target
                        .map_or("—".to_string(), |t| format!("{:.4}s", t)),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["system", "final AUC", "time-to-target"], &rows)
        )?;
        // Curves, one line per system.
        for r in &self.runs {
            let pts: Vec<String> = r
                .curve
                .iter()
                .map(|p| format!("({:.3}s, {:.4})", p.sim_time, p.auc))
                .collect();
            writeln!(f, "  {}: {}", r.system, pts.join(" "))?;
        }
        Ok(())
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for panel in &self.panels {
            writeln!(f, "{panel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn het_gmp_beats_baselines_on_time() {
        let spec = DatasetSpec::avazu_like(0.04);
        let panel = run_panel(ModelKind::Wdl, &spec, &mut Hooks::default());
        assert_eq!(panel.runs.len(), 7);
        // Every GPU system reaches a reasonable AUC.
        let gmp = panel
            .runs
            .iter()
            .find(|r| r.system.starts_with("HET-GMP(s=100"))
            .expect("gmp run");
        assert!(gmp.final_auc > 0.6, "AUC {}", gmp.final_auc);
        // HET-GMP's epoch time is shorter than HugeCTR's (same #epochs, less
        // communication).
        let time = |name: &str| {
            panel
                .runs
                .iter()
                .find(|r| r.system.starts_with(name))
                .and_then(|r| r.curve.last())
                .map(|p| p.sim_time)
                .expect("curve")
        };
        assert!(
            time("HET-GMP(s=100") < time("HugeCTR"),
            "gmp {} vs hugectr {}",
            time("HET-GMP(s=100"),
            time("HugeCTR")
        );
        assert!(
            time("HugeCTR") < time("TF-PS"),
            "hugectr {} vs tf {}",
            time("HugeCTR"),
            time("TF-PS")
        );
        // Display renders.
        assert!(panel.to_string().contains("Figure 7"));
    }
}
