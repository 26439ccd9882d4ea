//! **Table 2** — final test AUC vs. staleness bound `s ∈ {0, 100, 10k, ∞}`
//! on WDL over the three datasets.
//!
//! Paper shape: AUC is flat from `s = 0` through `s = 10k` (robustness of
//! bounded asynchrony) and drops visibly at `s = ∞` (unbounded drift hurts
//! quality — most on Company: 76.1 → 73.3).

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_embedding::StalenessBound;
use hetgmp_telemetry::Json;

use crate::experiments::{render_table, Hooks};
use crate::models::ModelKind;
use crate::strategy::StrategyConfig;
use crate::trainer::{Trainer, TrainerConfig};

/// One dataset's row of Table 2.
#[derive(Debug, Clone)]
pub struct StalenessRow {
    /// Dataset label.
    pub dataset: String,
    /// `(s label, final AUC)` per column.
    pub aucs: Vec<(String, f64)>,
}

/// Full Table 2.
#[derive(Debug, Clone)]
pub struct StalenessReport {
    /// One row per dataset.
    pub rows: Vec<StalenessRow>,
}

/// HET-GMP under staleness `bound`, named by its `label`.
pub(super) fn strategy(label: &str, bound: StalenessBound) -> StrategyConfig {
    StrategyConfig {
        name: format!("HET-GMP({label})"),
        staleness: bound,
        ..StrategyConfig::het_gmp(0)
    }
}

/// The paper's four staleness settings.
pub fn bounds() -> Vec<(String, StalenessBound)> {
    vec![
        ("s=0".into(), StalenessBound::Bounded(0)),
        ("s=100".into(), StalenessBound::Bounded(100)),
        ("s=10k".into(), StalenessBound::Bounded(10_000)),
        ("s=inf".into(), StalenessBound::Infinite),
    ]
}

/// Epochs every Table 2 run trains.
const EPOCHS: usize = 3;

/// Runs Table 2 at the given scale, one `table2` record per cell (audited,
/// the auditor's gaps make the drift behind the `s=inf` AUC drop directly
/// visible).
pub fn run(scale: f64, hooks: &mut Hooks) -> StalenessReport {
    let topo = Topology::pcie_island(8);
    let mut rows = Vec::new();
    for spec in DatasetSpec::paper_presets(scale) {
        let data = generate(&spec);
        let mut aucs = Vec::new();
        for (label, bound) in bounds() {
            let trainer = Trainer::new(
                &data,
                topo.clone(),
                strategy(&label, bound),
                TrainerConfig {
                    model: ModelKind::Wdl,
                    epochs: EPOCHS,
                    dim: 16,
                    batch_size: 256,
                    hidden: vec![64, 32],
                    ..Default::default()
                },
            );
            let r = hooks.train("table2", trainer, |r| {
                vec![
                    ("dataset", Json::from(spec.name.as_str())),
                    ("staleness", Json::from(label.as_str())),
                    ("auc", Json::F64(r.final_auc)),
                ]
            });
            aucs.push((label, r.final_auc));
        }
        rows.push(StalenessRow {
            dataset: spec.name.clone(),
            aucs,
        });
    }
    StalenessReport { rows }
}

impl fmt::Display for StalenessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2 — final test AUC (%) vs staleness s (WDL)")?;
        let mut headers = vec!["dataset"];
        let labels: Vec<String> = self
            .rows
            .first()
            .map(|r| r.aucs.iter().map(|(l, _)| l.clone()).collect())
            .unwrap_or_default();
        for l in &labels {
            headers.push(l);
        }
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.dataset.clone()];
                row.extend(r.aucs.iter().map(|(_, a)| format!("{:.2}", a * 100.0)));
                row
            })
            .collect();
        write!(f, "{}", render_table(&headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_staleness_robust_unbounded_hurts() {
        let topo = Topology::pcie_island(8);
        let mut spec = DatasetSpec::avazu_like(0.06);
        spec.cluster_affinity = 0.9;
        let data = generate(&spec);
        let mut results = Vec::new();
        for (label, bound) in bounds() {
            let trainer = Trainer::new(
                &data,
                topo.clone(),
                strategy(&label, bound),
                TrainerConfig {
                    model: ModelKind::Wdl,
                    epochs: 3,
                    dim: 8,
                    batch_size: 128,
                    hidden: vec![32],
                    ..Default::default()
                },
            );
            results.push((label, trainer.run().final_auc));
        }
        let s0 = results[0].1;
        let s100 = results[1].1;
        // Robustness: s=100 within a point of s=0.
        assert!(
            (s0 - s100).abs() < 0.02,
            "s=0 {s0} vs s=100 {s100} diverged"
        );
        assert!(s0 > 0.6, "model failed to learn: {s0}");
    }

    #[test]
    fn renders() {
        let report = StalenessReport {
            rows: vec![StalenessRow {
                dataset: "x".into(),
                aucs: vec![("s=0".into(), 0.77)],
            }],
        };
        let text = report.to_string();
        assert!(text.contains("Table 2"));
        assert!(text.contains("77.00"));
    }
}
