//! Experiment runners — one module per table/figure of the paper's §7
//! (plus the motivating Figures 1 and 3, extra ablations and the §3 KG
//! extension).
//!
//! Every module exposes a `run(...)` returning a plain data struct that
//! implements `Display` (the text `het-gmp experiment NAME` prints), so
//! results are equally consumable programmatically (tests, `EXPERIMENTS.md`
//! generation) and on stdout.
//!
//! All experiments take a `scale` parameter: 1.0 reproduces the default
//! scaled-down datasets (see DESIGN.md's substitutions), smaller values give
//! quick smoke runs. Shapes — orderings, crossovers, reduction factors —
//! are stable across scales; absolute numbers are not comparable with the
//! paper's testbed (see EXPERIMENTS.md).

use std::sync::Arc;

use hetgmp_telemetry::{AuditMode, Json, JsonlWriter, TelemetrySnapshot, TraceCollector};

use crate::trainer::{TrainResult, Trainer};

pub mod ablation;
pub mod comm_breakdown;
pub mod convergence;
pub mod cooccurrence;
pub mod hierarchy;
pub mod kg;
pub mod overhead;
pub mod partitioners;
pub mod scalability;
pub mod staleness;

mod fmt;

pub use fmt::render_table;

/// Appends one telemetry record, reporting (not panicking on) write
/// failures — a full disk must not abort a long experiment run.
pub(crate) fn emit(
    writer: &mut JsonlWriter,
    event: &str,
    extra: &[(&str, Json)],
    snapshot: &TelemetrySnapshot,
) {
    if let Err(e) = writer.write_snapshot(event, extra, snapshot) {
        eprintln!("telemetry: {e}");
    }
}

/// Optional observability hooks threaded through the experiment runners
/// that train: a shared Chrome-trace collector and a protocol-audit mode.
/// The default is fully off.
#[derive(Clone, Default)]
pub struct Hooks {
    /// Trace collector shared by every trainer run in the experiment (build
    /// it with one worker slot per trainer worker — the experiment runners
    /// use 8-worker topologies).
    pub tracer: Option<Arc<TraceCollector>>,
    /// Protocol-audit mode applied to every trainer run.
    pub audit: AuditMode,
    /// Wire format for embedding and dense-gradient payloads applied to
    /// every trainer run (`None` keeps each runner's default of f32).
    pub sync_format: Option<hetgmp_comms::SyncFormat>,
    /// Error feedback on lossy gradient pushes (`None` keeps the default
    /// of enabled; irrelevant under f32).
    pub sync_error_feedback: Option<bool>,
}

impl Hooks {
    /// Applies the hooks to a trainer, the wire format to its config.
    pub(crate) fn apply<'d>(&self, mut trainer: Trainer<'d>) -> Trainer<'d> {
        if let Some(t) = &self.tracer {
            trainer = trainer.with_tracer(Arc::clone(t));
        }
        let cfg = &mut trainer.config;
        cfg.sync_format = self.sync_format.unwrap_or(cfg.sync_format);
        cfg.sync_error_feedback = self.sync_error_feedback.unwrap_or(cfg.sync_error_feedback);
        trainer.with_audit(self.audit)
    }

    /// The audit JSONL field for a run under these hooks: the summary's
    /// JSON form when auditing, nothing otherwise.
    pub(crate) fn audit_extra(&self, result: &TrainResult) -> Option<(&'static str, Json)> {
        result.audit.as_ref().map(|a| ("audit", a.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use hetgmp_embedding::StalenessBound;

    use crate::strategy::{CacheDesign, StrategyConfig};

    /// `Trainer::try_run` refuses a strategy `StrategyConfig::validate`
    /// rejects, so every preset, and every strategy an experiment trains
    /// with, must pass it.
    #[test]
    fn every_preset_and_experiment_strategy_validates() {
        let mut strategies = vec![
            StrategyConfig::tf_ps(),
            StrategyConfig::parallax(),
            StrategyConfig::hugectr(),
            StrategyConfig::het_mp(),
            StrategyConfig::het_gmp(0),
            StrategyConfig::het_gmp(100),
            StrategyConfig::het_gmp_asp(),
            StrategyConfig::het_cache(100, 0.1),
            StrategyConfig::het_cache(100, 1.0),
            // A custom strategy.
            StrategyConfig {
                name: "mine".into(),
                staleness: StalenessBound::Bounded(50),
                cache: CacheDesign::DynamicLfu { capacity_fraction: 0.1 },
                ..StrategyConfig::het_gmp(0)
            },
        ];
        strategies.extend(super::convergence::systems());
        strategies.extend(super::hierarchy::policies().into_iter().map(|(_, s)| s));
        strategies.extend(super::scalability::systems());
        for (label, bound) in super::staleness::bounds() {
            strategies.push(super::staleness::strategy(&label, bound));
        }
        for s in &strategies {
            if let Err(e) = s.validate() {
                panic!("{}: {e}", s.name);
            }
        }
    }
}
