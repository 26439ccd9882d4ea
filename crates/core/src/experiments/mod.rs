//! Experiment runners — one module per table/figure of the paper's §7
//! (plus the motivating Figures 1 and 3, extra ablations and the §3 KG
//! extension).
//!
//! Every module exposes a `run(...)` returning a plain data struct that
//! implements `Display` (the text `het-gmp experiment NAME` prints), so
//! results are equally consumable programmatically (tests, `EXPERIMENTS.md`
//! generation) and on stdout. Every experiment that trains a CTR model
//! takes `(scale, &mut Hooks)` and trains each cell through
//! [`Hooks::train`].
//!
//! All experiments take a `scale` parameter: 1.0 reproduces the default
//! scaled-down datasets (see DESIGN.md's substitutions), smaller values give
//! quick smoke runs. Shapes — orderings, crossovers, reduction factors —
//! are stable across scales; absolute numbers are not comparable with the
//! paper's testbed (see EXPERIMENTS.md).

use std::sync::Arc;

use hetgmp_telemetry::{AuditMode, AuditSummary, HetGmpError, Json, JsonlWriter, TraceCollector};

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

/// The one way an experiment trains: the observability hooks applied to
/// every trainer run and the JSONL sink each run appends its record to.
/// The default is fully off.
#[derive(Default)]
pub struct Hooks {
    /// Trace collector shared by every trainer run in the experiment; it
    /// needs one worker track per worker of the largest topology trained.
    pub tracer: Option<Arc<TraceCollector>>,
    /// Protocol-audit mode applied to every trainer run.
    pub audit: AuditMode,
    /// Wire format for embedding and dense-gradient payloads applied to
    /// every trainer run (`None` keeps each runner's default of f32).
    pub sync_format: Option<hetgmp_comms::SyncFormat>,
    /// Error feedback on lossy gradient pushes (`None` keeps the default
    /// of enabled; irrelevant under f32).
    pub sync_error_feedback: Option<bool>,
    /// JSONL sink: one record per trained cell.
    pub telemetry: Option<JsonlWriter>,
    /// The first strict-audit failure any run reported: the error an
    /// `--audit=strict` experiment exits with.
    pub failure: Option<HetGmpError>,
}

impl Hooks {
    /// Trains one experiment cell: applies the tracer, the audit mode and
    /// the wire format to `trainer`, runs it, appends one `event` record
    /// (the cell's `labels`, the `audit` summary when auditing, then the
    /// run's telemetry snapshot) and remembers the first strict-audit
    /// failure in [`Hooks::failure`].
    pub fn train(
        &mut self,
        event: &str,
        mut trainer: Trainer<'_>,
        labels: impl FnOnce(&TrainResult) -> Vec<(&'static str, Json)>,
    ) -> TrainResult {
        if let Some(t) = &self.tracer {
            trainer = trainer.with_tracer(Arc::clone(t));
        }
        let cfg = &mut trainer.config;
        cfg.sync_format = self.sync_format.unwrap_or(cfg.sync_format);
        cfg.sync_error_feedback = self.sync_error_feedback.unwrap_or(cfg.sync_error_feedback);
        let result = trainer.with_audit(self.audit).run();
        self.record(event, labels, &result);
        result
    }

    /// [`Hooks::train`]'s bookkeeping for one finished run.
    fn record(
        &mut self,
        event: &str,
        labels: impl FnOnce(&TrainResult) -> Vec<(&'static str, Json)>,
        result: &TrainResult,
    ) {
        self.append(|w| {
            let mut extra = labels(result);
            extra.extend(result.audit.as_ref().map(|a| ("audit", a.to_json())));
            w.write_snapshot(event, &extra, &result.telemetry)
        });
        if self.failure.is_none() {
            self.failure = result.audit.as_ref().and_then(AuditSummary::to_error);
        }
    }

    /// Appends a record to the sink, if there is one, reporting (not
    /// panicking on) write failures — a full disk must not abort a long
    /// experiment run.
    pub(crate) fn append(
        &mut self,
        write: impl FnOnce(&mut JsonlWriter) -> Result<(), HetGmpError>,
    ) {
        if let Some(w) = self.telemetry.as_mut() {
            if let Err(e) = write(w) {
                eprintln!("telemetry: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use hetgmp_cluster::Topology;
    use hetgmp_data::{generate, DatasetSpec};
    use hetgmp_embedding::StalenessBound;
    use hetgmp_telemetry::{AuditMode, JsonlWriter};

    use super::{convergence, overhead, scalability, Hooks};
    use crate::models::ModelKind;
    use crate::strategy::{CacheDesign, StrategyConfig};
    use crate::trainer::{Trainer, TrainerConfig};

    /// Every trained cell of Figures 1, 7 and 10 appends one record under
    /// its figure's event, each carrying the audit summary.
    #[test]
    fn every_trained_cell_writes_one_audited_record() {
        let path = std::env::temp_dir()
            .join(format!("hetgmp-hooks-{}", std::process::id()))
            .join("cells.jsonl");
        let mut hooks = Hooks {
            audit: AuditMode::Count,
            telemetry: Some(JsonlWriter::create(&path).unwrap()),
            ..Hooks::default()
        };
        let fig1 = overhead::run(0.02, &mut hooks).cells.len();
        let avazu = DatasetSpec::avazu_like(0.02);
        let fig7 = convergence::run_panel(ModelKind::Wdl, &avazu, &mut hooks)
            .runs
            .len();
        let criteo = generate(&DatasetSpec::criteo_like(0.02));
        let fig10 = scalability::run_dataset(&criteo, "criteo-like", &[1, 2], &mut hooks)
            .points
            .len();
        assert_eq!((fig1, fig7, fig10), (9, 7, 4));
        drop(hooks);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        assert_eq!(text.lines().count(), fig1 + fig7 + fig10, "{text}");
        for (event, cells) in [("fig1", fig1), ("fig7", fig7), ("fig10", fig10)] {
            let tag = format!(r#""event":"{event}""#);
            let records: Vec<&str> = text.lines().filter(|l| l.contains(&tag)).collect();
            assert_eq!(records.len(), cells, "{event}:\n{text}");
            for l in records {
                assert!(l.contains(r#""audit":{"#), "{l}");
                assert!(l.contains(r#""counters":"#), "{l}");
            }
        }
    }

    /// The hooks remember the first strict-audit failure a run reports; a
    /// clean run reports none.
    #[test]
    fn hooks_remember_the_first_strict_audit_failure() {
        let mut hooks = Hooks {
            audit: AuditMode::Strict,
            ..Hooks::default()
        };
        let data = generate(&DatasetSpec::tiny());
        let trainer = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(10),
            TrainerConfig {
                epochs: 1,
                batch_size: 64,
                dim: 8,
                hidden: vec![16],
                ..Default::default()
            },
        );
        let mut r = hooks.train("cell", trainer, |_| vec![]);
        assert!(
            hooks.failure.is_none(),
            "a correct protocol violated its bound"
        );
        let mut fail = |reason: &str| {
            let audit = r.audit.as_mut().expect("audited run");
            audit.strict_failure = Some(reason.into());
            hooks.record("cell", |_| vec![], &r);
        };
        fail("intra gap 12 > bound 10");
        fail("a later failure");
        let err = hooks.failure.expect("failure remembered");
        assert_eq!(err.exit_code(), 70, "{err}");
        assert!(err.to_string().contains("intra gap 12"), "{err}");
    }

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
                cache: CacheDesign::DynamicLfu {
                    capacity_fraction: 0.1,
                },
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
