#![forbid(unsafe_code)]

//! Post-hoc analysis of HET-GMP run artifacts.
//!
//! Every run of the trainer, the experiment harness, and the benches leaves
//! artifacts behind — telemetry JSONL logs, Chrome trace-event timelines,
//! `BENCH_*.json` result files — each stamped with a
//! [`RunManifest`](hetgmp_telemetry::RunManifest) identifying the
//! configuration that produced it. This crate turns those artifacts back
//! into answers, powering the `het-gmp inspect` subcommand:
//!
//! * [`report`] — a Figure 8-style breakdown of one telemetry log: traffic
//!   volume by class (embed data / keys+clocks / AllReduce), simulated time
//!   by category and stage, the per-epoch timeline, and (on request) the
//!   wall-clock per-stage histograms.
//! * [`gantt`] — an ASCII per-track occupancy timeline rendered from a
//!   Chrome trace file: which worker/link was busy when, and how occupied
//!   each pipeline stage kept its timeline.
//! * [`diff`] — a cross-run comparison of two telemetry logs or two bench
//!   files: per-metric deltas, configurable regression thresholds on the
//!   throughput/quality metrics, and a loud warning when the two runs'
//!   manifests show they were not measuring the same configuration.
//!
//! Everything here is read-only over the `Json` value model from
//! `hetgmp-telemetry` — no new dependencies, no serde.

pub mod artifact;
pub mod diff;
pub mod gantt;
pub mod report;

pub use artifact::Artifact;
pub use diff::{diff_artifacts, DiffOptions, DiffOutcome};
pub use gantt::render_gantt;
pub use report::render_report;
