//! Cross-run regression diffs over pairs of run artifacts.
//!
//! Both artifacts are reduced to flat `metric -> value` maps (the final
//! snapshot's counters/gauges for telemetry logs, every numeric leaf for
//! bench documents), compared per metric, and classified: a metric whose
//! name says "higher is better" (throughput, AUC, overlap) regresses when
//! it drops by more than the threshold; one whose name says "lower is
//! better" (stalls, overhead, log loss) regresses when it grows. Metrics
//! with no known direction are reported but never fail the diff. When both
//! artifacts carry manifests that disagree on anything except the git
//! revision, the outcome carries a loud warning — the numbers being
//! compared did not come from the same configuration.

use crate::artifact::{flatten_numeric, Artifact};
use hetgmp_telemetry::HetGmpError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Name suffixes where a *drop* beyond the threshold is a regression.
const HIGHER_BETTER: [&str; 9] = [
    "samples_per_sec",
    "samples_per_cpu_sec",
    "rows_per_sec",
    "gflops",
    "speedup",
    "overlap_ratio",
    "auc",
    "final_auc",
    "occupancy",
];

/// Name suffixes where a *rise* beyond the threshold is a regression.
const LOWER_BETTER: [&str; 6] = [
    "stall_pct",
    "stall_secs",
    "overhead_secs",
    "log_loss",
    "logloss",
    "loss",
];

/// Knobs for [`diff_artifacts`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative change (percent) beyond which a directional metric counts
    /// as a regression.
    pub threshold_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { threshold_pct: 5.0 }
    }
}

/// The result of a diff: the rendered table plus machine-checkable verdicts.
#[derive(Debug)]
pub struct DiffOutcome {
    /// The human-readable per-metric table and summary.
    pub report: String,
    /// One line per regressed metric; empty means the diff passed.
    pub regressions: Vec<String>,
    /// Set when the two runs' manifests disagree (ignoring git revision)
    /// or only one side has a manifest.
    pub manifest_warning: Option<String>,
}

/// Diffs artifact `b` (candidate) against `a` (baseline).
pub fn diff_artifacts(
    a: &Artifact,
    b: &Artifact,
    opts: &DiffOptions,
) -> Result<DiffOutcome, HetGmpError> {
    let metrics_a = metric_map(a)?;
    let metrics_b = metric_map(b)?;

    let manifest_warning = match (a.manifest(), b.manifest()) {
        (Some(ma), Some(mb)) => {
            let diffs = ma.mismatches(mb);
            (!diffs.is_empty()).then(|| {
                format!(
                    "WARNING: comparing runs with different configurations — {}",
                    diffs.join(", ")
                )
            })
        }
        (None, None) => None,
        (Some(_), None) => Some("WARNING: candidate artifact has no run manifest".to_string()),
        (None, Some(_)) => Some("WARNING: baseline artifact has no run manifest".to_string()),
    };

    let mut out = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        out,
        "{:<44} {:>14} {:>14} {:>9}",
        "metric", "baseline", "candidate", "delta"
    );
    let mut only_a = 0usize;
    let only_b = metrics_b
        .keys()
        .filter(|k| !metrics_a.contains_key(*k))
        .count();
    for (name, &va) in &metrics_a {
        let Some(&vb) = metrics_b.get(name) else {
            only_a += 1;
            continue;
        };
        let rel = if va != 0.0 {
            Some(100.0 * (vb - va) / va.abs())
        } else if vb == 0.0 {
            Some(0.0)
        } else {
            None
        };
        let delta = match rel {
            Some(r) => format!("{r:>+8.2}%"),
            None => format!("{:>9}", "new!=0"),
        };
        let verdict = classify(name, va, vb, rel, opts.threshold_pct);
        let marker = match verdict {
            Verdict::Regression => " REGRESSION",
            Verdict::Improvement => " improved",
            Verdict::Neutral => "",
        };
        let _ = writeln!(out, "{name:<44} {va:>14.4} {vb:>14.4} {delta}{marker}");
        if verdict == Verdict::Regression {
            regressions.push(format!("{name}: {va:.4} -> {vb:.4} ({delta})"));
        }
    }
    if only_a > 0 || only_b > 0 {
        let _ = writeln!(
            out,
            "({only_a} metric(s) only in baseline, {only_b} only in candidate)"
        );
    }
    let _ = match &regressions[..] {
        [] => writeln!(out, "\nresult: OK (threshold {:.1}%)", opts.threshold_pct),
        rs => writeln!(
            out,
            "\nresult: {} regression(s) beyond {:.1}%:\n  {}",
            rs.len(),
            opts.threshold_pct,
            rs.join("\n  ")
        ),
    };

    Ok(DiffOutcome {
        report: out,
        regressions,
        manifest_warning,
    })
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Regression,
    Improvement,
    Neutral,
}

/// Classifies one metric's change. `rel` is the relative change in percent
/// (None when the baseline is zero and the candidate is not — treated as a
/// regression for lower-better metrics, since something that was absent
/// now costs time).
fn classify(name: &str, _va: f64, vb: f64, rel: Option<f64>, threshold_pct: f64) -> Verdict {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    let higher = HIGHER_BETTER.contains(&leaf);
    let lower = !higher && LOWER_BETTER.contains(&leaf);
    match rel {
        Some(r) => {
            if (higher && r < -threshold_pct) || (lower && r > threshold_pct) {
                Verdict::Regression
            } else if (higher && r > threshold_pct) || (lower && r < -threshold_pct) {
                Verdict::Improvement
            } else {
                Verdict::Neutral
            }
        }
        None if lower && vb > 0.0 => Verdict::Regression,
        None => Verdict::Neutral,
    }
}

/// Reduces an artifact to a flat metric map. Telemetry logs contribute the
/// final snapshot's counters and gauges (histograms are distributions, not
/// single comparable numbers); documents contribute every numeric leaf
/// outside the manifest stamp.
fn metric_map(artifact: &Artifact) -> Result<BTreeMap<String, f64>, HetGmpError> {
    let mut flat = Vec::new();
    match artifact {
        Artifact::Telemetry { .. } => {
            let fin = artifact.final_record().ok_or_else(|| {
                HetGmpError::data_unattributed(
                    0,
                    "telemetry log has no {\"event\":\"final\"} snapshot to diff",
                )
            })?;
            for section in ["counters", "gauges"] {
                if let Some(v) = fin.get(section) {
                    flatten_numeric(v, section, &mut flat);
                }
            }
            if let Some(auc) = fin.get("auc") {
                flatten_numeric(auc, "auc", &mut flat);
            }
        }
        Artifact::Document { doc, .. } => {
            if let Some(members) = doc.as_obj() {
                for (k, v) in members {
                    if k == "manifest" || k == "otherData" {
                        continue;
                    }
                    flatten_numeric(v, k, &mut flat);
                }
            } else {
                flatten_numeric(doc, "", &mut flat);
            }
        }
    }
    Ok(flat.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_telemetry::RunManifest;

    fn bench(samples_per_sec: f64, stall_pct: f64, seed: u64) -> Artifact {
        let m = RunManifest::new(seed, RunManifest::digest_of("cfg"), 2);
        Artifact::parse(&format!(
            r#"{{"samples_per_sec": {samples_per_sec}, "stall_pct": {stall_pct}, "final_auc": 0.75, "manifest": {}}}"#,
            m.to_json().render()
        ))
        .unwrap()
    }

    #[test]
    fn flags_throughput_drop_beyond_threshold() {
        let a = bench(100000.0, 1.0, 42);
        let b = bench(94000.0, 1.0, 42);
        let out = diff_artifacts(&a, &b, &DiffOptions::default()).unwrap();
        assert_eq!(out.regressions.len(), 1, "{}", out.report);
        assert!(
            out.regressions[0].contains("samples_per_sec"),
            "{}",
            out.report
        );
        assert!(out.manifest_warning.is_none(), "{:?}", out.manifest_warning);
        assert!(out.report.contains("REGRESSION"), "{}", out.report);
    }

    #[test]
    fn tolerates_noise_and_rewards_improvement() {
        let a = bench(100000.0, 2.0, 42);
        // -3% throughput is within the 5% default; stall halved is an improvement.
        let b = bench(97000.0, 1.0, 42);
        let out = diff_artifacts(&a, &b, &DiffOptions::default()).unwrap();
        assert!(out.regressions.is_empty(), "{}", out.report);
        assert!(out.report.contains("improved"), "{}", out.report);
        assert!(out.report.contains("result: OK"), "{}", out.report);
    }

    #[test]
    fn stall_growth_regresses_and_threshold_is_configurable() {
        let a = bench(100000.0, 1.0, 42);
        let b = bench(100000.0, 1.2, 42);
        let out = diff_artifacts(&a, &b, &DiffOptions::default()).unwrap();
        assert_eq!(out.regressions.len(), 1, "{}", out.report);
        assert!(out.regressions[0].contains("stall_pct"), "{}", out.report);
        // With a 25% threshold the same 20% rise passes.
        let out = diff_artifacts(
            &a,
            &b,
            &DiffOptions {
                threshold_pct: 25.0,
            },
        )
        .unwrap();
        assert!(out.regressions.is_empty(), "{}", out.report);
    }

    #[test]
    fn warns_on_manifest_mismatch_between_runs() {
        let a = bench(100000.0, 1.0, 42);
        let b = bench(100500.0, 1.0, 43);
        let out = diff_artifacts(&a, &b, &DiffOptions::default()).unwrap();
        let warning = out.manifest_warning.expect("seed mismatch should warn");
        assert!(warning.contains("seed"), "{warning}");
        assert!(out.regressions.is_empty(), "{}", out.report);
    }

    #[test]
    fn diffs_telemetry_final_snapshots() {
        let log = |embed: u64, auc: f64| {
            Artifact::parse(&format!(
                concat!(
                    r#"{{"event":"epoch","epoch":1}}"#,
                    "\n",
                    r#"{{"event":"final","auc":{auc},"counters":{{"traffic.bytes.embed_data":{embed}}},"gauges":{{"time.compute_secs":1.5}}}}"#,
                    "\n",
                ),
                auc = auc,
                embed = embed,
            ))
            .unwrap()
        };
        let out =
            diff_artifacts(&log(1000, 0.75), &log(1200, 0.70), &DiffOptions::default()).unwrap();
        // auc dropped 6.7% -> regression; traffic has no direction -> reported only.
        assert_eq!(out.regressions.len(), 1, "{}", out.report);
        assert!(out.regressions[0].contains("auc"), "{}", out.report);
        assert!(
            out.report.contains("traffic.bytes.embed_data"),
            "{}",
            out.report
        );
        // Neither side has a manifest: nothing to warn about.
        assert!(out.manifest_warning.is_none());
    }
}
