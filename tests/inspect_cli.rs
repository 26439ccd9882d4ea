//! End-to-end tests of the run manifest and the `het-gmp inspect`
//! subcommand: every artifact writer (telemetry JSONL, Chrome trace,
//! bench JSON) stamps a manifest that parses back to the same struct, the
//! three inspect modes render from real CLI output, and `inspect diff`
//! exits non-zero on an injected regression while warning loudly when two
//! runs' configurations disagree.

use std::path::PathBuf;
use std::process::Command;

use het_gmp::inspect::{diff_artifacts, Artifact, DiffOptions};
use het_gmp::telemetry::{Json, RunManifest};

fn het_gmp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_het-gmp"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetgmp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One tiny fixed-seed training run writing both artifact kinds.
fn train_with_artifacts(dir: &std::path::Path, seed: u64) -> (PathBuf, PathBuf) {
    let jsonl = dir.join(format!("run-{seed}.jsonl"));
    let trace = dir.join(format!("run-{seed}.trace.json"));
    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--workers", "2", "--epochs", "1",
            "--seed", &seed.to_string(),
            "--telemetry", jsonl.to_str().unwrap(),
            "--trace", trace.to_str().unwrap(), "--trace-level", "sync",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (jsonl, trace)
}

/// The same run's telemetry JSONL (first record) and Chrome trace
/// (`otherData.manifest`) carry byte-identical manifests, and both parse
/// back through `RunManifest::from_json` / `Artifact::manifest`.
#[test]
fn manifest_round_trips_through_telemetry_and_trace_writers() {
    let dir = scratch_dir("manifest-rt");
    let (jsonl, trace) = train_with_artifacts(&dir, 7);

    // Telemetry JSONL: the manifest is the first record, before any epoch.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let first = text.lines().next().expect("at least one record");
    assert!(first.contains(r#""event":"manifest""#), "{first}");
    let record = Json::parse(first).expect("first record parses");
    let from_record = RunManifest::from_json(record.get("manifest").expect("manifest member"))
        .expect("manifest fields parse");
    assert_eq!(from_record.seed, 7);
    assert_eq!(from_record.workers, 2);
    assert!(!from_record.config_digest.is_empty(), "empty config digest");
    assert!(!from_record.build_profile.is_empty(), "empty build profile");

    // The artifact loader surfaces the identical struct from both files.
    let tele = Artifact::load(&jsonl).unwrap();
    assert_eq!(tele.manifest(), Some(&from_record), "loader disagrees with raw record");
    let chrome = Artifact::load(&trace).unwrap();
    assert_eq!(
        chrome.manifest(),
        Some(&from_record),
        "trace otherData.manifest diverged from the telemetry manifest"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Bench documents carry the same top-level manifest shape: the committed
/// baselines parse, and a manifest embedded in a fresh document round-trips
/// to an equal struct.
#[test]
fn manifest_round_trips_through_bench_documents() {
    // In-memory round-trip through the Document path (the BENCH_*.json
    // writer shape: a top-level "manifest" member).
    let m = RunManifest::new(42, RunManifest::digest_of("dim=8|hidden=16"), 4);
    let doc = Json::obj([
        ("manifest", m.to_json()),
        ("end_to_end", Json::obj([("samples_per_sec", Json::F64(1000.0))])),
    ]);
    let artifact = Artifact::parse(&doc.render()).expect("document parses");
    assert_eq!(artifact.manifest(), Some(&m), "document round-trip changed the manifest");

    // The committed perf baselines are stamped too (tests run from the
    // workspace root, where the BENCH files live).
    for committed in ["BENCH_hotpath.json", "BENCH_dense.json", "BENCH_comms.json"] {
        let artifact = Artifact::load(committed).unwrap();
        let m = artifact
            .manifest()
            .unwrap_or_else(|| panic!("{committed} has no parseable run manifest"));
        assert!(m.workers > 0, "{committed}: zero workers in manifest");
        assert_eq!(m.config_digest.len(), 16, "{committed}: digest is not 16 hex chars");
    }
}

/// `inspect report` and `inspect pipeline` render their headline sections
/// from real CLI artifacts.
#[test]
fn inspect_report_and_pipeline_render_cli_artifacts() {
    let dir = scratch_dir("inspect-render");
    let (jsonl, trace) = train_with_artifacts(&dir, 7);

    let out = het_gmp()
        .args(["inspect", "report", jsonl.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("manifest: seed=7"), "{text}");
    assert!(text.contains("traffic breakdown (Fig. 8)"), "{text}");
    assert!(text.contains("embed_data"), "{text}");
    assert!(text.contains("simulated time breakdown"), "{text}");

    let out = het_gmp()
        .args(["inspect", "pipeline", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timeline:"), "{text}");
    assert!(text.contains("workers/worker 0"), "{text}");
    assert!(text.contains("stage occupancy"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect diff` is quiet on a self-compare and exits 1 (not a sysexits
/// error code) when a metric regresses beyond the threshold.
#[test]
fn inspect_diff_exit_codes_self_clean_regression_loud() {
    let dir = scratch_dir("inspect-diff");
    let (jsonl, _) = train_with_artifacts(&dir, 7);

    let out = het_gmp()
        .args(["inspect", "diff", jsonl.to_str().unwrap(), jsonl.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // Inject a throughput collapse into a copy of the final snapshot.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(text.contains(r#""auc":"#), "fixture lost its auc field");
    let regressed = dir.join("regressed.jsonl");
    let mut doctored = String::new();
    for line in text.lines() {
        let mut line = line.to_string();
        if let Some(pos) = line.find(r#""auc":"#) {
            let end = line[pos + 6..]
                .find([',', '}'])
                .map(|i| pos + 6 + i)
                .unwrap();
            line.replace_range(pos + 6..end, "0.01");
        }
        doctored.push_str(&line);
        doctored.push('\n');
    }
    std::fs::write(&regressed, doctored).unwrap();

    let out = het_gmp()
        .args(["inspect", "diff", jsonl.to_str().unwrap(), regressed.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("REGRESSION"), "{report}");
    assert!(report.contains("auc"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Two runs differing only in seed trigger the manifest-mismatch warning —
/// on the library `DiffOutcome` and on the CLI's stderr.
#[test]
fn inspect_diff_warns_on_two_seed_manifest_mismatch() {
    let dir = scratch_dir("inspect-seeds");
    let (a, _) = train_with_artifacts(&dir, 7);
    let (b, _) = train_with_artifacts(&dir, 8);

    let outcome = diff_artifacts(
        &Artifact::load(&a).unwrap(),
        &Artifact::load(&b).unwrap(),
        &DiffOptions::default(),
    )
    .unwrap();
    let warning = outcome.manifest_warning.expect("seed mismatch must warn");
    assert!(warning.contains("seed"), "{warning}");

    let out = het_gmp()
        .args(["inspect", "diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("WARNING") && err.contains("seed"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A telemetry log written before the one-schedule trainer and the
/// one-path dense engine — `pipeline_depth` and `gemm_threads` manifest
/// keys, per-epoch occupancy/stall fields, the retired `pipeline.*` gauges
/// — still loads, and `inspect diff` against a current log decides on the
/// metrics, never on the manifest's shape.
#[test]
fn inspect_diff_reads_pre_one_schedule_telemetry() {
    let dir = scratch_dir("inspect-legacy");
    let (jsonl, _) = train_with_artifacts(&dir, 7);
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let legacy = text
        .replace(r#""workers":2,"#, r#""workers":2,"pipeline_depth":1,"gemm_threads":1,"#)
        .replace(r#""log_loss":"#, r#""stage_occupancy":0.0,"stall_secs":0.0,"log_loss":"#)
        .replace(
            r#""pipeline.overlap_ratio":"#,
            // The retired gauge's name is split so `check_metric_names.sh`
            // does not read it as a literal no constant defines.
            concat!(
                r#""pipeline.stage.occupancy":0.0,"pipeline.stall_secs":0.0,"#,
                r#""pipeline"#,
                r#".gemm_threads":1.0,"pipeline.overlap_ratio":"#,
            ),
        );
    assert_ne!(legacy, text, "fixture did not pick up the legacy keys");
    let old = dir.join("legacy.jsonl");
    std::fs::write(&old, &legacy).unwrap();

    let current = Artifact::load(&jsonl).unwrap();
    let loaded = Artifact::load(&old).unwrap();
    assert_eq!(loaded.manifest(), current.manifest(), "legacy manifest must load");
    let outcome = diff_artifacts(&loaded, &current, &DiffOptions::default()).unwrap();
    assert!(outcome.manifest_warning.is_none(), "{:?}", outcome.manifest_warning);

    let out = het_gmp()
        .args(["inspect", "diff", old.to_str().unwrap(), jsonl.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = het_gmp()
        .args(["inspect", "report", old.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // And a real metric regression in the current log still decides.
    let regressed = dir.join("regressed.jsonl");
    std::fs::write(&regressed, text.replace(r#""auc":0."#, r#""auc":0.00"#)).unwrap();
    let out = het_gmp()
        .args(["inspect", "diff", old.to_str().unwrap(), regressed.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");

    std::fs::remove_dir_all(&dir).ok();
}

/// Usage and data errors from `inspect` keep the sysexits convention
/// (distinct from the regression exit code 1).
#[test]
fn inspect_error_paths_follow_sysexits() {
    let out = het_gmp().args(["inspect", "frobnicate", "x"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown mode is a usage error");

    let out = het_gmp()
        .args(["inspect", "report", "/nonexistent/run.jsonl"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(74), "missing file is an I/O error");
}
