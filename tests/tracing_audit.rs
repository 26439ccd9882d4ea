//! End-to-end tests of the tracing + auditing surface: the `--trace` /
//! `--trace-level` / `--audit` CLI flags, the Chrome trace-event export
//! schema, and the experiment runners' audited JSONL records.

use std::path::PathBuf;
use std::process::Command;

fn het_gmp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_het-gmp"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetgmp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `train --trace` writes a well-formed Chrome trace-event JSON with one
/// thread track per worker, link-class tracks, and the driver track.
#[test]
fn train_trace_flag_writes_chrome_trace_schema() {
    let dir = scratch_dir("trace");
    let trace = dir.join("out.trace.json");

    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--workers", "2", "--epochs", "1",
            "--trace", trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("trace: "),
        "trace path not reported"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    // One JSON object, balanced braces/brackets (the workspace serializer
    // has its own unit tests; here we pin the envelope and the tracks).
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    assert!(text.contains(r#""traceEvents""#), "missing traceEvents envelope");

    // Track metadata: both worker threads, at least one link class, driver.
    assert!(text.contains(r#""worker 0""#), "missing worker 0 track");
    assert!(text.contains(r#""worker 1""#), "missing worker 1 track");
    assert!(text.contains(r#""link "#), "missing link-class track");
    assert!(text.contains(r#""driver""#), "missing driver track");

    // Span events with timestamps and the core span names.
    assert!(text.contains(r#""ph":"X""#), "no complete-span events");
    assert!(text.contains(r#""ts":"#), "no timestamps");
    assert!(text.contains("trace.batch"), "no batch spans");
    assert!(text.contains("trace.epoch"), "no epoch spans");
    assert!(text.contains("trace.partition.round"), "no partitioner spans");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace -` streams the trace JSON to stdout; `--trace-level sync`
/// additionally captures per-read instants.
#[test]
fn trace_to_stdout_with_sync_level_instants() {
    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--workers", "2", "--epochs", "1",
            "--trace", "-", "--trace-level", "sync",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(r#""traceEvents""#), "{text}");
    // Sync level: instant events (ph "i") for protocol decisions.
    assert!(text.contains(r#""ph":"i""#), "no instant events at sync level");
    assert!(text.contains("trace.read"), "no read-mix instants");
}

/// Unknown trace levels and audit modes are usage errors (exit 2).
#[test]
fn trace_and_audit_flags_validate() {
    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--trace", "-", "--trace-level", "verbose",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace level"));

    let out = het_gmp()
        .args(["train", "--preset", "tiny", "--audit=paranoid"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown audit mode"));
}

/// BSP (`--staleness 0`) under the strict auditor: a correct protocol
/// serves no read staler than the bound, so the run completes with zero
/// violations and exit 0.
#[test]
fn strict_audit_bsp_run_reports_zero_violations() {
    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--workers", "2", "--epochs", "1",
            "--staleness", "0", "--audit=strict",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit: bound=0"), "{text}");
    assert!(text.contains("violations=0"), "{text}");
    assert!(!text.contains("STRICT FAILURE"), "{text}");
}

/// The experiment runners emit audited JSONL records with the documented
/// event names: `ablation.staleness` snapshots carry an `audit` object,
/// `ablation.replication` rows are plain records.
#[test]
fn experiment_ablation_jsonl_event_shapes() {
    let dir = scratch_dir("abl-jsonl");
    let tele = dir.join("out.jsonl");

    let out = het_gmp()
        .args([
            "experiment", "ablation", "--scale", "0.02",
            "--telemetry", tele.to_str().unwrap(), "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&tele).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let staleness: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"ablation.staleness""#))
        .collect();
    assert_eq!(staleness.len(), 4, "one record per s value:\n{text}");
    for l in &staleness {
        assert!(l.contains(r#""staleness":"#), "{l}");
        assert!(l.contains(r#""throughput":"#), "{l}");
        assert!(l.contains(r#""audit":"#), "audited run lacks audit object: {l}");
        assert!(l.contains(r#""intra_violations":0"#), "{l}");
        assert!(l.contains(r#""counters":"#), "snapshot missing: {l}");
    }
    let replication: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"ablation.replication""#))
        .collect();
    assert_eq!(replication.len(), 5, "one record per budget:\n{text}");
    for l in &replication {
        assert!(l.contains(r#""budget_fraction":"#), "{l}");
        assert!(l.contains(r#""remote_fetches":"#), "{l}");
        assert!(l.contains(r#""replication_factor":"#), "{l}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Figure 8's runner at smoke scale: every `fig8` record names its
/// workload and setting, audited runs carry the audit object, and a
/// shared trace collector accumulates spans across all runs.
#[test]
fn experiment_fig8_jsonl_and_trace() {
    let dir = scratch_dir("fig8-jsonl");
    let tele = dir.join("out.jsonl");
    let trace = dir.join("out.trace.json");

    let out = het_gmp()
        .args([
            "experiment", "fig8", "--scale", "0.01",
            "--telemetry", tele.to_str().unwrap(),
            "--audit", "--trace", trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&tele).unwrap();
    let fig8: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(r#""event":"fig8""#))
        .collect();
    // 2 models x 3 datasets x 4 settings.
    assert_eq!(fig8.len(), 24, "{text}");
    for l in &fig8 {
        assert!(l.contains(r#""workload":"#), "{l}");
        assert!(l.contains(r#""setting":"#), "{l}");
        assert!(l.contains(r#""audit":"#), "{l}");
    }

    // All 24 runs share one collector; the export still has the envelope
    // and worker tracks.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains(r#""traceEvents""#));
    assert!(trace_text.contains(r#""worker 0""#));
    assert!(trace_text.contains("trace.epoch"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Table 2's runner at smoke scale emits one audited `table2` record per
/// dataset x staleness cell.
#[test]
fn experiment_table2_jsonl_event_shapes() {
    let dir = scratch_dir("table2-jsonl");
    let tele = dir.join("out.jsonl");

    let out = het_gmp()
        .args([
            "experiment", "table2", "--scale", "0.01",
            "--telemetry", tele.to_str().unwrap(), "--audit",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&tele).unwrap();
    let table2: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(r#""event":"table2""#))
        .collect();
    // 3 datasets x 4 staleness settings.
    assert_eq!(table2.len(), 12, "{text}");
    for l in &table2 {
        assert!(l.contains(r#""dataset":"#), "{l}");
        assert!(l.contains(r#""staleness":"#), "{l}");
        assert!(l.contains(r#""auc":"#), "{l}");
        assert!(l.contains(r#""audit":"#), "{l}");
        // The auditor never sees a served read above the bound, even at
        // s=inf (where the bound admits everything).
        assert!(l.contains(r#""intra_violations":0"#), "{l}");
        assert!(l.contains(r#""inter_violations":0"#), "{l}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A collector that recorded no spans still exports a *valid* Chrome
/// trace: the traceEvents array holds only process/thread metadata (no
/// "X" events), otherData carries the attached manifest, and the inspect
/// gantt renderer recognises the metadata-only shape rather than erroring.
#[test]
fn empty_trace_export_is_valid_metadata_only_chrome_json() {
    use het_gmp::inspect::{render_gantt, Artifact};
    use het_gmp::telemetry::{RunManifest, TraceCollector, TraceLevel};

    let dir = scratch_dir("empty-trace");
    let path = dir.join("empty.trace.json");

    let collector = TraceCollector::new(2, TraceLevel::Batch);
    collector.attach_manifest(RunManifest::new(5, RunManifest::digest_of("x"), 2));
    collector.write_chrome_trace(path.to_str().unwrap()).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(r#""traceEvents""#), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
    assert!(text.contains(r#""ph":"M""#), "metadata events missing: {text}");
    assert!(!text.contains(r#""ph":"X""#), "span events in an empty trace: {text}");

    let artifact = Artifact::load(&path).unwrap();
    assert_eq!(artifact.manifest().map(|m| m.seed), Some(5));
    let gantt = render_gantt(&artifact).unwrap();
    assert!(gantt.contains("metadata-only"), "{gantt}");

    std::fs::remove_dir_all(&dir).ok();
}
