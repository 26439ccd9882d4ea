//! End-to-end tests of the `het-gmp` CLI binary.

use std::process::Command;

fn het_gmp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_het-gmp"))
}

#[test]
fn help_prints_usage() {
    let out = het_gmp().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: het-gmp"));
    assert!(text.contains("experiment"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = het_gmp().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn capacity_reproduces_paper_claim() {
    let out = het_gmp()
        .args(["capacity", "--workers", "24", "--mem-gb", "32", "--dim", "128"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // ~1.4e11 parameters.
    assert!(text.contains("e11 parameters"), "{text}");
}

#[test]
fn gen_partition_train_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("tiny.svm");
    let path = file.to_str().unwrap();

    let out = het_gmp()
        .args(["gen", "--preset", "tiny", "--out", path])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(file.exists());

    let out = het_gmp()
        .args([
            "partition", "--in", path, "--fields", "4", "--workers", "4", "--algo", "hybrid",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remote fetches/epoch"), "{text}");

    let out = het_gmp()
        .args([
            "train", "--in", path, "--fields", "4", "--workers", "2", "--epochs", "1",
            "--system", "het-gmp",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final AUC"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_rejects_unknown_system() {
    let out = het_gmp()
        .args(["train", "--preset", "tiny", "--system", "sparkle"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown system"));
}

#[test]
fn train_telemetry_flag_writes_parseable_jsonl() {
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-tele-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tele = dir.join("out.jsonl");

    let out = het_gmp()
        .args([
            "train", "--preset", "tiny", "--workers", "2", "--epochs", "1",
            "--telemetry", tele.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&tele).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The run manifest, one record per epoch evaluation, the final snapshot.
    assert!(lines.len() >= 3, "{text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count(), "{line}");
    }
    assert!(lines[0].contains(r#""event":"manifest""#), "{}", lines[0]);
    assert!(lines[0].contains(r#""config_digest":"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""event":"epoch""#), "{}", lines[1]);
    let last = lines.last().unwrap();
    assert!(last.contains(r#""event":"final""#), "{last}");
    assert!(last.contains(r#""traffic.bytes.embed_data":"#), "{last}");
    assert!(last.contains(r#""traffic.bytes.allreduce":"#), "{last}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exit_codes_follow_sysexits() {
    // Usage error -> 2.
    let out = het_gmp()
        .args(["train", "--preset", "tiny", "--system", "sparkle"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");

    // Malformed data -> 65, with the offending file and line reported.
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.svm");
    std::fs::write(&bad, "not-a-label 1:1\n").unwrap();
    let out = het_gmp()
        .args(["train", "--in", bad.to_str().unwrap(), "--fields", "2"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(65), "data errors exit 65");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad.svm") && err.contains("line 1"), "{err}");

    // I/O error (missing file) -> 74.
    let out = het_gmp()
        .args(["train", "--in", "/nonexistent/x.svm", "--fields", "2"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(74), "I/O errors exit 74");

    // An unusable spill directory (here: a file) is the same I/O error,
    // naming the path — not a panic inside the tiered table.
    let not_a_dir = dir.join("spill");
    std::fs::write(&not_a_dir, "x").unwrap();
    let out = het_gmp()
        .args(["train", "--preset", "tiny", "--workers", "2", "--epochs", "1"])
        .args(["--storage", "tiered", "--storage-budget-mb", "1"])
        .args(["--storage-dir", not_a_dir.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(74), "unusable spill dir exits 74");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("I/O error") && err.contains("spill"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_multilevel_via_unified_interface() {
    let out = het_gmp()
        .args(["partition", "--preset", "tiny", "--workers", "4", "--algo", "multilevel"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("multilevel"), "{text}");
}

/// No subcommand silently accepts a flag it does not know: an unknown flag,
/// a typo of a real one, and the retired `--pipeline-depth`,
/// `--gemm-threads`, `--read-path` and `--batch-ordering` are all usage
/// errors (exit 2) that name the offender.
#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        (&["train", "--preset", "tiny", "--frobnicate", "3"], "--frobnicate"),
        (&["train", "--preset", "tiny", "--sync-formt", "int8"], "--sync-formt"),
        (&["train", "--preset", "tiny", "--pipeline-depth", "2"], "--pipeline-depth"),
        (&["train", "--preset", "tiny", "--gemm-threads", "2"], "--gemm-threads"),
        (&["train", "--preset", "tiny", "--read-path", "locked"], "--read-path"),
        (&["train", "--preset", "tiny", "--batch-ordering=off"], "--batch-ordering"),
        (&["experiment", "fig8", "--scale", "0.02", "--pipeline-depth=2"], "--pipeline-depth"),
        (&["experiment", "fig8", "--scale", "0.02", "--gemm-threads", "2"], "--gemm-threads"),
        (&["inspect", "report", "run.jsonl", "--wal"], "--wal"),
    ];
    for (argv, flag) in cases {
        let out = het_gmp().args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag} ")), "{argv:?}: {err}");
    }
}

/// A numeric flag whose value does not parse is a usage error (exit 2) that
/// names the flag and the value — it must never train, partition or plan on
/// the default instead — and zero workers is refused by every subcommand
/// that takes `--workers` before anything can divide by it.
#[test]
fn unparsable_numbers_and_zero_workers_are_usage_errors() {
    let cases: [(&[&str], &str, &str); 12] = [
        (&["train", "--preset", "tiny", "--workers", "abc", "--epochs", "1"], "--workers", "\"abc\""),
        (&["train", "--preset", "tiny", "--workers", "2", "--epochs", "1x"], "--epochs", "\"1x\""),
        (&["train", "--preset", "avazu", "--scale", "abc", "--epochs", "1"], "--scale", "\"abc\""),
        (&["train", "--preset", "tiny", "--staleness", "-1"], "--staleness", "\"-1\""),
        (&["train", "--preset", "tiny", "--seed"], "--seed", "\"\""),
        (&["partition", "--preset", "tiny", "--workers", "four"], "--workers", "\"four\""),
        (&["partition", "--preset", "tiny", "--workers", "2", "--rounds", "3.5"], "--rounds", "\"3.5\""),
        (&["capacity", "--workers", "24", "--mem-gb", "lots"], "--mem-gb", "\"lots\""),
        (&["experiment", "fig8", "--scale", "small"], "--scale", "\"small\""),
        (&["train", "--preset", "tiny", "--workers", "0", "--epochs", "1"], "--workers", "0"),
        (&["partition", "--preset", "tiny", "--workers", "0"], "--workers", "0"),
        (&["capacity", "--workers", "0"], "--workers", "0"),
    ];
    for (argv, flag, value) in cases {
        let out = het_gmp().args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} ")) && err.contains(value), "{argv:?}: {err}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a result: {:?}", out.stdout);
    }
}
