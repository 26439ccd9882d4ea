//! End-to-end tests of the `het-gmp` CLI binary.

use std::process::{Command, Stdio};

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
        .args([
            "capacity",
            "--workers",
            "24",
            "--mem-gb",
            "32",
            "--dim",
            "128",
        ])
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(file.exists());

    let out = het_gmp()
        .args([
            "partition",
            "--in",
            path,
            "--fields",
            "4",
            "--workers",
            "4",
            "--algo",
            "hybrid",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remote fetches/epoch"), "{text}");

    let out = het_gmp()
        .args([
            "train",
            "--in",
            path,
            "--fields",
            "4",
            "--workers",
            "2",
            "--epochs",
            "1",
            "--system",
            "het-gmp",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final AUC"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// An unknown system and the models the CLI no longer builds (DeepFM and
/// DIN were deleted) are refused by name; the usage line lists `wdl|dcn`.
#[test]
fn train_rejects_unknown_system() {
    let cases = [
        (["--system", "sparkle"], "unknown system"),
        (["--model", "deepfm"], "unknown model"),
        (["--model", "din"], "unknown model"),
    ];
    for (flag, want) in cases {
        let out = het_gmp()
            .args(["train", "--preset", "tiny"])
            .args(flag)
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{flag:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{flag:?}: {err}");
    }
    let usage = het_gmp().arg("--help").output().expect("spawn");
    assert!(String::from_utf8_lossy(&usage.stdout).contains("[--model wdl|dcn]"));
}

#[test]
fn train_telemetry_flag_writes_parseable_jsonl() {
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-tele-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tele = dir.join("out.jsonl");

    let out = het_gmp()
        .args([
            "train",
            "--preset",
            "tiny",
            "--workers",
            "2",
            "--epochs",
            "1",
            "--telemetry",
            tele.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&tele).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The run manifest, one record per epoch evaluation, the final snapshot.
    assert!(lines.len() >= 3, "{text}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "{line}"
        );
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

/// `train` builds its config as a struct literal; `Trainer::try_run`'s
/// check must still turn a zero batch or dimension into a config error
/// naming the field, before any work.
#[test]
fn train_zero_batch_or_dim_is_a_config_error_naming_the_field() {
    for (flag, field) in [("--batch", "`batch_size`"), ("--dim", "`dim`")] {
        let out = het_gmp()
            .args([
                "train",
                "--preset",
                "tiny",
                "--workers",
                "2",
                "--epochs",
                "1",
                flag,
                "0",
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(78), "{flag} 0 exits 78");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(field), "{flag} 0: {err}");
    }
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
        .args([
            "train",
            "--preset",
            "tiny",
            "--workers",
            "2",
            "--epochs",
            "1",
        ])
        .args(["--storage", "tiered", "--storage-budget-mb", "1"])
        .args(["--storage-dir", not_a_dir.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(74), "unusable spill dir exits 74");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("I/O error") && err.contains("spill"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume from a checkpoint with a corrupt count, a truncated body or a
/// non-finite dense parameter is bad content: exit 65 naming the file,
/// never a panic, an abort on a huge allocation, an I/O error, a run from a
/// wrapped epoch or a run from NaN weights.
#[test]
fn resume_from_a_corrupt_checkpoint_exits_65_naming_it() {
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Two epochs, so a resume from epoch 1 has one left to train: a
    // checkpoint that loaded would run, not stop at "nothing left".
    let train = |extra: &[&str]| {
        het_gmp()
            .args([
                "train",
                "--preset",
                "tiny",
                "--workers",
                "2",
                "--epochs",
                "2",
            ])
            .args(extra)
            .output()
            .expect("spawn")
    };
    let ckpts = dir.join("ckpts");
    let out = train(&[
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        ckpts.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let valid = std::fs::read(ckpts.join("ckpt-epoch-1.hgmr")).unwrap();
    // `epoch` (offset 8), `workers` (16) and `dense_len` (24) of the run
    // header.
    let mut cases = Vec::new();
    for (name, offset, value) in [
        ("epoch", 8, u64::MAX),
        ("workers61", 16, 1 << 61),
        ("workers36", 16, 1 << 36),
        ("dense62", 24, 1 << 62),
    ] {
        let mut bytes = valid.clone();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        cases.push((name, bytes));
    }
    cases.push(("truncated", valid[..valid.len() / 2].to_vec()));
    // The file ends with the last worker's dense parameters: make the last
    // one NaN.
    let mut nan = valid.clone();
    let at = nan.len() - 4;
    nan[at..].copy_from_slice(&f32::NAN.to_le_bytes());
    cases.push(("densenan", nan));
    for (name, bytes) in cases {
        let path = dir.join(format!("{name}.hgmr"));
        std::fs::write(&path, bytes).unwrap();
        let out = train(&["--resume", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(65), "{name}: {err}");
        assert!(err.contains(&format!("{name}.hgmr")), "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume from a checkpoint at or past `--epochs` has nothing left to
/// train: a config error naming `epochs` and both numbers, not a run that
/// prints AUC 0.5 and exits 0.
#[test]
fn resume_with_no_epoch_left_is_a_config_error() {
    let dir = std::env::temp_dir().join(format!("hetgmp-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let train = |epochs: &str, extra: &[&str]| {
        het_gmp()
            .args(["train", "--preset", "tiny", "--workers", "2", "--epochs"])
            .arg(epochs)
            .args(extra)
            .output()
            .expect("spawn")
    };
    let ckpts = dir.join("ckpts");
    let out = train(
        "2",
        &[
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = ckpts.join("ckpt-epoch-2.hgmr");
    for epochs in ["1", "2"] {
        let out = train(epochs, &["--resume", last.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(78), "--epochs {epochs}: {err}");
        assert!(
            err.contains("`epochs`")
                && err.contains("epoch 2")
                && err.contains(&format!("trains {epochs} epochs")),
            "--epochs {epochs}: {err}"
        );
    }
    let first = ckpts.join("ckpt-epoch-1.hgmr");
    let out = train("2", &["--resume", first.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--algo multilevel` names no algorithm: it gets the usage error every
/// unknown name gets.
#[test]
fn partition_multilevel_is_an_unknown_algorithm() {
    let out = het_gmp()
        .args([
            "partition",
            "--preset",
            "tiny",
            "--workers",
            "4",
            "--algo",
            "multilevel",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown algorithm exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown algorithm \"multilevel\""), "{err}");
}

/// No subcommand silently accepts a flag it does not know: an unknown flag,
/// a typo of a real one, and the retired `--pipeline-depth`,
/// `--gemm-threads`, `--read-path` and `--batch-ordering` are all usage
/// errors (exit 2) that name the offender.
#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["train", "--preset", "tiny", "--frobnicate", "3"],
            "--frobnicate",
        ),
        (
            &["train", "--preset", "tiny", "--sync-formt", "int8"],
            "--sync-formt",
        ),
        (
            &["train", "--preset", "tiny", "--pipeline-depth", "2"],
            "--pipeline-depth",
        ),
        (
            &["train", "--preset", "tiny", "--gemm-threads", "2"],
            "--gemm-threads",
        ),
        (
            &["train", "--preset", "tiny", "--read-path", "locked"],
            "--read-path",
        ),
        (
            &["train", "--preset", "tiny", "--batch-ordering=off"],
            "--batch-ordering",
        ),
        (
            &[
                "experiment",
                "fig8",
                "--scale",
                "0.02",
                "--pipeline-depth=2",
            ],
            "--pipeline-depth",
        ),
        (
            &[
                "experiment",
                "fig8",
                "--scale",
                "0.02",
                "--gemm-threads",
                "2",
            ],
            "--gemm-threads",
        ),
        (&["inspect", "report", "run.jsonl", "--wal"], "--wal"),
    ];
    for (argv, flag) in cases {
        let out = het_gmp().args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag} ")),
            "{argv:?}: {err}"
        );
    }
}

/// A numeric flag whose value does not parse is a usage error (exit 2) that
/// names the flag and the value — it must never train, partition or plan on
/// the default instead — and zero workers is refused by every subcommand
/// that takes `--workers` before anything can divide by it.
#[test]
fn unparsable_numbers_and_zero_workers_are_usage_errors() {
    let cases: [(&[&str], &str, &str); 12] = [
        (
            &[
                "train",
                "--preset",
                "tiny",
                "--workers",
                "abc",
                "--epochs",
                "1",
            ],
            "--workers",
            "\"abc\"",
        ),
        (
            &[
                "train",
                "--preset",
                "tiny",
                "--workers",
                "2",
                "--epochs",
                "1x",
            ],
            "--epochs",
            "\"1x\"",
        ),
        (
            &[
                "train", "--preset", "avazu", "--scale", "abc", "--epochs", "1",
            ],
            "--scale",
            "\"abc\"",
        ),
        (
            &["train", "--preset", "tiny", "--staleness", "-1"],
            "--staleness",
            "\"-1\"",
        ),
        (&["train", "--preset", "tiny", "--seed"], "--seed", "\"\""),
        (
            &["partition", "--preset", "tiny", "--workers", "four"],
            "--workers",
            "\"four\"",
        ),
        (
            &[
                "partition",
                "--preset",
                "tiny",
                "--workers",
                "2",
                "--rounds",
                "3.5",
            ],
            "--rounds",
            "\"3.5\"",
        ),
        (
            &["capacity", "--workers", "24", "--mem-gb", "lots"],
            "--mem-gb",
            "\"lots\"",
        ),
        (
            &["experiment", "fig8", "--scale", "small"],
            "--scale",
            "\"small\"",
        ),
        (
            &[
                "train",
                "--preset",
                "tiny",
                "--workers",
                "0",
                "--epochs",
                "1",
            ],
            "--workers",
            "0",
        ),
        (
            &["partition", "--preset", "tiny", "--workers", "0"],
            "--workers",
            "0",
        ),
        (&["capacity", "--workers", "0"], "--workers", "0"),
    ];
    for (argv, flag, value) in cases {
        let out = het_gmp().args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} ")) && err.contains(value),
            "{argv:?}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{argv:?} printed a result: {:?}",
            out.stdout
        );
    }
}

/// `--sync-format` takes `f32|int8` only: `f16` and `bf16` are usage errors
/// (exit 2) that name the value, like any other unknown format.
#[test]
fn removed_sync_formats_are_usage_errors_naming_the_value() {
    for format in ["f16", "bf16"] {
        let out = het_gmp()
            .args([
                "train",
                "--preset",
                "tiny",
                "--epochs",
                "1",
                "--sync-format",
                format,
            ])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--sync-format {format} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--sync-format") && err.contains(&format!("\"{format}\"")),
            "{format}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{format} printed a result: {:?}",
            out.stdout
        );
    }
}

/// A reader that closes standard output before the run prints (`| true`,
/// `| head -0`) ends the run quietly: exit 0, no panic on stderr.
#[test]
fn closed_stdout_exits_quietly() {
    let mut child = het_gmp()
        .args([
            "train",
            "--preset",
            "tiny",
            "--workers",
            "2",
            "--epochs",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

/// The §3 KG extension has a route: `experiment kg` exits 0 and prints one
/// row per system.
#[test]
fn experiment_kg_prints_every_system() {
    let out = het_gmp()
        .args(["experiment", "kg", "--scale", "0.02"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for system in ["HET-MP ", "HET-GMP(s=0) ", "HET-GMP(s=100) "] {
        assert!(
            text.lines().any(|l| l.starts_with(system)),
            "no {system}row:\n{text}"
        );
    }
}
