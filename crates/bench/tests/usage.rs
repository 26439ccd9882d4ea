//! The `expt_*` binaries share `hetgmp_bench`'s argv helpers. A value one
//! of them cannot parse must stop the binary with a usage error before it
//! trains anything: falling back to the default would print a table the
//! reader labels with the value they typed.

use std::process::Command;

/// Runs `bin` and returns its stderr, asserting it exited 2 with the usage
/// text and without printing a result.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    stderr
}

#[test]
fn scale_arg_rejects_an_unparsable_scale() {
    let err = usage_error(env!("CARGO_BIN_EXE_expt_fig8"), &["0,02"]);
    assert!(err.contains("SCALE") && err.contains("\"0,02\""), "{err}");
}

#[test]
fn second_arg_rejects_an_unparsable_epoch_count() {
    let err = usage_error(env!("CARGO_BIN_EXE_expt_table2"), &["0.02", "three"]);
    assert!(err.contains("EPOCHS") && err.contains("\"three\""), "{err}");
}

#[test]
fn sync_format_flags_reject_misspelt_values_and_unknown_flags() {
    let fig8 = env!("CARGO_BIN_EXE_expt_fig8");
    for (args, flag, value) in [
        (&["--sync-format", "f64"][..], "--sync-format", "\"f64\""),
        (&["0.02", "--sync-format=in8"], "--sync-format", "\"in8\""),
        (&["--sync-feedback", "maybe"], "--sync-feedback", "\"maybe\""),
        (&["0.02", "--frobnicate", "2"], "--frobnicate", "unknown flag"),
    ] {
        let err = usage_error(fig8, args);
        assert!(err.contains(flag) && err.contains(value), "{args:?}: {err}");
    }
}
