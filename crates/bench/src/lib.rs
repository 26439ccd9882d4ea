#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-bench
//!
//! The benchmark/experiment harness of the HET-GMP reproduction.
//!
//! Two kinds of targets:
//!
//! * **`expt_*` binaries** — one per table/figure of the paper; each prints
//!   the same rows/series the paper reports (see `DESIGN.md`'s experiment
//!   index and `EXPERIMENTS.md` for paper-vs-measured). Every binary accepts
//!   an optional scale argument (`cargo run --release -p hetgmp-bench --bin
//!   expt_table3 -- 0.5`); defaults keep runtimes in seconds-to-minutes.
//!   `expt_all` runs everything.
//! * **criterion benches** — performance microbenchmarks of the system's
//!   kernels (partition sweeps, bounded-async reads, AllReduce, tensor ops,
//!   data generation), plus one representative-kernel bench per table/figure
//!   so `cargo bench` exercises every experiment path.

use std::str::FromStr;

use hetgmp_comms::SyncFormat;

const USAGE: &str = "usage: expt_<name> [SCALE] [EPOCHS] \
                     [--sync-format f32|f16|bf16|int8] [--sync-feedback on|off]";

/// argv as the `expt_*` binaries read it: positionals in order, and the
/// two wire-format flags (`--flag V` or `--flag=V`) wherever they appear.
#[derive(Debug, Default, PartialEq)]
struct ExptArgs {
    positional: Vec<String>,
    sync_format: Option<SyncFormat>,
    sync_feedback: Option<bool>,
}

impl ExptArgs {
    /// Absent means default; anything present must parse, and the error
    /// names the flag and the value — a misspelt value must never run (and
    /// print a table for) the default instead.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                out.positional.push(arg);
                continue;
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, value.to_string()),
                None => (flag, args.next().ok_or(format!("--{flag} expects a value"))?),
            };
            match name {
                "sync-format" => {
                    out.sync_format = Some(SyncFormat::parse(&value).map_err(|_| {
                        format!("--sync-format expects f32|f16|bf16|int8, got {value:?}")
                    })?);
                }
                "sync-feedback" => {
                    out.sync_feedback = Some(match value.as_str() {
                        "on" => true,
                        "off" => false,
                        _ => return Err(format!("--sync-feedback expects on|off, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag --{name}")),
            }
        }
        Ok(out)
    }

    /// The `i`-th positional (`what` names it in the error), `default`
    /// when absent.
    fn positional<T: FromStr>(&self, i: usize, what: &str, default: T) -> Result<T, String> {
        match self.positional.get(i) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{what} expects a number, got {v:?}")),
        }
    }
}

/// Prints the usage text and `reason` on stderr and exits 2.
fn usage_exit(reason: &str) -> ! {
    eprintln!("{USAGE}\n  {reason}");
    std::process::exit(2)
}

fn argv() -> ExptArgs {
    ExptArgs::parse(std::env::args().skip(1)).unwrap_or_else(|reason| usage_exit(&reason))
}

/// The experiment scale: argv's first positional, `default` when absent.
/// A value that does not parse is a usage error (exit 2).
pub fn scale_arg(default: f64) -> f64 {
    argv().positional(0, "SCALE", default).unwrap_or_else(|reason| usage_exit(&reason))
}

/// argv's second positional (e.g. epochs), `default` when absent. A value
/// that does not parse is a usage error (exit 2).
pub fn second_arg(default: usize) -> usize {
    argv().positional(1, "EPOCHS", default).unwrap_or_else(|reason| usage_exit(&reason))
}

/// The optional `--sync-format F` / `--sync-feedback on|off` flags (also
/// `--flag=V`) as `(sync_format, error_feedback)`, `None` when absent. The
/// training experiment binaries thread these into
/// [`hetgmp_core::experiments::Hooks`] so one flag applies a single wire
/// format to every trainer run in the experiment. An unknown spelling is a
/// usage error (exit 2).
pub fn sync_format_flags() -> (Option<SyncFormat>, Option<bool>) {
    let args = argv();
    (args.sync_format, args.sync_feedback)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<ExptArgs, String> {
        ExptArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply_without_args() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, ExptArgs::default());
        assert_eq!(args.positional(0, "SCALE", 0.25), Ok(0.25));
        assert_eq!(args.positional(1, "EPOCHS", 3usize), Ok(3));
    }

    #[test]
    fn positionals_parse_or_name_the_value() {
        let args = parse(&["--sync-format", "int8", "0.2", "4"]).unwrap();
        assert_eq!(args.positional(0, "SCALE", 0.25), Ok(0.2));
        assert_eq!(args.positional(1, "EPOCHS", 3usize), Ok(4));
        let args = parse(&["0,2", "four"]).unwrap();
        assert_eq!(
            args.positional(0, "SCALE", 0.25),
            Err("SCALE expects a number, got \"0,2\"".to_string())
        );
        assert!(args.positional(1, "EPOCHS", 3usize).unwrap_err().contains("\"four\""));
    }

    #[test]
    fn sync_format_flags_parse_both_forms() {
        let flags = |v: &[&str]| parse(v).map(|a| (a.sync_format, a.sync_feedback));
        assert_eq!(flags(&["0.2", "--sync-format", "int8"]), Ok((Some(SyncFormat::Int8), None)));
        assert_eq!(
            flags(&["--sync-format=bf16", "--sync-feedback=off"]),
            Ok((Some(SyncFormat::Bf16), Some(false)))
        );
        assert_eq!(flags(&["--sync-feedback", "on"]), Ok((None, Some(true))));
        assert_eq!(flags(&["0.2"]), Ok((None, None)));
        // Malformed values are errors naming flag and value, never the
        // default under another name.
        for (argv, flag, value) in [
            (&["--sync-format", "f64"][..], "--sync-format", "\"f64\""),
            (&["--sync-format=in8"], "--sync-format", "\"in8\""),
            (&["--sync-feedback", "maybe"], "--sync-feedback", "\"maybe\""),
            (&["--sync-feedback"], "--sync-feedback", "expects a value"),
            (&["--frobnicate", "2"], "--frobnicate", "unknown flag"),
        ] {
            let err = flags(argv).unwrap_err();
            assert!(err.contains(flag) && err.contains(value), "{argv:?}: {err}");
        }
    }
}
