#![warn(missing_docs)]

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

/// Parses the experiment scale from argv (first positional) with a default.
pub fn scale_arg(default: f64) -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

/// Parses an optional second positional argument (e.g. epochs).
pub fn second_arg(default: usize) -> usize {
    std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

/// Parses the optional `--gemm-threads N` flag (also `--gemm-threads=N`)
/// from argv. The training experiment binaries (fig8, table2, ablation)
/// thread it into [`hetgmp_core::experiments::Hooks`] so one flag applies a
/// single GEMM fan-out to every trainer run in the experiment.
pub fn gemm_threads_flag() -> Option<usize> {
    parse_gemm_threads_flag(std::env::args().skip(1))
}

/// Parses the optional `--sync-format F` / `--sync-feedback on|off` flags
/// (also `--flag=V`) from argv, returning `(sync_format, error_feedback)`.
/// The training experiment binaries thread these into
/// [`hetgmp_core::experiments::Hooks`] so one flag applies a single wire
/// format to every trainer run in the experiment. Unknown format spellings
/// fall back to `None` (the f32 default) rather than aborting.
pub fn sync_format_flags() -> (Option<hetgmp_comms::SyncFormat>, Option<bool>) {
    parse_sync_format_flags(std::env::args().skip(1))
}

fn parse_sync_format_flags(
    args: impl Iterator<Item = String>,
) -> (Option<hetgmp_comms::SyncFormat>, Option<bool>) {
    let mut format = None;
    let mut feedback = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix("--sync-format=") {
            format = hetgmp_comms::SyncFormat::parse(v).ok();
        } else if a == "--sync-format" {
            format = args.peek().and_then(|v| hetgmp_comms::SyncFormat::parse(v).ok());
        } else if let Some(v) = a.strip_prefix("--sync-feedback=") {
            feedback = match v {
                "on" => Some(true),
                "off" => Some(false),
                _ => None,
            };
        } else if a == "--sync-feedback" {
            feedback = match args.peek().map(String::as_str) {
                Some("on") => Some(true),
                Some("off") => Some(false),
                _ => None,
            };
        }
    }
    (format, feedback)
}

fn parse_gemm_threads_flag(args: impl Iterator<Item = String>) -> Option<usize> {
    let mut threads = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix("--gemm-threads=") {
            threads = v.parse().ok();
        } else if a == "--gemm-threads" {
            threads = args.peek().and_then(|v| v.parse().ok());
        }
    }
    threads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_without_args() {
        // Test binaries receive no positional args we control; the helper
        // must fall back to the default (or parse whatever harness args
        // exist — either way it returns a finite value).
        let s = scale_arg(0.25);
        assert!(s.is_finite());
        let e = second_arg(3);
        assert!(e > 0);
    }

    #[test]
    fn gemm_threads_flag_parses_both_forms() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_gemm_threads_flag(argv(&["0.2", "--gemm-threads", "2"]).into_iter()),
            Some(2)
        );
        assert_eq!(parse_gemm_threads_flag(argv(&["--gemm-threads=4"]).into_iter()), Some(4));
        assert_eq!(parse_gemm_threads_flag(argv(&["0.2"]).into_iter()), None);
        // Malformed values fall back to None rather than panicking.
        assert_eq!(
            parse_gemm_threads_flag(argv(&["--gemm-threads", "xyz"]).into_iter()),
            None
        );
    }

    #[test]
    fn sync_format_flags_parse_both_forms() {
        use hetgmp_comms::SyncFormat;
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_sync_format_flags(argv(&["0.2", "--sync-format", "int8"]).into_iter()),
            (Some(SyncFormat::Int8), None)
        );
        assert_eq!(
            parse_sync_format_flags(
                argv(&["--sync-format=bf16", "--sync-feedback=off"]).into_iter()
            ),
            (Some(SyncFormat::Bf16), Some(false))
        );
        assert_eq!(
            parse_sync_format_flags(argv(&["--sync-feedback", "on"]).into_iter()),
            (None, Some(true))
        );
        assert_eq!(parse_sync_format_flags(argv(&["0.2"]).into_iter()), (None, None));
        // Malformed values fall back to None rather than panicking.
        assert_eq!(
            parse_sync_format_flags(argv(&["--sync-format", "f64"]).into_iter()),
            (None, None)
        );
    }
}
