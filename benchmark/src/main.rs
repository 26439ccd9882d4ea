//! The one benchmark of the HET-GMP trainer. See `README.md` beside this
//! package for the workloads, the metrics and how to read the output.
//!
//! Four entry points share this binary:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measurement, the
//!   form `BENCHMARK.json`'s command is invoked in; the last line of
//!   standard output is the result object;
//! * `run` — every workload, repetitions interleaved, then the traced pass;
//!   prints the ledger and writes it as JSON;
//! * `compare A.json B.json` — two ledgers against the bounds;
//! * `child` — what the three above start, one process per measurement.

mod child;
mod ledger;
mod metrics;
mod replay;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use hetgmp_telemetry::Json;

use crate::child::Measurement;
use crate::workloads::Workload;

const USAGE: &str = "usage, from the root of the repository:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  benchmark run [--seed N] [--seconds S] [--reps N] [--smoke] [--out FILE]
  benchmark compare A.json B.json [--spec BENCHMARK.json]";

/// Where traces, ledgers and per-run temp directories go, relative to the
/// root of the checkout the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// One measurement to make.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Value of `--name` in `args`, if given.
pub fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A seed in decimal or `0x` hexadecimal.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Request {
    fn parse(args: &[String]) -> Result<Request, String> {
        let need = |name: &str| opt(args, name).ok_or(format!("missing {name}"));
        let seed = need("--seed")?;
        let seconds = need("--seconds")?;
        Ok(Request {
            workload: need("--workload")?.to_string(),
            seed: parse_seed(seed).ok_or(format!("bad --seed {seed}"))?,
            seconds: seconds
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0)
                .ok_or(format!("bad --seconds {seconds}"))?,
            trace: match need("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace {other}")),
            },
            smoke: args.iter().any(|a| a == "--smoke"),
        })
    }
}

/// The contract's result object.
fn result_line(m: &Measurement) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.correct)),
        ("attempted", Json::U64(m.attempted.max(1))),
        ("failed", Json::U64(m.failed)),
        (
            "metrics",
            Json::obj(m.metrics.iter().map(|(name, value)| {
                let unit = metrics::unit_of(name).expect("reported metrics are declared");
                (
                    *name,
                    Json::obj([
                        ("value", Json::F64(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

/// What a run that crashed, hung or printed nothing counts as: one
/// attempt, failed.
fn failed_line() -> Json {
    result_line(&Measurement {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
    })
}

/// Removes a directory when dropped, so a run's spill and checkpoint files
/// go away on every exit path of the parent.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing sensible can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `req` in a fresh child process and returns its result object. A
/// child that exits non-zero, panics, prints no result, or outlives five
/// times its expected run time (it is killed) is an `Err`.
pub fn run_in_child(req: &Request) -> Result<Json, String> {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let out_dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(OUT_DIR);
    let tmp = TempDir(out_dir.join(format!(
        "tmp-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    )));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("cannot create {:?}: {e}", tmp.0))?;

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", &req.workload])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.trace { "1" } else { "0" }])
        // The trainer's tiered store and the replay's checkpoint use the
        // system temp dir; keep it inside the checkout.
        .env("TMPDIR", &tmp.0)
        .stdout(Stdio::piped());
    if req.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;

    // Warm-up, set-ups, the reference run and the last run's overshoot come
    // on top of the measured window; 180 s is the contract's hard limit.
    let expected = req.seconds + 10.0;
    let deadline = Instant::now() + Duration::from_secs_f64((5.0 * expected).min(170.0));
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("cannot wait for child: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // Both can only fail if the child is already gone.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} timed out and was killed", req.workload));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut stdout)
            .map_err(|e| format!("cannot read child output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("{} child ended with {status}", req.workload));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    Json::parse(last).map_err(|e| format!("{} child printed no result: {e}", req.workload))
}

/// `--workload ...`: one measurement for the driver.
fn driver(args: &[String]) -> ExitCode {
    let req = match Request::parse(args) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if Workload::by_name(&req.workload, req.seed, req.smoke).is_none() {
        eprintln!("unknown workload {}\n{USAGE}", req.workload);
        return ExitCode::from(2);
    }
    let line = run_in_child(&req).unwrap_or_else(|e| {
        eprintln!("{e}");
        failed_line()
    });
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// `child ...`: generate the input, measure, print the result object.
fn child_main(args: &[String]) -> ExitCode {
    let req = match Request::parse(args) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::by_name(&req.workload, req.seed, req.smoke) else {
        eprintln!("unknown workload {}", req.workload);
        return ExitCode::from(2);
    };
    // Inputs exist before any timer starts; the program sees only them.
    let data = workload.generate();
    let m = if req.trace {
        child::measure_layers(
            &req.workload,
            &workload,
            &data,
            req.smoke,
            Path::new(OUT_DIR),
        )
    } else {
        child::measure_e2e(&workload, &data, req.seconds, req.smoke)
    };
    println!("{}", result_line(&m).render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => ledger::run(&args[1..]),
        Some("compare") => ledger::compare(&args[1..]),
        Some("child") => child_main(&args[1..]),
        Some(a) if a.starts_with("--") => driver(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse_in_any_order() {
        let req = Request::parse(&strings(&[
            "--trace",
            "1",
            "--seconds",
            "10",
            "--workload",
            "kg_transe",
            "--seed",
            "0xB45E11",
        ]))
        .unwrap();
        assert_eq!(req.workload, "kg_transe");
        assert_eq!(req.seed, 0xB45E11);
        assert_eq!(req.seconds, 10.0);
        assert!(req.trace && !req.smoke);
        assert!(Request::parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(Request::parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Measurement {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("peak_rss_mb", 41.5)],
        };
        let line = Json::parse(&result_line(&m).render()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        // A crashed run still reports at least one attempt, all failed.
        let failed = failed_line();
        assert_eq!(failed.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(failed.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to what the
    /// binary reports.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let e2e = spec.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better);
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

        let layers = spec.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better);
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a metric name is used twice"
        );
    }

    #[test]
    fn every_workload_builds_at_both_sizes() {
        for (name, _) in WORKLOADS {
            for smoke in [false, true] {
                let w = Workload::by_name(name, 7, smoke).unwrap();
                assert!(w.workers() >= 2 && w.epochs() >= 1);
            }
        }
        assert!(Workload::by_name("nope", 7, false).is_none());
    }
}
