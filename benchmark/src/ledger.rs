//! `run`: every workload end to end, repetitions interleaved, then the
//! traced pass — printed as a ledger and written as JSON. `compare`: two
//! such ledgers against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use hetgmp_telemetry::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use crate::{opt, parse_seed, run_in_child, Request, OUT_DIR};

/// The seed every repetition of `run` uses unless told otherwise: data
/// specs and trainers are both seeded with it.
const DEFAULT_SEED: u64 = 0xB45E11;

/// First line of `program args...`'s output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were produced, resolved now rather than at
/// build time (a build-time stamp goes stale on the next commit).
fn stamp(seed: u64, seconds: f64, reps: usize, smoke: bool) -> Json {
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::Bool(!o.stdout.is_empty()));
    Json::obj([
        (
            "git_rev",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("seed", Json::U64(seed)),
        ("seconds", Json::F64(seconds)),
        ("reps", Json::U64(reps as u64)),
        ("smoke", Json::Bool(smoke)),
    ])
}

/// Value of `metric` in a result object's `metrics`.
fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `benchmark run`.
pub fn run(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = match opt(args, "--seed").map(parse_seed) {
        Some(Some(seed)) => seed,
        Some(None) => {
            eprintln!("bad --seed");
            return ExitCode::from(2);
        }
        None => DEFAULT_SEED,
    };
    // Nine short children rather than five long ones: the quartiles of
    // nine values shrug off two outliers a side, and on a shared host a
    // slow spell swallows whole children, however long each one measures.
    let seconds: f64 = opt(args, "--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let reps: usize = if smoke {
        1
    } else {
        opt(args, "--reps")
            .and_then(|s| s.parse().ok())
            .unwrap_or(9)
            .max(1)
    };

    // Repetitions go round-robin over the workloads, so a slow minute of
    // the host is spread over all of them and not charged to one.
    let mut failures = 0u64;
    let mut e2e: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    for rep in 0..reps {
        for (name, _) in WORKLOADS {
            eprintln!("[{}/{reps}] {name}", rep + 1);
            let req = Request {
                workload: name.to_string(),
                seed,
                seconds,
                trace: false,
                smoke,
            };
            match run_in_child(&req) {
                Ok(result) => e2e.entry(name).or_default().push(result),
                Err(e) => {
                    eprintln!("{e}");
                    failures += 1;
                }
            }
        }
    }
    let mut layers: BTreeMap<&str, Json> = BTreeMap::new();
    for (name, _) in WORKLOADS {
        eprintln!("[traced] {name}");
        let req = Request {
            workload: name.to_string(),
            seed,
            seconds,
            trace: true,
            smoke,
        };
        match run_in_child(&req) {
            Ok(result) => {
                layers.insert(name, result);
            }
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }

    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        println!("\n== {name}: {why}");
        let results = e2e.get(name).map_or(&[][..], Vec::as_slice);
        let count = |key: &str| -> u64 {
            results
                .iter()
                .filter_map(|r| r.get(key).and_then(Json::as_u64))
                .sum()
        };
        let correct = !results.is_empty()
            && results
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        // A child that never reported counts as one attempt, failed.
        let lost = (reps - results.len()) as u64;
        let (attempted, failed) = (count("attempted") + lost, count("failed") + lost);
        if !correct || failed > 0 {
            failures += 1;
        }
        println!(
            "   correct {correct}, batches attempted {attempted}, failed {failed} (fail share {:.4})",
            failed as f64 / attempted.max(1) as f64
        );
        let mut e2e_json = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            if values.is_empty() {
                println!("   {:<44} no value", m.name);
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let med = median(&values);
            println!(
                "   {:<44} {:>14.6} {:<10} min {:.6} max {:.6} n {} spread {:.4} ({} is better, bound {})",
                m.name, med, m.unit, lo, hi, values.len(), spread(&values), m.better, m.bound
            );
            e2e_json.push((
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.to_string())),
                    ("median", Json::F64(med)),
                    ("min", Json::F64(lo)),
                    ("max", Json::F64(hi)),
                    ("n", Json::U64(values.len() as u64)),
                    ("spread", Json::F64(spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::F64).collect()),
                    ),
                ]),
            ));
        }
        let mut layer_json = Vec::new();
        if let Some(result) = layers.get(name) {
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("   traced pass failed its checks");
                failures += 1;
            }
            for m in &PER_LAYER {
                let Some(v) = metric_value(result, m.name) else {
                    continue;
                };
                println!(
                    "   {:<44} {:>14.6} {:<10} ({} is better)",
                    m.name, v, m.unit, m.better
                );
                layer_json.push((
                    m.name,
                    Json::obj([
                        ("unit", Json::Str(m.unit.to_string())),
                        ("value", Json::F64(v)),
                    ]),
                ));
            }
        }
        workloads.push((
            name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::U64(attempted)),
                ("failed", Json::U64(failed)),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", Json::obj(layer_json)),
            ]),
        ));
    }

    let ledger = Json::obj([
        ("stamp", stamp(seed, seconds, reps, smoke)),
        ("workloads", Json::obj(workloads)),
    ]);
    let default_out = format!(
        "{OUT_DIR}/ledger-{seed:#x}{}.json",
        if smoke { ".smoke" } else { "" }
    );
    let out = opt(args, "--out").unwrap_or(&default_out);
    if let Some(dir) = Path::new(out).parent() {
        // A failure shows in the write below.
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, ledger.render() + "\n") {
        Ok(()) => eprintln!("\nledger written to {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed or were incorrect");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// How a metric of ledger B stands against ledger A.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Within the bound, and both spreads narrow enough to say so.
    Ok,
    /// Worse than A by more than the bound.
    Worse,
    /// Not worse, but a run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judges B's values against A's for a metric where `better` is `"higher"`
/// or `"lower"`; `bound` is a share of A's median.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        "higher" => mb < ma * (1.0 - bound),
        _ => mb > ma * (1.0 + bound),
    };
    if worse {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(ledger: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = ledger
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    values.iter().map(Json::as_f64).collect()
}

/// `benchmark compare A.json B.json`: exits non-zero on any `worse`.
pub fn compare(args: &[String]) -> ExitCode {
    let [a_path, b_path, rest @ ..] = args else {
        eprintln!("compare needs two ledgers");
        return ExitCode::from(2);
    };
    let spec_path = opt(rest, "--spec").unwrap_or("BENCHMARK.json");
    let (spec, a, b) = match (load(spec_path), load(a_path), load(b_path)) {
        (Ok(spec), Ok(a), Ok(b)) => (spec, a, b),
        (spec, a, b) => {
            for e in [spec.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let rev = |l: &Json| {
        l.get("stamp")
            .and_then(|s| s.get("git_rev"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {a_path} ({})\nB = {b_path} ({})", rev(&a), rev(&b));
    let (mut worse, mut unresolved) = (0, 0);
    let empty = Vec::new();
    let declared = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for (workload, _) in WORKLOADS {
        println!("\n== {workload}");
        for m in declared {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let (Some(va), Some(vb)) =
                (values_of(&a, workload, name), values_of(&b, workload, name))
            else {
                println!("   {name:<24} missing from a ledger");
                unresolved += 1;
                continue;
            };
            let verdict = judge(&va, &vb, better, bound);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "   {name:<24} A {ma:>14.6}  B {mb:>14.6}  B/A {:.4} of A  spread A {:.4} B {:.4}  bound {bound}  {}",
                mb / ma,
                spread(&va),
                spread(&vb),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        assert_eq!(judge(&steady, &steady, "higher", 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, "higher", 0.10), Verdict::Worse);
        // The same drop is an improvement when lower is better.
        assert_eq!(judge(&steady, &slower, "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(&slower, &steady, "lower", 0.10), Verdict::Worse);
        // Within the bound, but one side too noisy to call it unchanged.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&steady, &noisy, "higher", 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &steady, "higher", 0.10), Verdict::Unresolved);
    }

    #[test]
    fn ledger_values_are_found_by_workload_and_metric() {
        let ledger = Json::parse(
            r#"{"stamp":{"git_rev":"abc"},"workloads":{"kg_transe":{"end_to_end":
               {"setup_s":{"unit":"s","median":0.5,"values":[0.4,0.5,0.6]}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            values_of(&ledger, "kg_transe", "setup_s"),
            Some(vec![0.4, 0.5, 0.6])
        );
        assert_eq!(values_of(&ledger, "kg_transe", "nope"), None);
        assert_eq!(values_of(&ledger, "nope", "setup_s"), None);
    }
}
