#![forbid(unsafe_code)]

//! `het-gmp` — the command-line face of the HET-GMP reproduction.
//!
//! ```text
//! het-gmp gen        --preset avazu|criteo|company --scale 0.1 --out data.svm
//! het-gmp partition  --in data.svm --fields 22 --workers 8 --algo hybrid|random|bicut
//! het-gmp train      --preset criteo --scale 0.1 --system het-gmp --staleness 100
//!                    [--telemetry out.jsonl] [--trace out.trace.json] [--audit[=strict]]
//! het-gmp capacity   --workers 24 --mem-gb 32 --dim 128
//! het-gmp experiment NAME|all --scale 0.15 [--telemetry out.jsonl]
//! het-gmp inspect    report run.jsonl | pipeline run.trace.json | diff base.jsonl cand.jsonl
//! ```
//!
//! Errors surface as [`HetGmpError`] with BSD `sysexits`-style exit codes:
//! 2 = usage, 65 = bad data/checkpoint, 70 = audit violation (strict),
//! 74 = I/O, 78 = bad config.

use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use het_gmp::cluster::{FaultSchedule, Topology};
use het_gmp::comms::SyncFormat;
use het_gmp::core::experiments;
use het_gmp::core::models::ModelKind;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{StorageMode, TrainResult, Trainer, TrainerConfig};
use het_gmp::data::{generate, read_libsvm, write_libsvm, CtrDataset, DatasetSpec};
use het_gmp::embedding::CapacityPlan;
use het_gmp::inspect::{diff_artifacts, render_gantt, render_report, Artifact, DiffOptions};
use het_gmp::partition::{
    BiCutPartitioner, HybridConfig, HybridPartitioner, PartitionMetrics, Partitioner,
    RandomPartitioner,
};
use het_gmp::telemetry::{
    AuditMode, HetGmpError, Json, JsonlWriter, RunManifest, TraceCollector, TraceLevel,
};

mod cli;
use cli::Args;

/// The `--help` text; `{experiments}` stands for the names in
/// [`EXPERIMENTS`] (see [`usage`]).
const USAGE: &str = "usage: het-gmp <gen|partition|train|capacity|experiment|inspect> [--flags]
  gen        --preset avazu|criteo|company|tiny --scale F --out FILE
  partition  (--in FILE --fields N | --preset P --scale F) --workers N --algo hybrid|random|bicut [--rounds N]
  train      (--in FILE --fields N | --preset P --scale F) --system tf-ps|parallax|hugectr|het-mp|het-gmp
             [--staleness N] [--workers N] [--epochs N] [--model wdl|dcn] [--seed N]
             [--telemetry FILE.jsonl] [--trace FILE.trace.json] [--trace-level batch|sync]
             [--audit[=count|strict]] [--faults SPEC] [--checkpoint-every N --checkpoint-dir DIR]
             [--resume FILE.hgmr]
             [--sync-format f32|int8] [--sync-feedback on|off]
             [--storage memory|tiered] [--storage-budget-mb N] [--storage-dir DIR]
  capacity   --workers N --mem-gb G --dim D [--replication F]
  experiment {experiments}|all [--scale F] [--telemetry FILE.jsonl]
             [--trace FILE.trace.json] [--trace-level batch|sync] [--audit[=count|strict]]
             [--sync-format F] [--sync-feedback on|off]
  inspect    report FILE.jsonl [--wall]
             pipeline FILE.trace.json
             diff BASELINE CANDIDATE [--threshold PCT]

  --telemetry/--trace accept '-' to write to stdout. --trace captures a
  Chrome trace-event timeline (open in Perfetto); --audit checks every
  embedding read against the staleness bound (strict mode fails the run
  on the first violation, exit code 70).

  --faults injects a deterministic fault schedule at simulated times;
  clauses are separated by ';':
    crash@W:T          worker W (or '*') crashes at T seconds
    stall@W:T:D        worker W stalls for D seconds at T
    degrade@A-B:T:D:F  link A-B runs F x slower for D seconds from T
    partition@A-B:T:D  link A-B is cut for D seconds from T
    restart=S          process-restart overhead charged per crash
  Crash recovery restores from the last checkpoint image, so schedules
  with crashes pair naturally with --checkpoint-every N --checkpoint-dir
  DIR (writes DIR/ckpt-epoch-N.hgmr; resume with --resume FILE).

  --sync-format picks the wire encoding for inter-worker embedding rows
  and the dense AllReduce payload: f32 (default, bit-exact) or int8
  (per-row scale + 1 byte/element, ~3.6x fewer embedding bytes at dim
  32). Traffic counters and the cost model charge the compressed wire
  size; checkpoints stay f32 and any format bit-matches itself across
  checkpoint resume. --sync-feedback off disables the
  per-row error-feedback accumulator on lossy gradient pushes (on by
  default; no effect under f32). On 'experiment' both, like --telemetry,
  --trace and --audit, apply to every training run (fig3, table3 and kg
  take none of them; the launcher says so on stderr). 'experiment
  --audit=strict' writes its artifacts, then exits 70 if any run tripped.

  --storage tiered spills cold embedding-table pages to a checksummed file
  once the table outgrows --storage-budget-mb (default 64) of RAM; hot
  pages stay resident behind a pin/unpin buffer manager and faults surface
  as capacity.* telemetry. Results are bit-identical to --storage memory.
  --storage-dir keeps the spill file in a named directory (default: a
  private temp dir). Eviction is LRU over the unpinned resident pages;
  hotpath.read.* telemetry counts the rows the hot loop read from
  resident pages and through faults.

  'inspect' analyses the artifacts those runs leave behind. 'report'
  renders the Fig. 8 traffic/time breakdown, the per-stage attribution
  and the per-epoch timeline from a telemetry JSONL (--wall adds
  nondeterministic wall-clock stage histograms). 'pipeline' draws an ASCII per-track
  occupancy gantt from a Chrome trace. 'diff' compares two telemetry
  logs or two JSON documents metric by metric, warns when the runs'
  manifests disagree, and exits 1 when a directional metric regresses
  by more than --threshold PCT (default 5).

  Every subcommand rejects flags it does not know, values that do not
  parse as their flag's type, and --workers 0 (exit 2); none of them falls
  back to a default.";

/// The path standard output goes by in errors, as in `--telemetry -`.
const STDOUT: &str = "-";

/// Writes `text` to standard output. Everything the CLI prints goes through
/// here (or through `outln!`), so a failed write is an I/O error on [`STDOUT`],
/// never a panic.
fn out(text: std::fmt::Arguments<'_>) -> Result<(), HetGmpError> {
    std::io::stdout()
        .lock()
        .write_fmt(text)
        .map_err(|e| HetGmpError::io(STDOUT, e))
}

/// [`out`] with a trailing newline, taking format arguments.
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The exit code of a failed command, its error reported on stderr. A
/// reader that closed standard output early (`| head`) ended the run, not
/// an error: exit 0, nothing on stderr.
fn fail(e: HetGmpError) -> ExitCode {
    match &e {
        HetGmpError::Io { path, source }
            if path == Path::new(STDOUT) && source.kind() == ErrorKind::BrokenPipe =>
        {
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// [`USAGE`] with the experiment names filled in from [`EXPERIMENTS`].
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    USAGE.replace("{experiments}", &names.join("|"))
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    if args.has("help") {
        return outln!("{}", usage()).map_or_else(fail, |()| ExitCode::SUCCESS);
    }
    let result = match args.command() {
        Some("gen") => cmd_gen(&args),
        Some("partition") => cmd_partition(&args),
        Some("train") => cmd_train(&args),
        Some("capacity") => cmd_capacity(&args),
        Some("experiment") => cmd_experiment(&args),
        // `inspect diff` signals regressions through the exit code (1), which
        // is distinct from the sysexits error path below.
        Some("inspect") => return cmd_inspect(&args).unwrap_or_else(fail),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    result.map_or_else(fail, |()| ExitCode::SUCCESS)
}

/// Rejects any flag outside `known` with a usage error naming it: a typo or
/// a retired flag must fail loudly, never fall back to a default the user
/// did not ask for.
fn check_flags(args: &Args, command: &str, known: &[&str]) -> Result<(), HetGmpError> {
    match args.unknown_flag(known) {
        None => Ok(()),
        Some(flag) => Err(HetGmpError::usage(format!(
            "unknown flag --{flag} for '{command}' (see --help)"
        ))),
    }
}

fn spec_from(args: &Args) -> Result<DatasetSpec, HetGmpError> {
    let scale: f64 = args.parsed_or("scale", 0.1)?;
    match args.get("preset").unwrap_or("avazu") {
        "avazu" => Ok(DatasetSpec::avazu_like(scale)),
        "criteo" => Ok(DatasetSpec::criteo_like(scale)),
        "company" => Ok(DatasetSpec::company_like(scale)),
        "tiny" => Ok(DatasetSpec::tiny()),
        other => Err(HetGmpError::usage(format!("unknown preset {other:?}"))),
    }
}

/// Attaches a file path to errors raised from an anonymous reader (the
/// libsvm parser sees only a `BufRead`, not the file it came from).
fn attribute(e: HetGmpError, path: &str) -> HetGmpError {
    match e {
        HetGmpError::Data {
            path: None,
            line,
            reason,
        } => HetGmpError::data(path, line, reason),
        HetGmpError::Io { source, .. } => HetGmpError::io(path, source),
        other => other,
    }
}

fn load_dataset(args: &Args) -> Result<CtrDataset, HetGmpError> {
    if let Some(path) = args.get("in") {
        let fields: usize = args
            .parsed("fields")?
            .ok_or_else(|| HetGmpError::usage("--in requires --fields N"))?;
        let file = File::open(path).map_err(|e| HetGmpError::io(path, e))?;
        read_libsvm(BufReader::new(file), fields).map_err(|e| attribute(e, path))
    } else {
        Ok(generate(&spec_from(args)?))
    }
}

/// Opens the `--telemetry FILE.jsonl` sink when requested (`-` = stdout).
fn telemetry_sink(args: &Args) -> Result<Option<JsonlWriter>, HetGmpError> {
    match args.get("telemetry") {
        Some("") => Err(HetGmpError::usage("--telemetry requires a file path")),
        other => other.map(JsonlWriter::create).transpose(),
    }
}

/// Builds the `--trace FILE` collector when requested (`-` = stdout).
/// `--trace-level batch|sync` picks the event granularity (default batch:
/// epoch/batch/link spans only; sync adds per-read protocol instants).
fn trace_collector(
    args: &Args,
    num_workers: usize,
) -> Result<Option<(Arc<TraceCollector>, String)>, HetGmpError> {
    let Some(path) = args.get("trace") else {
        if args.has("trace-level") {
            return Err(HetGmpError::usage("--trace-level requires --trace FILE"));
        }
        return Ok(None);
    };
    if path.is_empty() {
        return Err(HetGmpError::usage("--trace requires a file path"));
    }
    let level = match args.get("trace-level") {
        None => TraceLevel::Batch,
        Some(s) => TraceLevel::parse(s)
            .ok_or_else(|| HetGmpError::usage(format!("unknown trace level {s:?} (batch|sync)")))?,
    };
    let collector = Arc::new(TraceCollector::new(num_workers, level));
    Ok(Some((collector, path.to_string())))
}

/// Parses `--workers N` (`default` when absent). Zero workers is a usage
/// error: there is no topology, partition or capacity plan over none.
fn workers_flag(args: &Args, default: usize) -> Result<usize, HetGmpError> {
    match args.parsed_or("workers", default)? {
        0 => Err(HetGmpError::usage("--workers must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// Parses `--sync-format f32|int8` (`None` when absent). Any other value is
/// a usage error that names it.
fn sync_format_flag(args: &Args) -> Result<Option<SyncFormat>, HetGmpError> {
    args.get("sync-format")
        .map(|v| {
            SyncFormat::parse(v).map_err(|_| {
                HetGmpError::usage(format!("--sync-format expects f32|int8, got {v:?}"))
            })
        })
        .transpose()
}

/// Parses `--sync-feedback on|off` (`None` when absent; the trainer
/// defaults to on). A bare `--sync-feedback` means on.
fn sync_feedback_flag(args: &Args) -> Result<Option<bool>, HetGmpError> {
    match args.get("sync-feedback") {
        None => Ok(None),
        Some("on") | Some("") => Ok(Some(true)),
        Some("off") => Ok(Some(false)),
        Some(v) => Err(HetGmpError::usage(format!(
            "--sync-feedback expects on|off, got {v:?}"
        ))),
    }
}

/// Parses `--storage memory|tiered` together with `--storage-budget-mb`
/// and `--storage-dir` (`None` when `--storage` is absent; the trainer
/// defaults to memory).
fn storage_flag(args: &Args) -> Result<Option<StorageMode>, HetGmpError> {
    match args.get("storage") {
        None => Ok(None),
        Some("memory") => Ok(Some(StorageMode::Memory)),
        Some("tiered") => {
            let budget_mb: usize = args.parsed_or("storage-budget-mb", 64)?;
            if budget_mb == 0 {
                return Err(HetGmpError::usage("--storage-budget-mb must be positive"));
            }
            Ok(Some(StorageMode::Tiered {
                budget_bytes: budget_mb << 20,
                dir: args.get("storage-dir").map(std::path::PathBuf::from),
            }))
        }
        Some(v) => Err(HetGmpError::usage(format!(
            "--storage expects memory|tiered, got {v:?}"
        ))),
    }
}

/// Parses `--audit[=count|strict|off]`; a bare `--audit` means count.
fn audit_mode(args: &Args) -> Result<AuditMode, HetGmpError> {
    match args.get("audit") {
        None => Ok(AuditMode::Off),
        Some(s) => AuditMode::parse(s).ok_or_else(|| {
            HetGmpError::usage(format!("unknown audit mode {s:?} (count|strict|off)"))
        }),
    }
}

/// Exports a collected trace, reporting where it went (unless stdout).
fn write_trace(trace: &Option<(Arc<TraceCollector>, String)>) -> Result<(), HetGmpError> {
    if let Some((t, path)) = trace {
        t.write_chrome_trace(path)?;
        if path != "-" {
            outln!("trace: {path}")?;
        }
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), HetGmpError> {
    check_flags(args, "gen", &["preset", "scale", "out"])?;
    let data = generate(&spec_from(args)?);
    let out = args
        .get("out")
        .ok_or_else(|| HetGmpError::usage("--out FILE required"))?;
    let file = File::create(out).map_err(|e| HetGmpError::io(out, e))?;
    write_libsvm(&data, BufWriter::new(file)).map_err(|e| HetGmpError::io(out, e))?;
    outln!(
        "wrote {}: {} samples x {} fields, {} features, CTR {:.3}",
        out,
        data.num_samples(),
        data.num_fields,
        data.num_features,
        data.ctr()
    )?;
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "partition",
        &[
            "in", "fields", "preset", "scale", "workers", "algo", "rounds",
        ],
    )?;
    let data = load_dataset(args)?;
    let graph = data.to_bigraph();
    let n = workers_flag(args, 8)?;
    let topo = Topology::pcie_island(n);
    // Every algorithm runs through the one `Partitioner` interface.
    let algo: Box<dyn Partitioner> = match args.get("algo").unwrap_or("hybrid") {
        "random" => Box::new(RandomPartitioner { seed: 7 }),
        "bicut" => Box::new(BiCutPartitioner),
        "hybrid" => Box::new(HybridPartitioner::new(HybridConfig {
            rounds: args.parsed_or("rounds", 3)?,
            ..Default::default()
        })),
        other => return Err(HetGmpError::usage(format!("unknown algorithm {other:?}"))),
    };
    let part = algo.partition(&graph, &topo);
    let m = PartitionMetrics::compute(&graph, &part);
    outln!(
        "{} over {} workers: remote fetches/epoch {} ({:.1}% of accesses), \
         sample imbalance {:.3}, replication factor {:.3}",
        algo.name(),
        n,
        m.remote_fetches,
        m.remote_fraction() * 100.0,
        m.sample_imbalance(),
        m.replication_factor
    )?;
    Ok(())
}

/// Dumps one JSONL record per evaluation point plus the merged final
/// telemetry snapshot (counters include the `traffic.bytes.*` per-class
/// totals the Figure 8 analysis consumes).
fn dump_train_telemetry(w: &mut JsonlWriter, r: &TrainResult) -> Result<(), HetGmpError> {
    w.write_record(&r.manifest.to_record())?;
    for p in &r.curve {
        w.write_record(&Json::Obj(vec![
            ("event".into(), Json::from("epoch")),
            ("epoch".into(), Json::U64(p.epoch as u64)),
            ("sim_time_secs".into(), Json::F64(p.sim_time)),
            ("auc".into(), Json::F64(p.auc)),
            ("log_loss".into(), Json::F64(p.log_loss)),
        ]))?;
    }
    w.write_snapshot(
        "final",
        &[
            ("system", Json::from(r.strategy.as_str())),
            ("auc", Json::F64(r.final_auc)),
        ],
        &r.telemetry,
    )?;
    w.flush()
}

fn cmd_train(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "train",
        &[
            "in",
            "fields",
            "preset",
            "scale",
            "system",
            "staleness",
            "workers",
            "epochs",
            "batch",
            "dim",
            "model",
            "seed",
            "telemetry",
            "trace",
            "trace-level",
            "audit",
            "faults",
            "checkpoint-every",
            "checkpoint-dir",
            "resume",
            "sync-format",
            "sync-feedback",
            "storage",
            "storage-budget-mb",
            "storage-dir",
        ],
    )?;
    let data = load_dataset(args)?;
    let n = workers_flag(args, 8)?;
    let mut telemetry = telemetry_sink(args)?;
    let strat = match args.get("system").unwrap_or("het-gmp") {
        "tf-ps" => StrategyConfig::tf_ps(),
        "parallax" => StrategyConfig::parallax(),
        "hugectr" => StrategyConfig::hugectr(),
        "het-mp" => StrategyConfig::het_mp(),
        "het-gmp" => StrategyConfig::het_gmp(args.parsed_or("staleness", 100)?),
        other => return Err(HetGmpError::usage(format!("unknown system {other:?}"))),
    };
    let model = match args.get("model").unwrap_or("wdl") {
        "wdl" => ModelKind::Wdl,
        "dcn" => ModelKind::Dcn,
        other => return Err(HetGmpError::usage(format!("unknown model {other:?}"))),
    };
    let seed: u64 = args.parsed_or("seed", 42)?;
    // `Trainer::try_run` checks the config before any work.
    let cfg = TrainerConfig {
        model,
        epochs: args.parsed_or("epochs", 3)?,
        batch_size: args.parsed_or("batch", 256)?,
        dim: args.parsed_or("dim", 16)?,
        seed,
        checkpoint_every: args.parsed_or("checkpoint-every", 0)?,
        checkpoint_dir: args.get("checkpoint-dir").map(std::path::PathBuf::from),
        resume_from: args.get("resume").map(std::path::PathBuf::from),
        sync_format: sync_format_flag(args)?.unwrap_or(SyncFormat::F32),
        sync_error_feedback: sync_feedback_flag(args)?.unwrap_or(true),
        storage: storage_flag(args)?.unwrap_or(StorageMode::Memory),
        ..TrainerConfig::default()
    };
    let faults = match args.get("faults") {
        None => None,
        Some(spec) => Some(Arc::new(
            FaultSchedule::parse(spec, n, seed)
                .map_err(|e| HetGmpError::usage(format!("bad --faults spec: {e}")))?,
        )),
    };
    let trace = trace_collector(args, n)?;
    let mut trainer =
        Trainer::new(&data, Topology::pcie_island(n), strat, cfg).with_audit(audit_mode(args)?);
    if let Some((t, _)) = &trace {
        trainer = trainer.with_tracer(Arc::clone(t));
    }
    if let Some(f) = &faults {
        trainer = trainer.with_faults(Arc::clone(f));
    }
    let r = trainer.try_run()?;
    outln!(
        "{} ({}): final AUC {:.4}, {:.0} samples/s simulated, comm share {:.0}%",
        r.strategy,
        model.name(),
        r.final_auc,
        r.throughput,
        r.breakdown.comm_fraction() * 100.0
    )?;
    for p in &r.curve {
        outln!(
            "  epoch {}: sim {:.4}s AUC {:.4}",
            p.epoch,
            p.sim_time,
            p.auc
        )?;
    }
    if faults.is_some() {
        let crashes = r.telemetry.counter("fault.crashes");
        let stalls = r.telemetry.counter("fault.stalls");
        outln!(
            "faults: {crashes} crash(es), {stalls} stall(s), {:.4}s downtime simulated",
            r.breakdown.fault
        )?;
    }
    if let Some(cs) = &r.capacity {
        outln!(
            "capacity: {} page fault(s), {} eviction(s) ({} written back), \
             {:.1} MiB resident / {:.1} MiB spilled under a {:.1} MiB budget",
            cs.fault_loads,
            cs.evictions,
            cs.writebacks,
            cs.resident_bytes as f64 / (1 << 20) as f64,
            cs.spilled_bytes as f64 / (1 << 20) as f64,
            cs.budget_bytes as f64 / (1 << 20) as f64,
        )?;
    }
    if let Some(w) = telemetry.as_mut() {
        dump_train_telemetry(w, &r)?;
        outln!("telemetry: {}", w.path().display())?;
    }
    write_trace(&trace)?;
    if let Some(a) = &r.audit {
        outln!("{}", a.render())?;
        if let Some(e) = a.to_error() {
            return Err(e);
        }
    }
    if r.nonfinite_batches > 0 {
        return Err(HetGmpError::data_unattributed(
            0,
            format!(
                "{} batch(es) produced a non-finite training loss; the run diverged",
                r.nonfinite_batches
            ),
        ));
    }
    Ok(())
}

fn cmd_capacity(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "capacity",
        &["workers", "mem-gb", "dim", "replication", "opt-factor"],
    )?;
    let plan = CapacityPlan {
        num_workers: workers_flag(args, 24)?,
        memory_per_worker: args.parsed_or("mem-gb", 32u64)? * (1 << 30),
        dim: args.parsed_or("dim", 128)?,
        bytes_per_param: 4,
        replication_fraction: args.parsed_or("replication", 0.01)?,
        optimizer_state_factor: args.parsed_or("opt-factor", 1.0)?,
    };
    outln!(
        "{} workers x {} GB, dim {}: up to {:.3e} rows = {:.3e} parameters",
        plan.num_workers,
        plan.memory_per_worker >> 30,
        plan.dim,
        plan.max_rows() as f64,
        plan.max_params() as f64
    )?;
    Ok(())
}

/// A paper experiment: the scale and the hooks every training run goes
/// through in, its report printed on stdout (a per-dataset experiment's
/// reports each followed by a blank line).
type Runner = fn(f64, &mut experiments::Hooks) -> Result<(), HetGmpError>;

/// A `het-gmp experiment NAME`: the name, the most workers any of its
/// training runs uses (0: no run goes through the hooks) and its runner.
type Experiment = (&'static str, usize, Runner);

/// Every experiment, in the order `experiment all` runs them. The usage
/// text, the dispatch, `all` and the trace collector's size read this one
/// table.
const EXPERIMENTS: &[Experiment] = &[
    ("fig1", 8, |scale, hooks| {
        outln!("{}", experiments::overhead::run(scale, hooks))
    }),
    ("fig3", 0, |scale, _| {
        experiments::cooccurrence::run(scale)
            .iter()
            .try_for_each(|r| outln!("{r}\n"))
    }),
    ("table3", 0, |scale, _| {
        experiments::partitioners::run(scale)
            .iter()
            .try_for_each(|r| outln!("{r}\n"))
    }),
    ("fig7", 8, |scale, hooks| {
        outln!("{}", experiments::convergence::run(scale, hooks))
    }),
    ("fig8", 8, |scale, hooks| {
        outln!("{}", experiments::comm_breakdown::run(scale, hooks))
    }),
    ("table2", 8, |scale, hooks| {
        outln!("{}", experiments::staleness::run(scale, hooks))
    }),
    ("fig9", 16, |scale, hooks| {
        experiments::hierarchy::run(scale, hooks)
            .iter()
            .try_for_each(|r| outln!("{r}\n"))
    }),
    ("fig10", 24, |scale, hooks| {
        experiments::scalability::run(scale, hooks)
            .iter()
            .try_for_each(|r| outln!("{r}\n"))
    }),
    ("ablation", 8, |scale, hooks| {
        outln!("{}", experiments::ablation::run(scale, hooks))
    }),
    // TransE steps through the trainer's loop, but `KgTrainer` takes no
    // hooks.
    ("kg", 0, |scale, _| {
        outln!("{}", experiments::kg::run(scale))
    }),
];

/// The flags `experiment` hands to every training run through the hooks.
const HOOK_FLAGS: &[&str] = &[
    "telemetry",
    "trace",
    "audit",
    "sync-format",
    "sync-feedback",
];

/// The [`EXPERIMENTS`] entries `het-gmp experiment WHICH` runs: all of
/// them for `all`, else the one named.
fn experiments_for(which: &str) -> Result<&'static [Experiment], HetGmpError> {
    if which == "all" {
        return Ok(EXPERIMENTS);
    }
    EXPERIMENTS
        .iter()
        .position(|(name, ..)| *name == which)
        .map(|i| &EXPERIMENTS[i..=i])
        .ok_or_else(|| HetGmpError::usage(format!("unknown experiment {which:?} (see --help)")))
}

fn cmd_experiment(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "experiment",
        &[
            "scale",
            "telemetry",
            "trace",
            "trace-level",
            "audit",
            "sync-format",
            "sync-feedback",
        ],
    )?;
    let which = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| HetGmpError::usage("experiment name required"))?;
    let selected = experiments_for(which)?;
    let scale: f64 = args.parsed_or("scale", 0.15)?;
    let workers = selected
        .iter()
        .map(|&(_, workers, _)| workers)
        .max()
        .unwrap_or(0);
    let trace = trace_collector(args, workers)?;
    let mut hooks = experiments::Hooks {
        tracer: trace.as_ref().map(|(t, _)| Arc::clone(t)),
        audit: audit_mode(args)?,
        sync_format: sync_format_flag(args)?,
        sync_error_feedback: sync_feedback_flag(args)?,
        telemetry: telemetry_sink(args)?,
        failure: None,
    };
    if let Some(w) = hooks.telemetry.as_mut() {
        // A harness-level manifest: experiment runners vary seeds and
        // strategies internally, so seed 0 marks "multi-run log" and the
        // digest covers the harness invocation itself.
        let mut manifest = RunManifest::new(
            0,
            RunManifest::digest_of(&format!("experiment={which}|scale={scale}")),
            workers,
        );
        manifest.gemm_isa = Some(hetgmp_tensor::gemm::kernel_tier().to_string());
        w.write_record(&manifest.to_record())?;
    }
    let hook_flags: Vec<&str> = HOOK_FLAGS.iter().copied().filter(|f| args.has(f)).collect();
    for &(name, workers, runner) in selected {
        if workers == 0 && !hook_flags.is_empty() {
            eprintln!(
                "experiment {name}: no run goes through the experiment hooks; ignoring --{}",
                hook_flags.join(", --")
            );
        }
        runner(scale, &mut hooks)?;
    }
    if let Some(w) = hooks.telemetry.as_mut() {
        w.flush()?;
        outln!("telemetry: {}", w.path().display())?;
    }
    write_trace(&trace)?;
    hooks.failure.map_or(Ok(()), Err)
}

/// `inspect report|pipeline|diff` — post-hoc artifact analysis. Returns an
/// exit code rather than `()` because `diff` signals "regression found"
/// with exit 1 (reserving the sysexits codes for real errors).
fn cmd_inspect(args: &Args) -> Result<ExitCode, HetGmpError> {
    check_flags(args, "inspect", &["wall", "threshold"])?;
    let mode = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| HetGmpError::usage("inspect mode required (report|pipeline|diff)"))?;
    let path = |i: usize, what: &str| -> Result<&str, HetGmpError> {
        args.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| HetGmpError::usage(format!("inspect {mode} requires {what}")))
    };
    match mode {
        "report" => {
            let artifact = Artifact::load(path(2, "a telemetry FILE.jsonl")?)?;
            out(format_args!(
                "{}",
                render_report(&artifact, args.has("wall"))?
            ))?;
            Ok(ExitCode::SUCCESS)
        }
        "pipeline" => {
            let artifact = Artifact::load(path(2, "a FILE.trace.json")?)?;
            out(format_args!("{}", render_gantt(&artifact)?))?;
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let baseline = Artifact::load(path(2, "BASELINE and CANDIDATE files")?)?;
            let candidate = Artifact::load(path(3, "BASELINE and CANDIDATE files")?)?;
            let opts = match args.parsed("threshold")? {
                None => DiffOptions::default(),
                Some(threshold_pct) => DiffOptions { threshold_pct },
            };
            let outcome = diff_artifacts(&baseline, &candidate, &opts)?;
            if let Some(warning) = &outcome.manifest_warning {
                eprintln!("{warning}");
            }
            out(format_args!("{}", outcome.report))?;
            Ok(if outcome.regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        other => Err(HetGmpError::usage(format!(
            "unknown inspect mode {other:?} (report|pipeline|diff)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `all` runs every experiment in the table, each name runs exactly
    /// itself, and the usage line lists every name.
    #[test]
    fn all_and_usage_cover_every_experiment() {
        let names = |entries: &[Experiment]| -> Vec<&'static str> {
            entries.iter().map(|(name, ..)| *name).collect()
        };
        let every = names(EXPERIMENTS);
        assert_eq!(names(experiments_for("all").unwrap()), every);
        for &name in &every {
            assert_eq!(names(experiments_for(name).unwrap()), [name]);
        }
        let err = experiments_for("fig11").unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let usage = usage();
        assert!(
            usage.contains(&format!("  experiment {}|all [", every.join("|"))),
            "{usage}"
        );
    }
}
