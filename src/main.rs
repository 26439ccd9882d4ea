#![forbid(unsafe_code)]

//! `het-gmp` — the command-line face of the HET-GMP reproduction.
//!
//! ```text
//! het-gmp gen        --preset avazu|criteo|company --scale 0.1 --out data.svm
//! het-gmp partition  --in data.svm --fields 22 --workers 8 --algo hybrid|random|bicut|multilevel
//! het-gmp train      --preset criteo --scale 0.1 --system het-gmp --staleness 100
//!                    [--telemetry out.jsonl] [--trace out.trace.json] [--audit[=strict]]
//! het-gmp capacity   --workers 24 --mem-gb 32 --dim 128
//! het-gmp experiment fig1|fig3|fig7|fig8|fig9|fig10|table2|table3|ablation|all [--telemetry out.jsonl]
//! het-gmp inspect    report run.jsonl | pipeline run.trace.json | diff base.json cand.json
//! ```
//!
//! Errors surface as [`HetGmpError`] with BSD `sysexits`-style exit codes:
//! 2 = usage, 65 = bad data/checkpoint, 70 = audit violation (strict),
//! 74 = I/O, 78 = bad config.

use std::fs::File;
use std::io::{BufReader, BufWriter};
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
use het_gmp::partition::{
    BiCutPartitioner, HybridConfig, HybridPartitioner, MultilevelPartitioner, PartitionMetrics,
    Partitioner, RandomPartitioner,
};
use het_gmp::inspect::{diff_artifacts, render_gantt, render_report, Artifact, DiffOptions};
use het_gmp::telemetry::{
    AuditMode, HetGmpError, Json, JsonlWriter, RunManifest, TraceCollector, TraceLevel,
};

mod cli;
use cli::Args;

const USAGE: &str = "usage: het-gmp <gen|partition|train|capacity|experiment|inspect> [--flags]
  gen        --preset avazu|criteo|company|tiny --scale F --out FILE
  partition  (--in FILE --fields N | --preset P --scale F) --workers N --algo hybrid|random|bicut|multilevel [--rounds N]
  train      (--in FILE --fields N | --preset P --scale F) --system tf-ps|parallax|hugectr|het-mp|het-gmp
             [--staleness N] [--workers N] [--epochs N] [--model wdl|dcn|deepfm|din] [--seed N]
             [--telemetry FILE.jsonl] [--trace FILE.trace.json] [--trace-level batch|sync]
             [--audit[=count|strict]] [--faults SPEC] [--checkpoint-every N --checkpoint-dir DIR]
             [--resume FILE.hgmr]
             [--sync-format f32|f16|bf16|int8] [--sync-feedback on|off]
             [--storage memory|tiered] [--storage-budget-mb N] [--storage-dir DIR]
  capacity   --workers N --mem-gb G --dim D [--replication F]
  experiment fig1|fig3|fig7|fig8|fig9|fig10|table2|table3|ablation|all [--scale F] [--telemetry FILE.jsonl]
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
  and the dense AllReduce payload: f32 (default, bit-exact), f16, bf16,
  or int8 (per-row scale + 1 byte/element, ~3.6x fewer embedding bytes at
  dim 32). Traffic ledgers and the cost model charge the compressed wire
  size; checkpoints stay f32 and any format bit-matches itself across
  checkpoint resume. --sync-feedback off disables the
  per-row error-feedback accumulator on lossy gradient pushes (on by
  default; no effect under f32). On 'experiment' both apply to every
  fig8/table2/ablation training run.

  --storage tiered spills cold embedding-table pages to a checksummed file
  once the table outgrows --storage-budget-mb (default 64) of RAM; hot
  pages stay resident behind a pin/unpin buffer manager and faults surface
  as capacity.* telemetry. Results are bit-identical to --storage memory.
  --storage-dir keeps the spill file in a named directory (default: a
  private temp dir). Eviction follows hints computed from the epoch's
  deterministic batch plan, and the hot loop reads rows lock-free under a
  per-stripe seqlock (hotpath.read.* telemetry records snapshot/fallback
  row counts and the retry rate).

  'inspect' analyses the artifacts those runs leave behind. 'report'
  renders the Fig. 8 traffic/time breakdown, the per-stage attribution
  and the per-epoch timeline from a telemetry JSONL (--wall adds
  nondeterministic wall-clock stage histograms). 'pipeline' draws an ASCII per-track
  occupancy gantt from a Chrome trace. 'diff' compares two telemetry
  logs or two BENCH_*.json files metric by metric, warns when the runs'
  manifests disagree, and exits 1 when a directional metric regresses
  by more than --threshold PCT (default 5).

  Every subcommand rejects flags it does not know, values that do not
  parse as their flag's type, and --workers 0 (exit 2); none of them falls
  back to a default.";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    if args.has("help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.command() {
        Some("gen") => cmd_gen(&args),
        Some("partition") => cmd_partition(&args),
        Some("train") => cmd_train(&args),
        Some("capacity") => cmd_capacity(&args),
        Some("experiment") => cmd_experiment(&args),
        // `inspect diff` signals regressions through the exit code (1), which
        // is distinct from the sysexits error path below.
        Some("inspect") => {
            return match cmd_inspect(&args) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(e.exit_code())
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
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
        Some(s) => TraceLevel::parse(s).ok_or_else(|| {
            HetGmpError::usage(format!("unknown trace level {s:?} (batch|sync)"))
        })?,
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

/// Parses `--sync-format f32|f16|bf16|int8` (`None` when absent).
fn sync_format_flag(args: &Args) -> Result<Option<SyncFormat>, HetGmpError> {
    args.get("sync-format").map(SyncFormat::parse).transpose()
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
            println!("trace: {path}");
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
    println!(
        "wrote {}: {} samples x {} fields, {} features, CTR {:.3}",
        out,
        data.num_samples(),
        data.num_fields,
        data.num_features,
        data.ctr()
    );
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "partition",
        &["in", "fields", "preset", "scale", "workers", "algo", "rounds"],
    )?;
    let data = load_dataset(args)?;
    let graph = data.to_bigraph();
    let n = workers_flag(args, 8)?;
    let topo = Topology::pcie_island(n);
    // Every algorithm runs through the one `Partitioner` interface.
    let algo: Box<dyn Partitioner> = match args.get("algo").unwrap_or("hybrid") {
        "random" => Box::new(RandomPartitioner { seed: 7 }),
        "bicut" => Box::new(BiCutPartitioner),
        "multilevel" => Box::new(MultilevelPartitioner::default()),
        "hybrid" => Box::new(HybridPartitioner::new(HybridConfig {
            rounds: args.parsed_or("rounds", 3)?,
            ..Default::default()
        })),
        other => return Err(HetGmpError::usage(format!("unknown algorithm {other:?}"))),
    };
    let part = algo.partition(&graph, &topo);
    let m = PartitionMetrics::compute(&graph, &part, None);
    println!(
        "{} over {} workers: remote fetches/epoch {} ({:.1}% of accesses), \
         sample imbalance {:.3}, replication factor {:.3}",
        algo.name(),
        n,
        m.remote_fetches,
        m.remote_fraction() * 100.0,
        m.sample_imbalance(),
        m.replication_factor
    );
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
            "in", "fields", "preset", "scale", "system", "staleness", "workers", "epochs",
            "batch", "dim", "model", "seed", "telemetry", "trace", "trace-level", "audit",
            "faults", "checkpoint-every", "checkpoint-dir", "resume", "sync-format",
            "sync-feedback", "storage", "storage-budget-mb", "storage-dir",
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
        "deepfm" => ModelKind::DeepFm,
        "din" => ModelKind::Din,
        other => return Err(HetGmpError::usage(format!("unknown model {other:?}"))),
    };
    let seed: u64 = args.parsed_or("seed", 42)?;
    let cfg = TrainerConfig::builder()
        .model(model)
        .epochs(args.parsed_or("epochs", 3)?)
        .batch_size(args.parsed_or("batch", 256)?)
        .dim(args.parsed_or("dim", 16)?)
        .seed(seed)
        .checkpoint_every(args.parsed_or("checkpoint-every", 0)?)
        .checkpoint_dir(args.get("checkpoint-dir").map(std::path::PathBuf::from))
        .resume_from(args.get("resume").map(std::path::PathBuf::from))
        .sync_format(sync_format_flag(args)?.unwrap_or(SyncFormat::F32))
        .sync_error_feedback(sync_feedback_flag(args)?.unwrap_or(true))
        .storage(storage_flag(args)?.unwrap_or(StorageMode::Memory))
        .build()?;
    let faults = match args.get("faults") {
        None => None,
        Some(spec) => Some(Arc::new(FaultSchedule::parse(spec, n, seed).map_err(
            |e| HetGmpError::usage(format!("bad --faults spec: {e}")),
        )?)),
    };
    let trace = trace_collector(args, n)?;
    let mut trainer = Trainer::new(&data, Topology::pcie_island(n), strat, cfg)
        .with_audit(audit_mode(args)?);
    if let Some((t, _)) = &trace {
        trainer = trainer.with_tracer(Arc::clone(t));
    }
    if let Some(f) = &faults {
        trainer = trainer.with_faults(Arc::clone(f));
    }
    let r = trainer.try_run()?;
    println!(
        "{} ({}): final AUC {:.4}, {:.0} samples/s simulated, comm share {:.0}%",
        r.strategy,
        model.name(),
        r.final_auc,
        r.throughput,
        r.breakdown.comm_fraction() * 100.0
    );
    for p in &r.curve {
        println!("  epoch {}: sim {:.4}s AUC {:.4}", p.epoch, p.sim_time, p.auc);
    }
    if faults.is_some() {
        let crashes = r.telemetry.counter("fault.crashes");
        let stalls = r.telemetry.counter("fault.stalls");
        println!(
            "faults: {crashes} crash(es), {stalls} stall(s), {:.4}s downtime simulated",
            r.breakdown.fault
        );
    }
    if let Some(cs) = &r.capacity {
        println!(
            "capacity: {} page fault(s), {} eviction(s) ({} written back), \
             {:.1} MiB resident / {:.1} MiB spilled under a {:.1} MiB budget",
            cs.fault_loads,
            cs.evictions,
            cs.writebacks,
            cs.resident_bytes as f64 / (1 << 20) as f64,
            cs.spilled_bytes as f64 / (1 << 20) as f64,
            cs.budget_bytes as f64 / (1 << 20) as f64,
        );
    }
    if let Some(w) = telemetry.as_mut() {
        dump_train_telemetry(w, &r)?;
        println!("telemetry: {}", w.path().display());
    }
    write_trace(&trace)?;
    if let Some(a) = &r.audit {
        println!("{}", a.render());
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
    println!(
        "{} workers x {} GB, dim {}: up to {:.3e} rows = {:.3e} parameters",
        plan.num_workers,
        plan.memory_per_worker >> 30,
        plan.dim,
        plan.max_rows() as f64,
        plan.max_params() as f64
    );
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), HetGmpError> {
    check_flags(
        args,
        "experiment",
        &[
            "scale", "telemetry", "trace", "trace-level", "audit", "sync-format",
            "sync-feedback",
        ],
    )?;
    let which = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| HetGmpError::usage("experiment name required"))?;
    let scale: f64 = args.parsed_or("scale", 0.15)?;
    let mut telemetry = telemetry_sink(args)?;
    if let Some(w) = telemetry.as_mut() {
        // A harness-level manifest: experiment runners vary seeds and
        // strategies internally, so seed 0 marks "multi-run log" and the
        // digest covers the harness invocation itself.
        let mut manifest = RunManifest::new(
            0,
            RunManifest::digest_of(&format!("experiment={which}|scale={scale}")),
            8,
        );
        manifest.gemm_isa = Some(hetgmp_tensor::gemm::kernel_tier().to_string());
        w.write_record(&manifest.to_record())?;
    }
    // Experiment runners use 8-worker topologies throughout.
    let trace = trace_collector(args, 8)?;
    let hooks = experiments::Hooks {
        tracer: trace.as_ref().map(|(t, _)| Arc::clone(t)),
        audit: audit_mode(args)?,
        sync_format: sync_format_flag(args)?,
        sync_error_feedback: sync_feedback_flag(args)?,
    };
    match which {
        "fig1" => println!("{}", experiments::overhead::run(scale)),
        "fig3" => {
            for r in experiments::cooccurrence::run(scale) {
                println!("{r}\n");
            }
        }
        "fig7" => println!("{}", experiments::convergence::run(scale, 3)),
        "fig8" => println!(
            "{}",
            experiments::comm_breakdown::run_instrumented(scale, telemetry.as_mut(), &hooks)
        ),
        "fig9" => {
            for r in experiments::hierarchy::run(scale) {
                println!("{r}\n");
            }
        }
        "fig10" => {
            for r in experiments::scalability::run(scale) {
                println!("{r}\n");
            }
        }
        "table2" => println!(
            "{}",
            experiments::staleness::run_instrumented(scale, 3, telemetry.as_mut(), &hooks)
        ),
        "table3" => {
            for r in experiments::partitioners::run(scale) {
                println!("{r}\n");
            }
        }
        "ablation" => {
            let (st, rep, bal) =
                experiments::ablation::run_instrumented(scale, telemetry.as_mut(), &hooks);
            println!("{st}\n\n{rep}\n\n{bal}");
        }
        "all" => {
            println!("{}", experiments::overhead::run(scale));
            for r in experiments::cooccurrence::run(scale) {
                println!("{r}\n");
            }
            for r in experiments::partitioners::run(scale) {
                println!("{r}\n");
            }
            println!(
                "{}",
                experiments::comm_breakdown::run_instrumented(scale, telemetry.as_mut(), &hooks)
            );
            println!(
                "{}",
                experiments::staleness::run_instrumented(scale, 3, telemetry.as_mut(), &hooks)
            );
            for r in experiments::hierarchy::run(scale) {
                println!("{r}\n");
            }
            for r in experiments::scalability::run(scale) {
                println!("{r}\n");
            }
        }
        other => {
            return Err(HetGmpError::usage(format!(
                "unknown experiment {other:?} (see --help)"
            )))
        }
    }
    if let Some(w) = telemetry.as_mut() {
        w.flush()?;
        println!("telemetry: {}", w.path().display());
    }
    write_trace(&trace)?;
    Ok(())
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
            print!("{}", render_report(&artifact, args.has("wall"))?);
            Ok(ExitCode::SUCCESS)
        }
        "pipeline" => {
            let artifact = Artifact::load(path(2, "a FILE.trace.json")?)?;
            print!("{}", render_gantt(&artifact)?);
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
            print!("{}", outcome.report);
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
