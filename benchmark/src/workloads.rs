//! The six workloads: what each one trains, and how a single run of it is
//! driven through the trainer's public entry points.
//!
//! Every workload takes `TrainerConfig::default()` /
//! `KgTrainerConfig::default()` and overrides only the fields listed in
//! `README.md`, so a later change to a default is measured without editing
//! the benchmark.

use hetgmp_cluster::Topology;
use hetgmp_comms::SyncFormat;
use hetgmp_core::{
    KgTrainer, KgTrainerConfig, ModelKind, StorageMode, StrategyConfig, TrainResult, Trainer,
    TrainerConfig,
};
use hetgmp_data::{generate, generate_kg, CtrDataset, DatasetSpec, KgDataset, KgSpec};
use hetgmp_embedding::CapacityStats;

/// Name and one-line reason of every workload, in ledger order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "avazu_gmp",
        "ROADMAP's canonical run (4 workers, het_gmp(100), avazu_like): fetch and compute share the step, so no single layer hides the others",
    ),
    (
        "company_fetch",
        "embedding-bound: 43 fields over a table larger than the sample count, so table, worker and read-path changes must show here",
    ),
    (
        "avazu_dense",
        "dense-bound: DCN at dim 64 with a 256x128 tower, tensor and AllReduce dominate and embedding changes should move nothing",
    ),
    (
        "criteo_lfu_int8",
        "the HET-style dynamic LFU worker on a random partition with the lossy int8 wire format through comms::quant",
    ),
    (
        "avazu_tiered",
        "table 3.7x over its RAM budget: the only workload where embedding::tiered page faults and write-backs do the work",
    ),
    (
        "kg_transe",
        "second workload family: TransE through core::kg, 2-3 lookups per sample, a loop that bypasses PipelineDriver",
    ),
];

/// One workload: the modelled cluster, the system under test, and the model
/// family with its data spec and hyper-parameters.
pub struct Workload {
    pub topology: Topology,
    pub strategy: StrategyConfig,
    pub family: Family,
}

/// The two trainers the repository has.
// One value per process; boxing the larger config would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Family {
    /// A CTR model through `Trainer::try_run`.
    Ctr {
        spec: DatasetSpec,
        config: TrainerConfig,
    },
    /// TransE through `KgTrainer::run`.
    Kg {
        spec: KgSpec,
        config: KgTrainerConfig,
    },
}

/// The generated input of a workload; made before any timer starts.
pub enum Data {
    Ctr(CtrDataset),
    Kg(KgDataset),
}

/// What one training run reported, in the terms both families share.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Samples (triples for KG) processed, wrap-around re-visits included.
    pub samples: u64,
    /// Simulated seconds on the modelled cluster.
    pub sim_time: f64,
    /// Bytes on the modelled wire, all traffic classes.
    pub wire_bytes: u64,
    /// Final test AUC (MRR for KG).
    pub quality: f64,
    /// Batches whose loss was NaN or infinite.
    pub nonfinite: u64,
    /// Tiered-store counters, when the table is tiered.
    pub capacity: Option<CapacityStats>,
}

impl Workload {
    /// The workload called `name`, seeded with `seed`; `smoke` shrinks it
    /// to well under a second for schema and plumbing checks.
    pub fn by_name(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        // Smoke keeps every code path and divides the input by ~20.
        let k = if smoke { 0.05 } else { 1.0 };
        let epochs = |e: usize| if smoke { 1 } else { e };
        let ctr = |spec: DatasetSpec, workers: usize, strategy, config| Workload {
            topology: Topology::pcie_island(workers),
            strategy,
            family: Family::Ctr {
                spec: DatasetSpec {
                    // The locality the existing benches use (preset: 0.85).
                    cluster_affinity: 0.9,
                    seed,
                    ..spec
                },
                config,
            },
        };
        let base = TrainerConfig {
            seed,
            ..TrainerConfig::default()
        };
        let gmp = StrategyConfig::het_gmp(100);
        let w = match name {
            "avazu_gmp" => ctr(
                DatasetSpec::avazu_like(1.0 * k),
                4,
                gmp,
                TrainerConfig {
                    epochs: epochs(3),
                    ..base
                },
            ),
            "company_fetch" => ctr(
                DatasetSpec::company_like(1.0 * k),
                2,
                gmp,
                TrainerConfig {
                    epochs: epochs(2),
                    ..base
                },
            ),
            "avazu_dense" => ctr(
                DatasetSpec::avazu_like(0.25 * k),
                2,
                gmp,
                TrainerConfig {
                    model: ModelKind::Dcn,
                    dim: 64,
                    hidden: vec![256, 128],
                    epochs: epochs(2),
                    ..base
                },
            ),
            "criteo_lfu_int8" => ctr(
                DatasetSpec::criteo_like(0.75 * k),
                2,
                StrategyConfig::het_cache(100, 0.1),
                TrainerConfig {
                    sync_format: SyncFormat::Int8,
                    epochs: epochs(3),
                    ..base
                },
            ),
            // 0.25 and not the 0.2 of BENCH_capacity's rung: at 0.2 (and 0.4)
            // the hybrid partitioner lands in one of two optima depending on
            // the dataset seed and wire bytes move 12% between seeds; at
            // 0.25 thirty seeds gave one optimum and 0.4%.
            "avazu_tiered" => ctr(
                DatasetSpec::avazu_like(0.25 * k),
                2,
                gmp,
                TrainerConfig {
                    dim: 32,
                    epochs: epochs(1),
                    storage: StorageMode::Tiered {
                        // Smoke's table is 20x smaller; keep it over budget.
                        budget_bytes: if smoke { 16 << 10 } else { 120 << 10 },
                        // `None` = a private directory under the system temp
                        // dir, which the parent points inside the checkout.
                        dir: None,
                    },
                    ..base
                },
            ),
            "kg_transe" => {
                let small = KgSpec::small();
                let mult = if smoke { 1 } else { 10 };
                Workload {
                    topology: Topology::pcie_island(2),
                    strategy: gmp,
                    family: Family::Kg {
                        spec: KgSpec {
                            num_entities: small.num_entities * mult,
                            num_triples: small.num_triples * mult,
                            seed,
                            ..small
                        },
                        config: KgTrainerConfig {
                            epochs: epochs(8),
                            // 1024 test triples rank too noisily to hold MRR
                            // retention to a few percent.
                            max_eval_triples: 4096,
                            seed,
                            ..KgTrainerConfig::default()
                        },
                    },
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// The same model with no distribution effects: one worker, table in
    /// memory, lossless wire. What `final_quality` is measured against.
    pub fn reference(&self) -> Workload {
        Workload {
            topology: Topology::pcie_island(1),
            strategy: self.strategy.clone(),
            family: match &self.family {
                Family::Ctr { spec, config } => Family::Ctr {
                    spec: spec.clone(),
                    config: TrainerConfig {
                        storage: StorageMode::Memory,
                        sync_format: SyncFormat::F32,
                        ..config.clone()
                    },
                },
                Family::Kg { spec, config } => Family::Kg {
                    spec: spec.clone(),
                    config: config.clone(),
                },
            },
        }
    }

    /// Generates the workload's input from its seeded spec.
    pub fn generate(&self) -> Data {
        match &self.family {
            Family::Ctr { spec, .. } => Data::Ctr(generate(spec)),
            Family::Kg { spec, .. } => Data::Kg(generate_kg(spec)),
        }
    }

    /// Simulated workers (= OS threads the trainer spawns).
    pub fn workers(&self) -> usize {
        self.topology.num_workers()
    }

    /// Configured epochs of a full run.
    pub fn epochs(&self) -> usize {
        match &self.family {
            Family::Ctr { config, .. } => config.epochs,
            Family::Kg { config, .. } => config.epochs,
        }
    }

    /// Per-worker batch size.
    pub fn batch_size(&self) -> usize {
        match &self.family {
            Family::Ctr { config, .. } => config.batch_size,
            Family::Kg { config, .. } => config.batch_size,
        }
    }

    /// The seed of data and trainer.
    pub fn seed(&self) -> u64 {
        match &self.family {
            Family::Ctr { config, .. } => config.seed,
            Family::Kg { config, .. } => config.seed,
        }
    }

    /// Whether the primary table is tiered.
    pub fn is_tiered(&self) -> bool {
        matches!(
            &self.family,
            Family::Ctr { config, .. } if matches!(config.storage, StorageMode::Tiered { .. })
        )
    }

    /// Dataset indices of the training split, as the trainer takes it.
    pub fn train_split(&self, data: &Data) -> Vec<u32> {
        match (&self.family, data) {
            (Family::Ctr { config, .. }, Data::Ctr(d)) => d.split(config.test_fraction).train,
            (Family::Kg { .. }, Data::Kg(kg)) => kg.split(0.1).0,
            _ => unreachable!("data generated by another workload"),
        }
    }

    /// Batches a full run attempts and the samples it must process: the
    /// trainers run `ceil(round(train / workers) / batch)` iterations per
    /// epoch on every worker, each a full batch (shards wrap around).
    pub fn expected(&self, data: &Data) -> (u64, u64) {
        let (n, batch) = (self.workers(), self.batch_size());
        let mean_shard = (self.train_split(data).len() as f64 / n as f64).round() as usize;
        let iters = mean_shard.max(1).div_ceil(batch).max(1);
        let batches = (iters * n * self.epochs()) as u64;
        (batches, batches * batch as u64)
    }

    /// One run through the public entry point, telemetry hooks off.
    /// `epochs` overrides the configured count (0 = set-up only).
    pub fn run(&self, data: &Data, epochs: usize) -> Result<RunOutcome, String> {
        match (&self.family, data) {
            (Family::Ctr { config, .. }, Data::Ctr(d)) => self
                .ctr_trainer(
                    d,
                    TrainerConfig {
                        epochs,
                        ..config.clone()
                    },
                )
                .try_run()
                .map(|r| RunOutcome::from_ctr(&r))
                .map_err(|e| e.to_string()),
            (Family::Kg { config, .. }, Data::Kg(kg)) => {
                let r = self
                    .kg_trainer(
                        kg,
                        KgTrainerConfig {
                            epochs,
                            ..config.clone()
                        },
                    )
                    .run();
                Ok(RunOutcome {
                    // KgResult carries the rate, not the count.
                    samples: (r.throughput * r.sim_time).round() as u64,
                    sim_time: r.sim_time,
                    wire_bytes: r.embed_bytes,
                    quality: r.mrr,
                    nonfinite: 0,
                    capacity: None,
                })
            }
            _ => unreachable!("data generated by another workload"),
        }
    }

    /// A CTR trainer over `data` on this workload's cluster and strategy.
    pub fn ctr_trainer<'d>(&self, data: &'d CtrDataset, config: TrainerConfig) -> Trainer<'d> {
        Trainer::new(data, self.topology.clone(), self.strategy.clone(), config)
    }

    /// A TransE trainer over `kg` on this workload's cluster and strategy.
    pub fn kg_trainer<'d>(&self, kg: &'d KgDataset, config: KgTrainerConfig) -> KgTrainer<'d> {
        KgTrainer::new(kg, self.topology.clone(), self.strategy.clone(), config)
    }
}

impl RunOutcome {
    /// The shared view of a CTR result.
    pub fn from_ctr(r: &TrainResult) -> Self {
        Self {
            samples: r.samples_processed,
            sim_time: r.sim_time,
            wire_bytes: r.traffic_bytes.iter().sum(),
            quality: r.final_auc,
            nonfinite: r.nonfinite_batches,
            capacity: r.capacity,
        }
    }
}
