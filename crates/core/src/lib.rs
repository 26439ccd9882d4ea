#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-core
//!
//! The HET-GMP training system: CTR models, the distributed trainer, the
//! baseline systems it is compared against, and runners for every experiment
//! in the paper's evaluation (§7).
//!
//! ## System strategies (paper §7 "Baselines")
//!
//! All strategies share the same substrate (dataset, model math, cost
//! model), exactly as the paper introduces HET-MP "to alleviate the concerns
//! on the difference between the system backbones". They differ only in the
//! four axes the paper studies:
//!
//! | Strategy | Embedding home | Partitioning | Replication | Consistency |
//! |----------|---------------|--------------|-------------|-------------|
//! | `TfPs` (TensorFlow PS) | CPU host | — | none | ASP, PS dense |
//! | `Parallax` | CPU host | — | none | ASP, AllReduce dense |
//! | `HugeCtrMp` / `HetMp` | GPU | random | none | BSP |
//! | `HetGmp(s)` | GPU | hybrid graph (Alg. 1) | top-1% vertex-cut | graph-based bounded async |
//!
//! ## Experiment index
//!
//! See `DESIGN.md` at the workspace root; each `experiments::*` module maps
//! to one table or figure and is run by `het-gmp experiment NAME`.

mod charge;
pub mod experiments;
pub mod kg;
pub mod models;
pub mod pipeline;
pub mod strategy;
pub mod trainer;

pub use kg::{KgResult, KgTrainer, KgTrainerConfig};
pub use models::{CtrModel, ModelKind};
pub use pipeline::{BatchStage, StepCtx};
pub use strategy::{DenseSync, EmbedHome, PartitionPolicy, StrategyConfig};
pub use trainer::{EvalPoint, StorageMode, TrainResult, Trainer, TrainerConfig};
