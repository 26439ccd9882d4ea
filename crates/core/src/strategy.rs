//! System strategies: HET-GMP and the baselines of §7.

use std::sync::Arc;

use hetgmp_embedding::StalenessBound;
use hetgmp_partition::{
    BiCutPartitioner, HybridConfig, HybridPartitioner, Partitioner, RandomPartitioner,
    ReplicationBudget,
};
use hetgmp_telemetry::{HetGmpError, Recorder, TraceCollector};

/// Where the embedding table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedHome {
    /// Distributed over GPU memory (HugeCTR / HET-MP / HET-GMP).
    Gpu,
    /// On CPU parameter servers; every access crosses the host link
    /// (TensorFlow-PS, Parallax).
    CpuPs,
}

/// How dense (DNN) parameters are synchronised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseSync {
    /// Ring AllReduce each iteration (BSP).
    AllReduce,
    /// Asynchronous push/pull through a CPU parameter server: workers do not
    /// wait for each other (the paper's ASP baselines). Mathematically
    /// modelled as mean-combining at iteration granularity without a time
    /// barrier, plus host-link costs.
    PsAsync,
}

/// How a worker keeps local copies of remote-primary embeddings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheDesign {
    /// Statically planned vertex-cut secondaries (HET-GMP, Algorithm 1
    /// step 2).
    StaticVertexCut,
    /// A dynamic LFU cache sized to this fraction of the embedding table
    /// per worker — the predecessor HET's cache-enabled architecture.
    DynamicLfu {
        /// Cache capacity as a fraction of the total embedding count.
        capacity_fraction: f64,
    },
}

/// How the bigraph is partitioned.
#[derive(Debug, Clone)]
pub enum PartitionPolicy {
    /// Uniform random (HET-MP / HugeCTR hash distribution).
    Random,
    /// The BiCut baseline (Chen et al. 2015).
    BiCut,
    /// Algorithm 1 with the given parameters.
    Hybrid(HybridConfig),
}

impl PartitionPolicy {
    /// The unified [`Partitioner`] this policy names. All trainer and
    /// experiment code dispatches through this single interface — no
    /// algorithm-specific call sites.
    pub fn partitioner(&self, seed: u64) -> Box<dyn Partitioner> {
        self.partitioner_instrumented(seed, None, None)
    }

    /// Like [`PartitionPolicy::partitioner`], with a telemetry recorder and
    /// a trace collector attached where the algorithm supports them
    /// (Algorithm 1 emits `partition.*` metrics and `trace.partition.round`
    /// spans on the driver track).
    pub fn partitioner_instrumented(
        &self,
        seed: u64,
        recorder: Option<Arc<dyn Recorder>>,
        tracer: Option<Arc<TraceCollector>>,
    ) -> Box<dyn Partitioner> {
        match self {
            PartitionPolicy::Random => Box::new(RandomPartitioner { seed }),
            PartitionPolicy::BiCut => Box::new(BiCutPartitioner),
            PartitionPolicy::Hybrid(cfg) => {
                let mut p = HybridPartitioner::new(cfg.clone());
                if let Some(r) = recorder {
                    p = p.with_recorder(r);
                }
                if let Some(t) = tracer {
                    p = p.with_tracer(t);
                }
                Box::new(p)
            }
        }
    }
}

/// Full description of one system under test.
#[derive(Debug, Clone)]
pub struct StrategyConfig {
    /// Display name ("TF-PS", "Parallax", "HugeCTR", "HET-MP", "HET-GMP").
    pub name: String,
    /// Embedding placement.
    pub embed_home: EmbedHome,
    /// Partitioning policy (ignored for `CpuPs`, where the table is not
    /// GPU-resident).
    pub partition: PartitionPolicy,
    /// Staleness bound for secondary replicas.
    pub staleness: StalenessBound,
    /// Dense-parameter synchronisation.
    pub dense_sync: DenseSync,
    /// Whether embedding communication overlaps with computation (paper §6,
    /// "Asynchronous Execution" — a property of the Hetu backbone shared by
    /// HET-MP and HET-GMP).
    pub overlap: bool,
    /// Local-copy management (static vertex-cut vs dynamic LFU).
    pub cache: CacheDesign,
}

impl StrategyConfig {
    /// TensorFlow 1.15 parameter-server baseline: CPU-hosted embeddings and
    /// dense parameters, asynchronous SGD.
    pub fn tf_ps() -> Self {
        Self {
            name: "TF-PS".into(),
            embed_home: EmbedHome::CpuPs,
            partition: PartitionPolicy::Random,
            staleness: StalenessBound::Bounded(0),
            dense_sync: DenseSync::PsAsync,
            overlap: false,
            cache: CacheDesign::StaticVertexCut,
        }
    }

    /// Parallax: hybrid architecture — sparse parameters via PS, dense via
    /// AllReduce (Kim et al. 2019).
    pub fn parallax() -> Self {
        Self {
            name: "Parallax".into(),
            embed_home: EmbedHome::CpuPs,
            partition: PartitionPolicy::Random,
            staleness: StalenessBound::Bounded(0),
            dense_sync: DenseSync::AllReduce,
            overlap: false,
            cache: CacheDesign::StaticVertexCut,
        }
    }

    /// HugeCTR v2.3-style GPU model parallelism: embedding table hashed
    /// across GPU memory, BSP.
    pub fn hugectr() -> Self {
        Self {
            name: "HugeCTR".into(),
            embed_home: EmbedHome::Gpu,
            partition: PartitionPolicy::Random,
            staleness: StalenessBound::Bounded(0),
            dense_sync: DenseSync::AllReduce,
            overlap: false,
            cache: CacheDesign::StaticVertexCut,
        }
    }

    /// HET-MP: the paper's auxiliary baseline — the HET-GMP system with
    /// random partitioning and no replication (same backbone, so the deltas
    /// to HET-GMP isolate the graph-based contributions).
    pub fn het_mp() -> Self {
        Self {
            name: "HET-MP".into(),
            embed_home: EmbedHome::Gpu,
            partition: PartitionPolicy::Random,
            staleness: StalenessBound::Bounded(0),
            dense_sync: DenseSync::AllReduce,
            overlap: true,
            cache: CacheDesign::StaticVertexCut,
        }
    }

    /// HET-GMP with staleness bound `s`: hybrid graph partitioning (default
    /// Algorithm 1 parameters, top-1% replication) + bounded asynchrony.
    pub fn het_gmp(s: u64) -> Self {
        Self {
            name: format!("HET-GMP(s={s})"),
            embed_home: EmbedHome::Gpu,
            partition: PartitionPolicy::Hybrid(HybridConfig::default()),
            staleness: StalenessBound::Bounded(s),
            dense_sync: DenseSync::AllReduce,
            overlap: true,
            cache: CacheDesign::StaticVertexCut,
        }
    }

    /// HET (Miao et al., VLDB 2022) — the predecessor cache-enabled
    /// architecture: random model-parallel placement plus a per-worker
    /// dynamic LFU cache under bounded staleness `s`.
    pub fn het_cache(s: u64, capacity_fraction: f64) -> Self {
        Self {
            name: format!("HET(cache,s={s})"),
            embed_home: EmbedHome::Gpu,
            partition: PartitionPolicy::Random,
            staleness: StalenessBound::Bounded(s),
            dense_sync: DenseSync::AllReduce,
            overlap: true,
            cache: CacheDesign::DynamicLfu { capacity_fraction },
        }
    }

    /// HET-GMP with unbounded staleness (`s = ∞`, Table 2's last column).
    pub fn het_gmp_asp() -> Self {
        Self {
            name: "HET-GMP(s=inf)".into(),
            staleness: StalenessBound::Infinite,
            ..Self::het_gmp(0)
        }
    }

    /// Overrides the replication budget (None disables vertex-cut).
    pub fn with_replication(mut self, budget: Option<ReplicationBudget>) -> Self {
        if let PartitionPolicy::Hybrid(cfg) = &mut self.partition {
            cfg.replication = budget;
        }
        self
    }

    /// Overrides the number of 1D rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        if let PartitionPolicy::Hybrid(cfg) = &mut self.partition {
            cfg.rounds = rounds;
        }
        self
    }

    /// Rejects a strategy the trainer cannot run: an empty name, a hybrid
    /// policy with no 1D round, and an LFU cache fraction outside `(0, 1]`
    /// (NaN or a negative value would size a zero-slot cache, a huge one
    /// would abort in its allocation). [`crate::Trainer::try_run`] calls it first.
    pub fn validate(&self) -> Result<(), HetGmpError> {
        if self.name.is_empty() {
            return Err(HetGmpError::config("name", "strategy name must be non-empty"));
        }
        if let PartitionPolicy::Hybrid(cfg) = &self.partition {
            if cfg.rounds == 0 {
                return Err(HetGmpError::config(
                    "partition.rounds",
                    "Algorithm 1 needs at least one 1D round",
                ));
            }
        }
        if let CacheDesign::DynamicLfu { capacity_fraction } = self.cache {
            if !(capacity_fraction > 0.0 && capacity_fraction <= 1.0) {
                return Err(HetGmpError::config(
                    "cache.capacity_fraction",
                    format!("must lie in (0, 1], got {capacity_fraction}"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_axes() {
        let tf = StrategyConfig::tf_ps();
        assert_eq!(tf.embed_home, EmbedHome::CpuPs);
        assert_eq!(tf.dense_sync, DenseSync::PsAsync);

        let px = StrategyConfig::parallax();
        assert_eq!(px.embed_home, EmbedHome::CpuPs);
        assert_eq!(px.dense_sync, DenseSync::AllReduce);

        let hc = StrategyConfig::hugectr();
        assert_eq!(hc.embed_home, EmbedHome::Gpu);
        assert!(matches!(hc.partition, PartitionPolicy::Random));

        let gmp = StrategyConfig::het_gmp(100);
        assert!(matches!(gmp.partition, PartitionPolicy::Hybrid(_)));
        assert_eq!(gmp.staleness, StalenessBound::Bounded(100));
        assert!(gmp.overlap);

        assert_eq!(
            StrategyConfig::het_gmp_asp().staleness,
            StalenessBound::Infinite
        );
    }

    #[test]
    fn builders_modify_hybrid() {
        let s = StrategyConfig::het_gmp(10)
            .with_rounds(5)
            .with_replication(None);
        match s.partition {
            PartitionPolicy::Hybrid(cfg) => {
                assert_eq!(cfg.rounds, 5);
                assert!(cfg.replication.is_none());
            }
            _ => panic!("expected hybrid"),
        }
    }

    #[test]
    fn builders_noop_on_random() {
        let s = StrategyConfig::het_mp().with_rounds(9);
        assert!(matches!(s.partition, PartitionPolicy::Random));
    }

    #[test]
    fn strategy_builder_validates() {
        let s = StrategyConfig {
            name: "mine".into(),
            staleness: StalenessBound::Bounded(50),
            cache: CacheDesign::DynamicLfu {
                capacity_fraction: 0.1,
            },
            ..StrategyConfig::het_gmp(0)
        };
        assert!(s.validate().is_ok());

        let err = StrategyConfig {
            name: String::new(),
            ..s.clone()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.exit_code(), 78);
        assert!(StrategyConfig {
            cache: CacheDesign::DynamicLfu {
                capacity_fraction: 0.0,
            },
            ..s.clone()
        }
        .validate()
        .is_err());
        let bad_rounds = PartitionPolicy::Hybrid(HybridConfig {
            rounds: 0,
            ..Default::default()
        });
        assert!(StrategyConfig {
            partition: bad_rounds,
            ..s
        }
        .validate()
        .is_err());
    }
}
