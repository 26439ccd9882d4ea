//! Distributed knowledge-graph embedding (TransE) on the HET-GMP substrate.
//!
//! The paper's §3 claims its graph-based replication and consistency
//! principles "could be naturally applied" to KG training systems. This
//! module realises that extension on the CTR trainer's own loop. The entity
//! table is the same [`ShardedTable`] + [`WorkerEmbedding`]
//! bounded-asynchrony stack, partitioned by the same Algorithm 1 over the
//! triple bigraph (where each sample touches exactly *two* embeddings — the
//! contrast with CTR the paper highlights in §2).
//!
//! TransE (Bordes et al. 2013): score `d(h, r, t) = ‖h + r − t‖²`; margin
//! ranking loss `max(0, γ + d(h,r,t) − d(h,r,t'))` with corrupted tails
//! `t'`. Relations are few and dense, so each worker keeps a replica synced
//! by AllReduce — exactly the paper's hybrid dense/sparse architecture.
//!
//! `TransE` is the model the loop steps (`pipeline::StepModel`): its
//! samples are `[h, t, t']` with a corrupted tail `t'`, its backward the
//! margin-ranking gradient, its dense parameters the relation table. The
//! rest — the owner-ordered write path (§6), the charge path, the fused
//! relation collective, the epoch barrier and the metrics — is the CTR
//! step's, so same-seed runs are bit-identical at any worker count.

use std::sync::atomic::Ordering;

use hetgmp_cluster::Topology;
use hetgmp_comms::TrafficClass;
use hetgmp_data::KgDataset;
use hetgmp_embedding::{RowStore, ShardedTable, SparseOpt, WorkerEmbedding};
use hetgmp_partition::PartitionMetrics;
use hetgmp_telemetry::{HetGmpError, MetricsRegistry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::{RunCtx, StepCtx, StepModel, WorkerRun};
use crate::strategy::StrategyConfig;
use crate::trainer::{
    barrier, record_closing_gauges, sim_time, train_epoch, Placement, TrainerConfig,
};

/// TransE training hyper-parameters.
#[derive(Debug, Clone)]
pub struct KgTrainerConfig {
    /// Embedding dimension for entities and relations.
    pub dim: usize,
    /// Margin `γ`.
    pub margin: f32,
    /// Entity-table optimizer.
    pub entity_opt: SparseOpt,
    /// Relation learning rate (plain SGD, AllReduce-synced).
    pub relation_lr: f32,
    /// Triples per batch per worker.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Candidates per test triple for ranking metrics.
    pub eval_candidates: usize,
    /// Test triples evaluated (cap).
    pub max_eval_triples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KgTrainerConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            margin: 1.0,
            // Adagrad: batch gradients are *summed* per row, so hot entities
            // need per-row adaptive steps or they oscillate.
            entity_opt: SparseOpt::adagrad(0.1),
            relation_lr: 0.5,
            batch_size: 256,
            epochs: 5,
            eval_candidates: 50,
            max_eval_triples: 1024,
            seed: 7,
        }
    }
}

/// Results of one KG training run.
#[derive(Debug, Clone)]
pub struct KgResult {
    /// Strategy name.
    pub strategy: String,
    /// Mean reciprocal rank of the true tail among sampled candidates.
    pub mrr: f64,
    /// Fraction of test triples whose true tail ranks in the top 10.
    pub hits_at_10: f64,
    /// Total simulated seconds.
    pub sim_time: f64,
    /// Triples processed per simulated second.
    pub throughput: f64,
    /// Embedding-row bytes on the wire (`traffic.bytes.embed_data`).
    pub embed_bytes: u64,
    /// Partition quality on the triple bigraph.
    pub partition_metrics: PartitionMetrics,
    /// Every metric the run recorded, traffic classes included.
    pub telemetry: TelemetrySnapshot,
}

/// Distributed TransE trainer.
pub struct KgTrainer<'d> {
    kg: &'d KgDataset,
    topology: Topology,
    strategy: StrategyConfig,
    config: KgTrainerConfig,
}

impl<'d> KgTrainer<'d> {
    /// Creates a trainer. The strategy applies as in the CTR trainer, except
    /// its cache design: every worker keeps static vertex-cut replicas.
    pub fn new(
        kg: &'d KgDataset,
        topology: Topology,
        strategy: StrategyConfig,
        config: KgTrainerConfig,
    ) -> Self {
        assert!(!kg.is_empty(), "empty knowledge graph");
        Self {
            kg,
            topology,
            strategy,
            config,
        }
    }

    /// Runs training and evaluation.
    ///
    /// # Panics
    /// Panics on a configuration error; use [`KgTrainer::try_run`] to
    /// handle it.
    pub fn run(&self) -> KgResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("KG training run failed: {e}"))
    }

    /// Runs training and evaluation, or returns a [`HetGmpError::Config`]
    /// naming the field when `dim` or `batch_size` is 0. `epochs: 0` is
    /// legal: the run partitions, evaluates the initial table and returns.
    pub fn try_run(&self) -> Result<KgResult, HetGmpError> {
        let cfg = &self.config;
        if cfg.dim == 0 {
            return Err(HetGmpError::config(
                "dim",
                "embedding dimension must be positive",
            ));
        }
        if cfg.batch_size == 0 {
            return Err(HetGmpError::config("batch_size", "must be positive"));
        }
        let (kg, n) = (self.kg, self.topology.num_workers());
        let (train, test) = kg.split(0.1);
        let registry = MetricsRegistry::new(n);

        // Bigraph over training triples only.
        let placement = Placement::build(
            kg.num_entities,
            &train,
            |i| kg.entity_row(i as usize),
            self.strategy
                .partition
                .partitioner_instrumented(cfg.seed, Some(registry.global()), None)
                .as_ref(),
            &self.topology,
            cfg.batch_size,
        );
        let partition = &placement.partition;
        let partition_metrics = PartitionMetrics::compute(&placement.graph, partition);
        let entities =
            ShardedTable::with_partition(kg.num_entities, cfg.dim, 0.1, cfg.seed, partition);

        // The loop reads KG's hyper-parameters through the CTR names: the
        // entity optimizer is the embedding one, the relation rate the
        // dense one.
        let run_cfg = TrainerConfig {
            dim: cfg.dim,
            batch_size: cfg.batch_size,
            epochs: cfg.epochs,
            embed_opt: cfg.entity_opt,
            dense_lr: cfg.relation_lr,
            seed: cfg.seed,
            ..TrainerConfig::default()
        };
        let run = RunCtx::new(
            &run_cfg,
            &self.strategy,
            kg,
            &entities,
            &placement,
            &self.topology,
            registry,
        );
        // One relation replica per worker, identical init.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE1);
        let relations: Vec<f32> = (0..kg.num_relations * cfg.dim)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let mut workers: Vec<WorkerRun<'_, TransE>> = (0..n)
            .map(|w| {
                let mut emb = WorkerEmbedding::new(
                    w as u32,
                    &entities,
                    partition,
                    &placement.freq,
                    self.strategy.staleness,
                );
                emb.attach_recorder(run.registry.worker(w));
                let model = TransE {
                    relations: relations.clone(),
                    grad: vec![0.0; relations.len()],
                    dim: cfg.dim,
                    margin: cfg.margin,
                    rng: StdRng::seed_from_u64(cfg.seed),
                };
                let recorder = run.registry.worker(w);
                WorkerRun::new(w, Box::new(emb), model, recorder, 1.0, cfg.batch_size)
            })
            .collect();
        for epoch in 0..cfg.epochs {
            // KG's batch source: a fresh RNG per (epoch, worker), and a
            // random cursor start drawn from it.
            for (w, me) in workers.iter_mut().enumerate() {
                me.model.rng = StdRng::seed_from_u64(cfg.seed ^ ((epoch * n + w) as u64) << 8);
                me.cursor = me.model.rng.gen_range(0..placement.shards[w].len().max(1));
            }
            train_epoch(&run, &mut workers, epoch + 1, None);
            barrier(&run, &mut workers);
        }
        record_closing_gauges(&run, &workers);

        // Evaluation: rank the true tail among sampled candidates.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xEA);
        let take = test.len().min(cfg.max_eval_triples);
        let mut mrr = 0.0f64;
        let mut hits = 0usize;
        let dim = cfg.dim;
        let mut h_buf = vec![0.0f32; dim];
        let mut t_buf = vec![0.0f32; dim];
        let mut c_buf = vec![0.0f32; dim];
        let rel0 = &workers[0].model.relations;
        for &i in &test[..take] {
            let (h, r, t) = kg.triples[i as usize];
            entities.read_row(h, &mut h_buf);
            entities.read_row(t, &mut t_buf);
            let rvec = &rel0[r as usize * dim..(r as usize + 1) * dim];
            let d_true = distance(&h_buf, rvec, &t_buf);
            let mut rank = 1usize;
            for _ in 0..cfg.eval_candidates {
                let cand = rng.gen_range(0..kg.num_entities as u32);
                if cand == t {
                    continue;
                }
                entities.read_row(cand, &mut c_buf);
                if distance(&h_buf, rvec, &c_buf) < d_true {
                    rank += 1;
                }
            }
            mrr += 1.0 / rank as f64;
            if rank <= 10 {
                hits += 1;
            }
        }
        let sim_time = sim_time(&workers);
        let done = run.samples.load(Ordering::Relaxed);
        let telemetry = run.registry.snapshot();
        Ok(KgResult {
            strategy: self.strategy.name.clone(),
            mrr: mrr / take.max(1) as f64,
            hits_at_10: hits as f64 / take.max(1) as f64,
            sim_time,
            throughput: if sim_time > 0.0 {
                done as f64 / sim_time
            } else {
                0.0
            },
            embed_bytes: telemetry.counter(TrafficClass::EmbedData.bytes_metric()),
            partition_metrics,
            telemetry,
        })
    }
}

#[inline]
fn distance(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    h.iter()
        .zip(r)
        .zip(t)
        .map(|((&hv, &rv), &tv)| {
            let d = hv + rv - tv;
            d * d
        })
        .sum()
}

/// Gradient of one triple's margin-ranking loss
/// `max(0, γ + d(h, r, t) − d(h, r, t'))` with `d` = [`distance`], written
/// into `grad = [dL/dh ; dL/dt ; dL/dt']` (`3·dim`). `dL/dr` equals
/// `dL/dh`. Returns the loss, or `None`, writing nothing, where the hinge
/// is flat.
fn margin_ranking_grad(
    h: &[f32],
    r: &[f32],
    t: &[f32],
    neg: &[f32],
    margin: f32,
    grad: &mut [f32],
) -> Option<f32> {
    let d_pos = distance(h, r, t);
    let d_neg = distance(h, r, neg);
    let loss = margin + d_pos - d_neg;
    if loss <= 0.0 {
        return None;
    }
    let (gh, rest) = grad.split_at_mut(h.len());
    let (gt, gn) = rest.split_at_mut(h.len());
    for d in 0..h.len() {
        let e_pos = h[d] + r[d] - t[d];
        let e_neg = h[d] + r[d] - neg[d];
        // dL/dh = 2(e_pos − e_neg); dL/dt = −2 e_pos; dL/dt' = 2 e_neg
        gh[d] = 2.0 * (e_pos - e_neg);
        gt[d] = -2.0 * e_pos;
        gn[d] = 2.0 * e_neg;
    }
    Some(loss)
}

/// One worker's TransE replica: the relation table every worker keeps a
/// copy of, its batch gradient, and the RNG its corrupted tails draw from.
struct TransE {
    relations: Vec<f32>,
    /// `dL/dr`, summed over the batch.
    grad: Vec<f32>,
    dim: usize,
    margin: f32,
    /// Re-seeded per (epoch, worker) by the driver.
    rng: StdRng,
}

impl StepModel for TransE {
    type Data = KgDataset;

    fn ids_per_sample(_: &KgDataset) -> usize {
        3
    }

    /// Each triple's `[h, t, t']`, the corrupted tail `t'` drawn uniformly.
    fn samples<'s>(
        &mut self,
        kg: &'s KgDataset,
        batch: &[u32],
        ids: &'s mut Vec<u32>,
        samples: &mut Vec<&'s [u32]>,
    ) {
        ids.clear();
        for &i in batch {
            let (h, _, t) = kg.triples[i as usize];
            let neg = self.rng.gen_range(0..kg.num_entities as u32);
            ids.extend([h, t, neg]);
        }
        let ids: &'s [u32] = ids;
        samples.extend(ids.chunks_exact(3));
    }

    /// Margin-ranking gradients per triple; `dL/dr` is `dL/dh`.
    fn backward(&mut self, kg: &KgDataset, slot: &mut StepCtx) -> f32 {
        let dim = self.dim;
        let rows = slot.batch_idx.len();
        slot.grad_input.reset(rows, 3 * dim);
        self.grad.fill(0.0);
        let mut loss = 0.0f32;
        let grads = slot.grad_input.data_mut().chunks_exact_mut(3 * dim);
        let input = slot.input.data().chunks_exact(3 * dim);
        for ((&i, row), g) in slot.batch_idx.iter().zip(input).zip(grads) {
            let r = kg.triples[i as usize].1 as usize;
            let (hv, rest) = row.split_at(dim);
            let (tv, nv) = rest.split_at(dim);
            let rel = r * dim..(r + 1) * dim;
            if let Some(l) =
                margin_ranking_grad(hv, &self.relations[rel.clone()], tv, nv, self.margin, g)
            {
                loss += l;
                for (rg, &gh) in self.grad[rel].iter_mut().zip(&g[..dim]) {
                    *rg += gh;
                }
            }
        }
        loss / rows.max(1) as f32
    }

    fn flatten_grads_into(&mut self, out: &mut Vec<f32>) {
        out.clone_from(&self.grad);
    }

    /// Plain SGD on the mean gradient, scaled by the batch size.
    fn dense_step(&mut self, cfg: &TrainerConfig, grads: &mut [f32]) {
        for (p, &g) in self.relations.iter_mut().zip(grads.iter()) {
            *p -= cfg.dense_lr * g / cfg.batch_size.max(1) as f32;
        }
    }

    /// Three distances of `dim` elements, forward and backward.
    fn flops_per_sample(&mut self) -> f64 {
        (18 * self.dim) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_data::{generate_kg, KgSpec};
    use hetgmp_tensor::gradcheck::gradcheck;

    #[test]
    fn margin_ranking_gradient_matches_finite_differences() {
        // Each of h, r, t and t' against central differences of the loss,
        // with the margin wide enough that no probe reaches the hinge.
        let (dim, margin) = (6usize, 4.0f32);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4 {
            let v: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect())
                .collect();
            let mut grad = vec![0.0f32; 3 * dim];
            assert!(margin_ranking_grad(&v[0], &v[1], &v[2], &v[3], margin, &mut grad).is_some());
            // h, r, t and t' against dL/dh, dL/dh, dL/dt and dL/dt'.
            for (arg, part) in [0usize, 0, 1, 2].into_iter().enumerate() {
                let at = |p: &[f32]| {
                    let mut args: Vec<&[f32]> = v.iter().map(Vec::as_slice).collect();
                    args[arg] = p;
                    let (h, r, t, n) = (args[0], args[1], args[2], args[3]);
                    let loss = margin as f64 + distance(h, r, t) as f64 - distance(h, r, n) as f64;
                    assert!(loss > 0.0, "a probe reached the hinge");
                    loss
                };
                gradcheck(at, &v[arg], &grad[part * dim..][..dim], 1e-2, 1e-4, 1e-3);
            }
        }
    }

    #[test]
    fn margin_ranking_gradient_is_zero_past_the_hinge() {
        // d(h, r, t) = 0 and d(h, r, t') = 25, so a margin of 1 is met.
        let (h, r, t) = ([0.1f32, 0.2], [0.0f32, 0.1], [0.1f32, 0.3]);
        let mut grad = [f32::NAN; 6];
        assert!(margin_ranking_grad(&h, &r, &t, &[5.1, 0.3], 1.0, &mut grad).is_none());
        assert!(grad.iter().all(|g| g.is_nan()), "nothing written");
    }

    fn small_kg() -> hetgmp_data::KgDataset {
        let mut spec = KgSpec::small();
        spec.num_entities = 400;
        spec.num_triples = 6000;
        generate_kg(&spec)
    }

    /// A zero dimension or batch size is a config error naming the field,
    /// not a panic inside the run.
    #[test]
    fn zero_dim_or_batch_is_a_config_error() {
        let kg = small_kg();
        for (field, config) in [
            (
                "dim",
                KgTrainerConfig {
                    dim: 0,
                    ..Default::default()
                },
            ),
            (
                "batch_size",
                KgTrainerConfig {
                    batch_size: 0,
                    ..Default::default()
                },
            ),
        ] {
            let trainer = KgTrainer::new(
                &kg,
                Topology::pcie_island(2),
                StrategyConfig::het_gmp(100),
                config,
            );
            let err = trainer.try_run().expect_err(field);
            assert_eq!(err.exit_code(), 78, "{err}");
            assert!(
                matches!(&err, HetGmpError::Config { param, .. } if param == field),
                "{err}"
            );
        }
    }

    /// The bits a run's result is compared on: MRR, hits@10, remote bytes
    /// and simulated seconds.
    fn result_bits(r: &KgResult) -> (u64, u64, u64, u64) {
        (
            r.mrr.to_bits(),
            r.hits_at_10.to_bits(),
            r.embed_bytes,
            r.sim_time.to_bits(),
        )
    }

    fn two_epochs(kg: &hetgmp_data::KgDataset, workers: usize, staleness: u64) -> KgResult {
        KgTrainer::new(
            kg,
            Topology::pcie_island(workers),
            StrategyConfig::het_gmp(staleness),
            KgTrainerConfig {
                epochs: 2,
                ..Default::default()
            },
        )
        .run()
    }

    /// Every write lands after the step's reads-done barrier, so two
    /// same-seed runs agree to the bit at any worker count and staleness.
    #[test]
    fn same_seed_runs_are_bit_identical() {
        let kg = small_kg();
        for workers in [2, 3] {
            for staleness in [0, 100] {
                let a = two_epochs(&kg, workers, staleness);
                let b = two_epochs(&kg, workers, staleness);
                assert_eq!(
                    result_bits(&a),
                    result_bits(&b),
                    "{workers} workers, s={staleness}: MRR {} vs {}",
                    a.mrr,
                    b.mrr
                );
            }
        }
    }

    /// One worker owns every row, so the owner-ordered write path applies
    /// exactly what the worker's own one-call write-back applied: the
    /// result is pinned to the bits of that earlier path.
    #[test]
    fn single_worker_run_is_pinned() {
        let r = two_epochs(&small_kg(), 1, 100);
        let (mrr, hits, sim): (f64, f64, f64) = (
            0.3212981842816563,
            0.5983333333333334,
            0.0013204634331428582,
        );
        assert_eq!(
            result_bits(&r),
            (mrr.to_bits(), hits.to_bits(), 0, sim.to_bits()),
            "MRR {:?} hits@10 {:?} bytes {} sim {:?}",
            r.mrr,
            r.hits_at_10,
            r.embed_bytes,
            r.sim_time
        );
    }

    /// Two workers hold replicas and exchange rows, so this pins the
    /// replicated path too: the keys/clocks metadata the step charges and
    /// the epoch barrier's charged flush and re-prime.
    #[test]
    fn two_worker_run_is_pinned() {
        let r = two_epochs(&small_kg(), 2, 100);
        let (mrr, hits, sim): (f64, f64, f64) = (0.3095764801625792, 0.595, 0.0009597637165714289);
        assert_eq!(
            result_bits(&r),
            (mrr.to_bits(), hits.to_bits(), 1554688, sim.to_bits()),
            "MRR {:?} hits@10 {:?} bytes {} sim {:?}",
            r.mrr,
            r.hits_at_10,
            r.embed_bytes,
            r.sim_time
        );
    }

    /// KG's traffic lands in the run's one metric sink: `embed_bytes` is
    /// its `traffic.bytes.embed_data`, and the replicas' keys and clocks
    /// are charged beside it. One worker owns every row, so it moves
    /// neither.
    #[test]
    fn traffic_lands_in_the_metric_sink() {
        let kg = small_kg();
        let counters = |r: &KgResult| {
            [TrafficClass::EmbedData, TrafficClass::KeysClocks]
                .map(|c| r.telemetry.counter(c.bytes_metric()))
        };
        let two = two_epochs(&kg, 2, 100);
        let [data, meta] = counters(&two);
        assert!(two.embed_bytes > 0);
        assert_eq!(two.embed_bytes, data);
        assert!(meta > 0, "no keys/clocks charged");
        let one = two_epochs(&kg, 1, 100);
        assert_eq!(counters(&one), [0, 0]);
        assert_eq!(one.embed_bytes, 0);
    }

    #[test]
    fn transe_learns_ranking() {
        let kg = small_kg();
        let trainer = KgTrainer::new(
            &kg,
            Topology::pcie_island(4),
            StrategyConfig::het_gmp(100),
            KgTrainerConfig {
                epochs: 15,
                ..Default::default()
            },
        );
        let r = trainer.run();
        // Random ranking over ~50 candidates has MRR ≈ 0.09 / hits@10 ≈ 0.2;
        // a trained model must do far better.
        assert!(r.mrr > 0.3, "MRR {}", r.mrr);
        assert!(r.hits_at_10 > 0.5, "hits@10 {}", r.hits_at_10);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn hybrid_partition_cuts_kg_traffic() {
        let kg = small_kg();
        let run = |strat: StrategyConfig| {
            KgTrainer::new(
                &kg,
                Topology::pcie_island(4),
                strat,
                KgTrainerConfig {
                    epochs: 2,
                    ..Default::default()
                },
            )
            .run()
        };
        let random = run(StrategyConfig::het_mp());
        let hybrid = run(StrategyConfig::het_gmp(100));
        assert!(
            hybrid.partition_metrics.remote_fetches < random.partition_metrics.remote_fetches,
            "hybrid {} !< random {}",
            hybrid.partition_metrics.remote_fetches,
            random.partition_metrics.remote_fetches
        );
        assert!(
            hybrid.embed_bytes < random.embed_bytes,
            "hybrid bytes {} !< random {}",
            hybrid.embed_bytes,
            random.embed_bytes
        );
    }
}
