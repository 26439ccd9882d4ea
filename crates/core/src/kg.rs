//! Distributed knowledge-graph embedding (TransE) on the HET-GMP substrate.
//!
//! The paper's §3 claims its graph-based replication and consistency
//! principles "could be naturally applied" to KG training systems. This
//! module realises that extension: a multi-worker TransE trainer whose
//! entity table is the same [`ShardedTable`] + [`WorkerEmbedding`]
//! bounded-asynchrony stack used by the CTR trainer, partitioned by the same
//! Algorithm 1 over the triple bigraph (where each sample touches exactly
//! *two* embeddings — the contrast with CTR the paper highlights in §2).
//!
//! TransE (Bordes et al. 2013): score `d(h, r, t) = ‖h + r − t‖²`; margin
//! ranking loss `max(0, γ + d(h,r,t) − d(h,r,t'))` with corrupted tails
//! `t'`. Relations are few and dense, so each worker keeps a replica synced
//! by AllReduce — exactly the paper's hybrid dense/sparse architecture.

use std::sync::atomic::{AtomicU64, Ordering};

use hetgmp_cluster::{CostModel, SimClock, TimeCategory, Topology};
use hetgmp_comms::AllReduceGroup;
use hetgmp_data::KgDataset;
use hetgmp_embedding::{RowStore, ShardedTable, SparseOpt, WorkerEmbedding, WriteExchange};
use hetgmp_partition::PartitionMetrics;
use hetgmp_telemetry::HetGmpError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::charge::{charge, Dense, LinkTallies, Phases, Transfer, Wire};
use crate::strategy::StrategyConfig;
use crate::trainer::Placement;

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
    /// Remote embedding traffic, bytes.
    pub embed_bytes: u64,
    /// Partition quality on the triple bigraph.
    pub partition_metrics: PartitionMetrics,
}

/// Distributed TransE trainer.
pub struct KgTrainer<'d> {
    kg: &'d KgDataset,
    topology: Topology,
    strategy: StrategyConfig,
    config: KgTrainerConfig,
}

impl<'d> KgTrainer<'d> {
    /// Creates a trainer. Only the strategy's partition policy and staleness
    /// bound are consulted (KG has no CPU-PS mode here).
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
        let n = self.topology.num_workers();
        let cost = CostModel::new(self.topology.clone());
        let (train, test) = self.kg.split(0.1);

        // Bigraph over training triples only.
        let Placement {
            graph,
            partition,
            freq,
            shards,
            iters_per_epoch: iters,
        } = Placement::build(
            self.kg.num_entities,
            &train,
            |i| self.kg.entity_row(i as usize),
            self.strategy.partition.partitioner(cfg.seed).as_ref(),
            &self.topology,
            cfg.batch_size,
        );
        let partition_metrics = PartitionMetrics::compute(&graph, &partition);

        let entities = ShardedTable::new(self.kg.num_entities, cfg.dim, 0.1, cfg.seed);
        let group = AllReduceGroup::new(n);
        let triples_done = AtomicU64::new(0);
        let embed_bytes = AtomicU64::new(0);

        let mut relations: Vec<Vec<f32>> = {
            // One replica per worker, identical init.
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE1);
            let base: Vec<f32> = (0..self.kg.num_relations * cfg.dim)
                .map(|_| rng.gen_range(-0.1..0.1))
                .collect();
            (0..n).map(|_| base.clone()).collect()
        };
        let mut workers: Vec<WorkerEmbedding<'_>> = (0..n as u32)
            .map(|w| WorkerEmbedding::new(w, &entities, &partition, &freq, self.strategy.staleness))
            .collect();
        let mut clocks: Vec<SimClock> = (0..n).map(|_| SimClock::new()).collect();
        let exchange = WriteExchange::new(n);

        let kg = self.kg;
        for epoch in 0..cfg.epochs {
            std::thread::scope(|scope| {
                for (w, ((we, rel), clock)) in workers
                    .iter_mut()
                    .zip(relations.iter_mut())
                    .zip(clocks.iter_mut())
                    .enumerate()
                {
                    let shard = &shards[w];
                    let group = &group;
                    let cost = &cost;
                    let triples_done = &triples_done;
                    let embed_bytes = &embed_bytes;
                    scope.spawn(move || {
                        let mut rng =
                            StdRng::seed_from_u64(cfg.seed ^ ((epoch * n + w) as u64) << 8);
                        run_kg_worker_epoch(KgWorkerCtx {
                            w,
                            shard,
                            kg,
                            we,
                            rel,
                            clock,
                            iters,
                            cfg,
                            cost,
                            group,
                            rng: &mut rng,
                            triples_done,
                            embed_bytes,
                        });
                    });
                }
            });
            for we in &mut workers {
                we.flush_all(&exchange);
            }
            for owner in 0..n {
                exchange.apply_owned(owner, &entities, &cfg.entity_opt);
            }
        }

        // Evaluation: rank the true tail among sampled candidates.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xEA);
        let take = test.len().min(cfg.max_eval_triples);
        let mut mrr = 0.0f64;
        let mut hits = 0usize;
        let dim = cfg.dim;
        let mut h_buf = vec![0.0f32; dim];
        let mut t_buf = vec![0.0f32; dim];
        let mut c_buf = vec![0.0f32; dim];
        let rel0 = &relations[0];
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
        let sim_time = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
        let done = triples_done.load(Ordering::Relaxed);
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
            embed_bytes: embed_bytes.load(Ordering::Relaxed),
            partition_metrics,
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
/// `dL/dh`. Returns `false`, writing nothing, where the hinge is flat.
fn margin_ranking_grad(
    h: &[f32],
    r: &[f32],
    t: &[f32],
    neg: &[f32],
    margin: f32,
    grad: &mut [f32],
) -> bool {
    let d_pos = distance(h, r, t);
    let d_neg = distance(h, r, neg);
    if margin + d_pos - d_neg <= 0.0 {
        return false;
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
    true
}

struct KgWorkerCtx<'a, 'b, 'd> {
    w: usize,
    shard: &'a [u32],
    kg: &'d KgDataset,
    we: &'a mut WorkerEmbedding<'b>,
    rel: &'a mut [f32],
    clock: &'a mut SimClock,
    iters: usize,
    cfg: &'a KgTrainerConfig,
    cost: &'a CostModel,
    group: &'a AllReduceGroup,
    rng: &'a mut StdRng,
    triples_done: &'a AtomicU64,
    embed_bytes: &'a AtomicU64,
}

fn run_kg_worker_epoch(ctx: KgWorkerCtx<'_, '_, '_>) {
    let KgWorkerCtx {
        w,
        shard,
        kg,
        we,
        rel,
        clock,
        iters,
        cfg,
        cost,
        group,
        rng,
        triples_done,
        embed_bytes,
    } = ctx;
    let dim = cfg.dim;
    let wire = Wire {
        cost,
        recorder: None,
        tracer: None,
        host_ps: false,
        row_bytes: (dim * 4) as u64,
    };
    let mut links = LinkTallies::default();
    let mut cursor = rng.gen_range(0..shard.len().max(1));
    let mut rel_grad = vec![0.0f32; rel.len()];

    for _ in 0..iters {
        let bs = cfg.batch_size.min(shard.len().max(1));
        // Assemble ids: for each triple, h, t and a corrupted tail t'.
        let mut triple_ids = Vec::with_capacity(bs);
        let mut id_rows: Vec<Vec<u32>> = Vec::with_capacity(bs);
        if !shard.is_empty() {
            for _ in 0..bs {
                let idx = shard[cursor % shard.len()];
                cursor += 1;
                let (h, r, t) = kg.triples[idx as usize];
                let neg = rng.gen_range(0..kg.num_entities as u32);
                triple_ids.push((h, r, t, neg));
                id_rows.push(vec![h, t, neg]);
            }
        }
        let sample_refs: Vec<&[u32]> = id_rows.iter().map(Vec::as_slice).collect();
        let total_rows: usize = sample_refs.iter().map(|s| s.len()).sum();
        let mut flat = vec![0.0f32; total_rows * dim];
        let read = if total_rows > 0 {
            we.read_batch(&sample_refs, &mut flat)
        } else {
            Default::default()
        };

        // Margin-ranking gradients per triple; dL/dr is dL/dh.
        rel_grad.iter_mut().for_each(|g| *g = 0.0);
        let mut grads = vec![0.0f32; total_rows * dim];
        for (j, &(_h, r, _t, _n)) in triple_ids.iter().enumerate() {
            let base = j * 3 * dim;
            let (hv, rest) = flat[base..base + 3 * dim].split_at(dim);
            let (tv, nv) = rest.split_at(dim);
            let rows = r as usize * dim..(r as usize + 1) * dim;
            let g = &mut grads[base..base + 3 * dim];
            if margin_ranking_grad(hv, &rel[rows.clone()], tv, nv, cfg.margin, g) {
                for (rg, &gh) in rel_grad[rows].iter_mut().zip(&g[..dim]) {
                    *rg += gh;
                }
            }
        }

        let update = if total_rows > 0 {
            we.apply_gradients(&sample_refs, &grads, &cfg.entity_opt)
        } else {
            Default::default()
        };

        // Charge simulated time through the trainer's charge path: the
        // embedding rows (no metadata; this loop never charged it) behind
        // the compute, then the relations' collective.
        let compute_t = cost.compute.compute_time((6 * dim * bs) as f64 * 3.0);
        clock.advance(TimeCategory::Compute, compute_t);
        let read_x = Transfer::exchange(&read.data_bytes_by_src, &[], wire.row_bytes);
        let write_x = Transfer::exchange(&update.data_bytes_by_dst, &[], wire.row_bytes);
        let step = Phases::Step {
            read: &read_x,
            write: &write_x,
            overlap: Some(compute_t),
        };
        charge(&wire, w, clock, &mut links, step);
        let relations = Dense::Ring((rel_grad.len() * 4) as u64);
        charge(&wire, w, clock, &mut links, Phases::Dense(relations));
        embed_bytes.fetch_add(read.data_bytes + update.data_bytes, Ordering::Relaxed);
        triples_done.fetch_add(bs as u64, Ordering::Relaxed);

        // Relations: one collective carries the gradient mean and, as the
        // BSP barrier in simulated time, the post-charge clock; then the
        // local SGD step.
        let (max_clock, _) = group.fused_mean_max(&mut rel_grad, clock.now(), false);
        for (p, &g) in rel.iter_mut().zip(rel_grad.iter()) {
            *p -= cfg.relation_lr * g / cfg.batch_size.max(1) as f32;
        }
        clock.wait_until(max_clock);
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
            assert!(margin_ranking_grad(
                &v[0], &v[1], &v[2], &v[3], margin, &mut grad
            ));
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
        assert!(!margin_ranking_grad(
            &h,
            &r,
            &t,
            &[5.1, 0.3],
            1.0,
            &mut grad
        ));
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
