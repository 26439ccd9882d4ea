//! The full hybrid iterative partitioner — Algorithm 1 of the paper.
//!
//! `random init → T × (1D edge-cut sweep) → 2D vertex-cut replication`,
//! recording per-round statistics so the Table 3 rows ("Ours, 1/3/5
//! rounds") fall straight out.

use std::sync::Arc;
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::Topology;
use hetgmp_telemetry::{names, Json, Recorder, TraceCollector};

use crate::onedee::{OneDeeConfig, OneDeeState};
use crate::random::random_partition;
use crate::types::Partition;
use crate::vertexcut::{replicate_from_counts, ReplicationBudget};

/// Configuration of Algorithm 1.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Number of 1D sweeps (`T` in Algorithm 1). The paper evaluates 1/3/5.
    pub rounds: usize,
    /// 1D score hyper-parameters.
    pub onedee: OneDeeConfig,
    /// Whether the 1D sweeps weigh a cut edge by its link: `true` (the
    /// paper's hierarchical partitioning) uses the topology's profiled
    /// weight matrix, `false` (Figure 9's non-hierarchical baseline) costs
    /// every remote access 1. The two agree on a homogeneous topology.
    pub hierarchical: bool,
    /// 2D replication budget; `None` disables vertex-cut (pure 1D — used for
    /// the Figure 9 comparison, which replicates nothing).
    pub replication: Option<ReplicationBudget>,
    /// Seed for the random initial partition.
    pub seed: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            onedee: OneDeeConfig::default(),
            hierarchical: true,
            // Paper §7: "we select top 1% embeddings as secondaries".
            replication: Some(ReplicationBudget::FractionOfEmbeddings(0.01)),
            seed: 0x9E7,
        }
    }
}

/// Statistics captured after each 1D round.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (1-based).
    pub round: usize,
    /// Vertices moved in this sweep.
    pub moved: usize,
    /// Remote fetches per epoch after this round (no replication yet).
    pub remote_fetches: u64,
    /// Cumulative partitioning time (seconds) up to the end of this round —
    /// Table 3's "Time (s)" column.
    pub elapsed_secs: f64,
}

/// Driver object for Algorithm 1.
pub struct HybridPartitioner {
    config: HybridConfig,
    recorder: Option<Arc<dyn Recorder>>,
    tracer: Option<Arc<TraceCollector>>,
}

impl HybridPartitioner {
    /// Creates a partitioner with the given config.
    pub fn new(config: HybridConfig) -> Self {
        Self {
            config,
            recorder: None,
            tracer: None,
        }
    }

    /// Attaches a telemetry recorder: every run then emits `partition.*`
    /// metrics (per-round score/improvement, moves, replication budget and
    /// replicas created, wall time).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a trace collector: every 1D round becomes a
    /// `trace.partition.round` span on the driver track (partitioning runs
    /// before simulated time starts, so spans use wall-clock durations).
    pub fn with_tracer(mut self, tracer: Arc<TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs Algorithm 1 on `g` across the workers of `topo`.
    /// Returns the final partition and the per-round statistics.
    pub fn partition_rounds(&self, g: &Bigraph, topo: &Topology) -> (Partition, Vec<RoundStats>) {
        let initial = random_partition(g, topo.num_workers(), self.config.seed);
        self.partition_from(g, initial, topo)
    }

    /// Runs Algorithm 1 warm-started from an existing assignment — the
    /// *re-partitioning* path: as the access pattern drifts (new data, new
    /// hot items), refine the old placement instead of recomputing from
    /// scratch, so only genuinely-misplaced vertices migrate. (Dynamic
    /// parameter re-allocation is the related-work line the paper contrasts
    /// with in §3; warm-started Algorithm 1 is its natural analogue here.)
    ///
    /// Secondaries in `initial` are discarded (replication is re-planned for
    /// the new access pattern).
    pub fn partition_from(
        &self,
        g: &Bigraph,
        initial: Partition,
        topo: &Topology,
    ) -> (Partition, Vec<RoundStats>) {
        self.partition_weighted(g, initial, &self.weight_matrix(topo))
    }

    /// The 1D sweeps' weight matrix on `topo` (see
    /// [`HybridConfig::hierarchical`]).
    fn weight_matrix(&self, topo: &Topology) -> Vec<Vec<f64>> {
        if self.config.hierarchical {
            return topo.weight_matrix();
        }
        let n = topo.num_workers();
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect()
    }

    /// [`Self::partition_from`] with the weight matrix given directly.
    pub(crate) fn partition_weighted(
        &self,
        g: &Bigraph,
        initial: Partition,
        weights: &[Vec<f64>],
    ) -> (Partition, Vec<RoundStats>) {
        let start = Instant::now();
        let mut part = Partition::new(
            initial.num_partitions(),
            (0..g.num_samples() as u32)
                .map(|s| initial.sample_owner(s))
                .collect(),
            (0..g.num_embeddings() as u32)
                .map(|e| initial.primary_of(e))
                .collect(),
        );
        let mut state = OneDeeState::new(g, &part, self.config.onedee.clone(), weights);
        let mut rounds = Vec::with_capacity(self.config.rounds);
        // Pre-sweep baseline so round 1's improvement is meaningful. Every
        // remote-fetch count comes from the state's access counts, O(|X|·N).
        let mut prev_fetches = state.remote_fetches(&part);
        let mut round_start_secs = start.elapsed().as_secs_f64();
        for round in 1..=self.config.rounds {
            let moved = state.sweep(g, &mut part);
            let remote_fetches = state.remote_fetches(&part);
            if let Some(t) = &self.tracer {
                let end_secs = start.elapsed().as_secs_f64();
                t.driver_span(
                    names::TRACE_PARTITION_ROUND,
                    round_start_secs,
                    end_secs - round_start_secs,
                    &[
                        ("round", Json::U64(round as u64)),
                        ("moved", Json::U64(moved as u64)),
                        ("remote_fetches", Json::U64(remote_fetches)),
                    ],
                );
                round_start_secs = end_secs;
            }
            if let Some(r) = &self.recorder {
                r.counter_add(names::PARTITION_ROUNDS, 1);
                r.counter_add(names::PARTITION_MOVES, moved as u64);
                r.histogram_observe(names::PARTITION_ROUND_SCORE, remote_fetches as f64);
                r.histogram_observe(
                    names::PARTITION_ROUND_IMPROVEMENT,
                    prev_fetches as f64 - remote_fetches as f64,
                );
            }
            prev_fetches = remote_fetches;
            rounds.push(RoundStats {
                round,
                moved,
                remote_fetches,
                elapsed_secs: start.elapsed().as_secs_f64(),
            });
        }
        if let Some(budget) = self.config.replication {
            // The state's counts are current for the final sample owners.
            let created = replicate_from_counts(
                state.counts(),
                &mut part,
                budget.slots(g.num_embeddings()),
                self.config.onedee.score_threads,
            );
            if let Some(r) = &self.recorder {
                r.gauge_set(
                    names::PARTITION_REPLICATION_BUDGET,
                    budget.slots(g.num_embeddings()) as f64,
                );
                r.counter_add(names::PARTITION_REPLICAS_CREATED, created as u64);
            }
        }
        if let Some(r) = &self.recorder {
            r.gauge_set(names::PARTITION_WALL_SECS, start.elapsed().as_secs_f64());
        }
        (part, rounds)
    }
}

/// Migration cost between two placements: how many embedding primaries
/// moved (each move ships one row + optimizer state over the interconnect).
pub fn migration_cost(before: &Partition, after: &Partition) -> usize {
    assert_eq!(
        before.num_embeddings(),
        after.num_embeddings(),
        "placements cover different tables"
    );
    (0..before.num_embeddings() as u32)
        .filter(|&e| before.primary_of(e) != after.primary_of(e))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;

    fn graph() -> Bigraph {
        // Locality-structured: 4 blocks of samples each reusing a block of
        // embeddings, plus one global hot embedding (id 0).
        let mut rows = Vec::new();
        for block in 0..4u32 {
            for i in 0..30u32 {
                let base = 1 + block * 12;
                rows.push(vec![0, base + i % 12, base + (i * 5) % 12]);
            }
        }
        Bigraph::from_samples(49, &rows)
    }

    #[test]
    fn improves_monotonically_across_reported_rounds() {
        let g = graph();
        let cfg = HybridConfig {
            rounds: 5,
            replication: None,
            ..Default::default()
        };
        let (_, rounds) =
            HybridPartitioner::new(cfg).partition_rounds(&g, &Topology::nvlink_island(4));
        assert_eq!(rounds.len(), 5);
        // Round stats are non-increasing in remote fetches (greedy sweeps
        // only accept improving moves in aggregate; allow tiny tolerance).
        assert!(
            rounds.last().unwrap().remote_fetches <= rounds[0].remote_fetches,
            "{:?}",
            rounds
        );
        // Elapsed times increase.
        for w in rounds.windows(2) {
            assert!(w[1].elapsed_secs >= w[0].elapsed_secs);
        }
    }

    #[test]
    fn replication_reduces_further() {
        let g = graph();
        let no_rep = HybridPartitioner::new(HybridConfig {
            rounds: 3,
            replication: None,
            ..Default::default()
        });
        let with_rep = HybridPartitioner::new(HybridConfig {
            rounds: 3,
            replication: Some(ReplicationBudget::PerPartitionSlots(2)),
            ..Default::default()
        });
        let (p0, _) = no_rep.partition_rounds(&g, &Topology::nvlink_island(4));
        let (p1, _) = with_rep.partition_rounds(&g, &Topology::nvlink_island(4));
        let m0 = PartitionMetrics::compute(&g, &p0);
        let m1 = PartitionMetrics::compute(&g, &p1);
        assert!(m1.remote_fetches <= m0.remote_fetches);
        assert!(m1.replication_factor > 1.0);
        // The hot embedding 0 (every sample reads it) must be replicated
        // widely.
        assert!(p1.replica_count(0) >= 3, "hot emb replicas: {}", p1.replica_count(0));
    }

    #[test]
    fn beats_random_substantially() {
        let g = graph();
        let (p, _) = HybridPartitioner::new(HybridConfig::default())
            .partition_rounds(&g, &Topology::nvlink_island(4));
        let ours = PartitionMetrics::compute(&g, &p);
        let rand = PartitionMetrics::compute(&g, &random_partition(&g, 4, 1));
        assert!(
            (ours.remote_fetches as f64) < 0.6 * rand.remote_fetches as f64,
            "ours {} vs random {}",
            ours.remote_fetches,
            rand.remote_fetches
        );
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let cfg = HybridConfig::default();
        let topo = Topology::nvlink_island(4);
        let (p1, _) = HybridPartitioner::new(cfg.clone()).partition_rounds(&g, &topo);
        let (p2, _) = HybridPartitioner::new(cfg).partition_rounds(&g, &topo);
        for s in 0..g.num_samples() as u32 {
            assert_eq!(p1.sample_owner(s), p2.sample_owner(s));
        }
        for e in 0..g.num_embeddings() as u32 {
            assert_eq!(p1.primary_of(e), p2.primary_of(e));
            assert_eq!(p1.replica_count(e), p2.replica_count(e));
        }
    }

    /// Parallel δg scoring and the parallel replication scan must be
    /// invisible: 1, 2, and 4 score threads produce the same assignment,
    /// the same primaries, and the same replica sets as each other (and as
    /// the auto default). Decisions stay sequential; only the frozen cost
    /// tables are filled concurrently.
    #[test]
    fn score_threads_do_not_change_the_partition() {
        let g = graph();
        let run = |threads: usize| {
            let cfg = HybridConfig {
                rounds: 4,
                replication: Some(ReplicationBudget::PerPartitionSlots(3)),
                onedee: crate::onedee::OneDeeConfig {
                    score_threads: threads,
                    ..Default::default()
                },
                ..Default::default()
            };
            HybridPartitioner::new(cfg).partition_rounds(&g, &Topology::nvlink_island(4))
        };
        let (base, base_rounds) = run(1);
        for threads in [0, 2, 4] {
            let (p, rounds) = run(threads);
            for (a, b) in base_rounds.iter().zip(&rounds) {
                assert_eq!(a.moved, b.moved, "{threads} threads, round {}", a.round);
                assert_eq!(
                    a.remote_fetches, b.remote_fetches,
                    "{threads} threads, round {}",
                    a.round
                );
            }
            for s in 0..g.num_samples() as u32 {
                assert_eq!(base.sample_owner(s), p.sample_owner(s), "{threads} threads, sample {s}");
            }
            for e in 0..g.num_embeddings() as u32 {
                assert_eq!(base.primary_of(e), p.primary_of(e), "{threads} threads, emb {e}");
                for i in 0..4u32 {
                    assert_eq!(
                        base.is_secondary(e, i),
                        p.is_secondary(e, i),
                        "{threads} threads, emb {e} on partition {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_start_reduces_migration() {
        let g = graph();
        let partitioner = HybridPartitioner::new(HybridConfig {
            replication: None,
            ..Default::default()
        });
        let (first, _) = partitioner.partition_rounds(&g, &Topology::nvlink_island(4));
        // Refining from the converged placement barely moves anything…
        let (refined, rounds) =
            partitioner.partition_from(&g, first.clone(), &Topology::nvlink_island(4));
        let warm_migration = migration_cost(&first, &refined);
        // …whereas a fresh run from a different random seed lands on a
        // placement far from the old one.
        let cold = HybridPartitioner::new(HybridConfig {
            replication: None,
            seed: 12345,
            ..Default::default()
        });
        let (fresh, _) = cold.partition_rounds(&g, &Topology::nvlink_island(4));
        let cold_migration = migration_cost(&first, &fresh);
        assert!(
            warm_migration < cold_migration,
            "warm {warm_migration} !< cold {cold_migration}"
        );
        // Quality does not regress.
        let before = PartitionMetrics::compute(&g, &first).remote_fetches;
        let after = rounds.last().unwrap().remote_fetches;
        assert!(after <= before);
    }

    #[test]
    fn migration_cost_counts_moved_primaries() {
        let g = graph();
        let a = random_partition(&g, 4, 1);
        let mut b = a.clone();
        assert_eq!(migration_cost(&a, &b), 0);
        b.move_primary(0, (a.primary_of(0) + 1) % 4);
        b.move_primary(5, (a.primary_of(5) + 1) % 4);
        assert_eq!(migration_cost(&a, &b), 2);
    }

    #[test]
    fn traced_rounds_land_on_the_driver_track() {
        use hetgmp_telemetry::{TraceLevel, TraceTrack};
        let g = graph();
        let tracer = Arc::new(TraceCollector::new(0, TraceLevel::Batch));
        let partitioner =
            HybridPartitioner::new(HybridConfig::default()).with_tracer(Arc::clone(&tracer));
        let (_, rounds) = partitioner.partition_rounds(&g, &Topology::nvlink_island(4));
        let events = tracer.events();
        let round_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::TRACE_PARTITION_ROUND)
            .collect();
        assert_eq!(round_spans.len(), rounds.len());
        for (i, span) in round_spans.iter().enumerate() {
            assert_eq!(span.track, TraceTrack::Driver);
            assert!(span.dur_us >= 0.0);
            if i > 0 {
                assert!(span.ts_us >= round_spans[i - 1].ts_us);
            }
        }
    }

    #[test]
    fn validates_output() {
        let g = graph();
        let (p, _) = HybridPartitioner::new(HybridConfig::default())
            .partition_rounds(&g, &Topology::nvlink_island(8));
        assert!(p.validate(&g).is_ok());
    }
}
