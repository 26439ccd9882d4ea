//! Differential oracle for Algorithm 1: the branching 1D sweep and driver
//! that `onedee` and `hybrid` replaced, kept verbatim as a reference.
//!
//! The reference patches `count(x, i)` one read-modify-write at a time,
//! tests `p ≠ j` and `count > 0` before every weight it adds, scores with
//! one primary lookup per edge and candidate, takes every remote-fetch
//! count from a full [`PartitionMetrics`] pass and re-counts the edges for
//! replication. The production code must reproduce it bit for bit: the
//! same moves, the same owners, primaries and replica masks, the same
//! per-partition communication totals.
//!
//! One deliberate difference from the code it was taken from: the weight
//! copy's diagonal is zeroed before the mean off-diagonal weight is taken.
//! The old sweep never read a diagonal entry but let it leak into that
//! mean; both now ignore it.

use hetgmp_bigraph::Bigraph;

use crate::hybrid::{HybridConfig, RoundStats};
use crate::metrics::PartitionMetrics;
use crate::onedee::OneDeeConfig;
use crate::types::Partition;

/// The incremental sweep state as it was: counts patched in place.
pub(crate) struct ReferenceState {
    n: usize,
    pub(crate) counts: Vec<u32>,
    pub(crate) comm: Vec<f64>,
    pub(crate) sample_cnt: Vec<usize>,
    pub(crate) emb_cnt: Vec<usize>,
    w: Vec<Vec<f64>>,
    w_mean: f64,
    cfg: OneDeeConfig,
}

impl ReferenceState {
    pub(crate) fn new(
        g: &Bigraph,
        part: &Partition,
        cfg: OneDeeConfig,
        weights: &[Vec<f64>],
    ) -> Self {
        let n = part.num_partitions();
        let mut w = weights.to_vec();
        for (i, row) in w.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        let w_mean = if n > 1 {
            let total: f64 = w.iter().flatten().sum();
            total / (n * (n - 1)) as f64
        } else {
            1.0
        };
        let mut state = Self {
            n,
            counts: vec![0u32; g.num_embeddings() * n],
            comm: vec![0.0; n],
            sample_cnt: vec![0; n],
            emb_cnt: vec![0; n],
            w,
            w_mean,
            cfg,
        };
        state.rebuild(g, part);
        state
    }

    fn rebuild(&mut self, g: &Bigraph, part: &Partition) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.comm.iter_mut().for_each(|c| *c = 0.0);
        self.sample_cnt.iter_mut().for_each(|c| *c = 0);
        self.emb_cnt.iter_mut().for_each(|c| *c = 0);
        for s in 0..g.num_samples() as u32 {
            let i = part.sample_owner(s) as usize;
            self.sample_cnt[i] += 1;
            for &x in g.embeddings_of(s) {
                self.counts[x as usize * self.n + i] += 1;
                let p = part.primary_of(x) as usize;
                if p != i {
                    self.comm[i] += self.w[i][p];
                }
            }
        }
        for x in 0..g.num_embeddings() as u32 {
            self.emb_cnt[part.primary_of(x) as usize] += 1;
        }
    }

    fn gap(value: f64, avg: f64) -> f64 {
        (value - avg) / avg.max(1.0)
    }

    pub(crate) fn sweep(&mut self, g: &Bigraph, part: &mut Partition) -> usize {
        self.sweep_samples(g, part) + self.sweep_embeddings(g, part)
    }

    fn sweep_samples(&mut self, g: &Bigraph, part: &mut Partition) -> usize {
        let n = self.n;
        let avg_samples = g.num_samples() as f64 / n as f64;
        let cap = (avg_samples * self.cfg.slack).ceil() as usize;

        let mut cost = vec![0.0; g.num_samples() * n];
        for s in 0..g.num_samples() as u32 {
            for j in 0..n {
                let mut c = 0.0;
                for &x in g.embeddings_of(s) {
                    let p = part.primary_of(x) as usize;
                    if p != j {
                        c += self.w[j][p];
                    }
                }
                cost[s as usize * n + j] = c;
            }
        }

        let mut moved = 0usize;
        for s in 0..g.num_samples() as u32 {
            let embs = g.embeddings_of(s);
            let old = part.sample_owner(s) as usize;

            self.sample_cnt[old] -= 1;
            for &x in embs {
                self.counts[x as usize * n + old] -= 1;
                let p = part.primary_of(x) as usize;
                if p != old {
                    self.comm[old] -= self.w[old][p];
                }
            }

            let avg_comm = self.comm.iter().sum::<f64>() / n as f64;
            let mut best = old;
            let mut stay_score = f64::INFINITY;
            let mut best_score = f64::INFINITY;
            for j in 0..n {
                if j != old && self.sample_cnt[j] + 1 > cap {
                    continue;
                }
                let comm_cost = cost[s as usize * n + j];
                let balance = self.cfg.alpha * Self::gap(self.sample_cnt[j] as f64, avg_samples)
                    + self.cfg.gamma * Self::gap(self.comm[j], avg_comm);
                let score = comm_cost + embs.len() as f64 * self.w_mean * balance;
                if j == old {
                    stay_score = score;
                }
                if score < best_score {
                    best_score = score;
                    best = j;
                }
            }
            if best != old && best_score >= stay_score - 1e-9 {
                best = old;
            }

            self.sample_cnt[best] += 1;
            for &x in embs {
                self.counts[x as usize * n + best] += 1;
                let p = part.primary_of(x) as usize;
                if p != best {
                    self.comm[best] += self.w[best][p];
                }
            }
            if best != old {
                part.move_sample(s, best as u32);
                moved += 1;
            }
        }
        moved
    }

    fn sweep_embeddings(&mut self, g: &Bigraph, part: &mut Partition) -> usize {
        let n = self.n;
        let avg_embs = g.num_embeddings() as f64 / n as f64;
        let cap = (avg_embs * self.cfg.slack).ceil() as usize;

        let mut cost = vec![0.0; g.num_embeddings() * n];
        for x in 0..g.num_embeddings() {
            let row = &self.counts[x * n..(x + 1) * n];
            for j in 0..n {
                let mut c = 0.0;
                for (k, &cnt) in row.iter().enumerate() {
                    if k != j && cnt > 0 {
                        c += cnt as f64 * self.w[k][j];
                    }
                }
                cost[x * n + j] = c;
            }
        }

        let mut moved = 0usize;
        for x in 0..g.num_embeddings() as u32 {
            let old = part.primary_of(x) as usize;
            let row = &self.counts[x as usize * n..(x as usize + 1) * n];

            self.emb_cnt[old] -= 1;
            for (k, &cnt) in row.iter().enumerate() {
                if k != old && cnt > 0 {
                    self.comm[k] -= cnt as f64 * self.w[k][old];
                }
            }

            let avg_comm = self.comm.iter().sum::<f64>() / n as f64;
            let mut best = old;
            let mut stay_score = f64::INFINITY;
            let mut best_score = f64::INFINITY;
            for j in 0..n {
                if j != old && self.emb_cnt[j] + 1 > cap {
                    continue;
                }
                let comm_cost = cost[x as usize * n + j];
                let balance = self.cfg.beta * Self::gap(self.emb_cnt[j] as f64, avg_embs)
                    + self.cfg.gamma * Self::gap(self.comm[j], avg_comm);
                let freq: u32 = row.iter().sum();
                let score = comm_cost + (freq as f64).max(1.0).sqrt() * self.w_mean * balance;
                if j == old {
                    stay_score = score;
                }
                if score < best_score {
                    best_score = score;
                    best = j;
                }
            }
            if best != old && best_score >= stay_score - 1e-9 {
                best = old;
            }

            self.emb_cnt[best] += 1;
            for (k, &cnt) in row.iter().enumerate() {
                if k != best && cnt > 0 {
                    self.comm[k] += cnt as f64 * self.w[k][best];
                }
            }
            if best != old {
                part.move_primary(x, best as u32);
                moved += 1;
            }
        }
        moved
    }
}

/// Replication as it was: the edges re-counted, every candidate sorted.
fn reference_replicate(g: &Bigraph, part: &mut Partition, slots: usize) -> usize {
    let n = part.num_partitions();
    if slots == 0 {
        return 0;
    }
    let mut counts = vec![0u32; g.num_embeddings() * n];
    for s in 0..g.num_samples() as u32 {
        let i = part.sample_owner(s) as usize;
        for &x in g.embeddings_of(s) {
            counts[x as usize * n + i] += 1;
        }
    }
    let winners: Vec<Vec<u32>> = (0..n as u32)
        .map(|i| {
            let mut candidates: Vec<(u32, u32)> = (0..g.num_embeddings() as u32)
                .filter(|&x| !part.is_local(x, i))
                .map(|x| (counts[x as usize * n + i as usize], x))
                .filter(|&(c, _)| c > 0)
                .collect();
            candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            candidates.iter().take(slots).map(|&(_, x)| x).collect()
        })
        .collect();
    let mut created = 0usize;
    for (i, list) in winners.iter().enumerate() {
        for &x in list {
            part.add_replica(x, i as u32);
            created += 1;
        }
    }
    created
}

/// `HybridPartitioner::partition_from` as it was: a metrics pass per round.
pub(crate) fn reference_partition(
    g: &Bigraph,
    initial: &Partition,
    cfg: &HybridConfig,
    weights: &[Vec<f64>],
) -> (Partition, Vec<RoundStats>) {
    let mut part = initial.clone();
    let mut state = ReferenceState::new(g, &part, cfg.onedee.clone(), weights);
    let mut rounds = Vec::new();
    for round in 1..=cfg.rounds {
        let moved = state.sweep(g, &mut part);
        let metrics = PartitionMetrics::compute(g, &part);
        rounds.push(RoundStats {
            round,
            moved,
            remote_fetches: metrics.remote_fetches,
            elapsed_secs: 0.0,
        });
    }
    if let Some(budget) = cfg.replication {
        reference_replicate(g, &mut part, budget.slots(g.num_embeddings()));
    }
    (part, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridPartitioner;
    use crate::onedee::OneDeeState;
    use crate::random::random_partition;
    use crate::vertexcut::ReplicationBudget;
    use hetgmp_cluster::topology::Placement;
    use hetgmp_cluster::{LinkClass, Topology};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random bigraph: some samples empty, a hot set of ids that many
    /// samples share, repeated ids inside a sample.
    fn random_graph(rng: &mut StdRng) -> Bigraph {
        let num_embeddings = rng.gen_range(1..60usize);
        let num_samples = rng.gen_range(0..120usize);
        let hot = rng.gen_range(1..=num_embeddings.min(6));
        let rows: Vec<Vec<u32>> = (0..num_samples)
            .map(|_| {
                let len = if rng.gen_range(0..8u32) == 0 {
                    0
                } else {
                    rng.gen_range(1..9usize)
                };
                (0..len)
                    .map(|_| {
                        if rng.gen_range(0..3u32) == 0 {
                            rng.gen_range(0..hot) as u32
                        } else {
                            rng.gen_range(0..num_embeddings) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        Bigraph::from_samples(num_embeddings, &rows)
    }

    /// Workers split across two machines on PCIe, 10 GbE between them.
    fn two_machines(n: usize) -> Topology {
        let placements = (0..n)
            .map(|w| Placement {
                machine: w * 2 / n,
                socket: 0,
            })
            .collect();
        Topology::new(
            format!("{n} GPUs on two machines"),
            placements,
            LinkClass::Pcie3,
            LinkClass::Pcie3,
            LinkClass::Ethernet10G,
        )
    }

    /// Off-diagonal weights that are not dyadic rationals, so a reordered
    /// sum rounds differently; a non-zero diagonal the sweep must ignore.
    fn non_dyadic(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        const VALUES: [f64; 6] = [1.0 / 3.0, 0.7, 1.1, 2.9, 1.0 / 7.0, 5.3];
        (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| VALUES[rng.gen_range(0..VALUES.len())])
                    .collect()
            })
            .collect()
    }

    fn weights(n: usize, choice: u32, rng: &mut StdRng) -> Vec<Vec<f64>> {
        match choice {
            0 => Topology::nvlink_island(n).weight_matrix(),
            1 => Topology::pcie_island(n).weight_matrix(),
            2 if n.is_multiple_of(2) => Topology::qpi_dual_socket(n).weight_matrix(),
            2 => Topology::cluster_b_scaled(n).weight_matrix(),
            3 => two_machines(n).weight_matrix(),
            _ => non_dyadic(n, rng),
        }
    }

    fn assert_same_partition(g: &Bigraph, a: &Partition, b: &Partition, what: &str) {
        let n = a.num_partitions() as u32;
        for s in 0..g.num_samples() as u32 {
            assert_eq!(a.sample_owner(s), b.sample_owner(s), "{what}: sample {s}");
        }
        for x in 0..g.num_embeddings() as u32 {
            assert_eq!(a.primary_of(x), b.primary_of(x), "{what}: primary of {x}");
            for k in 0..n {
                assert_eq!(
                    a.is_local(x, k),
                    b.is_local(x, k),
                    "{what}: replica of {x} on {k}"
                );
            }
        }
    }

    /// Sweep by sweep, the state matches the reference: the same moves,
    /// partition, counts, balance counters and communication totals to the
    /// bit.
    fn check_states(
        g: &Bigraph,
        initial: &Partition,
        cfg: &OneDeeConfig,
        w: &[Vec<f64>],
        rounds: usize,
    ) {
        let (mut part, mut ref_part) = (initial.clone(), initial.clone());
        let mut state = OneDeeState::new(g, &part, cfg.clone(), w);
        let mut oracle = ReferenceState::new(g, &ref_part, cfg.clone(), w);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for round in 0..=rounds {
            if round > 0 {
                let moved = state.sweep(g, &mut part);
                assert_eq!(
                    moved,
                    oracle.sweep(g, &mut ref_part),
                    "round {round}: moves"
                );
            }
            assert_eq!(
                bits(state.comm_totals()),
                bits(&oracle.comm),
                "round {round}: comm"
            );
            assert_eq!(state.counts(), &oracle.counts[..], "round {round}: counts");
            assert_eq!(
                state.sample_counts(),
                &oracle.sample_cnt[..],
                "round {round}"
            );
            assert_eq!(state.primary_counts(), &oracle.emb_cnt[..], "round {round}");
            assert_same_partition(g, &part, &ref_part, &format!("round {round}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn hybrid_matches_the_reference_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in prop_oneof![Just(2usize), Just(3usize), Just(4usize), Just(8usize)],
            weight_choice in 0u32..5,
            threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
            rounds in 1usize..=5,
            replicate in 0u32..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng);
            let w = weights(n, weight_choice, &mut rng);
            let onedee = OneDeeConfig {
                slack: [1.05, 1.3][rng.gen_range(0..2usize)],
                score_threads: threads,
                ..OneDeeConfig::default()
            };
            let replication = match replicate {
                0 => None,
                1 => Some(ReplicationBudget::PerPartitionSlots(rng.gen_range(1..6usize))),
                _ => Some(ReplicationBudget::FractionOfEmbeddings(0.1)),
            };
            let cfg = HybridConfig { rounds, onedee, replication, seed, ..HybridConfig::default() };
            let initial = random_partition(&g, n, seed);
            check_states(&g, &initial, &cfg.onedee, &w, rounds);

            let (part, stats) =
                HybridPartitioner::new(cfg.clone()).partition_weighted(&g, initial.clone(), &w);
            let (ref_part, ref_stats) = reference_partition(&g, &initial, &cfg, &w);
            assert_same_partition(&g, &part, &ref_part, "final");
            prop_assert_eq!(stats.len(), ref_stats.len());
            for (a, b) in stats.iter().zip(&ref_stats) {
                prop_assert_eq!((a.round, a.moved, a.remote_fetches), (b.round, b.moved, b.remote_fetches));
            }
        }
    }

    /// The canonical shape at a size where every phase splits across
    /// threads: a generated CTR-like graph, 4 partitions, five rounds.
    #[test]
    fn generated_graph_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let rows: Vec<Vec<u32>> = (0..3000)
            .map(|i| {
                let cluster = (i % 7) as u32 * 40;
                (0..12u32)
                    .map(|f| {
                        if rng.gen_range(0..10u32) < 8 {
                            cluster + f * 3 + rng.gen_range(0..3u32)
                        } else {
                            rng.gen_range(0..400u32)
                        }
                    })
                    .collect()
            })
            .collect();
        let g = Bigraph::from_samples(400, &rows);
        for (w, threads) in [
            (Topology::nvlink_island(4).weight_matrix(), 2),
            (Topology::qpi_dual_socket(4).weight_matrix(), 4),
            (non_dyadic(4, &mut rng), 3),
        ] {
            let cfg = HybridConfig {
                rounds: 5,
                onedee: OneDeeConfig {
                    score_threads: threads,
                    ..OneDeeConfig::default()
                },
                ..HybridConfig::default()
            };
            let initial = random_partition(&g, 4, 7);
            check_states(&g, &initial, &cfg.onedee, &w, 5);
            let (part, stats) =
                HybridPartitioner::new(cfg.clone()).partition_weighted(&g, initial.clone(), &w);
            let (ref_part, ref_stats) = reference_partition(&g, &initial, &cfg, &w);
            assert_same_partition(&g, &part, &ref_part, "final");
            for (a, b) in stats.iter().zip(&ref_stats) {
                assert_eq!((a.moved, a.remote_fetches), (b.moved, b.remote_fetches));
            }
        }
    }
}
