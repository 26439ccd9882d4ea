//! 2D vertex-cut replication — Step 2 of Algorithm 1 (paper §5.2, Eq. 6).
//!
//! After 1D partitioning, high-degree ("hot") embeddings still force remote
//! fetches from every partition that uses them. Vertex-cut replicates such
//! embeddings as **secondary** replicas on the partitions that access them
//! most, trading GPU memory for locality. The greedy priority for
//! replicating `x` onto partition `i` is Eq. 6:
//!
//! ```text
//! δp(x, G_i) = count(x, i) / Σ_{v ∉ G_i} count(v, i)
//! ```
//!
//! For a fixed partition the denominator is common to all candidates, so the
//! greedy order is simply descending `count(x, i)` — replicate the
//! embeddings this worker reads remotely most often until the memory budget
//! is exhausted. The paper's experiments budget "top 1% embeddings as
//! secondaries".

use hetgmp_bigraph::Bigraph;

use crate::types::Partition;

/// How much replica capacity each worker gets.
#[derive(Debug, Clone, Copy)]
pub enum ReplicationBudget {
    /// Each partition may hold secondaries for up to this fraction of the
    /// total embedding count (the paper uses 0.01).
    FractionOfEmbeddings(f64),
    /// Each partition may hold at most this many secondaries.
    PerPartitionSlots(usize),
}

impl ReplicationBudget {
    /// The per-partition secondary slot count this budget grants for a table
    /// of `num_embeddings` rows.
    pub fn slots(&self, num_embeddings: usize) -> usize {
        match *self {
            ReplicationBudget::FractionOfEmbeddings(f) => {
                assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
                (num_embeddings as f64 * f).floor() as usize
            }
            ReplicationBudget::PerPartitionSlots(s) => s,
        }
    }
}

/// Runs greedy vertex-cut replication, adding secondaries to `part` in
/// place. Returns the number of secondary replicas created. The access
/// counts are taken and the candidates scanned on one thread per available
/// core; the result is the same for every thread count.
pub fn replicate_hot_embeddings(
    g: &Bigraph,
    part: &mut Partition,
    budget: ReplicationBudget,
) -> usize {
    let slots = budget.slots(g.num_embeddings());
    if slots == 0 {
        return 0;
    }
    let mut counts = vec![0u32; g.num_embeddings() * part.num_partitions()];
    crate::onedee::rebuild_counts(&mut counts, g, part, crate::onedee::resolve_threads(0));
    replicate_from_counts(&counts, part, slots, 0)
}

/// Greedy replication from precomputed access counts, `counts[x * N + i]`
/// = accesses of embedding `x` by samples on partition `i` (the counts
/// Algorithm 1's 1D state already holds after its last sweep). Gives each
/// partition up to `slots` secondaries and returns how many were created.
///
/// Each partition's candidate scan — collect its remotely-accessed
/// embeddings, rank by `count(x, i)` descending with id tie-break — reads
/// only the frozen access counts and the pre-replication partition, so the
/// scans fan out across threads; the winning replica sets are then applied
/// sequentially in partition order. The result is identical for every
/// thread count.
pub(crate) fn replicate_from_counts(
    counts: &[u32],
    part: &mut Partition,
    slots: usize,
    threads: usize,
) -> usize {
    let n = part.num_partitions();
    let num_embeddings = part.num_embeddings();
    debug_assert_eq!(counts.len(), num_embeddings * n);
    if slots == 0 {
        return 0;
    }

    // Candidates for partition i: embeddings not local to i with a positive
    // access count, ranked by count(x, i) descending (ties by id, so the
    // order is total and the top `slots` are unique), truncated to the slot
    // budget.
    let scan = |i: u32| -> Vec<u32> {
        let mut candidates: Vec<(u32, u32)> = (0..num_embeddings as u32)
            .filter(|&x| !part.is_local(x, i))
            .map(|x| (counts[x as usize * n + i as usize], x))
            .filter(|&(c, _)| c > 0)
            .collect();
        let rank = |a: &(u32, u32), b: &(u32, u32)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        if candidates.len() > slots {
            candidates.select_nth_unstable_by(slots, rank);
            candidates.truncate(slots);
        }
        candidates.sort_unstable_by(rank);
        candidates.iter().map(|&(_, x)| x).collect()
    };
    let threads = crate::onedee::resolve_threads(threads).clamp(1, n);
    let mut winners: Vec<Vec<u32>> = vec![Vec::new(); n];
    let per = n.div_ceil(threads);
    crate::onedee::run_pieces(
        winners.chunks_mut(per).enumerate().collect(),
        |(t, chunk)| {
            for (k, w) in chunk.iter_mut().enumerate() {
                *w = scan((t * per + k) as u32);
            }
        },
    );

    let mut created = 0usize;
    for (i, list) in winners.iter().enumerate() {
        for &x in list {
            part.add_replica(x, i as u32);
            created += 1;
        }
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;

    /// Embedding 0 is globally hot (used by every sample); embeddings 1..5
    /// are cold and local.
    fn hot_graph() -> Bigraph {
        let rows: Vec<Vec<u32>> = (0..20).map(|i| vec![0u32, 1 + (i % 5) as u32]).collect();
        Bigraph::from_samples(6, &rows)
    }

    fn base_partition() -> Partition {
        // Samples split evenly; primaries: hot emb 0 on partition 0, others
        // spread.
        let sample_owner = (0..20).map(|i| (i % 2) as u32).collect();
        let emb_primary = vec![0, 0, 1, 0, 1, 0];
        Partition::new(2, sample_owner, emb_primary)
    }

    #[test]
    fn replicates_hottest_first() {
        let g = hot_graph();
        let mut p = base_partition();
        let before = PartitionMetrics::compute(&g, &p).remote_fetches;
        let created = replicate_hot_embeddings(&g, &mut p, ReplicationBudget::PerPartitionSlots(1));
        assert!(created >= 1);
        // Partition 1's single slot must go to embedding 0 (hottest remote).
        assert!(p.is_secondary(0, 1));
        let after = PartitionMetrics::compute(&g, &p).remote_fetches;
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn budget_zero_is_noop() {
        let g = hot_graph();
        let mut p = base_partition();
        let created =
            replicate_hot_embeddings(&g, &mut p, ReplicationBudget::FractionOfEmbeddings(0.0));
        assert_eq!(created, 0);
        assert_eq!(p.replication_factor(), 1.0);
    }

    #[test]
    fn fraction_budget_respected() {
        let g = hot_graph();
        let mut p = base_partition();
        // 6 embeddings × 0.34 → 2 slots per partition.
        replicate_hot_embeddings(&g, &mut p, ReplicationBudget::FractionOfEmbeddings(0.34));
        let replicas = p.replicas_per_partition();
        let primaries = p.primaries_per_partition();
        for k in 0..2 {
            assert!(
                replicas[k] - primaries[k] <= 2,
                "budget exceeded: {replicas:?}"
            );
        }
    }

    #[test]
    fn never_replicates_unaccessed() {
        // Embedding 5 exists but is never read remotely by partition 0.
        let g = Bigraph::from_samples(6, &[vec![0], vec![1]]);
        let mut p = Partition::new(2, vec![0, 1], vec![1, 0, 0, 0, 0, 0]);
        replicate_hot_embeddings(&g, &mut p, ReplicationBudget::PerPartitionSlots(10));
        // Only the actually-accessed remote embeddings got replicas.
        assert!(p.is_secondary(0, 0)); // sample 0 on part 0 reads emb 0 (primary on 1)
        assert!(p.is_secondary(1, 1));
        for e in 2..6 {
            assert_eq!(p.replica_count(e), 1, "emb {e} replicated needlessly");
        }
    }

    #[test]
    fn full_replication_eliminates_remote() {
        let g = hot_graph();
        let mut p = base_partition();
        replicate_hot_embeddings(&g, &mut p, ReplicationBudget::FractionOfEmbeddings(1.0));
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.remote_fetches, 0);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn bad_fraction_panics() {
        let g = hot_graph();
        let mut p = base_partition();
        replicate_hot_embeddings(&g, &mut p, ReplicationBudget::FractionOfEmbeddings(1.5));
    }
}
