//! BiCut — bipartite-oriented partitioning baseline (Chen, Shi, Chen & Zang,
//! *Bipartite-Oriented Distributed Graph Partitioning for Big Learning*,
//! JCST 2015), the strongest external comparator in the paper's Table 3.
//!
//! BiCut exploits the bipartite structure by distinguishing the two vertex
//! subsets: the *favourite* subset (here: samples, the computation-heavy
//! side) is split evenly in one pass, and each vertex of the other subset
//! (embeddings) is then assigned to the partition where it has the most
//! edges, cutting only the residual edges. This leverages the skewed degree
//! distribution but — unlike HET-GMP's Algorithm 1 — is one-pass, balance-
//! oblivious on the embedding side, and heterogeneity-unaware, which is
//! exactly the gap Table 3 measures.

use hetgmp_bigraph::Bigraph;

use crate::types::Partition;

/// Runs BiCut: round-robin samples, greedy max-edge embeddings.
pub fn bicut_partition(g: &Bigraph, num_partitions: usize) -> Partition {
    let n = num_partitions;
    // Favourite-subset split: contiguous chunks keep generator locality less
    // than hashing would, matching BiCut's arbitrary even split; round-robin
    // is the standard choice.
    let sample_owner: Vec<u32> = (0..g.num_samples()).map(|s| (s % n) as u32).collect();

    // Each embedding goes where most of its accesses live.
    let mut emb_primary = vec![0u32; g.num_embeddings()];
    let mut counts = vec![0u32; n];
    let mut rr = 0u32; // round-robin fallback for never-accessed embeddings
    for x in 0..g.num_embeddings() as u32 {
        counts.iter_mut().for_each(|c| *c = 0);
        for &s in g.samples_of(x) {
            counts[sample_owner[s as usize] as usize] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
            .expect("at least one partition");
        if counts[best as usize] == 0 {
            emb_primary[x as usize] = rr % n as u32;
            rr += 1;
        } else {
            emb_primary[x as usize] = best;
        }
    }
    Partition::new(n, sample_owner, emb_primary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::random::random_partition;

    fn graph() -> Bigraph {
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|i| vec![(i % 40) as u32, (40 + (i * 3) % 40) as u32])
            .collect();
        Bigraph::from_samples(80, &rows)
    }

    #[test]
    fn samples_perfectly_balanced() {
        let g = graph();
        let p = bicut_partition(&g, 4);
        assert_eq!(p.samples_per_partition(), vec![50; 4]);
    }

    #[test]
    fn beats_random() {
        let g = graph();
        let bicut = PartitionMetrics::compute(&g, &bicut_partition(&g, 4));
        let random = PartitionMetrics::compute(&g, &random_partition(&g, 4, 1));
        assert!(
            bicut.remote_fetches < random.remote_fetches,
            "bicut {} vs random {}",
            bicut.remote_fetches,
            random.remote_fetches
        );
    }

    #[test]
    fn embeddings_follow_majority() {
        // Embedding 0 used only by samples on partition 1 (ids 1, 5, 9 with
        // round robin over 4).
        let g = Bigraph::from_samples(4, &[vec![1], vec![0], vec![1], vec![0]]);
        let p = bicut_partition(&g, 2);
        // Samples 0,2 → partition 0; samples 1,3 → partition 1.
        assert_eq!(p.primary_of(1), 0); // used by samples 0 and 2
        assert_eq!(p.primary_of(0), 1); // used by samples 1 and 3
    }

    #[test]
    fn unaccessed_embeddings_spread() {
        let g = Bigraph::from_samples(8, &[vec![0], vec![0]]);
        let p = bicut_partition(&g, 4);
        // 7 unaccessed embeddings spread round-robin, not all on worker 0.
        let counts = p.primaries_per_partition();
        assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
    }

    #[test]
    fn validates() {
        let g = graph();
        let p = bicut_partition(&g, 3);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.replication_factor(), 1.0);
    }
}
