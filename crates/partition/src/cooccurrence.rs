//! Balanced clustering of the embedding co-occurrence graph.
//!
//! The paper's Figure 3 clusters the co-occurrence graph with METIS and
//! shows the weight concentrating into dense diagonal blocks. METIS is not
//! available here; this module implements a **size-constrained weighted
//! label-propagation** clusterer that serves the same illustrative purpose:
//! seed `k` balanced clusters, then iteratively move each node to the
//! cluster holding the most co-occurrence weight with it, subject to a
//! capacity cap. On locality-structured data this recovers the planted
//! blocks; the experiment then reports the cluster weight matrix whose
//! diagonal density is what Figure 3 visualises.

use hetgmp_bigraph::CooccurrenceGraph;

/// Clusters the co-occurrence graph into `k` balanced clusters.
///
/// Returns one cluster id per node. Deterministic. `rounds` label-propagation
/// sweeps are performed (3–5 suffice in practice).
///
/// # Panics
/// Panics if `k == 0`.
pub fn cluster_cooccurrence(graph: &CooccurrenceGraph, k: usize, rounds: usize) -> Vec<u32> {
    assert!(k > 0, "k must be positive");
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    // Capacity cap: 25% slack over perfect balance.
    let cap = ((n as f64 / k as f64) * 1.25).ceil() as usize;

    // Seeding: process nodes hubs-first and attach each to the cluster its
    // already-assigned neighbours concentrate in (greedy agglomeration); a
    // node with no assigned neighbours seeds the currently-smallest cluster.
    // This avoids the symmetric local optima a strided seed gets stuck in.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(graph.weighted_degree(u)));
    let unassigned = u32::MAX;
    let mut assignment: Vec<u32> = vec![unassigned; n];
    let mut sizes = vec![0usize; k];
    {
        let mut weight_to = vec![0u64; k];
        for &u in &order {
            weight_to.iter_mut().for_each(|w| *w = 0);
            let (nbrs, ws) = graph.neighbors(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                let a = assignment[v as usize];
                if a != unassigned {
                    weight_to[a as usize] += w as u64;
                }
            }
            let mut best = usize::MAX;
            let mut best_w = 0u64;
            for (c, &w) in weight_to.iter().enumerate() {
                if w > best_w && sizes[c] < cap {
                    best = c;
                    best_w = w;
                }
            }
            if best == usize::MAX {
                // No assigned neighbours (or all full): seed smallest cluster.
                best = sizes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &s)| s)
                    .map(|(c, _)| c)
                    .expect("k > 0");
            }
            assignment[u as usize] = best as u32;
            sizes[best] += 1;
        }
    }

    let mut weight_to = vec![0u64; k];
    for _ in 0..rounds {
        let mut moved = 0usize;
        for u in 0..n as u32 {
            let (nbrs, ws) = graph.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            weight_to.iter_mut().for_each(|w| *w = 0);
            for (&v, &w) in nbrs.iter().zip(ws) {
                weight_to[assignment[v as usize] as usize] += w as u64;
            }
            let current = assignment[u as usize] as usize;
            let mut best = current;
            let mut best_w = weight_to[current];
            for (c, &w) in weight_to.iter().enumerate() {
                if c != current && w > best_w && sizes[c] < cap {
                    best = c;
                    best_w = w;
                }
            }
            if best != current {
                sizes[current] -= 1;
                sizes[best] += 1;
                assignment[u as usize] = best as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_bigraph::{Bigraph, CooccurrenceConfig};

    /// Builds a co-occurrence graph with `k` planted communities.
    fn planted(k: usize, per_block: usize) -> CooccurrenceGraph {
        let mut rows = Vec::new();
        for block in 0..k {
            let base = (block * per_block) as u32;
            for i in 0..60 {
                rows.push(vec![
                    base + (i % per_block) as u32,
                    base + ((i * 3 + 1) % per_block) as u32,
                    base + ((i * 7 + 2) % per_block) as u32,
                ]);
            }
        }
        let g = Bigraph::from_samples(k * per_block, &rows);
        CooccurrenceGraph::build(&g, &CooccurrenceConfig::default())
    }

    #[test]
    fn recovers_planted_blocks() {
        let co = planted(4, 10);
        let assignment = cluster_cooccurrence(&co, 4, 5);
        let density = co.diagonal_density(&assignment, 4);
        assert!(density > 0.8, "diagonal density {density}");
    }

    #[test]
    fn beats_strided_baseline() {
        let co = planted(3, 12);
        let clustered = cluster_cooccurrence(&co, 3, 5);
        let strided: Vec<u32> = (0..co.num_nodes()).map(|i| (i % 3) as u32).collect();
        assert!(co.diagonal_density(&clustered, 3) > co.diagonal_density(&strided, 3) + 0.3);
    }

    #[test]
    fn respects_capacity() {
        let co = planted(2, 16);
        let assignment = cluster_cooccurrence(&co, 2, 5);
        let mut sizes = [0usize; 2];
        for &a in &assignment {
            sizes[a as usize] += 1;
        }
        let cap = ((32.0f64 / 2.0) * 1.25).ceil() as usize;
        assert!(sizes.iter().all(|&s| s <= cap), "{sizes:?}");
    }

    #[test]
    fn empty_graph() {
        let g = Bigraph::from_samples::<Vec<u32>>(0, &[]);
        let co = CooccurrenceGraph::build(&g, &CooccurrenceConfig::default());
        assert!(cluster_cooccurrence(&co, 4, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let co = planted(2, 4);
        cluster_cooccurrence(&co, 0, 3);
    }

    #[test]
    fn deterministic() {
        let co = planted(3, 8);
        assert_eq!(
            cluster_cooccurrence(&co, 3, 4),
            cluster_cooccurrence(&co, 3, 4)
        );
    }
}
