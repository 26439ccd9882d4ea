//! Embedding co-occurrence graph (paper §4, Figure 3).
//!
//! The paper transforms the data↔embedding bigraph into an *embedding
//! co-occurrence graph*: embeddings are nodes, and two embeddings are
//! connected when they appear in the same data sample; the edge weight is the
//! number of co-occurrences. Clustering this graph (the paper uses METIS)
//! reveals the dense diagonal block structure that motivates locality-aware
//! partitioning.
//!
//! Materialising all pairs is quadratic in the per-sample field count and in
//! the hottest embeddings' degrees, so [`CooccurrenceConfig`] lets callers cap
//! the number of pairs contributed per sample and drop ultra-hot embeddings
//! (which co-occur with everything and carry no locality signal — the same
//! pruning trick used by association-rule miners).

use std::collections::HashMap;

use crate::bigraph::Bigraph;
use crate::EmbId;

/// Controls co-occurrence graph construction cost.
#[derive(Debug, Clone)]
pub struct CooccurrenceConfig {
    /// Samples with more accessed embeddings than this contribute only their
    /// first `max_fields_per_sample` (CTR samples have a fixed small field
    /// count, so this is rarely binding).
    pub max_fields_per_sample: usize,
    /// Embeddings whose access frequency exceeds this fraction of the number
    /// of samples are excluded (they co-occur with nearly everything).
    pub hot_exclude_fraction: f64,
    /// Minimum co-occurrence count for an edge to be kept.
    pub min_edge_weight: u32,
}

impl Default for CooccurrenceConfig {
    fn default() -> Self {
        Self {
            max_fields_per_sample: 64,
            hot_exclude_fraction: 0.5,
            min_edge_weight: 1,
        }
    }
}

/// Weighted undirected embedding co-occurrence graph.
///
/// Stored as symmetric weighted adjacency in CSR-like form; every undirected
/// edge `{u, v}` appears in both `u`'s and `v`'s neighbour lists.
#[derive(Debug, Clone)]
pub struct CooccurrenceGraph {
    num_nodes: usize,
    offsets: Vec<usize>,
    neighbors: Vec<EmbId>,
    weights: Vec<u32>,
}

impl CooccurrenceGraph {
    /// Builds the co-occurrence graph from a bigraph.
    pub fn build(bigraph: &Bigraph, config: &CooccurrenceConfig) -> Self {
        let n = bigraph.num_embeddings();
        let hot_cutoff =
            (config.hot_exclude_fraction * bigraph.num_samples() as f64).ceil() as usize;
        // Accumulate pair counts in a hash map keyed by (min, max).
        let mut counts: HashMap<(EmbId, EmbId), u32> = HashMap::new();
        for s in 0..bigraph.num_samples() as u32 {
            let embs = bigraph.embeddings_of(s);
            let embs = &embs[..embs.len().min(config.max_fields_per_sample)];
            for (i, &a) in embs.iter().enumerate() {
                if bigraph.emb_frequency(a) > hot_cutoff {
                    continue;
                }
                for &b in &embs[i + 1..] {
                    if a == b || bigraph.emb_frequency(b) > hot_cutoff {
                        continue;
                    }
                    let key = if a < b { (a, b) } else { (b, a) };
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        // Materialise symmetric CSR.
        let mut degree = vec![0usize; n];
        for (&(a, b), &w) in &counts {
            if w >= config.min_edge_weight {
                degree[a as usize] += 1;
                degree[b as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; acc];
        let mut weights = vec![0u32; acc];
        for (&(a, b), &w) in &counts {
            if w < config.min_edge_weight {
                continue;
            }
            let sa = cursor[a as usize];
            neighbors[sa] = b;
            weights[sa] = w;
            cursor[a as usize] += 1;
            let sb = cursor[b as usize];
            neighbors[sb] = a;
            weights[sb] = w;
            cursor[b as usize] += 1;
        }
        Self {
            num_nodes: n,
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of embedding nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Weighted neighbours of `node` as parallel `(ids, weights)` slices.
    #[inline]
    pub fn neighbors(&self, node: EmbId) -> (&[EmbId], &[u32]) {
        let r = node as usize;
        let range = self.offsets[r]..self.offsets[r + 1];
        (&self.neighbors[range.clone()], &self.weights[range])
    }

    /// Weighted degree (sum of incident edge weights) of `node`.
    pub fn weighted_degree(&self, node: EmbId) -> u64 {
        let (_, w) = self.neighbors(node);
        w.iter().map(|&x| x as u64).sum()
    }

    /// Total weight over all undirected edges.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&x| x as u64).sum::<u64>() / 2
    }

    /// Given a node→cluster assignment, returns the `k×k` matrix of total
    /// co-occurrence weight between clusters. The diagonal dominance of this
    /// matrix is exactly what the paper's Figure 3 visualises.
    ///
    /// # Panics
    /// Panics if `assignment.len() != num_nodes` or a cluster id `>= k`.
    pub fn cluster_weight_matrix(&self, assignment: &[u32], k: usize) -> Vec<Vec<u64>> {
        assert_eq!(assignment.len(), self.num_nodes);
        let mut m = vec![vec![0u64; k]; k];
        for u in 0..self.num_nodes as u32 {
            let cu = assignment[u as usize] as usize;
            assert!(cu < k, "cluster id {cu} out of range (k = {k})");
            let (nbrs, ws) = self.neighbors(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                if v > u {
                    let cv = assignment[v as usize] as usize;
                    m[cu][cv] += w as u64;
                    if cu != cv {
                        m[cv][cu] += w as u64;
                    }
                }
            }
        }
        m
    }

    /// Fraction of total co-occurrence weight that falls inside clusters
    /// (diagonal of [`Self::cluster_weight_matrix`]); 1.0 = perfect locality.
    pub fn diagonal_density(&self, assignment: &[u32], k: usize) -> f64 {
        let m = self.cluster_weight_matrix(assignment, k);
        let diag: u64 = (0..k).map(|i| m[i][i]).sum();
        let total: u64 = m.iter().flatten().sum::<u64>() - diag;
        // total here counts off-diagonal twice (symmetric); normalise properly:
        let off = total / 2;
        let denom = diag + off;
        if denom == 0 {
            return 1.0;
        }
        diag as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two "communities": samples 0,1 use embeddings {0,1,2}; samples 2,3 use
    /// {3,4,5}; sample 4 bridges with {2,3}.
    fn clustered() -> Bigraph {
        Bigraph::from_samples(
            6,
            &[
                vec![0, 1, 2],
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![3, 4, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn builds_expected_edges() {
        let g = CooccurrenceGraph::build(&clustered(), &CooccurrenceConfig::default());
        assert_eq!(g.num_nodes(), 6);
        // Within community 1: (0,1),(0,2),(1,2) each weight 2; same for
        // community 2; plus the bridge (2,3) weight 1. Total 7 edges.
        assert_eq!(g.num_edges(), 7);
        let (nbrs, ws) = g.neighbors(0);
        let mut pairs: Vec<_> = nbrs.iter().zip(ws).map(|(&n, &w)| (n, w)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn weighted_degree_and_total() {
        let g = CooccurrenceGraph::build(&clustered(), &CooccurrenceConfig::default());
        assert_eq!(g.weighted_degree(2), 2 + 2 + 1); // to 0, 1, bridge to 3
        assert_eq!(g.total_weight(), 2 * 6 + 1);
    }

    #[test]
    fn cluster_matrix_diagonal_dominant() {
        let g = CooccurrenceGraph::build(&clustered(), &CooccurrenceConfig::default());
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let m = g.cluster_weight_matrix(&assignment, 2);
        assert_eq!(m[0][0], 6); // 3 intra edges × weight 2
        assert_eq!(m[1][1], 6);
        assert_eq!(m[0][1], 1); // the bridge
        assert_eq!(m[1][0], 1);
        let density = g.diagonal_density(&assignment, 2);
        assert!(density > 0.9, "density = {density}");
    }

    #[test]
    fn bad_assignment_density_lower() {
        let g = CooccurrenceGraph::build(&clustered(), &CooccurrenceConfig::default());
        let good = g.diagonal_density(&[0, 0, 0, 1, 1, 1], 2);
        let bad = g.diagonal_density(&[0, 1, 0, 1, 0, 1], 2);
        assert!(good > bad);
    }

    #[test]
    fn min_edge_weight_prunes() {
        let cfg = CooccurrenceConfig {
            min_edge_weight: 2,
            ..Default::default()
        };
        let g = CooccurrenceGraph::build(&clustered(), &cfg);
        assert_eq!(g.num_edges(), 6); // bridge (weight 1) pruned
    }

    #[test]
    fn hot_exclusion_drops_universal_embeddings() {
        // Embedding 0 appears in all 4 samples — with a 0.5 fraction cutoff it
        // is excluded from pair counting.
        let g = Bigraph::from_samples(3, &[vec![0, 1], vec![0, 1], vec![0, 2], vec![0, 2]]);
        let cfg = CooccurrenceConfig {
            hot_exclude_fraction: 0.5,
            ..Default::default()
        };
        let co = CooccurrenceGraph::build(&g, &cfg);
        assert_eq!(co.num_edges(), 0); // all pairs involved embedding 0
    }

    #[test]
    fn empty_graph_density_is_one() {
        let g = Bigraph::from_samples(3, &[vec![0], vec![1], vec![2]]);
        let co = CooccurrenceGraph::build(&g, &CooccurrenceConfig::default());
        assert_eq!(co.num_edges(), 0);
        assert_eq!(co.diagonal_density(&[0, 0, 1], 2), 1.0);
    }
}
