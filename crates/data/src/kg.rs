//! Synthetic knowledge-graph workload.
//!
//! The paper scopes its evaluation to CTR models but names knowledge-graph
//! embedding as a natural target: *"in knowledge graph embeddings, a data
//! sample only needs to access two embeddings for an edge"* (§2) and *"our
//! graph-based replication (vertex-cut) and consistency principles could be
//! naturally applied"* to KG training systems (§3). This module provides
//! the substrate for that extension: a synthetic KG with clustered entities
//! and *learnable relational structure* — each (cluster, relation) pair maps
//! to a target cluster, so a translation model (TransE) has real signal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use hetgmp_bigraph::Bigraph;

/// One triple's bigraph row, held inline (see [`KgDataset::entity_row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRow {
    ids: [u32; 2],
    len: u8,
}

impl AsRef<[u32]> for EntityRow {
    fn as_ref(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

/// Parameters of a synthetic knowledge graph.
#[derive(Debug, Clone)]
pub struct KgSpec {
    /// Number of entities (embedding rows).
    pub num_entities: usize,
    /// Number of relation types.
    pub num_relations: usize,
    /// Number of triples to generate.
    pub num_triples: usize,
    /// Latent entity clusters (locality structure).
    pub num_clusters: usize,
    /// Probability a head is drawn from its cluster slice (vs. globally).
    pub cluster_affinity: f64,
    /// Zipf exponent for entity popularity.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl KgSpec {
    /// A small default KG (FB15k-flavoured shape at toy scale).
    pub fn small() -> Self {
        Self {
            num_entities: 2000,
            num_relations: 20,
            num_triples: 20_000,
            num_clusters: 8,
            cluster_affinity: 0.85,
            zipf_exponent: 0.9,
            seed: 0x6B67,
        }
    }
}

/// A materialised triple store.
#[derive(Debug, Clone)]
pub struct KgDataset {
    /// Number of entities.
    pub num_entities: usize,
    /// Number of relation types.
    pub num_relations: usize,
    /// `(head, relation, tail)` triples.
    pub triples: Vec<(u32, u32, u32)>,
    /// Latent cluster of each entity (generator metadata).
    pub entity_cluster: Vec<u16>,
}

/// Generates a KG from a spec; deterministic in `spec.seed`.
pub fn generate_kg(spec: &KgSpec) -> KgDataset {
    assert!(spec.num_clusters > 0 && spec.num_entities >= spec.num_clusters);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let slice = spec.num_entities / spec.num_clusters;
    let cluster_of = |e: usize| (e / slice.max(1)).min(spec.num_clusters - 1) as u16;
    let entity_cluster: Vec<u16> = (0..spec.num_entities).map(cluster_of).collect();

    let global = Zipf::new(spec.num_entities, spec.zipf_exponent);
    let in_slice = Zipf::new(slice.max(1), spec.zipf_exponent);

    let mut triples = Vec::with_capacity(spec.num_triples);
    for _ in 0..spec.num_triples {
        let c = rng.gen_range(0..spec.num_clusters);
        let h = if rng.gen::<f64>() < spec.cluster_affinity {
            (c * slice + in_slice.sample(&mut rng)).min(spec.num_entities - 1)
        } else {
            global.sample(&mut rng)
        };
        let r = rng.gen_range(0..spec.num_relations);
        // Learnable structure: relation r points into a fixed target
        // cluster (independent of the head's cluster — a cyclic
        // head-dependent mapping would not be representable by a single
        // TransE translation vector).
        let target_cluster = (r + 1) % spec.num_clusters;
        let t = if rng.gen::<f64>() < spec.cluster_affinity {
            (target_cluster * slice + in_slice.sample(&mut rng)).min(spec.num_entities - 1)
        } else {
            global.sample(&mut rng)
        };
        triples.push((h as u32, r as u32, t as u32));
    }
    KgDataset {
        num_entities: spec.num_entities,
        num_relations: spec.num_relations,
        triples,
        entity_cluster,
    }
}

impl KgDataset {
    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Exports the access pattern as a [`Bigraph`]: one sample vertex per
    /// triple connecting its head and tail **entity** vertices — the
    /// "two embeddings per sample" shape the paper contrasts with CTR.
    pub fn to_bigraph(&self) -> Bigraph {
        let rows: Vec<EntityRow> = (0..self.len()).map(|i| self.entity_row(i)).collect();
        Bigraph::from_samples(self.num_entities, &rows)
    }

    /// The entity vertices triple `i` links in the bigraph: head then tail,
    /// or the head alone when the two coincide.
    pub fn entity_row(&self, i: usize) -> EntityRow {
        let (h, _, t) = self.triples[i];
        EntityRow {
            ids: [h, t],
            len: if h == t { 1 } else { 2 },
        }
    }

    /// Deterministic train/test split by stride.
    pub fn split(&self, test_fraction: f64) -> (Vec<u32>, Vec<u32>) {
        assert!(test_fraction > 0.0 && test_fraction < 1.0);
        let stride = (1.0 / test_fraction).round().max(2.0) as usize;
        let mut train = Vec::new();
        let mut test = Vec::new();
        for i in 0..self.triples.len() {
            if i % stride == stride - 1 {
                test.push(i as u32);
            } else {
                train.push(i as u32);
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_bigraph::DegreeStats;

    #[test]
    fn deterministic_and_shaped() {
        let spec = KgSpec::small();
        let a = generate_kg(&spec);
        let b = generate_kg(&spec);
        assert_eq!(a.triples, b.triples);
        assert_eq!(a.len(), spec.num_triples);
        for &(h, r, t) in &a.triples {
            assert!((h as usize) < spec.num_entities);
            assert!((t as usize) < spec.num_entities);
            assert!((r as usize) < spec.num_relations);
        }
    }

    #[test]
    fn bigraph_has_two_embeddings_per_sample() {
        let kg = generate_kg(&KgSpec::small());
        let g = kg.to_bigraph();
        assert_eq!(g.num_samples(), kg.len());
        for s in 0..200u32 {
            assert!(g.sample_degree(s) <= 2);
            assert!(g.sample_degree(s) >= 1);
        }
    }

    #[test]
    fn entity_popularity_is_skewed() {
        let kg = generate_kg(&KgSpec::small());
        let g = kg.to_bigraph();
        let stats = DegreeStats::embeddings(&g);
        assert!(stats.gini > 0.3, "gini {}", stats.gini);
    }

    #[test]
    fn relations_have_structure() {
        // For a fixed (head cluster, relation) the tail cluster concentrates
        // on one value — the planted translation signal.
        let kg = generate_kg(&KgSpec::small());
        let spec = KgSpec::small();
        let mut counts = vec![vec![0u32; spec.num_clusters]; spec.num_clusters];
        for &(h, r, t) in &kg.triples {
            if r == 3 {
                let hc = kg.entity_cluster[h as usize] as usize;
                let tc = kg.entity_cluster[t as usize] as usize;
                counts[hc][tc] += 1;
            }
        }
        for (hc, row) in counts.iter().enumerate() {
            let total: u32 = row.iter().sum();
            if total < 20 {
                continue;
            }
            let max = *row.iter().max().unwrap();
            assert!(
                max as f64 / total as f64 > 0.5,
                "cluster {hc}: tail distribution too flat"
            );
        }
    }

    #[test]
    fn split_partitions_triples() {
        let kg = generate_kg(&KgSpec::small());
        let (train, test) = kg.split(0.1);
        assert_eq!(train.len() + test.len(), kg.len());
        assert!(!test.is_empty());
    }
}
