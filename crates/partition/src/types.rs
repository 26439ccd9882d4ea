//! The [`Partition`] type: ownership + replication layout of a bigraph.

use hetgmp_bigraph::{Bigraph, EmbId, SampleId};

/// Maximum supported partition count (replica sets are stored as `u64`
/// bitmasks; the paper's largest cluster is 24 GPUs).
pub const MAX_PARTITIONS: usize = 64;

/// A complete data/model placement:
///
/// * every **sample vertex** is owned by exactly one partition (the worker
///   that trains on it);
/// * every **embedding vertex** has exactly one **primary** partition (the
///   authoritative copy, always up to date — paper §5.2/Figure 6);
/// * an embedding may additionally have **secondary** replicas on other
///   partitions (created by vertex-cut), tracked in a per-embedding bitmask.
#[derive(Debug, Clone)]
pub struct Partition {
    num_partitions: usize,
    sample_owner: Vec<u32>,
    emb_primary: Vec<u32>,
    /// Bit `k` set ⇒ a replica (primary or secondary) lives on partition `k`.
    replica_mask: Vec<u64>,
}

impl Partition {
    /// Creates a partition layout from explicit assignments, with no
    /// secondaries.
    ///
    /// # Panics
    /// Panics if `num_partitions` is 0 or exceeds [`MAX_PARTITIONS`], or if
    /// any assignment is out of range.
    pub fn new(num_partitions: usize, sample_owner: Vec<u32>, emb_primary: Vec<u32>) -> Self {
        assert!(
            (1..=MAX_PARTITIONS).contains(&num_partitions),
            "num_partitions {num_partitions} out of range"
        );
        assert!(
            sample_owner.iter().all(|&p| (p as usize) < num_partitions),
            "sample owner out of range"
        );
        assert!(
            emb_primary.iter().all(|&p| (p as usize) < num_partitions),
            "embedding primary out of range"
        );
        let replica_mask = emb_primary.iter().map(|&p| 1u64 << p).collect();
        Self {
            num_partitions,
            sample_owner,
            emb_primary,
            replica_mask,
        }
    }

    /// Number of partitions (workers).
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of sample vertices.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.sample_owner.len()
    }

    /// Number of embedding vertices.
    #[inline]
    pub fn num_embeddings(&self) -> usize {
        self.emb_primary.len()
    }

    /// The partition that owns sample `s`.
    #[inline]
    pub fn sample_owner(&self, s: SampleId) -> u32 {
        self.sample_owner[s as usize]
    }

    /// The primary partition of embedding `e`.
    #[inline]
    pub fn primary_of(&self, e: EmbId) -> u32 {
        self.emb_primary[e as usize]
    }

    /// True when embedding `e` has any replica (primary or secondary) on
    /// partition `k` — i.e. worker `k` can read it locally.
    #[inline]
    pub fn is_local(&self, e: EmbId, k: u32) -> bool {
        self.replica_mask[e as usize] & (1u64 << k) != 0
    }

    /// True when partition `k` holds a *secondary* replica of `e`.
    #[inline]
    pub fn is_secondary(&self, e: EmbId, k: u32) -> bool {
        self.is_local(e, k) && self.emb_primary[e as usize] != k
    }

    /// Adds a secondary replica of `e` on partition `k` (idempotent).
    pub fn add_replica(&mut self, e: EmbId, k: u32) {
        debug_assert!((k as usize) < self.num_partitions);
        self.replica_mask[e as usize] |= 1u64 << k;
    }

    /// Moves the primary of embedding `e` to partition `k`, updating masks.
    /// Any existing secondaries are preserved.
    pub fn move_primary(&mut self, e: EmbId, k: u32) {
        debug_assert!((k as usize) < self.num_partitions);
        let old = self.emb_primary[e as usize];
        self.replica_mask[e as usize] &= !(1u64 << old);
        self.replica_mask[e as usize] |= 1u64 << k;
        self.emb_primary[e as usize] = k;
    }

    /// Moves sample `s` to partition `k`.
    pub fn move_sample(&mut self, s: SampleId, k: u32) {
        debug_assert!((k as usize) < self.num_partitions);
        self.sample_owner[s as usize] = k;
    }

    /// Number of replicas of `e` (≥ 1).
    #[inline]
    pub fn replica_count(&self, e: EmbId) -> u32 {
        self.replica_mask[e as usize].count_ones()
    }

    /// Sample counts per partition.
    pub fn samples_per_partition(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for &p in &self.sample_owner {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Primary-embedding counts per partition.
    pub fn primaries_per_partition(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for &p in &self.emb_primary {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Total replica slots (primaries + secondaries) per partition — the
    /// GPU-memory footprint of each worker's local embedding table.
    pub fn replicas_per_partition(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_partitions];
        for &mask in &self.replica_mask {
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                counts[k] += 1;
                m &= m - 1;
            }
        }
        counts
    }

    /// Average replicas per embedding (1.0 = no vertex-cut).
    pub fn replication_factor(&self) -> f64 {
        if self.emb_primary.is_empty() {
            return 1.0;
        }
        let total: u64 = self
            .replica_mask
            .iter()
            .map(|m| m.count_ones() as u64)
            .sum();
        total as f64 / self.emb_primary.len() as f64
    }

    /// The sample ids owned by each partition (the worker's local shard of
    /// the training set).
    pub fn samples_by_partition(&self) -> Vec<Vec<SampleId>> {
        let mut out = vec![Vec::new(); self.num_partitions];
        for (s, &p) in self.sample_owner.iter().enumerate() {
            out[p as usize].push(s as SampleId);
        }
        out
    }

    /// Validates internal consistency against a bigraph's dimensions.
    pub fn validate(&self, g: &Bigraph) -> Result<(), String> {
        if self.sample_owner.len() != g.num_samples() {
            return Err(format!(
                "sample count mismatch: partition {} vs graph {}",
                self.sample_owner.len(),
                g.num_samples()
            ));
        }
        if self.emb_primary.len() != g.num_embeddings() {
            return Err(format!(
                "embedding count mismatch: partition {} vs graph {}",
                self.emb_primary.len(),
                g.num_embeddings()
            ));
        }
        for (e, (&p, &mask)) in self.emb_primary.iter().zip(&self.replica_mask).enumerate() {
            if mask & (1u64 << p) == 0 {
                return Err(format!("embedding {e}: primary {p} missing from mask"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Partition {
        Partition::new(3, vec![0, 1, 2, 0], vec![0, 1, 2, 2])
    }

    #[test]
    fn construction_and_queries() {
        let p = toy();
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.num_samples(), 4);
        assert_eq!(p.num_embeddings(), 4);
        assert_eq!(p.sample_owner(3), 0);
        assert_eq!(p.primary_of(3), 2);
        assert!(p.is_local(0, 0));
        assert!(!p.is_local(0, 1));
        assert!(!p.is_secondary(0, 0)); // primary is not a secondary
    }

    #[test]
    fn add_replica_and_queries() {
        let mut p = toy();
        p.add_replica(0, 2);
        assert!(p.is_local(0, 2));
        assert!(p.is_secondary(0, 2));
        assert_eq!(p.replica_count(0), 2);
        // idempotent
        p.add_replica(0, 2);
        assert_eq!(p.replica_count(0), 2);
    }

    #[test]
    fn move_primary_updates_mask() {
        let mut p = toy();
        p.add_replica(0, 1);
        p.move_primary(0, 1);
        assert_eq!(p.primary_of(0), 1);
        assert!(!p.is_local(0, 0));
        assert!(p.is_local(0, 1));
        assert!(!p.is_secondary(0, 1));
    }

    #[test]
    fn per_partition_counts() {
        let mut p = toy();
        assert_eq!(p.samples_per_partition(), vec![2, 1, 1]);
        assert_eq!(p.primaries_per_partition(), vec![1, 1, 2]);
        p.add_replica(0, 1);
        assert_eq!(p.replicas_per_partition(), vec![1, 2, 2]);
        assert!((p.replication_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn samples_by_partition_covers_all() {
        let p = toy();
        let by = p.samples_by_partition();
        assert_eq!(by[0], vec![0, 3]);
        assert_eq!(by[1], vec![1]);
        assert_eq!(by[2], vec![2]);
    }

    #[test]
    fn validate_against_graph() {
        let g = Bigraph::from_samples(4, &[vec![0], vec![1], vec![2], vec![3]]);
        assert!(toy().validate(&g).is_ok());
        let small = Bigraph::from_samples(4, &[vec![0]]);
        assert!(toy().validate(&small).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_owner() {
        Partition::new(2, vec![0, 5], vec![0]);
    }

    #[test]
    #[should_panic(expected = "num_partitions")]
    fn rejects_zero_partitions() {
        Partition::new(0, vec![], vec![]);
    }
}
