//! Cross-crate property tests: partition/table/protocol invariants under
//! randomly generated workloads.

use het_gmp::bigraph::Bigraph;
use het_gmp::cluster::Topology;
use het_gmp::embedding::{ShardedTable, SparseOpt, StalenessBound, WorkerEmbedding};
use het_gmp::partition::{
    bicut_partition, random_partition, HybridConfig, HybridPartitioner, PartitionMetrics,
    ReplicationBudget,
};
use proptest::prelude::*;

/// Strategy: a random small bigraph as per-sample field lists.
fn bigraph_strategy() -> impl Strategy<Value = Bigraph> {
    (2usize..40, 4u32..60).prop_flat_map(|(samples, vocab)| {
        prop::collection::vec(
            prop::collection::vec(0..vocab, 1..6),
            samples..=samples,
        )
        .prop_map(move |rows| Bigraph::from_samples(vocab as usize, &rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hybrid_partition_invariants(g in bigraph_strategy(), n in 2usize..6) {
        let (part, _) = HybridPartitioner::new(HybridConfig {
            replication: Some(ReplicationBudget::FractionOfEmbeddings(0.1)),
            ..Default::default()
        })
        .partition_rounds(&g, &Topology::nvlink_island(n));
        prop_assert!(part.validate(&g).is_ok());
        prop_assert_eq!(part.num_partitions(), n);
        // Every embedding has exactly one primary and >= 1 replica.
        for e in 0..g.num_embeddings() as u32 {
            prop_assert!(part.replica_count(e) >= 1);
            prop_assert!((part.primary_of(e) as usize) < n);
        }
        // Replication budget respected: secondaries per partition at most
        // floor(0.1 * embeddings).
        let budget = (g.num_embeddings() as f64 * 0.1).floor() as usize;
        let primaries = part.primaries_per_partition();
        let replicas = part.replicas_per_partition();
        for k in 0..n {
            prop_assert!(replicas[k] - primaries[k] <= budget,
                "partition {k}: {} secondaries > budget {budget}",
                replicas[k] - primaries[k]);
        }
    }

    #[test]
    fn hybrid_never_worse_than_its_random_init(g in bigraph_strategy(), n in 2usize..6) {
        let seed = 0x9E7; // HybridConfig::default().seed
        let random = random_partition(&g, n, seed);
        let random_m = PartitionMetrics::compute(&g, &random);
        let (part, _) = HybridPartitioner::new(HybridConfig {
            replication: None,
            ..Default::default()
        })
        .partition_rounds(&g, &Topology::nvlink_island(n));
        let ours = PartitionMetrics::compute(&g, &part);
        prop_assert!(ours.remote_fetches <= random_m.remote_fetches,
            "hybrid {} worse than random {}", ours.remote_fetches, random_m.remote_fetches);
    }

    #[test]
    fn bicut_balances_samples(g in bigraph_strategy(), n in 2usize..6) {
        let part = bicut_partition(&g, n);
        prop_assert!(part.validate(&g).is_ok());
        let counts = part.samples_per_partition();
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "round-robin must be exactly even: {counts:?}");
    }

    #[test]
    fn s_zero_read_equals_primary(g in bigraph_strategy(), updates in 0u32..20) {
        // Build a 2-partition layout with full replication, apply foreign
        // updates, and check s=0 reads always equal the primary.
        let n = 2;
        let mut part = random_partition(&g, n, 11);
        for e in 0..g.num_embeddings() as u32 {
            part.add_replica(e, 0);
            part.add_replica(e, 1);
        }
        let dim = 2;
        let table = ShardedTable::new(g.num_embeddings(), dim, 0.0, 5);
        let freq: Vec<u64> = (0..g.num_embeddings() as u32)
            .map(|e| g.emb_frequency(e) as u64)
            .collect();
        let opt = SparseOpt::sgd(0.5);
        for u in 0..updates {
            table.apply_grad(u % g.num_embeddings() as u32, &[1.0, -1.0], &opt);
        }
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        let ids: Vec<u32> = (0..g.num_embeddings() as u32).collect();
        let samples: Vec<&[u32]> = vec![&ids];
        let mut out = vec![0.0f32; ids.len() * dim];
        w0.read_batch(&samples, &mut out);
        let mut row = vec![0.0f32; dim];
        for (i, &e) in ids.iter().enumerate() {
            table.read_row(e, &mut row);
            prop_assert_eq!(&out[i * dim..(i + 1) * dim], &row[..]);
        }
    }

    #[test]
    fn traffic_monotone_in_staleness(g in bigraph_strategy()) {
        // Reading the same workload with a looser bound never produces more
        // sync traffic.
        let n = 2;
        let mut part = random_partition(&g, n, 3);
        for e in 0..g.num_embeddings() as u32 {
            part.add_replica(e, 0);
        }
        let dim = 2;
        let freq: Vec<u64> = (0..g.num_embeddings() as u32)
            .map(|e| g.emb_frequency(e) as u64)
            .collect();
        let opt = SparseOpt::sgd(0.1);
        let mut bytes = Vec::new();
        for s in [0u64, 4, 1 << 40] {
            let table = ShardedTable::new(g.num_embeddings(), dim, 0.0, 5);
            for e in 0..g.num_embeddings() as u32 {
                table.apply_grad(e, &[1.0, 0.0], &opt);
                table.apply_grad(e, &[1.0, 0.0], &opt);
            }
            let mut w0 =
                WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(s));
            // Warm-load happens at construction (fresh), so force staleness:
            for e in 0..g.num_embeddings() as u32 {
                table.apply_grad(e, &[1.0, 0.0], &opt);
            }
            let mut total = 0u64;
            for sample in 0..g.num_samples() as u32 {
                let fields = g.embeddings_of(sample);
                if fields.is_empty() {
                    continue;
                }
                let samples: Vec<&[u32]> = vec![fields];
                let mut out = vec![0.0f32; fields.len() * dim];
                let r = w0.read_batch(&samples, &mut out);
                total += r.data_bytes;
            }
            bytes.push(total);
        }
        prop_assert!(bytes[0] >= bytes[1], "s=0 {} < s=4 {}", bytes[0], bytes[1]);
        prop_assert!(bytes[1] >= bytes[2], "s=4 {} < s=inf {}", bytes[1], bytes[2]);
    }
}
