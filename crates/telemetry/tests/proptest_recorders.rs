//! Property tests for the recorder registry: a [`MetricsRegistry`] fed
//! concurrently from many worker threads must account for every counter
//! increment exactly once.

use hetgmp_telemetry::MetricsRegistry;
use proptest::prelude::*;

/// Strategy: per-worker lists of (metric index, increment) operations.
fn workloads() -> impl Strategy<Value = Vec<Vec<(usize, u64)>>> {
    prop::collection::vec(prop::collection::vec((0usize..4, 1u64..1000), 0..50), 1..6)
}

const METRICS: [&str; 4] = [
    "traffic.bytes.embed_data",
    "traffic.bytes.keys_clocks",
    "embedding.cache.hit",
    "partition.moves",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn registry_counts_every_concurrent_increment(ops in workloads()) {
        let registry = MetricsRegistry::new(ops.len());
        std::thread::scope(|scope| {
            for (w, worker_ops) in ops.iter().enumerate() {
                let rec = registry.worker(w);
                scope.spawn(move || {
                    for &(metric, amount) in worker_ops {
                        rec.counter_add(METRICS[metric], amount);
                    }
                });
            }
        });

        // Expected totals from plain arithmetic over the generated ops.
        let mut expected = [0u64; 4];
        for worker_ops in &ops {
            for &(metric, amount) in worker_ops {
                expected[metric] += amount;
            }
        }
        let snap = registry.snapshot();
        for (i, name) in METRICS.iter().enumerate() {
            prop_assert_eq!(snap.counter(name), expected[i], "metric {}", name);
        }
        // Per-worker snapshots partition the totals exactly.
        for (i, name) in METRICS.iter().enumerate() {
            let per_worker: u64 = (0..ops.len())
                .map(|w| registry.worker(w).counter(name))
                .sum();
            prop_assert_eq!(per_worker, expected[i], "per-worker sum of {}", name);
        }
    }
}
