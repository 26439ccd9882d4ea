//! Consistency-model integration tests: the bounded-asynchrony guarantees
//! of §5.3/§5.4, exercised across crates with real concurrency.

use std::sync::Arc;

use het_gmp::embedding::RowStore;
use het_gmp::embedding::{ShardedTable, SparseOpt, StalenessBound, WorkerEmbedding, WriteExchange};
use het_gmp::partition::Partition;

/// Builds a 2-worker layout where embedding 0 is primary on worker 1 with a
/// secondary on worker 0.
fn layout() -> Partition {
    let mut p = Partition::new(2, vec![0, 1], vec![1, 0, 0, 1]);
    p.add_replica(0, 0);
    p
}

#[test]
fn s_zero_reads_are_fully_synchronous() {
    // Under s = 0 every secondary read returns exactly the primary value,
    // no matter how many foreign updates happened.
    let table = ShardedTable::new(4, 4, 0.0, 1);
    let part = layout();
    let freq = vec![100, 1, 1, 1];
    let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
    let samples: Vec<&[u32]> = vec![&[0]];
    let mut out = vec![0.0f32; 4];
    let opt = SparseOpt::sgd(0.1);
    for step in 1..=20u32 {
        table.apply_grad(0, &[1.0, 0.0, 0.0, 0.0], &opt);
        w0.read_batch(&samples, &mut out);
        let mut primary = vec![0.0f32; 4];
        table.read_row(0, &mut primary);
        assert_eq!(out, primary, "diverged at step {step}");
    }
}

#[test]
fn bounded_staleness_error_is_bounded() {
    // With s = 5 and SGD, the secondary's value can lag the primary by at
    // most s foreign updates — the empirical core of Theorem 1's bounded-
    // delay assumption.
    let table = ShardedTable::new(4, 1, 0.0, 1);
    let part = layout();
    let freq = vec![100, 1, 1, 1];
    let s = 5u64;
    let lr = 0.1f32;
    let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(s));
    let samples: Vec<&[u32]> = vec![&[0]];
    let mut out = vec![0.0f32];
    let opt = SparseOpt::sgd(lr);
    for _ in 0..100 {
        table.apply_grad(0, &[1.0], &opt); // foreign update: −0.1 each
        w0.read_batch(&samples, &mut out);
        let mut primary = vec![0.0f32];
        table.read_row(0, &mut primary);
        let gap = (out[0] - primary[0]).abs();
        assert!(
            gap <= (s as f32 + 1.0) * lr + 1e-5,
            "staleness bound violated: gap {gap}"
        );
    }
}

#[test]
fn unbounded_staleness_drifts_arbitrarily() {
    let table = ShardedTable::new(4, 1, 0.0, 1);
    let part = layout();
    let freq = vec![100, 1, 1, 1];
    let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Infinite);
    let samples: Vec<&[u32]> = vec![&[0]];
    let mut out = vec![0.0f32];
    let opt = SparseOpt::sgd(0.1);
    for _ in 0..200 {
        table.apply_grad(0, &[1.0], &opt);
    }
    w0.read_batch(&samples, &mut out);
    let mut primary = vec![0.0f32];
    table.read_row(0, &mut primary);
    assert!(
        (out[0] - primary[0]).abs() > 10.0,
        "ASP replica unexpectedly fresh"
    );
}

#[test]
fn concurrent_workers_converge_to_consistent_table() {
    // 4 worker threads hammer a shared table through the protocol; at the
    // end, after flush + sync, every replica agrees with its primary.
    let rows = 64usize;
    let dim = 4usize;
    let table = Arc::new(ShardedTable::new(rows, dim, 0.0, 3));
    let mut part = Partition::new(
        4,
        (0..16).map(|i| i % 4).collect(),
        (0..rows as u32).map(|e| e % 4).collect(),
    );
    for e in 0..8u32 {
        for k in 0..4u32 {
            part.add_replica(e, k);
        }
    }
    let part = Arc::new(part);
    let freq: Arc<Vec<u64>> = Arc::new((0..rows).map(|i| (rows - i) as u64).collect());
    let opt = SparseOpt::sgd(0.01);
    let exchange = WriteExchange::new(4);

    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let exchange = &exchange;
            let table = Arc::clone(&table);
            let part = Arc::clone(&part);
            let freq = Arc::clone(&freq);
            scope.spawn(move || {
                let mut we =
                    WorkerEmbedding::new(w, &*table, &part, &freq, StalenessBound::Bounded(8));
                let ids: Vec<u32> = (0..rows as u32).collect();
                let mut out = vec![0.0f32; rows * dim];
                let grads = vec![0.5f32; rows * dim];
                for _ in 0..50 {
                    let samples: Vec<&[u32]> = vec![&ids];
                    we.read_batch(&samples, &mut out);
                    we.apply_gradients(&samples, &grads, &opt);
                }
                we.flush_all(exchange);
            });
        }
    });
    for owner in 0..4 {
        exchange.apply_owned(owner, &*table, &opt);
    }

    // All 4 workers × 50 iterations × 0.5 gradient at lr 0.01 — primaries
    // must reflect every update exactly (flushes merge, nothing lost).
    let mut row = vec![0.0f32; dim];
    for e in 0..rows as u32 {
        table.read_row(e, &mut row);
        let expected = -(4.0 * 50.0 * 0.5 * 0.01);
        assert!(
            (row[0] - expected).abs() < 1e-3,
            "row {e}: {} vs {expected}",
            row[0]
        );
    }
}

#[test]
fn clock_normalization_uses_frequencies() {
    // A hot and a cold embedding co-accessed by one sample: the inter check
    // normalises by frequency, so a hot row's high raw clock alone must not
    // trigger a sync of the cold row.
    let table = ShardedTable::new(4, 1, 0.0, 1);
    let mut part = Partition::new(2, vec![0, 1], vec![1, 1, 1, 1]);
    part.add_replica(0, 0); // hot secondary
    part.add_replica(1, 0); // cold secondary
    let freq = vec![1000, 10, 1, 1];
    let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(4));
    let opt = SparseOpt::sgd(0.01);
    // 30 foreign updates to the hot row → intra gap 30 > 4 → hot syncs.
    for _ in 0..30 {
        table.apply_grad(0, &[1.0], &opt);
    }
    let samples: Vec<&[u32]> = vec![&[0, 1]];
    let mut out = vec![0.0f32; 2];
    let r = w0.read_batch(&samples, &mut out);
    assert_eq!(r.intra_syncs, 1);
    // After the hot sync its clock is 30; normalised against the cold row:
    // |30·(10/1000) − 0| = 0.3 ≤ 4 → no inter sync.
    assert_eq!(r.inter_syncs, 0, "{r:?}");
}
