//! Registry aggregating per-worker recorders into one view.

use crate::recorder::Recorder;
use crate::snapshot::TelemetrySnapshot;
use std::sync::Arc;

/// Owns one [`Recorder`] per worker plus a global one for metrics
/// not attributable to a single worker (partitioning, dataset I/O, the
/// driver loop). Worker recorders are handed out as `Arc`s, so threads
/// record without any cross-worker contention; [`MetricsRegistry::snapshot`]
/// merges everything after the fact.
#[derive(Debug)]
pub struct MetricsRegistry {
    global: Arc<Recorder>,
    workers: Vec<Arc<Recorder>>,
}

impl MetricsRegistry {
    /// Registry for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            global: Arc::new(Recorder::new()),
            workers: (0..num_workers)
                .map(|_| Arc::new(Recorder::new()))
                .collect(),
        }
    }

    /// The global (worker-agnostic) recorder.
    pub fn global(&self) -> Arc<Recorder> {
        Arc::clone(&self.global)
    }

    /// The recorder for `worker`.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    pub fn worker(&self, worker: usize) -> Arc<Recorder> {
        Arc::clone(&self.workers[worker])
    }

    /// Merged snapshot: global metrics plus every worker's, with counters
    /// summed and histograms combined across workers.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut merged = self.global.snapshot();
        for w in &self.workers {
            merged.merge(&w.snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_workers_and_global() {
        let reg = MetricsRegistry::new(3);
        reg.global().counter_add("partition.moves", 5);
        for (i, w) in (0..3).map(|i| (i, reg.worker(i))) {
            w.counter_add("traffic.bytes.embed_data", 10 * (i as u64 + 1));
            w.histogram_observe("time.compute_secs", 1.0);
        }
        let s = reg.snapshot();
        assert_eq!(s.counter("partition.moves"), 5);
        assert_eq!(s.counter("traffic.bytes.embed_data"), 60);
        assert_eq!(s.histogram("time.compute_secs").count, 3);
        // Per-worker views stay separate.
        assert_eq!(
            reg.worker(1).snapshot().counter("traffic.bytes.embed_data"),
            20
        );
        assert_eq!(reg.worker(1).snapshot().counter("partition.moves"), 0);
    }

    #[test]
    fn workers_record_concurrently() {
        let reg = MetricsRegistry::new(4);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let rec = reg.worker(i);
                scope.spawn(move || {
                    for _ in 0..500 {
                        rec.counter_add("ops", 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("ops"), 2000);
    }
}
