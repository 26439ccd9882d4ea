//! The [`Recorder`] every instrumented component writes to.
//!
//! Components (the charge path, sim clocks, embedding workers,
//! partitioners) hold a `&Recorder` or an `Arc<Recorder>` and emit metrics
//! by name; telemetry off is `None` where a recorder is optional. The
//! recorder aggregates in memory for snapshots and export.

use crate::snapshot::{HistogramSummary, TelemetrySnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Thread-safe sink that aggregates every metric in memory: workers record
/// from inside training loops.
///
/// Metric names are dotted paths (`traffic.bytes.embed_data`); the full
/// taxonomy lives in `TELEMETRY.md` at the repo root. One mutex per
/// instrument family keeps contention low; training code gives each worker
/// its own `Recorder` (via [`crate::MetricsRegistry`]) so cross-thread
/// contention is zero on the hot path and aggregation happens only at
/// snapshot time.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, HistogramSummary>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the current state into an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self.histograms.lock().clone(),
        }
    }

    /// Current value of one counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Adds `value` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock();
        match counters.get_mut(name) {
            Some(v) => *v += value,
            None => {
                counters.insert(name.to_string(), value);
            }
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut gauges = self.gauges.lock();
        match gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records one observation of `value` into the named histogram.
    pub fn histogram_observe(&self, name: &str, value: f64) {
        let mut histograms = self.histograms.lock();
        match histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = HistogramSummary::empty();
                h.observe(value);
                histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Folds a whole pre-aggregated histogram into the named histogram, as
    /// if every observation behind `summary` had been recorded here. Lets
    /// hot loops accumulate into a local [`HistogramSummary`] and pay the
    /// recorder exactly once per epoch. An empty summary leaves no trace.
    pub fn histogram_merge(&self, name: &str, summary: &HistogramSummary) {
        if summary.count == 0 {
            return;
        }
        let mut histograms = self.histograms.lock();
        match histograms.get_mut(name) {
            Some(h) => h.merge(summary),
            None => {
                histograms.insert(name.to_string(), *summary);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let r = Recorder::new();
        r.counter_add("a", 3);
        r.counter_add("a", 4);
        r.counter_add("b", 1);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 7);
        assert_eq!(s.counter("b"), 1);
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = Recorder::new();
        r.gauge_set("g", 1.0);
        r.gauge_set("g", -2.5);
        assert_eq!(r.snapshot().gauge("g"), Some(-2.5));
    }

    #[test]
    fn histograms_track_all_statistics() {
        let r = Recorder::new();
        for v in [1.0, 2.0, 6.0] {
            r.histogram_observe("h", v);
        }
        let h = r.snapshot().histogram("h");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 6.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits"), 8000);
    }

    #[test]
    fn histogram_merge_matches_individual_observations() {
        let merged = Recorder::new();
        let observed = Recorder::new();
        let mut local = HistogramSummary::empty();
        for v in [0.5, 1.5, 9.0] {
            local.observe(v);
            observed.histogram_observe("h", v);
        }
        merged.histogram_merge("h", &local);
        assert_eq!(
            merged.snapshot().histogram("h"),
            observed.snapshot().histogram("h")
        );

        // Merging an empty summary must not materialise an empty histogram.
        merged.histogram_merge("untouched", &HistogramSummary::empty());
        assert!(!merged.snapshot().histograms.contains_key("untouched"));
    }

    #[test]
    fn arc_and_ref_forward() {
        let r = Arc::new(Recorder::default());
        r.counter_add("x", 2);
        let as_ref: &Recorder = &r;
        as_ref.counter_add("x", 3);
        assert_eq!(r.snapshot().counter("x"), 5);
    }
}
