//! The [`Recorder`] abstraction every instrumented component writes to.
//!
//! Components (traffic ledger, sim clocks, embedding workers, partitioners)
//! hold a `&dyn Recorder` or an `Arc<dyn Recorder>` and emit metrics by
//! name. The default [`NoopRecorder`] makes instrumentation free when
//! telemetry is off; [`crate::MemoryRecorder`] aggregates in memory for
//! snapshots and export.

use crate::snapshot::HistogramSummary;
use std::sync::Arc;

/// Sink for metric events. Implementations must be cheap and thread-safe:
/// workers record from inside training loops.
///
/// Metric names are dotted paths (`traffic.bytes.embed_data`); the full
/// taxonomy lives in `TELEMETRY.md` at the repo root.
pub trait Recorder: Send + Sync {
    /// Adds `value` to the named monotonic counter.
    fn counter_add(&self, name: &str, value: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge_set(&self, name: &str, value: f64);

    /// Records one observation of `value` into the named histogram.
    fn histogram_observe(&self, name: &str, value: f64);

    /// Folds a whole pre-aggregated histogram into the named histogram, as
    /// if every observation behind `summary` had been recorded here. Lets
    /// hot loops accumulate into a local [`HistogramSummary`] and pay the
    /// recorder exactly once per epoch. Recorders that do not aggregate
    /// (the no-op) ignore it.
    fn histogram_merge(&self, name: &str, summary: &HistogramSummary) {
        let _ = (name, summary);
    }
}

/// Recorder that drops everything. The default when telemetry is off:
/// every method is an empty inline-able body, so instrumented hot loops
/// pay only a virtual call (or nothing, when monomorphised).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &str, _value: u64) {}
    fn gauge_set(&self, _name: &str, _value: f64) {}
    fn histogram_observe(&self, _name: &str, _value: f64) {}
}

/// Forwarding impls so `Arc<MemoryRecorder>` / boxed recorders plug in
/// anywhere a `Recorder` is expected.
impl<R: Recorder + ?Sized> Recorder for Arc<R> {
    fn counter_add(&self, name: &str, value: u64) {
        (**self).counter_add(name, value);
    }
    fn gauge_set(&self, name: &str, value: f64) {
        (**self).gauge_set(name, value);
    }
    fn histogram_observe(&self, name: &str, value: f64) {
        (**self).histogram_observe(name, value);
    }
    fn histogram_merge(&self, name: &str, summary: &HistogramSummary) {
        (**self).histogram_merge(name, summary);
    }
}

impl<R: Recorder + ?Sized> Recorder for &R {
    fn counter_add(&self, name: &str, value: u64) {
        (**self).counter_add(name, value);
    }
    fn gauge_set(&self, name: &str, value: f64) {
        (**self).gauge_set(name, value);
    }
    fn histogram_observe(&self, name: &str, value: f64) {
        (**self).histogram_observe(name, value);
    }
    fn histogram_merge(&self, name: &str, summary: &HistogramSummary) {
        (**self).histogram_merge(name, summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn noop_accepts_everything() {
        let r = NoopRecorder;
        r.counter_add("a", 1);
        r.gauge_set("b", 2.0);
        r.histogram_observe("c", 3.0);
    }

    #[test]
    fn arc_and_ref_forward() {
        let r = Arc::new(MemoryRecorder::default());
        r.counter_add("x", 2);
        let as_ref: &MemoryRecorder = &r;
        as_ref.counter_add("x", 3);
        assert_eq!(r.snapshot().counter("x"), 5);
    }
}
