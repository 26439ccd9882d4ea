//! Deterministic per-worker simulated clocks.
//!
//! Each worker thread owns a [`SimClock`]; every charged operation advances
//! it and is attributed to a category so experiments can report the paper's
//! communication-vs-computation breakdowns (Figures 1 and 8).
//!
//! A clock can report to a telemetry [`Recorder`]
//! ([`SimClock::with_recorder`]): each charge is then also observed into
//! the `time.<category>_secs` histograms and the simulated position is
//! mirrored to the `clock.now_secs` gauge, so unified snapshots carry the
//! same breakdown this type reports directly.

use hetgmp_telemetry::{names, Recorder};
use std::sync::Arc;

/// Categories of charged time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Dense DNN forward + backward compute.
    Compute,
    /// Remote embedding/gradient transfer (the dominant cost in the paper).
    EmbedComm,
    /// Sparse index + clock metadata exchange.
    MetaComm,
    /// Dense-parameter AllReduce.
    AllReduceComm,
    /// Host↔device input pipeline.
    HostIo,
    /// Injected-fault downtime: stalls, lost-work replay, crash-recovery
    /// restore and restart overhead.
    Fault,
}

impl TimeCategory {
    /// Telemetry histogram name charges to this category observe into.
    pub fn metric(self) -> &'static str {
        match self {
            TimeCategory::Compute => "time.compute_secs",
            TimeCategory::EmbedComm => "time.embed_comm_secs",
            TimeCategory::MetaComm => "time.meta_comm_secs",
            TimeCategory::AllReduceComm => "time.allreduce_comm_secs",
            TimeCategory::HostIo => "time.host_io_secs",
            TimeCategory::Fault => "time.fault_secs",
        }
    }
}

/// Aggregated per-category time for one worker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Dense compute seconds.
    pub compute: f64,
    /// Embedding data communication seconds.
    pub embed_comm: f64,
    /// Keys/clocks metadata communication seconds.
    pub meta_comm: f64,
    /// Dense AllReduce seconds.
    pub allreduce_comm: f64,
    /// Input-pipeline seconds.
    pub host_io: f64,
    /// Injected-fault downtime seconds (stalls + crash recovery).
    pub fault: f64,
}

impl TimeBreakdown {
    /// Total time across every category.
    pub fn total(&self) -> f64 {
        self.compute
            + self.embed_comm
            + self.meta_comm
            + self.allreduce_comm
            + self.host_io
            + self.fault
    }

    /// Communication time only (everything except compute and host IO).
    pub fn communication(&self) -> f64 {
        self.embed_comm + self.meta_comm + self.allreduce_comm
    }

    /// Communication time as a fraction of total (the paper's Figure 1
    /// y-axis). Returns 0 for an empty breakdown.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.communication() / total
        }
    }

    /// Element-wise sum with another breakdown.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute: self.compute + other.compute,
            embed_comm: self.embed_comm + other.embed_comm,
            meta_comm: self.meta_comm + other.meta_comm,
            allreduce_comm: self.allreduce_comm + other.allreduce_comm,
            host_io: self.host_io + other.host_io,
            fault: self.fault + other.fault,
        }
    }
}

/// A worker's simulated wall clock.
///
/// `now` is the worker's position in simulated time; the breakdown records
/// how that time was spent. Overlap of communication with computation (paper
/// §6, "Asynchronous Execution") is modelled by [`SimClock::advance_overlapped`],
/// which charges only the *excess* of communication time beyond the compute
/// it hides behind, while still attributing the full duration in the
/// breakdown (so Figure 1/8-style accounting reports the raw cost).
#[derive(Clone, Default)]
pub struct SimClock {
    now: f64,
    breakdown: TimeBreakdown,
    /// Seconds of overlappable charges actually hidden behind their compute
    /// windows (the part of `advance_overlapped` that did not advance `now`).
    hidden: f64,
    /// Total seconds submitted through `advance_overlapped`, hidden or not.
    charged_overlappable: f64,
    recorder: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimClock")
            .field("now", &self.now)
            .field("breakdown", &self.breakdown)
            .field("recorder", &self.recorder.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock at time zero reporting every charge to `recorder`.
    pub fn with_recorder(recorder: Arc<Recorder>) -> Self {
        Self {
            recorder: Some(recorder),
            ..Self::default()
        }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Per-category totals.
    #[inline]
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Advances the clock by `seconds`, attributed to `category`.
    pub fn advance(&mut self, category: TimeCategory, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative time charge: {seconds}");
        self.now += seconds;
        self.attribute(category, seconds);
    }

    /// Advances by communication time that can hide behind `compute_window`
    /// seconds of already-charged compute: wall-clock advances by
    /// `max(0, seconds − compute_window)`, but the full `seconds` is
    /// attributed to `category` in the breakdown.
    pub fn advance_overlapped(
        &mut self,
        category: TimeCategory,
        seconds: f64,
        compute_window: f64,
    ) {
        debug_assert!(seconds >= 0.0 && compute_window >= 0.0);
        self.now += (seconds - compute_window).max(0.0);
        self.hidden += seconds.min(compute_window);
        self.charged_overlappable += seconds;
        self.attribute(category, seconds);
    }

    /// Seconds of overlappable charges fully hidden behind their compute
    /// windows (deterministic — derived from simulated charges only).
    #[inline]
    pub fn hidden_secs(&self) -> f64 {
        self.hidden
    }

    /// Total seconds submitted through [`SimClock::advance_overlapped`],
    /// hidden or not — the denominator of the run's
    /// `pipeline.overlap_ratio`, whose numerator is
    /// [`SimClock::hidden_secs`].
    pub fn overlappable_secs(&self) -> f64 {
        self.charged_overlappable
    }

    /// Synchronisation barrier: jumps this clock forward to `other_time` if
    /// it is behind (used for BSP barriers and blocking reads).
    pub fn wait_until(&mut self, other_time: f64) {
        if other_time > self.now {
            self.now = other_time;
            if let Some(r) = &self.recorder {
                r.gauge_set(names::CLOCK_NOW, self.now);
            }
        }
    }

    fn attribute(&mut self, category: TimeCategory, seconds: f64) {
        match category {
            TimeCategory::Compute => self.breakdown.compute += seconds,
            TimeCategory::EmbedComm => self.breakdown.embed_comm += seconds,
            TimeCategory::MetaComm => self.breakdown.meta_comm += seconds,
            TimeCategory::AllReduceComm => self.breakdown.allreduce_comm += seconds,
            TimeCategory::HostIo => self.breakdown.host_io += seconds,
            TimeCategory::Fault => self.breakdown.fault += seconds,
        }
        if let Some(r) = &self.recorder {
            r.histogram_observe(category.metric(), seconds);
            r.gauge_set(names::CLOCK_NOW, self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(TimeCategory::Compute, 1.0);
        c.advance(TimeCategory::EmbedComm, 2.0);
        c.advance(TimeCategory::MetaComm, 0.5);
        assert_eq!(c.now(), 3.5);
        assert_eq!(c.breakdown().compute, 1.0);
        assert_eq!(c.breakdown().embed_comm, 2.0);
        assert_eq!(c.breakdown().total(), 3.5);
    }

    #[test]
    fn comm_fraction_matches_paper_definition() {
        let mut c = SimClock::new();
        c.advance(TimeCategory::Compute, 1.0);
        c.advance(TimeCategory::EmbedComm, 8.0);
        c.advance(TimeCategory::AllReduceComm, 1.0);
        assert!((c.breakdown().comm_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_comm_fraction_is_zero() {
        assert_eq!(SimClock::new().breakdown().comm_fraction(), 0.0);
    }

    #[test]
    fn overlap_hides_communication() {
        let mut c = SimClock::new();
        c.advance(TimeCategory::Compute, 2.0);
        // 3 seconds of comm overlapping a 2-second compute window: only 1s of
        // wall time, but the breakdown records all 3.
        c.advance_overlapped(TimeCategory::EmbedComm, 3.0, 2.0);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.breakdown().embed_comm, 3.0);
        // Fully hidden comm advances nothing.
        c.advance_overlapped(TimeCategory::EmbedComm, 0.5, 1.0);
        assert_eq!(c.now(), 3.0);
        // Overlap accounting: 2.0 of the first charge + all 0.5 of the
        // second were hidden, out of 3.5 overlappable seconds.
        assert_eq!(c.hidden_secs(), 2.5);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = SimClock::new();
        c.advance(TimeCategory::Compute, 5.0);
        c.wait_until(3.0);
        assert_eq!(c.now(), 5.0);
        c.wait_until(7.5);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    fn recorder_sees_same_breakdown() {
        let rec = Arc::new(Recorder::new());
        let mut c = SimClock::with_recorder(rec.clone());
        c.advance(TimeCategory::Compute, 1.5);
        c.advance(TimeCategory::EmbedComm, 2.0);
        c.advance_overlapped(TimeCategory::EmbedComm, 3.0, 1.0);
        c.wait_until(100.0);
        let snap = rec.snapshot();
        assert!((snap.histogram("time.compute_secs").sum - c.breakdown().compute).abs() < 1e-12);
        assert!(
            (snap.histogram("time.embed_comm_secs").sum - c.breakdown().embed_comm).abs() < 1e-12
        );
        assert_eq!(snap.gauge("clock.now_secs"), Some(c.now()));
    }

    #[test]
    fn fault_time_counts_in_total_not_communication() {
        let mut c = SimClock::new();
        c.advance(TimeCategory::Fault, 2.0);
        c.advance(TimeCategory::Compute, 1.0);
        assert_eq!(c.breakdown().fault, 2.0);
        assert_eq!(c.breakdown().total(), 3.0);
        assert_eq!(c.breakdown().communication(), 0.0);
        assert_eq!(TimeCategory::Fault.metric(), "time.fault_secs");
        let merged = c.breakdown().merged(c.breakdown());
        assert_eq!(merged.fault, 4.0);
    }

    #[test]
    fn merged_breakdowns() {
        let mut a = SimClock::new();
        a.advance(TimeCategory::Compute, 1.0);
        let mut b = SimClock::new();
        b.advance(TimeCategory::HostIo, 2.0);
        let m = a.breakdown().merged(b.breakdown());
        assert_eq!(m.compute, 1.0);
        assert_eq!(m.host_io, 2.0);
        assert_eq!(m.total(), 3.0);
    }
}
