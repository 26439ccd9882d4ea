//! Runtime consistency auditing for the bounded-asynchronous protocol.
//!
//! HET-GMP's §5.3 guarantee is that no embedding read is served with an
//! intra- or inter-embedding clock gap above the configured staleness
//! bound `s`. The [`ProtocolAuditor`] turns that paper guarantee into a
//! checked runtime invariant: workers report every sync decision to it,
//! it records the *raw* (pre-sync) gap distributions as the
//! `protocol.gap.intra` / `protocol.gap.inter` histograms, and it counts
//! any read actually **served** with a gap above the bound as a violation
//! (`protocol.violation.*` counters). Under a correct implementation the
//! violation count is zero for every bound — BSP (`s = 0`) included —
//! while the gap histograms still show how far replicas drift under ASP.
//!
//! In strict mode ([`AuditMode::Strict`]) the first violation trips the
//! auditor; the trainer polls [`ProtocolAuditor::is_tripped`] at batch
//! boundaries and aborts the run, and the CLI exits with
//! [`HetGmpError::Audit`].

use crate::json::Json;
use crate::recorder::Recorder;
use crate::{names, HetGmpError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the auditor should do with violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// No auditing (the default).
    #[default]
    Off,
    /// Observe gaps and count violations; never abort.
    Count,
    /// Count, and trip on the first violation so the trainer fails fast.
    Strict,
}

impl AuditMode {
    /// Parses a `--audit[=MODE]` value; the bare flag (empty string)
    /// means counting mode.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "" | "count" => Some(Self::Count),
            "strict" => Some(Self::Strict),
            "off" => Some(Self::Off),
            _ => None,
        }
    }

    /// `true` unless [`AuditMode::Off`].
    pub fn is_on(self) -> bool {
        !matches!(self, Self::Off)
    }
}

/// Monotonic max over non-negative `f64`s stored as bits (for
/// non-negative floats, the bit pattern orders like the value).
fn atomic_max_f64(cell: &AtomicU64, value: f64) {
    cell.fetch_max(value.max(0.0).to_bits(), Ordering::Relaxed);
}

/// Shared observer of every staleness decision the embedding workers make.
///
/// One auditor is shared (`Arc`) across all workers; the hot-path methods
/// are a few relaxed atomics plus histogram writes into the calling
/// worker's own recorder, so workers never contend with each other.
#[derive(Debug)]
pub struct ProtocolAuditor {
    /// The configured staleness bound `s` (`f64::INFINITY` = ASP).
    bound: f64,
    strict: bool,
    intra_reads: AtomicU64,
    inter_checks: AtomicU64,
    intra_violations: AtomicU64,
    inter_violations: AtomicU64,
    max_intra_bits: AtomicU64,
    max_inter_bits: AtomicU64,
    tripped: Mutex<Option<String>>,
}

impl ProtocolAuditor {
    /// Auditor for staleness bound `s` (use `f64::INFINITY` for ASP).
    pub fn new(bound: f64, mode: AuditMode) -> Self {
        Self {
            bound,
            strict: mode == AuditMode::Strict,
            intra_reads: AtomicU64::new(0),
            inter_checks: AtomicU64::new(0),
            intra_violations: AtomicU64::new(0),
            inter_violations: AtomicU64::new(0),
            max_intra_bits: AtomicU64::new(0),
            max_inter_bits: AtomicU64::new(0),
            tripped: Mutex::new(None),
        }
    }

    /// The audited staleness bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// `true` when a strict-mode violation has tripped the auditor.
    pub fn is_tripped(&self) -> bool {
        self.strict && self.tripped.lock().is_some()
    }

    fn trip(&self, kind: &str, raw_gap: f64, served_gap: f64) {
        let mut slot = self.tripped.lock();
        if slot.is_none() {
            *slot = Some(format!(
                "{kind} staleness violation: read served with gap {served_gap} \
                 (raw gap {raw_gap}) above bound {}",
                self.bound
            ));
        }
    }

    /// Reports one intra-embedding staleness check. `raw_gap` is the clock
    /// gap before any sync; `served_gap` is the gap the read was actually
    /// served with (0 after a replica refresh).
    pub fn observe_intra(&self, recorder: Option<&Recorder>, raw_gap: f64, served_gap: f64) {
        self.intra_reads.fetch_add(1, Ordering::Relaxed);
        atomic_max_f64(&self.max_intra_bits, raw_gap);
        if let Some(r) = recorder {
            r.histogram_observe(names::PROTOCOL_GAP_INTRA, raw_gap);
        }
        if served_gap > self.bound {
            self.intra_violations.fetch_add(1, Ordering::Relaxed);
            if let Some(r) = recorder {
                r.counter_add(names::PROTOCOL_VIOLATION_INTRA, 1);
            }
            if self.strict {
                self.trip("intra-embedding", raw_gap, served_gap);
            }
        }
    }

    /// Reports one inter-embedding staleness check (normalised clock gap,
    /// §5.3). Same raw/served split as [`ProtocolAuditor::observe_intra`].
    pub fn observe_inter(&self, recorder: Option<&Recorder>, raw_gap: f64, served_gap: f64) {
        self.inter_checks.fetch_add(1, Ordering::Relaxed);
        atomic_max_f64(&self.max_inter_bits, raw_gap);
        if let Some(r) = recorder {
            r.histogram_observe(names::PROTOCOL_GAP_INTER, raw_gap);
        }
        if served_gap > self.bound {
            self.inter_violations.fetch_add(1, Ordering::Relaxed);
            if let Some(r) = recorder {
                r.counter_add(names::PROTOCOL_VIOLATION_INTER, 1);
            }
            if self.strict {
                self.trip("inter-embedding", raw_gap, served_gap);
            }
        }
    }

    /// Snapshot of everything observed so far.
    pub fn summary(&self) -> AuditSummary {
        AuditSummary {
            bound: self.bound,
            strict: self.strict,
            intra_reads: self.intra_reads.load(Ordering::Relaxed),
            inter_checks: self.inter_checks.load(Ordering::Relaxed),
            intra_violations: self.intra_violations.load(Ordering::Relaxed),
            inter_violations: self.inter_violations.load(Ordering::Relaxed),
            max_intra_gap: f64::from_bits(self.max_intra_bits.load(Ordering::Relaxed)),
            max_inter_gap: f64::from_bits(self.max_inter_bits.load(Ordering::Relaxed)),
            strict_failure: self.tripped.lock().clone(),
        }
    }
}

/// What an audited run observed; carried on `TrainResult`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditSummary {
    /// The staleness bound the run was audited against.
    pub bound: f64,
    /// Whether strict (fail-fast) mode was on.
    pub strict: bool,
    /// Intra-embedding staleness checks observed.
    pub intra_reads: u64,
    /// Inter-embedding staleness checks observed.
    pub inter_checks: u64,
    /// Reads served with an intra gap above the bound.
    pub intra_violations: u64,
    /// Reads served with an inter gap above the bound.
    pub inter_violations: u64,
    /// Largest raw intra-embedding gap seen (drift under ASP).
    pub max_intra_gap: f64,
    /// Largest raw inter-embedding gap seen.
    pub max_inter_gap: f64,
    /// Strict-mode trip message, if the run was aborted.
    pub strict_failure: Option<String>,
}

impl AuditSummary {
    /// Total violations across both gap kinds.
    pub fn total_violations(&self) -> u64 {
        self.intra_violations + self.inter_violations
    }

    /// The error a strict run should surface, if it tripped.
    pub fn to_error(&self) -> Option<HetGmpError> {
        self.strict_failure
            .as_ref()
            .map(|m| HetGmpError::audit(m.clone()))
    }

    /// JSON form, embedded in JSONL records and `TrainResult` dumps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bound", Json::F64(self.bound)),
            ("strict", Json::Bool(self.strict)),
            ("intra_reads", Json::U64(self.intra_reads)),
            ("inter_checks", Json::U64(self.inter_checks)),
            ("intra_violations", Json::U64(self.intra_violations)),
            ("inter_violations", Json::U64(self.inter_violations)),
            ("max_intra_gap", Json::F64(self.max_intra_gap)),
            ("max_inter_gap", Json::F64(self.max_inter_gap)),
            (
                "strict_failure",
                match &self.strict_failure {
                    Some(m) => Json::from(m.as_str()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// One-paragraph human rendering for the CLI.
    pub fn render(&self) -> String {
        let bound = if self.bound.is_finite() {
            format!("{}", self.bound)
        } else {
            "inf (ASP)".to_string()
        };
        let mut out = format!(
            "audit: bound={bound} checks={} (intra {}, inter {}) violations={} \
             max_gap intra={:.3} inter={:.3}",
            self.intra_reads + self.inter_checks,
            self.intra_reads,
            self.inter_checks,
            self.total_violations(),
            self.max_intra_gap,
            self.max_inter_gap,
        );
        if let Some(m) = &self.strict_failure {
            out.push_str(&format!("\naudit: STRICT FAILURE: {m}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_cli_spellings() {
        assert_eq!(AuditMode::parse(""), Some(AuditMode::Count));
        assert_eq!(AuditMode::parse("count"), Some(AuditMode::Count));
        assert_eq!(AuditMode::parse("strict"), Some(AuditMode::Strict));
        assert_eq!(AuditMode::parse("off"), Some(AuditMode::Off));
        assert_eq!(AuditMode::parse("bogus"), None);
        assert!(AuditMode::Count.is_on());
        assert!(!AuditMode::Off.is_on());
    }

    #[test]
    fn served_within_bound_is_not_a_violation() {
        let a = ProtocolAuditor::new(10.0, AuditMode::Strict);
        let r = Recorder::new();
        // Raw gap above the bound, but the worker synced before serving.
        a.observe_intra(Some(&r), 25.0, 0.0);
        // Raw gap within the bound, served as-is.
        a.observe_intra(Some(&r), 7.0, 7.0);
        let s = a.summary();
        assert_eq!(s.intra_reads, 2);
        assert_eq!(s.intra_violations, 0);
        assert_eq!(s.max_intra_gap, 25.0);
        assert!(!a.is_tripped());
        let snap = r.snapshot();
        assert_eq!(snap.histogram(names::PROTOCOL_GAP_INTRA).count, 2);
        assert_eq!(snap.counter(names::PROTOCOL_VIOLATION_INTRA), 0);
    }

    #[test]
    fn strict_mode_trips_on_first_served_violation() {
        let a = ProtocolAuditor::new(0.0, AuditMode::Strict);
        a.observe_inter(None, 3.0, 3.0);
        a.observe_inter(None, 9.0, 9.0);
        assert!(a.is_tripped());
        let s = a.summary();
        assert_eq!(s.inter_violations, 2);
        let msg = s.strict_failure.clone().unwrap();
        assert!(msg.contains("gap 3"), "first violation should win: {msg}");
        assert_eq!(s.to_error().unwrap().exit_code(), 70);
    }

    #[test]
    fn count_mode_never_trips() {
        let a = ProtocolAuditor::new(0.0, AuditMode::Count);
        a.observe_intra(None, 5.0, 5.0);
        assert!(!a.is_tripped());
        assert_eq!(a.summary().total_violations(), 1);
        assert!(a.summary().to_error().is_none());
    }

    #[test]
    fn infinite_bound_records_drift_without_violations() {
        let a = ProtocolAuditor::new(f64::INFINITY, AuditMode::Strict);
        for gap in [1.0, 40.0, 2.0] {
            a.observe_intra(None, gap, gap);
        }
        let s = a.summary();
        assert_eq!(s.total_violations(), 0);
        assert_eq!(s.max_intra_gap, 40.0);
        assert!(!a.is_tripped());
    }

    #[test]
    fn summary_renders_json_and_text() {
        let a = ProtocolAuditor::new(100.0, AuditMode::Count);
        a.observe_intra(None, 3.0, 3.0);
        a.observe_inter(None, 1.5, 1.5);
        let s = a.summary();
        let json = s.to_json().render();
        assert!(json.contains(r#""intra_reads":1"#), "{json}");
        assert!(json.contains(r#""strict_failure":null"#), "{json}");
        let text = s.render();
        assert!(text.contains("violations=0"), "{text}");
    }
}
