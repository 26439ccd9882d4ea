//! Spans recorded by the layer replay: one per call from the benchmark into
//! a layer's public function, kept in memory per thread and collected when
//! the thread's work ends.
//!
//! The log is thread-local so that a wrapper deep in a call chain (the
//! spanning `RowStore`) can open a child span without being handed a log:
//! whatever span is open on the calling thread is its parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use hetgmp_telemetry::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `embedding.worker.read`.
    pub name: &'static str,
    /// Nanoseconds since the replay's origin.
    pub start_ns: u64,
    /// Nanoseconds since the replay's origin.
    pub end_ns: u64,
    /// Index (in the same worker's log) of the span this one ran inside.
    pub parent: Option<usize>,
    /// The training step the span belongs to: spans of one step share it.
    pub step: u32,
    /// The worker thread that recorded it.
    pub worker: u32,
}

impl Span {
    /// Wall nanoseconds from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadLog {
    origin: Instant,
    worker: u32,
    step: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<Option<ThreadLog>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; `origin` is shared by every worker so
/// their timelines line up.
pub fn begin(origin: Instant, worker: u32) {
    LOG.with(|log| {
        *log.borrow_mut() = Some(ThreadLog {
            origin,
            worker,
            step: 0,
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Sets the step id stamped on spans opened from now on.
pub fn set_step(step: u32) {
    LOG.with(|log| {
        if let Some(l) = log.borrow_mut().as_mut() {
            l.step = step;
        }
    });
}

/// Stops recording on this thread and hands back what it recorded.
pub fn finish() -> Vec<Span> {
    LOG.with(|log| log.borrow_mut().take().map_or_else(Vec::new, |l| l.spans))
}

/// Runs `f` inside a span called `name`. Without a log on this thread (no
/// [`begin`]) it just runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = LOG.with(|log| {
        log.borrow_mut().as_mut().map(|l| {
            let id = l.spans.len();
            l.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: l.open.last().copied(),
                step: l.step,
                worker: l.worker,
            });
            l.open.push(id);
            // Read the clock last so the bookkeeping above is charged to
            // the parent, not to this span.
            l.spans[id].start_ns = l.origin.elapsed().as_nanos() as u64;
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            let l = log.as_mut().expect("log outlives its open spans");
            l.spans[id].end_ns = l.origin.elapsed().as_nanos() as u64;
            l.open.pop();
        });
    }
    out
}

/// Self time of every span of one worker's log: its duration minus the
/// part of that interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self seconds summed by span name over every worker's log.
pub fn self_seconds_by_name(logs: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for log in logs {
        for (s, ns) in log.iter().zip(self_times(log)) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
    }
    out
}

/// Microseconds spent in spans named any of `names`, one value per
/// (worker, step) that has such a span: the per-batch series behind the
/// `*_us_per_batch` metrics.
pub fn per_step_us(logs: &[Vec<Span>], names: &[&str]) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs {
        let mut by_step: BTreeMap<u32, u64> = BTreeMap::new();
        for s in log.iter().filter(|s| names.contains(&s.name)) {
            *by_step.entry(s.step).or_insert(0) += s.duration_ns();
        }
        out.extend(by_step.values().map(|&ns| ns as f64 * 1e-3));
    }
    out
}

/// One JSON line per span, `id`/`parent` unique within a worker.
pub fn to_jsonl(logs: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for log in logs {
        for (id, s) in log.iter().enumerate() {
            let line = Json::obj([
                ("worker", Json::U64(u64::from(s.worker))),
                ("id", Json::U64(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("step", Json::U64(u64::from(s.step))),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 0,
            worker: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = vec![
            sp("core.step", 0, 100, None),
            sp("embedding.worker.read", 10, 50, Some(0)),
            sp("embedding.store.read", 20, 45, Some(1)),
            sp("tensor.fwd", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&log), vec![30, 15, 25, 30]);
        let by_name = self_seconds_by_name(std::slice::from_ref(&log));
        let total: f64 = by_name.values().sum();
        // Self times partition the root: nothing is counted twice.
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let log = vec![sp("a", 10, 20, None), sp("b", 5, 15, Some(0))];
        assert_eq!(self_times(&log), vec![5, 10]);
    }

    #[test]
    fn recording_nests_by_call_order() {
        begin(Instant::now(), 3);
        set_step(7);
        let v = span("outer", || span("inner", || 42));
        assert_eq!(v, 42);
        span("sibling", || ());
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("sibling", None));
        assert!(spans.iter().all(|s| s.step == 7 && s.worker == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Without a log the closure still runs.
        assert_eq!(span("unrecorded", || 1), 1);
        assert!(finish().is_empty());
    }

    #[test]
    fn per_step_series_sums_within_a_step() {
        let mut a = sp("x", 0, 1000, None);
        a.step = 1;
        let mut b = sp("x", 2000, 5000, None);
        b.step = 1;
        let mut c = sp("x", 0, 2000, None);
        c.step = 2;
        let d = sp("y", 0, 9000, None);
        assert_eq!(per_step_us(&[vec![a, b, c, d]], &["x"]), vec![4.0, 2.0]);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let text = to_jsonl(&[vec![sp("a", 1, 2, None), sp("b", 1, 2, Some(0))]]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(second.get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
