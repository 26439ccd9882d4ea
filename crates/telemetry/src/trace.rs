//! Event tracing: typed spans in bounded per-track ring buffers, exported
//! as Chrome trace-event JSON.
//!
//! Aggregate counters (the [`crate::Recorder`] pipeline) answer *how much*;
//! traces answer *when*. A [`TraceCollector`] plugs in beside the recorder
//! registry and keeps one bounded ring buffer per worker, per interconnect
//! link class, and one for host-side driver work. Each [`TraceEvent`]
//! carries the **simulated** start time and duration (from `SimClock` /
//! the cost model) in microseconds, plus the wall-clock time it was
//! recorded, a metric-style dotted name, and key/value arguments.
//!
//! [`TraceCollector::to_chrome_json`] renders the buffers in the Chrome
//! trace-event format (the `{"traceEvents":[...]}` JSON object understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): one
//! thread track per worker, one per link class, `ph:"X"` complete events
//! for spans and `ph:"i"` instants for zero-duration decision events.

use crate::error::HetGmpError;
use crate::export::JsonlWriter;
use crate::json::Json;
use crate::manifest::RunManifest;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much detail a collector keeps. Ordered: `Batch < Sync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Coarse spans only: trainer epochs and batches, per-link transfers,
    /// partitioner rounds.
    Batch,
    /// Everything in `Batch` plus per-batch read/sync/deferral decision
    /// instants from the embedding workers.
    Sync,
}

impl TraceLevel {
    /// Parses a `--trace-level` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "batch" => Some(Self::Batch),
            "sync" => Some(Self::Sync),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn label(self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Sync => "sync",
        }
    }
}

/// Which timeline row an event belongs to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceTrack {
    /// A training worker's timeline.
    Worker(usize),
    /// An interconnect link class timeline; the label comes from the
    /// topology (`nvlink`, `pcie3`, `qpi`, `ethernet_10g`, …).
    Link(String),
    /// Host-side work that happens outside any worker, e.g. partitioner
    /// refinement rounds (timestamps are wall-clock, not simulated).
    Driver,
}

/// One traced span (or instant, when `dur_us == 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Timeline row.
    pub track: TraceTrack,
    /// Dotted event name from [`crate::names`], e.g. `trace.batch`.
    pub name: String,
    /// Simulated start time in microseconds.
    pub ts_us: f64,
    /// Simulated duration in microseconds; 0 marks an instant event.
    pub dur_us: f64,
    /// Wall-clock microseconds since the collector was created.
    pub wall_us: u64,
    /// Key/value arguments shown in the trace viewer.
    pub args: Vec<(String, Json)>,
}

/// Fixed-capacity ring: keeps the newest events, counts what it dropped.
struct Ring {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Thread-safe trace sink with one bounded ring buffer per track.
///
/// Worker rings are per-worker mutexes, so concurrent workers never
/// contend with each other; link and driver rings share one lock each.
/// The collector also carries a per-worker *simulated now* cell that the
/// trainer refreshes each batch, so components without clock access (the
/// embedding workers, the traffic ledger) can stamp instant events at the
/// right simulated time.
pub struct TraceCollector {
    level: TraceLevel,
    capacity: usize,
    epoch: Instant,
    workers: Vec<Mutex<Ring>>,
    worker_now_us: Vec<AtomicU64>,
    links: Mutex<BTreeMap<String, Ring>>,
    driver: Mutex<Ring>,
    manifest: Mutex<Option<RunManifest>>,
}

impl TraceCollector {
    /// Default per-track ring capacity.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Collector for `num_workers` workers at the given detail level.
    pub fn new(num_workers: usize, level: TraceLevel) -> Self {
        Self::with_capacity(num_workers, level, Self::DEFAULT_CAPACITY)
    }

    /// As [`TraceCollector::new`] with an explicit per-track ring capacity.
    pub fn with_capacity(num_workers: usize, level: TraceLevel, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            level,
            capacity,
            epoch: Instant::now(),
            workers: (0..num_workers).map(|_| Mutex::new(Ring::new(capacity))).collect(),
            worker_now_us: (0..num_workers).map(|_| AtomicU64::new(0)).collect(),
            links: Mutex::new(BTreeMap::new()),
            driver: Mutex::new(Ring::new(capacity)),
            manifest: Mutex::new(None),
        }
    }

    /// Attaches the run manifest stamped into the exported trace's
    /// `otherData.manifest`. The trainer calls this at run start; the last
    /// attached manifest wins.
    pub fn attach_manifest(&self, manifest: RunManifest) {
        *self.manifest.lock() = Some(manifest);
    }

    /// The attached run manifest, if any.
    pub fn manifest(&self) -> Option<RunManifest> {
        self.manifest.lock().clone()
    }

    /// The collector's detail level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether events at `level` should be recorded.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        level <= self.level
    }

    /// Number of worker tracks.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Refreshes worker `w`'s simulated clock, in seconds. Called by the
    /// trainer at batch boundaries so instant events land at the right ts.
    pub fn set_worker_time(&self, w: usize, sim_secs: f64) {
        if let Some(cell) = self.worker_now_us.get(w) {
            cell.store((sim_secs * 1e6).to_bits(), Ordering::Relaxed);
        }
    }

    /// Worker `w`'s last-stamped simulated time, in microseconds.
    pub fn worker_time_us(&self, w: usize) -> f64 {
        self.worker_now_us
            .get(w)
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }

    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn make_args(args: &[(&str, Json)]) -> Vec<(String, Json)> {
        args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    /// Records a span on worker `w`'s track. Times are simulated seconds.
    pub fn worker_span(
        &self,
        w: usize,
        name: &str,
        start_secs: f64,
        dur_secs: f64,
        args: &[(&str, Json)],
    ) {
        let Some(ring) = self.workers.get(w) else { return };
        let event = TraceEvent {
            track: TraceTrack::Worker(w),
            name: name.to_string(),
            ts_us: start_secs * 1e6,
            dur_us: dur_secs * 1e6,
            wall_us: self.wall_us(),
            args: Self::make_args(args),
        };
        ring.lock().push(event);
    }

    /// Records an instant decision event on worker `w`'s track at the
    /// worker's last-stamped simulated time. Only kept at
    /// [`TraceLevel::Sync`].
    pub fn worker_instant(&self, w: usize, name: &str, args: &[(&str, Json)]) {
        if !self.enabled(TraceLevel::Sync) {
            return;
        }
        let Some(ring) = self.workers.get(w) else { return };
        let event = TraceEvent {
            track: TraceTrack::Worker(w),
            name: name.to_string(),
            ts_us: self.worker_time_us(w),
            dur_us: 0.0,
            wall_us: self.wall_us(),
            args: Self::make_args(args),
        };
        ring.lock().push(event);
    }

    /// Records an occupancy span on the link-class track `label`.
    /// Times are simulated seconds.
    pub fn link_span(
        &self,
        label: &str,
        name: &str,
        start_secs: f64,
        dur_secs: f64,
        args: &[(&str, Json)],
    ) {
        let event = TraceEvent {
            track: TraceTrack::Link(label.to_string()),
            name: name.to_string(),
            ts_us: start_secs * 1e6,
            dur_us: dur_secs * 1e6,
            wall_us: self.wall_us(),
            args: Self::make_args(args),
        };
        let mut links = self.links.lock();
        links
            .entry(label.to_string())
            .or_insert_with(|| Ring::new(self.capacity))
            .push(event);
    }

    /// Records a span on the driver track. Driver timestamps are
    /// **wall-clock** seconds (the driver runs outside the simulation).
    pub fn driver_span(&self, name: &str, start_secs: f64, dur_secs: f64, args: &[(&str, Json)]) {
        let event = TraceEvent {
            track: TraceTrack::Driver,
            name: name.to_string(),
            ts_us: start_secs * 1e6,
            dur_us: dur_secs * 1e6,
            wall_us: self.wall_us(),
            args: Self::make_args(args),
        };
        self.driver.lock().push(event);
    }

    /// Total events currently buffered.
    pub fn len(&self) -> usize {
        let mut n = 0;
        for w in &self.workers {
            n += w.lock().events.len();
        }
        n += self.links.lock().values().map(|r| r.events.len()).sum::<usize>();
        n += self.driver.lock().events.len();
        n
    }

    /// `true` when no events have been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from full rings since creation.
    pub fn dropped(&self) -> u64 {
        let mut n = 0;
        for w in &self.workers {
            n += w.lock().dropped;
        }
        n += self.links.lock().values().map(|r| r.dropped).sum::<u64>();
        n += self.driver.lock().dropped;
        n
    }

    /// Clones every buffered event, ordered by track then insertion.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for w in &self.workers {
            out.extend(w.lock().events.iter().cloned());
        }
        for ring in self.links.lock().values() {
            out.extend(ring.events.iter().cloned());
        }
        out.extend(self.driver.lock().events.iter().cloned());
        out
    }

    /// Link-class labels that have at least one event, sorted.
    pub fn link_labels(&self) -> Vec<String> {
        self.links.lock().keys().cloned().collect()
    }

    /// Renders the Chrome trace-event JSON document.
    ///
    /// Track layout: `pid 0` holds one thread per worker, `pid 1` one
    /// thread per link class (sorted by label), `pid 2` the driver.
    /// `ts`/`dur` are simulated microseconds (wall-clock for the driver);
    /// each event also carries `wall_us` in its args.
    ///
    /// With zero recorded events the output is still a valid, loadable
    /// trace — metadata-only: the workers `process_name`, one
    /// `thread_name` per configured worker (all `ph:"M"`), plus
    /// `displayTimeUnit` and `otherData`. Link and driver tracks appear
    /// only once they hold events.
    pub fn to_chrome_json(&self) -> Json {
        const PID_WORKERS: u64 = 0;
        const PID_LINKS: u64 = 1;
        const PID_DRIVER: u64 = 2;

        let mut events: Vec<Json> = Vec::new();
        let meta = |pid: u64, tid: u64, kind: &str, value: &str| {
            Json::obj([
                ("ph", Json::from("M")),
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(tid)),
                ("name", Json::from(kind)),
                ("args", Json::obj([("name", Json::from(value))])),
            ])
        };

        events.push(meta(PID_WORKERS, 0, "process_name", "workers"));
        for w in 0..self.workers.len() {
            events.push(meta(PID_WORKERS, w as u64, "thread_name", &format!("worker {w}")));
        }

        let links = self.links.lock();
        let link_tid: BTreeMap<&String, u64> = links
            .keys()
            .enumerate()
            .map(|(i, label)| (label, i as u64))
            .collect();
        if !links.is_empty() {
            events.push(meta(PID_LINKS, 0, "process_name", "links"));
            for (label, tid) in &link_tid {
                events.push(meta(PID_LINKS, *tid, "thread_name", &format!("link {label}")));
            }
        }
        let driver = self.driver.lock();
        if !driver.events.is_empty() {
            events.push(meta(PID_DRIVER, 0, "process_name", "driver"));
            events.push(meta(PID_DRIVER, 0, "thread_name", "driver"));
        }

        let mut emit = |event: &TraceEvent, pid: u64, tid: u64| {
            let instant = event.dur_us == 0.0;
            let mut members = vec![
                ("name".to_string(), Json::from(event.name.as_str())),
                ("ph".to_string(), Json::from(if instant { "i" } else { "X" })),
                ("pid".to_string(), Json::U64(pid)),
                ("tid".to_string(), Json::U64(tid)),
                ("ts".to_string(), Json::F64(event.ts_us)),
            ];
            if instant {
                // Instant scope: thread.
                members.push(("s".to_string(), Json::from("t")));
            } else {
                members.push(("dur".to_string(), Json::F64(event.dur_us)));
            }
            let mut args = event.args.clone();
            args.push(("wall_us".to_string(), Json::U64(event.wall_us)));
            members.push(("args".to_string(), Json::Obj(args)));
            events.push(Json::Obj(members));
        };

        for (w, ring) in self.workers.iter().enumerate() {
            for event in &ring.lock().events {
                emit(event, PID_WORKERS, w as u64);
            }
        }
        for (label, ring) in links.iter() {
            let tid = link_tid[label];
            for event in &ring.events {
                emit(event, PID_LINKS, tid);
            }
        }
        for event in &driver.events {
            emit(event, PID_DRIVER, 0);
        }
        drop(driver);
        drop(links);

        let mut other_data = vec![
            ("tool".to_string(), Json::from("het-gmp")),
            ("trace_level".to_string(), Json::from(self.level.label())),
            ("dropped_events".to_string(), Json::U64(self.dropped())),
        ];
        if let Some(m) = self.manifest.lock().as_ref() {
            other_data.push(("manifest".to_string(), m.to_json()));
        }

        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", Json::Obj(other_data)),
        ])
    }

    /// Writes the Chrome trace JSON to `path` (`-` = stdout). The file is
    /// a single-line JSON document loadable by `chrome://tracing` and
    /// Perfetto.
    pub fn write_chrome_trace(&self, path: &str) -> Result<(), HetGmpError> {
        let mut w = JsonlWriter::create(path)?;
        w.write_record(&self.to_chrome_json())?;
        w.flush()
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("level", &self.level)
            .field("capacity", &self.capacity)
            .field("workers", &self.workers.len())
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TraceLevel::Batch < TraceLevel::Sync);
        assert_eq!(TraceLevel::parse("batch"), Some(TraceLevel::Batch));
        assert_eq!(TraceLevel::parse("sync"), Some(TraceLevel::Sync));
        assert_eq!(TraceLevel::parse("debug"), None);
        let c = TraceCollector::new(1, TraceLevel::Batch);
        assert!(c.enabled(TraceLevel::Batch));
        assert!(!c.enabled(TraceLevel::Sync));
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let c = TraceCollector::with_capacity(1, TraceLevel::Batch, 4);
        for i in 0..10 {
            c.worker_span(0, "trace.batch", i as f64, 1.0, &[]);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.dropped(), 6);
        // The newest events survive.
        let kept: Vec<f64> = c.events().iter().map(|e| e.ts_us / 1e6).collect();
        assert_eq!(kept, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn instants_use_the_stamped_worker_time_and_respect_level() {
        let batch = TraceCollector::new(2, TraceLevel::Batch);
        batch.worker_instant(0, "trace.sync", &[]);
        assert!(batch.is_empty(), "sync instants must be off at batch level");

        let sync = TraceCollector::new(2, TraceLevel::Sync);
        sync.set_worker_time(1, 2.5);
        sync.worker_instant(1, "trace.sync", &[("kind", Json::from("intra"))]);
        let events = sync.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, TraceTrack::Worker(1));
        assert_eq!(events[0].ts_us, 2.5e6);
        assert_eq!(events[0].dur_us, 0.0);
    }

    #[test]
    fn chrome_json_has_one_track_per_worker_and_link() {
        let c = TraceCollector::new(2, TraceLevel::Sync);
        c.worker_span(0, "trace.batch", 0.0, 0.010, &[("batch", Json::U64(0))]);
        c.worker_span(1, "trace.batch", 0.0, 0.012, &[]);
        c.link_span("pcie3", "trace.link.transfer", 0.010, 0.002, &[("bytes", Json::U64(4096))]);
        c.link_span("qpi", "trace.link.transfer", 0.010, 0.003, &[]);
        c.driver_span("trace.partition.round", 0.0, 0.5, &[]);

        let doc = c.to_chrome_json().render();
        assert!(doc.starts_with(r#"{"traceEvents":["#), "{doc}");
        for needle in [
            r#""name":"worker 0""#,
            r#""name":"worker 1""#,
            r#""name":"link pcie3""#,
            r#""name":"link qpi""#,
            r#""name":"driver""#,
            r#""ph":"X""#,
            r#""dur":2000.0"#,     // 0.002 s -> 2000 us on the pcie3 track
            r#""displayTimeUnit":"ms""#,
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn empty_trace_is_valid_and_metadata_only() {
        let c = TraceCollector::new(2, TraceLevel::Batch);
        let doc = Json::parse(&c.to_chrome_json().render()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Pinned shape: workers process_name + one thread_name per worker,
        // nothing else — and every entry is metadata.
        assert_eq!(events.len(), 3, "{doc:?}");
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("M"));
        }
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("tool").unwrap().as_str(), Some("het-gmp"));
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(0));
        // No manifest attached -> no manifest key.
        assert!(other.get("manifest").is_none());
    }

    #[test]
    fn attached_manifest_lands_in_other_data() {
        let c = TraceCollector::new(1, TraceLevel::Batch);
        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 4);
        c.attach_manifest(m.clone());
        assert_eq!(c.manifest(), Some(m.clone()));
        let doc = Json::parse(&c.to_chrome_json().render()).unwrap();
        let back =
            RunManifest::from_json(doc.get("otherData").unwrap().get("manifest").unwrap())
                .unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = std::sync::Arc::new(TraceCollector::new(4, TraceLevel::Sync));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..100 {
                        c.set_worker_time(w, i as f64);
                        c.worker_span(w, "trace.batch", i as f64, 0.5, &[]);
                        c.worker_instant(w, "trace.read", &[]);
                        c.link_span("ethernet_10g", "trace.link.transfer", i as f64, 0.1, &[]);
                    }
                });
            }
        });
        assert_eq!(c.len(), 4 * 100 * 2 + 400);
        assert_eq!(c.link_labels(), vec!["ethernet_10g".to_string()]);
    }
}
