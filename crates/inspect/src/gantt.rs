//! ASCII pipeline occupancy timelines rendered from a Chrome trace file.
//!
//! Each `(pid, tid)` pair in the trace is one track (a worker, a link, or
//! the driver — labelled from the `process_name`/`thread_name` metadata
//! events). `ph:"X"` complete events are projected onto a fixed-width
//! character grid: `#` where the track is busy for more than half the
//! column's time slice, `.` where it is busy at all, space where idle.
//! A per-stage summary totals the `trace.stage.*` spans so the occupancy
//! split (fetch / compute / write_back / sync) is readable without a
//! trace viewer.

use crate::artifact::Artifact;
use hetgmp_telemetry::{names, HetGmpError, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Width of the timeline grid, in characters.
const GRID_COLS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Span {
    ts_us: f64,
    dur_us: f64,
}

/// Renders the per-track occupancy gantt for a loaded Chrome trace.
pub fn render_gantt(artifact: &Artifact) -> Result<String, HetGmpError> {
    let Artifact::Document { doc, manifest } = artifact else {
        return Err(HetGmpError::data_unattributed(
            0,
            "`inspect pipeline` reads a Chrome trace file (write one with --trace); \
             got a telemetry JSONL log — use `inspect report` for those",
        ));
    };
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err(HetGmpError::data_unattributed(
            0,
            "document has no traceEvents array — not a Chrome trace",
        ));
    };

    // First pass: track labels from metadata events, spans from "X" events.
    let mut process_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut thread_names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut tracks: BTreeMap<(u64, u64), Vec<Span>> = BTreeMap::new();
    let mut stages: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let name = e.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" => {
                if let Some(label) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    match name {
                        "process_name" => {
                            process_names.insert(pid, label.to_string());
                        }
                        "thread_name" => {
                            thread_names.insert((pid, tid), label.to_string());
                        }
                        _ => {}
                    }
                }
            }
            "X" => {
                let ts_us = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
                let dur_us = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
                tracks
                    .entry((pid, tid))
                    .or_default()
                    .push(Span { ts_us, dur_us });
                if let Some(stage) = name.strip_prefix(names::TRACE_STAGE_PREFIX) {
                    let entry = stages.entry(stage.to_string()).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += dur_us;
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    if let Some(m) = manifest {
        let _ = writeln!(
            out,
            "manifest: seed={} digest={} workers={}",
            m.seed, m.config_digest, m.workers,
        );
    }
    if tracks.is_empty() {
        let _ = writeln!(out, "trace contains no spans (metadata-only trace)");
        return Ok(out);
    }

    let t0 = tracks
        .values()
        .flatten()
        .map(|s| s.ts_us)
        .fold(f64::INFINITY, f64::min);
    let t1 = tracks
        .values()
        .flatten()
        .map(|s| s.ts_us + s.dur_us)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (t1 - t0).max(1e-9);
    let col_us = range / GRID_COLS as f64;
    let _ = writeln!(
        out,
        "timeline: {:.3} ms simulated, {GRID_COLS} columns of {:.1} us \
         ('#' >50% busy, '.' busy, ' ' idle)",
        range / 1000.0,
        col_us
    );

    let label_width = tracks
        .keys()
        .map(|key| track_label(key, &process_names, &thread_names).len())
        .max()
        .unwrap_or(0);
    for (key, spans) in &tracks {
        // Per-column busy time, clipping each span to the columns it covers.
        let mut busy = [0.0f64; GRID_COLS];
        let mut total_busy = 0.0;
        for s in spans {
            total_busy += s.dur_us;
            let lo = (s.ts_us - t0) / col_us;
            let hi = (s.ts_us + s.dur_us - t0) / col_us;
            let first = (lo.floor() as usize).min(GRID_COLS - 1);
            let last = (hi.ceil() as usize).min(GRID_COLS);
            for (c, slot) in busy.iter_mut().enumerate().take(last).skip(first) {
                let c_lo = c as f64;
                let c_hi = c_lo + 1.0;
                *slot += (hi.min(c_hi) - lo.max(c_lo)).max(0.0);
            }
        }
        let grid: String = busy
            .iter()
            .map(|&b| {
                if b > 0.5 {
                    '#'
                } else if b > 0.0 {
                    '.'
                } else {
                    ' '
                }
            })
            .collect();
        let util = 100.0 * total_busy / range;
        let label = track_label(key, &process_names, &thread_names);
        let _ = writeln!(out, "  {label:<label_width$} |{grid}| {util:>5.1}%");
    }

    if !stages.is_empty() {
        let stage_total: f64 = stages.values().map(|(_, d)| d).sum();
        let _ = writeln!(out, "\nstage occupancy (share of attributed span time)");
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>12} {:>8}",
            "stage", "spans", "total_ms", "share"
        );
        // Canonical stage order first, then anything unexpected.
        for stage in names::PIPELINE_STAGES {
            if let Some((count, dur)) = stages.get(stage) {
                let share = if stage_total > 0.0 {
                    100.0 * dur / stage_total
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {stage:<12} {count:>8} {:>12.3} {share:>7.1}%",
                    dur / 1000.0
                );
            }
        }
        for (stage, (count, dur)) in &stages {
            if !names::PIPELINE_STAGES.contains(&stage.as_str()) {
                let share = if stage_total > 0.0 {
                    100.0 * dur / stage_total
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {stage:<12} {count:>8} {:>12.3} {share:>7.1}%",
                    dur / 1000.0
                );
            }
        }
    }

    Ok(out)
}

fn track_label(
    key: &(u64, u64),
    process_names: &BTreeMap<u64, String>,
    thread_names: &BTreeMap<(u64, u64), String>,
) -> String {
    let process = process_names
        .get(&key.0)
        .cloned()
        .unwrap_or_else(|| format!("pid {}", key.0));
    let thread = thread_names
        .get(key)
        .cloned()
        .unwrap_or_else(|| format!("tid {}", key.1));
    format!("{process}/{thread}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: &str) -> Artifact {
        Artifact::parse(&format!(
            "{{\"traceEvents\": [{events}], \"displayTimeUnit\": \"ms\"}}"
        ))
        .unwrap()
    }

    #[test]
    fn gantt_renders_tracks_and_stage_summary() {
        let a = trace(concat!(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"workers"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker 0"}},"#,
            r#"{"name":"trace.stage.fetch","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":500.0,"args":{}},"#,
            r#"{"name":"trace.stage.compute","ph":"X","pid":1,"tid":0,"ts":500.0,"dur":1500.0,"args":{}},"#,
            r#"{"name":"trace.stage.sync","ph":"X","pid":1,"tid":0,"ts":2000.0,"dur":0.0,"args":{}}"#,
        ));
        let g = render_gantt(&a).unwrap();
        assert!(g.contains("workers/worker 0"), "{g}");
        assert!(g.contains('#'), "busy columns: {g}");
        assert!(g.contains("stage occupancy"), "{g}");
        assert!(g.contains("fetch"), "{g}");
        assert!(g.contains("25.0%"), "fetch share of 2000us attributed: {g}");
        // Track is busy the whole range: utilization 100%.
        assert!(g.contains("100.0%"), "{g}");
    }

    #[test]
    fn gantt_handles_empty_trace_and_rejects_logs() {
        let a =
            trace(r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"workers"}}"#);
        let g = render_gantt(&a).unwrap();
        assert!(g.contains("metadata-only"), "{g}");

        let log =
            Artifact::parse("{\"event\":\"epoch\",\"epoch\":1}\n{\"event\":\"final\"}\n").unwrap();
        assert!(render_gantt(&log).is_err());
        let not_trace = Artifact::parse("{\"samples_per_sec\": 5}").unwrap();
        assert!(render_gantt(&not_trace).is_err());
    }
}
