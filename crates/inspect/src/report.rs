//! The Figure 8-style run report: traffic and time breakdowns plus the
//! pipeline timeline, rendered from one telemetry JSONL log.
//!
//! The default report prints only *deterministic* quantities — simulated
//! seconds, exact traffic bytes, per-epoch AUC — so the same seed and
//! configuration reproduce the same report byte-for-byte (the
//! `inspect-smoke` golden comparison relies on this). Wall-clock sections
//! (per-stage wall histograms, profiler overhead) are added only when
//! `wall` is requested.

use crate::artifact::Artifact;
use hetgmp_telemetry::{names, HetGmpError, Json};
use std::fmt::Write as _;

/// The traffic classes of the paper's Figure 8, in display order.
const TRAFFIC_CLASSES: [&str; 3] = ["embed_data", "keys_clocks", "allreduce"];

/// The simulated-time categories, in display order.
const TIME_CATEGORIES: [&str; 6] = [
    "compute_secs",
    "embed_comm_secs",
    "meta_comm_secs",
    "allreduce_comm_secs",
    "host_io_secs",
    "fault_secs",
];

/// Renders the report for a loaded telemetry artifact. `wall` adds the
/// nondeterministic wall-clock sections.
pub fn render_report(artifact: &Artifact, wall: bool) -> Result<String, HetGmpError> {
    let Artifact::Telemetry { records, manifest } = artifact else {
        return Err(HetGmpError::data_unattributed(
            0,
            "`inspect report` reads a telemetry JSONL log (write one with --telemetry); \
             got a single JSON document — use `inspect pipeline` for traces or \
             `inspect diff` to compare two documents",
        ));
    };
    let Some(fin) = artifact.final_record() else {
        return Err(HetGmpError::data_unattributed(
            0,
            "telemetry log has no {\"event\":\"final\"} snapshot record",
        ));
    };
    let mut out = String::new();

    if let Some(m) = manifest {
        let _ = writeln!(
            out,
            "manifest: seed={} digest={} workers={} gemm_isa={} git={}{} profile={}",
            m.seed,
            m.config_digest,
            m.workers,
            m.gemm_isa.as_deref().unwrap_or("unknown"),
            m.git_rev,
            if m.git_dirty == Some(true) {
                "+dirty"
            } else {
                ""
            },
            m.build_profile,
        );
    } else {
        let _ = writeln!(out, "manifest: (none recorded)");
    }
    if let Some(system) = fin.get("system").and_then(Json::as_str) {
        let _ = writeln!(out, "system: {system}");
    }
    if let Some(auc) = fin.get("auc").and_then(Json::as_f64) {
        let _ = writeln!(out, "final auc: {auc:.4}");
    }

    let counter = |name: &str| -> f64 {
        fin.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let gauge = |name: &str| -> Option<f64> {
        fin.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
    };

    // ---- Algorithm 1 (present only when the hybrid partitioner ran) -----
    // Gated on the rounds counter: random and baseline partitions record
    // no partition.* at all. Rounds, moves and the per-round remote-fetch
    // scores are deterministic; the wall time prints only with --wall.
    let hist = |name: &str, field: &str| -> f64 {
        fin.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let rounds = counter(names::PARTITION_ROUNDS);
    if rounds > 0.0 {
        let _ = writeln!(out, "\npartitioner (Algorithm 1)");
        let _ = writeln!(
            out,
            "  {rounds:.0} round(s), {:.0} vertex move(s)",
            counter(names::PARTITION_MOVES)
        );
        let _ = writeln!(
            out,
            "  remote fetches per epoch after a round: best {:.0}, worst {:.0}; \
             {:.0} removed from the initial placement",
            hist(names::PARTITION_ROUND_SCORE, "min"),
            hist(names::PARTITION_ROUND_SCORE, "max"),
            hist(names::PARTITION_ROUND_IMPROVEMENT, "sum"),
        );
        if let Some(budget) = gauge(names::PARTITION_REPLICATION_BUDGET) {
            let _ = writeln!(
                out,
                "  replication: {:.0} secondary replica(s), budget {budget:.0} slot(s) per partition",
                counter(names::PARTITION_REPLICAS_CREATED),
            );
        }
        if wall {
            if let Some(secs) = gauge(names::PARTITION_WALL_SECS) {
                let _ = writeln!(out, "  wall time: {secs:.4} s");
            }
        }
    }

    // ---- Figure 8: traffic by class -------------------------------------
    let bytes: Vec<f64> = TRAFFIC_CLASSES
        .iter()
        .map(|c| counter(&format!("{}{c}", names::TRAFFIC_BYTES_PREFIX)))
        .collect();
    let total_bytes: f64 = bytes.iter().sum();
    let _ = writeln!(out, "\ntraffic breakdown (Fig. 8)");
    let _ = writeln!(
        out,
        "  {:<12} {:>14} {:>8} {:>10}",
        "class", "bytes", "share", "messages"
    );
    for (class, b) in TRAFFIC_CLASSES.iter().zip(&bytes) {
        let msgs = counter(&format!("{}{class}", names::TRAFFIC_MESSAGES_PREFIX));
        let share = if total_bytes > 0.0 {
            100.0 * b / total_bytes
        } else {
            0.0
        };
        let _ = writeln!(out, "  {class:<12} {b:>14.0} {share:>7.1}% {msgs:>10.0}");
    }

    // ---- Simulated time by category -------------------------------------
    // The time.* charges are recorded as histograms (per-epoch samples);
    // their sums are the totals. Gauges/counters are accepted as fallbacks
    // so hand-rolled logs still report.
    let hist_sum = |name: &str| -> Option<f64> {
        fin.get("histograms")?
            .get(name)?
            .get("sum")
            .and_then(Json::as_f64)
    };
    let secs: Vec<f64> = TIME_CATEGORIES
        .iter()
        .map(|c| {
            let name = format!("{}{c}", names::TIME_PREFIX);
            hist_sum(&name)
                .or_else(|| gauge(&name))
                .unwrap_or_else(|| counter(&name))
        })
        .collect();
    let total_secs: f64 = secs.iter().sum();
    let _ = writeln!(out, "\nsimulated time breakdown");
    let _ = writeln!(
        out,
        "  {:<20} {:>12} {:>8}",
        "category", "sim_secs", "share"
    );
    for (cat, s) in TIME_CATEGORIES.iter().zip(&secs) {
        if *s == 0.0 {
            continue;
        }
        let share = if total_secs > 0.0 {
            100.0 * s / total_secs
        } else {
            0.0
        };
        let _ = writeln!(out, "  {cat:<20} {s:>12.4} {share:>7.1}%");
    }

    // ---- Link classes of the grouped exchange ----------------------------
    // One row per link class that carried a transfer
    // (`traffic.link.<class>.transfers`). Latency is what each group paid
    // once per link resource; bandwidth is the bytes behind it.
    let link_classes: Vec<&str> = fin
        .get("counters")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, _)| {
            k.strip_prefix(names::TRAFFIC_LINK_PREFIX)?
                .strip_suffix(".transfers")
        })
        .collect();
    if !link_classes.is_empty() {
        let link =
            |class: &str, what: &str| format!("{}{class}.{what}", names::TRAFFIC_LINK_PREFIX);
        let _ = writeln!(out, "\nlinks (grouped exchange, summed over workers)");
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>14} {:>16} {:>9}",
            "class", "transfers", "latency_secs", "bandwidth_secs", "latency"
        );
        let (mut lat_total, mut busy_total) = (0.0, 0.0);
        for class in link_classes {
            let lat = gauge(&link(class, "latency_secs")).unwrap_or(0.0);
            let bw = gauge(&link(class, "bandwidth_secs")).unwrap_or(0.0);
            let share = if lat + bw > 0.0 {
                100.0 * lat / (lat + bw)
            } else {
                0.0
            };
            let n = counter(&link(class, "transfers"));
            let _ = writeln!(
                out,
                "  {class:<14} {n:>10.0} {lat:>14.4} {bw:>16.4} {share:>8.1}%"
            );
            lat_total += lat;
            busy_total += lat + bw;
        }
        if busy_total > 0.0 {
            let _ = writeln!(
                out,
                "  latency share of charged link time: {:.1}%",
                100.0 * lat_total / busy_total
            );
        }
    }

    // ---- Per-stage simulated attribution ---------------------------------
    let stage_hist = |stage: &str, kind: &str| -> Option<(f64, f64, f64)> {
        let h = fin.get("histograms")?.get(&format!(
            "{}{stage}.{kind}_secs",
            names::PIPELINE_STAGE_PREFIX
        ))?;
        Some((
            h.get("count")?.as_f64()?,
            h.get("sum")?.as_f64()?,
            h.get("p95").and_then(Json::as_f64).unwrap_or(0.0),
        ))
    };
    if names::PIPELINE_STAGES
        .iter()
        .any(|s| stage_hist(s, "sim").is_some())
    {
        let _ = writeln!(out, "\npipeline stages (simulated, per batch)");
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>12} {:>12}",
            "stage", "batches", "total_secs", "p95_secs"
        );
        for stage in names::PIPELINE_STAGES {
            if let Some((count, sum, p95)) = stage_hist(stage, "sim") {
                let _ = writeln!(out, "  {stage:<12} {count:>10.0} {sum:>12.4} {p95:>12.6}");
            }
        }
    }

    // ---- Runtime shape ---------------------------------------------------
    if let Some(overlap) = gauge(names::PIPELINE_OVERLAP_RATIO) {
        let _ = writeln!(out, "\npipeline: overlap_ratio={overlap:.3}");
    }
    // ---- Tiered storage (present only when the run spilled) --------------
    // Gated on the budget gauge: in-memory runs record no capacity.* at
    // all, so memory-run reports (and the inspect-smoke golden) are
    // unchanged. resident/spilled are disjoint — resident is what
    // heap_bytes reports as RAM, spilled lives in the spill file on disk —
    // so the two lines never double-count a page.
    if let Some(budget) = gauge(names::CAPACITY_BUDGET_BYTES) {
        let resident = gauge(names::CAPACITY_RESIDENT_BYTES).unwrap_or(0.0);
        let spilled = gauge(names::CAPACITY_SPILLED_BYTES).unwrap_or(0.0);
        let mib = 1024.0 * 1024.0;
        let _ = writeln!(out, "\ntiered storage");
        let _ = writeln!(
            out,
            "  budget {:.1} MiB: {:.1} MiB resident (RAM) + {:.1} MiB spilled (disk)",
            budget / mib,
            resident / mib,
            spilled / mib,
        );
        let _ = writeln!(
            out,
            "  faults: {:.0} page load(s), {:.0} eviction(s), {:.0} dirty write-back(s)",
            counter(names::CAPACITY_FAULT_LOADS),
            counter(names::CAPACITY_FAULT_EVICTIONS),
            counter(names::CAPACITY_FAULT_WRITEBACKS),
        );
        // What a fault costs is wall time, so it prints with the other
        // nondeterministic figures only.
        if wall {
            for (what, secs, bytes) in [
                (
                    "load",
                    names::CAPACITY_FAULT_LOAD_SECS,
                    names::CAPACITY_SPILL_BYTES_READ,
                ),
                (
                    "write-back",
                    names::CAPACITY_FAULT_WRITEBACK_SECS,
                    names::CAPACITY_SPILL_BYTES_WRITTEN,
                ),
            ] {
                let Some(h) = fin.get("histograms").and_then(|hs| hs.get(secs)) else {
                    continue;
                };
                let field = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  mean {what} cost: {:.1} us over {:.0} ({:.4} s total, {:.1} MiB)",
                    field("mean") * 1e6,
                    field("count"),
                    field("sum"),
                    counter(bytes) / mib,
                );
            }
        }
    }

    // ---- Hot-loop read path ----------------------------------------------
    // Gated on the mode gauge so logs written before the read-path knob
    // existed render unchanged. The label names the knob, not a mechanism:
    // the in-memory table serves both arms with the same locked batch
    // read. Only the *mode* is deterministic; the tiered store's
    // resident/faulted split depends on the run's timing, so the counters
    // live in the wall-clock section below.
    if let Some(mode) = gauge(names::HOTPATH_READ_MODE) {
        let _ = writeln!(
            out,
            "\nread path: {}",
            if mode >= 1.0 {
                "snapshot (default)"
            } else {
                "locked (differential oracle)"
            }
        );
    }

    let epochs: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("event").and_then(Json::as_str) == Some("epoch"))
        .collect();
    if !epochs.is_empty() {
        let _ = writeln!(out, "\nepoch timeline");
        let _ = writeln!(out, "  {:<6} {:>12} {:>8}", "epoch", "sim_secs", "auc");
        for e in &epochs {
            let _ = writeln!(
                out,
                "  {:<6} {:>12.4} {:>8.4}",
                e.get("epoch").and_then(Json::as_u64).unwrap_or(0),
                e.get("sim_time_secs").and_then(Json::as_f64).unwrap_or(0.0),
                e.get("auc").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }

    // ---- Wall-clock sections (nondeterministic; opt-in) ------------------
    if wall {
        let _ = writeln!(out, "\nwall-clock (nondeterministic)");
        if let Some(v) = gauge(names::HOTPATH_SAMPLES_PER_SEC) {
            let _ = writeln!(out, "  hotpath.samples_per_sec    {v:.0}");
        }
        if let Some(v) = gauge(names::TELEMETRY_OVERHEAD_SECS) {
            let _ = writeln!(out, "  telemetry.overhead_secs    {v:.6}");
        }
        if gauge(names::HOTPATH_READ_MODE).is_some() {
            let snap = counter(names::HOTPATH_READ_SNAPSHOT);
            let retries = counter(names::HOTPATH_READ_RETRIES);
            let fallback = counter(names::HOTPATH_READ_FALLBACK);
            let attempts = snap + retries;
            let retry_rate = if attempts > 0.0 {
                retries / attempts
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  hotpath.read: snapshot={snap:.0} fallback={fallback:.0} \
                 retries={retries:.0} (retry rate {retry_rate:.4})"
            );
        }
        let any_wall = names::PIPELINE_STAGES
            .iter()
            .any(|s| stage_hist(s, "wall").is_some());
        if any_wall {
            let _ = writeln!(out, "  per-stage wall histograms (per batch):");
            for stage in names::PIPELINE_STAGES {
                if let Some((count, sum, p95)) = stage_hist(stage, "wall") {
                    let _ = writeln!(
                        out,
                        "    {stage:<12} batches={count:<8.0} total={sum:<10.4}s p95={p95:.6}s"
                    );
                }
            }
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_telemetry::RunManifest;

    fn sample_log() -> String {
        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 4);
        format!(
            "{}\n{}\n{}\n",
            m.to_record().render(),
            r#"{"event":"epoch","epoch":1,"sim_time_secs":2.5,"auc":0.71}"#,
            concat!(
                r#"{"event":"final","system":"HET-GMP(s=100)","auc":0.72,"#,
                r#""counters":{"traffic.bytes.embed_data":600,"traffic.bytes.keys_clocks":100,"#,
                r#""traffic.bytes.allreduce":300,"traffic.messages.embed_data":6},"#,
                r#""gauges":{"time.compute_secs":1.0,"time.embed_comm_secs":0.5,"#,
                r#""pipeline.overlap_ratio":0.9,"#,
                r#""telemetry.overhead_secs":0.002},"#,
                r#""histograms":{"pipeline.stage.fetch.sim_secs":"#,
                r#"{"count":10,"sum":0.5,"min":0.04,"max":0.06,"mean":0.05,"#,
                r#""p50":0.05,"p95":0.06,"p99":0.06}}}"#,
            ),
        )
    }

    #[test]
    fn report_contains_fig8_and_timeline_sections() {
        let a = Artifact::parse(&sample_log()).unwrap();
        let r = render_report(&a, false).unwrap();
        assert!(r.contains("traffic breakdown (Fig. 8)"), "{r}");
        assert!(r.contains("embed_data"), "{r}");
        assert!(r.contains("60.0%"), "embed_data share: {r}");
        assert!(r.contains("simulated time breakdown"), "{r}");
        assert!(r.contains("epoch timeline"), "{r}");
        assert!(r.contains("manifest: seed=7"), "{r}");
        // Deterministic by default: no wall-clock section.
        assert!(!r.contains("wall-clock"), "{r}");

        let with_wall = render_report(&a, true).unwrap();
        assert!(with_wall.contains("telemetry.overhead_secs"), "{with_wall}");
    }

    #[test]
    fn links_section_lists_each_link_class_with_its_latency_share() {
        let a = Artifact::parse(&sample_log()).unwrap();
        assert!(!render_report(&a, false).unwrap().contains("links (grouped"));

        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 4);
        let log = format!(
            "{}\n{}\n",
            m.to_record().render(),
            concat!(
                r#"{"event":"final","system":"HET-GMP(s=100)","auc":0.70,"#,
                r#""counters":{"traffic.link.pcie3.transfers":40,"traffic.link.qpi.transfers":8},"#,
                r#""gauges":{"traffic.link.pcie3.latency_secs":0.003,"#,
                r#""traffic.link.pcie3.bandwidth_secs":0.001,"#,
                r#""traffic.link.qpi.latency_secs":0.001,"traffic.link.qpi.bandwidth_secs":0.003}}"#,
            ),
        );
        let r = render_report(&Artifact::parse(&log).unwrap(), false).unwrap();
        assert!(r.contains("links (grouped exchange"), "{r}");
        assert!(r.contains("pcie3"), "{r}");
        assert!(
            r.contains("75.0%") && r.contains("25.0%"),
            "per-class shares: {r}"
        );
        assert!(
            r.contains("latency share of charged link time: 50.0%"),
            "{r}"
        );
    }

    #[test]
    fn capacity_section_appears_only_for_tiered_runs() {
        // The memory-run sample log has no capacity.* gauges: no section.
        let a = Artifact::parse(&sample_log()).unwrap();
        let r = render_report(&a, false).unwrap();
        assert!(!r.contains("tiered storage"), "{r}");

        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 1);
        let log = format!(
            "{}\n{}\n",
            m.to_record().render(),
            concat!(
                r#"{"event":"final","system":"HET-GMP(s=0)","auc":0.70,"#,
                r#""counters":{"capacity.fault.loads":120,"capacity.fault.evictions":118,"#,
                r#""capacity.fault.writebacks":40,"capacity.spill.bytes_read":7864320},"#,
                r#""gauges":{"capacity.budget_bytes":1048576,"#,
                r#""capacity.resident_bytes":1048576,"capacity.spilled_bytes":2097152},"#,
                r#""histograms":{"capacity.fault.load_secs":"#,
                r#"{"count":120,"sum":0.006,"min":0.00004,"max":0.00007,"mean":0.00005,"#,
                r#""p50":0.00005,"p95":0.00007,"p99":0.00007}}}"#,
            ),
        );
        let a = Artifact::parse(&log).unwrap();
        let r = render_report(&a, false).unwrap();
        assert!(r.contains("tiered storage"), "{r}");
        // Resident and spilled are reported side by side, never summed into
        // one "RAM" figure — the split is the whole point.
        assert!(
            r.contains("budget 1.0 MiB: 1.0 MiB resident (RAM) + 2.0 MiB spilled (disk)"),
            "{r}"
        );
        assert!(
            r.contains("faults: 120 page load(s), 118 eviction(s), 40 dirty write-back(s)"),
            "{r}"
        );
        // Fault cost is wall time: absent by default, present with --wall.
        assert!(!r.contains("mean load cost"), "{r}");
        let with_wall = render_report(&a, true).unwrap();
        assert!(
            with_wall.contains("mean load cost: 50.0 us over 120 (0.0060 s total, 7.5 MiB)"),
            "{with_wall}"
        );
    }

    #[test]
    fn partitioner_section_appears_only_when_algorithm_1_ran() {
        // The sample log records no partition.* metrics: no section.
        let a = Artifact::parse(&sample_log()).unwrap();
        assert!(!render_report(&a, true).unwrap().contains("partitioner"));

        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 4);
        let log = format!(
            "{}\n{}\n",
            m.to_record().render(),
            concat!(
                r#"{"event":"final","system":"HET-GMP(s=100)","auc":0.70,"#,
                r#""counters":{"partition.rounds":3,"partition.moves":40508,"#,
                r#""partition.replicas.created":560},"#,
                r#""gauges":{"partition.replication.budget":140,"partition.wall_secs":0.0731},"#,
                r#""histograms":{"partition.round.remote_fetches":"#,
                r#"{"count":3,"sum":283000,"min":89000,"max":101000,"mean":94333,"#,
                r#""p50":93000,"p95":101000,"p99":101000},"#,
                r#""partition.round.improvement":"#,
                r#"{"count":3,"sum":802000,"min":4000,"max":790000,"mean":267333,"#,
                r#""p50":8000,"p95":790000,"p99":790000}}}"#,
            ),
        );
        let a = Artifact::parse(&log).unwrap();
        let r = render_report(&a, false).unwrap();
        let section = concat!(
            "partitioner (Algorithm 1)\n",
            "  3 round(s), 40508 vertex move(s)\n",
            "  remote fetches per epoch after a round: best 89000, worst 101000; ",
            "802000 removed from the initial placement\n",
            "  replication: 560 secondary replica(s), budget 140 slot(s) per partition\n",
        );
        assert!(r.contains(section), "{r}");
        // Partitioning time is wall time: absent by default.
        assert!(!r.contains("wall time"), "{r}");
        let w = render_report(&a, true).unwrap();
        assert!(
            w.contains(&format!("{section}  wall time: 0.0731 s\n")),
            "{w}"
        );
    }

    #[test]
    fn read_path_section_is_gated_on_the_mode_gauge() {
        // Logs written before the read-path knob existed have no mode
        // gauge: no section, deterministic or wall.
        let a = Artifact::parse(&sample_log()).unwrap();
        assert!(
            !render_report(&a, true).unwrap().contains("read path"),
            "old log grew a section"
        );

        let m = RunManifest::new(7, RunManifest::digest_of("cfg"), 1);
        let log = format!(
            "{}\n{}\n",
            m.to_record().render(),
            concat!(
                r#"{"event":"final","system":"HET-GMP(s=0)","auc":0.70,"#,
                r#""counters":{"hotpath.read.snapshot":9990,"hotpath.read.retries":10,"#,
                r#""hotpath.read.fallback":2},"#,
                r#""gauges":{"hotpath.read.mode":1.0}}"#,
            ),
        );
        let a = Artifact::parse(&log).unwrap();
        let r = render_report(&a, false).unwrap();
        // The mode line is deterministic; the counters are wall-only
        // because the snapshot/fallback split depends on thread timing.
        assert!(r.contains("read path: snapshot (default)"), "{r}");
        assert!(!r.contains("seqlock"), "{r}");
        assert!(!r.contains("hotpath.read:"), "{r}");
        let w = render_report(&a, true).unwrap();
        assert!(
            w.contains("hotpath.read: snapshot=9990 fallback=2 retries=10 (retry rate 0.0010)"),
            "{w}"
        );
    }

    #[test]
    fn report_rejects_documents_and_finalless_logs() {
        let doc = Artifact::parse("{\"samples_per_sec\": 10}").unwrap();
        assert!(render_report(&doc, false).is_err());
        let log = Artifact::parse(
            "{\"event\":\"epoch\",\"epoch\":1}\n{\"event\":\"epoch\",\"epoch\":2}\n",
        )
        .unwrap();
        assert!(render_report(&log, false).is_err());
    }
}
