//! The one charge path: every simulated second a worker spends on the
//! wire, and every `traffic.bytes.*` / `traffic.messages.*` count, comes
//! from [`charge`].
//!
//! Each phase of a step yields a list of [`Transfer`]s: the read exchange,
//! the write-back exchange, the epoch-end flush, the replica re-prime, the
//! crash re-prime. `charge` issues each list as one group under the cost
//! model's grouped-issue rule ([`CostModel::group_schedule_at`]), counts one
//! message per transfer into the charging worker's recorder, lays the
//! transfers' trace spans out from the group's schedule, tallies each link
//! class's busy seconds and advances the clock. The dense collective
//! ([`Phases::Dense`]) keeps its own collective cost and goes through the
//! same recorder and clock.

use hetgmp_cluster::{CostModel, GroupSchedule, LinkClass, SimClock, TimeCategory};
use hetgmp_comms::TrafficClass;
use hetgmp_embedding::report::META_ENTRY_BYTES;
use hetgmp_embedding::{ReadReport, UpdateReport};
use hetgmp_telemetry::{names, Json, Recorder, TraceCollector};

/// The peer of a transfer to or from the CPU parameter server.
const HOST: usize = usize::MAX;

/// One transfer of a phase: `bytes` of one traffic class between the
/// charging worker and `peer`, carrying `rows` rows (or metadata entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transfer {
    pub(crate) peer: usize,
    pub(crate) class: TrafficClass,
    pub(crate) bytes: u64,
    pub(crate) rows: u64,
}

impl Transfer {
    /// An exchange phase's transfers: one embedding-data transfer per peer
    /// that moved rows, then one keys/clocks transfer per peer that
    /// exchanged metadata.
    pub(crate) fn exchange(
        data_by_peer: &[u64],
        meta_by_peer: &[u64],
        row_bytes: u64,
    ) -> Vec<Self> {
        let mut out = Vec::new();
        for (class, by_peer, unit) in [
            (TrafficClass::EmbedData, data_by_peer, row_bytes),
            (TrafficClass::KeysClocks, meta_by_peer, META_ENTRY_BYTES),
        ] {
            for (peer, &bytes) in by_peer.iter().enumerate().filter(|(_, &b)| b > 0) {
                let rows = bytes / unit.max(1);
                out.push(Transfer {
                    peer,
                    class,
                    bytes,
                    rows,
                });
            }
        }
        out
    }

    /// A re-prime's transfers: `rows_by_owner[o]` rows from owner `o`.
    pub(crate) fn rows(rows_by_owner: &[u64], row_bytes: u64) -> Vec<Self> {
        let bytes: Vec<u64> = rows_by_owner
            .iter()
            .map(|&r| r.saturating_mul(row_bytes))
            .collect();
        Self::exchange(&bytes, &[], row_bytes)
    }

    /// A CPU-PS phase: `rows` rows and their metadata, all over the host
    /// link. Every row crosses it, local or not: `rows · row_bytes` of data
    /// and `rows · META_ENTRY_BYTES` of keys and clocks. Nothing for no rows.
    fn host(rows: u64, row_bytes: u64) -> Vec<Self> {
        if rows == 0 {
            return Vec::new();
        }
        let host = |class, bytes| Transfer {
            peer: HOST,
            class,
            bytes,
            rows,
        };
        vec![
            host(TrafficClass::EmbedData, rows * row_bytes),
            host(TrafficClass::KeysClocks, rows * META_ENTRY_BYTES),
        ]
    }
}

/// Busy seconds and transfers one link class accumulated, over every group
/// a worker issued.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LinkTally {
    pub(crate) latency: f64,
    pub(crate) bandwidth: f64,
    pub(crate) transfers: u64,
}

/// One [`LinkTally`] per [`LinkClass::ALL`] entry.
pub(crate) type LinkTallies = [LinkTally; LinkClass::ALL.len()];

/// Publishes the run's summed tallies as `traffic.link.<class>.*`: the
/// busy-second gauges and the transfer counter, for every class used.
pub(crate) fn publish_links(recorder: &Recorder, tallies: impl Iterator<Item = LinkTallies>) {
    let mut sum = LinkTallies::default();
    for t in tallies {
        for (s, x) in sum.iter_mut().zip(t) {
            s.latency += x.latency;
            s.bandwidth += x.bandwidth;
            s.transfers += x.transfers;
        }
    }
    for (class, s) in LinkClass::ALL
        .iter()
        .zip(sum)
        .filter(|(_, s)| s.transfers > 0)
    {
        let name = |what: &str| format!("{}{}.{what}", names::TRAFFIC_LINK_PREFIX, class.label());
        recorder.gauge_set(&name("latency_secs"), s.latency);
        recorder.gauge_set(&name("bandwidth_secs"), s.bandwidth);
        recorder.counter_add(&name("transfers"), s.transfers);
    }
}

/// What [`charge`] charges against: the cost model, and where the traffic
/// is recorded.
pub(crate) struct Wire<'a> {
    pub(crate) cost: &'a CostModel,
    /// The charging worker's recorder, which its traffic is counted into.
    pub(crate) recorder: &'a Recorder,
    pub(crate) tracer: Option<&'a TraceCollector>,
    /// Embeddings live on a CPU parameter server: a step's rows all cross
    /// the shared host link (see [`Phases::Step`]).
    pub(crate) host_ps: bool,
    /// Wire bytes of one embedding row.
    pub(crate) row_bytes: u64,
}

impl Wire<'_> {
    /// A training step's read and write-back transfers, from the reports
    /// of its read and its routed write-back.
    pub(crate) fn step(
        &self,
        read: &ReadReport,
        up: &UpdateReport,
    ) -> (Vec<Transfer>, Vec<Transfer>) {
        if self.host_ps {
            return (
                Transfer::host(read.lookups(), self.row_bytes),
                Transfer::host(up.updates(), self.row_bytes),
            );
        }
        (
            Transfer::exchange(
                &read.data_bytes_by_src,
                &read.meta_bytes_by_src,
                self.row_bytes,
            ),
            Transfer::exchange(&up.data_bytes_by_dst, &up.meta_bytes_by_dst, self.row_bytes),
        )
    }
}

/// The dense collective of a step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dense {
    /// Ring AllReduce of this many payload bytes across every worker.
    Ring(u64),
    /// Push gradients and pull parameters, this many payload bytes each
    /// way, over the parameter server's shared host link.
    HostPs(u64),
}

/// What one [`charge`] call charges.
pub(crate) enum Phases<'t> {
    /// A training step: the read group, then the write-back group. Their
    /// data time hides behind `overlap` seconds of compute when given.
    ///
    /// Under a CPU parameter server every row of both groups crosses the
    /// host link, which the `N` workers share: the step pays the host link
    /// for `rows · row_bytes · N` bytes of data and `rows · 12 · N` bytes of
    /// metadata, and the data time is split between the groups by rows. The
    /// recorder counts each worker's own `rows · row_bytes` and `rows · 12`.
    Step {
        read: &'t [Transfer],
        write: &'t [Transfer],
        overlap: Option<f64>,
    },
    /// One barrier group, charged in full: `"flush"` or `"reprime"`.
    Barrier(&'static str, &'t [Transfer]),
    /// The crash re-prime: issued and recorded as a barrier group
    /// (`"recovery"`), but the clock is left alone, because the caller folds
    /// the time into its recovery charge.
    Recovery(&'t [Transfer]),
    /// The dense collective.
    Dense(Dense),
}

/// What a [`charge`] cost, in simulated seconds: the data time of each
/// group (the collective's time, for [`Phases::Dense`]) and what the
/// metadata added on top of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Charged {
    pub(crate) data: [f64; 2],
    pub(crate) meta: f64,
}

impl Charged {
    pub(crate) fn total(&self) -> f64 {
        self.data[0] + self.data[1] + self.meta
    }
}

/// Charges `phases` for worker `w`: records their traffic
/// ([`record_traffic`]), tallies their link time into `links` and advances
/// `clock`.
///
/// Embedding data advances [`TimeCategory::EmbedComm`] by each group's
/// data-only time. Metadata advances [`TimeCategory::MetaComm`] by what it
/// adds to those groups: keys and clocks ride the same links as the rows
/// they describe. The collective advances [`TimeCategory::AllReduceComm`].
pub(crate) fn charge(
    wire: &Wire<'_>,
    w: usize,
    clock: &mut SimClock,
    links: &mut LinkTallies,
    phases: Phases<'_>,
) -> Charged {
    let start = clock.now();
    let record = |transfers: &[Transfer]| {
        for class in [TrafficClass::EmbedData, TrafficClass::KeysClocks] {
            let of_class = transfers.iter().filter(|t| t.class == class);
            let (bytes, messages) = of_class.fold((0, 0), |(b, m), t| (b + t.bytes, m + 1));
            if messages > 0 {
                record_traffic(wire, w, class, bytes, messages);
            }
        }
    };
    match phases {
        Phases::Step {
            read,
            write,
            overlap,
        } => {
            let charged = if wire.host_ps {
                host_ps_step(wire, w, read, write, start, links)
            } else {
                let r = issue(wire, w, "read", read, start, links);
                let up = issue(wire, w, "write_back", write, start + r.total(), links);
                Charged {
                    data: [r.data[0], up.data[0]],
                    meta: r.meta + up.meta,
                }
            };
            record(&[read, write].concat());
            let embed = charged.data[0] + charged.data[1];
            match overlap {
                Some(window) => clock.advance_overlapped(TimeCategory::EmbedComm, embed, window),
                None => clock.advance(TimeCategory::EmbedComm, embed),
            }
            clock.advance(TimeCategory::MetaComm, charged.meta);
            charged
        }
        Phases::Barrier(_, []) | Phases::Recovery([]) => Charged::default(),
        Phases::Barrier(phase, transfers) => {
            let charged = issue(wire, w, phase, transfers, start, links);
            record(transfers);
            clock.advance(TimeCategory::EmbedComm, charged.data[0]);
            if charged.meta > 0.0 {
                clock.advance(TimeCategory::MetaComm, charged.meta);
            }
            charged
        }
        Phases::Recovery(transfers) => {
            let charged = issue(wire, w, "recovery", transfers, start, links);
            record(transfers);
            charged
        }
        Phases::Dense(dense) => {
            let n = wire.cost.topology.num_workers();
            let (t, label, payload, wire_bytes, messages) = match dense {
                Dense::Ring(payload) => {
                    // The ring's bottleneck hop names the span's track.
                    let label = if n > 1 {
                        wire.cost.topology.link(w, (w + 1) % n).label()
                    } else {
                        LinkClass::Local.label()
                    };
                    let ring = if n > 1 {
                        2 * (n as u64 - 1) * payload / n as u64
                    } else {
                        0
                    };
                    (
                        wire.cost.allreduce_time_at(payload, start),
                        label,
                        payload,
                        ring,
                        1,
                    )
                }
                Dense::HostPs(payload) => {
                    let t = wire
                        .cost
                        .link_transfer_time(LinkClass::HostPcie, 2 * payload * n as u64);
                    (t, LinkClass::HostPcie.label(), 2 * payload, 2 * payload, 2)
                }
            };
            if let Some(tr) = wire.tracer {
                let args = [
                    ("worker", Json::U64(w as u64)),
                    ("bytes", Json::U64(payload)),
                ];
                tr.link_span(label, names::TRACE_ALLREDUCE, start, t, &args);
            }
            record_traffic(wire, w, TrafficClass::AllReduce, wire_bytes, messages);
            clock.advance(TimeCategory::AllReduceComm, t);
            Charged {
                data: [t, 0.0],
                meta: 0.0,
            }
        }
    }
}

/// Counts `bytes` in `messages` transfers of `class` into worker `w`'s
/// recorder: `traffic.bytes.<class>` on every call,
/// `traffic.messages.<class>` when `messages > 0`, and a `trace.traffic`
/// instant on the worker's track (sync trace level).
fn record_traffic(wire: &Wire<'_>, w: usize, class: TrafficClass, bytes: u64, messages: u64) {
    let r = wire.recorder;
    r.counter_add(class.bytes_metric(), bytes);
    if messages > 0 {
        r.counter_add(class.messages_metric(), messages);
    }
    if let Some(t) = wire.tracer {
        t.worker_instant(
            w,
            names::TRACE_TRAFFIC,
            &[
                ("class", Json::from(class.metric_suffix())),
                ("bytes", Json::U64(bytes)),
                ("messages", Json::U64(messages)),
            ],
        );
    }
}

/// The cost model's view of `transfers`.
fn links_of(transfers: &[Transfer]) -> Vec<hetgmp_cluster::Transfer> {
    transfers
        .iter()
        .map(|t| hetgmp_cluster::Transfer {
            peer: t.peer,
            bytes: t.bytes,
        })
        .collect()
}

/// Issues one group at `at`: its data-only time, what its metadata adds,
/// its link tallies and its trace spans. Data transfers come first in the
/// list ([`Transfer::exchange`]), so the data-only group is a prefix.
fn issue(
    wire: &Wire<'_>,
    w: usize,
    phase: &str,
    transfers: &[Transfer],
    at: f64,
    links: &mut LinkTallies,
) -> Charged {
    let all = links_of(transfers);
    let n_data = transfers
        .iter()
        .take_while(|t| t.class == TrafficClass::EmbedData)
        .count();
    let sched = wire.cost.group_schedule_at(w, &all, at);
    let data = if n_data == all.len() {
        sched.secs
    } else {
        wire.cost.group_schedule_at(w, &all[..n_data], at).secs
    };
    tally(links, &sched);
    if let Some(tr) = wire.tracer {
        for (t, slot) in transfers.iter().zip(&sched.slots) {
            let class = wire.cost.topology.link(w, t.peer);
            if class == LinkClass::Local {
                continue;
            }
            tr.link_span(
                class.label(),
                names::TRACE_LINK_TRANSFER,
                at + slot.start,
                slot.secs,
                &[
                    ("dir", Json::from(phase)),
                    ("class", Json::from(t.class.metric_suffix())),
                    ("worker", Json::U64(w as u64)),
                    ("peer", Json::U64(t.peer as u64)),
                    ("bytes", Json::U64(t.bytes)),
                ],
            );
        }
    }
    Charged {
        data: [data, 0.0],
        meta: (sched.secs - data).max(0.0),
    }
}

fn tally(links: &mut LinkTallies, sched: &GroupSchedule) {
    for busy in &sched.busy {
        if let Some(i) = LinkClass::ALL.iter().position(|&c| c == busy.class) {
            links[i].latency += busy.latency;
            links[i].bandwidth += busy.bandwidth;
            links[i].transfers += busy.transfers;
        }
    }
}

/// The CPU parameter server's step: see [`Phases::Step`].
fn host_ps_step(
    wire: &Wire<'_>,
    w: usize,
    read: &[Transfer],
    write: &[Transfer],
    start: f64,
    links: &mut LinkTallies,
) -> Charged {
    let rows = |ts: &[Transfer]| -> u64 {
        ts.iter()
            .filter(|t| t.class == TrafficClass::EmbedData)
            .map(|t| t.rows)
            .sum()
    };
    let (lookups, updates) = (rows(read), rows(write));
    let n = wire.cost.topology.num_workers() as u64;
    let host = LinkClass::HostPcie;
    let data_bytes = (lookups + updates) * wire.row_bytes * n;
    let t = wire.cost.link_transfer_time(host, data_bytes);
    let mt = wire
        .cost
        .link_transfer_time(host, (lookups + updates) * META_ENTRY_BYTES * n);
    if let Some(tr) = wire.tracer.filter(|_| data_bytes > 0) {
        let args = [
            ("worker", Json::U64(w as u64)),
            ("bytes", Json::U64(data_bytes)),
        ];
        tr.link_span(host.label(), names::TRACE_LINK_TRANSFER, start, t, &args);
    }
    let i = LinkClass::ALL
        .iter()
        .position(|&c| c == host)
        .expect("host link is a link class");
    links[i].latency += 2.0 * host.latency();
    links[i].bandwidth += (t - host.latency()) + (mt - host.latency());
    links[i].transfers += (read.len() + write.len()) as u64;
    let read_frac = if lookups + updates > 0 {
        lookups as f64 / (lookups + updates) as f64
    } else {
        0.0
    };
    Charged {
        data: [t * read_frac, t * (1.0 - read_frac)],
        meta: mt,
    }
}

#[cfg(test)]
mod tests {
    use hetgmp_cluster::Topology;
    use hetgmp_telemetry::{MetricsRegistry, TraceLevel, TraceTrack};

    use super::*;

    fn wire<'a>(cost: &'a CostModel, recorder: &'a Recorder) -> Wire<'a> {
        Wire {
            cost,
            recorder,
            tracer: None,
            host_ps: false,
            row_bytes: 64,
        }
    }

    #[test]
    fn a_step_records_one_message_per_transfer_and_charges_grouped_time() {
        let cost = CostModel::new(Topology::pcie_island(4));
        let registry = MetricsRegistry::new(4);
        let rec = registry.worker(0);
        let wire = wire(&cost, &rec);
        let read = Transfer::exchange(&[0, 640, 0, 128], &[0, 120, 0, 24], 64);
        let write = Transfer::exchange(&[0, 0, 64, 0], &[0, 0, 12, 0], 64);
        assert_eq!(read.len(), 4);
        assert_eq!(
            read[0],
            Transfer {
                peer: 1,
                class: TrafficClass::EmbedData,
                bytes: 640,
                rows: 10
            }
        );
        let (mut clock, mut links) = (SimClock::new(), LinkTallies::default());
        let step = Phases::Step {
            read: &read,
            write: &write,
            overlap: None,
        };
        let c = charge(&wire, 0, &mut clock, &mut links, step);
        // Two transfers per class in the read, one per class in the write.
        assert_eq!(rec.counter(TrafficClass::EmbedData.messages_metric()), 3);
        assert_eq!(rec.counter(TrafficClass::KeysClocks.messages_metric()), 3);
        assert_eq!(rec.counter(TrafficClass::EmbedData.bytes_metric()), 832);
        assert_eq!(rec.counter(TrafficClass::KeysClocks.bytes_metric()), 156);
        // Only the charging worker's recorder sees the traffic.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_prefix_sum(names::TRAFFIC_BYTES_PREFIX),
            832 + 156
        );
        // Both read peers queue on the one PCIe port: one latency.
        let bw = LinkClass::Pcie3.bandwidth();
        let expect_read = LinkClass::Pcie3.latency() + 768.0 / bw;
        assert!((c.data[0] - expect_read).abs() < 1e-15, "{c:?}");
        assert_eq!(c.data[1], cost.transfer_time(0, 2, 64));
        // The metadata adds only its bytes: its latency hides in the group's.
        assert!((c.meta - 156.0 / bw).abs() < 1e-15, "{c:?}");
        assert_eq!(clock.breakdown().embed_comm, c.data[0] + c.data[1]);
        assert_eq!(clock.breakdown().meta_comm, c.meta);
        let pcie = links[2];
        assert_eq!(pcie.transfers, 6);
        assert_eq!(pcie.latency, 2.0 * LinkClass::Pcie3.latency());
    }

    #[test]
    fn recovery_is_priced_and_recorded() {
        let cost = CostModel::new(Topology::nvlink_island(4));
        let registry = MetricsRegistry::new(4);
        let rec = registry.worker(0);
        let wire = wire(&cost, &rec);
        let reprime = Transfer::rows(&[0, 3, 3, 0], 64);
        let (mut clock, mut links) = (SimClock::new(), LinkTallies::default());
        let c = charge(&wire, 0, &mut clock, &mut links, Phases::Recovery(&reprime));
        // Two NVLink peers, two links: the group costs one transfer.
        assert_eq!(c.total(), cost.transfer_time(0, 1, 192));
        // The caller folds the time into its recovery charge: the clock
        // stays put, but the recorder and the link tallies see the group.
        assert_eq!(clock.now(), 0.0);
        assert_eq!(rec.counter(TrafficClass::EmbedData.messages_metric()), 2);
        assert_eq!(rec.counter(TrafficClass::EmbedData.bytes_metric()), 384);
        let nvlink = |l: &LinkTallies| {
            l[LinkClass::ALL
                .iter()
                .position(|&c| c == LinkClass::NvLink)
                .unwrap()]
        };
        assert_eq!(nvlink(&links).transfers, 2);
        // The same rows at a barrier are charged, recorded and tallied alike.
        let recovery_links = links;
        let c = charge(
            &wire,
            0,
            &mut clock,
            &mut links,
            Phases::Barrier("reprime", &reprime),
        );
        assert_eq!(clock.now(), c.total());
        assert_eq!(rec.counter(TrafficClass::EmbedData.messages_metric()), 4);
        assert_eq!(rec.counter(TrafficClass::EmbedData.bytes_metric()), 768);
        assert_eq!(
            nvlink(&links).transfers,
            2 * nvlink(&recovery_links).transfers
        );
    }

    #[test]
    fn cpu_ps_step_pays_the_shared_host_link() {
        let cost = CostModel::new(Topology::pcie_island(2));
        let registry = MetricsRegistry::new(2);
        let rec = registry.worker(1);
        let wire = Wire {
            host_ps: true,
            ..wire(&cost, &rec)
        };
        let read = ReadReport {
            local_primary: 3,
            remote_fetches: 1,
            data_bytes: 64,
            meta_bytes: 12,
            ..Default::default()
        };
        let up = UpdateReport {
            local_updates: 4,
            ..Default::default()
        };
        let (r, u) = wire.step(&read, &up);
        let (mut clock, mut links) = (SimClock::new(), LinkTallies::default());
        let c = charge(
            &wire,
            1,
            &mut clock,
            &mut links,
            Phases::Step {
                read: &r,
                write: &u,
                overlap: None,
            },
        );
        let host = LinkClass::HostPcie;
        let t = cost.link_transfer_time(host, 8 * 64 * 2);
        assert_eq!(c.data, [t * 0.5, t * (1.0 - 0.5)]);
        assert_eq!(c.meta, cost.link_transfer_time(host, 8 * 12 * 2));
        // The recorder counts this worker's rows, local ones included: 4
        // lookups and 4 updates, without the shared link's factor N.
        assert_eq!(rec.counter(TrafficClass::EmbedData.bytes_metric()), 8 * 64);
        assert_eq!(rec.counter(TrafficClass::KeysClocks.bytes_metric()), 8 * 12);
        assert_eq!(rec.counter(TrafficClass::EmbedData.messages_metric()), 2);
    }

    #[test]
    fn traced_records_land_on_the_worker_track() {
        let cost = CostModel::new(Topology::pcie_island(2));
        let rec = Recorder::new();
        let tracer = TraceCollector::new(2, TraceLevel::Sync);
        let wire = Wire {
            tracer: Some(&tracer),
            ..wire(&cost, &rec)
        };
        let meta = Transfer::exchange(&[], &[24, 0], 64);
        let (mut clock, mut links) = (SimClock::new(), LinkTallies::default());
        charge(
            &wire,
            1,
            &mut clock,
            &mut links,
            Phases::Barrier("flush", &meta),
        );
        let traffic: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.name == names::TRACE_TRAFFIC)
            .collect();
        assert_eq!(traffic.len(), 1);
        assert_eq!(traffic[0].track, TraceTrack::Worker(1));
        let arg = |k: &str| {
            traffic[0]
                .args
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(arg("class"), Some(Json::from("keys_clocks")));
        assert_eq!(arg("bytes"), Some(Json::U64(24)));
        assert_eq!(arg("messages"), Some(Json::U64(1)));
        // At batch level the instants are suppressed.
        let batch_tracer = TraceCollector::new(2, TraceLevel::Batch);
        let wire = Wire {
            tracer: Some(&batch_tracer),
            ..wire
        };
        charge(
            &wire,
            1,
            &mut clock,
            &mut links,
            Phases::Barrier("flush", &meta),
        );
        assert!(batch_tracer
            .events()
            .iter()
            .all(|e| e.name != names::TRACE_TRAFFIC));
    }
}
