//! Interconnect topology: workers, machines, sockets, link classes.

/// Index of a worker (one simulated GPU) in the cluster.
pub type WorkerId = usize;

/// Classes of inter-worker links, ordered roughly by bandwidth.
///
/// Bandwidths are nominal effective values (GB/s) for the hardware the paper
/// uses; latencies are per-message. These need only be *relatively* right —
/// every experiment compares strategies on the same topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A worker talking to itself (local GPU memory); effectively free.
    Local,
    /// NVLink between GPUs on the same board/socket.
    NvLink,
    /// PCIe 3.0 x16 between GPUs under the same PCIe switch / socket.
    Pcie3,
    /// QPI/UPI across CPU sockets within one machine.
    Qpi,
    /// 10 Gb Ethernet between machines (cluster B).
    Ethernet10G,
    /// 1 Gb Ethernet between machines (cluster A).
    Ethernet1G,
    /// GPU ↔ CPU-host link (PCIe); used by CPU parameter-server baselines.
    HostPcie,
}

impl LinkClass {
    /// Every link class, in declaration order.
    pub const ALL: [LinkClass; 7] = [
        LinkClass::Local,
        LinkClass::NvLink,
        LinkClass::Pcie3,
        LinkClass::Qpi,
        LinkClass::Ethernet10G,
        LinkClass::Ethernet1G,
        LinkClass::HostPcie,
    ];

    /// Effective bandwidth in bytes/second.
    pub fn bandwidth(self) -> f64 {
        const GB: f64 = 1e9;
        match self {
            LinkClass::Local => 900.0 * GB, // HBM2-class local memory
            LinkClass::NvLink => 100.0 * GB,
            LinkClass::Pcie3 => 12.0 * GB,
            LinkClass::Qpi => 8.0 * GB,
            LinkClass::Ethernet10G => 1.1 * GB,
            LinkClass::Ethernet1G => 0.11 * GB,
            LinkClass::HostPcie => 10.0 * GB,
        }
    }

    /// Stable lowercase label, used as the trace-timeline track name for
    /// this link class.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::Local => "local",
            LinkClass::NvLink => "nvlink",
            LinkClass::Pcie3 => "pcie3",
            LinkClass::Qpi => "qpi",
            LinkClass::Ethernet10G => "ethernet_10g",
            LinkClass::Ethernet1G => "ethernet_1g",
            LinkClass::HostPcie => "host_pcie",
        }
    }

    /// Per-message latency in seconds.
    pub fn latency(self) -> f64 {
        match self {
            LinkClass::Local => 0.0,
            LinkClass::NvLink => 3e-6,
            LinkClass::Pcie3 => 6e-6,
            LinkClass::Qpi => 8e-6,
            LinkClass::Ethernet10G => 4e-5,
            LinkClass::Ethernet1G => 8e-5,
            LinkClass::HostPcie => 1e-5,
        }
    }
}

/// Placement of one worker inside the cluster hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Machine (node) index.
    pub machine: usize,
    /// CPU-socket index within the machine (NVLink/PCIe islands).
    pub socket: usize,
}

/// A cluster topology: workers placed on machines/sockets plus the link
/// classes used at each hierarchy level.
#[derive(Debug, Clone)]
pub struct Topology {
    placements: Vec<Placement>,
    intra_socket: LinkClass,
    intra_machine: LinkClass,
    inter_machine: LinkClass,
    /// Human-readable name (used in experiment output).
    pub name: String,
}

impl Topology {
    /// Builds a topology from explicit placements and level link classes.
    pub fn new(
        name: impl Into<String>,
        placements: Vec<Placement>,
        intra_socket: LinkClass,
        intra_machine: LinkClass,
        inter_machine: LinkClass,
    ) -> Self {
        Self {
            placements,
            intra_socket,
            intra_machine,
            inter_machine,
            name: name.into(),
        }
    }

    /// A regular topology: `machines × sockets_per_machine ×
    /// workers_per_socket` workers.
    pub fn regular(
        name: impl Into<String>,
        machines: usize,
        sockets_per_machine: usize,
        workers_per_socket: usize,
        intra_socket: LinkClass,
        intra_machine: LinkClass,
        inter_machine: LinkClass,
    ) -> Self {
        let mut placements =
            Vec::with_capacity(machines * sockets_per_machine * workers_per_socket);
        for m in 0..machines {
            for s in 0..sockets_per_machine {
                for _ in 0..workers_per_socket {
                    placements.push(Placement {
                        machine: m,
                        socket: s,
                    });
                }
            }
        }
        Self::new(name, placements, intra_socket, intra_machine, inter_machine)
    }

    // ---- Presets matching the paper's testbeds -------------------------------

    /// Figure 1's "4-GPU NVLink": one machine, one NVLink island.
    pub fn nvlink_island(n: usize) -> Self {
        Self::regular(
            format!("{n}-GPU NVLink"),
            1,
            1,
            n,
            LinkClass::NvLink,
            LinkClass::NvLink,
            LinkClass::Ethernet10G,
        )
    }

    /// Figure 1's "4-GPU PCIe": one machine, one PCIe root complex.
    pub fn pcie_island(n: usize) -> Self {
        Self::regular(
            format!("{n}-GPU PCIe"),
            1,
            1,
            n,
            LinkClass::Pcie3,
            LinkClass::Pcie3,
            LinkClass::Ethernet10G,
        )
    }

    /// Figure 1's "8-GPU QPI": one machine, two PCIe sockets joined by QPI.
    pub fn qpi_dual_socket(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "QPI preset needs an even worker count"
        );
        Self::regular(
            format!("{n}-GPU QPI"),
            1,
            2,
            n / 2,
            LinkClass::Pcie3,
            LinkClass::Qpi,
            LinkClass::Ethernet10G,
        )
    }

    /// Cluster A: nodes of 8 GPUs on PCIe (two sockets of 4), 1 Gb Ethernet.
    pub fn cluster_a(machines: usize) -> Self {
        Self::regular(
            format!("ClusterA[{machines}x8 PCIe/1GbE]"),
            machines,
            2,
            4,
            LinkClass::Pcie3,
            LinkClass::Qpi,
            LinkClass::Ethernet1G,
        )
    }

    /// Cluster B: nodes of 8 GPUs with NVLink (two sockets of 4, QPI between),
    /// 10 Gb Ethernet between nodes.
    pub fn cluster_b(machines: usize) -> Self {
        Self::regular(
            format!("ClusterB[{machines}x8 NVLink/10GbE]"),
            machines,
            2,
            4,
            LinkClass::NvLink,
            LinkClass::Qpi,
            LinkClass::Ethernet10G,
        )
    }

    /// The scalability ladder of Figure 10 on cluster B: `n` GPUs allocated
    /// greedily (fill a socket of 4, then the second socket, then the next
    /// machine). With 1–4 GPUs all links are NVLink; 5–8 adds QPI; >8 adds
    /// Ethernet — reproducing "inter-GPU connections change from NVLink to
    /// QPI and Ethernet ... when involving more GPUs".
    pub fn cluster_b_scaled(n: usize) -> Self {
        assert!(n >= 1);
        let mut placements = Vec::with_capacity(n);
        for w in 0..n {
            let machine = w / 8;
            let socket = (w % 8) / 4;
            placements.push(Placement { machine, socket });
        }
        Self::new(
            format!("ClusterB-scaled[{n} GPUs]"),
            placements,
            LinkClass::NvLink,
            LinkClass::Qpi,
            LinkClass::Ethernet10G,
        )
    }

    // ---- Queries --------------------------------------------------------------

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.placements.len()
    }

    /// Number of distinct machines.
    pub fn num_machines(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.machine)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Placement of worker `w`.
    #[inline]
    pub fn placement(&self, w: WorkerId) -> Placement {
        self.placements[w]
    }

    /// Machine index of worker `w`.
    #[inline]
    pub fn machine_of(&self, w: WorkerId) -> usize {
        self.placements[w].machine
    }

    /// The link class between two workers, derived from their placements.
    pub fn link(&self, a: WorkerId, b: WorkerId) -> LinkClass {
        if a == b {
            return LinkClass::Local;
        }
        let pa = self.placements[a];
        let pb = self.placements[b];
        if pa.machine != pb.machine {
            self.inter_machine
        } else if pa.socket != pb.socket {
            self.intra_machine
        } else {
            self.intra_socket
        }
    }

    /// The partitioner's communication-cost weight matrix (paper §5.2:
    /// "profile the communication speeds for all GPU-GPU pairs and formulate
    /// them into a weight matrix"). Entry `[a][b]` is the relative cost of
    /// moving one embedding from `b` to `a`, normalised so the *fastest
    /// non-local* link has weight 1; the local diagonal is 0.
    pub fn weight_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.num_workers();
        let mut fastest = f64::INFINITY;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let t = 1.0 / self.link(a, b).bandwidth();
                    if t < fastest {
                        fastest = t;
                    }
                }
            }
        }
        if !fastest.is_finite() {
            fastest = 1.0; // single-worker cluster: all-local
        }
        (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| {
                        if a == b {
                            0.0
                        } else {
                            (1.0 / self.link(a, b).bandwidth()) / fastest
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The slowest link bandwidth used by any pair of distinct workers —
    /// the bottleneck for ring AllReduce.
    pub fn bottleneck_bandwidth(&self) -> f64 {
        let n = self.num_workers();
        let mut min = f64::INFINITY;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    min = min.min(self.link(a, b).bandwidth());
                }
            }
        }
        if min.is_finite() {
            min
        } else {
            LinkClass::Local.bandwidth()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_class_ordering() {
        assert!(LinkClass::NvLink.bandwidth() > LinkClass::Pcie3.bandwidth());
        assert!(LinkClass::Pcie3.bandwidth() > LinkClass::Qpi.bandwidth());
        assert!(LinkClass::Qpi.bandwidth() > LinkClass::Ethernet10G.bandwidth());
        assert!(LinkClass::Ethernet10G.bandwidth() > LinkClass::Ethernet1G.bandwidth());
        assert!(LinkClass::Local.latency() == 0.0);
        assert!(LinkClass::Ethernet1G.latency() > LinkClass::NvLink.latency());
    }

    #[test]
    fn nvlink_island_links() {
        let t = Topology::nvlink_island(4);
        assert_eq!(t.num_workers(), 4);
        assert_eq!(t.num_machines(), 1);
        assert_eq!(t.link(0, 0), LinkClass::Local);
        assert_eq!(t.link(0, 3), LinkClass::NvLink);
    }

    #[test]
    fn qpi_dual_socket_links() {
        let t = Topology::qpi_dual_socket(8);
        assert_eq!(t.link(0, 3), LinkClass::Pcie3); // same socket
        assert_eq!(t.link(0, 4), LinkClass::Qpi); // across sockets
        assert_eq!(t.link(3, 4), LinkClass::Qpi);
    }

    #[test]
    #[should_panic(expected = "even worker count")]
    fn qpi_odd_panics() {
        Topology::qpi_dual_socket(5);
    }

    #[test]
    fn cluster_a_hierarchy() {
        let t = Topology::cluster_a(2);
        assert_eq!(t.num_workers(), 16);
        assert_eq!(t.num_machines(), 2);
        assert_eq!(t.link(0, 1), LinkClass::Pcie3);
        assert_eq!(t.link(0, 5), LinkClass::Qpi);
        assert_eq!(t.link(0, 8), LinkClass::Ethernet1G);
    }

    #[test]
    fn cluster_b_scaled_ladder() {
        let t4 = Topology::cluster_b_scaled(4);
        assert_eq!(t4.link(0, 3), LinkClass::NvLink);
        let t8 = Topology::cluster_b_scaled(8);
        assert_eq!(t8.link(0, 7), LinkClass::Qpi);
        assert_eq!(t8.link(0, 3), LinkClass::NvLink);
        let t16 = Topology::cluster_b_scaled(16);
        assert_eq!(t16.link(0, 8), LinkClass::Ethernet10G);
        assert_eq!(t16.num_machines(), 2);
        let t24 = Topology::cluster_b_scaled(24);
        assert_eq!(t24.num_machines(), 3);
    }

    #[test]
    fn bottleneck_tracks_worst_link() {
        assert_eq!(
            Topology::nvlink_island(4).bottleneck_bandwidth(),
            LinkClass::NvLink.bandwidth()
        );
        assert_eq!(
            Topology::cluster_b_scaled(16).bottleneck_bandwidth(),
            LinkClass::Ethernet10G.bandwidth()
        );
        // Single worker: no non-local links.
        let t1 = Topology::cluster_b_scaled(1);
        assert_eq!(t1.bottleneck_bandwidth(), LinkClass::Local.bandwidth());
    }

    #[test]
    fn weight_matrix_normalised() {
        let t = Topology::cluster_b_scaled(16);
        let w = t.weight_matrix();
        assert_eq!(w[0][0], 0.0);
        assert!((w[0][1] - 1.0).abs() < 1e-12); // NVLink is fastest → weight 1
        let eth = w[0][8];
        let expected = LinkClass::NvLink.bandwidth() / LinkClass::Ethernet10G.bandwidth();
        assert!((eth - expected).abs() < 1e-9, "eth weight = {eth}");
        // Hierarchical: Ethernet ≫ QPI > NVLink.
        assert!(w[0][8] > w[0][4]);
        assert!(w[0][4] > w[0][1]);
    }

    #[test]
    fn weight_matrix_single_worker() {
        let t = Topology::cluster_b_scaled(1);
        assert_eq!(t.weight_matrix(), vec![vec![0.0]]);
    }
}
