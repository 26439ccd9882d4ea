//! Communication accounting for embedding reads and updates.
//!
//! Every [`crate::WorkerEmbedding`] operation returns one of these reports;
//! the trainer converts them into simulated time (via `hetgmp-cluster`'s
//! cost model) and into the paper's Figure 8 traffic breakdown. Bytes are
//! split into the paper's categories: embedding data (vectors + gradients)
//! vs. metadata (sparse indices + clocks).

/// Bytes per embedding index / clock entry exchanged in metadata messages
/// (index `u32` + clock `u64`, as in the paper's "sparse indexes and clocks").
pub const META_ENTRY_BYTES: u64 = 12;

/// The interconnect counters [`ReadReport`] and [`UpdateReport`] share, so
/// the worker accounts a remote row in one place whichever way it moves.
pub(crate) trait Traffic {
    /// `(data bytes by peer partition, data bytes, metadata bytes, messages)`.
    fn counters(&mut self) -> (&mut Vec<u64>, &mut u64, &mut u64, &mut u64);

    /// One embedding row exchanged with partition `peer`: `row_bytes` of
    /// payload, one index/clock metadata entry, one message.
    fn add_remote_row(&mut self, peer: u32, row_bytes: u64, num_partitions: usize) {
        let (by_peer, data, meta, messages) = self.counters();
        if by_peer.is_empty() {
            *by_peer = vec![0; num_partitions];
        }
        by_peer[peer as usize] += row_bytes;
        *data += row_bytes;
        *meta += META_ENTRY_BYTES;
        *messages += 1;
    }
}

impl Traffic for ReadReport {
    fn counters(&mut self) -> (&mut Vec<u64>, &mut u64, &mut u64, &mut u64) {
        (
            &mut self.data_bytes_by_src,
            &mut self.data_bytes,
            &mut self.meta_bytes,
            &mut self.messages,
        )
    }
}

impl Traffic for UpdateReport {
    fn counters(&mut self) -> (&mut Vec<u64>, &mut u64, &mut u64, &mut u64) {
        (
            &mut self.data_bytes_by_dst,
            &mut self.data_bytes,
            &mut self.meta_bytes,
            &mut self.messages,
        )
    }
}

/// Accounting for one batch read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Data bytes broken down by the partition the bytes came *from*
    /// (indexed by partition id); needed to charge heterogeneous links
    /// correctly. Empty until the first remote transfer.
    pub data_bytes_by_src: Vec<u64>,
    /// Lookups served from a local primary.
    pub local_primary: u64,
    /// Lookups served from a local secondary that passed the staleness
    /// checks (no traffic).
    pub local_fresh: u64,
    /// Secondary refreshes forced by the intra-embedding bound.
    pub intra_syncs: u64,
    /// Secondary refreshes forced by the inter-embedding bound.
    pub inter_syncs: u64,
    /// Lookups of rows with no local replica (always remote).
    pub remote_fetches: u64,
    /// Embedding-vector bytes that crossed the interconnect.
    pub data_bytes: u64,
    /// Index/clock metadata bytes that crossed the interconnect.
    pub meta_bytes: u64,
    /// Remote round-trip messages (for latency charging).
    pub messages: u64,
}

impl ReadReport {
    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.local_primary + self.local_fresh + self.intra_syncs + self.inter_syncs
            + self.remote_fetches
    }

    /// Lookups that required interconnect traffic.
    pub fn remote_total(&self) -> u64 {
        self.intra_syncs + self.inter_syncs + self.remote_fetches
    }

    /// Adds remote data bytes attributed to source partition `src`.
    pub fn add_src_bytes(&mut self, src: u32, bytes: u64, num_partitions: usize) {
        if self.data_bytes_by_src.is_empty() {
            self.data_bytes_by_src = vec![0; num_partitions];
        }
        self.data_bytes_by_src[src as usize] += bytes;
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &ReadReport) {
        if !other.data_bytes_by_src.is_empty() {
            if self.data_bytes_by_src.is_empty() {
                self.data_bytes_by_src = vec![0; other.data_bytes_by_src.len()];
            }
            for (a, &b) in self.data_bytes_by_src.iter_mut().zip(&other.data_bytes_by_src) {
                *a += b;
            }
        }
        self.local_primary += other.local_primary;
        self.local_fresh += other.local_fresh;
        self.intra_syncs += other.intra_syncs;
        self.inter_syncs += other.inter_syncs;
        self.remote_fetches += other.remote_fetches;
        self.data_bytes += other.data_bytes;
        self.meta_bytes += other.meta_bytes;
        self.messages += other.messages;
    }
}

/// Accounting for one batch gradient update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Gradient bytes broken down by destination (primary's) partition.
    /// Empty until the first remote write-back.
    pub data_bytes_by_dst: Vec<u64>,
    /// Gradient rows applied to a local primary.
    pub local_updates: u64,
    /// Gradient rows written back to a remote primary.
    pub remote_writebacks: u64,
    /// Gradient rows deferred into a secondary's stale-gradient buffer
    /// (no traffic yet; flushed later as merged write-backs).
    pub deferred: u64,
    /// Gradient bytes that crossed the interconnect.
    pub data_bytes: u64,
    /// Metadata bytes (indices/clocks) that crossed the interconnect.
    pub meta_bytes: u64,
    /// Remote messages.
    pub messages: u64,
}

impl UpdateReport {
    /// Total gradient rows applied.
    pub fn updates(&self) -> u64 {
        self.local_updates + self.remote_writebacks
    }

    /// Adds remote gradient bytes attributed to destination partition `dst`.
    pub fn add_dst_bytes(&mut self, dst: u32, bytes: u64, num_partitions: usize) {
        if self.data_bytes_by_dst.is_empty() {
            self.data_bytes_by_dst = vec![0; num_partitions];
        }
        self.data_bytes_by_dst[dst as usize] += bytes;
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &UpdateReport) {
        if !other.data_bytes_by_dst.is_empty() {
            if self.data_bytes_by_dst.is_empty() {
                self.data_bytes_by_dst = vec![0; other.data_bytes_by_dst.len()];
            }
            for (a, &b) in self.data_bytes_by_dst.iter_mut().zip(&other.data_bytes_by_dst) {
                *a += b;
            }
        }
        self.local_updates += other.local_updates;
        self.remote_writebacks += other.remote_writebacks;
        self.deferred += other.deferred;
        self.data_bytes += other.data_bytes;
        self.meta_bytes += other.meta_bytes;
        self.messages += other.messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_totals() {
        let r = ReadReport {
            local_primary: 3,
            local_fresh: 2,
            intra_syncs: 1,
            inter_syncs: 1,
            remote_fetches: 4,
            data_bytes: 100,
            meta_bytes: 24,
            messages: 6,
            ..Default::default()
        };
        assert_eq!(r.lookups(), 11);
        assert_eq!(r.remote_total(), 6);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ReadReport::default();
        let b = ReadReport {
            local_primary: 1,
            data_bytes: 64,
            messages: 1,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.local_primary, 2);
        assert_eq!(a.data_bytes, 128);
        assert_eq!(a.messages, 2);
    }

    #[test]
    fn update_totals() {
        let mut u = UpdateReport {
            local_updates: 5,
            remote_writebacks: 3,
            ..Default::default()
        };
        assert_eq!(u.updates(), 8);
        let v = u.clone();
        u.merge(&v);
        assert_eq!(u.updates(), 16);
    }

    #[test]
    fn per_source_accounting() {
        let mut r = ReadReport::default();
        r.add_src_bytes(1, 64, 4);
        r.add_src_bytes(1, 64, 4);
        r.add_src_bytes(3, 32, 4);
        assert_eq!(r.data_bytes_by_src, vec![0, 128, 0, 32]);
        let mut other = ReadReport::default();
        other.add_src_bytes(0, 8, 4);
        r.merge(&other);
        assert_eq!(r.data_bytes_by_src, vec![8, 128, 0, 32]);
        // Merging an untracked report leaves the breakdown intact.
        r.merge(&ReadReport::default());
        assert_eq!(r.data_bytes_by_src, vec![8, 128, 0, 32]);
    }
}
