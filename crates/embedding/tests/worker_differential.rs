//! Differential proptest: `WorkerEmbedding` must make *the same sequence of
//! protocol decisions* as the worker it replaced.
//!
//! The reference below is that worker, kept as a test oracle: ids resolved
//! through hash maps, and an inter-embedding pass that enumerates **every
//! pair of fields of every sample** and asks the cache about both sides. The
//! shipped worker resolves ids through dense indices and pairs only the
//! sample's replica-served fields; the claim is that the filtered
//! enumeration is the same decisions in the same order. Random partitions
//! and replica sets, samples up to 48 fields wide with in-sample duplicates,
//! every staleness regime, and writers interleaved so that lags are non-zero
//! and victims re-sync in the middle of a sample.
//!
//! `CachedWorkerEmbedding` gets the same treatment against a per-row LFU
//! oracle: the shipped worker admits a missed row as a placeholder while it
//! classifies, fills it when the one batched fetch lands and refreshes a
//! stale row only if it is still cached by then; the oracle fetches, admits
//! and refreshes one lookup at a time through the public [`LfuCache`] API.
//! The claim is that both land in the same cache, bit for bit — through
//! declined admissions (the placeholder never existed, the fill is a no-op),
//! displacements of rows cached by earlier batches, and refreshes.
//!
//! The write phase has its own oracle at the end of the file: routing into a
//! [`WriteExchange`] and letting every owner apply its rows must leave the
//! table, the replicas and the reports exactly as the workers'
//! `apply_gradients` called one rank at a time, ascending, does — with the
//! two sides reading in opposite rank orders, since no read writes the
//! table (a sync's flush joins the owner's inbox with the step's writes).
//!
//! What the scenario cannot reach, by construction of the LFU rule rather
//! than for lack of trying: a batch evicting a row it admitted or refreshed
//! *itself*. A batch touches each id once, admission is strict (`count >
//! coldest`), and an uncached remote row's count never exceeds the coldest
//! cached count (it was offered at its last touch and lost), so it can
//! displace only from an exact tie, which lifts that slot one above
//! anything the rest of the batch can reach. The worker's "still cached?"
//! test on a landed refresh is therefore defensive.

use std::collections::HashMap;
use std::sync::Arc;

use hetgmp_comms::ErrorFeedback;
use hetgmp_embedding::RowStore;
use hetgmp_embedding::{
    CachedWorkerEmbedding, EmbeddingWorker, LfuCache, ReadReport, SecondaryCache, ShardedTable,
    SparseOpt, StalenessBound, SyncFormat, UpdateReport, WorkerEmbedding, WriteExchange,
};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{AuditMode, ProtocolAuditor};
use proptest::prelude::*;

const WORKER: u32 = 0;

/// The pre-index worker over the public cache API (f32 wire, no telemetry).
/// It keeps its own book of the local deltas its deferred gradients applied,
/// and merges a synced replica through `install` + `apply_local_delta`.
struct ReferenceWorker<'a> {
    table: &'a ShardedTable,
    part: &'a Partition,
    freq: &'a [u64],
    bound: StalenessBound,
    cache: SecondaryCache,
    /// Row → sum of the deltas its pending gradients applied to the replica.
    deltas: HashMap<u32, Vec<f32>>,
    /// The step's sync flushes, in the order taken; applied first by the
    /// next write.
    stash: Vec<(u32, Vec<f32>)>,
    auditor: Arc<ProtocolAuditor>,
}

impl<'a> ReferenceWorker<'a> {
    fn new(
        table: &'a ShardedTable,
        part: &'a Partition,
        freq: &'a [u64],
        bound: StalenessBound,
        auditor: Arc<ProtocolAuditor>,
    ) -> Self {
        let dim = table.dim();
        let secondaries: Vec<u32> = (0..table.num_rows() as u32)
            .filter(|&e| part.is_secondary(e, WORKER))
            .collect();
        let mut cache = SecondaryCache::new(dim, &secondaries);
        let mut row = vec![0.0f32; dim];
        for &e in &secondaries {
            let clock = table.read_row(e, &mut row);
            cache.install(e, &row, clock);
        }
        Self {
            table,
            part,
            freq,
            bound,
            cache,
            deltas: HashMap::new(),
            stash: Vec::new(),
            auditor,
        }
    }

    fn row_bytes(&self) -> u64 {
        self.table.dim() as u64 * 4
    }

    fn tolerates(&self, gap: f64) -> bool {
        match self.bound {
            StalenessBound::Bounded(s) => gap <= s as f64,
            StalenessBound::Infinite => true,
        }
    }

    fn freq_of(&self, e: u32) -> u64 {
        self.freq[e as usize].max(1)
    }

    /// Flushes `e`'s pending gradient as one primary update; true if there
    /// was one. The caller accounts the bytes.
    fn flush(&mut self, e: u32, opt: &SparseOpt) -> bool {
        let mut buf = vec![0.0f32; self.table.dim()];
        if !self.cache.take_pending(e, &mut buf) {
            return false;
        }
        self.deltas.remove(&e);
        self.table.apply_grad(e, &buf, opt);
        true
    }

    /// Re-fetches `e`'s replica into `row`. A pending gradient is stashed
    /// for the next write, and the replica is the fetched value plus its
    /// own pending delta, with the flush in flight as one own update; `row`
    /// is what the replica then holds.
    fn sync(&mut self, e: u32, row: &mut [f32], report: &mut ReadReport) {
        let clock = self.table.read_row(e, row);
        let mut grad = vec![0.0f32; self.table.dim()];
        let flushed = self.cache.take_pending(e, &mut grad);
        self.cache.install(e, row, clock);
        if flushed {
            self.cache
                .apply_local_delta(e, &self.deltas.remove(&e).unwrap());
            self.cache.read(e, row);
            self.stash.push((e, grad));
            self.count_remote_read(e, report);
            report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
        }
    }

    /// Applies the stashed sync flushes, in the order taken.
    fn apply_stash(&mut self, opt: &SparseOpt) {
        for (e, g) in self.stash.drain(..) {
            self.table.apply_grad(e, &g, opt);
        }
    }

    fn count_remote_read(&self, e: u32, report: &mut ReadReport) {
        report.data_bytes += self.row_bytes();
        report.add_src_bytes(
            self.part.primary_of(e),
            self.row_bytes(),
            self.part.num_partitions(),
        );
    }

    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        let dim = self.table.dim();
        let mut report = ReadReport::default();
        let mut resolved: HashMap<u32, Vec<f32>> = HashMap::new();

        // Pass 1, per row, in first-appearance order.
        for &e in samples.iter().flat_map(|s| s.iter()) {
            if resolved.contains_key(&e) {
                continue;
            }
            let mut row = vec![0.0f32; dim];
            if self.part.primary_of(e) == WORKER {
                self.table.read_row(e, &mut row);
                report.local_primary += 1;
            } else if self.cache.contains(e) {
                let local = self.cache.effective_clock(e).unwrap();
                let gap = self.table.clock(e).saturating_sub(local) as f64;
                if matches!(self.bound, StalenessBound::Infinite) {
                    self.auditor.observe_intra(None, gap, gap);
                    self.cache.read(e, &mut row);
                    report.local_fresh += 1;
                } else {
                    report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
                    let fresh = self.tolerates(gap);
                    self.auditor
                        .observe_intra(None, gap, if fresh { gap } else { 0.0 });
                    if fresh {
                        self.cache.read(e, &mut row);
                        report.local_fresh += 1;
                    } else {
                        self.sync(e, &mut row, &mut report);
                        report.intra_syncs += 1;
                        self.count_remote_read(e, &mut report);
                    }
                }
            } else {
                self.table.read_row(e, &mut row);
                report.remote_fetches += 1;
                self.count_remote_read(e, &mut report);
                report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
            }
            resolved.insert(e, row);
        }

        // Pass 2: all pairs of fields, both sides asked of the cache.
        if !matches!(self.bound, StalenessBound::Infinite) {
            for sample in samples {
                for (ai, &a) in sample.iter().enumerate() {
                    for &b in &sample[ai + 1..] {
                        if a == b {
                            continue;
                        }
                        let (Some(ca), Some(cb)) =
                            (self.cache.effective_clock(a), self.cache.effective_clock(b))
                        else {
                            continue;
                        };
                        let (hot, cold, c_hot, c_cold) = if self.freq_of(a) >= self.freq_of(b) {
                            (a, b, ca, cb)
                        } else {
                            (b, a, cb, ca)
                        };
                        let ratio = self.freq_of(cold) as f64 / self.freq_of(hot) as f64;
                        let gap = (c_hot as f64 * ratio - c_cold as f64).abs();
                        let tolerated = self.tolerates(gap);
                        self.auditor
                            .observe_inter(None, gap, if tolerated { gap } else { 0.0 });
                        if tolerated {
                            continue;
                        }
                        let lag_hot = self.table.clock(hot).saturating_sub(c_hot);
                        let lag_cold = self.table.clock(cold).saturating_sub(c_cold);
                        if lag_hot == 0 && lag_cold == 0 {
                            continue;
                        }
                        let victim = if lag_hot >= lag_cold { hot } else { cold };
                        let mut row = resolved.remove(&victim).unwrap();
                        self.sync(victim, &mut row, &mut report);
                        resolved.insert(victim, row);
                        report.inter_syncs += 1;
                        self.count_remote_read(victim, &mut report);
                        report
                            .add_src_meta(self.part.primary_of(victim), self.part.num_partitions());
                    }
                }
            }
        }

        // Pass 3.
        let ids = samples.iter().flat_map(|s| s.iter());
        for (dst, e) in out.chunks_exact_mut(dim).zip(ids) {
            dst.copy_from_slice(&resolved[e]);
        }
        report
    }

    fn count_writeback(&self, e: u32, report: &mut UpdateReport) {
        report.remote_writebacks += 1;
        report.data_bytes += self.row_bytes();
        report.add_dst_bytes(
            self.part.primary_of(e),
            self.row_bytes(),
            self.part.num_partitions(),
        );
        report.add_dst_meta(self.part.primary_of(e), self.part.num_partitions());
    }

    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        let dim = self.table.dim();
        let mut reduced: HashMap<u32, Vec<f32>> = HashMap::new();
        let ids = samples.iter().flat_map(|s| s.iter());
        for (&e, g) in ids.zip(grads.chunks_exact(dim)) {
            match reduced.get_mut(&e) {
                Some(sum) => sum.iter_mut().zip(g).for_each(|(a, &x)| *a += x),
                None => {
                    reduced.insert(e, g.to_vec());
                }
            }
        }
        let mut ids: Vec<u32> = reduced.keys().copied().collect();
        ids.sort_unstable();

        self.apply_stash(opt);
        let mut report = UpdateReport::default();
        let lr = opt.learning_rate();
        let n = self.part.num_partitions() as u64;
        let threshold = match self.bound {
            StalenessBound::Bounded(s) if s > 0 => Some((s / n).max(1)),
            StalenessBound::Infinite => Some(u64::MAX),
            _ => None,
        };
        // Direct applies run after the routing loop, as the batched
        // `apply_grads` call does; rows are distinct, so only flushes of
        // *other* rows interleave, and those commute.
        let mut direct: Vec<u32> = Vec::new();
        for &e in &ids {
            let g = &reduced[&e];
            let delta: Vec<f32> = g.iter().map(|&x| -lr * x).collect();
            if self.part.primary_of(e) == WORKER {
                direct.push(e);
                report.local_updates += 1;
            } else if let (Some(threshold), true) = (threshold, self.cache.contains(e)) {
                let own = self.deltas.entry(e).or_insert_with(|| vec![0.0; dim]);
                own.iter_mut().zip(&delta).for_each(|(a, &x)| *a += x);
                let pending = self.cache.accumulate_pending(e, &delta, g) as u64;
                report.deferred += 1;
                if pending >= threshold && self.flush(e, opt) {
                    self.count_writeback(e, &mut report);
                }
            } else {
                direct.push(e);
                self.count_writeback(e, &mut report);
                self.cache.apply_local_delta(e, &delta);
            }
        }
        for e in direct {
            self.table.apply_grad(e, &reduced[&e], opt);
        }
        report
    }

    fn flush_all(&mut self, opt: &SparseOpt) -> UpdateReport {
        self.apply_stash(opt);
        let mut report = UpdateReport::default();
        for e in self.cache.rows_with_pending() {
            if self.flush(e, opt) {
                self.count_writeback(e, &mut report);
            }
        }
        report
    }
}

/// The HET-style worker one lookup at a time over the public [`LfuCache`]
/// API: touch, then local primary / cached row under the intra check /
/// fetch-and-admit; eager write-back with the mirror applied to whatever is
/// cached. Rows that cross the wire go through `format`, gradient pushes
/// with error feedback.
struct LfuReferenceWorker<'a> {
    table: &'a ShardedTable,
    part: &'a Partition,
    bound: StalenessBound,
    cache: LfuCache,
    format: SyncFormat,
    feedback: ErrorFeedback,
    auditor: Arc<ProtocolAuditor>,
}

impl LfuReferenceWorker<'_> {
    fn row_bytes(&self) -> u64 {
        self.format.row_wire_bytes(self.table.dim())
    }

    fn count_remote_read(&self, e: u32, report: &mut ReadReport) {
        report.data_bytes += self.row_bytes();
        report.add_src_bytes(
            self.part.primary_of(e),
            self.row_bytes(),
            self.part.num_partitions(),
        );
    }

    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        let dim = self.table.dim();
        let mut report = ReadReport::default();
        let mut resolved: HashMap<u32, Vec<f32>> = HashMap::new();
        for &e in samples.iter().flat_map(|s| s.iter()) {
            if resolved.contains_key(&e) {
                continue;
            }
            let mut row = vec![0.0f32; dim];
            self.cache.touch(e);
            if self.part.primary_of(e) == WORKER {
                self.table.read_row(e, &mut row);
                report.local_primary += 1;
            } else if let Some(local) = self.cache.effective_clock(e) {
                let gap = self.table.clock(e).saturating_sub(local);
                let fresh = match self.bound {
                    StalenessBound::Infinite => {
                        self.auditor.observe_intra(None, gap as f64, gap as f64);
                        true
                    }
                    StalenessBound::Bounded(s) => {
                        report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
                        let fresh = gap <= s;
                        let served = if fresh { gap as f64 } else { 0.0 };
                        self.auditor.observe_intra(None, gap as f64, served);
                        fresh
                    }
                };
                if fresh {
                    self.cache.read(e, &mut row);
                    report.local_fresh += 1;
                } else {
                    let clock = self.table.read_row(e, &mut row);
                    self.format.transport(&mut row);
                    self.cache.refresh(e, &row, clock);
                    report.intra_syncs += 1;
                    self.count_remote_read(e, &mut report);
                }
            } else {
                let clock = self.table.read_row(e, &mut row);
                self.format.transport(&mut row);
                report.remote_fetches += 1;
                self.count_remote_read(e, &mut report);
                report.add_src_meta(self.part.primary_of(e), self.part.num_partitions());
                self.cache.admit(e, &row, clock);
            }
            resolved.insert(e, row);
        }
        let ids = samples.iter().flat_map(|s| s.iter());
        for (dst, e) in out.chunks_exact_mut(dim).zip(ids) {
            dst.copy_from_slice(&resolved[e]);
        }
        report
    }

    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        let dim = self.table.dim();
        let mut reduced: HashMap<u32, Vec<f32>> = HashMap::new();
        let ids = samples.iter().flat_map(|s| s.iter());
        for (&e, g) in ids.zip(grads.chunks_exact(dim)) {
            match reduced.get_mut(&e) {
                Some(sum) => sum.iter_mut().zip(g).for_each(|(a, &x)| *a += x),
                None => {
                    reduced.insert(e, g.to_vec());
                }
            }
        }
        let mut ids: Vec<u32> = reduced.keys().copied().collect();
        ids.sort_unstable();

        let mut report = UpdateReport::default();
        let lr = opt.learning_rate();
        for e in ids {
            let g = reduced.get_mut(&e).unwrap();
            if self.part.primary_of(e) == WORKER {
                report.local_updates += 1;
            } else {
                if !self.format.is_lossless() {
                    self.feedback.compensate_and_transport(self.format, e, g);
                }
                report.remote_writebacks += 1;
                report.data_bytes += self.row_bytes();
                report.add_dst_bytes(
                    self.part.primary_of(e),
                    self.row_bytes(),
                    self.part.num_partitions(),
                );
                report.add_dst_meta(self.part.primary_of(e), self.part.num_partitions());
            }
            self.table.apply_grad(e, g, opt);
            // The mirror tracks what the primary received.
            let delta: Vec<f32> = g.iter().map(|&x| -lr * x).collect();
            self.cache.apply_local_delta(e, &delta);
        }
        report
    }
}

/// SplitMix64: the scenario below is drawn from one proptest-chosen seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bound_strategy() -> impl Strategy<Value = StalenessBound> {
    prop_oneof![
        Just(StalenessBound::Bounded(0)),
        Just(StalenessBound::Bounded(1)),
        Just(StalenessBound::Bounded(100)),
        Just(StalenessBound::Infinite),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn worker_matches_all_pairs_reference(
        num_rows in 4usize..96,
        dim in 1usize..5,
        parts in 2usize..5,
        bound in bound_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        // Random primaries; worker 0 replicates about half of the rows it
        // does not own, so samples carry several replicas each.
        let primaries: Vec<u32> = (0..num_rows).map(|_| rng.below(parts) as u32).collect();
        let mut part = Partition::new(parts, vec![0; 1], primaries.clone());
        for e in 0..num_rows as u32 {
            if primaries[e as usize] != WORKER && rng.below(2) == 0 {
                part.add_replica(e, WORKER);
            }
        }
        // Frequencies span 0 (treated as 1) to 200: orientation and the
        // normalised gap both vary.
        let freq: Vec<u64> = (0..num_rows).map(|_| rng.below(201) as u64).collect();
        let opt = if rng.below(2) == 0 { SparseOpt::sgd(0.1) } else { SparseOpt::adagrad(0.05) };

        let table = ShardedTable::new(num_rows, dim, 0.1, seed);
        let oracle_table = ShardedTable::new(num_rows, dim, 0.1, seed);
        let audit = || Arc::new(ProtocolAuditor::new(f64::INFINITY, AuditMode::Count));
        let (auditor, oracle_auditor) = (audit(), audit());
        let mut worker = WorkerEmbedding::new(WORKER, &table, &part, &freq, bound);
        worker.attach_auditor(Arc::clone(&auditor));
        let mut oracle = ReferenceWorker::new(
            &oracle_table, &part, &freq, bound, Arc::clone(&oracle_auditor),
        );

        for step in 0..16 {
            // Ids come from a window of the table so fields repeat inside a
            // sample and across samples.
            let window = 1 + rng.below(num_rows);
            // Peers' updates land at the primaries between our batches — on
            // rows of the window, so the batch reads them — in bursts sized
            // around every bound under test: a lag of 1 or 2 passes the
            // intra check at s = 1 or 100 and is left for the pair check to
            // find (equal lags exercise the victim tie-break), 101 and 150
            // exceed every finite bound.
            for _ in 0..rng.below(8) {
                let e = rng.below(window) as u32;
                let g: Vec<f32> = (0..dim).map(|c| 0.01 * (step + c + 1) as f32).collect();
                for _ in 0..[1, 1, 1, 2, 40, 99, 101, 150][rng.below(8)] {
                    table.apply_grad(e, &g, &opt);
                    oracle_table.apply_grad(e, &g, &opt);
                }
            }
            let batch: Vec<Vec<u32>> = (0..1 + rng.below(5))
                .map(|_| (0..1 + rng.below(48)).map(|_| rng.below(window) as u32).collect())
                .collect();
            let samples: Vec<&[u32]> = batch.iter().map(Vec::as_slice).collect();
            let total: usize = batch.iter().map(Vec::len).sum();

            let mut out = vec![0.0f32; total * dim];
            let mut oracle_out = vec![0.0f32; total * dim];
            let report = worker.read_batch(&samples, &mut out);
            let oracle_report = oracle.read_batch(&samples, &mut oracle_out);
            prop_assert_eq!(&report, &oracle_report, "read report, step {}", step);
            prop_assert_eq!(bits(&out), bits(&oracle_out), "rows read, step {}", step);

            // Every read is followed by a write, as in a training step; one
            // in four batches writes nothing but the read's sync flushes.
            let (written, grads): (&[&[u32]], Vec<f32>) = if rng.below(4) != 0 {
                let grads = (0..total * dim).map(|_| rng.below(2001) as f32 / 1000.0 - 1.0);
                (&samples, grads.collect())
            } else {
                (&[], Vec::new())
            };
            let report = worker.apply_gradients(written, &grads, &opt);
            let oracle_report = oracle.apply_gradients(written, &grads, &opt);
            prop_assert_eq!(&report, &oracle_report, "update report, step {}", step);
            if rng.below(6) == 0 {
                let exchange = WriteExchange::new(parts);
                let flushed = worker.flush_all(&exchange);
                for owner in 0..parts {
                    exchange.apply_owned(owner, &table, &opt);
                }
                prop_assert_eq!(flushed, oracle.flush_all(&opt), "flush, step {}", step);
            }
            let (mut row, mut oracle_row) = (vec![0.0f32; dim], vec![0.0f32; dim]);
            for e in 0..num_rows as u32 {
                prop_assert_eq!(
                    worker.replica_clock(e), oracle.cache.effective_clock(e),
                    "replica clock of row {}, step {}", e, step
                );
                prop_assert_eq!(table.clock(e), oracle_table.clock(e), "primary clock of row {}", e);
                table.read_row(e, &mut row);
                oracle_table.read_row(e, &mut oracle_row);
                prop_assert_eq!(bits(&row), bits(&oracle_row), "primary row {}, step {}", e, step);
            }
        }
        let (summary, oracle_summary) = (auditor.summary(), oracle_auditor.summary());
        prop_assert_eq!(summary.intra_reads, oracle_summary.intra_reads);
        prop_assert_eq!(summary.inter_checks, oracle_summary.inter_checks);
        prop_assert_eq!(summary.max_inter_gap.to_bits(), oracle_summary.max_inter_gap.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lfu_worker_matches_per_row_reference(
        num_rows in 4usize..96,
        dim in 1usize..5,
        parts in 2usize..5,
        bound in bound_strategy(),
        // Capacity class × wire format (the stand-in caps a property at six
        // inputs).
        variant in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let (capacity_class, int8) = (variant % 4, variant >= 4);
        let mut rng = Rng(seed);
        let primaries: Vec<u32> = (0..num_rows).map(|_| rng.below(parts) as u32).collect();
        let part = Partition::new(parts, vec![0; 1], primaries);
        // Nothing cached (every admission declined), one slot, a few slots
        // (displacements pick among several victims), and room for every id
        // (nothing is ever evicted).
        let capacity = [0, 1, 2 + rng.below(6), num_rows][capacity_class];
        let format = if int8 { SyncFormat::Int8 } else { SyncFormat::F32 };
        let opt = if rng.below(2) == 0 { SparseOpt::sgd(0.1) } else { SparseOpt::adagrad(0.05) };

        let table = ShardedTable::new(num_rows, dim, 0.1, seed);
        let oracle_table = ShardedTable::new(num_rows, dim, 0.1, seed);
        let audit = || Arc::new(ProtocolAuditor::new(f64::INFINITY, AuditMode::Count));
        let (auditor, oracle_auditor) = (audit(), audit());
        let mut worker = CachedWorkerEmbedding::new(WORKER, &table, &part, capacity, bound);
        worker.set_sync_format(format, true);
        worker.attach_auditor(Arc::clone(&auditor));
        let mut oracle = LfuReferenceWorker {
            table: &oracle_table,
            part: &part,
            bound,
            cache: LfuCache::new(dim, capacity),
            format,
            feedback: ErrorFeedback::new(),
            auditor: Arc::clone(&oracle_auditor),
        };

        for step in 0..16 {
            // The static test's scenario: ids from a window of the table,
            // peers' bursts sized around every bound under test.
            let window = 1 + rng.below(num_rows);
            for _ in 0..rng.below(8) {
                let e = rng.below(window) as u32;
                let g: Vec<f32> = (0..dim).map(|c| 0.01 * (step + c + 1) as f32).collect();
                for _ in 0..[1, 1, 1, 2, 40, 99, 101, 150][rng.below(8)] {
                    table.apply_grad(e, &g, &opt);
                    oracle_table.apply_grad(e, &g, &opt);
                }
            }
            let batch: Vec<Vec<u32>> = (0..1 + rng.below(5))
                .map(|_| (0..1 + rng.below(48)).map(|_| rng.below(window) as u32).collect())
                .collect();
            let samples: Vec<&[u32]> = batch.iter().map(Vec::as_slice).collect();
            let total: usize = batch.iter().map(Vec::len).sum();

            let mut out = vec![0.0f32; total * dim];
            let mut oracle_out = vec![0.0f32; total * dim];
            let report = worker.read_batch(&samples, &mut out);
            let oracle_report = oracle.read_batch(&samples, &mut oracle_out);
            prop_assert_eq!(&report, &oracle_report, "read report, step {}", step);
            prop_assert_eq!(bits(&out), bits(&oracle_out), "rows read, step {}", step);

            if rng.below(4) != 0 {
                let grads: Vec<f32> =
                    (0..total * dim).map(|_| rng.below(2001) as f32 / 1000.0 - 1.0).collect();
                let report = worker.apply_gradients(&samples, &grads, &opt);
                let oracle_report = oracle.apply_gradients(&samples, &grads, &opt);
                prop_assert_eq!(&report, &oracle_report, "update report, step {}", step);
            }
            prop_assert_eq!(worker.cached_rows(), oracle.cache.len(), "cached rows, step {}", step);
            let mut row = vec![0.0f32; dim];
            let mut oracle_row = vec![0.0f32; dim];
            for e in 0..num_rows as u32 {
                prop_assert_eq!(
                    worker.replica_clock(e), oracle.cache.effective_clock(e),
                    "cached clock of row {}, step {}", e, step
                );
                prop_assert_eq!(table.clock(e), oracle_table.clock(e), "primary clock of row {}", e);
                table.read_row(e, &mut row);
                oracle_table.read_row(e, &mut oracle_row);
                prop_assert_eq!(bits(&row), bits(&oracle_row), "primary row {}, step {}", e, step);
            }
            let (summary, oracle_summary) = (auditor.summary(), oracle_auditor.summary());
            prop_assert_eq!(summary.intra_reads, oracle_summary.intra_reads, "step {}", step);
            prop_assert_eq!(
                summary.max_intra_gap.to_bits(), oracle_summary.max_intra_gap.to_bits(),
                "step {}", step
            );
        }
        prop_assert_eq!(auditor.summary().inter_checks, 0, "the LFU design has no inter check");
    }
}

// --- dense-index edge cases through the public cache API ----------------

#[test]
fn ids_beyond_the_index_are_absent_not_a_panic() {
    let mut c = SecondaryCache::new(2, &[3, 1]);
    for row in [4, 1000, u32::MAX] {
        assert!(!c.contains(row));
        assert_eq!(c.effective_clock(row), None);
        assert_eq!(c.pending_count(row), 0);
        assert!(!c.apply_local_delta(row, &[1.0, 1.0]));
        let mut buf = [0.0f32; 2];
        assert!(!c.read(row, &mut buf));
        assert!(!c.take_pending(row, &mut buf));
    }
    // A gap inside the index is absent too.
    assert!(!c.contains(2) && !c.contains(0));
    assert!(c.contains(1) && c.contains(3));
}

#[test]
fn pending_rows_ascend_whatever_order_the_cache_was_built_in() {
    let mut c = SecondaryCache::new(1, &[40, 7, 19, 3, 7]);
    assert_eq!(c.len(), 4, "a repeated id is one replica");
    assert_eq!(c.rows(), &[3, 7, 19, 40]);
    for row in [19, 40, 3] {
        c.accumulate_pending(row, &[0.0], &[1.0]);
    }
    assert_eq!(c.rows_with_pending(), vec![3, 19, 40]);
}

#[test]
fn lfu_grows_past_its_first_seen_id() {
    use hetgmp_embedding::LfuCache;
    let mut c = LfuCache::new(1, 2);
    c.touch(5);
    assert!(c.admit(5, &[1.0], 0));
    // Far beyond anything seen so far: absent, then countable, then cacheable.
    assert!(!c.contains(90_000));
    assert_eq!(c.effective_clock(90_000), None);
    assert_eq!(c.touch(90_000), 1);
    assert_eq!(c.touch(90_000), 2);
    assert!(c.admit(90_000, &[2.0], 4));
    assert_eq!(c.effective_clock(90_000), Some(4));
    // And an id below the first one.
    assert_eq!(c.touch(0), 1);
    for _ in 0..3 {
        c.touch(0);
    }
    assert!(c.admit(0, &[3.0], 0), "hotter than the coldest cached row");
    assert_eq!(c.len(), 2);
    assert_eq!(c.cached_ids().len(), 2);
    assert!(c.contains(0));
}

// --- the owner-ordered write phase against the rank-ordered one ---------

/// What the write-order oracle reads off a worker beside the trait: its
/// replica of `e` as `(effective clock, deferred gradients waiting)`.
trait Probe: EmbeddingWorker {
    fn replica(&self, e: u32) -> (Option<u64>, u32);
}

impl Probe for WorkerEmbedding<'_> {
    fn replica(&self, e: u32) -> (Option<u64>, u32) {
        (self.replica_clock(e), self.pending_count(e))
    }
}

impl Probe for CachedWorkerEmbedding<'_> {
    fn replica(&self, e: u32) -> (Option<u64>, u32) {
        (self.replica_clock(e), 0)
    }
}

/// A row's stored state: value bits, Adagrad accumulator bits, clock.
fn row_state(table: &ShardedTable, e: u32) -> (Vec<u32>, Vec<u32>, u64) {
    let mut row = vec![0.0f32; table.dim()];
    let mut accum = vec![0.0f32; table.dim()];
    let clock = table.read_row(e, &mut row);
    table.read_accum(e, &mut accum);
    (bits(&row), bits(&accum), clock)
}

/// Rows every rank's every batch carries: owned by one rank, replicated (or
/// cached) by all the others, so each step sends several sources' gradients
/// to one owner's row and deferral budgets fill.
const HOT: usize = 4;
const ROWS: usize = 40;
const STEPS: usize = 40;

/// What a write-order run saw happen, per kind of flush.
struct Flushes {
    /// Write phases in which a deferred gradient hit its budget.
    budget: usize,
    /// Rows whose deferred gradient a read's sync took.
    sync: usize,
}

/// Runs `workers` (owner-ordered: route, then every owner applies) over
/// `table` beside `twins` (rank-ordered `apply_gradients`) over `twin` and
/// compares everything after every step.
fn check_write_order<W: Probe>(
    case: &str,
    mut workers: Vec<W>,
    mut twins: Vec<W>,
    table: &ShardedTable,
    twin: &ShardedTable,
    opt: &SparseOpt,
    rng: &mut Rng,
) -> Flushes {
    let (n, dim) = (workers.len(), table.dim());
    let exchange = WriteExchange::new(n);
    let mut flushes = Flushes { budget: 0, sync: 0 };
    for step in 0..STEPS {
        // A rank's batch: the hot rows plus a draw of the rest, with
        // repeats inside and across samples; every few steps one rank has
        // an empty shard and neither reads nor writes.
        let idle = (step % 5 == 3).then(|| rng.below(n));
        let batches: Vec<Vec<Vec<u32>>> = (0..n)
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| {
                        (0..HOT as u32)
                            .chain((0..rng.below(10)).map(|_| rng.below(ROWS) as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let grads: Vec<Vec<f32>> = batches
            .iter()
            .map(|b| {
                let total: usize = b.iter().map(Vec::len).sum();
                (0..total * dim)
                    .map(|_| rng.below(2001) as f32 / 1000.0 - 1.0)
                    .collect()
            })
            .collect();

        // Reads, one rank at a time: descending on the exchange's side,
        // ascending on the reference's. No read writes the table (a sync's
        // flush waits for the write phase), so the order cannot show.
        let active = |w: &usize| Some(*w) != idle;
        let pending =
            |w: &W| -> Vec<bool> { (0..ROWS as u32).map(|e| w.replica(e).1 > 0).collect() };
        let mut reads = vec![None; n];
        for w in (0..n).rev().filter(active) {
            let samples: Vec<&[u32]> = batches[w].iter().map(Vec::as_slice).collect();
            let mut out = vec![0.0f32; grads[w].len()];
            let before = pending(&workers[w]);
            let report = workers[w].read_batch(&samples, &mut out);
            let after = pending(&workers[w]);
            flushes.sync += before
                .iter()
                .zip(&after)
                .filter(|&(&b, &a)| b && !a)
                .count();
            reads[w] = Some((report, out));
        }
        for w in (0..n).filter(active) {
            let samples: Vec<&[u32]> = batches[w].iter().map(Vec::as_slice).collect();
            let mut twin_out = vec![0.0f32; grads[w].len()];
            let twin_read = twins[w].read_batch(&samples, &mut twin_out);
            let (read, out) = reads[w].as_ref().expect("read above");
            assert_eq!(
                read, &twin_read,
                "{case}: read report of rank {w}, step {step}"
            );
            assert_eq!(
                bits(out),
                bits(&twin_out),
                "{case}: rows read by rank {w}, step {step}"
            );
        }

        // A deferring rank's replica clocks move in the write phase only
        // when a budget flush turns its pending gradients into one update.
        let clocks = |workers: &[W]| -> Vec<Option<u64>> {
            let rows = 0..ROWS as u32;
            workers
                .iter()
                .flat_map(|w| rows.clone().map(|e| w.replica(e).0))
                .collect()
        };
        let clocks_before = clocks(&workers);

        // Writes. The reference is the token ring's order: ascending rank.
        // The exchange is routed and drained in *descending* rank, so only
        // its own ordering can make the two agree.
        let mut routed = vec![None; n];
        for w in (0..n).rev().filter(active) {
            let samples: Vec<&[u32]> = batches[w].iter().map(Vec::as_slice).collect();
            routed[w] = Some(workers[w].route_gradients(&samples, &grads[w], opt, &exchange));
        }
        for w in (0..n).rev() {
            exchange.apply_owned(w, table, opt);
        }
        for w in (0..n).filter(active) {
            let samples: Vec<&[u32]> = batches[w].iter().map(Vec::as_slice).collect();
            let applied = twins[w].apply_gradients(&samples, &grads[w], opt);
            assert_eq!(
                routed[w].as_ref(),
                Some(&applied),
                "{case}: report of rank {w}, step {step}"
            );
        }

        for e in 0..ROWS as u32 {
            assert_eq!(
                row_state(table, e),
                row_state(twin, e),
                "{case}: row {e}, step {step}"
            );
            for w in 0..n {
                assert_eq!(
                    workers[w].replica(e),
                    twins[w].replica(e),
                    "{case}: rank {w}'s replica of row {e}, step {step}"
                );
            }
        }
        let clocks_after = clocks(&workers);
        flushes.budget += (0..n)
            .filter(|&w| {
                let mine = w * ROWS..(w + 1) * ROWS;
                routed[w].as_ref().is_some_and(|r| r.deferred > 0)
                    && clocks_before[mine.clone()] != clocks_after[mine]
            })
            .count();
    }
    // Nothing is left in flight on either side. The barrier flush goes
    // through the owners too: every rank routes, then every owner applies;
    // the reference applies each rank's flush before the next routes.
    for w in 0..n {
        assert_eq!(
            exchange.apply_owned(w, table, opt),
            0,
            "{case}: undrained rows for {w}"
        );
    }
    let twin_exchange = WriteExchange::new(n);
    for w in 0..n {
        let flushed = workers[w].flush_all(&exchange);
        let twin_flushed = twins[w].flush_all(&twin_exchange);
        for owner in 0..n {
            twin_exchange.apply_owned(owner, twin, opt);
        }
        assert_eq!(flushed, twin_flushed, "{case}: final flush of {w}");
    }
    for owner in (0..n).rev() {
        exchange.apply_owned(owner, table, opt);
    }
    for e in 0..ROWS as u32 {
        assert_eq!(
            row_state(table, e),
            row_state(twin, e),
            "{case}: row {e} after the flush"
        );
    }
    flushes
}

#[test]
fn owner_ordered_matches_rank_ordered_reference() {
    // {2, 3, 4 workers} x {static replicas at s = 0, 4, 8, 100; LFU} x
    // {f32, int8 + feedback} x {SGD, Adagrad}, two seeds each: 120 cases.
    let mut cases = 0;
    for n in [2usize, 3, 4] {
        for policy in ["s0", "s4", "s8", "s100", "lfu"] {
            for int8 in [false, true] {
                for adagrad in [false, true] {
                    for seed in [0x5EED_u64, 0xC0FFEE] {
                        let case =
                            format!("n {n} {policy} int8 {int8} adagrad {adagrad} seed {seed:#x}");
                        let mut rng = Rng(seed ^ (cases as u64) << 32);
                        let primaries: Vec<u32> = (0..ROWS).map(|_| rng.below(n) as u32).collect();
                        let mut part = Partition::new(n, vec![0; 1], primaries.clone());
                        for e in 0..ROWS as u32 {
                            for w in 0..n as u32 {
                                let hot = (e as usize) < HOT;
                                if primaries[e as usize] != w && (hot || rng.below(3) == 0) {
                                    part.add_replica(e, w);
                                }
                            }
                        }
                        let freq: Vec<u64> = (0..ROWS).map(|_| 1 + rng.below(50) as u64).collect();
                        let opt = if adagrad {
                            SparseOpt::adagrad(0.05)
                        } else {
                            SparseOpt::sgd(0.1)
                        };
                        let format = if int8 {
                            SyncFormat::Int8
                        } else {
                            SyncFormat::F32
                        };
                        let dim = 1 + rng.below(4);
                        let table = ShardedTable::new(ROWS, dim, 0.1, seed);
                        let twin = ShardedTable::new(ROWS, dim, 0.1, seed);
                        if policy == "lfu" {
                            // Room for the hot rows and a few more: the
                            // mirrors of evicted rows come and go.
                            let make = |t| -> Vec<CachedWorkerEmbedding> {
                                (0..n as u32)
                                    .map(|w| {
                                        let mut worker = CachedWorkerEmbedding::new(
                                            w,
                                            t,
                                            &part,
                                            HOT + 3,
                                            StalenessBound::Bounded(100),
                                        );
                                        worker.set_sync_format(format, true);
                                        worker
                                    })
                                    .collect()
                            };
                            check_write_order(
                                &case,
                                make(&table),
                                make(&twin),
                                &table,
                                &twin,
                                &opt,
                                &mut rng,
                            );
                        } else {
                            let s = policy[1..].parse().expect("staleness");
                            let make = |t| -> Vec<WorkerEmbedding> {
                                (0..n as u32)
                                    .map(|w| {
                                        let mut worker = WorkerEmbedding::new(
                                            w,
                                            t,
                                            &part,
                                            &freq,
                                            StalenessBound::Bounded(s),
                                        );
                                        worker.set_sync_format(format, true);
                                        worker
                                    })
                                    .collect()
                            };
                            let flushes = check_write_order(
                                &case,
                                make(&table),
                                make(&twin),
                                &table,
                                &twin,
                                &opt,
                                &mut rng,
                            );
                            // The deferral budget max(1, s / n) is hit within
                            // the run everywhere but at s = 0 (nothing is
                            // deferred) and s = 100 on two workers (50). A
                            // sync takes a flush wherever a gradient can
                            // outlive its step (a budget of 2 or more) and a
                            // replica goes stale within the run (not at
                            // s = 100).
                            let budget = s == 4 || s == 8 || (s == 100 && n > 2);
                            assert_eq!(flushes.budget > 0, budget, "{case}");
                            let sync = s / n as u64 >= 2 && s < 100;
                            assert_eq!(flushes.sync > 0, sync, "{case}");
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 120);
}

/// The hand-off itself, across real threads: four ranks publish, meet at a
/// barrier, drain and apply their own rows, and meet again (the step's
/// closing collective), 120 times; every few rounds a rank has nothing to
/// publish. The table must end as if every round's contributions had been
/// applied one source at a time in ascending rank. (`make tsan` runs this
/// under ThreadSanitizer.)
#[test]
fn write_exchange_hands_off_across_threads() {
    const N: usize = 4;
    const ROUNDS: usize = 120;
    let dim = 3;
    let opt = SparseOpt::adagrad(0.05);
    // What `src` contributes in `round`, in routing order: the hot rows
    // (every source hits every owner) and a few of its own choosing.
    let contributions = |round: usize, src: usize| -> Vec<(u32, Vec<f32>)> {
        if (round + src).is_multiple_of(5) {
            return Vec::new();
        }
        let mut rng = Rng((round * N + src) as u64);
        (0..HOT as u32)
            .chain((0..rng.below(12)).map(|k| (HOT + (7 * k + src + round) % (ROWS - HOT)) as u32))
            .map(|row| {
                (
                    row,
                    (0..dim)
                        .map(|_| rng.below(2001) as f32 / 1000.0 - 1.0)
                        .collect(),
                )
            })
            .collect()
    };
    let table = ShardedTable::new(ROWS, dim, 0.1, 11);
    let exchange = WriteExchange::new(N);
    let group = hetgmp_comms::AllReduceGroup::new(N);
    std::thread::scope(|scope| {
        for rank in 0..N {
            let (table, exchange, group) = (&table, &exchange, &group);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let rows = contributions(round, rank);
                    if !rows.is_empty() {
                        let mut out = exchange.route_from(rank);
                        for (row, g) in &rows {
                            out.push(*row as usize % N, *row, g);
                        }
                    }
                    group.barrier();
                    let expected: usize = (0..N)
                        .flat_map(|src| contributions(round, src))
                        .filter(|(row, _)| *row as usize % N == rank)
                        .count();
                    assert_eq!(exchange.apply_owned(rank, table, &opt), expected);
                    group.barrier();
                }
            });
        }
    });
    let twin = ShardedTable::new(ROWS, dim, 0.1, 11);
    for round in 0..ROUNDS {
        for src in 0..N {
            for (row, g) in contributions(round, src) {
                twin.apply_grad(row, &g, &opt);
            }
        }
    }
    for e in 0..ROWS as u32 {
        assert_eq!(row_state(&table, e), row_state(&twin, e), "row {e}");
    }
}
