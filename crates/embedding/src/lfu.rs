//! A dynamic LFU embedding cache — the design of HET (Miao et al., VLDB
//! 2022), the predecessor system the paper builds on ("HET proposes an
//! embedding-cache-enabled architecture with fine-grained consistency").
//!
//! Where HET-GMP decides replicas *statically* from the bigraph (2D
//! vertex-cut), HET caches rows *dynamically* by observed access frequency.
//! This module provides the cache so the two designs can be compared on the
//! same substrate (see the `cache_comparison` ablation).

use hetgmp_telemetry::{names, Recorder};

use crate::replica::{ReplicaPolicy, Replicas};
use crate::report::ReadReport;
use crate::store::RowStore;

/// A fixed-capacity least-frequently-used cache of embedding rows with
/// staleness bookkeeping compatible with the bounded-asynchrony protocol.
///
/// # Admission is amortised O(1)
///
/// Two facts make the victim search incremental. Slots are never freed (an
/// eviction re-fills its slot at once), so the occupied slots are always
/// `0..len()` and the first free one is `len()`. And a slot's frequency
/// never falls: [`LfuCache::touch`] raises it to the row's global count,
/// and an eviction installs a frequency strictly above the one it displaces.
/// So the cache keeps `min_freq`, a lower bound on every slot's frequency,
/// and `cursor`, below which every slot is strictly above `min_freq`: a
/// candidate no hotter than `min_freq` is declined without a look at the
/// slots, and the first coldest slot is the first slot at or after `cursor`
/// still at `min_freq`. Only when the cursor runs off the end — no slot is
/// left at that level — is the cache rescanned for the next minimum: one
/// pass over the slots per minimum *level*, not per miss.
pub type LfuCache = Replicas<LfuAdmission>;

/// What an [`LfuCache`] keeps beside its rows: the admission statistics.
#[derive(Debug, Clone)]
pub struct LfuAdmission {
    capacity: usize,
    /// In-cache access frequency per slot; never decreases.
    slot_freq: Vec<u64>,
    /// A lower bound on every occupied slot's frequency.
    min_freq: u64,
    /// Every slot below this index is strictly above `min_freq`.
    cursor: usize,
    /// Global access counts, indexed by id and grown to the largest id
    /// touched (admission decisions need frequency estimates for *uncached*
    /// rows too).
    counts: Vec<u64>,
}

impl LfuAdmission {
    /// `row`'s global access count.
    fn count(&self, row: u32) -> u64 {
        self.counts.get(row as usize).copied().unwrap_or(0)
    }

    /// The first of the coldest slots of a full cache, if it is strictly
    /// colder than `freq`; see [`LfuCache`] for why this rarely scans.
    fn coldest_below(&mut self, freq: u64) -> Option<usize> {
        loop {
            if freq <= self.min_freq {
                return None;
            }
            let hotter = self.slot_freq[self.cursor..]
                .iter()
                .take_while(|&&f| f > self.min_freq)
                .count();
            self.cursor += hotter;
            if self.cursor < self.capacity {
                return Some(self.cursor);
            }
            // No slot is left at this level: the next minimum is the least
            // frequency present, and it is first met at or after slot 0.
            self.min_freq = *self.slot_freq.iter().min().expect("non-empty cache");
            self.cursor = 0;
        }
    }
}

impl LfuCache {
    /// Creates an empty cache for rows of `dim` floats with `capacity`
    /// slots.
    pub fn new(dim: usize, capacity: usize) -> Self {
        let admission = LfuAdmission {
            capacity,
            slot_freq: vec![0; capacity],
            min_freq: 0,
            cursor: 0,
            counts: Vec::new(),
        };
        Replicas::with_capacity(dim, capacity, admission)
    }

    /// Capacity in rows.
    pub fn capacity(&self) -> usize {
        self.design.capacity
    }

    /// Records an access to `row` (for admission statistics) and bumps its
    /// in-cache frequency if cached. Returns the updated global count.
    #[inline]
    pub fn touch(&mut self, row: u32) -> u64 {
        let a = &mut self.design;
        let i = row as usize;
        if i >= a.counts.len() {
            a.counts.resize(i + 1, 0);
        }
        a.counts[i] += 1;
        let count = a.counts[i];
        if let Some(slot) = self.slot_of(row) {
            self.design.slot_freq[slot] = count;
        }
        count
    }

    /// Offers a freshly-fetched row for admission. Admits when a slot is
    /// free or when `row`'s observed frequency exceeds the coldest cached
    /// row's (LFU displacement). Returns true if the row is now cached.
    pub fn admit(&mut self, row: u32, values: &[f32], primary_clock: u64) -> bool {
        assert_eq!(values.len(), self.dim, "values length != dim");
        let Some(slot) = self.admission_slot(row) else {
            return false;
        };
        self.claim(slot, row, primary_clock).copy_from_slice(values);
        true
    }

    /// The slot `row` is admitted to — its own when cached (a refresh in
    /// place), else a free one or the coldest one's it displaces, taking
    /// `row`'s count as its frequency — or `None` when admission is
    /// declined.
    fn admission_slot(&mut self, row: u32) -> Option<usize> {
        if self.design.capacity == 0 {
            return None;
        }
        if let Some(s) = self.slot_of(row) {
            return Some(s);
        }
        let freq = self.design.count(row);
        let slot = if self.len() < self.design.capacity {
            self.len()
        } else {
            self.design.coldest_below(freq)?
        };
        self.design.slot_freq[slot] = freq;
        Some(slot)
    }

    /// Refreshes a cached row after a staleness sync.
    ///
    /// # Panics
    /// Panics if the row is not cached.
    #[inline]
    pub fn refresh(&mut self, row: u32, values: &[f32], primary_clock: u64) {
        self.install(row, values, primary_clock);
    }

    /// Overwrites a cached row's values without touching its clock or
    /// frequency bookkeeping. The batched read path admits rows at
    /// classification time (so LFU victim selection is identical to the
    /// per-row order) and fills the values once the shard-grouped fetch
    /// lands. Returns false when the row is not cached — its admission was
    /// declined.
    #[inline]
    pub fn fill(&mut self, row: u32, values: &[f32]) -> bool {
        assert_eq!(values.len(), self.dim, "values length != dim");
        match self.slot_of(row) {
            Some(s) => {
                self.values_mut(s).copy_from_slice(values);
                true
            }
            None => false,
        }
    }

    /// Currently cached row ids (sorted).
    pub fn cached_ids(&self) -> Vec<u32> {
        let mut ids = self.rows().to_vec();
        ids.sort_unstable();
        ids
    }
}

/// HET's decisions: admit by observed access frequency, take no part in
/// the inter-embedding pass, defer nothing.
impl ReplicaPolicy for LfuCache {
    /// LFU touches are stateful, so they run in batch order, local
    /// primaries included.
    #[inline]
    fn touch(&mut self, e: u32) {
        LfuCache::touch(self, e);
    }
    /// Dynamic admission: the fetch already pays the traffic. The row is
    /// admitted *now* — clock as observed here, values left to the fetch —
    /// so LFU victim selection matches the per-row order exactly; the data
    /// fills in when the batched fetch lands.
    #[inline]
    fn miss(&mut self, e: u32, table: &dyn RowStore) {
        let clock = table.clock(e);
        if let Some(slot) = self.admission_slot(e) {
            self.claim(slot, e, clock);
        }
    }
    /// A no-op when the admission was declined.
    #[inline]
    fn fill(&mut self, e: u32, row: &[f32]) {
        LfuCache::fill(self, e, row);
    }
    /// Were a later admission in the same batch to evict a sync victim, the
    /// per-row order would have refreshed it first and evicted it after,
    /// landing in the same final state as skipping it here. (The strict LFU
    /// rule cannot in fact evict a row the batch has just touched — see
    /// `tests/worker_differential.rs` — so the test is defensive.)
    #[inline]
    fn refresh(&mut self, e: u32, row: &mut [f32], clock: u64) {
        if self.contains(e) {
            self.install(e, row, clock);
        }
    }
    /// For the dynamic cache a fresh or refreshed row is a hit; only a full
    /// fetch-and-admit is a miss.
    fn record_read(&self, recorder: &Recorder, report: &ReadReport) {
        recorder.counter_add(
            names::EMBED_CACHE_HIT,
            report.local_fresh + report.intra_syncs,
        );
        recorder.counter_add(names::EMBED_CACHE_MISS, report.remote_fetches);
    }
    fn read_mix(report: &ReadReport) -> [(&'static str, u64); 2] {
        [
            ("cache_hit", report.local_fresh + report.intra_syncs),
            ("cache_miss", report.remote_fetches),
        ]
    }
}

#[cfg(test)]
impl LfuCache {
    /// [`LfuCache::admit`] as it was first written, kept as the oracle: one
    /// scan for the coldest slot per miss once the cache is full. (Slots
    /// are never freed, so the first free slot is `len()`.)
    fn admit_reference(&mut self, row: u32, values: &[f32], primary_clock: u64) -> bool {
        if self.design.capacity == 0 {
            return false;
        }
        let slot = if let Some(s) = self.slot_of(row) {
            s
        } else {
            let freq = self.design.count(row);
            let slot = if self.len() < self.design.capacity {
                self.len()
            } else {
                let (victim_slot, &victim_freq) = self
                    .design
                    .slot_freq
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, f)| *f)
                    .expect("non-empty cache");
                if freq <= victim_freq {
                    return false;
                }
                victim_slot
            };
            self.design.slot_freq[slot] = freq;
            slot
        };
        self.claim(slot, row, primary_clock).copy_from_slice(values);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cursor finds the double scan's victim: the same admissions,
        /// the same slot for every cached id, after every operation.
        #[test]
        fn admit_matches_double_scan_reference(
            capacity_class in 0usize..5,
            ids_class in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let capacity = [0, 1, 2, 7, 64][capacity_class];
            // Few ids against the capacity keeps most slots tied at the
            // same few frequencies; many ids keeps the cache evicting.
            let num_ids = [3u64, 9, 80, 400][ids_class];
            let mut state = seed;
            let mut next = move |n: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let mut fast = LfuCache::new(1, capacity);
            let mut slow = LfuCache::new(1, capacity);
            for op in 0..400u64 {
                let row = next(num_ids) as u32;
                match next(4) {
                    // A batch touches an id once and offers it if uncached —
                    // the worker's sequence.
                    0 | 1 => {
                        prop_assert_eq!(fast.touch(row), slow.touch(row));
                        if !slow.contains(row) {
                            let clock = next(50);
                            prop_assert_eq!(
                                fast.admit(row, &[op as f32], clock),
                                slow.admit_reference(row, &[op as f32], clock),
                                "admit of row {} at op {}", row, op
                            );
                        }
                    }
                    // Touches alone pile ties up and lift cached slots.
                    2 => prop_assert_eq!(fast.touch(row), slow.touch(row)),
                    // An untouched offer (frequency possibly 0), or a
                    // refresh in place when the row is cached.
                    _ => prop_assert_eq!(
                        fast.admit(row, &[op as f32], op),
                        slow.admit_reference(row, &[op as f32], op),
                        "offer of row {} at op {}", row, op
                    ),
                }
                prop_assert_eq!(fast.cached_ids(), slow.cached_ids(), "op {}", op);
                for id in slow.cached_ids() {
                    prop_assert_eq!(fast.slot_of(id), slow.slot_of(id), "slot of {} at op {}", id, op);
                    prop_assert_eq!(fast.effective_clock(id), slow.effective_clock(id));
                }
            }
        }
    }

    #[test]
    fn fills_free_slots_first() {
        let mut c = LfuCache::new(2, 2);
        assert!(c.is_empty());
        assert!(c.admit(5, &[1.0, 2.0], 0));
        assert!(c.admit(9, &[3.0, 4.0], 0));
        assert_eq!(c.len(), 2);
        let mut buf = [0.0; 2];
        assert!(c.read(5, &mut buf));
        assert_eq!(buf, [1.0, 2.0]);
    }

    #[test]
    fn lfu_displacement() {
        let mut c = LfuCache::new(1, 2);
        c.admit(1, &[1.0], 0);
        c.admit(2, &[2.0], 0);
        // Row 3 has frequency 0 — not admitted over rows with equal freq.
        assert!(!c.admit(3, &[3.0], 0));
        // Make row 3 hot: 5 accesses; rows 1/2 get 1 each.
        c.touch(1);
        c.touch(2);
        for _ in 0..5 {
            c.touch(3);
        }
        assert!(c.admit(3, &[3.0], 0));
        assert!(c.contains(3));
        // One of 1/2 was evicted.
        assert_eq!(c.len(), 2);
        assert!(!(c.contains(1) && c.contains(2)));
    }

    #[test]
    fn clock_and_delta_tracking() {
        let mut c = LfuCache::new(2, 1);
        c.admit(4, &[0.0, 0.0], 10);
        assert_eq!(c.effective_clock(4), Some(10));
        c.apply_local_delta(4, &[1.0, -1.0]);
        assert_eq!(c.effective_clock(4), Some(11));
        let mut buf = [0.0; 2];
        c.read(4, &mut buf);
        assert_eq!(buf, [1.0, -1.0]);
        c.refresh(4, &[9.0, 9.0], 20);
        assert_eq!(c.effective_clock(4), Some(20));
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = LfuCache::new(2, 0);
        c.touch(1);
        assert!(!c.admit(1, &[0.0, 0.0], 0));
        assert!(!c.contains(1));
    }

    #[test]
    fn readmission_refreshes() {
        let mut c = LfuCache::new(1, 1);
        c.admit(7, &[1.0], 3);
        c.apply_local_delta(7, &[0.5]);
        assert!(c.admit(7, &[2.0], 8)); // refresh path
        assert_eq!(c.effective_clock(7), Some(8));
        let mut buf = [0.0];
        c.read(7, &mut buf);
        assert_eq!(buf, [2.0]);
    }

    #[test]
    fn fill_overwrites_data_only() {
        let mut c = LfuCache::new(2, 1);
        c.admit(3, &[0.0, 0.0], 7);
        c.apply_local_delta(3, &[1.0, 1.0]);
        assert!(c.fill(3, &[5.0, 6.0]));
        assert_eq!(c.effective_clock(3), Some(8), "clock untouched by fill");
        let mut buf = [0.0; 2];
        c.read(3, &mut buf);
        assert_eq!(buf, [5.0, 6.0]);
        assert!(!c.fill(9, &[0.0, 0.0]), "absent row is a no-op");
    }

    #[test]
    fn cached_ids_sorted() {
        let mut c = LfuCache::new(1, 3);
        c.admit(9, &[0.0], 0);
        c.admit(2, &[0.0], 0);
        assert_eq!(c.cached_ids(), vec![2, 9]);
    }
}
