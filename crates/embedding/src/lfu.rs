//! A dynamic LFU embedding cache — the design of HET (Miao et al., VLDB
//! 2022), the predecessor system the paper builds on ("HET proposes an
//! embedding-cache-enabled architecture with fine-grained consistency").
//!
//! Where HET-GMP decides replicas *statically* from the bigraph (2D
//! vertex-cut), HET caches rows *dynamically* by observed access frequency.
//! This module provides the cache so the two designs can be compared on the
//! same substrate (see the `cache_comparison` ablation).

use crate::index::IdSlots;

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
#[derive(Debug)]
pub struct LfuCache {
    dim: usize,
    capacity: usize,
    /// id → slot index: a dense array that grows to the largest id cached.
    slots: IdSlots,
    /// Reverse map: slot → id (u32::MAX = free).
    ids: Vec<u32>,
    data: Vec<f32>,
    base_clock: Vec<u64>,
    local_updates: Vec<u64>,
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

impl LfuCache {
    /// Creates an empty cache for rows of `dim` floats with `capacity`
    /// slots.
    pub fn new(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            capacity,
            slots: IdSlots::default(),
            ids: vec![u32::MAX; capacity],
            data: vec![0.0; capacity * dim],
            base_clock: vec![0; capacity],
            local_updates: vec![0; capacity],
            slot_freq: vec![0; capacity],
            min_freq: 0,
            cursor: 0,
            counts: Vec::new(),
        }
    }

    /// Capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    /// True when `row` is cached.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        self.slots.get(row).is_some()
    }

    /// `row`'s slot, for callers that resolve a row once and then read its
    /// clock ([`LfuCache::clock_at`]). A slot is stable until the next
    /// admission.
    #[inline]
    pub(crate) fn slot_of(&self, row: u32) -> Option<usize> {
        self.slots.get(row)
    }

    /// The effective clock (`base + local`) of the row in `slot`.
    #[inline]
    pub(crate) fn clock_at(&self, slot: usize) -> u64 {
        self.base_clock[slot] + self.local_updates[slot]
    }

    /// Records an access to `row` (for admission statistics) and bumps its
    /// in-cache frequency if cached. Returns the updated global count.
    #[inline]
    pub fn touch(&mut self, row: u32) -> u64 {
        let i = row as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        let count = self.counts[i];
        if let Some(slot) = self.slots.get(row) {
            self.slot_freq[slot] = count;
        }
        count
    }

    /// Effective clock of a cached row.
    pub fn effective_clock(&self, row: u32) -> Option<u64> {
        self.slots.get(row).map(|s| self.clock_at(s))
    }

    /// Reads a cached row into `out`; false when absent.
    #[inline]
    pub fn read(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "buffer length != dim");
        match self.slots.get(row) {
            Some(s) => {
                out.copy_from_slice(&self.data[s * self.dim..(s + 1) * self.dim]);
                true
            }
            None => false,
        }
    }

    /// Applies a delta to a cached row, advancing its effective clock.
    #[inline]
    pub fn apply_local_delta(&mut self, row: u32, delta: &[f32]) -> bool {
        assert_eq!(delta.len(), self.dim, "delta length != dim");
        match self.slots.get(row) {
            Some(s) => {
                for (d, &x) in self.data[s * self.dim..(s + 1) * self.dim]
                    .iter_mut()
                    .zip(delta)
                {
                    *d += x;
                }
                self.local_updates[s] += 1;
                true
            }
            None => false,
        }
    }

    /// Offers a freshly-fetched row for admission. Admits when a slot is
    /// free or when `row`'s observed frequency exceeds the coldest cached
    /// row's (LFU displacement). Returns true if the row is now cached.
    pub fn admit(&mut self, row: u32, values: &[f32], primary_clock: u64) -> bool {
        assert_eq!(values.len(), self.dim, "values length != dim");
        if self.capacity == 0 {
            return false;
        }
        if let Some(s) = self.slots.get(row) {
            // Refresh in place.
            self.install_at(s, row, values, primary_clock);
            return true;
        }
        let freq = self.counts.get(row as usize).copied().unwrap_or(0);
        if self.slots.len() < self.capacity {
            let s = self.slots.len();
            self.slots.insert(row, s);
            self.install_at(s, row, values, primary_clock);
            self.slot_freq[s] = freq;
            return true;
        }
        let Some(victim_slot) = self.coldest_below(freq) else {
            return false;
        };
        let victim_id = self.ids[victim_slot];
        self.slots.remove(victim_id);
        self.slots.insert(row, victim_slot);
        self.install_at(victim_slot, row, values, primary_clock);
        self.slot_freq[victim_slot] = freq;
        true
    }

    /// The first of the coldest slots of a full cache, if it is strictly
    /// colder than `freq`; see the type docs for why this rarely scans.
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

    fn install_at(&mut self, slot: usize, row: u32, values: &[f32], primary_clock: u64) {
        self.ids[slot] = row;
        self.data[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(values);
        self.base_clock[slot] = primary_clock;
        self.local_updates[slot] = 0;
    }

    /// Refreshes a cached row after a staleness sync.
    ///
    /// # Panics
    /// Panics if the row is not cached.
    #[inline]
    pub fn refresh(&mut self, row: u32, values: &[f32], primary_clock: u64) {
        let s = self.slots.get(row).expect("row not cached");
        self.install_at(s, row, values, primary_clock);
    }

    /// Overwrites a cached row's values without touching its clock or
    /// frequency bookkeeping. The batched read path admits rows with
    /// placeholder data at classification time (so LFU victim selection is
    /// identical to the per-row order) and fills the values once the
    /// shard-grouped fetch lands. Returns false when the row is not cached
    /// — its admission was declined.
    #[inline]
    pub fn fill(&mut self, row: u32, values: &[f32]) -> bool {
        assert_eq!(values.len(), self.dim, "values length != dim");
        match self.slots.get(row) {
            Some(s) => {
                self.data[s * self.dim..(s + 1) * self.dim].copy_from_slice(values);
                true
            }
            None => false,
        }
    }

    /// Currently cached row ids (sorted).
    pub fn cached_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.ids.iter().copied().filter(|&i| i != u32::MAX).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
impl LfuCache {
    /// [`LfuCache::admit`] as it was first written, kept as the oracle: one
    /// scan for the first free slot, one for the first coldest slot, per
    /// miss.
    fn admit_reference(&mut self, row: u32, values: &[f32], primary_clock: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(s) = self.slots.get(row) {
            self.install_at(s, row, values, primary_clock);
            return true;
        }
        let freq = self.counts.get(row as usize).copied().unwrap_or(0);
        let slot = if self.slots.len() < self.capacity {
            self.ids.iter().position(|&i| i == u32::MAX).expect("free slot")
        } else {
            let (victim_slot, &victim_freq) = self
                .slot_freq
                .iter()
                .enumerate()
                .min_by_key(|&(_, f)| *f)
                .expect("non-empty cache");
            if freq <= victim_freq {
                return false;
            }
            self.slots.remove(self.ids[victim_slot]);
            victim_slot
        };
        self.slots.insert(row, slot);
        self.install_at(slot, row, values, primary_clock);
        self.slot_freq[slot] = freq;
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
