//! Dense id → slot indices.
//!
//! Embedding ids are already dense (`Partition` and the frequency table are
//! plain arrays over them), so every id → slot map a worker consults per
//! lookup is an array here, not a hash table: one indexed load, no hashing,
//! at 4 bytes per table row ([`IdSlots`]) or 8 ([`BatchIndex`]).

/// Marks an id with no slot.
pub(crate) const ABSENT: u32 = u32::MAX;

/// A persistent id → slot map: which cache slot, if any, holds row `id`.
///
/// Grows on insert, so owners that do not know the table's row count (the
/// LFU cache) need not be told it; an id beyond the array is absent.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSlots {
    slots: Vec<u32>,
    len: usize,
}

impl IdSlots {
    /// The slot of `id`, or `None` when it has none.
    #[inline]
    pub fn get(&self, id: u32) -> Option<usize> {
        match self.slots.get(id as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Maps `id` to `slot`, replacing any previous slot.
    pub fn insert(&mut self, id: u32, slot: usize) {
        assert!(slot < ABSENT as usize, "slot out of range");
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, ABSENT);
        }
        if self.slots[i] == ABSENT {
            self.len += 1;
        }
        self.slots[i] = slot as u32;
    }

    /// Forgets `id`'s slot, if it has one.
    pub fn remove(&mut self, id: u32) {
        if let Some(s) = self.slots.get_mut(id as usize) {
            if *s != ABSENT {
                *s = ABSENT;
                self.len -= 1;
            }
        }
    }

    /// Number of ids holding a slot.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// The per-batch resolver: id → index of that id among the batch's unique
/// ids. Entries carry the generation that wrote them, so starting a new
/// batch is one increment, never a clear.
#[derive(Debug, Clone)]
pub(crate) struct BatchIndex {
    /// `(stamp, slot)` per table row; live only when `stamp == generation`.
    entries: Vec<(u32, u32)>,
    /// Never 0, the stamp of an entry no batch has written.
    generation: u32,
}

impl Default for BatchIndex {
    fn default() -> Self {
        Self::new(0)
    }
}

impl BatchIndex {
    /// An index over ids `0..num_rows`.
    pub fn new(num_rows: usize) -> Self {
        Self {
            entries: vec![(0, 0); num_rows],
            generation: 1,
        }
    }

    /// Moves the generation counter, e.g. next to its wrap.
    #[cfg(test)]
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation.max(1);
    }

    /// Starts a new batch: every id becomes unresolved.
    pub fn begin(&mut self) {
        if self.generation == u32::MAX {
            // Stamps from 4 billion batches ago would read as live again.
            self.entries.fill((0, 0));
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// The slot `id` resolved to in this batch, if it has appeared.
    #[inline]
    pub fn get(&self, id: u32) -> Option<usize> {
        match self.entries.get(id as usize) {
            Some(&(stamp, slot)) if stamp == self.generation => Some(slot as usize),
            _ => None,
        }
    }

    /// The slot of an id known to have appeared in this batch.
    #[inline]
    pub fn slot(&self, id: u32) -> usize {
        self.get(id).expect("id was resolved this batch")
    }

    /// Resolves `id` to `slot` for the rest of this batch.
    ///
    /// # Panics
    /// Panics if `id` is not a row of the table the index was sized for.
    #[inline]
    pub fn insert(&mut self, id: u32, slot: usize) {
        self.entries[id as usize] = (self.generation, slot as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_slots_grow_replace_and_remove() {
        let mut m = IdSlots::default();
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(u32::MAX), None, "far out of range is absent");
        m.insert(7, 0);
        m.insert(2, 1);
        assert_eq!(
            (m.get(7), m.get(2), m.get(3), m.len()),
            (Some(0), Some(1), None, 2)
        );
        m.insert(7, 5);
        assert_eq!(
            (m.get(7), m.len()),
            (Some(5), 2),
            "replacing keeps the count"
        );
        m.remove(7);
        m.remove(7);
        m.remove(1000);
        assert_eq!((m.get(7), m.len()), (None, 1));
    }

    #[test]
    fn batch_index_forgets_on_begin() {
        let mut b = BatchIndex::new(4);
        assert_eq!(b.get(1), None, "nothing resolves before the first batch");
        b.begin();
        assert_eq!(b.get(1), None);
        b.insert(1, 3);
        assert_eq!(b.get(1), Some(3));
        assert_eq!(b.get(9), None, "out of range is unresolved");
        b.begin();
        assert_eq!(b.get(1), None);
    }

    #[test]
    fn batch_index_survives_generation_wrap() {
        let mut b = BatchIndex::new(3);
        b.insert(0, 1); // stamped with generation 1
        b.set_generation(u32::MAX - 1);
        b.begin();
        b.insert(2, 2); // stamped with u32::MAX
        b.begin(); // wraps
        assert_eq!(b.generation, 1);
        assert_eq!(
            b.get(0),
            None,
            "a stamp from before the wrap must not revive"
        );
        assert_eq!(b.get(2), None);
        b.insert(1, 0);
        assert_eq!(b.get(1), Some(0));
    }
}
