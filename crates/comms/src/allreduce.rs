//! A reusable sum-AllReduce across worker threads.
//!
//! Semantics match one NCCL `ncclAllReduce(sum)` call: every participant
//! contributes a same-length f32 vector and receives the element-wise sum.
//! A round has three phases — contribute, reduce, collect — fenced by a
//! few counters under one small mutex, so the group can be reused every
//! iteration without re-allocation races. The *data* never moves under
//! that mutex: each of the first `n − 1` arrivals copies its contribution
//! into the slot of its arrival position, the last arrival reduces the
//! slots and its own vector (it never copies in) into slot 0, and everyone
//! else copies the result out of slot 0 — each slot behind its own lock,
//! so the copies of different ranks run side by side. Only a max round
//! keeps its data under the mutex: it carries a clock, a vote or nothing at
//! all (`barrier`), max is exact and commutative, and folding it in place
//! costs each participant one lock instead of three.
//!
//! # The sum is order-free
//!
//! Float addition is not associative: summing in arrival order would make
//! same-seed runs diverge by ulps that chaos-amplify over thousands of
//! iterations. So each element's `n` contributions are added **in
//! ascending value order** ([`f32::total_cmp`]'s order), starting from
//! `-0.0` as `Iterator::sum` does: the result depends only on the
//! *multiset* of contributions, never on who arrived when — and so needs
//! no rank either, which is why the collective takes none (indexing the
//! slots by rank would also be deterministic, but would move every
//! `n ≥ 3` result, and the rank-less `allreduce_mean` is frozen API).
//! Nothing is sorted per element to get there:
//!
//! * at `n = 2` the value-sorted sum is `lo + hi`, and IEEE addition
//!   commutes, so it is plain `a + b`;
//! * at `n > 2` the contributions are taken `LANE` elements at a time,
//!   mapped to `total_cmp`'s integer key, and pushed through a fixed
//!   compare-exchange network (Batcher's merge exchange, built once for
//!   `n`) whose every step is a branch-free lane-wise `min`/`max` — `LANE`
//!   columns are sorted at once — then mapped back and added row by row.
//!
//! The group reduces whatever bits it is handed; under a lossy
//! `--sync-format` the *contribution* is what crosses the wire, so the
//! trainer runs each local gradient through [`crate::DenseQuantizer`]
//! before contributing and charges the collective at
//! [`crate::SyncFormat::dense_wire_bytes`].

use parking_lot::{Condvar, Mutex, RwLock};

/// Elements sorted side by side by one pass of the compare-exchange
/// network: wide enough that every step is a handful of full vectors on any
/// ISA, small enough that `n` rows of keys stay in L1.
const LANE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sum,
    Max,
    /// One-rendezvous combination of a `Sum` on the vector plus a scalar
    /// max and a boolean OR carried in the aux lanes — the trainers' BSP
    /// sync point (see [`AllReduceGroup::fused_mean_max`]).
    Fused,
}

/// The round's bookkeeping: everything the state mutex guards. No vector
/// data lives here.
struct State {
    /// Element-wise combine op and vector length of the current round (all
    /// participants of a round must agree on both).
    op: Op,
    len: usize,
    /// Running element-wise max of a `Max` round.
    max: Vec<f32>,
    /// Scalar max lane for `Fused` rounds (exact: f64 max is order-free).
    aux_max: f64,
    /// Boolean OR lane for `Fused` rounds.
    aux_or: bool,
    /// Participants that have entered this round; the value a participant
    /// reads on entry is its arrival position.
    arrived: usize,
    /// Arrivals whose contribution is complete in its slot.
    filled: usize,
    /// The round's result is complete (in `max`, or in slot 0).
    reduced: bool,
    /// Participants that have copied the result out. The round closes —
    /// and the next may overwrite the slots — when all `n` have.
    collected: usize,
}

/// A sum-AllReduce group over `n` participants.
pub struct AllReduceGroup {
    n: usize,
    state: Mutex<State>,
    /// Wakes participants waiting for the result, and those waiting for the
    /// previous round to drain.
    cv: Condvar,
    /// Wakes the last arrival when the slots are complete.
    filled_cv: Condvar,
    /// One persistent buffer per arrival position but the last (refilled,
    /// never re-allocated). Slot 0 doubles as the round's result.
    slots: Vec<RwLock<Vec<f32>>>,
    /// The compare-exchange network that sorts `n` values, and `n` rows of
    /// `LANE` keys for it to work on (only a round's last arrival takes
    /// this lock, so it is never contended).
    sorter: Mutex<Sorter>,
}

impl AllReduceGroup {
    /// Creates a group for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "group must have at least one participant");
        Self {
            n,
            state: Mutex::new(State {
                op: Op::Sum,
                len: 0,
                max: Vec::new(),
                aux_max: f64::NEG_INFINITY,
                aux_or: false,
                arrived: 0,
                filled: 0,
                reduced: false,
                collected: 0,
            }),
            cv: Condvar::new(),
            filled_cv: Condvar::new(),
            slots: (1..n).map(|_| RwLock::new(Vec::new())).collect(),
            sorter: Mutex::new(Sorter::new(n)),
        }
    }

    /// Number of participants.
    pub fn num_participants(&self) -> usize {
        self.n
    }

    /// Contributes `data` and blocks until all `n` participants have
    /// contributed; `data` is overwritten with the element-wise sum.
    ///
    /// Every participant must pass the same length each round.
    ///
    /// # Panics
    /// Panics on length disagreement within a round.
    pub fn allreduce_sum(&self, data: &mut [f32]) {
        self.allreduce(data, Op::Sum);
    }

    /// Element-wise max AllReduce (used e.g. to implement simulated-clock
    /// barriers: everyone leaves with the latest clock).
    pub fn allreduce_max(&self, data: &mut [f32]) {
        self.allreduce(data, Op::Max);
    }

    fn allreduce(&self, data: &mut [f32], op: Op) {
        self.combine(data, op, f64::NEG_INFINITY, false);
    }

    /// One rendezvous combining the vector reduction with the aux lanes.
    /// Returns `(max of all clocks, OR of all votes)`.
    fn combine(&self, data: &mut [f32], op: Op, clock: f64, vote: bool) -> (f64, bool) {
        if self.n == 1 {
            return (clock, vote);
        }
        let mut st = self.state.lock();
        // A fast participant may re-enter for the next round while the
        // previous round is still in its collection phase (`arrived == n`);
        // it must wait for the round to drain or it would overwrite a slot
        // a slower participant has yet to read.
        while st.arrived == self.n {
            self.cv.wait(&mut st);
        }
        let position = st.arrived;
        if position == 0 {
            st.op = op;
            st.len = data.len();
            st.aux_max = clock;
            st.aux_or = vote;
        } else {
            assert_eq!(st.len, data.len(), "allreduce length mismatch");
            assert_eq!(st.op, op, "mixed ops within one allreduce round");
            st.aux_max = st.aux_max.max(clock);
            st.aux_or |= vote;
        }
        st.arrived += 1;
        let last = st.arrived == self.n;

        if op == Op::Max {
            // Exact, commutative and tiny (a clock, a vote, a phase fence):
            // folded in place under the mutex, one lock per participant.
            if position == 0 {
                st.max.clear();
                st.max.extend_from_slice(data);
            } else {
                for (s, &x) in st.max.iter_mut().zip(data.iter()) {
                    if x > *s {
                        *s = x;
                    }
                }
            }
            if last {
                st.reduced = true;
                self.cv.notify_all();
            } else {
                while !st.reduced {
                    self.cv.wait(&mut st);
                }
            }
            data.copy_from_slice(&st.max);
        } else if !last {
            drop(st);
            {
                let mut slot = self.slots[position].write();
                slot.clear();
                slot.extend_from_slice(data);
            }
            st = self.state.lock();
            st.filled += 1;
            if st.filled + 1 == self.n && st.arrived == self.n {
                // The last arrival is already in, so it may be waiting.
                self.filled_cv.notify_one();
            }
            while !st.reduced {
                self.cv.wait(&mut st);
            }
            drop(st);
            data.copy_from_slice(&self.slots[0].read());
            st = self.state.lock();
        } else {
            // The last arrival reduces straight from its own vector.
            while st.filled + 1 < self.n {
                self.filled_cv.wait(&mut st);
            }
            drop(st);
            {
                let mut first = self.slots[0].write();
                let rest: Vec<_> = self.slots[1..].iter().map(|s| s.read()).collect();
                self.sorter.lock().sum_into(data, &mut first, &rest);
            }
            st = self.state.lock();
            st.reduced = true;
            self.cv.notify_all();
        }

        let aux = (st.aux_max, st.aux_or);
        st.collected += 1;
        if st.collected == self.n {
            // Round drained: open the next one.
            st.arrived = 0;
            st.filled = 0;
            st.reduced = false;
            st.collected = 0;
            self.cv.notify_all();
        }
        aux
    }

    /// AllReduce followed by division by `n` (mean of the contributions).
    pub fn allreduce_mean(&self, data: &mut [f32]) {
        self.allreduce_sum(data);
        let inv = 1.0 / self.n as f32;
        for x in data {
            *x *= inv;
        }
    }

    /// Collective OR: every participant contributes a vote and all of them
    /// receive `true` iff *any* participant voted `true`. This is the
    /// abort/recovery agreement used at iteration boundaries — a worker
    /// that must stop (strict-audit trip) or that just recovered from a
    /// fault announces it here, so the whole group leaves the loop at the
    /// same boundary and nobody strands a peer inside a blocking
    /// collective.
    pub fn agree(&self, vote: bool) -> bool {
        let mut flag = [if vote { 1.0f32 } else { 0.0 }];
        self.allreduce_max(&mut flag);
        flag[0] > 0.0
    }

    /// Pure thread rendezvous: returns once every participant has arrived.
    /// Charges nothing and moves no data — the trainer uses it to fence
    /// phases *within* an iteration (all reads drain before any gradient
    /// lands in the shared table; a crash rollback completes before any
    /// peer reads), which makes same-seed runs reproducible.
    pub fn barrier(&self) {
        let mut z = [0.0f32];
        self.allreduce_max(&mut z);
    }

    /// Fused dense-sync collective: one rendezvous that mean-reduces
    /// `data`, max-reduces `clock` and OR-reduces `vote`.
    ///
    /// Bit-identical to `allreduce_mean(data)` on the vector lane (same
    /// value-sorted sum, same `1/n` f32 multiply), and exact on the aux
    /// lanes (f64 max / bool OR are order-free) — so a BSP step issues one
    /// generation-barrier round trip instead of an `allreduce_mean` +
    /// `allreduce_max` (clock sync) pair, without perturbing any training
    /// math.
    pub fn fused_mean_max(&self, data: &mut [f32], clock: f64, vote: bool) -> (f64, bool) {
        let aux = self.combine(data, Op::Fused, clock, vote);
        let inv = 1.0 / self.n as f32;
        for x in data.iter_mut() {
            *x *= inv;
        }
        aux
    }
}

/// [`f32::total_cmp`]'s order as an integer key: flipping the magnitude
/// bits of negative values makes two's-complement order agree with the
/// float order. The map keeps the sign bit, so it is its own inverse.
#[inline(always)]
fn total_order_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Sorts `n` values without looking at them: the comparator list of
/// Batcher's merge exchange (Knuth 5.2.2, Algorithm M — works for any `n`,
/// `O(n log² n)` comparators), and the rows of keys it runs over.
struct Sorter {
    comparators: Vec<(usize, usize)>,
    /// `n` rows of `LANE` keys, row-major.
    keys: Vec<i32>,
}

impl Sorter {
    fn new(n: usize) -> Self {
        let mut comparators = Vec::new();
        if n > 2 {
            let top = n.next_power_of_two() / 2;
            let mut p = top;
            while p > 0 {
                let (mut q, mut r, mut d) = (top, 0, p);
                loop {
                    for i in 0..n - d {
                        if i & p == r {
                            comparators.push((i, i + d));
                        }
                    }
                    if q == p {
                        break;
                    }
                    d = q - p;
                    q /= 2;
                    r = p;
                }
                p /= 2;
            }
        }
        Self {
            comparators,
            keys: vec![0; n * LANE],
        }
    }

    /// The value-sorted sum of `mine`, `first` and `rest`, element by
    /// element, left in both `first` and `mine`.
    fn sum_into<S: std::ops::Deref<Target = Vec<f32>>>(
        &mut self,
        mine: &mut [f32],
        first: &mut [f32],
        rest: &[S],
    ) {
        if rest.is_empty() {
            // Two values: sorted or not, the sum is the same bits.
            for (m, f) in mine.iter_mut().zip(first) {
                let s = *m + *f;
                *m = s;
                *f = s;
            }
            return;
        }
        for start in (0..mine.len()).step_by(LANE) {
            let end = mine.len().min(start + LANE);
            let rows = [&mine[start..end], &first[start..end]]
                .into_iter()
                .chain(rest.iter().map(|r| &r[start..end]));
            // A short last block leaves stale keys in its spare lanes; they
            // are sorted and summed like the rest and never stored.
            for (keys, row) in self.keys.chunks_exact_mut(LANE).zip(rows) {
                for (k, x) in keys.iter_mut().zip(row) {
                    *k = total_order_key(x.to_bits() as i32);
                }
            }
            for &(i, j) in &self.comparators {
                let (head, tail) = self.keys.split_at_mut(j * LANE);
                let lo: &mut [i32; LANE] = (&mut head[i * LANE..][..LANE]).try_into().unwrap();
                let hi: &mut [i32; LANE] = (&mut tail[..LANE]).try_into().unwrap();
                for (a, b) in lo.iter_mut().zip(hi) {
                    (*a, *b) = ((*a).min(*b), (*a).max(*b));
                }
            }
            // Ascending rows are ascending values; `-0.0` is the seed of
            // `Iterator::sum`, whose bits this reproduces.
            let mut sums = [-0.0f32; LANE];
            for keys in self.keys.chunks_exact(LANE) {
                for (s, &k) in sums.iter_mut().zip(keys) {
                    *s += f32::from_bits(total_order_key(k) as u32);
                }
            }
            mine[start..end].copy_from_slice(&sums[..end - start]);
            first[start..end].copy_from_slice(&sums[..end - start]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The reduction as it was first written, kept as the oracle: each
    /// element's contributions sorted by `total_cmp`, then summed.
    fn sorted_sum_oracle(parts: &[Vec<f32>]) -> Vec<f32> {
        let mut col = vec![0.0f32; parts.len()];
        (0..parts[0].len())
            .map(|i| {
                for (c, p) in col.iter_mut().zip(parts) {
                    *c = p[i];
                }
                col.sort_by(f32::total_cmp);
                col.iter().sum()
            })
            .collect()
    }

    /// What a round leaves every participant with, computed as the group
    /// computes it: the last arrival folds the others' slots into its own
    /// vector and slot 0.
    fn sorterless_sum(parts: &[Vec<f32>]) -> Vec<f32> {
        let n = parts.len();
        if n == 1 {
            return parts[0].clone();
        }
        let mut mine = parts[n - 1].clone();
        let mut first = parts[0].clone();
        let rest: Vec<&Vec<f32>> = parts[1..n - 1].iter().collect();
        Sorter::new(n).sum_into(&mut mine, &mut first, &rest);
        assert_eq!(bits(&mine), bits(&first), "both copies of the result agree");
        mine
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit equality, except that any NaN matches any NaN (which payload an
    /// addition propagates is the one thing operand order may change).
    fn assert_same_sums(got: &[f32], want: &[f32], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{case} element {i}: {g:?} ({:#x}) vs {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The values a sum's order shows on: zeros of both signs, subnormals,
    /// the extremes, infinities (opposite ones make NaN), NaN itself, a
    /// repeated value, and ordinary ones.
    fn awkward_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::MIN_POSITIVE / 4.0),
            Just(-f32::from_bits(1)),
            Just(f32::MAX),
            Just(-f32::MAX),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::NAN),
            Just(1.5f32),
            Just(1.5f32),
            -1e3f32..1e3,
            -1e3f32..1e3,
            -1e-3f32..1e-3,
            -1e30f32..1e30,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn network_sum_matches_sorted_sum_bitwise(
            pool in prop::collection::vec(awkward_f32(), 40..=40),
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            for n in [1usize, 2, 3, 4, 5, 8, 24] {
                for len in [0usize, 1, LANE - 1, LANE, LANE + 1, 1000] {
                    let parts: Vec<Vec<f32>> = (0..n)
                        .map(|_| {
                            (0..len)
                                .map(|_| {
                                    state = state
                                        .wrapping_mul(6364136223846793005)
                                        .wrapping_add(1442695040888963407);
                                    pool[(state >> 33) as usize % pool.len()]
                                })
                                .collect()
                        })
                        .collect();
                    let case = format!("n {n} len {len}");
                    assert_same_sums(&sorterless_sum(&parts), &sorted_sum_oracle(&parts), &case);
                }
            }
        }
    }

    #[test]
    fn merge_exchange_sorts_every_zero_one_input() {
        // The zero-one principle: a comparator network that sorts every
        // 0/1 input sorts every input.
        for n in 3..=12usize {
            let sorter = Sorter::new(n);
            for mask in 0u32..1 << n {
                let mut v: Vec<u32> = (0..n).map(|i| mask >> i & 1).collect();
                for &(i, j) in &sorter.comparators {
                    assert!(i < j);
                    if v[i] > v[j] {
                        v.swap(i, j);
                    }
                }
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n {n} mask {mask:b}");
            }
        }
    }

    #[test]
    fn every_rank_leaves_every_round_with_the_oracles_bits() {
        // Ranks arrive in a different order every round (random yields),
        // the op and the vector length change between rounds, and a fast
        // rank re-enters while a slow one is still collecting. Every
        // contribution is a pure function of (round, rank), so each rank
        // checks its own result against the oracle.
        fn contribution(round: usize, rank: usize, len: usize) -> Vec<f32> {
            let mut state = (round * 31 + rank) as u64 ^ 0x9E37_79B9_7F4A_7C15;
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    unit * 10f32.powi((state >> 33) as i32 % 7 - 3)
                })
                .collect()
        }
        for n in [2usize, 3, 4, 8] {
            let g = Arc::new(AllReduceGroup::new(n));
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let g = Arc::clone(&g);
                    std::thread::spawn(move || {
                        let mut jitter = rank as u64 + 1;
                        for round in 0..500usize {
                            jitter = jitter
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            for _ in 0..(jitter >> 61) {
                                std::thread::yield_now();
                            }
                            let len = [0, 1, 5, LANE - 1, LANE, LANE + 1, 300][round % 7];
                            let all = |len| {
                                (0..n)
                                    .map(|r| contribution(round, r, len))
                                    .collect::<Vec<_>>()
                            };
                            match round % 4 {
                                0 => {
                                    let parts = all(len);
                                    let mut v = parts[rank].clone();
                                    let vote = (round / 4 + rank) % 5 == 0;
                                    let (clock, or) =
                                        g.fused_mean_max(&mut v, (round + rank) as f64, vote);
                                    let inv = 1.0 / n as f32;
                                    let want: Vec<f32> =
                                        sorted_sum_oracle(&parts).iter().map(|s| s * inv).collect();
                                    assert_eq!(
                                        bits(&v),
                                        bits(&want),
                                        "n {n} round {round} rank {rank}"
                                    );
                                    assert_eq!(clock, (round + n - 1) as f64);
                                    assert_eq!(or, (0..n).any(|r| (round / 4 + r) % 5 == 0));
                                }
                                1 => {
                                    let parts = all(len.max(1));
                                    let mut v = parts[rank].clone();
                                    g.allreduce_max(&mut v);
                                    for (i, x) in v.iter().enumerate() {
                                        let want =
                                            parts.iter().map(|p| p[i]).fold(f32::MIN, f32::max);
                                        assert_eq!(*x, want, "n {n} round {round} rank {rank}");
                                    }
                                }
                                2 => g.barrier(),
                                _ => assert_eq!(g.agree(round % 3 == rank % 3), round % 3 < n),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn single_participant_identity() {
        let g = AllReduceGroup::new(1);
        let mut v = vec![1.0, 2.0, 3.0];
        g.allreduce_sum(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        g.allreduce_mean(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sums_across_threads() {
        let g = Arc::new(AllReduceGroup::new(4));
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut v = vec![k as f32; 8];
                    g.allreduce_sum(&mut v);
                    v
                })
            })
            .collect();
        for h in handles {
            let v = h.join().unwrap();
            assert_eq!(v, vec![6.0; 8]); // 0+1+2+3
        }
    }

    #[test]
    fn mean_across_threads() {
        let g = Arc::new(AllReduceGroup::new(2));
        let handles: Vec<_> = [1.0f32, 3.0]
            .into_iter()
            .map(|x| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut v = vec![x; 4];
                    g.allreduce_mean(&mut v);
                    v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2.0; 4]);
        }
    }

    #[test]
    fn reusable_across_rounds() {
        let g = Arc::new(AllReduceGroup::new(3));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut results = Vec::new();
                    for round in 0..50u32 {
                        let mut v = vec![(k + round) as f32];
                        g.allreduce_sum(&mut v);
                        results.push(v[0]);
                    }
                    results
                })
            })
            .collect();
        for h in handles {
            let results = h.join().unwrap();
            for (round, &r) in results.iter().enumerate() {
                // Σ_k (k + round) = 3 + 3·round
                assert_eq!(r, (3 + 3 * round) as f32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        AllReduceGroup::new(0);
    }

    #[test]
    fn agree_is_a_collective_or() {
        let g = Arc::new(AllReduceGroup::new(3));
        // One dissenting vote flips everyone.
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let unanimous_no = g.agree(false);
                    let one_yes = g.agree(k == 1);
                    (unanimous_no, one_yes)
                })
            })
            .collect();
        for h in handles {
            let (no, yes) = h.join().unwrap();
            assert!(!no);
            assert!(yes);
        }
    }

    #[test]
    fn fused_matches_separate_collectives_bitwise() {
        // The fused rendezvous must be indistinguishable (to the bit) from
        // the three separate collectives it replaces.
        let n = 4;
        let g_sep = Arc::new(AllReduceGroup::new(n));
        let g_fused = Arc::new(AllReduceGroup::new(n));
        let handles: Vec<_> = (0..n)
            .map(|k| {
                let g_sep = Arc::clone(&g_sep);
                let g_fused = Arc::clone(&g_fused);
                std::thread::spawn(move || {
                    // Awkward values so sorted-sum order actually matters.
                    let base: Vec<f32> = (0..16)
                        .map(|i| ((k * 37 + i * 13) as f32).sin() * 1e3f32.powi((k as i32 % 3) - 1))
                        .collect();
                    let clock = 1.5 * (k as f64 + 1.0);
                    let vote = k == 2;

                    let mut sep = base.clone();
                    g_sep.allreduce_mean(&mut sep);
                    let mut c = [clock as f32];
                    g_sep.allreduce_max(&mut c);
                    let agreed = g_sep.agree(vote);

                    let mut fused = base;
                    let (max_clock, or) = g_fused.fused_mean_max(&mut fused, clock, vote);
                    for (a, b) in sep.iter().zip(fused.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    assert_eq!(max_clock, 6.0);
                    assert_eq!(c[0], 6.0);
                    assert_eq!(or, agreed);
                    assert!(or);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fused_reusable_and_false_votes_stay_false() {
        let g = Arc::new(AllReduceGroup::new(3));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for round in 0..20u32 {
                        let mut v = vec![(k + round as usize) as f32; 4];
                        let (mx, or) =
                            g.fused_mean_max(&mut v, (k as f64) + round as f64, false);
                        assert_eq!(v[0], (3 + 3 * round) as f32 / 3.0);
                        assert_eq!(mx, 2.0 + round as f64);
                        assert!(!or);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = Arc::new(AllReduceGroup::new(4));
        let arrived = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let arrived = Arc::clone(&arrived);
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    g.barrier();
                    // After the barrier every pre-barrier increment is visible.
                    arrived.load(Ordering::SeqCst)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }
}
