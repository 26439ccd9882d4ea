//! A reusable sum-AllReduce across worker threads.
//!
//! Semantics match one NCCL `ncclAllReduce(sum)` call: every participant
//! contributes a same-length f32 vector and receives the element-wise sum
//! (or, for the mean collectives, the sum times `1/n`). A round has three
//! phases — contribute, reduce, collect — fenced by a few counters under
//! one small mutex, so the group can be reused every iteration without
//! re-allocation races. No vector data is copied to get there: each of the
//! first `n − 1` arrivals *swaps* its vector into the slot of its arrival
//! position (a pointer swap under the mutex), the last arrival takes the
//! slots, reduces them and its own vector, and writes the result — scaled
//! by `1/n` in the same pass for a mean — into its own vector and back
//! into every slot, outside the mutex. Each contributor then swaps its own
//! allocation back out of its slot, result included. The slots' own
//! placeholder allocations never hold data, so a steady state allocates
//! nothing and every rank keeps the buffer it came with. Only a max round
//! keeps its data under the mutex: it carries a clock, a vote or nothing
//! at all (`barrier`), max is exact and commutative, and folding it in
//! place costs each participant one lock.
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
//! A mean multiplies that sum by the f32 `1/n` as it is stored, which is
//! the bits of a separate `×1/n` pass over the stored sum.
//!
//! The group reduces whatever bits it is handed; under a lossy
//! `--sync-format` the *contribution* is what crosses the wire, so the
//! trainer runs each local gradient through [`crate::DenseQuantizer`]
//! before contributing and charges the collective at
//! [`crate::SyncFormat::dense_wire_bytes`].

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Elements sorted side by side by one pass of the compare-exchange
/// network: wide enough that every step is a handful of full vectors on any
/// ISA, small enough that `n` rows of keys stay in L1.
const LANE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sum,
    /// A `Sum` times `1/n`, folded into the reduction's store: the plain
    /// mean and the trainers' BSP sync point, whose scalar max and boolean
    /// OR ride in the aux lanes (see [`AllReduceGroup::fused_mean_max`]).
    Mean,
    Max,
}

/// The round's bookkeeping and the contributors' slots: everything the
/// state mutex guards. Vector data is swapped in and out here, never
/// copied.
struct State {
    /// Element-wise combine op and vector length of the current round (all
    /// participants of a round must agree on both).
    op: Op,
    len: usize,
    /// Running element-wise max of a `Max` round.
    max: Vec<f32>,
    /// Scalar max lane (exact: f64 max is order-free).
    aux_max: f64,
    /// Boolean OR lane.
    aux_or: bool,
    /// Participants that have entered this round; the value a participant
    /// reads on entry is its arrival position.
    arrived: usize,
    /// The round's result is complete (in `max`, or in every slot).
    reduced: bool,
    /// Participants that have taken the result. The round closes — and
    /// the next may refill the slots — when all `n` have.
    collected: usize,
    /// One buffer per arrival position but the last. A contributor's
    /// vector sits here from its arrival until it takes the result; in
    /// between rounds each slot holds an empty placeholder. The last
    /// arrival takes the whole list out while it reduces.
    slots: Vec<Vec<f32>>,
}

/// A sum-AllReduce group over `n` participants.
pub struct AllReduceGroup {
    n: usize,
    state: Mutex<State>,
    /// Wakes participants waiting for the result, and those waiting for the
    /// previous round to drain.
    cv: Condvar,
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
                reduced: false,
                collected: 0,
                slots: vec![Vec::new(); n - 1],
            }),
            cv: Condvar::new(),
            sorter: Mutex::new(Sorter::new(n)),
        }
    }

    /// Number of participants.
    pub fn num_participants(&self) -> usize {
        self.n
    }

    /// Contributes `data` and blocks until all `n` participants have
    /// contributed; `data` is overwritten with the element-wise sum. The
    /// caller keeps its allocation: `data` leaves with the pointer and
    /// capacity it came with.
    ///
    /// Every participant must pass the same length each round.
    ///
    /// # Panics
    /// Panics on length disagreement within a round.
    pub fn allreduce_sum(&self, data: &mut Vec<f32>) {
        self.reduce(data, Op::Sum, f64::NEG_INFINITY, false);
    }

    /// AllReduce followed by division by `n` (mean of the contributions),
    /// the `1/n` multiply folded into the reduction's store.
    pub fn allreduce_mean(&self, data: &mut Vec<f32>) {
        self.reduce(data, Op::Mean, f64::NEG_INFINITY, false);
    }

    /// Fused dense-sync collective: one rendezvous that mean-reduces
    /// `data`, max-reduces `clock` and OR-reduces `vote`. Returns
    /// `(max of all clocks, OR of all votes)`.
    ///
    /// Bit-identical to `allreduce_mean(data)` on the vector lane, and
    /// exact on the aux lanes (f64 max / bool OR are order-free) — so a BSP
    /// step issues one generation-barrier round trip instead of an
    /// `allreduce_mean` + `allreduce_max` (clock sync) pair, without
    /// perturbing any training math.
    pub fn fused_mean_max(&self, data: &mut Vec<f32>, clock: f64, vote: bool) -> (f64, bool) {
        self.reduce(data, Op::Mean, clock, vote)
    }

    /// Element-wise max AllReduce (used e.g. to implement simulated-clock
    /// barriers: everyone leaves with the latest clock).
    pub fn allreduce_max(&self, data: &mut [f32]) {
        if self.n == 1 {
            return;
        }
        // Exact, commutative and tiny (a clock, a vote, a phase fence):
        // folded in place under the mutex, one lock per participant.
        let (mut st, position) = self.enter(Op::Max, data.len(), f64::NEG_INFINITY, false);
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
        if position + 1 == self.n {
            st.reduced = true;
            self.cv.notify_all();
        } else {
            while !st.reduced {
                self.cv.wait(&mut st);
            }
        }
        data.copy_from_slice(&st.max);
        self.leave(st);
    }

    /// A `Sum` or `Mean` round: contributors swap their vectors in and
    /// out of their slots, the last arrival reduces.
    fn reduce(&self, data: &mut Vec<f32>, op: Op, clock: f64, vote: bool) -> (f64, bool) {
        if self.n == 1 {
            return (clock, vote);
        }
        let (mut st, position) = self.enter(op, data.len(), clock, vote);
        if position + 1 < self.n {
            std::mem::swap(&mut st.slots[position], data);
            while !st.reduced {
                self.cv.wait(&mut st);
            }
            std::mem::swap(&mut st.slots[position], data);
        } else {
            // Every contribution is in its slot (each swapped in before
            // this arrival could take the lock). Reduce outside the mutex.
            let mut slots = std::mem::take(&mut st.slots);
            drop(st);
            // `s·1.0` is `s` to the bit for every sum the network stores
            // (an addition never returns a signalling NaN), so a sum round
            // shares the mean's store.
            let scale = if op == Op::Mean { 1.0 / self.n as f32 } else { 1.0 };
            self.sorter.lock().reduce_into(data, &mut slots, scale);
            st = self.state.lock();
            st.slots = slots;
            st.reduced = true;
            self.cv.notify_all();
        }
        self.leave(st)
    }

    /// Joins the current round — after the previous one has drained — and
    /// returns the locked state with this participant's arrival position.
    fn enter(&self, op: Op, len: usize, clock: f64, vote: bool) -> (MutexGuard<'_, State>, usize) {
        let mut st = self.state.lock();
        // A fast participant may re-enter for the next round while the
        // previous round is still in its collection phase (`arrived == n`);
        // it must wait for the round to drain or it would take a slot a
        // slower participant has yet to empty.
        while st.arrived == self.n {
            self.cv.wait(&mut st);
        }
        let position = st.arrived;
        if position == 0 {
            st.op = op;
            st.len = len;
            st.aux_max = clock;
            st.aux_or = vote;
        } else {
            assert_eq!(st.len, len, "allreduce length mismatch");
            assert_eq!(st.op, op, "mixed ops within one allreduce round");
            st.aux_max = st.aux_max.max(clock);
            st.aux_or |= vote;
        }
        st.arrived += 1;
        (st, position)
    }

    /// Takes the result: returns the aux lanes and, as the round's last
    /// collector, opens the next round.
    fn leave(&self, mut st: MutexGuard<'_, State>) -> (f64, bool) {
        let aux = (st.aux_max, st.aux_or);
        st.collected += 1;
        if st.collected == self.n {
            st.arrived = 0;
            st.reduced = false;
            st.collected = 0;
            self.cv.notify_all();
        }
        aux
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

    /// The value-sorted sum of `mine` and every vector in `others`,
    /// element by element, times `scale`, left in `mine` and in every
    /// vector of `others`.
    fn reduce_into(&mut self, mine: &mut [f32], others: &mut [Vec<f32>], scale: f32) {
        if let [other] = others {
            // Two values: sorted or not, the sum is the same bits.
            for (m, o) in mine.iter_mut().zip(other.iter_mut()) {
                let s = (*m + *o) * scale;
                *m = s;
                *o = s;
            }
            return;
        }
        for start in (0..mine.len()).step_by(LANE) {
            let end = mine.len().min(start + LANE);
            let rows = std::iter::once(&mine[start..end]).chain(others.iter().map(|r| &r[start..end]));
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
            for s in &mut sums {
                *s *= scale;
            }
            let sums = &sums[..end - start];
            mine[start..end].copy_from_slice(sums);
            for other in others.iter_mut() {
                other[start..end].copy_from_slice(sums);
            }
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

    /// What a sum round leaves every participant with, computed as the
    /// group computes it: the last arrival folds the others' slots into its
    /// own vector and writes the result back into every slot.
    fn sorterless_sum(parts: &[Vec<f32>]) -> Vec<f32> {
        let n = parts.len();
        if n == 1 {
            return parts[0].clone();
        }
        let mut mine = parts[n - 1].clone();
        let mut slots = parts[..n - 1].to_vec();
        Sorter::new(n).reduce_into(&mut mine, &mut slots, 1.0);
        for slot in &slots {
            assert_eq!(bits(&mine), bits(slot), "every copy of the result agrees");
        }
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
    fn every_contributor_gets_its_own_buffer_back() {
        // Every rank leaves every round with the allocation it came with —
        // pointer and capacity — holding the oracle's sum times 1/n to the
        // bit (`-0.0` included) after either mean collective, and the plain
        // sum after `allreduce_sum`. Column `i` of a round is `-0.0` on
        // every rank when `(i + round) % 5 == 0`.
        fn part(round: usize, rank: usize, len: usize) -> Vec<f32> {
            let mut state = (round * 131 + rank) as u64 ^ 0x2545_F491_4F6C_DD1D;
            (0..len)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    if (i + round).is_multiple_of(5) {
                        -0.0
                    } else {
                        unit * 10f32.powi((state >> 33) as i32 % 5 - 2)
                    }
                })
                .collect()
        }
        let len = 2 * LANE + 5;
        for n in [2usize, 3, 4] {
            let g = Arc::new(AllReduceGroup::new(n));
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let g = Arc::clone(&g);
                    std::thread::spawn(move || {
                        let mut v = Vec::with_capacity(len + rank);
                        let mut negative_zeros = 0;
                        for round in 0..30 {
                            let parts: Vec<_> = (0..n).map(|r| part(round, r, len)).collect();
                            v.clear();
                            v.extend_from_slice(&parts[rank]);
                            let own = (v.as_ptr(), v.capacity());
                            let mut want = sorted_sum_oracle(&parts);
                            match round % 3 {
                                0 => g.allreduce_mean(&mut v),
                                1 => {
                                    g.fused_mean_max(&mut v, 0.0, false);
                                }
                                _ => g.allreduce_sum(&mut v),
                            }
                            if round % 3 != 2 {
                                want.iter_mut().for_each(|s| *s *= 1.0 / n as f32);
                            }
                            let case = format!("n {n} rank {rank} round {round}");
                            assert_eq!((v.as_ptr(), v.capacity()), own, "{case}: not its own buffer");
                            assert_eq!(bits(&v), bits(&want), "{case}");
                            negative_zeros += v.iter().filter(|x| x.to_bits() == 1 << 31).count();
                        }
                        assert!(negative_zeros > 0, "the rounds must reduce to -0.0 somewhere");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
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
