//! The owner-ordered write phase (§6 "Decentralized Communication").
//!
//! The paper's write path is model-parallel: a reduced gradient travels to
//! the GPU holding the row's primary, and that GPU applies it. A step's
//! write-back is therefore two halves with one rendezvous between them.
//! Before the rendezvous every source rank *routes* — reduces, encodes and
//! bins its gradient rows by primary owner — touching nothing shared but
//! its own row of the [`WriteExchange`]. After it every owner *applies* the
//! contributions addressed to it, sources in ascending rank, in one batched
//! [`RowStore::apply_grads`] call; all owners run side by side, on disjoint
//! rows.
//!
//! # Why a per-row order is all determinism needs
//!
//! Updates to one row do not commute (Adagrad's `g²` accumulator changes
//! the next step, and float addition is not associative); updates to
//! different rows do. A row has exactly one owner, the owner applies its
//! contributions source by source in routing order, and a source sends a
//! row at most twice per step: a read's sync flush, then the reduced
//! batch's write. So every row sees its updates in the order a
//! one-rank-at-a-time write-back produces, and every bit and clock agrees.
//!
//! # The hand-off
//!
//! One outbox per `(source, owner)` pair, each behind its own mutex. A
//! cell is written only by its source, before the rendezvous, and emptied
//! only by its owner, after it; the step's closing collective keeps the
//! next step's routing behind this step's drain. The locks are therefore
//! never contended — they are what lets safe Rust hand the buffers across
//! threads.

use parking_lot::{Mutex, MutexGuard};

use crate::sparse_optim::SparseOpt;
use crate::store::RowStore;
use crate::table::BatchScratch;

/// Gradient rows bound for one primary owner, in the order they were
/// routed: `grads` holds one `dim` slice per id.
#[derive(Debug, Default)]
struct Outbox {
    ids: Vec<u32>,
    grads: Vec<f32>,
}

impl Outbox {
    fn clear(&mut self) {
        self.ids.clear();
        self.grads.clear();
    }
}

/// An owner's side of the write phase: the contributions drained from its
/// column of the exchange, and the scratch of the batched apply.
#[derive(Default)]
struct Inbox {
    rows: Outbox,
    clocks: Vec<u64>,
    batch: BatchScratch,
}

/// The `n × n` hand-off between routing sources and applying owners; see
/// the module docs. One per run, shared by every worker thread.
pub struct WriteExchange {
    n: usize,
    /// The outbox from `src` to `dst` is cell `src * n + dst`.
    cells: Vec<Mutex<Outbox>>,
    inboxes: Vec<Mutex<Inbox>>,
}

impl WriteExchange {
    /// An empty exchange among `n` workers.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            cells: (0..n * n).map(|_| Mutex::default()).collect(),
            inboxes: (0..n).map(|_| Mutex::default()).collect(),
        }
    }

    /// Opens `src`'s outboxes for one step's routing. The rows pushed are
    /// published when the handle drops; the caller then joins the
    /// rendezvous that precedes [`WriteExchange::apply_owned`].
    ///
    /// # Panics
    /// Panics if an owner has not drained the previous step's rows.
    pub fn route_from(&self, src: usize) -> Routing<'_> {
        let boxes: Vec<_> = self.cells[src * self.n..(src + 1) * self.n]
            .iter()
            .map(|cell| cell.lock())
            .collect();
        assert!(
            boxes.iter().all(|b| b.ids.is_empty()),
            "worker {src} routes into an outbox its owner has not drained"
        );
        Routing { boxes }
    }

    /// Applies everything routed to `dst` this step to `table` under `opt`:
    /// the contributions of source 0, then 1, … each in routing order, as
    /// one batched call, leaving `dst`'s column of the exchange empty. Call
    /// after the rendezvous that follows routing, from `dst`'s thread.
    /// Returns the number of rows applied.
    ///
    /// The column is gathered rather than applied source by source because
    /// a tiered store sweeps its pages once per call: per-source calls
    /// raised `avazu_tiered`'s page faults by a third.
    pub fn apply_owned(&self, dst: usize, table: &dyn RowStore, opt: &SparseOpt) -> usize {
        let mut inbox = self.inboxes[dst].lock();
        let Inbox {
            rows,
            clocks,
            batch,
        } = &mut *inbox;
        rows.clear();
        for src in 0..self.n {
            let mut cell = self.cells[src * self.n + dst].lock();
            rows.ids.extend_from_slice(&cell.ids);
            rows.grads.extend_from_slice(&cell.grads);
            cell.clear();
        }
        if !rows.ids.is_empty() {
            clocks.clear();
            clocks.resize(rows.ids.len(), 0);
            table.apply_grads(&rows.ids, &rows.grads, opt, clocks, batch);
        }
        rows.ids.len()
    }
}

/// One source's open outboxes for one step (see
/// [`WriteExchange::route_from`]).
pub struct Routing<'x> {
    boxes: Vec<MutexGuard<'x, Outbox>>,
}

impl Routing<'_> {
    /// Routes gradient `grad` of row `row` to its primary `owner`.
    #[inline]
    pub fn push(&mut self, owner: usize, row: u32, grad: &[f32]) {
        let out = &mut self.boxes[owner];
        out.ids.push(row);
        out.grads.extend_from_slice(grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ShardedTable;
    use hetgmp_partition::Partition;
    use std::sync::Barrier;

    #[test]
    fn owner_applies_sources_in_ascending_rank() {
        // Row 5 is contributed by both sources; under Adagrad the order
        // shows in the stored bits. Source 1 routes first in wall time, and
        // source 0 must still be applied first.
        let opt = SparseOpt::adagrad(0.1);
        let (table, twin) = (
            ShardedTable::new(8, 2, 0.1, 3),
            ShardedTable::new(8, 2, 0.1, 3),
        );
        let x = WriteExchange::new(2);
        {
            let mut r = x.route_from(1);
            r.push(0, 5, &[0.5, -2.0]);
            r.push(1, 6, &[1.0, 1.0]);
        }
        {
            let mut r = x.route_from(0);
            r.push(0, 5, &[3.0, 0.25]);
            r.push(0, 1, &[1.0, 2.0]);
        }
        assert_eq!(x.apply_owned(0, &table, &opt), 3);
        assert_eq!(x.apply_owned(1, &table, &opt), 1);
        // A drained column is empty: nothing is applied twice.
        assert_eq!(x.apply_owned(0, &table, &opt), 0);
        for (row, g) in [
            (5, [3.0, 0.25]),
            (1, [1.0, 2.0]),
            (5, [0.5, -2.0]),
            (6, [1.0, 1.0]),
        ] {
            twin.apply_grad(row, &g, &opt);
        }
        let (mut a, mut b) = ([0.0f32; 2], [0.0f32; 2]);
        for row in 0..8 {
            assert_eq!(table.read_row(row, &mut a), twin.read_row(row, &mut b));
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "row {row}");
        }
    }

    #[test]
    fn concurrent_owners_match_a_one_thread_replay() {
        // Four owners apply their columns side by side on one owner-placed
        // table; a striped twin replays the same routing on one thread.
        const N: usize = 4;
        const ROWS: u32 = 512;
        const DIM: usize = 8;
        let primary = (0..ROWS).map(|r| (r * 5 + r / 7) % N as u32).collect();
        let part = Partition::new(N, vec![0], primary);
        let table = ShardedTable::with_partition(ROWS as usize, DIM, 0.1, 11, &part);
        let twin = ShardedTable::new(ROWS as usize, DIM, 0.1, 11);
        let (x, twin_x) = (WriteExchange::new(N), WriteExchange::new(N));
        let opt = SparseOpt::adagrad(0.05);
        const STEPS: u32 = 20;
        for step in 0..STEPS {
            for exchange in [&x, &twin_x] {
                for src in 0..N as u32 {
                    let mut r = exchange.route_from(src as usize);
                    // Sources overlap on rows, and a source repeats some.
                    for i in 0..64u32 {
                        let row = (step * 131 + src * 37 + i * i) % ROWS;
                        let g: Vec<f32> = (0..DIM)
                            .map(|c| (i as f32 - 31.5) * 0.01 + (src + c as u32) as f32)
                            .collect();
                        r.push(part.primary_of(row) as usize, row, &g);
                    }
                }
            }
            let start = Barrier::new(N);
            std::thread::scope(|s| {
                for dst in 0..N {
                    let (x, table, opt, start) = (&x, &table, &opt, &start);
                    s.spawn(move || {
                        start.wait();
                        x.apply_owned(dst, table, opt)
                    });
                }
            });
            for dst in 0..N {
                twin_x.apply_owned(dst, &twin, &opt);
            }
        }
        // An owner's rows are one segment: one lock per owner per step.
        assert_eq!(table.lock_acquisitions(), u64::from(STEPS) * N as u64);
        assert_eq!(table.total_updates(), twin.total_updates());
        let (mut a, mut b) = ([0.0f32; DIM], [0.0f32; DIM]);
        for row in 0..ROWS {
            assert_eq!(
                table.read_row(row, &mut a),
                twin.read_row(row, &mut b),
                "row {row} clock"
            );
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "row {row}");
            table.read_accum(row, &mut a);
            twin.read_accum(row, &mut b);
            assert_eq!(
                a.map(f32::to_bits),
                b.map(f32::to_bits),
                "row {row} accumulator"
            );
        }
    }

    #[test]
    #[should_panic(expected = "has not drained")]
    fn routing_over_undrained_rows_is_refused() {
        let x = WriteExchange::new(2);
        x.route_from(0).push(1, 3, &[1.0]);
        x.route_from(0);
    }
}
