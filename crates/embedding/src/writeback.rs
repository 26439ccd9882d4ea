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
//! contributions source by source, and one source contributes a row at most
//! once per step (the batch is reduced first) — so every row sees its
//! updates in ascending source rank, the same sequence a one-rank-at-a-time
//! write-back produces, and every stored bit and clock is the same.
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
    #[should_panic(expected = "has not drained")]
    fn routing_over_undrained_rows_is_refused() {
        let x = WriteExchange::new(2);
        x.route_from(0).push(1, 3, &[1.0]);
        x.route_from(0);
    }
}
