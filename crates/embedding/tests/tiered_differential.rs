//! Differential proptests: [`TieredTable`] must be *bit-identical* to
//! [`ShardedTable`] — row values, Adagrad accumulator values, and clocks —
//! under random interleavings of `read_rows` / `apply_grads` / `write_rows`
//! with duplicate rows, while the tiny RAM budget forces pages to spill and
//! fault *in the middle of batches*. This is the contract that lets the
//! trainer swap storage tiers without re-validating any numerics: where the
//! bytes live must never change what the bytes are.
//!
//! One deliberate asymmetry: `read_accum`'s *presence* flag is allowed to
//! differ (ShardedTable allocates accumulators per 256-row lock stripe,
//! TieredTable per page), so these tests compare accumulator **values**,
//! which must match bit for bit — an implicitly-zero accumulator reads as
//! zeros on both sides either way.

use hetgmp_embedding::{
    BatchScratch, CapacityStats, RowStore, ShardedTable, SparseOpt, TieredConfig, TieredTable,
};
use proptest::prelude::*;

/// A randomly-generated interleaved workload: table shape, optimizer, and a
/// sequence of (operation, rows) steps with duplicates allowed.
#[derive(Debug, Clone)]
struct Workload {
    num_rows: usize,
    dim: usize,
    seed: u64,
    opt: SparseOpt,
    /// `(op % 3, rows)`: 0 ⇒ apply_grads, 1 ⇒ write_rows, 2 ⇒ read_rows.
    steps: Vec<(u8, Vec<u32>)>,
}

fn opt_strategy() -> impl Strategy<Value = SparseOpt> {
    prop_oneof![
        (0.001f32..1.0).prop_map(|lr| SparseOpt::Sgd { lr }),
        (0.001f32..1.0).prop_map(|lr| SparseOpt::Adagrad { lr, eps: 1e-8 }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (2usize..400, 1usize..16, 0u64..u64::MAX, opt_strategy()).prop_flat_map(
        |(num_rows, dim, seed, opt)| {
            let steps = prop::collection::vec(
                (0u8..3, prop::collection::vec(0..num_rows as u32, 1..64)),
                1..8,
            );
            steps.prop_map(move |steps| Workload {
                num_rows,
                dim,
                seed,
                opt,
                steps,
            })
        },
    )
}

/// A tiered twin squeezed hard: 4-row pages and RAM for only ~2 of them, so
/// any step touching 3+ pages evicts (and on Adagrad, writes back) mid-batch.
fn tiny_tiered(num_rows: usize, dim: usize, seed: u64) -> TieredTable {
    TieredTable::new(
        num_rows,
        dim,
        0.08,
        seed,
        TieredConfig {
            budget_bytes: 2 * 4 * dim * 4,
            dir: None,
            rows_per_page: 4,
        },
    )
}

/// Deterministic pseudo-gradient for (step, position, coordinate): the two
/// tables must see the same inputs without sharing buffers.
fn grad_at(step: usize, pos: usize, coord: usize) -> f32 {
    let x = (step * 7919 + pos * 104729 + coord * 31) as u32;
    (x.wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5
}

fn assert_stores_bit_identical(a: &dyn RowStore, b: &dyn RowStore, num_rows: usize, dim: usize) {
    let mut ra = vec![0.0f32; dim];
    let mut rb = vec![0.0f32; dim];
    for row in 0..num_rows as u32 {
        let ca = a.read_row(row, &mut ra);
        let cb = b.read_row(row, &mut rb);
        assert_eq!(ca, cb, "row {row} clock");
        assert_eq!(
            ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "row {row} data"
        );
        // Accumulator *values* must match; presence granularity may not
        // (stripe vs page) — zero-fill makes absent read as zeros.
        ra.fill(0.0);
        rb.fill(0.0);
        a.read_accum(row, &mut ra);
        b.read_accum(row, &mut rb);
        assert_eq!(
            ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "row {row} accumulator"
        );
    }
    assert_eq!(a.total_updates(), b.total_updates());
}

/// Runs `w` on a [`ShardedTable`] and its squeezed tiered twin side by side:
/// every op's outputs and the final tables must match bit for bit. Returns
/// the tiered table's counters.
fn run_against_sharded(w: &Workload) -> CapacityStats {
    let mem = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
    let tiered = tiny_tiered(w.num_rows, w.dim, w.seed);
    let mut s_mem = BatchScratch::default();
    let mut s_tier = BatchScratch::default();
    for (si, (op, rows)) in w.steps.iter().enumerate() {
        let mut buf = vec![0.0f32; rows.len() * w.dim];
        for (pos, g) in buf.chunks_mut(w.dim).enumerate() {
            for (coord, v) in g.iter_mut().enumerate() {
                *v = grad_at(si, pos, coord);
            }
        }
        match op % 3 {
            0 => {
                let mut c_mem = vec![0u64; rows.len()];
                let mut c_tier = vec![0u64; rows.len()];
                mem.apply_grads(rows, &buf, &w.opt, &mut c_mem, &mut s_mem);
                tiered.apply_grads(rows, &buf, &w.opt, &mut c_tier, &mut s_tier);
                assert_eq!(c_mem, c_tier, "per-op clocks, step {si}");
            }
            1 => {
                mem.write_rows(rows, &buf, &mut s_mem);
                tiered.write_rows(rows, &buf, &mut s_tier);
            }
            _ => {
                let mut o_mem = vec![0.0f32; rows.len() * w.dim];
                let mut o_tier = vec![0.0f32; rows.len() * w.dim];
                let mut c_mem = vec![0u64; rows.len()];
                let mut c_tier = vec![0u64; rows.len()];
                mem.read_rows(rows, &mut o_mem, &mut c_mem, &mut s_mem);
                tiered.read_rows(rows, &mut o_tier, &mut c_tier, &mut s_tier);
                assert_eq!(c_mem, c_tier, "read clocks, step {si}");
                assert_eq!(
                    o_mem.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    o_tier.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "read data, step {si}"
                );
            }
        }
    }
    assert_stores_bit_identical(&mem, &tiered, w.num_rows, w.dim);
    // The squeeze was real: whenever anything is spilled, the pool is back
    // inside its budget at rest.
    let stats = tiered.capacity_stats();
    assert!(
        stats.resident_bytes <= stats.budget_bytes || stats.spilled_bytes == 0,
        "over budget with evictable pages: resident {} > budget {}",
        stats.resident_bytes,
        stats.budget_bytes
    );
    stats
}

/// Page buffers are recycled across roles: the buffers of an evicted page
/// *with* accumulators (both full of live numbers) are what the next faulted
/// page — with or without accumulators — decodes into, and what a page's
/// first Adagrad update takes as its zeroed accumulator block. Any stale
/// float surviving a reuse shows up as a mismatch against the in-memory
/// table. 4-row pages, RAM for two value blocks: a page with accumulators
/// fills the budget alone, so every step below evicts.
#[test]
fn recycled_buffers_never_leak_between_pages() {
    let page = |p: u32| -> Vec<u32> { (4 * p..4 * p + 4).collect() };
    let stats = run_against_sharded(&Workload {
        num_rows: 24,
        dim: 3,
        seed: 17,
        opt: SparseOpt::Adagrad { lr: 0.3, eps: 1e-8 },
        steps: vec![
            (0, page(0)), // page 0 gains accumulators: values + accum resident
            (2, page(2)), // evicts 0 (two live buffers freed); 2 has no accum
            (2, page(3)), // second recycled buffer, formerly 0's accumulators
            (0, page(4)), // fresh accumulators for 4 from a recycled buffer
            (2, page(0)), // the reverse: accum page into accum-less buffers
            (1, page(5)), // overwrite an accum-less page in a recycled buffer
            (0, page(2)), // accumulators for a page that was spilled without
            (2, page(4)),
            (2, page(5)),
            (2, page(2)),
        ],
    });
    assert!(stats.fault_loads >= 8, "every step should fault: {stats:?}");
    assert!(stats.writebacks >= 4, "dirty pages must round-trip: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Construction alone: a freshly built tiered table (which spills its
    /// tail pages immediately) reads bit-identical to the in-memory table.
    #[test]
    fn initialization_matches_sharded(
        num_rows in 2usize..400,
        dim in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let mem = ShardedTable::new(num_rows, dim, 0.08, seed);
        let tiered = tiny_tiered(num_rows, dim, seed);
        assert_stores_bit_identical(&mem, &tiered, num_rows, dim);
    }

    /// Random interleavings of apply_grads / write_rows / read_rows with
    /// duplicate rows and forced mid-batch evictions: every read observes
    /// the same bits and clocks, and the final tables match end to end.
    #[test]
    fn mixed_interleaving_matches_sharded(w in workload_strategy()) {
        run_against_sharded(&w);
    }

    /// The Belady plan is policy-only: running the same workload with an
    /// (arbitrary, even wrong) epoch plan installed yields bit-identical
    /// tables to the planless run — only fault counts may differ.
    #[test]
    fn epoch_plan_never_changes_results(w in workload_strategy()) {
        let unplanned = tiny_tiered(w.num_rows, w.dim, w.seed);
        let planned = tiny_tiered(w.num_rows, w.dim, w.seed);
        // A deliberately imperfect plan: the pages of the first step only,
        // repeated — the pop-ahead self-correction must absorb the drift.
        let plan: Vec<u32> = w.steps[0].1.iter().map(|&r| planned.page_of_row(r)).collect();
        planned.set_epoch_plan(&plan);
        let mut s_a = BatchScratch::default();
        let mut s_b = BatchScratch::default();
        for (si, (op, rows)) in w.steps.iter().enumerate() {
            let mut buf = vec![0.0f32; rows.len() * w.dim];
            for (pos, g) in buf.chunks_mut(w.dim).enumerate() {
                for (coord, v) in g.iter_mut().enumerate() {
                    *v = grad_at(si, pos, coord);
                }
            }
            let mut c_a = vec![0u64; rows.len()];
            let mut c_b = vec![0u64; rows.len()];
            match op % 3 {
                0 => {
                    unplanned.apply_grads(rows, &buf, &w.opt, &mut c_a, &mut s_a);
                    planned.apply_grads(rows, &buf, &w.opt, &mut c_b, &mut s_b);
                }
                1 => {
                    unplanned.write_rows(rows, &buf, &mut s_a);
                    planned.write_rows(rows, &buf, &mut s_b);
                }
                _ => {
                    let mut o_a = vec![0.0f32; rows.len() * w.dim];
                    let mut o_b = vec![0.0f32; rows.len() * w.dim];
                    unplanned.read_rows(rows, &mut o_a, &mut c_a, &mut s_a);
                    planned.read_rows(rows, &mut o_b, &mut c_b, &mut s_b);
                    prop_assert_eq!(
                        o_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        o_b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "read data, step {}", si
                    );
                }
            }
        }
        planned.clear_epoch_plan();
        assert_stores_bit_identical(&unplanned, &planned, w.num_rows, w.dim);
    }
}
