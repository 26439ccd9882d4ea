//! Differential proptests: the batched table API must be *bit-identical* to
//! a loop over the per-row API — shard data, Adagrad accumulators, and
//! clocks. This is the contract that lets the hot path batch aggressively
//! without breaking PR 3's determinism guarantees (resumed run == uninterrupted
//! run relies on every update being a reproducible FP operation sequence).

use hetgmp_embedding::RowStore;
use hetgmp_embedding::{BatchScratch, ShardedTable, SparseOpt};
use hetgmp_partition::Partition;
use proptest::prelude::*;

/// A randomly-generated batched workload: table shape, optimizer, and a
/// sequence of batches (each a list of row ids with duplicates allowed).
#[derive(Debug, Clone)]
struct Workload {
    num_rows: usize,
    dim: usize,
    seed: u64,
    opt: SparseOpt,
    batches: Vec<Vec<u32>>,
}

fn opt_strategy() -> impl Strategy<Value = SparseOpt> {
    prop_oneof![
        (0.001f32..1.0).prop_map(|lr| SparseOpt::Sgd { lr }),
        (0.001f32..1.0).prop_map(|lr| SparseOpt::Adagrad { lr, eps: 1e-8 }),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (2usize..600, 1usize..24, 0u64..u64::MAX, opt_strategy()).prop_flat_map(
        |(num_rows, dim, seed, opt)| {
            let batches =
                prop::collection::vec(prop::collection::vec(0..num_rows as u32, 1..64), 1..6);
            batches.prop_map(move |batches| Workload {
                num_rows,
                dim,
                seed,
                opt,
                batches,
            })
        },
    )
}

/// Deterministic pseudo-gradient for (batch, position, coordinate): the two
/// tables must see the same inputs without sharing buffers.
fn grad_at(batch: usize, pos: usize, coord: usize) -> f32 {
    let x = (batch * 7919 + pos * 104729 + coord * 31) as u32;
    // Map to a modest range with both signs; exact values are irrelevant,
    // identical values on both paths are everything.
    (x.wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5
}

fn assert_tables_bit_identical(a: &ShardedTable, b: &ShardedTable, num_rows: usize, dim: usize) {
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
        let ha = a.read_accum(row, &mut ra);
        let hb = b.read_accum(row, &mut rb);
        assert_eq!(ha, hb, "row {row} accumulator presence");
        assert_eq!(
            ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "row {row} accumulator"
        );
    }
    assert_eq!(a.total_updates(), b.total_updates());
}

/// `num_rows` rows dealt over `owners` primaries by a salted hash.
fn hashed_owners(num_rows: usize, owners: u32, salt: u64) -> Partition {
    let primary = (0..num_rows as u64)
        .map(|r| ((r ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32 % owners)
        .collect();
    Partition::new(owners as usize, vec![0], primary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Where a row lives never changes its bits: the same op sequence on
    /// the striped and the owner-placed table leaves the same values,
    /// clocks, accumulator values and `total_updates`. (Accumulator
    /// *presence* is per segment, so that flag may differ.)
    #[test]
    fn owner_placement_matches_striped(
        w in workload_strategy(),
        owners in 1u32..6,
        salt in 0u64..u64::MAX,
    ) {
        let striped = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let part = hashed_owners(w.num_rows, owners, salt);
        let owned = ShardedTable::with_partition(w.num_rows, w.dim, 0.08, w.seed, &part);
        let mut scratch = BatchScratch::default();
        for (bi, batch) in w.batches.iter().enumerate() {
            let mut grads = vec![0.0f32; batch.len() * w.dim];
            for (pos, g) in grads.chunks_mut(w.dim).enumerate() {
                for (coord, v) in g.iter_mut().enumerate() {
                    *v = grad_at(bi, pos, coord);
                }
            }
            match bi % 4 {
                0 => {
                    let (mut a, mut b) = (vec![0u64; batch.len()], vec![0u64; batch.len()]);
                    striped.apply_grads(batch, &grads, &w.opt, &mut a, &mut scratch);
                    owned.apply_grads(batch, &grads, &w.opt, &mut b, &mut scratch);
                    prop_assert_eq!(a, b, "apply clocks, batch {}", bi);
                }
                1 => {
                    striped.write_rows(batch, &grads, &mut scratch);
                    owned.write_rows(batch, &grads, &mut scratch);
                }
                2 => {
                    for (k, &row) in batch.iter().enumerate() {
                        let g = &grads[k * w.dim..(k + 1) * w.dim];
                        prop_assert_eq!(striped.apply_grad(row, g, &w.opt), owned.apply_grad(row, g, &w.opt));
                    }
                }
                _ => {
                    let (row, g) = (batch[0], &grads[..w.dim]);
                    striped.restore_row(row, g, bi as u64);
                    owned.restore_row(row, g, bi as u64);
                    striped.restore_accum(row, g);
                    owned.restore_accum(row, g);
                }
            }
            let n = batch.len() * w.dim;
            let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
            let (mut ca, mut cb) = (vec![0u64; batch.len()], vec![0u64; batch.len()]);
            striped.read_rows(batch, &mut a, &mut ca, &mut scratch);
            owned.read_rows(batch, &mut b, &mut cb, &mut scratch);
            prop_assert_eq!(ca, cb, "read clocks, batch {}", bi);
            prop_assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "read values, batch {}", bi
            );
        }
        let (mut ra, mut rb) = (vec![0.0f32; w.dim], vec![0.0f32; w.dim]);
        for row in 0..w.num_rows as u32 {
            prop_assert_eq!(striped.read_row(row, &mut ra), owned.read_row(row, &mut rb));
            prop_assert_eq!(
                ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {} values", row
            );
            striped.read_accum(row, &mut ra);
            owned.read_accum(row, &mut rb);
            prop_assert_eq!(
                ra.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {} accumulator", row
            );
        }
        prop_assert_eq!(striped.total_updates(), owned.total_updates());
        prop_assert_eq!(striped.has_optimizer_state(), owned.has_optimizer_state());
    }

    /// apply_grads == loop over apply_grad, bit for bit, including
    /// duplicate rows, for both optimizers.
    #[test]
    fn apply_grads_matches_per_row(w in workload_strategy()) {
        let batched = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let serial = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let mut scratch = BatchScratch::default();
        for (bi, batch) in w.batches.iter().enumerate() {
            let mut grads = vec![0.0f32; batch.len() * w.dim];
            for (pos, g) in grads.chunks_mut(w.dim).enumerate() {
                for (coord, v) in g.iter_mut().enumerate() {
                    *v = grad_at(bi, pos, coord);
                }
            }
            let mut clocks = vec![0u64; batch.len()];
            batched.apply_grads(batch, &grads, &w.opt, &mut clocks, &mut scratch);
            let mut serial_clocks = vec![0u64; batch.len()];
            for (k, &row) in batch.iter().enumerate() {
                serial_clocks[k] =
                    serial.apply_grad(row, &grads[k * w.dim..(k + 1) * w.dim], &w.opt);
            }
            prop_assert_eq!(&clocks, &serial_clocks, "per-op clocks, batch {}", bi);
        }
        assert_tables_bit_identical(&batched, &serial, w.num_rows, w.dim);
    }

    /// read_rows == loop over read_row: same data bits, same observed
    /// clocks, against a table with real update history.
    #[test]
    fn read_rows_matches_per_row(w in workload_strategy()) {
        let table = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let mut scratch = BatchScratch::default();
        for (bi, batch) in w.batches.iter().enumerate() {
            // Build history so clocks and (for Adagrad) accumulators are
            // non-trivial before each read.
            let mut grads = vec![0.0f32; batch.len() * w.dim];
            for (pos, g) in grads.chunks_mut(w.dim).enumerate() {
                for (coord, v) in g.iter_mut().enumerate() {
                    *v = grad_at(bi, pos, coord);
                }
            }
            let mut clocks = vec![0u64; batch.len()];
            table.apply_grads(batch, &grads, &w.opt, &mut clocks, &mut scratch);

            let mut out = vec![0.0f32; batch.len() * w.dim];
            let mut read_clocks = vec![0u64; batch.len()];
            table.read_rows(batch, &mut out, &mut read_clocks, &mut scratch);
            let mut expect = vec![0.0f32; w.dim];
            for (k, &row) in batch.iter().enumerate() {
                let c = table.read_row(row, &mut expect);
                prop_assert_eq!(read_clocks[k], c, "row {} clock", row);
                prop_assert_eq!(
                    out[k * w.dim..(k + 1) * w.dim]
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "row {} data", row
                );
            }
        }
    }

    /// write_rows == loop over write_row (duplicates: last write wins) and
    /// clocks never move.
    #[test]
    fn write_rows_matches_per_row(w in workload_strategy()) {
        let batched = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let serial = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let mut scratch = BatchScratch::default();
        for (bi, batch) in w.batches.iter().enumerate() {
            let mut values = vec![0.0f32; batch.len() * w.dim];
            for (pos, v) in values.chunks_mut(w.dim).enumerate() {
                for (coord, x) in v.iter_mut().enumerate() {
                    *x = grad_at(bi, pos, coord);
                }
            }
            batched.write_rows(batch, &values, &mut scratch);
            for (k, &row) in batch.iter().enumerate() {
                serial.write_row(row, &values[k * w.dim..(k + 1) * w.dim]);
            }
        }
        assert_tables_bit_identical(&batched, &serial, w.num_rows, w.dim);
        prop_assert_eq!(batched.total_updates(), 0);
    }

    /// Interleaved mixed workload — applies, writes, and reads in one
    /// sequence — stays bit-identical end to end.
    #[test]
    fn mixed_ops_match_per_row(w in workload_strategy()) {
        let batched = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let serial = ShardedTable::new(w.num_rows, w.dim, 0.08, w.seed);
        let mut scratch = BatchScratch::default();
        for (bi, batch) in w.batches.iter().enumerate() {
            let mut grads = vec![0.0f32; batch.len() * w.dim];
            for (pos, g) in grads.chunks_mut(w.dim).enumerate() {
                for (coord, v) in g.iter_mut().enumerate() {
                    *v = grad_at(bi, pos, coord);
                }
            }
            match bi % 3 {
                0 | 2 => {
                    let mut clocks = vec![0u64; batch.len()];
                    batched.apply_grads(batch, &grads, &w.opt, &mut clocks, &mut scratch);
                    for (k, &row) in batch.iter().enumerate() {
                        serial.apply_grad(row, &grads[k * w.dim..(k + 1) * w.dim], &w.opt);
                    }
                }
                _ => {
                    batched.write_rows(batch, &grads, &mut scratch);
                    for (k, &row) in batch.iter().enumerate() {
                        serial.write_row(row, &grads[k * w.dim..(k + 1) * w.dim]);
                    }
                }
            }
        }
        assert_tables_bit_identical(&batched, &serial, w.num_rows, w.dim);
    }
}
