//! Building a tiered table costs its RAM budget, not its size: the initial
//! rows are drawn page by page and every page past the budget goes straight
//! to the spill file.
//!
//! Measured as the growth of the process's peak resident set (`VmHWM` in
//! `/proc/self/status`) over its resident set just before construction.
//! This binary holds this one test, so nothing else allocates meanwhile.
//! (A counting global allocator would measure live bytes directly, but it
//! needs an `unsafe impl`, and the workspace keeps one `unsafe` site.)

#![cfg(target_os = "linux")]

use hetgmp_embedding::{RowStore, ShardedTable, TieredConfig, TieredTable};

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kb: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {line:?}"));
    kb * 1024
}

#[test]
fn a_table_64x_over_budget_is_built_within_the_budget_plus_a_few_pages() {
    let (dim, budget) = (32usize, 256usize << 10);
    let rows = 64 * budget / (dim * 4);
    let config = TieredConfig {
        budget_bytes: budget,
        ..TieredConfig::default()
    };
    let before = status_bytes("VmRSS:");
    let table = TieredTable::new(rows, dim, 0.1, 7, config);
    let growth = status_bytes("VmHWM:").saturating_sub(before);

    let page = table.rows_per_page() * dim * 4;
    // Resident by design: the budget's pages, one clock per row, the page
    // table, a spill buffer and the image staging buffer; plus allocator
    // slack.
    let bound = budget + rows * 8 + 4 * page + (2 << 20);
    assert!(
        growth <= bound,
        "building a {} MiB table at a {} KiB budget grew the peak RSS by {growth} B (bound {bound} B)",
        (rows * dim * 4) >> 20,
        budget >> 10
    );
    assert!(table.capacity_stats().spilled_bytes > 0, "nothing spilled");

    // The initial bits are the in-memory store's, resident and spilled
    // pages alike.
    let reference = ShardedTable::new(rows, dim, 0.1, 7);
    let (mut got, mut want) = (vec![0.0f32; dim], vec![0.0f32; dim]);
    for row in [0, 1, 255, 256, rows / 2, rows - 257, rows - 1] {
        table.read_row(row as u32, &mut got);
        reference.read_row(row as u32, &mut want);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "row {row}");
    }
}
