#![forbid(unsafe_code)]

//! # hetgmp-bench
//!
//! Criterion microbenchmarks of the system's kernels, one bench per layer
//! (`cargo bench -p hetgmp-bench`, or `make bench` for the workspace):
//! partitioning sweeps, the embedding table and worker (batched vs per-row
//! table ops, and the trainer's read and owner-apply phases), the
//! tensor layers, the GEMM kernels (blocked vs naive), the AllReduce group
//! and data generation. `cargo test --benches -p hetgmp-bench` runs each
//! bench body once as a smoke check.
//!
//! Paper experiments run through `het-gmp experiment NAME`; end-to-end and
//! per-layer performance is recorded by the `benchmark/` package.
