//! Figure 8 — per-iteration communication breakdown (embeds+grads /
//! keys+clocks / AllReduce) under random, 1-D, 2-D(s=10), 2-D(s=100).
//!
//! `--gemm-threads N` applies one GEMM fan-out to every training run in the
//! experiment (traffic volumes are identical; only wall-clock speed
//! changes).
fn main() {
    let scale = hetgmp_bench::scale_arg(0.15);
    let gemm_threads = hetgmp_bench::gemm_threads_flag();
    let (sync_format, sync_error_feedback) = hetgmp_bench::sync_format_flags();
    let hooks = hetgmp_core::experiments::Hooks {
        gemm_threads,
        sync_format,
        sync_error_feedback,
        ..Default::default()
    };
    println!(
        "{}",
        hetgmp_core::experiments::comm_breakdown::run_instrumented(scale, None, &hooks)
    );
}
