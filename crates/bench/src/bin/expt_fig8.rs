//! Figure 8 — per-iteration communication breakdown (embeds+grads /
//! keys+clocks / AllReduce) under random, 1-D, 2-D(s=10), 2-D(s=100).
fn main() {
    let scale = hetgmp_bench::scale_arg(0.15);
    let (sync_format, sync_error_feedback) = hetgmp_bench::sync_format_flags();
    let hooks = hetgmp_core::experiments::Hooks {
        sync_format,
        sync_error_feedback,
        ..Default::default()
    };
    println!(
        "{}",
        hetgmp_core::experiments::comm_breakdown::run_instrumented(scale, None, &hooks)
    );
}
