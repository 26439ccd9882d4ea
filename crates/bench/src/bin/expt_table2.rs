//! Table 2 — final test AUC vs staleness bound s in {0, 100, 10k, inf}.
fn main() {
    let scale = hetgmp_bench::scale_arg(0.15);
    let epochs = hetgmp_bench::second_arg(3);
    let (sync_format, sync_error_feedback) = hetgmp_bench::sync_format_flags();
    let hooks = hetgmp_core::experiments::Hooks {
        sync_format,
        sync_error_feedback,
        ..Default::default()
    };
    println!(
        "{}",
        hetgmp_core::experiments::staleness::run_instrumented(scale, epochs, None, &hooks)
    );
}
