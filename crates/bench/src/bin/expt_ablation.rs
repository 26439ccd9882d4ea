//! Ablations: staleness-vs-throughput, replication budget, balance weights,
//! and static vertex-cut vs dynamic LFU caching.
fn main() {
    let scale = hetgmp_bench::scale_arg(0.15);
    let (sync_format, sync_error_feedback) = hetgmp_bench::sync_format_flags();
    let hooks = hetgmp_core::experiments::Hooks {
        sync_format,
        sync_error_feedback,
        ..Default::default()
    };
    let (st, rep, bal) = hetgmp_core::experiments::ablation::run_instrumented(scale, None, &hooks);
    println!("{st}\n\n{rep}\n\n{bal}\n");
    let data = hetgmp_data::generate(&hetgmp_data::DatasetSpec::criteo_like(scale));
    println!("{}", hetgmp_core::experiments::ablation::cache_comparison(&data, 256));
    println!();
    println!("{}", hetgmp_core::experiments::ablation::repartition_drift(scale));
    println!();
    println!("{}", hetgmp_core::experiments::ablation::straggler_tolerance(&data, 4.0));
}
