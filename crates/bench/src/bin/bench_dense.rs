//! Dense-engine perf baseline: blocked vs naive GEMM kernels, plus a
//! fixed-seed end-to-end training run through the allocation-free tape path.
//!
//! Emits `BENCH_dense.json` (schema checked by
//! `scripts/check_bench_schema.sh BENCH_dense.json`):
//!
//! ```text
//! { "config": {...},
//!   "gemm": { "naive_gflops", "blocked_gflops", "wall_secs_naive",
//!             "wall_secs_blocked", "flops_per_rep" },
//!   "speedup": blocked_gflops / naive_gflops,
//!   "end_to_end": { "samples_per_sec", "dense_samples_per_sec",
//!                   "gemm_flops", "arena_bytes", "post_warmup_growth",
//!                   "samples_processed", "final_auc" } }
//! ```
//!
//! The GEMM workload is the exact per-batch shape WDL/DCN training issues
//! (batch 256, 26 fields × dim 16 = 416 features, hidden 64): forward
//! `X·W`, weight gradient `Xᵀ·dY`, input gradient `dY·Wᵀ`, plus one square
//! 256³ product. Both sides consume identical fixed-seed matrices; the
//! differential tests in `hetgmp-tensor` guarantee the results match, so
//! the ratio is purely kernel throughput. `end_to_end.samples_per_sec` is
//! `hotpath.samples_per_sec` from the same trainer configuration as
//! `bench_hotpath`, so the two baselines are directly comparable. The
//! end-to-end run also asserts the stage profiler's self-measured cost
//! (`telemetry.overhead_secs`) stays under 2% of wall time.
//! `--smoke` shrinks everything for CI schema checks.

use std::time::Instant;

use hetgmp_cluster::Topology;
use hetgmp_core::strategy::StrategyConfig;
use hetgmp_core::trainer::{Trainer, TrainerConfig};
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_telemetry::{names, Json, RunManifest};
use hetgmp_tensor::Matrix;

const SEED: u64 = 0xDE45E;

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut v = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.push(((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5);
    }
    Matrix::from_vec(rows, cols, v)
}

struct GemmWorkload {
    x: Matrix,  // batch × features
    w: Matrix,  // features × hidden
    dy: Matrix, // batch × hidden
    sq_a: Matrix,
    sq_b: Matrix,
    /// Total FLOPs one pass over the suite performs (2 per multiply-add).
    flops_per_rep: u64,
}

fn build_gemm(smoke: bool) -> GemmWorkload {
    let (batch, feat, hid, sq) = if smoke { (64, 104, 32, 64) } else { (256, 416, 64, 256) };
    let flops = |m: usize, k: usize, n: usize| 2 * (m * k * n) as u64;
    GemmWorkload {
        x: lcg_matrix(batch, feat, SEED ^ 1),
        w: lcg_matrix(feat, hid, SEED ^ 2),
        dy: lcg_matrix(batch, hid, SEED ^ 3),
        sq_a: lcg_matrix(sq, sq, SEED ^ 4),
        sq_b: lcg_matrix(sq, sq, SEED ^ 5),
        flops_per_rep: flops(batch, feat, hid) * 3 + flops(sq, sq, sq),
    }
}

/// Best-of-`reps` wall seconds for one pass over the four-product suite.
fn time_suite<F: FnMut(&GemmWorkload)>(w: &GemmWorkload, reps: usize, mut pass: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        pass(w);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn end_to_end(smoke: bool) -> (Json, RunManifest) {
    // Identical workload to bench_hotpath's end-to-end section so the
    // samples_per_sec figures of the two baselines compare directly.
    let mut spec = DatasetSpec::avazu_like(if smoke { 0.02 } else { 0.08 });
    spec.cluster_affinity = 0.9;
    let data = generate(&spec);
    let wall_start = Instant::now();
    let r = Trainer::new(
        &data,
        Topology::pcie_island(4),
        StrategyConfig::het_gmp(100),
        TrainerConfig {
            epochs: if smoke { 1 } else { 3 },
            dim: 16,
            batch_size: 256,
            hidden: vec![32, 16],
            seed: 0xB45E11, // bench_hotpath's seed: same run, same math
            ..Default::default()
        },
    )
    .run();
    // The stage profiler rides the hot path; its self-measured cost must
    // stay in the noise. 2% of wall is the contract TELEMETRY.md documents.
    let wall = wall_start.elapsed().as_secs_f64();
    let overhead = r.telemetry.gauge(names::TELEMETRY_OVERHEAD_SECS).unwrap_or(0.0);
    let overhead_pct = overhead / wall.max(1e-12) * 100.0;
    eprintln!("profiler overhead {overhead_pct:.3}% of wall");
    assert!(
        overhead_pct < 2.0,
        "profiler overhead {overhead_pct:.3}% of wall exceeds the 2% budget"
    );
    let manifest = r.manifest.clone();
    let e2e = Json::obj([
        (
            "samples_per_sec",
            Json::F64(r.telemetry.gauge(names::HOTPATH_SAMPLES_PER_SEC).unwrap_or(0.0)),
        ),
        (
            "dense_samples_per_sec",
            Json::F64(r.telemetry.gauge(names::DENSE_SAMPLES_PER_SEC).unwrap_or(0.0)),
        ),
        ("gemm_flops", Json::U64(r.telemetry.counter(names::DENSE_GEMM_FLOPS))),
        (
            "arena_bytes",
            Json::F64(r.telemetry.gauge(names::DENSE_ARENA_BYTES).unwrap_or(0.0)),
        ),
        (
            "post_warmup_growth",
            Json::F64(r.telemetry.gauge(names::DENSE_TAPE_GROWTH).unwrap_or(-1.0)),
        ),
        ("samples_processed", Json::U64(r.samples_processed)),
        ("final_auc", Json::F64(r.final_auc)),
    ]);
    (e2e, manifest)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let reps = if smoke { 5 } else { 30 };
    let w = build_gemm(smoke);
    eprintln!(
        "dense gemm microbench: fwd {}x{}x{} + dW + dX + square, {} reps{}",
        w.x.rows(),
        w.x.cols(),
        w.w.cols(),
        reps,
        if smoke { " [smoke]" } else { "" },
    );

    let wall_naive = time_suite(&w, reps, |w| {
        std::hint::black_box(w.x.matmul_ref(&w.w));
        std::hint::black_box(w.x.t_matmul_ref(&w.dy));
        std::hint::black_box(w.dy.matmul_t_ref(&w.w));
        std::hint::black_box(w.sq_a.matmul_ref(&w.sq_b));
    });
    // Blocked side reuses output buffers, as the training loop does.
    let (mut o1, mut o2, mut o3, mut o4) =
        (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let wall_blocked = time_suite(&w, reps, |w| {
        w.x.matmul_into(&w.w, &mut o1);
        w.x.t_matmul_into(&w.dy, &mut o2);
        w.dy.matmul_t_into(&w.w, &mut o3);
        w.sq_a.matmul_into(&w.sq_b, &mut o4);
        std::hint::black_box((&o1, &o2, &o3, &o4));
    });

    let gflops = |wall: f64| w.flops_per_rep as f64 / wall.max(1e-12) / 1e9;
    let (naive_gflops, blocked_gflops) = (gflops(wall_naive), gflops(wall_blocked));
    let speedup = blocked_gflops / naive_gflops.max(1e-12);
    eprintln!(
        "naive {naive_gflops:.2} GFLOP/s | blocked {blocked_gflops:.2} GFLOP/s | speedup {speedup:.2}x"
    );
    eprintln!("end-to-end fixed-seed training run (tape path)...");
    let (e2e, manifest) = end_to_end(smoke);

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("seed", Json::U64(SEED)),
                ("batch", Json::U64(w.x.rows() as u64)),
                ("features", Json::U64(w.x.cols() as u64)),
                ("hidden", Json::U64(w.w.cols() as u64)),
                ("square", Json::U64(w.sq_a.rows() as u64)),
                ("reps", Json::U64(reps as u64)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        (
            "gemm",
            Json::obj([
                ("naive_gflops", Json::F64(naive_gflops)),
                ("blocked_gflops", Json::F64(blocked_gflops)),
                ("wall_secs_naive", Json::F64(wall_naive)),
                ("wall_secs_blocked", Json::F64(wall_blocked)),
                ("flops_per_rep", Json::U64(w.flops_per_rep)),
            ]),
        ),
        ("speedup", Json::F64(speedup)),
        ("end_to_end", e2e),
        // The end-to-end training run's identity stamp (the gemm microbench
        // shares its build and seed).
        ("manifest", manifest.to_json()),
    ]);
    // Smoke runs land in a sibling file so CI schema checks never overwrite
    // the committed full-run baseline.
    let path = if smoke { "BENCH_dense.smoke.json" } else { "BENCH_dense.json" };
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_dense json");
    println!("wrote {path} (gemm speedup {speedup:.2}x)");
}
