//! Blocked-vs-naive GEMM microkernel comparison.
//!
//! Square shapes profile raw kernel throughput; the rectangular shapes are
//! exactly what WDL/DCN training issues per batch (batch 256, 26 fields ×
//! dim 16 = 416 input features, hidden 64): forward `X·W`, the weight
//! gradient `Xᵀ·dY`, and the input gradient `dY·Wᵀ`. The `naive_*`
//! counterparts run the pre-blocking reference kernels kept as the test
//! oracle, so a report directly shows the speedup locked in by
//! `BENCH_dense.json`. The `dense_*` shapes are the benchmark's
//! dense-bound workload (`avazu_dense`: batch 256, 22 fields × dim 64 =
//! 1408 inputs, tower 256 × 128, DCN): its three large GEMMs and the
//! single-column products of its combiner, which bypass the tile nest.
//! The kernel tier the host dispatched to is printed first; every number
//! below it belongs to that tier.

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_tensor::Matrix;

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

fn bench(c: &mut Criterion) {
    println!("gemm kernel tier: {}", hetgmp_tensor::gemm::kernel_tier());
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);

    // Square: raw kernel throughput.
    for &n in &[64usize, 128, 256] {
        let a = lcg_matrix(n, n, 1);
        let b_m = lcg_matrix(n, n, 2);
        let mut out = Matrix::zeros(0, 0);
        group.bench_function(format!("blocked_{n}x{n}x{n}"), |b| {
            b.iter(|| a.matmul_into(&b_m, &mut out))
        });
        group.bench_function(format!("naive_{n}x{n}x{n}"), |b| b.iter(|| a.matmul_ref(&b_m)));
    }

    // WDL/DCN-shaped rectangular: the three GEMMs of one Dense layer step.
    let x = lcg_matrix(256, 416, 3); // batch × features
    let w = lcg_matrix(416, 64, 4); // features × hidden
    let dy = lcg_matrix(256, 64, 5); // batch × hidden
    let mut out = Matrix::zeros(0, 0);
    group.bench_function("blocked_fwd_256x416x64", |b| b.iter(|| x.matmul_into(&w, &mut out)));
    group.bench_function("naive_fwd_256x416x64", |b| b.iter(|| x.matmul_ref(&w)));
    group.bench_function("blocked_dw_416x256x64", |b| b.iter(|| x.t_matmul_into(&dy, &mut out)));
    group.bench_function("naive_dw_416x256x64", |b| b.iter(|| x.t_matmul_ref(&dy)));
    group.bench_function("blocked_dx_256x64x416", |b| b.iter(|| dy.matmul_t_into(&w, &mut out)));
    group.bench_function("naive_dx_256x64x416", |b| b.iter(|| dy.matmul_t_ref(&w)));

    // Fused epilogues: bias and bias+ReLU folded into the kernel's write
    // phase (what `Dense::forward_into` actually calls).
    let bias = vec![0.01f32; 64];
    group.bench_function("fused_bias_256x416x64", |b| {
        b.iter(|| x.matmul_bias_into(&w, &bias, &mut out))
    });
    group.bench_function("fused_bias_relu_256x416x64", |b| {
        b.iter(|| x.matmul_bias_relu_into(&w, &bias, &mut out))
    });

    // avazu_dense: layer one of the tower (2·256·1408·256 = 184.5 MFLOP
    // each) and the combiner's 1536 → 1 (forward, dW, and the k = 1 dX).
    let x = lcg_matrix(256, 1408, 6);
    let w1 = lcg_matrix(1408, 256, 7);
    let dy = lcg_matrix(256, 256, 8);
    group.bench_function("dense_fwd_256x1408x256", |b| b.iter(|| x.matmul_into(&w1, &mut out)));
    group.bench_function("dense_dw_1408x256x256", |b| b.iter(|| x.t_matmul_into(&dy, &mut out)));
    group.bench_function("dense_dx_256x256x1408", |b| b.iter(|| dy.matmul_t_into(&w1, &mut out)));
    let cat = lcg_matrix(256, 1536, 9);
    let w = lcg_matrix(1536, 1, 10);
    let dlogit = lcg_matrix(256, 1, 11);
    group.bench_function("dense_fwd_256x1536x1", |b| b.iter(|| cat.matmul_into(&w, &mut out)));
    group.bench_function("dense_dw_1536x256x1", |b| {
        b.iter(|| cat.t_matmul_into(&dlogit, &mut out))
    });
    group.bench_function("dense_dx_256x1x1536", |b| b.iter(|| dlogit.matmul_t_into(&w, &mut out)));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
