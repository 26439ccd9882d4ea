//! Performance of the dense-math substrate (the per-iteration DNN kernels).

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_core::models::{CtrModel, ModelKind, ModelTape};
use hetgmp_tensor::{auc, bce_with_logits_into, CrossTower, DenseTape, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    group.sample_size(20);

    group.bench_function("matmul_256x416x64", |b| {
        let a = random_matrix(256, 416, 1);
        let w = random_matrix(416, 64, 2);
        let mut out = Matrix::zeros(0, 0);
        b.iter(|| a.matmul_into(&w, &mut out));
    });

    group.bench_function("mlp_forward_backward", |b| {
        let mut mlp = Mlp::new(416, &[64, 32], 3);
        let x = random_matrix(256, 416, 4);
        let g = random_matrix(256, 1, 5);
        let (mut tape, mut gx) = (DenseTape::new(), Matrix::zeros(0, 0));
        b.iter(|| {
            mlp.forward_tape(&x, &mut tape);
            mlp.zero_grad();
            mlp.backward_tape(&x, &g, &mut gx, &mut tape)
        });
    });

    group.bench_function("wdl_step", |b| {
        let mut m = CtrModel::new(ModelKind::Wdl, 26, 16, &[64, 32], 1);
        let x = random_matrix(256, 416, 6);
        let labels: Vec<f32> = (0..256).map(|i| (i % 2) as f32).collect();
        let mut tape = ModelTape::new();
        let (mut grad, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        b.iter(|| {
            m.forward_tape(&x, &mut tape);
            bce_with_logits_into(tape.logits(), &labels, &mut grad);
            m.zero_grad();
            m.backward_tape(&x, &grad, &mut gx, &mut tape)
        });
    });

    // The two DCN shapes: the default (26 fields × dim 16, [64, 32]) and
    // avazu_dense's (22 × 64, [256, 128]), batch 256 each.
    for (name, fields, dim, hidden) in [
        ("dcn_step", 26, 16, [64, 32]),
        ("dcn_step_256x1408", 22, 64, [256, 128]),
    ] {
        group.bench_function(name, |b| {
            let mut m = CtrModel::new(ModelKind::Dcn, fields, dim, &hidden, 1);
            let x = random_matrix(256, fields * dim, 7);
            let labels: Vec<f32> = (0..256).map(|i| (i % 2) as f32).collect();
            let mut tape = ModelTape::new();
            let (mut grad, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            b.iter(|| {
                m.forward_tape(&x, &mut tape);
                bce_with_logits_into(tape.logits(), &labels, &mut grad);
                m.zero_grad();
                m.backward_tape(&x, &grad, &mut gx, &mut tape)
            });
        });
    }

    // DCN's three-layer cross tower at avazu_dense's width (22 fields ×
    // dim 64), each pass alone: forward writes x_L and the dots; backward
    // rebuilds x_1, x_2 per row block and adds into the input gradient.
    let x0 = random_matrix(256, 1408, 9);
    let dy: Vec<f32> = random_matrix(256, 1, 10).data().to_vec();
    let w_top: Vec<f32> = random_matrix(1, 1408, 11).data().to_vec();
    let mut tower = CrossTower::new(1408, 3, 12);
    let (mut out, mut dots) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut grad_in = random_matrix(256, 1408, 13);
    tower.forward(&x0, &mut out, &mut dots);
    group.bench_function("cross_tower_forward_256x1408", |b| {
        b.iter(|| tower.forward(&x0, &mut out, &mut dots));
    });
    group.bench_function("cross_tower_backward_256x1408", |b| {
        b.iter(|| tower.backward(&x0, &dots, &dy, &w_top, &mut grad_in));
    });

    group.bench_function("auc_100k", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        let scores: Vec<f32> = (0..100_000).map(|_| rng.gen()).collect();
        let labels: Vec<f32> = (0..100_000).map(|_| if rng.gen::<f32>() < 0.3 { 1.0 } else { 0.0 }).collect();
        b.iter(|| auc(&scores, &labels));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
