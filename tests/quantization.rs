//! Wire-format (`SyncFormat`) integration tests: resume determinism of
//! lossy formats, the error-feedback convergence contract, and the
//! end-to-end bytes-vs-quality trade the compressed path exists for. The
//! `--sync-format f32` bit-identity pin lives next to the seed-sweep goldens
//! in `tests/convergence.rs`.

use het_gmp::cluster::Topology;
use het_gmp::comms::SyncFormat;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{Trainer, TrainerConfig};
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::embedding::RowStore;
use het_gmp::embedding::{ShardedTable, SparseOpt, StalenessBound, WorkerEmbedding};
use het_gmp::partition::Partition;
use het_gmp::telemetry::AuditMode;

fn dataset() -> het_gmp::data::CtrDataset {
    let mut spec = DatasetSpec::avazu_like(0.03);
    spec.cluster_affinity = 0.9;
    generate(&spec)
}

fn quant_config(format: SyncFormat) -> TrainerConfig {
    TrainerConfig {
        epochs: 2,
        dim: 8,
        batch_size: 128,
        hidden: vec![16],
        sync_format: format,
        ..Default::default()
    }
}

#[test]
fn int8_checkpoint_resume_is_deterministic() {
    // Checkpoints stay f32 (lossless at rest); error-feedback residuals
    // reset at the epoch barrier the checkpoint captures, so a resumed
    // int8 run replays epoch 2 exactly as another resumed run does.
    let dir = std::env::temp_dir().join(format!("hetgmp-it-quant-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = dataset();
    let full = Trainer::new(
        &data,
        Topology::pcie_island(2),
        StrategyConfig::het_gmp(0),
        TrainerConfig {
            checkpoint_every: 1,
            checkpoint_dir: Some(dir.clone()),
            ..quant_config(SyncFormat::Int8)
        },
    )
    .run();
    let resume = || {
        Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            TrainerConfig {
                resume_from: Some(dir.join("ckpt-epoch-1.hgmr")),
                ..quant_config(SyncFormat::Int8)
            },
        )
        .run()
    };
    let a = resume();
    let b = resume();
    assert_eq!(a.curve.len(), 1);
    assert_eq!(
        a.final_auc, b.final_auc,
        "two identical int8 resumes diverged: {} vs {}",
        a.final_auc, b.final_auc
    );
    assert!(
        (a.final_auc - full.final_auc).abs() < 0.01,
        "int8 resume drifted from the uninterrupted run: {} vs {}",
        a.final_auc,
        full.final_auc
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_feedback_recovers_subquantization_gradients() {
    // The deterministic convergence contract behind the BENCH_comms AUC
    // band. With mixed-magnitude gradients the int8 quantization step
    // (max|g|/127 ≈ 0.0079 here) swallows the small coordinate outright:
    // round-to-nearest-even maps 0.002 to bucket 0 on every push, so
    // without feedback that coordinate of the shared row NEVER moves and
    // the trajectory diverges from f32 by the full accumulated update.
    // With feedback the swallowed residual carries over and is emitted
    // every few pushes, keeping the row within one quantization step of
    // the f32 trajectory.
    let steps = 200;
    let grad = vec![0.002f32, 1.0];
    let trajectory = |format: SyncFormat, feedback: bool| -> Vec<f32> {
        // 2 workers, 4 embeddings (dim 2), primaries 0,1 / 2,3 — worker 0
        // pushes to remote primary 2 through its secondary replica, s = 0
        // so every push crosses the wire immediately.
        let table = ShardedTable::new(4, 2, 0.0, 1);
        let mut part = Partition::new(2, vec![0, 1], vec![0, 0, 1, 1]);
        part.add_replica(2, 0);
        let freq = vec![10, 5, 10, 5];
        let mut w0 = WorkerEmbedding::new(0, &table, &part, &freq, StalenessBound::Bounded(0));
        w0.set_sync_format(format, feedback);
        let samples: Vec<&[u32]> = vec![&[2]];
        let opt = SparseOpt::sgd(0.1);
        for _ in 0..steps {
            w0.apply_gradients(&samples, &grad, &opt);
        }
        let mut row = vec![0.0; 2];
        table.read_row(2, &mut row);
        row
    };
    let exact = trajectory(SyncFormat::F32, true);
    let ef = trajectory(SyncFormat::Int8, true);
    let no_ef = trajectory(SyncFormat::Int8, false);
    // f32 reference: row -= lr·g per push → [−0.04, −20].
    assert!(
        (exact[0] + 0.04).abs() < 1e-4,
        "f32 reference off: {exact:?}"
    );
    // The dominant coordinate converges under every variant.
    assert!((ef[1] - exact[1]).abs() < 0.05, "{ef:?} vs {exact:?}");
    assert!((no_ef[1] - exact[1]).abs() < 0.05, "{no_ef:?} vs {exact:?}");
    // The sub-step coordinate: feedback tracks f32 to within one emitted
    // quantization step (·lr), no-feedback never moves it at all.
    let ef_err = (ef[0] - exact[0]).abs();
    let no_ef_err = (no_ef[0] - exact[0]).abs();
    assert!(
        ef_err < 0.004,
        "feedback lost the small coordinate: {ef:?} vs {exact:?}"
    );
    assert!(
        no_ef[0].abs() < 1e-6,
        "without feedback the coordinate moved: {no_ef:?}"
    );
    assert!(
        no_ef_err > 10.0 * ef_err.max(1e-6),
        "feedback is not measurably better: {ef_err} vs {no_ef_err}"
    );
}

#[test]
fn int8_trades_bytes_for_negligible_quality_end_to_end() {
    // End-to-end form of the BENCH_comms contract at test scale: int8
    // slashes embedding-payload bytes (8·1 + 4 vs 8·4 per row at dim 8)
    // while final AUC stays near f32's. The band here is looser than the
    // benchmark's 0.5% — a 2-epoch, 3%-scale run has more stochastic
    // wobble than the pinned sweep — but tight enough to catch a broken
    // decoder (which costs tens of points, not fractions).
    let data = dataset();
    let run = |format| {
        Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            quant_config(format),
        )
        .with_audit(AuditMode::Count)
        .run()
    };
    let full = run(SyncFormat::F32);
    let q = run(SyncFormat::Int8);
    let audit = q.audit.expect("audit enabled");
    assert_eq!(audit.total_violations(), 0, "{}", audit.render());
    assert!(
        (q.final_auc - full.final_auc).abs() < 0.02,
        "int8 lost too much quality: {} vs {}",
        q.final_auc,
        full.final_auc
    );
    let fb = full.telemetry.counter("traffic.bytes.embed_data");
    let qb = q.telemetry.counter("traffic.bytes.embed_data");
    assert!(fb > 0, "f32 run moved no embedding bytes");
    let reduction = fb as f64 / qb.max(1) as f64;
    assert!(
        reduction >= 2.5,
        "int8 reduction {reduction:.2}x below the dim-8 structural ratio (32/12)"
    );
    // Lossless runs must not meter quantized rows; lossy runs must.
    assert_eq!(full.telemetry.counter("comms.quant.rows"), 0);
    assert!(q.telemetry.counter("comms.quant.rows") > 0);
    assert!(q.telemetry.counter("comms.quant.bytes_saved") > 0);
}
