//! Performance of the communication substrate (AllReduce group, traffic
//! counting).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_comms::{AllReduceGroup, TrafficClass};
use hetgmp_telemetry::MetricsRegistry;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("comms");
    group.sample_size(20);

    group.bench_function("allreduce_4_threads_64k_floats", |b| {
        b.iter(|| {
            let g = Arc::new(AllReduceGroup::new(4));
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let g = Arc::clone(&g);
                    std::thread::spawn(move || {
                        let mut v = vec![k as f32; 65_536];
                        for _ in 0..4 {
                            g.allreduce_sum(&mut v);
                        }
                        v[0]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<f32>()
        });
    });

    // The trainers' one collective per step, at the dense payloads of the
    // benchmark's workloads: avazu_dense's DCN (403,585 floats) and the
    // default WDL (~25,000), over 2 ranks and over 4. One iteration is 16
    // back-to-back rounds on persistent threads, so thread start-up is a
    // sixteenth of what it is above; divide by 16 for one round.
    for (ranks, floats) in [
        (2usize, 403_585usize),
        (4, 403_585),
        (2, 25_000),
        (4, 25_000),
    ] {
        group.bench_function(
            format!("fused_mean_max_{ranks}_ranks_{floats}_floats_x16"),
            |b| {
                b.iter(|| {
                    let g = Arc::new(AllReduceGroup::new(ranks));
                    let handles: Vec<_> = (0..ranks)
                        .map(|k| {
                            let g = Arc::clone(&g);
                            std::thread::spawn(move || {
                                let mut v = vec![k as f32 + 0.5; floats];
                                for round in 0..16 {
                                    g.fused_mean_max(&mut v, round as f64, false);
                                }
                                v[0]
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<f32>()
                });
            },
        );
    }

    // What the charge path records per traffic class: the bytes and the
    // messages counter of the charging worker's recorder.
    group.bench_function("traffic_record", |b| {
        let registry = MetricsRegistry::new(8);
        let recorders: Vec<_> = (0..8).map(|w| registry.worker(w)).collect();
        let class = TrafficClass::EmbedData;
        let mut w = 0usize;
        b.iter(|| {
            w = (w + 1) % 8;
            recorders[w].counter_add(class.bytes_metric(), 64);
            recorders[w].counter_add(class.messages_metric(), 1);
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
