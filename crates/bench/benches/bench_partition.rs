//! Performance of the partitioning algorithms (the kernels behind Table 3).

use criterion::{criterion_group, criterion_main, Criterion};
use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::Topology;
use hetgmp_data::{generate, DatasetSpec};
use hetgmp_partition::onedee::OneDeeState;
use hetgmp_partition::vertexcut::replicate_hot_embeddings;
use hetgmp_partition::{
    bicut_partition, random_partition, HybridConfig, HybridPartitioner, OneDeeConfig,
    PartitionMetrics, ReplicationBudget,
};

fn graph() -> Bigraph {
    generate(&DatasetSpec::criteo_like(0.1)).to_bigraph()
}

/// The training split's bigraph of a benchmark-ledger CTR workload: seed 7,
/// `cluster_affinity` 0.9, 10% held out, as the trainer builds it.
fn ledger_graph(spec: DatasetSpec) -> Bigraph {
    let data = generate(&DatasetSpec {
        cluster_affinity: 0.9,
        seed: 7,
        ..spec
    });
    let train = data.split(0.1).train;
    let rows: Vec<&[u32]> = train.iter().map(|&i| data.sample(i as usize)).collect();
    Bigraph::from_samples(data.num_features, &rows)
}

fn bench(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);

    group.bench_function("random", |b| {
        b.iter(|| random_partition(&g, 8, 7));
    });

    group.bench_function("bicut", |b| {
        b.iter(|| bicut_partition(&g, 8));
    });

    let island = Topology::nvlink_island(8);
    group.bench_function("onedee_sweep", |b| {
        let part0 = random_partition(&g, 8, 7);
        let weights = island.weight_matrix();
        b.iter(|| {
            let mut part = part0.clone();
            let mut state = OneDeeState::new(&g, &part, OneDeeConfig::default(), &weights);
            state.sweep(&g, &mut part);
            part
        });
    });

    group.bench_function("vertexcut_top1pct", |b| {
        let part0 = random_partition(&g, 8, 7);
        b.iter(|| {
            let mut part = part0.clone();
            replicate_hot_embeddings(&g, &mut part, ReplicationBudget::FractionOfEmbeddings(0.01))
        });
    });

    group.bench_function("hybrid_3_rounds", |b| {
        b.iter(|| HybridPartitioner::new(HybridConfig::default()).partition_rounds(&g, &island));
    });

    // Algorithm 1 at the shapes of the `avazu_gmp` and `company_fetch`
    // benchmark workloads (`StrategyConfig::het_gmp`'s partitioner).
    for (name, spec, topo) in [
        (
            "hybrid_avazu_x4_pcie",
            DatasetSpec::avazu_like(1.0),
            Topology::pcie_island(4),
        ),
        (
            "hybrid_company_x2",
            DatasetSpec::company_like(1.0),
            Topology::pcie_island(2),
        ),
    ] {
        let g = ledger_graph(spec);
        let cfg = HybridConfig {
            seed: 7,
            ..HybridConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| HybridPartitioner::new(cfg.clone()).partition_rounds(&g, &topo));
        });
    }

    group.bench_function("metrics", |b| {
        let part = random_partition(&g, 8, 7);
        b.iter(|| PartitionMetrics::compute(&g, &part));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
