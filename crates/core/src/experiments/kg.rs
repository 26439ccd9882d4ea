//! **KG extension** (paper §3: the design "could be naturally applied" to
//! knowledge-graph training systems) — TransE on a synthetic clustered KG
//! over 8 workers: random partitioning (HET-MP) against hybrid partitioning
//! at bound 0 and bound 100, reporting ranking quality, simulated
//! throughput and remote embedding traffic.

use std::fmt;

use hetgmp_cluster::Topology;
use hetgmp_data::{generate_kg, KgSpec};

use crate::kg::{KgResult, KgTrainer, KgTrainerConfig};
use crate::strategy::StrategyConfig;

/// The KG extension's result: the graph's shape and one run per system.
#[derive(Debug, Clone)]
pub struct KgReport {
    /// Entities (embedding rows) in the generated graph.
    pub entities: usize,
    /// Relation types.
    pub relations: usize,
    /// Triples (samples).
    pub triples: usize,
    /// One run per system, in the order HET-MP, HET-GMP(0), HET-GMP(100).
    pub runs: Vec<KgResult>,
}

/// Runs the KG extension; `scale` shrinks [`KgSpec::small`] (floored at
/// 200 entities and 2,000 triples).
pub fn run(scale: f64) -> KgReport {
    let mut spec = KgSpec::small();
    spec.num_entities = ((spec.num_entities as f64 * scale) as usize).max(200);
    spec.num_triples = ((spec.num_triples as f64 * scale) as usize).max(2000);
    let kg = generate_kg(&spec);
    let runs = [
        StrategyConfig::het_mp(),
        StrategyConfig::het_gmp(0),
        StrategyConfig::het_gmp(100),
    ]
    .into_iter()
    .map(|strat| {
        KgTrainer::new(
            &kg,
            Topology::pcie_island(8),
            strat,
            KgTrainerConfig::default(),
        )
        .run()
    })
    .collect();
    KgReport {
        entities: kg.num_entities,
        relations: kg.num_relations,
        triples: kg.len(),
        runs,
    }
}

impl fmt::Display for KgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TransE on synthetic KG: {} entities, {} relations, {} triples, 8 workers\n",
            self.entities, self.relations, self.triples
        )?;
        writeln!(
            f,
            "{:<18} {:>8} {:>9} {:>14} {:>14} {:>12}",
            "system", "MRR", "hits@10", "triples/s", "embed bytes", "remote/epoch"
        )?;
        for r in &self.runs {
            writeln!(
                f,
                "{:<18} {:>8.3} {:>9.3} {:>14.0} {:>14} {:>12}",
                r.strategy,
                r.mrr,
                r.hits_at_10,
                r.throughput,
                r.embed_bytes,
                r.partition_metrics.remote_fetches
            )?;
        }
        write!(
            f,
            "\nKG samples touch only 2 embeddings (vs tens in CTR), so locality\n\
             partitioning alone removes most traffic — the paper's §2 contrast."
        )
    }
}
