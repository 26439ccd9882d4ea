#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-bigraph
//!
//! Bipartite graph ("bigraph") abstraction of HET-GMP (SIGMOD 2022, §5.1).
//!
//! HET-GMP represents the interaction between training data and embedding
//! parameters as a bipartite graph `G = (V_x, V_ξ, E)`:
//!
//! * **embedding vertices** `x ∈ V_x` — one per row of the embedding table
//!   (one per categorical feature value);
//! * **sample vertices** `ξ ∈ V_ξ` — one per training sample;
//! * an edge `(x_i, ξ_j)` whenever sample `ξ_j` contains categorical feature
//!   `x_i` (i.e. the sample looks up that embedding row during training).
//!
//! The graph exposes the two access-pattern properties that drive the whole
//! system design (paper §4):
//!
//! * **locality** — a specific embedding is mostly related to a small subset
//!   of samples, so co-accessed embeddings can be co-located;
//! * **skewness** — embedding degree (access frequency) follows a power law,
//!   so replicating a few hot embeddings removes most remote traffic.
//!
//! This crate provides:
//!
//! * [`Csr`] — a compact compressed-sparse-row adjacency structure used for
//!   both directions of the bigraph;
//! * [`Bigraph`] — the sample↔embedding bipartite graph with both forward
//!   (sample → embeddings) and transposed (embedding → samples) adjacency;
//! * [`cooccurrence`] — the embedding co-occurrence graph used by the paper's
//!   Figure 3 illustration and by clustering-based analyses;
//! * [`stats`] — degree-distribution/skewness/locality statistics.

pub mod bigraph;
pub mod cooccurrence;
pub mod csr;
pub mod stats;

pub use bigraph::{Bigraph, BigraphBuilder};
pub use cooccurrence::{CooccurrenceConfig, CooccurrenceGraph};
pub use csr::Csr;
pub use stats::{DegreeStats, LocalityReport};

/// Identifier of a sample vertex (`ξ_j` in the paper).
pub type SampleId = u32;
/// Identifier of an embedding vertex (`x_i` in the paper) — a row index into
/// the embedding table.
pub type EmbId = u32;
