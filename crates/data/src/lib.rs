#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hetgmp-data
//!
//! Synthetic CTR training data for the HET-GMP reproduction.
//!
//! The paper evaluates on Avazu (4.0·10⁷ samples, 9.4·10⁶ features, 22
//! fields), Criteo (4.6·10⁷ / 3.4·10⁷ / 26) and a private Tencent "Company"
//! dataset (3.6·10⁷ / 6.6·10⁷ / 43). None are redistributable here, and the
//! private one never was — so this crate generates **synthetic datasets that
//! plant the two structural properties HET-GMP exploits** (paper §4):
//!
//! * **skewness** — per-field feature popularity is Zipf-distributed, giving
//!   the power-law embedding degree distribution the vertex-cut replication
//!   step relies on;
//! * **locality** — each sample belongs to a latent *cluster* and draws most
//!   of its features from the cluster's slice of each field's vocabulary, so
//!   co-accessed embeddings really do cluster (the paper's Figure 3 block
//!   structure) and locality-aware partitioning has something to find.
//!
//! Labels come from a planted logistic ground-truth model, so training a
//! real model on this data produces a meaningful, improvable test AUC — which
//! is what makes the convergence (Fig 7) and staleness (Table 2) experiments
//! reproducible in *shape*.
//!
//! Dataset presets ([`DatasetSpec::avazu_like`] etc.) match each paper
//! dataset's field count and its features-per-sample ratio at a configurable
//! scale factor.

pub mod dataset;
pub mod io;
pub mod kg;
pub mod generate;
pub mod spec;
pub mod zipf;

pub use dataset::{Batch, BatchIter, CtrDataset, TrainTestSplit};
pub use generate::generate;
pub use io::{read_csv_hashed, read_libsvm, write_libsvm, ParseError};
pub use kg::{generate_kg, KgDataset, KgSpec};
pub use spec::DatasetSpec;
pub use zipf::Zipf;
