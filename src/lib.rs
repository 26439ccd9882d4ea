#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # het-gmp
//!
//! Umbrella crate for the HET-GMP reproduction (SIGMOD 2022): re-exports every
//! subsystem crate under one namespace. See `README.md` for a tour and
//! `DESIGN.md` for the system inventory.
//!
//! ```
//! use het_gmp::bigraph::Bigraph;
//!
//! let g = Bigraph::from_samples(4, &[vec![0, 1], vec![1, 2, 3]]);
//! assert_eq!(g.emb_frequency(1), 2);
//! ```

pub use hetgmp_bigraph as bigraph;
pub use hetgmp_cluster as cluster;
pub use hetgmp_comms as comms;
pub use hetgmp_core as core;
pub use hetgmp_data as data;
pub use hetgmp_embedding as embedding;
pub use hetgmp_inspect as inspect;
pub use hetgmp_partition as partition;
pub use hetgmp_telemetry as telemetry;
pub use hetgmp_tensor as tensor;
