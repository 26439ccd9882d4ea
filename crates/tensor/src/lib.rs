#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # hetgmp-tensor
//!
//! Minimal CPU tensor/DNN substrate for the HET-GMP reproduction.
//!
//! The paper's models — Wide & Deep (WDL) and Deep & Cross (DCN) — run their
//! dense math with cuDNN on GPUs. Here the same math runs on CPU in f32:
//! exact forward/backward passes, so staleness in the *embedding* layer (the
//! system under study) propagates into genuinely degraded gradients and test
//! AUC, rather than being faked.
//!
//! Provided:
//! * [`Matrix`] — row-major f32 matrix with the handful of kernels a
//!   feed-forward CTR model needs, backed by the blocked [`gemm`] engine
//!   (naive loops survive as `*_ref` reference oracles);
//! * [`tape`] — [`DenseTape`], the reusable activation/gradient arena that
//!   lets a worker run forward/backward allocation-free in steady state;
//! * [`layers`] — `Dense` (with a fused ReLU epilogue) and DCN's
//!   `CrossLayer`, each with explicit in-place forward and backward passes;
//!   [`Mlp`] stacks `Dense` layers;
//! * [`loss`] — numerically-stable binary cross-entropy with logits;
//! * [`metrics`] — AUC (Mann–Whitney with tie handling) and log-loss;
//! * [`optim`] — SGD/Momentum, Adagrad, Adam for the dense parameters
//!   (sparse embedding optimizers live in `hetgmp-embedding`, where per-row
//!   state matters).

pub mod fm;
pub mod gemm;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod tape;
#[cfg(test)]
mod testdata;

pub use fm::{FmInteraction, TargetAttention};
pub use layers::{CrossLayer, Dense, Mlp};
pub use loss::bce_with_logits_into;
pub use matrix::Matrix;
pub use metrics::{auc, log_loss};
pub use optim::{Adagrad, Adam, DenseOptimizer, Sgd};
pub use tape::DenseTape;
