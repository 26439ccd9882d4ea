//! [`DenseTape`]: the reusable activation/gradient arena behind the
//! allocation-free dense forward/backward path.
//!
//! # Tape lifecycle
//!
//! Each worker owns one tape for the lifetime of a training run. Per batch:
//!
//! 1. `Mlp::forward_tape` writes every layer's activation into
//!    `acts[i]` (resized in place via [`Matrix::reshape`], so after the first
//!    batch no buffer grows again — the last batch of an epoch may be
//!    *smaller*, which reuses capacity);
//! 2. the caller computes the loss gradient into its own scratch matrix
//!    from [`DenseTape::output`];
//! 3. `Mlp::backward_tape` ping-pongs upstream gradients between two
//!    buffers (`g_a`/`g_b`, swapped by pointer, never copied) and writes
//!    `dL/d-input` into caller scratch;
//! 4. the caller closes the batch with [`DenseTape::end_batch`], which
//!    snapshots total reserved bytes and — once the tape is warm — counts
//!    any growth as a `post_warmup_growth` event. A flat arena-bytes gauge
//!    plus a zero growth counter is the "zero steady-state allocations"
//!    assertion the perf baseline locks in.
//!
//! The tape also carries the GEMM flop counter the layers feed
//! (`dense.gemm_flops` telemetry).

use crate::matrix::Matrix;

/// Reusable arena of activation and gradient buffers for one worker's
/// dense forward/backward passes. See the module docs for the lifecycle.
#[derive(Default)]
pub struct DenseTape {
    /// `acts[i]` = output of layer `i` in the most recent `forward_tape`.
    pub(crate) acts: Vec<Matrix>,
    /// Ping-pong upstream-gradient buffers; `backward_tape` swaps them by
    /// pointer so the "current" gradient is always `g_a`.
    pub(crate) g_a: Matrix,
    pub(crate) g_b: Matrix,
    /// Accumulated GEMM flops (2 per multiply-add) since `reset_flops`.
    pub(crate) flops: u64,
    warm: bool,
    warm_bytes: usize,
    growth_events: u64,
}

impl DenseTape {
    /// Empty tape; buffers materialise on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `acts` holds at least `n` buffers (empty ones are cheap;
    /// they size themselves on first `forward_into`).
    pub(crate) fn ensure_acts(&mut self, n: usize) {
        while self.acts.len() < n {
            self.acts.push(Matrix::zeros(0, 0));
        }
    }

    /// The final activation of the most recent `forward_tape` (the logits
    /// for an [`crate::Mlp`] tower).
    ///
    /// # Panics
    /// Panics if no forward pass has run.
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("forward_tape before output")
    }

    /// Activation written by layer `i` in the most recent forward pass.
    pub fn act(&self, i: usize) -> &Matrix {
        &self.acts[i]
    }

    /// Adds GEMM flops performed on this tape's behalf.
    #[inline]
    pub fn add_flops(&mut self, f: u64) {
        self.flops += f;
    }

    /// Accumulated GEMM flops since the last [`Self::reset_flops`].
    #[inline]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Resets the flop counter (typically after exporting to telemetry).
    pub fn reset_flops(&mut self) {
        self.flops = 0;
    }

    /// Total bytes currently reserved by the tape's own buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.acts.iter().map(Matrix::capacity_bytes).sum::<usize>()
            + self.g_a.capacity_bytes()
            + self.g_b.capacity_bytes()
    }

    /// Closes a batch: snapshots arena bytes (`extra_bytes` lets an owner
    /// fold in buffers it keeps outside the tape) and, once warm, counts
    /// growth events. The first call warms the tape.
    pub fn end_batch(&mut self, extra_bytes: usize) {
        let bytes = self.capacity_bytes() + extra_bytes;
        if self.warm && bytes > self.warm_bytes {
            self.growth_events += 1;
        }
        self.warm_bytes = self.warm_bytes.max(bytes);
        self.warm = true;
    }

    /// High-water arena bytes observed at batch boundaries (the
    /// `dense.arena_bytes` gauge).
    pub fn arena_bytes(&self) -> usize {
        self.warm_bytes
    }

    /// Number of batches (after the first) whose buffers grew — the
    /// steady-state allocation counter that must stay 0
    /// (`dense.tape.post_warmup_growth`).
    pub fn post_warmup_growth(&self) -> u64 {
        self.growth_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_then_flat_counts_no_growth() {
        let mut t = DenseTape::new();
        t.ensure_acts(2);
        t.acts[0].reset(8, 4);
        t.acts[1].reset(8, 1);
        t.end_batch(0); // warmup batch
        t.acts[0].reset(8, 4); // steady state: same shapes
        t.end_batch(0);
        t.acts[0].reset(3, 4); // smaller tail batch reuses capacity
        t.end_batch(0);
        assert_eq!(t.post_warmup_growth(), 0);
        assert!(t.arena_bytes() >= (8 * 4 + 8) * 4);
    }

    #[test]
    fn post_warmup_growth_detected() {
        let mut t = DenseTape::new();
        t.ensure_acts(1);
        t.acts[0].reset(4, 4);
        t.end_batch(0);
        t.acts[0].reset(64, 64); // grows after warmup
        t.end_batch(0);
        assert_eq!(t.post_warmup_growth(), 1);
    }

    #[test]
    fn flop_counter_accumulates_and_resets() {
        let mut t = DenseTape::new();
        t.add_flops(100);
        t.add_flops(23);
        assert_eq!(t.flops(), 123);
        t.reset_flops();
        assert_eq!(t.flops(), 0);
    }
}
