//! CTR prediction models: Wide & Deep (WDL) and Deep & Cross (DCN).
//!
//! These are the two workloads of the paper's evaluation (§7, "Datasets and
//! Models"). Both consume a mini-batch of concatenated field embeddings
//! (`batch × (fields·dim)`) and produce one logit per sample:
//!
//! * **WDL** (Cheng et al. 2016): a deep MLP tower plus a wide linear head,
//!   summed — `logit = MLP(x) + W·x`;
//! * **DCN** (Wang et al. 2017): an explicit-feature-crossing tower
//!   ([`CrossTower`]) alongside a deep tower, both read by a final
//!   one-column combiner over `[cross ; deep]` — the cross tower is why DCN
//!   carries more dense parameters and hence more AllReduce traffic in the
//!   paper's Figure 8.
//!
//! DCN's combiner never forms the concatenation: its forward pass seeds
//! each logit with the bias and continues one dot-product chain from the
//! cross tower's output into the deep tower's, and its input gradient is
//! the rank-1 `dY·wᵀ`, which the deep tower receives written directly and
//! the cross tower generates block by block inside its own backward pass.
//! WDL's wide head adds its rank-1 input gradient straight into `grad_in`.
//!
//! Both backward passes are exact: every input element and every parameter
//! gradient is checked against `hetgmp_tensor::gradcheck` at a ragged batch
//! (`wdl_gradcheck`, `dcn_gradcheck`).

use hetgmp_tensor::layers::{CrossTower, Dense, Mlp};
use hetgmp_tensor::tape::DenseTape;
use hetgmp_tensor::Matrix;

/// Which CTR architecture to instantiate: the paper's two evaluation
/// workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Wide & Deep.
    Wdl,
    /// Deep & Cross.
    Dcn,
}

impl ModelKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Wdl => "WDL",
            ModelKind::Dcn => "DCN",
        }
    }
}

/// A CTR model over concatenated field embeddings.
pub struct CtrModel {
    kind: ModelKind,
    input_dim: usize,
    /// Deep tower (no scalar head for DCN; full MLP with head for WDL).
    deep: Mlp,
    /// WDL: wide linear head. DCN: final combiner over `[cross ; deep]`.
    head: Dense,
    /// DCN cross tower.
    cross: Option<CrossTower>,
}

/// Per-worker arena for allocation-free [`CtrModel`] forward/backward:
/// owns a [`DenseTape`] for the deep tower plus every named scratch matrix
/// the architecture-specific paths need (wide or cross output, DCN's
/// cross-tower dots and deep-tower upstream gradient).
///
/// One tape lives for a whole training run; after the first batch every
/// buffer has its steady-state capacity, and [`ModelTape::end_batch`]
/// counts any later growth (the `dense.tape.post_warmup_growth` counter
/// that must stay 0).
#[derive(Default)]
pub struct ModelTape {
    dense: DenseTape,
    /// Second-path output (WDL wide head, DCN cross tower's top
    /// activation).
    aux: Matrix,
    /// DCN cross tower's per-layer, per-row dots (`layers × batch`).
    cross_dots: Matrix,
    /// DCN deep tower's upstream gradient (the combiner's rank-1 `dY·wᵀ`
    /// over the deep half).
    g_deep: Matrix,
    /// Final per-sample logits of the most recent forward.
    logits: Matrix,
    /// Wall seconds spent in dense forward/loss/backward (throughput gauge).
    pub(crate) dense_secs: f64,
    /// Samples pushed through the dense path.
    pub(crate) dense_samples: u64,
}

impl ModelTape {
    /// Empty tape; buffers materialise on the first batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logits of the most recent [`CtrModel::forward_tape`].
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }

    /// Accumulated GEMM flops (see [`DenseTape::flops`]).
    pub fn flops(&self) -> u64 {
        self.dense.flops()
    }

    /// High-water arena bytes at batch boundaries (`dense.arena_bytes`).
    pub fn arena_bytes(&self) -> usize {
        self.dense.arena_bytes()
    }

    /// Post-warmup buffer growth events (`dense.tape.post_warmup_growth`).
    pub fn post_warmup_growth(&self) -> u64 {
        self.dense.post_warmup_growth()
    }

    /// Closes a batch: snapshots total reserved bytes (deep tape + every
    /// named scratch buffer) and counts post-warmup growth.
    pub fn end_batch(&mut self) {
        let extra = self.aux.capacity_bytes()
            + self.cross_dots.capacity_bytes()
            + self.g_deep.capacity_bytes()
            + self.logits.capacity_bytes();
        self.dense.end_batch(extra);
    }
}

impl CtrModel {
    /// Builds a model for `num_fields` fields of `dim`-dimensional
    /// embeddings with the given deep hidden sizes.
    ///
    /// # Panics
    /// Panics if `hidden` is empty.
    pub fn new(
        kind: ModelKind,
        num_fields: usize,
        dim: usize,
        hidden: &[usize],
        seed: u64,
    ) -> Self {
        assert!(
            !hidden.is_empty(),
            "deep tower needs at least one hidden layer"
        );
        let input_dim = num_fields * dim;
        match kind {
            ModelKind::Wdl => Self {
                kind,
                input_dim,
                deep: Mlp::new(input_dim, hidden, seed),
                // Wide head: direct linear map input → logit.
                head: Dense::new(input_dim, 1, seed ^ 0x57AB1E),
                cross: None,
            },
            ModelKind::Dcn => {
                // Deep tower without scalar head: it feeds the combiner.
                let d = *hidden.last().expect("checked non-empty above");
                Self {
                    kind,
                    input_dim,
                    deep: Mlp::without_head(input_dim, hidden, seed),
                    head: Dense::new(input_dim + d, 1, seed.wrapping_add(999)),
                    cross: Some(CrossTower::new(input_dim, 3, seed.wrapping_add(100))),
                }
            }
        }
    }

    /// The architecture kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Expected input width (`fields × dim`).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Allocation-free forward pass into `tape`: per-sample logits
    /// (`batch × 1`) land in [`ModelTape::logits`]. Reuses the tape's
    /// buffers across batches — zero steady-state allocations once every
    /// buffer reached its high-water size.
    pub fn forward_tape(&mut self, input: &Matrix, tape: &mut ModelTape) {
        assert_eq!(input.cols(), self.input_dim, "input width mismatch");
        let batch = input.rows();
        match self.kind {
            ModelKind::Wdl => {
                self.deep.forward_tape(input, &mut tape.dense);
                self.head.forward_into(input, &mut tape.aux);
                tape.dense.add_flops(self.head.flops(batch));
                let deep_out = tape.dense.output();
                tape.logits.reset(batch, 1);
                for ((o, &d), &a) in tape
                    .logits
                    .data_mut()
                    .iter_mut()
                    .zip(deep_out.data())
                    .zip(tape.aux.data())
                {
                    *o = d + a;
                }
            }
            ModelKind::Dcn => {
                let cross = self.cross.as_ref().expect("DCN has a cross tower");
                cross.forward(input, &mut tape.aux, &mut tape.cross_dots);
                tape.dense.add_flops(cross.flops(batch));
                self.deep.forward_tape(input, &mut tape.dense);
                self.head
                    .forward_concat_into(&[&tape.aux, tape.dense.output()], &mut tape.logits);
                tape.dense.add_flops(self.head.flops(batch));
            }
        }
        tape.dense_samples += batch as u64;
    }

    /// Allocation-free backward pass from per-sample logit gradients;
    /// accumulates parameter gradients and writes `dL/d-input`
    /// (`batch × input_dim`) into `grad_in`. Pairs with the immediately
    /// preceding [`Self::forward_tape`] on the same `tape`.
    pub fn backward_tape(
        &mut self,
        input: &Matrix,
        grad_logits: &Matrix,
        grad_in: &mut Matrix,
        tape: &mut ModelTape,
    ) {
        let batch = grad_logits.rows();
        let head = &mut self.head;
        match self.kind {
            ModelKind::Wdl => {
                self.deep
                    .backward_tape(input, grad_logits, grad_in, &mut tape.dense);
                head.backward_concat_params(&[input], grad_logits);
                grad_in.add_outer(grad_logits.data(), head.weights());
                tape.dense.add_flops(2 * head.flops(batch));
            }
            ModelKind::Dcn => {
                head.backward_concat_params(&[&tape.aux, tape.dense.output()], grad_logits);
                tape.dense.add_flops(2 * head.flops(batch));
                // The combiner's input gradient is rank 1: the deep half is
                // written as the deep tower's upstream, the cross half is
                // formed block by block inside the cross tower.
                let (w_cross, w_deep) = head.weights().split_at(self.input_dim);
                tape.g_deep.set_outer(grad_logits.data(), w_deep);
                self.deep
                    .backward_tape(input, &tape.g_deep, grad_in, &mut tape.dense);
                let cross = self.cross.as_mut().expect("DCN has a cross tower");
                tape.dense.add_flops(2 * cross.flops(batch));
                cross.backward(
                    input,
                    &tape.cross_dots,
                    grad_logits.data(),
                    w_cross,
                    grad_in,
                );
            }
        }
    }

    /// Visits all `(param, grad)` buffers in a stable order (cross → deep →
    /// head) — the dense payload of AllReduce.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        if let Some(cross) = &mut self.cross {
            cross.visit_params(f);
        }
        self.deep.visit_params(f);
        self.head.visit_params(f);
    }

    /// Total dense (non-embedding) parameter count.
    pub fn num_dense_params(&mut self) -> usize {
        let mut total = 0usize;
        self.visit_params(&mut |p, _| total += p.len());
        total
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Flattens dense parameters into one vector.
    pub fn flatten_params(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Flattens dense gradients into a caller-owned buffer (cleared first),
    /// so the training loop reuses one allocation across iterations.
    pub fn flatten_grads_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |_, g| out.extend_from_slice(g));
    }

    /// Loads dense parameters from a flat vector.
    pub fn load_params(&mut self, flat: &[f32]) {
        let mut cursor = 0usize;
        self.visit_params(&mut |p, _| {
            p.copy_from_slice(&flat[cursor..cursor + p.len()]);
            cursor += p.len();
        });
        assert_eq!(cursor, flat.len(), "flat length mismatch");
    }

    /// Loads dense gradients from a flat vector (post-AllReduce). The
    /// trainer's step does not need it: it feeds the optimizer slices of
    /// the reduced vector directly.
    pub fn load_grads(&mut self, flat: &[f32]) {
        let mut cursor = 0usize;
        self.visit_params(&mut |_, g| {
            g.copy_from_slice(&flat[cursor..cursor + g.len()]);
            cursor += g.len();
        });
        assert_eq!(cursor, flat.len(), "flat length mismatch");
    }

    /// Rough FLOP count of one sample's forward+backward dense pass (used by
    /// the simulated compute-time model). 2 FLOPs per MAC, backward ≈ 2×
    /// forward.
    pub fn flops_per_sample(&mut self) -> f64 {
        // Dense layers dominate; count their parameters × 2 (MAC) × 3
        // (forward + two backward GEMMs).
        self.num_dense_params() as f64 * 2.0 * 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgmp_tensor::bce_with_logits_into;
    use hetgmp_tensor::gradcheck::{gradcheck, gradcheck_params};
    use hetgmp_tensor::loss::sigmoid;

    const KINDS: [ModelKind; 2] = [ModelKind::Wdl, ModelKind::Dcn];

    fn batch(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut v = Vec::with_capacity(rows * dim);
        let mut state = seed;
        for _ in 0..rows * dim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(((state >> 33) as f32 / u32::MAX as f32) - 0.5);
        }
        Matrix::from_vec(rows, dim, v)
    }

    fn flat_grads(m: &mut CtrModel) -> Vec<f32> {
        let mut out = Vec::new();
        m.flatten_grads_into(&mut out);
        out
    }

    #[test]
    fn wdl_shapes() {
        let mut m = CtrModel::new(ModelKind::Wdl, 4, 8, &[16, 8], 1);
        assert_eq!(m.input_dim(), 32);
        let x = batch(5, 32, 7);
        let mut tape = ModelTape::new();
        m.forward_tape(&x, &mut tape);
        let y = tape.logits();
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 1);
    }

    #[test]
    fn dcn_shapes_and_more_params() {
        let mut wdl = CtrModel::new(ModelKind::Wdl, 4, 8, &[16, 8], 1);
        let mut dcn = CtrModel::new(ModelKind::Dcn, 4, 8, &[16, 8], 1);
        let x = batch(3, 32, 9);
        let mut tape = ModelTape::new();
        dcn.forward_tape(&x, &mut tape);
        let y = tape.logits();
        assert_eq!((y.rows(), y.cols()), (3, 1));
        // DCN's cross tower adds parameters — the paper's reason for its
        // larger AllReduce share in Figure 8.
        assert!(dcn.num_dense_params() > 0);
        assert!(wdl.num_dense_params() > 0);
        assert!(
            dcn.num_dense_params() as f64 / wdl.num_dense_params() as f64 > 0.5,
            "DCN should be comparable or larger"
        );
    }

    #[test]
    fn wdl_gradients_reduce_loss() {
        train_reduces_loss(ModelKind::Wdl);
    }

    #[test]
    fn dcn_gradients_reduce_loss() {
        train_reduces_loss(ModelKind::Dcn);
    }

    #[test]
    fn all_models_forward_shapes() {
        for kind in KINDS {
            let mut m = CtrModel::new(kind, 4, 8, &[16], 3);
            let x = batch(5, 32, 7);
            let mut tape = ModelTape::new();
            m.forward_tape(&x, &mut tape);
            let y = tape.logits();
            assert_eq!((y.rows(), y.cols()), (5, 1), "{kind:?}");
            // Embedding gradient must flow for every architecture.
            let g = Matrix::from_vec(5, 1, vec![1.0; 5]);
            m.zero_grad();
            let mut gx = Matrix::zeros(0, 0);
            m.backward_tape(&x, &g, &mut gx, &mut tape);
            assert_eq!(gx.cols(), 32, "{kind:?}");
            assert!(gx.norm() > 0.0, "{kind:?} blocked embedding gradients");
        }
    }

    fn train_reduces_loss(kind: ModelKind) {
        let mut m = CtrModel::new(kind, 3, 4, &[16], 3);
        let x = batch(16, 12, 5);
        let labels: Vec<f32> = (0..16).map(|i| (i % 2) as f32).collect();
        let mut tape = ModelTape::new();
        let (mut grad, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        m.forward_tape(&x, &mut tape);
        let initial = bce_with_logits_into(tape.logits(), &labels, &mut grad);
        let mut last = initial;
        for _ in 0..60 {
            m.forward_tape(&x, &mut tape);
            last = bce_with_logits_into(tape.logits(), &labels, &mut grad);
            m.zero_grad();
            m.backward_tape(&x, &grad, &mut gx, &mut tape);
            m.visit_params(&mut |p, g| {
                for (pi, gi) in p.iter_mut().zip(g.iter()) {
                    *pi -= 0.3 * gi;
                }
            });
        }
        assert!(last < initial * 0.8, "{:?}: loss {initial} -> {last}", kind);
    }

    #[test]
    fn embedding_gradient_flows() {
        // The input gradient must be non-zero — it is what trains the
        // embedding table.
        let mut m = CtrModel::new(ModelKind::Dcn, 2, 4, &[8], 11);
        let x = batch(4, 8, 3);
        let mut tape = ModelTape::new();
        let (mut grad, mut gx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        m.forward_tape(&x, &mut tape);
        bce_with_logits_into(tape.logits(), &[1.0, 0.0, 1.0, 0.0], &mut grad);
        m.zero_grad();
        m.backward_tape(&x, &grad, &mut gx, &mut tape);
        assert_eq!(gx.rows(), 4);
        assert_eq!(gx.cols(), 8);
        assert!(gx.norm() > 0.0);
    }

    #[test]
    fn tape_path_matches_pinned_legacy_scores_bit_for_bit() {
        // The allocating `CtrModel::forward` is gone; these are the scores
        // `Trainer::evaluate` computed through it on this batch (printed by
        // the parent commit's tree), and the tape path must still produce
        // exactly them for every architecture. Re-based once when the GEMM
        // nest's depth step became one fused multiply-add (a single
        // rounding): WDL's scores 4 and 5 moved by one to three ulps; DCN's
        // did not move.
        let pinned: [(ModelKind, [u32; 6]); 2] = [
            (
                ModelKind::Wdl,
                [
                    0x3eca47ec, 0x3e6abd72, 0x3e18898b, 0x3e697970, 0x3e888f95, 0x3e7f17b0,
                ],
            ),
            (
                ModelKind::Dcn,
                [
                    0x3ee5398b, 0x3f002832, 0x3ee4a9ce, 0x3ee11f33, 0x3ed420f0, 0x3ee0b063,
                ],
            ),
        ];
        for (kind, want) in pinned {
            let mut model = CtrModel::new(kind, 4, 8, &[16, 8], 7);
            let mut tape = ModelTape::new();
            model.forward_tape(&batch(6, 32, 13), &mut tape);
            let scores: Vec<u32> = tape
                .logits()
                .data()
                .iter()
                .map(|&z| sigmoid(z).to_bits())
                .collect();
            assert_eq!(scores, want, "{kind:?} scores");
            tape.end_batch();
            assert!(tape.flops() > 0, "{kind:?} flop counter");
            assert!(tape.arena_bytes() > 0, "{kind:?} arena bytes");
        }
    }

    #[test]
    fn reused_tape_matches_fresh_tape_bit_for_bit() {
        // The tape's buffers are reshaped, not cleared, between batches: a
        // smaller batch after a larger one of other data must leave every
        // output as a fresh tape does, for every architecture.
        for kind in KINDS {
            let mut fresh_model = CtrModel::new(kind, 4, 8, &[16, 8], 7);
            let mut reused_model = CtrModel::new(kind, 4, 8, &[16, 8], 7);
            let (mut fresh, mut reused) = (ModelTape::new(), ModelTape::new());
            let mut gx_reused = Matrix::zeros(0, 0);
            let (big_x, big_g) = (batch(9, 32, 3), batch(9, 1, 5));
            reused_model.forward_tape(&big_x, &mut reused);
            reused_model.backward_tape(&big_x, &big_g, &mut gx_reused, &mut reused);

            let x = batch(6, 32, 13);
            let g = batch(6, 1, 17);
            let mut gx_fresh = Matrix::zeros(0, 0);
            for (model, tape, gx) in [
                (&mut fresh_model, &mut fresh, &mut gx_fresh),
                (&mut reused_model, &mut reused, &mut gx_reused),
            ] {
                model.forward_tape(&x, tape);
                model.zero_grad();
                model.backward_tape(&x, &g, gx, tape);
            }
            assert_eq!(
                fresh.logits().data(),
                reused.logits().data(),
                "{kind:?} logits"
            );
            assert_eq!(gx_fresh.data(), gx_reused.data(), "{kind:?} input grad");
            assert_eq!(
                flat_grads(&mut fresh_model),
                flat_grads(&mut reused_model),
                "{kind:?} param grads"
            );
        }
    }

    /// FNV-1a 64 over the bit patterns of `v`.
    fn digest(v: &[f32]) -> u64 {
        v.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn dcn_and_wdl_training_step_bits_are_pinned() {
        // One forward and backward, digests of the logits, the input
        // gradient and the flat parameter gradients. Batch 37 is ragged
        // against every row block and group; 64 fills them. Row 2's logit
        // gradient is zero, every fourth head weight is zero, and row 5's
        // logit gradient is the smallest subnormal, so every head product
        // of that row underflows to a signed zero. Both DCN grad_in digests
        // were re-based once, when the cross tower's x_0 gradient gained its
        // multiplicand terms; nothing else moved.
        let shapes: [(usize, usize, usize, &[usize]); 2] =
            [(37, 5, 8, &[16, 8]), (64, 4, 16, &[32, 16])];
        let pinned = [
            (
                ModelKind::Dcn,
                0,
                [0x83f8faa2d6ae23ba, 0xac3f3a4509067a9c, 0xc4f8b87228deb600],
            ),
            (
                ModelKind::Wdl,
                0,
                [0x9fe170cfbf502a3d, 0xca544021a1522121, 0xe4e46a33c091dcd4],
            ),
            (
                ModelKind::Dcn,
                1,
                [0x36f247b44a9543c1, 0x7237e2a01d734f26, 0xcee6be3eacb561c3],
            ),
            (
                ModelKind::Wdl,
                1,
                [0x1f7b07bfefc79a01, 0x64a1feb7cac73d8a, 0x30bd05581d60d4a0],
            ),
        ];
        let mut negative_zeros = 0;
        for (kind, shape, want) in pinned {
            let (rows, fields, dim, hidden) = shapes[shape];
            let mut m = CtrModel::new(kind, fields, dim, hidden, 5);
            // The head's weights are the second-to-last buffer visited.
            let mut buffers = 0;
            m.visit_params(&mut |_, _| buffers += 1);
            let mut i = 0;
            m.visit_params(&mut |p, _| {
                if i + 2 == buffers {
                    p.iter_mut().skip(1).step_by(4).for_each(|w| *w = 0.0);
                }
                i += 1;
            });
            let x = batch(rows, fields * dim, 21);
            let mut dy = batch(rows, 1, 22);
            dy.data_mut()[2] = 0.0;
            dy.data_mut()[5] = -f32::from_bits(1);
            let mut tape = ModelTape::new();
            let mut gx = Matrix::zeros(0, 0);
            m.forward_tape(&x, &mut tape);
            m.zero_grad();
            m.backward_tape(&x, &dy, &mut gx, &mut tape);
            let got = [
                digest(tape.logits().data()),
                digest(gx.data()),
                digest(&flat_grads(&mut m)),
            ];
            let case = format!("{kind:?} {rows}x{fields}x{dim} [logits, grad_in, param grads]");
            assert_eq!(got, want, "{case}: {got:x?}");
            negative_zeros += gx.data().iter().filter(|v| v.to_bits() == 1 << 31).count();
        }
        assert!(
            negative_zeros > 0,
            "the underflowing row must reach grad_in as -0.0"
        );
    }

    #[test]
    fn tape_steady_state_does_not_grow() {
        for kind in KINDS {
            let mut m = CtrModel::new(kind, 4, 8, &[16, 8], 7);
            let mut tape = ModelTape::new();
            let x = batch(6, 32, 13);
            let g = batch(6, 1, 17);
            let mut gx = Matrix::zeros(0, 0);
            for _ in 0..4 {
                m.forward_tape(&x, &mut tape);
                m.zero_grad();
                m.backward_tape(&x, &g, &mut gx, &mut tape);
                tape.end_batch();
            }
            assert_eq!(tape.post_warmup_growth(), 0, "{kind:?} grew after warmup");
        }
    }

    /// The deep tower of the model-level gradient checks.
    const GRADCHECK_HIDDEN: [usize; 2] = [8, 6];

    /// `Σ_r dy_r·logit_r` in f64, and whether each hidden ReLU is on, after
    /// a forward pass of `x`.
    fn weighted_logits(
        m: &mut CtrModel,
        x: &Matrix,
        dy: &[f32],
        tape: &mut ModelTape,
    ) -> (f64, Vec<bool>) {
        m.forward_tape(x, tape);
        let loss = tape
            .logits()
            .data()
            .iter()
            .zip(dy)
            .map(|(&z, &d)| z as f64 * d as f64)
            .sum();
        let on = (0..GRADCHECK_HIDDEN.len())
            .flat_map(|i| tape.dense.act(i).data().iter().map(|&a| a > 0.0))
            .collect();
        (loss, on)
    }

    /// Checks one model end to end against central differences: every input
    /// element and every element of every buffer `visit_params` walks,
    /// under `L = Σ_r dy_r·logit_r`. The batch is 11 rows (ragged against
    /// the cross tower's blocks) and the tower two hidden layers deep.
    ///
    /// Central differences hold only where no ReLU pre-activation lies
    /// within one `eps` step of 0. The seeds below are chosen so that none
    /// does, and every probe asserts it: no hidden unit switches on or off.
    fn model_gradcheck(kind: ModelKind) {
        let (rows, fields, dim, eps) = (11usize, 3usize, 4usize, 1e-2f32);
        let mut m = CtrModel::new(kind, fields, dim, &GRADCHECK_HIDDEN, 6);
        let x = batch(rows, fields * dim, 31);
        let dy = batch(rows, 1, 32);
        let dy = dy.data();
        let mut tape = ModelTape::new();
        let mut gx = Matrix::zeros(0, 0);
        let (_, on) = weighted_logits(&mut m, &x, dy, &mut tape);
        m.zero_grad();
        m.backward_tape(
            &x,
            &Matrix::from_vec(rows, 1, dy.to_vec()),
            &mut gx,
            &mut tape,
        );

        let mut loss = |m: &mut CtrModel, x: &Matrix| {
            let (loss, probe_on) = weighted_logits(m, x, dy, &mut tape);
            assert_eq!(probe_on, on, "{kind:?}: a probe crossed a ReLU kink");
            loss
        };
        let cols = fields * dim;
        let input_loss = |p: &[f32]| loss(&mut m, &Matrix::from_vec(rows, cols, p.to_vec()));
        gradcheck(input_loss, x.data(), gx.data(), eps, 1e-4, 1e-3);
        gradcheck_params(
            &mut m,
            CtrModel::visit_params,
            |m| loss(m, &x),
            eps,
            1e-4,
            1e-3,
        );
    }

    #[test]
    fn wdl_gradcheck() {
        model_gradcheck(ModelKind::Wdl);
    }

    #[test]
    fn dcn_gradcheck() {
        model_gradcheck(ModelKind::Dcn);
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut m = CtrModel::new(ModelKind::Dcn, 2, 4, &[8], 1);
        let flat = m.flatten_params();
        assert_eq!(flat.len(), m.num_dense_params());
        let mut m2 = CtrModel::new(ModelKind::Dcn, 2, 4, &[8], 2);
        m2.load_params(&flat);
        assert_eq!(m2.flatten_params(), flat);
        // Identical params ⇒ identical outputs.
        let x = batch(3, 8, 4);
        let (mut t, mut t2) = (ModelTape::new(), ModelTape::new());
        m.forward_tape(&x, &mut t);
        m2.forward_tape(&x, &mut t2);
        assert_eq!(t.logits().data(), t2.logits().data());
    }

    #[test]
    fn flops_positive() {
        let mut m = CtrModel::new(ModelKind::Wdl, 8, 16, &[64, 32], 1);
        assert!(m.flops_per_sample() > 1000.0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(ModelKind::Wdl.name(), "WDL");
        assert_eq!(ModelKind::Dcn.name(), "DCN");
    }
}
