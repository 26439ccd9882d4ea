//! Wire formats for inter-worker embedding payloads.
//!
//! Every replica sync, remote fetch, and gradient write-back in this
//! reproduction moves f32 rows by default. HET (arXiv 2112.07221) shows
//! the staleness-bounded embedding exchange is where the bytes are, and
//! compressing it is cheaper than overlapping it — so [`SyncFormat`]
//! offers one lossy wire encoding beside the f32 identity, `int8`: per-row
//! symmetric quantization, one f32 scale (`max|x| / 127`) plus one signed
//! byte per element, half-even rounding. The rounding adds and subtracts
//! 1.5·2²³ instead of calling `round_ties_even` (an out-of-line `rintf`
//! per element on the x86-64 baseline), with the same bits, so the row is
//! one vectorisable pass. A row so small that `1 / scale` overflows is
//! divided by its scale instead, never multiplied by infinity.
//!
//! Workers never materialise byte buffers (threads share memory); the
//! simulated wire is modelled by *transporting* a row in place —
//! encode + decode through the format — so the values a replica holds
//! are exactly the values a real receiver would decode, and the ledger
//! charges [`SyncFormat::row_wire_bytes`] instead of `dim × 4`.
//!
//! All encodings are deterministic (round-to-nearest-even, no
//! data-dependent branching on accumulated state), which preserves the
//! workspace's bit-reproducibility contract: a format bit-matches itself
//! across thread counts and checkpoint resume.
//!
//! Lossy gradient push paths additionally route through an
//! [`ErrorFeedback`] accumulator: the quantization residual of each
//! write-back is remembered per row and added to that row's next
//! gradient before encoding, so rounding error accumulates toward a
//! correction instead of a bias (1-bit SGD / EF-SGD style). Its residuals
//! live in one contiguous arena behind a dense id index: like the
//! embedding worker's own maps, it hashes no id.

use hetgmp_telemetry::HetGmpError;

/// Block size (in f32 elements) for dense-gradient quantization: int8
/// carries one f32 scale per block, and error feedback is keyed per block.
pub const DENSE_CHUNK: usize = 256;

/// Wire encoding for inter-worker embedding (and dense-gradient) payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncFormat {
    /// Raw f32 rows — the identity transport (default, bit-exact).
    #[default]
    F32,
    /// Per-row symmetric int8: one f32 scale + one byte per element.
    Int8,
}

impl SyncFormat {
    /// Every supported format, in lossless-to-lossy order.
    pub const ALL: [SyncFormat; 2] = [SyncFormat::F32, SyncFormat::Int8];

    /// Canonical CLI / config spelling.
    pub fn name(self) -> &'static str {
        match self {
            SyncFormat::F32 => "f32",
            SyncFormat::Int8 => "int8",
        }
    }

    /// Parses the CLI spelling (`f32 | int8`).
    pub fn parse(s: &str) -> Result<Self, HetGmpError> {
        match s {
            "f32" => Ok(SyncFormat::F32),
            "int8" => Ok(SyncFormat::Int8),
            other => Err(HetGmpError::config(
                "sync-format",
                format!("unknown format `{other}` (expected f32 | int8)"),
            )),
        }
    }

    /// `true` when transport is the identity (no rounding anywhere).
    pub fn is_lossless(self) -> bool {
        matches!(self, SyncFormat::F32)
    }

    /// Bytes one `dim`-element row occupies on the wire.
    ///
    /// This is the *single* source of truth for embedding wire sizes —
    /// every ledger charge and cost-model transfer derives from it, so
    /// byte accounting can never drift from the actual payload format.
    /// int8 pays 4 extra bytes for its per-row f32 scale.
    pub fn row_wire_bytes(self, dim: usize) -> u64 {
        match self {
            SyncFormat::F32 => (dim * 4) as u64,
            SyncFormat::Int8 => (dim + 4) as u64,
        }
    }

    /// Wire bytes for a dense payload of `n` f32 parameters, quantized in
    /// [`DENSE_CHUNK`]-element blocks (int8 pays one f32 scale per block).
    pub fn dense_wire_bytes(self, n: usize) -> u64 {
        match self {
            SyncFormat::F32 => (n * 4) as u64,
            SyncFormat::Int8 => (n + 4 * n.div_ceil(DENSE_CHUNK)) as u64,
        }
    }

    /// Simulates one row crossing the wire: encodes and immediately
    /// decodes `row` in place. A no-op for [`SyncFormat::F32`].
    pub fn transport(self, row: &mut [f32]) {
        match self {
            SyncFormat::F32 => {}
            SyncFormat::Int8 => transport_int8(row),
        }
    }
}

impl std::fmt::Display for SyncFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 1.5·2²³. Adding it to a float of magnitude below 2²² lands in
/// [2²³, 2²⁴), where the spacing of f32 is exactly 1, so the addition itself
/// rounds to an integer, ties to even (the default rounding mode; the
/// constant is even, so parity is preserved); subtracting it back is exact.
const ROUND_SHIFTER: f32 = 12_582_912.0;

/// `v.round_ties_even()` for `|v| < 2²²`, with the same bits (the sign of
/// zero and NaN included), in a few inline bitwise and add instructions:
/// the x86-64 baseline has no SSE4.1 `roundss`, so `round_ties_even` is an
/// out-of-line `rintf` call per element and keeps its loop scalar.
#[inline(always)]
fn round_half_even_small(v: f32) -> f32 {
    ((v.abs() + ROUND_SHIFTER) - ROUND_SHIFTER).copysign(v)
}

/// Per-row symmetric int8 transport: `scale = max|x| / 127`, each element
/// `clamp(round_half_even(x / scale), -127, 127) · scale`. The scale rides
/// the wire as a raw f32 (the `+ 4` in [`SyncFormat::row_wire_bytes`]), so
/// decoding is exact given the bytes. An all-zero row stays exactly zero.
fn transport_int8(row: &mut [f32]) {
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        // All-zero rows need no quantization; non-finite rows are passed
        // through untouched (the trainer surfaces NaN losses itself —
        // scaling by an infinite max would silently zero everything).
        return;
    }
    let scale = max_abs / 127.0;
    let inv = 1.0 / scale;
    if !inv.is_finite() {
        transport_int8_tiny(row, max_abs, scale);
        return;
    }
    // |x · inv| ≤ 127·(1 + a few ulps), far inside round_half_even_small's
    // domain; NaN elements stay NaN.
    for x in row {
        *x = round_half_even_small(*x * inv).clamp(-127.0, 127.0) * scale;
    }
}

/// The int8 transport of a row with `max|x| < 127 / f32::MAX`, whose
/// `1 / scale` overflows (multiplying by it would turn every zero into
/// NaN): each element is divided by the scale instead. Such a scale is
/// subnormal and keeps few significant bits, so it is rounded down where
/// `127 · scale` would decode above the row's max; a scale that underflows
/// to zero leaves the row as it is.
#[cold]
fn transport_int8_tiny(row: &mut [f32], max_abs: f32, scale: f32) {
    let scale = if 127.0 * scale > max_abs { scale.next_down() } else { scale };
    if scale == 0.0 {
        return;
    }
    for x in row {
        *x = round_half_even_small(*x / scale).clamp(-127.0, 127.0) * scale;
    }
}

/// Per-row error-feedback accumulators for lossy gradient push paths.
///
/// EF-SGD discipline: before a gradient row is encoded, the residual its
/// previous encoding left behind is added back; after encoding, the new
/// residual (`compensated − transported`) is stored. Rounding error is
/// thus carried forward instead of dropped, so int8 write-backs do not
/// bias convergence — small gradients that would round to zero every
/// step accumulate until they push through a quantization level.
///
/// Residuals are worker-local bookkeeping, never serialized: checkpoints
/// stay f32, and [`ErrorFeedback::clear`] drops all state at epoch
/// boundaries (replica resync) and crash recovery so a resumed run
/// bit-matches an uninterrupted one.
///
/// Storage is a dense id → slot index, one `(id, offset, len)` entry per
/// row holding a residual, and one contiguous arena of residuals: no id is
/// hashed and no row allocates. Slots record offsets, not indices, because
/// rows differ in length ([`DenseQuantizer`]'s last chunk is short).
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    /// Per id, its index in `slots` or [`NO_SLOT`]. Grows to the largest
    /// id pushed unless sized up front ([`ErrorFeedback::with_capacity`]).
    slot_of: Vec<u32>,
    /// One entry per row holding a residual, in first-push order.
    slots: Vec<Slot>,
    /// Every residual, back to back.
    arena: Vec<f32>,
}

/// Marks an id holding no residual in [`ErrorFeedback`]'s index.
const NO_SLOT: u32 = u32::MAX;

/// Where one row's residual lives in [`ErrorFeedback`]'s arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    offset: usize,
    len: usize,
}

impl ErrorFeedback {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty accumulator whose index already covers ids `0..num_ids`,
    /// for an owner that knows its table's row count: the index is sized
    /// once instead of growing with the ids pushed.
    pub fn with_capacity(num_ids: usize) -> Self {
        Self { slot_of: vec![NO_SLOT; num_ids], ..Self::default() }
    }

    /// Compensates `grad` with row `id`'s stored residual, transports it
    /// through `format`, and stores the new residual. On return `grad`
    /// holds exactly the values the receiving side decodes.
    ///
    /// [`SyncFormat::F32`] short-circuits: no residual is read or stored.
    ///
    /// # Panics
    /// Panics if `grad`'s length differs from the residual row `id` holds.
    pub fn compensate_and_transport(&mut self, format: SyncFormat, id: u32, grad: &mut [f32]) {
        if format.is_lossless() {
            return;
        }
        let i = id as usize;
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, NO_SLOT);
        }
        // The residual slot doubles as the staging for the compensated
        // value: `res += grad` (f32 addition commutes, so these are the bits
        // `grad + res` gives), `grad = res`, transport, `res -= grad`.
        let res = match self.slot_of[i] {
            NO_SLOT => {
                // First sight: the compensated value is the gradient itself.
                let offset = self.arena.len();
                self.slot_of[i] = u32::try_from(self.slots.len()).expect("one slot per u32 id");
                self.slots.push(Slot { id, offset, len: grad.len() });
                self.arena.extend_from_slice(grad);
                &mut self.arena[offset..]
            }
            s => {
                let Slot { offset, len, .. } = self.slots[s as usize];
                // An arena row of the wrong length would spill into its
                // neighbour's residual.
                assert_eq!(len, grad.len(), "error-feedback dim changed");
                let res = &mut self.arena[offset..offset + len];
                for (r, g) in res.iter_mut().zip(grad.iter_mut()) {
                    *r += *g;
                    *g = *r;
                }
                res
            }
        };
        format.transport(grad);
        for (r, g) in res.iter_mut().zip(grad.iter()) {
            *r -= g;
        }
    }

    /// Number of rows currently carrying a residual.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no row carries a residual.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops every stored residual (epoch-boundary resync, crash
    /// recovery) so worker state matches a freshly constructed worker.
    /// Resets only the ids holding a residual, so it costs time in
    /// proportion to those rows, not to the index; buffers keep their
    /// capacity.
    pub fn clear(&mut self) {
        for s in self.slots.drain(..) {
            self.slot_of[s.id as usize] = NO_SLOT;
        }
        self.arena.clear();
    }

    /// Row `id`'s stored residual, if it holds one.
    #[cfg(test)]
    fn residual(&self, id: u32) -> Option<&[f32]> {
        match self.slot_of.get(id as usize) {
            Some(&s) if s != NO_SLOT => {
                let Slot { offset, len, .. } = self.slots[s as usize];
                Some(&self.arena[offset..offset + len])
            }
            _ => None,
        }
    }
}

/// Transports flattened dense-gradient payloads through a [`SyncFormat`]
/// in [`DENSE_CHUNK`]-element blocks, with per-block error feedback on
/// lossy formats. Constructed per epoch so residual state resets at the
/// same barrier replica resync does — a checkpoint-resumed run bit-matches
/// an uninterrupted one.
#[derive(Debug)]
pub struct DenseQuantizer {
    format: SyncFormat,
    feedback_on: bool,
    feedback: ErrorFeedback,
}

impl DenseQuantizer {
    /// A quantizer for `format`; `error_feedback` enables per-block
    /// residual carry on lossy formats.
    pub fn new(format: SyncFormat, error_feedback: bool) -> Self {
        Self { format, feedback_on: error_feedback, feedback: ErrorFeedback::new() }
    }

    /// Simulates the payload crossing the wire in place (encode + decode
    /// per block). A no-op for lossless formats.
    pub fn transport(&mut self, data: &mut [f32]) {
        if self.format.is_lossless() {
            return;
        }
        for (i, chunk) in data.chunks_mut(DENSE_CHUNK).enumerate() {
            if self.feedback_on {
                self.feedback.compensate_and_transport(self.format, i as u32, chunk);
            } else {
                self.format.transport(chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn f32_is_identity() {
        let mut v = vec![1.0f32, -2.5, std::f32::consts::PI, f32::MIN_POSITIVE, 0.0];
        let orig = v.clone();
        SyncFormat::F32.transport(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_bytes_per_format() {
        assert_eq!(SyncFormat::F32.row_wire_bytes(16), 64);
        assert_eq!(SyncFormat::Int8.row_wire_bytes(16), 20);
        // int8 crosses 3.5x reduction at dim 28.
        assert!(SyncFormat::Int8.row_wire_bytes(32) * 7 / 2 <= SyncFormat::F32.row_wire_bytes(32));
    }

    #[test]
    fn dense_wire_bytes_per_format() {
        assert_eq!(SyncFormat::F32.dense_wire_bytes(1000), 4000);
        // 1000 elements = 4 blocks of ≤256 → 1000 bytes + 4 scales.
        assert_eq!(SyncFormat::Int8.dense_wire_bytes(1000), 1016);
        assert_eq!(SyncFormat::Int8.dense_wire_bytes(0), 0);
        assert_eq!(SyncFormat::Int8.dense_wire_bytes(256), 260);
        assert_eq!(SyncFormat::Int8.dense_wire_bytes(257), 265);
    }

    #[test]
    fn dense_quantizer_f32_is_identity_and_stateless() {
        let mut q = DenseQuantizer::new(SyncFormat::F32, true);
        let mut v: Vec<f32> = (0..600).map(|i| (i as f32).sin()).collect();
        let orig = v.clone();
        q.transport(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(q.feedback.is_empty());
    }

    #[test]
    fn dense_quantizer_matches_per_chunk_transport() {
        // Without feedback, the quantizer is exactly a chunked transport.
        let mut q = DenseQuantizer::new(SyncFormat::Int8, false);
        let mut v: Vec<f32> = (0..600).map(|i| (i as f32 * 0.37).cos()).collect();
        let mut manual = v.clone();
        q.transport(&mut v);
        for chunk in manual.chunks_mut(DENSE_CHUNK) {
            SyncFormat::Int8.transport(chunk);
        }
        for (a, b) in v.iter().zip(manual.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(q.feedback.is_empty());
    }

    #[test]
    fn dense_quantizer_feedback_carries_residual_per_chunk() {
        let mut q = DenseQuantizer::new(SyncFormat::Int8, true);
        let mut v: Vec<f32> = (0..300).map(|i| (i as f32 * 0.11).sin()).collect();
        q.transport(&mut v);
        // 300 elements span 2 chunks → 2 residual entries.
        assert_eq!(q.feedback.len(), 2);
        // Repeated transports of a biased signal average out: the sum of
        // decoded values approaches the sum of inputs.
        let signal = [0.004f32, 1.0, -0.003, 0.5];
        let mut sums = [0.0f64; 4];
        let mut q = DenseQuantizer::new(SyncFormat::Int8, true);
        const N: usize = 500;
        for _ in 0..N {
            let mut buf = signal;
            q.transport(&mut buf);
            for (s, b) in sums.iter_mut().zip(buf.iter()) {
                *s += *b as f64;
            }
        }
        for (s, x) in sums.iter().zip(signal.iter()) {
            let mean = s / N as f64;
            assert!(
                (mean - *x as f64).abs() < 1e-3,
                "EF mean {mean} drifted from {x}"
            );
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for f in SyncFormat::ALL {
            assert_eq!(SyncFormat::parse(f.name()).unwrap(), f);
        }
        assert!(SyncFormat::parse("fp8").is_err());
    }

    #[test]
    fn int8_round_trip_bounds() {
        let mut v: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin()).collect();
        let orig = v.clone();
        SyncFormat::Int8.transport(&mut v);
        let max_abs = orig.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let step = max_abs / 127.0;
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-7, "int8 error {} > half step {}", (a - b).abs(), step / 2.0);
        }
    }

    #[test]
    fn int8_zero_row_stays_zero() {
        let mut v = vec![0.0f32; 8];
        SyncFormat::Int8.transport(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn int8_deterministic_across_calls() {
        let base: Vec<f32> = (0..32).map(|i| ((i * 7) as f32).cos() * 0.01).collect();
        let mut a = base.clone();
        let mut b = base;
        SyncFormat::Int8.transport(&mut a);
        SyncFormat::Int8.transport(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn error_feedback_accumulates_small_gradients() {
        // A gradient far below one int8 step rounds to zero every push —
        // without feedback nothing ever lands. With feedback the residual
        // accumulates until a step pushes through.
        let mut ef = ErrorFeedback::new();
        // Row where one large element fixes the scale and one tiny
        // element would always round to zero alone.
        let mut landed = 0.0f64;
        for _ in 0..100 {
            let mut g = vec![1.0f32, 0.001];
            ef.compensate_and_transport(SyncFormat::Int8, 7, &mut g);
            landed += g[1] as f64;
        }
        // 100 pushes × 0.001 ≈ 0.1 must mostly arrive (one step is
        // 1/127 ≈ 0.0079, so ≥ 12 quantization steps fire).
        assert!((landed - 0.1).abs() < 0.008, "landed {landed}, want ≈ 0.1");

        // Without feedback, the same stream drops everything.
        let mut dropped = 0.0f64;
        for _ in 0..100 {
            let mut g = vec![1.0f32, 0.001];
            SyncFormat::Int8.transport(&mut g);
            dropped += g[1] as f64;
        }
        assert_eq!(dropped, 0.0);
    }

    #[test]
    fn error_feedback_f32_is_free() {
        let mut ef = ErrorFeedback::new();
        let mut g = vec![0.123f32, -0.456];
        let orig = g.clone();
        ef.compensate_and_transport(SyncFormat::F32, 3, &mut g);
        assert_eq!(g, orig);
        assert!(ef.is_empty());
    }

    #[test]
    fn error_feedback_clear_resets_state() {
        let mut ef = ErrorFeedback::new();
        let mut g = vec![1.0f32, 0.001];
        ef.compensate_and_transport(SyncFormat::Int8, 1, &mut g);
        assert_eq!(ef.len(), 1);
        ef.clear();
        assert!(ef.is_empty());
    }

    /// The int8 kernel rounding through `round_ties_even`: the oracle the
    /// transported bits must equal on every row whose `1 / scale` is finite.
    fn transport_int8_reference(row: &mut [f32]) {
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if max_abs == 0.0 || !max_abs.is_finite() {
            return;
        }
        let scale = max_abs / 127.0;
        let inv = 1.0 / scale;
        for x in row {
            let q = (*x * inv).round_ties_even().clamp(-127.0, 127.0);
            *x = q * scale;
        }
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a:e} vs {b:e}");
        }
    }

    /// Transports `row` through the int8 kernel and through the reference
    /// and asserts the same bits.
    fn check_int8_against_reference(row: &[f32]) {
        let mut got = row.to_vec();
        SyncFormat::Int8.transport(&mut got);
        let mut want = row.to_vec();
        transport_int8_reference(&mut want);
        assert_bits_eq(&got, &want, &format!("{row:?}"));
    }

    #[test]
    fn int8_rounding_matches_reference_on_ties_integers_and_signed_zeros() {
        // A row whose max is 127 has scale 1 and `1 / scale` 1, so every
        // other element reaches the rounding as itself.
        let mut probes = vec![0.0f32, -0.0, 0.25, -0.25, 127.5, -127.5, 128.5, -128.5];
        for k in -128..=127 {
            for v in [k as f32, k as f32 + 0.5] {
                probes.extend([v, v.next_up(), v.next_down()]);
            }
        }
        for &v in &probes {
            check_int8_against_reference(&[127.0, v]);
            check_int8_against_reference(&[v, -127.0, -v]);
        }
        check_int8_against_reference(&[-0.0, 0.0, -0.0]);
        check_int8_against_reference(&[1.0, -0.0, -1e-30, 1e-30]);
    }

    #[test]
    fn int8_rounding_matches_reference_just_past_the_clamp() {
        // `scale` and `1 / scale` each round, so the max element can land
        // just above ±127 before the clamp. Walk consecutive maxima until
        // enough rows have done so.
        let mut m = 1.0f32;
        let mut past_clamp = 0;
        while past_clamp < 1000 {
            if m * (1.0 / (m / 127.0)) > 127.0 {
                past_clamp += 1;
            }
            check_int8_against_reference(&[m, -m, m * 0.5, -m.next_down()]);
            m = m.next_up();
        }
    }

    #[test]
    fn int8_rounding_matches_reference_on_nan_elements() {
        let quiet_payload = f32::from_bits(0x7FC0_1234);
        let negative_signalling = f32::from_bits(0xFFA0_0001);
        for row in [
            vec![1.0f32, f32::NAN, -0.5, -f32::NAN],
            vec![quiet_payload, 0.3, negative_signalling, -0.0],
            vec![f32::NAN],
        ] {
            check_int8_against_reference(&row);
        }
    }

    #[test]
    fn int8_rounding_matches_reference_on_random_rows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1E8);
        for i in 0..100_000 {
            let dim = [1, 3, 16, 64, 256][i % 5];
            // Row maxima over 80 binades, elements up to 2^12 below them.
            let top = 2f32.powi(rng.gen_range(-40i32..=40));
            let row: Vec<f32> = (0..dim)
                .map(|_| {
                    (rng.gen::<f32>() * 2.0 - 1.0) * top * 2f32.powi(-rng.gen_range(0i32..=12))
                })
                .collect();
            check_int8_against_reference(&row);
        }
    }

    #[test]
    fn int8_tiny_rows_stay_finite_signed_and_in_range() {
        // Below max|row| = 127 / f32::MAX (about 3.7e-37), `1 / scale`
        // overflows to +inf.
        for m in [3e-37f32, 1e-38, 1e-44, f32::MIN_POSITIVE] {
            let row = [0.0f32, m, -m / 2.0, -0.0, m * 0.3, -m, m * 1e-3];
            let mut out = row;
            SyncFormat::Int8.transport(&mut out);
            for (&o, &x) in out.iter().zip(&row) {
                assert!(!o.is_nan(), "max {m:e}: {x:e} -> NaN");
                assert_eq!(o.is_sign_negative(), x.is_sign_negative(), "max {m:e}: {x:e} -> {o:e}");
                assert!(o.abs() <= m, "max {m:e}: {x:e} -> {o:e} exceeds the row's max");
                assert!((o - x).abs() <= m / 127.0, "max {m:e}: {x:e} -> {o:e} is over a step off");
            }
            if m / 127.0 == 0.0 {
                assert_bits_eq(&out, &row, "a scale that underflows leaves the row as it is");
            }
        }
    }

    /// The accumulator keyed by a `HashMap` of per-row `Vec`s: the oracle
    /// the arena's transported bits and residuals must equal.
    #[derive(Default)]
    struct HashMapFeedback {
        residuals: HashMap<u32, Vec<f32>>,
    }

    impl HashMapFeedback {
        fn compensate_and_transport(&mut self, format: SyncFormat, id: u32, grad: &mut [f32]) {
            let res = match self.residuals.entry(id) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let res = e.into_mut();
                    for (r, g) in res.iter_mut().zip(grad.iter_mut()) {
                        *r += *g;
                        *g = *r;
                    }
                    res
                }
                std::collections::hash_map::Entry::Vacant(e) => e.insert(grad.to_vec()),
            };
            format.transport(grad);
            for (r, g) in res.iter_mut().zip(grad.iter()) {
                *r -= g;
            }
        }
    }

    #[test]
    fn error_feedback_matches_hash_map_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xEF);
        let format = SyncFormat::Int8;
        let mut ef = ErrorFeedback::new();
        let mut reference = HashMapFeedback::default();
        // Rounds are separated by `clear()`; each round gives some ids a
        // new length, as a re-seen id after a clear may have.
        for round in 0..3u32 {
            // DenseQuantizer-shaped: full chunks, and a short last
            // chunk on every seventh id; one id far past the others.
            let len_of = |id: u32| match id {
                1_000_003 => 16,
                _ if (id + round) % 7 == 6 => 37 + round as usize,
                _ => DENSE_CHUNK,
            };
            for _ in 0..600 {
                let id = if rng.gen_bool(0.02) { 1_000_003 } else { rng.gen_range(0u32..40) };
                let top = 2f32.powi(rng.gen_range(-12i32..=2));
                let grad: Vec<f32> =
                    (0..len_of(id)).map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * top).collect();
                let (mut got, mut want) = (grad.clone(), grad);
                ef.compensate_and_transport(format, id, &mut got);
                reference.compensate_and_transport(format, id, &mut want);
                let what = format!("{format} round {round} id {id}");
                assert_bits_eq(&got, &want, &what);
                let res = ef.residual(id).expect("a pushed id holds a residual");
                assert_bits_eq(res, &reference.residuals[&id], &what);
            }
            assert_eq!(ef.len(), reference.residuals.len());
            for (&id, res) in &reference.residuals {
                let what = format!("{format} end of round {round}, id {id}");
                assert_bits_eq(ef.residual(id).expect("held"), res, &what);
            }
            ef.clear();
            reference.residuals.clear();
            assert!(ef.is_empty());
            assert!(ef.residual(3).is_none() && ef.residual(1_000_003).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "error-feedback dim changed")]
    fn error_feedback_rejects_a_changed_length() {
        let mut ef = ErrorFeedback::new();
        ef.compensate_and_transport(SyncFormat::Int8, 3, &mut [1.0, 0.5]);
        ef.compensate_and_transport(SyncFormat::Int8, 3, &mut [1.0, 0.5, 0.25]);
    }
}
