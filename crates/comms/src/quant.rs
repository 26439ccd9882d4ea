//! Wire formats for inter-worker embedding payloads.
//!
//! Every replica sync, remote fetch, and gradient write-back in this
//! reproduction moves f32 rows by default. HET (arXiv 2112.07221) shows
//! the staleness-bounded embedding exchange is where the bytes are, and
//! compressing it is cheaper than overlapping it — so [`SyncFormat`]
//! offers three lossy wire encodings beside the f32 identity:
//!
//! * `f16` — IEEE 754 binary16, round-to-nearest-even (11-bit mantissa);
//! * `bf16` — truncated f32 exponent range, round-to-nearest-even
//!   (8-bit mantissa, full f32 dynamic range);
//! * `int8` — per-row symmetric quantization: one f32 scale
//!   (`max|x| / 127`) plus one signed byte per element, half-even
//!   rounding.
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
//! correction instead of a bias (1-bit SGD / EF-SGD style).

use std::collections::HashMap;

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
    /// IEEE 754 binary16 with round-to-nearest-even.
    F16,
    /// bfloat16 (truncated f32) with round-to-nearest-even.
    Bf16,
    /// Per-row symmetric int8: one f32 scale + one byte per element.
    Int8,
}

impl SyncFormat {
    /// Every supported format, in lossless-to-lossy order.
    pub const ALL: [SyncFormat; 4] =
        [SyncFormat::F32, SyncFormat::F16, SyncFormat::Bf16, SyncFormat::Int8];

    /// Canonical CLI / config spelling.
    pub fn name(self) -> &'static str {
        match self {
            SyncFormat::F32 => "f32",
            SyncFormat::F16 => "f16",
            SyncFormat::Bf16 => "bf16",
            SyncFormat::Int8 => "int8",
        }
    }

    /// Parses the CLI spelling (`f32 | f16 | bf16 | int8`).
    pub fn parse(s: &str) -> Result<Self, HetGmpError> {
        match s {
            "f32" => Ok(SyncFormat::F32),
            "f16" => Ok(SyncFormat::F16),
            "bf16" => Ok(SyncFormat::Bf16),
            "int8" => Ok(SyncFormat::Int8),
            other => Err(HetGmpError::config(
                "sync-format",
                format!("unknown format `{other}` (expected f32 | f16 | bf16 | int8)"),
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
            SyncFormat::F16 | SyncFormat::Bf16 => (dim * 2) as u64,
            SyncFormat::Int8 => (dim + 4) as u64,
        }
    }

    /// Wire bytes for a dense payload of `n` f32 parameters, quantized in
    /// [`DENSE_CHUNK`]-element blocks (int8 pays one f32 scale per block).
    pub fn dense_wire_bytes(self, n: usize) -> u64 {
        match self {
            SyncFormat::F32 => (n * 4) as u64,
            SyncFormat::F16 | SyncFormat::Bf16 => (n * 2) as u64,
            SyncFormat::Int8 => (n + 4 * n.div_ceil(DENSE_CHUNK)) as u64,
        }
    }

    /// Simulates one row crossing the wire: encodes and immediately
    /// decodes `row` in place. A no-op for [`SyncFormat::F32`].
    pub fn transport(self, row: &mut [f32]) {
        match self {
            SyncFormat::F32 => {}
            SyncFormat::F16 => {
                for x in row {
                    *x = f16_bits_to_f32(f32_to_f16_bits(*x));
                }
            }
            SyncFormat::Bf16 => {
                for x in row {
                    *x = bf16_bits_to_f32(f32_to_bf16_bits(*x));
                }
            }
            SyncFormat::Int8 => transport_int8(row),
        }
    }
}

impl std::fmt::Display for SyncFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// f32 → IEEE 754 binary16 bits, round-to-nearest-even.
///
/// Handles normals, subnormals, overflow-to-infinity, and NaN (quietened,
/// payload truncated). Deterministic: a pure function of the input bits.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN: preserve the class; keep NaNs quiet and non-zero.
        return if man == 0 { sign | 0x7C00 } else { sign | 0x7E00 };
    }

    // Unbiased exponent, re-biased for f16 (bias 15 vs 127).
    let e = exp - 127 + 15;
    if e >= 0x1F {
        // Overflows f16's range: round to infinity.
        return sign | 0x7C00;
    }
    if e <= 0 {
        // Subnormal (or underflow to zero). Shift the full 24-bit
        // significand (implicit leading 1) right until the exponent
        // field is zero, rounding half-to-even on the dropped bits.
        if e < -10 {
            return sign; // underflows even the smallest subnormal
        }
        let full = man | 0x0080_0000; // implicit bit
        let shift = (14 - e) as u32; // bits dropped from the 24-bit significand
        let kept = full >> shift;
        let dropped = full & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round_up = dropped > half || (dropped == half && (kept & 1) == 1);
        return sign | (kept + round_up as u32) as u16;
    }

    // Normal: keep the top 10 mantissa bits, round half-to-even on the
    // 13 dropped ones. A mantissa carry can overflow into the exponent
    // field — the integer add handles that correctly (binades are
    // adjacent in the bit encoding), including overflow to infinity.
    let kept = man >> 13;
    let dropped = man & 0x1FFF;
    let round_up = dropped > 0x1000 || (dropped == 0x1000 && (kept & 1) == 1);
    let h = ((e as u32) << 10) | kept;
    sign | (h + round_up as u32) as u16
}

/// IEEE 754 binary16 bits → f32 (exact — every f16 value is an f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    let bits = match (exp, man) {
        (0, 0) => sign,                            // ±0
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴; normalise into f32
            // (m = 2^lead · 1.frac ⇒ value = 1.frac · 2^(lead−24)).
            let lead = 31 - m.leading_zeros();     // position of the top set bit
            let e = 103 + lead;                    // biased: 127 + lead − 24
            let frac = (m << (23 - lead)) & 0x007F_FFFF;
            sign | (e << 23) | frac
        }
        (0x1F, 0) => sign | 0x7F80_0000,           // ±inf
        (0x1F, m) => sign | 0x7FC0_0000 | (m << 13), // NaN (kept quiet)
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// f32 → bfloat16 bits, round-to-nearest-even (the standard
/// `(bits + ((bits >> 16) & 1) + 0x7FFF) >> 16` trick; NaNs bypass the
/// add so they cannot round into an infinity).
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Truncate but force a set mantissa bit so the NaN survives.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let rounded = bits.wrapping_add(((bits >> 16) & 1) + 0x7FFF);
    (rounded >> 16) as u16
}

/// bfloat16 bits → f32 (exact: bf16 is a truncated f32).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Per-row symmetric int8 transport: `scale = max|x| / 127`, each element
/// `clamp(round_half_even(x / scale), -127, 127) · scale`. The scale rides
/// the wire as a raw f32 (the `+ 4` in [`SyncFormat::row_wire_bytes`]), so
/// decoding is exact given the bytes. An all-zero (or non-finite-free
/// zero-max) row stays exactly zero.
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
    for x in row {
        let q = (*x * inv).round_ties_even().clamp(-127.0, 127.0);
        *x = q * scale;
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
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    residuals: HashMap<u32, Vec<f32>>,
}

impl ErrorFeedback {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compensates `grad` with row `id`'s stored residual, transports it
    /// through `format`, and stores the new residual. On return `grad`
    /// holds exactly the values the receiving side decodes.
    ///
    /// [`SyncFormat::F32`] short-circuits: no residual is read or stored.
    pub fn compensate_and_transport(&mut self, format: SyncFormat, id: u32, grad: &mut [f32]) {
        if format.is_lossless() {
            return;
        }
        // The residual slot doubles as the staging for the compensated
        // value, so a row seen before allocates nothing: `res += grad`
        // (f32 addition commutes, so these are the bits `grad + res` gives),
        // `grad = res`, transport, `res -= grad`.
        let res = match self.residuals.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let res = e.into_mut();
                debug_assert_eq!(res.len(), grad.len(), "error-feedback dim changed");
                for (r, g) in res.iter_mut().zip(grad.iter_mut()) {
                    *r += *g;
                    *g = *r;
                }
                res
            }
            // First sight: the compensated value is the gradient itself.
            std::collections::hash_map::Entry::Vacant(e) => e.insert(grad.to_vec()),
        };
        format.transport(grad);
        for (r, g) in res.iter_mut().zip(grad.iter()) {
            *r -= g;
        }
    }

    /// Number of rows currently carrying a residual.
    pub fn len(&self) -> usize {
        self.residuals.len()
    }

    /// `true` when no row carries a residual.
    pub fn is_empty(&self) -> bool {
        self.residuals.is_empty()
    }

    /// Drops every stored residual (epoch-boundary resync, crash
    /// recovery) so worker state matches a freshly constructed worker.
    pub fn clear(&mut self) {
        self.residuals.clear();
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
        assert_eq!(SyncFormat::F16.row_wire_bytes(16), 32);
        assert_eq!(SyncFormat::Bf16.row_wire_bytes(16), 32);
        assert_eq!(SyncFormat::Int8.row_wire_bytes(16), 20);
        // int8 crosses 3.5x reduction at dim 28.
        assert!(SyncFormat::Int8.row_wire_bytes(32) * 7 / 2 <= SyncFormat::F32.row_wire_bytes(32));
    }

    #[test]
    fn dense_wire_bytes_per_format() {
        assert_eq!(SyncFormat::F32.dense_wire_bytes(1000), 4000);
        assert_eq!(SyncFormat::F16.dense_wire_bytes(1000), 2000);
        assert_eq!(SyncFormat::Bf16.dense_wire_bytes(1000), 2000);
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
    fn f16_exact_values_survive() {
        // Values exactly representable in binary16 round-trip bit-exactly.
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0, 65504.0, -65504.0, 6.1035156e-5] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(rt.to_bits(), x.to_bits(), "f16 round-trip changed {x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1 + 2^-10); half-even rounds down to 1.0.
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        // 1 + 3·2^-11 is halfway between 1+2^-10 (odd mantissa) and
        // 1+2^-9 (even); half-even rounds up.
        let halfway_up = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway_up)), 1.0 + 2.0f32.powi(-9));
        // Just above/below halfway round to nearest.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20))), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn f16_subnormals_and_limits() {
        // Smallest f16 subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        // Half of it rounds to zero (ties-to-even: 0 is even).
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2.0f32.powi(-25))), 0.0);
        // Above f16 max rounds to infinity.
        assert!(f16_bits_to_f32(f32_to_f16_bits(70000.0)).is_infinite());
        // Negative zero keeps its sign.
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        // NaN survives.
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_truncation_and_rounding() {
        // bf16 keeps f32's exponent: huge magnitudes survive.
        let big = 3.0e38f32;
        let rt = bf16_bits_to_f32(f32_to_bf16_bits(big));
        assert!((rt - big).abs() / big < 1.0 / 128.0);
        // Exactly representable values are unchanged.
        for &x in &[1.0f32, -2.0, 0.15625] {
            assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(x)).to_bits(), x.to_bits());
        }
        // Halfway case: 1 + 2^-9 is between 1.0 and 1 + 2^-8; even wins.
        assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(1.0 + 2.0f32.powi(-9))), 1.0);
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
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
}
