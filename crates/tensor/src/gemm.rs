//! Packed, register-tiled f32 GEMM: one loop nest, three ISA tiers.
//!
//! Every product the layers need — `A·B`, `Aᵀ·B`, `A·Bᵀ` — runs through the
//! same nest (`nest`). Both operands reach the microkernel from packed,
//! contiguous panels: a depth chunk of at most `KC` steps of an `MC`-row
//! block of A is packed once into `R`-row micro-panels (L2-resident), then
//! each column micro-panel of B is packed once (L1-resident) and swept
//! across every row tile of the block. The variants differ only in the two
//! gathers (`Gather`) that fill the panels: an operand whose lines run
//! along the depth index is transposed into the panel (`Strided`), one
//! whose lines run along the output index is copied a segment per depth
//! step (`Segment`). Panels live in a per-thread workspace allocated on a
//! thread's first product, so a steady-state product allocates nothing.
//!
//! Tails never leave the nest. Columns go down a ladder of narrower tiles
//! of the same microkernel (`C`, `C/2`, …, 8) and the last partial panel,
//! like the last partial row tile, is zero-padded in the *panel*: the tile
//! computes its padding lanes and never stores them. Only a single-column
//! product (`n = 1`: a logit layer, DCN's combiner, their `dW`) has no tile
//! to land on — every tile would be one lane wide — so it vectorizes over
//! the *other* output dimension instead: `row_dots` when A's rows run along
//! the depth, one scaled row addition per depth step when they run along
//! the output. Epilogues fuse bias addition and ReLU so a dense layer's
//! forward pass is one pass over the output.
//!
//! The nest is compiled once per entry of the dispatch table (`TIERS`):
//! portable 4×8, AVX2 4×16, AVX-512 8×32, picked by
//! `is_x86_feature_detected!` alone ([`kernel_tier`] names the pick). The
//! one guarded call through that table (`run`) is the only `unsafe` in
//! the workspace; every other crate forbids it. A product runs on the
//! calling thread: the trainer parallelises across workers, never inside
//! one.
//!
//! # Determinism contract
//!
//! For a given shape every output element is accumulated in one fixed
//! summation order: a single accumulator per element, seeded by the
//! epilogue (`+0.0`, the bias, or the previous output), sequential over the
//! depth index `p`. What one depth step is follows from two rules:
//!
//! 1. In the nest (every product with `n ≥ 2`) a step is one IEEE fused
//!    multiply-add, `acc = a.mul_add(b, acc)`: one rounding per step.
//! 2. In the single-column kernels (`n = 1`: `row_dots` and the segment
//!    branch of `gemm`) a step is a multiply and then an add, two
//!    roundings. Rust never contracts `mul`+`add` on its own, so these
//!    stay unfused on every tier.
//!
//! Both operations are exactly specified by IEEE 754, so every tier
//! computes the identical value per element. Everything else — tile
//! shape, panel packing and its zero padding, the order tiles are visited
//! in, the depth chunking (partial sums round-trip through `out` as exact
//! f32 stores/loads), the lane a product is computed in before `row_dots`
//! transposes it, the ISA the nest is compiled for — only regroups
//! *independent* elements and never reassociates a single element's sum.
//! Results are bit-for-bit reproducible across runs, machines, and
//! dispatch paths (`dispatch_matches_portable_body` pins every tier the
//! host has against the portable tile, and all of them against a scalar
//! triple loop that follows the same two rules).
//!
//! The AVX2 and AVX-512 tiers compile the nest with FMA enabled, and their
//! `detected` checks it. The portable tier enables nothing, so there each
//! lane's `mul_add` is a call to `fmaf`, which runs on the FMA unit when
//! the CPU has one and in software when it does not: the same bits, far
//! slower.
//!
//! The naive reference kernels live in [`mod@reference`]; differential tests pin
//! the blocked kernels against them (relative error ≤ 1e-5 — blocked tiling
//! does not change the per-element order here, but the fused-bias epilogue
//! seeds the accumulator with the bias instead of adding it last, which is
//! why exact-equality is only guaranteed against the fused composition, not
//! against `reference` + `add_bias`).

use std::cell::RefCell;
use std::sync::OnceLock;

/// Depth-chunk length: panels hold at most `KC` depth steps, so a B
/// micro-panel (`KC × 32` f32 = 32 KiB at the widest tile) stays in L1
/// while the A block streams past it.
const KC: usize = 256;

/// Rows of A packed per block (a multiple of every tier's tile rows):
/// `MC × KC` f32 = 256 KiB, L2-resident.
const MC: usize = 256;

/// Widest tile of any tier; sizes the B micro-panel.
const NR_MAX: usize = 32;

thread_local! {
    /// The calling thread's packing workspace: one B micro-panel followed by
    /// one A block, 288 KiB, allocated (zeroed, so untouched pages cost
    /// nothing) on the thread's first product.
    static WORKSPACE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Epilogue applied when a tile leaves the registers.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Epilogue {
    /// `C = acc` (accumulator was seeded with zeros).
    Store,
    /// `C += acc` (gradient accumulation, e.g. `dW += Xᵀ·dY`).
    Accumulate,
    /// `C = acc` where the accumulator was seeded with the bias row.
    Bias,
    /// `C = max(acc, 0)` with a bias-seeded accumulator.
    BiasRelu,
}

/// What an element's accumulator starts from.
#[derive(Clone, Copy, PartialEq)]
enum Seed {
    Zero,
    /// The element's current value in `out`: `Accumulate`, and every depth
    /// chunk after the first.
    Out,
    /// `bias[j]` for column `j`.
    Bias,
}

/// How an operand's elements are laid out relative to the panel that
/// gathers them. `x` is the operand's output index (a row of `C` for the
/// left operand, a column for the right one), `p` the depth index.
#[derive(Clone, Copy)]
enum Gather {
    /// Element `(x, p)` is `data[x·ld + p]`: each line runs along the depth,
    /// so the gather transposes (`A` of `A·B`, both operands of `A·Bᵀ`).
    Strided,
    /// Element `(x, p)` is `data[p·ld + x]`: each depth step is a contiguous
    /// segment (`B` of `A·B`, both operands of `Aᵀ·B`).
    Segment,
}

#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    ld: usize,
    gather: Gather,
}

impl<'a> Operand<'a> {
    fn strided(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            ld,
            gather: Gather::Strided,
        }
    }

    fn segment(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            ld,
            gather: Gather::Segment,
        }
    }
}

/// One product `C (m×n) = A·B` over gathered operands.
#[derive(Clone, Copy)]
struct Product<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'a>,
    b: Operand<'a>,
    bias: &'a [f32],
    seed: Seed,
    relu: bool,
}

/// One depth chunk of one A block: what a column micro-panel is swept over.
#[derive(Clone, Copy)]
struct Block {
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    seed: Seed,
    relu: bool,
}

/// One compilation of [`nest`]: a register-tile shape and the ISA it needs.
struct Tier {
    name: &'static str,
    detected: fn() -> bool,
    /// # Safety
    /// The CPU must support the tier's ISA: call only after `detected()`
    /// returned true.
    nest: unsafe fn(&Product<'_>, &mut [f32], &mut [f32]),
}

/// The dispatch table, best tier first. Tile shapes: the portable tile is
/// 4×8 (two SSE vectors per row); AVX2 is 4×16, two YMM per row giving
/// eight independent FMA chains — enough to cover the FMA latency on two
/// ports with 16 registers; AVX-512 is 8×32, sixteen ZMM chains (32
/// registers), which halves the operand loads per multiply against 4×32
/// and keeps eight chains in flight on the 16- and 8-wide rungs of the tail
/// ladder.
static TIERS: &[Tier] = &[
    // `avx512f` implies `fma` at compile time; checked here all the same.
    #[cfg(target_arch = "x86_64")]
    Tier {
        name: "avx512f",
        detected: || {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
        },
        nest: nest_avx512,
    },
    #[cfg(target_arch = "x86_64")]
    Tier {
        name: "avx2",
        detected: || {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        },
        nest: nest_avx2,
    },
    Tier {
        name: "portable",
        detected: || true,
        nest: nest_portable,
    },
];

fn nest_portable(g: &Product<'_>, out: &mut [f32], ws: &mut [f32]) {
    nest::<4, 8>(g, out, ws);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn nest_avx2(g: &Product<'_>, out: &mut [f32], ws: &mut [f32]) {
    nest::<4, 16>(g, out, ws);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn nest_avx512(g: &Product<'_>, out: &mut [f32], ws: &mut [f32]) {
    nest::<8, 32>(g, out, ws);
}

/// The best tier this CPU supports.
fn active_tier() -> &'static Tier {
    static ACTIVE: OnceLock<&'static Tier> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        TIERS
            .iter()
            .find(|t| (t.detected)())
            .expect("the portable tier is always detected")
    })
}

/// Name of the kernel tier every product on this host runs on: `"avx512f"`,
/// `"avx2"` or `"portable"`. All tiers produce the same bits; this is what a
/// wall-clock number has to be read against.
pub fn kernel_tier() -> &'static str {
    active_tier().name
}

/// `C (m×n) = A (m×k) · B (k×n)` with the chosen epilogue.
///
/// `bias` (length `n`) seeds the accumulator under `Bias`/`BiasRelu` and is
/// ignored otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm(
        active_tier(),
        m,
        k,
        n,
        Operand::strided(a, k),
        Operand::segment(b, n),
        bias,
        epi,
        out,
    );
}

/// `C (m×n) = Aᵀ · B` where `A` is `k×m` and `B` is `k×n` — the
/// weight-gradient GEMM (`dW += Xᵀ·dY`, usually with
/// [`Epilogue::Accumulate`]). Both gathers are contiguous segments.
pub(crate) fn gemm_tn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm(
        active_tier(),
        m,
        k,
        n,
        Operand::segment(a, m),
        Operand::segment(b, n),
        &[],
        epi,
        out,
    );
}

/// `C (m×n) = A · Bᵀ` where `A` is `m×k` and `B` is `n×k` — the
/// input-gradient GEMM (`dX = dY·Wᵀ`). Both gathers transpose.
pub(crate) fn gemm_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    gemm(
        active_tier(),
        m,
        k,
        n,
        Operand::strided(a, k),
        Operand::strided(b, k),
        &[],
        epi,
        out,
    );
}

/// The shared front end: decomposes the epilogue, serves a single-column
/// product with the two row-vectorized kernels, and runs every other product
/// through `tier`'s nest.
#[allow(clippy::too_many_arguments)]
fn gemm(
    tier: &'static Tier,
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_>,
    b: Operand<'_>,
    bias: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "output buffer is not m×n");
    let (seed, relu) = match epi {
        Epilogue::Store => (Seed::Zero, false),
        Epilogue::Accumulate => (Seed::Out, false),
        Epilogue::Bias => (Seed::Bias, false),
        Epilogue::BiasRelu => (Seed::Bias, true),
    };
    if n == 1 {
        // One output column: a tile would be one lane wide, so the product
        // vectorizes over the rows instead. `B` is a plain `k`-vector under
        // either gather, and the lone bias seeds every row.
        match seed {
            Seed::Zero => out.fill(0.0),
            Seed::Out => {}
            Seed::Bias => out.fill(bias[0]),
        }
        match a.gather {
            Gather::Strided => row_dots(k, a.data, a.ld, b.data, 0, out),
            Gather::Segment => {
                for (p, &bp) in b.data[..k].iter().enumerate() {
                    for (o, &x) in out.iter_mut().zip(&a.data[p * a.ld..][..m]) {
                        *o += x * bp;
                    }
                }
            }
        }
        if relu {
            for v in out.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        return;
    }
    let g = Product {
        m,
        k,
        n,
        a,
        b,
        bias,
        seed,
        relu,
    };
    run(tier, &g, out);
}

/// Runs `g` sequentially on `tier` with the calling thread's workspace.
///
/// # Panics
/// Panics if this CPU lacks the tier's ISA.
#[allow(unsafe_code)]
fn run(tier: &Tier, g: &Product<'_>, out: &mut [f32]) {
    WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        if ws.is_empty() {
            ws.resize(KC * (NR_MAX + MC), 0.0);
        }
        assert!(
            (tier.detected)(),
            "kernel tier {} is not supported by this CPU",
            tier.name
        );
        // SAFETY: `Tier::nest` requires only that the CPU supports the
        // tier's ISA, checked on the line above.
        unsafe { (tier.nest)(g, out, &mut ws) }
    });
}

/// The loop nest. Per depth chunk and A block: pack the block once, then
/// for each column micro-panel — widest tile first, down the ladder — pack
/// it once and sweep it across the block's row tiles.
#[inline(always)]
fn nest<const R: usize, const C: usize>(g: &Product<'_>, out: &mut [f32], ws: &mut [f32]) {
    let (bpanel, ablock) = ws.split_at_mut(KC * NR_MAX);
    let mut p0 = 0;
    loop {
        // Partial sums round-trip through `out` (exact f32 stores/loads)
        // between depth chunks; `k = 0` still runs one empty chunk so the
        // epilogue lands.
        let kc = KC.min(g.k - p0);
        let seed = if p0 == 0 { g.seed } else { Seed::Out };
        let relu = g.relu && p0 + kc == g.k;
        for i0 in (0..g.m).step_by(MC) {
            let mc = MC.min(g.m - i0);
            for (t, i) in (i0..i0 + mc).step_by(R).enumerate() {
                let rows = R.min(i0 + mc - i);
                pack::<R>(g.a, i, rows, p0, kc, &mut ablock[t * R * kc..][..R * kc]);
            }
            let blk = Block {
                i0,
                mc,
                p0,
                kc,
                seed,
                relu,
            };
            let mut j = 0;
            while j < g.n {
                let left = g.n - j;
                j += if C >= 32 && left >= 32 {
                    sweep::<R, 32>(g, &blk, j, ablock, bpanel, out)
                } else if C >= 16 && left >= 16 {
                    sweep::<R, 16>(g, &blk, j, ablock, bpanel, out)
                } else {
                    sweep::<R, 8>(g, &blk, j, ablock, bpanel, out)
                };
            }
        }
        p0 += kc;
        if p0 >= g.k {
            break;
        }
    }
}

/// `acc[r][..] = fma(a[r], b[..], acc[r][..])` for each listed row, one
/// statement per row: a single-rounding fused multiply-add per lane.
/// Spelled out because a `for r in 0..R` here is a loop LLVM may vectorize
/// *across rows* (at `R = 8` it does: gathers and scatters over a spilled
/// tile); with the rows unrolled by hand only the lane loop is left.
macro_rules! fma_rows {
    ($acc:ident, $a:ident, $b:ident; $($r:literal)+) => {{
        $(
            for c in 0..W {
                $acc[$r][c] = $a[$r].mul_add($b[c], $acc[$r][c]);
            }
        )+
    }};
}

/// Packs the `W`-wide column micro-panel at column `j` and runs the
/// microkernel over every row tile of the block. Returns `W`.
#[inline(always)]
fn sweep<const R: usize, const W: usize>(
    g: &Product<'_>,
    blk: &Block,
    j: usize,
    ablock: &[f32],
    bpanel: &mut [f32],
    out: &mut [f32],
) -> usize {
    let kc = blk.kc;
    let cols = W.min(g.n - j);
    let bp = &mut bpanel[..kc * W];
    pack::<W>(g.b, j, cols, blk.p0, kc, bp);
    for (t, i) in (blk.i0..blk.i0 + blk.mc).step_by(R).enumerate() {
        let rows = R.min(blk.i0 + blk.mc - i);
        let ap = &ablock[t * R * kc..][..R * kc];
        // Constant-index accesses only: the tile must stay in registers.
        let mut acc = [[0.0f32; W]; R];
        for r in 0..R {
            if r < rows {
                match blk.seed {
                    Seed::Zero => {}
                    Seed::Out => acc[r] = load_lanes(&out[(i + r) * g.n + j..][..cols]),
                    Seed::Bias => acc[r] = load_lanes(&g.bias[j..j + cols]),
                }
            }
        }
        // The microkernel: one fused multiply-add per element and depth
        // step, ascending `p`.
        for (av, bv) in ap.chunks_exact(R).zip(bp.chunks_exact(W)) {
            let av: &[f32; R] = av.try_into().unwrap();
            let bv: &[f32; W] = bv.try_into().unwrap();
            match R {
                4 => fma_rows!(acc, av, bv; 0 1 2 3),
                8 => fma_rows!(acc, av, bv; 0 1 2 3 4 5 6 7),
                _ => unreachable!("register tiles have 4 or 8 rows"),
            }
        }
        for r in 0..R {
            if r < rows {
                let mut lane = acc[r];
                if blk.relu {
                    for v in &mut lane {
                        *v = if *v > 0.0 { *v } else { 0.0 };
                    }
                }
                let dst = &mut out[(i + r) * g.n + j..][..cols];
                match <&mut [f32; W]>::try_from(&mut *dst) {
                    Ok(full) => *full = lane,
                    Err(_) => dst.copy_from_slice(&lane[..cols]),
                }
            }
        }
    }
    W
}

/// `src` widened to a full lane (zero beyond it), as one fixed-size move
/// when `src` already fills it.
#[inline(always)]
fn load_lanes<const W: usize>(src: &[f32]) -> [f32; W] {
    match <&[f32; W]>::try_from(src) {
        Ok(full) => *full,
        Err(_) => {
            let mut lane = [0.0; W];
            lane[..src.len()].copy_from_slice(src);
            lane
        }
    }
}

/// Gathers output indices `x0..x0 + valid` of `op` over depth
/// `p0..p0 + kc` into a depth-major `W`-wide panel: `panel[q·W + x]` is
/// element `(x0 + x, p0 + q)`, lanes `valid..W` are zero. Pure data
/// movement — the arithmetic later reads the same values in the same
/// order, just from contiguous memory.
#[inline(always)]
fn pack<const W: usize>(
    op: Operand<'_>,
    x0: usize,
    valid: usize,
    p0: usize,
    kc: usize,
    panel: &mut [f32],
) {
    if kc == 0 {
        return;
    }
    match op.gather {
        Gather::Strided => {
            for x in 0..valid {
                let line = &op.data[(x0 + x) * op.ld + p0..][..kc];
                for (dst, &v) in panel[x..].iter_mut().step_by(W).zip(line) {
                    *dst = v;
                }
            }
            if valid < W {
                for row in panel.chunks_exact_mut(W) {
                    row[valid..].fill(0.0);
                }
            }
        }
        Gather::Segment => {
            for (q, row) in panel.chunks_exact_mut(W).enumerate() {
                let row: &mut [f32; W] = row.try_into().unwrap();
                *row = load_lanes(&op.data[(p0 + q) * op.ld + x0..][..valid]);
            }
        }
    }
}

/// Row-wise dot products, eight rows' chains in flight:
/// `out[r] += Σ_p a[r·lda + p] · b[r·ldb + p]`, each row one chain in
/// ascending `p` seeded with `out[r]` — the bits of the scalar loop.
/// `ldb = 0` shares one `b` vector between all rows (a single-column
/// product, a cross layer's `x·w`); otherwise `b` is a second matrix (a
/// cross layer's `Σ_j g_j·x0_j`).
///
/// Rows go four to a group: four depth steps of each row are multiplied
/// along the row, the 4×4 block of products is transposed (shuffles, not
/// arithmetic) so that lane `r` holds row `r`'s product, and the four
/// product vectors are added in depth order. A group short of four rows
/// repeats its last row into the spare lanes and does not store them.
pub(crate) fn row_dots(k: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32]) {
    let mut r0 = 0;
    while r0 + 8 <= out.len() {
        dot_groups::<2>(
            k,
            &a[r0 * lda..],
            lda,
            &b[r0 * ldb..],
            ldb,
            &mut out[r0..r0 + 8],
        );
        r0 += 8;
    }
    while r0 < out.len() {
        let rows = 4.min(out.len() - r0);
        dot_groups::<1>(
            k,
            &a[r0 * lda..],
            lda,
            &b[r0 * ldb..],
            ldb,
            &mut out[r0..r0 + rows],
        );
        r0 += rows;
    }
}

#[inline(always)]
fn transpose4(m: [[f32; 4]; 4]) -> [[f32; 4]; 4] {
    [
        [m[0][0], m[1][0], m[2][0], m[3][0]],
        [m[0][1], m[1][1], m[2][1], m[3][1]],
        [m[0][2], m[1][2], m[2][2], m[3][2]],
        [m[0][3], m[1][3], m[2][3], m[3][3]],
    ]
}

/// `G` groups of four rows advancing together; `out.len()` is `4·G`, or
/// less than four when `G = 1`.
#[inline(always)]
fn dot_groups<'a, const G: usize>(
    k: usize,
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    ldb: usize,
    out: &mut [f32],
) {
    let last = out.len() - 1;
    let mut s = [[0.0f32; 4]; G];
    for (r, &seed) in out.iter().enumerate() {
        s[r / 4][r % 4] = seed;
    }
    // Lane `r` of group `g` reads row `4g + r`, or the last row past the end.
    let lines = |m: &'a [f32], ld: usize| -> [[&'a [f32]; 4]; G] {
        std::array::from_fn(|g| std::array::from_fn(|r| &m[(4 * g + r).min(last) * ld..][..k]))
    };
    let (a, b) = (lines(a, lda), lines(b, ldb));
    let blocks = k - k % 4;
    for p in (0..blocks).step_by(4) {
        for g in 0..G {
            let (mut av, mut bv) = ([[0.0f32; 4]; 4], [[0.0f32; 4]; 4]);
            for r in 0..4 {
                av[r] = a[g][r][p..p + 4].try_into().unwrap();
                bv[r] = b[g][r][p..p + 4].try_into().unwrap();
            }
            // Transposed: lane `r` of step `q` belongs to row `r`.
            for (aq, bq) in transpose4(av).into_iter().zip(transpose4(bv)) {
                for r in 0..4 {
                    s[g][r] += aq[r] * bq[r];
                }
            }
        }
    }
    // The depth's last one to three steps, a lane per row as before.
    for p in blocks..k {
        for g in 0..G {
            for r in 0..4 {
                s[g][r] += a[g][r][p] * b[g][r][p];
            }
        }
    }
    for (r, o) in out.iter_mut().enumerate() {
        *o = s[r / 4][r % 4];
    }
}

/// Naive reference kernels: the pre-engine scalar triple loops, kept
/// verbatim as the oracle the blocked kernels are differentially tested
/// (and benchmarked) against. Not used on any hot path.
pub mod reference {
    /// `C = A·B`, ikj loop order with zero-skip — the seed `Matrix::matmul`.
    pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        out.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `C = Aᵀ·B` where `A` is `k×m` — the seed `Matrix::t_matmul`.
    pub fn t_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        out.iter_mut().for_each(|x| *x = 0.0);
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `C = A·Bᵀ` where `B` is `n×k` — the seed `Matrix::matmul_t`.
    pub fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{bits, fill, fill_zeroish};

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let denom = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() / denom <= tol,
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn blocked_matches_reference_all_variants() {
        // Shapes chosen to hit full tiles + both tails (m % MR, n % NR, and
        // n % NR_WIDE), the empty-depth edge, and the KC depth-chunk seam.
        for &(m, k, n) in &[
            (7usize, 13usize, 11usize),
            (8, 16, 8),
            (5, 3, 9),
            (1, 1, 1),
            (9, 32, 17),
            (6, 0, 9),
            (4, KC + 44, 16),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut blocked = vec![0.0f32; m * n];
            let mut naive = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &[], Epilogue::Store, &mut blocked);
            reference::matmul(m, k, n, &a, &b, &mut naive);
            assert_close(&blocked, &naive, 1e-5);

            let at = fill(k * m, 3);
            gemm_tn(m, k, n, &at, &b, Epilogue::Store, &mut blocked);
            reference::t_matmul(m, k, n, &at, &b, &mut naive);
            assert_close(&blocked, &naive, 1e-5);

            let bt = fill(n * k, 4);
            gemm_nt(m, k, n, &a, &bt, Epilogue::Store, &mut blocked);
            reference::matmul_t(m, k, n, &a, &bt, &mut naive);
            assert_close(&blocked, &naive, 1e-5);
        }
    }

    #[test]
    fn accumulate_epilogue_adds() {
        let (m, k, n) = (6, 5, 10);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let mut once = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &[], Epilogue::Store, &mut once);
        let mut twice = once.clone();
        gemm_nn(m, k, n, &a, &b, &[], Epilogue::Accumulate, &mut twice);
        for (i, (&x, &y)) in twice.iter().zip(&once).enumerate() {
            assert!((x - 2.0 * y).abs() < 1e-4, "element {i}: {x} vs 2*{y}");
        }
    }

    #[test]
    fn bias_relu_epilogue_clamps() {
        let (m, k, n) = (5, 4, 9);
        let a = fill(m * k, 9);
        let b = fill(k * n, 10);
        let bias = fill(n, 11);
        let mut plain = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &bias, Epilogue::Bias, &mut plain);
        let mut fused = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &bias, Epilogue::BiasRelu, &mut fused);
        for (&f, &p) in fused.iter().zip(&plain) {
            // Bit-for-bit: the fused path is the plain path + clamp.
            assert_eq!(f.to_bits(), if p > 0.0 { p } else { 0.0 }.to_bits());
        }
        assert!(fused.iter().all(|&x| x >= 0.0));
        assert!(plain.iter().any(|&x| x < 0.0), "test needs negative outputs");
    }

    #[test]
    fn determinism_repeated_calls_identical() {
        let (m, k, n) = (13, 21, 19);
        let a = fill(m * k, 12);
        let b = fill(k * n, 13);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &[], Epilogue::Store, &mut c1);
        gemm_nn(m, k, n, &a, &b, &[], Epilogue::Store, &mut c2);
        assert_eq!(
            c1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            c2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    const EPILOGUES: [Epilogue; 4] = [
        Epilogue::Store,
        Epilogue::Accumulate,
        Epilogue::Bias,
        Epilogue::BiasRelu,
    ];

    /// The oracle every kernel is pinned to: one accumulator per output,
    /// seeded by the epilogue, ascending `p`, each step a fused
    /// multiply-add when `n ≥ 2` (the nest) and a multiply then an add
    /// when `n = 1` (the single-column kernels).
    #[allow(clippy::too_many_arguments)]
    fn scalar_oracle(
        variant: &str,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        epi: Epilogue,
        out: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut s = match epi {
                    Epilogue::Store => 0.0,
                    Epilogue::Accumulate => out[i * n + j],
                    Epilogue::Bias | Epilogue::BiasRelu => bias[j],
                };
                for p in 0..k {
                    let (x, y) = match variant {
                        "nn" => (a[i * k + p], b[p * n + j]),
                        "tn" => (a[p * m + i], b[p * n + j]),
                        _ => (a[i * k + p], b[j * k + p]),
                    };
                    s = if n == 1 { s + x * y } else { x.mul_add(y, s) };
                }
                out[i * n + j] = if epi == Epilogue::BiasRelu && s <= 0.0 {
                    0.0
                } else {
                    s
                };
            }
        }
    }

    /// `variant`'s product on `tier` (the front end the public entry points
    /// share, with the tier chosen by the caller).
    #[allow(clippy::too_many_arguments)]
    fn gemm_on(
        tier: &'static Tier,
        variant: &str,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        epi: Epilogue,
        out: &mut [f32],
    ) {
        let (a, b) = match variant {
            "nn" => (Operand::strided(a, k), Operand::segment(b, n)),
            "tn" => (Operand::segment(a, m), Operand::segment(b, n)),
            _ => (Operand::strided(a, k), Operand::strided(b, k)),
        };
        gemm(tier, m, k, n, a, b, bias, epi, out);
    }

    /// The tiers this host can run; a tier it lacks is named, never passed
    /// over in silence.
    fn detected_tiers() -> Vec<&'static Tier> {
        let (have, lack): (Vec<_>, Vec<_>) = TIERS.iter().partition(|t| (t.detected)());
        for t in lack {
            println!("skipped: {}", t.name);
        }
        have
    }

    /// Every tier the host has must be bit-identical to the portable 4×8
    /// tile, and both to the scalar loop: the per-element summation order is
    /// the same and each step is the same exactly specified IEEE operation
    /// (see `scalar_oracle`), so any divergence is a kernel bug. The widths
    /// walk every rung of every tier's column ladder and its padded
    /// remainder, the heights every partial row tile, the
    /// depths the empty product, the single step and the `KC` seam; `n = 1`
    /// and `k = 1` are the degenerate kernels.
    #[test]
    fn dispatch_matches_portable_body() {
        let portable = TIERS.last().unwrap();
        assert_eq!(portable.name, "portable");
        let mut negative_zeros = 0;
        for tier in detected_tiers() {
            for &n in &[1usize, 7, 8, 15, 16, 17, 31, 32, 33, 48] {
                for &m in &[1usize, 3, 4, 5, 9] {
                    for &k in &[0usize, 1, KC - 1, KC, KC + 1] {
                        let a = fill_zeroish(m * k, 21);
                        let b = fill_zeroish(k * n, 22);
                        let bias = fill_zeroish(n, 23);
                        let before = fill_zeroish(m * n, 24);
                        for variant in ["nn", "tn", "nt"] {
                            for epi in EPILOGUES {
                                let mut got = before.clone();
                                let mut want = before.clone();
                                let mut scalar = before.clone();
                                gemm_on(tier, variant, m, k, n, &a, &b, &bias, epi, &mut got);
                                gemm_on(portable, variant, m, k, n, &a, &b, &bias, epi, &mut want);
                                scalar_oracle(variant, m, k, n, &a, &b, &bias, epi, &mut scalar);
                                let case = format!("{} {variant} {m}x{k}x{n}", tier.name);
                                assert_eq!(bits(&got), bits(&want), "{case} vs portable");
                                assert_eq!(bits(&got), bits(&scalar), "{case} vs scalar");
                                negative_zeros +=
                                    got.iter().filter(|v| v.to_bits() == 1 << 31).count();
                            }
                        }
                    }
                }
            }
        }
        assert!(
            negative_zeros > 0,
            "the inputs must drive some sums to -0.0"
        );
    }

    /// Each depth step of the nest rounds once. With `x = 1 + 2⁻¹²`,
    /// `x·x = 1 + 2⁻¹¹ + 2⁻²⁴` is a tie that a separate multiply rounds
    /// down to `1 + 2⁻¹¹`; so `-(1 + 2⁻¹¹)·1 + x·x` is exactly `2⁻²⁴`
    /// fused and `0` unfused, in every lane, tier and variant.
    #[test]
    fn nest_rounds_once_per_depth_step() {
        let x = 1.0 + 2f32.powi(-12);
        let (a_row, b_col) = ([-(1.0 + 2f32.powi(-11)), x], [1.0, x]);
        let (m, k, n) = (9, 2, 33);
        let want = vec![2f32.powi(-24); m * n];
        for tier in detected_tiers() {
            for variant in ["nn", "tn", "nt"] {
                // `a[i, p]` and `b[p, j]` in each variant's layout.
                let a: Vec<f32> = match variant {
                    "tn" => (0..k * m).map(|e| a_row[e / m]).collect(),
                    _ => (0..m * k).map(|e| a_row[e % k]).collect(),
                };
                let b: Vec<f32> = match variant {
                    "nt" => (0..n * k).map(|e| b_col[e % k]).collect(),
                    _ => (0..k * n).map(|e| b_col[e / n]).collect(),
                };
                let mut got = vec![f32::NAN; m * n];
                let epi = Epilogue::Store;
                gemm_on(tier, variant, m, k, n, &a, &b, &[], epi, &mut got);
                assert_eq!(bits(&got), bits(&want), "{} {variant}", tier.name);
            }
        }
    }

    /// `row_dots` against one scalar chain per row: every row count around
    /// the group sizes, every depth remainder, a shared vector and a second
    /// matrix, seeds and sums that land on `-0.0`.
    #[test]
    fn row_dots_match_scalar_chains() {
        for rows in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 19] {
            for k in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65] {
                for ldb in [0, k + 2] {
                    let lda = k + 3;
                    let a = fill_zeroish(rows * lda, 41);
                    let b = fill_zeroish(rows.max(1) * ldb + k, 42);
                    let seeds = fill_zeroish(rows, 43);
                    let mut got = seeds.clone();
                    row_dots(k, &a, lda, &b, ldb, &mut got);
                    let want: Vec<f32> = (0..rows)
                        .map(|r| {
                            let mut s = seeds[r];
                            for p in 0..k {
                                s += a[r * lda + p] * b[r * ldb + p];
                            }
                            s
                        })
                        .collect();
                    assert_eq!(bits(&got), bits(&want), "rows {rows} k {k} ldb {ldb}");
                }
            }
        }
    }
}
