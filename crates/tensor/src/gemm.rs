//! Cache-blocked, autovectorization-friendly f32 GEMM kernels.
//!
//! One shared microkernel (`tile_fma`) computes an `R × C` tile of the
//! output in registers; the three product variants the layers need — `A·B`,
//! `Aᵀ·B`, `A·Bᵀ` — differ only in how they gather the `R` A-operands and
//! `C` B-operands per depth step. Strided operands are repacked into small
//! fixed-size stack panels (at most `KC` depth steps at a time) so the
//! inner loop reads both operands contiguously with no bounds checks.
//! Epilogues fuse bias addition and ReLU so a dense layer's forward pass is
//! one pass over the output.
//!
//! On x86-64 the public entry points dispatch at runtime to an AVX2 build
//! of the same safe body with a wider register tile (4×16 instead of the
//! baseline 4×8). The `unsafe` here is confined to the three dispatch call
//! sites (each guarded by `is_x86_feature_detected!("avx2")` on the line
//! above) plus the disjoint row-panel splits feeding [`crate::pool`] — the
//! only other `unsafe` in the workspace.
//!
//! When a [`crate::pool::GemmPool`] is installed on the calling thread
//! (`GemmPool::install`), products above `PAR_MKN_THRESHOLD` are split
//! into disjoint output-row panels executed across the pool. Each panel
//! runs the ordinary sequential kernel over its rows, so per-element
//! summation order — and therefore every output bit — is unchanged (see
//! the determinism contract below).
//!
//! # Determinism contract
//!
//! For a given shape every output element is accumulated in one fixed
//! summation order: a single accumulator per element, sequential over the
//! depth index `p`. Everything else — tile shape, panel packing, the order
//! tiles are visited in, the depth chunking (partial sums round-trip
//! through `out` as exact f32 stores/loads), the ISA the body is compiled
//! for — only regroups *independent* elements and never reassociates a
//! single element's sum. Rust does not contract `mul`+`add` into fused
//! multiply-add, so the AVX2 path performs the identical IEEE operation
//! sequence per element and results are bit-for-bit reproducible across
//! runs, machines, and dispatch paths (`dispatch_matches_portable_body`
//! pins this on AVX2 hosts).
//!
//! The naive reference kernels live in [`mod@reference`]; differential tests pin
//! the blocked kernels against them (relative error ≤ 1e-5 — blocked tiling
//! does not change the per-element order here, but the fused-bias epilogue
//! seeds the accumulator with the bias instead of adding it last, which is
//! why exact-equality is only guaranteed against the fused composition, not
//! against `reference` + `add_bias`).

/// Rows of the baseline register tile. 4 output rows share each gathered
/// B operand.
pub const MR: usize = 4;
/// Columns of the baseline register tile: 8 f32 = two SSE vectors.
pub const NR: usize = 8;

/// Rows of the AVX2 register tile.
const MR_WIDE: usize = 4;
/// Columns of the AVX2 register tile: 16 f32 = two YMM vectors per row,
/// giving 8 independent accumulator registers — enough in-flight add
/// chains to cover the vector-add latency.
const NR_WIDE: usize = 16;

/// Depth-chunk length: panels are packed at most `KC` depth steps at a
/// time so the pack buffers are fixed-size stack arrays (≤ 16 KiB each).
const KC: usize = 256;

/// Minimum `m·k·n` for a product to be worth fanning out across an
/// installed [`crate::pool::GemmPool`]: below this the panel hand-off
/// costs more than the arithmetic it distributes (a 64×64×32 product is
/// ~260 µs of work at 1 GFLOP/s; the pool round trip is a few µs).
pub(crate) const PAR_MKN_THRESHOLD: usize = 1 << 16;

/// Splits `out`'s `m` rows across the installed pool and runs `panel` on
/// each `(r0, r1)` chunk with a disjoint `&mut` slice of `out`. Returns
/// false (caller runs sequentially) when no pool is installed or the
/// product is too small to split.
fn try_parallel_rows(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    panel: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> bool {
    let Some(pool) = crate::pool::current() else {
        return false;
    };
    if pool.threads() < 2 || m < 2 * MR || m * k * n < PAR_MKN_THRESHOLD {
        return false;
    }
    let chunks = crate::pool::row_chunks(m, pool.threads(), MR);
    if chunks.len() < 2 {
        return false;
    }
    let outp = crate::pool::SendPtr(out.as_mut_ptr());
    let chunks = &chunks;
    let panel = &panel;
    pool.run(chunks.len(), &move |ci| {
        // Bind the wrapper whole so precise capture takes the `Sync`
        // `SendPtr`, not its raw-pointer field.
        let outp = outp;
        let (r0, r1) = chunks[ci];
        // SAFETY: chunks tile [0, m) disjointly, so each job owns rows
        // [r0, r1) of `out` exclusively; `out` itself is not touched by
        // the caller until `run` returns.
        let o = unsafe { std::slice::from_raw_parts_mut(outp.0.add(r0 * n), (r1 - r0) * n) };
        panel(r0, r1, o);
    });
    true
}
/// Upper bounds for the stack panel buffers (stable Rust cannot size an
/// array by `KC * R` for a const generic `R`).
const MR_MAX: usize = 8;
const NR_MAX: usize = 16;

/// The shared microkernel: one fused multiply-add of an `R`-vector of A
/// operands against a `C`-vector of B operands into the register tile.
/// Every GEMM variant funnels through this update, so the arithmetic (and
/// its vectorization) is identical regardless of operand layout.
#[inline(always)]
fn tile_fma<const R: usize, const C: usize>(
    acc: &mut [[f32; C]; R],
    a: &[f32; R],
    b: &[f32; C],
) {
    for r in 0..R {
        for c in 0..C {
            acc[r][c] += a[r] * b[c];
        }
    }
}

/// Epilogue applied when a tile (or scalar tail) leaves the registers.
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

/// Pack an `R × kc` operand panel into depth-major interleaved layout:
/// `panel[q * R + r] = row_r[q]`, where `row_r` starts at `base + r *
/// stride + p0`. Pure data movement — the arithmetic later reads the same
/// values in the same order, just from contiguous memory.
#[inline(always)]
fn pack_panel<const R: usize>(src: &[f32], base: usize, stride: usize, p0: usize, kc: usize, panel: &mut [f32]) {
    for r in 0..R {
        for (q, &v) in src[base + r * stride + p0..][..kc].iter().enumerate() {
            panel[q * R + r] = v;
        }
    }
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
    debug_assert_eq!(out.len(), m * n);
    if try_parallel_rows(m, k, n, out, |r0, r1, o| {
        gemm_nn_seq(r1 - r0, k, n, &a[r0 * k..r1 * k], b, bias, epi, o)
    }) {
        return;
    }
    gemm_nn_seq(m, k, n, a, b, bias, epi, out);
}

#[allow(clippy::too_many_arguments)]
fn gemm_nn_seq(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `wide::gemm_nn` is a safe function whose only requirement
        // is AVX2 support, checked on the line above.
        unsafe { wide::gemm_nn(m, k, n, a, b, bias, epi, out) };
        return;
    }
    gemm_nn_body::<MR, NR>(m, k, n, a, b, bias, epi, out);
}

/// `C (m×n) = Aᵀ · B` where `A` is `k×m` and `B` is `k×n`. Both operand
/// gathers are contiguous row slices, so this variant needs no packing —
/// it carries the weight-gradient GEMM (`dW += Xᵀ·dY`, usually with
/// [`Epilogue::Accumulate`]).
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
    debug_assert_eq!(out.len(), m * n);
    // Aᵀ's rows of `out` correspond to *columns* of the stored `k×m`
    // operand, so panels keep the full `a` and address it with a row
    // stride of `m` and a column offset `r0`.
    if try_parallel_rows(m, k, n, out, |r0, r1, o| {
        gemm_tn_seq(r1 - r0, k, n, a, m, r0, b, epi, o)
    }) {
        return;
    }
    gemm_tn_seq(m, k, n, a, m, 0, b, epi, out);
}

#[allow(clippy::too_many_arguments)]
fn gemm_tn_seq(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    astride: usize,
    aoff: usize,
    b: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `wide::gemm_tn` is a safe function whose only requirement
        // is AVX2 support, checked on the line above.
        unsafe { wide::gemm_tn(m, k, n, a, astride, aoff, b, epi, out) };
        return;
    }
    gemm_tn_body::<MR, NR>(m, k, n, a, astride, aoff, b, epi, out);
}

/// `C (m×n) = A · Bᵀ` where `A` is `m×k` and `B` is `n×k` — the
/// input-gradient GEMM (`dX = dY·Wᵀ`). Both operands stride by `k`, so
/// both are repacked into contiguous panels before the microkernel runs.
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
    debug_assert_eq!(out.len(), m * n);
    if try_parallel_rows(m, k, n, out, |r0, r1, o| {
        gemm_nt_seq(r1 - r0, k, n, &a[r0 * k..r1 * k], b, epi, o)
    }) {
        return;
    }
    gemm_nt_seq(m, k, n, a, b, epi, out);
}

fn gemm_nt_seq(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], epi: Epilogue, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `wide::gemm_nt` is a safe function whose only requirement
        // is AVX2 support, checked on the line above.
        unsafe { wide::gemm_nt(m, k, n, a, b, epi, out) };
        return;
    }
    gemm_nt_body::<MR, NR>(m, k, n, a, b, epi, out);
}

/// AVX2 builds of the portable bodies (x86-64 only). `#[target_feature]`
/// recompiles the same safe code with 256-bit vectors and a wider tile; the
/// per-element operation sequence is unchanged (see the module docs), so
/// these produce bit-identical results to the portable path.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::*;

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_nn(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        epi: Epilogue,
        out: &mut [f32],
    ) {
        gemm_nn_body::<MR_WIDE, NR_WIDE>(m, k, n, a, b, bias, epi, out);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_tn(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        astride: usize,
        aoff: usize,
        b: &[f32],
        epi: Epilogue,
        out: &mut [f32],
    ) {
        gemm_tn_body::<MR_WIDE, NR_WIDE>(m, k, n, a, astride, aoff, b, epi, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_nt(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        epi: Epilogue,
        out: &mut [f32],
    ) {
        gemm_nt_body::<MR_WIDE, NR_WIDE>(m, k, n, a, b, epi, out);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nn_body<const R: usize, const C: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    let mut apanel = [0.0f32; KC * MR_MAX];
    let mut i = 0;
    while i + R <= m {
        // Depth chunks: the A panel is packed once per chunk and reused
        // across every column tile; partial sums round-trip through `out`
        // (exact f32 stores/loads) between chunks.
        let mut p0 = 0;
        loop {
            let kc = KC.min(k - p0);
            pack_panel::<R>(a, i * k, k, p0, kc, &mut apanel);
            let seed_epi = if p0 == 0 { epi } else { Epilogue::Accumulate };
            let write_epi = if p0 + kc == k { epi } else { Epilogue::Store };
            let mut j = 0;
            while j + C <= n {
                let mut acc = seed_tile::<R, C>(bias, j, i, n, out, seed_epi);
                for (ap, brow) in apanel[..kc * R]
                    .chunks_exact(R)
                    .zip(b[p0 * n..(p0 + kc) * n].chunks_exact(n))
                {
                    let av: &[f32; R] = ap.try_into().unwrap();
                    let bv: &[f32; C] = brow[j..j + C].try_into().unwrap();
                    tile_fma(&mut acc, av, bv);
                }
                write_tile(&acc, i, j, n, out, write_epi);
                j += C;
            }
            p0 += kc;
            if p0 >= k {
                break;
            }
        }
        // Column tail: scalar, same p-order, full depth in one pass.
        for jj in (n - n % C)..n {
            for r in 0..R {
                let mut s = seed_scalar(bias, jj, (i + r) * n + jj, out, epi);
                for p in 0..k {
                    s += a[(i + r) * k + p] * b[p * n + jj];
                }
                out[(i + r) * n + jj] = finish_scalar(s, epi);
            }
        }
        i += R;
    }
    // Row tail: scalar, same p-order.
    for ii in i..m {
        for jj in 0..n {
            let mut s = seed_scalar(bias, jj, ii * n + jj, out, epi);
            for p in 0..k {
                s += a[ii * k + p] * b[p * n + jj];
            }
            out[ii * n + jj] = finish_scalar(s, epi);
        }
    }
}

/// `astride`/`aoff` view `a` as a `k × astride` matrix whose columns
/// `aoff..aoff+m` are the operand — the row-panel split hands each panel
/// the full buffer with a column offset (columns of the stored `Aᵀ` are
/// output rows, so they cannot be sliced contiguously). Whole-matrix
/// callers pass `astride = m, aoff = 0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tn_body<const R: usize, const C: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    astride: usize,
    aoff: usize,
    b: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    let mut i = 0;
    while i + R <= m {
        let mut j = 0;
        while j + C <= n {
            let mut acc = seed_tile::<R, C>(&[], j, i, n, out, epi);
            for (arow, brow) in a.chunks_exact(astride).zip(b.chunks_exact(n)) {
                let av: &[f32; R] = arow[aoff + i..aoff + i + R].try_into().unwrap();
                let bv: &[f32; C] = brow[j..j + C].try_into().unwrap();
                tile_fma(&mut acc, av, bv);
            }
            write_tile(&acc, i, j, n, out, epi);
            j += C;
        }
        for jj in j..n {
            for r in 0..R {
                let mut s = seed_scalar(&[], jj, (i + r) * n + jj, out, epi);
                for p in 0..k {
                    s += a[p * astride + aoff + i + r] * b[p * n + jj];
                }
                out[(i + r) * n + jj] = finish_scalar(s, epi);
            }
        }
        i += R;
    }
    for ii in i..m {
        for jj in 0..n {
            let mut s = seed_scalar(&[], jj, ii * n + jj, out, epi);
            for p in 0..k {
                s += a[p * astride + aoff + ii] * b[p * n + jj];
            }
            out[ii * n + jj] = finish_scalar(s, epi);
        }
    }
}

#[inline(always)]
fn gemm_nt_body<const R: usize, const C: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    epi: Epilogue,
    out: &mut [f32],
) {
    let mut apanel = [0.0f32; KC * MR_MAX];
    let mut bpanel = [0.0f32; KC * NR_MAX];
    // Column panels outermost so the B panel — the expensive strided
    // gather — is packed once per (panel, depth chunk) and reused across
    // every row tile.
    let mut j = 0;
    while j + C <= n {
        let mut p0 = 0;
        loop {
            let kc = KC.min(k - p0);
            pack_panel::<C>(b, j * k, k, p0, kc, &mut bpanel);
            let seed_epi = if p0 == 0 { epi } else { Epilogue::Accumulate };
            let write_epi = if p0 + kc == k { epi } else { Epilogue::Store };
            let mut i = 0;
            while i + R <= m {
                pack_panel::<R>(a, i * k, k, p0, kc, &mut apanel);
                let mut acc = seed_tile::<R, C>(&[], j, i, n, out, seed_epi);
                for (ap, bp) in apanel[..kc * R]
                    .chunks_exact(R)
                    .zip(bpanel[..kc * C].chunks_exact(C))
                {
                    let av: &[f32; R] = ap.try_into().unwrap();
                    let bv: &[f32; C] = bp.try_into().unwrap();
                    tile_fma(&mut acc, av, bv);
                }
                write_tile(&acc, i, j, n, out, write_epi);
                i += R;
            }
            p0 += kc;
            if p0 >= k {
                break;
            }
        }
        // Row tail for this column panel: scalar, same p-order, full depth.
        for ii in (m - m % R)..m {
            for jj in j..j + C {
                let mut s = seed_scalar(&[], jj, ii * n + jj, out, epi);
                for p in 0..k {
                    s += a[ii * k + p] * b[jj * k + p];
                }
                out[ii * n + jj] = finish_scalar(s, epi);
            }
        }
        j += C;
    }
    // Column tail: scalar, same p-order.
    for jj in j..n {
        for ii in 0..m {
            let mut s = seed_scalar(&[], jj, ii * n + jj, out, epi);
            for p in 0..k {
                s += a[ii * k + p] * b[jj * k + p];
            }
            out[ii * n + jj] = finish_scalar(s, epi);
        }
    }
}

#[inline(always)]
fn seed_tile<const R: usize, const C: usize>(
    bias: &[f32],
    j: usize,
    i: usize,
    n: usize,
    out: &[f32],
    epi: Epilogue,
) -> [[f32; C]; R] {
    let mut acc = [[0.0f32; C]; R];
    match epi {
        Epilogue::Store => {}
        Epilogue::Accumulate => {
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + C]);
            }
        }
        Epilogue::Bias | Epilogue::BiasRelu => {
            for row in &mut acc {
                row.copy_from_slice(&bias[j..j + C]);
            }
        }
    }
    acc
}

#[inline(always)]
fn write_tile<const R: usize, const C: usize>(
    acc: &[[f32; C]; R],
    i: usize,
    j: usize,
    n: usize,
    out: &mut [f32],
    epi: Epilogue,
) {
    for (r, row) in acc.iter().enumerate() {
        let dst = &mut out[(i + r) * n + j..(i + r) * n + j + C];
        if epi == Epilogue::BiasRelu {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = if v > 0.0 { v } else { 0.0 };
            }
        } else {
            dst.copy_from_slice(row);
        }
    }
}

#[inline(always)]
fn seed_scalar(bias: &[f32], j: usize, flat: usize, out: &[f32], epi: Epilogue) -> f32 {
    match epi {
        Epilogue::Store => 0.0,
        Epilogue::Accumulate => out[flat],
        Epilogue::Bias | Epilogue::BiasRelu => bias[j],
    }
}

#[inline(always)]
fn finish_scalar(s: f32, epi: Epilogue) -> f32 {
    if epi == Epilogue::BiasRelu && s <= 0.0 {
        0.0
    } else {
        s
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

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 32) as u32 as f32 / u32::MAX as f32) - 0.5
            })
            .collect()
    }

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

    /// The dispatched entry points (AVX2 wide tile on capable hosts) must
    /// be bit-identical to the portable baseline-tile body: the per-element
    /// summation order is the same and Rust never contracts mul+add, so
    /// any divergence is a kernel bug.
    #[test]
    fn dispatch_matches_portable_body() {
        for &(m, k, n) in &[(13usize, 37usize, 19usize), (16, KC + 5, 24), (4, 8, 16)] {
            let a = fill(m * k, 21);
            let b = fill(k * n, 22);
            let bias = fill(n, 23);
            let mut dispatched = vec![0.0f32; m * n];
            let mut portable = vec![0.0f32; m * n];

            gemm_nn(m, k, n, &a, &b, &bias, Epilogue::BiasRelu, &mut dispatched);
            gemm_nn_body::<MR, NR>(m, k, n, &a, &b, &bias, Epilogue::BiasRelu, &mut portable);
            assert_eq!(bits(&dispatched), bits(&portable), "nn {m}x{k}x{n}");

            let at = fill(k * m, 24);
            gemm_tn(m, k, n, &at, &b, Epilogue::Store, &mut dispatched);
            gemm_tn_body::<MR, NR>(m, k, n, &at, m, 0, &b, Epilogue::Store, &mut portable);
            assert_eq!(bits(&dispatched), bits(&portable), "tn {m}x{k}x{n}");

            let bt = fill(n * k, 25);
            gemm_nt(m, k, n, &a, &bt, Epilogue::Store, &mut dispatched);
            gemm_nt_body::<MR, NR>(m, k, n, &a, &bt, Epilogue::Store, &mut portable);
            assert_eq!(bits(&dispatched), bits(&portable), "nt {m}x{k}x{n}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row-panel fan-out must be bit-identical to the sequential path for
    /// every variant, epilogue, and thread count — the foundation of the
    /// trainer's `gemm_threads` determinism guarantee. Shapes are sized
    /// past `PAR_MKN_THRESHOLD` so the split actually engages.
    #[test]
    fn pool_matches_sequential_bitwise() {
        use crate::pool::GemmPool;
        // 96·96·32 = 294912 ≥ threshold; 96 rows exercise uneven chunking
        // at 3 threads, and (41, 80, 23)-ish shapes hit every tail.
        for &(m, k, n) in &[(96usize, 96usize, 32usize), (77, 64, 48), (40, 120, 31)] {
            if m * k * n < PAR_MKN_THRESHOLD {
                continue;
            }
            let a = fill(m * k, 31);
            let b = fill(k * n, 32);
            let at = fill(k * m, 33);
            let bt = fill(n * k, 34);
            let bias = fill(n, 35);
            let seed_out = fill(m * n, 36);

            let run_all = |out: &mut Vec<Vec<f32>>| {
                let mut c = vec![0.0f32; m * n];
                gemm_nn(m, k, n, &a, &b, &bias, Epilogue::BiasRelu, &mut c);
                out.push(c.clone());
                c.copy_from_slice(&seed_out);
                gemm_tn(m, k, n, &at, &b, Epilogue::Accumulate, &mut c);
                out.push(c.clone());
                gemm_nt(m, k, n, &a, &bt, Epilogue::Store, &mut c);
                out.push(c);
            };

            let mut sequential = Vec::new();
            run_all(&mut sequential);
            for threads in [2usize, 3, 4] {
                let pool = GemmPool::new(threads);
                let mut pooled = Vec::new();
                pool.install(|| run_all(&mut pooled));
                for (s, p) in sequential.iter().zip(&pooled) {
                    assert_eq!(bits(s), bits(p), "{m}x{k}x{n} @ {threads} threads");
                }
            }
        }
    }
}
