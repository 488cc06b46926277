//! Explicit `std::arch` x86-64 micro-kernels behind [`SimdTier`] dispatch.
//!
//! Every kernel here is a *lane-for-lane transcription* of its scalar
//! counterpart in [`gemm`](crate::gemm): the accumulator grid, the
//! ascending-`k` sweep, and the single-chain-per-output-element reduction
//! are identical — vectorization happens **across output columns**, so
//! each SIMD lane carries exactly one scalar chain. Because IEEE-754
//! addition and multiplication are deterministic per lane, the vector
//! kernels are bit-identical to the scalar tiles (and hence to the naive
//! references) for every input, including NaN and infinity patterns.
//!
//! Two rules keep that equivalence intact:
//!
//! * **No fused multiply-add.** `fmadd` rounds once where `mul`+`add`
//!   rounds twice, which changes low bits, so the f64 tiles use the
//!   unfused `_mm256_mul_pd` + `_mm256_add_pd` pair — rustc never
//!   contracts intrinsic float math on its own.
//! * **No horizontal reduction of f64 lanes.** Lanes are written back to
//!   distinct output elements; nothing is ever summed across lanes.
//!
//! One further subtlety: when *both* addends are NaN, x86 returns the
//! **first** source operand's payload. The kernels here accumulate as
//! `add(mul(a, b), acc)` — product first — matching how debug builds
//! compile the scalar `acc += av * bv` chains. That choice cannot be made
//! airtight, though: LLVM picks `addsd` operands by register allocation,
//! which shifts across opt levels, so NaN *payload* bits may differ
//! between kernels in release builds. NaN *placement* is still exact —
//! whether a chain goes NaN depends only on the (fixed) multiset of
//! products, never on summation order — so the conformance contract is
//! bitwise equality for every non-NaN value (including ±0 and ±∞ signs)
//! plus NaN-class agreement, and that is what the battery asserts.
//!
//! The int8 dot-product kernels are different: integer addition is
//! associative, so any summation order — including `pmaddwd` pairwise
//! adds and a final horizontal fold — produces the *exact* same i32. The
//! quantized kernels are therefore trivially bit-deterministic across
//! tiers.
//!
//! [`SimdTier`]: crate::gemm::SimdTier

// std::arch intrinsics are the one sanctioned unsafe island in this crate
// (lib.rs otherwise denies unsafe_code). Every unsafe block carries the
// slice-shape preconditions its caller upholds.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use crate::gemm::{NR, NR_T};

/// `MRC × NR` AVX2 tile of `A·B` at column `j` — the vector twin of
/// `gemm::mm_tile`: two 4-lane accumulators per row, ascending `k`.
/// # Safety: caller must have verified `avx2` via tier detection, and
/// `apack_block` is `MRC * k` long, `b` is `k * n`, `j + NR <= n`, and
/// `out_block` holds `MRC` rows of `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn mm_tile_avx2<const MRC: usize>(
    apack_block: &[f64],
    b: &[f64],
    out_block: &mut [f64],
    j: usize,
    n: usize,
) {
    // SAFETY: every pointer walk below stays inside the slice shapes of
    // the contract above; AVX2 availability is the caller's contract.
    unsafe {
        let k = apack_block.len() / MRC;
        let mut acc = [[_mm256_setzero_pd(); NR / 4]; MRC];
        let mut ap = apack_block.as_ptr();
        let mut bp = b.as_ptr().add(j);
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            for r in 0..MRC {
                let av = _mm256_set1_pd(*ap.add(r));
                // Deliberately unfused: mul then add, like the scalar tile.
                acc[r][0] = _mm256_add_pd(_mm256_mul_pd(av, b0), acc[r][0]);
                acc[r][1] = _mm256_add_pd(_mm256_mul_pd(av, b1), acc[r][1]);
            }
            ap = ap.add(MRC);
            bp = bp.add(n);
        }
        let op = out_block.as_mut_ptr();
        for r in 0..MRC {
            _mm256_storeu_pd(op.add(r * n + j), acc[r][0]);
            _mm256_storeu_pd(op.add(r * n + j + 4), acc[r][1]);
        }
    }
}

/// `MRC × NR_T` AVX2 tile of `A·Bᵀ` against packed panels — the vector
/// twin of `gemm::mt_tile`. Only the first `width` lanes are stored.
/// # Safety: caller must have verified `avx2` via tier detection, and
/// `apack_block` is `MRC * k` long, `packed` is `k * NR_T`,
/// `width <= NR_T`, `j + width <= p`, and `out_block` holds `MRC` rows of
/// `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn mt_tile_avx2<const MRC: usize>(
    apack_block: &[f64],
    packed: &[f64],
    out_block: &mut [f64],
    j: usize,
    p: usize,
    width: usize,
) {
    // SAFETY: every pointer walk below stays inside the slice shapes of
    // the contract above; AVX2 availability is the caller's contract.
    unsafe {
        let k = apack_block.len() / MRC;
        let mut acc = [[_mm256_setzero_pd(); NR_T / 4]; MRC];
        let mut ap = apack_block.as_ptr();
        let mut pp = packed.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(pp);
            let b1 = _mm256_loadu_pd(pp.add(4));
            for r in 0..MRC {
                let av = _mm256_set1_pd(*ap.add(r));
                // Deliberately unfused: mul then add, like the scalar tile.
                acc[r][0] = _mm256_add_pd(_mm256_mul_pd(av, b0), acc[r][0]);
                acc[r][1] = _mm256_add_pd(_mm256_mul_pd(av, b1), acc[r][1]);
            }
            ap = ap.add(MRC);
            pp = pp.add(NR_T);
        }
        for r in 0..MRC {
            let mut lanes = [0.0f64; NR_T];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc[r][0]);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc[r][1]);
            out_block[r * p + j..r * p + j + width].copy_from_slice(&lanes[..width]);
        }
    }
}

/// Scalar int8 dot product: widen to i32, accumulate. Exact (no rounding),
/// and the compiler is free to auto-vectorize — integer sums are
/// order-independent.
pub(crate) fn dot_i8_scalar(x: &[i8], w: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), w.len());
    let mut acc = 0i32;
    for (&a, &b) in x.iter().zip(w) {
        acc += i32::from(a) * i32::from(b);
    }
    acc
}

/// AVX2 int8 dot product: sign-extend 16 bytes per operand to i16 lanes,
/// `pmaddwd` into pairwise i32 sums, fold at the end. Bounds: each
/// `pmaddwd` lane is at most `2 · 127²  = 32258`, so i32 accumulation is
/// exact (no wraparound) for any `k` below ~66 million — far beyond any
/// layer width here. Caller must have verified `avx2`.
/// # Safety: caller must have verified `avx2` via tier detection; all loads
/// are bounds-guarded against `len` inside the body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_i8_avx2(x: &[i8], w: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), w.len());
    let len = x.len().min(w.len());
    // SAFETY: reads stay within `len`; 16-byte loads are guarded by
    // `i + 16 <= len`; AVX2 availability is the wrapper's contract.
    unsafe {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= len {
            let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(x.as_ptr().add(i).cast()));
            let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, wv));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256::<1>(acc);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_srli_si128::<8>(s));
        let s = _mm_add_epi32(s, _mm_srli_si128::<4>(s));
        let mut total = _mm_cvtsi128_si32(s);
        while i < len {
            total += i32::from(*x.get_unchecked(i)) * i32::from(*w.get_unchecked(i));
            i += 1;
        }
        total
    }
}

/// Scalar twin of the fused dequantize→ReLU→requantize bridge, one
/// element at a time: `relu(acc · dequant + bias) · inv_next`, rounded
/// ties-to-even, clamped to the int8 range. The ReLU is the explicit
/// `z > 0.0` form (not `f64::max`) so its `-0.0`/NaN behavior is pinned
/// to exactly what `maxpd(z, 0)` computes — `requant_relu_avx2` must be
/// bit-identical to this function for every input, and the `f64::max`
/// zero-sign choice is implementation-defined. After the ReLU the value
/// is never NaN and never below `-0.0`, so a single `min(127)` suffices
/// (`f64::min` returns the non-NaN operand, matching `minpd`'s
/// return-src2-on-NaN for the `q` position).
pub(crate) fn requant_relu_one(acc: i32, bias: f64, dequant: f64, inv_next: f64) -> i8 {
    let z = f64::from(acc) * dequant + bias;
    let a = if z > 0.0 { z } else { 0.0 };
    let q = (a * inv_next).round_ties_even();
    q.min(127.0) as i8
}

/// AVX2 fused dequantize→ReLU→requantize: four units per pass —
/// `cvtepi32_pd → mul·dequant → add bias → maxpd(·, 0) → mul·inv_next →
/// roundpd(nearest) → minpd(·, 127) → cvtpd_epi32 → packs`. Every step is
/// the exact IEEE twin of [`requant_relu_one`] (see its NaN/±0 notes), so
/// the scalar and vector bridges agree bit for bit and quantized forward
/// stays tier-invariant. The saturating `packs` steps are no-ops — values
/// are already in `[0, 127]` — they only narrow. Caller must have
/// verified `avx2`.
/// # Safety: caller must have verified `avx2` via tier detection; loads are
/// guarded by the `accs`/`bias` length checks in the body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn requant_relu_avx2(
    accs: &[i32],
    bias: &[f64],
    dequant: f64,
    inv_next: f64,
    out: &mut Vec<i8>,
) {
    let units = bias.len();
    if units == 0 {
        return;
    }
    debug_assert_eq!(accs.len() % units, 0);
    // SAFETY: the 4-lane loads are guarded by `u + 4 <= units` against
    // rows of length `units` (accs row length debug-asserted above);
    // AVX2 availability is the wrapper's contract.
    unsafe {
        let dq = _mm256_set1_pd(dequant);
        let inv = _mm256_set1_pd(inv_next);
        let zero = _mm256_setzero_pd();
        let k127 = _mm256_set1_pd(127.0);
        for acc_row in accs.chunks_exact(units) {
            let mut u = 0;
            while u + 4 <= units {
                let ai = _mm_loadu_si128(acc_row.as_ptr().add(u).cast());
                let z = _mm256_add_pd(
                    _mm256_mul_pd(_mm256_cvtepi32_pd(ai), dq),
                    _mm256_loadu_pd(bias.as_ptr().add(u)),
                );
                let a = _mm256_max_pd(z, zero);
                let q = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                    _mm256_mul_pd(a, inv),
                );
                let c = _mm256_min_pd(q, k127);
                let qi = _mm256_cvtpd_epi32(c);
                let packed = _mm_packs_epi16(_mm_packs_epi32(qi, qi), _mm_setzero_si128());
                let word = _mm_cvtsi128_si32(packed).to_le_bytes();
                out.extend_from_slice(&word.map(|b| b as i8));
                u += 4;
            }
            while u < units {
                out.push(requant_relu_one(acc_row[u], bias[u], dequant, inv_next));
                u += 1;
            }
        }
    }
}

/// Scalar quantized GEMM: `x` is `batch × k` row-major int8 activations,
/// `w` is `units × k` row-major int8-range weights pre-widened to i16
/// (the transposed layout `Dense` stores), `out` is `batch × units` of
/// exact i32 accumulations. Integer sums are order-independent, so this
/// agrees bit-for-bit with every tiling.
pub(crate) fn gemm_q8_scalar(x: &[i8], w: &[i16], out: &mut [i32], k: usize, units: usize) {
    if units == 0 {
        return;
    }
    debug_assert_eq!(out.len() % units, 0);
    for (xr, out_row) in x.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(units)) {
        for (u, o) in out_row.iter_mut().enumerate() {
            let w_row = &w[u * k..(u + 1) * k];
            let mut acc = 0i32;
            for (&a, &b) in xr[..k].iter().zip(w_row) {
                acc += i32::from(a) * i32::from(b);
            }
            *o = acc;
        }
    }
    if k == 0 {
        out.fill(0);
    }
}

/// AVX2 quantized GEMM, register-tiled over **four output units at
/// once**: one sign-extended load of the activation chunk feeds four
/// `pmaddwd` accumulators against direct i16 weight loads (the weights
/// were widened once at quantize time), and the four horizontal
/// reductions collapse into a single `hadd` tree per tile instead of one
/// full fold per dot product. That amortization — not wider lanes — is
/// where the int8 path earns its speedup over the f64 kernels; a naive
/// dot-per-output structure loses its lane advantage to per-output fold
/// overhead at these layer widths.
///
/// Same layout contract as [`gemm_q8_scalar`]; exact i32 accumulation
/// (`pmaddwd` lane bound: `2 · 127² = 32258`, no wraparound below
/// `k ≈ 66·10⁶`), so the result is bit-identical to the scalar kernel.
/// Caller must have verified `avx2`.
/// # Safety: caller must have verified `avx2` via tier detection and upheld
/// the `gemm_q8_scalar` layout contract (`x: k`, `w: units*k`, `out: units`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemm_q8_avx2(x: &[i8], w: &[i16], out: &mut [i32], k: usize, units: usize) {
    if units == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    debug_assert_eq!(x.len() % k, 0);
    debug_assert_eq!(w.len(), units * k);
    // SAFETY: every 16-lane load is guarded by `i + 16 <= k` within a row
    // of length `k`; row offsets stay inside the slices by the layout
    // contract (debug-asserted above); AVX2 is the wrapper's contract.
    unsafe {
        for (xr, out_row) in x.chunks_exact(k).zip(out.chunks_exact_mut(units)) {
            let xp = xr.as_ptr();
            let mut u = 0;
            while u + 4 <= units {
                let w0 = w.as_ptr().add(u * k);
                let w1 = w.as_ptr().add((u + 1) * k);
                let w2 = w.as_ptr().add((u + 2) * k);
                let w3 = w.as_ptr().add((u + 3) * k);
                let mut a0 = _mm256_setzero_si256();
                let mut a1 = _mm256_setzero_si256();
                let mut a2 = _mm256_setzero_si256();
                let mut a3 = _mm256_setzero_si256();
                let mut i = 0;
                while i + 16 <= k {
                    let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(i).cast()));
                    a0 = _mm256_add_epi32(
                        a0,
                        _mm256_madd_epi16(xv, _mm256_loadu_si256(w0.add(i).cast())),
                    );
                    a1 = _mm256_add_epi32(
                        a1,
                        _mm256_madd_epi16(xv, _mm256_loadu_si256(w1.add(i).cast())),
                    );
                    a2 = _mm256_add_epi32(
                        a2,
                        _mm256_madd_epi16(xv, _mm256_loadu_si256(w2.add(i).cast())),
                    );
                    a3 = _mm256_add_epi32(
                        a3,
                        _mm256_madd_epi16(xv, _mm256_loadu_si256(w3.add(i).cast())),
                    );
                    i += 16;
                }
                // hadd tree: fold the four 8-lane accumulators into one
                // xmm holding [Σa0, Σa1, Σa2, Σa3].
                let s01 = _mm256_hadd_epi32(a0, a1);
                let s23 = _mm256_hadd_epi32(a2, a3);
                let s = _mm256_hadd_epi32(s01, s23);
                let four =
                    _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
                let mut sums = [0i32; 4];
                _mm_storeu_si128(sums.as_mut_ptr().cast(), four);
                while i < k {
                    let xi = i32::from(*xr.get_unchecked(i));
                    sums[0] += xi * i32::from(*w.get_unchecked(u * k + i));
                    sums[1] += xi * i32::from(*w.get_unchecked((u + 1) * k + i));
                    sums[2] += xi * i32::from(*w.get_unchecked((u + 2) * k + i));
                    sums[3] += xi * i32::from(*w.get_unchecked((u + 3) * k + i));
                    i += 1;
                }
                out_row[u..u + 4].copy_from_slice(&sums);
                u += 4;
            }
            while u < units {
                let w_row = &w[u * k..(u + 1) * k];
                let mut acc = _mm256_setzero_si256();
                let mut i = 0;
                while i + 16 <= k {
                    let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(i).cast()));
                    let wv = _mm256_loadu_si256(w_row.as_ptr().add(i).cast());
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, wv));
                    i += 16;
                }
                let lo = _mm256_castsi256_si128(acc);
                let hi = _mm256_extracti128_si256::<1>(acc);
                let s = _mm_add_epi32(lo, hi);
                let s = _mm_add_epi32(s, _mm_srli_si128::<8>(s));
                let s = _mm_add_epi32(s, _mm_srli_si128::<4>(s));
                let mut total = _mm_cvtsi128_si32(s);
                while i < k {
                    total +=
                        i32::from(*xr.get_unchecked(i)) * i32::from(*w_row.get_unchecked(i));
                    i += 1;
                }
                out_row[u] = total;
                u += 1;
            }
        }
    }
}
