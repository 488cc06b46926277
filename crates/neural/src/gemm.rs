//! Register-tiled, SIMD-dispatched GEMM kernels.
//!
//! Every Jarvis training step — the DQN `Replay(BSize)` of Algorithm 2 and
//! the ANN anomaly filter of Algorithm 1 — bottoms out in the two products
//! this module computes:
//!
//! * `C = A · B` ([`matmul`]) — the backward pass (`δᵀ·X`, `δ·W`), and
//! * `C = A · Bᵀ` ([`matmul_transpose`]) — the forward pass (`X·Wᵀ`).
//!
//! # Kernel layout
//!
//! Both kernels compute each output element as a **single accumulator
//! updated in ascending-`k` order**, exactly like the retained naive
//! references ([`matmul_naive`], [`matmul_transpose_naive`]). Speed comes
//! from *register tiling*, not from reassociating the reduction:
//!
//! * `matmul` processes an `MR × NR` (3 × 8) tile of `C` per micro-kernel
//!   invocation. The `NR`-wide strips of `B` are contiguous, so the inner
//!   loop vectorizes, and the 24 accumulators live in registers for the
//!   whole `k` sweep — eliminating the per-`k` load/store traffic on the
//!   output row that bounds the naive i-k-j loop.
//! * `matmul_transpose` packs each `NR_T`-row panel of `B` into an
//!   interleaved `k × NR_T` buffer, turning the naive kernel's single
//!   latency-bound dot-product chain per output (with strided `B` access)
//!   into the same broadcast-times-contiguous-strip shape as `matmul` —
//!   `MR × NR_T` independent chains that vectorize. Packing only moves
//!   values; no chain's order changes.
//!
//! # SIMD tiers
//!
//! The tile micro-kernels exist at two [`SimdTier`]s — `Scalar` (plain
//! Rust, every architecture) and `Avx2` (4-lane `__m256d`; see
//! [`simd`](crate::simd) for why it stays unfused). [`matmul`] and
//! [`matmul_transpose`] use [`SimdTier::detect`]; the `_with_tier` entry
//! points pin one explicitly. Lanes map one-to-one onto output columns —
//! each lane is a single scalar chain — so **both tiers are bit-identical**
//! to the naive references for every input, including NaN and infinity
//! patterns. The conformance battery in `crates/neural/tests/properties.rs`
//! sweeps every available tier to enforce this.
//!
//! No layer here is wider than 64 and no batch larger than 128, so the
//! kernels run on the calling thread: row-block threading, SSE2 and an
//! FMA-enabled AVX2 build never beat these two tiers at those shapes.
//!
//! # Packing scratch
//!
//! Both kernels pack `A` (and `matmul_transpose` each `B` panel) into
//! per-thread buffers that live for the thread and only grow, so a call at
//! a shape the thread has already seen allocates nothing.

use std::cell::RefCell;

/// Instruction-set tier of the GEMM micro-kernels. Both tiers are
/// bit-identical (module docs); the tier only trades wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SimdTier {
    /// Portable scalar tiles — the fallback on every architecture.
    Scalar,
    /// Explicit 4-lane `__m256d` tiles; requires runtime `avx2`.
    Avx2,
}

impl SimdTier {
    /// Every tier usable on this host, in ascending preference order.
    /// Always starts with [`SimdTier::Scalar`].
    #[must_use]
    pub fn available() -> &'static [SimdTier] {
        match SimdTier::detect() {
            SimdTier::Avx2 => &[SimdTier::Scalar, SimdTier::Avx2],
            _ => &[SimdTier::Scalar],
        }
    }

    /// Whether this tier's kernels can run on this host.
    #[must_use]
    pub fn is_available(self) -> bool {
        self <= SimdTier::detect()
    }

    /// The tier [`matmul`] and [`matmul_transpose`] dispatch to: `Avx2`
    /// when the CPU has it, else `Scalar`. Miri cannot run the intrinsics,
    /// so under `cfg(miri)` it is always `Scalar`.
    #[must_use]
    pub fn detect() -> SimdTier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        SimdTier::Scalar
    }

    /// Short lowercase name, as recorded in `BENCH_neural.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Clamp to something runnable: an unavailable tier (`Avx2` on a
    /// pre-AVX2 host) degrades to `Scalar` instead of invoking kernels the
    /// CPU cannot execute. This is what keeps the `_with_tier` entry
    /// points sound as safe functions.
    fn sanitize(self) -> SimdTier {
        if self.is_available() {
            self
        } else {
            SimdTier::Scalar
        }
    }
}

/// Rows of `C` per `matmul` register tile.
const MR: usize = 3;
/// Columns of `C` per `matmul` register tile (one cache line of f64).
pub(crate) const NR: usize = 8;
/// `B`-rows per packed `matmul_transpose` panel (the tile's lane width).
pub(crate) const NR_T: usize = 8;

/// Reference `C = A·B`: plain i-k-j loops, ascending `k`, one accumulation
/// into each output element per step. This is the semantic definition the
/// blocked kernel must match bit-for-bit. Note there is deliberately **no**
/// zero-skip on `a`: `0 × ∞` and `0 × NaN` must produce NaN, not silence.
pub fn matmul_naive(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    for (a_row, out_row) in a.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(n.max(1))) {
        for (kk, b_row) in b.chunks_exact(n.max(1)).enumerate().take(k) {
            let av = a_row[kk];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Reference `C = A·Bᵀ`: one serial dot product per output element.
pub fn matmul_transpose_naive(a: &[f64], b: &[f64], out: &mut [f64], k: usize, p: usize) {
    for (a_row, out_row) in a.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(p.max(1))) {
        for (b_row, o) in b.chunks_exact(k.max(1)).zip(out_row.iter_mut()).take(p) {
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// Blocked `C = A·B` over `m × k` and `k × n` operands at the detected
/// [`SimdTier`].
pub fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    matmul_with_tier(a, b, out, m, k, n, SimdTier::detect());
}

/// [`matmul`] pinned to one [`SimdTier`] (unavailable tiers degrade to
/// `Scalar`). Bit-identical to the other tier; used by the conformance
/// battery and the per-tier bench sweep.
pub fn matmul_with_tier(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    tier: SimdTier,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert_eq!(out.len(), m * n, "matmul output shape");
    let tier = tier.sanitize();
    with_scratch(m * k, 0, |apack, _| {
        pack_a(a, k, m, apack);
        let mut i = 0;
        while i < m {
            let mr = (m - i).min(MR);
            let a_block = &a[i * k..(i + mr) * k];
            let apack_block = &apack[i * k..(i + mr) * k];
            let out_block = &mut out[i * n..(i + mr) * n];
            let mut j = 0;
            while j + NR <= n {
                match mr {
                    1 => mm_tile_tier::<1>(tier, apack_block, b, out_block, j, n),
                    2 => mm_tile_tier::<2>(tier, apack_block, b, out_block, j, n),
                    _ => mm_tile_tier::<3>(tier, apack_block, b, out_block, j, n),
                }
                j += NR;
            }
            if j < n {
                mm_edge(a_block, b, out_block, j, k, n, mr);
            }
            i += mr;
        }
    });
}

/// Blocked `C = A·Bᵀ` over `m × k` and `p × k` operands at the detected
/// [`SimdTier`].
pub fn matmul_transpose(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, p: usize) {
    matmul_transpose_with_tier(a, b, out, m, k, p, SimdTier::detect());
}

/// [`matmul_transpose`] pinned to one [`SimdTier`] (unavailable tiers
/// degrade to `Scalar`).
///
/// Each `NR_T`-row panel of `B` is first packed into an interleaved `k ×
/// NR_T` buffer (`panel[kk * NR_T + lane] = b[(j0 + lane) * k + kk]`), which
/// turns the naive kernel's strided column gathers into contiguous vector
/// loads — the inner loop then has exactly the shape of [`mm_tile`] and
/// vectorizes the same way. Packing only *moves* values, so every output
/// element still accumulates `a[kk] · b[kk]` in ascending `k` through a
/// single chain, and the result stays bit-identical to the naive reference.
pub fn matmul_transpose_with_tier(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    p: usize,
    tier: SimdTier,
) {
    if m == 0 || p == 0 {
        return;
    }
    debug_assert_eq!(out.len(), m * p, "matmul_transpose output shape");
    let tier = tier.sanitize();
    with_scratch(m * k, k * NR_T, |apack, panel| {
        pack_a(a, k, m, apack);
        let mut j = 0;
        while j < p {
            let width = (p - j).min(NR_T);
            for (lane, b_row) in b[j * k..].chunks_exact(k.max(1)).take(width).enumerate() {
                for (kk, &bv) in b_row.iter().enumerate() {
                    panel[kk * NR_T + lane] = bv;
                }
            }
            // Lanes past `width` keep stale values; they are never stored.
            let mut i = 0;
            while i < m {
                let mr = (m - i).min(MR);
                let apack_block = &apack[i * k..(i + mr) * k];
                let out_block = &mut out[i * p..(i + mr) * p];
                match mr {
                    1 => mt_tile_tier::<1>(tier, apack_block, panel, out_block, j, p, width),
                    2 => mt_tile_tier::<2>(tier, apack_block, panel, out_block, j, p, width),
                    _ => mt_tile_tier::<3>(tier, apack_block, panel, out_block, j, p, width),
                }
                i += mr;
            }
            j += width;
        }
    });
}

thread_local! {
    /// This thread's packing buffers: packed `A`, and one packed `B` panel.
    static SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `f` on this thread's packing buffers, cut to `a_len` and
/// `panel_len` elements. The buffers only grow, so once a thread has run a
/// shape, later calls at that shape allocate nothing.
fn with_scratch(a_len: usize, panel_len: usize, f: impl FnOnce(&mut [f64], &mut [f64])) {
    SCRATCH.with(|cell| {
        let (apack, panel) = &mut *cell.borrow_mut();
        if apack.len() < a_len {
            apack.resize(a_len, 0.0);
        }
        if panel.len() < panel_len {
            panel.resize(panel_len, 0.0);
        }
        f(&mut apack[..a_len], &mut panel[..panel_len]);
    });
}

/// Pack the `rows × k` operand `A` block-by-block into column-major order:
/// block `i0..i0+mr` lands at `apack[i0 * k..]` with layout `[kk * mr + r]`,
/// so a micro-kernel reads one contiguous `mr`-wide segment per `k` step
/// instead of `mr` strided loads. Packing only moves values; it cannot
/// perturb the accumulation.
fn pack_a(a: &[f64], k: usize, rows: usize, apack: &mut [f64]) {
    let mut i = 0;
    while i < rows {
        let mr = (rows - i).min(MR);
        let dst = &mut apack[i * k..(i + mr) * k];
        for (r, a_row) in a[i * k..].chunks_exact(k.max(1)).take(mr).enumerate() {
            for (kk, &av) in a_row.iter().enumerate() {
                dst[kk * mr + r] = av;
            }
        }
        i += mr;
    }
}

/// Dispatch one `MRC × NR` `A·B` tile to the tier's micro-kernel. Both
/// variants implement the identical ascending-`k` lane-per-column chain.
#[inline]
fn mm_tile_tier<const MRC: usize>(
    tier: SimdTier,
    apack_block: &[f64],
    b: &[f64],
    out_block: &mut [f64],
    j: usize,
    n: usize,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `sanitize()` upstream guarantees `avx2` was detected
        // before this tier can be dispatched.
        #[allow(unsafe_code)]
        SimdTier::Avx2 => unsafe { crate::simd::mm_tile_avx2::<MRC>(apack_block, b, out_block, j, n) },
        _ => mm_tile::<MRC>(apack_block, b, out_block, j, n),
    }
}

/// Dispatch one `MRC × NR_T` `A·Bᵀ` tile to the tier's micro-kernel.
#[inline]
fn mt_tile_tier<const MRC: usize>(
    tier: SimdTier,
    apack_block: &[f64],
    panel: &[f64],
    out_block: &mut [f64],
    j: usize,
    p: usize,
    width: usize,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        SimdTier::Avx2 => {
            // SAFETY: dispatch is reachable only after runtime detection.
            unsafe { crate::simd::mt_tile_avx2::<MRC>(apack_block, panel, out_block, j, p, width) }
        }
        _ => mt_tile::<MRC>(apack_block, panel, out_block, j, p, width),
    }
}

/// `MRC × NR` scalar register tile of `A·B` at column `j`: `MRC · NR`
/// accumulators swept over the full `k` extent in ascending order, written
/// back once. Both operands stream through `chunks_exact`, so the loop
/// body carries no index arithmetic or bounds checks.
#[inline]
fn mm_tile<const MRC: usize>(
    apack_block: &[f64],
    b: &[f64],
    out_block: &mut [f64],
    j: usize,
    n: usize,
) {
    let mut acc = [[0.0f64; NR]; MRC];
    for (aseg, b_row) in apack_block.chunks_exact(MRC).zip(b.chunks_exact(n)) {
        let aseg: &[f64; MRC] = aseg.try_into().expect("MRC-wide A segment");
        let bseg: &[f64; NR] = b_row[j..j + NR].try_into().expect("NR-wide strip");
        for (acc_row, &av) in acc.iter_mut().zip(aseg) {
            for (o, &bv) in acc_row.iter_mut().zip(bseg) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out_block[r * n + j..r * n + j + NR].copy_from_slice(acc_row);
    }
}

/// Column remainder (`n % NR` trailing columns) of an `mr`-row block,
/// ascending `k` per element like everything else. Always scalar: the
/// chains are identical at every tier, so the remainder needs no variants.
fn mm_edge(
    a_block: &[f64],
    b: &[f64],
    out_block: &mut [f64],
    j0: usize,
    k: usize,
    n: usize,
    mr: usize,
) {
    for r in 0..mr {
        let a_row = &a_block[r * k..(r + 1) * k];
        for j in j0..n {
            let mut acc = 0.0;
            for (kk, &av) in a_row.iter().enumerate() {
                acc += av * b[kk * n + j];
            }
            out_block[r * n + j] = acc;
        }
    }
}

/// `MRC × NR_T` scalar register tile of `A·Bᵀ` against packed `A` and `B`
/// panels: `MRC · NR_T` accumulators swept over the full `k` extent in
/// ascending order, with only the first `width` lanes written back. Like
/// [`mm_tile`], the loop body is two lockstep `chunks_exact` streams.
#[inline]
fn mt_tile<const MRC: usize>(
    apack_block: &[f64],
    packed: &[f64],
    out_block: &mut [f64],
    j: usize,
    p: usize,
    width: usize,
) {
    let mut acc = [[0.0f64; NR_T]; MRC];
    for (aseg, bseg) in apack_block.chunks_exact(MRC).zip(packed.chunks_exact(NR_T)) {
        let aseg: &[f64; MRC] = aseg.try_into().expect("MRC-wide A segment");
        let bseg: &[f64; NR_T] = bseg.try_into().expect("NR_T-wide panel row");
        for (acc_row, &av) in acc.iter_mut().zip(aseg) {
            for (o, &bv) in acc_row.iter_mut().zip(bseg) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out_block[r * p + j..r * p + j + width].copy_from_slice(&acc_row[..width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        // Small deterministic pseudo-random fill without pulling in rng here.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2_000) as f64 / 100.0 - 10.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_matmul_matches_naive_across_shapes_and_tiers() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (5, 3, 9),
            (4, 8, 8),
            (13, 17, 23),
            (32, 1, 32),
            (3, 40, 11),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = fill(m * k, 1 + (m * 100 + k * 10 + n) as u64);
            let b = fill(k * n, 2 + (m + k + n) as u64);
            let mut naive = vec![0.0; m * n];
            matmul_naive(&a, &b, &mut naive, k, n);
            for &tier in SimdTier::available() {
                let mut fast = vec![0.0; m * n];
                matmul_with_tier(&a, &b, &mut fast, m, k, n, tier);
                assert_eq!(bits(&naive), bits(&fast), "m={m} k={k} n={n} {tier:?}");
            }
        }
    }

    #[test]
    fn blocked_matmul_transpose_matches_naive_across_shapes_and_tiers() {
        for &(m, k, p) in &[
            (1, 1, 1),
            (1, 9, 2),
            (5, 3, 9),
            (2, 16, 4),
            (13, 17, 23),
            (7, 1, 5),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = fill(m * k, 11 + (m * 100 + k * 10 + p) as u64);
            let b = fill(p * k, 13 + (m + k + p) as u64);
            let mut naive = vec![0.0; m * p];
            matmul_transpose_naive(&a, &b, &mut naive, k, p);
            for &tier in SimdTier::available() {
                let mut fast = vec![0.0; m * p];
                matmul_transpose_with_tier(&a, &b, &mut fast, m, k, p, tier);
                assert_eq!(bits(&naive), bits(&fast), "m={m} k={k} p={p} {tier:?}");
            }
        }
    }

    #[test]
    fn tier_detection_is_sane() {
        let tiers = SimdTier::available();
        assert_eq!(tiers.first(), Some(&SimdTier::Scalar));
        assert!(SimdTier::detect().is_available());
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "ascending preference order");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(tiers, [SimdTier::Scalar, SimdTier::Avx2], "AVX2 host");
        }
        if SimdTier::detect() == SimdTier::Scalar {
            assert_eq!(tiers, [SimdTier::Scalar]);
            assert!(!SimdTier::Avx2.is_available());
        }
        // An unavailable tier must degrade to scalar, not hit bad kernels.
        for tier in [SimdTier::Scalar, SimdTier::Avx2] {
            let (a, b) = ([1.0, 2.0], [3.0, 4.0, 5.0, 6.0]);
            let mut out = vec![0.0; 2];
            matmul_with_tier(&a, &b, &mut out, 1, 2, 2, tier);
            assert_eq!(out, vec![13.0, 16.0], "{tier:?}");
        }
    }

    #[test]
    fn zero_times_infinity_is_nan() {
        // 0 · ∞ must propagate as NaN in both kernels; the old zero-skip hid it.
        let a = [0.0, 1.0];
        let b = [f64::INFINITY, 0.0, 0.0, 2.0];
        let mut fast = vec![0.0; 2];
        matmul(&a, &b, &mut fast, 1, 2, 2);
        assert!(fast[0].is_nan(), "0*inf + 1*0 must be NaN, got {}", fast[0]);
        assert_eq!(fast[1], 2.0);
        let mut naive = vec![0.0; 2];
        matmul_naive(&a, &b, &mut naive, 2, 2);
        assert_eq!(bits(&fast), bits(&naive));
    }
}
